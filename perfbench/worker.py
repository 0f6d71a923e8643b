"""Runs one workload's operations in a fresh process and reports them.

Usage: python3 worker.py JOB.json RESULT.json

The job names the ``src`` directory to import crossvar from, the calls that
make up one repetition, and how many seconds to repeat them.  Every call's
exit code and output go to the result file; the parent process checks
them.  In ``traced`` mode the repetitions run twice: untraced for half the
time, then with spans around each library layer for the other half.
A speed probe (see ``speed.py``) runs throughout; its time is excluded
from every call and span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_REPS = 3
MAX_REPS = 500


def _counters(result, **fields):
    return {key: getattr(result, attr, None) for key, attr in fields.items()}


def trace_targets(crossvar):
    """``(owner, attribute, span name[, observe])`` for each layer boundary.

    A function is patched in every module that calls it by name.
    """
    cli, graph = crossvar.cli, crossvar.graph
    variance, census = crossvar.variance, crossvar.census
    arrangements = crossvar.arrangements
    census_counts = lambda r: _counters(r, triangles="nC3", cycles4="nC4")  # noqa: E731
    reuse_counts = lambda r: _counters(r, hash_table_size="hash_table_size")  # noqa: E731
    return [
        (cli, "main", "cli.main"),
        (cli, "load_graph", "graph.parse"),
        (graph.Graph, "__init__", "graph.build"),
        (graph.Graph, "is_forest", "graph.is_forest"),
        (variance, "degree_aggregates", "graph.aggregates"),
        (census, "degree_aggregates", "graph.aggregates"),
        (variance, "select_algorithm", "variance.select"),
        (variance, "variance_general_reuse", "variance.reuse", reuse_counts),
        (variance, "variance_forest", "variance.forest"),
        (variance, "variance_general", "variance.general"),
        (cli, "fast_census", "census.fast_census", census_counts),
        (variance, "fast_census", "census.fast_census", census_counts),
        (cli, "builtin_rla_table", "frequencies.table"),
        (variance, "builtin_rla_table", "frequencies.table"),
        (cli, "parse_arrangement", "arrangements.parse"),
        (cli, "count_crossings", "arrangements.count_crossings"),
        (cli, "zscore", "arrangements.bounds"),
        (cli, "chebyshev_pvalue_bound", "arrangements.bounds"),
        (arrangements, "monte_carlo", "arrangements.monte_carlo"),
    ]


class Runner:
    def __init__(self, crossvar, job: dict):
        self.crossvar = crossvar
        self.job = job
        self.graphs: dict[str, object] = {}
        self.next_seed = job["seed"]
        # graphs for in-process calls are loaded before any timing or tracing
        for call in job["calls"] + job["extras"]:
            if call["kind"] == "monte_carlo":
                self.graphs[call["graph"]] = crossvar.load_graph(call["graph"])

    def call(self, spec: dict, probe: speed.SpeedProbe) -> dict:
        """One call; its time ``s`` excludes the speed probe's."""
        record = {"check": spec["check"], "rc": None, "out": None, "error": None}
        if spec["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter_ns()
                try:
                    record["rc"] = self.crossvar.cli.main(spec["argv"])
                except SystemExit as exc:
                    record["rc"] = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # an operation that raises is a failure
                    record["error"] = repr(exc)
                end = time.perf_counter_ns()
            record["out"] = out.getvalue()
            record["stderr"] = err.getvalue()[-2000:]
        else:
            g = self.graphs[spec["graph"]]
            seed = self.next_seed
            self.next_seed += 1
            start = time.perf_counter_ns()
            try:
                result = self.crossvar.arrangements.monte_carlo(g, spec["samples"], seed=seed)
                record["rc"] = 0
            except Exception as exc:  # an operation that raises is a failure
                record["error"] = repr(exc)
            end = time.perf_counter_ns()
            if record["error"] is None:
                record["out"] = dataclasses.asdict(result)
        record["s"] = (end - start) / 1e9 - probe.within(start, end)
        return record

    def repeat(self, seconds: float, tracer=None) -> tuple[list[dict], speed.SpeedProbe]:
        """Repetitions for ``seconds`` (at least MIN_REPS, at most MAX_REPS).

        A repetition's ``raw_s`` is the time of its calls; ``wall_s`` is
        that time scaled to the reference speed by the probe kernel's times
        during the repetition, including one just before and one just after.
        """
        calls = self.job["calls"]
        extras = self.job["extras"] if tracer is not None else []
        reps = []
        deadline = time.perf_counter() + seconds
        kind = self.job["probe"]
        with speed.SpeedProbe(kind) as probe:
            while len(reps) < MAX_REPS and (len(reps) < MIN_REPS or time.perf_counter() < deadline):
                gc.collect()
                if tracer is not None:
                    tracer.request = len(reps)
                first = len(probe.samples)
                probe.sample()
                done = [self.call(c, probe) for c in calls]
                probe.sample()
                kernel_s = [d for _, d in probe.samples[first:]]
                raw = sum(r["s"] for r in done)
                for c in extras:
                    done.append({**self.call(c, probe), "extra": True})
                reps.append({
                    "raw_s": raw, "wall_s": speed.scaled(raw, kernel_s, kind),
                    "kernel_s": statistics.median(kernel_s), "calls": done,
                })
        return reps, probe


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import crossvar  # noqa: E402  (the program under test, from job["src"])
    import crossvar.cli  # noqa: E402

    import_s = time.perf_counter() - start
    crossvar_file = os.path.realpath(crossvar.__file__)
    if not crossvar_file.startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"crossvar imported from {crossvar_file}, not {job['src']}", file=sys.stderr)
        return 2
    runner = Runner(crossvar, job)
    result = {"import_s": import_s, "crossvar_file": crossvar_file}
    if job["mode"] == "plain":
        result["plain"], _ = runner.repeat(job["seconds"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        result["plain"], _ = runner.repeat(job["seconds"] / 2)
        tracer = Tracer()
        with tracer.patched(trace_targets(crossvar)):
            result["traced"], probe = runner.repeat(job["seconds"] / 2, tracer)
        for span in tracer.spans:
            span["probe_s"] = probe.within(span["start"], span["end"])
        result["spans"] = tracer.spans
        result["unpatched"] = tracer.unpatched
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
