"""Benchmark of the crossvar library and CLI, run from a source checkout.

    python3 perfbench/run.py --workload dense-er --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run it from the repository root; it imports crossvar from ``./src``.  One
run generates the workload's input files from ``--seed`` (under
``.perfbench/``), computes reference values, then runs the workload's
calls in a fresh worker process for ``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics: the median wall time of one
repetition, the median time to import crossvar in a fresh process, and the
worker's peak resident set size.  ``--trace 1`` splits the time between an
untraced and a traced half and prints the per-layer metrics: per
repetition, the median time spent in each library layer, counts of the
work done, and the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the inputs and
every repetition's raw values.  Spans are written to ``.perfbench/traces``.
``--workload all`` runs every workload both ways and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORTS = 15
WORKER_TIMEOUT_S = 150
# the probe kernel runs after the import, so that its modules are not preloaded
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import crossvar; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import speed; print(t, sorted(speed.time_kernel() for _ in range(3))[1])"
)

# span name -> per-layer metric "<name>_s"
SPANS = (
    "graph.parse", "graph.build", "graph.aggregates", "graph.is_forest",
    "variance.select", "variance.reuse", "variance.forest", "variance.general",
    "census.fast_census", "frequencies.table", "arrangements.parse",
    "arrangements.count_crossings", "arrangements.bounds",
    "arrangements.monte_carlo", "cli.main",
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNTS = {
    "graph.n": "count", "graph.m": "count", "graph.input_bytes": "B",
    "graph.wedges": "count", "census.intersection_calls": "count",
    "census.merge_steps": "count", "census.triangles": "count",
    "census.cycles4": "count", "variance.hash_table_size": "count",
    "variance.cache_hit_ratio": "ratio", "arrangements.pairs_tested": "count",
    "arrangements.mc_pair_tests": "count", "arrangements.mc_bytes_computed": "B",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPANS},
    "graph.tokenize_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
    **COUNTS,
}
#: counts derived from degrees, array shapes and which routes ran
COMPUTED = (
    "graph.wedges", "census.intersection_calls", "census.merge_steps",
    "variance.cache_hit_ratio", "arrangements.pairs_tested",
    "arrangements.mc_pair_tests", "arrangements.mc_bytes_computed",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def measure_setup(src: Path) -> list[tuple[float, float]]:
    """(import seconds, probe kernel seconds) of crossvar imports in fresh
    processes, after one warm-up import that leaves bytecode behind."""
    samples = []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(src), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            import_s, kernel_s = map(float, out.stdout.split())
            samples.append((import_s, kernel_s))
    return samples


def run_worker(src: Path, workdir: Path, wl, mode: str, seconds: float, seed: int) -> dict:
    job = {
        "src": str(src), "mode": mode, "seconds": seconds, "seed": seed,
        "calls": wl.calls, "extras": wl.extras, "probe": wl.probe,
    }
    job_path, result_path = workdir / f"job-{mode}.json", workdir / f"result-{mode}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_reps(reps: list[dict], ref: dict) -> tuple[int, list[str]]:
    """Number of failed calls and the first problems found."""
    failed, problems = 0, []
    for i, rep in enumerate(reps):
        for call in rep["calls"]:
            found = oracles.CHECKS[call["check"]](call, ref)
            if found:
                failed += 1
                problems.extend(f"rep {i} {call['check']}: {p}" for p in found[:3])
    return failed, problems[:20]


def layer_metrics(result: dict, wl, basis) -> dict[str, float]:
    """Per-layer metrics: medians over traced repetitions of per-repetition
    totals (time per layer, scaled like ``wall_s``, and counts of work)."""
    spans = result["spans"]
    by_request: dict[int, list[int]] = {}
    # span time without the speed probe's kernel runs inside it
    durations = [(s["end"] - s["start"]) / 1e9 - s["probe_s"] for s in spans]
    children: dict[int, float] = {}
    for i, s in enumerate(spans):
        by_request.setdefault(s["request"], []).append(i)
        if s["parent"] >= 0:
            children[s["parent"]] = children.get(s["parent"], 0.0) + durations[i]
    per_rep: list[dict[str, float]] = []
    for request in range(len(result["traced"])):
        row = {f"{name}_s": 0.0 for name in SPANS}
        calls = {name: 0 for name in SPANS}
        row["cli.self_s"] = 0.0
        observed: dict[str, int] = {}
        for i in by_request.get(request, []):
            s = spans[i]
            duration = durations[i]
            row[f"{s['name']}_s"] += duration
            calls[s["name"]] += 1
            if s["name"] == "cli.main":
                row["cli.self_s"] += duration - children.get(i, 0.0)
            observed.update({k: v for k, v in s.get("counters", {}).items() if v is not None})
        row["graph.tokenize_s"] = row["graph.parse_s"] - row["graph.build_s"]
        factor = speed.REFERENCE_S[wl.probe] / result["traced"][request]["kernel_s"]
        row = {name: value * factor for name, value in row.items()}
        calls_per_pass = basis.intersection_calls
        row["census.intersection_calls"] = (
            (calls["variance.reuse"] + calls["census.fast_census"]) * calls_per_pass
        )
        row["census.merge_steps"] = (
            calls["census.fast_census"] * basis.census_merges
            + calls["variance.reuse"] * basis.reuse_merges
        )
        keys = observed.get("hash_table_size")
        row["variance.hash_table_size"] = keys or 0
        row["variance.cache_hit_ratio"] = (
            1 - keys / calls_per_pass if keys and calls_per_pass else 0.0
        )
        row["census.triangles"] = observed.get("triangles", wl.ref.get("triangles", 0))
        row["census.cycles4"] = observed.get("cycles4", wl.ref.get("cycles4", 0))
        row["arrangements.pairs_tested"] = calls["arrangements.count_crossings"] * basis.pairs
        n_mc = calls["arrangements.monte_carlo"]
        row["arrangements.mc_pair_tests"] = n_mc * workloads.MC_SAMPLES * basis.pairs
        row["arrangements.mc_bytes_computed"] = n_mc * basis.mc_bytes
        per_rep.append(row)
    metrics = {
        name: (statistics.median if name.endswith("_s") else statistics.median_low)(
            r[name] for r in per_rep
        )
        for name in per_rep[0]
    }
    metrics.update({
        "graph.n": wl.n, "graph.m": len(wl.edges), "graph.input_bytes": wl.input_bytes,
        "graph.wedges": basis.wedges,
        "trace.overhead_s": statistics.median(r["wall_s"] for r in result["traced"])
        - statistics.median(r["wall_s"] for r in result["plain"]),
    })
    return metrics


def git_revision(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """One benchmark run: (record of everything measured, result line)."""
    src = root / "src"
    if not (src / "crossvar" / "__init__.py").is_file():
        raise BenchmarkError(f"no crossvar sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import crossvar
    import numpy

    if not Path(crossvar.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchmarkError(f"crossvar was imported from {crossvar.__file__}, not {src}")

    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=base))
    try:
        start = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, workdir)
        basis = workloads.work_basis(wl.n, wl.edges)
        prepare_s = time.perf_counter() - start
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "git_revision": git_revision(root),
            "inputs": {
                "n": wl.n, "m": len(wl.edges), "input_bytes": wl.input_bytes,
                "files": {k: p.stat().st_size for k, p in wl.files.items()},
            },
            "prepare_s": prepare_s, "computed_counts": list(COMPUTED),
        }
        mode = "traced" if trace else "plain"
        result = run_worker(src, workdir, wl, mode, seconds, seed)
        reps = result["plain"] + result.get("traced", [])
        attempted = sum(len(r["calls"]) for r in reps)
        failed, problems = check_reps(reps, wl.ref)
        wall = [r["wall_s"] for r in result["plain"]]
        record.update({
            "crossvar_file": result["crossvar_file"], "worker_import_s": result["import_s"],
            "raw": {
                "wall_s": wall,
                "unscaled_wall_s": [r["raw_s"] for r in result["plain"]],
                "kernel_s": [r["kernel_s"] for r in result["plain"]],
            },
            "variance_algorithms": sorted(_algorithms(reps)),
            "error_rate": failed / attempted, "problems": problems,
        })
        if trace:
            metrics = layer_metrics(result, wl, basis)
            units = PER_LAYER
            record["raw"]["traced_wall_s"] = [r["wall_s"] for r in result["traced"]]
            record["unpatched"] = result["unpatched"]
            record["trace_file"] = str(_write_spans(base, name, seed, result["spans"]))
        else:
            imports = measure_setup(src)
            setup = [speed.scaled(t, [k]) for t, k in imports]
            record["raw"].update(
                setup_s=setup, unscaled_setup_s=[t for t, _ in imports],
                setup_kernel_s=[k for _, k in imports], peak_rss_kb=result["peak_rss_kb"],
            )
            metrics = {
                "wall_s": statistics.median(wall),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_kb"] / 1024,
            }
            units = END_TO_END
        line = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        return record, line
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _algorithms(reps: list[dict]) -> set[str]:
    found = set()
    for rep in reps:
        for call in rep["calls"]:
            if call["check"] == "variance" and call.get("rc") == 0:
                try:
                    found.add(json.loads(call["out"])["algorithm"])
                except (ValueError, KeyError):
                    pass
    return found


def _write_spans(base: Path, name: str, seed: int, spans: list[dict]) -> Path:
    traces = base / "traces"
    traces.mkdir(exist_ok=True)
    path = traces / f"{name}-{seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    return path.relative_to(base.parent)


def print_table(seed: int, seconds: float, root: Path) -> bool:
    ok = True
    print(f"{'workload':<12} {'metric':<32} {'value':>16} unit")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record, line = run(name, seed, seconds, trace, root)
            ok = ok and line["correct"]
            rows = dict(line["metrics"])
            if not trace:
                rows["error_rate"] = {"value": record["error_rate"], "unit": "ratio"}
            for metric, m in rows.items():
                label = f"{m['unit']} (computed)" if metric in COMPUTED else m["unit"]
                print(f"{name:<12} {metric:<32} {m['value']:>16.6g} {label}")
            for problem in record["problems"]:
                print(f"{name:<12} FAILED: {problem}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload == "all":
            return 0 if print_table(args.seed, args.seconds, root) else 1
        record, line = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
