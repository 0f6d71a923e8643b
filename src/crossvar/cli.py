"""Command-line front end.

Commands: ``stats`` (census summary), ``variance`` (exact crossing
variance), ``zscore`` (standardized observed crossings plus tail bounds),
``selftest`` (built-in equality suite).

Every input file is read as UTF-8, a leading byte-order mark dropped, by
:func:`crossvar.graph.read_text` and split into lines by one rule,
:func:`crossvar.graph.lines`.

Exit codes: 0 success, 1 selftest failure, 2 input/parse error or out of
memory, 3 algorithm not applicable, 4 degenerate statistics.  Each error
is one ``error:`` line on stderr, not a traceback; a file that is not
UTF-8 is named with the line of its first bad byte.  Each warning, such
as that of collapsed duplicate edges, is one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict

from .arrangements import (
    chebyshev_pvalue_bound,
    count_crossings,
    parse_arrangement,
    zscore,
)
from .errors import (
    CrossvarError,
    DegenerateStatisticsError,
    NotAForestError,
    ValidationError,
)
from .frequencies import builtin_rla_table, load_layout_table
from .graph import load_graph, read_number, read_text
from .selftest import run_selftest
from .variance import (
    compute_variance,
    format_rational,
    rational_decimal,
    route_census,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_ALGORITHM = 3
EXIT_DEGENERATE = 4


def _load_table(spec: str):
    if spec == "rla":
        return builtin_rla_table()
    return load_layout_table(read_text(spec), name=spec)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2} = {v2}")
            else:
                print(f"{key} = {value}")


def _crossing_count(token: str) -> int:
    """``--observed``: ASCII decimal digits, as :func:`read_number` reads
    them, after an optional ``-``, so that a negative count is refused as
    impossible rather than as malformed."""
    count = read_number(token.removeprefix("-"))
    if count is None:
        raise ValidationError(f"crossing count {token!r} is not ASCII decimal digits")
    return -count if token.startswith("-") else count


def cmd_stats(args) -> dict:
    g = load_graph(args.file)
    # the census of the route compute_variance(g) takes
    census = route_census(g)[1]
    expectation = census.q * builtin_rla_table().delta
    return {
        "n": g.n,
        "m": g.m,
        "census": census.to_json_dict(),
        "expectation_rla": format_rational(expectation),
        "expectation_rla_decimal": rational_decimal(expectation),
    }


def cmd_variance(args) -> dict:
    g = load_graph(args.file)
    table = _load_table(args.layout)
    algorithm = "rla-closed" if args.algorithm == "closed" else args.algorithm
    result = compute_variance(g, algorithm=algorithm, table=table)
    return {"n": g.n, "m": g.m, **result.to_json_dict()}


def cmd_zscore(args) -> dict:
    observed = None if args.observed is None else _crossing_count(args.observed)
    g = load_graph(args.file)
    table = _load_table(args.layout)
    if args.arrangement is not None:
        observed = count_crossings(g, parse_arrangement(read_text(args.arrangement), g))
    result = compute_variance(g, table=table)
    if not 0 <= observed <= result.q:
        # each crossing is one pair of independent edges
        raise ValidationError(
            f"observed crossing count {observed} is impossible: it must lie"
            f" in 0..q = {result.q}, the number of independent edge pairs"
        )
    payload = {
        "observed": observed,
        "expectation": format_rational(result.expectation),
        "variance": format_rational(result.variance),
        "zscore": zscore(observed, result.expectation, result.variance),
    }
    for side in ("two_sided", "lower", "upper"):
        bound = chebyshev_pvalue_bound(observed, result.expectation, result.variance, side)
        payload[f"bound_{side}"] = format_rational(bound)
    return payload


def cmd_selftest(args) -> dict:
    report = run_selftest(full=not args.quick)
    return {**asdict(report), "ok": report.ok}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossvar",
        description="Exact crossing-count statistics of graphs under random layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_stats = sub.add_parser("stats", help="subgraph census and expected crossings")
    p_var = sub.add_parser("variance", help="exact crossing variance")
    p_z = sub.add_parser("zscore", help="standardize an observed crossing count")
    p_self = sub.add_parser("selftest", help="run the built-in equality suite")

    # each shared argument is declared once, in the place it has in every
    # usage line: the file first, --json last
    for p in (p_stats, p_var, p_z):
        p.add_argument("file", help="edge-list file")
    group = p_z.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--observed",
        help="observed crossing count; a value that starts with '-' and is not"
        " a plain negative number, such as -1_0, must be given as --observed=VALUE",
    )
    group.add_argument(
        "--arrangement",
        help="file of vertex ids in left-to-right order, separated by whitespace"
        " across any number of lines; '#' starts a comment",
    )
    for p in (p_var, p_z):
        p.add_argument("--layout", default="rla", help="'rla' or a layout-table file")
    p_var.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "naive", "general", "reuse", "forest", "closed"],
    )
    p_self.add_argument("--quick", action="store_true", help="skip the slow ensembles")
    for p, fn in ((p_stats, cmd_stats), (p_var, cmd_variance), (p_z, cmd_zscore),
                  (p_self, cmd_selftest)):
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Run one command: its payload is printed here, and the exit code
    chosen here, from the payload or the error the command raised."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # one line per warning, without the file, line and source that raised it
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            payload = args.fn(args)
        _emit(payload, args.json)
    except (CrossvarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotAForestError):
            return EXIT_ALGORITHM
        if isinstance(exc, DegenerateStatisticsError):
            return EXIT_DEGENERATE
        return EXIT_PARSE
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError has no text
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_PARSE
    # only the selftest's payload has "ok"
    return EXIT_OK if payload.get("ok", True) else EXIT_SELFTEST


if __name__ == "__main__":
    sys.exit(main())
