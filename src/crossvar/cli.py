"""Command-line front end.

Commands: ``stats`` (census summary), ``variance`` (exact crossing
variance), ``zscore`` (standardized observed crossings plus tail bounds),
``selftest`` (built-in equality suite).

Exit codes: 0 success, 1 selftest failure, 2 input/parse error,
3 algorithm not applicable, 4 degenerate statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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
from .graph import load_graph
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
    with open(spec, "r", encoding="utf-8") as fh:
        return load_layout_table(fh.read(), name=spec)


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


def cmd_stats(args) -> int:
    g = load_graph(args.file)
    # the census of the route compute_variance(g) takes
    census = route_census(g)[1]
    expectation = Fraction(census.q, 3)
    payload = {
        "n": g.n,
        "m": g.m,
        "census": census.to_json_dict(),
        "expectation_rla": format_rational(expectation),
        "expectation_rla_decimal": rational_decimal(expectation),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_variance(args) -> int:
    g = load_graph(args.file)
    table = _load_table(args.layout)
    algorithm = "rla-closed" if args.algorithm == "closed" else args.algorithm
    result = compute_variance(g, algorithm=algorithm, table=table)
    payload = {"n": g.n, "m": g.m, **result.to_json_dict()}
    _emit(payload, args.json)
    return EXIT_OK


def cmd_zscore(args) -> int:
    g = load_graph(args.file)
    table = _load_table(args.layout)
    if args.arrangement is not None:
        with open(args.arrangement, "r", encoding="utf-8") as fh:
            order = parse_arrangement(fh.read(), g)
        observed = count_crossings(g, order)
    else:
        observed = args.observed
    result = compute_variance(g, table=table)
    if not 0 <= observed <= result.q:
        # each crossing is one pair of independent edges
        raise ValidationError(
            f"observed crossing count {observed} is impossible: it must lie"
            f" in 0..q = {result.q}, the number of independent edge pairs"
        )
    z = zscore(observed, result.expectation, result.variance)
    bounds = {
        side: chebyshev_pvalue_bound(observed, result.expectation, result.variance, side)
        for side in ("two_sided", "lower", "upper")
    }
    payload = {
        "observed": observed,
        "expectation": format_rational(result.expectation),
        "variance": format_rational(result.variance),
        "zscore": z,
        "bound_two_sided": format_rational(bounds["two_sided"]),
        "bound_lower": format_rational(bounds["lower"]),
        "bound_upper": format_rational(bounds["upper"]),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_selftest(args) -> int:
    report = run_selftest(full=not args.quick)
    payload = {
        "graphs_checked": report.graphs_checked,
        "comparisons": report.comparisons,
        "failures": report.failures,
        "ok": report.ok,
    }
    _emit(payload, args.json)
    return EXIT_OK if report.ok else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossvar",
        description="Exact crossing-count statistics of graphs under random layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="subgraph census and expected crossings")
    p_stats.add_argument("file", help="edge-list file")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(fn=cmd_stats)

    p_var = sub.add_parser("variance", help="exact crossing variance")
    p_var.add_argument("file", help="edge-list file")
    p_var.add_argument("--layout", default="rla", help="'rla' or a layout-table file")
    p_var.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "naive", "general", "reuse", "forest", "closed"],
    )
    p_var.add_argument("--json", action="store_true")
    p_var.set_defaults(fn=cmd_variance)

    p_z = sub.add_parser("zscore", help="standardize an observed crossing count")
    p_z.add_argument("file", help="edge-list file")
    group = p_z.add_mutually_exclusive_group(required=True)
    group.add_argument("--observed", type=int, help="observed crossing count")
    group.add_argument("--arrangement", help="file with one space-separated vertex order")
    p_z.add_argument("--layout", default="rla")
    p_z.add_argument("--json", action="store_true")
    p_z.set_defaults(fn=cmd_zscore)

    p_self = sub.add_parser("selftest", help="run the built-in equality suite")
    p_self.add_argument("--quick", action="store_true", help="skip the slow ensembles")
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotAForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except DegenerateStatisticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (CrossvarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
