"""Built-in correctness suite over the standard family corpus.

The corpus and the two equality checks (three-way frequency agreement,
five-way variance agreement) are shared between the test suite and the
``selftest`` CLI command.  The frequency check takes the ``general``
route's census, the per-wedge merge, through
:func:`crossvar.variance.route_census`, so that the variance check's
``reuse`` and ``closed`` routes, which read the pair table, are compared
with a census from a different source of intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import generators as gen
from .frequencies import (
    CONTRIBUTING_TYPES,
    frequencies_brute,
    frequencies_from_census,
    frequencies_from_subgraph_counts,
)
from .graph import Graph, compute_q
from .variance import (
    builtin_rla_table,
    route_census,
    variance_forest,
    variance_from_frequencies,
    variance_general,
    variance_general_reuse,
    variance_rla_closed,
)


# largest vertex count of the deterministic families
_MAX_N = 12


def corpus(full: bool = True):
    """Yield (name, graph) over the standard test families.

    ``full`` includes the Erdos-Renyi ensemble and the free-tree sweep;
    ``_MAX_N`` caps the deterministic families.
    """
    for n in range(2, 8):
        yield f"complete-{n}", gen.complete(n)
    for a in range(2, 5):
        for b in range(a, 5):
            yield f"complete-bipartite-{a}-{b}", gen.complete_bipartite(a, b)
    for n in range(2, _MAX_N + 1):
        yield f"path-{n}", gen.path(n)
    for n in range(3, _MAX_N + 1):
        yield f"cycle-{n}", gen.cycle(n)
    for n in range(2, _MAX_N + 1):
        yield f"star-{n}", gen.star(n)
    for n in range(3, _MAX_N + 1):
        yield f"quasi-star-{n}", gen.quasi_star(n)
    for n in range(2, _MAX_N + 1, 2):
        yield f"one-regular-{n}", gen.one_regular(n)
    for n in range(4, _MAX_N + 1):
        yield f"random-forest-{n}", gen.random_forest(n, seed=n)
    if full:
        for n in range(2, 10):
            for i, t in enumerate(gen.all_trees(n)):
                yield f"tree-{n}-{i}", t
        for n in range(10, 21):
            for p in (0.1, 0.2, 0.5):
                for seed in range(5):
                    yield f"er-{n}-{p}-{seed}", gen.erdos_renyi(n, p, seed=seed)


@dataclass
class SelftestReport:
    """Outcome of the built-in suite."""

    graphs_checked: int = 0
    comparisons: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_frequencies(name: str, g: Graph, report: SelftestReport, brute, patterns) -> None:
    """Three independent routes to the type frequencies must agree;
    ``brute`` and ``patterns`` are :func:`frequencies_brute` and
    :func:`frequencies_from_subgraph_counts` of ``g``."""
    census = frequencies_from_census(route_census(g, "general")[1], g.m)
    q = compute_q(g)
    for code in CONTRIBUTING_TYPES:
        report.comparisons += 2
        if brute.counts[code] != census.counts[code]:
            report.failures.append(
                f"{name}: f_{code} brute={brute.counts[code]} census={census.counts[code]}"
            )
        if brute.counts[code] != patterns.counts[code]:
            report.failures.append(
                f"{name}: f_{code} brute={brute.counts[code]} patterns={patterns.counts[code]}"
            )
    report.comparisons += 1
    if brute.total() != q * q:
        report.failures.append(f"{name}: sum of frequencies {brute.total()} != q^2 {q * q}")


def check_variances(name: str, g: Graph, report: SelftestReport, brute, patterns) -> None:
    """All variance routes must produce one exact rational; ``brute`` and
    ``patterns`` are the frequencies :func:`check_frequencies` takes."""
    table = builtin_rla_table()
    routes = {
        "naive": variance_from_frequencies(brute, table),
        "patterns": variance_from_frequencies(patterns, table),
        "general": variance_general(g, table).variance,
        "reuse": variance_general_reuse(g, table).variance,
        "closed": variance_rla_closed(g).variance,
    }
    if g.is_forest():
        routes["forest"] = variance_forest(g, table).variance
    reference = routes["naive"]
    for route, value in routes.items():
        report.comparisons += 1
        if value != reference:
            report.failures.append(
                f"{name}: variance {route}={value} != naive={reference}"
            )


def run_selftest(full: bool = True) -> SelftestReport:
    report = SelftestReport()
    for name, g in corpus(full=full):
        brute = frequencies_brute(g)
        patterns = frequencies_from_subgraph_counts(g)
        check_frequencies(name, g, report, brute, patterns)
        check_variances(name, g, report, brute, patterns)
        report.graphs_checked += 1
    return report
