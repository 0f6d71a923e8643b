"""Built-in correctness suite over the standard family corpus.

:func:`verify` is the one check of a graph: three-way frequency
agreement, the ``q^2`` sum and the agreement of every variance route.
:func:`run_selftest`, behind the ``selftest`` CLI command, runs it over
:func:`corpus`.  The frequency check takes the ``general`` route's census,
the per-wedge merge, through :func:`crossvar.variance.route_census`, so
that the ``reuse`` and ``closed`` variance routes, which read the pair
table, are compared with a census from a different source of
intersections.
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


def verify(g: Graph) -> tuple[int, list[str]]:
    """Check every route on ``g`` against the naive classification: the
    number of comparisons made, and each disagreement found.

    The naive frequencies (:func:`frequencies_brute`) must agree with the
    ``general`` route's census and with pattern counting, type by type,
    and sum to ``q^2``; every variance route must give the naive route's
    exact rational.
    """
    brute = frequencies_brute(g)
    patterns = frequencies_from_subgraph_counts(g)
    census = frequencies_from_census(route_census(g, "general")[1], g.m)
    failures = [
        f"f_{code} brute={brute.counts[code]} {other}={f.counts[code]}"
        for code in CONTRIBUTING_TYPES
        for other, f in (("census", census), ("patterns", patterns))
        if brute.counts[code] != f.counts[code]
    ]
    q = compute_q(g)
    if brute.total() != q * q:
        failures.append(f"sum of frequencies {brute.total()} != q^2 {q * q}")
    # every route on the RLA table, the default of each
    routes = {
        "naive": variance_from_frequencies(brute),
        "patterns": variance_from_frequencies(patterns),
        "general": variance_general(g).variance,
        "reuse": variance_general_reuse(g).variance,
        "closed": variance_rla_closed(g).variance,
    }
    if g.is_forest():
        routes["forest"] = variance_forest(g).variance
    failures += [f"variance {route}={value} != naive={routes['naive']}"
                 for route, value in routes.items() if value != routes["naive"]]
    return 2 * len(CONTRIBUTING_TYPES) + 1 + len(routes), failures


def run_selftest(full: bool = True) -> SelftestReport:
    """:func:`verify` on every graph of :func:`corpus`, each disagreement
    led by the graph's name."""
    report = SelftestReport()
    for name, g in corpus(full=full):
        comparisons, failures = verify(g)
        report.graphs_checked += 1
        report.comparisons += comparisons
        report.failures += [f"{name}: {failure}" for failure in failures]
    return report
