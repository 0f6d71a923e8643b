"""Variance of the number of edge crossings under a random layout.

Several routes compute the same exact rational value:

* ``variance_naive``: classify all pairs of independent edge pairs.
* ``variance_general``, ``variance_general_reuse`` and ``variance_forest``:
  the census of :mod:`crossvar.census`, taken through :func:`route_census`,
  the one function that maps a route name to its census, turned into the
  seven type frequencies of
  :func:`crossvar.frequencies.frequencies_from_census` and weighted by the
  layout's expectations.  The three share one census reduction and differ
  only in where neighbourhood intersections come from: a merge per edge
  and wedge, one numpy table of vertex pairs, or none at all on a forest.
  :mod:`crossvar.census` describes how the table is read block by block
  and why its sums stay exact.
* ``variance_rla_closed``: single closed form for the uniform random
  linear arrangement layout, over the census of the ``reuse`` route.  It
  never takes ``auto``, which would give it the forest route on a forest:
  a check of the forest route against the closed form then still compares
  two different sources of intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .census import (
    CensusReport,
    fast_census,
    forest_census,
    table_census,
)
from .frequencies import (
    CONTRIBUTING_TYPES,
    ExpectationTable,
    FrequencyVector,
    builtin_rla_table,
    frequencies_brute,
    frequencies_from_census,
)
from .errors import ValidationError
from .graph import Graph, compute_q


def format_rational(x: Fraction) -> str:
    """Render as ``p`` or ``p/q``."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_decimal(x: Fraction) -> str:
    """Decimal rendering with 12 significant digits."""
    if x == 0:
        return "0"
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class VarianceResult:
    """Exact first and second moments of the crossing count."""

    layout: str
    algorithm: str
    q: int
    expectation: Fraction
    variance: Fraction
    hash_table_size: int | None = None

    def to_json_dict(self) -> dict:
        d = {
            "layout": self.layout,
            "algorithm": self.algorithm,
            "q": self.q,
            "expectation": format_rational(self.expectation),
            "expectation_decimal": rational_decimal(self.expectation),
            "variance": format_rational(self.variance),
            "variance_decimal": rational_decimal(self.variance),
        }
        if self.hash_table_size is not None:
            d["hash_table_size"] = self.hash_table_size
        return d


def variance_from_frequencies(
    freq: FrequencyVector, table: ExpectationTable | None = None
) -> Fraction:
    """Inner product of type frequencies with the layout expectations."""
    table = table or builtin_rla_table()
    d, numerators = table.scaled_gamma
    counts = freq.counts
    return Fraction(
        sum(counts[code] * x for code, x in zip(CONTRIBUTING_TYPES, numerators)), d
    )


def _result(
    q: int, variance: Fraction, algorithm: str, table: ExpectationTable,
    hash_table_size: int | None = None,
) -> VarianceResult:
    if variance < 0:
        # a table may pass load_layout_table's checks and still be no layout
        raise ValidationError(
            f"layout table {table.name!r} gives this graph a negative variance,"
            f" {variance}: it is not the table of a layout"
        )
    return VarianceResult(
        layout=table.name,
        algorithm=algorithm,
        q=q,
        expectation=q * table.delta,
        variance=variance,
        hash_table_size=hash_table_size,
    )


def variance_naive(g: Graph, table: ExpectationTable | None = None) -> VarianceResult:
    """Reference route: classify every ordered pair of Q elements.

    Raises :class:`crossvar.errors.OracleBudgetError` over the
    classification's budgets (:func:`crossvar.frequencies.frequencies_brute`).
    """
    table = table or builtin_rla_table()
    freq = frequencies_brute(g)
    return _result(compute_q(g), variance_from_frequencies(freq, table), "naive", table)


def route_census(g: Graph, algorithm: str = "auto") -> tuple[str, CensusReport, int | None]:
    """``(route, census, pairs)``: the census of route ``algorithm``, or for
    ``auto`` of the route :func:`select_algorithm` picks.

    This is the one place a route name is mapped to its census: a merge per
    edge and wedge for ``general``, the table of vertex pairs for ``reuse``
    and none for ``forest``.  Every census in the package is taken here:
    the census routes', the closed form's, ``crossvar stats``' and the
    selftest's.  ``pairs`` is the table's number of distinct pairs for
    ``reuse`` and ``None`` otherwise.
    """
    route = select_algorithm(g, algorithm)
    if route == "general":
        return route, fast_census(g), None
    if route == "reuse":
        return (route, *table_census(g))
    if route == "forest":
        return route, forest_census(g), None
    raise ValidationError(f"no census route {route!r}")


def _census_result(g: Graph, algorithm: str, table: ExpectationTable | None) -> VarianceResult:
    route, c, pairs = route_census(g, algorithm)
    table = table or builtin_rla_table()
    variance = variance_from_frequencies(frequencies_from_census(c, g.m), table)
    return _result(c.q, variance, route, table, pairs)


def variance_general(g: Graph, table: ExpectationTable | None = None) -> VarianceResult:
    """General-graph route: a sorted-list merge for every intersection."""
    return _census_result(g, "general", table)


def variance_general_reuse(
    g: Graph, table: ExpectationTable | None = None
) -> VarianceResult:
    """General-graph route reusing neighborhood intersections.

    Every intersection is read from one table of vertex pairs (see
    :func:`crossvar.census.table_census`) instead of merged, so a pair
    shared by many wedges is counted, not merged again.
    ``hash_table_size`` is the number of distinct pairs in the table.
    """
    return _census_result(g, "reuse", table)


def variance_forest(g: Graph, table: ExpectationTable | None = None) -> VarianceResult:
    """Linear-time route, valid only for acyclic graphs."""
    return _census_result(g, "forest", table)


def variance_rla_closed(g: Graph) -> VarianceResult:
    """Uniform random linear arrangements via one integer closed form over
    the ``reuse`` route's census, whatever the graph (see the module
    docstring)."""
    c = route_census(g, "reuse")[1]
    m = g.m
    scaled = (
        8 * (m + 2) * c.q
        + 2 * c.K
        - (2 * m + 7) * c.nP4
        - 12 * c.nC4
        + 6 * c.nPaw
        - c.nP5
        + 6 * c.nC3L2
        - 3 * c.lambda1
        + c.lambda2
        - 2 * c.phi1
        + c.phi2
    )
    return _result(c.q, Fraction(scaled, 180), "rla-closed", builtin_rla_table())


def select_algorithm(g: Graph, requested: str = "auto") -> str:
    """The route name ``requested``, or for ``auto`` the forest route on
    forests and the reuse route otherwise."""
    if requested != "auto":
        return requested
    return "forest" if g.is_forest() else "reuse"


def compute_variance(
    g: Graph, algorithm: str = "auto", table: ExpectationTable | None = None
) -> VarianceResult:
    """Dispatch to one of the variance routes by name."""
    algorithm = select_algorithm(g, algorithm)
    if algorithm == "rla-closed":
        if table is not None and table is not builtin_rla_table():
            raise ValidationError("the closed form is specific to the rla layout")
        return variance_rla_closed(g)
    routes = {
        "naive": variance_naive,
        "general": variance_general,
        "reuse": variance_general_reuse,
        "forest": variance_forest,
    }
    if algorithm not in routes:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    return routes[algorithm](g, table)
