"""Subgraph census: one reduction from degree sums and intersection sums.

Every :class:`CensusReport` field is a closed form in the degree
aggregates of :mod:`crossvar.graph` and four sums over neighbourhood
intersections, where ``c_st`` and ``S_st`` are the number and the degree
sum of the common neighbours of two vertices:

* ``mu2 = sum_e c_st`` (three times the triangle count),
* ``s_sum = sum_e S_st`` (the degree sum over triangle corners),
* ``kc_sum = sum_e (k_s + k_t) c_st``,
* ``c4_scaled = sum over wedges a-x-b of (c_ab - 1)`` (four times the
  4-cycle count).

:func:`reduce_census` takes the degree sums from
:func:`crossvar.graph.degree_aggregates` and turns them and the four
intersection sums into the census.  The routes differ only
in where the intersections come from: :func:`fast_census` merges sorted
adjacency lists on every request, the reuse route of
:mod:`crossvar.variance` puts the same merge behind a cache keyed by vertex
pair, and :func:`forest_census` requests none, because all four sums vanish
on an acyclic graph.  Each count has a brute-force counterpart in
:mod:`crossvar.brute` that serves as its oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations
from typing import Callable

from .errors import InternalInconsistencyError, NotAForestError
from .graph import Graph, degree_aggregates

#: ``inter(a, b) -> (c_ab, S_ab)`` for two distinct vertices ``a < b``
Intersect = Callable[[int, int], tuple[int, int]]


@dataclass(frozen=True)
class CensusReport:
    """All aggregate quantities feeding the crossing-variance formula."""

    q: int
    K: int
    phi1: int
    phi2: int
    lambda1: int
    lambda2: int
    mu1: int
    mu2: int
    nP4: int
    nP5: int
    nC3: int
    nC4: int
    nPaw: int
    nC3L2: int

    def to_json_dict(self) -> dict:
        d = asdict(self)
        # stable external field set
        return {
            key: d[key]
            for key in (
                "q", "K", "phi1", "phi2", "lambda1", "lambda2",
                "nP4", "nP5", "nC4", "nPaw", "nC3L2",
            )
        }


def merge_intersection(g: Graph, u: int, v: int) -> tuple[int, int]:
    """``(c_uv, S_uv)`` by a linear merge of the two sorted adjacency lists."""
    return _merge(g.adjacency, g.degrees, u, v)


def bound_merge(g: Graph) -> Intersect:
    """:func:`merge_intersection` on ``g`` with its views looked up once, for
    a census pass that makes many requests."""
    return partial(_merge, g.adjacency, g.degrees)


def _merge(
    adjacency: tuple[tuple[int, ...], ...], degrees: tuple[int, ...], u: int, v: int
) -> tuple[int, int]:
    a, b = adjacency[u], adjacency[v]
    i = j = 0
    size = deg = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            size += 1
            deg += degrees[x]
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return size, deg


def _intersection_sums(g: Graph, inter: Intersect) -> tuple[int, int, int, int]:
    """``(mu2, s_sum, kc_sum, c4_scaled)``: one request per edge and per wedge.

    Every request has ``a < b``, so a cache can use ``(a, b)`` as its key.
    Summing ``c_ab - 1`` over the wedges ``a-x-b`` counts each vertex pair
    ``c_ab (c_ab - 1)`` times, and each 4-cycle has two diagonals.
    """
    k, adjacency = g.degrees, g.adjacency
    mu2 = s_sum = kc_sum = 0
    for s, t in g.edges():
        c, d = inter(s, t)
        mu2 += c
        s_sum += d
        kc_sum += (k[s] + k[t]) * c
    c4_scaled = 0
    for neighbors in adjacency:
        for a, b in combinations(neighbors, 2):
            c4_scaled += inter(a, b)[0] - 1
    return mu2, s_sum, kc_sum, c4_scaled


def _exact_quotient(scaled: int, divisor: int, name: str) -> int:
    if scaled % divisor:
        raise InternalInconsistencyError(
            f"{name} scaled by {divisor} is {scaled}, not a multiple of {divisor}"
        )
    return scaled // divisor


def reduce_census(g: Graph, mu2: int, s_sum: int, kc_sum: int, c4_scaled: int) -> CensusReport:
    """Every census field from degree sums and the four intersection sums.

    The degree sums come from :func:`crossvar.graph.degree_aggregates`, so
    the reduction itself sums nothing over vertices or edges.  The path-5
    count uses ``sum_triangles (k_x + k_y + k_z) = s_sum`` in ``nP5 =
    sum_x [(xi_x - k_x)^2 - k_x (k_x - 1)^2] / 2 - 4 nC4 - 2 s_sum + 3 mu2``.
    """
    agg, m = degree_aggregates(g), g.m
    mmt2, mmt3, mmt4, psi = agg.mmt2, agg.mmt3, agg.mmt4, agg.psi
    xi2, k2xi = agg.xi2, agg.k2xi
    # per-edge sums of (k_t - 1)(xi_s - k_t) + (k_s - 1)(xi_t - k_s) and of
    # (k_s + k_t)(k_s - 1)(k_t - 1), gathered by vertex
    lambda1 = xi2 - mmt3 - 2 * psi + mmt2 - 2 * s_sum
    lambda2 = lambda1 + k2xi - mmt3 - 2 * psi + mmt2 - kc_sum
    phi2_twice = mmt2 * mmt2 - 2 * k2xi - xi2 - mmt4 + mmt3 + 2 * psi
    n_c4 = _exact_quotient(c4_scaled, 4, "nC4")
    p5_twice = (
        xi2 - 4 * psi + 3 * mmt2 - mmt3 - 2 * m
        - 8 * n_c4 - 4 * s_sum + 6 * mu2
    )
    return CensusReport(
        q=agg.q,
        K=(m + 1) * mmt2 - mmt3 - 2 * psi,
        phi1=(m + 1) * psi - k2xi,
        phi2=_exact_quotient(phi2_twice, 2, "phi2"),
        lambda1=lambda1,
        lambda2=lambda2,
        mu1=psi,
        mu2=mu2,
        nP4=m - mmt2 + psi - mu2,
        nP5=_exact_quotient(p5_twice, 2, "nP5"),
        nC3=_exact_quotient(mu2, 3, "nC3"),
        nC4=n_c4,
        nPaw=s_sum - 2 * mu2,
        nC3L2=_exact_quotient((m + 3) * mu2 - kc_sum - s_sum, 3, "nC3L2"),
    )


def fast_census(g: Graph) -> CensusReport:
    """The paper's general route: a sorted-list merge for every request."""
    sums = _intersection_sums(g, bound_merge(g))
    return reduce_census(g, *sums)


def forest_census(g: Graph) -> CensusReport:
    """Census of an acyclic graph in time linear in its size.

    A forest has no triangles and no 4-cycles, so every intersection sum
    is zero and no intersection is requested.
    """
    if not g.is_forest():
        raise NotAForestError("graph contains a cycle")
    return reduce_census(g, 0, 0, 0, 0)


def count_paths4(g: Graph) -> int:
    """Number of subgraphs isomorphic to the 4-vertex path."""
    return fast_census(g).nP4


def count_paths5(g: Graph) -> int:
    """Number of subgraphs isomorphic to the 5-vertex path."""
    return fast_census(g).nP5


def count_cycles4(g: Graph) -> int:
    """Number of 4-cycles."""
    return fast_census(g).nC4


def count_paw(g: Graph) -> int:
    """Number of subgraphs isomorphic to the paw (triangle plus pendant edge)."""
    return fast_census(g).nPaw


def count_c3l2(g: Graph) -> int:
    """Number of subgraphs isomorphic to a triangle plus one disjoint edge."""
    return fast_census(g).nC3L2
