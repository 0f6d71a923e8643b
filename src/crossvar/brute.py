"""Brute-force oracles: Q enumeration, pattern counting, exhaustive census,
pair-by-pair crossing counts, and the random linear arrangement's layout
constants.

Everything here is deliberately independent of the fast edge-traversal
forms in :mod:`crossvar.census`, of the crossing merge count in
:mod:`crossvar.arrangements` and of the typed constants of
:func:`crossvar.frequencies.builtin_rla_table`: counts come from explicit
enumeration of edge pairs, walks, vertex subsets and vertex orders, plus
naive adjacency-matrix powers as an extra cross-check.  Each pattern has
one enumerator: simple paths come from the DFS of :func:`simple_walks`,
which the pattern counts of
:func:`crossvar.frequencies.frequencies_from_subgraph_counts` read too,
and triangles from one scan of vertex triples.

:func:`brute_census` refuses a graph with more than
:data:`DEFAULT_ORACLE_LIMIT` = 12 vertices before it enumerates anything.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

import numpy as np

from .arrangements import validate_arrangement
from .census import CensusReport
from .errors import InternalInconsistencyError, OracleBudgetError, ValidationError
from .graph import Graph

DEFAULT_ORACLE_LIMIT = 12


def independent_edge_pairs(g: Graph) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All unordered pairs of vertex-disjoint edges, each edge as (u, v), u < v."""
    edges = list(g.edges())
    pairs = []
    for (e1, e2) in combinations(edges, 2):
        s, t = e1
        u, v = e2
        if s != u and s != v and t != u and t != v:
            pairs.append((e1, e2))
    return pairs


def count_crossings_brute(g: Graph, order) -> int:
    """Number of crossing edge pairs in the given arrangement, pair by pair.

    Two vertex-disjoint edges cross exactly when one endpoint of the
    second lies strictly between the endpoints of the first and the other
    does not.
    """
    order = validate_arrangement(g, order).tolist()
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    spans = []
    for u, v in g.edges():
        a, b = pos[u], pos[v]
        spans.append((a, b) if a < b else (b, a))
    crossings = 0
    for i in range(len(spans)):
        a1, b1 = spans[i]
        for j in range(i + 1, len(spans)):
            a2, b2 = spans[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                crossings += 1
    return crossings


#: the independent-edge pair that every representative below is paired with
_RLA_BASE = ((0, 1), (2, 3))

#: for each product type, an independent-edge pair on at most 8 vertices
#: that forms a pair of that type with ``_RLA_BASE``
RLA_REPRESENTATIVES = {
    "24": ((0, 1), (2, 3)),
    "13": ((0, 1), (2, 4)),
    "12": ((0, 1), (4, 5)),
    "04": ((0, 2), (1, 3)),
    "03": ((0, 2), (1, 4)),
    "021": ((0, 4), (1, 5)),
    "022": ((0, 4), (2, 5)),
    "01": ((0, 4), (5, 6)),
    "00": ((4, 5), (6, 7)),
}


def rla_table_brute() -> tuple[Fraction, dict[str, Fraction]]:
    """``(delta, gamma)`` of the uniformly random linear arrangement, by
    enumerating every order of a few vertices.

    ``delta`` is the probability that one independent edge pair crosses,
    and ``gamma[code]`` the covariance of the crossing indicators of
    ``_RLA_BASE`` and the type's representative.  Both are exact averages
    over all ``v!`` orders of the ``v <= 8`` vertices the two pairs use;
    every order gives each vertex a distinct position, and all are equally
    likely.
    """

    def crosses(pos, pair):
        (s, t), (u, v) = pair
        a1, b1 = sorted((pos[s], pos[t]))
        a2, b2 = sorted((pos[u], pos[v]))
        return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1

    deltas, gamma = set(), {}
    for code, pair in RLA_REPRESENTATIVES.items():
        size = 1 + max(max(e) for e in _RLA_BASE + pair)
        orders = hits = both = 0
        for pos in permutations(range(size)):
            orders += 1
            if crosses(pos, _RLA_BASE):
                hits += 1
                both += crosses(pos, pair)
        delta = Fraction(hits, orders)
        deltas.add(delta)
        gamma[code] = Fraction(both, orders) - delta * delta
    if len(deltas) != 1:
        raise InternalInconsistencyError(f"crossing probability differs by vertex count: {deltas}")
    return deltas.pop(), gamma


def simple_walks(g: Graph, length: int) -> Iterator[tuple[int, ...]]:
    """Every simple path on `length` vertices as a vertex sequence, by DFS.

    Each path is yielded twice, once walked from each end.
    """
    if length < 2:
        raise ValidationError("paths need at least 2 vertices")

    def extend(walk: list[int], used: set[int]):
        if len(walk) == length:
            yield tuple(walk)
            return
        for w in g.adjacency[walk[-1]]:
            if w not in used:
                used.add(w)
                walk.append(w)
                yield from extend(walk, used)
                walk.pop()
                used.remove(w)

    for start in range(g.n):
        yield from extend([start], {start})


def count_simple_paths(g: Graph, length: int) -> int:
    """Number of subgraphs isomorphic to the path on `length` vertices.

    Counts the walks of :func:`simple_walks` and halves.
    """
    total = sum(1 for _ in simple_walks(g, length))
    if total % 2:
        raise InternalInconsistencyError("a path was walked in one direction only")
    return total // 2


def _triangles(g: Graph) -> list[tuple[int, int, int]]:
    return [
        t
        for t in combinations(range(g.n), 3)
        if g.adjacent(t[0], t[1]) and g.adjacent(t[0], t[2]) and g.adjacent(t[1], t[2])
    ]


def count_triangles_brute(g: Graph) -> int:
    return len(_triangles(g))


def count_cycles4_brute(g: Graph) -> int:
    """4-cycles by checking the three pairings of every 4-subset."""
    total = 0
    for a, b, c, d in combinations(range(g.n), 4):
        # a cycle visiting all four vertices exists for each pairing of
        # "opposite" vertices whose four side edges are present
        for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            # cycle p-r-q-s with diagonals (p,q) and (r,s)
            if g.adjacent(p, r) and g.adjacent(r, q) and g.adjacent(q, s) and g.adjacent(s, p):
                total += 1
    return total


def count_paw_brute(g: Graph) -> int:
    """Paws as (triangle, pendant edge sharing exactly one vertex)."""
    total = 0
    for tri in _triangles(g):
        tri_set = set(tri)
        for u, v in g.edges():
            if (u in tri_set) != (v in tri_set):
                total += 1
    return total


def count_c3l2_brute(g: Graph) -> int:
    """Triangle plus a fully disjoint edge."""
    total = 0
    for tri in _triangles(g):
        tri_set = set(tri)
        for u, v in g.edges():
            if u not in tri_set and v not in tri_set:
                total += 1
    return total


def brute_census(g: Graph) -> CensusReport:
    """Every census field by exhaustive enumeration over Q and subsets.

    Also recomputes the path-4 and cycle-4 counts through naive adjacency
    matrix powers and fails loudly if any route disagrees.  Graphs with
    more than :data:`DEFAULT_ORACLE_LIMIT` vertices are refused.
    """
    if g.n > DEFAULT_ORACLE_LIMIT:
        raise OracleBudgetError(
            f"brute_census limited to n <= {DEFAULT_ORACLE_LIMIT} (got n={g.n})"
        )
    k = g.degrees
    pairs = independent_edge_pairs(g)
    q = len(pairs)

    def adj(a, b):
        return 1 if g.adjacent(a, b) else 0

    K = phi1 = phi2 = lam1 = lam2 = 0
    for (s, t), (u, v) in pairs:
        K += k[s] + k[t] + k[u] + k[v]
        phi1 += k[s] * k[t] + k[u] * k[v]
        phi2 += (k[s] + k[t]) * (k[u] + k[v])
        lam1 += (
            adj(s, u) * (k[t] + k[v])
            + adj(s, v) * (k[t] + k[u])
            + adj(t, u) * (k[s] + k[v])
            + adj(t, v) * (k[s] + k[u])
        )
        lam2 += (adj(s, u) + adj(s, v) + adj(t, u) + adj(t, v)) * (
            k[s] + k[t] + k[u] + k[v]
        )

    xi = [sum(k[t] for t in g.adjacency[s]) for s in range(g.n)]
    mu1_twice = sum(xi[u] + xi[v] for u, v in g.edges())
    mu2 = sum(
        len(set(g.adjacency[u]) & set(g.adjacency[v])) for u, v in g.edges()
    )
    if mu1_twice % 2:
        raise InternalInconsistencyError("sum of xi over edge ends is odd")

    n_p4 = count_simple_paths(g, 4)
    n_p5 = count_simple_paths(g, 5)
    n_c3 = count_triangles_brute(g)
    n_c4 = count_cycles4_brute(g)
    n_paw = count_paw_brute(g)
    n_c3l2 = count_c3l2_brute(g)

    # cross-checks via naive matrix powers
    mmt2 = sum(d * d for d in k)
    a1 = np.zeros((g.n, g.n), dtype=np.int64)
    a1[g.edge_u, g.edge_v] = a1[g.edge_v, g.edge_u] = 1
    a2 = a1 @ a1
    a3 = a2 @ a1
    m3 = int(np.triu(a3, 1).sum())
    tr_a4 = int(np.trace(a2 @ a2))
    if n_p4 != m3 + g.m - mmt2:
        raise InternalInconsistencyError("path-4 count disagrees with matrix-power form")
    # the sum over s != t of a3[s, t] - a1[s, t] * (2 k[t] - 1)
    half_sum = int((a3 - a1 * (2 * g.degree_array - 1)).sum() - np.trace(a3))
    if half_sum % 2 != 0 or n_p4 != half_sum // 2:
        raise InternalInconsistencyError("path-4 count disagrees with A^3 sum form")
    c4_scaled = tr_a4 + 4 * q - 2 * g.m * g.m
    if c4_scaled % 8 != 0 or n_c4 != c4_scaled // 8:
        raise InternalInconsistencyError("cycle-4 count disagrees with trace form")

    return CensusReport(
        q=q,
        K=K,
        phi1=phi1,
        phi2=phi2,
        lambda1=lam1,
        lambda2=lam2,
        mu1=mu1_twice // 2,
        mu2=mu2,
        nP4=n_p4,
        nP5=n_p5,
        nC3=n_c3,
        nC4=n_c4,
        nPaw=n_paw,
        nC3L2=n_c3l2,
    )
