"""Immutable simple undirected graphs with sorted adjacency lists.

:class:`Graph` is the one place where duplicate edges are collapsed, and
:func:`degree_aggregates` the one place where degree sums are taken.  All
aggregate quantities are kept as exact integers.  Instead of the mean of
squared degrees we carry its integer numerator ``sum(k**2)`` so that no
rounding can ever occur; every downstream formula is stated in that integer
form.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EdgeListParseError, InternalInconsistencyError, ValidationError


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Adjacency lists are strictly increasing tuples; an edge given more than
    once, in either orientation, is kept once.  The structure is immutable
    after construction and safe to share across threads.  The acyclicity
    test runs once and its answer is kept.
    """

    __slots__ = ("n", "m", "adjacency", "degrees", "_forest")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValidationError("vertex count must be non-negative")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
            if v not in neighbor_sets[u]:
                neighbor_sets[u].add(v)
                neighbor_sets[v].add(u)
                m += 1
        self.n = n
        self.m = m
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in neighbor_sets
        )
        self.degrees: tuple[int, ...] = tuple(len(s) for s in neighbor_sets)
        self._forest: bool | None = None

    @classmethod
    def from_edges(cls, edges: Sequence[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a graph, inferring ``n`` from the maximum vertex id if omitted."""
        edges = list(edges)
        if n is None:
            n = 1 + max((max(u, v) for u, v in edges), default=-1)
        return cls(n, edges)

    def adjacent(self, u: int, v: int) -> bool:
        """Edge test by binary search of the sorted adjacency list."""
        adj = self.adjacency[u]
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield u, v

    def is_forest(self) -> bool:
        """Whether the graph has no cycle; computed on the first call."""
        if self._forest is None:
            self._forest = _acyclic(self)
        return self._forest

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _acyclic(g: Graph) -> bool:
    """Union-find over the edges: no edge may join two vertices already joined."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@dataclass(frozen=True)
class DegreeAggregates:
    """Degree sums every census route needs, each summed over the vertices.

    ``xi_s`` is the degree sum over the neighbours of ``s``.  ``mmt2``,
    ``mmt3`` and ``mmt4`` are the sums of ``k**2``, ``k**3`` and ``k**4``;
    ``xi2`` is the sum of ``xi**2`` and ``k2xi`` that of ``k**2 * xi``.
    ``psi = sum_s k_s xi_s / 2`` is the sum over edges of the product of
    endpoint degrees, and ``q = (m(m+1) - mmt2) / 2`` is the number of
    pairs of vertex-disjoint edges.
    """

    mmt2: int
    mmt3: int
    mmt4: int
    xi2: int
    k2xi: int
    psi: int
    q: int


def degree_aggregates(g: Graph) -> DegreeAggregates:
    """All of :class:`DegreeAggregates` in one pass over the vertices."""
    k = g.degrees
    mmt2 = mmt3 = mmt4 = xi2 = k2xi = kxi = 0
    for d, neighbors in zip(k, g.adjacency):
        x = sum(map(k.__getitem__, neighbors))
        d2 = d * d
        mmt2 += d2
        mmt3 += d2 * d
        mmt4 += d2 * d2
        xi2 += x * x
        k2xi += d2 * x
        kxi += d * x
    if kxi % 2:
        raise InternalInconsistencyError(f"sum_s k_s * xi(s) = {kxi} is odd")
    q2 = g.m * (g.m + 1) - mmt2
    if q2 % 2 or q2 < 0:
        raise InternalInconsistencyError(f"m(m+1) - sum(k^2) = {q2} is odd or negative")
    return DegreeAggregates(
        mmt2=mmt2, mmt3=mmt3, mmt4=mmt4, xi2=xi2, k2xi=k2xi, psi=kxi // 2, q=q2 // 2
    )


def compute_q(g: Graph) -> int:
    """Number of pairs of vertex-disjoint ("independent") edges."""
    return degree_aggregates(g).q


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    Lines starting with ``#`` are comments; an optional first directive
    ``n=<int>`` forces the vertex count (for trailing isolated vertices);
    every other non-blank line is ``u v``.  Self-loops are rejected;
    duplicate edges, in either orientation, are collapsed by :class:`Graph`
    with a warning.
    """
    edges: list[tuple[int, int]] = []
    forced_n: int | None = None
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            if saw_data or forced_n is not None:
                raise EdgeListParseError("n= directive must come first", lineno)
            try:
                forced_n = int(line[2:])
            except ValueError:
                raise EdgeListParseError(f"bad n= directive {line!r}", lineno) from None
            if forced_n < 0:
                raise EdgeListParseError("n= must be non-negative", lineno)
            continue
        saw_data = True
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise ValidationError(f"self-loop '{u} {u}' at line {lineno}")
        edges.append((u, v))
    n = 1 + max(map(max, edges), default=-1)
    if forced_n is not None:
        if forced_n < n:
            raise ValidationError(f"n={forced_n} smaller than largest vertex id {n - 1}")
        n = forced_n
    g = Graph(n, edges)
    if len(edges) != g.m:
        warnings.warn(f"collapsed {len(edges) - g.m} duplicate edge(s)", stacklevel=2)
    return g


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
