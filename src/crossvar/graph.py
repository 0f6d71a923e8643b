"""Immutable simple undirected graphs stored as numpy arrays.

A :class:`Graph` is built once into numpy int64 arrays: the edges
``edge_u < edge_v`` in ``(u, v)`` order, the compressed adjacency
``indptr``/``indices`` (the neighbours of ``s`` are
``indices[indptr[s]:indptr[s + 1]]``, strictly increasing) and
``degree_array``.  Construction, :func:`degree_aggregates` and the
acyclicity test are numpy passes over these arrays.  The Python views the
oracles and the intersection merge read, ``adjacency``, ``degrees`` and
``edges()``, hold plain Python ints and are built from the arrays on first
use.

:class:`Graph` is the one place where duplicate edges are collapsed, and
:func:`degree_aggregates` the one place where degree sums are taken.  All
aggregate quantities are kept as exact integers.  Instead of the mean of
squared degrees we carry its integer numerator ``sum(k**2)`` so that no
rounding can ever occur; every downstream formula is stated in that integer
form.

:data:`MAX_VERTICES` bounds the vertex count and every vertex id, so that
input asking for more is refused before anything is allocated.
"""

from __future__ import annotations

import operator
import re
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EdgeListParseError, InternalInconsistencyError, ValidationError

#: largest vertex count, and one more than the largest vertex id, a graph
#: may have: an edgeless graph this size takes 256 MiB per vertex array, and
#: the edge keys ``u * n + v`` stay far inside int64
MAX_VERTICES = 1 << 25

# numpy sums of products of degrees run in int64 only below this bound
_INT64_SAFE = 1 << 62


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    An edge given more than once, in either orientation, is kept once.
    The arrays (see the module docstring) are read-only, and the structure
    is immutable after construction and safe to share across threads.
    ``adjacency`` (strictly increasing tuples), ``degrees`` and ``edges()``
    are views with Python ints; the tuples are built on first use and kept,
    with one int object per vertex shared between them.  The acyclicity
    test runs once and its answer is kept.
    """

    __slots__ = (
        "n", "m", "edge_u", "edge_v", "indptr", "indices", "degree_array",
        "_vertex_ids", "_adjacency", "_degrees", "_forest",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = operator.index(n)
        if n < 0:
            raise ValidationError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValidationError(f"vertex count {n} exceeds the budget of {MAX_VERTICES}")
        pairs = _edge_array(edges)
        a, b = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            i = int(bad.argmax())
            u, v = int(a[i]), int(b[i])
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
        # one key per edge, sorted; a key equal to its left neighbour repeats it
        keys = lo * n + hi
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        u, v = np.divmod(keys, max(n, 1))
        # both orientations of every edge, sorted, give the rows in order
        arcs = np.concatenate((keys, v * n + u))
        arcs.sort()
        degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        self.n = n
        self.m = len(keys)
        self.edge_u = _frozen(u)
        self.edge_v = _frozen(v)
        self.indptr = _frozen(indptr)
        self.indices = _frozen(arcs % max(n, 1))
        self.degree_array = _frozen(degree.astype(np.int64, copy=False))
        self._vertex_ids = self._adjacency = self._degrees = self._forest = None

    @classmethod
    def from_edges(cls, edges: Sequence[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a graph, inferring ``n`` from the maximum vertex id if omitted."""
        pairs = _edge_array(edges)
        if n is None:
            n = 1 + int(pairs.max(initial=-1))
        return cls(n, pairs)

    def _ids(self) -> np.ndarray:
        """The vertices as an object array of Python ints, one per vertex."""
        if self._vertex_ids is None:
            self._vertex_ids = np.arange(self.n).astype(object)
        return self._vertex_ids

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuple of every vertex."""
        if self._adjacency is None:
            flat = tuple(self._ids()[self.indices].tolist())
            bounds = self.indptr.tolist()
            self._adjacency = tuple(map(flat.__getitem__, map(slice, bounds, bounds[1:])))
        return self._adjacency

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree of every vertex."""
        if self._degrees is None:
            self._degrees = tuple(self.degree_array.tolist())
        return self._degrees

    def adjacent(self, u: int, v: int) -> bool:
        """Edge test by binary search of the sorted adjacency list."""
        adj = self.adjacency[u]
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``, in ``(u, v)`` order."""
        ids = self._ids()
        return zip(ids[self.edge_u].tolist(), ids[self.edge_v].tolist())

    def is_forest(self) -> bool:
        """Whether the graph has no cycle; computed on the first call."""
        if self._forest is None:
            self._forest = _acyclic(self)
        return self._forest

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _edge_array(edges) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array."""
    if isinstance(edges, np.ndarray):
        flat = edges.astype(np.int64, copy=False).ravel()
    else:
        try:
            flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        except OverflowError:
            raise ValidationError("vertex id out of range") from None
    if len(flat) % 2:
        raise ValidationError("every edge must be a pair of vertices")
    return flat.reshape(-1, 2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _acyclic(g: Graph) -> bool:
    """A graph is a forest exactly when ``m = n - (number of components)``."""
    return g.m == g.n - _components(g)


def _components(g: Graph) -> int:
    """Connected components by hooking, pointer jumping and contraction.

    Each round hooks every vertex onto its smallest neighbour below it and
    jumps every vertex to its root; roots only ever point to smaller
    labels, so there is no cycle.  The edges are then moved onto their
    roots and those inside one component dropped.  A root left with no
    edge is a finished component; the others are renumbered ``0..k-1`` and
    the next round runs on that contracted graph, which has fewer vertices,
    as every vertex with an edge either hooks or is hooked onto.
    """
    n, u, v = g.n, g.edge_u, g.edge_v
    finished = 0
    while len(u):
        parent = np.arange(n)
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        u, v = parent[u], parent[v]
        across = u != v
        u, v = u[across], v[across]
        live = np.zeros(n, dtype=bool)
        live[u] = True
        live[v] = True
        k = int(np.count_nonzero(live))
        finished += int(np.count_nonzero(parent == np.arange(n))) - k
        label = np.cumsum(live) - 1
        n, u, v = k, label[u], label[v]
    return finished + n


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
    """All of :class:`DegreeAggregates` as numpy reductions over the vertices.

    ``xi`` is read off a cumulative sum of the neighbours' degrees along
    ``indices``, which ends at ``mmt2 <= 2 m n`` and so stays inside int64
    for any graph that fits in memory under :data:`MAX_VERTICES`.  Every
    summed term is at most ``kmax**4``, as ``xi <= kmax**2``, so the
    reductions run in int64 when ``n * kmax**4`` stays below 2^62, and
    otherwise on exact Python ints in object arrays.
    """
    k = g.degree_array
    running = np.zeros(len(g.indices) + 1, dtype=np.int64)
    np.cumsum(k[g.indices], out=running[1:])
    at_rows = running[g.indptr]
    xi = at_rows[1:] - at_rows[:-1]
    if g.n * int(k.max(initial=0)) ** 4 >= _INT64_SAFE:
        k, xi = k.astype(object), xi.astype(object)
    k2 = k * k
    mmt2, mmt3, mmt4 = int(k.dot(k)), int(k2.dot(k)), int(k2.dot(k2))
    xi2, k2xi, kxi = int(xi.dot(xi)), int(k2.dot(xi)), int(k.dot(xi))
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
    with a warning.  ``n=`` and every vertex id must stay within
    :data:`MAX_VERTICES`.

    The whole text is checked and tokenised at once; text that this does
    not accept, which includes every malformed text, is read again line by
    line, which reports the first bad line by its number.
    """
    scanned = _scan_whole(text)
    pairs, forced_n = scanned if scanned is not None else _scan_lines(text)
    n = 1 + int(pairs.max(initial=-1))
    if forced_n is not None:
        if forced_n < n:
            raise ValidationError(f"n={forced_n} smaller than largest vertex id {n - 1}")
        n = forced_n
    g = Graph(n, pairs)
    if len(pairs) != g.m:
        warnings.warn(f"collapsed {len(pairs) - g.m} duplicate edge(s)", stacklevel=2)
    return g


_COMMENT = re.compile(rb"^[ \t]*#[^\n]*", re.MULTILINE)
_DIRECTIVE = re.compile(rb"n=[ \t]*([0-9]{1,18})[ \t]*")
# line breaks of str.splitlines beyond \n and \r, which the whole-text scan leaves
# to the line-by-line reading
_OTHER_BREAKS_BYTES = re.compile(rb"[\x0b\x0c\x1c-\x1e]")
_OTHER_BREAKS_STR = ("\x85", "\u2028", "\u2029")
# longest token read as int64 without overflow
_MAX_DIGITS = 18


def _scan_whole(text: str) -> tuple[np.ndarray, int | None] | None:
    """``(edge pairs, forced n)`` by numpy passes over the whole text, or
    ``None`` when the text is not plainly well formed.

    After comments and the directive are removed, only digits, spaces,
    tabs and line breaks may remain, every line must hold zero or two
    tokens of at most 18 digits, and no pair may be a self-loop or name a
    vertex beyond the budget.
    """
    if not text.isascii() and any(c in text for c in _OTHER_BREAKS_STR):
        return None
    data = text.encode().replace(b"\r", b"\n")
    if b"#" in data:
        if _OTHER_BREAKS_BYTES.search(data):
            return None
        data = _COMMENT.sub(b"", data)
    forced_n = None
    body = data.lstrip(b" \t\n")
    if body.startswith(b"n"):
        line, _, data = body.partition(b"\n")
        directive = _DIRECTIVE.fullmatch(line)
        if directive is None:
            return None
        forced_n = int(directive[1])
        if forced_n > MAX_VERTICES:
            return None
    if data.translate(None, b"0123456789 \t\n"):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    digit = chars >= ord("0")
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    if len(starts) % 2 or (ends - starts).max(initial=0) > _MAX_DIGITS:
        return None
    if len(starts) == 0:
        return np.empty((0, 2), dtype=np.int64), forced_n
    # whether the gap after each token but the last holds a line break: the
    # two tokens of a pair share a line, and the next pair starts a new one
    gap_breaks = np.logical_or.reduceat(
        chars == ord("\n"), np.append(ends[:-1], starts[-1])
    )[:-1]
    if gap_breaks[0::2].any() or not gap_breaks[1::2].all():
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(values) != len(starts) or values.max() >= MAX_VERTICES:
        return None
    pairs = values.reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return pairs, forced_n


def _scan_lines(text: str) -> tuple[np.ndarray, int | None]:
    """``(edge pairs, forced n)`` line by line; raises at the first bad line."""
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
            if forced_n > MAX_VERTICES:
                raise ValidationError(
                    f"n={forced_n} at line {lineno} exceeds the budget of {MAX_VERTICES} vertices"
                )
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
        if max(u, v) >= MAX_VERTICES:
            raise ValidationError(
                f"vertex id {max(u, v)} at line {lineno} exceeds the budget of "
                f"{MAX_VERTICES} vertices"
            )
        if u == v:
            raise ValidationError(f"self-loop '{u} {u}' at line {lineno}")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), forced_n


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
