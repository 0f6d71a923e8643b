"""Immutable simple undirected graphs stored as numpy arrays.

A :class:`Graph` is built into numpy int64 arrays: the edges ``edge_u <
edge_v`` in ``(u, v)`` order and ``degree_array``.  The compressed
adjacency ``indptr``/``indices`` (the neighbours of ``s`` are
``indices[indptr[s]:indptr[s + 1]]``, strictly increasing) is built from
the edges on first use, as only the intersection routes read it: the
forest route, :func:`degree_aggregates` and the acyclicity test work on
the edges alone.  The Python views the oracles and the intersection merge
read, ``adjacency``, ``degrees`` and ``edges()``, hold plain Python ints
and are built from the arrays on first use too.

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

import math
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

# an int64 sum of degree products is taken only below this bound
_INT64_SAFE = 1 << 62


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    An edge given more than once, in either orientation, is kept once.
    The arrays (see the module docstring) are read-only, and the structure
    is immutable after construction and safe to share across threads.
    ``indptr``/``indices``, ``adjacency`` (strictly increasing tuples) and
    ``degrees`` are built on first use and kept; ``adjacency``'s tuples
    hold Python ints, with one int object per vertex shared among them.
    Each lazy build is idempotent and stores its result with one
    attribute assignment, so two threads that race on it each build equal
    values and either may be kept.  The acyclicity test runs once and its
    answer is kept.
    """

    __slots__ = (
        "n", "m", "edge_u", "edge_v", "degree_array",
        "_rows", "_vertex_ids", "_adjacency", "_degrees", "_forest",
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
        if lo.min(initial=0) < 0 or hi.max(initial=-1) >= n or (lo == hi).any():
            i = int(((lo == hi) | (lo < 0) | (hi >= n)).argmax())
            u, v = int(a[i]), int(b[i])
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
        # one key per edge, sorted; a key equal to its left neighbour repeats it
        keys = lo
        keys *= n
        keys += hi
        del hi
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            keys = keys[first]
        u = keys // max(n, 1)
        v = keys
        v -= u * n
        degree = np.bincount(u, minlength=n)
        degree += np.bincount(v, minlength=n)
        self.n = n
        self.m = len(u)
        self.edge_u = _frozen(u)
        self.edge_v = _frozen(v)
        self.degree_array = _frozen(degree.astype(np.int64, copy=False))
        self._rows = self._vertex_ids = self._adjacency = self._degrees = self._forest = None

    @classmethod
    def from_edges(cls, edges: Sequence[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a graph, inferring ``n`` from the maximum vertex id if omitted."""
        pairs = _edge_array(edges)
        if n is None:
            n = 1 + int(pairs.max(initial=-1))
        return cls(n, pairs)

    @property
    def indptr(self) -> np.ndarray:
        """Row ``s`` of ``indices`` is ``indptr[s]:indptr[s + 1]``."""
        return (self._rows or self._build_rows())[0]

    @property
    def indices(self) -> np.ndarray:
        """The neighbours of every vertex, row by row, each row increasing."""
        return (self._rows or self._build_rows())[1]

    def _build_rows(self) -> tuple[np.ndarray, np.ndarray]:
        n, m, u, v = max(self.n, 1), self.m, self.edge_u, self.edge_v
        # both orientations of every edge as keys, sorted, give the rows in order
        arcs = np.empty(2 * m, dtype=np.int64)
        np.multiply(u, n, out=arcs[:m])
        arcs[:m] += v
        np.multiply(v, n, out=arcs[m:])
        arcs[m:] += u
        arcs.sort()
        # a key less its row's multiple of n is the neighbour
        row = arcs // n
        row *= n
        arcs -= row
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degree_array, out=indptr[1:])
        self._rows = (_frozen(indptr), _frozen(arcs))
        return self._rows

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
        return zip(self.edge_u.tolist(), self.edge_v.tolist())

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
        return hash((self.n, self.edge_u.tobytes(), self.edge_v.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def vertex_ids(values, what: str) -> np.ndarray:
    """``values`` as a flat int64 array of vertex ids.

    An array must have an integer dtype, and any other value must be an
    integer by :func:`operator.index`, so that no float is truncated and no
    string parsed into an id.  An id that int64 cannot hold raises
    ``vertex id out of range``, from an unsigned array as from Python ints.
    ``what`` names the values in the error.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise ValidationError(f"{what} must be integer vertex ids, not {values.dtype}")
        # an unsigned id past int64 would wrap to a negative one
        if values.dtype.kind == "u" and values.size and int(values.max()) >> 63:
            raise ValidationError("vertex id out of range")
        return values.astype(np.int64, copy=False).ravel()
    try:
        return np.fromiter(map(operator.index, values), dtype=np.int64)
    except TypeError:
        raise ValidationError(f"{what} must be integer vertex ids") from None
    except OverflowError:
        raise ValidationError("vertex id out of range") from None


def _edge_array(edges) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array."""
    if not isinstance(edges, np.ndarray):
        edges = chain.from_iterable(edges)
    flat = vertex_ids(edges, "edge ends")
    if len(flat) % 2:
        raise ValidationError("every edge must be a pair of vertices")
    return flat.reshape(-1, 2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _acyclic(g: Graph) -> bool:
    """A graph is a forest exactly when ``m = n - (number of components)``.

    A graph with a vertex has at least one component, so it is no forest
    when ``m >= n``, and then no component is counted.
    """
    if g.n and g.m >= g.n:
        return False
    return g.m == g.n - _components(g)


def _components(g: Graph) -> int:
    """Connected components by hooking, pointer jumping and contraction.

    Each round hooks every vertex onto its smallest neighbour below it and
    jumps every vertex to its root; roots only ever point to smaller
    labels, so there is no cycle.  The edges are then moved onto their
    roots and those inside one component dropped.  A root left with no
    edge is a finished component; the others are renumbered ``0..k-1`` and
    the next round runs on that contracted graph, which has fewer vertices,
    as every vertex with an edge either hooks or is hooked onto.  Every
    round's edges have ``u < v``.
    """
    n, u, v = g.n, g.edge_u, g.edge_v
    finished = 0
    while len(u):
        parent = np.arange(n)
        np.minimum.at(parent, v, u)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        u, v = parent[u], parent[v]
        across = np.flatnonzero(u != v)
        u, v = u[across], v[across]
        live = np.zeros(n, dtype=bool)
        live[u] = True
        live[v] = True
        k = int(np.count_nonzero(live))
        finished += int(np.count_nonzero(parent == np.arange(n))) - k
        label = np.cumsum(live) - 1
        u, v = label[u], label[v]
        n, u, v = k, np.minimum(u, v), np.maximum(u, v)
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
    """All of :class:`DegreeAggregates`, from int64 arrays and the degree
    histogram, exactly.

    ``xi`` is scatter-added in int64 from the edges, each adding the degree
    of one end to the other, so the adjacency rows are not needed.  The
    moments are summed in Python ints over the degree histogram: a graph
    with m edges has at most about ``2·sqrt(m)`` distinct degrees.  As
    ``xi_s <= k_s·kmax``, none of ``xi2``, ``k2xi`` and ``2·psi`` exceeds
    ``2m·kmax**3``, and no term or partial sum exceeds its total, so they
    are int64 dot products while that stays below 2^63, and otherwise
    :func:`_block_sums` adds them up.
    """
    n, k = g.n, g.degree_array
    xi = np.zeros(n, dtype=np.int64)
    np.add.at(xi, g.edge_u, k[g.edge_v])
    np.add.at(xi, g.edge_v, k[g.edge_u])
    hist = np.bincount(k)
    degree = hist.nonzero()[0]
    mmt2 = mmt3 = mmt4 = 0
    for d, c in zip(degree.tolist(), hist[degree].tolist()):
        c *= d * d
        mmt2, mmt3, mmt4 = mmt2 + c, mmt3 + c * d, mmt4 + c * d * d
    if g.m * (len(hist) - 1) ** 3 < _INT64_SAFE:
        terms = k * xi
        xi2, k2xi, kxi = int(xi.dot(xi)), int(terms.dot(k)), int(terms.sum())
    else:
        xi2, k2xi, kxi = _block_sums(k, xi)
    if kxi % 2:
        raise InternalInconsistencyError(f"sum_s k_s * xi(s) = {kxi} is odd")
    q2 = g.m * (g.m + 1) - mmt2
    if q2 % 2 or q2 < 0:
        raise InternalInconsistencyError(f"m(m+1) - sum(k^2) = {q2} is odd or negative")
    return DegreeAggregates(
        mmt2=mmt2, mmt3=mmt3, mmt4=mmt4, xi2=xi2, k2xi=k2xi, psi=kxi // 2, q=q2 // 2
    )


def _block_sums(k: np.ndarray, xi: np.ndarray) -> list[int]:
    """The sums of ``xi**2``, ``k**2 * xi`` and ``k * xi``, as Python ints.

    A vertex with ``xi`` or ``k**2`` at 2^31 or more may have a term of
    2^62 or more, so its terms are summed as Python ints and its ``xi``
    cleared.  Every other term is below 2^62: each sum runs in int64 over
    blocks of vertices whose length times its largest term is below 2^62,
    and the block sums are added as Python ints.
    """
    big = np.flatnonzero((xi >= 1 << 31) | (k > math.isqrt((1 << 31) - 1)))
    kb, xb = k[big].astype(object), xi[big].astype(object)
    xi[big] = 0
    kxi, sums = k * xi, []
    for terms, exact in (xi * xi, xb * xb), (kxi * k, kb * kb * xb), (kxi, kb * xb):
        step = (_INT64_SAFE - 1) // max(1, int(terms.max()))
        blocks = np.add.reduceat(terms, np.arange(0, len(terms), step))
        sums.append(exact.sum() + sum(blocks.tolist()))
    return sums


def compute_q(g: Graph) -> int:
    """Number of pairs of vertex-disjoint ("independent") edges."""
    return degree_aggregates(g).q


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    A ``#`` anywhere in a line starts a comment; an optional first directive
    ``n=<int>`` forces the vertex count (for trailing isolated vertices);
    every other non-blank line is ``u v``.  Self-loops are rejected;
    duplicate edges, in either orientation, are collapsed by :class:`Graph`
    with a warning.  ``n=`` and every vertex id are ASCII decimal digits
    (:func:`read_number`) and must stay within :data:`MAX_VERTICES`.

    The whole text is checked and tokenised in blocks of whole lines; text
    that this does not accept, which includes every malformed text, is read
    again line by line, which reports the first bad line by its number.
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


_COMMENT = re.compile(rb"#[^\n]*")
# the directive, alone on the first line that holds more than blanks; an n
# or = anywhere else fails the byte check of _scan_whole
_DIRECTIVE = re.compile(rb"[ \t\n]*n=[ \t]*([0-9]{1,18})[ \t]*(?=\n|\Z)")
# line breaks of lines() beyond \n and \r, which the whole-text scans leave to
# the line-by-line reading
_OTHER_BREAKS_BYTES = b"\x0b\x0c\x1c\x1d\x1e"
_OTHER_BREAKS_STR = ("\x85", "\u2028", "\u2029")
# longest token the whole-text scans decode: MAX_VERTICES - 1 has 8 digits
_DIGITS = 8
# the decode reads the 8 bytes ending at a token as one little-endian word;
# a token of L digits is its top L bytes, which _KEEP[L] keeps
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - L)) for L in range(9)], dtype=np.uint64)
_ZEROS = np.uint64(0x3030303030303030)
_TEXT_BYTES = b"0123456789 \t\n"
# bytes of text per block of the whole-text scans, so that their temporaries
# stay in cache; a block runs on to the end of its last line
_BLOCK = 1 << 18


def _scan_whole(text: str) -> tuple[np.ndarray, int | None] | None:
    """``(edge pairs, forced n)`` by numpy passes over blocks of the text,
    or ``None`` when the text is not plainly well formed.

    After comments and the directive are removed, only digits, spaces,
    tabs and line breaks may remain, every line must hold zero or two
    tokens of at most 8 digits, and no pair may be a self-loop or name a
    vertex beyond the budget (:func:`_edge_lines`).  Every id below
    :data:`MAX_VERTICES` has at most 8 digits, so only ids with leading
    zeros and ids over the budget are left to the line-by-line reading.
    """
    data = _uncommented(text)
    if data is None:
        return None
    forced_n, start = None, 8
    directive = _DIRECTIVE.match(data)
    if directive is not None:
        forced_n, start = int(directive[1]), directive.end()
        if forced_n > MAX_VERTICES:
            return None
    # the bytes outside the text set are those of the directive, if any
    if data.translate(None, _TEXT_BYTES) != data[:start].translate(None, _TEXT_BYTES):
        return None
    pairs = _scan(data, start, _edge_lines)
    return None if pairs is None else (pairs.reshape(-1, 2), forced_n)


def scan_ids(text: str) -> np.ndarray | None:
    """The ids of ``text``, separated by whitespace across any number of
    lines, as int64 in text order, or ``None`` when the text is not
    plainly well formed.

    Comments are cut as in an edge list; after that only digits, spaces,
    tabs and line breaks may remain, and every id has at most 8 digits.
    The text holds no directive and no lines to check, so the ids are not
    checked against any range.
    """
    data = _uncommented(text)
    if data is None or data.translate(None, _TEXT_BYTES):
        return None
    return _scan(data, 8, lambda chars, starts, ends, values: values)


def _uncommented(text: str) -> bytes | None:
    """``text`` as bytes behind 8 blanks, ``\\r`` read as ``\\n`` and
    comments cut, or ``None`` if a comment might end at a line break that
    the whole-text scans do not take (:func:`lines` takes more).  A line
    break outside a comment is left for the caller's byte check to refuse.

    The leading blanks change no token and no line, and put the text from
    byte 8 on, so that the 8 bytes that end at a token are always a word of
    the text (:func:`_tokens`)."""
    if not text.isascii() and any(c in text for c in _OTHER_BREAKS_STR):
        return None
    data = ("        " + text).encode().replace(b"\r", b"\n")
    if b"#" in data:
        if len(data.translate(None, _OTHER_BREAKS_BYTES)) != len(data):
            return None
        data = _COMMENT.sub(b"", data)
    return data


def _scan(data: bytes, start: int, take) -> np.ndarray | None:
    """The values of the tokens of ``data`` from byte ``start`` on, at
    least 8, read in blocks of whole lines of about :data:`_BLOCK` bytes,
    or ``None`` if a token or a block is not plainly well formed.

    ``take(chars, starts, ends, values)`` gets each block's
    :func:`_tokens` and gives the values kept, or ``None``.
    """
    blocks = [np.empty(0, dtype=np.int64)]
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        tokens = _tokens(data, start, end)
        values = None if tokens is None else take(*tokens)
        if values is None:
            return None
        blocks.append(values)
        start = end
    return np.concatenate(blocks)


def _edge_lines(
    chars: np.ndarray, starts: np.ndarray, ends: np.ndarray, values: np.ndarray
) -> np.ndarray | None:
    """``values``, two per edge, if the tokens of the whole lines ``chars``
    are plainly well formed edges, or ``None``."""
    if len(starts) == 0:
        return values
    if len(starts) % 2:
        return None
    # whether the gap after each token but the last holds a line break: the
    # two tokens of a pair share a line, and the next pair starts a new one.
    # A gap's first byte is read, and only the rest of a wider gap byte by byte.
    gap = ends[:-1]
    gap_breaks = chars[gap] == ord("\n")
    wide = np.flatnonzero(chars[1:][gap] < ord("0"))
    if len(wide):
        rest = gap[wide] + 1
        width = starts[wide + 1] - rest
        offsets = np.cumsum(width) - width
        at = np.repeat(rest - offsets, width) + np.arange(offsets[-1] + width[-1])
        gap_breaks[wide] |= np.logical_or.reduceat(chars[at] == ord("\n"), offsets)
    if gap_breaks[0::2].any() or not gap_breaks[1::2].all():
        return None
    if values.max() >= MAX_VERTICES or (values[0::2] == values[1::2]).any():
        return None
    return values


def _tokens(data: bytes, lo: int, hi: int) -> tuple[np.ndarray, ...] | None:
    """The digit runs of ``data[lo:hi]``, which holds only digits, blanks
    and line breaks, with ``lo`` at least 8: the block's bytes, the runs'
    starts and ends in them and their values as int64, or ``None`` if a run
    has more than 8 digits.
    """
    chars = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    # digit[i + 1] for byte i, between two non-digits
    digit = np.zeros(len(chars) + 2, dtype=bool)
    np.greater_equal(chars, ord("0"), out=digit[1:-1])
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    length = ends - starts
    if length.max(initial=0) > _DIGITS:
        return None
    # words[e] holds the 8 bytes that end at byte e of the block
    words = np.ndarray((hi - lo + 1,), dtype="<u8", buffer=data, offset=lo - 8, strides=(1,))
    return chars, starts, ends, _decode(words[ends], length)


def _decode(word: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The tokens of 1 to 8 digits that end each of the little-endian
    words ``word`` and have ``length`` digits, as int64; ``word`` is
    overwritten.

    A token's word holds its first digit in the lowest byte of the token's
    part.  XOR with ``'0'`` takes each digit to its value without a borrow,
    the bytes in front of the token are cleared as leading zeros, and three
    multiply/shift/mask steps fold neighbouring digits into 2-, 4- and
    8-digit numbers, the lower bytes the more significant.
    """
    word ^= _ZEROS
    word &= _KEEP[length]
    word *= np.uint64(10 << 8 | 1)
    word >>= np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word *= np.uint64(100 << 16 | 1)
    word >>= np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word *= np.uint64(10000 << 32 | 1)
    word >>= np.uint64(32)
    return word.view(np.int64)


def _scan_lines(text: str) -> tuple[np.ndarray, int | None]:
    """``(edge pairs, forced n)`` line by line; raises at the first bad line."""
    edges: list[tuple[int, int]] = []
    forced_n: int | None = None
    for lineno, line in lines(text):
        if line.startswith("n="):
            if edges or forced_n is not None:
                raise EdgeListParseError("n= directive must come first", lineno)
            forced_n = read_number(line[2:].strip())
            if forced_n is None:
                raise EdgeListParseError(f"bad n= directive {line!r}", lineno)
            if forced_n > MAX_VERTICES:
                raise ValidationError(
                    f"n={forced_n} at line {lineno} exceeds the budget of {MAX_VERTICES} vertices"
                )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}", lineno)
        u, v = map(read_number, parts)
        if u is None or v is None:
            raise EdgeListParseError(f"vertex ids must be ASCII decimal digits: {line!r}", lineno)
        if max(u, v) >= MAX_VERTICES:
            raise ValidationError(
                f"vertex id {max(u, v)} at line {lineno} exceeds the budget of "
                f"{MAX_VERTICES} vertices"
            )
        if u == v:
            raise ValidationError(f"self-loop '{u} {u}' at line {lineno}")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), forced_n


def read_number(token: str) -> int | None:
    """``token`` as a vertex id or vertex count, or ``None`` if it is not one.

    This is the one grammar every reader takes, and the whole-text scans
    hold to it byte by byte: ASCII decimal digits, leading zeros allowed.
    So ``+1``, ``1_0`` and non-ASCII digits are refused, although ``int``
    takes them.  A number of more than 640 digits after its leading zeros,
    far past every budget, is refused too: ``int`` reads 640 digits however
    :func:`sys.set_int_max_str_digits` is set.
    """
    digits = token.lstrip("0")
    if token.isascii() and token.isdigit() and len(digits) <= 640:
        return int(digits or "0")
    return None


def lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of ``text`` that holds more
    than a comment: this is the one line rule every reader takes.

    Lines end at every break :meth:`str.splitlines` takes and are numbered
    from 1; a ``#`` anywhere starts a comment, which is cut, the rest is
    stripped, and a line left blank is skipped.
    """
    cut = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return ((lineno, line) for lineno, line in enumerate(cut, start=1) if line)


def read_text(path: str) -> str:
    """The file at ``path`` as text: its bytes decoded as UTF-8, with the
    line breaks as written.  This is the one file read every input takes.

    A UTF-8 byte-order mark at the start is dropped; any other U+FEFF is
    kept as text, so outside a comment it is refused.  Bytes that are not
    UTF-8 raise :class:`ValidationError`, which names the file and the
    line, by :func:`lines`' numbering, of the first bad byte.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the error holds the bytes after the mark, if any; the bad byte's line
        # is the last line numbered when every '#' is taken out, so that
        # nothing is cut, and a token stands in for the byte
        head = exc.object[: exc.start].decode().replace("#", "")
        lineno = max(k for k, _ in lines(head + "0"))
        raise ValidationError(
            f"{path}: line {lineno}: byte 0x{exc.object[exc.start]:02x} is not UTF-8"
        ) from None


def load_graph(path: str) -> Graph:
    return parse_edge_list(read_text(path))
