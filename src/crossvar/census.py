"""Subgraph census: one reduction from degree sums and intersection sums.

Every :class:`CensusReport` field is a closed form in the degree
aggregates of :mod:`crossvar.graph` and three sums over neighbourhood
intersections, where ``c_st`` is the number of common neighbours of two
vertices:

* ``mu2 = sum_e c_st`` (three times the triangle count),
* ``s_sum = sum_e (k_s + k_t) c_st / 2`` (the degree sum over triangle
  corners),
* ``c4_scaled = sum over vertex pairs of c_ab (c_ab - 1)`` (four times the
  4-cycle count).

:func:`reduce_census` turns them and the degree sums of
:func:`crossvar.graph.degree_aggregates` into the census.  The routes
differ only in where the intersections come from: :func:`fast_census`
merges two sorted adjacency lists for every edge and every wedge
``a-x-b``, :func:`table_census` counts equal keys in one table of vertex
pairs, and :func:`forest_census` requests none, because all three sums
vanish on an acyclic graph.  The table is read in blocks of whole rows,
and each block takes one of two sides from its own shape.  A dense block
holds every ``c_ab`` of its rows in one count matrix, without listing a
key, and one reduction reads its sums off that matrix; the block's shape
picks the kernel that fills it.  A block of every row, the whole table of
a small dense graph, is the float32 matrix product ``A·A``, exact because
every partial sum is an integer below 2^24, and any other dense block
counts the bits two packed adjacency rows share.  Any other block lists
its keys, the far ends of each half-edge's wedges read off after its
twin, and counts equal ones with one ``bincount`` when its key span is no
larger than its number of keys, and by sorting them otherwise, as int32
when the span allows.  Each
``c_ab <= n`` and the ``c_ab`` of a block of ``K`` keys add up to ``K``,
so its int64 sums stay below ``2n·K``, below 2^62 for any graph that fits
in memory (``n <= 2^25``, ``m < 2^35``), and the blocks are added up as
Python ints.  Each count has a brute-force counterpart in
:mod:`crossvar.brute` that serves as its oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .errors import InternalInconsistencyError, NotAForestError
from .graph import Graph, degree_aggregates

#: entries per block of the pair table that lists its keys, and vertex
#: pairs per block that reads them from bitsets.  A listed block has at
#: most six int64 arrays of its length alive at once; a bitset block has an
#: int32 count, a uint64 word and its uint8 bit count per pair, later an
#: int64 copy of the counts and one of those past its rows' columns.
#: Either working set stays under 4 MiB.
_TABLE_KEYS = 1 << 16


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


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """``c_ab``: the entries two sorted neighbour tuples share, by a linear merge."""
    i = j = size = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            size += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return size


def _intersection_sums(g: Graph) -> tuple[int, int, int]:
    """``(mu2, s_sum, c4_scaled)``: one merge per edge and per wedge.

    Summing ``c_ab - 1`` over the wedges ``a-x-b`` counts each vertex pair
    ``c_ab (c_ab - 1)`` times.
    """
    # adjacency before degrees: the degree tuple then is not alive at the
    # adjacency build's peak
    adjacency, k = g.adjacency, g.degrees
    mu2 = s_twice = 0
    for s, t in g.edges():
        c = _merge(adjacency[s], adjacency[t])
        mu2 += c
        s_twice += (k[s] + k[t]) * c
    c4_scaled = 0
    for neighbors in adjacency:
        for a, b in combinations(neighbors, 2):
            c4_scaled += _merge(adjacency[a], adjacency[b]) - 1
    return mu2, _exact_quotient(s_twice, 2, "s_sum"), c4_scaled


def _exact_quotient(scaled: int, divisor: int, name: str) -> int:
    if scaled % divisor:
        raise InternalInconsistencyError(
            f"{name} scaled by {divisor} is {scaled}, not a multiple of {divisor}"
        )
    return scaled // divisor


def reduce_census(g: Graph, mu2: int, s_sum: int, c4_scaled: int) -> CensusReport:
    """Every census field from degree sums and the three intersection sums.

    The degree sums come from :func:`crossvar.graph.degree_aggregates`, so
    the reduction itself sums nothing over vertices or edges.  Each triangle
    adds its corner degrees once to ``s_sum`` and twice to ``sum_e (k_s +
    k_t) c_st``, which ``lambda2`` and ``nC3L2`` take as ``2 s_sum``.  The
    path-5 count is ``nP5 = sum_x [(xi_x - k_x)^2 - k_x (k_x - 1)^2] / 2 -
    4 nC4 - 2 s_sum + 3 mu2``.
    """
    agg, m = degree_aggregates(g), g.m
    mmt2, mmt3, mmt4, psi = agg.mmt2, agg.mmt3, agg.mmt4, agg.psi
    xi2, k2xi = agg.xi2, agg.k2xi
    # per-edge sums of (k_t - 1)(xi_s - k_t) + (k_s - 1)(xi_t - k_s) and of
    # (k_s + k_t)(k_s - 1)(k_t - 1), gathered by vertex
    lambda1 = xi2 - mmt3 - 2 * psi + mmt2 - 2 * s_sum
    lambda2 = lambda1 + k2xi - mmt3 - 2 * psi + mmt2 - 2 * s_sum
    phi2_twice = mmt2 * mmt2 - 2 * k2xi - xi2 - mmt4 + mmt3 + 2 * psi
    n_c3 = _exact_quotient(mu2, 3, "nC3")
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
        nC3=n_c3,
        nC4=n_c4,
        nPaw=s_sum - 2 * mu2,
        nC3L2=(m + 3) * n_c3 - s_sum,
    )


def fast_census(g: Graph) -> CensusReport:
    """The paper's general route: a sorted-list merge for every edge and wedge."""
    return reduce_census(g, *_intersection_sums(g))


def _key_counts(
    keys: np.ndarray, edge_keys: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(c, c_edge)``: how often each distinct key of ``keys`` occurs, and
    how often each of ``edge_keys`` does (0 if never), for keys in
    ``[0, span)``.

    These are the two sides of a block that lists its keys; a denser block
    reads its pairs from bitsets instead (:func:`table_census`).  A block
    whose span is no larger than its number of keys counts them into
    ``span`` bins with one ``bincount``, Gustavson's dense accumulator, so
    the bins never outgrow the keys.  A sparser block sorts its keys in
    place, reads off the runs of equal keys, and finds each edge key's run
    with one binary search among the distinct keys.  ``edge_keys`` have the
    dtype of ``keys``, int32 or int64, so that the search casts neither.
    """
    if span <= len(keys):
        bins = np.bincount(keys, minlength=span)
        return bins[bins > 0], bins[edge_keys]
    if not len(keys):
        return np.zeros(0, dtype=np.int64), np.zeros(len(edge_keys), dtype=np.int64)
    keys.sort()
    # a run of equal keys starts at each True of step but the last
    step = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=step[1:-1])
    bounds = np.flatnonzero(step)
    distinct, c = keys[bounds[:-1]], np.diff(bounds)
    # an edge key occurs as often as the first distinct key not below it, if equal
    at = np.minimum(np.searchsorted(distinct, edge_keys), len(c) - 1)
    return c, np.where(distinct[at] == edge_keys, c[at], 0)


def _bitsets(n: int, owner: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Each adjacency row packed into ``w = ⌈n/64⌉`` uint64 words: bit
    ``b % 64`` of word ``b // 64`` is set for each neighbour ``b``."""
    words = -(-n // 64)
    # a row lists its neighbours in order, so the half-edges of one word are adjacent
    at = owner * words + (indices >> 6)
    first = np.flatnonzero(np.diff(at, prepend=-1))
    bits = np.zeros(n * words, dtype=np.uint64)
    bits[at[first]] = np.bitwise_or.reduceat(
        np.left_shift(np.uint64(1), (indices & 63).astype(np.uint64)), first
    )
    return bits.reshape(n, words)


def _bitset_counts(bits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``c_ab`` for the rows ``lo <= a < hi`` and the columns ``b >= lo`` of
    the packed rows ``bits``, as a ``(hi - lo) × (n - lo)`` int32 matrix:
    the bits ``row_a & row_b`` share, added up one word at a time."""
    counts = np.zeros((hi - lo, len(bits) - lo), dtype=np.int32)
    for j in range(bits.shape[1]):
        counts += np.bitwise_count(bits[lo:hi, j, None] & bits[None, lo:, j])
    return counts


def _twins(n: int, owner: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``twin[i]``: the position of the half-edge ``x -> a`` in ``indices``,
    for the half-edge ``i`` from ``owner[i] = a`` to ``indices[i] = x``.

    The half-edges are listed in (owner, neighbour) order, so sorted by
    (neighbour, owner) they list their reversed twins in that order: the
    sorting permutation is ``twin``'s inverse, which is ``twin`` itself.
    """
    return np.argsort(indices * n + owner)


def _dense_sums(c: np.ndarray, edge_at: np.ndarray) -> tuple[int, int, np.ndarray]:
    """``(c4_scaled, pairs, c_edge)`` of a dense block of rows ``lo <= a <
    hi``, whose int64 ``c[a - lo, b - lo]`` is ``c_ab`` for every ``b >= lo``:
    ``c_ab (c_ab - 1)`` added up over its pairs, its pairs with ``c_ab >
    0``, and its edges' ``c_ab``, read at their flat positions ``edge_at``.

    The first ``hi - lo`` columns hold each pair of the block's rows twice,
    as ``(a, b)`` and ``(b, a)``, and their degrees on the diagonal; the
    other columns hold each pair once.  The diagonal is zeroed in place,
    and every sum is taken over all the counts once and those past the
    first ``hi - lo`` columns once more, so each pair is counted twice.
    """
    c_edge = c.take(edge_at)
    np.fill_diagonal(c, 0)
    once, flat = c[:, len(c):].ravel(), c.ravel()
    twice = int(flat.dot(flat)) - int(flat.sum()) + int(once.dot(once)) - int(once.sum())
    return twice // 2, int(np.count_nonzero(flat) + np.count_nonzero(once)) // 2, c_edge


def _table_blocks(g: Graph) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Each block of :func:`table_census`'s table as ``(c4_scaled, pairs,
    c_edge, weight)``: its share of ``c4_scaled``, its distinct pairs ``a <
    b`` with ``c_ab > 0``, and the ``c_st`` and ``k_s + k_t`` of its edges
    ``s < t``."""
    n, k = g.n, g.degree_array
    words, rows = -(-n // 64), max(1, _TABLE_KEYS // max(n, 1))
    # the loop's rule for a first block of every row, whose K is the W of
    # the degrees: a dense block, filled by the product of the whole graph
    if n <= rows and n * n * words <= int((k * (k - 1)).sum()) // 2:
        s, t = g.edge_u, g.edge_v
        edge = s * n + t
        adjacency = np.zeros(n * n, dtype=np.float32)
        adjacency[edge] = adjacency[t * n + s] = 1
        adjacency = adjacency.reshape(n, n)
        yield *_dense_sums((adjacency @ adjacency).astype(np.int64), edge), k[s] + k[t]
        return
    indptr, indices = g.indptr, g.indices
    owner = np.repeat(np.arange(n), k)
    # the ends b > a of the wedges a-x-b are the neighbours of x past a; a
    # row's keys add up to at most 2m, exact in the float64 bincount
    ahead = indptr[owner + 1] - 1 - np.arange(len(indices))
    keys_to = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, weights=ahead, minlength=n).astype(np.int64), out=keys_to[1:])
    entries_to = keys_to + np.concatenate(([0], np.cumsum(owner < indices)))[indptr]
    bits = twin = None
    lo = 0
    while lo < n:
        hi = min(n, lo + rows)
        dense = (hi - lo) * n * words <= keys_to[hi] - keys_to[lo]
        if not dense:
            hi = max(lo + 1, int(np.searchsorted(entries_to, entries_to[lo] + _TABLE_KEYS, "right")) - 1)
        block = slice(indptr[lo], indptr[hi])
        a, x = owner[block], indices[block]
        s, t = a[a < x], x[a < x]
        if dense:
            if bits is None:
                # n·w <= K / (hi - lo) <= 2m words: no larger than the half-edges
                bits = _bitsets(n, owner, indices)
            counts = _bitset_counts(bits, lo, hi).astype(np.int64)
            yield *_dense_sums(counts, (s - lo) * (n - lo) + t - lo), k[s] + k[t]
        else:
            if twin is None:
                twin = _twins(n, owner, indices)
            # the wedges a-x-b of the half-edge a -> x end past a in the row of
            # x, where the twin x -> a has its neighbours ahead
            length = ahead[twin[block]]
            # wedge i of the block ends at indices[i + shift], one shift per half-edge a -> x
            at = np.repeat(indptr[x + 1] - np.cumsum(length), length)
            at += np.arange(len(at))
            # the keys lie below the span: a block that sorts them sorts int32
            # when they fit, and a bincount reads int64 without a cast
            span = (hi - lo) * n
            dtype = np.int32 if len(at) < span <= 1 << 31 else np.int64
            keys = np.repeat(((a - lo) * n).astype(dtype), length)
            keys += indices[at]
            del at
            c, c_edge = _key_counts(keys, ((s - lo) * n + t).astype(dtype), span)
            yield int((c * (c - 1)).sum()), len(c), c_edge, k[s] + k[t]
        lo = hi


def table_census(g: Graph) -> tuple[CensusReport, int]:
    """The census from one table of vertex pairs, and the number of
    distinct pairs it names: the edges and the ends of every wedge.

    Each wedge ``a-x-b`` with ``a < b`` adds the key ``a·n + b``, so
    ``c_ab`` is the number of equal keys.  The table is read one block of
    rows ``lo <= a < hi`` at a time (:func:`_table_blocks`), and each block
    takes one of two sides from its own shape, with ``K`` its number of
    keys and ``w = ⌈n/64⌉``:

    * dense, when ``(hi - lo)·n·w <= K``: one word operation per pair ``a,
      b`` and 64 columns costs no more than listing the keys.  The block
      covers about ``_TABLE_KEYS`` pairs ``a, b``, and a kernel chosen by
      its shape fills a matrix of every ``c_ab`` with ``b >= lo``, from
      which :func:`_dense_sums` reads the block's sums.  A block of every
      row, which needs ``n² <= _TABLE_KEYS`` and ``n²·w`` at most ``W =
      sum_x k_x (k_x - 1) / 2``, is the float32 product ``A·A`` of the
      adjacency matrix ``A``, written from ``edge_u``/``edge_v``, so no
      adjacency rows are built.  It is exact however BLAS orders or blocks
      its sums: each entry adds up ``n`` products of 0 and 1, so every
      partial sum is an integer of at most ``n <= 256 < 2^24``.  Its
      working set is two ``n × n`` float32 matrices and one int64 one, 1
      MiB at ``n = 256``.  Any other dense block reads every ``c_ab`` as
      the bits two packed adjacency rows share (:func:`_bitset_counts`).
    * listed, otherwise: the block lists about ``_TABLE_KEYS`` keys and
      edges, stored relative to the block as ``(a - lo)·n + b`` below its
      span ``(hi - lo)·n``.  The wedges of a half-edge ``a -> x`` end at
      the neighbours of ``x`` past ``a``, as many as follow its twin ``x
      -> a`` in its row (:func:`_twins`), so no row is searched.  The block
      counts its keys with one ``bincount`` over the span, as int64, if
      the span is no larger than ``K``, or else by sorting them, as int32
      if the span is at most 2^31 (see :func:`_key_counts`).

    No key spans two blocks.  Every block adds ``c_ab (c_ab - 1)`` over its
    pairs, and every side's block sums go into one accumulation of ``c_ab``
    and ``(k_a + k_b) c_ab`` over the edges and of the pair count.  Each
    ``c_ab <= n`` and the ``c_ab`` of a block add up to its ``K``, so its
    int64 sums stay below ``2n·K``.  A listed block holds its keys, so ``K
    < 2^36``; a dense block of ``r`` rows has ``K <= 2m·r`` and ``r·n <=
    max(n, _TABLE_KEYS)``, so ``2n·K <= 4·max(n, 2^16)·m``.  Both are below
    2^62 for ``n <= 2^25`` and ``m < 2^35``, and the block sums are added
    up as Python ints.
    """
    mu2 = s_twice = c4_scaled = pairs = 0
    for block_c4, block_pairs, c_edge, weight in _table_blocks(g):
        c4_scaled += block_c4
        mu2 += int(c_edge.sum())
        s_twice += int((weight * c_edge).sum())
        pairs += block_pairs + int((c_edge == 0).sum())
    return reduce_census(g, mu2, _exact_quotient(s_twice, 2, "s_sum"), c4_scaled), pairs


def forest_census(g: Graph) -> CensusReport:
    """Census of an acyclic graph in time linear in its size.

    A forest has no triangles and no 4-cycles, so every intersection sum
    is zero and no intersection is requested.
    """
    if not g.is_forest():
        raise NotAForestError("graph contains a cycle")
    return reduce_census(g, 0, 0, 0)
