"""Linear arrangements of a graph and crossing-count statistics.

An arrangement is a permutation of the vertices along a line; two
independent edges cross when their endpoints interleave.  This module
gives the exact crossing distribution for small graphs, a Monte Carlo
sampler for large ones, and z-score / tail-bound helpers.

Crossings are counted by merging, not by testing edge pairs.  With each
edge as the positions ``lo < hi`` of its ends, sorted by ``lo`` ascending
and ``hi`` descending,

    C = #{i < j in that order : hi_i < hi_j} - #{(i, j) : hi_i <= lo_j}.

The first term counts every pair that starts and ends in the same order:
the crossing pairs plus the disjoint ones (``hi_i < lo_j``) and those
that meet end to start (``hi_i = lo_j``); edges sharing a left end never
count, because their ``hi`` descends.  The second term is exactly those
disjoint and meeting pairs: with the right ends as ``2·hi`` and the left
ends as ``2·lo + 1``, one sort of a row's 2m ends puts each left end
after the right ends at or before it, so the places of the left ends sum
to that count plus m(m − 1)/2.  The first term is a bottom-up merge over
the sequence of right ends: pairs inside leaf blocks of ``_LEAF`` edges
(the power of two at or above m, if that is smaller) are compared
directly, and at each level the two halves of a block are sorted
together, the left half tagged in the low bit, so that where the left
values land tells how many right values lie above them.  The halves need
no sorting of their own: how many right values lie above a left value
depends on which half each value came from, not on its place within the
half, so every level sorts its blocks whole and inherits no order from
the level below.  Sorting the blocks makes a count O(m log² m) time and
O(n + m) memory.  One numpy kernel runs it,
vectorised across edges and arrangements at once: ``count_crossings``
on one row, Monte Carlo and exhaustive enumeration on chunks of rows.
Ends, right ends and merge keys are int32, as every key is below
``2n <= 2^26``.  A call counts all its chunks in one workspace of int32
planes, allocated once for up to ``_chunk_rows(g)`` rows and written in
place, so no chunk allocates arrays of its own; a chunk's working
set stays near ``_SWEEP_BYTES`` = 2 MiB, so that it fits a core's L2
cache.  The pair-by-pair count is kept as the oracle
:func:`crossvar.brute.count_crossings_brute`.
"""

from __future__ import annotations

import math
import operator
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations

import numpy as np

from .errors import (
    DegenerateStatisticsError,
    InternalInconsistencyError,
    OracleBudgetError,
    ValidationError,
)
from .graph import Graph

#: largest vertex count whose n! orders exhaustive_distribution enumerates
EXHAUSTIVE_LIMIT = 9
#: largest sample count monte_carlo draws: 1 GiB of int64 results
MAX_SAMPLES = 2**27
# working set of one row chunk in the batch crossing count
_SWEEP_BYTES = 1 << 21
# edges per leaf block of the merge count, whose pairs are compared directly
_LEAF = 8


def validate_arrangement(g: Graph, order: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Check that ``order`` is a permutation of the vertices of ``g``.

    An error names the first vertex id that is out of range, or else the
    first vertex that is missing or repeated, never the whole order.
    """
    order = tuple(order)
    _arrangement_ids(g, order)
    return order


def _arrangement_ids(g: Graph, order) -> np.ndarray:
    """``order`` as an int64 array, checked as :func:`validate_arrangement`
    describes."""
    try:
        ids = np.fromiter(map(operator.index, order), dtype=np.int64)
    except (TypeError, OverflowError):
        raise ValidationError("arrangement must list integer vertex ids") from None
    outside = (ids < 0) | (ids >= g.n)
    if outside.any():
        raise ValidationError(
            f"arrangement has vertex {ids[outside.argmax()]} outside 0..{g.n - 1}"
        )
    times = np.bincount(ids, minlength=g.n)
    if (times != 1).any():
        v = int((times != 1).argmax())
        raise ValidationError(
            f"arrangement must be a permutation of 0..{g.n - 1}, "
            f"but vertex {v} appears {times[v]} times"
        )
    return ids


def parse_arrangement(text: str, g: Graph) -> tuple[int, ...]:
    """One whitespace-separated line of vertex ids; '#' starts a comment."""
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    order = []
    for tok in tokens:
        try:
            order.append(int(tok))
        except ValueError:
            raise ValidationError(
                f"non-integer vertex id {reprlib.repr(tok)} in arrangement"
            ) from None
    return validate_arrangement(g, order)


def count_crossings(g: Graph, order) -> int:
    """Number of crossing edge pairs in the given arrangement.

    The batch count of the module docstring on one row: O(m log² m) time,
    O(n + m) memory.
    """
    ids = _arrangement_ids(g, order)
    pos = np.empty((1, g.n), dtype=np.int64)
    pos[0, ids] = np.arange(g.n)
    return int(_positions_to_crossings(g, pos)[0])


def _chunk_rows(g: Graph) -> int:
    """Rows per chunk of the batch crossing count, so that one chunk's
    working set stays near ``_SWEEP_BYTES``."""
    # a row of int64 positions as monte_carlo draws them (12 bytes per
    # vertex are charged, 8 used) beside a row of the counter's workspace,
    # which is exactly 4·cols bytes (see _layout); 64 more bytes cover the
    # per-row results and sums
    return max(1, _SWEEP_BYTES // (12 * g.n + 4 * _layout(g.m)[3] + 64))


def _layout(m: int) -> tuple[int, int, np.dtype, int]:
    """The merge count's shape for m edges: the leaf, ``_LEAF`` or the power
    of two at or above a smaller m; the padded row width, leaf·2^k; the
    tally's dtype; and the int32 columns of workspace per row."""
    leaf = min(_LEAF, 1 << (m - 1).bit_length())
    width = leaf << ((m - 1) // leaf).bit_length()
    # a place holds a left value at fewer than width.bit_length() levels, so
    # place·tally fits int32 below this bound
    tally = np.dtype(np.int64 if width * width.bit_length() >= 1 << 31 else np.int32)
    # the ends stage holds the int32 ends a, b and 2m events (16 bytes per
    # edge); the merge stage the int32 keys, their transposed copy or low
    # bits, and the int8 leaf counts and compares or the tally (12 bytes per
    # padded key with an int32 tally)
    return leaf, width, tally, max(4 * m, 2 * width + width * tally.itemsize // 4)


def _positions_to_crossings(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing counts for a batch of arrangements given as position rows.

    ``pos[r, v]`` is the position of vertex ``v`` in arrangement ``r``.  The
    rows are counted in chunks of ``_chunk_rows(g)`` in one workspace, so
    memory is O(rows·(n + m)) for small batches and bounded for large ones.
    """
    pos = np.ascontiguousarray(pos, dtype=np.int64)
    rows = len(pos)
    out = np.empty(rows, dtype=np.int64)
    step = max(1, min(rows, _chunk_rows(g)))
    count = _crossing_counter(g, step)
    for start in range(0, rows, step):
        count(pos[start:start + step], out[start:start + step])
    return out


def _crossing_counter(g: Graph, rows: int):
    """A function ``count(pos, out)`` that writes the module docstring's
    count for each of up to ``rows`` rows of C-ordered int64 positions
    ``pos`` into the int64 array ``out``.

    Every chunk it counts writes into one workspace of ``rows`` rows,
    allocated here, in place and with ``out=``; the ends stage and the merge
    stage share its planes, as the ends are dead before the merge starts.
    """
    m, n = g.m, g.n
    if m < 2:
        return lambda pos, out: out.fill(0)
    leaf, width, tally_dtype, cols = _layout(m)
    ws = np.empty(rows * cols, dtype=np.int32).view(np.uint8)
    # an int64 position, below 2^31, is its low int32 word: the ends are
    # gathered from an int32 view of the rows, with no int32 copy
    low = int(sys.byteorder == "big")
    eu, ev = 2 * g.edge_u + low, 2 * g.edge_v + low
    # the sorted keys lo·2^s − hi give hi back as their low s bits negated;
    # they fit int32, and sort fastest there, while (n − 1)·2^s < 2^31
    s = (n - 1).bit_length()
    key_dtype = np.int64 if (n - 1) << s >= 1 << 31 else np.int32
    place = np.arange(max(2 * m, width), dtype=np.int32)
    tag = np.empty(width, dtype=np.int32)
    sums = np.empty(rows, dtype=np.int64)
    # m(m − 1)/2 from the ends, and the pairs across the halves of each
    # block at each level but for the Σ_left place the tally sums: a left
    # value at place p of its block precedes 2·half − 1 − p values,
    # half − 1 − (its rank among the left ones) of them left, so a block
    # holds half·(3·half − 1)/2 − Σ_left p such pairs; block b starts at
    # place 2·half·b of the row and holds half left values
    fixed = m * (m - 1) // 2
    halves = [leaf << k for k in range((width // leaf).bit_length() - 1)]
    for half in halves:
        blocks = width // (2 * half)
        fixed += blocks * (half * (3 * half - 1) // 2) + half * half * blocks * (blocks - 1)

    def count(pos: np.ndarray, out: np.ndarray) -> None:
        r = len(pos)

        def plane(offset, dtype, *shape):
            # the workspace from byte `offset` of each of r rows on, as `shape`
            start = offset * r
            size = math.prod(shape) * np.dtype(dtype).itemsize
            return ws[start:start + size].view(dtype).reshape(shape)

        a, b = plane(0, np.int32, r, m), plane(4 * m, np.int32, r, m)
        events = plane(8 * m, np.int32, r, 2 * m)
        flat = pos.view(np.int32)
        flat.take(eu, axis=1, out=a, mode="clip")
        flat.take(ev, axis=1, out=b, mode="clip")
        np.minimum(a, b, out=events[:, m:])
        hi = np.maximum(a, b, out=a)
        lo = b
        lo[...] = events[:, m:]
        # pairs with hi_i <= lo_j: each row's ends 2·hi and starts 2·lo + 1
        # sorted together.  A start then follows the ends at or before its
        # position, the pairs sought, and the starts placed before it, which
        # add 0 + 1 + ... + (m − 1) over all starts, however equal starts fall
        np.left_shift(hi, 1, out=events[:, :m])
        events[:, m:] <<= 1
        events[:, m:] |= 1
        events.sort(axis=1)
        events &= 1
        events *= place[:2 * m]
        np.sum(events, axis=1, dtype=np.int64, out=out)
        # each row's right ends in (lo ascending, hi descending) order, padded
        # with zeros to leaf·2^k: 0 < hi < n <= 2^s, and the zeros come last
        # and are below every hi, so they add no pair.  The keys take the
        # events' plane, and the padded row (width <= 2m) the ends' planes
        keys = plane(8 * m, key_dtype, r, m)
        np.left_shift(lo, s, out=keys, dtype=key_dtype)
        keys -= hi
        keys.sort(axis=1)
        np.negative(keys, out=keys)
        keys &= (1 << s) - 1
        merged = plane(0, np.int32, r, width)
        merged[:, :m] = keys
        merged[:, m:] = 0
        # pairs inside a leaf, compared directly: one shifted compare per
        # distance d, on a copy whose [r, i, j] is place i of leaf j, so that
        # each compare runs over contiguous memory; place i gains at most
        # leaf − 1 counts, so they add up in int8 and are reduced once
        across = plane(4 * width, np.int32, r, leaf, width // leaf)
        np.copyto(across, merged.reshape(r, -1, leaf).transpose(0, 2, 1))
        counts = width // leaf * (leaf - 1)
        below = plane(8 * width, np.int8, r, leaf - 1, width // leaf)
        less = plane(8 * width + counts, np.bool_, r, leaf - 1, width // leaf)
        below.fill(0)
        for d in range(1, leaf):
            np.less(across[:, :-d], across[:, d:], out=less[:, :leaf - d])
            below[:, :leaf - d] += less[:, :leaf - d]
        np.sum(below, axis=(1, 2), dtype=np.int64, out=sums[:r])
        out -= sums[:r]
        # pairs across the two halves of each block, level by level: the keys
        # are 2·hi, with the low bit set in the left half, so after sorting a
        # block a left value precedes exactly the right values above it, in
        # whatever order the halves were
        merged <<= 1
        bit = plane(4 * width, np.int32, r, width)
        tally = plane(8 * width, tally_dtype, r, width)
        tally.fill(0)
        for half in halves:
            np.bitwise_and(place[:width], half, out=tag)
            np.equal(tag, 0, out=tag)
            merged |= tag
            merged.reshape(r, -1, 2 * half).sort(axis=-1)
            np.bitwise_and(merged, 1, out=bit)
            tally += bit
            merged ^= bit
        tally *= place[:width]
        np.sum(tally, axis=1, dtype=np.int64, out=sums[:r])
        out += sums[:r]
        np.subtract(fixed, out, out=out)

    return count


@dataclass(frozen=True)
class ExactDistribution:
    """Exact crossing distribution under the uniform random arrangement."""

    counts: dict[int, int]  # crossing value -> number of arrangements
    total: int
    mean: Fraction
    variance: Fraction


def exhaustive_distribution(g: Graph) -> ExactDistribution:
    """Crossing distribution by full enumeration of the n! arrangements.

    Iterating over all permutations of position maps covers exactly the
    set of arrangements, so each tuple is used directly as a position row.
    Graphs with more than :data:`EXHAUSTIVE_LIMIT` vertices are refused.
    """
    if g.n > EXHAUSTIVE_LIMIT:
        raise OracleBudgetError(
            f"exhaustive distribution limited to n <= {EXHAUSTIVE_LIMIT} (got n={g.n})"
        )
    total = math.factorial(g.n)
    if g.m < 2:
        counts = {0: total}
    else:
        counts = {}
        perm_iter = permutations(range(g.n))
        step = min(total, _chunk_rows(g))
        count = _crossing_counter(g, step)
        pos = np.empty((step, g.n), dtype=np.int64)
        values = np.empty(step, dtype=np.int64)
        while block := list(islice(perm_iter, step)):
            rows = len(block)
            pos[:rows] = block
            count(pos[:rows], values[:rows])
            for value, times in zip(*np.unique(values[:rows], return_counts=True)):
                counts[int(value)] = counts.get(int(value), 0) + int(times)
    if sum(counts.values()) != total:
        raise InternalInconsistencyError("crossing counts do not cover all n! arrangements")
    s1 = sum(v * c for v, c in counts.items())
    s2 = sum(v * v * c for v, c in counts.items())
    mean = Fraction(s1, total)
    variance = Fraction(s2, total) - mean * mean
    return ExactDistribution(counts=counts, total=total, mean=mean, variance=variance)


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample moments of the crossing count over random arrangements."""

    samples: int
    mean: float
    variance: float  # unbiased (n - 1 denominator)
    minimum: int
    maximum: int


def monte_carlo(g: Graph, samples: int, seed: int = 0) -> MonteCarloResult:
    """Sample crossing counts from uniformly random arrangements.

    Deterministic for a fixed seed.  Arrangements are drawn one chunk of
    ``_chunk_rows(g)`` rows at a time into one reused row buffer and counted
    by the module's merge count in one workspace for the whole call,
    vectorised across the rows: O(m log² m) time per row, and memory near
    ``_SWEEP_BYTES`` plus the samples.  Each row is shuffled in turn from one
    generator, so the chunk size does not change the draws.  The rows are
    int64, which numpy's shuffle swaps fastest; a shuffle draws the same
    permutation for any item size, and the count reads the rows' low int32
    words.  More than :data:`MAX_SAMPLES` samples are refused before
    anything is allocated.
    """
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ValidationError(
            f"samples must be an integer, got {reprlib.repr(samples)}"
        ) from None
    if samples < 2:
        raise ValidationError("need at least 2 samples for a variance estimate")
    if samples > MAX_SAMPLES:
        raise ValidationError(
            f"samples must be at most {MAX_SAMPLES} (2^27), got {samples}"
        )
    rng = np.random.default_rng(seed)
    values = np.empty(samples, dtype=np.int64)
    step = min(samples, _chunk_rows(g))
    count = _crossing_counter(g, step)
    pos = np.empty((step, g.n), dtype=np.int64)
    base = np.arange(g.n, dtype=np.int64)
    for done in range(0, samples, step):
        rows = pos[:min(step, samples - done)]
        rows[...] = base
        rng.permuted(rows, axis=1, out=rows)
        count(rows, values[done:done + len(rows)])
    return MonteCarloResult(
        samples=samples,
        mean=float(values.mean()),
        variance=float(values.var(ddof=1)),
        minimum=int(values.min()),
        maximum=int(values.max()),
    )


def zscore(crossings: int, expectation: Fraction, variance: Fraction) -> float:
    """Standardized crossing count; undefined when the variance vanishes."""
    if variance == 0:
        raise DegenerateStatisticsError(
            "variance is zero: every arrangement has the same crossing count"
        )
    if variance < 0:
        raise ValidationError("variance must be non-negative")
    num = Fraction(crossings) - expectation
    return float(num) / float(variance) ** 0.5


def chebyshev_pvalue_bound(
    crossings: int,
    expectation: Fraction,
    variance: Fraction,
    side: str = "two_sided",
) -> Fraction:
    """Distribution-free tail bound for the observed crossing count.

    ``two_sided`` uses the classical second-moment bound; ``lower`` and
    ``upper`` use the one-sided refinement.  The bound is clamped to 1 and
    is exact rational arithmetic throughout.
    """
    if side not in ("two_sided", "lower", "upper"):
        raise ValidationError(f"side must be two_sided/lower/upper, got {side!r}")
    if variance < 0:
        raise ValidationError("variance must be non-negative")
    dev = Fraction(crossings) - expectation
    if dev == 0:
        return Fraction(1)
    if (side == "upper" and dev < 0) or (side == "lower" and dev > 0):
        # the observed value is on the wrong side; the bound is vacuous
        return Fraction(1)
    if variance == 0:
        # deviation from a point mass: the event has probability zero
        return Fraction(0)
    if side == "two_sided":
        return min(Fraction(1), variance / (dev * dev))
    return variance / (variance + dev * dev)
