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
Positions, right ends and merge keys are int32, as every key is below
``2n <= 2^26``, and each chunk's working set stays near ``_SWEEP_BYTES``
= 2 MiB, so that it fits a core's L2 cache.  The pair-by-pair count is
kept as the oracle :func:`crossvar.brute.count_crossings_brute`.
"""

from __future__ import annotations

import math
import operator
import reprlib
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
    pos = np.empty((1, g.n), dtype=np.int32)
    pos[0, ids] = np.arange(g.n, dtype=np.int32)
    return int(_positions_to_crossings(g, pos)[0])


def _chunk_rows(g: Graph) -> int:
    """Rows per chunk of the batch crossing count, so that one chunk's
    working set stays near ``_SWEEP_BYTES``."""
    # a row of positions as monte_carlo draws them, in int64, and its int32
    # copy (12 bytes per vertex) beside _merge_count at its widest: while
    # ends are counted, the int32 lo, hi and 2m events (16 bytes per edge);
    # while merging, the int32 keys, low bits and tally (12 bytes per padded
    # key, which also covers the leaf compares: the keys, their transposed
    # copy, the int8 counts and a boolean compare); 64 more bytes cover
    # small fixed arrays
    _, width = _leaf_width(g.m)
    row_bytes = 12 * g.n + max(16 * g.m, 12 * width) + 64
    return max(1, _SWEEP_BYTES // row_bytes)


def _leaf_width(m: int) -> tuple[int, int]:
    """Edges per leaf block of the merge count, ``_LEAF`` or the power of
    two at or above a smaller ``m``, and the padded row width, leaf·2^k."""
    leaf = min(_LEAF, 1 << (m - 1).bit_length())
    return leaf, leaf << ((m - 1) // leaf).bit_length()


def _positions_to_crossings(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing counts for a batch of arrangements given as position rows.

    ``pos[r, v]`` is the position of vertex ``v`` in arrangement ``r``.  The
    rows are counted in chunks of ``_chunk_rows(g)``, so memory is
    O(rows·(n + m)) for small batches and bounded for large ones.
    """
    rows = len(pos)
    out = np.zeros(rows, dtype=np.int64)
    if g.m < 2:
        return out
    step = _chunk_rows(g)
    for start in range(0, rows, step):
        chunk = pos[start:start + step].astype(np.int32, copy=False)
        out[start:start + step] = _merge_count(g.edge_u, g.edge_v, chunk)
    return out


def _merge_count(eu: np.ndarray, ev: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The module docstring's count for the edges ``(eu[i], ev[i])``,
    vectorised across rows and edges; ``pos`` holds int32 positions."""
    rows, n = pos.shape
    m = len(eu)
    a = pos.take(eu, axis=1)
    b = pos.take(ev, axis=1)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=a)
    del a, b
    # pairs with hi_i <= lo_j: each row's ends 2·hi and starts 2·lo + 1
    # sorted together.  A start then follows the ends at or before its
    # position, the pairs sought, and the starts placed before it, which
    # add 0 + 1 + ... + (m − 1) over all starts, however equal starts fall
    events = np.empty((rows, 2 * m), dtype=np.int32)
    np.left_shift(hi, 1, out=events[:, :m])
    np.left_shift(lo, 1, out=events[:, m:])
    events[:, m:] |= 1
    events.sort(axis=1)
    events &= 1
    events *= np.arange(2 * m, dtype=np.int32)
    total = m * (m - 1) // 2 - events.sum(axis=1, dtype=np.int64)
    del events
    # each row's right ends in (lo ascending, hi descending) order, padded
    # with zeros to leaf·2^k: 0 < hi < n <= 2^s, so the sorted keys
    # lo·2^s − hi give hi back as their low s bits negated, and the zeros
    # come last and are below every hi, so they add no pair.  The keys fit
    # int32, and sort fastest there, while (n − 1)·2^s < 2^31; wider graphs
    # sort them in int64
    s = (n - 1).bit_length()
    if (n - 1) << s >= 1 << 31:
        lo = lo.astype(np.int64)
    lo <<= s
    lo -= hi
    del hi
    lo.sort(axis=1)
    np.negative(lo, out=lo)
    lo &= (1 << s) - 1
    leaf, width = _leaf_width(m)
    keys = np.zeros((rows, width), dtype=np.int32)
    keys[:, :m] = lo
    del lo
    # pairs inside a leaf, compared directly: one shifted compare per
    # distance d, on a copy whose [r, i, j] is place i of leaf j, so that
    # each compare runs over contiguous memory; place i gains at most
    # leaf − 1 counts, so they add up in int8 and are reduced once
    across = np.ascontiguousarray(keys.reshape(rows, -1, leaf).transpose(0, 2, 1))
    below = np.zeros((rows, leaf - 1, width // leaf), dtype=np.int8)
    for d in range(1, leaf):
        below[:, :leaf - d] += across[:, :-d] < across[:, d:]
    total += below.sum(axis=(1, 2), dtype=np.int64)
    del across, below
    # pairs across the two halves of each block, level by level: the keys
    # are 2·hi, with the low bit set in the left half, so after sorting a
    # block a left value precedes exactly the right values above it, in
    # whatever order the halves were
    keys <<= 1
    place = np.arange(width, dtype=np.int32)
    bit = np.empty_like(keys)
    # levels at which each place of a row held a left value: fewer than
    # width.bit_length(), so place·tally fits int32 below that bound
    wide = width * width.bit_length() >= 1 << 31
    tally = np.zeros((rows, width), dtype=np.int64 if wide else np.int32)
    half = leaf
    while half < width:
        keys |= (place // half + 1) & 1
        keys.reshape(rows, -1, 2 * half).sort(axis=-1)
        np.bitwise_and(keys, 1, out=bit)
        tally += bit
        keys ^= bit
        # a left value at place p of its block precedes 2·half − 1 − p
        # values, half − 1 − (its rank among the left ones) of them left, so
        # a block holds half·(3·half − 1)/2 − Σ_left p such pairs; block b
        # starts at place 2·half·b of the row and holds half left values
        blocks = width // (2 * half)
        total += blocks * (half * (3 * half - 1) // 2) + half * half * blocks * (blocks - 1)
        half *= 2
    tally *= place
    total -= tally.sum(axis=1, dtype=np.int64)
    return total


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
        step = _chunk_rows(g)
        while True:
            block = list(islice(perm_iter, step))
            if not block:
                break
            values = _positions_to_crossings(g, np.array(block, dtype=np.int32))
            for value, count in zip(*np.unique(values, return_counts=True)):
                counts[int(value)] = counts.get(int(value), 0) + int(count)
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
    ``_chunk_rows(g)`` rows at a time and counted by the module's merge
    count, vectorised across the rows: O(m log² m) time per row, and memory
    near ``_SWEEP_BYTES`` plus the samples.  Each row is shuffled in turn from
    one generator, so the chunk size does not change the draws.  The rows
    are int64, which numpy's shuffle swaps fastest; a shuffle draws the same
    permutation for any item size, and the count takes the rows as int32.
    """
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ValidationError(
            f"samples must be an integer, got {reprlib.repr(samples)}"
        ) from None
    if samples < 2:
        raise ValidationError("need at least 2 samples for a variance estimate")
    rng = np.random.default_rng(seed)
    values = np.empty(samples, dtype=np.int64)
    base = np.arange(g.n, dtype=np.int64)
    step = _chunk_rows(g)
    done = 0
    while done < samples:
        b = min(step, samples - done)
        pos = np.tile(base, (b, 1))
        rng.permuted(pos, axis=1, out=pos)
        values[done:done + b] = _positions_to_crossings(g, pos)
        done += b
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
