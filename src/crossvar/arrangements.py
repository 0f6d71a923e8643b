"""Linear arrangements of a graph and crossing-count statistics.

An arrangement is a permutation of the vertices along a line; two
independent edges cross when their endpoints interleave.  This module
gives the exact crossing distribution for small graphs, a Monte Carlo
sampler for large ones, and z-score / tail-bound helpers.

Crossings are counted by one sweep, not by testing edge pairs.  With
each edge as the positions ``lo < hi`` of its ends, sorted by ``lo``
ascending and ``hi`` descending,

    C = #{i < j in that order : hi_i < hi_j} - #{(i, j) : hi_i <= lo_j}.

The first term counts every pair that starts and ends in the same order:
the crossing pairs plus the disjoint ones (``hi_i < lo_j``) and those
that meet end to start (``hi_i = lo_j``); edges sharing a left end never
count, because their ``hi`` descends.  The second term is exactly those
disjoint and meeting pairs, read off a cumulative histogram of right
ends.  The first term takes one Fenwick prefix query and one update per
edge, so a count costs O(m log n) time and O(n + m) memory.
``count_crossings`` runs the sweep in pure Python; Monte Carlo and
exhaustive enumeration run it in numpy across many arrangements at once.
The pair-by-pair count is kept as the oracle
:func:`crossvar.brute.count_crossings_brute`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, permutations

import numpy as np

from .errors import (
    DegenerateStatisticsError,
    InternalInconsistencyError,
    OracleBudgetError,
    ValidationError,
)
from .graph import Graph

EXHAUSTIVE_LIMIT = 9
# working set of one row chunk in the batch crossing count
_SWEEP_BYTES = 1 << 23


def validate_arrangement(g: Graph, order: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Check that ``order`` is a permutation of the vertices of ``g``."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValidationError(
            f"arrangement must be a permutation of 0..{g.n - 1}, got {order}"
        )
    return order


def parse_arrangement(text: str, g: Graph) -> tuple[int, ...]:
    """One whitespace-separated line of vertex ids; '#' starts a comment."""
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    try:
        order = [int(tok) for tok in tokens]
    except ValueError:
        raise ValidationError(f"non-integer vertex id in arrangement") from None
    return validate_arrangement(g, order)


def count_crossings(g: Graph, order) -> int:
    """Number of crossing edge pairs in the given arrangement.

    One sweep over the edges in ``(lo, -hi)`` order with a Fenwick tree
    over right ends (see the module docstring): O(m log n) time, O(n)
    extra memory.
    """
    order = validate_arrangement(g, order)
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    spans = sorted(
        (min(pos[u], pos[v]), -max(pos[u], pos[v])) for u, v in g.edges()
    )
    tree = [0] * n  # Fenwick tree over right ends 1..n-1; slot 0 unused
    ends = [0] * n  # ends[x]: edges whose right end is x
    crossings = 0
    for _, neg_hi in spans:
        hi = -neg_hi
        i = hi - 1  # earlier edges whose right end is below hi
        while i:
            crossings += tree[i]
            i &= i - 1
        i = hi
        while i < n:
            tree[i] += 1
            i += i & -i
        ends[hi] += 1
    ended = list(accumulate(ends))  # ended[x]: edges whose right end is <= x
    return crossings - sum(ended[lo] for lo, _ in spans)


def _chunk_rows(g: Graph) -> int:
    """Rows per chunk of the batch crossing count, so that one chunk's
    working set stays near ``_SWEEP_BYTES``."""
    # about seven int64 values per edge and two per vertex, plus one row of
    # the int32 Fenwick tree of _sweep
    tree = (1 << (g.n - 1).bit_length()) + 2
    row_bytes = 8 * (7 * g.m + 2 * g.n) + 4 * tree
    return max(1, _SWEEP_BYTES // row_bytes)


def _positions_to_crossings(g: Graph, pos: np.ndarray) -> np.ndarray:
    """Crossing counts for a batch of arrangements given as position rows.

    ``pos[r, v]`` is the position of vertex ``v`` in arrangement ``r``.  The
    rows are swept in chunks of ``_chunk_rows(g)``, so memory is
    O(rows·(n + m)) for small batches and bounded for large ones.
    """
    rows, n = pos.shape
    out = np.zeros(rows, dtype=np.int64)
    if g.m < 2:
        return out
    edges = np.array(list(g.edges()), dtype=np.int64)
    size = 1 << (n - 1).bit_length()  # Fenwick slots 1..size hold right ends
    step = _chunk_rows(g)
    for start in range(0, rows, step):
        out[start:start + step] = _sweep(edges, pos[start:start + step], size)
    return out


def _sweep(edges: np.ndarray, pos: np.ndarray, size: int) -> np.ndarray:
    """The module docstring's sweep, vectorised across the rows of ``pos``.

    Each row owns ``size + 2`` columns of one flat int32 Fenwick tree:
    column 0 is read by finished prefix queries and never written, and
    column ``size + 1`` is a sink that absorbs updates walking past the
    root, so every query and update runs a fixed number of steps.
    """
    rows, n = pos.shape
    levels = size.bit_length() - 1
    width = size + 2
    a = pos[:, edges[:, 0]]
    b = pos[:, edges[:, 1]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    # pairs with hi_i <= lo_j, from a cumulative histogram of right ends
    shifted = hi + np.arange(rows, dtype=np.int64)[:, None] * n
    ended = np.bincount(shifted.ravel(), minlength=rows * n).reshape(rows, n).cumsum(axis=1)
    total = -np.take_along_axis(ended, lo, axis=1).sum(axis=1)
    # each row's edges by lo ascending, hi descending; 0 < hi < n, so the
    # sorted keys lo·n − hi give hi back as their residue mod n
    hi = -np.sort(lo * n - hi, axis=1) % n
    tree = np.zeros(rows * width, dtype=np.int32)
    base = np.arange(rows, dtype=np.int64) * width
    for h in hi.T:
        i = h - 1  # earlier edges whose right end is below h
        for _ in range(levels):
            total += tree[base + i]
            i &= i - 1
        i = h.copy()
        for _ in range(levels + 1):
            tree[base + i] += 1
            i += i & -i
            np.minimum(i, size + 1, out=i)
    return total


@dataclass(frozen=True)
class ExactDistribution:
    """Exact crossing distribution under the uniform random arrangement."""

    counts: dict[int, int]  # crossing value -> number of arrangements
    total: int
    mean: Fraction
    variance: Fraction


def exhaustive_distribution(g: Graph, limit: int = EXHAUSTIVE_LIMIT) -> ExactDistribution:
    """Crossing distribution by full enumeration of the n! arrangements.

    Iterating over all permutations of position maps covers exactly the
    set of arrangements, so each tuple is used directly as a position row.
    """
    if g.n > limit:
        raise OracleBudgetError(
            f"exhaustive distribution limited to n <= {limit} (got n={g.n})"
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
            values = _positions_to_crossings(g, np.array(block, dtype=np.int64))
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
    ``_chunk_rows(g)`` rows at a time and counted by the module's sweep,
    vectorised across the rows: O(m log n) steps per row, and memory near
    ``_SWEEP_BYTES`` plus the samples.  Each row is shuffled in turn from
    one generator, so the chunk size does not change the draws.
    """
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
        pos = rng.permuted(pos, axis=1)
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
    if variance == 0:
        # deviation from a point mass: the event has probability zero
        return Fraction(0)
    if side == "two_sided":
        return min(Fraction(1), variance / (dev * dev))
    if (side == "upper" and dev < 0) or (side == "lower" and dev > 0):
        # the observed value is on the wrong side; the bound is vacuous
        return Fraction(1)
    return variance / (variance + dev * dev)
