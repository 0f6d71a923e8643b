"""Linear arrangements of a graph and crossing-count statistics.

An arrangement is a permutation of the vertices along a line; two
independent edges cross when their endpoints interleave.  This module
gives the exact crossing distribution for small graphs, a Monte Carlo
sampler for large ones, and z-score / tail-bound helpers.
"""

from __future__ import annotations

import math
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

EXHAUSTIVE_LIMIT = 9


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

    Two vertex-disjoint edges cross exactly when one endpoint of the
    second lies strictly between the endpoints of the first and the other
    does not.
    """
    order = validate_arrangement(g, order)
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


def _positions_to_crossings(g: Graph, pos_matrix: np.ndarray) -> np.ndarray:
    """Crossing counts for a batch of arrangements given as position rows."""
    edges = np.array(list(g.edges()), dtype=np.int64)
    a = pos_matrix[:, edges[:, 0]]
    b = pos_matrix[:, edges[:, 1]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    iu, ju = np.triu_indices(len(edges), k=1)
    lo1, hi1 = lo[:, iu], hi[:, iu]
    lo2, hi2 = lo[:, ju], hi[:, ju]
    crossed = ((lo1 < lo2) & (lo2 < hi1) & (hi1 < hi2)) | (
        (lo2 < lo1) & (lo1 < hi2) & (hi2 < hi1)
    )
    return crossed.sum(axis=1)


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
        batch = 40320
        while True:
            block = list(islice(perm_iter, batch))
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


def monte_carlo(g: Graph, samples: int, seed: int = 0, batch: int = 4096) -> MonteCarloResult:
    """Sample crossing counts from uniformly random arrangements.

    Deterministic for a fixed seed.  Arrangements are drawn in batches and
    evaluated with vectorized interleaving tests.
    """
    if samples < 2:
        raise ValidationError("need at least 2 samples for a variance estimate")
    rng = np.random.default_rng(seed)
    values = np.empty(samples, dtype=np.int64)
    base = np.arange(g.n, dtype=np.int64)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
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
