"""Linear arrangements of a graph and crossing-count statistics.

An arrangement is a permutation of the vertices along a line; two
independent edges cross when their endpoints interleave.  This module
gives the exact crossing distribution for small graphs, a Monte Carlo
sampler for large ones, and z-score / tail-bound helpers.  One function,
:func:`validate_arrangement`, checks an order and returns it as int64
vertex ids; :func:`parse_arrangement`, :func:`count_crossings` and the
oracle :func:`crossvar.brute.count_crossings_brute` all check through it.

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
vectorised across edges and arrangements at once, and one driver,
``_count_rows``, feeds it rows: ``count_crossings`` fills one row, Monte
Carlo and exhaustive enumeration fill chunks of rows.
Ends, right ends and merge keys are int32, as every key is below
``2n <= 2^26``.  A counter counts all its chunks in one workspace of int32
planes, allocated once for up to ``_chunk_rows(g)`` rows and written in
place, so no chunk allocates arrays of its own; a chunk's working
set stays near ``_SWEEP_BYTES`` = 2 MiB, so that it fits a core's L2
cache.  ``_count_rows`` counts a call's chunks on one worker thread per
CPU, which fill their chunks in turn, so that no result depends on the
CPU count; its docstring describes the driver in full.
The pair-by-pair count is kept as the oracle
:func:`crossvar.brute.count_crossings_brute`.
"""

from __future__ import annotations

import math
import os
import reprlib
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations
from threading import enumerate as live_threads

import numpy as np

from .errors import (
    DegenerateStatisticsError,
    OracleBudgetError,
    ValidationError,
)
from .graph import Graph, integer, lines, read_number, scan_ids, vertex_ids

#: largest vertex count whose n! orders exhaustive_distribution enumerates
EXHAUSTIVE_LIMIT = 9
#: largest sample count monte_carlo draws: 1 GiB of int64 results
MAX_SAMPLES = 2**27
# working set of one row chunk in the batch crossing count
_SWEEP_BYTES = 1 << 21
# edges per leaf block of the merge count, whose pairs are compared directly
_LEAF = 8


def validate_arrangement(g: Graph, order) -> np.ndarray:
    """``order`` as an int64 array of vertex ids, checked to be a
    permutation of the vertices of ``g``.

    The ids are read as :func:`crossvar.graph.vertex_ids` reads them, so an
    int64 array is checked as it is, without a copy.  An error names the
    first vertex id that is out of range, or else the first vertex that is
    missing or repeated, never the whole order.
    """
    ids = vertex_ids(order, "arrangement entries")
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


def parse_arrangement(text: str, g: Graph) -> np.ndarray:
    """Vertex ids separated by whitespace, across any number of lines;
    '#' starts a comment.  An id is ASCII decimal digits, as
    :func:`crossvar.graph.read_number` reads it.  The order is returned as
    :func:`validate_arrangement` returns it.

    The whole text is tokenised in blocks of whole lines
    (:func:`crossvar.graph.scan_ids`); text that this does not accept,
    which includes every malformed text, is read again line by line, which
    names the first bad id and its line.
    """
    ids = scan_ids(text)
    return validate_arrangement(g, _read_lines(text) if ids is None else ids)


def _read_lines(text: str) -> list[int]:
    """The ids of an arrangement text, line by line; raises at the first
    id that is not ASCII decimal digits."""
    order = []
    for lineno, line in lines(text):
        tokens = line.split()
        ids = list(map(read_number, tokens))
        if None in ids:
            bad = tokens[ids.index(None)]
            raise ValidationError(
                f"vertex id {reprlib.repr(bad)} in arrangement line {lineno}"
                " is not ASCII decimal digits"
            )
        order += ids
    return order


def count_crossings(g: Graph, order) -> int:
    """Number of crossing edge pairs in the given arrangement.

    The batch count of the module docstring on one row: O(m log² m) time,
    O(n + m) memory.
    """
    ids = validate_arrangement(g, order)

    def fill(rows):
        rows[0, ids] = np.arange(g.n)

    return int(_count_rows(g, 1, fill)[0])


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


def _count_rows(g: Graph, total: int, fill) -> np.ndarray:
    """The crossing counts of ``total`` arrangements, as an int64 array.

    The rows are counted in chunks of up to ``_chunk_rows(g)``.
    ``fill(rows)`` writes the next ``len(rows)`` position rows into
    ``rows``: ``rows[r, v]`` is the position of vertex ``v`` in arrangement
    ``r``.  Every worker runs one loop, with its own workspace and int64
    row buffer, both allocated on the calling thread, so that no worker's
    allocator arena holds memory of its own: holding one turn lock, it
    takes the next chunk and fills it, so ``fill`` runs on one thread at a
    time, once per chunk and in chunk order, and the rows, and every
    result, are bit-identical whatever the CPU count; it counts the chunk
    after its turn, so one worker's fill overlaps the others' counts.  A
    call of one chunk, or a process allowed one CPU, runs the loop inline
    and starts no thread, so memory is O(rows·(n + m)) for small batches
    and bounded for large ones.  Otherwise the loop runs on one thread per
    CPU in the process's affinity mask (``os.sched_getaffinity``, or
    ``os.cpu_count()`` where there are no masks), up to one per chunk,
    each kept to its own CPU: numpy's sorts and ufuncs release the GIL, and
    memory grows by one workspace and one row buffer per worker.  There is
    no setting for the thread count.  The threads are a
    ``ThreadPoolExecutor`` made for the call, whose every job is one
    worker's loop, so the pool's futures carry a worker's error to the call.
    Every thread the call starts is joined before it returns or raises: the
    pool's shutdown joins the threads it holds, and the call then joins every
    live thread named with the pool's prefix, such as one whose start an
    interrupt cut short.  The first error, from ``fill`` or from a count,
    stops every worker at its next turn and is raised by the call; an
    interrupt of the calling thread, or a worker thread that cannot start,
    stops them too.
    """
    step = max(1, min(total, _chunk_rows(g)))
    out = np.empty(total, dtype=np.int64)
    starts = iter(range(0, total, step))
    turn = threading.Lock()
    stopped = []

    def work(count, pos):
        while True:
            with turn:
                start = None if stopped else next(starts, None)
                if start is None:
                    return
                rows = pos[:min(step, total - start)]
                try:
                    fill(rows)
                except BaseException:
                    # marked before the turn passes on, so that no turn
                    # follows a fill that raised
                    stopped.append(None)
                    raise
            count(rows, out[start:start + len(rows)])

    def pinned(cpu, job):
        # a scheduler may leave every thread of a process on the CPU that
        # started it
        with suppress(AttributeError, OSError):
            os.sched_setaffinity(0, {cpu})
        try:
            work(*job)
        finally:
            # a worker stops when the chunks run out or on an error; an
            # error stops every other worker at its next turn
            stopped.append(None)

    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = list(range(os.cpu_count() or 1))
    # up to one worker per chunk, each with a workspace and a row buffer
    # allocated on this thread, so that no worker's allocator arena holds
    # memory of its own
    jobs = [(_crossing_counter(g, step), np.empty((step, g.n), dtype=np.int64))
            for _ in cpus[:max(1, -(-total // step))]]
    if len(jobs) < 2:
        work(*jobs[0])
        return out
    from concurrent.futures import ThreadPoolExecutor

    # the pool names its threads "<prefix>_<i>"; ``out`` lives as long as the call
    prefix = f"crossvar-rows-{id(out)}"
    pool = ThreadPoolExecutor(len(jobs), thread_name_prefix=prefix)
    try:
        # every worker starts before any takes a turn, so that none ends its
        # loop and is handed a second job
        with turn:
            ends = pool.map(pinned, cpus, jobs)
        # raises here what a worker raised
        list(ends)
    finally:
        # an interrupt of this thread, or a thread that cannot start, stops
        # every worker at its next turn before the pool joins them
        stopped.append(None)
        pool.shutdown()
        # an interrupt inside a thread's start leaves a started thread that
        # the pool does not hold, so its shutdown does not join it; joining a
        # thread that is still starting raises RuntimeError, so the join is
        # tried again until that thread has started
        for thread in live_threads():
            while thread.name.startswith(f"{prefix}_"):
                with suppress(RuntimeError):
                    thread.join()
                    break
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
    perm_iter = permutations(range(g.n))

    def fill(rows):
        rows[...] = list(islice(perm_iter, len(rows)))

    values, times = np.unique(_count_rows(g, total, fill), return_counts=True)
    counts = dict(zip(values.tolist(), times.tolist()))
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

    Deterministic for a fixed seed.  Each row is shuffled from the one
    generator as int64, which numpy's shuffle swaps fastest and which draws
    the same permutation for any item size, and counted by the module's
    merge count, which reads the rows' low int32 words, in O(m log² m)
    time.  The rows are drawn and counted in chunks by ``_count_rows``,
    whose docstring describes the threaded driver; neither the chunk size
    nor the CPU count changes the draws or the result, and memory is near
    ``_SWEEP_BYTES`` per worker plus the samples.  More than
    :data:`MAX_SAMPLES` samples are refused before anything is allocated.
    """
    samples = integer(samples, "samples")
    if samples < 2:
        raise ValidationError("need at least 2 samples for a variance estimate")
    if samples > MAX_SAMPLES:
        raise ValidationError(
            f"samples must be at most {MAX_SAMPLES} (2^27), got {samples}"
        )
    seed = integer(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    base = np.arange(g.n, dtype=np.int64)

    def draw(rows):
        rows[...] = base
        rng.permuted(rows, axis=1, out=rows)

    values = _count_rows(g, samples, draw)
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
