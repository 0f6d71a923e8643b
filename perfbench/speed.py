"""Scaling measured times to a reference machine speed.

On a shared machine the speed of a CPU drifts by ±30% over seconds to
minutes, so raw times of the same work differ that much from run to run,
however long each run is.  A fixed kernel, timed on the same thread every
``INTERVAL_S`` while an operation runs, slows down with it: interleaved
this finely, a pure-Python loop and the library's pure-Python census code
correlate at 0.99 on the development machine (a 2-vCPU Xeon VM).
``scaled`` divides a time by the kernel's median time during it and
multiplies by the kernel's ``REFERENCE_S``, about its median time during
the workloads on that machine, so results read roughly as seconds there.
The kernel's own time is excluded from the operation's.

Two kernels match the two kinds of work the workloads do: ``python`` for
interpreter-bound code and ``memory`` (a 16 MB array copy) for numpy code
that streams arrays larger than the caches, such as the Monte Carlo
sampler, whose times the Python kernel tracks poorly.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = {"python": 0.0013, "memory": 0.0012}


def python_kernel() -> None:
    s = 0
    for i in range(20_000):
        s += i * i % 7


class MemoryKernel:
    """Copies one 8 MB int64 array into another."""

    def __init__(self) -> None:
        import numpy as np

        self.src = np.arange(1_000_000, dtype=np.int64)
        self.dst = np.empty_like(self.src)
        self.copyto = np.copyto

    def __call__(self) -> None:
        self.copyto(self.dst, self.src)


def make_kernel(kind: str):
    return python_kernel if kind == "python" else MemoryKernel()


def time_kernel() -> float:
    start = time.perf_counter_ns()
    python_kernel()
    return (time.perf_counter_ns() - start) / 1e9


def scaled(seconds: float, kernel_samples: list[float], kind: str = "python") -> float:
    """``seconds`` at the reference speed, given kernel times taken alongside."""
    return seconds * REFERENCE_S[kind] / statistics.median(kernel_samples)


class SpeedProbe:
    """Times a kernel on a SIGALRM timer while the block runs.

    Use from the main thread only.  ``samples`` holds (start_ns, seconds).
    """

    def __init__(self, kind: str = "python") -> None:
        self.kind = kind
        self.kernel = make_kernel(kind)
        self.samples: list[tuple[int, float]] = []
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer tick while the kernel runs
            return
        self._busy = True
        start = time.perf_counter_ns()
        self.kernel()
        self.samples.append((start, (time.perf_counter_ns() - start) / 1e9))
        self._busy = False

    def within(self, start_ns: int, end_ns: int) -> float:
        """Seconds of kernel time that started inside [start_ns, end_ns)."""
        return sum(d for s, d in self.samples if start_ns <= s < end_ns)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
