"""Spans recorded around calls into the library, from outside it.

A ``Tracer`` swaps a wrapper in for each named function or method for the
duration of a ``with tracer.patched(...)`` block and restores the original
afterwards.  Each call becomes one span: name, start and end in
``perf_counter_ns``, the index of the enclosing span (or -1) and the id of
the repetition it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable

Observe = Callable[[Any], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request = 0
        self.unpatched: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Observe | None = None) -> Callable:
        """``fn`` recording one span per call; ``observe`` adds counters
        taken from the return value."""

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else -1,
                "request": self.request,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                span["counters"] = observe(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace ``(owner, attribute, span name[, observe])`` targets.

        A target whose attribute no longer exists is listed in
        ``unpatched`` instead of failing the run.
        """
        saved = []
        try:
            for owner, attr, name, *observe in targets:
                if not hasattr(owner, attr):
                    self.unpatched.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                original = owner.__dict__.get(attr, getattr(owner, attr))
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), *observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

