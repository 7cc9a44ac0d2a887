"""In-memory spans, counters, and self-time analysis for the traced run.

A :class:`Recorder` keeps every span (name, thread, start, end, parent) in
a list and every counter in a dict; nothing is written until the trial
ends (:meth:`Recorder.write`).
The parent of a span is the innermost span open on the *same thread* when
it started, so the spans of one thread form a forest and a span's self time
is its duration minus the durations of its direct children.  Spans on other
threads (pool or worker threads) are never subtracted; they are reported as
busy time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable


@dataclass
class Span:
    """One timed call: ``parent`` is an index into the recorder's span list."""

    name: str
    thread: int
    start: float
    end: float = float("nan")
    parent: int | None = None
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span and counter store."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            thread=threading.get_ident(),
            start=0.0,
            parent=stack[-1] if stack else None,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = self.clock()
        return index

    def close(self, index: int, failed: bool = False) -> None:
        end = self.clock()
        span = self.spans[index]
        span.end = end
        span.failed = failed
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def inside(self, name: str) -> bool:
        """Whether the innermost span open on this thread is called ``name``."""
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]].name == name

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; ``parent`` is a line index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Callable:
        """``fn`` timed under a span ``name``; ``counts`` maps a call to counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, failed=True)
                raise
            self.close(index)
            if counts is not None:
                for counter, amount in counts(args, kwargs, result).items():
                    self.count(counter, amount)
            return result

        return wrapper


def wrap_attr(
    owner: Any,
    attr: str,
    recorder: Recorder,
    name: str,
    counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
) -> None:
    """Replace ``owner.attr`` by its wrapped self (an instance or a module)."""
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), counts))


class patched:
    """Context manager that sets attributes and restores them on exit."""

    def __init__(self, *replacements: tuple[Any, str, Any]):
        self.replacements = replacements
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "patched":
        for owner, attr, value in self.replacements:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its same-thread children."""
    selves = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            selves[span.parent] -= span.duration
    return selves


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total, reach = 0.0, start
    for lo, hi in clipped:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def busy(spans: list[Span], name: str) -> float:
    """Summed duration of every span called ``name``, on any thread."""
    return sum(span.duration for span in spans if span.name == name)


@dataclass
class DriverBreakdown:
    """Self time per layer on the thread that drives rounds."""

    window_s: float
    layers: dict[str, float]
    unattributed_s: float

    @property
    def residual(self) -> float:
        """``|sum(layers) + unattributed - window| / window`` (0 when exact)."""
        total = sum(self.layers.values()) + self.unattributed_s
        return abs(total - self.window_s) / self.window_s

    def share(self, layer: str) -> float:
        return self.layers.get(layer, 0.0) / self.window_s


def driver_breakdown(
    spans: list[Span],
    thread: int,
    window: tuple[float, float],
    cross_thread: dict[str, str] | None = None,
) -> DriverBreakdown:
    """Attribute the driver thread's wall time in ``window`` to layers.

    ``cross_thread`` maps a driver-thread layer to a layer whose spans run on
    other threads *while the driver blocks inside it* (the vectorized
    executor waiting for its cohort threads).  The covered part of the
    driver layer's self time is moved to the other layer, so the driver's
    layers still partition its wall time.
    """
    start, end = window
    selves = self_times(spans)
    layers: dict[str, float] = defaultdict(float)
    roots = 0.0
    for index, span in enumerate(spans):
        if span.thread != thread:
            continue
        layers[span.name] += selves[index]
        if span.parent is None:
            roots += span.duration
    for layer, other in (cross_thread or {}).items():
        other_spans = [
            (span.start, span.end)
            for span in spans
            if span.name == other and span.thread != thread
        ]
        if not other_spans:
            continue
        children_of: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for child in spans:
            if child.parent is not None:
                children_of[child.parent].append((child.start, child.end))
        moved = 0.0
        for index, span in enumerate(spans):
            if span.thread != thread or span.name != layer:
                continue
            # Same-thread children are already outside this span's self
            # time: |other minus children| = |other or children| - |children|.
            children = children_of[index]
            moved += covered(other_spans + children, span.start, span.end) - sum(
                hi - lo for lo, hi in children
            )
        layers[layer] -= moved
        layers[other] += moved
    return DriverBreakdown(
        window_s=end - start,
        layers=dict(layers),
        unattributed_s=(end - start) - roots,
    )
