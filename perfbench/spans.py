"""Span recorder for the benchmark's traced run.

Spans are recorded from outside the program: `Recorder.wrap` replaces a
function at the name a calling module binds it to, so the program's own
files stay untouched. Each span keeps its thread; a span's parent is the
innermost span still open on the same thread, so work a thread pool
does concurrently is never subtracted from the span that submitted it.

A recorder built with `timed=False` keeps the counters but reads no
clock and stores no span; the untimed runs use it for their output
digest, so both kinds of run count the same work the same way.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Recorder.spans, same thread only
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context object handed to the code inside a span."""

    __slots__ = ("_rec", "_name", "_index", "_counts")

    def __init__(self, rec: "Recorder", name: str):
        self._rec = rec
        self._name = name
        self._index = None
        self._counts = {}

    def add(self, **counts) -> None:
        """Add counts to this span and to the recorder's per-name totals."""
        for key, value in counts.items():
            self._counts[key] = self._counts.get(key, 0) + value
        self._rec._count(self._name, counts)

    def __enter__(self) -> "_OpenSpan":
        if self._rec.timed:
            self._index = self._rec._open(self._name, self._counts)
        return self

    def __exit__(self, *exc) -> None:
        if self._index is not None:
            self._rec._close(self._index)
        self._rec._count(self._name, {"calls": 1})


class Recorder:
    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans: list[Span] = []
        self.totals: dict[str, dict[str, float]] = defaultdict(dict)
        self._lock = threading.Lock()
        self._stack = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def _open(self, name: str, counts: dict) -> int:
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        span = Span(name, threading.get_ident(), 0.0,
                    parent=stack[-1] if stack else None, counts=counts)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.items.pop()
        self.spans[index].end = end

    def _count(self, name: str, counts: dict) -> None:
        with self._lock:
            totals = self.totals[name]
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Replace module.attr with a wrapper that records a span.

        counter(result, args, kwargs) returns a dict of counts, read from
        the wrapped function's return value or arguments.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            sp = self.span(name)
            with sp:
                result = original(*args, **kwargs)
            # Counted after the span closes, so reading the counts costs
            # the span nothing.
            if counter is not None:
                sp.add(**counter(result, args, kwargs))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its same-thread children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child_time[i] for i, span in enumerate(spans)]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        out[span.name] += t
    return dict(out)


def time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration
    return dict(out)
