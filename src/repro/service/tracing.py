"""Per-request tracing: where did one slow request spend its time?

Aggregate histograms say the p99 moved; a trace says *why*.  Every
query request gets a :class:`Trace` minted by the server: a process-
unique id plus timestamped stage marks as the request crosses the
serving path —

``accept`` (request parsed; queue depth and epoch at arrival) →
``enqueue`` (handed to the micro-batcher) → ``flush`` (its batch was
picked up; batch size and queue depth at flush) → ``kernel`` (answered
by the coalesced ``is_reachable_many`` call; epoch it answered at) →
``respond``.

The marks are monotonic-clock offsets from the trace's start, so the
rendered breakdown reports per-stage **durations** (the gap between
consecutive marks) whose sum is bounded by the request's total
latency.  A request carrying ``"trace": true`` gets its breakdown
echoed in the response; independently, the server keeps every trace
long enough to feed the per-class latency histograms, the slow-query
log, and a bounded ring of the slowest recent traces (the ``stats``
verb's ``slow_traces``).

Tracing is always on for query requests: one small object and a few
``perf_counter`` calls per request, orders of magnitude below the
socket round-trip it measures.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any

__all__ = ["Trace", "SlowTraceRing"]

_ids = itertools.count(1)


class Trace:
    """One request's stage marks, cheap enough to mint per request."""

    __slots__ = ("trace_id", "op", "started", "marks", "klass", "epoch",
                 "total_seconds")

    def __init__(self, op: str) -> None:
        self.trace_id = f"q-{next(_ids):x}"
        self.op = op
        self.started = time.perf_counter()
        #: list of ``(stage, offset_seconds, fields)`` in mark order
        self.marks: list[tuple[str, float, dict]] = []
        #: answer class, set by the server once the query is settled
        self.klass: str | None = None
        self.epoch: int | None = None
        self.total_seconds = 0.0

    def mark(self, stage: str, **fields: Any) -> None:
        """Record reaching ``stage`` now, with optional context."""
        self.marks.append(
            (stage, time.perf_counter() - self.started, fields))

    def finish(self) -> float:
        """Close the trace; returns (and stores) the total seconds."""
        self.total_seconds = time.perf_counter() - self.started
        return self.total_seconds

    def to_dict(self) -> dict:
        """The wire/stats shape: per-stage durations, ms, in order.

        Each stage's ``ms`` is the time since the previous mark (the
        first mark counts from the trace's start), so the stage sum
        never exceeds ``total_ms``.
        """
        stages = []
        previous = 0.0
        for stage, offset, fields in self.marks:
            entry = {"stage": stage,
                     "ms": 1e3 * max(0.0, offset - previous)}
            entry.update(fields)
            stages.append(entry)
            previous = offset
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "class": self.klass,
            "epoch": self.epoch,
            "total_ms": 1e3 * self.total_seconds,
            "stages": stages,
        }


class SlowTraceRing:
    """The N slowest recent traces, bounded memory, thread-safe.

    A min-heap keyed by total latency: a finished trace enters if the
    ring has room or it is slower than the ring's current fastest
    member (which it evicts).  ``snapshot`` lists slowest-first —
    what the ``stats`` verb serves.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()

    def offer(self, trace: Trace) -> bool:
        """Consider a finished trace; True when it was retained."""
        entry = (trace.total_seconds, next(self._seq), trace.to_dict())
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
                return True
            if entry[0] <= self._heap[0][0]:
                return False
            heapq.heapreplace(self._heap, entry)
            return True

    def snapshot(self) -> list[dict]:
        """The retained traces, slowest first."""
        with self._lock:
            ordered = sorted(self._heap,
                             key=lambda entry: entry[0], reverse=True)
        return [entry[2] for entry in ordered]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
