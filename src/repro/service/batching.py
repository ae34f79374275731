"""Micro-batching: coalesce concurrent queries into one kernel call.

The static index answers a 256-query batch barely slower than a single
query once the per-call overhead (attribute lookups, kernel dispatch,
OBS bookkeeping) is paid, so concurrent clients are served by queueing
single queries as they arrive and handing each queued run to
:meth:`ChainIndex.is_reachable_many` at once.  The flush task runs on
the next event-loop turn after a submission and never sleeps for
company: queries that arrive while one kernel call runs form the next
batch, so batches grow with load and a lone query waits for nothing.

Policy knobs:

* ``max_batch`` — largest coalesced batch handed to the kernel;
* ``max_pending`` — bound on queued queries.  At the bound,
  :meth:`submit` fails fast with :class:`OverloadedError` — explicit
  backpressure instead of unbounded buffering.

Each flush is one :meth:`IndexManager.query_many` call, which reads
one snapshot: every answer in a batch is exact for the one epoch the
call returns, and every result a client sees is tagged with it.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from repro.obs import OBS, Histogram
from repro.service.errors import OverloadedError, ServiceError
from repro.service.manager import IndexManager

__all__ = ["MicroBatcher", "BATCH_SIZE_BUCKETS"]

#: histogram bucket upper bounds for the batch-size distribution
#: (``service/batch_size/{bucket}``); sizes above the last bound count
#: into ``inf``.
BATCH_SIZE_BUCKETS = (1, 4, 16, 64, 256)


def _bucket_name(size: int) -> str:
    for bound in BATCH_SIZE_BUCKETS:
        if size <= bound:
            return f"le-{bound}"
    return "inf"


class MicroBatcher:
    """Coalesces concurrently submitted queries (one per event loop)."""

    def __init__(self, manager: IndexManager, *,
                 max_batch: int = 128, max_pending: int = 1024) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._manager = manager
        self.max_batch = max_batch
        self.max_pending = max_pending
        # (pair, Future, Trace | None, enqueued_at) entries
        self._pending: deque = deque()
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        # always-on stats for the `stats` verb (OBS mirrors them when
        # the registry is enabled)
        self.batches = 0
        self.coalesced = 0
        self.largest_batch = 0
        self.overloaded = 0
        self.size_buckets: dict[str, int] = {}
        #: enqueue → flush wait per queued query (seconds)
        self.queue_wait = Histogram()
        #: duration of one coalesced kernel call (seconds)
        self.kernel_batch = Histogram()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the flush loop on the running event loop."""
        if self._task is not None:
            return
        self._wakeup = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-service-flush")

    async def close(self, drain: bool = True) -> None:
        """Stop the flush loop; with ``drain`` resolve queued queries."""
        self._closed = True
        if self._task is not None:
            self._wakeup.set()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if drain:
            self._flush_all()
        else:
            while self._pending:
                _, future, _, _ = self._pending.popleft()
                if not future.done():
                    future.set_exception(
                        ServiceError("batcher closed before flush"))

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, source, target,
                     trace=None) -> tuple[int, bool]:
        """Queue one query; resolves to ``(epoch, reachable)``.

        Raises :class:`OverloadedError` immediately when the queue is
        at ``max_pending`` — the caller (the server) turns that into
        the wire-level ``overloaded`` error.  A
        :class:`~repro.service.tracing.Trace` passed in rides along
        and collects ``enqueue`` / ``flush`` / ``kernel`` marks as the
        query crosses the batcher.
        """
        if self._closed:
            raise ServiceError("service is shutting down")
        if len(self._pending) >= self.max_pending:
            self.overloaded += 1
            if OBS.enabled:
                OBS.count("service/overloaded")
            raise OverloadedError(len(self._pending), self.max_pending)
        if trace is not None:
            trace.mark("enqueue", queue_depth=len(self._pending))
        future = asyncio.get_running_loop().create_future()
        self._pending.append(((source, target), future, trace,
                              time.perf_counter()))
        if self._wakeup is not None:
            self._wakeup.set()
        return await future

    def submit_many(self, pairs: list,
                    trace=None) -> tuple[int, list[bool]]:
        """Answer an already-batched request inline (no queue).

        ``query_batch`` arrives pre-coalesced, so it bypasses the queue
        and its backpressure bound (the wire framing bounds its size)
        but is still one kernel call and counts as one batch.  One
        trace covers the whole batch.
        """
        if self._closed:
            raise ServiceError("service is shutting down")
        self._note_batch(len(pairs))
        if trace is not None:
            trace.mark("flush", batch=len(pairs), inline=True)
        epoch, answers = self._timed_query_many(pairs)
        if trace is not None:
            trace.epoch = epoch
            trace.mark("kernel", epoch=epoch, batch=len(pairs))
        return epoch, answers

    @property
    def queue_depth(self) -> int:
        """Queries currently queued for the next flush."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # the flush loop
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        wakeup = self._wakeup
        while True:
            await wakeup.wait()
            wakeup.clear()
            if self._closed:
                return
            while self._pending:
                try:
                    self._flush_once()
                except Exception:  # noqa: BLE001 - a poisoned batch must
                    # never kill the flush loop: every later query would
                    # hang until its request timeout
                    if OBS.enabled:
                        OBS.count("service/flush_errors")
                await asyncio.sleep(0)       # yield to submitters
                if self._closed:
                    return

    def _flush_all(self) -> None:
        while self._pending:
            self._flush_once()

    def _flush_once(self) -> None:
        pending = self._pending
        batch = [pending.popleft()
                 for _ in range(min(len(pending), self.max_batch))]
        if OBS.enabled:
            OBS.gauge("service/queue_depth", len(pending))
        entries = [entry for entry in batch if not entry[1].done()]
        if not entries:                      # all timed out / cancelled
            return
        self._note_batch(len(entries))
        now = time.perf_counter()
        obs_enabled = OBS.enabled
        for _, _, trace, enqueued_at in entries:
            waited = max(0.0, now - enqueued_at)
            self.queue_wait.observe(waited)
            if obs_enabled:
                OBS.observe("service/queue_wait", waited)
            if trace is not None:
                trace.mark("flush", batch=len(entries),
                           queue_depth=len(pending))
        pairs = [pair for pair, _, _, _ in entries]
        try:
            epoch, answers = self._timed_query_many(pairs)
        except Exception:  # noqa: BLE001 - e.g. unknown node (GraphError)
            # or an unhashable pair from wire JSON (TypeError); one bad
            # pair must fail only its own query, not the whole batch
            self._resolve_individually(entries)
            return
        for (_, future, trace, _), answer in zip(entries, answers):
            if trace is not None:
                trace.epoch = epoch
                trace.mark("kernel", epoch=epoch, batch=len(entries))
            if not future.done():
                future.set_result((epoch, answer))

    def _resolve_individually(self, entries: list) -> None:
        """Per-pair fallback so one bad pair fails only its query."""
        for pair, future, trace, _ in entries:
            if future.done():
                continue
            try:
                epoch, answers = self._manager.query_many([pair])
            except Exception as exc:  # noqa: BLE001 - routed to the future
                future.set_exception(exc)
            else:
                if trace is not None:
                    trace.epoch = epoch
                    trace.mark("kernel", epoch=epoch, batch=1)
                future.set_result((epoch, answers[0]))

    def _timed_query_many(self, pairs: list) -> tuple[int, list[bool]]:
        """One kernel call, timed into the ``kernel_batch`` histogram."""
        kernel_start = time.perf_counter()
        epoch, answers = self._manager.query_many(pairs)
        elapsed = time.perf_counter() - kernel_start
        self.kernel_batch.observe(elapsed)
        if OBS.enabled:
            OBS.observe("service/kernel_batch", elapsed)
        return epoch, answers

    def _note_batch(self, size: int) -> None:
        self.batches += 1
        self.coalesced += size
        if size > self.largest_batch:
            self.largest_batch = size
        bucket = _bucket_name(size)
        self.size_buckets[bucket] = self.size_buckets.get(bucket, 0) + 1
        if OBS.enabled:
            OBS.count("service/batches")
            OBS.count(f"service/batch_size/{bucket}")

    def stats(self) -> dict:
        """Counters for the ``stats`` verb and the bench report."""
        return {
            "batches": self.batches,
            "coalesced_queries": self.coalesced,
            "mean_batch_size": (self.coalesced / self.batches
                                if self.batches else 0.0),
            "largest_batch": self.largest_batch,
            "queue_depth": len(self._pending),
            "overloaded": self.overloaded,
            "size_buckets": dict(self.size_buckets),
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
            "queue_wait": self.queue_wait.summary(),
            "kernel_batch": self.kernel_batch.summary(),
        }
