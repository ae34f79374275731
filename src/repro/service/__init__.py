"""repro.service — concurrent reachability serving on the chain index.

The missing layer between the fast batch engine and "heavy traffic":

* :class:`IndexManager` — the live index behind an atomic epoch-tagged
  snapshot; lock-free reads, incremental writes into a
  :class:`~repro.core.maintenance.DynamicChainIndex` shadow, background
  rebuild-and-swap with zero query downtime;
* :class:`MicroBatcher` — coalesces concurrently submitted queries
  into single :meth:`ChainIndex.is_reachable_many` kernel calls
  (flushed on the next loop turn, bounded queue, ``max_batch`` /
  ``max_pending`` policy, explicit ``overloaded`` backpressure);
* :class:`ReachabilityService` — a stdlib-only asyncio TCP server
  speaking newline-delimited JSON (``query`` / ``query_batch`` /
  ``add_edge`` / ``stats`` / ``metrics`` / ``reload``) with
  per-request timeouts and graceful drain, plus
  :class:`ServiceClient`, its blocking client;
* :class:`WorkerPool` — multi-process serving: each epoch's packed
  index published once into a shared-memory segment
  (:mod:`repro.service.shm`), N worker processes attached read-only
  over memoryviews (zero copies), connections spread via SO_REUSEPORT,
  writes proxied to the single parent writer, stats/metrics aggregated
  pool-wide, crash respawn and zero-downtime epoch re-attach;
* serving-path telemetry — every query carries a
  :class:`~repro.service.tracing.Trace` (``"trace": true`` echoes the
  stage breakdown), per-class latency histograms and a
  :class:`~repro.service.tracing.SlowTraceRing` feed the ``stats``
  verb, and the ``metrics`` verb / ``--metrics-port`` HTTP listener
  expose Prometheus text (:mod:`repro.obs.promtext`).

Wire protocol, batching policy, swap semantics and failure modes are
documented in ``docs/SERVICE.md``; the ``service/*`` metric family is
in ``docs/OBSERVABILITY.md``.  From the shell: ``repro-graph serve``
and ``repro-graph query --remote HOST:PORT``.
"""

from repro.service.batching import BATCH_SIZE_BUCKETS, MicroBatcher
from repro.service.capture import RequestCapture, load_journal
from repro.service.client import ServiceClient
from repro.service.errors import (
    OverloadedError,
    RemoteError,
    ServiceError,
    WritesUnsupportedError,
)
from repro.service.manager import IndexManager, Snapshot
from repro.service.pool import WorkerPool
from repro.service.server import (
    ReachabilityService,
    ThreadedService,
    start_in_thread,
)
from repro.service.shm import AttachedIndex, attach_index, dump_index
from repro.service.tracing import SlowTraceRing, Trace

__all__ = [
    "IndexManager",
    "Snapshot",
    "WorkerPool",
    "dump_index",
    "attach_index",
    "AttachedIndex",
    "MicroBatcher",
    "BATCH_SIZE_BUCKETS",
    "RequestCapture",
    "load_journal",
    "ReachabilityService",
    "Trace",
    "SlowTraceRing",
    "ThreadedService",
    "start_in_thread",
    "ServiceClient",
    "ServiceError",
    "OverloadedError",
    "RemoteError",
    "WritesUnsupportedError",
]
