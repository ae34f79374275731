"""Multi-process serving: one writer, N zero-copy query workers.

The single-process service is GIL-bound: however fast the batch
kernel, one interpreter caps the concurrent qps.  :class:`WorkerPool`
removes that cap without duplicating the index:

* the **parent** stays the sole writer — it owns the real
  :class:`~repro.service.manager.IndexManager` (shadow, writes,
  rebuild-and-swap) and publishes each epoch's packed
  :class:`~repro.core.index.ChainIndex` into a named shared-memory
  segment (:mod:`repro.service.shm`), one physical copy per epoch;
* each **worker** process attaches the segment read-only and runs a
  full :class:`~repro.service.server.ReachabilityService` (batcher,
  tracing) over memoryview-backed labels — attach cost is a
  header parse plus a CRC pass, not an index copy;
* the kernel spreads connections across workers via **SO_REUSEPORT**
  (every worker listens on the same port), falling back to one shared
  inherited listening socket where the option is unavailable.

Swaps stay zero-downtime.  The parent rebuilds off-lock exactly as in
single-process mode, dumps epoch+1 under a *new* segment name, and
broadcasts ``attach`` over each worker's control pipe.  A worker
re-attaches on its event loop (so a kernel call can never observe a
half-swapped backend), acks ``reattached``, and keeps answering from
the old mapping until the instant it publishes the new one.  The old
segment is unlinked once every worker told to move has acked or died
— a name is only ever attached while it is current, so unlinking a
retired name while a straggler still *maps* it is safe (POSIX keeps
the mapping alive until the last detach).

The control pipe is also the pool's data plane for everything that is
not a query: workers proxy ``add_edge`` / ``add_node`` /
``remove_edge`` / ``remove_node`` / ``reload`` to the parent (RPC
with id-matched responses), and ``stats`` /
``metrics`` return pool-wide aggregates — the parent polls every
worker for an export (counters, histogram states, registry state) and
merges them exactly (histograms by bucket count, counters by sum), so
a scrape through any worker sees one coherent view.

Worker crashes are contained: the supervisor thread watches process
sentinels, respawns dead workers attached to the current segment, and
cleans their pending acks so a SIGKILL never wedges segment
reclamation.  ``service/workers`` (gauge) and ``service/reattach``
(counter) surface the pool's shape in the catalogue.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from multiprocessing import connection as mp_connection
from multiprocessing import get_context

from repro.core.index import ChainIndex
from repro.graph.errors import (
    GraphError,
    GraphFormatError,
    NodeNotFoundError,
    NotADAGError,
)
from repro.obs import OBS, Histogram, MetricsRegistry, open_log, promtext
from repro.service import shm as shm_mod
from repro.service.errors import ServiceError, WritesUnsupportedError
from repro.service.manager import IndexManager, Snapshot
from repro.service.server import ReachabilityService

__all__ = ["WorkerPool"]

#: slowest traces kept after merging the per-worker rings
_MERGED_TRACES = 16


# ----------------------------------------------------------------------
# RPC error transport (parent exception -> worker re-raise)
# ----------------------------------------------------------------------
def _error_payload(exc: BaseException) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NodeNotFoundError):
        payload["node"] = exc.node
        payload["role"] = exc.role
    return payload


def _rebuild_error(payload: dict) -> Exception:
    """Map a wire error back onto the exception the server dispatch
    table classifies (unknown_node / cycle / unsupported / ...)."""
    kind = payload.get("type")
    message = payload.get("message", "")
    if kind == "NodeNotFoundError":
        return NodeNotFoundError(payload.get("node"), payload.get("role"))
    if kind == "NotADAGError":
        return NotADAGError(message)
    if kind == "WritesUnsupportedError":
        return WritesUnsupportedError(message)
    if kind in ("ValueError", "TypeError", "KeyError"):
        return ValueError(message)
    if kind in ("GraphFormatError", "IndexFormatError"):
        return GraphFormatError(message)
    if kind == "GraphError":
        return GraphError(message)
    return ServiceError(f"{kind}: {message}")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _AttachedManager:
    """The worker's manager facade: borrowed snapshot + parent RPC.

    Satisfies the slice of the :class:`IndexManager` surface the
    service uses — lock-free ``query_many`` against the attached
    (memoryview-backed) ChainIndex, writes and ``swap`` proxied to the
    parent over the control pipe, where the single real shadow lives.
    """

    def __init__(self, control: "_WorkerControl", engine: str) -> None:
        self._control = control
        self._engine = engine
        self._lock = threading.Lock()
        self._snapshot: Snapshot | None = None
        self._attachment: shm_mod.AttachedIndex | None = None
        #: retired attachments whose buffers were still exported at
        #: close time; retried at the next retire
        self._deferred: list[shm_mod.AttachedIndex] = []
        self.pending_writes = 0
        self.swap_count = 0
        self.writable = True
        self.event_log = None
        self.segment: str | None = None

    # -- snapshot plumbing --------------------------------------------
    def publish(self, attachment: shm_mod.AttachedIndex) -> None:
        """Swap the served snapshot to a freshly attached segment."""
        index = attachment.index
        index.is_reachable_many([])          # pre-build the batch kernel
        snapshot = Snapshot(attachment.epoch, index, None, kind="static")
        with self._lock:
            old = self._attachment
            self._attachment = attachment
            self._snapshot = snapshot
            self.segment = attachment.name
        if old is not None:
            self._retire(old)

    def _retire(self, attachment: shm_mod.AttachedIndex) -> None:
        self._deferred.append(attachment)
        still_exported = []
        for deferred in self._deferred:
            try:
                deferred.close()
            except BufferError:
                # a kernel call still holds a view; retry at the
                # next swap (and the OS reclaims at exit)
                still_exported.append(deferred)
        self._deferred = still_exported

    # -- reads (lock-free, like the static IndexManager path) ---------
    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    def query_many(self, pairs) -> tuple[int, list[bool]]:
        snapshot = self._snapshot
        return snapshot.epoch, snapshot.backend.is_reachable_many(pairs)

    def is_reachable(self, source, target) -> bool:
        return self.query_many([(source, target)])[1][0]

    # -- writes / swap: proxied to the parent -------------------------
    def add_edge(self, tail, head, *, create: bool = False) -> bool:
        result = self._control.rpc("add_edge", source=tail, target=head,
                                   create=create)
        self.pending_writes = result["pending_writes"]
        return result["added"]

    def add_node(self, node) -> bool:
        result = self._control.rpc("add_node", node=node)
        self.pending_writes = result["pending_writes"]
        return result["added"]

    def remove_edge(self, source, target) -> bool:
        result = self._control.rpc("remove_edge", source=source,
                                   target=target)
        self.pending_writes = result["pending_writes"]
        return result["removed"]

    def remove_node(self, node) -> bool:
        result = self._control.rpc("remove_node", node=node)
        self.pending_writes = result["pending_writes"]
        return result["removed"]

    def swap(self, force: bool = False) -> Snapshot:
        result = self._control.rpc("reload", force=force)
        self.swap_count = result["swaps"]
        self.pending_writes = result.get("pending_writes", 0)
        # the worker reattaches asynchronously; report the parent's
        # published epoch, which is what the reload ack means
        return Snapshot(result["epoch"], self._snapshot.backend, None,
                        kind="static")

    def stats(self) -> dict:
        """Local index facts (the pool aggregate replaces this with
        the parent's authoritative section)."""
        snapshot = self._snapshot
        return {
            "epoch": snapshot.epoch if snapshot else None,
            "mode": "attached",
            "kind": "attached",
            "engine": self._engine,
            "segment": self.segment,
            "writable": self.writable,
            "pending_writes": self.pending_writes,
            "swaps": self.swap_count,
        }

    def close(self) -> None:
        with self._lock:
            attachment = self._attachment
            self._attachment = None
            self._snapshot = None
        if attachment is not None:
            self._retire(attachment)


class _WorkerControl:
    """The worker's end of the control pipe.

    One reader thread multiplexes everything inbound: parent commands
    (``attach`` / ``export`` / ``drain``) are handled directly or
    scheduled onto the event loop, RPC responses resolve id-keyed
    waiters.  Sends share one lock (Connection is not thread-safe)."""

    def __init__(self, conn, worker_id: int,
                 rpc_timeout: float = 30.0) -> None:
        self.conn = conn
        self.worker_id = worker_id
        self.rpc_timeout = rpc_timeout
        self.manager: _AttachedManager | None = None
        self.service: ReachabilityService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.stop_event: asyncio.Event | None = None
        self.reattaches = 0
        self._send_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: dict[int, list] = {}
        self._pending_lock = threading.Lock()

    def send(self, kind: str, payload: dict) -> None:
        try:
            with self._send_lock:
                self.conn.send((kind, payload))
        except (BrokenPipeError, OSError):
            pass                             # parent gone; drain follows

    def rpc(self, op: str, **kwargs):
        """Ask the parent to run ``op``; blocks the calling thread
        (the server invokes this via ``asyncio.to_thread``)."""
        request_id = next(self._ids)
        waiter = [threading.Event(), None]
        with self._pending_lock:
            self._pending[request_id] = waiter
        self.send("rpc", {"id": request_id, "op": op, "kwargs": kwargs})
        if not waiter[0].wait(self.rpc_timeout):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ServiceError(
                f"pool parent did not answer {op!r} within "
                f"{self.rpc_timeout}s")
        response = waiter[1]
        if response.get("error"):
            raise _rebuild_error(response["error"])
        return response["result"]

    # -- inbound ------------------------------------------------------
    def reader(self) -> None:
        while True:
            try:
                kind, payload = self.conn.recv()
            except (EOFError, OSError):
                break
            if kind == "rpc_response":
                with self._pending_lock:
                    waiter = self._pending.pop(payload["id"], None)
                if waiter is not None:
                    waiter[1] = payload
                    waiter[0].set()
            elif kind == "attach":
                loop = self.loop
                if loop is not None:
                    loop.call_soon_threadsafe(self._reattach,
                                              payload["segment"])
            elif kind == "export":
                try:
                    data = self._collect_export()
                    self.send("export", {"id": payload["id"],
                                         "data": data})
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    self.send("export", {
                        "id": payload["id"], "data": None,
                        "error": f"{type(exc).__name__}: {exc}"})
            elif kind == "drain":
                loop, stop = self.loop, self.stop_event
                if loop is not None and stop is not None:
                    loop.call_soon_threadsafe(stop.set)

    def _reattach(self, segment: str) -> None:
        """Runs on the event loop — a batcher flush can never observe
        a half-swapped backend, because flushes run inline there too."""
        try:
            attachment = shm_mod.attach_index(segment)
        except Exception as exc:  # noqa: BLE001 - parent decides the fix
            self.send("attach_failed", {
                "segment": segment,
                "error": f"{type(exc).__name__}: {exc}"})
            return
        self.manager.publish(attachment)
        self.reattaches += 1
        if OBS.enabled:
            OBS.count("service/reattach")
        self.send("reattached", {"segment": segment,
                                 "epoch": attachment.epoch,
                                 "reattaches": self.reattaches})

    def _collect_export(self) -> dict:
        service = self.service
        batcher = service.batcher
        return {
            "pid": os.getpid(),
            "worker_id": self.worker_id,
            "epoch": self.manager.epoch,
            "reattaches": self.reattaches,
            "stats": service.stats(),
            "hist": {
                "request_latency": service.request_latency.state(),
                "class_latency": {
                    klass: histogram.state()
                    for klass, histogram
                    in list(service.class_latency.items())},
                "queue_wait": batcher.queue_wait.state(),
                "kernel_batch": batcher.kernel_batch.state(),
            },
            "registry": OBS.state(),
        }


def _worker_main(worker_id: int, conn, config: dict) -> None:
    """Entry point of one spawned worker process."""
    # the parent coordinates shutdown over the control pipe; a Ctrl-C
    # delivered to the whole process group must not kill workers
    # mid-drain
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    control = _WorkerControl(conn, worker_id)
    try:
        asyncio.run(_worker_amain(control, config))
    except Exception as exc:  # noqa: BLE001 - surface before dying
        control.send("failed", {"worker_id": worker_id,
                                "error": f"{type(exc).__name__}: {exc}"})
        raise


async def _worker_amain(control: _WorkerControl, config: dict) -> None:
    control.loop = asyncio.get_running_loop()
    control.stop_event = asyncio.Event()
    manager = _AttachedManager(control, config["engine"])
    manager.publish(shm_mod.attach_index(config["segment"]))
    control.manager = manager
    options = dict(config.get("service_options") or {})
    capture = options.get("capture")
    if isinstance(capture, (str, os.PathLike)):
        # one journal per worker: siblings must not clobber each other
        options["capture"] = f"{capture}.worker{control.worker_id}"
    service = ReachabilityService(
        manager,
        host=config["host"], port=config["port"],
        reuse_port=config["reuse_port"],
        sock=config.get("listen_sock"),
        stats_provider=lambda: control.rpc("stats"),
        metrics_provider=lambda: control.rpc("metrics"),
        **options)
    control.service = service
    reader = threading.Thread(target=control.reader, daemon=True,
                              name=f"repro-pool-control-{control.worker_id}")
    reader.start()
    host, port = await service.start()
    control.send("ready", {"worker_id": control.worker_id,
                           "pid": os.getpid(), "host": host,
                           "port": port, "epoch": manager.epoch})
    await control.stop_event.wait()
    await service.shutdown()
    control.send("stopped", {"worker_id": control.worker_id,
                             "pid": os.getpid()})


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    __slots__ = ("worker_id", "process", "conn", "pid", "epoch",
                 "reattaches", "ready", "send_lock", "failure")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.pid: int | None = None
        self.epoch: int | None = None
        self.reattaches = 0
        self.ready = threading.Event()
        self.send_lock = threading.Lock()
        self.failure: str | None = None


class WorkerPool:
    """N query workers over shared-memory snapshots, one writer.

    ``manager`` must be a chain-engine :class:`IndexManager` created
    with ``auto_swap_after=None`` — the pool owns write-triggered
    swaps (``swap_after``), because a manager-internal auto-swap would
    publish a snapshot the workers never hear about.
    """

    def __init__(self, manager: IndexManager, *, workers: int,
                 host: str = "127.0.0.1", port: int = 0,
                 swap_after: int | None = None,
                 metrics_port: int | None = None,
                 service_options: dict | None = None,
                 reuse_port: bool | None = None,
                 respawn: bool = True,
                 max_respawns: int | None = None, log=None,
                 drain_grace: float = 10.0) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least 1 worker")
        backend = manager.snapshot.backend
        if not isinstance(backend, ChainIndex):
            raise ServiceError(
                f"worker pool requires a chain engine backend "
                f"(got {type(backend).__name__}); run with --workers 0 "
                f"for other engines")
        self.manager = manager
        self.num_workers = workers
        self.swap_after = swap_after
        self.metrics_port = metrics_port
        self.respawn = respawn
        #: cap on crash respawns, so a worker dying on arrival (bad
        #: environment, import failure) cannot fork-storm the host
        self.max_respawns = (workers * 5 if max_respawns is None
                             else max_respawns)
        self.drain_grace = drain_grace
        self._service_options = dict(service_options or {})
        self._host = host
        self._port = port
        self._reuse_port = (hasattr(socket, "SO_REUSEPORT")
                            if reuse_port is None else reuse_port)
        self._ctx = get_context("spawn")
        self._handles: dict[int, _WorkerHandle] = {}
        self._lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._current_segment = None
        #: retired segments: name -> {"shm": handle, "waiting": set}
        self._retired: dict[str, dict] = {}
        self._reserve_sock: socket.socket | None = None
        self._listen_sock: socket.socket | None = None
        self._supervisor: threading.Thread | None = None
        self._stopping = False
        self._started = False
        self._respawns = 0
        self._reattach_total = 0
        self._export_ids = itertools.count(1)
        self._exports: dict[int, list] = {}
        self._swap_thread: threading.Thread | None = None
        self._metrics_httpd: ThreadingHTTPServer | None = None
        self.metrics_address: tuple[str, int] | None = None
        self.log = open_log(log) if log is not None else None
        if self.log is not None:
            manager.event_log = self.log
        self._started_at = 0.0

    def _log_event(self, event: str, **fields) -> None:
        if self.log is not None:
            self.log.log(event, **fields)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def epoch(self) -> int:
        return self.manager.epoch

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [handle.pid for handle in self._handles.values()
                    if handle.pid is not None
                    and handle.process.is_alive()]

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for handle in self._handles.values()
                       if handle.process.is_alive())

    def ready(self) -> bool:
        """``/readyz`` condition: started, not stopping, the segment
        published, and every configured worker alive and attached."""
        if not self._started or self._stopping:
            return False
        with self._lock:
            if self._current_segment is None:
                return False
            handles = list(self._handles.values())
        live = [handle for handle in handles
                if handle.process.is_alive() and handle.ready.is_set()]
        return len(live) >= self.num_workers

    def describe(self) -> dict:
        """The ready-file payload: address, epoch, worker pids."""
        return {"host": self._host, "port": self._port,
                "epoch": self.manager.epoch,
                "workers": self.alive_workers(),
                "pids": self.worker_pids()}

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        """Reserve the port, publish epoch 0, spawn + await workers."""
        self._bind()
        index = self.manager.snapshot.backend
        self._current_segment = shm_mod.dump_index(
            index, name=shm_mod.segment_name(), epoch=self.manager.epoch)
        for worker_id in range(self.num_workers):
            self._spawn(worker_id)
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True,
            name="repro-pool-supervisor")
        self._supervisor.start()
        deadline = time.monotonic() + timeout
        for handle in list(self._handles.values()):
            remaining = max(0.0, deadline - time.monotonic())
            if not handle.ready.wait(remaining):
                failure = handle.failure or "did not become ready"
                self.stop(timeout=5.0)
                raise ServiceError(
                    f"worker {handle.worker_id} failed to start: "
                    f"{failure}")
        if self.metrics_port is not None:
            self._start_metrics_listener()
        self._started = True
        self._started_at = time.monotonic()
        if OBS.enabled:
            OBS.gauge("service/workers", self.alive_workers())
        self._log_event("pool_listening", host=self._host,
                        port=self._port, workers=self.alive_workers(),
                        pids=self.worker_pids(),
                        epoch=self.manager.epoch,
                        reuse_port=self._reuse_port)
        return self.address

    def _bind(self) -> None:
        """Reserve the pool's port before any worker exists.

        SO_REUSEPORT path: bind (without listening) a placeholder
        socket so the port number is fixed and held — a TCP socket
        that never listens receives no connections, so it does not
        dilute the kernel's load balancing across the workers.
        Fallback path: create the one listening socket here and hand
        it to every worker (kernel balances ``accept`` instead).
        """
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if self._reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self._host, self._port))
            if not self._reuse_port:
                sock.listen(1024)
        except BaseException:
            sock.close()
            raise
        self._host, self._port = sock.getsockname()[:2]
        if self._reuse_port:
            self._reserve_sock = sock
        else:
            self._listen_sock = sock

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        config = {
            "segment": self._current_segment.name,
            "host": self._host,
            "port": self._port,
            "reuse_port": self._reuse_port,
            "listen_sock": self._listen_sock,
            "engine": self.manager._engine,
            "service_options": self._service_options,
        }
        process = self._ctx.Process(
            target=_worker_main, args=(worker_id, child_conn, config),
            daemon=True, name=f"repro-pool-worker-{worker_id}")
        process.start()
        child_conn.close()
        with self._lock:
            self._handles[worker_id] = _WorkerHandle(
                worker_id, process, parent_conn)

    def stop(self, timeout: float | None = None) -> None:
        """Graceful pool drain: every worker drains its own service,
        then segments and sockets are reclaimed."""
        if self._stopping:
            return
        self._stopping = True
        timeout = self.drain_grace if timeout is None else timeout
        with self._lock:
            handles = list(self._handles.values())
        self._log_event("pool_drain_start", workers=len(handles))
        for handle in handles:
            self._send(handle, "drain", {})
        deadline = time.monotonic() + timeout
        for handle in handles:
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(remaining)
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        if self._metrics_httpd is not None:
            self._metrics_httpd.shutdown()
            self._metrics_httpd.server_close()
        for retired in list(self._retired.values()):
            self._reclaim(retired["shm"])
        self._retired.clear()
        if self._current_segment is not None:
            self._reclaim(self._current_segment)
            self._current_segment = None
        for sock in (self._reserve_sock, self._listen_sock):
            if sock is not None:
                sock.close()
        self._reserve_sock = self._listen_sock = None
        self.manager.close()
        if OBS.enabled:
            OBS.gauge("service/workers", 0)
        self._log_event("pool_drain_finish", respawns=self._respawns,
                        reattaches=self._reattach_total)

    @staticmethod
    def _reclaim(segment) -> None:
        try:
            segment.close()
        except BufferError:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # supervisor: control-pipe multiplexing + crash respawn
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        while not self._stopping:
            with self._lock:
                handles = list(self._handles.values())
            conns = {handle.conn: handle for handle in handles}
            sentinels = {handle.process.sentinel: handle
                         for handle in handles}
            try:
                ready = mp_connection.wait(
                    list(conns) + list(sentinels), timeout=0.2)
            except OSError:
                continue
            dead = []
            for item in ready:
                handle = conns.get(item)
                if handle is not None:
                    self._drain_conn(handle)
                else:
                    dead.append(sentinels[item])
            for handle in dead:
                if not handle.process.is_alive():
                    self._drain_conn(handle)   # last words, if any
                    self._on_death(handle)

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                if not handle.conn.poll():
                    return
                kind, payload = handle.conn.recv()
            except (EOFError, OSError):
                return
            self._on_message(handle, kind, payload)

    def _on_message(self, handle: _WorkerHandle, kind: str,
                    payload: dict) -> None:
        if kind == "ready":
            handle.pid = payload["pid"]
            handle.epoch = payload["epoch"]
            handle.ready.set()
            if OBS.enabled:
                OBS.gauge("service/workers", self.alive_workers())
            self._log_event("worker_ready", worker=handle.worker_id,
                            pid=handle.pid, epoch=handle.epoch)
        elif kind == "reattached":
            handle.epoch = payload["epoch"]
            handle.reattaches = payload["reattaches"]
            self._reattach_total += 1
            if OBS.enabled:
                OBS.count("service/reattach")
            self._release_waiter(handle.worker_id)
            self._log_event("worker_reattached",
                            worker=handle.worker_id,
                            epoch=handle.epoch,
                            segment=payload.get("segment"))
        elif kind == "attach_failed":
            # the worker is stuck on a stale epoch; recycle it — the
            # respawn path attaches the current segment from scratch
            handle.failure = payload.get("error")
            self._log_event("worker_attach_failed",
                            worker=handle.worker_id,
                            error=handle.failure)
            handle.process.terminate()
        elif kind == "export":
            waiter = self._exports.get(payload["id"])
            if waiter is not None:
                waiter[1] = payload
                waiter[0].set()
        elif kind == "rpc":
            threading.Thread(
                target=self._handle_rpc, args=(handle, payload),
                daemon=True,
                name=f"repro-pool-rpc-{payload['id']}").start()
        elif kind == "failed":
            handle.failure = payload.get("error")
            self._log_event("worker_failed", worker=handle.worker_id,
                            error=handle.failure)
        elif kind == "stopped":
            self._log_event("worker_stopped", worker=handle.worker_id,
                            pid=payload.get("pid"))

    def _on_death(self, handle: _WorkerHandle) -> None:
        with self._lock:
            current = self._handles.get(handle.worker_id)
            if current is not handle:
                return                       # already replaced
            del self._handles[handle.worker_id]
        try:
            handle.conn.close()
        except OSError:
            pass
        self._release_waiter(handle.worker_id)
        if OBS.enabled:
            OBS.gauge("service/workers", self.alive_workers())
        self._log_event("worker_exit", worker=handle.worker_id,
                        pid=handle.pid,
                        exitcode=handle.process.exitcode,
                        respawn=self.respawn and not self._stopping)
        if (self.respawn and not self._stopping
                and self._respawns < self.max_respawns):
            self._respawns += 1
            self._spawn(handle.worker_id)

    # ------------------------------------------------------------------
    # parent RPC surface (worker-proxied writes / reload / aggregates)
    # ------------------------------------------------------------------
    def _handle_rpc(self, handle: _WorkerHandle, payload: dict) -> None:
        op = payload.get("op")
        kwargs = payload.get("kwargs") or {}
        try:
            if op == "add_edge":
                added = self.manager.add_edge(
                    kwargs["source"], kwargs["target"],
                    create=kwargs.get("create", True))
                result = {"added": added, "epoch": self.manager.epoch,
                          "pending_writes": self.manager.pending_writes}
                self._maybe_swap_after()
            elif op == "add_node":
                added = self.manager.add_node(kwargs["node"])
                result = {"added": added, "epoch": self.manager.epoch,
                          "pending_writes": self.manager.pending_writes}
                self._maybe_swap_after()
            elif op == "remove_edge":
                removed = self.manager.remove_edge(
                    kwargs["source"], kwargs["target"])
                result = {"removed": removed,
                          "epoch": self.manager.epoch,
                          "pending_writes": self.manager.pending_writes}
                self._maybe_swap_after()
            elif op == "remove_node":
                removed = self.manager.remove_node(kwargs["node"])
                result = {"removed": removed,
                          "epoch": self.manager.epoch,
                          "pending_writes": self.manager.pending_writes}
                self._maybe_swap_after()
            elif op == "reload":
                epoch = self.publish_swap(
                    force=bool(kwargs.get("force", False)))
                result = {"epoch": epoch,
                          "swaps": self.manager.swap_count,
                          "pending_writes": self.manager.pending_writes}
            elif op == "stats":
                result = self.aggregate_stats()
            elif op == "metrics":
                result = self.aggregate_metrics()
            else:
                raise ValueError(f"unknown pool rpc {op!r}")
            response = {"id": payload["id"], "result": result}
        except Exception as exc:  # noqa: BLE001 - ship back to the worker
            response = {"id": payload["id"],
                        "error": _error_payload(exc)}
        self._send(handle, "rpc_response", response)

    def _send(self, handle: _WorkerHandle, kind: str,
              payload: dict) -> None:
        try:
            with handle.send_lock:
                handle.conn.send((kind, payload))
        except (BrokenPipeError, OSError):
            pass                             # death path reclaims it

    def _maybe_swap_after(self) -> None:
        """Single-flight background publish once enough writes landed.

        Mirrors IndexManager's auto-swap, lifted to the pool so the
        new epoch is published to the segment and broadcast — a
        manager-internal swap would leave workers on the old mapping
        forever.
        """
        threshold = self.swap_after
        if threshold is None \
                or self.manager.pending_writes < threshold:
            return
        with self._lock:
            thread = self._swap_thread
            if thread is not None and thread.is_alive():
                return
            thread = threading.Thread(target=self.publish_swap,
                                      daemon=True,
                                      name="repro-pool-swap")
            self._swap_thread = thread
            thread.start()

    # ------------------------------------------------------------------
    # epoch publication
    # ------------------------------------------------------------------
    def publish_swap(self, force: bool = False) -> int:
        """Rebuild-and-swap, then publish + broadcast the new epoch.

        Zero-downtime end to end: the rebuild runs off-lock in the
        parent, workers keep serving the old mapping until each
        re-attaches on its own loop, and the old segment name is
        unlinked only after every instructed worker acked or died.
        Returns the (possibly unchanged) published epoch.
        """
        with self._publish_lock:
            before = self.manager.epoch
            snapshot = self.manager.swap(force)
            if snapshot.epoch == before:
                return before                # nothing pending, no-op
            segment = shm_mod.dump_index(snapshot.backend,
                                         name=shm_mod.segment_name(),
                                         epoch=snapshot.epoch)
            with self._lock:
                old = self._current_segment
                self._current_segment = segment
                waiting = {handle.worker_id
                           for handle in self._handles.values()
                           if handle.ready.is_set()
                           and handle.process.is_alive()}
                if waiting:
                    self._retired[old.name] = {"shm": old,
                                               "waiting": waiting}
                handles = [self._handles[worker_id]
                           for worker_id in waiting]
            if not waiting:
                self._reclaim(old)
            for handle in handles:
                self._send(handle, "attach",
                           {"segment": segment.name,
                            "epoch": snapshot.epoch})
            self._log_event("pool_publish", epoch=snapshot.epoch,
                            segment=segment.name,
                            awaiting=sorted(waiting))
            return snapshot.epoch

    def _release_waiter(self, worker_id: int) -> None:
        """Drop ``worker_id`` from every retired segment's waiting set
        (it reattached or died); unlink segments nobody waits on."""
        with self._lock:
            done = []
            for name, entry in self._retired.items():
                entry["waiting"].discard(worker_id)
                if not entry["waiting"]:
                    done.append(name)
            reclaim = [self._retired.pop(name)["shm"] for name in done]
        for segment in reclaim:
            self._reclaim(segment)
            self._log_event("segment_unlinked", segment=segment.name)

    def wait_epoch(self, epoch: int, timeout: float = 30.0) -> bool:
        """Block until every live worker serves ``epoch`` (or newer)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                handles = [handle for handle in self._handles.values()
                           if handle.process.is_alive()]
            if handles and all(handle.epoch is not None
                               and handle.epoch >= epoch
                               for handle in handles):
                return True
            time.sleep(0.01)
        return False

    # ------------------------------------------------------------------
    # pool-wide aggregation
    # ------------------------------------------------------------------
    def _collect_exports(self, timeout: float = 5.0) -> list[dict]:
        with self._lock:
            handles = [handle for handle in self._handles.values()
                       if handle.ready.is_set()
                       and handle.process.is_alive()]
        waiters = []
        for handle in handles:
            export_id = next(self._export_ids)
            waiter = [threading.Event(), None]
            self._exports[export_id] = waiter
            self._send(handle, "export", {"id": export_id})
            waiters.append((export_id, waiter))
        deadline = time.monotonic() + timeout
        exports = []
        for export_id, waiter in waiters:
            remaining = max(0.0, deadline - time.monotonic())
            if waiter[0].wait(remaining):
                payload = waiter[1]
                if payload and payload.get("data") is not None:
                    exports.append(payload["data"])
            self._exports.pop(export_id, None)
        return exports

    def aggregate_stats(self) -> dict:
        """One coherent ``stats`` payload for the whole pool.

        Counters sum, histograms merge exactly by bucket state, the
        slow-trace rings interleave; the ``index`` section is the
        parent manager's (authoritative — it owns the shadow), and a
        ``pool`` section describes the processes themselves.
        """
        exports = self._collect_exports()
        request_latency = Histogram()
        class_latency: dict[str, Histogram] = {}
        queue_wait, kernel_batch = Histogram(), Histogram()
        server = {"requests": 0, "errors": 0, "connections": 0,
                  "recent_qps": 0.0}
        batching = {"batches": 0, "coalesced_queries": 0,
                    "largest_batch": 0, "queue_depth": 0,
                    "overloaded": 0, "size_buckets": {}}
        slow_traces: list[dict] = []
        workers = []
        uptime = (time.monotonic() - self._started_at
                  if self._started_at else 0.0)
        for export in exports:
            stats = export["stats"]
            hist = export["hist"]
            request_latency.merge_state(hist["request_latency"])
            for klass, state in hist["class_latency"].items():
                class_latency.setdefault(klass,
                                         Histogram()).merge_state(state)
            queue_wait.merge_state(hist["queue_wait"])
            kernel_batch.merge_state(hist["kernel_batch"])
            for key in ("requests", "errors", "connections"):
                server[key] += stats["server"][key]
            server["recent_qps"] += stats["server"]["recent_qps"]
            for key in ("batches", "coalesced_queries", "queue_depth",
                        "overloaded"):
                batching[key] += stats["batching"][key]
            batching["largest_batch"] = max(
                batching["largest_batch"],
                stats["batching"]["largest_batch"])
            for bucket, count in stats["batching"]["size_buckets"].items():
                batching["size_buckets"][bucket] = \
                    batching["size_buckets"].get(bucket, 0) + count
            for key in ("max_batch", "max_pending"):
                batching.setdefault(key, stats["batching"][key])
            slow_traces.extend(stats.get("slow_traces", []))
            workers.append({
                "worker_id": export["worker_id"],
                "pid": export["pid"],
                "epoch": export["epoch"],
                "reattaches": export["reattaches"],
                "requests": stats["server"]["requests"],
                "recent_qps": stats["server"]["recent_qps"],
            })
        p50, p99, p999 = request_latency.percentiles(0.50, 0.99, 0.999)
        server.update({
            "uptime_seconds": uptime,
            "p50_ms": 1e3 * p50,
            "p99_ms": 1e3 * p99,
            "p999_ms": 1e3 * p999,
        })
        batching["mean_batch_size"] = (
            batching["coalesced_queries"] / batching["batches"]
            if batching["batches"] else 0.0)
        batching["queue_wait"] = queue_wait.summary()
        batching["kernel_batch"] = kernel_batch.summary()
        slow_traces.sort(key=lambda trace: trace.get("total_ms", 0.0),
                         reverse=True)
        workers.sort(key=lambda worker: worker["worker_id"])
        return {
            "server": server,
            "latency": {klass: histogram.summary()
                        for klass, histogram
                        in sorted(class_latency.items())},
            "slow_traces": slow_traces[:_MERGED_TRACES],
            "index": self.manager.stats(),
            "batching": batching,
            "workers": workers,
            "pool": {
                "workers": self.alive_workers(),
                "configured_workers": self.num_workers,
                "respawns": self._respawns,
                "reattaches": self._reattach_total,
                "epoch": self.manager.epoch,
                "segment": (self._current_segment.name
                            if self._current_segment else None),
                "reuse_port": self._reuse_port,
            },
        }

    def aggregate_metrics(self) -> str:
        """The pool-wide Prometheus exposition document.

        Workers ship their registry *state* (raw histogram buckets,
        PR 4's mergeable design) and the parent folds them — plus its
        own registry, which holds the swap spans — into one rendering.
        """
        exports = self._collect_exports()
        registry = MetricsRegistry()
        request_latency = Histogram()
        class_latency: dict[str, Histogram] = {}
        queue_wait, kernel_batch = Histogram(), Histogram()
        requests = errors = connections = 0
        for export in exports:
            registry.merge_state(export["registry"])
            hist = export["hist"]
            request_latency.merge_state(hist["request_latency"])
            for klass, state in hist["class_latency"].items():
                class_latency.setdefault(klass,
                                         Histogram()).merge_state(state)
            queue_wait.merge_state(hist["queue_wait"])
            kernel_batch.merge_state(hist["kernel_batch"])
            stats = export["stats"]["server"]
            requests += stats["requests"]
            errors += stats["errors"]
            connections += stats["connections"]
        registry.merge_state(OBS.state())    # parent spans: service/swap
        extra = {"service/request_latency": request_latency,
                 "service/queue_wait": queue_wait,
                 "service/kernel_batch": kernel_batch}
        for klass, histogram in class_latency.items():
            extra[f"service/latency/{klass}"] = histogram
        lines = [promtext.render(registry, histograms=extra).rstrip("\n")]
        merged_counters = registry.counters
        merged_gauges = registry.gauges
        for name, value in (("service/requests", requests),
                            ("service/errors", errors),
                            ("service/reattach", self._reattach_total)):
            if name in merged_counters:
                continue
            base = promtext.prom_name(name) + "_total"
            lines.append(f"# TYPE {base} counter")
            lines.append(f"{base} {value}")
        for name, value in (("service/epoch", self.manager.epoch),
                            ("service/connections", connections),
                            ("service/workers", self.alive_workers())):
            if name in merged_gauges:
                continue
            base = promtext.prom_name(name)
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {value}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Prometheus HTTP exposition (parent-hosted under the pool)
    # ------------------------------------------------------------------
    def _start_metrics_listener(self) -> None:
        pool = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib contract
                route = self.path.split("?", 1)[0]
                if route == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    content_type = "text/plain; charset=utf-8"
                elif route == "/readyz":
                    ready = pool.ready()
                    body = (json.dumps({"ready": ready,
                                        "epoch": pool.manager.epoch,
                                        "workers": pool.alive_workers(),
                                        "expected": pool.num_workers})
                            .encode("utf-8") + b"\n")
                    self.send_response(200 if ready else 503)
                    content_type = "application/json"
                elif route not in ("/", "/metrics"):
                    body = (b"not found; scrape /metrics or probe "
                            b"/healthz, /readyz\n")
                    self.send_response(404)
                    content_type = "text/plain; charset=utf-8"
                else:
                    body = pool.aggregate_metrics().encode("utf-8")
                    self.send_response(200)
                    content_type = promtext.CONTENT_TYPE
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass                         # no stderr chatter

        self._metrics_httpd = ThreadingHTTPServer(
            (self._host, self.metrics_port), _Handler)
        self.metrics_address = \
            self._metrics_httpd.server_address[:2]
        threading.Thread(target=self._metrics_httpd.serve_forever,
                         daemon=True,
                         name="repro-pool-metrics").start()
