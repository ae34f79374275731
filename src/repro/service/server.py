"""The asyncio TCP front end: newline-delimited JSON, stdlib only.

One request per line, one JSON response per line, in order, per
connection (concurrency comes from many connections — which is exactly
what the micro-batcher coalesces).  Verbs: ``query``, ``query_batch``,
``add_edge``, ``add_node``, ``remove_edge``, ``remove_node``,
``stats``, ``metrics``, ``slo``, ``reload``, ``ping``; the wire
contract is specified in ``docs/SERVICE.md``.

Telemetry: every query request carries a
:class:`~repro.service.tracing.Trace` through the serving path
(``accept`` → ``enqueue`` → ``flush`` → ``kernel`` → ``respond``);
the finished trace feeds always-on per-class latency histograms
(``positive`` / ``negative`` / ``prefilter_hit`` / ``batch``), a
bounded ring of the slowest traces (``stats`` → ``slow_traces``), the
threshold-gated slow-query log, and — when the request carried
``"trace": true`` — a stage breakdown echoed in the response.  The
``metrics`` verb and the optional HTTP side listener
(``metrics_port``) expose everything in Prometheus text format
(:mod:`repro.obs.promtext`); the side listener also answers
``/healthz`` (process up) and ``/readyz`` (snapshot published, not
draining) so probes need not speak the NDJSON protocol.

Two opt-in observability hooks ride the same path (both ``None`` by
default, costing one ``is not None`` check each):

* ``capture=`` — a :class:`~repro.service.capture.RequestCapture`
  journaling query/write verbs with class, epoch and latency
  (``serve --capture PATH``);
* ``slo=`` — a :class:`~repro.obs.slo.SloTracker` (or a list of
  objective sentences) fed per-class latencies and request outcomes;
  read back through the ``slo`` verb, the Prometheus listener's
  ``slo/*`` gauges, and ``repro-graph slo-report``.

Operational guarantees:

* **per-request timeout** — a request that cannot be answered within
  ``request_timeout`` seconds gets a ``timeout`` error instead of
  wedging its connection;
* **bounded backpressure** — the micro-batch queue is bounded; at the
  bound clients get an explicit ``overloaded`` error, never unbounded
  buffering;
* **graceful drain** — :meth:`ReachabilityService.shutdown` stops
  accepting connections, flushes every queued query, lets in-flight
  requests finish within a grace period, and only then tears down.

:func:`start_in_thread` runs a service on a background thread with its
own event loop — how a synchronous embedder (the CLI tests, a WSGI
app) hosts one.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque

from repro.graph.errors import (
    GraphError,
    NodeNotFoundError,
    NotADAGError,
)
from repro.obs import OBS, Histogram, open_log, promtext
from repro.obs.slo import SloTracker
from repro.service.batching import MicroBatcher
from repro.service.capture import CAPTURED_OPS, RequestCapture
from repro.service.errors import (
    OverloadedError,
    ServiceError,
    WritesUnsupportedError,
)
from repro.service.manager import IndexManager
from repro.service.tracing import SlowTraceRing, Trace

__all__ = ["ReachabilityService", "ThreadedService", "start_in_thread"]

#: largest accepted request line (also bounds query_batch size).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: JSON values that cannot be node ids (unhashable)
_CONTAINERS = (dict, list)
_PAIRS_SHAPE = "pairs must be a list of [source, target] pairs"


def _scalar(value, name: str):
    """Reject wire values that cannot be node ids.

    JSON containers are unhashable, so letting one through would blow
    up later in the kernel instead of at the request boundary.
    """
    if isinstance(value, _CONTAINERS):
        raise ValueError(
            f"{name} must be a JSON scalar, not {type(value).__name__}")
    return value


def _pairs(value) -> list:
    """Validate a ``query_batch`` pairs list in one pass; returns it.

    The ``[source, target]`` lists go to the kernel as the JSON decoder
    built them: no per-pair copy.
    """
    if not isinstance(value, list):
        raise ValueError(_PAIRS_SHAPE)
    for pair in value:
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(_PAIRS_SHAPE)
        source, target = pair
        if (isinstance(source, _CONTAINERS)
                or isinstance(target, _CONTAINERS)):
            _scalar(source, "source")
            _scalar(target, "target")
    return value


class ReachabilityService:
    """Manager + micro-batcher behind one TCP listener."""

    def __init__(self, manager: IndexManager, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 128, max_pending: int = 1024,
                 request_timeout: float = 10.0,
                 drain_grace: float = 5.0,
                 metrics_port: int | None = None,
                 log=None, slow_query_ms: float | None = None,
                 trace_capacity: int = 16,
                 reuse_port: bool = False, sock=None,
                 stats_provider=None,
                 metrics_provider=None,
                 capture=None, capture_capacity: int = 65536,
                 capture_sample: float = 1.0, slo=None) -> None:
        self.manager = manager
        #: pool integration — ``reuse_port`` binds the listener with
        #: SO_REUSEPORT so sibling worker processes share one port;
        #: ``sock`` serves on an inherited, already-listening socket
        #: instead (the accept-and-hand-off fallback).  The providers,
        #: when set, replace the local ``stats``/``metrics`` payloads
        #: with pool-wide aggregates fetched from the parent (called in
        #: a thread — they may block on the control pipe).
        self.reuse_port = reuse_port
        self._sock = sock
        self.stats_provider = stats_provider
        self.metrics_provider = metrics_provider
        self.batcher = MicroBatcher(manager, max_batch=max_batch,
                                    max_pending=max_pending)
        self.request_timeout = request_timeout
        self.drain_grace = drain_grace
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._started_at = 0.0
        self.requests = 0
        self.errors = 0
        self._recent: deque = deque(maxlen=2048)    # request end times
        # always-on telemetry: the stats verb and the Prometheus
        # exposition must work even with the OBS registry disabled
        #: latency of every wire request (seconds)
        self.request_latency = Histogram()
        #: per answer-class latency histograms, created on first use
        self.class_latency: dict[str, Histogram] = {}
        #: bounded ring of the slowest traces since startup
        self.slow_traces = SlowTraceRing(trace_capacity)
        #: structured JSON-lines log (``log`` is a path, ``"-"`` for
        #: stderr, or an open stream; ``None`` disables logging)
        self.log = open_log(log) if log is not None else None
        #: slow-query threshold in milliseconds (``None`` disables the
        #: slow-query records; lifecycle events still log)
        self.slow_query_ms = slow_query_ms
        if self.log is not None:
            manager.event_log = self.log
        self.metrics_port = metrics_port
        self._metrics_server: asyncio.AbstractServer | None = None
        #: ``(host, port)`` of the HTTP exposition listener, once bound
        self.metrics_address: tuple[str, int] | None = None
        #: opt-in request journal (a path coerces to a
        #: :class:`RequestCapture` sized by ``capture_capacity`` /
        #: ``capture_sample``); ``None`` keeps the request path at a
        #: single pointer check
        if capture is not None and not isinstance(capture, RequestCapture):
            capture = RequestCapture(capture, capacity=capture_capacity,
                                     sample=capture_sample)
        self.capture: RequestCapture | None = capture
        #: opt-in SLO tracker (a list of objective sentences coerces)
        if slo is not None and not isinstance(slo, SloTracker):
            slo = SloTracker(slo)
        self.slo: SloTracker | None = slo

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        return self._host, self._port

    async def start(self) -> tuple[str, int]:
        """Bind the listener(s) and start the flush loop."""
        await self.batcher.start()
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self._sock,
                limit=MAX_LINE_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self._host, self._port,
                limit=MAX_LINE_BYTES, reuse_port=self.reuse_port or None)
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics, self._host, self.metrics_port)
            sockname = self._metrics_server.sockets[0].getsockname()
            self.metrics_address = tuple(sockname[:2])
        self._started_at = time.monotonic()
        self._log_event("listening", host=self._host, port=self._port,
                        metrics_port=(self.metrics_address[1]
                                      if self.metrics_address else None),
                        epoch=self.manager.epoch)
        return self.address

    async def serve_forever(self) -> None:
        """Block until the server is shut down."""
        if self._server is None:
            raise ServiceError("service not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, flush, finish, tear down."""
        self._draining = True
        self._log_event("drain_start",
                        connections=len(self._connections),
                        queued=self.batcher.queue_depth)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # let in-flight requests (and their queued queries) complete
        if self._connections:
            await asyncio.wait(self._connections,
                               timeout=self.drain_grace)
        await self.batcher.close(drain=True)
        for task in list(self._connections):
            task.cancel()
        if self.capture is not None:
            self.capture.close()
            self._log_event("capture_flush", **self.capture.describe())
        self.manager.close()
        self._log_event("drain_finish", requests=self.requests,
                        errors=self.errors)

    def _log_event(self, event: str, **fields) -> None:
        if self.log is not None:
            self.log.log(event, **fields)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ValueError:
                    # readline() re-raises LimitOverrunError as
                    # ValueError when a line exceeds the stream limit
                    response = self._error(
                        None, "bad_request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes")
                    try:
                        writer.write(json.dumps(response,
                                                separators=(",", ":"))
                                     .encode("utf-8") + b"\n")
                        await writer.drain()
                    except (ConnectionError, RuntimeError):
                        pass
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                started = time.perf_counter()
                response = await self._handle_line(stripped)
                elapsed = time.perf_counter() - started
                self.request_latency.observe(elapsed)
                if OBS.enabled:
                    OBS.observe("service/request_latency", elapsed)
                self._recent.append(time.monotonic())
                try:
                    writer.write(json.dumps(response,
                                            separators=(",", ":"))
                                 .encode("utf-8") + b"\n")
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        self.requests += 1
        if OBS.enabled:
            OBS.count("service/requests")
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return self._error(None, "bad_request",
                               f"not valid JSON: {exc}")
        if not isinstance(request, dict):
            return self._error(None, "bad_request",
                               "request must be a JSON object")
        request_id = request.get("id")
        op = request.get("op")
        trace = None
        if op in ("query", "query_batch"):
            trace = Trace(op)
            trace.mark("accept", queue_depth=self.batcher.queue_depth,
                       epoch=self.manager.epoch)
        capture_write = (self.capture is not None and trace is None
                         and op in CAPTURED_OPS)
        started = time.perf_counter() if capture_write else 0.0
        with OBS.span("service/request"):
            response = await self._dispatch_guarded(request, op,
                                                    request_id, trace)
        if trace is not None:
            trace.mark("respond")
            trace.finish()
            self._finish_query(trace, request, response)
        if self.slo is not None:
            self.slo.note_request(bool(response.get("ok")))
        if capture_write:
            self.capture.record(
                op, ok=bool(response.get("ok")),
                epoch=response.get("epoch"),
                latency_ms=1e3 * (time.perf_counter() - started),
                source=request.get("source"),
                target=request.get("target"),
                node=request.get("node"),
                create=(request.get("create") if op == "add_edge"
                        else None),
                force=request.get("force") if op == "reload" else None)
        if request_id is not None:
            response["id"] = request_id
        return response

    async def _dispatch_guarded(self, request: dict, op,
                                request_id, trace) -> dict:
        """Dispatch with the error taxonomy: exceptions become error
        responses (the request fails, never the server)."""
        try:
            return await asyncio.wait_for(
                self._dispatch(request, trace), self.request_timeout)
        except asyncio.TimeoutError:
            return self._error(
                request_id, "timeout",
                f"request exceeded {self.request_timeout}s")
        except OverloadedError as exc:
            self._log_event("overloaded", op=op,
                            queue_depth=self.batcher.queue_depth,
                            max_pending=self.batcher.max_pending)
            return self._error(request_id, "overloaded", str(exc))
        except NodeNotFoundError as exc:
            response = self._error(request_id, "unknown_node", str(exc))
            if exc.role:
                response["role"] = exc.role
            return response
        except NotADAGError as exc:
            return self._error(request_id, "cycle", str(exc))
        except WritesUnsupportedError as exc:
            return self._error(request_id, "unsupported", str(exc))
        except ServiceError as exc:          # e.g. draining batcher
            return self._error(request_id, "unavailable", str(exc))
        except (GraphError, TypeError, ValueError, KeyError) as exc:
            return self._error(request_id, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - fail the request,
            return self._error(request_id, "internal",  # not the server
                               f"{type(exc).__name__}: {exc}")

    def _finish_query(self, trace: Trace, request: dict,
                      response: dict) -> None:
        """Route one finished query trace into the telemetry sinks."""
        if not response.get("ok"):
            # failed queries get their own class: they must not skew
            # the answer-class latencies, but SLOs still see them
            trace.klass = "error"
        else:
            trace.klass = self._classify(trace.op, request, response)
        seconds = trace.total_seconds
        histogram = self.class_latency.get(trace.klass)
        if histogram is None:
            histogram = self.class_latency.setdefault(
                trace.klass, Histogram())
        histogram.observe(seconds)
        if OBS.enabled:
            OBS.observe(f"service/latency/{trace.klass}", seconds)
        if self.slo is not None:
            self.slo.observe(trace.klass, seconds)
        if self.capture is not None:
            if trace.op == "query_batch":
                self.capture.record(
                    "query_batch", klass=trace.klass,
                    pairs=request.get("pairs"),
                    epoch=response.get("epoch"),
                    latency_ms=1e3 * seconds,
                    ok=bool(response.get("ok")))
            else:
                self.capture.record(
                    "query", klass=trace.klass,
                    source=request.get("source"),
                    target=request.get("target"),
                    epoch=response.get("epoch"),
                    latency_ms=1e3 * seconds,
                    ok=bool(response.get("ok")))
        self.slow_traces.offer(trace)
        if (self.log is not None and self.slow_query_ms is not None
                and 1e3 * seconds >= self.slow_query_ms):
            self.log.log("slow_query", **trace.to_dict())
        if request.get("trace"):
            response["trace"] = trace.to_dict()

    def _classify(self, op: str, request: dict, response: dict) -> str:
        """Answer class for a settled query."""
        if op == "query_batch":
            return "batch"
        if response.get("reachable"):
            return "positive"
        prefilter = getattr(self.manager.snapshot.backend,
                            "prefilter_rejects", None)
        if prefilter is not None and prefilter(request["source"],
                                               request["target"]):
            return "prefilter_hit"
        return "negative"

    def _error(self, request_id, code: str, message: str) -> dict:
        self.errors += 1
        response = {"ok": False, "error": code, "message": message}
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict,
                        trace: Trace | None = None) -> dict:
        op = request.get("op")
        if op == "query":
            source = _scalar(request["source"], "source")
            target = _scalar(request["target"], "target")
            epoch, reachable = await self.batcher.submit(source, target,
                                                         trace)
            return {"ok": True, "epoch": epoch, "reachable": reachable}
        if op == "query_batch":
            epoch, answers = self.batcher.submit_many(
                _pairs(request["pairs"]), trace)
            return {"ok": True, "epoch": epoch, "reachable": answers}
        if op == "add_edge":
            source = _scalar(request["source"], "source")
            target = _scalar(request["target"], "target")
            create = bool(request.get("create", True))
            added = await asyncio.to_thread(
                self.manager.add_edge, source, target, create=create)
            return {"ok": True, "added": added,
                    "epoch": self.manager.epoch,
                    "pending_writes": self.manager.pending_writes}
        if op == "add_node":
            added = await asyncio.to_thread(
                self.manager.add_node, _scalar(request["node"], "node"))
            return {"ok": True, "added": added,
                    "epoch": self.manager.epoch,
                    "pending_writes": self.manager.pending_writes}
        if op == "remove_edge":
            source = _scalar(request["source"], "source")
            target = _scalar(request["target"], "target")
            removed = await asyncio.to_thread(
                self.manager.remove_edge, source, target)
            return {"ok": True, "removed": removed,
                    "epoch": self.manager.epoch,
                    "pending_writes": self.manager.pending_writes}
        if op == "remove_node":
            removed = await asyncio.to_thread(
                self.manager.remove_node,
                _scalar(request["node"], "node"))
            return {"ok": True, "removed": removed,
                    "epoch": self.manager.epoch,
                    "pending_writes": self.manager.pending_writes}
        if op == "reload":
            force = bool(request.get("force", False))
            snapshot = await asyncio.to_thread(self.manager.swap, force)
            return {"ok": True, "epoch": snapshot.epoch,
                    "swaps": self.manager.swap_count}
        if op == "stats":
            if self.stats_provider is not None:
                payload = await asyncio.to_thread(self.stats_provider)
            else:
                payload = self.stats()
            return {"ok": True, "stats": payload}
        if op == "metrics":
            if self.metrics_provider is not None:
                text = await asyncio.to_thread(self.metrics_provider)
            else:
                text = self.render_metrics()
            return {"ok": True, "content_type": promtext.CONTENT_TYPE,
                    "text": text}
        if op == "slo":
            if self.slo is not None:
                payload = await asyncio.to_thread(self.slo.evaluate)
            else:
                payload = {"enabled": False, "objectives": [],
                           "healthy": True, "breach_count": 0,
                           "breaches": []}
            return {"ok": True, "slo": payload}
        if op == "ping":
            return {"ok": True, "epoch": self.manager.epoch}
        raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Prometheus exposition
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """The Prometheus text document for this service.

        Combines the process-wide OBS registry (whatever is enabled)
        with the service's always-on histograms and counters, so a
        scrape is useful even when the registry is off.
        """
        extra = {"service/request_latency": self.request_latency,
                 "service/queue_wait": self.batcher.queue_wait,
                 "service/kernel_batch": self.batcher.kernel_batch}
        for klass, histogram in self.class_latency.items():
            extra[f"service/latency/{klass}"] = histogram
        lines = [promtext.render(OBS, histograms=extra).rstrip("\n")]
        # always-on counters/gauges the registry only has when enabled
        registry_counters = OBS.counters
        registry_gauges = OBS.gauges
        for name, value in (("service/requests", self.requests),
                            ("service/errors", self.errors)):
            if name in registry_counters:
                continue
            base = promtext.prom_name(name) + "_total"
            lines.append(f"# TYPE {base} counter")
            lines.append(f"{base} {value}")
        if self.capture is not None:
            for name, value in (
                    ("service/capture_records", self.capture.sampled),
                    ("service/capture_dropped", self.capture.dropped)):
                if name in registry_counters:
                    continue
                base = promtext.prom_name(name) + "_total"
                lines.append(f"# TYPE {base} counter")
                lines.append(f"{base} {value}")
        gauges = [("service/epoch", self.manager.epoch),
                  ("service/connections", len(self._connections))]
        if self.slo is not None:
            # evaluating on scrape is what detects breaches without a
            # background thread; slo/breaches rides the counter block
            report = self.slo.evaluate()
            gauges.extend(sorted(self.slo.gauge_values(report).items()))
            if "slo/breaches" not in registry_counters:
                base = promtext.prom_name("slo/breaches") + "_total"
                lines.append(f"# TYPE {base} counter")
                lines.append(f"{base} {self.slo.breach_count}")
        for name, value in gauges:
            if name in registry_gauges:
                continue
            base = promtext.prom_name(name)
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {value}")
        return "\n".join(lines) + "\n"

    async def _serve_metrics(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.0 handler for the exposition side listener."""
        try:
            request_line = await reader.readline()
            while True:                      # drain headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = (parts[1].decode("latin-1", "replace")
                    if len(parts) >= 2 else "/")
            route = path.split("?", 1)[0]
            if route in ("/", "/metrics"):
                status = "200 OK"
                content_type = promtext.CONTENT_TYPE
                body = self.render_metrics().encode("utf-8")
            elif route == "/healthz":
                status = "200 OK"
                content_type = "text/plain; charset=utf-8"
                body = b"ok\n"
            elif route == "/readyz":
                ready = self.ready()
                status = "200 OK" if ready else "503 Service Unavailable"
                content_type = "application/json"
                body = (json.dumps({"ready": ready,
                                    "epoch": self.manager.epoch,
                                    "draining": self._draining})
                        .encode("utf-8") + b"\n")
            else:
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
                body = (b"not found; scrape /metrics or probe "
                        b"/healthz, /readyz\n")
            writer.write((f"HTTP/1.0 {status}\r\n"
                          f"Content-Type: {content_type}\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          "Connection: close\r\n\r\n").encode("ascii")
                         + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """``/readyz`` condition: bound, snapshot published, not
        draining."""
        return (self._server is not None and not self._draining
                and self.manager.snapshot is not None)

    def stats(self) -> dict:
        """The ``stats`` verb payload: manager + batcher + server +
        per-class latency + slowest traces."""
        now = time.monotonic()
        recent = list(self._recent)
        window = now - recent[0] if recent else 0.0
        recent_qps = len(recent) / window if window > 0 else 0.0
        uptime = now - self._started_at if self._started_at else 0.0
        p50, p99, p999 = self.request_latency.percentiles(
            0.50, 0.99, 0.999)
        return {
            "server": {
                "requests": self.requests,
                "errors": self.errors,
                "connections": len(self._connections),
                "uptime_seconds": uptime,
                "recent_qps": recent_qps,
                "p50_ms": 1e3 * p50,
                "p99_ms": 1e3 * p99,
                "p999_ms": 1e3 * p999,
            },
            "latency": {klass: histogram.summary()
                        for klass, histogram
                        in sorted(self.class_latency.items())},
            "slow_traces": self.slow_traces.snapshot(),
            "index": self.manager.stats(),
            "batching": self.batcher.stats(),
        }


# ----------------------------------------------------------------------
# threaded embedding
# ----------------------------------------------------------------------
class ThreadedService:
    """A :class:`ReachabilityService` on a background event loop.

    >>> from repro import DiGraph
    >>> from repro.service import IndexManager
    >>> manager = IndexManager.from_graph(
    ...     DiGraph.from_edges([("a", "b")]))
    >>> with start_in_thread(manager) as handle:
    ...     host, port = handle.address
    ...     # connect a ServiceClient to (host, port) here
    """

    def __init__(self, service: ReachabilityService) -> None:
        self._service = service
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-service")
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._failure: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` of the running service."""
        return self._service.address

    @property
    def service(self) -> ReachabilityService:
        return self._service

    def start(self) -> "ThreadedService":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise ServiceError(
                f"service failed to start: {self._failure}"
            ) from self._failure
        if not self._ready.is_set():
            raise ServiceError("service did not start within 30s")
        return self

    def stop(self) -> None:
        """Drain and stop the service, then join its thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30.0)

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self._service.start()
        self._ready.set()
        await self._stop.wait()
        await self._service.shutdown()

    def __enter__(self) -> "ThreadedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(manager: IndexManager, **kwargs) -> ThreadedService:
    """Start a service on a daemon thread; returns once it is bound."""
    return ThreadedService(ReachabilityService(manager, **kwargs)).start()
