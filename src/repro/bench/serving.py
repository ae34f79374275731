"""Serving-layer load generator: the numbers behind ``serve-smoke``.

Stands up a real :class:`~repro.service.ReachabilityService` on a
loopback socket over the Fig. 10 middle sparse workload and measures
three client strategies end to end (TCP framing included):

* **sequential** — one connection, one ``query`` request at a time:
  the no-batching baseline, every query pays a full round trip;
* **concurrent** — the same single-query protocol from many
  concurrent connections: the server's micro-batcher coalesces them
  into shared kernel calls;
* **bulk** — one ``query_batch`` request carrying the whole stream:
  the upper bound where framing is amortised entirely.

:func:`batching_gate_failures` holds the gates on what batching
promises: the concurrent phase's own mean batch (read from the
batcher's counters before and after it) is at least
``MIN_CONCURRENT_MEAN_BATCH``, and concurrent throughput is no lower
than sequential.  Their ratio, ``batching_speedup``, is recorded but
not gated: it only measures how slow a lone query is.

The run finishes with a few ``add_edge`` writes plus a ``reload`` to
count a live rebuild-and-swap.  Everything runs in one process and
one event loop — no free ports, threads or subprocesses to leak.

:func:`pool_scaling_smoke` is the multi-process counterpart: the same
workload served through a :class:`~repro.service.WorkerPool` at each
requested worker count, driven by **separate client processes**
(blocking ``query_batch`` chunks) so the load generator is never the
single-process bottleneck it would be in-loop.  The ``workers=0``
baseline is measured under the *same* harness, and the final pool run
takes a write burst plus ``reload`` mid-flight to record the
zero-downtime swap (queries answered, failures — expected zero —
and the epoch transition).  Results land in the ``workers`` section of
``BENCH_serve.json``; ``cpus`` is recorded because scaling numbers
from a one-core box are not speedups.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time

__all__ = ["serve_engine_smoke", "pool_scaling_smoke",
           "single_query_phases", "batching_gate_failures"]

CONNECTIONS = 16
#: concurrent single-query clients must share kernel calls: below this
#: mean batch the batcher answers them one flush each
MIN_CONCURRENT_MEAN_BATCH = 2.0
POOL_CLIENT_PROCESSES = 2
POOL_BATCH = 32


async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload, separators=(",", ":"))
                 .encode("utf-8") + b"\n")
    await writer.drain()
    response = json.loads(await reader.readline())
    if not response.get("ok"):
        raise RuntimeError(f"server error: {response}")
    return response


async def _sequential_phase(host, port,
                            queries) -> tuple[float, list[float]]:
    """Total seconds plus the client-observed per-request latencies."""
    reader, writer = await asyncio.open_connection(host, port)
    laps: list[float] = []
    started = time.perf_counter()
    for source, target in queries:
        lap_started = time.perf_counter()
        await _request(reader, writer, {"op": "query", "source": source,
                                        "target": target})
        laps.append(time.perf_counter() - lap_started)
    elapsed = time.perf_counter() - started
    writer.close()
    await writer.wait_closed()
    return elapsed, laps


async def _concurrent_phase(host, port, queries,
                            connections: int = CONNECTIONS) -> float:
    """The same single-query wire protocol, from many connections."""
    shards = [queries[i::connections] for i in range(connections)]

    async def worker(shard) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        for source, target in shard:
            await _request(reader, writer,
                           {"op": "query", "source": source,
                            "target": target})
        writer.close()
        await writer.wait_closed()

    started = time.perf_counter()
    await asyncio.gather(*(worker(shard) for shard in shards if shard))
    return time.perf_counter() - started


async def _bulk_phase(host, port, queries) -> float:
    reader, writer = await asyncio.open_connection(host, port)
    started = time.perf_counter()
    await _request(reader, writer,
                   {"op": "query_batch",
                    "pairs": [list(pair) for pair in queries]})
    elapsed = time.perf_counter() - started
    writer.close()
    await writer.wait_closed()
    return elapsed


async def single_query_phases(service, queries,
                              sequential_count: int) -> dict:
    """Sequential, then concurrent, single-query phases on ``service``.

    ``service`` is a started :class:`~repro.service.ReachabilityService`
    in this event loop.  The concurrent phase's mean batch comes from
    the batcher's counters read just before and after it, so no other
    traffic dilutes it.
    """
    from repro.bench.metrics import latency_summary

    host, port = service.address
    sequential_seconds, sequential_laps = await _sequential_phase(
        host, port, queries[:sequential_count])
    before = service.batcher.stats()
    concurrent_seconds = await _concurrent_phase(host, port, queries)
    after = service.batcher.stats()
    batches = after["batches"] - before["batches"]
    coalesced = after["coalesced_queries"] - before["coalesced_queries"]
    sequential_qps = sequential_count / sequential_seconds
    concurrent_qps = len(queries) / concurrent_seconds
    return {
        "sequential_qps": sequential_qps,
        "concurrent_qps": concurrent_qps,
        "batching_speedup": concurrent_qps / sequential_qps,
        "concurrent_mean_batch": coalesced / batches if batches else 0.0,
        # exact nearest-rank summary of the client-observed sequential
        # round trips (ms), via the shared repro.obs helper
        "client_latency": latency_summary(sequential_laps),
    }


def batching_gate_failures(result: dict) -> list[str]:
    """The serve smoke's batching gates; returns each one that fails."""
    failures = []
    if result["concurrent_mean_batch"] < MIN_CONCURRENT_MEAN_BATCH:
        failures.append(
            f"concurrent mean batch {result['concurrent_mean_batch']:.2f}"
            f" < {MIN_CONCURRENT_MEAN_BATCH}")
    if result["concurrent_qps"] < result["sequential_qps"]:
        failures.append(
            f"concurrent {result['concurrent_qps']:,.0f} q/s < "
            f"sequential {result['sequential_qps']:,.0f} q/s")
    return failures


async def _smoke(scale: float) -> dict:
    from repro.bench.harness import random_queries
    from repro.bench.workloads import smoke_workload
    from repro.service import IndexManager, ReachabilityService

    workload = smoke_workload(scale)
    graph = workload.graph
    manager = IndexManager.from_graph(graph)
    service = ReachabilityService(manager, port=0, max_batch=256,
                                  max_pending=4096)
    host, port = await service.start()
    try:
        queries = random_queries(graph, max(64, int(3200 * scale)),
                                 seed=29)
        sequential_count = min(len(queries), max(32, int(400 * scale)))
        phases = await single_query_phases(service, queries,
                                           sequential_count)
        bulk_seconds = await _bulk_phase(host, port, queries)

        # a live write burst + rebuild-and-swap while the server is up
        reader, writer = await asyncio.open_connection(host, port)
        nodes = graph.nodes()
        for offset in range(4):
            await _request(reader, writer,
                           {"op": "add_edge",
                            "source": nodes[offset],
                            "target": f"smoke-extra-{offset}"})
        reload_response = await _request(reader, writer,
                                         {"op": "reload"})
        stats = (await _request(reader, writer, {"op": "stats"}))["stats"]
        writer.close()
        await writer.wait_closed()
    finally:
        await service.shutdown()

    batching = stats["batching"]
    return {
        "workload": workload.label,
        "nodes": stats["index"]["nodes"],
        "edges": stats["index"]["edges"],
        "queries": len(queries),
        "connections": CONNECTIONS,
        **phases,
        "bulk_qps": len(queries) / bulk_seconds,
        "mean_batch_size": batching["mean_batch_size"],
        "largest_batch": batching["largest_batch"],
        "batches": batching["batches"],
        "swap_count": stats["index"]["swaps"],
        "epoch": reload_response["epoch"],
        "p50_ms": stats["server"]["p50_ms"],
        "p99_ms": stats["server"]["p99_ms"],
        "p999_ms": stats["server"]["p999_ms"],
        # per answer-class streaming-histogram summaries (seconds) as
        # the server's stats verb reports them
        "latency_classes": stats["latency"],
    }


def serve_engine_smoke(scale: float = 1.0,
                       worker_counts: tuple[int, ...] = ()) -> dict:
    """Run the serving smoke end to end; the dict behind
    ``BENCH_serve.json`` and the ``serve-smoke`` experiment.

    A non-empty ``worker_counts`` appends the multi-process scaling
    section (:func:`pool_scaling_smoke`) under the ``workers`` key.
    """
    result = asyncio.run(_smoke(scale))
    if worker_counts:
        result["workers"] = pool_scaling_smoke(scale,
                                               tuple(worker_counts))
    return result


# ----------------------------------------------------------------------
# Multi-process scaling: WorkerPool vs the single-process baseline
# ----------------------------------------------------------------------
def _pool_client(host, port, pairs, batch, barrier, results) -> None:
    """Load-generator child process: blocking ``query_batch`` chunks.

    Waits on ``barrier`` after connecting so every generator starts
    timing together (interpreter spawn cost stays out of the qps), then
    reports ``(answered, failures, elapsed_seconds)``.  A chunk lost to
    a dropped connection counts as failures, never as an exception —
    the zero-downtime phase asserts this stays zero across a swap.
    """
    from repro.service import ServiceClient

    client = ServiceClient(host, port, timeout=30.0)
    answered = failures = 0
    barrier.wait()
    started = time.perf_counter()
    for index in range(0, len(pairs), batch):
        chunk = pairs[index:index + batch]
        try:
            response = client.call(
                {"op": "query_batch",
                 "pairs": [list(pair) for pair in chunk]})
            answered += len(response["reachable"])
        except Exception:
            failures += len(chunk)
    elapsed = time.perf_counter() - started
    client.close()
    results.put((answered, failures, elapsed))


def _measure_remote_qps(host, port, queries, *, mutate=None) -> dict:
    """Drive ``(host, port)`` from ``POOL_CLIENT_PROCESSES`` generator
    processes; qps = total answered / slowest generator's window.

    ``mutate`` (optional) runs in *this* process once the generators
    start firing — the zero-downtime write-burst-plus-reload hook.
    """
    context = multiprocessing.get_context("spawn")
    parties = POOL_CLIENT_PROCESSES + (1 if mutate is not None else 0)
    barrier = context.Barrier(parties)
    results = context.SimpleQueue()
    shards = [queries[i::POOL_CLIENT_PROCESSES]
              for i in range(POOL_CLIENT_PROCESSES)]
    generators = [
        context.Process(target=_pool_client,
                        args=(host, port, shard, POOL_BATCH, barrier,
                              results),
                        daemon=True)
        for shard in shards if shard]
    for generator in generators:
        generator.start()
    if mutate is not None:
        barrier.wait()
        mutate()
    answered = failures = 0
    slowest = 0.0
    for _ in generators:
        count, failed, elapsed = results.get()
        answered += count
        failures += failed
        slowest = max(slowest, elapsed)
    for generator in generators:
        generator.join()
    return {"answered": answered, "failures": failures,
            "qps": answered / slowest if slowest else 0.0}


def pool_scaling_smoke(scale: float = 1.0,
                       worker_counts: tuple[int, ...] = (2, 4)) -> dict:
    """Measure WorkerPool throughput at each worker count.

    The ``workers=0`` baseline is a single-process service measured
    under the identical client harness; the last pool run doubles as
    the zero-downtime probe (writes + ``reload`` land mid-load and
    every in-flight query must still answer).
    """
    from repro.bench.harness import random_queries
    from repro.bench.workloads import smoke_workload
    from repro.service import (
        IndexManager,
        ServiceClient,
        WorkerPool,
        start_in_thread,
    )

    workload = smoke_workload(scale)
    graph = workload.graph
    queries = random_queries(graph, max(640, int(3200 * scale)), seed=31)
    options = {"max_batch": 256, "max_pending": 4096}

    handle = start_in_thread(IndexManager.from_graph(graph), port=0,
                             **options)
    try:
        host, port = handle.address
        baseline = _measure_remote_qps(host, port, queries)
    finally:
        handle.stop()

    scaling: dict[str, float] = {}
    zero_downtime: dict | None = None
    for count in worker_counts:
        manager = IndexManager.from_graph(graph)
        pool = WorkerPool(manager, workers=count, port=0,
                          service_options=options)
        host, port = pool.start()
        try:
            mutate = None
            last = count == worker_counts[-1]
            if last:
                epoch_before = manager.epoch

                def mutate() -> None:
                    with ServiceClient(host, port,
                                       timeout=30.0) as writer:
                        nodes = graph.nodes()
                        for offset in range(4):
                            writer.call(
                                {"op": "add_edge",
                                 "source": nodes[offset],
                                 "target": f"pool-extra-{offset}"})
                        writer.call({"op": "reload"})

            measured = _measure_remote_qps(host, port, queries,
                                           mutate=mutate)
            scaling[str(count)] = measured["qps"]
            if last:
                pool.wait_epoch(epoch_before + 1)
                zero_downtime = {
                    "queries": len(queries),
                    "answered": measured["answered"],
                    "failures": measured["failures"],
                    "epoch_before": epoch_before,
                    "epoch_after": manager.epoch,
                }
        finally:
            pool.stop()

    baseline_qps = baseline["qps"]
    return {
        "cpus": os.cpu_count(),
        "client_processes": POOL_CLIENT_PROCESSES,
        "batch": POOL_BATCH,
        "queries": len(queries),
        "baseline_qps": baseline_qps,
        "scaling": scaling,
        "speedup": {count: qps / baseline_qps if baseline_qps else 0.0
                    for count, qps in scaling.items()},
        "zero_downtime": zero_downtime,
    }
