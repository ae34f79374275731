"""Tests for the serve smoke's batching gates."""

import asyncio

from repro.bench.harness import random_queries
from repro.bench.serving import batching_gate_failures, single_query_phases
from repro.graph.generators import sparse_random_dag
from repro.service import IndexManager, ReachabilityService


def _measure(max_batch: int) -> dict:
    graph = sparse_random_dag(200, 320, seed=7)
    queries = random_queries(graph, 320, seed=29)

    async def run() -> dict:
        service = ReachabilityService(IndexManager.from_graph(graph),
                                      port=0, max_batch=max_batch,
                                      max_pending=4096)
        await service.start()
        try:
            return await single_query_phases(service, queries, 32)
        finally:
            await service.shutdown()

    return asyncio.run(run())


def _batch_gate_failed(result: dict) -> bool:
    return any("mean batch" in failure
               for failure in batching_gate_failures(result))


def test_batch_gate_trips_when_the_batcher_cannot_coalesce():
    serial = _measure(max_batch=1)
    assert serial["concurrent_mean_batch"] == 1.0
    assert _batch_gate_failed(serial)
    coalescing = _measure(max_batch=256)
    assert coalescing["concurrent_mean_batch"] >= 2.0
    assert not _batch_gate_failed(coalescing)


def test_throughput_gate_compares_concurrent_with_sequential():
    passing = {"concurrent_mean_batch": 16.0, "concurrent_qps": 2.0,
               "sequential_qps": 1.0}
    assert batching_gate_failures(passing) == []
    slower = dict(passing, concurrent_qps=0.5)
    [failure] = batching_gate_failures(slower)
    assert "sequential" in failure
