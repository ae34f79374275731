"""Unit tests for the micro-batching engine.

The environment has no pytest-asyncio, so every async scenario runs
inside :func:`asyncio.run` from a plain synchronous test.
"""

import asyncio

import pytest

from repro import DiGraph, NodeNotFoundError
from repro.service import (
    IndexManager,
    MicroBatcher,
    OverloadedError,
    ServiceError,
)

from tests.conftest import PAPER_FIG1_EDGES, bfs_reachable


def make_manager() -> IndexManager:
    return IndexManager.from_graph(DiGraph.from_edges(PAPER_FIG1_EDGES))


class TestCoalescing:
    def test_concurrent_submits_share_kernel_calls(self):
        """Many concurrent clients produce far fewer kernel batches."""
        manager = make_manager()
        graph = manager.snapshot.graph
        nodes = graph.nodes()
        pairs = [(u, v) for u in nodes for v in nodes]

        async def scenario():
            batcher = MicroBatcher(manager, max_batch=128)
            await batcher.start()
            answers = await asyncio.gather(
                *(batcher.submit(u, v) for u, v in pairs))
            await batcher.close()
            return answers, batcher.stats()

        answers, stats = asyncio.run(scenario())
        for (u, v), (epoch, reachable) in zip(pairs, answers):
            assert epoch == 0
            assert reachable == bfs_reachable(graph, u, v)
        assert stats["coalesced_queries"] == len(pairs)
        # 81 queries coalesced into a handful of flushes, not 81
        assert stats["batches"] < len(pairs) / 2
        assert stats["largest_batch"] > 1

    def test_lone_query_waits_for_no_timer(self, monkeypatch):
        """A lone query on an idle batcher is flushed on the next loop
        turn: the flush loop never sleeps for company."""
        manager = make_manager()
        delays = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            delays.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)

        async def scenario():
            batcher = MicroBatcher(manager)
            await batcher.start()
            result = await batcher.submit("a", "e")
            await batcher.close()
            return result

        assert asyncio.run(scenario()) == (0, True)
        assert [delay for delay in delays if delay > 0] == []

    def test_submit_many_is_inline(self):
        manager = make_manager()
        batcher = MicroBatcher(manager)
        epoch, answers = batcher.submit_many([("a", "e"), ("e", "a")])
        assert (epoch, answers) == (0, [True, False])
        assert batcher.stats()["batches"] == 1

    def test_bad_pair_fails_only_its_own_query(self):
        """The per-pair fallback isolates an unknown-node failure."""
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager)
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit("a", "e"),
                batcher.submit("a", "no-such-node"),
                batcher.submit("f", "i"),
                return_exceptions=True)
            await batcher.close()
            return results

        good, bad, also_good = asyncio.run(scenario())
        assert good == (0, True)
        assert isinstance(bad, NodeNotFoundError)
        assert bad.role == "target"
        assert also_good == (0, True)

    def test_unhashable_pair_does_not_kill_the_flush_loop(self):
        """A pair straight off wire JSON can be unhashable (a list);
        the TypeError it raises must fail only its own future — if it
        escaped, the flush task would die and every later query would
        hang until its request timeout."""
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager)
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit("a", "e"),
                batcher.submit(["a"], "e"),      # unhashable source
                return_exceptions=True)
            late = await batcher.submit("f", "i")
            await batcher.close()
            return results, late

        (good, bad), late = asyncio.run(scenario())
        assert good == (0, True)
        assert isinstance(bad, TypeError)
        assert late == (0, True)                 # the loop survived


class TestBackpressure:
    def test_overloaded_at_max_pending(self):
        """With the flusher parked, the queue bound fails fast."""
        manager = make_manager()

        async def scenario():
            # never started: nothing drains the queue, so the bound is
            # hit deterministically
            batcher = MicroBatcher(manager, max_pending=4)
            waiters = [asyncio.ensure_future(batcher.submit("a", "e"))
                       for _ in range(4)]
            await asyncio.sleep(0)           # let them enqueue
            with pytest.raises(OverloadedError) as excinfo:
                await batcher.submit("a", "e")
            assert excinfo.value.pending == 4
            assert excinfo.value.limit == 4
            assert batcher.stats()["overloaded"] == 1
            assert batcher.queue_depth == 4
            await batcher.close(drain=True)  # resolve the waiters
            return await asyncio.gather(*waiters)

        answers = asyncio.run(scenario())
        assert answers == [(0, True)] * 4

    def test_submit_after_close_is_refused(self):
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager)
            await batcher.start()
            await batcher.close()
            with pytest.raises(ServiceError):
                await batcher.submit("a", "e")
            with pytest.raises(ServiceError):
                batcher.submit_many([("a", "e")])

        asyncio.run(scenario())

    def test_close_without_drain_fails_pending(self):
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager, max_pending=8)
            waiter = asyncio.ensure_future(batcher.submit("a", "e"))
            await asyncio.sleep(0)
            await batcher.close(drain=False)
            with pytest.raises(ServiceError):
                await waiter

        asyncio.run(scenario())

    def test_rejects_silly_limits(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            MicroBatcher(manager, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(manager, max_pending=0)
