"""Concurrency races: queries vs ``add_edge`` vs snapshot swap.

The serving layer's central claim is epoch-exactness: every answer is
correct for the graph version its epoch names, even while writes land
and snapshots swap underneath the readers.  These tests hammer the
manager (and the full TCP stack) from multiple threads, record every
``(epoch, pair, answer)`` observed, and afterwards BFS-validate each
answer against the exact graph version that epoch claims.
"""

import threading
import time

from repro import DiGraph
from repro.service import IndexManager, ServiceClient, start_in_thread

from tests.conftest import PAPER_FIG1_EDGES, bfs_reachable

# pairs over the base Fig. 1 nodes, valid at every epoch; ("d", "i")
# and ("c", "i") flip from False to True when the writer adds d -> i
BASE_PAIRS = [
    ("a", "e"), ("e", "a"), ("f", "i"), ("d", "i"),
    ("c", "i"), ("g", "e"), ("i", "a"), ("b", "d"),
]


def graph_at(edge_log: dict, epoch: int) -> DiGraph:
    """Reconstruct the graph version a given epoch names.

    ``edge_log`` maps each epoch to the edges that became visible *at*
    that epoch; version E is the base graph plus every edge whose
    epoch is <= E.
    """
    graph = DiGraph.from_edges(PAPER_FIG1_EDGES)
    for visible_at in sorted(edge_log):
        if visible_at > epoch:
            break
        for tail, head in edge_log[visible_at]:
            for node in (tail, head):
                if node not in graph:
                    graph.add_node(node)
            graph.add_edge(tail, head)
    return graph


def validate(observations, edge_log) -> set:
    """BFS-check every observation; returns the set of epochs seen."""
    graphs = {}
    epochs_seen = set()
    for epoch, pair, answer in observations:
        if epoch not in graphs:
            graphs[epoch] = graph_at(edge_log, epoch)
        assert answer == bfs_reachable(graphs[epoch], *pair), (
            f"epoch {epoch}: {pair} answered {answer}, but BFS on the "
            f"graph version that epoch names disagrees")
        epochs_seen.add(epoch)
    return epochs_seen


class TestManagerRace:
    def test_static_swaps_never_tear_reader_answers(self):
        """Readers race 6 rebuild-and-swaps; every batch validates."""
        manager = IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES))
        edge_log: dict = {}
        observations = []
        lock = threading.Lock()
        done = threading.Event()
        failures = []

        def writer():
            try:
                for round_number in range(6):
                    batch = [("e", f"w{round_number}")]
                    if round_number == 2:
                        batch.append(("d", "i"))
                    for tail, head in batch:
                        manager.add_edge(tail, head, create=True)
                    snapshot = manager.swap()
                    # everything pending became visible at this epoch
                    edge_log[snapshot.epoch] = batch
                    time.sleep(0.01)     # let readers observe this epoch
            except BaseException as exc:  # propagated to the main thread
                failures.append(exc)
            finally:
                done.set()

        def reader():
            local = []
            try:
                while not done.is_set():
                    epoch, answers = manager.query_many(BASE_PAIRS)
                    local.extend(
                        (epoch, pair, answer)
                        for pair, answer in zip(BASE_PAIRS, answers))
            except BaseException as exc:
                failures.append(exc)
            with lock:
                observations.extend(local)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in readers:
            thread.join(timeout=60)
        assert not failures, failures
        assert manager.epoch == 6
        assert observations
        epochs_seen = validate(observations, edge_log)
        # the readers genuinely overlapped the swaps: answers from
        # more than one graph version were recorded
        assert len(epochs_seen) >= 2, (
            f"readers only ever saw epochs {epochs_seen}; the race "
            "did not exercise a swap")

    def test_dynamic_writes_are_epoch_exact(self):
        """In dynamic mode every write bumps the epoch; readers must
        see each epoch's exact graph, never a half-applied write."""
        manager = IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES), mode="dynamic")
        edge_log: dict = {}
        observations = []
        lock = threading.Lock()
        done = threading.Event()
        failures = []

        def writer():
            try:
                for round_number in range(12):
                    if round_number == 4:
                        tail, head = "d", "i"
                        manager.add_edge(tail, head)
                    else:
                        tail, head = "e", f"w{round_number}"
                        manager.add_edge(tail, head, create=True)
                    edge_log[manager.epoch] = [(tail, head)]
                    time.sleep(0.005)    # let readers observe this epoch
            except BaseException as exc:
                failures.append(exc)
            finally:
                done.set()

        def reader():
            local = []
            try:
                while not done.is_set():
                    epoch, answers = manager.query_many(BASE_PAIRS)
                    local.extend(
                        (epoch, pair, answer)
                        for pair, answer in zip(BASE_PAIRS, answers))
            except BaseException as exc:
                failures.append(exc)
            with lock:
                observations.extend(local)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in readers:
            thread.join(timeout=60)
        assert not failures, failures
        assert manager.epoch == 12
        assert observations
        validate(observations, edge_log)


class TestFullStackRace:
    def test_remote_queries_race_writes_and_reloads(self):
        """The whole pipe — client, server, batcher, manager — under
        one writer client and several query clients."""
        manager = IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES))
        edge_log: dict = {}
        observations = []
        lock = threading.Lock()
        done = threading.Event()
        failures = []

        with start_in_thread(manager, port=0) as handle:
            host, port = handle.address

            def writer():
                try:
                    with ServiceClient(host, port) as client:
                        for round_number in range(5):
                            batch = [("e", f"w{round_number}")]
                            if round_number == 1:
                                batch.append(("d", "i"))
                            for tail, head in batch:
                                client.add_edge(tail, head)
                            epoch = client.reload()
                            edge_log[epoch] = batch
                except BaseException as exc:
                    failures.append(exc)
                finally:
                    done.set()

            def reader():
                local = []
                try:
                    with ServiceClient(host, port) as client:
                        while not done.is_set():
                            for pair in BASE_PAIRS:
                                epoch, answer = client.query(*pair)
                                local.append((epoch, pair, answer))
                            epoch, answers = client.query_batch(BASE_PAIRS)
                            local.extend(
                                (epoch, pair, answer) for pair, answer
                                in zip(BASE_PAIRS, answers))
                except BaseException as exc:
                    failures.append(exc)
                with lock:
                    observations.extend(local)

            readers = [threading.Thread(target=reader) for _ in range(3)]
            writer_thread = threading.Thread(target=writer)
            for thread in readers:
                thread.start()
            writer_thread.start()
            writer_thread.join(timeout=120)
            for thread in readers:
                thread.join(timeout=120)

        assert not failures, failures
        assert manager.epoch == 5
        assert observations
        epochs_seen = validate(observations, edge_log)
        assert len(epochs_seen) >= 2, (
            f"readers only ever saw epochs {epochs_seen}")
