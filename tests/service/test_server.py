"""End-to-end tests for the NDJSON TCP service.

Each test stands the service up on an ephemeral port via
:func:`start_in_thread` (its own event loop on a daemon thread) and
talks to it with the blocking :class:`ServiceClient` — the same code
path ``repro-graph query --remote`` uses.
"""

import json
import socket
import time

import pytest

from repro import DiGraph
from repro.service import (
    IndexManager,
    RemoteError,
    ServiceClient,
    start_in_thread,
)

from tests.conftest import PAPER_FIG1_EDGES


@pytest.fixture
def running_service():
    manager = IndexManager.from_graph(DiGraph.from_edges(PAPER_FIG1_EDGES))
    with start_in_thread(manager, port=0) as handle:
        yield handle


@pytest.fixture
def client(running_service):
    host, port = running_service.address
    with ServiceClient(host, port) as client:
        yield client


def raw_exchange(address: tuple, payload: bytes) -> dict:
    """One raw line on a fresh socket, for malformed-input tests."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())


class TestVerbs:
    def test_ping(self, client):
        assert client.ping() == 0

    def test_query(self, client):
        assert client.query("a", "e") == (0, True)
        assert client.query("e", "a") == (0, False)

    def test_query_batch_preserves_order(self, client):
        pairs = [("a", "e"), ("e", "a"), ("f", "i"), ("d", "d")]
        epoch, answers = client.query_batch(pairs)
        assert epoch == 0
        assert answers == [True, False, True, True]

    def test_write_then_reload_round_trip(self, client):
        ack = client.add_edge("e", "zz")
        assert ack["added"] is True
        assert ack["pending_writes"] == 1
        assert ack["epoch"] == 0             # invisible until the swap
        with pytest.raises(RemoteError) as excinfo:
            client.query("a", "zz")
        assert excinfo.value.code == "unknown_node"
        assert client.reload() == 1
        assert client.query("a", "zz") == (1, True)

    def test_add_node(self, client):
        assert client.add_node("island")["added"] is True
        assert client.add_node("island")["added"] is False

    def test_reload_without_writes_keeps_the_epoch(self, client):
        assert client.reload() == 0
        assert client.reload(force=True) == 1

    def test_stats_shape(self, client):
        client.query("a", "e")
        stats = client.stats()
        assert stats["server"]["requests"] >= 1
        assert stats["index"]["epoch"] == 0
        assert stats["batching"]["batches"] >= 1

    def test_request_id_is_echoed(self, running_service, client):
        response = client.call({"op": "ping", "id": 42})
        assert response["id"] == 42


class TestErrors:
    def test_unknown_node_names_the_role(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.query("nope", "a")
        assert excinfo.value.code == "unknown_node"
        assert "source" in str(excinfo.value)

    def test_cycle_closing_edge(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.add_edge("e", "a")
        assert excinfo.value.code == "cycle"

    def test_unknown_endpoint_without_create(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.add_edge("a", "nope", create=False)
        assert excinfo.value.code == "unknown_node"

    def test_unknown_op(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.call({"op": "frobnicate"})
        assert excinfo.value.code == "bad_request"

    def test_missing_field(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.call({"op": "query", "source": "a"})
        assert excinfo.value.code == "bad_request"

    def test_malformed_pairs(self, client):
        for pairs in ([["a"]],                  # a one-element pair
                      "a,e",                    # not a list at all
                      [["a", "e", "f"]],        # a three-element pair
                      [{"source": "a", "target": "e"}]):  # a dict pair
            with pytest.raises(RemoteError) as excinfo:
                client.call({"op": "query_batch", "pairs": pairs})
            assert excinfo.value.code == "bad_request"
            assert "list of [source, target] pairs" in str(excinfo.value)

    def test_unhashable_node_values_are_bad_requests(self, client):
        """JSON containers are rejected at the request boundary; if one
        reached the batcher its TypeError would poison the flush task
        and hang every later query until the request timeout."""
        for request in ({"op": "query", "source": [1], "target": "a"},
                        {"op": "query", "source": "a", "target": {}},
                        {"op": "query_batch", "pairs": [[["a"], "e"]]},
                        {"op": "add_edge", "source": [1], "target": "a"},
                        {"op": "add_node", "node": {"a": 1}}):
            with pytest.raises(RemoteError) as excinfo:
                client.call(request)
            assert excinfo.value.code == "bad_request"
        # the flush loop survived: single queries still resolve
        assert client.query("a", "e") == (0, True)

    def test_oversized_line_gets_an_error_response(self, running_service):
        from repro.service.server import MAX_LINE_BYTES
        payload = (b'{"op":"ping","pad":"' + b"x" * MAX_LINE_BYTES
                   + b'"}\n')
        response = raw_exchange(running_service.address, payload)
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "exceeds" in response["message"]

    def test_invalid_json_line(self, running_service):
        response = raw_exchange(running_service.address,
                                b"this is not json\n")
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_non_object_request(self, running_service):
        response = raw_exchange(running_service.address, b"[1,2,3]\n")
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_writes_unsupported_on_cyclic_graph(self):
        cyclic = DiGraph.from_edges([("a", "b"), ("b", "a")])
        manager = IndexManager.from_graph(cyclic)
        with start_in_thread(manager, port=0) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                assert client.query("a", "b") == (0, True)
                with pytest.raises(RemoteError) as excinfo:
                    client.add_edge("b", "c")
                assert excinfo.value.code == "unsupported"

    def test_errors_are_counted_but_do_not_kill_the_connection(
            self, client):
        with pytest.raises(RemoteError):
            client.call({"op": "frobnicate"})
        # the same connection keeps working afterwards
        assert client.query("a", "e") == (0, True)
        assert client.stats()["server"]["errors"] >= 1


class TestLifecycle:
    def test_graceful_drain_refuses_late_clients(self):
        manager = IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES))
        handle = start_in_thread(manager, port=0)
        host, port = handle.address
        with ServiceClient(host, port) as client:
            assert client.query("a", "e") == (0, True)
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_two_services_bind_distinct_ephemeral_ports(self):
        managers = [IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES)) for _ in range(2)]
        with start_in_thread(managers[0], port=0) as one:
            with start_in_thread(managers[1], port=0) as two:
                assert one.address[1] != two.address[1]

    def test_from_address_parsing(self):
        with pytest.raises(ValueError):
            ServiceClient.from_address("no-port-here")
        with pytest.raises(ValueError):
            ServiceClient.from_address(":7431")


class TestOverload:
    def test_overloaded_wire_error_under_pressure(self):
        """A tiny queue + a kernel call that blocks the event loop
        forces at least one explicit ``overloaded`` response instead of
        silent buffering."""
        manager = IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES))
        real_query_many = manager.query_many

        def slow_query_many(pairs):
            # holds the loop, so the pipelined requests queue behind it
            time.sleep(0.05)
            return real_query_many(pairs)

        manager.query_many = slow_query_many
        with start_in_thread(manager, port=0, max_pending=2,
                             max_batch=2) as handle:
            host, port = handle.address
            clients = [ServiceClient(host, port) for _ in range(8)]
            try:
                payload = json.dumps({"op": "query", "source": "a",
                                      "target": "e"}).encode() + b"\n"
                for client in clients:
                    client._sock.sendall(payload)
                outcomes = []
                for client in clients:
                    response = json.loads(client._reader.readline())
                    outcomes.append(response.get("error",
                                                 response.get("ok")))
            finally:
                for client in clients:
                    client.close()
        assert "overloaded" in outcomes         # explicit backpressure
        assert True in outcomes                 # but the queue itself served
        stats = handle.service.batcher.stats()
        assert stats["overloaded"] >= 1
