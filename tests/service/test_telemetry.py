"""Serving-path telemetry: traces, class histograms, exposition, logs.

Covers the v2 telemetry acceptance criteria end to end: a ``"trace":
true`` query echoes a stage breakdown whose per-stage durations sum to
no more than the total; the Prometheus side listener serves text the
standard library alone can scrape and parse; answer classes land in
the right always-on histograms; slow queries and lifecycle events hit
the structured log.
"""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro import DiGraph
from repro.service import (
    IndexManager,
    ServiceClient,
    SlowTraceRing,
    Trace,
    start_in_thread,
)

from tests.conftest import PAPER_FIG1_EDGES

CLASSES = {"positive", "negative", "prefilter_hit", "batch"}


@pytest.fixture
def telemetry_service():
    manager = IndexManager.from_graph(
        DiGraph.from_edges(PAPER_FIG1_EDGES))
    log = io.StringIO()
    with start_in_thread(manager, port=0, metrics_port=0, log=log,
                         slow_query_ms=0.0) as handle:
        handle.log_stream = log
        yield handle


@pytest.fixture
def client(telemetry_service):
    host, port = telemetry_service.address
    with ServiceClient(host, port) as client:
        yield client


def log_records(handle) -> list:
    return [json.loads(line)
            for line in handle.log_stream.getvalue().splitlines()]


class TestTracing:
    def test_traced_query_echoes_a_stage_breakdown(self, client):
        epoch, reachable, trace = client.query_traced("a", "e")
        assert (epoch, reachable) == (0, True)
        assert trace["trace_id"].startswith("q-")
        assert trace["op"] == "query"
        assert trace["epoch"] == 0
        stages = [entry["stage"] for entry in trace["stages"]]
        assert stages[0] == "accept"
        assert stages[-1] == "respond"
        assert "enqueue" in stages and "flush" in stages
        assert "kernel" in stages
        # per-stage durations never overshoot the request total
        assert all(entry["ms"] >= 0.0 for entry in trace["stages"])
        stage_sum = sum(entry["ms"] for entry in trace["stages"])
        assert stage_sum <= trace["total_ms"]

    def test_accept_mark_carries_queue_depth_and_epoch(self, client):
        _, _, trace = client.query_traced("a", "e")
        accept = trace["stages"][0]
        assert accept["queue_depth"] >= 0
        assert accept["epoch"] == 0

    def test_untraced_responses_stay_lean(self, client):
        response = client.call(
            {"op": "query", "source": "a", "target": "e"})
        assert "trace" not in response

    def test_batch_queries_trace_too(self, client):
        response = client.call({"op": "query_batch",
                                "pairs": [["a", "e"], ["e", "a"]],
                                "trace": True})
        trace = response["trace"]
        assert trace["op"] == "query_batch"
        assert trace["class"] == "batch"

    def test_trace_unit_stage_deltas(self):
        trace = Trace("query")
        trace.mark("accept")
        trace.mark("respond")
        trace.finish()
        breakdown = trace.to_dict()
        assert [entry["stage"] for entry in breakdown["stages"]] \
            == ["accept", "respond"]
        assert sum(entry["ms"] for entry in breakdown["stages"]) \
            <= breakdown["total_ms"]

    def test_slow_trace_ring_keeps_the_slowest(self):
        ring = SlowTraceRing(capacity=2)
        for seconds in (0.010, 0.030, 0.020, 0.001):
            trace = Trace("query")
            trace.total_seconds = seconds
            ring.offer(trace)
        totals = [entry["total_ms"] for entry in ring.snapshot()]
        assert totals == [30.0, 20.0]


class TestClassification:
    def test_positive_negative_cache_and_batch_classes(self, client):
        client.query("a", "e")               # positive
        client.query("a", "e")               # a repeat: positive again
        client.query("e", "a")               # some negative flavour
        client.query_batch([("a", "e"), ("f", "i")])
        stats = client.stats()
        latency = stats["latency"]
        assert set(latency) <= CLASSES
        assert latency["positive"]["count"] == 2
        assert latency["batch"]["count"] == 1
        assert (latency.get("negative", {"count": 0})["count"]
                + latency.get("prefilter_hit", {"count": 0})["count"]
                >= 1)

    def test_prefilter_hit_class(self, telemetry_service, client):
        backend = telemetry_service.service.manager.snapshot.backend
        nodes = [source for source, _ in PAPER_FIG1_EDGES]
        pair = next(
            ((source, target) for source in nodes for target in nodes
             if backend.prefilter_rejects(source, target)), None)
        assert pair is not None, "no prefilter-rejected pair in Fig. 1"
        _, reachable, trace = client.query_traced(*pair)
        assert reachable is False
        assert trace["class"] == "prefilter_hit"

    def test_repeat_query_is_settled_by_the_kernel(self, client):
        client.query("a", "e")
        _, reachable, trace = client.query_traced("a", "e")
        assert reachable is True
        assert trace["class"] == "positive"
        stages = [entry["stage"] for entry in trace["stages"]]
        assert "kernel" in stages
        assert "cache" not in stages


class TestStats:
    def test_histogram_percentiles_and_slow_traces(self, client):
        for _ in range(4):
            client.query("a", "e")
        stats = client.stats()
        server = stats["server"]
        assert server["p50_ms"] <= server["p99_ms"] \
            <= server["p999_ms"]
        assert stats["batching"]["queue_wait"]["count"] >= 1
        assert stats["batching"]["kernel_batch"]["count"] >= 1
        slow = stats["slow_traces"]
        assert slow and all(entry["trace_id"].startswith("q-")
                            for entry in slow)
        totals = [entry["total_ms"] for entry in slow]
        assert totals == sorted(totals, reverse=True)


class TestExposition:
    def test_metrics_verb_returns_the_document(self, client):
        client.query("a", "e")
        text = client.metrics()
        assert "# TYPE repro_service_request_latency_seconds " \
               "histogram" in text
        assert "repro_service_requests_total" in text
        assert "repro_service_epoch 0" in text

    def test_http_scrape_parses_with_the_stdlib(self, telemetry_service,
                                                client):
        """Acceptance criterion: curl-able endpoint whose histogram a
        stdlib-only client can scrape and parse."""
        client.query("a", "e")
        client.query("e", "a")
        host, port = telemetry_service.service.metrics_address
        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0) as reply:
            assert reply.status == 200
            assert reply.headers["Content-Type"].startswith(
                "text/plain")
            text = reply.read().decode("utf-8")
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        base = "repro_service_request_latency_seconds"
        buckets = {name: value for name, value in samples.items()
                   if name.startswith(base + "_bucket")}
        assert buckets, "no _bucket series in the scrape"
        inf = buckets[base + '_bucket{le="+Inf"}']
        assert inf == samples[base + "_count"] >= 2
        assert all(value <= inf for value in buckets.values())
        assert samples[base + "_sum"] > 0.0
        # the always-on service counters ride along
        assert samples["repro_service_requests_total"] >= 2

    def test_http_unknown_path_is_404(self, telemetry_service, client):
        host, port = telemetry_service.service.metrics_address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}/nope",
                                   timeout=10.0)
        assert excinfo.value.code == 404


class TestStructuredLogs:
    def test_lifecycle_and_slow_query_events(self, telemetry_service,
                                             client):
        client.query("a", "e")
        client.reload(force=True)
        records = log_records(telemetry_service)
        kinds = [record["event"] for record in records]
        assert kinds[0] == "listening"
        assert "swap_start" in kinds and "swap_finish" in kinds
        # slow_query_ms=0.0 makes every query slow by definition
        slow = next(record for record in records
                    if record["event"] == "slow_query")
        assert slow["trace_id"].startswith("q-")
        assert slow["total_ms"] >= 0.0
        assert slow["stages"][0]["stage"] == "accept"
        swap_finish = next(record for record in records
                           if record["event"] == "swap_finish")
        assert swap_finish["epoch"] == 1

    def test_drain_events_on_shutdown(self):
        manager = IndexManager.from_graph(
            DiGraph.from_edges(PAPER_FIG1_EDGES))
        log = io.StringIO()
        with start_in_thread(manager, port=0, log=log) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                client.ping()
        kinds = [json.loads(line)["event"]
                 for line in log.getvalue().splitlines()]
        assert "drain_start" in kinds
        assert kinds[-1] == "drain_finish"
