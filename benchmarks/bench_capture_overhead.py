"""Disabled-mode overhead gate for the capture/SLO serving hooks.

``docs/WORKLOADS.md`` promises that request capture and SLO tracking
cost nothing when off — their default state.  Off means the serving
path pays exactly three pointer checks (``self.capture is not None``
twice, ``self.slo is not None`` twice) per request.  This benchmark
enforces the promise in process, where TCP noise cannot hide a
regression:

1. ``_ControlService`` copies ``_handle_line`` / ``_finish_query``
   with the hook lines deleted — the serving tail as if the feature
   had never been built;
2. the same pre-encoded request mix is pushed straight through
   ``_handle_line`` on both services, **interleaved** A/B/A/B so
   machine drift hits both sides equally;
3. the gate fails when the hooked **best lap** exceeds the control
   best lap by more than the budget (2 %, ``REPRO_OVERHEAD_LIMIT``).

If the hooked tail in ``repro/service/server.py`` changes shape, the
control copy below must follow — the test asserting identical
responses keeps the two from drifting apart behaviourally.

Run it either way::

    python benchmarks/bench_capture_overhead.py       # standalone
    PYTHONPATH=src python -m pytest benchmarks/bench_capture_overhead.py

``REPRO_BENCH_SCALE`` scales the workload, ``REPRO_OVERHEAD_RUNS``
the interleaved run count, as for the rest of the bench suite.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.graph.generators import sparse_random_dag
except ImportError:  # standalone run without an installed package
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.graph.generators import sparse_random_dag

from repro.obs import OBS  # noqa: E402
from repro.obs.histogram import Histogram  # noqa: E402
from repro.service import IndexManager, ReachabilityService  # noqa: E402
from repro.service.tracing import Trace  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
RUNS = int(os.environ.get("REPRO_OVERHEAD_RUNS", "5"))
LIMIT = float(os.environ.get("REPRO_OVERHEAD_LIMIT", "0.02"))


class _ControlService(ReachabilityService):
    """The serving tail with the capture/SLO hooks compiled out."""

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
        with OBS.span("service/request"):
            response = await self._dispatch_guarded(request, op,
                                                    request_id, trace)
        if trace is not None:
            trace.mark("respond")
            trace.finish()
            self._finish_query(trace, request, response)
        if request_id is not None:
            response["id"] = request_id
        return response

    def _finish_query(self, trace: Trace, request: dict,
                      response: dict) -> None:
        if not response.get("ok"):
            trace.klass = "error"
        elif trace.op == "query_batch":
            trace.klass = "batch"
        elif trace.klass is None:
            trace.klass = self._classify(trace.op, request, response)
        seconds = trace.total_seconds
        histogram = self.class_latency.get(trace.klass)
        if histogram is None:
            histogram = self.class_latency.setdefault(
                trace.klass, Histogram())
        histogram.observe(seconds)
        if OBS.enabled:
            OBS.observe(f"service/latency/{trace.klass}", seconds)
        self.slow_traces.offer(trace)
        if (self.log is not None and self.slow_query_ms is not None
                and 1e3 * seconds >= self.slow_query_ms):
            self.log.log("slow_query", **trace.to_dict())
        if request.get("trace"):
            response["trace"] = trace.to_dict()


def _request_lines(graph, count: int) -> list[bytes]:
    """A deterministic query/batch/ping mix, pre-encoded."""
    import random

    rng = random.Random(17)
    nodes = sorted(graph.nodes(), key=str)
    lines = []
    for index in range(count):
        if index % 16 == 15:
            request: dict = {"op": "ping"}
        elif index % 8 == 7:
            request = {"op": "query_batch",
                       "pairs": [[rng.choice(nodes), rng.choice(nodes)]
                                 for _ in range(8)]}
        else:
            request = {"op": "query", "source": rng.choice(nodes),
                       "target": rng.choice(nodes)}
        lines.append(json.dumps(request).encode("utf-8"))
    return lines


async def _lap(service, lines: list[bytes]) -> float:
    """Seconds to push every line through ``_handle_line`` once."""
    start = time.perf_counter()
    for line in lines:
        await service._handle_line(line)  # noqa: SLF001
    return time.perf_counter() - start


def measure_overhead(scale: float = SCALE, runs: int = RUNS) -> dict:
    """Interleaved hooked-vs-control best laps on one request mix.

    The hook cost being measured is a handful of pointer checks per
    request — far below asyncio scheduling jitter — so the two sides
    are interleaved at ~100-request chunk granularity (order
    alternating chunk to chunk): machine drift and scheduler hiccups
    land on both sides of every back-to-back pair almost equally.  The
    estimator is the median over **all** chunk-pair time ratios —
    dozens of paired samples, so a handful of ruined chunks cannot
    move it.
    """
    nodes = max(200, int(600 * scale))
    graph = sparse_random_dag(nodes, int(nodes * 1.6), seed=11)
    manager = IndexManager.from_graph(graph)
    lines = _request_lines(graph, max(500, int(2000 * scale)))

    passes = max(9, 3 * runs)
    chunks = [lines[i:i + 100] for i in range(0, len(lines), 100)]
    hooked_passes: list[float] = []
    control_passes: list[float] = []

    async def run() -> None:
        hooked = ReachabilityService(manager)  # hooks off
        control = _ControlService(manager)
        await hooked.batcher.start()
        await control.batcher.start()
        try:
            for service in (hooked, control):     # warm both sides
                await _lap(service, lines)
            for index in range(passes):
                hooked_total = control_total = 0.0
                for offset, chunk in enumerate(chunks):
                    order = ((hooked, control)
                             if (index + offset) % 2
                             else (control, hooked))
                    laps = {}
                    for service in order:
                        laps[service is hooked] = \
                            await _lap(service, chunk)
                    hooked_total += laps[True]
                    control_total += laps[False]
                    ratios.append(laps[True] / laps[False])
                hooked_passes.append(hooked_total)
                control_passes.append(control_total)
        finally:
            await hooked.batcher.close()
            await control.batcher.close()

    ratios: list[float] = []
    asyncio.run(run())
    return {
        "requests": len(lines),
        "passes": passes,
        "pair_samples": len(ratios),
        "hooked_passes": hooked_passes,
        "control_passes": control_passes,
        "hooked_median": statistics.median(hooked_passes),
        "control_median": statistics.median(control_passes),
        "overhead": statistics.median(ratios) - 1.0,
    }


def test_control_answers_identically():
    """Anti-drift: both tails must produce the same responses."""
    graph = sparse_random_dag(120, 200, seed=11)
    manager = IndexManager.from_graph(graph)
    lines = _request_lines(graph, 64)

    async def collect(service) -> list[dict]:
        await service.batcher.start()
        try:
            return [await service._handle_line(line)  # noqa: SLF001
                    for line in lines]
        finally:
            await service.batcher.close()

    hooked = asyncio.run(collect(ReachabilityService(manager)))
    control = asyncio.run(collect(_ControlService(manager)))
    assert hooked == control


def test_capture_disabled_overhead_stays_under_budget():
    result = measure_overhead()
    print(f"\ncontrol {result['control_median']:.4f} s vs hooked "
          f"{result['hooked_median']:.4f} s -> "
          f"{100 * result['overhead']:+.2f} % (budget "
          f"{100 * LIMIT:.0f} %)")
    assert result["overhead"] <= LIMIT, (
        f"capture/SLO disabled-mode overhead "
        f"{100 * result['overhead']:+.2f} % exceeds the "
        f"{100 * LIMIT:.0f} % budget")


def main() -> int:
    result = measure_overhead()
    print(json.dumps(result, indent=2))
    over = result["overhead"] > LIMIT
    print(f"overhead {100 * result['overhead']:+.2f} % "
          f"({'FAIL' if over else 'ok'}, budget {100 * LIMIT:.0f} %)")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
