"""Perf smoke for the serving layer: micro-batching vs single queries.

Stands up the TCP reachability service over the Fig. 10 middle sparse
workload and measures sequential single-query, concurrent
(micro-batched) and bulk throughput end to end, writing the
result to ``BENCH_serve.json`` at the repository root so the serving
trajectory has comparable data points across commits.  The ``workers``
section adds the multi-process WorkerPool scaling sweep (2 and 4
workers vs the workers=0 baseline under the same multi-process client
harness) plus the zero-downtime swap probe; its speedup gates are
conditional on ``os.cpu_count()`` because a one-core box cannot show
multi-process speedup.

Run it either way::

    python benchmarks/bench_serve_smoke.py            # standalone
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_smoke.py

``REPRO_BENCH_SCALE`` scales the workload as for the full bench suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

try:
    from repro.bench.benchfile import merge_bench_json
    from repro.bench.serving import batching_gate_failures, serve_engine_smoke
except ImportError:  # standalone run without an installed package
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench.benchfile import merge_bench_json
    from repro.bench.serving import batching_gate_failures, serve_engine_smoke

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def run_smoke(scale: float = SCALE) -> dict:
    """Measure once and write ``BENCH_serve.json``.

    Written through :func:`merge_bench_json`, so top-level sections
    owned by other runners survive a re-run instead of being
    clobbered.
    """
    result = serve_engine_smoke(scale, worker_counts=(2, 4))
    merge_bench_json(OUTPUT, dict(result))
    return result


def test_serve_smoke_writes_bench_json():
    result = run_smoke()
    assert OUTPUT.exists()
    assert result["sequential_qps"] > 0
    assert result["concurrent_qps"] > 0
    assert result["bulk_qps"] > 0
    # concurrent single-query clients share kernel calls, at no cost
    # in throughput against one request at a time
    failures = batching_gate_failures(result)
    assert not failures, f"batching gates failed: {failures}"
    assert result["batching_speedup"] > 0     # recorded, not gated
    # the write burst was promoted by a live rebuild-and-swap
    assert result["swap_count"] >= 1
    assert result["epoch"] >= 1
    # tail latency from the server's streaming histograms
    assert (result["p50_ms"] <= result["p99_ms"] <= result["p999_ms"])
    # exact client-side summary from the shared repro.obs helper
    client = result["client_latency"]
    assert client["count"] >= 32
    assert client["p50"] <= client["p99"] <= client["p999"]
    # per answer-class histogram summaries rode along in stats
    classes = result["latency_classes"]
    assert classes, "no per-class latency summaries recorded"
    assert set(classes) <= {"positive", "negative", "prefilter_hit",
                            "batch"}
    assert all(summary["count"] >= 1 for summary in classes.values())
    # the multi-process scaling sweep ran and the swap lost nothing
    pool = result["workers"]
    assert pool["cpus"] == os.cpu_count()
    assert pool["baseline_qps"] > 0
    assert set(pool["scaling"]) == {"2", "4"}
    assert all(qps > 0 for qps in pool["scaling"].values())
    swap = pool["zero_downtime"]
    assert swap["failures"] == 0, (
        f"queries failed during the live swap: {swap}")
    assert swap["answered"] == swap["queries"]
    assert swap["epoch_after"] > swap["epoch_before"]
    # speedup gates only where the hardware can express a speedup
    if os.cpu_count() >= 2:
        assert pool["speedup"]["2"] >= 1.6, (
            f"2-worker pool only {pool['speedup']['2']:.2f}x baseline")
    if os.cpu_count() >= 4:
        assert pool["speedup"]["4"] >= 3.0, (
            f"4-worker pool only {pool['speedup']['4']:.2f}x baseline")


def main() -> int:
    result = run_smoke()
    width = max(len(key) for key in result)
    for key in sorted(result):
        print(f"{key:<{width}}  {result[key]}")
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
