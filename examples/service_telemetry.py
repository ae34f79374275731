"""Serving-path telemetry: traces, histograms, Prometheus, logs.

Stands the reachability service up in-process (its own event loop on a
daemon thread), fires a small mixed workload at it, and then reads the
telemetry back every way the service exposes it:

* a per-request **trace** echoed by ``"trace": true``,
* per answer-class **latency histograms** from the ``stats`` verb,
* the **Prometheus text endpoint**, scraped with nothing but urllib,
* the **structured JSON-lines log** (slow queries + lifecycle events).

Run:  python examples/service_telemetry.py
"""

import io
import json
import urllib.request

from repro import DiGraph
from repro.service import IndexManager, ServiceClient, start_in_thread


def main() -> None:
    # The paper's Fig. 1(a) DAG behind a live service.
    graph = DiGraph.from_edges([
        ("a", "b"), ("a", "c"),
        ("b", "c"), ("b", "i"),
        ("c", "d"), ("c", "e"),
        ("f", "b"), ("f", "g"),
        ("g", "d"), ("g", "h"),
        ("h", "e"), ("h", "i"),
    ])
    manager = IndexManager.from_graph(graph)
    log = io.StringIO()              # a real deployment passes a path
    with start_in_thread(manager, port=0, metrics_port=0, log=log,
                         slow_query_ms=0.0) as handle:
        host, port = handle.address
        metrics_host, metrics_port = handle.service.metrics_address
        print(f"service on {host}:{port}, "
              f"metrics on {metrics_host}:{metrics_port}")

        with ServiceClient(host, port) as client:
            # a mixed workload: positives, negatives, a repeat, and
            # one coalesced batch
            client.query("a", "e")
            client.query("e", "a")
            client.query_batch([("f", "i"), ("d", "a"), ("g", "e")])
            client.query("a", "e")                  # a repeat

            # 1. the per-request trace, echoed on demand
            _, reachable, trace = client.query_traced("a", "e")
            print(f"\ntraced query a->e (reachable={reachable}, "
                  f"class={trace['class']}, "
                  f"total={trace['total_ms']:.3f} ms):")
            for stage in trace["stages"]:
                extras = {key: value for key, value in stage.items()
                          if key not in ("stage", "ms")}
                note = f"  {extras}" if extras else ""
                print(f"  {stage['stage']:<8} "
                      f"{stage['ms']:8.3f} ms{note}")

            # 2. per answer-class latency histograms from `stats`
            stats = client.stats()
            print("\nlatency by answer class (from streaming "
                  "histograms):")
            for klass, summary in sorted(stats["latency"].items()):
                print(f"  {klass:<13} n={summary['count']:<3} "
                      f"p50={1e3 * summary['p50']:.3f} ms  "
                      f"p99={1e3 * summary['p99']:.3f} ms")
            slowest = stats["slow_traces"][0]
            print(f"slowest retained trace: {slowest['trace_id']} "
                  f"({slowest['total_ms']:.3f} ms, "
                  f"class={slowest['class']})")

        # 3. the Prometheus endpoint, scraped with the stdlib alone
        url = f"http://{metrics_host}:{metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=10.0) as reply:
            text = reply.read().decode("utf-8")
        latency_lines = [line for line in text.splitlines()
                         if line.startswith(
                             "repro_service_request_latency_seconds")]
        print(f"\nPrometheus scrape of {url}: "
              f"{len(text.splitlines())} lines; request-latency "
              f"series:")
        for line in latency_lines[-4:]:
            print(f"  {line}")

    # 4. the structured log (the context exit drained the service)
    records = [json.loads(line)
               for line in log.getvalue().splitlines()]
    slow_queries = sum(record["event"] == "slow_query"
                      for record in records)
    lifecycle = [record["event"] for record in records
                 if record["event"] != "slow_query"]
    print(f"\nstructured log: {len(records)} events "
          f"({slow_queries} slow-query records at the 0 ms "
          f"threshold)")
    print(f"lifecycle events: {lifecycle}")


if __name__ == "__main__":
    main()
