"""The metric catalogue: every span, counter and gauge the library emits.

``docs/OBSERVABILITY.md`` renders this catalogue as the user-facing
reference, and ``tests/test_docs.py`` checks the two against each other
in both directions, so a new instrumentation site must be registered
here (and documented) before it can ship.

Names may contain placeholders — ``{level}`` for a stratum number,
``{method}`` / ``{algorithm}`` for a benchmark method label — which
:func:`is_known_metric` expands when validating a concrete emission.
Span paths compose hierarchically (``bench/build/ours/labeling``), so
validation matches the catalogue name against the *suffix* of a path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["MetricSpec", "CATALOG", "catalog_names", "catalog_unit",
           "is_known_metric"]

_PLACEHOLDERS = {
    "{level}": r"\d+",
    "{method}": r"[^/]+",
    "{algorithm}": r"[^/]+",
    "{bucket}": r"[a-z0-9-]+",
    "{class}": r"[a-z_]+",
    # engine names are kebab-case, optionally behind the "observed:"
    # wrapper prefix (repro.engine.registry.OBSERVED_PREFIX)
    "{engine}": r"(?:observed:)?[a-z0-9-]+",
    "{observer}": r"[a-z0-9-]+",
    # wire-verb names are snake_case (add_edge, remove_node, ...)
    "{verb}": r"[a-z_]+",
}


@dataclass(frozen=True)
class MetricSpec:
    """One catalogued metric."""

    name: str      #: catalogue name, possibly with placeholders
    kind: str      #: "span" | "counter" | "gauge" | "histogram"
    unit: str      #: "seconds", "count", ...
    emitted: str   #: one line: which code path emits it, and when


CATALOG: tuple[MetricSpec, ...] = (
    # -- spans (units: seconds; aggregated count/total/min/max) -------
    MetricSpec("condense", "span", "seconds",
               "ChainIndex.build — Tarjan SCC condensation of the "
               "input graph"),
    MetricSpec("stratify", "span", "seconds",
               "stratify() — level peeling plus the C_j/P_j link sets"),
    MetricSpec("matching/level-{level}", "span", "seconds",
               "phase 1, once per stratum: bipartite construction, "
               "Hopcroft-Karp, virtual-node spawning for the level "
               "whose bottoms are V_{level}"),
    MetricSpec("resolution", "span", "seconds",
               "phase 2 — transactional virtual-node resolution"),
    MetricSpec("stitch", "span", "seconds",
               "tail-to-head stitch pass; only when a split occurred"),
    MetricSpec("labeling", "span", "seconds",
               "build_labeling() — the reverse-topological index-"
               "sequence merge"),
    MetricSpec("persist/save", "span", "seconds",
               "save_index() — JSON serialisation of a built index"),
    MetricSpec("persist/load", "span", "seconds",
               "load_index() — parse plus validation"),
    MetricSpec("maintenance/rebuild", "span", "seconds",
               "DynamicChainIndex construction and rebuild()"),
    MetricSpec("bench/build/{method}", "span", "seconds",
               "bench harness — full index build of one method"),
    MetricSpec("bench/cover/{method}", "span", "seconds",
               "chain-cover ablation — decomposition only"),
    MetricSpec("bench/matching/{algorithm}", "span", "seconds",
               "matching ablation — one maximum-matching run"),
    MetricSpec("bench/query_batch", "span", "seconds",
               "bench harness — one timed batch of queries"),
    MetricSpec("service/request", "span", "seconds",
               "ReachabilityService — handling of one wire request "
               "(parse to response)"),
    MetricSpec("service/swap", "span", "seconds",
               "IndexManager — one rebuild-and-swap: pack a static "
               "ChainIndex from the shadow's graph and publish it"),
    MetricSpec("engine/build/{engine}", "span", "seconds",
               "EngineSpec.build — construction of one registered "
               "engine (composite builds nest one per component)"),
    MetricSpec("observers/prepare/{observer}", "span", "seconds",
               "ObserverChain.wrap — table build of one observer "
               "(also on re-prepare after a write)"),
    # -- counters (units: count unless noted) -------------------------
    MetricSpec("matching/pairs", "counter", "count",
               "phase 1 — matched pairs, summed over the levels"),
    MetricSpec("matching/bfs_rounds", "counter", "count",
               "hopcroft_karp() — BFS phases run"),
    MetricSpec("matching/augmentations", "counter", "count",
               "hopcroft_karp() — augmenting paths applied"),
    MetricSpec("build/chains", "counter", "count",
               "ChainIndex.build — chains in the final decomposition "
               "(any method; one build per session reads directly)"),
    MetricSpec("build/virtual_nodes", "counter", "count",
               "phase 1 — virtual nodes created (Definition 4)"),
    MetricSpec("build/virtual_edges_direct", "counter", "count",
               "phase 1 — inherited real-parent bipartite edges"),
    MetricSpec("build/virtual_edges_s", "counter", "count",
               "phase 1 — rerouting (support-set) bipartite edges"),
    MetricSpec("build/transfers", "counter", "count",
               "phase 2 — alternating-path transfers committed"),
    MetricSpec("build/descents", "counter", "count",
               "phase 2 — tower descents taken"),
    MetricSpec("build/rollbacks", "counter", "count",
               "phase 2 — transactions rolled back"),
    MetricSpec("build/splits", "counter", "count",
               "phase 2 — matched pairs split (no sound realisation)"),
    MetricSpec("build/stitched", "counter", "count",
               "stitch pass — chains re-joined after splits"),
    MetricSpec("build/unanchored", "counter", "count",
               "phase 2 — virtual nodes never matched from above"),
    MetricSpec("labeling/merge_ops", "counter", "count",
               "build_labeling() — (chain, position) candidate merges, "
               "the paper's O(b*e) work unit"),
    MetricSpec("query/answered", "counter", "count",
               "scalar and batch query paths — reachability queries "
               "answered by the static or dynamic index, or by an "
               "ObserverChain in front of one (batch calls count "
               "len(pairs) in one publish)"),
    MetricSpec("query/prefilter_hits", "counter", "count",
               "scalar and batch query paths — negative queries "
               "rejected by the O(1) topological-rank/level pre-filter "
               "before any binary search; the observer chain counts "
               "its topo-interval and level-bound hits here too, so "
               "the attribution survives the lift out of the kernel"),
    MetricSpec("query/probes", "counter", "count",
               "scalar and batch query paths — binary-search probes "
               "(non-reflexive queries surviving the pre-filter)"),
    MetricSpec("maintenance/nodes_added", "counter", "count",
               "DynamicChainIndex.add_node calls"),
    MetricSpec("maintenance/edges_added", "counter", "count",
               "DynamicChainIndex.add_edge — edges actually inserted"),
    MetricSpec("maintenance/label_updates", "counter", "count",
               "DynamicChainIndex.add_edge — ancestor labels changed "
               "by the upward worklist pass (TolIndex.add_edge counts "
               "its propagated label entries here too)"),
    MetricSpec("maintenance/edges_removed", "counter", "count",
               "TolIndex.remove_edge and IndexManager.remove_edge — "
               "edges actually deleted from the served graph"),
    MetricSpec("maintenance/nodes_removed", "counter", "count",
               "TolIndex.remove_node and IndexManager.remove_node — "
               "nodes deleted along with their incident edges"),
    MetricSpec("service/requests", "counter", "count",
               "ReachabilityService — wire requests received (any op)"),
    MetricSpec("service/batches", "counter", "count",
               "MicroBatcher — coalesced batches handed to a kernel "
               "call (flushes plus inline query_batch requests)"),
    MetricSpec("service/batch_size/{bucket}", "counter", "count",
               "MicroBatcher — batch-size histogram: batches whose "
               "size fell in the bucket (le-1, le-4, le-16, le-64, "
               "le-256, inf)"),
    MetricSpec("service/overloaded", "counter", "count",
               "MicroBatcher.submit — queries rejected by the bounded "
               "queue (the explicit backpressure path)"),
    MetricSpec("service/writes", "counter", "count",
               "IndexManager — writes (inserts and removals) absorbed "
               "by the shadow"),
    MetricSpec("service/writes/{verb}", "counter", "count",
               "IndexManager — the same writes, broken down by wire "
               "verb (add_edge, add_node, remove_edge, remove_node)"),
    MetricSpec("service/swaps", "counter", "count",
               "IndexManager — snapshots promoted by rebuild-and-swap"),
    MetricSpec("service/reattach", "counter", "count",
               "WorkerPool — segment re-attaches completed by workers "
               "after an epoch publish (one per worker per swap)"),
    MetricSpec("service/capture_records", "counter", "count",
               "RequestCapture — wire requests admitted into the "
               "journal ring (serve --capture, after sampling)"),
    MetricSpec("service/capture_dropped", "counter", "count",
               "RequestCapture — oldest journal records evicted when "
               "the bounded ring overflowed"),
    MetricSpec("slo/breaches", "counter", "count",
               "SloTracker.evaluate — objectives newly found "
               "non-compliant over the slow window (each breach event "
               "also lands in the bounded breach log)"),
    MetricSpec("engine/queries/{engine}", "counter", "count",
               "engine adapters — queries answered through the engine "
               "seam (batch calls count len(pairs) in one publish)"),
    MetricSpec("engine/cross_rejects", "counter", "count",
               "CompositeEngine — pairs answered False from the "
               "partition map alone (different weak components)"),
    MetricSpec("observers/hit/{observer}", "counter", "count",
               "ObserverChain — queries settled in O(1) by the named "
               "observer (plus the chain's own 'reflexive' bucket for "
               "same-node/same-SCC pairs)"),
    MetricSpec("observers/miss", "counter", "count",
               "ObserverChain — queries every observer passed on, "
               "answered by the wrapped engine's index instead"),
    # -- gauges -------------------------------------------------------
    MetricSpec("build/levels", "gauge", "levels",
               "stratify() — the stratification height h"),
    MetricSpec("build/components", "gauge", "components",
               "ChainIndex.build — SCC count of the input"),
    MetricSpec("matching/level-{level}/pairs", "gauge", "count",
               "phase 1 — matched pairs at one level"),
    MetricSpec("index/size_words", "gauge", "16-bit words",
               "ChainIndex.build — label size, the paper's table unit"),
    MetricSpec("index/label_bytes", "gauge", "bytes",
               "ChainIndex.build — in-memory label-column footprint "
               "under the built codec (packed CSR words, or the "
               "varint blob plus byte offsets when compressed)"),
    MetricSpec("index/label_entries", "gauge", "entries",
               "ChainIndex.build — total (chain, position) index-"
               "sequence entries across all nodes, codec-independent"),
    MetricSpec("service/queue_depth", "gauge", "queries",
               "MicroBatcher — queue depth observed at each flush"),
    MetricSpec("service/epoch", "gauge", "epoch",
               "IndexManager — epoch of the published snapshot"),
    MetricSpec("service/workers", "gauge", "workers",
               "WorkerPool — live worker processes serving the pool "
               "(0 in single-process mode)"),
    MetricSpec("engine/components", "gauge", "components",
               "CompositeEngine.build — weak components partitioned"),
    MetricSpec("dynamic/label_entries", "gauge", "entries",
               "TolIndex — total Lin/Lout label entries after a "
               "build or any maintenance operation"),
    MetricSpec("observers/o1_answer_ratio", "gauge", "ratio",
               "ObserverChain — share of the last scalar call or batch "
               "answered by observers without touching the engine"),
    MetricSpec("slo/compliance_ratio/{class}", "gauge", "ratio",
               "SloTracker.evaluate — share of the class's slow-window "
               "samples inside its objective threshold (min across the "
               "class's objectives; 'availability' counts ok requests)"),
    MetricSpec("slo/burn_rate_fast/{class}", "gauge", "ratio",
               "SloTracker.evaluate — error-budget burn rate over the "
               "fast window (default 5 m); 1.0 = exactly on budget, "
               "max across the class's objectives"),
    MetricSpec("slo/burn_rate_slow/{class}", "gauge", "ratio",
               "SloTracker.evaluate — error-budget burn rate over the "
               "slow window (default 1 h), the breach-verdict window"),
    # -- histograms (units: seconds; log-bucketed distributions) ------
    MetricSpec("service/latency/{class}", "histogram", "seconds",
               "ReachabilityService — end-to-end latency of one query "
               "request, by answer class (positive, negative, "
               "prefilter_hit, batch, error)"),
    MetricSpec("service/request_latency", "histogram", "seconds",
               "ReachabilityService — end-to-end latency of every "
               "wire request, any op"),
    MetricSpec("service/queue_wait", "histogram", "seconds",
               "MicroBatcher — time a queued query waited between "
               "enqueue and its flush"),
    MetricSpec("service/kernel_batch", "histogram", "seconds",
               "MicroBatcher — duration of one coalesced "
               "is_reachable_many kernel call"),
)


def catalog_names() -> set[str]:
    """Every catalogued metric name (placeholders unexpanded)."""
    return {spec.name for spec in CATALOG}


def _compile(name: str) -> re.Pattern:
    pattern = re.escape(name)
    for placeholder, expansion in _PLACEHOLDERS.items():
        pattern = pattern.replace(re.escape(placeholder), expansion)
    return re.compile(r"(?:^|.*/)" + pattern + r"$")


_MATCHERS = [_compile(spec.name) for spec in CATALOG]


def is_known_metric(name: str) -> bool:
    """True when ``name`` instantiates a catalogued metric.

    Accepts hierarchical span paths by matching the catalogue entry
    against the path suffix: ``bench/build/ours/labeling`` is known
    because ``labeling`` is.
    """
    return any(matcher.match(name) for matcher in _MATCHERS)


def catalog_unit(name: str) -> str | None:
    """The catalogued unit of a concrete metric name, else ``None``.

    Used by the Prometheus renderer to suffix ``_seconds`` onto
    time-valued series; placeholder expansion and span-path suffix
    matching follow :func:`is_known_metric`.
    """
    for spec, matcher in zip(CATALOG, _MATCHERS):
        if matcher.match(name):
            return spec.unit
    return None
