"""repro.obs — phase-level observability for the reachability pipeline.

A zero-dependency instrumentation layer: hierarchical phase spans,
named counters, gauges and streaming log-bucketed histograms in one
process-wide registry (:data:`OBS`, disabled by default), JSON export
under the ``repro.obs/2`` schema, Prometheus text exposition
(:mod:`repro.obs.promtext`), structured JSON-lines logging
(:mod:`repro.obs.logging`), and an opt-in cProfile hook.  The build
pipeline (condense → stratify → per-level matching → resolution →
labeling), the query path, index persistence, incremental maintenance
and the serving layer all report here, which is what lets measured
cost be attributed to the phases of the paper's ``O(n² + b·n·√b)``
build / ``O(b·e)`` labeling analysis — and, on the serving path, to
the stages of one request (queue wait vs kernel vs swap).

Quick use::

    from repro import ChainIndex, DiGraph, OBS

    with OBS.capture() as metrics:
        ChainIndex.build(DiGraph.from_edges([("a", "b"), ("b", "c")]))
    print(sorted(metrics.spans))     # condense, labeling, matching/...

Every emitted name is registered in :data:`~repro.obs.catalog.CATALOG`
and documented in ``docs/OBSERVABILITY.md``; ``tests/test_docs.py``
keeps the three in lockstep.
"""

from repro.obs.catalog import (
    CATALOG,
    MetricSpec,
    catalog_names,
    catalog_unit,
    is_known_metric,
)
from repro.obs.histogram import RELATIVE_ERROR, SUB_BUCKETS, Histogram
from repro.obs.logging import JsonLinesLogger, open_log
from repro.obs.profiling import maybe_profiled, profiled
from repro.obs.registry import (
    OBS,
    SCHEMA,
    MetricsRegistry,
    Span,
    SpanStats,
    Stopwatch,
)
from repro.obs.slo import (
    Objective,
    SloTracker,
    parse_objective,
    parse_objectives,
)
from repro.obs.summary import percentile, summarize

__all__ = [
    "OBS",
    "SCHEMA",
    "MetricsRegistry",
    "Span",
    "SpanStats",
    "Stopwatch",
    "Histogram",
    "SUB_BUCKETS",
    "RELATIVE_ERROR",
    "JsonLinesLogger",
    "open_log",
    "Objective",
    "SloTracker",
    "parse_objective",
    "parse_objectives",
    "percentile",
    "summarize",
    "CATALOG",
    "MetricSpec",
    "catalog_names",
    "catalog_unit",
    "is_known_metric",
    "profiled",
    "maybe_profiled",
]
