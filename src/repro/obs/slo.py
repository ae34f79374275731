"""Service-level objectives over the per-class latency histograms.

An SLO here is a declarative sentence about one answer class::

    positive p99 < 2ms
    negative p999 < 1ms
    batch p50 <= 20ms
    availability >= 99.9%

:func:`parse_objective` turns the sentence into an :class:`Objective`;
:class:`SloTracker` evaluates a set of them continuously over rolling
windows fed by the serving path.  The windows are rings of sub-window
cells, each holding one :class:`~repro.obs.histogram.Histogram` per
answer class, so "the last 5 minutes" is an **exact** bucket-count
merge of the cells it spans (:meth:`Histogram.merge` is exact and
associative) — never a decayed approximation.

Per Google-SRE practice the tracker reports **multi-window burn
rates**: how fast each objective is spending its error budget over a
fast window (default 5 m — catches sudden regressions) and a slow
window (default 1 h — catches slow bleeds).  A burn rate of 1.0 means
"exactly on budget"; the conventional page threshold for a 5 m / 1 h
pair is 14.4× on the fast window *and* over-budget on the slow one,
which is the tracker's ``alert`` flag.  Compliance verdicts
(``compliant``, the breach log, the CI gate) are taken over the slow
window.

Latency compliance is counted from the histogram buckets: a sample is
within the objective iff its bucket's upper bound is ≤ the threshold,
so a sample exactly *at* the threshold lands in the bucket above it
and counts as a violation — consistent with the strict ``<`` spelling
and at most one sub-bucket (:data:`~repro.obs.histogram.RELATIVE_ERROR`)
conservative.  An empty window is vacuously compliant with burn 0.0.

Everything is stdlib; the clock is injectable so the window arithmetic
is unit-testable without sleeping.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.histogram import Histogram
from repro.obs.registry import OBS

__all__ = ["Objective", "SloTracker", "parse_objective",
           "parse_objectives", "PERCENTILE_TOKENS"]

#: percentile spellings accepted in an objective, and their fractions.
PERCENTILE_TOKENS = {"p50": 0.50, "p90": 0.90, "p95": 0.95,
                     "p99": 0.99, "p999": 0.999}

_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

_LATENCY_SPEC = re.compile(
    r"^\s*(?P<klass>[a-z_]+)\s+(?P<metric>p\d{2,3})\s*"
    r"(?P<op><=?)\s*(?P<value>\d+(?:\.\d+)?)\s*(?P<unit>ns|us|ms|s)\s*$")
_AVAILABILITY_SPEC = re.compile(
    r"^\s*availability\s*>=\s*(?P<value>\d+(?:\.\d+)?)\s*%\s*$")

#: conventional fast-window burn multiple that should page for a
#: 5 m fast / 1 h slow window pair (Google SRE workbook, table 6-3).
FAST_BURN_ALERT = 14.4


@dataclass(frozen=True)
class Objective:
    """One parsed objective; ``spec`` is the normalised sentence."""

    spec: str       #: normalised source text
    klass: str      #: answer class, or "availability"
    metric: str     #: "p50" | "p99" | ... | "availability"
    threshold: float  #: seconds (latency) or required ratio (availability)
    #: success-ratio target the error budget is measured against:
    #: the percentile fraction for latency (p99 → 0.99), the required
    #: ratio itself for availability.
    target: float
    inclusive: bool = False   #: ``<=`` rather than ``<``


def parse_objective(text: str) -> Objective:
    """Parse one objective sentence (see module docstring for forms)."""
    match = _AVAILABILITY_SPEC.match(text)
    if match:
        ratio = float(match.group("value")) / 100.0
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"availability must be in (0, 100]%: {text!r}")
        return Objective(spec=f"availability >= {match.group('value')}%",
                         klass="availability", metric="availability",
                         threshold=ratio, target=ratio, inclusive=True)
    match = _LATENCY_SPEC.match(text)
    if match is None:
        raise ValueError(
            f"bad objective {text!r}; expected '<class> pNN < <value><unit>'"
            " or 'availability >= <value>%'")
    metric = match.group("metric")
    if metric not in PERCENTILE_TOKENS:
        raise ValueError(
            f"unknown percentile {metric!r} in {text!r}; "
            f"one of {sorted(PERCENTILE_TOKENS)}")
    seconds = (float(match.group("value"))
               * _UNIT_SECONDS[match.group("unit")])
    if seconds <= 0.0:
        raise ValueError(f"threshold must be positive: {text!r}")
    op = match.group("op")
    spec = (f"{match.group('klass')} {metric} {op} "
            f"{match.group('value')}{match.group('unit')}")
    return Objective(spec=spec, klass=match.group("klass"), metric=metric,
                     threshold=seconds,
                     target=PERCENTILE_TOKENS[metric],
                     inclusive=(op == "<="))


def parse_objectives(specs) -> list[Objective]:
    """Parse a list of sentences, passing through parsed objectives."""
    return [spec if isinstance(spec, Objective) else parse_objective(spec)
            for spec in specs]


def _fraction_within(histogram: Histogram, threshold: float,
                     inclusive: bool) -> float:
    """Share of observations within the latency threshold (1.0 if empty).

    Bucket-exact and conservative: a straddling bucket counts as
    violating unless ``inclusive`` and the threshold *is* its upper
    bound.  Zero-valued observations are always within.
    """
    if histogram.count == 0:
        return 1.0
    within = 0
    for upper, count in histogram.buckets():
        if upper < threshold or (inclusive and upper == threshold):
            within += count
    return within / histogram.count


class _Cell:
    """One sub-window: per-class histograms plus ok/error tallies."""

    __slots__ = ("start", "hists", "ok", "errors")

    def __init__(self, start: float) -> None:
        self.start = start
        self.hists: dict[str, Histogram] = {}
        self.ok = 0
        self.errors = 0


class SloTracker:
    """Evaluate objectives over exact rolling histogram windows.

    ``clock`` defaults to :func:`time.monotonic`; tests inject a fake
    to pin the window arithmetic.  ``cell_seconds`` is the sub-window
    granularity — the ring retains enough cells to cover
    ``slow_seconds`` plus one.
    """

    def __init__(self, objectives, *,
                 fast_seconds: float = 300.0,
                 slow_seconds: float = 3600.0,
                 cell_seconds: float | None = None,
                 clock=time.monotonic,
                 max_breaches: int = 256) -> None:
        if fast_seconds <= 0 or slow_seconds < fast_seconds:
            raise ValueError("need 0 < fast_seconds <= slow_seconds")
        self.objectives = parse_objectives(objectives)
        self.fast_seconds = float(fast_seconds)
        self.slow_seconds = float(slow_seconds)
        if cell_seconds is None:
            cell_seconds = max(1.0, self.fast_seconds / 10.0)
        self.cell_seconds = float(cell_seconds)
        capacity = int(self.slow_seconds / self.cell_seconds) + 2
        self._clock = clock
        self._lock = threading.Lock()
        self._started = self._clock()
        self._cells: deque[_Cell] = deque(maxlen=capacity)
        self._cells.append(_Cell(self._started))
        self.breaches: deque[dict] = deque(maxlen=max_breaches)
        self.breach_count = 0
        self._breaching: set[str] = set()   # specs breaching last eval

    # -- feeding ------------------------------------------------------
    def _cell(self) -> _Cell:
        """The current cell, advancing the ring if its slot elapsed."""
        now = self._clock()
        cell = self._cells[-1]
        if now - cell.start >= self.cell_seconds:
            cell = _Cell(now)
            self._cells.append(cell)
        return cell

    def observe(self, klass: str, seconds: float) -> None:
        """Record one settled query's latency under its answer class."""
        with self._lock:
            cell = self._cell()
            histogram = cell.hists.get(klass)
            if histogram is None:
                histogram = cell.hists.setdefault(klass, Histogram())
        histogram.observe(seconds)

    def note_request(self, ok: bool) -> None:
        """Record one wire request's outcome (feeds availability)."""
        with self._lock:
            cell = self._cell()
            if ok:
                cell.ok += 1
            else:
                cell.errors += 1

    def absorb(self, klass: str, histogram: Histogram,
               ok: int = 0, errors: int = 0) -> None:
        """Merge a whole histogram into the current cell (exact).

        How the replay harness and pool aggregation feed a tracker
        from already-collected per-class histograms without replaying
        individual samples.
        """
        with self._lock:
            cell = self._cell()
            mine = cell.hists.get(klass)
            if mine is None:
                mine = cell.hists.setdefault(klass, Histogram())
            cell.ok += ok
            cell.errors += errors
        mine.merge(histogram)

    # -- windows ------------------------------------------------------
    def _window(self, seconds: float | None):
        """Merged ``(hists, ok, errors)`` over the trailing window."""
        now = self._clock()
        merged: dict[str, Histogram] = {}
        ok = errors = 0
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            if seconds is not None and now - cell.start > seconds:
                continue
            ok += cell.ok
            errors += cell.errors
            for klass, histogram in cell.hists.items():
                into = merged.get(klass)
                if into is None:
                    into = merged.setdefault(klass, Histogram())
                into.merge(histogram)
        return merged, ok, errors

    def window_histogram(self, klass: str,
                         seconds: float | None = None) -> Histogram:
        """The exact merged histogram for one class over a window."""
        merged, _, _ = self._window(seconds)
        return merged.get(klass, Histogram())

    # -- evaluation ---------------------------------------------------
    def _judge(self, objective: Objective, hists, ok, errors) -> dict:
        """One objective's verdict over one merged window."""
        if objective.metric == "availability":
            total = ok + errors
            ratio = ok / total if total else 1.0
            budget = 1.0 - objective.target
            burn = ((1.0 - ratio) / budget) if budget > 0 else (
                0.0 if ratio >= 1.0 else float("inf"))
            return {"samples": total, "observed": ratio,
                    "compliance_ratio": ratio,
                    "compliant": ratio >= objective.threshold,
                    "burn_rate": burn}
        histogram = hists.get(objective.klass, Histogram())
        observed = (histogram.percentile(objective.target)
                    if histogram.count else 0.0)
        ratio = _fraction_within(histogram, objective.threshold,
                                 objective.inclusive)
        budget = 1.0 - objective.target
        burn = ((1.0 - ratio) / budget) if budget > 0 else (
            0.0 if ratio >= 1.0 else float("inf"))
        if histogram.count == 0:
            compliant = True                 # vacuous: no traffic
        elif objective.inclusive:
            compliant = observed <= objective.threshold
        else:
            compliant = observed < objective.threshold
        return {"samples": histogram.count, "observed": observed,
                "compliance_ratio": ratio, "compliant": compliant,
                "burn_rate": burn}

    def evaluate(self) -> dict:
        """The full SLO report; also appends breach events and, when
        the OBS registry is enabled, publishes the ``slo/*`` gauges."""
        fast = self._window(self.fast_seconds)
        slow = self._window(self.slow_seconds)
        now = self._clock()
        rows = []
        ratio_by_class: dict[str, float] = {}
        burn_fast_by_class: dict[str, float] = {}
        burn_slow_by_class: dict[str, float] = {}
        for objective in self.objectives:
            fast_verdict = self._judge(objective, *fast)
            slow_verdict = self._judge(objective, *slow)
            alert = (fast_verdict["burn_rate"] >= FAST_BURN_ALERT
                     and slow_verdict["burn_rate"] >= 1.0)
            row = {
                "spec": objective.spec,
                "class": objective.klass,
                "metric": objective.metric,
                "threshold": objective.threshold,
                "samples": slow_verdict["samples"],
                "observed": slow_verdict["observed"],
                "compliance_ratio": slow_verdict["compliance_ratio"],
                "compliant": slow_verdict["compliant"],
                "burn_rate_fast": fast_verdict["burn_rate"],
                "burn_rate_slow": slow_verdict["burn_rate"],
                "alert": alert,
            }
            rows.append(row)
            klass = objective.klass
            ratio_by_class[klass] = min(
                ratio_by_class.get(klass, 1.0),
                slow_verdict["compliance_ratio"])
            burn_fast_by_class[klass] = max(
                burn_fast_by_class.get(klass, 0.0),
                fast_verdict["burn_rate"])
            burn_slow_by_class[klass] = max(
                burn_slow_by_class.get(klass, 0.0),
                slow_verdict["burn_rate"])
            if not slow_verdict["compliant"]:
                if objective.spec not in self._breaching:
                    self._breaching.add(objective.spec)
                    self.breach_count += 1
                    if OBS.enabled:
                        OBS.count("slo/breaches")
                    self.breaches.append({
                        # seconds since tracker start, not raw clock
                        "at": now - self._started,
                        "spec": objective.spec,
                        "class": objective.klass,
                        "observed": slow_verdict["observed"],
                        "threshold": objective.threshold,
                        "samples": slow_verdict["samples"],
                        "burn_rate_fast": fast_verdict["burn_rate"],
                        "burn_rate_slow": slow_verdict["burn_rate"],
                    })
            else:
                self._breaching.discard(objective.spec)
        if OBS.enabled:
            for klass, value in ratio_by_class.items():
                OBS.gauge(f"slo/compliance_ratio/{klass}", value)
            for klass, value in burn_fast_by_class.items():
                OBS.gauge(f"slo/burn_rate_fast/{klass}", value)
            for klass, value in burn_slow_by_class.items():
                OBS.gauge(f"slo/burn_rate_slow/{klass}", value)
        return {
            "enabled": True,
            "windows": {"fast_seconds": self.fast_seconds,
                        "slow_seconds": self.slow_seconds,
                        "cell_seconds": self.cell_seconds},
            "objectives": rows,
            "healthy": all(row["compliant"] for row in rows),
            "breach_count": self.breach_count,
            "breaches": list(self.breaches),
        }

    #: gauge values for the Prometheus exposition: the same per-class
    #: reductions evaluate() publishes, keyed by metric name.
    def gauge_values(self, report: dict | None = None) -> dict[str, float]:
        report = report if report is not None else self.evaluate()
        gauges: dict[str, float] = {}
        for row in report["objectives"]:
            klass = row["class"]
            name = f"slo/compliance_ratio/{klass}"
            gauges[name] = min(gauges.get(name, 1.0),
                               row["compliance_ratio"])
            name = f"slo/burn_rate_fast/{klass}"
            gauges[name] = max(gauges.get(name, 0.0),
                               row["burn_rate_fast"])
            name = f"slo/burn_rate_slow/{klass}"
            gauges[name] = max(gauges.get(name, 0.0),
                               row["burn_rate_slow"])
        return gauges

    def __repr__(self) -> str:
        return (f"<SloTracker objectives={len(self.objectives)} "
                f"cells={len(self._cells)} breaches={self.breach_count}>")
