"""Streaming log-bucketed histograms: constant memory, mergeable.

The latency of a reachability query is sharply bimodal — a negative
settled by the O(1) rank/level pre-filter costs a fraction of a
full-label binary search — so a mean (or a percentile estimated from
a small sample deque) actively misleads.  :class:`Histogram` records
the full distribution instead, HDR-style: values land in base-2
**octaves** (one per binary exponent, via :func:`math.frexp`) split
into :data:`SUB_BUCKETS` linear sub-buckets each.  The bucket layout is fixed up front, so

* memory is bounded by the number of *touched* buckets (at most
  ``SUB_BUCKETS`` per octave, and a double only spans ~2100 octaves) —
  never by the number of observations;
* two histograms over the same layout merge by adding bucket counts,
  which is exact and associative — per-thread or per-process
  histograms aggregate losslessly;
* a percentile estimate is off by at most one sub-bucket width.  Each
  sub-bucket spans ``1/SUB_BUCKETS`` of its octave's lower bound, so
  the estimate (the bucket midpoint, clamped into the observed
  ``[min, max]``) is within :data:`RELATIVE_ERROR` ``= 1/SUB_BUCKETS``
  (3.125 %) of the exact nearest-rank percentile.

Thread safety: :meth:`observe` takes a lock per call.  The serving
path observes once per *request*, not per inner-loop iteration, so the
lock is not on any hot loop (and CPython's lock fast path is a few
hundred nanoseconds — far below the cost of the request it measures).
"""

from __future__ import annotations

import math
import threading

__all__ = ["Histogram", "SUB_BUCKETS", "RELATIVE_ERROR"]

#: Linear sub-buckets per base-2 octave.  32 keeps the documented
#: relative bucket error at 1/32 = 3.125 % with ~32 counters per
#: octave actually touched.
SUB_BUCKETS = 32

#: Documented worst-case relative error of a percentile estimate
#: against the exact nearest-rank percentile of the observed values.
RELATIVE_ERROR = 1.0 / SUB_BUCKETS


def _bucket_index(value: float) -> int:
    """The flat bucket index for a positive finite value.

    ``frexp`` gives ``value = m * 2**e`` with ``m`` in ``[0.5, 1)``;
    the octave is ``e`` and ``m`` picks one of the linear sub-buckets.
    """
    mantissa, exponent = math.frexp(value)
    sub = int((mantissa * 2.0 - 1.0) * SUB_BUCKETS)
    if sub == SUB_BUCKETS:                   # mantissa rounded up to 1.0
        sub = SUB_BUCKETS - 1
    return exponent * SUB_BUCKETS + sub


def _bucket_bounds(index: int) -> tuple[float, float]:
    """``(lower, upper)`` value bounds of the flat bucket ``index``."""
    exponent, sub = divmod(index, SUB_BUCKETS)
    base = math.ldexp(1.0, exponent - 1)     # 2 ** (exponent - 1)
    width = base / SUB_BUCKETS
    return base + sub * width, base + (sub + 1) * width


class Histogram:
    """Mergeable distribution of non-negative observations.

    >>> histogram = Histogram()
    >>> for value in (1.0, 2.0, 3.0, 4.0):
    ...     histogram.observe(value)
    >>> histogram.count
    4
    >>> abs(histogram.percentile(0.5) - 2.0) <= 2.0 * RELATIVE_ERROR
    True
    """

    __slots__ = ("_buckets", "_lock", "count", "sum", "zeros",
                 "min_value", "max_value")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.zeros = 0              # observations <= 0 (clamped to 0)
        self.min_value = math.inf
        self.max_value = 0.0

    # -- recording ----------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation (negatives clamp to the zero bucket)."""
        value = float(value)
        with self._lock:
            self.count += 1
            if value <= 0.0 or not math.isfinite(value):
                self.zeros += 1
                self.min_value = 0.0
                return
            self.sum += value
            if value < self.min_value:
                self.min_value = value
            if value > self.max_value:
                self.max_value = value
            index = _bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into ``self`` (bucket-count addition; exact)."""
        with other._lock:
            buckets = dict(other._buckets)
            count, total = other.count, other.sum
            zeros = other.zeros
            low, high = other.min_value, other.max_value
        with self._lock:
            for index, bucket_count in buckets.items():
                self._buckets[index] = (self._buckets.get(index, 0)
                                        + bucket_count)
            self.count += count
            self.sum += total
            self.zeros += zeros
            if low < self.min_value:
                self.min_value = low
            if high > self.max_value:
                self.max_value = high
        return self

    # -- reading ------------------------------------------------------
    def percentile(self, fraction: float) -> float:
        """Estimate the nearest-rank percentile at ``fraction``.

        Within :data:`RELATIVE_ERROR` of the exact value: the rank's
        bucket is found by cumulating counts in value order, and the
        bucket midpoint (clamped into the observed ``[min, max]``) is
        returned.  An empty histogram estimates 0.0.
        """
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(fraction * self.count))
            if rank <= self.zeros:
                return 0.0
            rank -= self.zeros
            cumulative = 0
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if cumulative >= rank:
                    lower, upper = _bucket_bounds(index)
                    midpoint = (lower + upper) / 2.0
                    return min(max(midpoint, self.min_value),
                               self.max_value)
            return self.max_value            # fraction > 1.0

    def percentiles(self, *fractions: float) -> list[float]:
        """:meth:`percentile` at each fraction, in order."""
        return [self.percentile(fraction) for fraction in fractions]

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` per touched bucket, ascending.

        The zero bucket, when touched, reports an upper bound of 0.0.
        This is the non-cumulative view; the Prometheus renderer
        cumulates it into ``_bucket{le=...}`` series.
        """
        with self._lock:
            rows = [(_bucket_bounds(index)[1], count)
                    for index, count in sorted(self._buckets.items())]
            if self.zeros:
                rows.insert(0, (0.0, self.zeros))
            return rows

    def summary(self) -> dict:
        """Count, mean, extrema and the standard percentile ladder."""
        p50, p90, p99, p999 = self.percentiles(0.50, 0.90, 0.99, 0.999)
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value,
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "p999": p999,
        }

    # -- cross-process transport --------------------------------------
    def state(self) -> dict:
        """A picklable snapshot that reconstructs this histogram exactly.

        Unlike :meth:`to_dict` (which reports bucket *upper bounds* for
        human/export consumption), ``state`` keys raw flat bucket
        indices, so :meth:`from_state` and :meth:`merge_state` rebuild
        the identical bucket layout — this is what worker processes ship
        over the control pipe for exact pool-wide aggregation.
        """
        with self._lock:
            return {
                "buckets": dict(self._buckets),
                "count": self.count,
                "sum": self.sum,
                "zeros": self.zeros,
                "min": self.min_value,
                "max": self.max_value,
            }

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        """Reconstruct a histogram from a :meth:`state` snapshot."""
        histogram = cls()
        histogram.merge_state(state)
        return histogram

    def merge_state(self, state: dict) -> "Histogram":
        """Fold a :meth:`state` snapshot into ``self`` (exact, like
        :meth:`merge`, but from the transported form — JSON round-trips
        turn the bucket keys into strings, which is tolerated)."""
        with self._lock:
            for index, bucket_count in state["buckets"].items():
                index = int(index)
                self._buckets[index] = (self._buckets.get(index, 0)
                                        + bucket_count)
            self.count += state["count"]
            self.sum += state["sum"]
            self.zeros += state["zeros"]
            if state["count"] and state["min"] < self.min_value:
                self.min_value = state["min"]
            if state["max"] > self.max_value:
                self.max_value = state["max"]
        return self

    def to_dict(self) -> dict:
        """The ``repro.obs/2`` export shape for one histogram."""
        with self._lock:
            buckets = [[_bucket_bounds(index)[1], count]
                       for index, count in sorted(self._buckets.items())]
            if self.zeros:
                buckets.insert(0, [0.0, self.zeros])
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min_value if self.count else 0.0,
                "max": self.max_value,
                "buckets": buckets,
            }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"<Histogram count={self.count} mean={self.mean:.6g} "
                f"buckets={len(self._buckets)}>")
