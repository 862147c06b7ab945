"""Process-wide metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` per process (:data:`REGISTRY`), fed by cheap
instrumentation hooks in the solver engine, the equivalence checker, the
MicroC VM, the transfer engine (via :class:`MetricsEventObserver`), and
the campaign scheduler.  Recording is **disabled by default** and every
recording call starts with one attribute check, so instrumented hot paths
(solver queries, VM runs) pay near-zero overhead until someone opts in —
``codephage transfer --progress``/``--trace`` and campaign workers call
:func:`enable`.

Campaign workers are separate (usually fork-started) processes, each with
its own registry; a worker snapshots its registry into the result payload it
writes to the run store's outbox, and the scheduler folds every worker
snapshot into the campaign report with :func:`merge_snapshot` — the run
store, not shared memory, is the aggregation channel.

Metric names are dotted strings; the canonical names and their units are
documented in ``docs/OBSERVABILITY.md``.  Counters accumulate numbers (ints
or floats), gauges keep the last set value (merge keeps the max), and
histograms bucket observations against :data:`DEFAULT_BOUNDS` (seconds
scale; :data:`COUNT_BOUNDS` for counts) while tracking count/sum/min/max.
"""

from __future__ import annotations

import threading
from typing import Optional

#: Histogram bucket upper bounds, in seconds (observations above the last
#: bound land in the overflow bucket).
DEFAULT_BOUNDS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)

#: Bucket upper bounds for histograms of small counts (names per lookup).
COUNT_BOUNDS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("bounds", "buckets", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.minimum,
            "max": self.maximum,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }

    def merge_dict(self, payload: dict) -> None:
        """Fold a snapshot dict (same bounds) into this histogram."""
        self.count += payload.get("count", 0)
        self.total += payload.get("sum", 0.0)
        for bound in ("min", "max"):
            value = payload.get(bound)
            if value is None:
                continue
            if bound == "min" and (self.minimum is None or value < self.minimum):
                self.minimum = value
            if bound == "max" and (self.maximum is None or value > self.maximum):
                self.maximum = value
        buckets = payload.get("buckets") or []
        if len(buckets) == len(self.buckets):
            self.buckets = [a + b for a, b in zip(self.buckets, buckets)]


class MetricsRegistry:
    """Counters, gauges, and histograms behind one enable/disable switch.

    Thread-safe: every mutation is a read-modify-write (``inc``,
    ``gauge_max``, histogram buckets), so recording from concurrent repair
    worker threads (the :mod:`repro.service` daemon) without a lock loses
    updates.  The lock is taken only after the enabled check — the disabled
    hot path stays one attribute test.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- switch ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every recorded value (the switch state is kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- recording (no-ops while disabled) ---------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Set the gauge to ``value`` if it exceeds the current reading."""
        if not self._enabled:
            return
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] = DEFAULT_BOUNDS
    ) -> None:
        """Record ``value``; ``bounds`` applies when this call creates the histogram."""
        if not self._enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(bounds)
            histogram.observe(value)

    # -- reading -----------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> dict:
        """JSON-ready snapshot of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one (worker -> report).

        Counters add, gauges keep the maximum (peak across workers), and
        histograms merge bucket-wise.  Works regardless of the enabled
        switch — aggregation is bookkeeping, not instrumentation.
        """
        with self._lock:
            for name, value in (snapshot.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in (snapshot.get("gauges") or {}).items():
                if value > self._gauges.get(name, float("-inf")):
                    self._gauges[name] = value
            for name, payload in (snapshot.get("histograms") or {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    bounds = tuple(payload.get("bounds") or DEFAULT_BOUNDS)
                    histogram = self._histograms[name] = Histogram(bounds)
                histogram.merge_dict(payload)


def merge_snapshots(target: dict, snapshot: dict) -> dict:
    """Merge plain snapshot dicts (for report fields that never see a registry)."""
    registry = MetricsRegistry()
    registry.merge_snapshot(target)
    registry.merge_snapshot(snapshot)
    merged = registry.snapshot()
    target.clear()
    target.update(merged)
    return target


#: The process-wide registry every instrumentation hook records into.
REGISTRY = MetricsRegistry()

# Module-level shorthands — instrumented code calls ``metrics.inc(...)``.
enable = REGISTRY.enable
disable = REGISTRY.disable
reset = REGISTRY.reset
inc = REGISTRY.inc
set_gauge = REGISTRY.set_gauge
gauge_max = REGISTRY.gauge_max
observe = REGISTRY.observe
snapshot = REGISTRY.snapshot


def enabled() -> bool:
    return REGISTRY.enabled


class MetricsEventObserver:
    """Folds the pipeline event stream into the registry.

    Subscribed by every :class:`repro.api.RepairSession`; while the registry
    is disabled each event costs one name lookup and a returned no-op, so
    sessions carry the observer unconditionally.

    Events are dispatched by type *name* (the same tag the JSONL serializer
    uses), which keeps this module import-free of :mod:`repro.core` — the
    solver and VM import the registry, and the core package imports the
    solver, so an import edge back into core would be a cycle.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or REGISTRY

    def __call__(self, event) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        name = type(event).__name__
        if name == "StageFinished":
            registry.inc(f"pipeline.stage.{event.stage}.seconds", event.elapsed_s)
            registry.inc(f"pipeline.stage.{event.stage}.runs")
            registry.observe("pipeline.stage_seconds", event.elapsed_s)
        elif name == "DonorAttempted":
            registry.inc("pipeline.donor_attempts")
        elif name == "CandidateRejected":
            registry.inc("pipeline.candidates_rejected")
            registry.inc(f"pipeline.rejected.{event.kind}")
        elif name == "PatchValidated":
            registry.inc("pipeline.patches_validated")
        elif name == "ResidualErrorFound":
            registry.inc("pipeline.residual_errors", event.count)
