"""``repro.obs`` — the unified telemetry layer.

One observability surface over the whole pipeline, in three parts:

* :mod:`~repro.obs.tracing` — hierarchical spans (transfer > donor attempt >
  stage > solver query), fed by the typed event stream plus instrumentation
  hooks in the solver engine, the equivalence checker, and the VM;
  exportable as JSONL or Chrome ``trace_event`` JSON (``codephage transfer
  --trace`` live, ``codephage trace <job-id>`` from a run store).
* :mod:`~repro.obs.metrics` — a process-wide counters/gauges/histograms
  registry, disabled by default (near-zero overhead), aggregated across
  campaign workers through the run store.
* :mod:`~repro.obs.bundle` / :mod:`~repro.obs.schema` — versioned,
  validator-backed repair evidence bundles (``codephage bundle <job-id>``).

See ``docs/OBSERVABILITY.md`` for the span model, metric names, bundle
schema versions, and how to make a perf claim.
"""

from .bundle import (
    BundleError,
    build_bundle,
    bundle_from_report,
    bundle_from_store,
    load_bundle,
    write_bundle,
)
from .metrics import REGISTRY, MetricsEventObserver, MetricsRegistry
from .schema import (
    BUNDLE_SCHEMA,
    LATEST_SCHEMA_VERSION,
    SCHEMA_VERSIONS,
    SchemaError,
    ensure_valid_bundle,
    validate_bundle,
)
from .tracing import (
    SpanRecord,
    TraceObserver,
    Tracer,
    spans_from_events,
    trace_session,
    tracer_from_events,
)

__all__ = [
    "BUNDLE_SCHEMA",
    "BundleError",
    "LATEST_SCHEMA_VERSION",
    "MetricsEventObserver",
    "MetricsRegistry",
    "REGISTRY",
    "SCHEMA_VERSIONS",
    "SchemaError",
    "SpanRecord",
    "TraceObserver",
    "Tracer",
    "build_bundle",
    "bundle_from_report",
    "bundle_from_store",
    "ensure_valid_bundle",
    "load_bundle",
    "spans_from_events",
    "trace_session",
    "tracer_from_events",
    "validate_bundle",
    "write_bundle",
]
