"""Repair evidence bundles: one auditable artifact per validated repair.

At campaign scale a patch is only as useful as its evidence: *why* was this
repair accepted?  A bundle packages everything one job produced — the patch
and its provenance (which donor check, validated where), the proof
obligations the pipeline discharged (branches considered, candidates
rejected and why), the solver verdict accounting (backend, budgets, query
and cache counters), the per-stage timings, and the full typed event stream
— under a versioned schema (:mod:`repro.obs.schema`), so a bundle written
today stays machine-checkable after the format moves on.

Bundles are built from the campaign run store (``codephage bundle
<job-id>``: the stored :class:`~repro.core.reporting.TransferRecord` plus
the per-job event stream workers persist) or directly from a live
:class:`~repro.api.RepairReport` (:func:`bundle_from_report`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from .schema import BUNDLE_SCHEMA, LATEST_SCHEMA_VERSION, ensure_valid_bundle

#: Override keys that are solver budgets (surfaced under ``solver.budgets``).
_BUDGET_KEYS = (
    "sat_conflict_budget",
    "sat_truth_cost_budget",
    "sat_cost_budget",
    "max_exhaustive_cost",
    "sample_count",
)


class BundleError(RuntimeError):
    """Raised when a bundle cannot be built (missing record or events)."""


def build_bundle(
    *,
    job: dict,
    record: dict,
    events: Sequence[dict] = (),
    attempt_elapsed_s: float = 0.0,
    source: Optional[str] = None,
) -> dict:
    """Assemble (and validate) a schema-versioned evidence bundle.

    ``job`` is a :meth:`~repro.campaign.plan.JobSpec.to_dict` payload,
    ``record`` an ``asdict``-ed :class:`~repro.core.reporting.TransferRecord`,
    and ``events`` the serialized event stream of the attempt that produced
    the record.
    """
    overrides = dict(job.get("overrides") or {})
    validated_checks = [
        {
            "function": event.get("function", ""),
            "line": int(event.get("line", 0)),
            "excised_size": int(event.get("excised_size", 0)),
            "translated_size": int(event.get("translated_size", 0)),
            "round": int(event.get("round_index", 0)),
        }
        for event in events
        if event.get("event") == "PatchValidated"
    ]
    rejected: dict[str, int] = {}
    for event in events:
        if event.get("event") == "CandidateRejected":
            kind = event.get("kind", "unknown")
            rejected[kind] = rejected.get(kind, 0) + 1

    bundle = {
        "schema": BUNDLE_SCHEMA,
        "schema_version": LATEST_SCHEMA_VERSION,
        "job": {
            "job_id": job.get("job_id", ""),
            "case_id": job.get("case_id", ""),
            "donor": job.get("donor", ""),
            "strategy": job.get("strategy", ""),
            "variant": job.get("variant", "default"),
            "overrides": overrides,
        },
        "repair": {
            "recipient": record.get("recipient", ""),
            "target": record.get("target", ""),
            "donor": record.get("donor", ""),
            "success": bool(record.get("success")),
            "failure_reason": record.get("failure_reason", ""),
            "generation_time_s": record.get("generation_time_s", 0.0),
            "used_checks": int(record.get("used_checks", 0)),
        },
        "patch": {
            "preview": record.get("patch_preview", ""),
            "check_size": record.get("check_size", ""),
            "insertion_points": record.get("insertion_points", ""),
        },
        "provenance": {
            "donor": record.get("donor", ""),
            "validated_checks": validated_checks,
        },
        "obligations": {
            "relevant_branches": int(record.get("relevant_branches", 0)),
            "flipped_branches": str(record.get("flipped_branches", "")),
            "rejected": rejected,
        },
        "solver": {
            # Jobs from stores written while the solver was selectable may
            # still name one in their overrides.
            "backend": str(overrides.get("backend", "cdcl")),
            "queries": int(record.get("solver_queries", 0)),
            "cache_hits": int(record.get("solver_cache_hits", 0)),
            "persistent_cache_hits": int(record.get("solver_persistent_hits", 0)),
            "expensive_queries": int(record.get("solver_expensive_queries", 0)),
            "batch_hits": int(record.get("solver_batch_hits", 0)),
            "backends": dict(record.get("solver_backend_stats") or {}),
            "budgets": {
                key: overrides[key] for key in _BUDGET_KEYS if key in overrides
            },
        },
        "timings": {
            "stage_seconds": dict(record.get("stage_timings") or {}),
            "attempt_elapsed_s": attempt_elapsed_s,
        },
        "events": list(events),
    }
    if source is not None:
        bundle["source"] = source
    return ensure_valid_bundle(bundle)


def bundle_from_store(store, job_id: str) -> dict:
    """Export the bundle for one completed job in a campaign run store.

    ``store`` is a :class:`~repro.campaign.store.RunStore`; the job must
    have a completed attempt recorded.  The event stream comes from the
    store's ``events/`` directory (empty when the job predates event
    persistence).
    """
    plan = store.load_plan()
    job = next((job for job in plan.jobs if job.job_id == job_id), None)
    if job is None:
        raise BundleError(
            f"job {job_id!r} is not in the plan of store {store.directory}"
        )
    result = store.results().get(job_id)
    if result is None or not result.completed or result.record is None:
        raise BundleError(
            f"job {job_id!r} has no completed attempt in store {store.directory}"
        )
    return build_bundle(
        job=job.to_dict(),
        record=result.record,
        events=store.load_event_dicts(job_id),
        attempt_elapsed_s=result.elapsed_s,
        source=str(store.directory),
    )


def bundle_from_report(report, *, job: Optional[dict] = None, source: str = "session") -> dict:
    """Build a bundle straight from a live :class:`~repro.api.RepairReport`."""
    from dataclasses import asdict

    from ..core.events import events_as_dicts  # local: core imports the solver
    from ..core.reporting import TransferRecord

    record = asdict(TransferRecord.from_outcome(report.outcome))
    job = job or {
        "job_id": "",
        "case_id": "",
        "donor": report.outcome.donor,
        "strategy": "",
        "variant": "session",
        "overrides": {},
    }
    return build_bundle(
        job=job,
        record=record,
        events=events_as_dicts(report.events),
        attempt_elapsed_s=report.outcome.metrics.generation_time_s,
        source=source,
    )


def write_bundle(bundle: dict, path: str | Path) -> Path:
    """Write a validated bundle as pretty JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(path: str | Path) -> dict:
    """Load and validate a bundle file."""
    return ensure_valid_bundle(json.loads(Path(path).read_text()))
