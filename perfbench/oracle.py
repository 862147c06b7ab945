"""Correctness oracles that do not come from the pipeline under test.

* Figure 8 (``figure8_session``, ``service_closed_loop``): the committed
  ``figure8_oracle.json`` holds, per row, the expected success and the
  SHA-256 of the patched source and of the rendered patch.  It was made
  once by ``make_oracle.py`` and confirmed under the interpreter tier.
* Scenario corpora (``scenario_campaign``, ``scenario_nodes``): the
  generator's own hardness labels.  Every non-adversarial pair must
  validate and every adversarial near-miss donor must be rejected, so the
  false-accept rate is 0.0.  Any attempt that did not complete, and any
  job without exactly one completed record, is a failure too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

ORACLE_PATH = Path(__file__).with_name("figure8_oracle.json")


def sha256(text: Optional[str]) -> Optional[str]:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_key(case_id: str, donor: str) -> str:
    return f"{case_id}/{donor}"


def load_figure8_oracle(path: Path = ORACLE_PATH) -> dict[str, dict]:
    """Row key -> ``{"success", "patched_source_sha256", "patch_preview_sha256"}``."""
    return json.loads(Path(path).read_text())["rows"]


def expected_row(outcome) -> dict:
    """The oracle entry a :class:`~repro.core.pipeline.TransferOutcome` yields."""
    preview = outcome.checks[-1].patch.render() if outcome.checks else ""
    return {
        "success": bool(outcome.success),
        "patched_source_sha256": sha256(outcome.patched_source),
        "patch_preview_sha256": sha256(preview),
    }


def repair_ok(oracle: dict[str, dict], key: str, outcome) -> bool:
    """Whether one session repair matches its row: success and patched source."""
    want = oracle.get(key)
    if want is None:
        return False
    got = expected_row(outcome)
    return (
        got["success"] == want["success"]
        and got["patched_source_sha256"] == want["patched_source_sha256"]
    )


def service_record_ok(oracle: dict[str, dict], key: str, record: Optional[dict]) -> bool:
    """Whether one service job's stored record matches its row.

    The daemon stores a :class:`~repro.core.reporting.TransferRecord`, which
    carries the rendered patch (``patch_preview``) but not the patched
    source, so the service is checked on success plus the patch digest.
    """
    want = oracle.get(key)
    if want is None or record is None:
        return False
    return bool(record.get("success")) == want["success"] and sha256(
        record.get("patch_preview", "")
    ) == want["patch_preview_sha256"]


def campaign_failures(plan, store, corpus) -> list[str]:
    """Every job of ``plan`` the scenario oracle rejects, one line each.

    A job fails if any of its attempts did not complete (crashed, timed
    out, raised), even when a retry then succeeded, and unless the store
    holds exactly one completed attempt for it whose verdict matches the
    generator's label: success for ordinary pairs, rejection for
    adversarial near-miss donors.
    """
    completed: dict[str, list] = {}
    reasons: dict[str, list[str]] = {}
    for attempt in store.attempts():
        if attempt.completed:
            completed.setdefault(attempt.job_id, []).append(attempt)
        else:
            reasons.setdefault(attempt.job_id, []).append(
                f"attempt {attempt.attempt} {attempt.status}"
            )
    failures = []
    for job in plan.jobs:
        job_reasons = reasons.get(job.job_id, [])
        attempts = completed.get(job.job_id, [])
        if len(attempts) != 1:
            job_reasons.append(f"{len(attempts)} completed records")
        else:
            pair = corpus.pair(job.case_id)
            success = bool((attempts[0].record or {}).get("success"))
            if success == pair.adversarial:
                verdict = "accepted" if success else "rejected"
                job_reasons.append(f"{pair.hardness} pair {verdict}")
        if job_reasons:
            failures.append(f"{job.job_id}: {'; '.join(job_reasons)}")
    return failures
