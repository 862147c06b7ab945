"""Service request schemas: JSON payloads in, validated job specs out.

The daemon accepts the same job vocabulary the campaign layer plans with —
a *transfer* (one ``(case, donor)`` repair with a strategy and option
overrides) or a *matrix* (explicit transfer list crossed with strategies
and variants) — and reuses the campaign validators so a payload the service
accepts is exactly a payload ``codephage campaign``/``matrix`` would have
planned: strategy names go through
:func:`~repro.campaign.plan._validated_strategies`, variants/overrides
through :func:`~repro.campaign.plan._validated_variants`, and the expansion
itself through :func:`~repro.campaign.plan.matrix_plan`.  Validation errors
surface as :class:`RequestError` with the HTTP status the handler should
return (400 for malformed payloads, 413 for payloads exceeding the
admission caps).

Job identity
------------

Campaign job ids are content-addressed (identical jobs coalesce on
resume); service submissions are *requests*, and two clients POSTing the
same transfer must get two jobs with two observable event streams.  The
service therefore mints ``svc-<sequence>-<spec hash>`` ids — the sequence
makes every submission unique (and totally ordered), the embedded
:attr:`~repro.campaign.plan.JobSpec.job_id` hash keeps the semantic
identity visible for cross-referencing with campaign stores.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..campaign.plan import CampaignPlan, JobSpec, PlanError, matrix_plan
from ..experiments import ERROR_CASES


class RequestError(ValueError):
    """A rejected submission, carrying the HTTP status to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


#: Submission kinds accepted by ``POST /v1/jobs``.
KIND_TRANSFER = "transfer"
KIND_MATRIX = "matrix"

#: Admission cap: a matrix submission may expand to at most this many
#: transfers — one service job runs its whole matrix on one worker thread,
#: so an unbounded matrix would monopolise the pool (413 when exceeded).
MAX_MATRIX_TRANSFERS = 64


@dataclass(frozen=True)
class JobSubmission:
    """One validated submission: the plan to run plus its service budget."""

    kind: str
    plan: CampaignPlan
    budget_s: float

    @property
    def specs(self) -> tuple[JobSpec, ...]:
        return self.plan.jobs

    def describe(self) -> str:
        if self.kind == KIND_TRANSFER:
            return self.plan.jobs[0].describe()
        return f"matrix of {len(self.plan.jobs)} transfers"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "budget_s": self.budget_s,
            "transfers": [spec.to_dict() for spec in self.plan.jobs],
        }


def _require_mapping(payload: object) -> Mapping:
    if not isinstance(payload, Mapping):
        raise RequestError("request body must be a JSON object")
    return payload


def _parse_budget(
    payload: Mapping, default_budget_s: float, max_budget_s: float
) -> float:
    budget = payload.get("budget_s", default_budget_s)
    if not isinstance(budget, (int, float)) or isinstance(budget, bool) or budget <= 0:
        raise RequestError("budget_s must be a positive number of seconds")
    if budget > max_budget_s:
        raise RequestError(
            f"budget_s {budget} exceeds the service cap of {max_budget_s}s",
            status=413,
        )
    return float(budget)


def _validated_case_donor(case_id: object, donor: object) -> tuple[str, str]:
    if not isinstance(case_id, str) or not case_id:
        raise RequestError("transfer requires a 'case' (error-case id)")
    case = ERROR_CASES.get(case_id)
    if case is None:
        raise RequestError(
            f"unknown error case {case_id!r}; known cases: "
            + ", ".join(sorted(ERROR_CASES))
        )
    if donor is None:
        donor = case.donors[0]
    if not isinstance(donor, str) or donor not in case.donors:
        raise RequestError(
            f"donor {donor!r} is not listed for case {case_id!r}; "
            "expected one of " + ", ".join(case.donors)
        )
    return case_id, donor


def parse_submission(
    payload: object,
    default_budget_s: float = 30.0,
    max_budget_s: float = 300.0,
) -> JobSubmission:
    """Validate a ``POST /v1/jobs`` body into a :class:`JobSubmission`.

    Transfer payload::

        {"kind": "transfer", "case": "cwebp-jpegdec", "donor": "feh",
         "strategy": "exit", "overrides": {"sample_count": 16},
         "budget_s": 20}

    Matrix payload::

        {"kind": "matrix", "transfers": [["cwebp-jpegdec", "feh"], ...],
         "strategies": ["exit"], "variants": {"fast": {"sample_count": 4}}}

    Everything after the shape checks is delegated to
    :func:`~repro.campaign.plan.matrix_plan`, so strategy, variant, policy
    and override-key validation — and their error messages — are identical to
    the campaign CLI's.
    """
    payload = _require_mapping(payload)
    kind = payload.get("kind", KIND_TRANSFER)
    if kind not in (KIND_TRANSFER, KIND_MATRIX):
        raise RequestError(
            f"unknown job kind {kind!r}; expected {KIND_TRANSFER!r} or {KIND_MATRIX!r}"
        )
    budget_s = _parse_budget(payload, default_budget_s, max_budget_s)

    if kind == KIND_TRANSFER:
        case_id, donor = _validated_case_donor(
            payload.get("case"), payload.get("donor")
        )
        strategy = payload.get("strategy")
        overrides = payload.get("overrides") or {}
        if not isinstance(overrides, Mapping):
            raise RequestError("overrides must be a JSON object")
        try:
            plan = matrix_plan(
                [(case_id, donor)],
                strategies=[strategy] if strategy is not None else None,
                variants={"service": dict(overrides)} if overrides else None,
                name="service-transfer",
            )
        except PlanError as exc:
            raise RequestError(str(exc)) from None
        return JobSubmission(kind=KIND_TRANSFER, plan=plan, budget_s=budget_s)

    transfers = payload.get("transfers")
    if not isinstance(transfers, (list, tuple)) or not transfers:
        raise RequestError("matrix requires a non-empty 'transfers' list")
    pairs = []
    for entry in transfers:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise RequestError(
                "each matrix transfer must be a [case, donor] pair"
            )
        pairs.append(_validated_case_donor(entry[0], entry[1]))
    variants = payload.get("variants")
    if variants is not None and not isinstance(variants, Mapping):
        raise RequestError("variants must be a JSON object of override objects")
    strategies = payload.get("strategies")
    if strategies is not None and not isinstance(strategies, (list, tuple)):
        raise RequestError("strategies must be a JSON list of strategy names")
    try:
        plan = matrix_plan(
            pairs,
            strategies=strategies,
            variants=variants,
            name="service-matrix",
        )
    except PlanError as exc:
        raise RequestError(str(exc)) from None
    if len(plan.jobs) > MAX_MATRIX_TRANSFERS:
        raise RequestError(
            f"matrix expands to {len(plan.jobs)} transfers, above the "
            f"service cap of {MAX_MATRIX_TRANSFERS}",
            status=413,
        )
    return JobSubmission(kind=KIND_MATRIX, plan=plan, budget_s=budget_s)


@dataclass
class JobIdMinter:
    """Thread-safe allocator of unique, ordered service job ids."""

    _counter: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def mint(self, submission: JobSubmission) -> str:
        with self._lock:
            sequence = next(self._counter)
        return f"svc-{sequence:06d}-{submission.plan.jobs[0].job_id}"


def default_donor(case_id: str) -> Optional[str]:
    """The first listed donor for a known case (None for unknown cases)."""
    case = ERROR_CASES.get(case_id)
    return case.donors[0] if case and case.donors else None
