"""Campaign plans: deterministic expansion of transfer jobs.

A campaign is any subset or cross-product of the evaluation space
``ERROR_CASES x donors x PatchStrategy/option variants``.  A plan expands
that request into an ordered tuple of :class:`JobSpec` items, each carrying a
deterministic content-addressed ``job_id`` so that a re-run (or a resumed run)
of the same plan recognises its previously completed jobs regardless of the
order in which workers finished them.

Identity and resume semantics
-----------------------------

``job_id`` is a SHA-1 over the job's *semantic* fields only — case, donor,
strategy, variant name, and the sorted option overrides.  Two consequences:

* **Resume is content-addressed, not positional.**  The run store records
  completions by ``job_id``; reordering a plan, interleaving workers, or
  resuming after a crash cannot mis-attribute a completed job.  Conversely,
  editing a variant's overrides changes its jobs' ids, so previously
  recorded completions (correctly) stop matching and the jobs re-run.
* **The variant *name* is part of the identity.**  Two variants with equal
  overrides but different names are distinct jobs — campaigns may
  deliberately A/B the same configuration.

Option-override namespacing
---------------------------

Overrides are split by key into :class:`~repro.core.pipeline.CodePhageOptions`
fields (``_PIPELINE_KEYS``) and nested
:class:`~repro.solver.equivalence.EquivalenceOptions` fields
(``_EQUIVALENCE_KEYS``); unknown keys fail plan expansion up front rather
than on each worker.  Note the interaction with the shared solver cache:
equivalence options are folded into the persistent cache-key *namespace*
(see :mod:`repro.solver.equivalence`), so variants with different solver
settings share the cache file but never each other's verdicts, while
pipeline-only overrides reuse the same namespace — and each other's
verdicts — freely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..core.patch import PatchStrategy
from ..core.pipeline import CodePhageOptions
from ..experiments import ERROR_CASES, FIGURE8_ROWS
from ..solver.equivalence import EquivalenceOptions


class PlanError(ValueError):
    """Raised when a campaign request does not match the evaluation space."""


#: Option overrides applied to :class:`CodePhageOptions` itself.
_PIPELINE_KEYS = frozenset(
    {
        "regression_inputs",
        "max_candidate_checks",
        "max_recursive_patches",
        "filter_unstable_points",
    }
)

#: Option overrides applied to the nested :class:`EquivalenceOptions`.
_EQUIVALENCE_KEYS = frozenset(
    {
        "use_cache",
        "use_disjoint_field_filter",
        "sample_count",
        "exhaustive_bit_limit",
        "sat_cost_budget",
        "sat_truth_cost_budget",
        "sat_conflict_limit",
        "random_seed",
    }
)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable transfer: a Figure-8 row plus an options variant."""

    case_id: str
    donor: str
    strategy: str = PatchStrategy.EXIT.value
    variant: str = "default"
    overrides: tuple[tuple[str, object], ...] = ()

    @property
    def job_id(self) -> str:
        """Content hash of the job's semantic fields (stable across runs)."""
        canonical = json.dumps(
            {
                "case_id": self.case_id,
                "donor": self.donor,
                "strategy": self.strategy,
                "variant": self.variant,
                "overrides": sorted(self.overrides),
            },
            sort_keys=True,
        )
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]

    def describe(self) -> str:
        suffix = "" if self.variant == "default" else f" [{self.variant}]"
        return f"{self.case_id} <- {self.donor} ({self.strategy}){suffix}"

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "case_id": self.case_id,
            "donor": self.donor,
            "strategy": self.strategy,
            "variant": self.variant,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobSpec":
        overrides = tuple(sorted((payload.get("overrides") or {}).items()))
        return cls(
            case_id=payload["case_id"],
            donor=payload["donor"],
            strategy=payload.get("strategy", PatchStrategy.EXIT.value),
            variant=payload.get("variant", "default"),
            overrides=overrides,
        )

    # -- execution -------------------------------------------------------------------

    def build_options(
        self, persistent_cache_path: Optional[str] = None
    ) -> CodePhageOptions:
        """Materialise the pipeline options this job runs under."""
        pipeline_kwargs: dict = {}
        equivalence_kwargs: dict = {}
        for key, value in self.overrides:
            if key in _PIPELINE_KEYS:
                pipeline_kwargs[key] = value
            elif key in _EQUIVALENCE_KEYS:
                equivalence_kwargs[key] = value
            else:
                raise PlanError(f"unknown option override {key!r}")
        equivalence = EquivalenceOptions(
            persistent_cache_path=persistent_cache_path, **equivalence_kwargs
        )
        return CodePhageOptions(
            patch_strategy=PatchStrategy(self.strategy),
            equivalence_options=equivalence,
            **pipeline_kwargs,
        )


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, validated collection of jobs."""

    name: str
    jobs: tuple[JobSpec, ...] = ()

    def __post_init__(self) -> None:
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise PlanError("plan contains duplicate jobs")

    def job_ids(self) -> tuple[str, ...]:
        return tuple(job.job_id for job in self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def to_dict(self) -> dict:
        return {"name": self.name, "jobs": [job.to_dict() for job in self.jobs]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignPlan":
        return cls(
            name=payload.get("name", "campaign"),
            jobs=tuple(JobSpec.from_dict(entry) for entry in payload.get("jobs", ())),
        )


def _validated_strategies(strategies: Optional[Sequence[str]]) -> tuple[str, ...]:
    """Deduplicate and validate patch-strategy names (default: exit)."""
    strategy_values = (
        tuple(dict.fromkeys(strategies)) if strategies else (PatchStrategy.EXIT.value,)
    )
    for strategy in strategy_values:
        try:
            PatchStrategy(strategy)
        except ValueError:
            raise PlanError(f"unknown patch strategy {strategy!r}") from None
    return strategy_values


def _validated_variants(
    variants: Optional[Mapping[str, Mapping[str, object]]],
) -> list[tuple[str, Mapping[str, object]]]:
    """Validate option-override variants up front (default: one empty variant).

    Fail fast on typo'd override keys: a bad variant is a plan error, not
    something every worker should discover (and retry) at run time.
    """
    variant_items: list[tuple[str, Mapping[str, object]]] = (
        list(variants.items()) if variants else [("default", {})]
    )
    known_keys = _PIPELINE_KEYS | _EQUIVALENCE_KEYS
    for variant_name, overrides in variant_items:
        unknown = sorted(set(overrides) - known_keys)
        if unknown:
            raise PlanError(
                f"variant {variant_name!r} has unknown option override(s): "
                + ", ".join(unknown)
            )
    return variant_items


def expand_plan(
    cases: Optional[Iterable[str]] = None,
    donors: Optional[Iterable[str]] = None,
    strategies: Optional[Sequence[str]] = None,
    variants: Optional[Mapping[str, Mapping[str, object]]] = None,
    name: str = "campaign",
) -> CampaignPlan:
    """Expand a campaign request into a deterministic job list.

    ``cases`` / ``donors`` restrict the evaluation space (defaults: every
    error case, every donor the case lists); ``strategies`` selects patch
    strategies; ``variants`` maps a variant name to option overrides.  Job
    order is the cross-product in evaluation order (case, donor, strategy,
    variant), so a full default expansion matches ``FIGURE8_ROWS``.
    """
    if cases is None:
        case_ids = list(ERROR_CASES)
    else:
        # Deduplicate while preserving order: a repeated value in a scripted
        # or shell-expanded list should not abort the campaign.
        case_ids = list(dict.fromkeys(cases))
        unknown = [case_id for case_id in case_ids if case_id not in ERROR_CASES]
        if unknown:
            raise PlanError(f"unknown error case(s): {', '.join(unknown)}")

    donor_filter = set(donors) if donors is not None else None
    if donor_filter is not None:
        known_donors = {d for case in ERROR_CASES.values() for d in case.donors}
        unknown = sorted(donor_filter - known_donors)
        if unknown:
            raise PlanError(f"unknown donor(s): {', '.join(unknown)}")

    strategy_values = _validated_strategies(strategies)
    variant_items = _validated_variants(variants)

    jobs: list[JobSpec] = []
    empty_cases: list[str] = []
    for case_id in case_ids:
        case = ERROR_CASES[case_id]
        donors_for_case = [
            donor
            for donor in case.donors
            if donor_filter is None or donor in donor_filter
        ]
        if not donors_for_case:
            empty_cases.append(case_id)
            continue
        for donor in donors_for_case:
            for strategy in strategy_values:
                for variant_name, overrides in variant_items:
                    jobs.append(
                        JobSpec(
                            case_id=case_id,
                            donor=donor,
                            strategy=strategy,
                            variant=variant_name,
                            overrides=tuple(sorted(overrides.items())),
                        )
                    )
    if cases is not None and empty_cases:
        # The caller named these cases explicitly; dropping them silently
        # would make the campaign's table shorter than requested.
        raise PlanError(
            "donor filter excludes every donor of requested case(s): "
            + ", ".join(empty_cases)
        )
    if not jobs:
        raise PlanError("campaign request selects no jobs")
    return CampaignPlan(name=name, jobs=tuple(jobs))


def figure8_plan(name: str = "figure8") -> CampaignPlan:
    """The canonical plan: every Figure 8 row, default options, paper order."""
    return CampaignPlan(
        name=name,
        jobs=tuple(
            JobSpec(case_id=row.case_id, donor=row.donor) for row in FIGURE8_ROWS
        ),
    )


def matrix_plan(
    transfers: Iterable[tuple[str, str]],
    strategies: Optional[Sequence[str]] = None,
    variants: Optional[Mapping[str, Mapping[str, object]]] = None,
    name: str = "matrix",
) -> CampaignPlan:
    """Expand explicit ``(case_id, donor)`` transfers into a campaign plan.

    This is the scenario-matrix entry point: unlike :func:`expand_plan` the
    case ids are *not* validated against the paper's ``ERROR_CASES`` —
    generated corpora (:mod:`repro.scenarios`) bring their own
    content-addressed cases, and whoever runs the plan supplies a runner
    that can resolve them.  Strategy and variant validation (and the
    deterministic job-id scheme, and therefore resume) are shared with
    :func:`expand_plan`.
    """
    strategy_values = _validated_strategies(strategies)
    variant_items = _validated_variants(variants)
    jobs = [
        JobSpec(
            case_id=case_id,
            donor=donor,
            strategy=strategy,
            variant=variant_name,
            overrides=tuple(sorted(overrides.items())),
        )
        for case_id, donor in dict.fromkeys(transfers)
        for strategy in strategy_values
        for variant_name, overrides in variant_items
    ]
    if not jobs:
        raise PlanError("matrix request selects no jobs")
    return CampaignPlan(name=name, jobs=tuple(jobs))
