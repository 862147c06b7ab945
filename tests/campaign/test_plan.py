"""Campaign plan expansion: determinism, filtering, options materialisation."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignPlan, JobSpec, PlanError, expand_plan, figure8_plan
from repro.core.patch import PatchStrategy
from repro.experiments import ERROR_CASES, FIGURE8_ROWS


def test_figure8_plan_matches_the_paper_rows():
    plan = figure8_plan()
    assert len(plan) == len(FIGURE8_ROWS)
    assert [(job.case_id, job.donor) for job in plan.jobs] == [
        (row.case_id, row.donor) for row in FIGURE8_ROWS
    ]
    assert all(job.strategy == PatchStrategy.EXIT.value for job in plan.jobs)


def test_default_expansion_is_the_full_cross_product():
    plan = expand_plan()
    expected = sum(len(case.donors) for case in ERROR_CASES.values())
    assert len(plan) == expected
    # Same jobs as the canonical figure8 plan (default strategy/variant).
    assert set(plan.job_ids()) == set(figure8_plan().job_ids())


def test_case_and_donor_filters():
    plan = expand_plan(cases=["dillo-png", "dillo-fltk"], donors=["feh", "mtpaint"])
    assert {(job.case_id, job.donor) for job in plan.jobs} == {
        ("dillo-png", "feh"),
        ("dillo-png", "mtpaint"),
        ("dillo-fltk", "feh"),
        ("dillo-fltk", "mtpaint"),
    }


def test_strategy_and_variant_cross_product():
    plan = expand_plan(
        cases=["swfplay-rgb"],
        strategies=["exit", "return0"],
        variants={"default": {}, "no-filter": {"filter_unstable_points": False}},
    )
    assert len(plan) == 4
    assert len(set(plan.job_ids())) == 4


def test_duplicate_request_values_are_deduplicated():
    plan = expand_plan(
        cases=["cwebp-jpegdec", "cwebp-jpegdec"],
        strategies=["exit", "exit"],
    )
    assert len(plan) == 3  # one job per donor, no duplicate-job error


def test_job_ids_are_deterministic_and_content_addressed():
    job = JobSpec(case_id="cwebp-jpegdec", donor="feh")
    again = JobSpec(case_id="cwebp-jpegdec", donor="feh")
    assert job.job_id == again.job_id
    assert job.job_id != JobSpec(case_id="cwebp-jpegdec", donor="mtpaint").job_id
    assert (
        job.job_id
        != JobSpec(case_id="cwebp-jpegdec", donor="feh", strategy="return0").job_id
    )


def test_job_round_trips_through_dict():
    job = JobSpec(
        case_id="dillo-png",
        donor="feh",
        strategy="return0",
        variant="fast",
        overrides=(("max_candidate_checks", 2), ("use_cache", False)),
    )
    restored = JobSpec.from_dict(job.to_dict())
    assert restored == job
    assert restored.job_id == job.job_id


def test_plan_round_trips_through_dict():
    plan = expand_plan(cases=["jasper-tiles", "gif2tiff-lzw"])
    restored = CampaignPlan.from_dict(plan.to_dict())
    assert restored.job_ids() == plan.job_ids()
    assert restored.name == plan.name


def test_build_options_materialises_strategy_and_overrides():
    job = JobSpec(
        case_id="wireshark-dcp",
        donor="wireshark-1.8.6",
        strategy="return0",
        overrides=(("max_candidate_checks", 3), ("use_cache", False)),
    )
    options = job.build_options(persistent_cache_path="/tmp/cache.jsonl")
    assert options.patch_strategy is PatchStrategy.RETURN_ZERO
    assert options.max_candidate_checks == 3
    assert options.equivalence_options.use_cache is False
    assert options.equivalence_options.persistent_cache_path == "/tmp/cache.jsonl"


def test_unknown_inputs_are_rejected():
    with pytest.raises(PlanError):
        expand_plan(cases=["no-such-case"])
    with pytest.raises(PlanError):
        expand_plan(donors=["no-such-donor"])
    with pytest.raises(PlanError):
        expand_plan(strategies=["no-such-strategy"])
    with pytest.raises(PlanError):
        JobSpec(case_id="dillo-png", donor="feh", overrides=(("bogus", 1),)).build_options()
    with pytest.raises(PlanError, match="sample_cnt"):
        # Typo'd variant keys must fail at expansion, not in every worker.
        expand_plan(cases=["dillo-png"], variants={"fast": {"sample_cnt": 8}})
    with pytest.raises(PlanError):
        # feh does not donate to the wireshark case -> empty plan.
        expand_plan(cases=["wireshark-dcp"], donors=["feh"])


def test_a_solver_backend_override_is_an_unknown_key():
    # There is one SAT solver: a plan that still names a backend must fail
    # loudly at expansion rather than run under a solver it did not ask for.
    with pytest.raises(PlanError, match="backend"):
        expand_plan(cases=["dillo-png"], variants={"dpll": {"backend": "dpll"}})
    with pytest.raises(PlanError, match="backend"):
        JobSpec(case_id="dillo-png", donor="feh", overrides=(("backend", "cdcl"),)).build_options()


def test_donor_filter_must_not_silently_drop_a_requested_case():
    # feh donates to cwebp-jpegdec but not to gif2tiff-lzw: naming both cases
    # explicitly must fail loudly rather than quietly shrinking the plan.
    with pytest.raises(PlanError, match="gif2tiff-lzw"):
        expand_plan(cases=["cwebp-jpegdec", "gif2tiff-lzw"], donors=["feh"])
    # Without an explicit case list the donor filter is a selection, not a
    # demand: non-matching cases are simply outside the campaign.
    plan = expand_plan(donors=["feh"])
    assert {job.donor for job in plan.jobs} == {"feh"}
    assert {job.case_id for job in plan.jobs} == {
        "cwebp-jpegdec",
        "dillo-png",
        "dillo-fltk",
        "display-xwindow",
        "display-resize",
    }
