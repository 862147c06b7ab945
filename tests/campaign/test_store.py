"""Run store and scheduler: completion, resume-after-interrupt, retry, timeout.

The scheduler runs real worker processes here, but with stub runners (the
``runner`` injection point) so the tests exercise scheduling policy without
paying for real transfers.  Stub runners communicate with the test through
marker files placed next to the store's solver cache.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.campaign import (
    STATUS_CRASHED,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    CampaignScheduler,
    JobResult,
    RunStore,
    SchedulerOptions,
    StoreError,
    expand_plan,
)
from repro.core.reporting import TransferRecord


def _fake_record(payload: dict) -> dict:
    return asdict(
        TransferRecord(
            recipient=payload["case_id"],
            target="site:1",
            donor=payload["donor"],
            success=True,
            generation_time_s=0.01,
            relevant_branches=1,
            flipped_branches="1",
            used_checks=1,
            insertion_points="1 - 0 - 0 = 1",
            check_size="2 -> 1",
            solver_queries=10,
            solver_cache_hits=4,
            solver_persistent_hits=2,
            solver_expensive_queries=1,
            solver_batch_hits=3,
            solver_backend_stats={
                "cdcl": {"queries": 5, "unsat": 4, "sat": 1, "conflicts": 7,
                         "learned_clauses": 6, "time_s": 0.001},
            },
        )
    )


def _marker_dir(cache_path: str) -> Path:
    directory = Path(cache_path).parent / "ran"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def ok_runner(payload: dict, cache_path: str) -> dict:
    (_marker_dir(cache_path) / f"{payload['job_id']}-{os.getpid()}").touch()
    return {"record": _fake_record(payload), "elapsed_s": 0.01}


def crash_runner(payload: dict, cache_path: str) -> dict:
    os._exit(3)


def error_runner(payload: dict, cache_path: str) -> dict:
    raise ValueError("synthetic failure")


def sleepy_runner(payload: dict, cache_path: str) -> dict:
    time.sleep(30)
    return {"record": _fake_record(payload), "elapsed_s": 30.0}


def flaky_runner(payload: dict, cache_path: str) -> dict:
    marker = _marker_dir(cache_path) / f"flaky-{payload['job_id']}"
    if not marker.exists():
        marker.touch()
        os._exit(9)
    return {"record": _fake_record(payload), "elapsed_s": 0.01}


def _options(**overrides) -> SchedulerOptions:
    base = dict(jobs=2, start_method="fork", poll_interval_s=0.01)
    base.update(overrides)
    return SchedulerOptions(**base)


@pytest.fixture
def plan():
    return expand_plan(cases=["cwebp-jpegdec", "swfplay-rgb"], name="test")  # 4 jobs


@pytest.fixture
def store(tmp_path, plan):
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    return run_store


def _ran_jobs(store: RunStore) -> set[str]:
    ran_dir = store.directory / "ran"
    if not ran_dir.exists():
        return set()
    return {path.name.rsplit("-", 1)[0] for path in ran_dir.iterdir()}


def test_scheduler_completes_all_jobs_and_merges_in_plan_order(plan, store):
    report = CampaignScheduler(plan, store, _options(), runner=ok_runner).run()
    assert report.completed == len(plan)
    assert not report.failed
    assert store.completed_ids() == set(plan.job_ids())
    database = store.merge_into_database(plan)
    # Workers finish in arbitrary order; the merged table is in plan order.
    assert [record.recipient for record in database.records] == [
        job.case_id for job in plan.jobs
    ]
    # Solver accounting is aggregated from the records — including the
    # per-backend counters and batch dedupe, not just cache hit counts.
    assert report.solver_queries == 10 * len(plan)
    assert report.persistent_cache_hits == 2 * len(plan)
    assert report.batch_hits == 3 * len(plan)
    assert report.backend_stats["cdcl"]["queries"] == 5 * len(plan)
    assert report.backend_stats["cdcl"]["learned_clauses"] == 6 * len(plan)
    assert f"backend cdcl: {5 * len(plan)} queries" in report.summary()


def test_rerun_skips_completed_jobs(plan, store):
    CampaignScheduler(plan, store, _options(), runner=ok_runner).run()
    first_ran = _ran_jobs(store)
    assert first_ran == set(plan.job_ids())
    for path in (store.directory / "ran").iterdir():
        path.unlink()

    report = CampaignScheduler(plan, store, _options(), runner=ok_runner).run()
    assert report.completed == 0
    assert report.skipped == len(plan)
    assert _ran_jobs(store) == set()  # no job executed twice


def test_resume_after_interrupt_runs_only_remaining_jobs(plan, store):
    # Simulate a campaign killed after two jobs: their records survived.
    done = list(plan.jobs[:2])
    for job in done:
        store.append(
            JobResult(
                job_id=job.job_id,
                status=STATUS_DONE,
                record=_fake_record(job.to_dict()),
            )
        )

    report = CampaignScheduler(plan, store, _options(), runner=ok_runner).run()
    assert report.skipped == 2
    assert report.completed == 2
    assert _ran_jobs(store) == {job.job_id for job in plan.jobs[2:]}
    assert store.completed_ids() == set(plan.job_ids())
    assert len(store.merge_into_database(plan).records) == len(plan)


def test_crashed_worker_is_retried_then_recorded_as_failed(plan, store):
    report = CampaignScheduler(
        plan, store, _options(retries=1), runner=crash_runner
    ).run()
    assert report.completed == 0
    assert sorted(report.failed) == sorted(plan.job_ids())
    attempts = list(store.attempts())
    assert len(attempts) == 2 * len(plan)  # one retry per job
    assert all(result.status == STATUS_CRASHED for result in attempts)
    assert all("exited with code 3" in result.error for result in attempts)
    assert store.completed_ids() == set()


def test_runner_exception_is_recorded_and_retried(plan, store):
    report = CampaignScheduler(
        plan, store, _options(retries=0), runner=error_runner
    ).run()
    assert sorted(report.failed) == sorted(plan.job_ids())
    attempts = list(store.attempts())
    assert len(attempts) == len(plan)
    assert all(result.status == STATUS_ERROR for result in attempts)
    assert all("synthetic failure" in result.error for result in attempts)


def test_flaky_job_recovers_on_retry(plan, store):
    report = CampaignScheduler(
        plan, store, _options(retries=1), runner=flaky_runner
    ).run()
    assert report.completed == len(plan)
    assert not report.failed
    statuses = [result.status for result in store.attempts()]
    assert statuses.count(STATUS_CRASHED) == len(plan)
    assert statuses.count(STATUS_DONE) == len(plan)


def test_timeout_kills_the_worker_and_records_the_attempt(store, plan):
    report = CampaignScheduler(
        plan,
        store,
        _options(jobs=4, timeout_s=0.4, retries=0),
        runner=sleepy_runner,
    ).run()
    assert report.completed == 0
    assert sorted(report.failed) == sorted(plan.job_ids())
    attempts = list(store.attempts())
    assert all(result.status == STATUS_TIMEOUT for result in attempts)


def test_store_rejects_a_different_plan(tmp_path, plan):
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    other = expand_plan(cases=["dillo-png"], name="other")
    with pytest.raises(StoreError):
        run_store.initialise(other)


def test_fresh_initialise_adopts_a_different_plan(tmp_path, plan):
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    run_store.append(JobResult(job_id=plan.jobs[0].job_id, status=STATUS_DONE, record={}))

    other = expand_plan(cases=["dillo-png"], name="other")
    run_store.initialise(other, fresh=True)
    assert run_store.load_plan().name == "other"
    assert run_store.completed_ids() == set()


def test_fresh_initialise_discards_records_but_keeps_cache(tmp_path, plan):
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    run_store.append(JobResult(job_id=plan.jobs[0].job_id, status=STATUS_DONE, record={}))
    run_store.cache_path.write_text('{"k":"a||b","v":{"verdict":"equivalent"}}\n')

    run_store.initialise(plan, fresh=True)
    assert run_store.completed_ids() == set()
    assert run_store.cache_path.exists()


def test_attempts_skip_torn_trailing_line(store, plan):
    store.append(JobResult(job_id=plan.jobs[0].job_id, status=STATUS_DONE, record={}))
    with open(store.records_path, "a") as handle:
        handle.write('{"job_id": "torn", "stat')  # interrupted mid-write
    with pytest.warns(RuntimeWarning, match="torn record"):
        results = list(store.attempts())
    assert len(results) == 1
    assert store.completed_ids() == {plan.jobs[0].job_id}


def test_attempts_warn_on_truncated_final_record(store, plan):
    # A writer killed mid-append leaves a prefix of the last record: every
    # complete attempt must survive, the torn one is skipped with a warning.
    for job in plan.jobs:
        store.append(JobResult(job_id=job.job_id, status=STATUS_DONE, record={}))
    whole = store.records_path.read_text()
    last_line_start = whole.rstrip("\n").rfind("\n") + 1
    cut = last_line_start + (len(whole) - last_line_start) // 2
    store.records_path.write_text(whole[:cut])

    with pytest.warns(RuntimeWarning, match="will re-run"):
        results = list(store.attempts())
    assert [r.job_id for r in results] == [job.job_id for job in plan.jobs[:-1]]
    # The truncated job is simply not completed: resume re-runs exactly it.
    with pytest.warns(RuntimeWarning):
        completed = store.completed_ids()
    assert completed == {job.job_id for job in plan.jobs[:-1]}


#: A store written before search policies were removed: one default job and
#: one job under a ``search_policy`` override, both completed.
SEARCH_POLICY_STORE = Path(__file__).with_name("data") / "search_policy_store"


def test_a_store_with_a_search_policy_override_still_loads():
    from repro.campaign import PlanError
    from repro.core.reporting import ResultsDatabase
    from repro.obs.bundle import bundle_from_store
    from repro.obs.schema import ensure_valid_bundle

    store = RunStore(SEARCH_POLICY_STORE)
    plan = store.load_plan()
    assert [dict(job.overrides) for job in plan.jobs] == [
        {},
        {"search_policy": "smallest-patch"},
    ]
    results = store.results()
    assert all(results[job.job_id].completed for job in plan.jobs)
    database = ResultsDatabase.load(SEARCH_POLICY_STORE / "results.json")
    assert [record.success for record in database.records] == [True, True]
    for job in plan.jobs:
        bundle = ensure_valid_bundle(bundle_from_store(store, job.job_id))
        assert bundle["repair"]["success"] is True
        assert bundle["events"]
    # Re-running the override job is a clean plan error, never a silent
    # first-validated run recorded under the old variant.
    with pytest.raises(PlanError, match="search_policy"):
        plan.jobs[1].build_options()
