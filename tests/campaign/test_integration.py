"""End-to-end campaign runs with real transfers.

The first test runs one error case with 3 donors against direct repairs;
the second runs the full Figure 8 plan serial, parallel, and warm.
"""

from __future__ import annotations

import dataclasses

from repro.campaign import (
    CampaignScheduler,
    RunStore,
    SchedulerOptions,
    expand_plan,
    figure8_plan,
)
from repro.core.reporting import ResultsDatabase
from repro.experiments import Figure8Row, run_row


def _normalise(record):
    """Strip wall-clock and per-run solver accounting for comparison."""
    return dataclasses.replace(
        record,
        generation_time_s=0.0,
        solver_queries=0,
        solver_cache_hits=0,
        solver_persistent_hits=0,
        solver_expensive_queries=0,
        stage_timings={},
    )


def test_parallel_campaign_matches_serial_run_and_warm_cache_hits(tmp_path):
    plan = expand_plan(cases=["cwebp-jpegdec"], name="integration")

    serial = ResultsDatabase()
    for job in plan.jobs:
        serial.add(run_row(Figure8Row(case_id=job.case_id, donor=job.donor)))

    store = RunStore(tmp_path / "run")
    store.initialise(plan)
    cold = CampaignScheduler(plan, store, SchedulerOptions(jobs=3, start_method="fork")).run()
    assert cold.completed == len(plan)
    assert not cold.failed

    parallel = store.merge_into_database(plan)
    assert [_normalise(r) for r in parallel.records] == [
        _normalise(r) for r in serial.records
    ]

    # Warm re-run (records discarded, cache kept): the persistent cache now
    # answers queries the cold run had to evaluate.
    store.initialise(plan, fresh=True)
    warm = CampaignScheduler(plan, store, SchedulerOptions(jobs=1, start_method="fork")).run()
    assert warm.completed == len(plan)
    assert warm.persistent_cache_hits > cold.persistent_cache_hits
    assert warm.persistent_hit_rate > 0.0
    warm_db = store.merge_into_database(plan)
    assert [_normalise(r) for r in warm_db.records] == [
        _normalise(r) for r in serial.records
    ]


def test_full_figure8_campaign_parallel_equals_serial_and_warm_cache_saves_work(tmp_path):
    plan = figure8_plan()
    serial_store = RunStore(tmp_path / "serial")
    serial_store.initialise(plan)
    cold = CampaignScheduler(
        plan, serial_store, SchedulerOptions(jobs=1, start_method="fork")
    ).run()
    parallel_store = RunStore(tmp_path / "parallel")
    parallel_store.initialise(plan)
    parallel = CampaignScheduler(
        plan, parallel_store, SchedulerOptions(jobs=2, start_method="fork")
    ).run()
    assert cold.completed == parallel.completed == len(plan)
    assert [_normalise(r) for r in parallel_store.merge_into_database(plan).records] == [
        _normalise(r) for r in serial_store.merge_into_database(plan).records
    ]

    # A warm re-run answers from the persistent cache what the cold run had
    # to send to the expensive decision procedures.
    serial_store.initialise(plan, fresh=True)
    warm = CampaignScheduler(
        plan, serial_store, SchedulerOptions(jobs=1, start_method="fork")
    ).run()
    assert cold.expensive_queries > 0
    assert warm.expensive_queries < cold.expensive_queries
    assert warm.persistent_cache_hits > cold.persistent_cache_hits
