"""JobBoard placement policy (pure) and coordinator end-to-end runs."""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.campaign import RunStore, expand_plan
from repro.campaign.plan import CampaignPlan
from repro.core.reporting import TransferRecord
from repro.dist import DistOptions, DistributedCoordinator, JobBoard
from repro.dist.coordinator import SPANS_FILE


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
        )
    )


def _marker_dir(spec) -> Path:
    # The cache spec's first path segment lives inside the store directory.
    base = Path(str(spec).split("::")[0]).parent if spec else Path("/tmp")
    directory = base / "ran"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def ok_runner(payload: dict, cache_spec) -> dict:
    (_marker_dir(cache_spec) / f"{payload['job_id']}-{os.getpid()}").touch()
    return {"record": _fake_record(payload), "elapsed_s": 0.01}


def error_runner(payload: dict, cache_spec) -> dict:
    raise ValueError("synthetic failure")


def flaky_runner(payload: dict, cache_spec) -> dict:
    marker = _marker_dir(cache_spec) / f"flaky-{payload['job_id']}"
    if not marker.exists():
        marker.touch()
        raise ValueError("first attempt always fails")
    return {"record": _fake_record(payload), "elapsed_s": 0.01}


def slow_runner(payload: dict, cache_spec) -> dict:
    time.sleep(0.05)
    return ok_runner(payload, cache_spec)


#: Set before the nodes fork; each node process waits on it in its first job.
_RENDEZVOUS = None


def rendezvous_runner(payload: dict, cache_spec) -> dict:
    """A node's first job waits until every node is inside its first job."""
    global _RENDEZVOUS
    if _RENDEZVOUS is not None:
        barrier, _RENDEZVOUS = _RENDEZVOUS, None
        barrier.wait(timeout=60)
    return ok_runner(payload, cache_spec)


class _Job:
    def __init__(self, index: int) -> None:
        self.job_id = f"job-{index:04d}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.job_id


# -- JobBoard (no processes) ---------------------------------------------------------


def test_board_partitions_every_job_exactly_once():
    jobs = [_Job(i) for i in range(100)]
    board = JobBoard(jobs, ["node-0", "node-1", "node-2"])
    assert board.pending() == 100
    total = sum(board.depth(node) for node in ("node-0", "node-1", "node-2"))
    assert total == 100


def test_board_claims_own_partition_before_stealing():
    jobs = [_Job(i) for i in range(50)]
    board = JobBoard(jobs, ["node-0", "node-1"])
    own_depth = board.depth("node-0")
    for _ in range(own_depth):
        job, stolen = board.claim("node-0")
        assert job is not None and not stolen
    job, stolen = board.claim("node-0")
    assert job is not None and stolen  # own queue empty -> steal
    assert board.steals == 1
    assert board.steals_by_node == {"node-0": 1}


def test_board_steals_from_the_most_loaded_peer():
    board = JobBoard([], ["a", "b", "c"])
    board.queues["b"].extend(_Job(i) for i in range(2))
    board.queues["c"].extend(_Job(i) for i in range(10, 15))
    job, stolen = board.claim("a")
    assert stolen
    assert job.job_id == "job-0010"  # head of the deepest queue (c)


def test_board_drains_to_none():
    jobs = [_Job(i) for i in range(4)]
    board = JobBoard(jobs, ["node-0", "node-1"])
    claimed = []
    while True:
        job, _ = board.claim("node-0")
        if job is None:
            break
        claimed.append(job.job_id)
    assert sorted(claimed) == sorted(j.job_id for j in jobs)
    assert board.pending() == 0


def test_fail_node_rerings_unclaimed_jobs_without_loss():
    jobs = [_Job(i) for i in range(60)]
    board = JobBoard(jobs, ["node-0", "node-1", "node-2"])
    stranded = board.depth("node-1")
    moved = board.fail_node("node-1")
    assert moved == stranded
    assert board.reassigned == stranded
    assert board.pending() == 60  # nothing lost
    assert board.depth("node-1") == 0
    # Re-rung jobs land only on survivors.
    assert board.depth("node-0") + board.depth("node-2") == 60


def test_fail_last_node_orphans_then_add_node_rehomes():
    jobs = [_Job(i) for i in range(5)]
    board = JobBoard(jobs, ["only"])
    board.fail_node("only")
    assert board.pending() == 5  # orphaned, not lost
    assert len(board.orphans) == 5
    board.add_node("replacement")
    assert len(board.orphans) == 0
    assert board.depth("replacement") == 5


def test_requeue_respects_the_current_ring():
    jobs = [_Job(i) for i in range(10)]
    board = JobBoard(jobs, ["node-0", "node-1"])
    job, _ = board.claim("node-0")
    board.fail_node("node-1")
    board.requeue(job)
    assert board.depth("node-0") == board.pending()  # only live owner


# -- coordinator end-to-end ----------------------------------------------------------


@pytest.fixture
def plan() -> CampaignPlan:
    return expand_plan(cases=["cwebp-jpegdec", "swfplay-rgb"], name="dist-test")


@pytest.fixture
def store(tmp_path, plan) -> RunStore:
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    return run_store


def _options(**overrides) -> DistOptions:
    base = dict(nodes=2, start_method="fork", poll_interval_s=0.01)
    base.update(overrides)
    return DistOptions(**base)


def test_coordinator_completes_all_jobs(plan, store):
    report = DistributedCoordinator(
        plan, store, _options(), runner=ok_runner
    ).run()
    assert report.completed == len(plan)
    assert not report.failed
    assert store.completed_ids() == set(plan.job_ids())
    # The coordinator is the only writer: the merged table is complete.
    database = store.merge_into_database(plan)
    assert len(database.records) == len(plan)
    # Distributed control-plane telemetry landed in the report.
    assert report.metrics["gauges"]["dist.nodes"] == 2
    assert "distributed: 2 nodes" in report.summary()


def test_coordinator_resume_skips_completed_jobs(plan, store):
    first = DistributedCoordinator(plan, store, _options(), runner=ok_runner).run()
    assert first.completed == len(plan)
    ran_dir = store.directory / "ran"
    for path in ran_dir.iterdir():
        path.unlink()

    second = DistributedCoordinator(plan, store, _options(), runner=ok_runner).run()
    assert second.completed == 0
    assert second.skipped == len(plan)
    assert list(ran_dir.iterdir()) == []  # no job executed twice


def test_runner_errors_are_retried_then_failed(plan, store):
    report = DistributedCoordinator(
        plan, store, _options(retries=0), runner=error_runner
    ).run()
    assert report.completed == 0
    assert sorted(report.failed) == sorted(plan.job_ids())
    attempts = list(store.attempts())
    assert len(attempts) == len(plan)
    assert all("synthetic failure" in result.error for result in attempts)


def test_flaky_jobs_recover_on_retry(plan, store):
    report = DistributedCoordinator(
        plan, store, _options(retries=1), runner=flaky_runner
    ).run()
    assert report.completed == len(plan)
    assert not report.failed
    # One failed + one done attempt per job, all recorded.
    assert len(list(store.attempts())) == 2 * len(plan)


def test_single_node_campaign_works(plan, store):
    report = DistributedCoordinator(
        plan, store, _options(nodes=1), runner=ok_runner
    ).run()
    assert report.completed == len(plan)
    assert report.metrics["counters"]["dist.steals"] == 0


def test_coordinator_writes_per_node_spans(plan, store):
    DistributedCoordinator(plan, store, _options(), runner=slow_runner).run()
    spans_path = store.directory / SPANS_FILE
    assert spans_path.exists()
    import json

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert len(spans) == len(plan)  # one span per settled attempt
    categories = {span["category"] for span in spans}
    assert categories <= {"node:node-0", "node:node-1"}
    names = {span["name"] for span in spans}
    assert names == {f"job:{job_id}" for job_id in plan.job_ids()}
    for span in spans:
        assert span["attrs"]["status"] == "done"
        assert span["attrs"]["attempt"] == 1


def test_per_node_gauges_present(plan, store):
    report = DistributedCoordinator(plan, store, _options(), runner=ok_runner).run()
    gauges = report.metrics["gauges"]
    for node_id in ("node-0", "node-1"):
        for suffix in (
            "queue_depth_peak",
            "jobs_completed",
            "steals_received",
            "cache_hops",
            "utilization",
        ):
            assert f"dist.node.{node_id}.{suffix}" in gauges
    completed = sum(
        gauges[f"dist.node.{node_id}.jobs_completed"]
        for node_id in ("node-0", "node-1")
    )
    assert completed == len(plan)


def test_four_nodes_hold_jobs_at_the_same_time(plan, store):
    """Four nodes run in parallel: no wall clock, a barrier only four jobs pass.

    Each node's first job waits at a four-party barrier, so the campaign
    completes only if the coordinator hands four jobs to four nodes at
    once; a control plane that serialised nodes would break the barrier,
    and with no retries that fails the job.
    """
    global _RENDEZVOUS
    assert len(plan) >= 4
    _RENDEZVOUS = multiprocessing.get_context("fork").Barrier(4)
    try:
        report = DistributedCoordinator(
            plan, store, _options(nodes=4, retries=0), runner=rendezvous_runner
        ).run()
    finally:
        _RENDEZVOUS = None
    assert report.completed == len(plan)
    assert not report.failed
    assert len(list(store.attempts())) == len(plan)
    gauges = report.metrics["gauges"]
    settled = [gauges[f"dist.node.node-{index}.jobs_completed"] for index in range(4)]
    assert all(count >= 1 for count in settled), settled
    assert sum(settled) == len(plan)
