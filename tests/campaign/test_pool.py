"""The scheduler's long-lived worker pool: reuse, crash and timeout isolation.

Stub runners communicate with the test through files next to the store's
solver cache, as in ``test_store.py``, whose ``<job>-<pid>`` markers
(``ok_runner``) show which worker process ran each job.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest
from test_store import _fake_record, _marker_dir, ok_runner

from repro.campaign import (
    STATUS_CRASHED,
    STATUS_DONE,
    STATUS_TIMEOUT,
    CampaignScheduler,
    RunStore,
    SchedulerOptions,
    expand_plan,
)
from repro.campaign.execution import WorkerPool, outbox_file, result_message, write_payload


def _target(cache_path: str) -> str:
    """The job id the test singled out (written before the run)."""
    return (Path(cache_path).parent / "target").read_text()


def crash_target_runner(payload: dict, cache_path: str) -> dict:
    if payload["job_id"] == _target(cache_path):
        os._exit(7)
    return ok_runner(payload, cache_path)


def hang_target_runner(payload: dict, cache_path: str) -> dict:
    """Mark every job with its pid; the target job then hangs past any timeout."""
    result = ok_runner(payload, cache_path)
    if payload["job_id"] == _target(cache_path):
        time.sleep(30)
    return result


def hang_later_worker_runner(payload: dict, cache_path: str) -> dict:
    """The later-forked of the two workers hangs in its first job.

    Workers are named in fork order (``Process-N:1``, ``Process-N:2``).
    The earlier one waits until the later one has hung before it runs
    anything, so each worker holds a job whichever asks first.
    """
    hung = Path(cache_path).parent / "hung"
    if multiprocessing.current_process().name.endswith(":2"):
        result = ok_runner(payload, cache_path)
        hung.write_text(str(os.getpid()))
        time.sleep(30)
        return result
    deadline = time.monotonic() + 10
    while not hung.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("the later-forked worker never took a job")
        time.sleep(0.01)
    return ok_runner(payload, cache_path)


def late_doorbell_runner(payload: dict, cache_path: str) -> dict:
    """The target's first attempt hangs; its retry starts once the forged
    payload of the first attempt has been discarded."""
    job_id = payload["job_id"]
    if job_id != _target(cache_path):
        return ok_runner(payload, cache_path)
    first = _marker_dir(cache_path) / f"first-{job_id}"
    if not first.exists():
        first.touch()
        time.sleep(30)
    forged = outbox_file(Path(cache_path).parent / "outbox", job_id, 1)
    deadline = time.monotonic() + 10
    while forged.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("the late doorbell's payload was never discarded")
        time.sleep(0.01)
    return {"record": _fake_record(payload), "elapsed_s": 0.01}


def _campaign(store_dir: str, runner) -> None:
    plan = expand_plan(cases=["cwebp-jpegdec", "swfplay-rgb"], name="pool")
    CampaignScheduler(plan, RunStore(store_dir), _options(), runner=runner).run()


def _exited(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return True
    return "\nState:\tZ" in status  # a zombie has exited too


def _options(**overrides) -> SchedulerOptions:
    base = dict(jobs=2, start_method="fork", poll_interval_s=0.01)
    base.update(overrides)
    return SchedulerOptions(**base)


@pytest.fixture
def plan():
    return expand_plan(cases=["cwebp-jpegdec", "swfplay-rgb"], name="pool")  # 4 jobs


@pytest.fixture
def store(tmp_path, plan):
    run_store = RunStore(tmp_path / "run")
    run_store.initialise(plan)
    return run_store


def _pids_by_job(store: RunStore) -> dict[str, list[int]]:
    """Job id -> pids of the workers that ran it, in marker creation order."""
    marks = sorted(
        (store.directory / "ran").glob("*-*"), key=lambda path: path.stat().st_mtime_ns
    )
    runs: dict[str, list[int]] = {}
    for path in marks:
        job_id, _, pid = path.name.rpartition("-")
        if job_id.startswith("first"):
            continue
        runs.setdefault(job_id, []).append(int(pid))
    return runs


def _attempts(store: RunStore, job_id: str) -> list:
    return [result for result in store.attempts() if result.job_id == job_id]


def test_jobs_run_on_at_most_one_process_per_slot(plan, store):
    report = CampaignScheduler(plan, store, _options(), runner=ok_runner).run()
    assert report.completed == len(plan)
    pids = {pid for runs in _pids_by_job(store).values() for pid in runs}
    assert 1 <= len(pids) <= 2
    assert report.metrics["counters"]["campaign.worker_respawns"] == 0
    assert "0 respawned" in report.summary()


def test_a_crash_is_recorded_and_its_worker_replaced(plan, store):
    target = plan.jobs[0].job_id
    (store.directory / "target").write_text(target)
    report = CampaignScheduler(
        plan, store, _options(retries=1), runner=crash_target_runner
    ).run()

    crashed = _attempts(store, target)
    assert [result.status for result in crashed] == [STATUS_CRASHED] * 2
    assert all(result.error == "worker exited with code 7" for result in crashed)
    assert report.failed == [target]
    others = set(plan.job_ids()) - {target}
    assert store.completed_ids() == others
    # The first crash left the retry pending, so the slot was refilled.
    assert report.metrics["counters"]["campaign.worker_respawns"] >= 1


def test_a_timeout_kills_only_its_own_worker(plan, store):
    target = plan.jobs[0].job_id
    (store.directory / "target").write_text(target)
    report = CampaignScheduler(
        plan, store, _options(timeout_s=1.0, retries=1), runner=hang_target_runner
    ).run()

    assert [result.status for result in _attempts(store, target)] == [STATUS_TIMEOUT] * 2
    assert store.completed_ids() == set(plan.job_ids()) - {target}
    runs = _pids_by_job(store)
    killed, survivor = runs[target]
    assert killed != survivor
    # The other worker ran every other job, outlived the first kill, and
    # took the retry: a timeout takes down its own worker and no other.
    assert {pid for job_id, pids in runs.items() if job_id != target for pid in pids} == {
        survivor
    }
    assert report.metrics["counters"]["campaign.worker_respawns"] == 1


def test_a_late_doorbell_from_a_killed_worker_is_discarded(plan, store, monkeypatch):
    target = plan.jobs[0].job_id
    (store.directory / "target").write_text(target)
    pools: list[WorkerPool] = []
    serve = WorkerPool.serve

    def capture(pool):
        pools.append(pool)
        return serve(pool)

    monkeypatch.setattr(WorkerPool, "serve", capture)
    forged = _fake_record({"case_id": "forged", "donor": "x"})

    def on_result(job, result) -> None:
        if result.status != STATUS_TIMEOUT:
            return
        # The killed worker's doorbell and payload, arriving after the kill.
        pool = pools[0]
        (killed,) = [w for w in pool.workers.values() if w.worker_id not in pool.live]
        write_payload(pool.outbox, job.job_id, result.attempt, {"record": forged})
        pool.doorbells.put(
            result_message(killed.worker_id, job.job_id, result.attempt, ok=True)
        )

    report = CampaignScheduler(
        plan, store, _options(timeout_s=1.0, retries=1), runner=late_doorbell_runner
    ).run(on_result=on_result)

    attempts = _attempts(store, target)
    assert [(r.status, r.attempt) for r in attempts] == [
        (STATUS_TIMEOUT, 1),
        (STATUS_DONE, 2),
    ]
    assert attempts[1].record["recipient"] == plan.jobs[0].case_id
    assert report.completed == len(plan)
    assert not any(
        (result.record or {}).get("recipient") == "forged" for result in store.attempts()
    )


def test_the_pool_runs_under_spawn(plan, store):
    report = CampaignScheduler(
        plan, store, _options(start_method="spawn"), runner=ok_runner
    ).run()
    assert report.completed == len(plan)
    assert store.completed_ids() == set(plan.job_ids())
    pids = {pid for runs in _pids_by_job(store).values() for pid in runs}
    assert 1 <= len(pids) <= 2


def _kill_campaign_and_await_idle_exit(store, plan, runner, hung_pid) -> None:
    """Run ``runner``'s campaign in a child, SIGKILL it once every job has
    started, and require the worker that is not hung to exit on its own."""
    child = multiprocessing.get_context("fork").Process(
        target=_campaign, args=(str(store.directory), runner)
    )
    child.start()
    deadline = time.monotonic() + 20
    while len(_pids_by_job(store)) < len(plan):
        assert time.monotonic() < deadline, "the campaign never ran every job"
        time.sleep(0.02)
    os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=5)

    hung = hung_pid()
    (idle,) = {pid for pids in _pids_by_job(store).values() for pid in pids} - {hung}
    try:
        # The idle worker notices its engine is gone and exits on its own.
        deadline = time.monotonic() + 10
        while not _exited(idle):
            assert time.monotonic() < deadline, "an orphaned worker outlived its engine"
            time.sleep(0.05)
    finally:
        for pid in (hung, idle):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_workers_exit_when_the_scheduler_is_killed(plan, store):
    target = plan.jobs[0].job_id
    (store.directory / "target").write_text(target)
    _kill_campaign_and_await_idle_exit(
        store, plan, hang_target_runner, lambda: _pids_by_job(store)[target][0]
    )


def test_an_earlier_forked_worker_exits_when_the_scheduler_is_killed(plan, store):
    """The later sibling holds the engine's end of the earlier worker's
    parent-sentinel pipe; the earlier worker must still see the engine die."""
    _kill_campaign_and_await_idle_exit(
        store,
        plan,
        hang_later_worker_runner,
        lambda: int((store.directory / "hung").read_text()),
    )
