"""The job-execution core both campaign engines run on.

Two engines schedule campaign jobs: the single-host
:class:`~repro.campaign.scheduler.CampaignScheduler` (``jobs``
interchangeable slots fed from one FIFO queue) and the coordinator of
:mod:`repro.dist` (``--nodes``: a consistent-hash ring with work
stealing).  They differ only in *placement* — which job an idle worker
gets next and where a retried job goes.  Everything else lives here and
is shared:

* **Long-lived workers** — a :class:`WorkerPool` starts its worker
  processes once per engine run; each runs :func:`worker_loop`, taking
  one job at a time from its own inbox until told to shut down.  A
  worker that crashes, or is killed because its attempt overran
  ``timeout_s``, is written off and the engine decides whether it gets a
  successor.  Each job still builds its own session; the registry is
  reset around every job by the runners, so per-job metric snapshots
  stay exact.
* **Result transport** — the *payload* (the transfer record, arbitrarily
  large) is written to a per-attempt file in the store's ``outbox/``
  directory via atomic rename, and only a small fixed-size *doorbell*
  message travels over the shared queue.  A worker killed mid-send can
  therefore never leave a torn pickle frame that poisons the queue, and
  the outbox file — not the doorbell — is the ground truth for a worker
  that dies after publishing.  Every doorbell also asks for the worker's
  next job; a worker with nothing to claim is *parked* until a retry, a
  re-rung queue or a shutdown reaches it, so no loop sleeps.
* **Attempt budgets** — a job gets ``1 + retries`` attempts per engine run
  (:class:`AttemptLedger`); crashes, timeouts, runner exceptions, and
  unreadable payloads all consume an attempt, *every* attempt is
  appended to the store so a resumed run sees the full history, and
  retries go to the back of the queue.
* **Accounting** — completed records fold their solver/stage counters into
  the shared :class:`~repro.campaign.scheduler.CampaignReport`
  (:func:`account_completed`), and per-class rates count skipped
  (already-done) jobs from their stored records so a resumed campaign
  reports the same rates as an uninterrupted one (:func:`pending_jobs`,
  :class:`ClassAccountant`).

The engine process is the only writer of ``records.jsonl``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from ..obs import metrics as obs_metrics
from .store import STATUS_CRASHED, STATUS_DONE, STATUS_ERROR, STATUS_TIMEOUT, JobResult

#: Scratch directory (relative to the run-store directory) holding
#: per-attempt result payload files.
OUTBOX_DIR = "outbox"


# -- outbox payload transport ------------------------------------------------------------


def outbox_path(store) -> Path:
    """The store's outbox scratch directory (not created)."""
    return store.directory / OUTBOX_DIR


def reset_outbox(store) -> Path:
    """Wipe and recreate the outbox.

    Payload files surviving from a killed run are unreadable-by-design
    remnants whose doorbell never fired; their jobs re-run anyway.
    """
    outbox = outbox_path(store)
    shutil.rmtree(outbox, ignore_errors=True)
    outbox.mkdir(parents=True, exist_ok=True)
    return outbox


def remove_outbox(store) -> None:
    shutil.rmtree(outbox_path(store), ignore_errors=True)


def outbox_file(outbox: Path, job_id: str, attempt: int) -> Path:
    return Path(outbox) / f"{job_id}.{attempt}.json"


def write_payload(outbox: Path, job_id: str, attempt: int, result: Mapping) -> Path:
    """Atomically publish one attempt's result payload (write + rename)."""
    target = outbox_file(outbox, job_id, attempt)
    scratch = target.with_suffix(".tmp")
    scratch.write_text(json.dumps(result))
    os.replace(scratch, target)  # atomic: readers never see a torn payload
    return target


def read_payload(outbox: Path, job_id: str, attempt: int) -> dict:
    """Load one attempt's payload; raises ``OSError``/``JSONDecodeError``."""
    return json.loads(outbox_file(outbox, job_id, attempt).read_text())


def discard_payload(outbox: Path, job_id: str, attempt: int) -> None:
    outbox_file(outbox, job_id, attempt).unlink(missing_ok=True)


# -- wire messages -----------------------------------------------------------------------
#
# Every message is a small plain dict (picklable, well under ``PIPE_BUF``).
# Engine -> worker, on the worker's inbox: ``job`` (a job payload plus its
# attempt number) or ``shutdown``.  Worker -> engine, on the shared doorbell
# queue: ``work_request`` (sent once, at start-up) or ``result`` (an attempt
# finished; its payload is in the outbox).

KIND_WORK_REQUEST = "work_request"
KIND_RESULT = "result"
KIND_JOB = "job"
KIND_SHUTDOWN = "shutdown"

#: How often a worker waiting on its inbox checks that the engine process
#: is still alive, so an engine killed without a shutdown leaves no
#: orphaned workers behind.
_ORPHAN_CHECK_S = 1.0


def work_request(worker_id: str) -> dict:
    return {"kind": KIND_WORK_REQUEST, "worker_id": worker_id}


def result_message(
    worker_id: str,
    job_id: str,
    attempt: int,
    ok: bool,
    elapsed_s: float = 0.0,
    error: str = "",
) -> dict:
    message = {
        "kind": KIND_RESULT,
        "worker_id": worker_id,
        "job_id": job_id,
        "attempt": attempt,
        "ok": ok,
        "elapsed_s": elapsed_s,
    }
    if error:
        message["error"] = error[:300]
    return message


def job_message(payload: dict, attempt: int) -> dict:
    return {"kind": KIND_JOB, "payload": payload, "attempt": attempt}


def shutdown_message() -> dict:
    return {"kind": KIND_SHUTDOWN}


def worker_loop(
    worker_id: str,
    runner,
    cache_path: Optional[str],
    inbox,
    doorbells,
    outbox: str,
) -> None:
    """Entry point of every campaign worker process, under both engines.

    ``runner`` is a picklable ``(job payload, cache path) -> result``
    callable; ``cache_path`` is the persistent solver cache (a sharded
    spec under ``--nodes``).  The worker runs one job at a time,
    publishes its payload to the outbox, and rings the doorbell, which
    doubles as its request for the next job.  Runner exceptions become
    failed attempts; only the engine ever decides a worker is dead.  The
    loop ends on ``shutdown``, or when the engine process has died.
    """
    engine = multiprocessing.parent_process()
    doorbells.put(work_request(worker_id))
    while True:
        try:
            message = inbox.get(timeout=_ORPHAN_CHECK_S)
        except queue_module.Empty:
            if engine is not None and not engine.is_alive():
                return
            continue
        if message.get("kind") == KIND_SHUTDOWN:
            return
        payload = message["payload"]
        attempt = message["attempt"]
        job_id = payload.get("job_id", "")
        start = time.perf_counter()
        try:
            result = runner(payload, cache_path)
            write_payload(outbox, job_id, attempt, result)
            doorbell = result_message(
                worker_id,
                job_id,
                attempt,
                ok=True,
                elapsed_s=result.get("elapsed_s", time.perf_counter() - start),
            )
        except Exception as exc:  # noqa: BLE001 - report, the engine decides
            doorbell = result_message(
                worker_id,
                job_id,
                attempt,
                ok=False,
                elapsed_s=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
            )
        doorbells.put(doorbell)


# -- attempt budgets ---------------------------------------------------------------------


class AttemptLedger:
    """Per-run attempt counters: a job gets ``1 + retries`` attempts."""

    def __init__(self, retries: int) -> None:
        self.budget = 1 + max(0, retries)
        self._attempts: dict[str, int] = {}

    def begin(self, job_id: str) -> int:
        """Start the next attempt for ``job_id``; returns its 1-based number."""
        attempt = self._attempts.get(job_id, 0) + 1
        self._attempts[job_id] = attempt
        return attempt

    def count(self, job_id: str) -> int:
        return self._attempts.get(job_id, 0)

    def exhausted(self, job_id: str) -> bool:
        """True when the job has no attempts left in this run's budget."""
        return self._attempts.get(job_id, 0) >= self.budget


# -- the worker pool ---------------------------------------------------------------------


@dataclass(eq=False)
class Worker:
    """The engine's view of one worker process and the attempt it runs."""

    worker_id: str
    process: Any = None
    inbox: Any = None              # this worker's job queue
    job: Any = None                # the JobSpec it is running, if any
    attempt: int = 0
    started_at: float = 0.0
    busy_s: float = 0.0

    @property
    def busy(self) -> bool:
        return self.job is not None


class WorkerPool:
    """One engine run: long-lived workers, the doorbell queue, settlement.

    ``engine`` supplies ``store``, ``runner``, ``options`` (``retries``,
    ``timeout_s``, ``poll_interval_s``, ``start_method``) and
    ``accountant``.  Subclasses decide placement by overriding
    :meth:`claim`, :meth:`requeue` and :meth:`replace`; :meth:`retired`
    and :meth:`settled` are optional bookkeeping hooks.
    """

    #: How crash errors name a worker: "worker exited with code N".
    role = "worker"

    def __init__(self, engine, report, jobs, on_result=None) -> None:
        self.store = engine.store
        self.runner = engine.runner
        self.options = engine.options
        self.accountant = engine.accountant
        self.report = report
        self.on_result = on_result
        self.ledger = AttemptLedger(self.options.retries)
        self.unsettled = {job.job_id for job in jobs}
        self.outbox = reset_outbox(self.store)  # leftovers from a killed run
        method = self.options.start_method
        if method is None:
            method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        self._ctx = multiprocessing.get_context(method)
        self.doorbells = self._ctx.Queue()
        self.workers: dict[str, Worker] = {}  # every worker this run started
        self.live: dict[str, Worker] = {}
        self.parked: list[Worker] = []         # idle, nothing was claimable

    # -- placement policy (subclass hooks) -----------------------------------------------

    def claim(self, worker: Worker):
        """The next job for an idle ``worker``, or ``None`` to park it."""
        raise NotImplementedError

    def requeue(self, job) -> None:
        """Take back a job whose attempt failed with budget left."""
        raise NotImplementedError

    def replace(self, worker: Worker, status: str) -> None:
        """Decide on a successor for a lost worker (jobs are still unsettled)."""
        raise NotImplementedError

    def retired(self, worker: Worker, status: str) -> None:
        """A worker was lost; called before its attempt, if any, settles."""

    def settled(self, worker: Worker, result: JobResult, payload: Optional[dict]) -> None:
        """An attempt of ``worker.job`` was recorded."""

    # -- running -------------------------------------------------------------------------

    def start(self, worker: Worker, cache_path: Optional[str]) -> None:
        """Launch ``worker``'s process; it asks for a job once it is up."""
        worker.inbox = self._ctx.Queue()
        worker.process = self._ctx.Process(
            target=worker_loop,
            args=(
                worker.worker_id,
                self.runner,
                cache_path,
                worker.inbox,
                self.doorbells,
                str(self.outbox),
            ),
            daemon=True,
        )
        worker.process.start()
        self.workers[worker.worker_id] = self.live[worker.worker_id] = worker

    def serve(self) -> None:
        """Run until every job has settled, then shut the workers down."""
        try:
            while self.unsettled:
                self._offer()
                message = self._next_doorbell()
                if message is not None:
                    self._handle(message)
                self._reap()
        finally:
            self._close()

    def _next_doorbell(self) -> Optional[dict]:
        """Block until a doorbell or the nearest attempt deadline.

        ``poll_interval_s`` caps the wait, so a worker that died without
        ringing is noticed within it.
        """
        wait = self.options.poll_interval_s
        if self.options.timeout_s is not None:
            now = time.perf_counter()
            for worker in self.live.values():
                if worker.busy:
                    deadline = worker.started_at + self.options.timeout_s
                    wait = min(wait, deadline - now)
        try:
            return self.doorbells.get(timeout=max(wait, 0.0))
        except queue_module.Empty:
            return None

    def _drain(self) -> None:
        while True:
            try:
                message = self.doorbells.get_nowait()
            except queue_module.Empty:
                return
            self._handle(message)

    def _dispatch(self, worker: Worker) -> bool:
        job = self.claim(worker)
        if job is None:
            return False
        worker.job = job
        worker.attempt = self.ledger.begin(job.job_id)
        worker.started_at = time.perf_counter()
        worker.inbox.put(job_message(job.to_dict(), worker.attempt))
        return True

    def _offer(self) -> None:
        """Hand claimable work to parked workers, longest parked first."""
        while self.parked and self._dispatch(self.parked[0]):
            self.parked.pop(0)

    def _handle(self, message: dict) -> None:
        if message.get("kind") == KIND_RESULT:
            self._ring(message)
        # Every doorbell from a live worker asks for its next job.
        worker = self.live.get(message.get("worker_id", ""))
        if worker is not None and not worker.busy and not self._dispatch(worker):
            self.parked.append(worker)

    def _ring(self, message: dict) -> None:
        """Settle the attempt a result doorbell reports, if it is current."""
        worker = self.workers.get(message.get("worker_id", ""))
        job_id = message.get("job_id", "")
        attempt = message.get("attempt")
        if (
            worker is None
            or not worker.busy
            or worker.job.job_id != job_id
            or worker.attempt != attempt
        ):
            # A doorbell from an attempt already written off (its worker
            # was killed at the deadline, or died and was reaped): drop it
            # and its payload rather than credit a stale record.
            if job_id and isinstance(attempt, int):
                discard_payload(self.outbox, job_id, attempt)
            return
        payload, error = None, message.get("error", "")
        if message.get("ok"):
            payload, error = self._take_payload(job_id, attempt)
        else:
            discard_payload(self.outbox, job_id, attempt)
        if payload is None:
            result = JobResult(
                job_id=job_id, status=STATUS_ERROR, attempt=attempt, error=error
            )
        else:
            result = JobResult(
                job_id=job_id,
                status=STATUS_DONE,
                attempt=attempt,
                elapsed_s=message.get("elapsed_s", 0.0) or payload.get("elapsed_s", 0.0),
                record=payload.get("record"),
            )
        self._settle(worker, result, payload)

    def _take_payload(self, job_id: str, attempt: int) -> tuple[Optional[dict], str]:
        """Read and discard one attempt's outbox payload: ``(payload, error)``."""
        try:
            return read_payload(self.outbox, job_id, attempt), ""
        except (OSError, json.JSONDecodeError) as exc:
            return None, f"result payload unreadable: {exc}"
        finally:
            discard_payload(self.outbox, job_id, attempt)

    def _reap(self) -> None:
        """Write off workers that died, or whose attempt overran its deadline."""
        timeout_s = self.options.timeout_s
        for worker in list(self.live.values()):
            if worker.worker_id not in self.live:
                continue
            overdue = (
                timeout_s is not None
                and worker.busy
                and time.perf_counter() - worker.started_at > timeout_s
            )
            if overdue and worker.process.is_alive():
                attempt = (worker.job.job_id, worker.attempt)
                self._drain()  # a doorbell may have arrived at the deadline
                if not worker.busy or (worker.job.job_id, worker.attempt) != attempt:
                    continue
                worker.process.terminate()
                worker.process.join(timeout=1)
                self._lose(worker, STATUS_TIMEOUT, f"timed out after {timeout_s}s")
            elif not worker.process.is_alive():
                # Out of the live set first, so the doorbells it rang before
                # dying still settle but hand it no new job.
                self._withdraw(worker)
                self._drain()
                self._lose(
                    worker,
                    STATUS_CRASHED,
                    f"{self.role} exited with code {worker.process.exitcode}",
                )

    def _withdraw(self, worker: Worker) -> None:
        """Take ``worker`` out of the live set (and off the parked list)."""
        self.live.pop(worker.worker_id, None)
        if worker in self.parked:
            self.parked.remove(worker)

    def _lose(self, worker: Worker, status: str, error: str) -> None:
        """Write off a lost worker's attempt, then let the engine replace it."""
        self._withdraw(worker)
        worker.inbox.close()
        self.retired(worker, status)
        if worker.busy:
            # The outbox payload, not the doorbell, is the ground truth: a
            # worker that died after publishing still completed its job.
            job_id = worker.job.job_id
            payload, _ = self._take_payload(job_id, worker.attempt)
            if payload is None:
                result = JobResult(
                    job_id=job_id,
                    status=status,
                    attempt=worker.attempt,
                    elapsed_s=time.perf_counter() - worker.started_at,
                    error=error,
                )
            else:
                result = JobResult(
                    job_id=job_id,
                    status=STATUS_DONE,
                    attempt=worker.attempt,
                    elapsed_s=payload.get("elapsed_s", 0.0),
                    record=payload.get("record"),
                )
            self._settle(worker, result, payload)
        if self.unsettled:
            self.replace(worker, status)

    def _settle(
        self, worker: Worker, result: JobResult, payload: Optional[dict] = None
    ) -> None:
        """Record the attempt ``worker`` ran; complete, retry, or fail its job."""
        job = worker.job
        report = self.report
        worker.busy_s += time.perf_counter() - worker.started_at
        self.store.append(result)
        if result.completed:
            self.unsettled.discard(job.job_id)
            if payload:
                events = payload.get("events") or []
                if events:
                    self.store.write_events(job.job_id, events)
                snapshot = payload.get("metrics")
                if snapshot:
                    obs_metrics.merge_snapshots(report.metrics, snapshot)
            account_completed(report, result)
            report.completed += 1
            self.accountant.account(
                report, job, completed=True,
                success=bool((result.record or {}).get("success")),
            )
        elif self.ledger.exhausted(job.job_id):
            self.unsettled.discard(job.job_id)
            report.failed.append(job.job_id)
            self.accountant.account(report, job, completed=False)
        else:
            # Retries go to the back of the queue: other jobs are not
            # starved behind a flapping one.
            self.requeue(job)
        self.settled(worker, result, payload)
        worker.job = None
        if self.on_result is not None:
            self.on_result(job, result)

    def _close(self) -> None:
        for worker in self.live.values():
            try:
                worker.inbox.put(shutdown_message())
            except (OSError, ValueError):
                pass
        # Requests still queued (e.g. from a replacement that never got a
        # job) are read before joining their writers.
        try:
            while True:
                self.doorbells.get_nowait()
        except queue_module.Empty:
            pass
        for worker in self.workers.values():
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1)
        self.doorbells.close()
        remove_outbox(self.store)


# -- report accounting -------------------------------------------------------------------


class ClassAccountant:
    """Folds settled jobs into a report's per-class transfer stats.

    ``job_class`` maps a job to its reporting class(es): either a callable
    over :class:`~repro.campaign.plan.JobSpec` or a mapping keyed by case
    id.  A job may belong to several classes at once (the scenario matrix
    reports each case under its :class:`~repro.lang.trace.ErrorKind` *and*
    its hardness dimension) — the mapped value is one class name or an
    iterable of them.  ``None`` disables class accounting entirely.
    """

    def __init__(self, job_class: Optional[object]) -> None:
        if job_class is None or callable(job_class):
            self._job_class = job_class
        else:
            self._job_class = lambda job: job_class.get(job.case_id)

    @property
    def enabled(self) -> bool:
        return self._job_class is not None

    def account(self, report, job, completed: bool, success: bool = False) -> None:
        """Fold one settled (or skipped-as-done) job into the class stats."""
        if self._job_class is None:
            return
        names = self._job_class(job)
        if names is None:
            return
        if isinstance(names, str):
            names = (names,)
        for name in names:
            counters = report.class_stats.setdefault(
                name, {"jobs": 0, "completed": 0, "validated": 0, "failed": 0}
            )
            counters["jobs"] += 1
            if completed:
                counters["completed"] += 1
                if success:
                    counters["validated"] += 1
            else:
                counters["failed"] += 1


def account_completed(report, result) -> None:
    """Fold one completed attempt's record into the report aggregates."""
    from ..solver.backends import merge_snapshots

    record = result.record or {}
    report.solver_queries += record.get("solver_queries", 0)
    report.solver_cache_hits += record.get("solver_cache_hits", 0)
    report.persistent_cache_hits += record.get("solver_persistent_hits", 0)
    report.expensive_queries += record.get("solver_expensive_queries", 0)
    report.batch_hits += record.get("solver_batch_hits", 0)
    merge_snapshots(report.backend_stats, record.get("solver_backend_stats") or {})
    for stage, elapsed in (record.get("stage_timings") or {}).items():
        report.stage_timings[stage] = report.stage_timings.get(stage, 0.0) + elapsed


def pending_jobs(plan, store, report, accountant: ClassAccountant) -> list:
    """The plan's jobs the store has not completed, in plan order.

    Resume is skip-by-id: completed jobs are counted in ``report.skipped``
    and contribute their stored record's verdict to the per-class rates,
    so a resumed campaign reports the same rates as an uninterrupted one.
    """
    stored = store.results()
    pending = []
    for job in plan.jobs:
        result = stored.get(job.job_id)
        if result is None or not result.completed:
            pending.append(job)
            continue
        report.skipped += 1
        accountant.account(
            report, job, completed=True,
            success=bool((result.record or {}).get("success")),
        )
    return pending
