"""Single-host campaign scheduler with retry, timeout, and resume.

The scheduler owns the control plane of a campaign on one host: it starts
``jobs`` long-lived worker processes once per :meth:`CampaignScheduler.run`,
hands each pending job to the next idle worker, and appends every attempt
to the :class:`RunStore`.  Workers run the same loop as the ``--nodes``
coordinator's (:func:`repro.campaign.execution.worker_loop`): take a job,
run it, publish the payload, ring the doorbell.  Between doorbells the
scheduler blocks on the doorbell queue until the next one arrives or the
nearest attempt deadline passes; ``poll_interval_s`` only caps that wait,
so a worker that died without ringing is noticed within it.

A crashing transfer (or one killed by the per-attempt timeout) cannot take
the campaign down: only its worker dies, the attempt is recorded, the job
is retried up to ``retries`` extra times (crashes, timeouts, and runner
exceptions all count as failed attempts), and a replacement worker takes
the dead one's slot.

Result transport is split in two to stay robust against ``terminate()``:

* the *payload* (the transfer record, arbitrarily large) is written to a
  per-attempt file in the store's ``outbox/`` directory via atomic rename;
* the *doorbell* (job id, attempt, ok/error) goes over a shared queue as a
  small fixed-size message — well under ``PIPE_BUF``, so a worker killed
  mid-send cannot leave a torn pickle frame that poisons the queue.

The outbox file, not the queue message, is the ground truth for a worker
that dies after publishing: the scheduler recovers the result from the
file instead of misclassifying the job as crashed.

Retry semantics
---------------

A job gets ``1 + retries`` attempts.  Crashes (the worker exits),
per-attempt timeouts, runner exceptions, and unreadable result payloads all
count as failed attempts; *every* attempt — including the failed ones — is
appended to the store, so a resumed run sees the full history.  Retried jobs
go to the back of the pending queue (other jobs are not starved behind a
flapping one), and ``timeout_s`` bounds each attempt individually, so a job
with retries may run for ``(1 + retries) * timeout_s`` of wall clock in
total.  A job is *failed* for this run only when its attempt budget is
exhausted; a later ``run()`` against the same store starts a fresh budget.

Resume semantics
----------------

``run()`` asks the store for completed job ids up front and never launches
those jobs again — resume is skip-by-id, there is no in-flight state to
reconstruct.  Jobs that were running when a previous campaign died simply
have no completion record and run again from scratch.  The ``outbox/``
scratch directory is wiped at startup: payload files from a killed run are
unreadable-by-design remnants whose doorbell never fired, and their jobs
will be re-attempted anyway.

Only the scheduler writes ``records.jsonl``.  The one multi-writer file is
the persistent solver cache, which is designed for concurrent appends (see
:mod:`repro.campaign.cache`); workers attach to it via the cache path the
scheduler passes down, and their verdicts are namespaced by solver options
so different option variants never replay each other's results (see
:mod:`repro.solver.equivalence`).

The worker entry point is :func:`repro.experiments.execute_job`, which runs
each transfer through the :mod:`repro.api` facade — the scheduler knows
nothing about pipeline stages; the per-stage timing breakdown each worker
reports (``stage_timings`` on the record) is persisted with every attempt
and aggregated into the :class:`CampaignReport`.  Each job builds its own
session and resets the worker's metrics registry, so a long-lived worker
reports exactly what every job did.  Tests inject a stub ``runner`` (any
module-level callable with the same signature) to exercise scheduling
policies without running real transfers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from ..obs import metrics as obs_metrics
from .execution import ClassAccountant, Worker, WorkerPool, pending_jobs
from .plan import CampaignPlan, JobSpec
from .store import JobResult, RunStore

#: A runner maps (job payload, persistent cache path) -> result payload with
#: a ``record`` dict and an ``elapsed_s`` float.  Must be picklable
#: (module-level) so it survives non-fork start methods.
Runner = Callable[[dict, Optional[str]], dict]


def default_job_runner(payload: dict, cache_path: Optional[str]) -> dict:
    """Run one real transfer; executed inside a worker process.

    Besides the record, the payload ships the job's serialized event stream
    (persisted to the store's ``events/`` directory for ``codephage trace``
    and ``codephage bundle``) and a per-job metrics snapshot: the worker's
    registry is reset and enabled around the transfer, so the snapshot is
    exactly this job's counters in a long-lived worker that ran others
    before it, or that inherited the parent's registry state by fork.
    """
    from ..core.events import events_as_dicts
    from ..core.reporting import TransferRecord
    from ..experiments import execute_job_report

    job = JobSpec.from_dict(payload)
    obs_metrics.REGISTRY.reset()
    obs_metrics.REGISTRY.enable()
    start = time.perf_counter()
    report = execute_job_report(job, persistent_cache_path=cache_path)
    record = TransferRecord.from_outcome(report.outcome)
    return {
        "record": asdict(record),
        "elapsed_s": time.perf_counter() - start,
        "events": events_as_dicts(report.events),
        "metrics": obs_metrics.REGISTRY.snapshot(),
    }


@dataclass
class SchedulerOptions:
    """Control-plane knobs."""

    jobs: int = 1
    timeout_s: Optional[float] = None   # per-attempt wall-clock limit
    retries: int = 1                    # extra attempts after crash/timeout/error
    poll_interval_s: float = 0.02       # longest wait before a liveness check
    start_method: Optional[str] = None  # default: fork when available
    use_persistent_cache: bool = True


@dataclass
class CampaignReport:
    """What one scheduler run did, plus aggregate solver accounting."""

    plan_name: str
    total_jobs: int
    completed: int = 0          # jobs newly completed by this run
    skipped: int = 0            # jobs already completed when the run started
    failed: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    cache_enabled: bool = True
    solver_queries: int = 0
    solver_cache_hits: int = 0
    persistent_cache_hits: int = 0
    expensive_queries: int = 0
    batch_hits: int = 0
    #: Wall time per pipeline stage, summed over every completed job (the
    #: per-job deltas are persisted with each attempt record in the store).
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Per-backend solver counters summed over every completed job, keyed by
    #: backend name ("cdcl", "dpll", "portfolio"): queries, sat/unsat/unknown
    #: verdicts, conflicts, learned clauses, wall time, portfolio wins.
    backend_stats: dict[str, dict] = field(default_factory=dict)
    #: Per-class transfer accounting, populated only when the scheduler was
    #: given a ``job_class`` mapping (the scenario matrix maps each job to
    #: its :class:`~repro.lang.trace.ErrorKind`): class name -> counters
    #: ``jobs`` (settled this run or skipped as already done), ``completed``,
    #: ``validated`` (completed with a successful transfer), ``failed``.
    #: Skipped jobs contribute their stored record's verdict, so a resumed
    #: matrix reports the same rates as an uninterrupted one.
    class_stats: dict[str, dict] = field(default_factory=dict)
    #: Merged worker telemetry (a :mod:`repro.obs.metrics` snapshot —
    #: counters add, gauges keep the peak, histograms merge) plus the
    #: scheduler's own control-plane gauges (peak queue depth, worker
    #: utilization).  Empty when workers ship no snapshots (stub runners).
    metrics: dict = field(default_factory=dict)

    def class_success_rates(self) -> dict[str, float]:
        """Validated-transfer rate per class (0.0 when nothing settled)."""
        return {
            name: (counters["validated"] / counters["jobs"]) if counters["jobs"] else 0.0
            for name, counters in self.class_stats.items()
        }

    def false_accept_rate(self) -> Optional[float]:
        """Share of adversarial near-miss donors that validated anyway.

        Adversarial jobs register a donor whose check *looks* protective but
        is off-by-one or wrong-bound; a sound validation rejects every one,
        so this rate's target is 0.0.  ``None`` when the run had no
        adversarial jobs (the rate is then meaningless, not perfect).
        """
        counters = self.class_stats.get("hardness:adversarial")
        if not counters or not counters["jobs"]:
            return None
        return counters["validated"] / counters["jobs"]

    @property
    def persistent_hit_rate(self) -> float:
        if not self.solver_queries:
            return 0.0
        return self.persistent_cache_hits / self.solver_queries

    def summary(self) -> str:
        parts = [
            f"{self.completed} completed",
            f"{self.skipped} skipped (already done)",
            f"{len(self.failed)} failed",
            f"{self.elapsed_s:.2f}s",
        ]
        if self.cache_enabled:
            cache = (
                f"persistent solver cache: {self.persistent_cache_hits}/"
                f"{self.solver_queries} hits ({self.persistent_hit_rate:.1%}), "
                f"{self.expensive_queries} expensive queries"
            )
        else:
            cache = (
                f"persistent solver cache: disabled, "
                f"{self.expensive_queries} expensive queries"
            )
        lines = [f"campaign {self.plan_name}: " + ", ".join(parts), cache]
        if self.batch_hits:
            lines.append(f"query batch: {self.batch_hits} deduped queries")
        counters = self.metrics.get("counters") or {}
        gauges = self.metrics.get("gauges") or {}
        if counters:
            lines.append(
                f"telemetry: {int(counters.get('pipeline.donor_attempts', 0))} donor "
                f"attempts, {int(counters.get('solver.queries', 0))} solver queries, "
                f"{int(counters.get('vm.instructions_retired', 0))} VM instructions "
                "retired"
            )
        if counters.get("vm.runs"):
            compiles = int(counters.get("vm.compiles", 0))
            cache_hits = int(counters.get("vm.compile_cache_hits", 0))
            lines.append(
                f"execution tiers: {int(counters.get('vm.runs_compiled', 0))} "
                f"compiled / {int(counters.get('vm.runs_interpreted', 0))} "
                f"interpreted runs ({int(counters.get('vm.runs_concrete', 0))} "
                f"compiled on the concrete artifact), compile cache {cache_hits} hits / "
                f"{compiles} compiles"
            )
        if "campaign.worker_utilization" in gauges:
            lines.append(
                f"workers: {gauges['campaign.worker_utilization']:.0%} utilized, "
                f"peak queue depth {int(gauges.get('campaign.queue_depth_peak', 0))}, "
                f"{int(counters.get('campaign.worker_respawns', 0))} respawned"
            )
        if "dist.nodes" in gauges:
            lines.append(
                f"distributed: {int(gauges['dist.nodes'])} nodes, "
                f"{int(counters.get('dist.steals', 0))} steals, "
                f"{int(counters.get('dist.jobs_reassigned', 0))} jobs re-rung "
                f"after {int(counters.get('dist.node_failures', 0))} node "
                f"failures, cache {int(counters.get('dist.cache_local_hits', 0))} "
                f"local / {int(counters.get('dist.cache_remote_hits', 0))} remote "
                f"hits, {int(counters.get('dist.cache_hops', 0))} hops"
            )
        if self.stage_timings:
            breakdown = ", ".join(
                f"{stage} {elapsed:.2f}s"
                for stage, elapsed in sorted(
                    self.stage_timings.items(), key=lambda item: -item[1]
                )
            )
            lines.append(f"per-stage time (all jobs): {breakdown}")
        for name in sorted(self.backend_stats):
            counters = self.backend_stats[name]
            detail = (
                f"backend {name}: {counters.get('queries', 0)} queries "
                f"({counters.get('sat', 0)} sat, {counters.get('unsat', 0)} unsat, "
                f"{counters.get('unknown', 0)} unknown), "
                f"{counters.get('conflicts', 0)} conflicts, "
                f"{counters.get('learned_clauses', 0)} learned, "
                f"{counters.get('time_s', 0.0):.2f}s"
            )
            if counters.get("wins"):
                detail += f", {counters['wins']} portfolio wins"
            lines.append(detail)
        for name in sorted(self.class_stats):
            counters = self.class_stats[name]
            lines.append(
                f"class {name}: {counters['validated']}/{counters['jobs']} "
                f"transfers validated"
                + (f", {counters['failed']} failed" if counters["failed"] else "")
            )
        false_accepts = self.false_accept_rate()
        if false_accepts is not None:
            lines.append(
                f"false-accept rate (near-miss donors validated): {false_accepts:.1%}"
            )
        return "\n".join(lines)


class _SlotPool(WorkerPool):
    """Scheduler placement: ``slots`` interchangeable workers, one FIFO queue."""

    def __init__(self, scheduler, report, pending, on_result) -> None:
        super().__init__(scheduler, report, pending, on_result)
        self.pending = deque(pending)
        self.slots = max(1, scheduler.options.jobs)
        self.cache_path = (
            str(scheduler.store.cache_path)
            if scheduler.options.use_persistent_cache
            else None
        )
        self.respawns = 0
        self.queue_peak = 0
        self.busy_peak = 0
        for _ in range(min(self.slots, len(pending))):
            self.spawn()

    def spawn(self) -> None:
        self.start(Worker(f"worker-{len(self.workers)}"), self.cache_path)

    def claim(self, worker: Worker) -> Optional[JobSpec]:
        if not self.pending:
            return None
        job = self.pending.popleft()
        busy = 1 + sum(peer.busy for peer in self.live.values())
        self.queue_peak = max(self.queue_peak, len(self.pending))
        self.busy_peak = max(self.busy_peak, busy)
        # Live readings for progress observers (no-ops while disabled).
        obs_metrics.set_gauge("campaign.queue_depth", len(self.pending))
        obs_metrics.set_gauge("campaign.workers_active", busy)
        return job

    def requeue(self, job: JobSpec) -> None:
        self.pending.append(job)

    def replace(self, worker: Worker, status: str) -> None:
        # Keep every slot in use: a lost worker always gets a successor.
        self.spawn()
        self.respawns += 1


class CampaignScheduler:
    """Schedules a plan's pending jobs over a pool of long-lived workers."""

    def __init__(
        self,
        plan: CampaignPlan,
        store: RunStore,
        options: Optional[SchedulerOptions] = None,
        runner: Runner = default_job_runner,
        job_class: Optional[object] = None,
    ) -> None:
        self.plan = plan
        self.store = store
        self.options = options or SchedulerOptions()
        self.runner = runner
        # job_class maps a job to its reporting class (the scenario matrix
        # passes each case's ErrorKind): either a callable over JobSpec or a
        # mapping keyed by case id.  Runs in the parent process only.
        self.accountant = ClassAccountant(job_class)

    # -- public API ------------------------------------------------------------------

    def run(self, on_result: Optional[Callable[[JobSpec, JobResult], None]] = None) -> CampaignReport:
        """Run every pending job; returns the report for *this* invocation."""
        start = time.perf_counter()
        report = CampaignReport(
            plan_name=self.plan.name,
            total_jobs=len(self.plan.jobs),
            cache_enabled=self.options.use_persistent_cache,
        )
        pending = pending_jobs(self.plan, self.store, report, self.accountant)
        pool = _SlotPool(self, report, pending, on_result)
        pool.serve()

        report.elapsed_s = time.perf_counter() - start
        busy_s = sum(worker.busy_s for worker in pool.workers.values())
        capacity = pool.slots * report.elapsed_s
        utilization = busy_s / capacity if capacity > 0 else 0.0
        obs_metrics.merge_snapshots(
            report.metrics,
            {
                "counters": {"campaign.worker_respawns": pool.respawns},
                "gauges": {
                    "campaign.queue_depth_peak": pool.queue_peak,
                    "campaign.workers_active_peak": pool.busy_peak,
                    "campaign.worker_utilization": round(min(utilization, 1.0), 4),
                },
            },
        )
        return report
