"""The campaign coordinator: places jobs on a node ring, settles results.

The coordinator is the distributed counterpart of
:class:`~repro.campaign.scheduler.CampaignScheduler` and runs on the
same execution core, :class:`repro.campaign.execution.WorkerPool`: the
same worker loop in every node process, attempt budgets (``1 + retries``
per run), outbox payload transport with doorbell queues, resume as
skip-by-completed-id, and the invariant that exactly one process — the
coordinator — ever writes ``records.jsonl``.  Only placement differs.

Placement and stealing live in :class:`JobBoard`, a pure in-memory
structure (unit-testable without processes): every pending job is
queued under the ring owner of its content-addressed id, an idle node
claims from its own partition first and otherwise *steals* from the
most-loaded peer, and when a node dies its unclaimed jobs are re-rung
onto the surviving members.  A node with nothing to claim is parked; a
retry, a re-ring or a respawn offers work to parked nodes first, and
shutdown releases them.

Failure model
-------------

* A node process that **exits** (crash or kill) forfeits its current
  attempt — unless its outbox payload already landed, in which case the
  payload is the ground truth and the job completes.  The dead node is
  removed from the ring, its queued jobs are re-rung, and the campaign
  finishes on the surviving nodes; a node is only respawned when *no*
  live node remains (each death consumes an attempt, so this is
  bounded).  Completed jobs are never re-run and never duplicated: the
  attempt ledger plus the single-writer store make settlement
  idempotent.
* A node whose attempt exceeds ``timeout_s`` is terminated (nodes are
  long-lived, so the whole process must go) and replaced by a fresh
  node on the same cache partition.
* A full campaign restart resumes from the store exactly like the
  single-host scheduler: completed job ids are skipped up front.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..campaign.cache import sharded_cache_spec
from ..campaign.execution import ClassAccountant, Worker, WorkerPool, pending_jobs
from ..campaign.plan import CampaignPlan, JobSpec
from ..campaign.scheduler import CampaignReport, Runner, default_job_runner
from ..campaign.store import STATUS_TIMEOUT, JobResult, RunStore
from ..obs import metrics as obs_metrics
from ..obs.tracing import Tracer
from .ring import HashRing

#: Spans recorded by the coordinator (one per settled attempt, in the
#: category of the node that ran it) land here inside the store.
SPANS_FILE = "dist_spans.jsonl"


@dataclass
class DistOptions:
    """Control-plane knobs for a distributed campaign run."""

    nodes: int = 2
    retries: int = 1                    # extra attempts after crash/timeout/error
    timeout_s: Optional[float] = None   # per-attempt wall-clock limit
    poll_interval_s: float = 0.01       # longest wait before a liveness check
    start_method: Optional[str] = None  # default: fork when available
    use_persistent_cache: bool = True
    #: Cache shards; defaults to the node count so each node starts with
    #: exactly one local partition.  Fixed for the life of the store.
    cache_partitions: Optional[int] = None
    vnodes: int = 64


class JobBoard:
    """Ring-partitioned pending queues with work-stealing and re-ringing.

    Pure data structure — no processes, no I/O — so placement policy is
    testable in isolation.  Invariant: every pushed job sits in exactly
    one queue (or ``orphans`` while the ring is empty) until claimed.
    """

    def __init__(
        self, jobs, members, vnodes: int = 64
    ) -> None:
        self.ring = HashRing(members, vnodes=vnodes)
        self.queues: dict[str, deque] = {member: deque() for member in members}
        self.orphans: deque = deque()
        self.steals = 0
        self.steals_by_node: dict[str, int] = {}
        self.reassigned = 0
        for job in jobs:
            self.push(job)

    def push(self, job) -> None:
        """Queue a job under the ring owner of its id."""
        owner = self.ring.owner(job.job_id)
        if owner is None:
            self.orphans.append(job)
        else:
            self.queues[owner].append(job)

    def depth(self, member: str) -> int:
        queue = self.queues.get(member)
        return len(queue) if queue is not None else 0

    def pending(self) -> int:
        return sum(len(queue) for queue in self.queues.values()) + len(self.orphans)

    def claim(self, member: str):
        """Take the next job for ``member``: own partition first, then steal.

        Returns ``(job, stolen)``; ``(None, False)`` when nothing is
        claimable anywhere.  Steals come from the *most-loaded* peer
        (ties broken by name for determinism) — the straggler whose
        backlog most needs the help.
        """
        own = self.queues.get(member)
        if own:
            return own.popleft(), False
        if self.orphans:
            return self.orphans.popleft(), False
        victim = None
        for peer, queue in sorted(self.queues.items()):
            if peer == member or not queue:
                continue
            if victim is None or len(queue) > len(self.queues[victim]):
                victim = peer
        if victim is None:
            return None, False
        self.steals += 1
        self.steals_by_node[member] = self.steals_by_node.get(member, 0) + 1
        return self.queues[victim].popleft(), True

    def requeue(self, job) -> None:
        """Put a to-be-retried job back under its (current) ring owner."""
        self.push(job)

    def fail_node(self, member: str) -> int:
        """Remove a dead member; re-ring its unclaimed jobs.  Returns moved count."""
        self.ring.remove(member)
        stranded = list(self.queues.pop(member, ()))
        for job in stranded:
            self.push(job)
        self.reassigned += len(stranded)
        return len(stranded)

    def add_node(self, member: str) -> None:
        """Admit a (replacement) member and re-home any orphaned jobs."""
        self.ring.add(member)
        self.queues.setdefault(member, deque())
        orphans = list(self.orphans)
        self.orphans.clear()
        for job in orphans:
            self.push(job)


@dataclass(eq=False)
class _Node(Worker):
    """Coordinator-side view of one node process."""

    partition: int = 0                  # home cache partition (stable on respawn)
    stolen: bool = False                # the current job was stolen
    jobs_completed: int = 0
    steals_received: int = 0
    queue_depth_peak: int = 0
    cache_hops: int = 0


class _NodePool(WorkerPool):
    """Coordinator placement: ring partitions, stealing, re-ringing."""

    role = "node"

    def __init__(self, coordinator, report, pending, on_result) -> None:
        super().__init__(coordinator, report, pending, on_result)
        options = self.options
        self.partitions = options.cache_partitions or max(1, options.nodes)
        node_ids = [f"node-{index}" for index in range(options.nodes)]
        self.board = JobBoard(pending, node_ids, vnodes=options.vnodes)
        self.tracer = Tracer()
        self.failures = 0
        self.timeout_kills = 0
        for index, node_id in enumerate(node_ids):
            self.spawn(node_id, index % self.partitions)

    def spawn(self, node_id: str, partition: int) -> None:
        # The node's home shard matches its ring partition.
        cache_spec = None
        if self.options.use_persistent_cache:
            cache_spec = sharded_cache_spec(
                self.store.directory / "cache_shards", self.partitions, partition
            )
        self.start(_Node(node_id, partition=partition), cache_spec)

    def claim(self, node: _Node) -> Optional[JobSpec]:
        node.queue_depth_peak = max(
            node.queue_depth_peak, self.board.depth(node.worker_id)
        )
        job, stolen = self.board.claim(node.worker_id)
        if job is not None:
            node.stolen = stolen
            node.steals_received += stolen
        return job

    def requeue(self, job: JobSpec) -> None:
        self.board.requeue(job)

    def retired(self, node: _Node, status: str) -> None:
        # Off the ring before its attempt settles, so a retry lands on a
        # surviving owner.
        moved = self.board.fail_node(node.worker_id)
        if status == STATUS_TIMEOUT:
            self.timeout_kills += 1
            return
        self.failures += 1
        if moved:
            obs_metrics.inc("dist.jobs_reassigned", moved)

    def replace(self, node: _Node, status: str) -> None:
        # A node killed for a timeout is replaced on the same cache
        # partition.  After a crash the campaign finishes on the survivors;
        # only a fully-dead fleet forces a replacement (bounded: every death
        # consumes at most one attempt).
        if status == STATUS_TIMEOUT or not self.live:
            node_id = f"node-r{len(self.workers) - self.options.nodes + 1}"
            self.spawn(node_id, node.partition)
            self.board.add_node(node_id)

    def settled(self, node: _Node, result: JobResult, payload: Optional[dict]) -> None:
        self.tracer.record(
            f"job:{node.job.job_id}",
            category=f"node:{node.worker_id}",
            duration_s=time.perf_counter() - node.started_at,
            attempt=result.attempt,
            stolen=node.stolen,
            status=result.status,
        )
        node.stolen = False
        if result.completed:
            node.jobs_completed += 1
            counters = ((payload or {}).get("metrics") or {}).get("counters") or {}
            node.cache_hops += int(counters.get("dist.cache_hops", 0))


class DistributedCoordinator:
    """Runs a campaign plan over N emulated node processes."""

    def __init__(
        self,
        plan: CampaignPlan,
        store: RunStore,
        options: Optional[DistOptions] = None,
        runner: Runner = default_job_runner,
        job_class: Optional[object] = None,
    ) -> None:
        self.plan = plan
        self.store = store
        self.options = options or DistOptions()
        if self.options.nodes < 1:
            raise ValueError("a distributed campaign needs at least one node")
        self.runner = runner
        self.accountant = ClassAccountant(job_class)

    def run(
        self, on_result: Optional[Callable[[JobSpec, JobResult], None]] = None
    ) -> CampaignReport:
        """Run every pending job across the node fleet; returns this run's report."""
        start = time.perf_counter()
        options = self.options
        report = CampaignReport(
            plan_name=self.plan.name,
            total_jobs=len(self.plan.jobs),
            cache_enabled=options.use_persistent_cache,
        )
        pending = pending_jobs(self.plan, self.store, report, self.accountant)
        pool = _NodePool(self, report, pending, on_result)
        pool.serve()
        pool.tracer.finish()
        pool.tracer.write(self.store.directory / SPANS_FILE)

        report.elapsed_s = time.perf_counter() - start
        nodes = pool.workers.values()
        busy_total = sum(node.busy_s for node in nodes)
        capacity = options.nodes * report.elapsed_s
        utilization = busy_total / capacity if capacity > 0 else 0.0
        gauges = {
            "dist.nodes": options.nodes,
            "campaign.queue_depth_peak": max(
                (node.queue_depth_peak for node in nodes), default=0
            ),
            "campaign.worker_utilization": round(min(utilization, 1.0), 4),
        }
        for node in nodes:
            prefix = f"dist.node.{node.worker_id}"
            node_capacity = report.elapsed_s or 1.0
            gauges[f"{prefix}.queue_depth_peak"] = node.queue_depth_peak
            gauges[f"{prefix}.jobs_completed"] = node.jobs_completed
            gauges[f"{prefix}.steals_received"] = node.steals_received
            gauges[f"{prefix}.cache_hops"] = node.cache_hops
            gauges[f"{prefix}.utilization"] = round(
                min(node.busy_s / node_capacity, 1.0), 4
            )
        obs_metrics.merge_snapshots(
            report.metrics,
            {
                "counters": {
                    "dist.steals": pool.board.steals,
                    "dist.jobs_reassigned": pool.board.reassigned,
                    "dist.node_failures": pool.failures,
                    "dist.timeout_kills": pool.timeout_kills,
                },
                "gauges": gauges,
            },
        )
        return report
