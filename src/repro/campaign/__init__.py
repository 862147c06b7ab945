"""Campaign engine: parallel, resumable multi-transfer orchestration.

The paper's evaluation is a batch workload — 18 recipient/target/donor
combinations, each an independent transfer.  This package turns that batch
into a first-class *campaign*:

* :mod:`repro.campaign.plan` — expand any subset/cross-product of
  ``ERROR_CASES x donors x option variants`` into deterministic, content-
  addressed jobs;
* :mod:`repro.campaign.scheduler` — run the jobs over a pool of long-lived
  worker processes with per-attempt timeouts and retry-on-crash;
* :mod:`repro.campaign.store` — append-only JSONL run store so an
  interrupted campaign resumes where it left off;
* :mod:`repro.campaign.cache` — a persistent, cross-process solver query
  cache that extends the paper's §3.3 query-caching optimisation from one
  transfer to the whole campaign, and its partitioned key-space variant
  for distributed runs;
* :mod:`repro.campaign.execution` — the execution core (worker loop,
  worker pool, outbox transport, attempt ledger) shared with the
  coordinator/worker-node engine in :mod:`repro.dist`.
"""

from .cache import (
    PersistentSolverCache,
    ShardedSolverCache,
    open_solver_cache,
    query_key,
    sharded_cache_spec,
)
from .plan import (
    CampaignPlan,
    JobSpec,
    PlanError,
    expand_plan,
    figure8_plan,
    matrix_plan,
)
from .scheduler import (
    CampaignReport,
    CampaignScheduler,
    SchedulerOptions,
    default_job_runner,
)
from .store import (
    STATUS_CRASHED,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    JobResult,
    RunStore,
    StoreError,
)

__all__ = [
    "CampaignPlan",
    "CampaignReport",
    "CampaignScheduler",
    "JobResult",
    "JobSpec",
    "PersistentSolverCache",
    "PlanError",
    "RunStore",
    "SchedulerOptions",
    "ShardedSolverCache",
    "StoreError",
    "STATUS_CRASHED",
    "STATUS_DONE",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "default_job_runner",
    "expand_plan",
    "figure8_plan",
    "matrix_plan",
    "open_solver_cache",
    "query_key",
    "sharded_cache_spec",
]
