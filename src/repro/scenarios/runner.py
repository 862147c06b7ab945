"""Campaign execution of generated scenarios.

Campaign workers are separate processes; they cannot see applications the
parent registered, and a corpus must survive the parent dying mid-campaign
(that is what ``--resume`` promises).  The contract is therefore file-based:

* the driver generates the corpus and writes its **manifest** next to the
  run store (:meth:`ScenarioCorpus.save`);
* each worker runs :func:`matrix_job_runner`, which loads the manifest,
  registers exactly the job's donor/recipient pair for the duration of the
  transfer (:func:`repro.apps.registry.scoped_registration`), and routes the
  repair through the :mod:`repro.api` facade with the job's option variant —
  the same path ``figure8``/``campaign`` jobs take.

``matrix_job_runner`` carries the manifest path as a third argument; drivers
bind it with :func:`functools.partial`, which pickles cleanly into worker
processes under any start method.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..apps.registry import scoped_registration
from ..campaign.plan import CampaignPlan, JobSpec, matrix_plan
from ..campaign.scheduler import CampaignReport, CampaignScheduler, SchedulerOptions
from ..campaign.store import RunStore
from ..core.reporting import ResultsDatabase, TransferRecord
from .corpus import ScenarioCorpus, ScenarioPair

if TYPE_CHECKING:
    from ..api.facade import RepairReport
    from ..core.pipeline import CodePhageOptions

#: Manifest file name, relative to the run-store directory.
MANIFEST_NAME = "scenarios.json"

#: Parsed corpora keyed by absolute manifest path, valid for the stat
#: signature they were loaded under.  The matrix drivers warm this in the
#: *parent* before scheduling, so under the default ``fork`` start method
#: every worker inherits the parsed corpus and skips re-parsing a manifest
#: that can hold thousands of generated program sources (one full JSON
#: parse per job otherwise).  Spawned workers miss the cache and fall back
#: to loading the file.
_CORPUS_CACHE: dict[str, tuple[tuple[int, int], ScenarioCorpus]] = {}


def _load_corpus(manifest_path: str | Path) -> ScenarioCorpus:
    path = Path(manifest_path).resolve()
    try:
        stat = path.stat()
        signature = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        signature = None
    cached = _CORPUS_CACHE.get(str(path))
    if cached is not None and signature is not None and cached[0] == signature:
        return cached[1]
    corpus = ScenarioCorpus.load(path)
    if signature is not None:
        _CORPUS_CACHE[str(path)] = (signature, corpus)
    return corpus


def run_pair(pair: ScenarioPair, options: CodePhageOptions) -> RepairReport:
    """Repair one generated pair on a fresh session; returns the ``RepairReport``.

    Registers exactly the pair's recipient and donor pool for the duration
    of the repair.
    """
    from ..api.facade import RepairSession

    # Multi-defect pairs ship decoy donors: run full donor selection over the
    # pool so the recursive repair loop has to recover from partial fixes.
    donor_pool = pair.donor_pool
    with scoped_registration(pair.recipient, *donor_pool):
        session = RepairSession(options=options)
        if len(donor_pool) > 1:
            return session.run_case(pair, donors=donor_pool)
        return session.run_case(pair, donor=pair.donor)


def matrix_job_runner(payload: dict, cache_path: Optional[str], manifest_path: str) -> dict:
    """Run one generated transfer; executed inside a worker process.

    Same telemetry contract as ``campaign.scheduler.default_job_runner``:
    the result payload carries the serialized event stream (persisted to the
    store's ``events/`` directory for ``codephage trace``/``bundle``) and a
    per-job metrics snapshot from a registry reset/enabled around the run.
    """
    from ..core.events import events_as_dicts
    from ..obs import metrics as obs_metrics

    corpus = _load_corpus(manifest_path)
    job = JobSpec.from_dict(payload)
    pair = corpus.pair(job.case_id)
    obs_metrics.REGISTRY.reset()
    obs_metrics.REGISTRY.enable()
    start = time.perf_counter()
    report = run_pair(pair, job.build_options(cache_path))
    # An adversarial pair's registered donor is the near-miss: any success is
    # a false accept, the number the hard-matrix gate drives to zero.  The
    # counter is recorded even at zero so aggregated telemetry shows the
    # gate was exercised, not skipped.
    if pair.adversarial:
        obs_metrics.REGISTRY.inc(
            "scenarios.false_accepts", 1 if report.outcome.success else 0
        )
    if len(report.outcome.checks) > 1:
        obs_metrics.REGISTRY.inc("scenarios.multi_round_repairs")
    record = TransferRecord.from_outcome(report.outcome)
    return {
        "record": asdict(record),
        "elapsed_s": time.perf_counter() - start,
        "events": events_as_dicts(report.events),
        "metrics": obs_metrics.REGISTRY.snapshot(),
    }


def corpus_plan(corpus: ScenarioCorpus, **plan_kwargs) -> CampaignPlan:
    """The corpus's transfer matrix as a campaign plan.

    Job ids are content hashes over ``(case_id, donor, strategy, variant)``;
    with content-addressed case and donor names this makes the ids — and
    therefore resume — byte-identical across runs of the same config.
    """
    plan_kwargs.setdefault("name", f"scenario-matrix-seed{corpus.config.seed}")
    return matrix_plan(
        [(pair.case_id, pair.donor_name) for pair in corpus.pairs], **plan_kwargs
    )


def prepare_matrix_store(
    corpus: ScenarioCorpus,
    plan: CampaignPlan,
    store_dir: str | Path,
    resume: bool = True,
) -> tuple[RunStore, Path]:
    """Attach to the run store and persist the corpus manifest.

    Order matters: the store is initialised (and therefore plan-checked)
    *before* the manifest is written, so pointing a different corpus at an
    existing store fails without clobbering the manifest its records were
    produced from.  ``StoreError`` propagates to the caller.
    """
    store = RunStore(store_dir)
    store.initialise(plan, fresh=not resume)
    manifest_path = corpus.save(store.directory / MANIFEST_NAME)
    # Warm the parse cache with the exact corpus just written: fork-started
    # workers inherit it and never re-parse the manifest.
    stat = manifest_path.stat()
    _CORPUS_CACHE[str(manifest_path.resolve())] = (
        (stat.st_mtime_ns, stat.st_size),
        corpus,
    )
    return store, manifest_path


def matrix_scheduler_kwargs(corpus: ScenarioCorpus, manifest_path: str | Path) -> dict:
    """The :class:`CampaignScheduler` wiring every matrix driver shares."""
    return {
        "runner": partial(matrix_job_runner, manifest_path=str(manifest_path)),
        "job_class": corpus.classes_of_case(),
    }


def run_matrix(
    corpus: ScenarioCorpus,
    store_dir: str | Path,
    plan: Optional[CampaignPlan] = None,
    options: Optional[SchedulerOptions] = None,
    resume: bool = True,
    on_result=None,
) -> tuple[CampaignReport, ResultsDatabase]:
    """Drive a full matrix campaign over ``corpus`` (benchmarks/API callers).

    Initialises the run store, persists the manifest, schedules every
    pending job through :func:`matrix_job_runner`, and returns the per-run
    report (with per-error-class stats) plus the merged results database.
    """
    plan = plan or corpus_plan(corpus)
    store, manifest_path = prepare_matrix_store(corpus, plan, store_dir, resume=resume)
    scheduler = CampaignScheduler(
        plan,
        store,
        options or SchedulerOptions(),
        **matrix_scheduler_kwargs(corpus, manifest_path),
    )
    report = scheduler.run(on_result=on_result)
    return report, store.merge_into_database(plan)
