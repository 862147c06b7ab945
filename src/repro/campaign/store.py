"""Resumable on-disk run store for campaigns.

A run store is a directory holding everything one campaign run produces:

* ``plan.json`` — the expanded plan, written at initialisation and verified
  on resume (a store can only be resumed with the plan that created it);
* ``records.jsonl`` — one line per job *attempt* (done, crashed, timed out,
  or errored), appended as workers finish, in completion order;
* ``solver_cache.jsonl`` — the persistent solver query cache shared by the
  campaign's workers (see :mod:`repro.campaign.cache`);
* ``events/<job-id>.jsonl`` — the serialized pipeline event stream of each
  job's latest completed attempt, persisted by workers so that traces
  (``codephage trace``) and evidence bundles (``codephage bundle``) can be
  rebuilt after the run (see :mod:`repro.obs`).

Because every attempt is appended rather than rewritten, killing a campaign
mid-run loses at most the in-flight jobs; re-opening the store recovers the
set of completed jobs and the scheduler skips them.  ``merge_into_database``
re-orders the surviving records into *plan* order, so a resumed or parallel
run renders the same table as a serial one.

Resume and retry, concretely
----------------------------

* A job counts as *completed* when any recorded attempt has status
  ``done``; :meth:`RunStore.results` keeps the latest attempt per job but
  never lets a later failed attempt shadow an earlier completion (a retried
  timeout racing a late success must not un-complete the job).
* ``records.jsonl`` may legitimately hold several lines per job — one per
  attempt, failures included.  Consumers must aggregate via
  :meth:`RunStore.results`; reading raw lines as "one job each" is wrong.
* A torn trailing line (scheduler killed mid-append) is skipped on read;
  at most that one attempt record is lost, and the affected job re-runs.
* ``initialise(fresh=True)`` deletes the *records*, not the solver cache:
  verdicts are keyed by expression digests + solver options
  (:mod:`repro.campaign.cache`), which remain valid across any re-plan of
  the same code, so a fresh campaign restarts from zero completed jobs but
  with warm solver state.  Plan identity is compared as the *set* of job
  ids — resuming with a reordered but equal plan is allowed; any addition
  or removal requires ``fresh`` or a new directory.

Cache-key namespacing
---------------------

The store hands workers one shared ``solver_cache.jsonl``; isolation between
incompatible configurations happens in the *keys*, not in files.  Each entry
key is ``<namespace>##<digest-key>`` where the namespace folds in the cache
schema version and every equivalence option (sampling depth, SAT budgets,
seed — see ``EquivalenceChecker._namespace``), and the digest key
identifies the simplified query
(order-insensitive pairs for equivalence, ``##sat##``-tagged single digests
for satisfiability).  Campaign variants with different solver options
therefore coexist in one file without replaying
each other's verdicts, and bumping
:data:`repro.solver.equivalence.CACHE_SCHEMA_VERSION` retires stale entries
wholesale without touching the file.
"""

from __future__ import annotations

import json
import shutil
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional

from ..core.reporting import ResultsDatabase, TransferRecord
from .plan import CampaignPlan


class StoreError(RuntimeError):
    """Raised on plan mismatches and malformed store directories."""


#: Attempt status values recorded in ``records.jsonl``.
STATUS_DONE = "done"
STATUS_CRASHED = "crashed"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


@dataclass
class JobResult:
    """Outcome of one attempt at one job."""

    job_id: str
    status: str
    attempt: int = 1
    elapsed_s: float = 0.0
    record: Optional[dict] = None  # asdict(TransferRecord) when status == done
    error: str = ""

    @property
    def completed(self) -> bool:
        return self.status == STATUS_DONE

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "JobResult":
        return cls(
            job_id=payload["job_id"],
            status=payload["status"],
            attempt=payload.get("attempt", 1),
            elapsed_s=payload.get("elapsed_s", 0.0),
            record=payload.get("record"),
            error=payload.get("error", ""),
        )


class RunStore:
    """Directory-backed, append-only record of a campaign run."""

    PLAN_FILE = "plan.json"
    RECORDS_FILE = "records.jsonl"
    CACHE_FILE = "solver_cache.jsonl"
    EVENTS_DIR = "events"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    @property
    def plan_path(self) -> Path:
        return self.directory / self.PLAN_FILE

    @property
    def records_path(self) -> Path:
        return self.directory / self.RECORDS_FILE

    @property
    def cache_path(self) -> Path:
        return self.directory / self.CACHE_FILE

    @property
    def events_dir(self) -> Path:
        return self.directory / self.EVENTS_DIR

    def events_path(self, job_id: str) -> Path:
        return self.events_dir / f"{job_id}.jsonl"

    # -- lifecycle -------------------------------------------------------------------

    def initialise(self, plan: CampaignPlan, fresh: bool = False) -> None:
        """Create the store (or attach to an existing one) for ``plan``.

        ``fresh`` discards previous attempt records and adopts ``plan`` even
        if the store was created for a different one — but keeps the solver
        cache, which stays valid across runs of any plan — so the campaign
        restarts from zero completed jobs with a warm cache.  Without
        ``fresh``, attaching to a store built for a different plan is an
        error (its records cannot be resumed into this plan).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if not fresh and self.plan_path.exists():
            existing = self.load_plan()
            if set(existing.job_ids()) != set(plan.job_ids()):
                raise StoreError(
                    f"store {self.directory} was created for plan "
                    f"{existing.name!r} with different jobs; "
                    "re-run with --fresh to replace it or use a new directory"
                )
        if fresh and self.records_path.exists():
            self.records_path.unlink()
        if fresh and self.events_dir.exists():
            shutil.rmtree(self.events_dir, ignore_errors=True)
        self.plan_path.write_text(json.dumps(plan.to_dict(), indent=2))

    def clear(self) -> None:
        """Remove the whole store directory (records, plan, and cache)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    def load_plan(self) -> CampaignPlan:
        try:
            payload = json.loads(self.plan_path.read_text())
        except FileNotFoundError:
            raise StoreError(f"store {self.directory} has no plan") from None
        except json.JSONDecodeError as exc:
            raise StoreError(f"store {self.directory} has a corrupt plan: {exc}") from None
        return CampaignPlan.from_dict(payload)

    # -- records ---------------------------------------------------------------------

    def append(self, result: JobResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(result.to_dict(), separators=(",", ":"))
        with open(self.records_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def attempts(self) -> Iterator[JobResult]:
        """Every recorded attempt, in append order.

        A torn line (the writer killed mid-append) is skipped with a
        warning rather than raised: the interrupted attempt has no
        completion record, so its job simply re-runs on resume.
        """
        try:
            text = self.records_path.read_text()
        except FileNotFoundError:
            return
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(
                    f"skipping torn record at {self.records_path}:{number} "
                    "(writer interrupted mid-append); the attempt will re-run",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            yield JobResult.from_dict(payload)

    def results(self) -> dict[str, JobResult]:
        """Latest attempt per job, preferring a completed one."""
        latest: dict[str, JobResult] = {}
        for result in self.attempts():
            current = latest.get(result.job_id)
            if current is not None and current.completed and not result.completed:
                continue
            latest[result.job_id] = result
        return latest

    def completed_ids(self) -> set[str]:
        return {job_id for job_id, result in self.results().items() if result.completed}

    # -- per-job event streams ---------------------------------------------------------

    def write_events(self, job_id: str, events: list[dict]) -> Path:
        """Persist a job's serialized event stream (one JSON dict per line).

        Overwrites any earlier attempt's stream — the events on disk always
        describe the same attempt as the latest record for the job.
        """
        path = self.events_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(json.dumps(event, separators=(",", ":")) + "\n" for event in events)
        )
        return path

    def load_event_dicts(self, job_id: str) -> list[dict]:
        """The stored event stream for ``job_id`` ([] when none was persisted)."""
        try:
            text = self.events_path(job_id).read_text()
        except FileNotFoundError:
            return []
        events = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn write from an interrupted run
        return events

    # -- reporting -------------------------------------------------------------------

    def merge_into_database(self, plan: Optional[CampaignPlan] = None) -> ResultsDatabase:
        """Collect completed records into a :class:`ResultsDatabase` in plan order."""
        if plan is None:
            plan = self.load_plan()
        results = self.results()
        database = ResultsDatabase()
        for job in plan.jobs:
            result = results.get(job.job_id)
            if result is None or not result.completed or result.record is None:
                continue
            database.records.append(TransferRecord(**result.record))
        return database
