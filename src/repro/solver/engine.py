"""The validation engine: batched, incremental SAT-backed decisions.

Every blasted query the equivalence checker issues — equivalence differences
(``E != E'``), overflow conditions, insertion-point constraints — flows
through one :class:`ValidationEngine` per checker (and therefore one per
``RepairSession``).  The engine owns three things:

* **one CDCL solver** (:class:`~repro.solver.sat.Solver`), used
  *incrementally*: its clause set only ever grows, learned clauses persist,
  and each query is scoped by an assumption literal instead of a permanent
  unit clause;
* **one shared bit-blaster**: expressions are hash-consed, so a subtree
  shared between queries (the same donor check rewritten against many
  insertion points, the same size expression re-validated per candidate) is
  translated to gates exactly once for the engine's whole lifetime — every
  later query reuses the same CNF variables;
* **one query batch** (:class:`QueryBatch`): outcomes are memoised by the
  condition's structural digest, so a structurally identical query issued by
  a different candidate, donor, or pipeline stage is answered without
  touching the solver at all.  The dedupe rate feeds ``SolverStatistics``.

Queries over a field used at conflicting widths cannot share the blaster's
field variables; such queries transparently fall back to a one-shot blaster
and a fresh solver (statistics still accrue to the same counters).

Solver counters are reported as ``{"cdcl": {...}}`` snapshots
(:meth:`ValidationEngine.sat_counters`): transfer records, evidence bundles
and campaign reports keep that per-solver shape, so stores written when
several solvers were selectable still load and aggregate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..symbolic.expr import Expr, InputField
from .bitblast import BitBlaster, BlastError
from .sat import Result, Solver, Status

#: The key solver counters are filed under in records, bundles and reports.
SOLVER_NAME = "cdcl"


@dataclass
class SatStatistics:
    """Lifetime solver counters of one engine (JSON-friendly via :meth:`as_dict`)."""

    queries: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned_clauses: int = 0
    time_s: float = 0.0

    def record(self, result: Result, elapsed_s: float, learned: int) -> None:
        self.queries += 1
        self.conflicts += result.conflicts
        self.decisions += result.decisions
        self.propagations += result.propagations
        self.learned_clauses += learned
        self.time_s += elapsed_s
        if result.status is Status.SAT:
            self.sat += 1
        elif result.status is Status.UNSAT:
            self.unsat += 1
        else:
            self.unknown += 1

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "sat": self.sat,
            "unsat": self.unsat,
            "unknown": self.unknown,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "learned_clauses": self.learned_clauses,
            "time_s": round(self.time_s, 6),
        }


def diff_snapshots(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """Per-solver counter deltas between two :meth:`ValidationEngine.sat_counters`.

    Used to attribute a shared checker's lifetime counters to one transfer
    (:class:`~repro.core.pipeline.TransferMetrics`).  Solvers with no
    activity in the window are dropped so records stay compact.
    """
    deltas: dict[str, dict] = {}
    for name, counters in after.items():
        base = before.get(name, {})
        delta = {
            key: round(value - base.get(key, 0), 6)
            for key, value in counters.items()
        }
        if any(delta.values()):
            deltas[name] = delta
    return deltas


def merge_snapshots(total: dict[str, dict], extra: dict[str, dict]) -> None:
    """Fold one snapshot/delta dict into an aggregate (campaign reporting)."""
    for name, counters in extra.items():
        bucket = total.setdefault(name, {})
        for key, value in counters.items():
            bucket[key] = round(bucket.get(key, 0) + value, 6)


@dataclass
class SatOutcome:
    """The engine's answer to one blasted satisfiability query."""

    status: Status
    witness: Optional[dict[str, int]] = None
    conflicts: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT


class QueryBatch:
    """Digest-keyed memo of query outcomes, with dedupe accounting.

    Entries are namespaced by ``kind`` so the CNF-level outcomes
    (:class:`SatOutcome`) and the checker-level satisfiability verdicts
    share one dedupe surface without colliding.  Expressions are interned
    and their digests content-derived, so a hit means the *query* — not just
    the object — is structurally identical.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, digest: str):
        entry = self._entries.get((kind, digest))
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, kind: str, digest: str, outcome) -> None:
        self._entries[(kind, digest)] = outcome

    @property
    def dedupe_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)


class ValidationEngine:
    """Decides width-1 conditions with one incremental, shared CDCL solver."""

    def __init__(self, conflict_limit: int = 5000, use_batch: bool = True) -> None:
        self.conflict_limit = conflict_limit
        self.use_batch = use_batch
        self.solver = Solver()
        self.statistics = SatStatistics()
        self.batch = QueryBatch()
        self._blaster = BitBlaster()
        self._fed_clauses = 0

    # -- public API --------------------------------------------------------------

    def check_sat(self, condition: Expr, conflict_limit: Optional[int] = None) -> SatOutcome:
        """Decide whether the width-1 ``condition`` has a satisfying assignment.

        Definitive outcomes are memoised by the condition's digest (unless
        the engine was built with ``use_batch=False``, the query-cache
        ablation knob); a repeated query (across candidates, donors, or
        recursive rounds) then costs one dict probe.  ``Status.UNKNOWN``
        means the conflict budget ran out — the caller falls back to its
        cheaper, approximate strategies.  UNKNOWN outcomes are *not*
        cached: a later ask may pass a larger budget or profit from clauses
        learned since, so budget exhaustion must stay retryable.

        Raises :class:`BlastError` only for genuinely un-blastable
        expressions; width clashes against earlier queries are handled by an
        internal one-shot fallback.
        """
        # Observability hook: one flag check each when telemetry is off.
        tracer = obs_tracing.active()
        registry = obs_metrics.REGISTRY if obs_metrics.REGISTRY.enabled else None

        if self.use_batch:
            cached = self.batch.get("cnf", condition.digest)
            if cached is not None:
                if registry is not None:
                    registry.inc("solver.cnf_queries")
                    registry.inc("solver.cnf_batch_hits")
                if tracer is not None:
                    tracer.record(
                        "solver-query",
                        "solver",
                        0.0,
                        cached=True,
                        status=cached.status.name,
                    )
                return cached
        started = time.perf_counter() if (tracer or registry) else 0.0
        outcome = self._solve(condition, conflict_limit or self.conflict_limit)
        if registry is not None:
            registry.inc("solver.cnf_queries")
            registry.inc("solver.cnf_conflicts", outcome.conflicts)
            registry.observe("solver.cnf_seconds", time.perf_counter() - started)
        if tracer is not None:
            tracer.record(
                "solver-query",
                "solver",
                time.perf_counter() - started,
                cached=False,
                status=outcome.status.name,
                conflicts=outcome.conflicts,
            )
        if self.use_batch and outcome.status is not Status.UNKNOWN:
            self.batch.put("cnf", condition.digest, outcome)
        return outcome

    def sat_counters(self) -> dict[str, dict]:
        """JSON-friendly snapshot of the solver counters, keyed by solver name."""
        return {SOLVER_NAME: self.statistics.as_dict()}

    # -- solving -----------------------------------------------------------------

    def _solve(self, condition: Expr, conflict_limit: int) -> SatOutcome:
        # Blast inside a rollbackable episode: a failed blast (width clash,
        # unsupported shape) must not leave half-translated gates or field
        # registrations behind in the shared blaster.
        mark = self._blaster.snapshot()
        try:
            bit = self._blaster.blast(condition)[0]
        except BlastError:
            self._blaster.rollback(mark)
            return self._solve_one_shot(condition, conflict_limit)
        self._blaster.commit()

        if isinstance(bit, bool):
            return _constant_outcome(bit, condition)

        # Feed the clauses this query added, then ask under an assumption —
        # never a unit clause, so the condition does not constrain later
        # queries sharing the solver.
        self.solver.ensure_vars(self._blaster.cnf.num_vars)
        clauses = self._blaster.cnf.clauses
        for index in range(self._fed_clauses, len(clauses)):
            self.solver.add_clause(clauses[index])
        self._fed_clauses = len(clauses)

        result = self._timed_solve(self.solver, [bit], conflict_limit)
        return _outcome(result, condition, self._blaster)

    def _solve_one_shot(self, condition: Expr, conflict_limit: int) -> SatOutcome:
        """Fresh blaster + solver for a query the shared blaster rejects."""
        blaster = BitBlaster()
        bit = blaster.blast(condition)[0]  # a BlastError here is genuine
        if isinstance(bit, bool):
            return _constant_outcome(bit, condition)
        blaster.assert_bit(bit, True)
        solver = Solver()
        solver.ensure_vars(blaster.cnf.num_vars)
        for clause in blaster.cnf.clauses:
            solver.add_clause(clause)
        result = self._timed_solve(solver, (), conflict_limit)
        return _outcome(result, condition, blaster)

    def _timed_solve(self, solver: Solver, assumptions, conflict_limit: int) -> Result:
        learned_before = solver.learned_clauses
        started = time.perf_counter()
        result = solver.solve(assumptions=assumptions, max_conflicts=conflict_limit)
        self.statistics.record(
            result, time.perf_counter() - started, solver.learned_clauses - learned_before
        )
        return result


def _constant_outcome(bit: bool, condition: Expr) -> SatOutcome:
    """Outcome for a condition the blaster folded to a constant."""
    if not bit:
        return SatOutcome(Status.UNSAT)
    # Constant-true condition: any assignment works.
    return SatOutcome(Status.SAT, witness={path: 0 for path in _field_paths(condition)})


def _outcome(result: Result, condition: Expr, blaster: BitBlaster) -> SatOutcome:
    if result.status is Status.SAT:
        full = blaster.field_assignment(result.model)
        return SatOutcome(
            Status.SAT,
            witness={path: full.get(path, 0) for path in _field_paths(condition)},
            conflicts=result.conflicts,
        )
    return SatOutcome(result.status, conflicts=result.conflicts)


def _field_paths(expr: Expr) -> list[str]:
    """The input-field paths ``expr`` depends on (sorted for determinism)."""
    paths = {
        node.path for node in expr.walk_unique() if isinstance(node, InputField)
    }
    return sorted(paths)
