"""SMT-lite decision procedures for Code Phage.

The original system queries Z3; here the same queries are answered by a hybrid
engine built from the incremental CDCL solver of :mod:`repro.solver.sat`, a
bitvector bit-blaster (:mod:`repro.solver.bitblast`), exhaustive enumeration
for small domains, and counterexample sampling.  All blasted queries flow
through one incremental :class:`~repro.solver.engine.ValidationEngine` per
checker, and the paper's two optimisations (disjoint-field filtering and
query caching) are layered on top (:mod:`repro.solver.equivalence`).
``docs/SOLVER.md`` documents the layer end to end.
"""

from .bitblast import BitBlaster, BlastError, CNF, estimate_blast_cost
from .engine import QueryBatch, SatOutcome, ValidationEngine
from .equivalence import (
    EquivalenceChecker,
    EquivalenceOptions,
    EquivalenceResult,
    QueryCache,
    SolverStatistics,
    Verdict,
)
from .overflow import (
    OverflowVerdict,
    check_blocks_overflow,
    overflow_condition,
    overflow_witness,
    widen,
)
from .sat import Result, Solver, SolverError, Status, solve_clauses

__all__ = [
    "BitBlaster",
    "BlastError",
    "CNF",
    "EquivalenceChecker",
    "EquivalenceOptions",
    "EquivalenceResult",
    "OverflowVerdict",
    "QueryBatch",
    "QueryCache",
    "Result",
    "SatOutcome",
    "Solver",
    "SolverError",
    "SolverStatistics",
    "Status",
    "ValidationEngine",
    "Verdict",
    "check_blocks_overflow",
    "estimate_blast_cost",
    "overflow_condition",
    "overflow_witness",
    "solve_clauses",
    "widen",
]
