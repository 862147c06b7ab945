"""The Code Phage transfer data model.

The stage sequencing that used to live here (paper Figure 4: donor selection,
candidate check discovery, check excision, insertion-point identification,
rewrite, patch generation, validation with retry over checks, points, and
donors) now lives in the transfer engine (:mod:`repro.core.stages`) behind
the public :mod:`repro.api` facade.  This module keeps the options and the
result types: :class:`TransferMetrics` captures exactly the columns of the
paper's Figure 8 plus the solver and per-stage timing accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..solver.equivalence import EquivalenceOptions
from ..symbolic.simplify import SimplifyOptions
from .excision import ExcisedCheck
from .patch import GeneratedPatch, PatchStrategy
from .validation import ValidationOptions, ValidationOutcome


@dataclass
class CodePhageOptions:
    """Pipeline configuration."""

    patch_strategy: PatchStrategy = PatchStrategy.EXIT
    simplify_options: SimplifyOptions = field(default_factory=SimplifyOptions)
    equivalence_options: EquivalenceOptions = field(default_factory=EquivalenceOptions)
    validation: ValidationOptions = field(default_factory=ValidationOptions)
    regression_inputs: int = 6
    max_candidate_checks: int = 8
    max_recursive_patches: int = 4
    filter_unstable_points: bool = True


@dataclass
class InsertionAccounting:
    """The Figure 8 ``X - Y - Z = W`` bookkeeping for one transferred check."""

    candidate_points: int
    unstable_points: int
    untranslatable_points: int
    usable_points: int

    def __str__(self) -> str:
        return (
            f"{self.candidate_points} - {self.unstable_points} - "
            f"{self.untranslatable_points} = {self.usable_points}"
        )


@dataclass
class TransferredCheck:
    """One successfully transferred and validated check."""

    donor: str
    patch: GeneratedPatch
    excised: ExcisedCheck
    accounting: InsertionAccounting
    validation: ValidationOutcome
    patched_source: str

    @property
    def check_size(self) -> str:
        return f"{self.patch.excised_size} -> {self.patch.translated_size}"


@dataclass
class TransferMetrics:
    """Per-row metrics matching the columns of Figure 8."""

    recipient: str = ""
    target: str = ""
    donor: str = ""
    generation_time_s: float = 0.0
    relevant_branches: int = 0
    flipped_branches: list[int] = field(default_factory=list)
    used_checks: int = 0
    insertion_accounting: list[InsertionAccounting] = field(default_factory=list)
    check_sizes: list[tuple[int, int]] = field(default_factory=list)
    # Solver accounting for this transfer (deltas over the shared checker),
    # surfaced so campaign runs can report cache effectiveness per job.
    solver_queries: int = 0
    solver_cache_hits: int = 0
    solver_persistent_hits: int = 0
    solver_expensive_queries: int = 0
    #: Structurally identical blasted/satisfiability queries answered by the
    #: session's :class:`~repro.solver.engine.QueryBatch` during this transfer.
    solver_batch_hits: int = 0
    #: SAT solver counter deltas (queries, sat/unsat/unknown, conflicts,
    #: learned clauses, time) for this transfer, keyed by solver name
    #: (``{"cdcl": {...}}``); the campaign scheduler aggregates these into
    #: ``CampaignReport.backend_stats``.
    solver_backend_stats: dict[str, dict] = field(default_factory=dict)
    #: Cumulative wall time per pipeline stage, populated solely from the
    #: ``StageFinished`` event stream (see :mod:`repro.core.events`).
    stage_timings: dict[str, float] = field(default_factory=dict)

    def flipped_display(self) -> str:
        if len(self.flipped_branches) == 1:
            return str(self.flipped_branches[0])
        return "[" + ",".join(str(value) for value in self.flipped_branches) + "]"

    def sizes_display(self) -> str:
        parts = [f"{before} -> {after}" for before, after in self.check_sizes]
        if len(parts) == 1:
            return parts[0]
        return "[" + ", ".join(parts) + "]"


@dataclass
class TransferOutcome:
    """Result of one CP repair attempt for a recipient error."""

    success: bool
    recipient: str
    target: str
    donor: str
    checks: list[TransferredCheck] = field(default_factory=list)
    metrics: TransferMetrics = field(default_factory=TransferMetrics)
    failure_reason: str = ""

    @property
    def patched_source(self) -> Optional[str]:
        if not self.checks:
            return None
        return self.checks[-1].patched_source
