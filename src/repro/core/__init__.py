"""The Code Phage pipeline — the paper's primary contribution."""

from .check_discovery import (
    CandidateCheck,
    DiscoveryResult,
    discover_candidate_checks,
    relevant_fields,
    run_instrumented,
)
from .donor_selection import DonorCandidate, DonorSelection, select_donors
from .events import (
    CandidateRejected,
    DonorAttempted,
    EventBus,
    EventLog,
    PatchValidated,
    PipelineEvent,
    ResidualErrorFound,
    StageFinished,
    StageStarted,
    StageTimingObserver,
)
from .excision import ExcisedCheck, excise_check
from .insertion import InsertionPoint, InsertionReport, find_insertion_points
from .patch import GeneratedPatch, PatchStrategy, build_patch, render_microc
from .pipeline import (
    CodePhageOptions,
    InsertionAccounting,
    TransferMetrics,
    TransferOutcome,
    TransferredCheck,
)
from .reporting import ResultsDatabase, TransferRecord
from .rewrite import RewriteResult, RewriteStatistics, Rewriter
from .stages import (
    POLICIES,
    ContractError,
    RepairResult,
    SearchPolicy,
    Stage,
    TransferContext,
    TransferEngine,
    get_policy,
)
from .traversal import RecipientName, collect_names, names_at_statement, traverse_cell
from .validation import ValidationOptions, ValidationOutcome, validate_patch

__all__ = [
    "CandidateCheck",
    "CandidateRejected",
    "CodePhageOptions",
    "ContractError",
    "DiscoveryResult",
    "DonorAttempted",
    "DonorCandidate",
    "DonorSelection",
    "EventBus",
    "EventLog",
    "ExcisedCheck",
    "GeneratedPatch",
    "InsertionAccounting",
    "InsertionPoint",
    "InsertionReport",
    "POLICIES",
    "PatchStrategy",
    "PatchValidated",
    "PipelineEvent",
    "RecipientName",
    "RepairResult",
    "ResidualErrorFound",
    "ResultsDatabase",
    "RewriteResult",
    "RewriteStatistics",
    "Rewriter",
    "SearchPolicy",
    "Stage",
    "StageFinished",
    "StageStarted",
    "StageTimingObserver",
    "TransferContext",
    "TransferEngine",
    "TransferMetrics",
    "TransferOutcome",
    "TransferRecord",
    "TransferredCheck",
    "ValidationOptions",
    "ValidationOutcome",
    "get_policy",
    "build_patch",
    "collect_names",
    "discover_candidate_checks",
    "excise_check",
    "find_insertion_points",
    "names_at_statement",
    "relevant_fields",
    "render_microc",
    "run_instrumented",
    "select_donors",
    "traverse_cell",
    "validate_patch",
]
