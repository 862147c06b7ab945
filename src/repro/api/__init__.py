"""``repro.api`` — the public repair surface.

One facade for every driver: build a :class:`RepairRequest`, run it through
:func:`repair` (one-shot) or a :class:`RepairSession` (batch, shared solver
cache), and read the :class:`RepairReport` — the
:class:`~repro.core.pipeline.TransferOutcome` plus the typed
:class:`~repro.core.events.PipelineEvent` stream that produced it.

The stage-graph machinery behind the facade (stages, contracts, search
policies, the engine) is re-exported here for extension: register an
observer for progress/metrics, pick a :class:`SearchPolicy` by name
(``"first-validated"``, ``"smallest-patch"``, ``"all-donors"``), or add a
new policy against :class:`TransferEngine`.  This is the only entry point
into a repair.
"""

from ..core.events import (
    CandidateRejected,
    DonorAttempted,
    EventBus,
    EventLog,
    Observer,
    PatchValidated,
    PipelineEvent,
    ResidualErrorFound,
    StageFinished,
    StageStarted,
    StageTimingObserver,
)
from ..core.pipeline import CodePhageOptions, TransferMetrics, TransferOutcome
from ..core.stages import (
    POLICIES,
    AllDonorsPolicy,
    ContractError,
    FirstValidatedPolicy,
    RepairResult,
    SearchPolicy,
    SmallestPatchPolicy,
    Stage,
    TransferContext,
    TransferEngine,
    get_policy,
)
from ..lang.vm import default_execution_tier, set_default_execution_tier
from .facade import RepairReport, RepairRequest, RepairSession, SessionPool, repair
from .progress import ProgressPrinter

__all__ = [
    "AllDonorsPolicy",
    "CandidateRejected",
    "CodePhageOptions",
    "ContractError",
    "DonorAttempted",
    "EventBus",
    "EventLog",
    "FirstValidatedPolicy",
    "Observer",
    "POLICIES",
    "PatchValidated",
    "PipelineEvent",
    "ProgressPrinter",
    "RepairReport",
    "RepairRequest",
    "RepairResult",
    "RepairSession",
    "ResidualErrorFound",
    "SearchPolicy",
    "SessionPool",
    "SmallestPatchPolicy",
    "Stage",
    "StageFinished",
    "StageStarted",
    "StageTimingObserver",
    "TransferContext",
    "TransferEngine",
    "TransferMetrics",
    "TransferOutcome",
    "default_execution_tier",
    "get_policy",
    "repair",
    "set_default_execution_tier",
]
