"""``repro.api`` — the public repair surface.

One facade for every driver: build a :class:`RepairRequest`, run it through
:func:`repair` (one-shot) or a :class:`RepairSession` (batch, shared solver
cache), and read the :class:`RepairReport` — the
:class:`~repro.core.pipeline.TransferOutcome` plus the typed
:class:`~repro.core.events.PipelineEvent` stream that produced it.

Behind the facade, :class:`TransferEngine` runs the paper's Figure 4
pipeline in order and accepts the first patch that validates; register an
observer on a session to follow its stages for progress or metrics.  This
is the only entry point into a repair.
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
from ..core.stages import RepairResult, TransferEngine
from ..lang.vm import default_execution_tier, set_default_execution_tier
from .facade import RepairReport, RepairRequest, RepairSession, SessionPool, repair
from .progress import ProgressPrinter

__all__ = [
    "CandidateRejected",
    "CodePhageOptions",
    "DonorAttempted",
    "EventBus",
    "EventLog",
    "Observer",
    "PatchValidated",
    "PipelineEvent",
    "ProgressPrinter",
    "RepairReport",
    "RepairRequest",
    "RepairResult",
    "RepairSession",
    "ResidualErrorFound",
    "SessionPool",
    "StageFinished",
    "StageStarted",
    "StageTimingObserver",
    "TransferEngine",
    "TransferMetrics",
    "TransferOutcome",
    "default_execution_tier",
    "repair",
    "set_default_execution_tier",
]
