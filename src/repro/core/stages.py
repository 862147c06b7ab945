"""The stage-graph engine: Figure 4 as composable pipeline stages.

The paper presents CP as a sequence of named stages — donor selection,
candidate check discovery, check excision, insertion-point identification,
rewrite, patch generation, and validation.  Here each stage is a
:class:`Stage` object with a declared input/output contract over a shared
:class:`TransferContext`, and :class:`TransferEngine` drives the retry loops
(candidate checks x insertion points x donors x recursive multi-patch
rounds) through a pluggable :class:`SearchPolicy` instead of nested ``for``
loops.

Contracts are data, not convention: a stage's ``requires`` keys must be
present in ``ctx.state`` before it runs and its ``provides`` keys must be
present after, or the engine raises :class:`ContractError`.  Every stage
execution is bracketed by ``StageStarted``/``StageFinished`` events on the
engine's :class:`~repro.core.events.EventBus`, which is how timing,
progress rendering, and campaign observability happen without any stage
knowing about reporting.

The engine is not the public API — :mod:`repro.api` wraps it in the
``RepairRequest`` -> ``RepairReport`` facade that the CLI, the experiment
drivers, and the campaign workers all route through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..apps.registry import Application, ErrorTarget
from ..formats.fields import FormatSpec
from ..formats.generator import InputGenerator
from ..formats.registry import get_format
from ..lang.checker import Program, compile_program
from ..lang.patcher import PatchError, apply_patch
from ..lang.trace import ErrorKind
from ..lang.vm import VM, VMConfig
from ..solver.engine import diff_snapshots
from ..solver.equivalence import EquivalenceChecker
from .check_discovery import discover_candidate_checks, relevant_fields, run_instrumented
from .donor_selection import select_donors
from .events import (
    CandidateRejected,
    DonorAttempted,
    EventBus,
    PatchValidated,
    ResidualErrorFound,
    StageFinished,
    StageStarted,
    StageTimingObserver,
)
from .excision import excise_check
from .insertion import find_insertion_points
from .patch import build_patch
from .pipeline import (
    CodePhageOptions,
    InsertionAccounting,
    TransferMetrics,
    TransferOutcome,
    TransferredCheck,
)
from .rewrite import Rewriter
from .validation import RegressionBaseline, validate_patch


class ContractError(RuntimeError):
    """A stage ran without its declared inputs, or broke its output promise."""


@dataclass
class TransferContext:
    """The shared state one transfer's stages operate on.

    The fixed fields are the transfer inputs (applications, inputs, format,
    options, shared solver checker, event bus, metrics); ``current_source``
    and ``current_error`` evolve across recursive rounds; ``state`` is the
    contract surface — the keys stages declare in ``requires``/``provides``.
    """

    recipient: Application
    target: ErrorTarget
    seed: bytes
    error_input: bytes
    format_spec: FormatSpec
    options: CodePhageOptions
    checker: EquivalenceChecker
    events: EventBus
    metrics: TransferMetrics
    donor: Optional[Application] = None
    regression: Sequence[bytes] = ()
    current_source: str = ""
    current_error: Optional[bytes] = None
    round_index: int = 0
    state: dict = field(default_factory=dict)

    def require(self, key: str):
        try:
            return self.state[key]
        except KeyError:
            raise ContractError(f"stage input {key!r} missing from the context") from None


class Stage:
    """One pipeline stage with a declared input/output contract."""

    name: str = ""
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()

    def run(self, ctx: TransferContext) -> None:
        raise NotImplementedError


class DonorSelectionStage(Stage):
    """§3.1: applications that process both inputs are potential donors."""

    name = "donor-selection"
    provides = ("donor_pool",)

    def run(self, ctx: TransferContext) -> None:
        selection = select_donors(
            ctx.format_spec.name, ctx.seed, ctx.error_input, recipient=ctx.recipient
        )
        ctx.state["donor_pool"] = tuple(selection.donors)


class CheckDiscoveryStage(Stage):
    """§3.2: branches that flip between the donor's seed and error runs."""

    name = "check-discovery"
    requires = ("recipient_program",)  # seeded by the engine per round
    provides = ("discovery", "candidates")

    def run(self, ctx: TransferContext) -> None:
        relevant = relevant_fields(ctx.format_spec, ctx.seed, ctx.current_error)
        discovery = discover_candidate_checks(
            ctx.donor.program(),
            ctx.format_spec,
            ctx.seed,
            ctx.current_error,
            relevant=relevant,
            simplify_options=ctx.options.simplify_options,
        )
        ctx.metrics.relevant_branches = max(
            ctx.metrics.relevant_branches, discovery.relevant_branches
        )
        ctx.metrics.flipped_branches.append(discovery.flipped_branches)
        ctx.state["discovery"] = discovery
        ctx.state["candidates"] = tuple(
            discovery.candidates[: ctx.options.max_candidate_checks]
        )


class ExcisionStage(Stage):
    """§3.2: re-run the donor and excise the check into the symbolic IR."""

    name = "excision"
    requires = ("candidate",)
    provides = ("excised",)

    def run(self, ctx: TransferContext) -> None:
        ctx.state["excised"] = excise_check(
            ctx.donor.program(),
            ctx.format_spec,
            ctx.current_error,
            ctx.require("candidate"),
            simplify_options=ctx.options.simplify_options,
            donor_name=ctx.donor.full_name,
        )


class InsertionStage(Stage):
    """§3.3: candidate insertion points, with the unstable-point filter."""

    name = "insertion"
    requires = ("excised", "recipient_program")
    provides = ("insertion_report", "points")

    def run(self, ctx: TransferContext) -> None:
        excised = ctx.require("excised")
        report = find_insertion_points(
            ctx.require("recipient_program"),
            ctx.seed,
            ctx.format_spec.field_map(ctx.seed),
            excised.fields,
        )
        if ctx.options.filter_unstable_points:
            points = list(report.stable_points)
        else:
            # Without the filter every candidate point is considered (used by
            # the unstable-point ablation benchmark).
            points = report.stable_points + report.unstable_points
        ctx.state["insertion_report"] = report
        ctx.state["points"] = tuple(points)


class RewriteStage(Stage):
    """§3.3 / Figure 7: translate the check into the recipient's vocabulary."""

    name = "rewrite"
    requires = ("excised", "points")
    provides = ("translations", "untranslatable")

    def run(self, ctx: TransferContext) -> None:
        excised = ctx.require("excised")
        translations = []
        untranslatable = 0
        for point in ctx.require("points"):
            rewriter = Rewriter(point.names, checker=ctx.checker)
            result = rewriter.rewrite(excised.guard)
            if result is None:
                untranslatable += 1
                ctx.events.emit(
                    CandidateRejected(
                        kind="insertion-point",
                        function=point.function,
                        line=point.line,
                        reason="check not translatable into the names reachable here",
                    )
                )
                continue
            translations.append((point, result))
        ctx.state["translations"] = tuple(translations)
        ctx.state["untranslatable"] = untranslatable


class PatchGenerationStage(Stage):
    """Generate patches for every translation and sort them by size."""

    name = "patch-generation"
    requires = ("excised", "translations", "insertion_report", "untranslatable")
    provides = ("patches", "accounting")

    def run(self, ctx: TransferContext) -> None:
        excised = ctx.require("excised")
        report = ctx.require("insertion_report")
        patches = [
            build_patch(
                guard=result.expression,
                excised_condition=excised.condition,
                insertion_point=point,
                strategy=ctx.options.patch_strategy,
            )
            for point, result in ctx.require("translations")
        ]
        ctx.state["accounting"] = InsertionAccounting(
            candidate_points=report.candidate_count,
            unstable_points=report.unstable_count,
            untranslatable_points=ctx.require("untranslatable"),
            usable_points=len(patches),
        )
        # "CP then sorts the remaining generated patches by size and attempts
        # to validate the patches in that order."
        patches.sort(key=lambda patch: patch.translated_size)
        ctx.state["patches"] = tuple(patches)


class ValidationStage(Stage):
    """§3.4: accept the first patch in size order that validates."""

    name = "validation"
    requires = ("excised", "patches", "accounting", "recipient_program")
    provides = ("transferred",)

    def run(self, ctx: TransferContext) -> None:
        excised = ctx.require("excised")
        accounting = ctx.require("accounting")
        recipient_program = ctx.require("recipient_program")
        patches = ctx.require("patches")

        overflow_expr = None
        if patches and ctx.target.error_kind is ErrorKind.INTEGER_OVERFLOW:
            overflow_expr = _allocation_expression(
                recipient_program, ctx.format_spec, ctx.seed, ctx.target, ctx.options
            )

        baseline = RegressionBaseline(recipient_program, ctx.regression)
        transferred = None
        for patch in patches:
            point = patch.insertion_point
            try:
                patched = apply_patch(
                    ctx.current_source, patch.source_patch(), recipient_program.name
                )
            except PatchError as exc:
                ctx.events.emit(
                    CandidateRejected(
                        kind="patch",
                        function=point.function,
                        line=point.line,
                        reason=f"patch does not apply: {exc}",
                    )
                )
                continue
            validation = validate_patch(
                recipient_program,
                patched,
                ctx.format_spec,
                ctx.seed,
                ctx.current_error,
                regression_corpus=ctx.regression,
                target_function=ctx.target.site_function,
                options=ctx.options.validation,
                donor_guard=excised.guard,
                overflow_size_expr=overflow_expr,
                checker=ctx.checker,
                baseline=baseline,
            )
            if validation.ok:
                transferred = TransferredCheck(
                    donor=excised.donor,
                    patch=patch,
                    excised=excised,
                    accounting=accounting,
                    validation=validation,
                    patched_source=patched.source,
                )
                ctx.events.emit(
                    PatchValidated(
                        donor=excised.donor,
                        function=point.function,
                        line=point.line,
                        excised_size=patch.excised_size,
                        translated_size=patch.translated_size,
                        round_index=ctx.round_index,
                    )
                )
                break
            ctx.events.emit(
                CandidateRejected(
                    kind="patch",
                    function=point.function,
                    line=point.line,
                    reason=validation.failure_reason,
                )
            )
        ctx.state["transferred"] = transferred


def _allocation_expression(
    recipient_program: Program,
    format_spec: FormatSpec,
    seed: bytes,
    target: ErrorTarget,
    options: CodePhageOptions,
):
    """The symbolic allocation-size expression at the target site (seed run)."""
    result = run_instrumented(recipient_program, format_spec, seed, options.simplify_options)
    for record in result.allocations:
        if record.function == target.site_function and record.symbolic is not None:
            return record.symbolic
    return None


# -- search policies -------------------------------------------------------------------


class SearchPolicy:
    """How the engine explores the candidate-check and donor search spaces.

    ``select_check`` drives the candidate-check loop of one recursive round;
    ``choose_outcome`` picks the final result among the per-donor outcomes
    of ``repair``; ``stop_on_first_donor`` short-circuits the donor loop.
    """

    name: str = ""
    stop_on_first_donor: bool = True

    def select_check(
        self, engine: "TransferEngine", ctx: TransferContext
    ) -> Optional[TransferredCheck]:
        raise NotImplementedError

    def choose_outcome(
        self, outcomes: Sequence[TransferOutcome]
    ) -> Optional[TransferOutcome]:
        for outcome in outcomes:
            if outcome.success:
                return outcome
        return outcomes[-1] if outcomes else None


class FirstValidatedPolicy(SearchPolicy):
    """The paper's behaviour: accept the first candidate check that validates."""

    name = "first-validated"

    def select_check(self, engine, ctx):
        for candidate in ctx.require("candidates"):
            transferred = engine.attempt_candidate(ctx, candidate)
            if transferred is not None:
                return transferred
            ctx.events.emit(
                CandidateRejected(
                    kind="check",
                    function=candidate.function,
                    line=candidate.line,
                    reason="no patch for this check validated",
                )
            )
        return None


class SmallestPatchPolicy(SearchPolicy):
    """Exhaust every candidate check and keep the smallest validated patch."""

    name = "smallest-patch"

    def select_check(self, engine, ctx):
        validated: list[TransferredCheck] = []
        for candidate in ctx.require("candidates"):
            transferred = engine.attempt_candidate(ctx, candidate)
            if transferred is None:
                ctx.events.emit(
                    CandidateRejected(
                        kind="check",
                        function=candidate.function,
                        line=candidate.line,
                        reason="no patch for this check validated",
                    )
                )
                continue
            validated.append(transferred)
        if not validated:
            return None
        best = min(validated, key=lambda check: check.patch.translated_size)
        # Keep the event stream consistent with the outcome: every validated
        # check announced a PatchValidated, but only one survives.
        for check in validated:
            if check is best:
                continue
            point = check.patch.insertion_point
            ctx.events.emit(
                CandidateRejected(
                    kind="check",
                    function=point.function,
                    line=point.line,
                    reason="validated, but superseded by a smaller patch",
                )
            )
        return best


class AllDonorsPolicy(FirstValidatedPolicy):
    """Try every donor and keep the success with the smallest total patch.

    Within each donor the candidate search is first-validated; across donors
    the repair does not stop at the first success, and ties go to the donor
    tried first.
    """

    name = "all-donors"
    stop_on_first_donor = False

    def choose_outcome(self, outcomes):
        successes = [outcome for outcome in outcomes if outcome.success]
        if not successes:
            return outcomes[-1] if outcomes else None
        return min(
            successes,
            key=lambda outcome: sum(
                check.patch.translated_size for check in outcome.checks
            ),
        )


#: Registry of the built-in search policies, keyed by their public names.
POLICIES: dict[str, type[SearchPolicy]] = {
    policy.name: policy
    for policy in (FirstValidatedPolicy, SmallestPatchPolicy, AllDonorsPolicy)
}


def get_policy(policy: Union[str, SearchPolicy, None]) -> SearchPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, SearchPolicy):
        return policy
    name = policy or "first-validated"
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown search policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None


# -- the engine ------------------------------------------------------------------------


@dataclass
class RepairResult:
    """One ``repair``: the chosen outcome plus every per-donor attempt."""

    outcome: TransferOutcome
    attempts: tuple[TransferOutcome, ...] = ()


class TransferEngine:
    """Drives the stage graph: rounds x candidate checks x points x donors."""

    #: The per-candidate sub-graph, in Figure 4 order.
    CANDIDATE_STAGES: tuple[Stage, ...] = (
        ExcisionStage(),
        InsertionStage(),
        RewriteStage(),
        PatchGenerationStage(),
        ValidationStage(),
    )
    #: Keys cleared between candidate attempts: the candidate itself plus
    #: everything the sub-graph provides (derived, so a new stage's outputs
    #: can never leak into the next candidate's contract checks).
    _CANDIDATE_KEYS = ("candidate",) + tuple(
        key for stage in CANDIDATE_STAGES for key in stage.provides
    )

    def __init__(
        self,
        options: Optional[CodePhageOptions] = None,
        checker: Optional[EquivalenceChecker] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        self.options = options or CodePhageOptions()
        self.checker = checker or EquivalenceChecker(
            options=self.options.equivalence_options,
            simplify_options=self.options.simplify_options,
        )
        self.events = events or EventBus()
        self.discovery_stage = CheckDiscoveryStage()
        self.donor_stage = DonorSelectionStage()

    # -- stage driver ------------------------------------------------------------------

    def run_stage(self, stage: Stage, ctx: TransferContext, detail: str = "") -> None:
        """Run one stage under its contract, bracketed by timing events."""
        for key in stage.requires:
            if key not in ctx.state:
                raise ContractError(
                    f"stage {stage.name!r} requires {key!r}, which no earlier "
                    "stage provided"
                )
        self.events.emit(
            StageStarted(stage=stage.name, round_index=ctx.round_index, detail=detail)
        )
        started = time.perf_counter()
        stage.run(ctx)
        elapsed = time.perf_counter() - started
        self.events.emit(
            StageFinished(
                stage=stage.name,
                elapsed_s=elapsed,
                round_index=ctx.round_index,
                detail=detail,
            )
        )
        for key in stage.provides:
            if key not in ctx.state:
                raise ContractError(f"stage {stage.name!r} did not provide {key!r}")

    def attempt_candidate(self, ctx: TransferContext, candidate) -> Optional[TransferredCheck]:
        """Run the per-candidate sub-graph for one candidate check."""
        for key in self._CANDIDATE_KEYS:
            ctx.state.pop(key, None)
        ctx.state["candidate"] = candidate
        detail = f"{candidate.function}:{candidate.line}"
        for stage in self.CANDIDATE_STAGES:
            self.run_stage(stage, ctx, detail=detail)
        return ctx.state["transferred"]

    # -- transfer (one donor) ----------------------------------------------------------

    def transfer(
        self,
        recipient: Application,
        target: ErrorTarget,
        donor: Application,
        seed: bytes,
        error_input: bytes,
        format_name: Optional[str] = None,
        policy: Union[str, SearchPolicy, None] = None,
        probe_inputs: Sequence[bytes] = (),
    ) -> TransferOutcome:
        """Transfer a check from ``donor`` to eliminate ``target`` in ``recipient``.

        ``probe_inputs`` are additional known error triggers (multi-defect
        recipients declare one per defect); after every validated patch each
        probe is re-run against the patched program and any still-crashing
        probe becomes a residual error driving another recursive round, in
        declaration order, ahead of DIODE rescan findings.
        """
        policy = get_policy(policy or self.options.search_policy)
        start = time.perf_counter()
        format_spec = get_format(format_name or recipient.formats[0])
        metrics = TransferMetrics(
            recipient=recipient.full_name, target=target.target_id, donor=donor.full_name
        )
        outcome = TransferOutcome(
            success=False,
            recipient=recipient.full_name,
            target=target.target_id,
            donor=donor.full_name,
            metrics=metrics,
        )
        ctx = TransferContext(
            recipient=recipient,
            target=target,
            seed=seed,
            error_input=error_input,
            format_spec=format_spec,
            options=self.options,
            checker=self.checker,
            events=self.events,
            metrics=metrics,
            donor=donor,
            regression=InputGenerator(format_spec).regression_corpus(
                self.options.regression_inputs
            ),
            current_source=recipient.source,
            current_error=error_input,
        )

        stats = self.checker.statistics
        base_queries = stats.queries
        base_cache_hits = stats.cache_hits
        base_persistent_hits = stats.persistent_cache_hits
        base_expensive = stats.solver_invocations
        base_batch_hits = self.checker.query_batch.hits
        base_sat = self.checker.sat_counters()

        timer = self.events.subscribe(StageTimingObserver())
        try:
            for round_index in range(self.options.max_recursive_patches):
                if ctx.current_error is None:
                    break
                ctx.round_index = round_index
                transferred = self._run_round(ctx, policy)
                if transferred is None:
                    if round_index == 0:
                        outcome.failure_reason = "no validated patch found"
                        return outcome
                    break
                outcome.checks.append(transferred)
                metrics.used_checks += 1
                metrics.insertion_accounting.append(transferred.accounting)
                metrics.check_sizes.append(
                    (transferred.patch.excised_size, transferred.patch.translated_size)
                )
                ctx.current_source = transferred.patched_source

                # Residual errors drive recursion: declared probe inputs that
                # still crash the patched program (in declaration order) come
                # first, then anything the DIODE rescan discovered.
                probe_failures = self._probe_residuals(ctx, probe_inputs)
                residual = transferred.validation.residual_findings
                if probe_failures or residual:
                    ordered = [data for data, _ in probe_failures]
                    kinds = [kind.value for _, kind in probe_failures]
                    for finding in residual:
                        ordered.append(finding.error_input)
                        if finding.result.error is not None:
                            kinds.append(finding.result.error.kind.value)
                    self.events.emit(
                        ResidualErrorFound(
                            count=len(ordered),
                            round_index=round_index,
                            kinds=tuple(dict.fromkeys(kinds)),
                        )
                    )
                    ctx.current_error = ordered[0]
                else:
                    ctx.current_error = None

            outcome.success = bool(outcome.checks) and ctx.current_error is None
            if not outcome.success and not outcome.failure_reason:
                outcome.failure_reason = "residual errors remain after recursive patching"
            return outcome
        finally:
            self.events.unsubscribe(timer)
            metrics.stage_timings = dict(timer.totals)
            metrics.generation_time_s = time.perf_counter() - start
            metrics.solver_queries = stats.queries - base_queries
            metrics.solver_cache_hits = stats.cache_hits - base_cache_hits
            metrics.solver_persistent_hits = (
                stats.persistent_cache_hits - base_persistent_hits
            )
            metrics.solver_expensive_queries = stats.solver_invocations - base_expensive
            metrics.solver_batch_hits = self.checker.query_batch.hits - base_batch_hits
            metrics.solver_backend_stats = diff_snapshots(
                base_sat, self.checker.sat_counters()
            )

    def _run_round(
        self, ctx: TransferContext, policy: SearchPolicy
    ) -> Optional[TransferredCheck]:
        """One recursive round: discovery, then the policy's candidate search."""
        ctx.state.clear()
        ctx.state["recipient_program"] = compile_program(
            ctx.current_source, name=ctx.recipient.full_name
        )
        self.run_stage(self.discovery_stage, ctx, detail=ctx.donor.full_name)
        return policy.select_check(self, ctx)

    def _probe_residuals(
        self, ctx: TransferContext, probe_inputs: Sequence[bytes]
    ) -> list[tuple[bytes, ErrorKind]]:
        """Probe inputs that still crash ``ctx.current_source``, with their kinds.

        The just-repaired error input is among the probes by construction and
        drops out here (it no longer crashes), so the surviving list is exactly
        the recipient's *remaining* defects in declaration order.
        """
        failures: list[tuple[bytes, ErrorKind]] = []
        if not probe_inputs:
            return failures
        program = compile_program(ctx.current_source, name=ctx.recipient.full_name)
        vm = VM(program, config=VMConfig(track_symbolic=False))
        for data in probe_inputs:
            result = vm.run(data)
            if result.error is not None:
                failures.append((data, result.error.kind))
        return failures

    # -- repair (donor loop) -----------------------------------------------------------

    def repair(
        self,
        recipient: Application,
        target: ErrorTarget,
        seed: bytes,
        error_input: bytes,
        format_name: Optional[str] = None,
        donors: Optional[Sequence[Application]] = None,
        policy: Union[str, SearchPolicy, None] = None,
        probe_inputs: Sequence[bytes] = (),
    ) -> RepairResult:
        """Full pipeline including donor selection, driven by the policy."""
        policy = get_policy(policy or self.options.search_policy)
        format_spec = get_format(format_name or recipient.formats[0])
        repair_metrics = TransferMetrics(
            recipient=recipient.full_name, target=target.target_id, donor="<none>"
        )
        selection_timer = StageTimingObserver()
        if donors is None:
            ctx = TransferContext(
                recipient=recipient,
                target=target,
                seed=seed,
                error_input=error_input,
                format_spec=format_spec,
                options=self.options,
                checker=self.checker,
                events=self.events,
                metrics=repair_metrics,
            )
            self.events.subscribe(selection_timer)
            try:
                self.run_stage(self.donor_stage, ctx)
            finally:
                self.events.unsubscribe(selection_timer)
            donors = ctx.state["donor_pool"]

        donors = list(donors)
        outcomes: list[TransferOutcome] = []
        for index, donor in enumerate(donors):
            self.events.emit(
                DonorAttempted(donor=donor.full_name, index=index, total=len(donors))
            )
            outcome = self.transfer(
                recipient,
                target,
                donor,
                seed,
                error_input,
                format_spec.name,
                policy=policy,
                probe_inputs=probe_inputs,
            )
            outcomes.append(outcome)
            if outcome.success and policy.stop_on_first_donor:
                break

        chosen = policy.choose_outcome(outcomes)
        if chosen is None:
            # No donor at all: report the attempt with fully populated metrics
            # (recipient/target/selection timing) so reporting never emits a
            # blank row.
            repair_metrics.stage_timings = dict(selection_timer.totals)
            chosen = TransferOutcome(
                success=False,
                recipient=recipient.full_name,
                target=target.target_id,
                donor="<none>",
                metrics=repair_metrics,
                failure_reason="no viable donor found",
            )
        else:
            for stage_name, elapsed in selection_timer.totals.items():
                chosen.metrics.stage_timings[stage_name] = (
                    chosen.metrics.stage_timings.get(stage_name, 0.0) + elapsed
                )
        return RepairResult(outcome=chosen, attempts=tuple(outcomes))
