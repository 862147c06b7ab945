"""The transfer engine: the paper's Figure 4 pipeline as plain code.

CP is a fixed sequence of named stages — donor selection, candidate check
discovery, check excision, insertion-point identification, rewrite, patch
generation, and validation.  :meth:`TransferEngine.repair` selects donors
and tries them in order, stopping at the first one that eliminates the
error; :meth:`TransferEngine.transfer` runs recursive rounds against one
donor.  Each round discovers candidate checks and tries them in order: the
candidate is excised, translated at every insertion point, turned into
patches sorted by size, and the first patch that validates is accepted
(§3.4).  The first candidate with a validated patch ends the round.

Every stage execution is bracketed by ``StageStarted``/``StageFinished``
events on the engine's :class:`~repro.core.events.EventBus`, which is how
timing, progress rendering, and campaign observability happen without any
stage knowing about reporting.

The engine is not the public API — :mod:`repro.api` wraps it in the
``RepairRequest`` -> ``RepairReport`` facade that the CLI, the experiment
drivers, and the campaign workers all route through.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..apps.registry import Application, ErrorTarget
from ..formats.fields import FormatSpec
from ..formats.generator import InputGenerator
from ..formats.registry import get_format
from ..lang.checker import Program, compile_program
from ..lang.patcher import PatchError, apply_patch
from ..lang.trace import ErrorKind, RunResult
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
from .excision import ExcisedCheck, excise_check
from .insertion import find_insertion_points
from .patch import GeneratedPatch, build_patch
from .pipeline import (
    CodePhageOptions,
    InsertionAccounting,
    TransferMetrics,
    TransferOutcome,
    TransferredCheck,
)
from .rewrite import Rewriter
from .validation import RegressionBaseline, validate_patch


@dataclass(frozen=True)
class _Round:
    """The inputs of one recursive round against one donor."""

    target: ErrorTarget
    donor: Application
    seed: bytes
    format_spec: FormatSpec
    regression: Sequence[bytes]
    index: int
    #: The recipient's source as patched by the earlier rounds, and compiled.
    source: str
    program: Program
    #: The error input this round eliminates.
    error: bytes


@dataclass
class RepairResult:
    """One ``repair``: the chosen outcome plus every per-donor attempt."""

    outcome: TransferOutcome
    attempts: tuple[TransferOutcome, ...] = ()


class TransferEngine:
    """Runs Figure 4: donors x recursive rounds x candidate checks x patches."""

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

    @contextmanager
    def _stage(self, name: str, round_index: int = 0, detail: str = "") -> Iterator[None]:
        """Bracket one stage with ``StageStarted``/``StageFinished`` events."""
        self.events.emit(StageStarted(stage=name, round_index=round_index, detail=detail))
        started = time.perf_counter()
        yield
        self.events.emit(
            StageFinished(
                stage=name,
                elapsed_s=time.perf_counter() - started,
                round_index=round_index,
                detail=detail,
            )
        )

    # -- repair (donor loop) -----------------------------------------------------------

    def repair(
        self,
        recipient: Application,
        target: ErrorTarget,
        seed: bytes,
        error_input: bytes,
        format_name: Optional[str] = None,
        donors: Optional[Sequence[Application]] = None,
        probe_inputs: Sequence[bytes] = (),
    ) -> RepairResult:
        """Full pipeline: select donors, then try each until one succeeds."""
        format_spec = get_format(format_name or recipient.formats[0])
        selection_timer = StageTimingObserver()
        if donors is None:
            # §3.1: applications that process both inputs are potential donors.
            self.events.subscribe(selection_timer)
            try:
                with self._stage("donor-selection"):
                    donors = select_donors(
                        format_spec.name, seed, error_input, recipient=recipient
                    ).donors
            finally:
                self.events.unsubscribe(selection_timer)

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
                probe_inputs=probe_inputs,
            )
            outcomes.append(outcome)
            if outcome.success:
                break

        if not outcomes:
            # No donor at all: report the attempt with fully populated metrics
            # (recipient/target/selection timing) so reporting never emits a
            # blank row.
            metrics = TransferMetrics(
                recipient=recipient.full_name,
                target=target.target_id,
                donor="<none>",
                stage_timings=dict(selection_timer.totals),
            )
            chosen = TransferOutcome(
                success=False,
                recipient=recipient.full_name,
                target=target.target_id,
                donor="<none>",
                metrics=metrics,
                failure_reason="no viable donor found",
            )
        else:
            # The donor loop stops at the first success, so the last attempt
            # is the success or, when every donor failed, the last failure.
            chosen = outcomes[-1]
            for stage_name, elapsed in selection_timer.totals.items():
                chosen.metrics.stage_timings[stage_name] = (
                    chosen.metrics.stage_timings.get(stage_name, 0.0) + elapsed
                )
        return RepairResult(outcome=chosen, attempts=tuple(outcomes))

    # -- transfer (one donor, recursive rounds) ----------------------------------------

    def transfer(
        self,
        recipient: Application,
        target: ErrorTarget,
        donor: Application,
        seed: bytes,
        error_input: bytes,
        format_name: Optional[str] = None,
        probe_inputs: Sequence[bytes] = (),
    ) -> TransferOutcome:
        """Transfer a check from ``donor`` to eliminate ``target`` in ``recipient``.

        ``probe_inputs`` are additional known error triggers (multi-defect
        recipients declare one per defect); after every validated patch each
        probe is re-run against the patched program and any still-crashing
        probe becomes a residual error driving another recursive round, in
        declaration order, ahead of DIODE rescan findings.
        """
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
        regression = InputGenerator(format_spec).regression_corpus(
            self.options.regression_inputs
        )
        source: str = recipient.source
        error: Optional[bytes] = error_input

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
                if error is None:
                    break
                transferred = self._run_round(
                    _Round(
                        target=target,
                        donor=donor,
                        seed=seed,
                        format_spec=format_spec,
                        regression=regression,
                        index=round_index,
                        source=source,
                        program=compile_program(source, name=recipient.full_name),
                        error=error,
                    ),
                    metrics,
                )
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
                source = transferred.patched_source

                # Residual errors drive recursion: declared probe inputs that
                # still crash the patched program (in declaration order) come
                # first, then anything the DIODE rescan discovered.
                probe_failures = self._probe_residuals(recipient, source, probe_inputs)
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
                    error = ordered[0]
                else:
                    error = None

            outcome.success = bool(outcome.checks) and error is None
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

    def _probe_residuals(
        self, recipient: Application, source: str, probe_inputs: Sequence[bytes]
    ) -> list[tuple[bytes, ErrorKind]]:
        """Probe inputs that still crash ``source``, with their kinds.

        The just-repaired error input is among the probes by construction and
        drops out here (it no longer crashes), so the surviving list is exactly
        the recipient's *remaining* defects in declaration order.
        """
        failures: list[tuple[bytes, ErrorKind]] = []
        if not probe_inputs:
            return failures
        program = compile_program(source, name=recipient.full_name)
        vm = VM(program, config=VMConfig(track_symbolic=False))
        for data in probe_inputs:
            result = vm.run(data)
            if result.error is not None:
                failures.append((data, result.error.kind))
        return failures

    # -- one round: discovery, then the candidate loop ---------------------------------

    def _run_round(self, rnd: _Round, metrics: TransferMetrics) -> Optional[TransferredCheck]:
        """Discover candidate checks, then accept the first one whose patch validates."""
        # §3.2: branches that flip between the donor's seed and error runs.
        with self._stage("check-discovery", rnd.index, rnd.donor.full_name):
            discovery = discover_candidate_checks(
                rnd.donor.program(),
                rnd.format_spec,
                rnd.seed,
                rnd.error,
                relevant=relevant_fields(rnd.format_spec, rnd.seed, rnd.error),
                simplify_options=self.options.simplify_options,
            )
            metrics.relevant_branches = max(
                metrics.relevant_branches, discovery.relevant_branches
            )
            metrics.flipped_branches.append(discovery.flipped_branches)

        for candidate in discovery.candidates[: self.options.max_candidate_checks]:
            transferred = self._attempt_candidate(rnd, candidate, discovery.error_run)
            if transferred is not None:
                return transferred
            self.events.emit(
                CandidateRejected(
                    kind="check",
                    function=candidate.function,
                    line=candidate.line,
                    reason="no patch for this check validated",
                )
            )
        return None

    def _attempt_candidate(
        self, rnd: _Round, candidate, error_run: RunResult
    ) -> Optional[TransferredCheck]:
        """Excision, insertion, rewrite, patch generation and validation of one check."""
        options = self.options
        detail = f"{candidate.function}:{candidate.line}"

        # §3.2: excise the check into the symbolic IR from the donor's run on
        # the error input (discovery made it with the same options).
        with self._stage("excision", rnd.index, detail):
            excised = excise_check(
                candidate, donor_name=rnd.donor.full_name, error_run=error_run
            )

        # §3.3: candidate insertion points, with the unstable-point filter.
        with self._stage("insertion", rnd.index, detail):
            report = find_insertion_points(
                rnd.program, rnd.seed, rnd.format_spec.field_map(rnd.seed), excised.fields
            )
            points = report.stable_points
            if not options.filter_unstable_points:
                # Without the filter every candidate point is considered (used
                # by the unstable-point ablation benchmark).
                points = points + report.unstable_points

        # §3.3 / Figure 7: translate the check into the recipient's vocabulary.
        with self._stage("rewrite", rnd.index, detail):
            translations = []
            for point in points:
                result = Rewriter(point.names, checker=self.checker).rewrite(excised.guard)
                if result is None:
                    self.events.emit(
                        CandidateRejected(
                            kind="insertion-point",
                            function=point.function,
                            line=point.line,
                            reason="check not translatable into the names reachable here",
                        )
                    )
                    continue
                translations.append((point, result))

        with self._stage("patch-generation", rnd.index, detail):
            patches = [
                build_patch(
                    guard=result.expression,
                    excised_condition=excised.condition,
                    insertion_point=point,
                    strategy=options.patch_strategy,
                )
                for point, result in translations
            ]
            accounting = InsertionAccounting(
                candidate_points=report.candidate_count,
                unstable_points=report.unstable_count,
                untranslatable_points=len(points) - len(translations),
                usable_points=len(patches),
            )
            # "CP then sorts the remaining generated patches by size and
            # attempts to validate the patches in that order."
            patches.sort(key=lambda patch: patch.translated_size)

        # §3.4: accept the first patch in size order that validates.
        with self._stage("validation", rnd.index, detail):
            transferred = self._first_validated(rnd, excised, accounting, patches)
        return transferred

    def _first_validated(
        self,
        rnd: _Round,
        excised: ExcisedCheck,
        accounting: InsertionAccounting,
        patches: Sequence[GeneratedPatch],
    ) -> Optional[TransferredCheck]:
        """Validate ``patches`` in order; the first that validates is the result."""
        overflow_expr = None
        if (
            patches
            and self.options.validation.symbolic_overflow_check
            and rnd.target.error_kind is ErrorKind.INTEGER_OVERFLOW
        ):
            overflow_expr = _allocation_expression(rnd, self.options)

        baseline = RegressionBaseline(rnd.program, rnd.regression)
        for patch in patches:
            point = patch.insertion_point
            try:
                patched = apply_patch(rnd.source, patch.source_patch(), rnd.program.name)
            except PatchError as exc:
                self.events.emit(
                    CandidateRejected(
                        kind="patch",
                        function=point.function,
                        line=point.line,
                        reason=f"patch does not apply: {exc}",
                    )
                )
                continue
            validation = validate_patch(
                rnd.program,
                patched,
                rnd.format_spec,
                rnd.seed,
                rnd.error,
                regression_corpus=rnd.regression,
                target_function=rnd.target.site_function,
                options=self.options.validation,
                donor_guard=excised.guard,
                overflow_size_expr=overflow_expr,
                checker=self.checker,
                baseline=baseline,
            )
            if validation.ok:
                self.events.emit(
                    PatchValidated(
                        donor=excised.donor,
                        function=point.function,
                        line=point.line,
                        excised_size=patch.excised_size,
                        translated_size=patch.translated_size,
                        round_index=rnd.index,
                    )
                )
                return TransferredCheck(
                    donor=excised.donor,
                    patch=patch,
                    excised=excised,
                    accounting=accounting,
                    validation=validation,
                    patched_source=patched.source,
                )
            self.events.emit(
                CandidateRejected(
                    kind="patch",
                    function=point.function,
                    line=point.line,
                    reason=validation.failure_reason,
                )
            )
        return None


def _allocation_expression(rnd: _Round, options: CodePhageOptions):
    """The symbolic allocation-size expression at the target site (seed run)."""
    result = run_instrumented(rnd.program, rnd.format_spec, rnd.seed, options.simplify_options)
    for record in result.allocations:
        if record.function == rnd.target.site_function and record.symbolic is not None:
            return record.symbolic
    return None
