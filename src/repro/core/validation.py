"""Patch validation (§3.4).

A candidate patch must pass four checks before CP accepts it:

1. the patched recipient recompiles;
2. the error-triggering input no longer triggers the error (rejecting it with
   the inserted ``exit(-1)`` is the intended behaviour);
3. a regression suite of benign inputs produces exactly the same observable
   behaviour (emitted values and exit status) as the unpatched recipient;
4. re-running the DIODE error-discovery tool on the patched recipient finds no
   new error-triggering inputs (for integer-overflow errors).

As an additional, overflow-specific step (§1.1), the validator can ask the
SMT layer whether *any* input that passes the transferred check can still
overflow the targeted allocation-size expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..discovery.diode import Diode, DiodeOptions, OverflowFinding
from ..formats.fields import FormatSpec
from ..lang.checker import Program
from ..lang.patcher import PatchedProgram
from ..lang.trace import ErrorKind, RunStatus
from ..lang.vm import VM, VMConfig
from ..solver.equivalence import EquivalenceChecker
from ..solver.overflow import check_blocks_overflow
from ..symbolic.expr import Expr


@dataclass
class ValidationOutcome:
    """Result of validating one candidate patch."""

    ok: bool
    error_eliminated: bool = False
    regression_passed: bool = False
    residual_findings: list[OverflowFinding] = field(default_factory=list)
    #: None unless the symbolic overflow check ran; then True only for a
    #: *proved* elimination (False when a witness exists or none was proved).
    overflow_proof: Optional[bool] = None
    failure_reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


@dataclass
class ValidationOptions:
    """What the validator checks and how hard it looks for residual errors."""

    run_regression: bool = True
    diode_rescan: bool = True
    #: "function" restricts the rescan to allocation sites in the function
    #: containing the patched error (the per-row Figure 8 experiments);
    #: "program" rescans every reachable site (the continuous-improvement and
    #: residual-error experiments); "none" disables the rescan.
    diode_scope: str = "function"
    symbolic_overflow_check: bool = False
    diode_options: Optional[DiodeOptions] = None


def _replay(program: Program, data: bytes):
    """An untracked run (no field map: no byte gets a symbolic label)."""
    return VM(program, config=VMConfig(track_symbolic=False)).run(data)


class RegressionBaseline:
    """The unpatched recipient's behaviour on the regression corpus.

    Every candidate patch of one transfer is compared against the same
    unpatched behaviour, so each input is replayed at most once, and only
    when some candidate's comparison reaches it.
    """

    def __init__(self, original: Program, corpus: Sequence[bytes]) -> None:
        self.original = original
        self.corpus = tuple(corpus)
        self._behaviours: dict[int, tuple] = {}

    def behaviour(self, index: int) -> tuple:
        behaviour = self._behaviours.get(index)
        if behaviour is None:
            behaviour = _replay(self.original, self.corpus[index]).behaviour()
            self._behaviours[index] = behaviour
        return behaviour


def validate_patch(
    original: Program,
    patched: PatchedProgram,
    format_spec: FormatSpec,
    seed: bytes,
    error_input: bytes,
    regression_corpus: Sequence[bytes] = (),
    target_function: Optional[str] = None,
    options: Optional[ValidationOptions] = None,
    donor_guard: Optional[Expr] = None,
    overflow_size_expr: Optional[Expr] = None,
    checker: Optional[EquivalenceChecker] = None,
    baseline: Optional[RegressionBaseline] = None,
) -> ValidationOutcome:
    """Validate a recompiled candidate patch.

    ``baseline`` shares the unpatched recipient's regression behaviour
    across the candidates of one transfer; it must be built from
    ``original`` and ``regression_corpus``.
    """
    options = options or ValidationOptions()
    outcome = ValidationOutcome(ok=False)

    # Step 2: the error-triggering input must no longer trigger the error.
    error_result = _replay(patched.program, error_input)
    if error_result.status is RunStatus.ERROR:
        outcome.failure_reason = (
            f"error still triggered: {error_result.error.kind.value} in "
            f"{error_result.error.function}"
        )
        return outcome
    outcome.error_eliminated = True

    # The seed input must still be processed (the patch must not reject it).
    seed_result = _replay(patched.program, seed)
    if not seed_result.accepted:
        outcome.failure_reason = "patched application rejects the seed input"
        return outcome

    # Step 3: regression suite behaviour must be preserved.
    if options.run_regression:
        if baseline is None:
            baseline = RegressionBaseline(original, regression_corpus)
        for index, data in enumerate(regression_corpus):
            if baseline.behaviour(index) != _replay(patched.program, data).behaviour():
                outcome.failure_reason = f"regression input {index} behaviour changed"
                return outcome
    outcome.regression_passed = True

    # Step 4: DIODE rescan for residual errors.  The rescan shares the
    # session's solver checker: its overflow-witness queries are identical
    # across candidate patches (the patch never changes the allocation-size
    # expression), so every rescan after the first answers them from the
    # session's query batch instead of re-running the decision ladder.
    if options.diode_rescan and options.diode_scope != "none":
        scope_function = target_function if options.diode_scope == "function" else None
        diode = Diode(
            patched.program,
            format_spec,
            options=options.diode_options or DiodeOptions(),
            checker=checker,
        )
        outcome.residual_findings = diode.discover(seed, site_function=scope_function)

    # Optional overflow-specific symbolic validation (§1.1).
    if options.symbolic_overflow_check and donor_guard is not None and overflow_size_expr is not None:
        verdict = check_blocks_overflow(
            checker or EquivalenceChecker(), donor_guard, overflow_size_expr
        )
        outcome.overflow_proof = verdict.eliminated and verdict.proved

    outcome.ok = True
    return outcome
