"""Tests for the integer-overflow-specific validation queries."""

from repro.solver import (
    EquivalenceChecker,
    EquivalenceOptions,
    check_blocks_overflow,
    overflow_condition,
    overflow_witness,
    widen,
)
from repro.solver.bitblast import estimate_blast_cost
from repro.symbolic import builder, evaluate


W = builder.input_field("/w", 16)
H = builder.input_field("/h", 16)
#: 32-bit allocation size: width * height * 3 (the CWebP/Dillo shape).
SIZE = builder.mul(builder.mul(builder.zext(W, 32), builder.zext(H, 32)), builder.const(3, 32))


class TestWiden:
    def test_widen_reveals_wraparound(self):
        env = {"/w": 65535, "/h": 65535}
        wrapped = evaluate(SIZE, env)
        widened = evaluate(widen(SIZE, 64), env)
        assert widened == 65535 * 65535 * 3
        assert wrapped == (65535 * 65535 * 3) & 0xFFFFFFFF
        assert widened != wrapped

    def test_widen_is_identity_for_small_values(self):
        env = {"/w": 10, "/h": 20}
        assert evaluate(widen(SIZE, 64), env) == evaluate(SIZE, env) == 600

    def test_widen_of_leaf(self):
        assert widen(W, 32).width == 32


class TestOverflowCondition:
    def test_condition_true_exactly_on_overflow(self):
        condition = overflow_condition(SIZE)
        assert evaluate(condition, {"/w": 65535, "/h": 65535}) == 1
        assert evaluate(condition, {"/w": 100, "/h": 100}) == 0

    def test_witness_found(self):
        checker = EquivalenceChecker()
        witness = overflow_witness(checker, SIZE)
        assert witness is not None
        assert evaluate(overflow_condition(SIZE), witness) == 1


class TestCheckBlocksOverflow:
    def test_feh_style_check_eliminates_overflow(self):
        checker = EquivalenceChecker()
        guard = builder.logical_not(
            builder.ule(builder.mul(builder.zext(W, 64), builder.zext(H, 64)), (1 << 29) - 1)
        )
        verdict = check_blocks_overflow(checker, guard, SIZE)
        assert verdict.eliminated
        assert verdict.proved

    def test_too_weak_check_does_not_eliminate(self):
        checker = EquivalenceChecker()
        # Barely constrains the width: large width/height pairs still overflow.
        guard = builder.ugt(builder.zext(W, 32), builder.const(65000, 32))
        verdict = check_blocks_overflow(checker, guard, SIZE)
        assert not verdict.eliminated
        assert verdict.witness is not None

    def test_path_constraints_can_rule_out_overflow(self):
        checker = EquivalenceChecker()
        guard = builder.false()  # a patch that never fires
        constraint = builder.logical_and(
            builder.ule(builder.zext(W, 32), 16), builder.ule(builder.zext(H, 32), 16)
        )
        verdict = check_blocks_overflow(checker, guard, SIZE, path_constraints=[constraint])
        assert verdict.eliminated


class TestOverflowProofLabel:
    """An elimination the checker could only sample for is not labelled proved."""

    W32, H32, D32 = (builder.input_field(path, 32) for path in ("/w", "/h", "/d"))
    #: 64-bit width * height * depth: 96 free bits and a 128-bit widened
    #: product, too wide for enumeration and for the SAT truth budget.
    WIDE_SIZE = builder.mul(
        builder.mul(builder.zext(W32, 64), builder.zext(H32, 64)), builder.zext(D32, 64)
    )
    #: Caps every factor at 16 bits, so the product never overflows 64 bits.
    GUARD = builder.logical_or(
        builder.ugt(W32, 0xFFFF), builder.ugt(H32, 0xFFFF), builder.ugt(D32, 0xFFFF)
    )

    def test_condition_is_too_wide_for_sat_and_enumeration(self):
        options = EquivalenceOptions()
        assert estimate_blast_cost(overflow_condition(self.WIDE_SIZE)) > (
            options.sat_truth_cost_budget
        )
        assert 3 * 32 > options.exhaustive_bit_limit

    def test_sampled_elimination_is_unproven(self):
        checker = EquivalenceChecker()
        verdict = check_blocks_overflow(checker, self.GUARD, self.WIDE_SIZE)
        assert verdict.eliminated
        assert not verdict.proved
        assert checker.statistics.sampling_fallbacks == 1
        # Not cached either: a later ask reruns the ladder.
        again = check_blocks_overflow(checker, self.GUARD, self.WIDE_SIZE)
        assert (again.eliminated, again.proved) == (True, False)
        assert checker.statistics.sampling_fallbacks == 2

    def test_validation_reports_proof_only_for_a_proved_elimination(self):
        from repro.api import RepairRequest, RepairSession
        from repro.apps import get_application
        from repro.core import ValidationOptions
        from repro.core.pipeline import CodePhageOptions
        from repro.experiments import ERROR_CASES

        def overflow_proofs(equivalence: EquivalenceOptions) -> list:
            options = CodePhageOptions(
                validation=ValidationOptions(symbolic_overflow_check=True),
                equivalence_options=equivalence,
            )
            report = RepairSession(options=options).run(
                RepairRequest.for_case(
                    ERROR_CASES["cwebp-jpegdec"], donor=get_application("feh")
                )
            )
            assert report.success
            return [check.validation.overflow_proof for check in report.outcome.checks]

        assert overflow_proofs(EquivalenceOptions()) == [True]
        # No SAT budget and no enumeration: the same elimination is unproven.
        starved = EquivalenceOptions(sat_truth_cost_budget=0, exhaustive_bit_limit=0)
        assert overflow_proofs(starved) == [False]
