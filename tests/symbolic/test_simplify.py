"""Unit tests for the simplifier, including the literal Figure 5 rules."""

import dataclasses

from repro.symbolic import (
    Constant,
    InputField,
    SimplifyOptions,
    builder,
    operation_count,
    simplify,
)
from repro.symbolic.simplify import simplify_cache_stats
from figure5_rules import apply_figure5_rule


W = builder.input_field("/sof/width", 16)
H = builder.input_field("/sof/height", 16)


class TestByteDisentanglement:
    def test_big_endian_assembly_collapses_to_field(self):
        hi = builder.extract(W, 15, 8)
        lo = builder.extract(W, 7, 0)
        assembled = builder.bvor(builder.shl(builder.zext(hi, 16), 8), builder.zext(lo, 16))
        assert simplify(assembled) == W

    def test_little_endian_assembly_collapses_to_field(self):
        hi = builder.extract(W, 15, 8)
        lo = builder.extract(W, 7, 0)
        assembled = builder.bvor(builder.zext(lo, 16), builder.shl(builder.zext(hi, 16), 8))
        assert simplify(assembled) == W

    def test_four_byte_big_endian_assembly(self):
        field = builder.input_field("/ihdr/width", 32)
        parts = [builder.extract(field, 31 - 8 * i, 24 - 8 * i) for i in range(4)]
        assembled = builder.const(0, 32)
        for index, part in enumerate(parts):
            assembled = builder.bvor(
                assembled, builder.shl(builder.zext(part, 32), 8 * (3 - index))
            )
        assert simplify(assembled) == field

    def test_mask_then_extract_collapses_to_byte(self):
        masked_byte = builder.extract(builder.bvand(W, 0xFF), 7, 0)
        assert simplify(masked_byte) == builder.extract(W, 7, 0)

    def test_mask_alone_is_not_made_larger(self):
        masked = builder.bvand(W, 0xFF)
        # Already minimal (1 operation); the simplifier must not expand it
        # into a larger extract/extend form.
        assert simplify(masked).op_count() <= masked.op_count()

    def test_zext_of_assembled_field(self):
        hi = builder.extract(W, 15, 8)
        lo = builder.extract(W, 7, 0)
        assembled = builder.bvor(builder.shl(builder.zext(hi, 32), 8), builder.zext(lo, 32))
        assert simplify(assembled) == builder.zext(W, 32)


class TestConstantFolding:
    def test_folds_constant_subtrees(self):
        expr = builder.mul(builder.const(6, 32), builder.const(7, 32))
        assert simplify(expr) == builder.const(42, 32)

    def test_identity_elements(self):
        assert simplify(builder.add(W, 0)) == W
        assert simplify(builder.mul(W, 1)) == W
        assert simplify(builder.bvor(W, 0)) == W
        assert simplify(builder.bvand(W, 0xFFFF)) == W
        assert simplify(builder.shl(W, 0)) == W

    def test_absorbing_elements(self):
        assert simplify(builder.mul(W, 0)) == builder.const(0, 16)
        assert simplify(builder.bvand(W, 0)) == builder.const(0, 16)

    def test_tautological_comparison(self):
        assert simplify(builder.ule(W, 0xFFFF)) == builder.true()
        assert simplify(builder.uge(W, 0)) == builder.true()

    def test_double_logical_not(self):
        cond = builder.ult(W, H)
        assert simplify(builder.logical_not(builder.logical_not(cond))) == simplify(cond)

    def test_not_of_comparison_negates(self):
        assert simplify(builder.logical_not(builder.ule(W, H))) == builder.ugt(W, H)

    def test_bool_int_roundtrip_unwrapped(self):
        cond = builder.ult(W, H)
        wrapped = builder.ne(builder.zext(cond, 32), builder.const(0, 32))
        assert simplify(wrapped) == cond


class TestOptions:
    def test_disabled_simplifier_is_identity(self):
        hi = builder.extract(W, 15, 8)
        assembled = builder.bvor(builder.shl(builder.zext(hi, 16), 8), builder.zext(builder.extract(W, 7, 0), 16))
        options = SimplifyOptions.none()
        assert simplify(assembled, options) == assembled

    def test_bit_slicing_ablation_keeps_larger_expression(self):
        hi = builder.extract(W, 15, 8)
        lo = builder.extract(W, 7, 0)
        assembled = builder.bvor(builder.shl(builder.zext(hi, 16), 8), builder.zext(lo, 16))
        without = simplify(assembled, SimplifyOptions.without_bit_slicing())
        with_rules = simplify(assembled)
        assert operation_count(with_rules) < operation_count(without)

    def test_equal_options_objects_share_memo_entries(self):
        assembled = builder.bvor(builder.shl(builder.zext(H, 32), 16), builder.zext(W, 32))
        first = simplify(assembled, SimplifyOptions(max_slice_width=64))
        before = simplify_cache_stats()
        assert simplify(assembled, SimplifyOptions(max_slice_width=64)) is first
        after = simplify_cache_stats()
        assert after["visits"] == before["visits"]
        assert after["hits"] == before["hits"] + 1

    def test_the_memo_key_names_every_option(self):
        options = SimplifyOptions.none()
        assert options.memo_key == tuple(
            getattr(options, field.name) for field in dataclasses.fields(options)
        )


class TestFigure5Rules:
    """The four rules exactly as stated in the paper's Figure 5."""

    def _pair(self):
        b1 = builder.input_field("/b1", 8)
        b2 = builder.input_field("/b2", 8)
        return b1, b2, builder.concat(b1, b2)

    def test_shrink_high_of_shl(self):
        b1, b2, pair = self._pair()
        expr = builder.extract_high(builder.shl(pair, 8), 8)
        assert apply_figure5_rule(expr) == b2

    def test_shrink_low_of_shr(self):
        b1, b2, pair = self._pair()
        expr = builder.extract_low(builder.lshr(pair, 8), 8)
        assert apply_figure5_rule(expr) == b1

    def test_bvor_high_of_shr(self):
        b1 = builder.input_field("/b1", 8)
        b2 = builder.input_field("/b2", 8)
        b3 = builder.input_field("/b3", 8)
        pair = builder.concat(b2, b3)
        expr = builder.bvor(
            builder.shl(builder.zext(b1, 16), 8), builder.lshr(pair, 8)
        )
        assert apply_figure5_rule(expr) == builder.concat(b1, b2)

    def test_bvor_low_of_shl(self):
        b1 = builder.input_field("/b1", 8)
        b2 = builder.input_field("/b2", 8)
        b3 = builder.input_field("/b3", 8)
        pair = builder.concat(b2, b3)
        expr = builder.bvor(builder.zext(b1, 16), builder.shl(pair, 8))
        assert apply_figure5_rule(expr) == builder.concat(b3, b1)

    def test_no_rule_for_unified_operands(self):
        # The paper notes the rules require the operand to be a concatenation
        # of independent bytes, not e.g. the result of an addition.
        unified = builder.add(builder.input_field("/v", 16), 1)
        expr = builder.extract_high(builder.shl(unified, 8), 8)
        assert apply_figure5_rule(expr) is None
