"""The four bit-manipulation rules of the paper's Figure 5, exactly as stated.

The product's :func:`repro.symbolic.simplify` subsumes them with a general
bit-slice normalisation; these literal forms exist so ``test_simplify.py``
can check the reproduction one-to-one against the figure.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.symbolic import builder
from repro.symbolic.expr import Binary, Concat, Constant, Expr, Extend, Extract, Kind

# The rules are stated for 16-bit values E that are the concatenation of two
# independent 8-bit bytes [b1, b2] (b1 = high byte):
#
#   ShrinkH(8, Shl(8, E))   =>  b2
#   ShrinkL(8, Shr(8, E))   =>  b1
#   BvOrH(b1, Shr(8, E'))   =>  [b1, b2]   where E' = [b2, b3]
#   BvOrL(b1, Shl(8, E'))   =>  [b3, b1]   where E' = [b2, b3]


def _as_byte_pair(expr: Expr) -> Optional[tuple[Expr, Expr]]:
    """Match ``expr`` against the shape [b1, b2]: a 16-bit concat of two bytes."""
    if isinstance(expr, Concat) and expr.width == 16 and len(expr.parts) == 2:
        high, low = expr.parts
        if high.width == 8 and low.width == 8:
            return high, low
    return None


def rule_shrink_high_of_shl(expr: Expr) -> Optional[Expr]:
    """ShrinkH(8, Shl(8, [b1, b2])) => b2."""
    if not (isinstance(expr, Extract) and expr.width == 8):
        return None
    inner = expr.operand
    if not (isinstance(inner, Binary) and inner.op is Kind.SHL and inner.width == 16):
        return None
    if not (isinstance(inner.right, Constant) and inner.right.value == 8):
        return None
    if expr.lo != 8 or expr.hi != 15:
        return None
    pair = _as_byte_pair(inner.left)
    if pair is None:
        return None
    return pair[1]


def rule_shrink_low_of_shr(expr: Expr) -> Optional[Expr]:
    """ShrinkL(8, Shr(8, [b1, b2])) => b1."""
    if not (isinstance(expr, Extract) and expr.width == 8 and expr.lo == 0 and expr.hi == 7):
        return None
    inner = expr.operand
    if not (isinstance(inner, Binary) and inner.op is Kind.LSHR and inner.width == 16):
        return None
    if not (isinstance(inner.right, Constant) and inner.right.value == 8):
        return None
    pair = _as_byte_pair(inner.left)
    if pair is None:
        return None
    return pair[0]


def rule_bvor_high_of_shr(expr: Expr) -> Optional[Expr]:
    """BvOrH(b1, Shr(8, [b2, b3])) => [b1, b2]."""
    if not (isinstance(expr, Binary) and expr.op is Kind.OR and expr.width == 16):
        return None
    for new_byte, shifted in ((expr.left, expr.right), (expr.right, expr.left)):
        if not (
            isinstance(new_byte, Binary)
            and new_byte.op is Kind.SHL
            and isinstance(new_byte.right, Constant)
            and new_byte.right.value == 8
            and isinstance(new_byte.left, Extend)
            and not new_byte.left.signed
            and new_byte.left.operand.width == 8
        ):
            continue
        if not (
            isinstance(shifted, Binary)
            and shifted.op is Kind.LSHR
            and isinstance(shifted.right, Constant)
            and shifted.right.value == 8
        ):
            continue
        pair = _as_byte_pair(shifted.left)
        if pair is None:
            continue
        return builder.concat(new_byte.left.operand, pair[0])
    return None


def rule_bvor_low_of_shl(expr: Expr) -> Optional[Expr]:
    """BvOrL(b1, Shl(8, [b2, b3])) => [b3, b1]."""
    if not (isinstance(expr, Binary) and expr.op is Kind.OR and expr.width == 16):
        return None
    for new_byte, shifted in ((expr.left, expr.right), (expr.right, expr.left)):
        if not (isinstance(new_byte, Extend) and not new_byte.signed and new_byte.operand.width == 8):
            continue
        if not (
            isinstance(shifted, Binary)
            and shifted.op is Kind.SHL
            and isinstance(shifted.right, Constant)
            and shifted.right.value == 8
        ):
            continue
        pair = _as_byte_pair(shifted.left)
        if pair is None:
            continue
        return builder.concat(pair[1], new_byte.operand)
    return None


FIGURE5_RULES: tuple[Callable[[Expr], Optional[Expr]], ...] = (
    rule_shrink_high_of_shl,
    rule_shrink_low_of_shr,
    rule_bvor_high_of_shr,
    rule_bvor_low_of_shl,
)


def apply_figure5_rule(expr: Expr) -> Optional[Expr]:
    """Apply the first matching Figure 5 rule to ``expr``, or return None."""
    for rule in FIGURE5_RULES:
        result = rule(expr)
        if result is not None:
            return result
    return None
