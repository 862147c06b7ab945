"""Simplification of excised symbolic expressions.

Section 3.2 of the paper describes *bit manipulation optimizations* applied as
symbolic expressions are recorded: rewrite rules that simplify the shift/mask
patterns binaries use to extract, align, or combine operands (Figure 5).  The
rules matter because they "disentangle bytes from adjacent input fields that
were read into the same word" and dramatically shrink the excised expressions.

This module provides:

* :class:`SimplifyOptions` — feature switches (used by the rewrite-rule
  ablation benchmark to reproduce the paper's "rules on/off" claim),
* :func:`simplify` — the main entry point, a post-order pass combining
  constant folding, algebraic identities, and a general *bit-slice
  normalisation* that subsumes the four Figure 5 rules.  The rules as the
  figure states them live in ``tests/symbolic/figure5_rules.py``, where
  ``test_simplify.py`` checks them one-to-one against the figure.

Soundness contract: for every expression ``e`` and environment ``env``,
``evaluate(simplify(e), env) == evaluate(e, env)``.  This is enforced by
property-based tests in ``tests/symbolic/test_simplify_properties.py``.

Memoisation
-----------

Expressions are hash-consed (:mod:`repro.symbolic.expr`), so a node can be
used as an O(1) identity dictionary key.  :func:`simplify` exploits that with
a process-wide memo table keyed by options and node: a subtree shared by
many parents — or appearing in many queries, which is the common case when
the rewrite stage compares one excised check against dozens of recipient
names — is simplified exactly once per process.  The memo makes the pass a
DAG traversal; the un-memoised tree-walking algorithm is preserved as
:func:`simplify_reference` and property tests assert both always return the
same canonical node.  :func:`simplify_cache_stats` exposes hit/visit
counters for the interning benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import builder
from .evaluate import to_signed, to_unsigned
from .expr import (
    Binary,
    Concat,
    Constant,
    Expr,
    Extend,
    Extract,
    InputField,
    Ite,
    Kind,
    NEGATED_COMPARISON,
    Unary,
    register_clear_callback,
)


@dataclass(frozen=True)
class SimplifyOptions:
    """Feature switches for the simplifier.

    ``bit_slicing`` corresponds to the paper's Figure 5 family of rules (and
    their generalisations to other operand sizes); ``constant_folding`` and
    ``algebraic_identities`` are the unconditional clean-ups any symbolic
    tracker performs.  The ablation benchmark disables ``bit_slicing`` to
    measure its effect on excised-check size.
    """

    constant_folding: bool = True
    algebraic_identities: bool = True
    bit_slicing: bool = True
    max_slice_width: int = 128

    @cached_property
    def memo_key(self) -> tuple:
        """The simplify memo's key, computed once per object: equal options
        built anywhere (every job builds its own) share memo entries without
        the generated ``__hash__``/``__eq__`` running on each lookup."""
        return (
            self.constant_folding,
            self.algebraic_identities,
            self.bit_slicing,
            self.max_slice_width,
        )

    @classmethod
    def none(cls) -> "SimplifyOptions":
        return cls(constant_folding=False, algebraic_identities=False, bit_slicing=False)

    @classmethod
    def without_bit_slicing(cls) -> "SimplifyOptions":
        return cls(bit_slicing=False)


DEFAULT_OPTIONS = SimplifyOptions()


# ---------------------------------------------------------------------------
# Bit-slice analysis
# ---------------------------------------------------------------------------
#
# A *slice vector* describes each bit of an expression as either a constant
# (0/1) or bit ``index`` of an *atom* expression.  Expressions built from
# concatenation, extraction, constant shifts, zero extension, and disjoint
# or/and/xor with constants have exact slice vectors; any other expression is
# its own (opaque) atom.  Rebuilding a minimal expression from the slice
# vector performs, in one uniform step, all of the Figure 5 disentanglement
# rules and their generalisations to 8/16/32/64-bit combinations.

_CONST_ZERO = ("const", 0)
_CONST_ONE = ("const", 1)


def _atom_bits(expr: Expr) -> list[tuple]:
    return [("atom", expr, i) for i in range(expr.width)]


def _const_bits(value: int, width: int) -> list[tuple]:
    return [_CONST_ONE if (value >> i) & 1 else _CONST_ZERO for i in range(width)]


def _bit_slices(expr: Expr, options: SimplifyOptions) -> list[tuple]:
    """Slice vector for ``expr``, least-significant bit first."""
    if expr.width > options.max_slice_width:
        return _atom_bits(expr)

    if isinstance(expr, Constant):
        return _const_bits(expr.value, expr.width)

    if isinstance(expr, InputField):
        return _atom_bits(expr)

    if isinstance(expr, Concat):
        bits: list[tuple] = []
        for part in reversed(expr.parts):
            bits.extend(_bit_slices(part, options))
        return bits

    if isinstance(expr, Extract):
        inner = _bit_slices(expr.operand, options)
        return inner[expr.lo : expr.hi + 1]

    if isinstance(expr, Extend):
        inner = _bit_slices(expr.operand, options)
        pad = expr.width - expr.operand.width
        if expr.signed:
            top = inner[-1]
            if top in (_CONST_ZERO, _CONST_ONE):
                return inner + [top] * pad
            return _atom_bits(expr)
        return inner + [_CONST_ZERO] * pad

    if isinstance(expr, Binary):
        op = expr.op
        if op in (Kind.SHL, Kind.LSHR) and isinstance(expr.right, Constant):
            inner = _bit_slices(expr.left, options)
            shift = expr.right.value
            if shift >= expr.width:
                return _const_bits(0, expr.width)
            if op is Kind.SHL:
                return [_CONST_ZERO] * shift + inner[: expr.width - shift]
            return inner[shift:] + [_CONST_ZERO] * shift
        if op in (Kind.AND, Kind.OR, Kind.XOR):
            left = _bit_slices(expr.left, options)
            right = _bit_slices(expr.right, options)
            combined = _combine_bitwise(op, left, right)
            if combined is not None:
                return combined

    return _atom_bits(expr)


def _combine_bitwise(op: Kind, left: list[tuple], right: list[tuple]) -> Optional[list[tuple]]:
    """Bitwise combination of slice vectors; None when bits genuinely mix."""
    result: list[tuple] = []
    for l_bit, r_bit in zip(left, right):
        l_const = l_bit if l_bit in (_CONST_ZERO, _CONST_ONE) else None
        r_const = r_bit if r_bit in (_CONST_ZERO, _CONST_ONE) else None
        if op is Kind.AND:
            if l_const is _CONST_ZERO or r_const is _CONST_ZERO:
                result.append(_CONST_ZERO)
            elif l_const is _CONST_ONE:
                result.append(r_bit)
            elif r_const is _CONST_ONE:
                result.append(l_bit)
            elif l_bit == r_bit:
                result.append(l_bit)
            else:
                return None
        elif op is Kind.OR:
            if l_const is _CONST_ONE or r_const is _CONST_ONE:
                result.append(_CONST_ONE)
            elif l_const is _CONST_ZERO:
                result.append(r_bit)
            elif r_const is _CONST_ZERO:
                result.append(l_bit)
            elif l_bit == r_bit:
                result.append(l_bit)
            else:
                return None
        else:  # XOR
            if l_const is not None and r_const is not None:
                bit = (l_const is _CONST_ONE) ^ (r_const is _CONST_ONE)
                result.append(_CONST_ONE if bit else _CONST_ZERO)
            elif l_const is _CONST_ZERO:
                result.append(r_bit)
            elif r_const is _CONST_ZERO:
                result.append(l_bit)
            else:
                return None
    return result


def _rebuild_from_slices(bits: Sequence[tuple]) -> Expr:
    """Reassemble the smallest Concat/Extract expression matching ``bits``."""
    pieces: list[Expr] = []  # most significant first, built in reverse below
    index = 0
    segments: list[Expr] = []
    while index < len(bits):
        bit = bits[index]
        if bit in (_CONST_ZERO, _CONST_ONE):
            value = 0
            count = 0
            while index < len(bits) and bits[index] in (_CONST_ZERO, _CONST_ONE):
                if bits[index] is _CONST_ONE:
                    value |= 1 << count
                count += 1
                index += 1
            segments.append(builder.const(value, count))
        else:
            _, atom, start = bit
            count = 1
            while (
                index + count < len(bits)
                and bits[index + count][0] == "atom"
                and bits[index + count][1] == atom
                and bits[index + count][2] == start + count
            ):
                count += 1
            segments.append(builder.extract(atom, start + count - 1, start))
            index += count
    # segments are least-significant first; Concat wants most-significant first.
    pieces = list(reversed(segments))
    if len(pieces) == 1:
        return pieces[0]
    # Prefer a zero extension over an explicit concatenation with a leading
    # zero constant: it reads like the paper's ToSize and interacts better
    # with the boolean unwrapping rules.
    if isinstance(pieces[0], Constant) and pieces[0].value == 0:
        total_width = sum(piece.width for piece in pieces)
        low = pieces[1] if len(pieces) == 2 else builder.concat(*pieces[1:])
        return builder.zext(low, total_width)
    return builder.concat(*pieces)


def _slice_normalise(expr: Expr, options: SimplifyOptions) -> Expr:
    bits = _bit_slices(expr, options)
    rebuilt = _rebuild_from_slices(bits)
    if rebuilt.width != expr.width:
        rebuilt = builder.zext(rebuilt, expr.width)
    # Prefer the rebuilt form only if it is no larger than the original.
    if rebuilt.op_count() <= expr.op_count():
        return rebuilt
    return expr


# ---------------------------------------------------------------------------
# Constant folding and algebraic identities
# ---------------------------------------------------------------------------


def _fold_constants(expr: Expr) -> Expr:
    """Fold nodes whose operands are all constants."""
    from .evaluate import evaluate

    if isinstance(expr, (Constant, InputField)):
        return expr
    if all(isinstance(child, Constant) for child in expr.children()):
        try:
            return builder.const(evaluate(expr, {}), expr.width)
        except Exception:  # pragma: no cover - defensive; evaluation is total here
            return expr
    return expr


def _algebraic(expr: Expr) -> Expr:
    """Local algebraic identities (identity/absorbing elements, double ops)."""
    if isinstance(expr, Unary):
        if expr.op is Kind.LOGICAL_NOT:
            inner = expr.operand
            if isinstance(inner, Unary) and inner.op is Kind.LOGICAL_NOT:
                return inner.operand
            if isinstance(inner, Binary) and inner.op in NEGATED_COMPARISON:
                return Binary(
                    width=1,
                    op=NEGATED_COMPARISON[inner.op],
                    left=inner.left,
                    right=inner.right,
                )
            if isinstance(inner, Constant):
                return builder.const(0 if inner.value else 1, 1)
        if expr.op is Kind.NEG and isinstance(expr.operand, Unary) and expr.operand.op is Kind.NEG:
            return expr.operand.operand
        if expr.op is Kind.NOT and isinstance(expr.operand, Unary) and expr.operand.op is Kind.NOT:
            return expr.operand.operand
        return expr

    if isinstance(expr, Extend):
        inner = expr.operand
        if isinstance(inner, Extend) and inner.signed == expr.signed:
            return Extend(width=expr.width, operand=inner.operand, signed=expr.signed)
        if not expr.signed and isinstance(inner, Extend) and not inner.signed:
            return Extend(width=expr.width, operand=inner.operand, signed=False)
        return expr

    if isinstance(expr, Extract):
        inner = expr.operand
        if isinstance(inner, Extract):
            return builder.extract(inner.operand, inner.lo + expr.hi, inner.lo + expr.lo)
        if isinstance(inner, Extend) and not inner.signed and expr.hi < inner.operand.width:
            return builder.extract(inner.operand, expr.hi, expr.lo)
        if isinstance(inner, Extend) and not inner.signed and expr.lo >= inner.operand.width:
            return builder.const(0, expr.width)
        return expr

    if not isinstance(expr, Binary):
        return expr

    op, left, right = expr.op, expr.left, expr.right
    zero = Constant(width=left.width, value=0) if left.width else None
    all_ones = (1 << left.width) - 1

    if op is Kind.ADD:
        if isinstance(right, Constant) and right.value == 0:
            return left
        if isinstance(left, Constant) and left.value == 0:
            return right
    elif op is Kind.SUB:
        if isinstance(right, Constant) and right.value == 0:
            return left
        if left == right:
            return zero
    elif op is Kind.MUL:
        if isinstance(right, Constant):
            if right.value == 1:
                return left
            if right.value == 0:
                return zero
        if isinstance(left, Constant):
            if left.value == 1:
                return right
            if left.value == 0:
                return zero
    elif op in (Kind.UDIV, Kind.SDIV):
        if isinstance(right, Constant) and right.value == 1:
            return left
    elif op is Kind.AND:
        if isinstance(right, Constant):
            if right.value == 0:
                return zero
            if right.value == all_ones:
                return left
        if isinstance(left, Constant):
            if left.value == 0:
                return zero
            if left.value == all_ones:
                return right
        if left == right:
            return left
    elif op is Kind.OR:
        if isinstance(right, Constant):
            if right.value == 0:
                return left
            if right.value == all_ones:
                return right
        if isinstance(left, Constant):
            if left.value == 0:
                return right
            if left.value == all_ones:
                return left
        if left == right:
            return left
    elif op is Kind.XOR:
        if isinstance(right, Constant) and right.value == 0:
            return left
        if isinstance(left, Constant) and left.value == 0:
            return right
        if left == right:
            return zero
    elif op in (Kind.SHL, Kind.LSHR, Kind.ASHR):
        if isinstance(right, Constant) and right.value == 0:
            return left
        if isinstance(left, Constant) and left.value == 0 and op is not Kind.ASHR:
            return zero
    elif op is Kind.BOOL_AND:
        if isinstance(right, Constant):
            return left if right.value else builder.false()
        if isinstance(left, Constant):
            return right if left.value else builder.false()
        if left == right:
            return left
    elif op is Kind.BOOL_OR:
        if isinstance(right, Constant):
            return builder.true() if right.value else left
        if isinstance(left, Constant):
            return builder.true() if left.value else right
        if left == right:
            return left
    elif op.is_comparison:
        folded = _fold_comparison_with_range(expr)
        if folded is not None:
            return folded

    return expr


def _fold_comparison_with_range(expr: Binary) -> Optional[Expr]:
    """Fold comparisons that are tautological at the operand width."""
    left, right, op = expr.left, expr.right, expr.op
    width = left.width
    max_unsigned = (1 << width) - 1
    # (zext(b) != 0) == b and (zext(b) == 0) == !b for width-1 b: these arise
    # from C code that stores a comparison result in an int and branches on it.
    if isinstance(right, Constant) and right.value == 0 and op in (Kind.NE, Kind.EQ):
        if isinstance(left, Extend) and not left.signed and left.operand.width == 1:
            inner = left.operand
            return inner if op is Kind.NE else builder.logical_not(inner)
    if isinstance(right, Constant):
        if op is Kind.ULE and right.value == max_unsigned:
            return builder.true()
        if op is Kind.UGT and right.value == max_unsigned:
            return builder.false()
        if op is Kind.UGE and right.value == 0:
            return builder.true()
        if op is Kind.ULT and right.value == 0:
            return builder.false()
    if isinstance(left, Constant):
        if op is Kind.UGE and left.value == max_unsigned:
            return builder.true()
        if op is Kind.ULE and left.value == 0:
            return builder.true()
    if left == right:
        if op in (Kind.EQ, Kind.ULE, Kind.UGE, Kind.SLE, Kind.SGE):
            return builder.true()
        if op in (Kind.NE, Kind.ULT, Kind.UGT, Kind.SLT, Kind.SGT):
            return builder.false()
    return None


# ---------------------------------------------------------------------------
# Main simplification entry point
# ---------------------------------------------------------------------------


def _rebuild(expr: Expr, children: Sequence[Expr]) -> Expr:
    """Recreate ``expr`` with new children (widths are preserved by construction)."""
    if isinstance(expr, Unary):
        return Unary(width=expr.width, op=expr.op, operand=children[0])
    if isinstance(expr, Binary):
        return Binary(width=expr.width, op=expr.op, left=children[0], right=children[1])
    if isinstance(expr, Extract):
        return Extract(width=expr.width, operand=children[0], hi=expr.hi, lo=expr.lo)
    if isinstance(expr, Extend):
        return Extend(width=expr.width, operand=children[0], signed=expr.signed)
    if isinstance(expr, Concat):
        return Concat(width=expr.width, parts=tuple(children))
    if isinstance(expr, Ite):
        return Ite(width=expr.width, cond=children[0], then=children[1], otherwise=children[2])
    return expr


#: Process-wide memo: options' ``memo_key`` -> interned node -> simplified
#: interned node.  Holds strong references; flushed together with the intern
#: table.
_SIMPLIFY_MEMO: dict[tuple, dict[Expr, Expr]] = {}

#: Hit/visit counters for the interning benchmarks.  ``visits`` counts nodes
#: actually simplified (memo misses); ``hits`` counts memo short-circuits.
_STATS = {"visits": 0, "hits": 0}


def simplify_cache_stats() -> dict[str, int]:
    """Snapshot of the simplify memo counters (``visits``/``hits``)."""
    return dict(_STATS)


def reset_simplify_cache_stats() -> None:
    _STATS["visits"] = 0
    _STATS["hits"] = 0


def clear_simplify_cache() -> None:
    """Flush the memo (also triggered by ``expr.clear_intern_table``)."""
    _SIMPLIFY_MEMO.clear()


register_clear_callback(clear_simplify_cache)


def simplify(expr: Expr, options: SimplifyOptions = DEFAULT_OPTIONS) -> Expr:
    """Simplify ``expr`` while preserving its value under every environment.

    Memoised over the expression DAG: shared subtrees (within this call or
    across any earlier call in the process) are simplified once.
    """
    memo = _SIMPLIFY_MEMO.get(options.memo_key)
    if memo is None:
        memo = _SIMPLIFY_MEMO[options.memo_key] = {}
    return _simplify(expr, options, memo)


def simplify_reference(expr: Expr, options: SimplifyOptions = DEFAULT_OPTIONS) -> Expr:
    """Un-memoised reference simplification (pure tree traversal).

    Runs the identical rewrite logic without consulting or populating the
    memo table; the interning property tests assert it always returns the
    same canonical node as :func:`simplify`.
    """
    return _simplify(expr, options, None)


def _simplify(expr: Expr, options: SimplifyOptions, memo: Optional[dict[Expr, Expr]]) -> Expr:
    if memo is not None:
        cached = memo.get(expr)
        if cached is not None:
            _STATS["hits"] += 1
            return cached
    _STATS["visits"] += 1
    original = expr

    children = expr.children()
    if children:
        new_children = tuple(_simplify(child, options, memo) for child in children)
        if new_children != children:
            expr = _rebuild(expr, new_children)

    if options.constant_folding:
        expr = _fold_constants(expr)
    if options.algebraic_identities:
        previous = None
        while previous != expr:
            previous = expr
            expr = _algebraic(expr)
            if options.constant_folding:
                expr = _fold_constants(expr)
    if options.bit_slicing and not isinstance(expr, (Constant, InputField)):
        if expr.op_count() and not expr.is_boolean:
            expr = _slice_normalise(expr, options)

    if memo is not None:
        memo[original] = expr
    return expr
