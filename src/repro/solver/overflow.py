"""Integer-overflow-specific patch validation.

Section 1.1 of the paper: "For integer overflow errors ... CP analyzes the
check, the expression that overflows, and other existing checks in the
recipient that are relevant to the error to verify that there is no input that
1) satisfies the checks to traverse the exercised path through the program to
the overflow and also 2) triggers the overflow."

This module provides that extra validation step.  The allocation-size
expression recorded at the overflow site (a symbolic expression over input
fields, produced by the MicroC VM) is *widened* so that the multiplication is
re-evaluated at double precision; an overflow occurs exactly when the widened
value exceeds the maximum representable value at the original width.  The
query "some input passes the transferred check, satisfies the path
constraints, and still overflows" is then handed to the hybrid
satisfiability engine; UNSAT means the patch provably eliminates the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..symbolic import builder
from ..symbolic.expr import (
    Binary,
    Concat,
    Constant,
    Expr,
    Extend,
    Extract,
    InputField,
    Ite,
    Kind,
    Unary,
)
from .equivalence import EquivalenceChecker


@dataclass
class OverflowVerdict:
    """Result of the overflow-elimination query."""

    eliminated: bool
    proved: bool
    witness: Optional[dict[str, int]] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.eliminated


def widen(expr: Expr, target_width: int) -> Expr:
    """Re-express ``expr`` with its arithmetic performed at ``target_width`` bits.

    Leaves keep their natural width and are zero-extended; additions,
    subtractions, multiplications, divisions, and shifts are recomputed at the
    wider width so that wrap-around at the original width becomes observable.
    Nodes that cannot be widened meaningfully (extractions of wider values,
    boolean nodes) are zero-extended as opaque values.
    """
    if target_width <= expr.width:
        return builder.zext(expr, target_width)

    if isinstance(expr, (Constant, InputField)):
        return builder.zext(expr, target_width)

    if isinstance(expr, Extend):
        return widen(expr.operand, target_width) if not expr.signed else builder.sext(
            expr.operand, target_width
        )

    if isinstance(expr, Binary) and expr.op in (
        Kind.ADD,
        Kind.SUB,
        Kind.MUL,
        Kind.UDIV,
        Kind.UREM,
        Kind.AND,
        Kind.OR,
        Kind.XOR,
    ):
        left = widen(expr.left, target_width)
        right = widen(expr.right, target_width)
        return Binary(width=target_width, op=expr.op, left=left, right=right)

    if isinstance(expr, Binary) and expr.op is Kind.SHL and isinstance(expr.right, Constant):
        left = widen(expr.left, target_width)
        return builder.shl(left, expr.right.value)

    if isinstance(expr, Ite):
        return builder.ite(
            expr.cond, widen(expr.then, target_width), widen(expr.otherwise, target_width)
        )

    return builder.zext(expr, target_width)


def overflow_condition(size_expr: Expr) -> Expr:
    """A width-1 condition that is true exactly when ``size_expr`` overflows.

    ``size_expr`` is the allocation-size expression as computed by the
    application at its native width ``w``; the condition compares the same
    computation carried out at ``2w`` bits against the maximum value
    representable in ``w`` bits.
    """
    width = size_expr.width
    widened = widen(size_expr, width * 2)
    maximum = builder.const((1 << width) - 1, width * 2)
    return builder.ugt(widened, maximum)


def check_blocks_overflow(
    checker: EquivalenceChecker,
    transferred_check: Expr,
    size_expr: Expr,
    path_constraints: Sequence[Expr] = (),
) -> OverflowVerdict:
    """Verify that the transferred check eliminates the overflow.

    ``transferred_check`` is the *guard* condition under which the inserted
    patch aborts the execution (i.e. the patch is ``if (guard) exit(-1)``),
    expressed over input fields.  The query asks for an input that

    * does **not** fire the guard,
    * satisfies every recorded path constraint leading to the overflow site,
    * and still overflows the allocation-size expression.

    If no such input exists the patch eliminates the error; ``proved`` says
    whether the checker proved that or only failed to sample a witness.
    """
    survives_guard = builder.logical_not(builder.is_nonzero(transferred_check))
    overflow = overflow_condition(size_expr)
    conjuncts = [survives_guard, overflow]
    conjuncts.extend(builder.is_nonzero(constraint) for constraint in path_constraints)
    query = builder.logical_and(*conjuncts)

    satisfiable, witness, proved = checker.satisfiability(query)
    if satisfiable:
        return OverflowVerdict(eliminated=False, proved=proved, witness=witness)
    # Absence of a witness is definitive only for the SAT and exhaustive
    # rungs of the checker's ladder; after a sampling fallback the
    # elimination is unproven, and only the dynamic validation phase backs it.
    return OverflowVerdict(eliminated=True, proved=proved)


def overflow_witness(
    checker: EquivalenceChecker,
    size_expr: Expr,
    path_constraints: Sequence[Expr] = (),
) -> Optional[dict[str, int]]:
    """Find input-field values that overflow ``size_expr`` (DIODE's core query)."""
    overflow = overflow_condition(size_expr)
    conjuncts = [overflow]
    conjuncts.extend(builder.is_nonzero(constraint) for constraint in path_constraints)
    query = builder.logical_and(*conjuncts)
    satisfiable, witness = checker.satisfiable(query)
    if satisfiable and witness is not None:
        return witness
    return None
