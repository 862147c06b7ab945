"""Check translation: the Rewrite algorithm (paper Figure 7).

The excised check is an expression over *input fields*; the recipient stores
(possibly transformed copies of) those fields in its own variables and data
structures.  Rewrite walks the excised expression top-down: at each node it
first asks the SMT layer whether some recipient name always evaluates to the
same value (in which case the whole subtree collapses to that name — this is
what turns the paper's 57-operation excised CWebP check into a 4-operation
patch); otherwise it decomposes the node and rewrites the children.  Constants
translate directly.  The two failure modes of §3.3 (bits not available
contiguously, values overwritten before the insertion point) surface here as a
``None`` result for the affected subtree.

Only plausible names are asked about: names are bucketed by their values on a
fixed bank of points (:mod:`repro.solver.fingerprint`), and a subtree is
compared only with the names in its own bucket.

The rewritten expression reuses :class:`repro.symbolic.expr.InputField` leaves
whose *path* is a recipient expression (e.g. ``dinfo.output_width``); the
patch generator renders those leaves verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..obs import metrics as obs_metrics
from ..solver.equivalence import EquivalenceChecker
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
from .traversal import RecipientName


@dataclass
class RewriteStatistics:
    """Counters for the solver-optimisation ablation."""

    nodes_visited: int = 0
    solver_queries: int = 0
    name_matches: int = 0
    failures: int = 0


@dataclass
class RewriteResult:
    """A successfully translated expression plus bookkeeping."""

    expression: Expr
    matched_names: tuple[str, ...]
    statistics: RewriteStatistics


class Rewriter:
    """Implements Figure 7's ``Rewrite(E, Names)``."""

    def __init__(
        self,
        names: Sequence[RecipientName],
        checker: Optional[EquivalenceChecker] = None,
    ) -> None:
        self.names = list(names)
        self.checker = checker or EquivalenceChecker()
        self.statistics = RewriteStatistics()
        self._matched: list[str] = []
        self._indexes: dict[int, dict[tuple[int, ...], list[tuple[RecipientName, Expr]]]] = {}

    # -- public API -----------------------------------------------------------------

    def rewrite(self, expression: Expr) -> Optional[RewriteResult]:
        """Rewrite ``expression`` into recipient names, or None on failure."""
        self._matched = []
        rewritten = self._rewrite(expression)
        if rewritten is None:
            return None
        return RewriteResult(
            expression=rewritten,
            matched_names=tuple(dict.fromkeys(self._matched)),
            statistics=self.statistics,
        )

    # -- recursion -------------------------------------------------------------------

    def _rewrite(self, expression: Expr) -> Optional[Expr]:
        self.statistics.nodes_visited += 1

        # Constants translate directly (Figure 7 line 20).
        if isinstance(expression, Constant):
            return expression

        # First try to find a single recipient value equivalent to the whole
        # subtree (Figure 7 lines 11-12).
        match = self._match_name(expression)
        if match is not None:
            return match

        # Otherwise decompose (Figure 7 lines 13-19, extended to the richer
        # node set of this reproduction's expression IR).
        if isinstance(expression, Unary):
            operand = self._rewrite(expression.operand)
            if operand is None:
                return self._fail()
            return Unary(width=expression.width, op=expression.op, operand=operand)

        if isinstance(expression, Binary):
            left = self._rewrite(expression.left)
            right = self._rewrite(expression.right)
            if left is None or right is None:
                return self._fail()
            return Binary(width=expression.width, op=expression.op, left=left, right=right)

        if isinstance(expression, Extend):
            operand = self._rewrite(expression.operand)
            if operand is None:
                return self._fail()
            return Extend(width=expression.width, operand=operand, signed=expression.signed)

        if isinstance(expression, Extract):
            operand = self._rewrite(expression.operand)
            if operand is None:
                return self._fail()
            return Extract(
                width=expression.width, operand=operand, hi=expression.hi, lo=expression.lo
            )

        if isinstance(expression, Concat):
            parts = []
            for part in expression.parts:
                rewritten = self._rewrite(part)
                if rewritten is None:
                    return self._fail()
                parts.append(rewritten)
            return Concat(width=expression.width, parts=tuple(parts))

        if isinstance(expression, Ite):
            cond = self._rewrite(expression.cond)
            then = self._rewrite(expression.then)
            otherwise = self._rewrite(expression.otherwise)
            if cond is None or then is None or otherwise is None:
                return self._fail()
            return Ite(width=expression.width, cond=cond, then=then, otherwise=otherwise)

        # An InputField leaf that did not match any recipient name: the value
        # is not available in the recipient at this point (failure mode 2).
        return self._fail()

    def _fail(self) -> None:
        self.statistics.failures += 1
        return None

    # -- name matching ------------------------------------------------------------------

    def _match_name(self, expression: Expr) -> Optional[Expr]:
        """Find a recipient name whose value always equals ``expression``.

        Widths may differ between the excised subtree and a recipient value
        (a 16-bit input field is typically held in a 32-bit recipient
        variable); the query then compares against the width-adapted name —
        which is exactly the cast the generated patch will contain.

        Only the names whose fingerprint equals the subtree's reach the
        checker, in their original order.  A name that truly equals the
        subtree agrees with it on every bank point, so it is never withheld;
        the first accepted name is the one a scan of every name would find,
        unless the scan's match was an unproven verdict the bank refutes.
        """
        if not expression.fields():
            # Pure-constant subtrees are better folded than matched to names.
            return None
        fingerprint = self.checker.fingerprints.of(expression)
        candidates = self._index(expression.width).get(fingerprint, ())
        match = None
        sent = 0
        for name, adapted in candidates:
            sent += 1
            verdict = self.checker.equivalent(expression, adapted)
            if verdict.verdict.accepts:
                self.statistics.name_matches += 1
                self._matched.append(name.path)
                match = self._leaf_for(name, expression.width)
                break
        self.statistics.solver_queries += sent
        obs_metrics.REGISTRY.observe(
            "rewrite.candidates_per_lookup", sent, bounds=obs_metrics.COUNT_BOUNDS
        )
        return match

    def _index(self, width: int) -> dict[tuple[int, ...], list[tuple[RecipientName, Expr]]]:
        """The names adapted to ``width``, bucketed by fingerprint.

        Built once per width for this insertion point; the adapted names and
        their fingerprints are memoised in the checker for the session.
        """
        index = self._indexes.get(width)
        if index is None:
            fingerprints = self.checker.fingerprints
            derived = fingerprints.derived
            index = self._indexes[width] = {}
            for name in self.names:
                key = (name.expression, name.width, name.signed, width)
                entry = derived.get(key)
                if entry is None:
                    adapted = self._adapt_name_expression(name, width)
                    entry = derived[key] = (adapted, fingerprints.of(adapted))
                index.setdefault(entry[1], []).append((name, entry[0]))
        return index

    @staticmethod
    def _adapt_name_expression(name: RecipientName, width: int) -> Expr:
        """The recipient value's defining expression adapted to ``width``."""
        expression = name.expression
        if width == name.width:
            return expression
        if width < name.width:
            return builder.shrink(expression, width)
        return builder.sext(expression, width) if name.signed else builder.zext(expression, width)

    def _leaf_for(self, name: RecipientName, width: int) -> Expr:
        """A leaf referencing the recipient path, adapted to the needed width."""
        leaf: Expr = InputField(width=name.width, path=name.path)
        if width > name.width:
            leaf = builder.sext(leaf, width) if name.signed else builder.zext(leaf, width)
        elif width < name.width:
            leaf = builder.shrink(leaf, width)
        return leaf
