"""The DPLL reference solver: the oracle the product's CDCL solver is tested against.

A deliberately simple chronological-backtracking solver — unit propagation,
no clause learning, no watches — with the same incremental interface as
:class:`repro.solver.sat.Solver` (``ensure_vars``, ``add_clause``,
``solve(assumptions, max_conflicts)``).  It is too slow for the product
(it degenerates to enumeration on UNSAT equivalence miters), which is
exactly why it makes a good oracle: its verdicts come from a search simple
enough to check by reading.  ``test_solver_parity.py`` drives both solvers
over random CNF, blasted bitvector queries and the pipeline's query shapes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.solver.sat import Result, SolverError, Status


_UNASSIGNED, _TRUE, _FALSE = 0, 1, -1


class DpllSolver:
    """Chronological-backtracking DPLL: unit propagation, no clause learning.

    Each ``solve`` searches the accumulated clause set from scratch (there is
    nothing to carry over — DPLL learns nothing), which makes it the clean
    reference semantics for parity testing, and surprisingly competitive on
    the small formulas the rewrite algorithm mostly produces.  ``conflicts``
    counts chronological backtracks so ``max_conflicts`` bounds the search
    exactly like the CDCL budget.
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._occurrences: dict[int, list[int]] = {}
        self._empty_clause = False

    def ensure_vars(self, count: int) -> None:
        while self._num_vars < count:
            self._num_vars += 1
            self._occurrences.setdefault(self._num_vars, [])
            self._occurrences.setdefault(-self._num_vars, [])

    def add_clause(self, literals: Iterable[int]) -> None:
        clause: list[int] = []
        seen: set[int] = set()
        for literal in literals:
            if literal == 0:
                raise SolverError("literal 0 is not allowed")
            if abs(literal) > self._num_vars:
                self.ensure_vars(abs(literal))
            if -literal in seen:
                return  # tautology
            if literal not in seen:
                seen.add(literal)
                clause.append(literal)
        if not clause:
            self._empty_clause = True
            return
        index = len(self._clauses)
        self._clauses.append(clause)
        for literal in clause:
            self._occurrences[literal].append(index)

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> Result:
        if self._empty_clause:
            return Result(Status.UNSAT)
        assignment = [_UNASSIGNED] * (self._num_vars + 1)
        trail: list[int] = []
        # Each frame: (trail length at decision, decision literal, flipped?).
        decisions: list[tuple[int, int, bool]] = []
        conflicts = 0
        propagations = 0
        decision_count = 0

        def value(literal: int) -> int:
            v = assignment[abs(literal)]
            return v if literal > 0 else -v if v != _UNASSIGNED else _UNASSIGNED

        def assign(literal: int) -> bool:
            """Assign and propagate; False on conflict."""
            nonlocal propagations
            queue = [literal]
            while queue:
                current = queue.pop()
                v = value(current)
                if v == _TRUE:
                    continue
                if v == _FALSE:
                    return False
                assignment[abs(current)] = _TRUE if current > 0 else _FALSE
                trail.append(current)
                propagations += 1
                # Clauses containing the falsified polarity may become unit.
                for index in self._occurrences[-current]:
                    unassigned = None
                    for other in self._clauses[index]:
                        v = value(other)
                        if v == _TRUE:
                            break  # clause satisfied
                        if v == _UNASSIGNED:
                            if unassigned is not None:
                                unassigned = None  # two free literals: not unit
                                break
                            unassigned = other
                    else:
                        if unassigned is None:
                            return False  # every literal false: conflict
                        queue.append(unassigned)
            return True

        def undo_to(length: int) -> None:
            while len(trail) > length:
                assignment[abs(trail.pop())] = _UNASSIGNED

        for literal in assumptions:
            if not assign(literal):
                return Result(
                    Status.UNSAT,
                    conflicts=conflicts,
                    decisions=decision_count,
                    propagations=propagations,
                )
        assumption_mark = len(trail)

        while True:
            branch = next(
                (v for v in range(1, self._num_vars + 1) if assignment[v] == _UNASSIGNED),
                None,
            )
            if branch is None:
                model = {
                    v: assignment[v] == _TRUE for v in range(1, self._num_vars + 1)
                }
                return Result(
                    Status.SAT,
                    model=model,
                    conflicts=conflicts,
                    decisions=decision_count,
                    propagations=propagations,
                )
            decision_count += 1
            # Negative polarity first, matching the CDCL default: CP queries
            # are mostly UNSAT, and all-false is a common easy model.
            decisions.append((len(trail), -branch, False))
            literal = -branch
            while not assign(literal):
                conflicts += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    undo_to(assumption_mark)
                    return Result(
                        Status.UNKNOWN,
                        conflicts=conflicts,
                        decisions=decision_count,
                        propagations=propagations,
                    )
                # Chronological backtracking: flip the deepest unflipped decision.
                while decisions and decisions[-1][2]:
                    mark, _, _ = decisions.pop()
                    undo_to(mark)
                if not decisions:
                    return Result(
                        Status.UNSAT,
                        conflicts=conflicts,
                        decisions=decision_count,
                        propagations=propagations,
                    )
                mark, tried, _ = decisions.pop()
                undo_to(mark)
                decisions.append((mark, -tried, True))
                literal = -tried
