"""A CDCL SAT solver.

Code Phage uses an SMT solver (Z3 in the original system) to decide whether a
donor subexpression and a recipient expression always evaluate to the same
value.  This reproduction has no Z3 available, so the SMT layer is built from
scratch: bitvector terms are bit-blasted to CNF (:mod:`repro.solver.bitblast`)
and satisfiability is decided by the conflict-driven clause-learning solver in
this module.

The solver is deliberately classical: two-literal watching, first-UIP clause
learning, VSIDS-style activity decay, geometric restarts, and unit-clause
preprocessing.  It is not a competition solver, but it comfortably handles the
equivalence queries the CP rewrite algorithm produces for checks over a few
8/16/32-bit input fields.

The solver is *incremental*: clauses may be added between :meth:`Solver.solve`
calls, learned clauses and level-0 assignments persist across calls, and
assumption literals scope a query to one candidate without constraining the
next.  The validation engine (:mod:`repro.solver.engine`) builds on exactly
this contract; see ``docs/SOLVER.md`` for the semantics.

Literal encoding: variables are positive integers ``1..n``; a literal is
``+v`` or ``-v`` (DIMACS convention).  :meth:`Solver.solve` returns a
:class:`Result` whose ``model`` maps each variable to a boolean when
satisfiable.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Result:
    """Outcome of a SAT query."""

    status: Status
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT


class SolverError(Exception):
    """Raised for malformed clauses or variable identifiers."""


_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class Solver:
    """Conflict-driven clause-learning SAT solver."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._assignment: list[int] = [_UNASSIGNED]  # index 0 unused
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._activity: list[float] = [0.0]
        self._activity_inc = 1.0
        self._activity_decay = 0.95
        #: Lazy max-heap of ``(-activity, var)`` branching candidates.  The
        #: engine keeps one solver for a whole session, so branching must
        #: not scan every variable ever allocated; stale entries (assigned
        #: vars, outdated activities) are dropped as they surface.
        self._heap: list[tuple[float, int]] = []
        self._propagation_head = 0
        self._root_conflict = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.learned_clauses = 0

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable identifier."""
        self._num_vars += 1
        var = self._num_vars
        self._assignment.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        heapq.heappush(self._heap, (-0.0, var))
        self._watches.setdefault(var, [])
        self._watches.setdefault(-var, [])
        return var

    def ensure_vars(self, count: int) -> None:
        """Make sure variables ``1..count`` exist."""
        while self._num_vars < count:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause (an iterable of non-zero literals)."""
        clause = []
        seen = set()
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
            # Empty clause: the formula is trivially unsatisfiable.
            self._root_conflict = True
            return
        self._attach(clause)

    def _attach(self, clause: list[int]) -> None:
        """Attach a clause, keeping the watch invariant under level-0 facts.

        Clauses may arrive between incremental :meth:`solve` calls, after
        earlier queries have fixed variables at level 0.  A watched literal
        that is already falsified would never be revisited by propagation, so
        non-falsified literals are moved into the watch slots; a clause left
        with one supported literal is asserted immediately, and one with none
        marks the formula unsatisfiable at the root.
        """
        index = len(self._clauses)
        self._clauses.append(clause)
        if len(clause) == 1:
            self._watches[clause[0]].append(index)
            value = self._value(clause[0])
            if value == _FALSE:
                self._root_conflict = True
            elif value == _UNASSIGNED:
                self._assign(clause[0], index)
            return
        slot = 0
        for position, literal in enumerate(clause):
            if self._value(literal) != _FALSE:
                clause[slot], clause[position] = clause[position], clause[slot]
                slot += 1
                if slot == 2:
                    break
        self._watches[clause[0]].append(index)
        self._watches[clause[1]].append(index)
        if slot == 0:
            self._root_conflict = True
        elif slot == 1 and self._value(clause[0]) == _UNASSIGNED:
            self._assign(clause[0], index)

    # -- assignment helpers --------------------------------------------------

    def _value(self, literal: int) -> int:
        value = self._assignment[abs(literal)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if literal > 0 else -value

    def _assign(self, literal: int, reason: Optional[int]) -> None:
        var = abs(literal)
        self._assignment[var] = _TRUE if literal > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)

    def _unassign_to(self, level: int) -> None:
        """Undo every assignment above decision ``level``; a no-op at or below it.

        A restart right after a backjump to the assumption level lands here
        with nothing above that level to undo.
        """
        if level >= len(self._trail_lim):
            return
        target = self._trail_lim[level]
        for literal in reversed(self._trail[target:]):
            var = abs(literal)
            self._assignment[var] = _UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[target:]
        del self._trail_lim[level:]
        self._propagation_head = min(self._propagation_head, len(self._trail))

    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        while self._propagation_head < len(self._trail):
            literal = self._trail[self._propagation_head]
            self._propagation_head += 1
            self.propagations += 1
            falsified = -literal
            watch_list = self._watches[falsified]
            new_watch_list = []
            conflict = None
            for clause_index in watch_list:
                if conflict is not None:
                    new_watch_list.append(clause_index)
                    continue
                clause = self._clauses[clause_index]
                if len(clause) == 1:
                    if self._value(clause[0]) == _FALSE:
                        conflict = clause_index
                        new_watch_list.append(clause_index)
                    else:
                        if self._value(clause[0]) == _UNASSIGNED:
                            self._assign(clause[0], clause_index)
                        new_watch_list.append(clause_index)
                    continue
                # Normalise so that clause[1] is the falsified watch.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == _TRUE:
                    new_watch_list.append(clause_index)
                    continue
                # Look for a replacement watch.
                replacement = None
                for position in range(2, len(clause)):
                    if self._value(clause[position]) != _FALSE:
                        replacement = position
                        break
                if replacement is not None:
                    clause[1], clause[replacement] = clause[replacement], clause[1]
                    self._watches[clause[1]].append(clause_index)
                    continue  # no longer watched by `falsified`
                # Clause is unit or conflicting.
                new_watch_list.append(clause_index)
                if self._value(first) == _FALSE:
                    conflict = clause_index
                else:
                    self._assign(first, clause_index)
            self._watches[falsified] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis -----------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > 1e100:
            for index in range(1, len(self._activity)):
                self._activity[index] *= 1e-100
            self._activity_inc *= 1e-100
            # Every heap entry's activity is now stale; rebuild from the
            # unassigned variables (assigned ones re-enter on unassignment).
            self._heap = [
                (-self._activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._assignment[v] == _UNASSIGNED
            ]
            heapq.heapify(self._heap)
            return
        if self._assignment[var] == _UNASSIGNED:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _analyse(self, conflict_index: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: list[int] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = None
        clause = list(self._clauses[conflict_index])
        index = len(self._trail) - 1

        while True:
            for clause_literal in clause:
                var = abs(clause_literal)
                if clause_literal == literal or seen[var]:
                    continue
                if self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] == self._decision_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal on the trail to resolve on.
            while index >= 0 and not seen[abs(self._trail[index])]:
                index -= 1
            if index < 0:
                break
            trail_literal = self._trail[index]
            var = abs(trail_literal)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                literal = -trail_literal
                break
            reason_index = self._reason[var]
            clause = list(self._clauses[reason_index]) if reason_index is not None else []
            literal = trail_literal

        assert literal is not None
        learned = [literal] + learned
        if len(learned) == 1:
            return learned, 0
        backjump = max(self._level[abs(lit)] for lit in learned[1:])
        # Place a literal from the backjump level in the second watch slot.
        for position in range(1, len(learned)):
            if self._level[abs(learned[position])] == backjump:
                learned[1], learned[position] = learned[position], learned[1]
                break
        return learned, backjump

    # -- decision heuristic ----------------------------------------------------

    def _pick_branch_variable(self) -> Optional[int]:
        """Highest-activity unassigned variable, via the lazy heap.

        Entries for assigned variables and outdated activities are dropped
        on discovery; every unassigned variable always has one entry
        carrying its current activity (pushed at allocation, on bump, and
        on unassignment), so an empty heap means a full assignment.
        """
        while self._heap:
            negated_activity, var = self._heap[0]
            if (
                self._assignment[var] != _UNASSIGNED
                or -negated_activity != self._activity[var]
            ):
                heapq.heappop(self._heap)
                continue
            return var
        return None

    # -- main loop ---------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> Result:
        """Decide satisfiability under the given assumption literals.

        ``max_conflicts`` bounds the search; when exceeded the result status is
        ``UNKNOWN`` (the equivalence layer then falls back to sampling).
        """
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

        if self._root_conflict:
            return Result(Status.UNSAT)

        # Top-level propagation of unit clauses.  A conflict here is at level
        # 0, so the formula itself (not just this query) is unsatisfiable —
        # remembered so later incremental calls need not rediscover it.
        conflict = self._propagate()
        if conflict is not None:
            self._root_conflict = True
            return Result(Status.UNSAT, conflicts=self.conflicts)

        # Apply assumptions as decisions at successive levels.
        for assumption in assumptions:
            value = self._value(assumption)
            if value == _TRUE:
                continue
            if value == _FALSE:
                self._restart()
                return Result(Status.UNSAT, conflicts=self.conflicts)
            self._trail_lim.append(len(self._trail))
            self._assign(assumption, None)
            conflict = self._propagate()
            if conflict is not None:
                self._restart()
                return Result(Status.UNSAT, conflicts=self.conflicts)
        assumption_level = self._decision_level

        restart_limit = 100
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level == assumption_level:
                    if assumption_level == 0:
                        self._root_conflict = True
                    self._restart()
                    return Result(Status.UNSAT, conflicts=self.conflicts)
                learned, backjump = self._analyse(conflict)
                backjump = max(backjump, assumption_level)
                self._unassign_to(backjump)
                self.add_clause_learned(learned)
                self._activity_inc /= self._activity_decay
                if max_conflicts is not None and self.conflicts > max_conflicts:
                    self._restart()
                    return Result(Status.UNKNOWN, conflicts=self.conflicts)
                if conflicts_since_restart > restart_limit:
                    conflicts_since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._unassign_to(assumption_level)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                model = {
                    var: self._assignment[var] == _TRUE
                    for var in range(1, self._num_vars + 1)
                }
                result = Result(
                    Status.SAT,
                    model=model,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                )
                self._restart()
                return result

            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._assign(-variable, None)  # negative polarity first: CP queries are mostly UNSAT

    def add_clause_learned(self, clause: list[int]) -> None:
        """Attach a learned clause and assert its first literal."""
        self.learned_clauses += 1
        index = len(self._clauses)
        self._clauses.append(clause)
        if len(clause) == 1:
            self._watches[clause[0]].append(index)
        else:
            self._watches[clause[0]].append(index)
            self._watches[clause[1]].append(index)
        self._assign(clause[0], index)

    def _restart(self) -> None:
        """Drop all decisions (keep learned clauses and level-0 assignments)."""
        self._unassign_to(0)


def solve_clauses(
    clauses: Iterable[Iterable[int]],
    num_vars: int = 0,
    assumptions: Sequence[int] = (),
    max_conflicts: Optional[int] = None,
) -> Result:
    """Convenience wrapper: build a solver, add clauses, and solve."""
    solver = Solver()
    if num_vars:
        solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(assumptions=assumptions, max_conflicts=max_conflicts)
