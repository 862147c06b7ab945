"""Unit and property tests for the CDCL SAT solver."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import Solver, Status, solve_clauses


def brute_force(clauses, num_vars):
    """Reference satisfiability by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any((literal > 0) == bits[abs(literal) - 1] for literal in clause)
            for clause in clauses
        ):
            return True
    return False


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert solve_clauses([], num_vars=2).is_sat

    def test_single_unit_clause(self):
        result = solve_clauses([[1]])
        assert result.is_sat
        assert result.model[1] is True

    def test_contradictory_units(self):
        assert solve_clauses([[1], [-1]]).is_unsat

    def test_simple_implication_chain(self):
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
        result = solve_clauses(clauses)
        assert result.is_sat
        assert all(result.model[v] for v in (1, 2, 3, 4))

    def test_unsat_pigeonhole_2_in_1(self):
        # Two pigeons, one hole.
        clauses = [[1], [2], [-1, -2]]
        assert solve_clauses(clauses).is_unsat

    def test_tautological_clause_ignored(self):
        assert solve_clauses([[1, -1], [2]]).is_sat

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2, -3], [-1, 3], [-2, -3], [2, 3]]
        result = solve_clauses(clauses, num_vars=3)
        assert result.is_sat
        for clause in clauses:
            assert any(
                (lit > 0) == result.model[abs(lit)] for lit in clause
            ), f"clause {clause} not satisfied"

    def test_assumptions_restrict_search(self):
        solver = Solver()
        solver.ensure_vars(2)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]).is_sat
        solver2 = Solver()
        solver2.ensure_vars(2)
        solver2.add_clause([1, 2])
        solver2.add_clause([-2])
        assert solver2.solve(assumptions=[-1]).is_unsat

    def test_restart_right_after_a_backjump_to_the_assumption_level(self):
        # Under assumption a (var 1) each x_i must be true.  Deciding x_i
        # false (negative polarity first) conflicts at once, and the learned
        # clause (-a | x_i) backjumps to the assumption level; the 101st such
        # conflict triggers the first restart from exactly that level.
        gadgets = 150
        solver = Solver()
        solver.ensure_vars(2 * gadgets + 1)
        for index in range(gadgets):
            x, y = 2 + index, 2 + gadgets + index
            solver.add_clause([-1, x, y])
            solver.add_clause([-1, x, -y])
        result = solver.solve(assumptions=[1])
        assert result.is_sat
        assert result.conflicts > 100
        assert all(result.model[2 + index] for index in range(gadgets))

    def test_conflict_limit_returns_unknown_or_decides(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [1], [2]]
        result = solve_clauses(clauses, max_conflicts=0)
        assert result.status in (Status.UNSAT, Status.UNKNOWN, Status.SAT)

    def test_zero_literal_rejected(self):
        solver = Solver()
        with pytest.raises(Exception):
            solver.add_clause([0])


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(1, 8))
    num_clauses = draw(st.integers(1, 24))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(1, 3))
        clause = [
            draw(st.integers(1, num_vars)) * draw(st.sampled_from([1, -1]))
            for _ in range(size)
        ]
        clauses.append(clause)
    return num_vars, clauses


@given(random_cnf())
@settings(max_examples=120, deadline=None)
def test_agrees_with_brute_force(problem):
    num_vars, clauses = problem
    expected = brute_force(clauses, num_vars)
    result = solve_clauses(clauses, num_vars=num_vars)
    assert result.is_sat == expected
    if result.is_sat:
        for clause in clauses:
            assert any((lit > 0) == result.model[abs(lit)] for lit in clause)
