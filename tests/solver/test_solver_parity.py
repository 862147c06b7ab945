"""Solver parity: the product's CDCL solver against the DPLL reference oracle.

The two solvers may differ in *which* model witnesses a SAT answer and in
budget-limited UNKNOWN outcomes — never in SAT vs UNSAT.  These tests drive
both over randomized CNF formulas, randomized *blasted* bitvector queries
(the formulas the rewrite algorithm actually produces) and the pipeline's
three query shapes (equivalence miters, overflow conditions, range
constraints), and check:

* identical status on every query (no budget, so no UNKNOWNs);
* every SAT model satisfies every clause of the CNF;
* incremental use (clauses added between solves, assumption-scoped queries)
  agrees with a fresh solve of the same accumulated formula;
* a second round of the query-shape workload through one
  :class:`~repro.solver.engine.ValidationEngine` is answered entirely from
  its query batch.
"""

import random

import pytest
from dpll_oracle import DpllSolver

from repro.solver import EquivalenceChecker, EquivalenceOptions, Verdict
from repro.solver.bitblast import BitBlaster
from repro.solver.engine import ValidationEngine
from repro.solver.overflow import overflow_condition
from repro.solver.sat import Solver, Status
from repro.symbolic import builder

SOLVERS = {"cdcl": Solver, "dpll": DpllSolver}


def random_cnf(rng: random.Random) -> tuple[int, list[list[int]]]:
    num_vars = rng.randint(3, 18)
    num_clauses = rng.randint(2, num_vars * 4)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clauses.append(
            [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(width)]
        )
    return num_vars, clauses


def solve_with(name: str, num_vars: int, clauses: list[list[int]], assumptions=()):
    solver = SOLVERS[name]()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(assumptions=assumptions)


def assert_model_satisfies(model: dict[int, bool], clauses: list[list[int]]) -> None:
    for clause in clauses:
        literals = set(clause)
        if any(-lit in literals for lit in literals):
            continue  # tautology, dropped at add_clause time
        assert any(
            (lit > 0) == model.get(abs(lit), False) for lit in literals
        ), f"model violates clause {clause}"


def assert_parity(num_vars: int, clauses: list[list[int]], assumptions=()) -> Status:
    verdicts = {}
    for name in SOLVERS:
        result = solve_with(name, num_vars, clauses, assumptions)
        assert result.status is not Status.UNKNOWN
        verdicts[name] = result.status
        if result.status is Status.SAT:
            assert_model_satisfies(result.model, clauses)
    assert len(set(verdicts.values())) == 1, (verdicts, assumptions)
    return verdicts["cdcl"]


class TestRandomCnfParity:
    def test_verdicts_agree_and_models_satisfy(self):
        rng = random.Random(0xBACC)
        for _ in range(150):
            assert_parity(*random_cnf(rng))

    def test_verdicts_agree_under_assumptions(self):
        rng = random.Random(0xA55)
        for _ in range(80):
            num_vars, clauses = random_cnf(rng)
            assumptions = [
                rng.choice((1, -1)) * var
                for var in rng.sample(range(1, num_vars + 1), k=min(3, num_vars))
            ]
            assert_parity(num_vars, clauses, assumptions)


def random_expression(rng: random.Random, fields, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return builder.const(rng.getrandbits(8), 8)
        return rng.choice(fields)
    op = rng.choice(["add", "sub", "and", "or", "xor", "mul"])
    left = random_expression(rng, fields, depth - 1)
    right = random_expression(rng, fields, depth - 1)
    return {
        "add": builder.add,
        "sub": builder.sub,
        "and": builder.bvand,
        "or": builder.bvor,
        "xor": builder.bvxor,
        "mul": builder.mul,
    }[op](left, right)


def blasted(condition):
    """``(num_vars, clauses)`` asserting ``condition``, or None if it folded."""
    blaster = BitBlaster()
    bit = blaster.blast(condition)[0]
    if isinstance(bit, bool):
        return None  # constant-folded: nothing for a solver to decide
    blaster.assert_bit(bit, True)
    return blaster.cnf.num_vars, blaster.cnf.clauses


A8 = builder.input_field("/a", 8)
B8 = builder.input_field("/b", 8)
W16 = builder.input_field("/w", 16)
H16 = builder.input_field("/h", 16)


def query_shapes() -> list:
    """Width-1 conditions covering the pipeline's three query shapes."""
    conditions = [
        # Equivalence miters (rewrite stage): mostly UNSAT.
        builder.ne(builder.add(A8, B8), builder.add(B8, A8)),
        builder.ne(builder.mul(A8, 2), builder.shl(A8, 1)),
        builder.ne(builder.bvand(A8, B8), builder.bvor(A8, B8)),
        builder.ne(builder.sub(A8, B8), builder.add(A8, builder.neg(B8))),
        # Overflow conditions (DIODE and §1.1 validation).  The two widened
        # products fold to constants in the blaster; the last two reach the
        # solver: an unguarded product (SAT) and a guarded one (UNSAT).
        overflow_condition(builder.mul(builder.zext(W16, 32), builder.zext(H16, 32))),
        overflow_condition(builder.mul(builder.zext(A8, 16), builder.const(255, 16))),
        overflow_condition(builder.mul(A8, B8)),
        builder.logical_and(
            builder.logical_and(builder.ult(A8, 16), builder.ult(B8, 16)),
            overflow_condition(builder.mul(A8, B8)),
        ),
        # Range constraints (insertion-point reasoning).
        builder.logical_and(builder.ugt(A8, 200), builder.ult(A8, 100)),
        builder.logical_and(builder.ugt(W16, 40000), builder.ult(H16, 16)),
    ]
    rng = random.Random(0xBE7C)
    for _ in range(12):
        left = builder.add(builder.mul(A8, rng.randrange(1, 7)), rng.getrandbits(8))
        right = builder.bvxor(builder.mul(B8, rng.randrange(1, 7)), rng.getrandbits(8))
        conditions.append(builder.ne(left, right))
    return conditions


class TestBlastedQueryParity:
    def test_solvers_agree_on_blasted_queries(self):
        rng = random.Random(0xB1A5)
        fields = [builder.input_field("/x", 8), builder.input_field("/y", 8)]
        for _ in range(40):
            condition = builder.ne(
                random_expression(rng, fields, 2), random_expression(rng, fields, 2)
            )
            formula = blasted(condition)
            if formula is not None:
                assert_parity(*formula)

    def test_engine_matches_the_oracle_and_batches_a_second_round(self):
        """On the pipeline's query shapes the engine's verdicts equal the
        oracle's, none is UNKNOWN, and a rerun never reaches the solver."""
        workload = query_shapes()
        engine = ValidationEngine()
        first = [engine.check_sat(condition).status for condition in workload]
        assert Status.UNKNOWN not in first
        for condition, status in zip(workload, first):
            formula = blasted(condition)
            if formula is not None:
                assert assert_parity(*formula) is status, condition
        queries = engine.statistics.queries
        second = [engine.check_sat(condition).status for condition in workload]
        assert second == first
        assert engine.batch.hits == len(workload)
        assert engine.statistics.queries == queries


#: Rewrite-equivalence pairs ``(left, right)`` for the checker-level parity
#: test: equivalent and inequivalent rewrites of the kind Figure 7 produces.
#: Four-bit fields keep the oracle's search over each miter small.
P4 = builder.input_field("/p", 4)
Q4 = builder.input_field("/q", 4)
EQUIVALENCE_PAIRS = {
    "product-commutes": (builder.mul(P4, Q4), builder.mul(Q4, P4)),
    "triple-is-shift-plus-self": (builder.mul(P4, 3), builder.add(builder.shl(P4, 1), P4)),
    "sub-is-add-neg": (builder.sub(P4, Q4), builder.add(P4, builder.neg(Q4))),
    "xor-twice-cancels": (builder.bvxor(builder.bvxor(P4, Q4), Q4), P4),
    "add-is-or-plus-and": (
        builder.add(P4, Q4),
        builder.add(builder.bvor(P4, Q4), builder.bvand(P4, Q4)),
    ),
    "and-is-not-or": (builder.bvand(P4, Q4), builder.bvor(P4, Q4)),
    "or-one-breaks-the-double": (builder.shl(P4, 1), builder.add(P4, builder.bvor(P4, 1))),
}


class TestCheckerParity:
    @pytest.mark.parametrize("pair", sorted(EQUIVALENCE_PAIRS))
    def test_checker_verdict_matches_the_oracle(self, pair):
        """With sampling and enumeration off, the checker's proved verdict is
        the solver's, and it equals the oracle's verdict on the blasted miter."""
        left, right = EQUIVALENCE_PAIRS[pair]
        checker = EquivalenceChecker(
            options=EquivalenceOptions(sample_count=0, exhaustive_bit_limit=0)
        )
        result = checker.equivalent(left, right)
        formula = blasted(builder.ne(left, right))
        assert formula is not None, "the miter must reach the solvers"
        oracle = assert_parity(*formula)
        expected = Verdict.EQUIVALENT if oracle is Status.UNSAT else Verdict.NOT_EQUIVALENT
        assert result.verdict is expected, result
        if expected is Verdict.NOT_EQUIVALENT:
            assert result.witness is not None


def pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    """``holes + 1`` pigeons into ``holes`` holes: UNSAT, and never at the root."""
    pigeons = holes + 1

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return pigeons * holes, clauses


class TestIncrementalContract:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_conflict_budget_scopes_one_query(self, name):
        """An exhausted budget answers UNKNOWN for that query only."""
        num_vars, clauses = pigeonhole(4)
        solver = SOLVERS[name]()
        solver.ensure_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_conflicts=0).status is Status.UNKNOWN
        assert solver.solve().status is Status.UNSAT

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_incremental_matches_fresh(self, name):
        """Adding clauses between solves == solving the whole formula fresh."""
        rng = random.Random(0x1C0)
        for _ in range(25):
            num_vars, clauses = random_cnf(rng)
            split = rng.randint(0, len(clauses))
            incremental = SOLVERS[name]()
            incremental.ensure_vars(num_vars)
            for clause in clauses[:split]:
                incremental.add_clause(clause)
            incremental.solve()  # intermediate query; must not poison the next
            for clause in clauses[split:]:
                incremental.add_clause(clause)
            assert (
                incremental.solve().status
                == solve_with(name, num_vars, clauses).status
            )

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_assumptions_scope_single_query(self, name):
        solver = SOLVERS[name]()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]).status is Status.UNSAT
        assert solver.solve().status is Status.SAT

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_root_unsat_is_sticky(self, name):
        solver = SOLVERS[name]()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().status is Status.UNSAT
        assert solver.solve().status is Status.UNSAT
