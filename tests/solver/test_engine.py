"""ValidationEngine and QueryBatch: incremental solving, dedupe, namespacing."""

from repro.solver import EquivalenceChecker, EquivalenceOptions, Verdict
from repro.solver.engine import (
    QueryBatch,
    ValidationEngine,
    diff_snapshots,
    merge_snapshots,
)
from repro.solver.equivalence import CACHE_SCHEMA_VERSION
from repro.solver.sat import Status
from repro.symbolic import builder, evaluate


A8 = builder.input_field("/a", 8)
B8 = builder.input_field("/b", 8)


class TestQueryBatch:
    def test_hit_and_miss_accounting(self):
        batch = QueryBatch()
        assert batch.get("cnf", "d1") is None
        batch.put("cnf", "d1", "outcome")
        assert batch.get("cnf", "d1") == "outcome"
        assert batch.hits == 1 and batch.misses == 1
        assert batch.dedupe_rate == 0.5

    def test_kinds_do_not_collide(self):
        batch = QueryBatch()
        batch.put("cnf", "d1", "a")
        batch.put("satisfiable", "d1", "b")
        assert batch.get("cnf", "d1") == "a"
        assert batch.get("satisfiable", "d1") == "b"


class TestValidationEngine:
    def test_sat_query_with_witness(self):
        engine = ValidationEngine()
        condition = builder.ugt(A8, 200)
        outcome = engine.check_sat(condition)
        assert outcome.is_sat
        assert evaluate(condition, outcome.witness) == 1

    def test_unsat_query(self):
        engine = ValidationEngine()
        condition = builder.logical_and(builder.ugt(A8, 200), builder.ult(A8, 100))
        assert engine.check_sat(condition).is_unsat

    def test_repeat_query_is_batched(self):
        engine = ValidationEngine()
        condition = builder.ugt(builder.add(A8, B8), 40)
        first = engine.check_sat(condition)
        queries_after_first = engine.statistics.queries
        second = engine.check_sat(condition)
        assert first.status == second.status
        assert engine.statistics.queries == queries_after_first  # no new solver work
        assert engine.batch.hits == 1

    def test_queries_share_one_incremental_solver(self):
        """Later queries reuse the gates (and solver clauses) of earlier ones."""
        engine = ValidationEngine()
        shared = builder.mul(builder.add(A8, B8), 3)
        engine.check_sat(builder.ugt(shared, 100))
        fed_before = engine._fed_clauses
        # Same subcircuit, different comparison: only the comparison's gates
        # are new, so far fewer clauses are fed than a fresh blast would add.
        engine.check_sat(builder.ult(shared, 10))
        assert engine._fed_clauses > fed_before
        assert engine._fed_clauses - fed_before < fed_before

    def test_assumption_scoping_between_queries(self):
        """An UNSAT query must not poison a later satisfiable one."""
        engine = ValidationEngine()
        impossible = builder.logical_and(builder.ugt(A8, 200), builder.ult(A8, 100))
        assert engine.check_sat(impossible).is_unsat
        possible = builder.ugt(A8, 200)
        outcome = engine.check_sat(possible)
        assert outcome.is_sat
        assert evaluate(possible, outcome.witness) == 1

    def test_width_clash_falls_back_to_one_shot(self):
        engine = ValidationEngine()
        engine.check_sat(builder.ugt(builder.input_field("/w", 8), 10))
        # Same path at a different width clashes with the shared blaster's
        # field variables; the engine must still answer, via a fresh blast.
        clash = builder.ugt(builder.input_field("/w", 16), 1000)
        outcome = engine.check_sat(clash)
        assert outcome.is_sat
        assert evaluate(clash, outcome.witness) == 1

    def test_failed_blast_leaves_no_trace_in_the_shared_blaster(self):
        """A width-clashing query must not pollute later queries' state."""
        engine = ValidationEngine()
        engine.check_sat(builder.ugt(builder.input_field("/w", 8), 10))
        clauses_before = len(engine._blaster.cnf.clauses)
        # /fresh at 16 registers, then /w clashes: the whole episode must
        # roll back — no orphan gates, no half-registered /fresh field.
        clash = builder.logical_and(
            builder.ugt(builder.input_field("/fresh", 16), 5),
            builder.ugt(builder.input_field("/w", 16), 1000),
        )
        assert engine.check_sat(clash).is_sat  # answered one-shot
        assert len(engine._blaster.cnf.clauses) == clauses_before
        # /fresh at 8 now blasts in the shared solver without a clash.
        follow_up = builder.ugt(builder.input_field("/fresh", 8), 200)
        outcome = engine.check_sat(follow_up)
        assert outcome.is_sat
        assert evaluate(follow_up, outcome.witness) == 1
        assert len(engine._blaster.cnf.clauses) > clauses_before

    def test_unknown_outcomes_are_not_cached(self):
        engine = ValidationEngine(conflict_limit=0)
        # A commuted-addition miter needs search: budget 0 -> UNKNOWN.
        condition = builder.ne(builder.add(A8, B8), builder.add(B8, A8))
        assert engine.check_sat(condition).status is Status.UNKNOWN
        # A later ask with a real budget must re-solve, not replay UNKNOWN.
        assert engine.check_sat(condition, conflict_limit=100000).is_unsat

    def test_use_batch_false_disables_memoisation(self):
        engine = ValidationEngine(use_batch=False)
        condition = builder.ugt(builder.add(A8, B8), 40)
        engine.check_sat(condition)
        engine.check_sat(condition)
        assert engine.batch.hits == 0 and len(engine.batch) == 0

    def test_counters_are_filed_under_the_solver_name(self):
        engine = ValidationEngine()
        engine.check_sat(builder.ugt(builder.mul(A8, B8), 200))
        (name,) = engine.sat_counters()
        assert name == "cdcl"
        assert engine.sat_counters()[name]["queries"] == engine.statistics.queries == 1

    def test_statistics_accumulate(self):
        engine = ValidationEngine()
        engine.check_sat(builder.ugt(A8, 200))
        engine.check_sat(builder.logical_and(builder.ugt(A8, 200), builder.ult(A8, 100)))
        engine.check_sat(builder.ugt(A8, 200))  # batched: no solver work
        stats = engine.statistics
        assert (stats.queries, stats.sat, stats.unsat, stats.unknown) == (2, 1, 1, 0)
        payload = stats.as_dict()
        assert payload["queries"] == 2 and payload["time_s"] >= 0.0


class TestSnapshots:
    def test_diff_drops_idle_solvers_and_merge_folds_deltas(self):
        engine = ValidationEngine()
        before = engine.sat_counters()
        assert diff_snapshots(before, engine.sat_counters()) == {}
        engine.check_sat(builder.ugt(builder.mul(A8, B8), 200))
        delta = diff_snapshots(before, engine.sat_counters())
        assert list(delta) == ["cdcl"] and delta["cdcl"]["queries"] == 1
        total: dict = {}
        merge_snapshots(total, delta)
        merge_snapshots(total, delta)
        assert total["cdcl"]["queries"] == 2
        assert total["cdcl"]["sat"] == 2 * delta["cdcl"]["sat"]


class TestChecker:
    def test_checker_decides_through_the_engine(self):
        checker = EquivalenceChecker()
        result = checker.equivalent(builder.add(A8, B8), builder.add(B8, A8))
        assert result.verdict is Verdict.EQUIVALENT
        satisfiable, witness = checker.satisfiable(builder.ugt(A8, 200))
        assert satisfiable and witness["/a"] > 200

    def test_satisfiable_verdicts_are_batched(self):
        checker = EquivalenceChecker()
        condition = builder.ugt(builder.mul(A8, B8), 200)
        first = checker.satisfiable(condition)
        hits_before = checker.query_batch.hits
        second = checker.satisfiable(condition)
        assert first == second
        assert checker.query_batch.hits > hits_before


#: A proved verdict for ``/a + /b`` == ``/b + /a`` as the persistent cache
#: stored it when budget-limited verdicts still lived in a solver-qualified
#: namespace.  Proved-verdict keys did not change, so the line must still hit.
PROVED_LINE = (
    '{"k":"3:True:48:16:2000:20000:5000:49374##92a0a6dcd1713b91b0b8dc0e23a981b39f378146'
    '||e1773374cc22638df61dc074bf52d3549f0ee49f","v":{"verdict":"equivalent",'
    '"method":"exhaustive","witness":null,"samples_checked":0,"sat_conflicts":0}}\n'
)


class TestPersistentNamespacing:
    def _checker(self, tmp_path, **overrides):
        options = EquivalenceOptions(
            persistent_cache_path=str(tmp_path / "cache.jsonl"), **overrides
        )
        return EquivalenceChecker(options=options)

    def test_namespace_carries_schema_version(self, tmp_path):
        checker = self._checker(tmp_path)
        assert checker._namespace.startswith(str(CACHE_SCHEMA_VERSION) + ":")

    def test_a_proved_verdict_in_the_earlier_key_format_still_hits(self, tmp_path):
        (tmp_path / "cache.jsonl").write_text(PROVED_LINE)
        reader = self._checker(tmp_path)
        result = reader.equivalent(builder.add(A8, B8), builder.add(B8, A8))
        assert result.verdict is Verdict.EQUIVALENT
        assert reader.statistics.persistent_cache_hits == 1

    def test_satisfiable_verdicts_persist(self, tmp_path):
        writer = self._checker(tmp_path)
        condition = builder.ugt(builder.mul(A8, B8), 200)
        answer = writer.satisfiable(condition)
        reader = self._checker(tmp_path)
        assert reader.satisfiable(condition) == answer
        assert reader.statistics.persistent_cache_hits == 1

    def test_sat_timeout_verdicts_replay_only_under_the_same_budget(self, tmp_path):
        # A conflict budget of zero forces the blasted equivalence query to
        # time out, producing a budget-limited "sat-timeout" verdict.  (A
        # commuted multiplication is genuinely equivalent, so sampling cannot
        # refute it, and the zero budget stops the UNSAT proof.)
        left = builder.mul(A8, B8)
        right = builder.mul(B8, A8)
        starved = dict(sample_count=0, exhaustive_bit_limit=0, sat_cost_budget=100000)
        writer = self._checker(tmp_path, sat_conflict_limit=0, **starved)
        assert writer.equivalent(left, right).method == "sat-timeout"
        # A second checker with the same options replays the verdict...
        replay = self._checker(tmp_path, sat_conflict_limit=0, **starved)
        assert replay.equivalent(left, right).method == "sat-timeout"
        assert replay.statistics.persistent_cache_hits == 1
        # ...but a checker with another budget must ask the solver itself.
        funded = self._checker(tmp_path, sat_conflict_limit=50, **starved)
        funded.equivalent(left, right)
        assert funded.statistics.persistent_cache_hits == 0
        assert funded.engine.statistics.queries == 1
