"""Persistent solver cache: sharing, refresh, and hit accounting."""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading

import pytest

import repro.campaign.cache as cache_module
from repro.campaign import PersistentSolverCache, open_solver_cache, query_key
from repro.obs import metrics as obs_metrics
from repro.solver.equivalence import EquivalenceChecker, EquivalenceOptions, Verdict
from repro.symbolic import builder


def _field(path: str, width: int = 16):
    return builder.input_field(path, width)


def test_put_get_and_reload_across_instances(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = PersistentSolverCache(path)
    first.put("k1", {"verdict": "equivalent"})
    first.put("k2", {"verdict": "not-equivalent", "witness": {"/a": 1}})
    assert len(first) == 2
    assert first.get("k1") == {"verdict": "equivalent"}

    # A second instance (another process, in campaign terms) sees the entries.
    second = PersistentSolverCache(path)
    assert len(second) == 2
    assert second.get("k2")["witness"] == {"/a": 1}


def test_get_picks_up_entries_appended_by_a_sibling(tmp_path):
    path = tmp_path / "cache.jsonl"
    reader = PersistentSolverCache(path)
    writer = PersistentSolverCache(path)
    assert reader.get("shared") is None
    writer.put("shared", {"verdict": "equivalent"})
    # The reader misses in memory, notices the file grew, and refreshes.
    assert reader.get("shared") == {"verdict": "equivalent"}


def test_torn_trailing_line_is_ignored(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = PersistentSolverCache(path)
    cache.put("good", {"verdict": "equivalent"})
    with open(path, "a") as handle:
        handle.write('{"k":"torn","v":{"verd')  # no newline: write in progress
    fresh = PersistentSolverCache(path)
    assert fresh.get("good") == {"verdict": "equivalent"}
    assert "torn" not in fresh


def test_put_after_a_torn_line_does_not_lose_the_new_entry(tmp_path):
    """A crashed writer's partial line must not swallow the next append."""
    path = tmp_path / "cache.jsonl"
    first = PersistentSolverCache(path)
    first.put("before", {"verdict": "equivalent"})
    with open(path, "a") as handle:
        handle.write('{"k":"torn","v":{"verd')  # crashed writer, no newline
    writer = PersistentSolverCache(path)
    writer.put("after", {"verdict": "not-equivalent"})
    # A reader starting from scratch sees both healthy entries.
    reader = PersistentSolverCache(path)
    assert reader.get("before") == {"verdict": "equivalent"}
    assert reader.get("after") == {"verdict": "not-equivalent"}
    assert "torn" not in reader


def test_without_fcntl_a_torn_line_costs_only_the_next_verdict(tmp_path, monkeypatch):
    """No lock, no heal: the torn line and the next entry merge into one
    unparseable line that readers skip; later appends are unaffected."""
    monkeypatch.setattr(cache_module, "fcntl", None)
    path = tmp_path / "cache.jsonl"
    PersistentSolverCache(path).put("before", {"verdict": "equivalent"})
    with open(path, "a") as handle:
        handle.write('{"k":"torn","v":{"verd')  # crashed writer, no newline
    writer = PersistentSolverCache(path)
    writer.put("merged", {"verdict": "not-equivalent"})
    writer.put("after", {"verdict": "equivalent"})
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and all(line.strip() for line in lines)
    reader = PersistentSolverCache(path)
    assert reader.get("before") == {"verdict": "equivalent"}
    assert reader.get("after") == {"verdict": "equivalent"}
    assert "merged" not in reader and "torn" not in reader


def test_query_key_is_symmetric():
    a = builder.add(_field("/a"), builder.const(1, 16))
    b = builder.mul(_field("/b"), builder.const(2, 16))
    assert query_key(a, b) == query_key(b, a)
    assert query_key(a, b) != query_key(a, a)


def test_query_key_distinguishes_constant_widths():
    """Regression: the paper rendering omits Constant widths, so these two
    semantically different concatenations used to collide on one key."""
    from repro.symbolic.expr import Concat, Constant, InputField

    field = InputField(8, path="/x")
    first = Concat(32, parts=(Constant(8, 1), field, Constant(16, 2)))
    second = Concat(32, parts=(Constant(16, 1), field, Constant(8, 2)))
    reference = builder.const(0, 32)
    assert query_key(first, reference) != query_key(second, reference)


def test_checker_persists_verdicts_across_checker_lifetimes(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    options = EquivalenceOptions(persistent_cache_path=path)
    # x * 2 == x << 1 needs the exhaustive procedure (16 free bits).
    left = builder.mul(_field("/x"), builder.const(2, 16))
    right = builder.shl(_field("/x"), builder.const(1, 16))

    first = EquivalenceChecker(options=options)
    result = first.equivalent(left, right)
    assert result.verdict is Verdict.EQUIVALENT
    assert first.statistics.exhaustive_queries == 1
    assert first.statistics.persistent_cache_hits == 0

    # A brand-new checker (fresh in-memory cache) answers from disk.
    second = EquivalenceChecker(options=options)
    replay = second.equivalent(left, right)
    assert replay.verdict is Verdict.EQUIVALENT
    assert second.statistics.persistent_cache_hits == 1
    assert second.statistics.exhaustive_queries == 0
    assert second.statistics.solver_invocations == 0
    # Hit accounting: a persistent hit is not an evaluated query.
    assert second.statistics.evaluated_queries == 0


def test_witness_round_trips_through_the_persistent_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    options = EquivalenceOptions(persistent_cache_path=path)
    left = builder.add(_field("/y"), builder.const(1, 16))
    right = builder.add(_field("/y"), builder.const(2, 16))

    first = EquivalenceChecker(options=options).equivalent(left, right)
    assert first.verdict is Verdict.NOT_EQUIVALENT
    assert first.witness is not None

    replay = EquivalenceChecker(options=options).equivalent(left, right)
    assert replay.verdict is Verdict.NOT_EQUIVALENT
    assert replay.witness == first.witness
    assert replay.method == first.method


def test_empty_witness_survives_the_round_trip(tmp_path):
    """Two unequal constants disagree on the empty assignment: witness {}."""
    path = str(tmp_path / "cache.jsonl")
    options = EquivalenceOptions(persistent_cache_path=path)
    left = builder.const(1, 8)
    right = builder.const(2, 8)

    first = EquivalenceChecker(options=options).equivalent(left, right)
    assert first.verdict is Verdict.NOT_EQUIVALENT
    assert first.witness == {}

    replay = EquivalenceChecker(options=options).equivalent(left, right)
    assert replay.verdict is Verdict.NOT_EQUIVALENT
    assert replay.witness == {}


def test_disabled_by_default():
    checker = EquivalenceChecker()
    assert checker.persistent_cache is None


def test_swapped_operands_sample_identically_and_share_the_cached_verdict(tmp_path):
    """(A, B) and (B, A) are one query to both caches, so they must also be
    one query to the sampling RNG — otherwise cache warmth could flip the
    verdict one orientation computes."""
    path = str(tmp_path / "cache.jsonl")
    options = EquivalenceOptions(persistent_cache_path=path)
    left = builder.mul(_field("/w"), builder.const(2, 16))
    right = builder.shl(_field("/w"), builder.const(1, 16))

    forward = EquivalenceChecker(options=options).equivalent(left, right)
    swapped_checker = EquivalenceChecker(options=options)
    swapped = swapped_checker.equivalent(right, left)
    assert swapped.verdict is forward.verdict
    assert swapped_checker.statistics.persistent_cache_hits == 1


def test_trivially_recomputable_verdicts_are_not_persisted(tmp_path):
    path = tmp_path / "cache.jsonl"
    options = EquivalenceOptions(persistent_cache_path=str(path))
    checker = EquivalenceChecker(options=options)
    # Syntactic hit: identical expressions.
    expr = builder.add(_field("/s"), builder.const(1, 16))
    assert checker.equivalent(expr, expr).method == "syntactic"
    # Disjoint fields: filter answers without the solver.
    assert (
        checker.equivalent(_field("/left"), _field("/right")).method
        == "disjoint-fields"
    )
    assert not path.exists() or path.read_text() == ""


def test_option_variants_do_not_share_persistent_entries(tmp_path):
    """Verdicts are only valid under the options that produced them."""
    path = str(tmp_path / "cache.jsonl")
    left = builder.mul(_field("/z"), builder.const(2, 16))
    right = builder.shl(_field("/z"), builder.const(1, 16))

    strong = EquivalenceChecker(options=EquivalenceOptions(persistent_cache_path=path))
    strong.equivalent(left, right)

    weak = EquivalenceChecker(
        options=EquivalenceOptions(persistent_cache_path=path, sample_count=1)
    )
    weak.equivalent(left, right)
    # Different option fingerprints: the weak checker must not replay the
    # strong checker's verdict (nor vice versa).
    assert weak.statistics.persistent_cache_hits == 0
    assert weak.statistics.exhaustive_queries == 1

    same = EquivalenceChecker(options=EquivalenceOptions(persistent_cache_path=path))
    same.equivalent(left, right)
    assert same.statistics.persistent_cache_hits == 1


# -- per-process memoization of flat files -------------------------------------------


@pytest.fixture
def metrics_on():
    obs_metrics.REGISTRY.reset()
    obs_metrics.REGISTRY.enable()
    yield obs_metrics.REGISTRY
    obs_metrics.REGISTRY.reset()
    obs_metrics.REGISTRY.disable()


def _lines_loaded(registry) -> float:
    return registry.counter("solver.persistent_lines_loaded")


def _append_from_another_process(path, key: str) -> None:
    process = multiprocessing.get_context("fork").Process(
        target=_put, args=(str(path), key)
    )
    process.start()
    process.join(timeout=30)
    assert process.exitcode == 0


def _put(path: str, key: str) -> None:
    PersistentSolverCache(path).put(key, {"verdict": "equivalent"})


def test_reopening_a_path_reuses_the_instance_and_parses_only_new_lines(
    tmp_path, metrics_on
):
    path = tmp_path / "cache.jsonl"
    writer = PersistentSolverCache(path)
    writer.put("k1", {"verdict": "equivalent"})
    writer.put("k2", {"verdict": "equivalent"})

    first = open_solver_cache(str(path))
    assert _lines_loaded(metrics_on) == 2
    writer.put("k3", {"verdict": "not-equivalent"})

    second = open_solver_cache(str(path))
    assert second is first
    assert second.get("k1") == {"verdict": "equivalent"}
    assert second.get("k3") == {"verdict": "not-equivalent"}
    # k1 and k2 were parsed once; the reopen and the miss read only k3.
    assert _lines_loaded(metrics_on) == 3


def test_memoized_instance_sees_a_line_another_process_appended(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = open_solver_cache(str(path))
    cache.put("mine", {"verdict": "equivalent"})
    _append_from_another_process(path, "theirs")
    assert open_solver_cache(str(path)) is cache
    assert cache.get("theirs") == {"verdict": "equivalent"}


def test_delete_and_recreate_at_the_same_path_gives_a_fresh_load(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = open_solver_cache(str(path))
    first.put("k1", {"verdict": "equivalent"})
    path.unlink()
    # Same-length lines and a larger file: the inode may be reused and the
    # size passes, so only the content check can tell the files apart.
    recreated = PersistentSolverCache(path)
    recreated.put("k2", {"verdict": "equivalent"})
    recreated.put("k3", {"verdict": "equivalent"})

    reopened = open_solver_cache(str(path))
    assert reopened is not first
    assert "k1" not in reopened
    assert reopened.get("k2") == {"verdict": "equivalent"}


def test_truncation_gives_a_fresh_load(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = open_solver_cache(str(path))
    first.put("k1", {"verdict": "equivalent"})
    first.put("k2", {"verdict": "equivalent"})

    path.write_bytes(b"")
    emptied = open_solver_cache(str(path))
    assert emptied is not first
    assert len(emptied) == 0

    emptied.put("k3", {"verdict": "equivalent"})
    with open(path, "r+b") as handle:
        handle.truncate(0)
    PersistentSolverCache(path).put("k4", {"verdict": "equivalent"})
    PersistentSolverCache(path).put("k5", {"verdict": "equivalent"})
    refilled = open_solver_cache(str(path))
    assert refilled is not emptied
    assert "k3" not in refilled
    assert refilled.get("k5") == {"verdict": "equivalent"}


def test_checkers_in_one_process_load_each_line_once(tmp_path, metrics_on):
    """N jobs' checkers share one instance: each line is parsed once, not N times."""
    path = tmp_path / "cache.jsonl"
    sibling = PersistentSolverCache(path)
    for index in range(5):
        sibling.put(f"warm-{index}", {"verdict": "equivalent"})
    options = EquivalenceOptions(persistent_cache_path=str(path))

    for job in range(4):
        # Each job misses on its own query, so it looks for appended lines.
        left = builder.mul(_field(f"/n{job}"), builder.const(2, 16))
        right = builder.shl(_field(f"/n{job}"), builder.const(1, 16))
        checker = EquivalenceChecker(options=options)
        assert checker.equivalent(left, right).verdict is Verdict.EQUIVALENT
        if job == 1:
            sibling.put("late-1", {"verdict": "equivalent"})
            sibling.put("late-2", {"verdict": "equivalent"})
    # The sibling's 5 + 2 lines are parsed once each.  The jobs' own verdicts
    # land at the loaded offset and are never parsed back; a fresh instance
    # per job would have parsed 5 + 6 + 9 + 10 = 30 lines.
    assert _lines_loaded(metrics_on) == 7
    assert len(path.read_text().splitlines()) == 11


def test_threads_sharing_one_instance_write_each_key_once_and_skip_no_line(tmp_path):
    """The daemon's sessions share one instance across threads."""
    path = tmp_path / "cache.jsonl"
    shared = open_solver_cache(str(path))
    sibling = PersistentSolverCache(path)  # a writer in another process
    keys = [f"key-{index}" for index in range(150)]

    def work(thread: int) -> None:
        for index, key in enumerate(keys):
            shared.put(key, {"verdict": "equivalent"})  # every thread, same keys
            if thread == 0:
                sibling.put(f"sibling-{index}", {"verdict": "equivalent"})
            shared.refresh()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=work, args=(thread,)) for thread in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    shared.refresh()
    written = [json.loads(line)["k"] for line in path.read_text().splitlines()]
    assert len(written) == len(set(written)) == 2 * len(keys)
    assert all(key in shared for key in written)
    assert shared.describes_file()


# -- one process, many scenario jobs ---------------------------------------------------


def _comparable(result: dict) -> tuple[dict, dict]:
    record = {
        name: value
        for name, value in result["record"].items()
        if name not in ("generation_time_s", "stage_timings")
    }
    counters = {
        name: value
        for name, value in result["metrics"]["counters"].items()
        if not name.endswith(".seconds") and name != "solver.persistent_lines_loaded"
    }
    return record, counters


def test_matrix_jobs_on_a_shared_instance_match_a_fresh_cache_per_job(
    tmp_path, monkeypatch
):
    """Reusing the flat cache across jobs changes no record and no counter."""
    from repro.lang import clear_compile_cache
    from repro.scenarios import corpus_plan, generate_corpus
    from repro.scenarios.runner import matrix_job_runner

    corpus = generate_corpus(seed=0, pairs_per_class=1)
    jobs = [job.to_dict() for job in corpus_plan(corpus).jobs]
    manifest = str(corpus.save(tmp_path / "scenarios.json"))

    def campaign(store: str, fresh_per_job: bool) -> list:
        clear_compile_cache()
        cache_path = str(tmp_path / store / "solver_cache.jsonl")
        results = []
        # Twice over the matrix, so the second pass answers from the file.
        for payload in jobs + jobs:
            if fresh_per_job:
                monkeypatch.setattr(cache_module, "_OPEN_FLAT", {})
            results.append(
                _comparable(matrix_job_runner(payload, cache_path, manifest))
            )
        return results

    fresh = campaign("fresh", fresh_per_job=True)
    shared = campaign("shared", fresh_per_job=False)
    assert shared == fresh
    assert sum(record["solver_persistent_hits"] for record, _ in shared) > 0
