"""E4 — ablation of the two solver-call optimisations (§3.3).

"CP implements two optimizations that reduce the number of solver invocations:
1) if two symbolic expressions depend on different sets of input bytes, CP
does not invoke the solver and 2) CP caches all queries ... Together, these
two optimizations produce an order of magnitude reduction in the translation
times."  The bench reruns the rewrite stage of the worked example with the
optimisations enabled and disabled and compares expensive solver invocations.

The paper's ablation measures a rewrite that asks the solver about every
recipient name at every subtree.  The product's rewrite sends only the names
whose fingerprint matches the subtree's, which leaves the two optimisations
almost nothing to save.  The bench therefore drives the scan Rewrite kept as a
test oracle (``tests/core/rewrite_scan_oracle.py``) and prints the product's
query count beside it.
"""

import sys
from pathlib import Path

import pytest

from repro.apps import get_application
from repro.core import (
    Rewriter,
    discover_candidate_checks,
    excise_check,
    find_insertion_points,
    relevant_fields,
)
from repro.experiments import ERROR_CASES
from repro.formats import get_format
from repro.solver import EquivalenceChecker, EquivalenceOptions

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "core"))
from rewrite_scan_oracle import ScanRewriter  # noqa: E402


CASE = ERROR_CASES["cwebp-jpegdec"]


@pytest.fixture(scope="module")
def rewrite_inputs():
    donor = get_application("feh")
    fmt = get_format("jpeg")
    seed, error = CASE.seed_input(), CASE.error_input()
    discovery = discover_candidate_checks(
        donor.program(), fmt, seed, error, relevant=relevant_fields(fmt, seed, error)
    )
    excised = excise_check(discovery.candidates[0], donor_name="feh")
    report = find_insertion_points(
        CASE.application().program(), seed, fmt.field_map(seed), excised.fields
    )
    return excised, report.stable_points


def _rewrite_all(excised, points, options: EquivalenceOptions, rewriter=ScanRewriter):
    checker = EquivalenceChecker(options=options)
    translated = 0
    for point in points:
        if rewriter(point.names, checker=checker).rewrite(excised.guard) is not None:
            translated += 1
    return checker.statistics, translated


def test_optimisations_reduce_solver_work(rewrite_inputs):
    excised, points = rewrite_inputs
    optimised, translated_opt = _rewrite_all(excised, points, EquivalenceOptions())
    unoptimised, translated_raw = _rewrite_all(
        excised, points, EquivalenceOptions(use_cache=False, use_disjoint_field_filter=False)
    )
    print("\nSolver statistics, optimisations on vs off:")
    print(f"  queries evaluated: {optimised.evaluated_queries} vs {unoptimised.evaluated_queries}")
    print(f"  cache hits: {optimised.cache_hits}, disjoint-field skips: {optimised.disjoint_field_skips}")
    indexed, translated_index = _rewrite_all(
        excised, points, EquivalenceOptions(), rewriter=Rewriter
    )
    print(
        f"  product rewrite (fingerprint index): {indexed.queries} queries, "
        f"{indexed.evaluated_queries} evaluated vs the scan's {optimised.queries} "
        f"and {optimised.evaluated_queries}"
    )
    assert translated_index == translated_opt
    assert translated_opt == translated_raw  # same results, less work
    assert optimised.cache_hits > 0
    # The paper reports an order-of-magnitude reduction in translation times;
    # the number of queries that must actually be evaluated shows the same factor.
    assert optimised.evaluated_queries * 5 <= unoptimised.evaluated_queries


def test_bench_rewrite_with_optimisations(rewrite_inputs, benchmark):
    excised, points = rewrite_inputs
    benchmark.pedantic(
        _rewrite_all, args=(excised, points, EquivalenceOptions()), rounds=1, iterations=1
    )


def test_bench_rewrite_without_optimisations(rewrite_inputs, benchmark):
    excised, points = rewrite_inputs
    benchmark.pedantic(
        _rewrite_all,
        args=(excised, points, EquivalenceOptions(use_cache=False, use_disjoint_field_filter=False)),
        rounds=1,
        iterations=1,
    )


# ---------------------------------------------------------------------------
# Interned IR: verdict and cache-key stability, cold vs warm memo
# ---------------------------------------------------------------------------


def test_interned_cache_keys_stable_across_checkers(rewrite_inputs, tmp_path):
    """Digest-derived persistent keys hit across checker/process boundaries.

    A second checker sharing the cache file must answer the same queries
    from the persistent cache (hit rate not degraded by interning) and reach
    identical translation results — digests, unlike object ids or interning
    order, are pure functions of expression structure.
    """
    excised, points = rewrite_inputs
    cache_path = str(tmp_path / "solver_cache.jsonl")

    cold, translated_cold = _rewrite_all(
        excised, points, EquivalenceOptions(persistent_cache_path=cache_path)
    )
    warm, translated_warm = _rewrite_all(
        excised, points, EquivalenceOptions(persistent_cache_path=cache_path)
    )

    assert translated_warm == translated_cold  # same verdicts
    assert warm.persistent_cache_hits > 0
    # Every expensive verdict the cold run computed is replayed, not redone.
    assert warm.solver_invocations < cold.solver_invocations or (
        cold.solver_invocations == 0
    )
    print(
        f"\npersistent cache across checkers: cold {cold.solver_invocations} "
        f"expensive queries, warm {warm.solver_invocations} "
        f"({warm.persistent_cache_hits} persistent hits)"
    )


def test_warm_simplify_memo_eliminates_rewrite_simplification(rewrite_inputs):
    """Re-running the whole rewrite stage re-simplifies (almost) nothing.

    The simplify memo is process-wide and keyed by interned node identity,
    so the donor check and the recipient-name expressions — already
    simplified by earlier queries — cost one memo probe each on repeat runs.
    """
    from repro.symbolic import reset_simplify_cache_stats, simplify_cache_stats

    excised, points = rewrite_inputs
    _rewrite_all(excised, points, EquivalenceOptions())  # prime the memo

    reset_simplify_cache_stats()
    _rewrite_all(excised, points, EquivalenceOptions())
    stats = simplify_cache_stats()
    print(
        f"\nwarm rewrite stage: {stats['visits']} simplify node visits, "
        f"{stats['hits']} memo hits"
    )
    assert stats["visits"] == 0
    assert stats["hits"] > 0
