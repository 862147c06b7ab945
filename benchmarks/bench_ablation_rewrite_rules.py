"""E3 — ablation of the Figure 5 bit-manipulation rewrite rules.

The paper: the rules "significantly reduce the size and complexity of the
extracted symbolic expressions".  The bench excises the candidate check for
each Figure 8 error/donor pair twice — with the rules enabled and disabled —
and compares operation counts.
"""

import pytest

from repro.apps import get_application
from repro.core import discover_candidate_checks, excise_check, relevant_fields
from repro.experiments import FIGURE8_ROWS
from repro.formats import get_format
from repro.symbolic import SimplifyOptions, operation_count


def _excised_sizes(simplify_options):
    sizes = {}
    for row in FIGURE8_ROWS:
        case = row.case
        donor = get_application(row.donor)
        fmt = get_format(case.format_name)
        seed, error = case.seed_input(), case.error_input()
        discovery = discover_candidate_checks(
            donor.program(), fmt, seed, error,
            relevant=relevant_fields(fmt, seed, error),
            simplify_options=simplify_options,
        )
        if not discovery.candidates:
            continue
        excised = excise_check(
            discovery.candidates[0], donor_name=row.donor, error_run=discovery.error_run
        )
        sizes[(case.case_id, row.donor)] = operation_count(excised.condition)
    return sizes


@pytest.fixture(scope="module")
def with_rules():
    return _excised_sizes(SimplifyOptions())


@pytest.fixture(scope="module")
def without_rules():
    return _excised_sizes(SimplifyOptions.without_bit_slicing())


def test_rules_reduce_excised_check_size(with_rules, without_rules):
    assert set(with_rules) == set(without_rules)
    total_with = sum(with_rules.values())
    total_without = sum(without_rules.values())
    print("\nExcised check size (operations), rules on vs off:")
    for key in sorted(with_rules):
        print(f"  {key[0]:18s} donor={key[1]:16s} {without_rules[key]:4d} -> {with_rules[key]:4d}")
    print(f"  TOTAL {total_without} -> {total_with}")
    assert total_with < total_without
    # No individual check gets bigger because of the rules.
    assert all(with_rules[key] <= without_rules[key] for key in with_rules)


def test_bench_excision_with_rules(benchmark):
    benchmark.pedantic(_excised_sizes, args=(SimplifyOptions(),), rounds=1, iterations=1)
