"""E5 — candidate insertion points and the unstable-point filter.

Figure 8's "Candidate Insertion Pts" column has the form X - Y - Z = W; this
bench reports X (candidates) and Y (unstable) per recipient/check pair and
verifies that the unstable points CP filters really do see different values on
different executions (multipurpose helper code in the recipients).
"""

import pytest

from repro.apps import get_application
from repro.core import (
    discover_candidate_checks,
    excise_check,
    find_insertion_points,
    relevant_fields,
)
from repro.experiments import ERROR_CASES
from repro.formats import get_format


def _insertion_report(case_id: str, donor_name: str):
    case = ERROR_CASES[case_id]
    donor = get_application(donor_name)
    fmt = get_format(case.format_name)
    seed, error = case.seed_input(), case.error_input()
    discovery = discover_candidate_checks(
        donor.program(), fmt, seed, error, relevant=relevant_fields(fmt, seed, error)
    )
    excised = excise_check(discovery.candidates[0])
    return find_insertion_points(
        case.application().program(), seed, fmt.field_map(seed), excised.fields
    )


def test_unstable_points_filtered_for_dillo():
    # Dillo's describe_pair helper runs with different values on different
    # invocations: its interior points must be classified unstable.
    report = _insertion_report("dillo-png", "feh")
    assert report.candidate_count > 0
    assert report.unstable_count >= 1
    assert all(point.function == "describe_pair" for point in report.unstable_points)


def test_stable_points_expose_required_fields():
    report = _insertion_report("cwebp-jpegdec", "feh")
    assert report.unstable_count == 0 or report.stable_count > 0
    for point in report.stable_points:
        reachable = set()
        for name in point.names:
            reachable |= name.expression.fields()
        assert report.required_fields <= reachable


def test_insertion_point_accounting_across_recipients():
    rows = [
        ("cwebp-jpegdec", "feh"),
        ("dillo-png", "mtpaint"),
        ("display-xwindow", "viewnior"),
        ("jasper-tiles", "openjpeg"),
        ("wireshark-dcp", "wireshark-1.8.6"),
    ]
    print("\nCandidate insertion points (X) and unstable points (Y):")
    for case_id, donor in rows:
        report = _insertion_report(case_id, donor)
        print(f"  {case_id:18s} donor={donor:16s} X={report.candidate_count:3d} Y={report.unstable_count}")
        assert report.candidate_count >= 1
        assert report.stable_count >= 1


def test_bench_insertion_analysis(benchmark):
    benchmark.pedantic(_insertion_report, args=("cwebp-jpegdec", "feh"), rounds=1, iterations=1)
