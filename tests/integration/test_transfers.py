"""Integration tests: full CP transfers for a representative subset of Figure 8.

The complete table is regenerated by the benchmark harness
(``benchmarks/bench_figure8_table.py``); the integration tests here keep the
regular test suite fast while still exercising every error class (integer
overflow, out-of-bounds write, divide-by-zero), every donor, and the retry /
validation machinery.
"""

import pytest

from repro.api import CodePhageOptions, RepairRequest, RepairSession
from repro.core.patch import PatchStrategy
from repro.experiments import ERROR_CASES, Figure8Row, run_row
from repro.formats import get_format
from repro.lang import RunStatus, compile_program, run_program


FAST_ROWS = [
    ("cwebp-jpegdec", "feh"),
    ("cwebp-jpegdec", "mtpaint"),
    ("cwebp-jpegdec", "viewnior"),
    ("dillo-png", "mtpaint"),
    ("display-resize", "viewnior"),
    ("swfplay-jpeg", "gnash"),
    ("jasper-tiles", "openjpeg"),
    ("gif2tiff-lzw", "display-6.5.2-9"),
    ("wireshark-dcp", "wireshark-1.8.6"),
]


@pytest.mark.parametrize("case_id,donor", FAST_ROWS, ids=lambda v: str(v))
def test_row_transfers_and_validates(case_id, donor):
    outcome = run_row(Figure8Row(case_id=case_id, donor=donor))
    assert outcome.success, outcome.failure_reason

    case = ERROR_CASES[case_id]
    fmt = get_format(case.format_name)
    patched = compile_program(outcome.patched_source, name="patched")

    # The error-triggering input no longer triggers the error.
    error_run = run_program(patched, case.error_input(), fmt.field_map(case.error_input()))
    assert error_run.ok and error_run.status in (RunStatus.EXIT, RunStatus.OK)

    # The seed input is still processed to completion with identical output.
    original = case.application().program()
    seed = case.seed_input()
    assert (
        run_program(patched, seed, fmt.field_map(seed)).behaviour()
        == run_program(original, seed, fmt.field_map(seed)).behaviour()
    )


def test_jasper_patch_uses_recipient_data_structures():
    """§4.3: the OpenJPEG tw*th product maps onto JasPer's numtiles field."""
    outcome = run_row(Figure8Row(case_id="jasper-tiles", donor="openjpeg"))
    patch = outcome.checks[-1].patch
    assert "tileno" in patch.condition_source
    assert "numtiles" in patch.condition_source


def test_gif2tiff_patch_enforces_the_specification_limit():
    """§4.4: the transferred check enforces the GIF 12-bit code-size limit."""
    outcome = run_row(Figure8Row(case_id="gif2tiff-lzw", donor="display-6.5.2-9"))
    patch = outcome.checks[-1].patch
    assert "12" in patch.condition_source
    assert "datasize" in patch.condition_source


def _run(case_id: str, options=None, **fields):
    """Repair one paper case through the facade; fields refine the request."""
    case = ERROR_CASES[case_id]
    return RepairSession(options=options).run(RepairRequest.for_case(case, **fields))


def test_repair_tries_donors_until_one_validates():
    outcome = _run("cwebp-jpegdec").outcome
    assert outcome.success
    assert outcome.donor in ("feh-2.9.3", "mtpaint-3.40", "viewnior-1.4")


def test_unstable_point_filter_can_be_disabled():
    options = CodePhageOptions(filter_unstable_points=False)
    outcome = _run("dillo-png", options, donor="feh").outcome
    # Even without the filter the pipeline validates a patch (stable points
    # are still preferred because patches are sorted by size).
    assert outcome.success


def test_return_zero_strategy_for_divide_by_zero():
    case = ERROR_CASES["wireshark-dcp"]
    options = CodePhageOptions(patch_strategy=PatchStrategy.RETURN_ZERO)
    outcome = _run("wireshark-dcp", options, donor="wireshark-1.8.6").outcome
    assert outcome.success
    fmt = get_format("dcp")
    patched = compile_program(outcome.patched_source, name="wireshark-patched")
    result = run_program(patched, case.error_input(), fmt.field_map(case.error_input()))
    assert result.status is RunStatus.OK


def test_discovered_inputs_also_drive_transfers():
    """The hand-specified error values are not load-bearing: DIODE finds its own."""
    from repro.experiments import discover_error_input

    error_input = discover_error_input("cwebp-jpegdec")
    assert error_input is not None
    case = ERROR_CASES["cwebp-jpegdec"]
    request = RepairRequest.for_case(case, donor="feh")
    request.error_input = error_input
    assert RepairSession().run(request).success
