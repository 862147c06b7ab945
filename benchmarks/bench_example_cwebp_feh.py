"""E2 — the Section 2 worked example: transferring the FEH check into CWebP.

The paper shows that the complex application-independent excised check (the
IMAGE_DIMENSIONS_OK computation including the donor's endianness conversions)
translates into a one-line recipient patch over ``dinfo.output_width`` and
``dinfo.output_height`` with the 536870911 ((1 << 29) - 1) bound.
"""

import pytest

from repro.api import RepairRequest, repair
from repro.experiments import ERROR_CASES
from repro.lang import RunStatus, run_program
from repro.formats import get_format


CASE = ERROR_CASES["cwebp-jpegdec"]


def _run_transfer():
    return repair(RepairRequest.for_case(CASE, donor="feh")).outcome


@pytest.fixture(scope="module")
def outcome():
    return _run_transfer()


def test_transfer_succeeds(outcome):
    assert outcome.success


def test_patch_matches_paper_shape(outcome):
    patch = outcome.checks[-1].patch
    assert "536870911" in patch.condition_source
    assert "dinfo.output_width" in patch.condition_source
    assert "dinfo.output_height" in patch.condition_source
    # The excised check is larger than the translated check (57 -> 4 in the paper).
    assert patch.excised_size >= patch.translated_size


def test_patched_cwebp_rejects_error_input_and_keeps_seed(outcome):
    fmt = get_format("jpeg")
    from repro.lang import compile_program

    patched = compile_program(outcome.patched_source, name="cwebp-patched")
    error_run = run_program(patched, CASE.error_input(), fmt.field_map(CASE.error_input()))
    seed_run = run_program(patched, CASE.seed_input(), fmt.field_map(CASE.seed_input()))
    assert error_run.status is RunStatus.EXIT and error_run.exit_code == -1
    assert seed_run.accepted


def test_bench_cwebp_feh_transfer(benchmark):
    outcome = benchmark.pedantic(_run_transfer, rounds=1, iterations=1)
    assert outcome.success
