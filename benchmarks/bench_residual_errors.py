"""E8 — recursive elimination of residual errors (the multi-patch rows).

Several Figure 8 rows transfer more than one check: after the first patch,
re-running DIODE on the patched recipient produces a new error-triggering
input, and CP recursively transfers additional checks until DIODE finds
nothing ("[X1, ..., Xn]" entries).  The bench reproduces that behaviour by
widening the validation rescan to every allocation site of the recipient
(Swfplay: the sampling-factor buffers *and* the RGBA merge buffers).
"""

import pytest

from repro.api import CodePhageOptions, RepairRequest, RepairSession
from repro.core.validation import ValidationOptions
from repro.experiments import ERROR_CASES


CASE = ERROR_CASES["swfplay-jpeg"]


def _transfer_with_program_scope():
    options = CodePhageOptions(validation=ValidationOptions(diode_scope="program"))
    session = RepairSession(options=options)
    return session.run(RepairRequest.for_case(CASE, donor="gnash")).outcome


@pytest.fixture(scope="module")
def outcome():
    return _transfer_with_program_scope()


def test_recursion_transfers_multiple_checks(outcome):
    assert outcome.success
    assert outcome.metrics.used_checks >= 2
    assert len(outcome.metrics.flipped_branches) >= 2


def test_final_program_has_no_overflow_anywhere(outcome):
    from repro.discovery import Diode
    from repro.formats import get_format
    from repro.lang import compile_program

    program = compile_program(outcome.patched_source, name="swfplay-hardened")
    findings = Diode(program, get_format("swf")).discover(CASE.seed_input())
    assert findings == []


def test_per_check_accounting_recorded(outcome):
    assert len(outcome.metrics.insertion_accounting) == outcome.metrics.used_checks
    assert len(outcome.metrics.check_sizes) == outcome.metrics.used_checks


def test_bench_recursive_repair(benchmark):
    result = benchmark.pedantic(_transfer_with_program_scope, rounds=1, iterations=1)
    assert result.success
