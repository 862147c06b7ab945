"""E7 — the alternate divide-by-zero strategy (§4.5).

"Empirically, returning zero as the result of divide by zero errors often
enables the application to continue to execute productively.  We therefore
implemented an alternate strategy that returns 0 if the check fires rather
than exiting."  The bench transfers the Wireshark 1.8.6 guard into Wireshark
1.4.14 with both strategies and compares the behaviour of the patched
dissector on the degenerate packet.
"""

import pytest

from repro.api import CodePhageOptions, RepairRequest, repair
from repro.core import PatchStrategy
from repro.experiments import ERROR_CASES
from repro.formats import get_format
from repro.lang import RunStatus, compile_program, run_program


CASE = ERROR_CASES["wireshark-dcp"]


def _transfer(strategy: PatchStrategy):
    request = RepairRequest.for_case(CASE, donor="wireshark-1.8.6")
    return repair(request, options=CodePhageOptions(patch_strategy=strategy)).outcome


@pytest.fixture(scope="module")
def exit_outcome():
    return _transfer(PatchStrategy.EXIT)


@pytest.fixture(scope="module")
def return_zero_outcome():
    return _transfer(PatchStrategy.RETURN_ZERO)


def _run_patched(outcome, data):
    fmt = get_format("dcp")
    program = compile_program(outcome.patched_source, name="wireshark-patched")
    return run_program(program, data, fmt.field_map(data))


def test_both_strategies_eliminate_the_error(exit_outcome, return_zero_outcome):
    assert exit_outcome.success
    assert return_zero_outcome.success


def test_exit_strategy_rejects_the_packet(exit_outcome):
    result = _run_patched(exit_outcome, CASE.error_input())
    assert result.status is RunStatus.EXIT
    assert result.exit_code == -1


def test_return_zero_strategy_continues_execution(return_zero_outcome):
    """§4.5: the return-0 strategy delivers correct continued execution."""
    result = _run_patched(return_zero_outcome, CASE.error_input())
    assert result.status is RunStatus.OK
    assert result.error is None


def test_seed_behaviour_is_identical_under_both(exit_outcome, return_zero_outcome):
    seed = CASE.seed_input()
    assert _run_patched(exit_outcome, seed).behaviour() == _run_patched(
        return_zero_outcome, seed
    ).behaviour()


def test_bench_multiversion_transfer(benchmark):
    outcome = benchmark.pedantic(_transfer, args=(PatchStrategy.EXIT,), rounds=1, iterations=1)
    assert outcome.success
