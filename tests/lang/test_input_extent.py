"""An untracked run depends only on the input bytes it read.

MicroC reads its input forward only (``docs/VM.md``), so two inputs of the
same length that agree on ``data[:input_extent]`` must give equal run
results.  DIODE's trial memo (``discovery/diode.py``) reuses results on
exactly that premise; this property pins it on both untracked tiers, over
the Figure 8 applications with random byte mutations and random tails.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ERROR_CASES
from repro.lang import compile_program
from repro.lang.vm import VM, VMConfig

CASE_IDS = sorted(ERROR_CASES)

#: Reads past the end, skips and ``input_remaining``: every way a program
#: moves or inspects the input cursor.
CURSOR_PROGRAM = """
    int main() {
        u8 n = read_byte();
        skip_bytes(n);
        emit(input_remaining());
        u16 w = read_u16_be();
        if (w > 300) {
            exit(2);
        }
        emit(w);
        return 0;
    }
"""


def _program(case_id: str):
    if case_id == "cursor":
        return compile_program(CURSOR_PROGRAM, name="cursor")
    return ERROR_CASES[case_id].application().program()


def _base_inputs(case_id: str) -> tuple[bytes, ...]:
    if case_id == "cursor":
        return (bytes([1, 9, 0, 5, 7]), bytes([0, 1, 2, 3, 4, 5]), bytes([200, 1, 2]))
    case = ERROR_CASES[case_id]
    return (case.seed_input(), case.error_input())


@st.composite
def _input_pairs(draw):
    """A program and two equal-length inputs that agree on the first one's read bytes."""
    case_id = draw(st.sampled_from([*CASE_IDS, "cursor"]))
    data = bytearray(draw(st.sampled_from(_base_inputs(case_id))))
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    tail_seed = draw(st.binary(min_size=len(data), max_size=len(data)))
    return case_id, bytes(data), tail_seed


@pytest.mark.parametrize("compiled", [True, False], ids=["concrete", "interpreter"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(pair=_input_pairs())
def test_equal_read_bytes_give_equal_results(compiled: bool, pair) -> None:
    case_id, data, tail_seed = pair
    vm = VM(_program(case_id), config=VMConfig(track_symbolic=False, use_compiled=compiled))
    first = vm.run(data)
    extent = first.input_extent
    assert 0 <= extent <= len(data)
    other = data[:extent] + tail_seed[extent:]
    assert len(other) == len(data)
    assert vm.run(other) == first


def test_figure8_runs_read_less_than_the_whole_input() -> None:
    """The property above is not vacuous: the applications stop reading early."""
    for case_id in CASE_IDS:
        case = ERROR_CASES[case_id]
        vm = VM(case.application().program(), config=VMConfig(track_symbolic=False))
        for data in (case.seed_input(), case.error_input()):
            assert vm.run(data).input_extent < len(data), case_id
