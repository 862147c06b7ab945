"""The concrete artifact: when untracked runs get it, and what it leaves behind.

Value-level parity with the interpreter is proved by
``tests/lang/test_vm_differential.py``; this suite pins down artifact
selection, the fallback for programs whose run-time types are not static,
the compile-cache key, and telemetry.
"""

from __future__ import annotations

import pytest

from repro.lang import VM, VMConfig, clear_compile_cache, compile_cache_info, compile_program
from repro.lang.concrete import compile_concrete
from repro.lang.memory import WrappedInt, wrapped_int
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer, trace_session

#: Programs whose values may change type behind the checker's back.
NOT_CONCRETE = {
    "pointer cast": """
        int main() {
            u32 x = 258;
            u32* p = &x;
            u8* q = (u8*) p;
            emit(*q);
            return 0;
        }
    """,
    "non-i32 fall-through": """
        u8 pick(u8 v) {
            if (v > 1) {
                return v;
            }
        }
        int main() {
            emit(pick(0) + 1);
            return 0;
        }
    """,
    "local shadowing a global of another type": """
        u8 g;
        int main() {
            u32 i = 0;
            while (i < 2) {
                emit(g + 1);
                u32 g = 300;
                i = i + 1;
            }
            return 0;
        }
    """,
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _tiers(program) -> list[str]:
    tracer = Tracer()
    with trace_session(tracer):
        VM(program, config=VMConfig(track_symbolic=False)).run(b"")
    return [span.attrs["tier"] for span in tracer.spans if span.name == "vm-run"]


@pytest.mark.parametrize("name", sorted(NOT_CONCRETE))
def test_programs_without_static_types_run_on_the_interpreter(name: str) -> None:
    program = compile_program(NOT_CONCRETE[name])
    assert compile_concrete(program) is None
    assert _tiers(program) == ["interpreter"]
    untracked = VM(program, config=VMConfig(track_symbolic=False)).run(b"")
    interpreted = VM(
        program, config=VMConfig(track_symbolic=False, use_compiled=False)
    ).run(b"")
    assert untracked.behaviour() == interpreted.behaviour()
    assert untracked.steps == interpreted.steps


def test_shadowed_global_reads_the_stale_local() -> None:
    # The behaviour the fallback preserves: the second iteration's read of
    # ``g`` sees the u32 local the first iteration declared.
    program = compile_program(NOT_CONCRETE["local shadowing a global of another type"])
    result = VM(program, config=VMConfig(track_symbolic=False)).run(b"")
    assert result.output == [1, 301]


def test_untracked_runs_take_the_concrete_artifact() -> None:
    program = compile_program("int main() { emit(read_byte() * 2); return 0; }")
    assert _tiers(program) == ["concrete"]
    digests = compile_cache_info()["digests"]
    assert (program.digest, "concrete") in digests
    # An untracked run builds no tracked artifact.
    assert program.digest not in digests


def test_refusal_is_cached() -> None:
    program = compile_program(NOT_CONCRETE["pointer cast"])
    assert compile_concrete(program) is None
    assert (program.digest, "concrete") in compile_cache_info()["digests"]
    assert compile_concrete(program) is None


def test_concrete_runs_are_counted() -> None:
    program = compile_program("int main() { return 0; }")
    registry = obs_metrics.REGISTRY
    was_enabled = registry.enabled
    registry.enable()
    before = (registry.counter("vm.runs_concrete"), registry.counter("vm.runs_compiled"))
    try:
        VM(program, config=VMConfig(track_symbolic=False)).run(b"")
        VM(program).run(b"")
        after = (registry.counter("vm.runs_concrete"), registry.counter("vm.runs_compiled"))
    finally:
        if not was_enabled:
            registry.disable()
    # Both runs are compiled; one of them on the concrete artifact.
    assert (after[0] - before[0], after[1] - before[1]) == (1, 2)


def test_wrapped_int_reads_as_its_wrapped_value() -> None:
    value = wrapped_int(4, 4 + (1 << 32))
    assert isinstance(value, WrappedInt)
    assert value == 4 and value + 1 == 5 and value.true_value == 4 + (1 << 32)
    assert (value + 1).__class__ is int
