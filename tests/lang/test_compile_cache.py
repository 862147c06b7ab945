"""Regression tests for the content-addressed compile cache.

The stale-cache bug class: a compiled artifact outliving the source it was
built from.  The cache is keyed by ``program_digest`` (SHA-256 of the source
text), so every semantic change — in particular a ``patcher`` rewrite that
inserts a transferred check — lands under a fresh key and the stale artifact
is unreachable by construction.  These tests pin that property down,
including across ``scoped_registration`` boundaries (campaign workers
register and tear down generated applications constantly) and at the LRU
capacity bound.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import Application, scoped_registration
from repro.lang import (
    RunStatus,
    SourcePatch,
    apply_patch,
    clear_compile_cache,
    compile_bytecode,
    compile_cache_info,
    compile_program,
    parse_program,
    program_digest,
    run_program,
)

SOURCE = """
struct image { u32 width; u32 height; };

int load() {
    struct image img;
    img.width = read_u16_be();
    img.height = read_u16_be();
    u8* data = malloc(img.width * img.height * 4);
    if (data == 0) {
        return 1;
    }
    emit(img.width);
    return 0;
}

int main() {
    return load();
}
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _anchor_statement() -> int:
    unit = parse_program(SOURCE)
    return unit.function("load").body.statements[2].node_id


class TestPatcherInvalidation:
    def test_patched_program_compiles_under_fresh_key(self):
        original = compile_program(SOURCE)
        compile_bytecode(original)  # warm the cache with the unpatched form

        patch = SourcePatch(_anchor_statement(), "img.width > 1000")
        patched = apply_patch(SOURCE, patch)

        assert program_digest(patched.program) != program_digest(original)
        compile_bytecode(patched.program)
        digests = compile_cache_info()["digests"]
        assert program_digest(original) in digests
        assert program_digest(patched.program) in digests

    def test_patched_behaviour_not_served_from_stale_artifact(self):
        # Run the unpatched program first so its compiled form is cached,
        # then run the patched program: the check must actually fire.
        big = (2000).to_bytes(2, "big") + (10).to_bytes(2, "big")
        original = compile_program(SOURCE)
        assert run_program(original, big).accepted

        patch = SourcePatch(_anchor_statement(), "img.width > 1000")
        patched = apply_patch(SOURCE, patch)
        assert run_program(patched.program, big).status is RunStatus.EXIT
        # And the original, still-cached artifact keeps its old behaviour.
        assert run_program(original, big).accepted

    def test_equal_sources_share_one_artifact(self):
        first = compile_program(SOURCE, name="a")
        second = compile_program(SOURCE, name="a")
        assert compile_bytecode(first) is compile_bytecode(second)
        assert compile_cache_info()["entries"] == 1


class TestScopedRegistrationBoundaries:
    """Campaign workers re-register generated apps; content addressing makes
    the compile cache immune to name reuse across those boundaries, and each
    scope takes the artifacts it first compiled with it."""

    def _app(self, source: str) -> Application:
        return Application(
            name="gen-cache-probe",
            version="0",
            source=source,
            formats=("raw",),
            role="recipient",
            library="gen-test",
        )

    def test_name_reuse_with_different_source_is_not_stale(self):
        emit_one = "int main() { emit(1); return 0; }"
        emit_two = "int main() { emit(2); return 0; }"

        with scoped_registration(self._app(emit_one)) as (app,):
            assert run_program(app.program(), b"").output == [1]
        with scoped_registration(self._app(emit_two)) as (app,):
            # Same registry name, different source: must not replay 1.
            assert run_program(app.program(), b"").output == [2]

        # Each scope evicted the artifacts it compiled.
        digests = {
            key if isinstance(key, str) else key[0]
            for key in compile_cache_info()["digests"]
        }
        assert program_digest(compile_program(emit_one)) not in digests
        assert program_digest(compile_program(emit_two)) not in digests

    def test_artifact_survives_scope_exit_for_same_content(self):
        source = "int main() { emit(7); return 0; }"
        artifact = compile_bytecode(compile_program(source))
        # Compiled before the scope: the same content registered inside it
        # hits the same artifact, and the scope's exit leaves it cached.
        with scoped_registration(self._app(source)) as (app,):
            assert compile_bytecode(app.program()) is artifact
        assert compile_bytecode(compile_program(source)) is artifact

    def test_scope_leaves_the_entry_count_unchanged(self):
        compile_bytecode(compile_program("int main() { emit(1); return 0; }"))
        before = compile_cache_info()["entries"]
        with scoped_registration(self._app(SOURCE)) as (app,):
            compile_bytecode(app.program())
            compile_bytecode(app.program(), observed=True)
            run_program(app.program(), bytes([0, 2, 0, 3]))
            assert compile_cache_info()["entries"] > before
        assert compile_cache_info()["entries"] == before

    def test_preexisting_entries_keep_their_lru_position(self):
        first = compile_program("int main() { emit(1); return 0; }")
        second = compile_program("int main() { emit(2); return 0; }")
        first_artifact = compile_bytecode(first)
        compile_bytecode(second)
        order = compile_cache_info()["digests"]
        with scoped_registration(self._app(SOURCE)) as (app,):
            compile_bytecode(app.program())
        assert compile_cache_info()["digests"] == order
        assert compile_bytecode(first) is first_artifact  # still a hit

    def test_scope_evicts_the_programs_it_checked(self):
        kept_source = "int main() { emit(1); return 0; }"
        kept = compile_program(kept_source)
        with scoped_registration(self._app(SOURCE)) as (app,):
            checked = app.program()
            assert compile_program(kept_source) is kept
        assert compile_program(kept_source) is kept
        assert compile_program(SOURCE, name=app.full_name) is not checked

    def test_scope_that_raises_also_evicts(self):
        before = compile_cache_info()["entries"]
        with pytest.raises(RuntimeError):
            with scoped_registration(self._app(SOURCE)) as (app,):
                compile_bytecode(app.program())
                raise RuntimeError("boom")
        assert compile_cache_info()["entries"] == before


class TestCacheBounds:
    def test_lru_evicts_oldest_beyond_capacity(self):
        capacity = compile_cache_info()["capacity"]
        programs = [
            compile_program(f"int main() {{ emit({i}); return 0; }}")
            for i in range(capacity + 3)
        ]
        for program in programs:
            compile_bytecode(program)
        info = compile_cache_info()
        assert info["entries"] == capacity
        assert program_digest(programs[0]) not in info["digests"]
        assert program_digest(programs[-1]) in info["digests"]

    def test_observed_artifact_cached_under_distinct_key(self):
        program = compile_program(SOURCE)
        plain = compile_bytecode(program)
        observed = compile_bytecode(program, observed=True)
        assert observed is not plain
        info = compile_cache_info()
        assert info["entries"] == 2
        # A second observed request hits the observed entry, not the plain one.
        assert compile_bytecode(program, observed=True) is observed
        assert compile_bytecode(program) is plain
