"""Differential proof that the compiled tier matches the interpreter.

The compiled bytecode tier is only allowed to be the default execution path
because this harness shows it is observationally identical to the
tree-walking interpreter: same outputs, same heap state, same trace
records, same error verdicts, same step counts, same input extent — on a
property-based corpus of generated MicroC programs spanning all six
:class:`ErrorKind` defect templates, plus every hand-written application in
the Figure 8 corpus.

Three columns are compared against the interpreter:

* **compiled** — the tracked artifact (``repro.lang.compile``), on the seed
  and error inputs with symbolic tracking on, against a tracked
  interpreter run: every field, symbolic records included;
* **concrete** — the concrete artifact (``repro.lang.concrete``), which
  every untracked run takes, against an untracked interpreter run: every
  field, on the seed and error inputs and on DIODE landmark inputs (the
  attacked fields set to their maxima, ``1 << (w-1)``, 46341 and 65536:
  the inputs DIODE trials actually run, rich in wrapped values, true sizes
  and overflowing allocations);
* the concrete column also matches the tracked one on everything a
  concrete run can observe (symbolic halves and read fields projected out).

Programs are generated with :func:`repro.scenarios.generate.synthesize_pair`,
which is RNG-driven (field choice, reader style, defect plan, thresholds),
so every (kind, format, index) triple is a distinct random program.  The
corpus size is itself asserted (≥ 200 generated programs across the
ErrorKind mix) so CI enforces the coverage floor, not just the parity, and
every program must actually have a concrete artifact.
"""

from __future__ import annotations

import functools

import pytest

from repro.apps.registry import scoped_registration
from repro.experiments import ERROR_CASES
from repro.formats.registry import get_format
from repro.lang.concrete import compile_concrete
from repro.lang.memory import Buffer, TaintedValue
from repro.lang.trace import ErrorKind, RunResult
from repro.lang.vm import VM, VMConfig
from repro.scenarios.generate import ScenarioError, ScenarioPair, synthesize_pair

FORMATS = ("dcp", "gif", "jp2", "jpeg", "png", "swf", "tiff")
#: Random programs per (kind, format) cell; the RNG seed below makes the
#: corpus deterministic, so a parity failure is reproducible by triple.
INDICES_PER_FORMAT = 6
CORPUS_SEED = 7
#: Acceptance floor: the whole ErrorKind mix must exercise at least this
#: many distinct generated programs (each pair contributes two).
MINIMUM_GENERATED_PROGRAMS = 200

#: DIODE's landmark field values (``discovery/diode.py``); the two named
#: ones depend on the field width.
LANDMARKS = ("max", "half", 46341, 65536)

#: Full-scan threshold for heap canonicalisation; above it only explicitly
#: touched cells are compared (huge ``malloc64`` buffers stay sparse).
_SCAN_LIMIT = 8192


# --- canonicalisation --------------------------------------------------------


def _canonical_value(value: TaintedValue) -> tuple:
    return (value.value, value.width, value.signed, value.true_value,
            repr(value.symbolic))


_DEFAULT_CELL = _canonical_value(TaintedValue(0, 8))


def _canonical_buffer(buffer: Buffer) -> dict:
    """Project a heap buffer to tier-independent plain data.

    ``object_id`` is excluded (a process-global counter), and cells are read
    through ``load`` so the arena-backed and dict-backed representations are
    compared by observable value, not storage layout.
    """
    if buffer.size <= _SCAN_LIMIT:
        indices = range(buffer.size)
    else:
        touched = set(buffer.contents)
        data = getattr(buffer, "data", None)
        if data is not None:
            touched.update(i for i, byte in enumerate(data) if byte)
        indices = sorted(touched)
    cells = {}
    for index in indices:
        cell = _canonical_value(buffer.load(index))
        if cell != _DEFAULT_CELL:
            cells[index] = cell
    return {
        "size": buffer.size,
        "site_id": buffer.site_id,
        "function": buffer.function,
        "overflowed_size": buffer.overflowed_size,
        "cells": cells,
    }


def _canonical_result(result: RunResult, vm: VM) -> dict:
    error = None
    if result.error is not None:
        error = (
            result.error.kind.value,
            result.error.message,
            result.error.function,
            result.error.statement_id,
            result.error.line,
        )
    return {
        "status": result.status.value,
        "exit_code": result.exit_code,
        "error": error,
        "output": list(result.output),
        "steps": result.steps,
        "input_extent": result.input_extent,
        "fields_read": sorted(result.fields_read),
        "branches": [
            (r.branch_id, r.function, r.line, r.taken, r.condition_value,
             repr(r.symbolic), r.sequence)
            for r in result.branches
        ],
        "allocations": [
            (r.site_id, r.statement_id, r.function, r.line, r.size,
             r.true_size, repr(r.symbolic), r.overflowed, r.sequence)
            for r in result.allocations
        ],
        "divisions": [
            (r.site_id, r.function, r.line, r.divisor, repr(r.symbolic),
             r.sequence)
            for r in result.divisions
        ],
        "heap": [_canonical_buffer(buffer) for buffer in vm.heap],
    }


def _concrete_view(canonical: dict) -> dict:
    """What an untracked run can observe: symbolic halves and read fields
    projected out (the third column compares tracked and concrete runs)."""
    view = dict(canonical)
    view["fields_read"] = []
    view["branches"] = [record[:5] + record[6:] for record in canonical["branches"]]
    view["allocations"] = [record[:6] + record[7:] for record in canonical["allocations"]]
    view["divisions"] = [record[:4] + record[5:] for record in canonical["divisions"]]
    view["heap"] = [
        {
            **buffer,
            "cells": {
                index: cell[:4]
                for index, cell in buffer["cells"].items()
                if cell[:4] != _DEFAULT_CELL[:4]
            },
        }
        for buffer in canonical["heap"]
    ]
    return view


def _run_tier(program, data: bytes, field_map, *, compiled: bool,
              track_symbolic: bool = True, **config) -> dict:
    config = VMConfig(track_symbolic=track_symbolic, use_compiled=compiled, **config)
    vm = VM(program, config=config)
    result = vm.run(data, field_map=field_map)
    return _canonical_result(result, vm)


def _assert_equal(reference: dict, other: dict, names: tuple[str, str],
                  context: str) -> None:
    for key in reference:
        assert other[key] == reference[key], (
            f"tier divergence in {key!r} for {context}:\n"
            f"  {names[0]}: {reference[key]!r}\n"
            f"  {names[1]}: {other[key]!r}"
        )


def _assert_tier_parity(program, data: bytes, field_map, context: str,
                        tracked: bool = True, **config) -> None:
    """All columns on one input; ``tracked=False`` runs the untracked pair
    only (landmark inputs: what the concrete artifact runs in DIODE)."""
    untracked = _run_tier(program, data, field_map, compiled=False,
                          track_symbolic=False, **config)
    concrete = _run_tier(program, data, field_map, compiled=True,
                         track_symbolic=False, **config)
    _assert_equal(untracked, concrete, ("interpreter", "concrete"), context)
    if not tracked:
        return
    interpreted = _run_tier(program, data, field_map, compiled=False, **config)
    compiled = _run_tier(program, data, field_map, compiled=True, **config)
    _assert_equal(interpreted, compiled, ("interpreter", "compiled"), context)
    _assert_equal(_concrete_view(compiled), _concrete_view(concrete),
                  ("compiled", "concrete"), context)


def _landmark_inputs(spec, seed_input: bytes, error_input: bytes) -> dict:
    """DIODE's landmark values written into the fields the error input
    changes (every field when it changes none)."""
    field_map = spec.field_map(seed_input)
    attacked = field_map.differing_fields(seed_input, error_input) or field_map.paths()
    inputs = {}
    for landmark in LANDMARKS:
        values = {}
        for path in attacked:
            width = field_map.field(path).width
            value = {"max": (1 << width) - 1, "half": 1 << (width - 1)}.get(
                landmark, landmark
            )
            values[path] = value & ((1 << width) - 1)
        inputs[f"landmark {landmark}"] = field_map.with_values(seed_input, values)
    return inputs


def _assert_program_parity(program, spec, seed_input: bytes, error_input: bytes,
                           context: str) -> None:
    assert compile_concrete(program) is not None, f"{context}: no concrete artifact"
    field_map = spec.field_map(seed_input)
    for input_name, data in (("seed", seed_input), ("error", error_input)):
        _assert_tier_parity(program, data, field_map, f"{context} on {input_name} input")
    for input_name, data in _landmark_inputs(spec, seed_input, error_input).items():
        _assert_tier_parity(program, data, field_map,
                            f"{context} on {input_name} input", tracked=False)


# --- generated corpus --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pairs_for(kind: ErrorKind) -> tuple[ScenarioPair, ...]:
    pairs = []
    for format_name in FORMATS:
        for index in range(INDICES_PER_FORMAT):
            try:
                pairs.append(
                    synthesize_pair(kind, format_name, index=index,
                                    seed=CORPUS_SEED)
                )
            except ScenarioError:
                break  # format has no suitable fields for this template
    return tuple(pairs)


@pytest.mark.parametrize("kind", list(ErrorKind), ids=lambda k: k.value)
def test_generated_corpus_has_no_tier_divergence(kind: ErrorKind) -> None:
    """Every generated program agrees across tiers on every input."""
    pairs = _pairs_for(kind)
    assert pairs, f"no generated programs for {kind.value}"
    for pair in pairs:
        spec = get_format(pair.format_name)
        with scoped_registration(pair.recipient, pair.donor):
            for role, application in (("recipient", pair.recipient),
                                      ("donor", pair.donor)):
                _assert_program_parity(
                    application.program(), spec, pair.seed_input(),
                    pair.error_input(), f"{pair.case_id} {role}",
                )


def test_error_kind_mix_meets_program_floor() -> None:
    """The differential mix covers ≥ 200 generated programs, all six kinds."""
    programs = 0
    for kind in ErrorKind:
        pairs = _pairs_for(kind)
        assert pairs, f"ErrorKind mix is missing {kind.value}"
        programs += 2 * len(pairs)  # each pair is a recipient and a donor
    assert programs >= MINIMUM_GENERATED_PROGRAMS, (
        f"differential corpus ran {programs} generated programs, "
        f"need >= {MINIMUM_GENERATED_PROGRAMS}"
    )


# --- operator matrix ---------------------------------------------------------
#
# True values surface only in allocation records, store8 indices and heap
# shadows, and most program shapes mask them again (a shift feeding an OR).
# This program hands every operator's result, in every integer type, straight
# to ``malloc64``, whose records carry the wrapped size and the true one.

_TYPES = ("u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64")


def _operator_matrix_source() -> str:
    lines = [
        "int main() {",
        "    u32 x = read_u32_be();",
        "    u32 y = read_u32_be();",
        "    u8 s = read_byte();",
        "    u8* buffer = malloc(16);",
    ]
    for ctype in _TYPES:
        a, b, c = f"a_{ctype}", f"b_{ctype}", f"c_{ctype}"
        lines += [
            f"    {ctype} {a} = ({ctype}) x;",
            f"    {ctype} {b} = ({ctype}) y;",
            f"    {ctype} {c} = {a} * {b};",
            f"    malloc64({c});",
            f"    malloc64({c} + {a});",
            f"    malloc64((u64) {a});",
            f"    malloc64((i64) {a});",
            f"    malloc64((u8) {c});",
            f"    malloc64(((u64) {a}) / 3);",
            f"    malloc64(((i16) {a}) >> 1);",
            f"    malloc64({a} < y);",
            f"    emit({a});",
            f"    store8(buffer, 1, (u8) {c});",
            f"    malloc64(load8(buffer, 1));",
        ]
        for op in ("+", "-", "*", "&", "|", "^"):
            lines.append(f"    malloc64({a} {op} {b});")
        lines += [
            f"    malloc64({a} << s);",
            f"    malloc64({a} >> s);",
            f"    malloc64(-{a});",
            f"    malloc64(~{a});",
            f"    malloc64({a} < {b});",
            f"    if ({b} != 0) {{",
            f"        malloc64({a} / {b});",
            f"        malloc64({a} % {b});",
            f"        malloc64({a} / {b} < 0);",
            "    }",
        ]
    lines += ["    return 0;", "}"]
    return "\n".join(lines)


_MATRIX_VALUES = (0, 1, 3, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 46341,
                  65536, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
_MATRIX_SHIFTS = (0, 1, 7, 8, 15, 31, 32, 63, 64, 200)


def test_operator_matrix_has_no_tier_divergence() -> None:
    """Every operator and conversion, in every integer type, on boundary
    values: all three columns agree, true sizes included."""
    from repro.lang import compile_program

    program = compile_program(_operator_matrix_source(), name="operator-matrix")
    assert compile_concrete(program) is not None
    # Every allocation is recorded; none stops the run.
    config = {"detect_allocation_overflow": False, "max_heap_bytes": 0}
    count = len(_MATRIX_VALUES)
    inputs = [
        x.to_bytes(4, "big") + y.to_bytes(4, "big")
        + bytes([_MATRIX_SHIFTS[index % len(_MATRIX_SHIFTS)]])
        for index, x in enumerate(_MATRIX_VALUES)
        for y in (_MATRIX_VALUES[(5 * index + 3) % count], 0xFFFFFFFF)
    ]
    # Short inputs: reads past the end see zero bytes.
    inputs += [inputs[-1][:length] for length in (0, 3, 6)]
    for index, data in enumerate(inputs):
        context = f"operator matrix on {data.hex()}"
        untracked = _run_tier(program, data, None, compiled=False,
                              track_symbolic=False, **config)
        concrete = _run_tier(program, data, None, compiled=True,
                             track_symbolic=False, **config)
        _assert_equal(untracked, concrete, ("interpreter", "concrete"), context)
        if index % 4 == 0:  # tracked runs simplify every result: fewer inputs
            interpreted = _run_tier(program, data, None, compiled=False, **config)
            compiled = _run_tier(program, data, None, compiled=True, **config)
            _assert_equal(interpreted, compiled, ("interpreter", "compiled"), context)
            _assert_equal(_concrete_view(compiled), _concrete_view(concrete),
                          ("compiled", "concrete"), context)


# --- edge programs -----------------------------------------------------------
#
# Constructs the generated corpus rarely reaches: pointers to locals and
# parameters, structs through pointers and struct assignment, recursion,
# a local shadowing a global of the same type, exits, sparse and null
# buffers, running out of steps, and skips and reads past the input's end.

EDGE_PROGRAMS = {
    "input cursor": ("""
        int main() {
            u8 n = read_byte();
            skip_bytes(n);
            emit(input_remaining());
            u32 w = read_u32_le();
            emit(w);
            return 0;
        }
    """, (b"", bytes([1, 9, 0, 5, 7, 8, 9]), bytes([0, 1, 2, 3, 4, 5, 6]),
          bytes([200, 1, 2])), {}),
    "pointers to locals and parameters": ("""
        void bump(u32* p) {
            *p = *p + 1;
        }
        u8 twice(u8 v) {
            u8* q = &v;
            *q = *q * 2;
            return v;
        }
        int main() {
            u32 x = read_byte();
            bump(&x);
            u8 y = 250;
            u8* q = &y;
            *q = *q + 10;
            emit(x);
            emit(y);
            emit(twice(read_byte()));
            u32* p = &x;
            u32* r = p;
            if (p == r) {
                emit(1);
            }
            if (!p) {
                emit(2);
            }
            if (p != 0) {
                emit(3);
            }
            return (i32) p;
        }
    """, (b"", bytes([3, 200])), {}),
    "structs through pointers": ("""
        struct inner { u16 a; i8 b; };
        struct outer { struct inner in; u32 n; struct inner* link; };
        struct outer g;
        void fill(struct outer* o, u8 v) {
            o->n = v * 1000;
            o->in.a = v;
            o->in.b = -v;
        }
        struct outer* pick() {
            return &g;
        }
        int main() {
            struct outer fresh;
            emit(fresh.n + fresh.in.a);
            emit(fresh.in.b - 1);
            u8 v = read_byte();
            fill(&g, v);
            struct outer local;
            local = g;
            local.n = local.n + 1;
            emit(g.n);
            emit(pick()->in.b);
            if (g.link == 0 && local.link == 0) {
                emit(7);
            }
            return g.in.a;
        }
    """, (b"", bytes([3]), bytes([255])), {}),
    "loops, recursion, shadowing and exits": ("""
        u32 total;
        u8 fact(u8 n) {
            if (n <= 1) {
                return 1;
            }
            return n * fact(n - 1);
        }
        int main() {
            u32 i = 0;
            while (i < 3) {
                emit(total);
                total = total + i;
                u32 total = 100;
                i = i + 1;
            }
            emit(fact(read_byte() % 8));
            i32 d = read_byte() - 128;
            if (d == 0) {
                exit(-3);
            }
            emit(-7 / d);
            emit(-7 % d);
            emit(input_remaining());
            skip_bytes(2);
            emit(read_u16_le());
            emit(read_u32_be());
            return 100 / (read_byte() - 5);
        }
    """, (b"", bytes([5, 128]), bytes([6, 130, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
          bytes([7, 127, 9, 9, 9, 9, 9, 9, 9, 9, 5])), {}),
    "heap edges": ("""
        int main() {
            u64 big = read_u32_be();
            u8* huge = malloc64(big * 1000000);
            store8(huge, 123456789, 9);
            emit(load8(huge, 123456789));
            u8* small = malloc(read_byte());
            store8(small, 3, 300);
            emit(load8(small, 3));
            u8* none;
            if (read_byte() > 128) {
                emit(load8(none, 0));
            }
            emit(load8(small, read_byte()));
            return 0;
        }
    """, (bytes([0, 0, 7, 208, 5, 0, 2]), bytes([0, 0, 7, 208, 5, 200]),
          bytes([0, 0, 7, 208, 5, 0, 9]), bytes([0, 0, 0, 0, 10]),
          bytes([0, 0, 0, 1, 4])), {}),
    "running out of steps": ("""
        int main() {
            u32 i = read_byte();
            while (i != 0) {
                i = i + 1;
            }
            return 0;
        }
    """, (b"", bytes([1])), {"max_steps": 301}),
}


@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_programs_have_no_tier_divergence(name: str) -> None:
    from repro.lang import compile_program

    source, inputs, config = EDGE_PROGRAMS[name]
    program = compile_program(source, name=name)
    assert compile_concrete(program) is not None
    for data in inputs:
        _assert_tier_parity(program, data, None, f"{name} on {data.hex()}", **config)


# --- hand-written corpus -----------------------------------------------------


@pytest.mark.parametrize("case_id", sorted(ERROR_CASES))
def test_handwritten_corpus_has_no_tier_divergence(case_id: str) -> None:
    """The Figure 8 applications agree across tiers on seed, error and
    landmark inputs."""
    case = ERROR_CASES[case_id]
    _assert_program_parity(
        case.application().program(), get_format(case.format_name),
        case.seed_input(), case.error_input(), case_id,
    )
