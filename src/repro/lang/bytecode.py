"""Compiled execution tier for the MicroC VM: runtime state and dispatch.

:mod:`repro.lang.compile` flattens a checked
:class:`~repro.lang.checker.Program` into the form executed here: per
function, a compact linear statement bytecode with explicit jump targets,
and per expression, a closure specialised at compile time on the operator,
the checker's static types, and resolved variable slots.  This module owns
everything that happens at *run* time — the per-run :class:`Runtime` state,
the tight dispatch loop over statement instructions, function invocation,
and the shared value-conversion helpers.

Semantics are bit-for-bit those of the tree-walking interpreter in
:mod:`repro.lang.vm`, including step accounting (one step per statement and
per evaluated expression node), error attribution (the innermost executing
statement at the time of the fault), record ordering, and the exact wording
of every error message.  ``tests/lang/test_vm_differential.py`` holds the
proof obligation: both tiers must agree on outputs, traces, heap state, and
verdicts for generated programs across every error class.

Trace side effects are batched: instead of constructing record dataclasses
(and simplifying branch conditions) inside the dispatch loop, the runtime
appends raw tuples which :mod:`repro.lang.trace` materialises once after
the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..symbolic import builder
from ..symbolic.expr import Constant
from ..symbolic.simplify import simplify
from .memory import (
    ArenaBuffer,
    Buffer,
    Cell,
    MemoryFault,
    Pointer,
    StructInstance,
    TaintedValue,
    U8_CONSTANTS,
    fast_value,
    make_value,
    null_pointer,
)
from .trace import (
    ErrorKind,
    ErrorReport,
    RunResult,
    materialize_allocations,
    materialize_branches,
    materialize_divisions,
)
from .types import I32, IntType, PointerType, StructType
from .vm import VMError, _ErrorSignal, _ExitSignal

# -- statement opcodes --------------------------------------------------------------
#
# Each instruction is a tuple whose first element is the opcode.  The layouts:
#
#   (OP_SIMPLE,   statement_fn, marker)              VarDecl / Assign / ExprStmt
#   (OP_IF,       condition_fn, marker, false_pc, mask)  if: step, eval, record, jump
#   (OP_JUMP,     target_pc)                         end of a then-block
#   (OP_MARK,     marker)                            while entry: step + current
#   (OP_LOOPCOND, condition_fn, marker, exit_pc, mask)   eval + record, no step
#   (OP_LOOPSTEP, condition_pc)                      end of loop body: step, jump
#   (OP_RET,      value_fn_or_None, marker)          return from the function
#
# ``marker`` is the precomputed ``(function, statement_id, line)`` tuple used
# for error attribution (``Runtime.current``) and branch records.  ``mask``
# is the concrete artifact's: the condition type's all-ones mask, which turns
# a signed or wrapped condition into the unsigned value a branch records
# (``None`` in the tracked artifact, whose values carry their own).

OP_SIMPLE = 0
OP_IF = 1
OP_JUMP = 2
OP_MARK = 3
OP_LOOPCOND = 4
OP_LOOPSTEP = 5
OP_RET = 6
OP_OBS = 7   # observed tier only: post-statement observation point

#: MemoryFault kind -> ErrorKind, mirroring VM._exec_statement (unknown kinds
#: such as "bad-field" fall back to NULL_DEREFERENCE there too).
FAULT_KINDS = {
    "out-of-bounds-write": ErrorKind.OUT_OF_BOUNDS_WRITE,
    "out-of-bounds-read": ErrorKind.OUT_OF_BOUNDS_READ,
    "null-dereference": ErrorKind.NULL_DEREFERENCE,
    "divide-by-zero": ErrorKind.DIVIDE_BY_ZERO,
}

#: Interned results for expressions that produce untainted i32 truth values.
ZERO_I32 = make_value(0, I32)
ONE_I32 = make_value(1, I32)

_U8_ZERO = U8_CONSTANTS[0]


@dataclass
class CompiledFunction:
    """One function flattened to linear statement bytecode."""

    name: str
    nlocals: int
    code: tuple
    param_stores: tuple  # per parameter: (rt, L, argument) -> None
    return_conv: Optional[tuple[int, bool]]  # (width, signed) for int returns
    entry_current: tuple  # (name, -1, 0): error marker before any statement runs
    local_names: tuple


@dataclass
class CompiledProgram:
    """A whole program compiled for the bytecode tier.

    Holds closures, so instances are intentionally *never* attached to
    :class:`~repro.lang.checker.Program`, VMs, or results — anything that
    crosses a process boundary stays picklable, and the compile cache in
    :mod:`repro.lang.compile` is shared with fork-started workers purely by
    address-space inheritance.
    """

    digest: str
    functions: dict[str, CompiledFunction]
    globals_plan: tuple  # per global: (name, make_cell())
    global_index: dict[str, int]


class Runtime:
    """Mutable per-run state shared by every compiled closure.

    Collapses the interpreter's ``VM`` + ``Frame`` + ``_InputStream`` trio
    into one slotted object: configuration is read at run time (so it is not
    a compile-cache dimension), the input stream is inlined, and trace side
    effects accumulate as raw tuples.  The concrete artifact uses the same
    object without a field map: its closures read ``data`` directly.
    """

    __slots__ = (
        "steps",
        "max_steps",
        "current",
        "simplify_options",
        "detect_overflow",
        "max_heap_bytes",
        "heap_allocated",
        "data",
        "data_len",
        "cursor",
        "field_map",
        "fields_read",
        "output",
        "raw_branches",
        "raw_allocations",
        "raw_divisions",
        "heap",
        "gslots",
        "observer",
        "frame_fields",
    )

    def __init__(self, config, data: bytes, field_map=None) -> None:
        self.steps = 0
        self.max_steps = config.max_steps
        # Matches the interpreter's synthetic frame for errors raised before
        # any statement has executed in the current activation.
        self.current = ("<entry>", -1, 0)
        self.simplify_options = config.simplify_options
        self.detect_overflow = config.detect_allocation_overflow
        self.max_heap_bytes = config.max_heap_bytes
        self.heap_allocated = 0
        self.data = data
        self.data_len = len(data)
        self.cursor = 0
        self.field_map = field_map
        self.fields_read: set = set()
        self.output: list = []
        self.raw_branches: list = []
        self.raw_allocations: list = []
        self.raw_divisions: list = []
        self.heap: list = []
        self.gslots: list = []
        # Observed tier (insertion-point analysis): a callback invoked at
        # OP_OBS instructions, and the per-activation set of input fields
        # read so far — the compiled counterpart of Frame.fields_accessed.
        self.observer = None
        self.frame_fields: set = set()

    # -- errors ------------------------------------------------------------------

    def error(self, kind: ErrorKind, message: str) -> None:
        function, statement_id, line = self.current
        raise _ErrorSignal(
            ErrorReport(
                kind=kind,
                message=message,
                function=function,
                statement_id=statement_id,
                line=line,
            )
        )

    def exhausted(self) -> None:
        self.error(
            ErrorKind.RESOURCE_EXHAUSTED,
            f"execution exceeded {self.max_steps} steps",
        )

    def memory_fault(self, fault: MemoryFault) -> None:
        self.error(FAULT_KINDS.get(fault.kind, ErrorKind.NULL_DEREFERENCE), fault.message)

    # -- input stream -------------------------------------------------------------

    def read_byte(self) -> TaintedValue:
        cursor = self.cursor
        if cursor >= self.data_len:
            # Reading past the end yields untainted zero bytes (files are
            # implicitly zero-padded); applications check lengths themselves.
            self.cursor = cursor + 1
            return _U8_ZERO
        value = self.data[cursor]
        self.cursor = cursor + 1
        symbolic = self.field_map.symbolic_byte(cursor)
        self.fields_read.update(symbolic.fields())
        return fast_value(value, 8, False, symbolic, value)

    def read_multi(self, size: int, big_endian: bool) -> TaintedValue:
        byte_values = [self.read_byte() for _ in range(size)]
        ordered = byte_values if big_endian else byte_values[::-1]
        value = 0
        for byte in ordered:
            value = (value << 8) | byte.value
        symbolic = None
        for byte in byte_values:
            if byte.symbolic is not None:
                parts = [
                    b.symbolic
                    if b.symbolic is not None
                    else Constant(width=8, value=b.value)
                    for b in ordered
                ]
                symbolic = simplify(builder.concat(*parts), self.simplify_options)
                break
        return fast_value(value, 16 if size == 2 else 32, False, symbolic, value)

    # -- result ------------------------------------------------------------------

    def finalize(self, result: RunResult) -> None:
        """Materialise the batched raw trace tuples into record dataclasses."""
        result.branches.extend(
            materialize_branches(self.raw_branches, self.simplify_options)
        )
        result.allocations.extend(materialize_allocations(self.raw_allocations))
        result.divisions.extend(materialize_divisions(self.raw_divisions))


# -- value helpers (exact replicas of the interpreter's conversions) -----------------


def convert_int(
    rt: Runtime, value: TaintedValue, width: int, signed: bool, preserve_true: bool
) -> TaintedValue:
    """Replica of ``VM._convert_int`` against a statically known target type."""
    if value.width == width and value.signed == signed:
        # The interpreter rebuilds an identical frozen value here; reusing the
        # operand is observationally equivalent and allocation-free.
        return value
    raw = value.as_int
    symbolic = value.symbolic
    if symbolic is not None:
        if width > value.width:
            symbolic = (
                builder.sext(symbolic, width)
                if value.signed
                else builder.zext(symbolic, width)
            )
        elif width < value.width:
            symbolic = builder.shrink(symbolic, width)
        symbolic = simplify(symbolic, rt.simplify_options)
    masked = raw & ((1 << width) - 1)
    if preserve_true or width >= value.width:
        # Widening (and explicit casts) carry the true value along so that
        # later overflow checks see the full computation.
        true_value = value.true_value
    else:
        true_value = (
            masked - (1 << width)
            if signed and masked >= (1 << (width - 1))
            else masked
        )
    return fast_value(masked, width, signed, symbolic, true_value)


def convert_for_store(rt: Runtime, value, target) -> object:
    """Replica of ``VM._convert_for_store`` for a runtime-determined cell type."""
    if isinstance(target, IntType):
        if not isinstance(value, TaintedValue):
            raise VMError(f"cannot store {type(value).__name__} into integer cell")
        return convert_int(rt, value, target.width, target.signed, False)
    if isinstance(target, PointerType):
        if isinstance(value, Pointer):
            return Pointer(target=value.target, pointee_type=target.pointee)
        if isinstance(value, TaintedValue) and value.value == 0:
            return null_pointer(target.pointee)
        raise VMError("cannot store a non-pointer into a pointer cell")
    if isinstance(target, StructType):
        if isinstance(value, StructInstance):
            return value
        raise VMError("cannot store a non-struct into a struct cell")
    raise VMError(f"cannot store into cell of type {target}")


def deref_cell(pointer) -> Cell:
    """Replica of ``VM._deref``."""
    if pointer.__class__ is not Pointer:
        raise VMError("dereference of a non-pointer value")
    target = pointer.target
    if target is None:
        raise MemoryFault("null-dereference", "null pointer dereference")
    if isinstance(target, Buffer):
        raise MemoryFault(
            "null-dereference", "cannot dereference a heap buffer without an index"
        )
    return target


def buffer_of(value) -> Buffer:
    """Replica of ``VM._buffer_of``."""
    if value.__class__ is not Pointer:
        raise VMError("expected a buffer pointer")
    target = value.target
    if target is None:
        raise MemoryFault("null-dereference", "null buffer pointer")
    if not isinstance(target, Buffer):
        raise MemoryFault(
            "null-dereference", "pointer does not reference a heap buffer"
        )
    return target


def truth_of(value) -> tuple[bool, object]:
    """Replica of ``VM._truth_of`` (the symbolic half is un-simplified)."""
    cls = value.__class__
    if cls is Pointer:
        return (value.target is not None), None
    if cls is TaintedValue:
        symbolic = None
        if value.symbolic is not None:
            symbolic = builder.is_nonzero(value.symbolic)
        return value.value != 0, symbolic
    raise VMError("invalid truth operand")


def record_branch(rt: Runtime, marker: tuple, condition) -> bool:
    """Replica of ``VM._record_branch`` with the record batched as a tuple.

    The branch-condition ``is_nonzero``/``simplify`` work is deferred to
    materialisation time along with the dataclass construction.
    """
    cls = condition.__class__
    if cls is TaintedValue:
        value = condition.value
        taken = value != 0
        rt.raw_branches.append((marker, taken, value, condition.symbolic))
        return taken
    if cls is Pointer:
        taken = condition.target is not None
        rt.raw_branches.append((marker, taken, 1 if taken else 0, None))
        return taken
    raise VMError("invalid branch condition value")


# -- dispatch -----------------------------------------------------------------------


def invoke(rt: Runtime, cf: CompiledFunction, arguments: tuple) -> object:
    """Call a compiled function: bind parameters, execute, convert the return."""
    L = [None] * cf.nlocals
    # zip semantics match the interpreter's parameter binding loop.
    for store, argument in zip(cf.param_stores, arguments):
        store(rt, L, argument)
    saved = rt.current
    saved_fields = rt.frame_fields
    rt.current = cf.entry_current
    rt.frame_fields = set()
    try:
        value = execute(rt, cf.code, L)
    finally:
        rt.current = saved
        rt.frame_fields = saved_fields
    if value is None:
        # Fall-through and bare `return;` both yield the default i32 zero.
        return ZERO_I32
    conv = cf.return_conv
    if conv is not None and value.__class__ is TaintedValue:
        width, signed = conv
        if value.width != width or value.signed != signed:
            return convert_int(rt, value, width, signed, False)
    return value


def invoke_concrete(rt: Runtime, cf: CompiledFunction, arguments: list) -> object:
    """Call a concrete-artifact function.

    Call sites convert arguments to the parameter types and return
    statements convert to the return type, so only binding is left here;
    ``param_stores`` is empty when every parameter is a simple slot.
    """
    L = [None] * cf.nlocals
    stores = cf.param_stores
    if stores:
        for store, argument in zip(stores, arguments):
            store(L, argument)
    elif arguments:
        L[: len(arguments)] = arguments
    saved = rt.current
    rt.current = cf.entry_current
    value = execute_concrete(rt, cf.code, L)
    # Not restored on an exception: every exception that escapes a call
    # (error, exit, VMError) ends the run.
    rt.current = saved
    # Fall-through and bare `return;` yield the i32 zero.
    return 0 if value is None else value


def execute_concrete(rt: Runtime, code: tuple, L: list) -> object:
    """The concrete artifact's dispatch loop: :func:`execute` with plain-int
    branch conditions recorded as ``(marker, unsigned value)`` pairs."""
    pc = 0
    size = len(code)
    branches = rt.raw_branches
    while pc < size:
        ins = code[pc]
        op = ins[0]
        try:
            if op == OP_SIMPLE:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.current = ins[2]
                ins[1](rt, L)
                pc += 1
            elif op == OP_IF:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                marker = ins[2]
                rt.current = marker
                value = ins[1](rt, L) & ins[4]
                branches.append((marker, value))
                pc = pc + 1 if value else ins[3]
            elif op == OP_LOOPCOND:
                value = ins[1](rt, L) & ins[4]
                branches.append((ins[2], value))
                pc = pc + 1 if value else ins[3]
            elif op == OP_LOOPSTEP:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                pc = ins[1]
            elif op == OP_JUMP:
                pc = ins[1]
            elif op == OP_MARK:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.current = ins[1]
                pc += 1
            elif op == OP_RET:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.current = ins[2]
                value_fn = ins[1]
                return value_fn(rt, L) if value_fn is not None else None
            else:  # pragma: no cover - compiler invariant
                raise VMError(f"unknown opcode {op}")
        except MemoryFault as fault:
            rt.memory_fault(fault)
    return None


def execute(rt: Runtime, code: tuple, L: list) -> object:
    """The dispatch loop: run one function activation to completion.

    Returns the value of an executed ``return`` statement (``None`` for a
    bare return or fall-through).  Memory faults escape expression closures
    and are converted to error reports here, attributed to the innermost
    executing statement — exactly like ``VM._exec_statement``.
    """
    pc = 0
    size = len(code)
    while pc < size:
        ins = code[pc]
        op = ins[0]
        try:
            if op == OP_SIMPLE:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.current = ins[2]
                ins[1](rt, L)
                pc += 1
            elif op == OP_IF:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                marker = ins[2]
                rt.current = marker
                if record_branch(rt, marker, ins[1](rt, L)):
                    pc += 1
                else:
                    pc = ins[3]
            elif op == OP_LOOPCOND:
                if record_branch(rt, ins[2], ins[1](rt, L)):
                    pc += 1
                else:
                    pc = ins[3]
            elif op == OP_LOOPSTEP:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                pc = ins[1]
            elif op == OP_JUMP:
                pc = ins[1]
            elif op == OP_MARK:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.current = ins[1]
                pc += 1
            elif op == OP_RET:
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.current = ins[2]
                value_fn = ins[1]
                return value_fn(rt, L) if value_fn is not None else None
            elif op == OP_OBS:
                # Post-statement observation (observed tier).  No step tick:
                # interpreter hooks do not consume steps.  Return statements
                # never emit OP_OBS, and faults/exits skip it by escaping the
                # loop — matching the interpreter's post-dispatch hook call.
                observer = rt.observer
                if observer is not None:
                    observer(rt, ins[1], ins[2], L)
                pc += 1
            else:  # pragma: no cover - compiler invariant
                raise VMError(f"unknown opcode {op}")
        except MemoryFault as fault:
            rt.memory_fault(fault)
    return None


__all__ = [
    "ArenaBuffer",
    "CompiledFunction",
    "CompiledProgram",
    "FAULT_KINDS",
    "ONE_I32",
    "OP_IF",
    "OP_JUMP",
    "OP_LOOPCOND",
    "OP_LOOPSTEP",
    "OP_MARK",
    "OP_OBS",
    "OP_RET",
    "OP_SIMPLE",
    "Runtime",
    "ZERO_I32",
    "buffer_of",
    "convert_for_store",
    "convert_int",
    "deref_cell",
    "execute",
    "execute_concrete",
    "invoke",
    "invoke_concrete",
    "record_branch",
    "truth_of",
    "_ExitSignal",
]
