"""MicroC virtual machine with taint and symbolic-expression tracking.

The VM is the reproduction's Valgrind: it executes type-checked MicroC
programs on concrete inputs while maintaining, for every value, a shadow
symbolic expression over the named input fields (§3.2's "full symbolic
expression of each computed value").  It records executed conditional
branches, allocation sites, and divisions, and it detects the three error
classes of the paper's evaluation — integer overflow at allocation sites,
out-of-bounds buffer accesses, and divide-by-zero — plus null dereferences.

An inserted patch calls ``exit(-1)``; that terminates the run with status
``EXIT`` which, by design, is *not* an error: the patch narrows the set of
inputs the application accepts, exactly as described in §1.1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Union

from ..formats.fields import FieldMap
from ..formats.raw import RawFormat
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..symbolic import builder
from ..symbolic.expr import Constant, Expr
from ..symbolic.simplify import SimplifyOptions, simplify
from . import ast
from .checker import BUILTIN_SIGNATURES, Checker, Program
from .memory import (
    Buffer,
    Cell,
    MemoryFault,
    Pointer,
    StructInstance,
    TaintedValue,
    instantiate,
    make_value,
    new_cell,
    null_pointer,
)
from .trace import (
    AllocationRecord,
    BranchRecord,
    DivisionRecord,
    ErrorKind,
    ErrorReport,
    Hooks,
    NullHooks,
    RunResult,
    RunStatus,
)
from .types import (
    I32,
    IntType,
    PointerType,
    StructType,
    Type,
    U8,
    U16,
    U32,
    integer_type,
    promote,
)

Value = Union[TaintedValue, Pointer, StructInstance]


class VMError(Exception):
    """Raised for internal VM misuse (not application-level errors)."""


class _ExitSignal(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class _ReturnSignal(Exception):
    def __init__(self, value: Optional[Value]) -> None:
        self.value = value


class _ErrorSignal(Exception):
    def __init__(self, report: ErrorReport) -> None:
        self.report = report


# Process-wide default for VMConfig.use_compiled, so one switch
# (repro.api.set_default_execution_tier) reaches every config constructed
# afterwards, including in fork-started campaign workers which inherit the
# flag with the address space.
_COMPILED_TIER_DEFAULT = True


def set_default_execution_tier(compiled: bool) -> None:
    """Select the default execution tier for newly created :class:`VMConfig`\\ s."""
    global _COMPILED_TIER_DEFAULT
    _COMPILED_TIER_DEFAULT = bool(compiled)


def default_execution_tier() -> bool:
    """Whether new configs default to the compiled tier."""
    return _COMPILED_TIER_DEFAULT


@dataclass
class VMConfig:
    """Execution configuration."""

    max_steps: int = 500_000
    track_symbolic: bool = True
    simplify_options: SimplifyOptions = dataclass_field(default_factory=SimplifyOptions)
    detect_allocation_overflow: bool = True
    #: Cumulative bytes ``malloc``/``malloc64`` may hand out in one run before
    #: the VM reports :class:`ErrorKind.RESOURCE_EXHAUSTED` — the stand-in for
    #: a real process being OOM-killed.  1 TiB is far above anything a 32-bit
    #: allocation can request, so only ``malloc64`` callers (and pathological
    #: allocation loops) can reach it; 0 disables the budget.
    max_heap_bytes: int = 1 << 40
    #: Execute via the bytecode tier (repro.lang.compile) when possible.
    #: Hooked runs always take the interpreter: the insertion-point analysis
    #: reads live frames, which compiled code does not materialise.
    use_compiled: bool = dataclass_field(
        default_factory=lambda: _COMPILED_TIER_DEFAULT
    )


@dataclass
class Frame:
    """One function activation."""

    function: str
    invocation: int
    locals: dict[str, Cell] = dataclass_field(default_factory=dict)
    fields_accessed: set[str] = dataclass_field(default_factory=set)
    current_statement: Optional[ast.Statement] = None


class _InputStream:
    """Sequential reader over the input bytes with per-byte symbolic labels."""

    def __init__(self, data: bytes, field_map: FieldMap, track_symbolic: bool) -> None:
        self.data = data
        self.field_map = field_map
        self.cursor = 0
        self.track_symbolic = track_symbolic
        self.fields_read: set[str] = set()

    def read_byte(self) -> TaintedValue:
        if self.cursor >= len(self.data):
            # Reading past the end yields untainted zero bytes (files are
            # implicitly zero-padded); applications check lengths themselves.
            self.cursor += 1
            return TaintedValue(0, 8)
        value = self.data[self.cursor]
        symbolic: Optional[Expr] = None
        if self.track_symbolic:
            symbolic = self.field_map.symbolic_byte(self.cursor)
            self.fields_read.update(symbolic.fields())
        self.cursor += 1
        return TaintedValue(value=value, width=8, symbolic=symbolic)

    def skip(self, count: int) -> None:
        self.cursor += count

    def remaining(self) -> int:
        return max(len(self.data) - self.cursor, 0)


class VM:
    """Interpreter for type-checked MicroC programs."""

    def __init__(self, program: Program, config: Optional[VMConfig] = None) -> None:
        self.program = program
        self.config = config or VMConfig()
        # Per-run state (reset in run()).
        self.globals: dict[str, Cell] = {}
        self.hooks: Hooks = NullHooks()
        self.result: RunResult = RunResult(status=RunStatus.OK)
        self._stream: Optional[_InputStream] = None
        self._steps = 0
        self._branch_sequence = 0
        self._allocation_sequence = 0
        self._division_sequence = 0
        self._invocations = 0
        self._heap_allocated = 0
        self._frames: list[Frame] = []
        #: Buffers allocated by the most recent run, in allocation order
        #: (either tier); the differential harness snapshots heap state here.
        self.heap: list[Buffer] = []

    # -- public API -----------------------------------------------------------------

    def run(
        self,
        data: bytes,
        field_map: Optional[FieldMap] = None,
        hooks: Optional[Hooks] = None,
        entry: str = "main",
    ) -> RunResult:
        """Execute the program on ``data`` and return the run result.

        Un-hooked runs take the compiled tier when ``use_compiled`` is set:
        the tracked artifact, or for ``track_symbolic=False`` the concrete
        one (which ignores ``field_map``: no byte gets a symbolic label).
        """
        if self.config.use_compiled and (hooks is None or isinstance(hooks, NullHooks)):
            if self.config.track_symbolic:
                return run_compiled(self, data, field_map=field_map, entry=entry)
            return run_concrete(self, data, entry=entry)
        return self.interpret(data, field_map=field_map, hooks=hooks, entry=entry)

    def interpret(
        self,
        data: bytes,
        field_map: Optional[FieldMap] = None,
        hooks: Optional[Hooks] = None,
        entry: str = "main",
    ) -> RunResult:
        """Execute the program on the interpreter tier."""
        # Observability hook: one flag check each when telemetry is off.
        tracer = obs_tracing.active()
        registry = obs_metrics.REGISTRY if obs_metrics.REGISTRY.enabled else None
        started = time.perf_counter() if (tracer or registry) else 0.0

        if field_map is None and self.config.track_symbolic:
            field_map = RawFormat().field_map(data)
        self.globals = {}
        for name, ctype in self.program.global_types.items():
            cell = new_cell(ctype)
            if isinstance(ctype, IntType):
                cell.value = make_value(self.program.global_inits.get(name, 0), ctype)
            self.globals[name] = cell
        self.hooks = hooks or NullHooks()
        self.result = RunResult(status=RunStatus.OK)
        self._stream = _InputStream(data, field_map, self.config.track_symbolic)
        self._steps = 0
        self._heap_allocated = 0
        self._branch_sequence = 0
        self._allocation_sequence = 0
        self._division_sequence = 0
        self._invocations = 0
        self._frames = []
        self.heap = []

        try:
            value = self._call_function(entry, [])
            self.result.status = RunStatus.OK
            self.result.exit_code = value.as_int if isinstance(value, TaintedValue) else 0
        except _ExitSignal as signal:
            self.result.status = RunStatus.EXIT
            self.result.exit_code = signal.code
        except _ErrorSignal as signal:
            self.result.status = RunStatus.ERROR
            self.result.error = signal.report
            self.result.exit_code = 1
        self.result.steps = self._steps
        self.result.fields_read = frozenset(self._stream.fields_read)
        self.result.input_extent = min(self._stream.cursor, len(data))
        if registry is not None:
            registry.inc("vm.runs")
            registry.inc("vm.runs_interpreted")
            registry.inc("vm.instructions_retired", self._steps)
            registry.observe("vm.run_seconds", time.perf_counter() - started)
        if tracer is not None:
            tracer.record(
                "vm-run",
                "vm",
                time.perf_counter() - started,
                entry=entry,
                steps=self._steps,
                status=self.result.status.name,
                tier="interpreter",
            )
        return self.result

    # -- frames and errors -------------------------------------------------------------

    def _raise_error(self, kind: ErrorKind, message: str) -> None:
        frame = self._frames[-1] if self._frames else Frame(function="<entry>", invocation=0)
        statement = frame.current_statement
        raise _ErrorSignal(
            ErrorReport(
                kind=kind,
                message=message,
                function=frame.function,
                statement_id=statement.node_id if statement is not None else -1,
                line=statement.line if statement is not None else 0,
            )
        )

    def _step(self) -> None:
        self._steps += 1
        if self._steps > self.config.max_steps:
            self._raise_error(
                ErrorKind.RESOURCE_EXHAUSTED,
                f"execution exceeded {self.config.max_steps} steps",
            )

    # -- function calls -----------------------------------------------------------------

    def _call_function(self, name: str, arguments: list[Value]) -> Value:
        function = self.program.function(name)
        signature = self.program.signature(name)
        self._invocations += 1
        frame = Frame(function=name, invocation=self._invocations)
        for parameter, parameter_type, argument in zip(
            function.parameters, signature.parameter_types, arguments
        ):
            cell = Cell(declared_type=parameter_type)
            cell.value = self._convert_for_store(argument, parameter_type)
            frame.locals[parameter.name] = cell
        self._frames.append(frame)
        self.hooks.on_call(self, frame)
        try:
            self._exec_block(function.body, frame)
            return_value: Value = make_value(0, I32)
        except _ReturnSignal as signal:
            if signal.value is None:
                return_value = make_value(0, I32)
            elif isinstance(signature.return_type, IntType) and isinstance(
                signal.value, TaintedValue
            ):
                return_value = self._convert_int(signal.value, signature.return_type)
            else:
                return_value = signal.value
        finally:
            self.hooks.on_return(self, frame)
            self._frames.pop()
        return return_value

    # -- statements ------------------------------------------------------------------------

    def _exec_block(self, block: ast.Block, frame: Frame) -> None:
        for statement in block.statements:
            self._exec_statement(statement, frame)

    def _exec_statement(self, statement: ast.Statement, frame: Frame) -> None:
        self._step()
        frame.current_statement = statement
        try:
            self._dispatch_statement(statement, frame)
        except MemoryFault as fault:
            kind = {
                "out-of-bounds-write": ErrorKind.OUT_OF_BOUNDS_WRITE,
                "out-of-bounds-read": ErrorKind.OUT_OF_BOUNDS_READ,
                "null-dereference": ErrorKind.NULL_DEREFERENCE,
                "divide-by-zero": ErrorKind.DIVIDE_BY_ZERO,
            }.get(fault.kind, ErrorKind.NULL_DEREFERENCE)
            self._raise_error(kind, fault.message)
        self.hooks.on_statement(self, frame, statement)

    def _dispatch_statement(self, statement: ast.Statement, frame: Frame) -> None:
        if isinstance(statement, ast.VarDecl):
            ctype = self._declared_type(statement)
            cell = Cell(declared_type=ctype, value=instantiate(ctype))
            if statement.init is not None:
                cell.value = self._convert_for_store(self._eval(statement.init, frame), ctype)
            frame.locals[statement.name] = cell
            return

        if isinstance(statement, ast.Assign):
            value = self._eval(statement.value, frame)
            cell = self._eval_lvalue(statement.target, frame)
            cell.value = self._convert_for_store(value, cell.declared_type)
            return

        if isinstance(statement, ast.If):
            condition = self._eval(statement.condition, frame)
            taken = self._record_branch(statement, condition, frame)
            if taken:
                self._exec_block(statement.then_block, frame)
            elif statement.else_block is not None:
                self._exec_block(statement.else_block, frame)
            return

        if isinstance(statement, ast.While):
            while True:
                condition = self._eval(statement.condition, frame)
                taken = self._record_branch(statement, condition, frame)
                if not taken:
                    break
                self._exec_block(statement.body, frame)
                self._step()
            return

        if isinstance(statement, ast.Return):
            value = self._eval(statement.value, frame) if statement.value is not None else None
            raise _ReturnSignal(value)

        if isinstance(statement, ast.ExprStmt):
            self._eval(statement.expression, frame)
            return

        raise VMError(f"unknown statement {type(statement).__name__}")

    def _declared_type(self, statement: ast.VarDecl) -> Type:
        # The checker resolved and validated types; re-resolve on demand here
        # (with a small cache) to keep statement nodes free of annotations.
        cached = getattr(self, "_type_cache", None)
        if cached is None:
            cached = {}
            self._type_cache = cached
        if statement.node_id in cached:
            return cached[statement.node_id]
        checker = Checker(self.program.unit)
        checker.struct_table = self.program.struct_table
        resolved = checker._resolve(statement.type_ref)
        cached[statement.node_id] = resolved
        return resolved

    def _record_branch(
        self, statement: ast.Statement, condition: Value, frame: Frame
    ) -> bool:
        if isinstance(condition, Pointer):
            taken = not condition.is_null
            condition_value = 0 if condition.is_null else 1
            symbolic = None
        elif isinstance(condition, TaintedValue):
            taken = condition.truth
            condition_value = condition.value
            symbolic = None
            if condition.symbolic is not None:
                symbolic = simplify(
                    builder.is_nonzero(condition.symbolic), self.config.simplify_options
                )
        else:
            raise VMError("invalid branch condition value")
        record = BranchRecord(
            branch_id=statement.node_id,
            function=frame.function,
            line=statement.line,
            taken=taken,
            condition_value=condition_value,
            symbolic=symbolic,
            sequence=self._branch_sequence,
        )
        self._branch_sequence += 1
        self.result.branches.append(record)
        self.hooks.on_branch(self, frame, record)
        return taken

    # -- expression evaluation -----------------------------------------------------------------

    def _eval(self, expression: ast.Expression, frame: Frame) -> Value:
        self._step()

        if isinstance(expression, ast.IntLiteral):
            ctype = expression.ctype if isinstance(expression.ctype, IntType) else I32
            return make_value(expression.value, ctype)

        if isinstance(expression, ast.Name):
            cell = self._lookup(expression.name, frame)
            return self._note(frame, cell.value)

        if isinstance(expression, ast.FieldAccess):
            cell = self._field_cell(expression, frame)
            return self._note(frame, cell.value)

        if isinstance(expression, ast.Deref):
            pointer = self._eval(expression.operand, frame)
            cell = self._deref(pointer)
            return self._note(frame, cell.value)

        if isinstance(expression, ast.AddressOf):
            cell = self._eval_lvalue(expression.operand, frame)
            return Pointer(target=cell, pointee_type=cell.declared_type)

        if isinstance(expression, ast.Unary):
            return self._eval_unary(expression, frame)

        if isinstance(expression, ast.Binary):
            return self._eval_binary(expression, frame)

        if isinstance(expression, ast.Cast):
            value = self._eval(expression.operand, frame)
            target = expression.ctype
            if isinstance(target, IntType) and isinstance(value, TaintedValue):
                return self._convert_int(value, target, preserve_true=True)
            if isinstance(target, PointerType) and isinstance(value, Pointer):
                return Pointer(target=value.target, pointee_type=target.pointee)
            if isinstance(target, IntType) and isinstance(value, Pointer):
                return make_value(0 if value.is_null else 1, target)
            raise VMError(f"unsupported cast to {target}")

        if isinstance(expression, ast.Call):
            return self._eval_call(expression, frame)

        raise VMError(f"unknown expression {type(expression).__name__}")

    def _note(self, frame: Frame, value: Value) -> Value:
        """Record the input fields a frame has accessed (for insertion points)."""
        if isinstance(value, TaintedValue) and value.symbolic is not None:
            frame.fields_accessed.update(value.symbolic.fields())
        return value

    def _lookup(self, name: str, frame: Frame) -> Cell:
        if name in frame.locals:
            return frame.locals[name]
        if name in self.globals:
            return self.globals[name]
        raise VMError(f"unknown variable {name!r} in {frame.function}")

    def _field_cell(self, expression: ast.FieldAccess, frame: Frame) -> Cell:
        if expression.arrow:
            pointer = self._eval(expression.base, frame)
            if not isinstance(pointer, Pointer):
                raise VMError("-> applied to a non-pointer")
            cell = self._deref(pointer)
            instance = cell.value
        else:
            base_cell = self._eval_lvalue(expression.base, frame)
            instance = base_cell.value
        if not isinstance(instance, StructInstance):
            raise MemoryFault("null-dereference", "field access on a non-struct value")
        return instance.cell(expression.field_name)

    def _deref(self, pointer: Value) -> Cell:
        if not isinstance(pointer, Pointer):
            raise VMError("dereference of a non-pointer value")
        if pointer.is_null:
            raise MemoryFault("null-dereference", "null pointer dereference")
        if isinstance(pointer.target, Buffer):
            raise MemoryFault(
                "null-dereference", "cannot dereference a heap buffer without an index"
            )
        return pointer.target

    def _eval_lvalue(self, expression: ast.Expression, frame: Frame) -> Cell:
        if isinstance(expression, ast.Name):
            return self._lookup(expression.name, frame)
        if isinstance(expression, ast.FieldAccess):
            return self._field_cell(expression, frame)
        if isinstance(expression, ast.Deref):
            pointer = self._eval(expression.operand, frame)
            return self._deref(pointer)
        raise VMError(f"{type(expression).__name__} is not an lvalue")

    # -- integer operations --------------------------------------------------------------------

    def _symbolic_of(self, value: TaintedValue) -> Expr:
        if value.symbolic is not None:
            return value.symbolic
        return Constant(width=value.width, value=value.value)

    def _convert_int(
        self, value: TaintedValue, target: IntType, preserve_true: bool = False
    ) -> TaintedValue:
        """Convert an integer value to the target type (C conversion rules)."""
        if value.width == target.width and value.signed == target.signed:
            return TaintedValue(
                value=value.value,
                width=target.width,
                signed=target.signed,
                symbolic=value.symbolic,
                true_value=value.true_value,
            )
        raw = value.as_int
        symbolic = None
        if value.symbolic is not None:
            if target.width > value.width:
                symbolic = (
                    builder.sext(value.symbolic, target.width)
                    if value.signed
                    else builder.zext(value.symbolic, target.width)
                )
            elif target.width < value.width:
                symbolic = builder.shrink(value.symbolic, target.width)
            else:
                symbolic = value.symbolic
            symbolic = simplify(symbolic, self.config.simplify_options)
        converted = TaintedValue(
            value=raw, width=target.width, signed=target.signed, symbolic=symbolic
        )
        if preserve_true or target.width >= value.width:
            # Widening (and explicit casts) carry the true value along so that
            # later overflow checks see the full computation.
            converted = TaintedValue(
                value=raw,
                width=target.width,
                signed=target.signed,
                symbolic=symbolic,
                true_value=value.true_value,
            )
        return converted

    def _convert_for_store(self, value: Value, target: Type) -> Value:
        if isinstance(target, IntType):
            if not isinstance(value, TaintedValue):
                raise VMError(f"cannot store {type(value).__name__} into integer cell")
            return self._convert_int(value, target)
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

    def _eval_unary(self, expression: ast.Unary, frame: Frame) -> Value:
        operand = self._eval(expression.operand, frame)
        if expression.op == "!":
            if isinstance(operand, Pointer):
                return make_value(1 if operand.is_null else 0, I32)
            if not isinstance(operand, TaintedValue):
                raise VMError("! applied to a non-scalar")
            symbolic = None
            if operand.symbolic is not None:
                symbolic = simplify(
                    builder.zext(
                        builder.logical_not(builder.is_nonzero(operand.symbolic)), 32
                    ),
                    self.config.simplify_options,
                )
            return TaintedValue(
                value=0 if operand.truth else 1, width=32, signed=True, symbolic=symbolic
            )
        if not isinstance(operand, TaintedValue):
            raise VMError(f"unary {expression.op} applied to a non-scalar")
        ctype = expression.ctype if isinstance(expression.ctype, IntType) else I32
        operand = self._convert_int(operand, ctype)
        if expression.op == "-":
            symbolic = None
            if operand.symbolic is not None:
                symbolic = simplify(builder.neg(operand.symbolic), self.config.simplify_options)
            return TaintedValue(
                value=-operand.value,
                width=ctype.width,
                signed=ctype.signed,
                symbolic=symbolic,
                true_value=-(operand.true_value if operand.true_value is not None else 0),
            )
        if expression.op == "~":
            symbolic = None
            if operand.symbolic is not None:
                symbolic = simplify(builder.bvnot(operand.symbolic), self.config.simplify_options)
            return TaintedValue(
                value=~operand.value, width=ctype.width, signed=ctype.signed, symbolic=symbolic
            )
        raise VMError(f"unknown unary operator {expression.op!r}")

    def _eval_binary(self, expression: ast.Binary, frame: Frame) -> Value:
        op = expression.op

        if op in ("&&", "||"):
            return self._eval_logical(expression, frame)

        left = self._eval(expression.left, frame)
        right = self._eval(expression.right, frame)

        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._eval_comparison(expression, left, right)

        if not isinstance(left, TaintedValue) or not isinstance(right, TaintedValue):
            raise VMError(f"operator {op!r} applied to non-scalar operands")

        result_type = expression.ctype if isinstance(expression.ctype, IntType) else I32
        left = self._convert_int(left, result_type)
        right = self._convert_int(right, result_type)
        return self._apply_arithmetic(expression, op, left, right, result_type, frame)

    def _eval_logical(self, expression: ast.Binary, frame: Frame) -> TaintedValue:
        left = self._eval(expression.left, frame)
        left_truth, left_sym = self._truth_of(left)
        if expression.op == "&&" and not left_truth:
            right_truth, right_sym = False, None
            value = 0
            evaluated_right = False
        elif expression.op == "||" and left_truth:
            right_truth, right_sym = True, None
            value = 1
            evaluated_right = False
        else:
            right = self._eval(expression.right, frame)
            right_truth, right_sym = self._truth_of(right)
            value = int(right_truth if expression.op == "&&" else (left_truth or right_truth))
            evaluated_right = True

        symbolic = None
        if left_sym is not None or right_sym is not None:
            left_bool = left_sym if left_sym is not None else builder.const(int(left_truth), 1)
            if evaluated_right:
                right_bool = (
                    right_sym if right_sym is not None else builder.const(int(right_truth), 1)
                )
                combined = (
                    builder.logical_and(left_bool, right_bool)
                    if expression.op == "&&"
                    else builder.logical_or(left_bool, right_bool)
                )
            else:
                combined = left_bool
            symbolic = simplify(builder.zext(combined, 32), self.config.simplify_options)
        return TaintedValue(value=value, width=32, signed=True, symbolic=symbolic)

    def _truth_of(self, value: Value) -> tuple[bool, Optional[Expr]]:
        if isinstance(value, Pointer):
            return (not value.is_null), None
        if isinstance(value, TaintedValue):
            symbolic = None
            if value.symbolic is not None:
                symbolic = builder.is_nonzero(value.symbolic)
            return value.truth, symbolic
        raise VMError("invalid truth operand")

    def _eval_comparison(
        self, expression: ast.Binary, left: Value, right: Value
    ) -> TaintedValue:
        op = expression.op
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            # Pointer comparisons: against the null constant (integer 0) or
            # against another pointer (identity of the referenced object).
            if isinstance(left, Pointer) and isinstance(right, Pointer):
                equal = left.target is right.target
            else:
                pointer = left if isinstance(left, Pointer) else right
                other = right if isinstance(left, Pointer) else left
                if not isinstance(other, TaintedValue) or other.value != 0:
                    raise VMError("pointers may only be compared with pointers or 0")
                equal = pointer.is_null
            if op == "==":
                result = int(equal)
            elif op == "!=":
                result = int(not equal)
            else:
                raise VMError(f"pointer comparison {op!r} not supported")
            return make_value(result, I32)

        if not isinstance(left, TaintedValue) or not isinstance(right, TaintedValue):
            raise VMError("comparison of non-scalar values")

        common = promote(
            IntType(left.width, left.signed), IntType(right.width, right.signed)
        )
        left = self._convert_int(left, common)
        right = self._convert_int(right, common)
        left_int, right_int = left.as_int, right.as_int
        concrete = {
            "==": left_int == right_int,
            "!=": left_int != right_int,
            "<": left_int < right_int,
            "<=": left_int <= right_int,
            ">": left_int > right_int,
            ">=": left_int >= right_int,
        }[op]

        symbolic = None
        if left.symbolic is not None or right.symbolic is not None:
            left_sym = self._symbolic_of(left)
            right_sym = self._symbolic_of(right)
            comparison_builders_signed = {
                "==": builder.eq,
                "!=": builder.ne,
                "<": builder.slt,
                "<=": builder.sle,
                ">": builder.sgt,
                ">=": builder.sge,
            }
            comparison_builders_unsigned = {
                "==": builder.eq,
                "!=": builder.ne,
                "<": builder.ult,
                "<=": builder.ule,
                ">": builder.ugt,
                ">=": builder.uge,
            }
            table = comparison_builders_signed if common.signed else comparison_builders_unsigned
            symbolic = simplify(
                builder.zext(table[op](left_sym, right_sym), 32), self.config.simplify_options
            )
        return TaintedValue(value=int(concrete), width=32, signed=True, symbolic=symbolic)

    def _apply_arithmetic(
        self,
        expression: ast.Binary,
        op: str,
        left: TaintedValue,
        right: TaintedValue,
        result_type: IntType,
        frame: Frame,
    ) -> TaintedValue:
        width = result_type.width
        mask = (1 << width) - 1
        left_raw = left.as_int if result_type.signed else left.value
        right_raw = right.as_int if result_type.signed else right.value
        left_true = left.true_value if left.true_value is not None else left_raw
        right_true = right.true_value if right.true_value is not None else right_raw

        symbolic: Optional[Expr] = None
        tainted = left.symbolic is not None or right.symbolic is not None

        if op in ("/", "%"):
            self.result.divisions.append(
                DivisionRecord(
                    site_id=expression.node_id,
                    function=frame.function,
                    line=expression.line,
                    divisor=right.value,
                    symbolic=right.symbolic,
                    sequence=self._division_sequence,
                )
            )
            self._division_sequence += 1
            if right.value == 0:
                raise MemoryFault("divide-by-zero", f"division by zero at line {expression.line}")

        if op == "+":
            value = left_raw + right_raw
            true_value = left_true + right_true
        elif op == "-":
            value = left_raw - right_raw
            true_value = left_true - right_true
        elif op == "*":
            value = left_raw * right_raw
            true_value = left_true * right_true
        elif op == "/":
            if result_type.signed:
                quotient = abs(left_raw) // abs(right_raw)
                value = -quotient if (left_raw < 0) != (right_raw < 0) else quotient
            else:
                value = left_raw // right_raw
            true_value = value
        elif op == "%":
            if result_type.signed:
                remainder = abs(left_raw) % abs(right_raw)
                value = -remainder if left_raw < 0 else remainder
            else:
                value = left_raw % right_raw
            true_value = value
        elif op == "&":
            value = left.value & right.value
            true_value = value
        elif op == "|":
            value = left.value | right.value
            true_value = value
        elif op == "^":
            value = left.value ^ right.value
            true_value = value
        elif op == "<<":
            shift = right.value
            value = 0 if shift >= width else (left.value << shift)
            true_value = left_true << min(shift, 256)
        elif op == ">>":
            shift = right.value
            if result_type.signed:
                value = left.as_int >> min(shift, width - 1)
            else:
                value = 0 if shift >= width else (left.value >> shift)
            true_value = value
        else:
            raise VMError(f"unknown binary operator {op!r}")

        if tainted and self.config.track_symbolic:
            left_sym = self._symbolic_of(left)
            right_sym = self._symbolic_of(right)
            op_builders = {
                "+": builder.add,
                "-": builder.sub,
                "*": builder.mul,
                "/": builder.sdiv if result_type.signed else builder.udiv,
                "%": builder.srem if result_type.signed else builder.urem,
                "&": builder.bvand,
                "|": builder.bvor,
                "^": builder.bvxor,
                "<<": builder.shl,
                ">>": builder.ashr if result_type.signed else builder.lshr,
            }
            symbolic = simplify(
                op_builders[op](left_sym, right_sym, width), self.config.simplify_options
            )

        return TaintedValue(
            value=value,
            width=width,
            signed=result_type.signed,
            symbolic=symbolic,
            true_value=true_value,
        )

    # -- calls and builtins ------------------------------------------------------------------------

    def _eval_call(self, expression: ast.Call, frame: Frame) -> Value:
        callee = expression.callee
        if callee.startswith("__sizeof:"):
            return make_value(self._sizeof(callee.split(":", 1)[1]), U32)
        if callee in BUILTIN_SIGNATURES and callee not in self.program.functions:
            return self._eval_builtin(expression, frame)
        arguments = [self._eval(argument, frame) for argument in expression.args]
        return self._call_function(callee, arguments)

    def _sizeof(self, type_text: str) -> int:
        if type_text.endswith("*"):
            return 8
        if type_text.startswith("struct "):
            struct = self.program.struct_table.lookup(type_text[len("struct ") :])
            return sum(self._sizeof(str(field.type)) for field in struct.fields)
        resolved = integer_type(type_text)
        return (resolved.width // 8) if resolved is not None else 8

    def _eval_builtin(self, expression: ast.Call, frame: Frame) -> Value:
        callee = expression.callee
        stream = self._stream
        assert stream is not None

        if callee == "read_byte":
            return self._note(frame, stream.read_byte())
        if callee in ("read_u16_be", "read_u16_le", "read_u32_be", "read_u32_le"):
            return self._note(frame, self._read_multi(callee))
        if callee == "skip_bytes":
            count = self._eval(expression.args[0], frame)
            stream.skip(count.value if isinstance(count, TaintedValue) else 0)
            return make_value(0, I32)
        if callee == "input_remaining":
            return make_value(stream.remaining(), U32)
        if callee in ("malloc", "malloc64"):
            return self._builtin_malloc(expression, frame)
        if callee == "store8":
            return self._builtin_store8(expression, frame)
        if callee == "load8":
            return self._builtin_load8(expression, frame)
        if callee == "exit":
            code = self._eval(expression.args[0], frame)
            raise _ExitSignal(code.as_int if isinstance(code, TaintedValue) else 0)
        if callee == "emit":
            value = self._eval(expression.args[0], frame)
            if isinstance(value, TaintedValue):
                self.result.output.append(value.value)
            return make_value(0, I32)
        raise VMError(f"unknown builtin {callee!r}")

    def _read_multi(self, callee: str) -> TaintedValue:
        stream = self._stream
        assert stream is not None
        size = 2 if "u16" in callee else 4
        big_endian = callee.endswith("_be")
        byte_values = [stream.read_byte() for _ in range(size)]
        ordered = byte_values if big_endian else list(reversed(byte_values))
        value = 0
        for byte in ordered:
            value = (value << 8) | byte.value
        symbolic: Optional[Expr] = None
        if any(byte.symbolic is not None for byte in byte_values):
            parts = [self._symbolic_of(byte) for byte in ordered]
            symbolic = simplify(builder.concat(*parts), self.config.simplify_options)
        ctype = U16 if size == 2 else U32
        return TaintedValue(value=value, width=ctype.width, signed=False, symbolic=symbolic)

    def _builtin_malloc(self, expression: ast.Call, frame: Frame) -> Pointer:
        size_value = self._eval(expression.args[0], frame)
        if not isinstance(size_value, TaintedValue):
            raise VMError("malloc requires an integer size")
        width = 64 if expression.callee == "malloc64" else 32
        wrapped = size_value.value & ((1 << width) - 1)
        true_size = size_value.true_value if size_value.true_value is not None else wrapped
        overflowed = (true_size != wrapped) or true_size < 0
        symbolic = size_value.symbolic
        statement = frame.current_statement
        record = AllocationRecord(
            site_id=expression.node_id,
            statement_id=statement.node_id if statement is not None else -1,
            function=frame.function,
            line=expression.line,
            size=wrapped,
            true_size=true_size,
            symbolic=symbolic,
            overflowed=overflowed,
            sequence=self._allocation_sequence,
        )
        self._allocation_sequence += 1
        self.result.allocations.append(record)
        self.hooks.on_allocation(self, frame, record)
        if overflowed and self.config.detect_allocation_overflow:
            self._raise_error(
                ErrorKind.INTEGER_OVERFLOW,
                f"allocation size overflows: true size {true_size} wraps to {wrapped} "
                f"at {frame.function} line {expression.line}",
            )
        self._heap_allocated += wrapped
        if self.config.max_heap_bytes and self._heap_allocated > self.config.max_heap_bytes:
            self._raise_error(
                ErrorKind.RESOURCE_EXHAUSTED,
                f"heap exhausted: {self._heap_allocated} bytes allocated exceeds "
                f"the {self.config.max_heap_bytes}-byte budget "
                f"at {frame.function} line {expression.line}",
            )
        buffer = Buffer(
            size=wrapped,
            site_id=expression.node_id,
            function=frame.function,
            overflowed_size=overflowed,
        )
        self.heap.append(buffer)
        return Pointer(target=buffer, pointee_type=U8)

    def _buffer_of(self, value: Value) -> Buffer:
        if not isinstance(value, Pointer):
            raise VMError("expected a buffer pointer")
        if value.is_null:
            raise MemoryFault("null-dereference", "null buffer pointer")
        if not isinstance(value.target, Buffer):
            raise MemoryFault("null-dereference", "pointer does not reference a heap buffer")
        return value.target

    def _builtin_store8(self, expression: ast.Call, frame: Frame) -> Value:
        buffer = self._buffer_of(self._eval(expression.args[0], frame))
        index = self._eval(expression.args[1], frame)
        value = self._eval(expression.args[2], frame)
        if not isinstance(index, TaintedValue) or not isinstance(value, TaintedValue):
            raise VMError("store8 requires integer index and value")
        # Index with the true (unwrapped) value: a size computation that
        # overflowed produces writes beyond the wrapped allocation, which is
        # exactly the out-of-bounds behaviour the paper's recipients exhibit.
        index_int = index.true_value if index.true_value is not None else index.as_int
        buffer.store(index_int, self._convert_int(value, U8))
        return make_value(0, I32)

    def _builtin_load8(self, expression: ast.Call, frame: Frame) -> Value:
        buffer = self._buffer_of(self._eval(expression.args[0], frame))
        index = self._eval(expression.args[1], frame)
        if not isinstance(index, TaintedValue):
            raise VMError("load8 requires an integer index")
        return self._note(frame, buffer.load(index.as_int))


def run_program(
    program: Program,
    data: bytes,
    field_map: Optional[FieldMap] = None,
    hooks: Optional[Hooks] = None,
    config: Optional[VMConfig] = None,
) -> RunResult:
    """Convenience wrapper: build a VM and run ``program`` on ``data``."""
    return VM(program, config=config).run(data, field_map=field_map, hooks=hooks)


# The compiled tiers import this module, so they are bound after it is defined.
from .compile import run_compiled  # noqa: E402
from .concrete import run_concrete  # noqa: E402
