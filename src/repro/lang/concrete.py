"""The concrete-only compiled artifact: untracked runs on plain ints.

Most VM runs of a repair track nothing symbolic: every DIODE trial, the
validation replays of the error and seed inputs, and every regression
replay run with ``track_symbolic=False``.  For those runs ``VM.run`` uses
the artifact compiled here instead of the tracked one in
:mod:`repro.lang.compile`.  It has the same statement bytecode (slot
classification and flattening are inherited), but its expression closures
never build a :class:`~repro.lang.memory.TaintedValue`:

* an integer is a plain ``int`` — the value read in the expression's static
  type, whose true (infinite-precision) value is the same number — or, only
  when the two differ, a :class:`~repro.lang.memory.WrappedInt` carrying the
  true value next to the wrapped one;
* widths and signedness are the checker's static types (``ctype`` on every
  expression), so every conversion is chosen at compile time, and most
  (widening an unsigned value, for one) compile to nothing at all.

Step counting, error reports, the raw branch/allocation/division records
and the heap are exactly those of the tracked artifact and the interpreter;
``tests/lang/test_vm_differential.py`` compares all three columns.

Static types describe run-time values only while no value changes type
behind the checker's back.  Three constructs allow that — a pointer cast to
another pointee, ``void`` pointers, and a local that shadows a global of
another type — and a function of non-``i32`` return type whose body can fall
through yields the interpreter's ``i32`` zero.  A program with any of them
gets no concrete artifact (:class:`NotConcrete`); its untracked runs use the
interpreter, the reference tier.
"""

from __future__ import annotations

import operator

from . import ast
from .bytecode import (
    CompiledProgram,
    Runtime,
    buffer_of,
    invoke_concrete,
)
from .checker import BUILTIN_SIGNATURES, Program
from .compile import (
    _BOXED,
    _CONCRETE_CMP,
    _DYN,
    _SIMPLE,
    _FunctionCompiler,
    _ProgramCompiler,
    cached_artifact,
    execute_artifact,
    run_finished,
    run_started,
)
from .memory import (
    ArenaBuffer,
    Cell,
    MemoryFault,
    Pointer,
    StructInstance,
    null_pointer,
    wrapped_int,
)
from .trace import (
    ErrorKind,
    RunResult,
    materialize_allocations,
    materialize_concrete_branches,
    materialize_divisions,
)
from .types import I32, U8, IntType, PointerType, StructType, VoidType, promote
from .vm import VMError, _ExitSignal


class NotConcrete(Exception):
    """The program may change a value's type at run time (see module doc)."""


# -- integer helpers, shared by every program (no per-program memory) ---------------


def _bounds(ctype: IntType) -> tuple[int, int, int, int]:
    """``(mask, half, lowest, highest)`` of an integer type's readings."""
    mask = (1 << ctype.width) - 1
    half = 1 << (ctype.width - 1)
    if ctype.signed:
        return mask, half, -half, half - 1
    return mask, half, 0, mask


def _true(value) -> int:
    return value if value.__class__ is int else value.true_value


_BOXERS: dict = {}


def boxer(ctype: IntType):
    """``box(value, true)``: wrap ``value`` into ``ctype`` and attach ``true``
    if it differs from the wrapped reading."""
    key = (ctype.width, ctype.signed)
    box = _BOXERS.get(key)
    if box is None:
        mask, half, _, _ = _bounds(ctype)
        size = mask + 1
        if ctype.signed:

            def box(value, true):
                value &= mask
                if value >= half:
                    value -= size
                return value if value == true else wrapped_int(value, true)

        else:

            def box(value, true):
                value &= mask
                return value if value == true else wrapped_int(value, true)

        box = _BOXERS.setdefault(key, box)
    return box


_CONVERTERS: dict = {}


def converter(source: IntType, target: IntType, preserve_true: bool):
    """``convert(value)`` from ``source`` to ``target``, or None for identity.

    Replicates ``convert_int``: the wrapped reading changes; the true value
    is carried along when widening (or for an explicit cast) and otherwise
    becomes the new reading.  Widening an unsigned value, or a signed one
    into a wider signed type, changes neither — that is the identity.
    """
    if source.width == target.width and source.signed == target.signed:
        return None
    carries = preserve_true or target.width >= source.width
    if carries and target.width > source.width and (
        not source.signed or target.signed
    ):
        return None
    key = (source.width, source.signed, target.width, target.signed, carries)
    convert = _CONVERTERS.get(key)
    if convert is None:
        if carries:
            box = boxer(target)

            def convert(value):
                return box(value, _true(value))

        else:
            convert = reader(source, target)
        convert = _CONVERTERS.setdefault(key, convert)
    return convert


_READERS: dict = {}


def reader(source: IntType, target: IntType):
    """``read(value)``: the plain reading of ``value`` in ``target`` (true
    values dropped), or None when every ``source`` reading is unchanged."""
    if target.width > source.width and (not source.signed or target.signed):
        return None
    if source.width == target.width and source.signed == target.signed:
        return None
    key = (target.width, target.signed)
    read = _READERS.get(key)
    if read is None:
        mask, half, _, _ = _bounds(target)
        size = mask + 1
        if target.signed:

            def read(value):
                value &= mask
                return value - size if value >= half else value

        else:

            def read(value):
                return value & mask

        read = _READERS.setdefault(key, read)
    return read


def _static(expression: ast.Expression):
    """The checker's static type, with literals and ``void`` calls (whose
    run-time value is the i32 zero) read as the interpreter reads them."""
    ctype = expression.ctype
    if isinstance(expression, ast.IntLiteral) and not isinstance(ctype, IntType):
        return I32
    if ctype is None or isinstance(ctype, VoidType):
        return I32
    return ctype


def _scalar_zero(ctype):
    """The zero of an integer or pointer type, in the concrete representation."""
    return 0 if isinstance(ctype, IntType) else null_pointer(ctype.pointee)


def _is_void_pointer(ctype) -> bool:
    while isinstance(ctype, PointerType):
        ctype = ctype.pointee
        if isinstance(ctype, VoidType):
            return True
    return False


def _check_concrete(program: Program) -> None:
    """Raise :class:`NotConcrete` for program-level reasons (see module doc).

    A ``void`` pointer can only enter through a declared type, so the
    compiler checks local declarations and casts as it meets them.
    """
    for struct_type in program.struct_table.all():
        for entry in struct_type.fields:
            if _is_void_pointer(entry.type):
                raise NotConcrete(f"struct {struct_type.name} holds a void pointer")
    for ctype in program.global_types.values():
        if _is_void_pointer(ctype):
            raise NotConcrete("a global is a void pointer")
    for name, function in program.functions.items():
        signature = program.signature(name)
        for ctype in (signature.return_type, *signature.parameter_types):
            if _is_void_pointer(ctype):
                raise NotConcrete(f"{name} passes a void pointer")
        if not isinstance(signature.return_type, VoidType) and signature.return_type != I32:
            body = function.body.statements
            if not body or not isinstance(body[-1], ast.Return):
                raise NotConcrete(f"{name} may fall through with an i32 zero")


# -- the compiler ----------------------------------------------------------------------


class _ConcreteProgramCompiler(_ProgramCompiler):
    """Compiles the concrete artifact: integer constants are plain ints."""

    def __init__(self, program: Program) -> None:
        _check_concrete(program)
        super().__init__(program, observed=False)
        self.struct_factories: dict[str, object] = {}

    def function_compiler(self, name: str) -> "_ConcreteFunctionCompiler":
        return _ConcreteFunctionCompiler(self, name)

    def const(self, value: int, ctype: IntType) -> int:
        mask, half, _, _ = _bounds(ctype)
        value &= mask
        return value - (mask + 1) if ctype.signed and value >= half else value

    def const_fn(self, value: int, ctype: IntType):
        return self.value_fn(self.const(value, ctype))

    def value_fn(self, value: int):
        """The closure evaluating a literal whose (converted) value is
        ``value``: one step, then the value."""
        key = (int(value), _true(value))
        fn = self.constant_fns.get(key)
        if fn is None:

            def fn(rt, L, value=value):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return value

            self.constant_fns[key] = fn
        return fn

    def global_factory(self, name: str, ctype):
        if isinstance(ctype, IntType):
            init = self.const(self.program.global_inits.get(name, 0), ctype)
            return lambda c=ctype, v=init: Cell(declared_type=c, value=v)
        if isinstance(ctype, StructType):
            make = self.struct_factory(ctype)
            return lambda c=ctype, make=make: Cell(declared_type=c, value=make())
        return lambda c=ctype, v=_scalar_zero(ctype): Cell(declared_type=c, value=v)

    def struct_factory(self, ctype: StructType):
        """``make()``: a fresh zero instance of ``ctype`` (``instantiate``
        in the concrete representation, the type walk done at compile time)."""
        make = self.struct_factories.get(ctype.name)
        if make is None:
            fields = []  # (name, type, nested struct factory, or zero value)
            for entry in ctype.fields:
                if isinstance(entry.type, StructType):
                    fields.append((entry.name, entry.type, self.struct_factory(entry.type), None))
                else:
                    fields.append((entry.name, entry.type, None, _scalar_zero(entry.type)))

            def make(ctype=ctype, fields=tuple(fields)):
                instance = StructInstance(struct_type=ctype)
                cells = instance.cells
                for name, field_type, nested, zero in fields:
                    cells[name] = Cell(
                        declared_type=field_type, value=zero if nested is None else nested()
                    )
                return instance

            self.struct_factories[ctype.name] = make
        return make


class _ConcreteFunctionCompiler(_FunctionCompiler):
    """Expression and store closures over plain ints and static types."""

    def _classify(self) -> None:
        super()._classify()
        if _DYN not in self.kinds.values():
            return
        global_types = self.pc.program.global_types
        for statement in self.decl.body.walk_statements():
            if (
                isinstance(statement, ast.VarDecl)
                and self.kinds.get(statement.name) == _DYN
                and self.pc.resolve(statement.type_ref) != global_types[statement.name]
            ):
                raise NotConcrete(
                    f"local {statement.name!r} shadows a global of another type"
                )

    def compile(self):
        compiled = super().compile()
        compiled.return_conv = None  # return statements convert
        if all(self.kinds[p.name] == _SIMPLE for p in self.decl.parameters):
            compiled.param_stores = ()
        return compiled

    # -- typed operands ---------------------------------------------------------------

    def _typed(self, expression: ast.Expression, target, preserve_true: bool = False):
        """Closure yielding ``expression`` converted for storage in ``target``
        (``convert_for_store`` with the conversion chosen statically)."""
        source = _static(expression)
        if isinstance(target, IntType) and isinstance(source, IntType):
            convert = converter(source, target, preserve_true)
            return self._apply(expression, convert)
        fn = self._compile_expr(expression)
        if isinstance(target, PointerType) and not isinstance(source, PointerType):
            # Only an integer zero may become a (null) pointer.
            null = null_pointer(target.pointee)

            def to_pointer(rt, L, fn=fn, null=null):
                value = fn(rt, L)
                if isinstance(value, int) and value == 0:
                    return null
                raise VMError("cannot store a non-pointer into a pointer cell")

            return to_pointer
        if isinstance(target, IntType) and not isinstance(source, IntType):

            def not_int(rt, L, fn=fn):
                value = fn(rt, L)
                raise VMError(f"cannot store {type(value).__name__} into integer cell")

            return not_int
        return fn

    def _read(self, expression: ast.Expression, target: IntType):
        """Closure yielding the plain reading of ``expression`` in ``target``."""
        return self._apply(expression, reader(_static(expression), target))

    def _apply(self, expression: ast.Expression, convert):
        """Compose ``convert`` after ``expression``'s closure (folded into the
        constant for literals)."""
        if convert is None:
            return self._compile_expr(expression)
        if isinstance(expression, ast.IntLiteral):
            return self.pc.value_fn(convert(self.pc.const(expression.value, _static(expression))))
        fn = self._compile_expr(expression)

        def converted(rt, L, fn=fn, convert=convert):
            return convert(fn(rt, L))

        return converted

    # -- statements -------------------------------------------------------------------

    def _compile_condition(self, expression: ast.Expression):
        ctype = _static(expression)
        fn = self._compile_expr(expression)
        if isinstance(ctype, IntType):
            return fn, _bounds(ctype)[0]
        if isinstance(ctype, PointerType):

            def pointer_condition(rt, L, fn=fn):
                return 0 if fn(rt, L).target is None else 1

            return pointer_condition, 1

        def invalid_condition(rt, L, fn=fn):
            fn(rt, L)
            raise VMError("invalid branch condition value")

        return invalid_condition, 0

    def _compile_return_value(self, expression: ast.Expression):
        return self._typed(expression, self.signature.return_type)

    def _param_store(self, name: str):
        slot = self.slots[name]
        if self.kinds[name] == _BOXED:
            ptype = self.decl_types[name]

            def store(L, argument, slot=slot, ptype=ptype):
                L[slot] = Cell(declared_type=ptype, value=argument)

        else:

            def store(L, argument, slot=slot):
                L[slot] = argument

        return store

    def _compile_vardecl(self, statement: ast.VarDecl):
        ctype = self.pc.resolve(statement.type_ref)
        if _is_void_pointer(ctype):
            raise NotConcrete(f"{self.fname} declares a void pointer")
        slot = self.slots[statement.name]
        kind = self.kinds[statement.name]
        if statement.init is None:
            if isinstance(ctype, StructType):
                make = self.pc.struct_factory(ctype)

                def initial(rt, L, make=make):
                    return make()

            else:
                default = _scalar_zero(ctype)  # 0 or a shared null Pointer
                if kind == _SIMPLE:

                    def fn(rt, L, slot=slot, default=default):
                        L[slot] = default

                    return fn

                def initial(rt, L, default=default):
                    return default

        else:
            initial = self._typed(statement.init, ctype)
        if kind == _SIMPLE:

            def fn(rt, L, slot=slot, initial=initial):
                L[slot] = initial(rt, L)

        else:  # _BOXED or _DYN: a fresh Cell per execution (pointer identity)

            def fn(rt, L, slot=slot, initial=initial, ctype=ctype):
                L[slot] = Cell(declared_type=ctype, value=initial(rt, L))

        return fn

    def _compile_assign(self, statement: ast.Assign):
        target = statement.target
        value_fn = self._typed(statement.value, _static(target))
        if isinstance(target, ast.Name):
            resolved = self._resolve_name(target.name)
            if resolved[0] == "local":
                _, slot, kind = resolved
                if kind == _SIMPLE:

                    def fn(rt, L, slot=slot, value_fn=value_fn):
                        L[slot] = value_fn(rt, L)

                    return fn
                if kind == _DYN:
                    gindex = self.pc.global_index[target.name]

                    def fn(rt, L, slot=slot, gindex=gindex, value_fn=value_fn):
                        value = value_fn(rt, L)
                        cell = L[slot]
                        if cell is None:
                            cell = rt.gslots[gindex]
                        cell.value = value

                    return fn

                def fn(rt, L, slot=slot, value_fn=value_fn):
                    L[slot].value = value_fn(rt, L)

                return fn

            def fn(rt, L, gindex=resolved[1], value_fn=value_fn):
                rt.gslots[gindex].value = value_fn(rt, L)

            return fn
        cell_fn = self._compile_lvalue(target)

        def fn(rt, L, cell_fn=cell_fn, value_fn=value_fn):
            value = value_fn(rt, L)
            cell_fn(rt, L).value = value

        return fn

    # -- expressions ------------------------------------------------------------------

    def _compile_cast(self, expression: ast.Cast):
        target = expression.ctype
        source = _static(expression.operand)
        if isinstance(target, IntType) and isinstance(source, IntType):
            convert = converter(source, target, preserve_true=True)
            operand_fn = self._compile_expr(expression.operand)
            if convert is not None:

                def fn(rt, L, operand_fn=operand_fn, convert=convert):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    return convert(operand_fn(rt, L))

                return fn
        elif isinstance(target, IntType) and isinstance(source, PointerType):
            pointer_fn = self._compile_expr(expression.operand)

            def operand_fn(rt, L, pointer_fn=pointer_fn):
                return 0 if pointer_fn(rt, L).target is None else 1

        elif isinstance(target, PointerType) and isinstance(source, PointerType):
            if target != source or _is_void_pointer(target):
                raise NotConcrete(f"{self.fname} casts a pointer to another type")
            operand_fn = self._compile_expr(expression.operand)
        else:
            failing_fn = self._compile_expr(expression.operand)

            def operand_fn(rt, L, failing_fn=failing_fn, target=target):
                failing_fn(rt, L)
                raise VMError(f"unsupported cast to {target}")

        def fn(rt, L, operand_fn=operand_fn):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            return operand_fn(rt, L)

        return fn

    def _truth(self, expression: ast.Expression):
        """Closure yielding the truth (``bool``) of a condition operand."""
        ctype = _static(expression)
        fn = self._compile_expr(expression)
        if isinstance(ctype, IntType):

            def truth(rt, L, fn=fn):
                return fn(rt, L) != 0

        elif isinstance(ctype, PointerType):

            def truth(rt, L, fn=fn):
                return fn(rt, L).target is not None

        else:

            def truth(rt, L, fn=fn):
                fn(rt, L)
                raise VMError("invalid truth operand")

        return truth

    def _compile_unary(self, expression: ast.Unary):
        op = expression.op
        if op == "!":
            if isinstance(_static(expression.operand), (IntType, PointerType)):
                truth_fn = self._truth(expression.operand)
            else:
                operand_fn = self._compile_expr(expression.operand)

                def truth_fn(rt, L, operand_fn=operand_fn):
                    operand_fn(rt, L)
                    raise VMError("! applied to a non-scalar")

            def fn(rt, L, truth_fn=truth_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return 0 if truth_fn(rt, L) else 1

            return fn
        ctype = expression.ctype if isinstance(expression.ctype, IntType) else I32
        operand_fn = self._typed(expression.operand, ctype)
        mask, _, lowest, highest = _bounds(ctype)
        if op == "-":
            box = boxer(ctype)

            def fn(rt, L, operand_fn=operand_fn, box=box, lowest=lowest, highest=highest):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                operand = operand_fn(rt, L)
                if operand.__class__ is int:
                    result = -operand
                    if lowest <= result <= highest:
                        return result
                    return box(result, result)
                return box(-operand, -operand.true_value)

            return fn
        if op == "~":
            if ctype.signed:

                def fn(rt, L, operand_fn=operand_fn):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    return ~operand_fn(rt, L)

            else:

                def fn(rt, L, operand_fn=operand_fn, mask=mask):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    return ~operand_fn(rt, L) & mask

            return fn
        raise VMError(f"unknown unary operator {op!r}")

    def _compile_logical(self, expression: ast.Binary):
        left_fn = self._truth(expression.left)
        right_fn = self._truth(expression.right)
        if expression.op == "&&":

            def fn(rt, L, left_fn=left_fn, right_fn=right_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return 1 if left_fn(rt, L) and right_fn(rt, L) else 0

        else:

            def fn(rt, L, left_fn=left_fn, right_fn=right_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return 1 if left_fn(rt, L) or right_fn(rt, L) else 0

        return fn

    def _compile_comparison(self, expression: ast.Binary):
        op = expression.op
        compare = _CONCRETE_CMP[op]
        left_type = _static(expression.left)
        right_type = _static(expression.right)
        if isinstance(left_type, IntType) and isinstance(right_type, IntType):
            common = promote(left_type, right_type)
            left_fn = self._read(expression.left, common)
            right_fn = self._read(expression.right, common)

            def fn(rt, L, left_fn=left_fn, right_fn=right_fn, compare=compare):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return 1 if compare(left_fn(rt, L), right_fn(rt, L)) else 0

            return fn
        left_fn = self._compile_expr(expression.left)
        right_fn = self._compile_expr(expression.right)

        def fn(rt, L, left_fn=left_fn, right_fn=right_fn, op=op):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            return _compare_pointers(op, left_fn(rt, L), right_fn(rt, L))

        return fn

    def _compile_arithmetic(self, expression: ast.Binary):
        op = expression.op
        ctype = expression.ctype if isinstance(expression.ctype, IntType) else I32
        left_fn = self._typed(expression.left, ctype)
        right_fn = self._typed(expression.right, ctype)
        width, signed = ctype.width, ctype.signed
        mask, _, lowest, highest = _bounds(ctype)
        box = boxer(ctype)
        if op in ("+", "-", "*"):
            return _ARITHMETIC[op](left_fn, right_fn, box, lowest, highest)
        if op in ("/", "%"):
            site = (expression.node_id, self.fname, expression.line)
            zero_message = f"division by zero at line {expression.line}"
            is_div = op == "/"

            def fn(rt, L, left_fn=left_fn, right_fn=right_fn, site=site, mask=mask):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                left = left_fn(rt, L)
                right = right_fn(rt, L)
                rt.raw_divisions.append((*site, right & mask, None))
                if right == 0:
                    raise MemoryFault("divide-by-zero", zero_message)
                if not signed:
                    return left // right if is_div else left % right
                if is_div:
                    quotient = abs(left) // abs(right)
                    value = -quotient if (left < 0) != (right < 0) else quotient
                else:
                    remainder = abs(left) % abs(right)
                    value = -remainder if left < 0 else remainder
                return value if lowest <= value <= highest else box(value, value)

            return fn
        if op in ("&", "|", "^"):
            bit = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[op]
            if signed:
                # The true value of a bitwise result is its unsigned reading.

                def fn(rt, L, left_fn=left_fn, right_fn=right_fn, bit=bit, mask=mask):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    value = bit(left_fn(rt, L), right_fn(rt, L))
                    return value if value >= 0 else wrapped_int(value, value & mask)

            else:

                def fn(rt, L, left_fn=left_fn, right_fn=right_fn, bit=bit):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    return bit(left_fn(rt, L), right_fn(rt, L))

            return fn
        if op == "<<":

            def fn(rt, L, left_fn=left_fn, right_fn=right_fn, mask=mask, box=box):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                left = left_fn(rt, L)
                shift = right_fn(rt, L) & mask
                true = _true(left) << min(shift, 256)
                return box(left << shift if shift < width else 0, true)

            return fn
        if op == ">>":
            if signed:
                limit = width - 1

                def fn(rt, L, left_fn=left_fn, right_fn=right_fn, mask=mask):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    left = left_fn(rt, L)
                    return left >> min(right_fn(rt, L) & mask, limit)

            else:

                def fn(rt, L, left_fn=left_fn, right_fn=right_fn, mask=mask):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    left = left_fn(rt, L)
                    shift = right_fn(rt, L) & mask
                    return 0 if shift >= width else left >> shift

            return fn
        raise VMError(f"unknown binary operator {op!r}")

    # -- calls and builtins -----------------------------------------------------------

    def _compile_call(self, expression: ast.Call):
        callee = expression.callee
        if callee.startswith("__sizeof:") or (
            callee in BUILTIN_SIGNATURES and callee not in self.pc.program.functions
        ):
            return super()._compile_call(expression)
        parameter_types = self.pc.program.signature(callee).parameter_types
        arg_fns = tuple(
            self._typed(argument, ptype)
            for argument, ptype in zip(expression.args, parameter_types)
        )
        functions = self.pc.functions  # shared table; filled by the time we run

        def fn(rt, L, callee=callee, arg_fns=arg_fns, functions=functions):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            return invoke_concrete(
                rt, functions[callee], [argument_fn(rt, L) for argument_fn in arg_fns]
            )

        return fn

    def _compile_builtin(self, expression: ast.Call):
        callee = expression.callee
        if callee == "read_byte":

            def fn(rt, L):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                cursor = rt.cursor
                rt.cursor = cursor + 1
                # Past the end, files read as zero bytes.
                return rt.data[cursor] if cursor < rt.data_len else 0

            return fn
        if callee in ("read_u16_be", "read_u16_le", "read_u32_be", "read_u32_le"):
            size = 2 if "u16" in callee else 4
            order = "big" if callee.endswith("_be") else "little"

            def fn(rt, L, size=size, order=order):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                cursor = rt.cursor
                rt.cursor = cursor + size
                chunk = rt.data[cursor : cursor + size]
                if len(chunk) < size:
                    chunk += bytes(size - len(chunk))
                return int.from_bytes(chunk, order)

            return fn
        if callee == "skip_bytes":
            count_fn, mask = self._masked(expression.args[0])

            def fn(rt, L, count_fn=count_fn, mask=mask):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                rt.cursor += count_fn(rt, L) & mask
                return 0

            return fn
        if callee == "input_remaining":

            def fn(rt, L):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                remaining = rt.data_len - rt.cursor
                return remaining if remaining > 0 else 0

            return fn
        if callee in ("malloc", "malloc64"):
            return self._compile_malloc(expression)
        if callee == "store8":
            buffer_fn = self._compile_expr(expression.args[0])
            index_fn = self._compile_expr(expression.args[1])
            value_fn = self._typed(expression.args[2], U8)

            def fn(rt, L, buffer_fn=buffer_fn, index_fn=index_fn, value_fn=value_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                buffer = buffer_of(buffer_fn(rt, L))
                index = index_fn(rt, L)
                # The true (unwrapped) index, as in the tracked artifact.
                buffer.store_int(_true(index), value_fn(rt, L))
                return 0

            return fn
        if callee == "load8":
            buffer_fn = self._compile_expr(expression.args[0])
            index_fn = self._compile_expr(expression.args[1])

            def fn(rt, L, buffer_fn=buffer_fn, index_fn=index_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                buffer = buffer_of(buffer_fn(rt, L))
                return buffer.load_int(index_fn(rt, L))

            return fn
        if callee == "exit":
            code_fn, _ = self._masked(expression.args[0])

            def fn(rt, L, code_fn=code_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                raise _ExitSignal(int(code_fn(rt, L)))

            return fn
        if callee == "emit":
            value_fn, mask = self._masked(expression.args[0])

            def fn(rt, L, value_fn=value_fn, mask=mask):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                value = value_fn(rt, L) & mask
                if mask:
                    rt.output.append(value)
                return 0

            return fn
        raise VMError(f"unknown builtin {callee!r}")

    def _masked(self, expression: ast.Expression):
        """``(fn, mask)``: an integer argument and its type's mask, or — for a
        pointer or struct argument, which these builtins read as 0 — a
        closure yielding 0 and mask 0."""
        fn = self._compile_expr(expression)
        ctype = _static(expression)
        if isinstance(ctype, IntType):
            return fn, _bounds(ctype)[0]

        def as_zero(rt, L, fn=fn):
            fn(rt, L)
            return 0

        return as_zero, 0

    def _compile_malloc(self, expression: ast.Call):
        size_fn, size_mask = self._masked(expression.args[0])
        alloc_mask = (1 << (64 if expression.callee == "malloc64" else 32)) - 1
        mask = size_mask & alloc_mask
        site_id = expression.node_id
        line = expression.line
        fname = self.fname
        if not size_mask:

            def size_fn(rt, L, operand_fn=size_fn):
                operand_fn(rt, L)
                raise VMError("malloc requires an integer size")

        def fn(rt, L, size_fn=size_fn, mask=mask):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            size_value = size_fn(rt, L)
            wrapped = size_value & mask
            true_size = _true(size_value)
            overflowed = (true_size != wrapped) or true_size < 0
            rt.raw_allocations.append(
                (site_id, rt.current[1], fname, line, wrapped, true_size, None, overflowed)
            )
            if overflowed and rt.detect_overflow:
                rt.error(
                    ErrorKind.INTEGER_OVERFLOW,
                    f"allocation size overflows: true size {true_size} wraps to "
                    f"{wrapped} at {fname} line {line}",
                )
            rt.heap_allocated += wrapped
            if rt.max_heap_bytes and rt.heap_allocated > rt.max_heap_bytes:
                rt.error(
                    ErrorKind.RESOURCE_EXHAUSTED,
                    f"heap exhausted: {rt.heap_allocated} bytes allocated exceeds "
                    f"the {rt.max_heap_bytes}-byte budget "
                    f"at {fname} line {line}",
                )
            buffer = ArenaBuffer(
                size=wrapped, site_id=site_id, function=fname, overflowed_size=overflowed
            )
            rt.heap.append(buffer)
            return Pointer(target=buffer, pointee_type=U8)

        return fn


def _compare_pointers(op: str, left, right) -> int:
    """A comparison with a pointer operand (``compile._compile_comparison``)."""
    left_pointer = left.__class__ is Pointer
    right_pointer = right.__class__ is Pointer
    if left_pointer and right_pointer:
        equal = left.target is right.target
    elif left_pointer:
        if right_pointer or not isinstance(right, int) or right != 0:
            raise VMError("pointers may only be compared with pointers or 0")
        equal = left.target is None
    elif right_pointer:
        if not isinstance(left, int) or left != 0:
            raise VMError("pointers may only be compared with pointers or 0")
        equal = right.target is None
    else:
        raise VMError("comparison of non-scalar values")
    if op not in ("==", "!="):
        raise VMError(f"pointer comparison {op!r} not supported")
    return 1 if equal == (op == "==") else 0


def _add(left_fn, right_fn, box, lowest, highest):
    def fn(rt, L):
        rt.steps += 1
        if rt.steps > rt.max_steps:
            rt.exhausted()
        left = left_fn(rt, L)
        right = right_fn(rt, L)
        value = left + right
        if left.__class__ is int and right.__class__ is int:
            if lowest <= value <= highest:
                return value
            return box(value, value)
        return box(value, _true(left) + _true(right))

    return fn


def _sub(left_fn, right_fn, box, lowest, highest):
    def fn(rt, L):
        rt.steps += 1
        if rt.steps > rt.max_steps:
            rt.exhausted()
        left = left_fn(rt, L)
        right = right_fn(rt, L)
        value = left - right
        if left.__class__ is int and right.__class__ is int:
            if lowest <= value <= highest:
                return value
            return box(value, value)
        return box(value, _true(left) - _true(right))

    return fn


def _mul(left_fn, right_fn, box, lowest, highest):
    def fn(rt, L):
        rt.steps += 1
        if rt.steps > rt.max_steps:
            rt.exhausted()
        left = left_fn(rt, L)
        right = right_fn(rt, L)
        value = left * right
        if left.__class__ is int and right.__class__ is int:
            if lowest <= value <= highest:
                return value
            return box(value, value)
        return box(value, _true(left) * _true(right))

    return fn


_ARITHMETIC = {"+": _add, "-": _sub, "*": _mul}


# -- cache and run entry ---------------------------------------------------------------

#: Cached in place of an artifact for programs that cannot have one.
_NO_ARTIFACT = CompiledProgram(digest="", functions={}, globals_plan=(), global_index={})


def _build(program: Program) -> CompiledProgram:
    try:
        return _ConcreteProgramCompiler(program).compile()
    except NotConcrete:
        return _NO_ARTIFACT


def compile_concrete(program: Program):
    """The concrete artifact of ``program`` (cached under ``(digest,
    "concrete")``), or None when its run-time types are not static."""
    compiled = cached_artifact(program, "concrete", lambda: _build(program))
    return None if compiled is _NO_ARTIFACT else compiled


def run_concrete(vm, data: bytes, entry: str = "main") -> RunResult:
    """Execute ``vm.program`` untracked on the concrete artifact.

    The result equals an untracked interpreter run's.  ``vm.globals`` holds
    the run's global cells, whose integers are in the concrete
    representation (nothing reads them after an untracked run).  A program
    without a concrete artifact runs on the interpreter instead.
    """
    started = run_started()
    compiled = compile_concrete(vm.program)
    if compiled is None:
        return vm.interpret(data, entry=entry)
    rt = Runtime(vm.config, data)
    result = execute_artifact(vm, compiled, rt, invoke_concrete, entry)
    result.branches = materialize_concrete_branches(rt.raw_branches)
    if rt.raw_allocations:
        result.allocations = materialize_allocations(rt.raw_allocations)
    if rt.raw_divisions:
        result.divisions = materialize_divisions(rt.raw_divisions)
    run_finished(result, entry, "concrete", started)
    return result


__all__ = ["NotConcrete", "compile_concrete", "run_concrete"]
