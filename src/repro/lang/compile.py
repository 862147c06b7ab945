"""AST-to-bytecode compiler, compile cache, and compiled-tier run entry.

This module turns a type-checked :class:`~repro.lang.checker.Program` into
the :class:`~repro.lang.bytecode.CompiledProgram` form executed by
:mod:`repro.lang.bytecode`:

* every function body is flattened into linear statement bytecode with
  explicit jump targets (no Python recursion or signal exceptions for
  control flow),
* every expression becomes a closure specialised at compile time — static
  result types from the checker, interned constants from a per-program
  constant pool, prebound symbolic-builder functions, and precomputed
  masks — so the hot path does no AST dispatch and no type resolution,
* every variable reference resolves to a list slot.  Names that a local
  declaration may *dynamically* shadow (a ``VarDecl`` naming a global: the
  interpreter's flat per-function locals keep such a local alive after its
  block exits, e.g. across loop iterations) get a boxed slot with a
  ``None`` sentinel and fall back to the global cell, reproducing the
  interpreter's dynamic lookup exactly.  Address-taken names are boxed in
  :class:`~repro.lang.memory.Cell` objects so pointer identity works.

This is the tracked artifact (and, with ``observed=True``, the observed
one); :mod:`repro.lang.concrete` subclasses the compiler for the concrete
artifact that untracked runs take, and shares the cache and run helpers
defined here.

Compiled programs are cached in a content-addressed LRU keyed by the
SHA-256 of the program source.  The cache is the *only* place closures
live — they are never attached to ``Program`` or ``VM`` objects, so
everything that crosses a pickle boundary stays picklable, and campaign
workers started via ``fork`` inherit a warm cache by address-space copy.
When :mod:`repro.lang.patcher` rewrites a check it produces a new source
text, hence a new digest: stale entries are unreachable by construction.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager

from ..formats.raw import RawFormat
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..symbolic import builder
from ..symbolic.expr import Constant
from ..symbolic.simplify import simplify
from . import ast
from .bytecode import (
    OP_IF,
    OP_JUMP,
    OP_LOOPCOND,
    OP_LOOPSTEP,
    OP_MARK,
    OP_OBS,
    OP_RET,
    OP_SIMPLE,
    CompiledFunction,
    CompiledProgram,
    Runtime,
    buffer_of,
    convert_for_store,
    convert_int,
    deref_cell,
    invoke,
)
from .checker import _PROGRAM_CACHE, BUILTIN_SIGNATURES, Checker, Program
from .memory import (
    ArenaBuffer,
    Cell,
    MemoryFault,
    Pointer,
    StructInstance,
    TaintedValue,
    fast_value,
    instantiate,
    make_value,
    new_cell,
    null_pointer,
)
from .trace import NULL_HOOKS, ErrorKind, RunResult, RunStatus
from .types import I32, IntType, PointerType, StructType, U8, U32, integer_type, promote
from .vm import VM, VMError, _ErrorSignal, _ExitSignal

# Interned i32 truth values (identical by equality to make_value(_, I32)).
_FALSE = make_value(0, I32)
_TRUE = make_value(1, I32)

_CONCRETE_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_SIGNED_CMP = {
    "==": builder.eq,
    "!=": builder.ne,
    "<": builder.slt,
    "<=": builder.sle,
    ">": builder.sgt,
    ">=": builder.sge,
}
_UNSIGNED_CMP = {
    "==": builder.eq,
    "!=": builder.ne,
    "<": builder.ult,
    "<=": builder.ule,
    ">": builder.ugt,
    ">=": builder.uge,
}

# Slot kinds for local names (see module docstring).
_SIMPLE = 0  # slot holds the raw runtime value
_BOXED = 1   # slot holds a Cell (address-taken or multiply-declared)
_DYN = 2     # slot holds a Cell or the None sentinel (may shadow a global)


class _ProgramCompiler:
    """Compiles one checked program; shared constant pool and type resolver."""

    def __init__(self, program: Program, observed: bool = False) -> None:
        self.program = program
        # Observed artifacts additionally record input-field reads per
        # activation and emit OP_OBS observation points after every
        # non-return statement (the insertion-point analysis tier).
        self.observed = observed
        checker = Checker(program.unit)
        checker.struct_table = program.struct_table
        self.resolve = checker._resolve
        self.global_index = {
            name: index for index, name in enumerate(program.global_types)
        }
        self.constants: dict[tuple, TaintedValue] = {}
        #: Constant-returning closures, one per distinct constant: they are
        #: pure, so every literal of the same value shares one.
        self.constant_fns: dict[tuple, object] = {}
        # Shared mutable function table: call sites close over it, so forward
        # references and recursion resolve once compilation completes.
        self.functions: dict[str, CompiledFunction] = {}

    def compile(self) -> CompiledProgram:
        for name in self.program.functions:
            self.functions[name] = self.function_compiler(name).compile()
        return CompiledProgram(
            digest=self.program.digest,
            functions=self.functions,
            globals_plan=tuple(
                (name, self.global_factory(name, ctype))
                for name, ctype in self.program.global_types.items()
            ),
            global_index=self.global_index,
        )

    def function_compiler(self, name: str) -> "_FunctionCompiler":
        return _FunctionCompiler(self, name)

    def global_factory(self, name: str, ctype):
        """A zero-argument callable making the global's fresh cell for one run."""
        if isinstance(ctype, IntType):
            init = self.const(self.program.global_inits.get(name, 0), ctype)
            return lambda c=ctype, v=init: Cell(declared_type=c, value=v)
        return lambda c=ctype: new_cell(c)

    def const(self, value: int, ctype: IntType) -> TaintedValue:
        key = (value, ctype.width, ctype.signed)
        cached = self.constants.get(key)
        if cached is None:
            cached = make_value(value, ctype)
            self.constants[key] = cached
        return cached

    def const_fn(self, value: int, ctype: IntType):
        """The closure evaluating a literal: one step, then the constant."""
        key = (value, ctype.width, ctype.signed)
        fn = self.constant_fns.get(key)
        if fn is None:
            constant = self.const(value, ctype)

            def fn(rt, L, constant=constant):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return constant

            self.constant_fns[key] = fn
        return fn

    def sizeof(self, type_text: str) -> int:
        if type_text.endswith("*"):
            return 8
        if type_text.startswith("struct "):
            struct = self.program.struct_table.lookup(type_text[len("struct ") :])
            return sum(self.sizeof(str(entry.type)) for entry in struct.fields)
        resolved = integer_type(type_text)
        return (resolved.width // 8) if resolved is not None else 8


class _FunctionCompiler:
    """Compiles one function: slot allocation plus statement/expression code."""

    def __init__(self, pc: _ProgramCompiler, name: str) -> None:
        self.pc = pc
        self.fname = name
        self.decl = pc.program.function(name)
        self.signature = pc.program.signature(name)
        self.slots: dict[str, int] = {}
        self.kinds: dict[str, int] = {}
        self.decl_types: dict[str, object] = {}
        #: Closures of pure reads (names, field accesses, dereferences) by
        #: :func:`_read_key`: every occurrence of the same read shares one.
        self.read_fns: dict[object, object] = {}
        self._slot_map = None
        self._classify()

    # -- slot classification ---------------------------------------------------------

    def _expressions(self):
        for statement in self.decl.body.walk_statements():
            for attr in ("init", "value", "target", "condition", "expression"):
                node = getattr(statement, attr, None)
                if isinstance(node, ast.Expression):
                    yield from node.walk()

    def _classify(self) -> None:
        program = self.pc.program
        addressed: set[str] = set()
        for node in self._expressions():
            if isinstance(node, ast.AddressOf) and isinstance(node.operand, ast.Name):
                addressed.add(node.operand.name)
        decl_sites: dict[str, int] = {}
        for statement in self.decl.body.walk_statements():
            if isinstance(statement, ast.VarDecl):
                decl_sites[statement.name] = decl_sites.get(statement.name, 0) + 1
                self.decl_types[statement.name] = self.pc.resolve(statement.type_ref)
        for parameter, ptype in zip(
            self.decl.parameters, self.signature.parameter_types
        ):
            name = parameter.name
            self.decl_types[name] = ptype
            self.slots[name] = len(self.slots)
            self.kinds[name] = _BOXED if name in addressed else _SIMPLE
        for name in decl_sites:
            if name not in self.slots:
                self.slots[name] = len(self.slots)
            if name in program.global_types:
                # A local may dynamically shadow this global: replicate the
                # interpreter's locals-first lookup with a None sentinel.
                self.kinds[name] = _DYN
            elif name in addressed or decl_sites[name] > 1:
                self.kinds[name] = _BOXED
            else:
                self.kinds[name] = _SIMPLE

    # -- function assembly -----------------------------------------------------------

    def compile(self) -> CompiledFunction:
        out: list = []
        self._compile_block(self.decl.body, out)
        code = tuple(tuple(ins) for ins in out)
        return_type = self.signature.return_type
        return_conv = (
            (return_type.width, return_type.signed)
            if isinstance(return_type, IntType)
            else None
        )
        return CompiledFunction(
            name=self.fname,
            nlocals=len(self.slots),
            code=code,
            param_stores=tuple(
                self._param_store(parameter.name)
                for parameter in self.decl.parameters
            ),
            return_conv=return_conv,
            entry_current=(self.fname, -1, 0),
            local_names=tuple(self.slots),
        )

    def _param_store(self, name: str):
        slot = self.slots[name]
        ptype = self.decl_types[name]
        boxed = self.kinds[name] == _BOXED
        if boxed:

            def store(rt, L, argument, slot=slot, ptype=ptype):
                L[slot] = Cell(
                    declared_type=ptype, value=convert_for_store(rt, argument, ptype)
                )

        else:

            def store(rt, L, argument, slot=slot, ptype=ptype):
                L[slot] = convert_for_store(rt, argument, ptype)

        return store

    # -- statements ------------------------------------------------------------------

    def _compile_block(self, block: ast.Block, out: list) -> None:
        for statement in block.statements:
            self._compile_statement(statement, out)

    def _observation(self):
        """The shared ``(slot, kind, declared type)`` map OP_OBS instructions
        carry, so an observer can reconstruct a name -> Cell view of the
        activation's locals without any reference to the compiler."""
        if self._slot_map is None:
            self._slot_map = {
                name: (slot, self.kinds[name], self.decl_types[name])
                for name, slot in self.slots.items()
            }
        return self._slot_map

    def _compile_statement(self, statement: ast.Statement, out: list) -> None:
        marker = (self.fname, statement.node_id, statement.line)
        if isinstance(statement, ast.VarDecl):
            out.append([OP_SIMPLE, self._compile_vardecl(statement), marker])
        elif isinstance(statement, ast.Assign):
            out.append([OP_SIMPLE, self._compile_assign(statement), marker])
        elif isinstance(statement, ast.If):
            condition_fn, mask = self._compile_condition(statement.condition)
            ins = [OP_IF, condition_fn, marker, 0, mask]
            out.append(ins)
            self._compile_block(statement.then_block, out)
            if statement.else_block is not None:
                jump = [OP_JUMP, 0]
                out.append(jump)
                ins[3] = len(out)
                self._compile_block(statement.else_block, out)
                jump[1] = len(out)
            else:
                ins[3] = len(out)
        elif isinstance(statement, ast.While):
            out.append([OP_MARK, marker])
            condition_pc = len(out)
            condition_fn, mask = self._compile_condition(statement.condition)
            ins = [OP_LOOPCOND, condition_fn, marker, 0, mask]
            out.append(ins)
            self._compile_block(statement.body, out)
            out.append([OP_LOOPSTEP, condition_pc])
            ins[3] = len(out)
        elif isinstance(statement, ast.Return):
            value_fn = (
                self._compile_return_value(statement.value)
                if statement.value is not None
                else None
            )
            out.append([OP_RET, value_fn, marker])
        elif isinstance(statement, ast.ExprStmt):
            # The expression closure itself ticks one step (the root node),
            # and OP_SIMPLE ticks the statement step — same two steps as the
            # interpreter.
            out.append([OP_SIMPLE, self._compile_expr(statement.expression), marker])
        else:
            raise VMError(f"unknown statement {type(statement).__name__}")
        if self.pc.observed and not isinstance(statement, ast.Return):
            # Observation point *after* the whole statement (if/while bodies
            # included — their jump targets resolve to this pc).  Return
            # statements never observe: the interpreter's post-dispatch hook
            # is skipped when the return signal propagates past it.
            out.append([OP_OBS, marker, self._observation()])

    def _compile_condition(self, expression: ast.Expression):
        """``(condition_fn, mask)`` for OP_IF / OP_LOOPCOND.  This artifact
        records branches from the condition's value itself (no mask)."""
        return self._compile_expr(expression), None

    def _compile_return_value(self, expression: ast.Expression):
        """The OP_RET value closure (``invoke`` applies the return conversion)."""
        return self._compile_expr(expression)

    def _compile_vardecl(self, statement: ast.VarDecl):
        ctype = self.pc.resolve(statement.type_ref)
        slot = self.slots[statement.name]
        kind = self.kinds[statement.name]
        init_fn = (
            self._compile_expr(statement.init) if statement.init is not None else None
        )
        if kind == _SIMPLE:
            if init_fn is None:
                if isinstance(ctype, StructType):

                    def fn(rt, L, slot=slot, ctype=ctype):
                        L[slot] = instantiate(ctype)

                else:
                    default = instantiate(ctype)  # interned: TV or null Pointer

                    def fn(rt, L, slot=slot, default=default):
                        L[slot] = default

            elif isinstance(ctype, IntType):
                width, signed = ctype.width, ctype.signed

                def fn(rt, L, slot=slot, init_fn=init_fn, width=width, signed=signed):
                    value = init_fn(rt, L)
                    if value.__class__ is not TaintedValue:
                        raise VMError(
                            f"cannot store {type(value).__name__} into integer cell"
                        )
                    if value.width != width or value.signed != signed:
                        value = convert_int(rt, value, width, signed, False)
                    L[slot] = value

            else:

                def fn(rt, L, slot=slot, init_fn=init_fn, ctype=ctype):
                    L[slot] = convert_for_store(rt, init_fn(rt, L), ctype)

        else:  # _BOXED or _DYN: a fresh Cell per execution (pointer identity)
            if init_fn is None:

                def fn(rt, L, slot=slot, ctype=ctype):
                    L[slot] = Cell(declared_type=ctype, value=instantiate(ctype))

            else:

                def fn(rt, L, slot=slot, init_fn=init_fn, ctype=ctype):
                    value = init_fn(rt, L)
                    L[slot] = Cell(
                        declared_type=ctype, value=convert_for_store(rt, value, ctype)
                    )

        return fn

    def _compile_assign(self, statement: ast.Assign):
        value_fn = self._compile_expr(statement.value)
        target = statement.target
        if isinstance(target, ast.Name):
            resolved = self._resolve_name(target.name)
            if resolved[0] == "local":
                _, slot, kind = resolved
                if kind == _SIMPLE:
                    return self._compile_simple_store(
                        slot, self.decl_types[target.name], value_fn
                    )
                if kind == _DYN:
                    gindex = self.pc.global_index[target.name]

                    def fn(rt, L, slot=slot, gindex=gindex, value_fn=value_fn):
                        value = value_fn(rt, L)
                        cell = L[slot]
                        if cell is None:
                            cell = rt.gslots[gindex]
                        cell.value = convert_for_store(rt, value, cell.declared_type)

                    return fn

                def fn(rt, L, slot=slot, value_fn=value_fn):
                    value = value_fn(rt, L)
                    cell = L[slot]
                    cell.value = convert_for_store(rt, value, cell.declared_type)

                return fn
            _, gindex = resolved

            def fn(rt, L, gindex=gindex, value_fn=value_fn):
                value = value_fn(rt, L)
                cell = rt.gslots[gindex]
                cell.value = convert_for_store(rt, value, cell.declared_type)

            return fn
        cell_fn = self._compile_lvalue(target)

        def fn(rt, L, cell_fn=cell_fn, value_fn=value_fn):
            value = value_fn(rt, L)
            cell = cell_fn(rt, L)
            cell.value = convert_for_store(rt, value, cell.declared_type)

        return fn

    def _compile_simple_store(self, slot: int, ctype, value_fn):
        """Store into a raw slot with the conversion specialised on the
        statically declared type (the interpreter reads ``cell.declared_type``
        at run time; for simple slots that type is a compile-time constant)."""
        if isinstance(ctype, IntType):
            width, signed = ctype.width, ctype.signed

            def fn(rt, L, slot=slot, value_fn=value_fn, width=width, signed=signed):
                value = value_fn(rt, L)
                if value.__class__ is not TaintedValue:
                    raise VMError(
                        f"cannot store {type(value).__name__} into integer cell"
                    )
                if value.width != width or value.signed != signed:
                    value = convert_int(rt, value, width, signed, False)
                L[slot] = value

            return fn
        if isinstance(ctype, PointerType):
            pointee = ctype.pointee
            null = null_pointer(pointee)

            def fn(rt, L, slot=slot, value_fn=value_fn, pointee=pointee, null=null):
                value = value_fn(rt, L)
                cls = value.__class__
                if cls is Pointer:
                    L[slot] = Pointer(target=value.target, pointee_type=pointee)
                elif cls is TaintedValue and value.value == 0:
                    L[slot] = null
                else:
                    raise VMError("cannot store a non-pointer into a pointer cell")

            return fn
        if isinstance(ctype, StructType):

            def fn(rt, L, slot=slot, value_fn=value_fn):
                value = value_fn(rt, L)
                if not isinstance(value, StructInstance):
                    raise VMError("cannot store a non-struct into a struct cell")
                L[slot] = value

            return fn
        raise VMError(f"cannot store into cell of type {ctype}")

    def _resolve_name(self, name: str):
        if name in self.slots:
            return ("local", self.slots[name], self.kinds[name])
        if name in self.pc.global_index:
            return ("global", self.pc.global_index[name])
        raise VMError(f"unknown variable {name!r} in {self.fname}")

    # -- lvalues and struct access -----------------------------------------------------

    def _compile_lvalue(self, expression: ast.Expression):
        """Closure producing the Cell an lvalue designates.  Mirrors
        ``VM._eval_lvalue``: the lvalue node itself does not tick a step; only
        subexpressions routed through ``_eval`` (deref operands, arrow bases)
        do."""
        if isinstance(expression, ast.Name):
            resolved = self._resolve_name(expression.name)
            if resolved[0] == "local":
                _, slot, kind = resolved
                if kind == _DYN:
                    gindex = self.pc.global_index[expression.name]

                    def fn(rt, L, slot=slot, gindex=gindex):
                        cell = L[slot]
                        return rt.gslots[gindex] if cell is None else cell

                    return fn
                if kind == _BOXED:

                    def fn(rt, L, slot=slot):
                        return L[slot]

                    return fn
                raise VMError(
                    f"internal: simple slot {expression.name!r} used as a cell"
                )
            _, gindex = resolved

            def fn(rt, L, gindex=gindex):
                return rt.gslots[gindex]

            return fn
        if isinstance(expression, ast.FieldAccess):
            return self._compile_field_cell(expression)
        if isinstance(expression, ast.Deref):
            operand_fn = self._compile_expr(expression.operand)

            def fn(rt, L, operand_fn=operand_fn):
                return deref_cell(operand_fn(rt, L))

            return fn
        raise VMError(f"{type(expression).__name__} is not an lvalue")

    def _compile_instance(self, expression: ast.Expression):
        """Closure producing the StructInstance a field-access base denotes.

        For simple slots the instance lives directly in the slot; all other
        shapes go through the cell and read ``.value`` — exactly the value
        the interpreter's ``base_cell.value`` yields."""
        key = _read_key(expression)
        fn = self.read_fns.get(("instance", key))
        if fn is None:
            fn = self._instance(expression)
            if key is not None:
                self.read_fns[("instance", key)] = fn
        return fn

    def _instance(self, expression: ast.Expression):
        if isinstance(expression, ast.Name):
            resolved = self._resolve_name(expression.name)
            if resolved[0] == "local" and resolved[2] == _SIMPLE:
                slot = resolved[1]

                def fn(rt, L, slot=slot):
                    return L[slot]

                return fn
        cell_fn = self._compile_lvalue(expression)

        def fn(rt, L, cell_fn=cell_fn):
            return cell_fn(rt, L).value

        return fn

    def _compile_field_cell(self, expression: ast.FieldAccess):
        field_name = expression.field_name
        if expression.arrow:
            base_fn = self._compile_expr(expression.base)

            def fn(rt, L, base_fn=base_fn, field_name=field_name):
                pointer = base_fn(rt, L)
                if pointer.__class__ is not Pointer:
                    raise VMError("-> applied to a non-pointer")
                instance = deref_cell(pointer).value
                if not isinstance(instance, StructInstance):
                    raise MemoryFault(
                        "null-dereference", "field access on a non-struct value"
                    )
                return instance.cell(field_name)

            return fn
        instance_fn = self._compile_instance(expression.base)

        def fn(rt, L, instance_fn=instance_fn, field_name=field_name):
            instance = instance_fn(rt, L)
            if not isinstance(instance, StructInstance):
                raise MemoryFault(
                    "null-dereference", "field access on a non-struct value"
                )
            return instance.cell(field_name)

        return fn

    # -- expressions -------------------------------------------------------------------

    def _noted(self, fn):
        """Observed tier: wrap a read closure so tainted results record their
        input fields in the activation's ``frame_fields`` — the compiled
        counterpart of the interpreter's ``VM._note`` call sites (name,
        field, and deref reads plus the read builtins and ``load8``)."""
        if not self.pc.observed:
            return fn

        def noted(rt, L, fn=fn):
            value = fn(rt, L)
            if value.__class__ is TaintedValue and value.symbolic is not None:
                rt.frame_fields.update(value.symbolic.fields())
            return value

        return noted

    def _compile_expr(self, expression: ast.Expression):
        """Closure evaluating an expression.  Every closure ticks exactly one
        step for its own node (the interpreter's ``_eval`` prologue) before
        evaluating subexpressions."""
        if isinstance(expression, ast.IntLiteral):
            ctype = expression.ctype if isinstance(expression.ctype, IntType) else I32
            return self.pc.const_fn(expression.value, ctype)

        key = _read_key(expression)
        if key is None:
            return self._compile_compound(expression)
        fn = self.read_fns.get(key)
        if fn is None:
            if isinstance(expression, ast.Name):
                fn = self._compile_name(expression)
            else:
                fn = self._compile_compound(expression)
            self.read_fns[key] = fn
        return fn

    def _compile_name(self, expression: ast.Name):
        """A variable read: one step, then the slot, cell or global value."""
        resolved = self._resolve_name(expression.name)
        if resolved[0] == "local":
            _, slot, kind = resolved
            if kind == _SIMPLE:

                def fn(rt, L, slot=slot):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    return L[slot]

                return self._noted(fn)
            if kind == _DYN:
                gindex = self.pc.global_index[expression.name]

                def fn(rt, L, slot=slot, gindex=gindex):
                    rt.steps += 1
                    if rt.steps > rt.max_steps:
                        rt.exhausted()
                    cell = L[slot]
                    if cell is None:
                        cell = rt.gslots[gindex]
                    return cell.value

                return self._noted(fn)

            def fn(rt, L, slot=slot):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return L[slot].value

            return self._noted(fn)
        gindex = resolved[1]

        def fn(rt, L, gindex=gindex):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            return rt.gslots[gindex].value

        return self._noted(fn)

    def _compile_compound(self, expression: ast.Expression):
        """Closures for every expression other than literals and names."""
        if isinstance(expression, ast.FieldAccess):
            cell_fn = self._compile_field_cell(expression)

            def fn(rt, L, cell_fn=cell_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return cell_fn(rt, L).value

            return self._noted(fn)

        if isinstance(expression, ast.Deref):
            operand_fn = self._compile_expr(expression.operand)

            def fn(rt, L, operand_fn=operand_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return deref_cell(operand_fn(rt, L)).value

            return self._noted(fn)

        if isinstance(expression, ast.AddressOf):
            cell_fn = self._compile_lvalue(expression.operand)

            def fn(rt, L, cell_fn=cell_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                cell = cell_fn(rt, L)
                return Pointer(target=cell, pointee_type=cell.declared_type)

            return fn

        if isinstance(expression, ast.Unary):
            return self._compile_unary(expression)

        if isinstance(expression, ast.Binary):
            op = expression.op
            if op in ("&&", "||"):
                return self._compile_logical(expression)
            if op in _CONCRETE_CMP:
                return self._compile_comparison(expression)
            return self._compile_arithmetic(expression)

        if isinstance(expression, ast.Cast):
            return self._compile_cast(expression)

        if isinstance(expression, ast.Call):
            return self._compile_call(expression)

        raise VMError(f"unknown expression {type(expression).__name__}")

    def _compile_cast(self, expression: ast.Cast):
        operand_fn = self._compile_expr(expression.operand)
        target = expression.ctype
        if isinstance(target, IntType):
            width, signed = target.width, target.signed
            null_result = self.pc.const(0, target)
            nonnull_result = self.pc.const(1, target)

            def fn(
                rt,
                L,
                operand_fn=operand_fn,
                width=width,
                signed=signed,
                null_result=null_result,
                nonnull_result=nonnull_result,
                target=target,
            ):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                value = operand_fn(rt, L)
                cls = value.__class__
                if cls is TaintedValue:
                    return convert_int(rt, value, width, signed, True)
                if cls is Pointer:
                    return null_result if value.target is None else nonnull_result
                raise VMError(f"unsupported cast to {target}")

            return fn
        if isinstance(target, PointerType):
            pointee = target.pointee

            def fn(rt, L, operand_fn=operand_fn, pointee=pointee, target=target):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                value = operand_fn(rt, L)
                if value.__class__ is Pointer:
                    return Pointer(target=value.target, pointee_type=pointee)
                raise VMError(f"unsupported cast to {target}")

            return fn

        def fn(rt, L, operand_fn=operand_fn, target=target):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            operand_fn(rt, L)
            raise VMError(f"unsupported cast to {target}")

        return fn

    def _compile_unary(self, expression: ast.Unary):
        op = expression.op
        operand_fn = self._compile_expr(expression.operand)
        if op == "!":

            def fn(rt, L, operand_fn=operand_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                operand = operand_fn(rt, L)
                cls = operand.__class__
                if cls is Pointer:
                    return _TRUE if operand.target is None else _FALSE
                if cls is not TaintedValue:
                    raise VMError("! applied to a non-scalar")
                symbolic = operand.symbolic
                if symbolic is None:
                    return _FALSE if operand.value != 0 else _TRUE
                symbolic = simplify(
                    builder.zext(
                        builder.logical_not(builder.is_nonzero(symbolic)), 32
                    ),
                    rt.simplify_options,
                )
                value = 0 if operand.value != 0 else 1
                return fast_value(value, 32, True, symbolic, value)

            return fn
        ctype = expression.ctype if isinstance(expression.ctype, IntType) else I32
        width, signed = ctype.width, ctype.signed
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        size = 1 << width
        if op == "-":

            def fn(
                rt,
                L,
                operand_fn=operand_fn,
                width=width,
                signed=signed,
                mask=mask,
            ):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                operand = operand_fn(rt, L)
                if operand.__class__ is not TaintedValue:
                    raise VMError("unary - applied to a non-scalar")
                if operand.width != width or operand.signed != signed:
                    operand = convert_int(rt, operand, width, signed, False)
                symbolic = operand.symbolic
                if symbolic is not None:
                    symbolic = simplify(builder.neg(symbolic), rt.simplify_options)
                return fast_value(
                    (-operand.value) & mask,
                    width,
                    signed,
                    symbolic,
                    -operand.true_value,
                )

            return fn
        if op == "~":

            def fn(
                rt,
                L,
                operand_fn=operand_fn,
                width=width,
                signed=signed,
                mask=mask,
                half=half,
                size=size,
            ):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                operand = operand_fn(rt, L)
                if operand.__class__ is not TaintedValue:
                    raise VMError("unary ~ applied to a non-scalar")
                if operand.width != width or operand.signed != signed:
                    operand = convert_int(rt, operand, width, signed, False)
                symbolic = operand.symbolic
                if symbolic is not None:
                    symbolic = simplify(builder.bvnot(symbolic), rt.simplify_options)
                value = (~operand.value) & mask
                true_value = value - size if signed and value >= half else value
                return fast_value(value, width, signed, symbolic, true_value)

            return fn
        raise VMError(f"unknown unary operator {op!r}")

    def _compile_logical(self, expression: ast.Binary):
        left_fn = self._compile_expr(expression.left)
        right_fn = self._compile_expr(expression.right)
        is_and = expression.op == "&&"

        def fn(rt, L, left_fn=left_fn, right_fn=right_fn, is_and=is_and):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            left = left_fn(rt, L)
            cls = left.__class__
            if cls is Pointer:
                left_truth = left.target is not None
                left_sym = None
            elif cls is TaintedValue:
                left_truth = left.value != 0
                left_sym = (
                    builder.is_nonzero(left.symbolic)
                    if left.symbolic is not None
                    else None
                )
            else:
                raise VMError("invalid truth operand")
            right_sym = None
            if is_and != left_truth:
                # Short circuit: (&& with false left) or (|| with true left).
                value = 1 if left_truth else 0
                evaluated_right = False
                right_truth = False
            else:
                right = right_fn(rt, L)
                cls = right.__class__
                if cls is Pointer:
                    right_truth = right.target is not None
                elif cls is TaintedValue:
                    right_truth = right.value != 0
                    if right.symbolic is not None:
                        right_sym = builder.is_nonzero(right.symbolic)
                else:
                    raise VMError("invalid truth operand")
                value = int(right_truth if is_and else (left_truth or right_truth))
                evaluated_right = True
            if left_sym is None and right_sym is None:
                return _TRUE if value else _FALSE
            left_bool = (
                left_sym if left_sym is not None else builder.const(int(left_truth), 1)
            )
            if evaluated_right:
                right_bool = (
                    right_sym
                    if right_sym is not None
                    else builder.const(int(right_truth), 1)
                )
                combined = (
                    builder.logical_and(left_bool, right_bool)
                    if is_and
                    else builder.logical_or(left_bool, right_bool)
                )
            else:
                combined = left_bool
            symbolic = simplify(builder.zext(combined, 32), rt.simplify_options)
            return fast_value(value, 32, True, symbolic, value)

        return fn

    def _compile_comparison(self, expression: ast.Binary):
        op = expression.op
        left_fn = self._compile_expr(expression.left)
        right_fn = self._compile_expr(expression.right)
        concrete_fn = _CONCRETE_CMP[op]
        signed_builder = _SIGNED_CMP[op]
        unsigned_builder = _UNSIGNED_CMP[op]
        is_equality = op in ("==", "!=")

        def fn(
            rt,
            L,
            op=op,
            left_fn=left_fn,
            right_fn=right_fn,
            concrete_fn=concrete_fn,
            signed_builder=signed_builder,
            unsigned_builder=unsigned_builder,
            is_equality=is_equality,
        ):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            left = left_fn(rt, L)
            right = right_fn(rt, L)
            left_cls = left.__class__
            right_cls = right.__class__
            if left_cls is Pointer or right_cls is Pointer:
                if left_cls is Pointer and right_cls is Pointer:
                    equal = left.target is right.target
                elif left_cls is Pointer:
                    if right_cls is not TaintedValue or right.value != 0:
                        raise VMError(
                            "pointers may only be compared with pointers or 0"
                        )
                    equal = left.target is None
                else:
                    if left_cls is not TaintedValue or left.value != 0:
                        raise VMError(
                            "pointers may only be compared with pointers or 0"
                        )
                    equal = right.target is None
                if not is_equality:
                    raise VMError(f"pointer comparison {op!r} not supported")
                result = equal if op == "==" else not equal
                return _TRUE if result else _FALSE
            if left_cls is not TaintedValue or right_cls is not TaintedValue:
                raise VMError("comparison of non-scalar values")
            if left.width == right.width and left.signed == right.signed:
                common_signed = left.signed
            else:
                common = promote(
                    IntType(left.width, left.signed), IntType(right.width, right.signed)
                )
                common_signed = common.signed
                left = convert_int(rt, left, common.width, common_signed, False)
                right = convert_int(rt, right, common.width, common_signed, False)
            concrete = concrete_fn(left.as_int, right.as_int)
            left_sym = left.symbolic
            right_sym = right.symbolic
            if left_sym is None and right_sym is None:
                return _TRUE if concrete else _FALSE
            if left_sym is None:
                left_sym = Constant(width=left.width, value=left.value)
            if right_sym is None:
                right_sym = Constant(width=right.width, value=right.value)
            table_fn = signed_builder if common_signed else unsigned_builder
            symbolic = simplify(
                builder.zext(table_fn(left_sym, right_sym), 32), rt.simplify_options
            )
            value = 1 if concrete else 0
            return fast_value(value, 32, True, symbolic, value)

        return fn

    def _compile_arithmetic(self, expression: ast.Binary):
        op = expression.op
        left_fn = self._compile_expr(expression.left)
        right_fn = self._compile_expr(expression.right)
        result_type = expression.ctype if isinstance(expression.ctype, IntType) else I32
        width, signed = result_type.width, result_type.signed
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        size = 1 << width
        sym_builders = {
            "+": builder.add,
            "-": builder.sub,
            "*": builder.mul,
            "/": builder.sdiv if signed else builder.udiv,
            "%": builder.srem if signed else builder.urem,
            "&": builder.bvand,
            "|": builder.bvor,
            "^": builder.bvxor,
            "<<": builder.shl,
            ">>": builder.ashr if signed else builder.lshr,
        }
        if op not in sym_builders:
            raise VMError(f"unknown binary operator {op!r}")
        # Everything a closure needs rides in its defaults, not in closure
        # cells: artifacts stay small in the compile cache.
        shape = (left_fn, right_fn, width, signed, op, sym_builders[op])

        if op in ("+", "-", "*"):
            raw_fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]

            def fn(rt, L, shape=shape, raw_fn=raw_fn, mask=mask, half=half, size=size,
                   width=width, signed=signed):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                left, right = _operands(rt, L, shape)
                if signed:
                    lv = left.value
                    rv = right.value
                    left_raw = lv - size if lv >= half else lv
                    right_raw = rv - size if rv >= half else rv
                else:
                    left_raw = left.value
                    right_raw = right.value
                return fast_value(
                    raw_fn(left_raw, right_raw) & mask,
                    width,
                    signed,
                    _symbolic_of(rt, left, right, shape),
                    raw_fn(left.true_value, right.true_value),
                )

            return fn

        if op in ("/", "%"):
            site = (expression.node_id, self.fname, expression.line)

            def fn(rt, L, shape=shape, site=site, mask=mask, half=half, size=size,
                   width=width, signed=signed, is_div=op == "/"):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                left, right = _operands(rt, L, shape)
                rt.raw_divisions.append((*site, right.value, right.symbolic))
                if right.value == 0:
                    raise MemoryFault("divide-by-zero", f"division by zero at line {site[2]}")
                if signed:
                    lv = left.value
                    rv = right.value
                    left_raw = lv - size if lv >= half else lv
                    right_raw = rv - size if rv >= half else rv
                    if is_div:
                        quotient = abs(left_raw) // abs(right_raw)
                        value = (
                            -quotient if (left_raw < 0) != (right_raw < 0) else quotient
                        )
                    else:
                        remainder = abs(left_raw) % abs(right_raw)
                        value = -remainder if left_raw < 0 else remainder
                else:
                    value = (
                        left.value // right.value
                        if is_div
                        else left.value % right.value
                    )
                return fast_value(
                    value & mask, width, signed, _symbolic_of(rt, left, right, shape), value
                )

            return fn

        if op in ("&", "|", "^"):
            bit_fn = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[op]

            def fn(rt, L, shape=shape, bit_fn=bit_fn, width=width, signed=signed):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                left, right = _operands(rt, L, shape)
                value = bit_fn(left.value, right.value)
                return fast_value(
                    value, width, signed, _symbolic_of(rt, left, right, shape), value
                )

            return fn

        if op == "<<":

            def fn(rt, L, shape=shape, mask=mask, width=width, signed=signed):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                left, right = _operands(rt, L, shape)
                shift = right.value
                value = 0 if shift >= width else (left.value << shift) & mask
                return fast_value(
                    value,
                    width,
                    signed,
                    _symbolic_of(rt, left, right, shape),
                    left.true_value << min(shift, 256),
                )

            return fn

        # op == ">>"
        def fn(rt, L, shape=shape, mask=mask, half=half, size=size, width=width,
               signed=signed):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            left, right = _operands(rt, L, shape)
            shift = right.value
            if signed:
                lv = left.value
                value = (lv - size if lv >= half else lv) >> min(shift, width - 1)
            else:
                value = 0 if shift >= width else left.value >> shift
            return fast_value(
                value & mask, width, signed, _symbolic_of(rt, left, right, shape), value
            )

        return fn

    # -- calls and builtins ------------------------------------------------------------

    def _compile_call(self, expression: ast.Call):
        callee = expression.callee
        if callee.startswith("__sizeof:"):
            constant = self.pc.const(self.pc.sizeof(callee.split(":", 1)[1]), U32)

            def fn(rt, L, constant=constant):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return constant

            return fn
        if callee in BUILTIN_SIGNATURES and callee not in self.pc.program.functions:
            return self._compile_builtin(expression)
        arg_fns = tuple(self._compile_expr(argument) for argument in expression.args)
        functions = self.pc.functions  # shared table; filled by the time we run

        def fn(rt, L, callee=callee, arg_fns=arg_fns, functions=functions):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            arguments = [argument_fn(rt, L) for argument_fn in arg_fns]
            return invoke(rt, functions[callee], arguments)

        return fn

    def _compile_builtin(self, expression: ast.Call):
        callee = expression.callee
        if callee == "read_byte":

            def fn(rt, L):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return rt.read_byte()

            return self._noted(fn)
        if callee in ("read_u16_be", "read_u16_le", "read_u32_be", "read_u32_le"):
            read_size = 2 if "u16" in callee else 4
            big_endian = callee.endswith("_be")

            def fn(rt, L, read_size=read_size, big_endian=big_endian):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                return rt.read_multi(read_size, big_endian)

            return self._noted(fn)
        if callee == "skip_bytes":
            count_fn = self._compile_expr(expression.args[0])

            def fn(rt, L, count_fn=count_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                count = count_fn(rt, L)
                rt.cursor += count.value if count.__class__ is TaintedValue else 0
                return _FALSE

            return fn
        if callee == "input_remaining":

            def fn(rt, L):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                remaining = rt.data_len - rt.cursor
                if remaining <= 0:
                    return _U32_ZERO
                return fast_value(remaining, 32, False, None, remaining)

            return fn
        if callee in ("malloc", "malloc64"):
            return self._compile_malloc(expression)
        if callee == "store8":
            buffer_fn = self._compile_expr(expression.args[0])
            index_fn = self._compile_expr(expression.args[1])
            value_fn = self._compile_expr(expression.args[2])

            def fn(rt, L, buffer_fn=buffer_fn, index_fn=index_fn, value_fn=value_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                buffer = buffer_of(buffer_fn(rt, L))
                index = index_fn(rt, L)
                value = value_fn(rt, L)
                if (
                    index.__class__ is not TaintedValue
                    or value.__class__ is not TaintedValue
                ):
                    raise VMError("store8 requires integer index and value")
                # Index with the true (unwrapped) value: a size computation
                # that overflowed produces writes beyond the wrapped
                # allocation, exactly the out-of-bounds behaviour the paper's
                # recipients exhibit.
                if value.width != 8 or value.signed:
                    value = convert_int(rt, value, 8, False, False)
                buffer.store(index.true_value, value)
                return _FALSE

            return fn
        if callee == "load8":
            buffer_fn = self._compile_expr(expression.args[0])
            index_fn = self._compile_expr(expression.args[1])

            def fn(rt, L, buffer_fn=buffer_fn, index_fn=index_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                buffer = buffer_of(buffer_fn(rt, L))
                index = index_fn(rt, L)
                if index.__class__ is not TaintedValue:
                    raise VMError("load8 requires an integer index")
                return buffer.load(index.as_int)

            return self._noted(fn)
        if callee == "exit":
            code_fn = self._compile_expr(expression.args[0])

            def fn(rt, L, code_fn=code_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                code = code_fn(rt, L)
                raise _ExitSignal(
                    code.as_int if code.__class__ is TaintedValue else 0
                )

            return fn
        if callee == "emit":
            value_fn = self._compile_expr(expression.args[0])

            def fn(rt, L, value_fn=value_fn):
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    rt.exhausted()
                value = value_fn(rt, L)
                if value.__class__ is TaintedValue:
                    rt.output.append(value.value)
                return _FALSE

            return fn
        raise VMError(f"unknown builtin {callee!r}")

    def _compile_malloc(self, expression: ast.Call):
        size_fn = self._compile_expr(expression.args[0])
        alloc_width = 64 if expression.callee == "malloc64" else 32
        alloc_mask = (1 << alloc_width) - 1
        site_id = expression.node_id
        line = expression.line
        fname = self.fname

        def fn(rt, L, size_fn=size_fn, alloc_mask=alloc_mask):
            rt.steps += 1
            if rt.steps > rt.max_steps:
                rt.exhausted()
            size_value = size_fn(rt, L)
            if size_value.__class__ is not TaintedValue:
                raise VMError("malloc requires an integer size")
            wrapped = size_value.value & alloc_mask
            true_size = size_value.true_value
            overflowed = (true_size != wrapped) or true_size < 0
            rt.raw_allocations.append(
                (
                    site_id,
                    rt.current[1],
                    fname,
                    line,
                    wrapped,
                    true_size,
                    size_value.symbolic,
                    overflowed,
                )
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
                size=wrapped,
                site_id=site_id,
                function=fname,
                overflowed_size=overflowed,
            )
            rt.heap.append(buffer)
            return Pointer(target=buffer, pointee_type=U8)

        return fn


_U32_ZERO = make_value(0, U32)


def _read_key(expression: ast.Expression):
    """A structural key for a pure read — a name, or field accesses and
    dereferences over one — or None.  Within a function, two reads with the
    same key compile to interchangeable closures."""
    if isinstance(expression, ast.Name):
        return expression.name
    if isinstance(expression, ast.FieldAccess):
        base = _read_key(expression.base)
        if base is not None:
            return (base, expression.arrow, expression.field_name)
    elif isinstance(expression, ast.Deref):
        base = _read_key(expression.operand)
        if base is not None:
            return ("*", base)
    return None


def _operands(rt, L, shape):
    """Both operands of a tracked binary operator, converted to its type.

    ``shape`` is ``(left_fn, right_fn, width, signed, op, sym_builder)``.
    """
    left_fn, right_fn, width, signed, op, _ = shape
    left = left_fn(rt, L)
    right = right_fn(rt, L)
    if left.__class__ is not TaintedValue or right.__class__ is not TaintedValue:
        raise VMError(f"operator {op!r} applied to non-scalar operands")
    if left.width != width or left.signed != signed:
        left = convert_int(rt, left, width, signed, False)
    if right.width != width or right.signed != signed:
        right = convert_int(rt, right, width, signed, False)
    return left, right


def _symbolic_of(rt, left, right, shape):
    """The simplified symbolic result of a tracked binary operator."""
    left_sym = left.symbolic
    right_sym = right.symbolic
    if left_sym is None and right_sym is None:
        return None
    if left_sym is None:
        left_sym = Constant(width=left.width, value=left.value)
    if right_sym is None:
        right_sym = Constant(width=right.width, value=right.value)
    return simplify(shape[5](left_sym, right_sym, shape[2]), rt.simplify_options)


# -- compile cache ------------------------------------------------------------------


def program_digest(program: Program) -> str:
    """Content address of a program: the SHA-256 of its source text.

    Anything that changes semantics changes the source (the patcher rewrites
    source and re-checks it), so stale compiled code is unreachable by
    construction — there is no invalidation protocol to get wrong.  The hash
    is taken once per :class:`Program` (``Program.digest``).
    """
    return program.digest


#: LRU of digest -> CompiledProgram.  Closures live only here (never on
#: Program/VM objects), keeping those pickle-safe; fork-started campaign
#: workers inherit warm entries via address-space copy.
_COMPILE_CACHE: "OrderedDict[object, CompiledProgram]" = OrderedDict()
_COMPILE_CACHE_CAPACITY = 128

#: Guards the LRU bookkeeping (lookup + move_to_end, insert + eviction).
#: ``OrderedDict.move_to_end`` racing an insert/eviction from another repair
#: worker thread can raise or corrupt the recency order; compilation itself
#: runs outside the lock (two threads may compile the same digest once each
#: — the first insert wins, which is merely redundant work, never wrong).
_COMPILE_CACHE_LOCK = threading.Lock()


def compile_program(program: Program, observed: bool = False) -> CompiledProgram:
    """Compile ``program`` (or fetch it from the content-addressed cache).

    ``observed=True`` produces the observed-tier artifact (OP_OBS points and
    field-noting reads) used by the insertion-point analysis; it is cached
    under a distinct key so plain runs never pay for observation.
    """
    return cached_artifact(
        program,
        "observed" if observed else None,
        lambda: _ProgramCompiler(program, observed).compile(),
    )


def cached_artifact(program: Program, variant, build):
    """The artifact ``build()`` makes for ``program``, through the LRU.

    The cache key is the program digest, paired with ``variant`` for every
    artifact but the plain tracked one (``"observed"``, ``"concrete"``).
    """
    digest = program.digest
    key = digest if variant is None else (digest, variant)
    registry = obs_metrics.REGISTRY if obs_metrics.REGISTRY.enabled else None
    with _COMPILE_CACHE_LOCK:
        cached = _COMPILE_CACHE.get(key)
        if cached is not None:
            _COMPILE_CACHE.move_to_end(key)
    if cached is not None:
        if registry is not None:
            registry.inc("vm.compile_cache_hits")
        return cached
    tracer = obs_tracing.active()
    started = time.perf_counter() if (tracer or registry) else 0.0
    compiled = build()
    with _COMPILE_CACHE_LOCK:
        winner = _COMPILE_CACHE.setdefault(key, compiled)
        if winner is compiled:
            while len(_COMPILE_CACHE) > _COMPILE_CACHE_CAPACITY:
                _COMPILE_CACHE.popitem(last=False)
    compiled = winner
    if registry is not None:
        registry.inc("vm.compile_cache_misses")
        registry.inc("vm.compiles")
        registry.observe("vm.compile_seconds", time.perf_counter() - started)
    if tracer is not None:
        tracer.record(
            "vm-compile",
            "vm",
            time.perf_counter() - started,
            digest=digest[:12],
            variant=variant or "tracked",
            functions=len(compiled.functions),
        )
    return compiled


def clear_compile_cache() -> None:
    """Drop all compiled programs (tests and memory-pressure escape hatch)."""
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE.clear()


@contextmanager
def evicting_new_artifacts():
    """Evict, on exit, the artifacts first cached inside the ``with`` block.

    Covers the two content-addressed caches a transfer fills: compiled
    artifacts (this module's LRU) and checked programs
    (:func:`repro.lang.checker.compile_program`, whose ASTs the patcher
    also renders patches from).  Entries cached before the block stay, in
    their LRU order.  A scenario job's generated programs are one-shot (no
    later job shares their sources), so a long-lived worker drops them when
    the job ends instead of filling the caches with them.
    """
    caches = (_COMPILE_CACHE, _PROGRAM_CACHE)
    with _COMPILE_CACHE_LOCK:
        before = [set(cache) for cache in caches]
    try:
        yield
    finally:
        with _COMPILE_CACHE_LOCK:
            for cache, kept in zip(caches, before):
                for key in [key for key in cache if key not in kept]:
                    del cache[key]


def compile_cache_info() -> dict:
    """Introspection for tests and diagnostics."""
    with _COMPILE_CACHE_LOCK:
        return {
            "entries": len(_COMPILE_CACHE),
            "capacity": _COMPILE_CACHE_CAPACITY,
            "digests": list(_COMPILE_CACHE),
    }


# -- run entry ----------------------------------------------------------------------


def run_compiled(
    vm: VM,
    data: bytes,
    field_map=None,
    entry: str = "main",
    observer=None,
) -> RunResult:
    """Execute ``vm.program`` on the compiled tier's tracked artifact.

    Mirrors ``VM.run`` for un-hooked tracked runs: same result object shape,
    same ``vm.globals``/``vm.result`` postconditions, same telemetry names —
    plus ``tier="compiled"`` on the span and compiled-tier counters.  The
    tracked artifact always tracks symbolic state; ``VM.run`` sends
    untracked runs to the concrete artifact (:mod:`repro.lang.concrete`).

    ``observer`` (a callable ``observer(rt, marker, slot_map, L)``) selects
    the observed artifact and is invoked at every post-statement OP_OBS
    point — the compiled counterpart of ``Hooks.on_statement``.
    """
    started = run_started()
    compiled = compile_program(vm.program, observed=observer is not None)
    if field_map is None:
        field_map = RawFormat().field_map(data)
    rt = Runtime(vm.config, data, field_map)
    rt.observer = observer
    result = execute_artifact(vm, compiled, rt, invoke, entry)
    result.fields_read = frozenset(rt.fields_read)
    rt.finalize(result)
    run_finished(result, entry, "compiled", started)
    return result


def run_started() -> float:
    """The start time a run's telemetry needs (0.0 when telemetry is off)."""
    if obs_tracing.active() or obs_metrics.REGISTRY.enabled:
        return time.perf_counter()
    return 0.0


def execute_artifact(vm: VM, compiled: CompiledProgram, rt: Runtime, invoke_fn, entry: str):
    """Run ``entry`` of a compiled artifact with fresh globals.

    Leaves the ``vm.globals``/``vm.heap``/``vm.result`` postconditions of an
    interpreter run and returns the result with status, exit code, error,
    output, steps and input extent; the caller adds the trace records.
    """
    vm.globals = {}
    gslots = rt.gslots
    for name, make_cell in compiled.globals_plan:
        cell = make_cell()
        vm.globals[name] = cell
        gslots.append(cell)
    vm.hooks = NULL_HOOKS
    vm.heap = rt.heap
    result = RunResult(status=RunStatus.OK, output=rt.output)
    vm.result = result
    try:
        value = invoke_fn(rt, compiled.functions[entry], ())
        if value.__class__ is TaintedValue:
            result.exit_code = value.as_int
        elif isinstance(value, int):  # the concrete artifact's integers
            result.exit_code = int(value)
    except _ExitSignal as signal:
        result.status = RunStatus.EXIT
        result.exit_code = signal.code
    except _ErrorSignal as signal:
        result.status = RunStatus.ERROR
        result.error = signal.report
        result.exit_code = 1
    result.steps = rt.steps
    result.input_extent = min(rt.cursor, rt.data_len)
    return result


def run_finished(result: RunResult, entry: str, tier: str, started: float) -> None:
    """Record a compiled run's counters and ``vm-run`` span."""
    registry = obs_metrics.REGISTRY if obs_metrics.REGISTRY.enabled else None
    if registry is not None:
        registry.inc("vm.runs")
        registry.inc("vm.runs_compiled")
        if tier == "concrete":
            registry.inc("vm.runs_concrete")
        registry.inc("vm.instructions_retired", result.steps)
        registry.observe("vm.run_seconds", time.perf_counter() - started)
    tracer = obs_tracing.active()
    if tracer is not None:
        tracer.record(
            "vm-run",
            "vm",
            time.perf_counter() - started,
            entry=entry,
            steps=result.steps,
            status=result.status.name,
            tier=tier,
        )
