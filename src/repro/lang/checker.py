"""MicroC semantic analysis ("compilation").

The checker resolves types, validates the program, annotates every expression
with its computed type, and produces a :class:`Program`: the executable,
type-checked representation the VM interprets.  It also constructs the
:class:`repro.lang.debuginfo.DebugInfo` that stands in for the DWARF debug
information CP reads from recipient binaries.

Re-running the checker on a patched AST is the reproduction's analogue of the
paper's "CP recompiles the patched recipient application".
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict

from dataclasses import dataclass, field
from typing import Optional

from . import ast
from .debuginfo import DebugInfo, ScopeVariable
from .types import (
    I32,
    IntType,
    PointerType,
    StructField,
    StructTable,
    StructType,
    Type,
    TypeError_,
    U8,
    U16,
    U32,
    U64,
    VOID,
    VoidType,
    assignable,
    integer_type,
    promote,
)


class CheckError(Exception):
    """Raised when a MicroC program fails semantic analysis."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class FunctionSignature:
    """Resolved signature of a user function or builtin."""

    name: str
    return_type: Type
    parameter_types: tuple[Type, ...]
    parameter_names: tuple[str, ...] = ()
    is_builtin: bool = False


#: Builtins available to every MicroC program.  ``read_*`` functions consume
#: bytes from the input stream; ``malloc``/``store8``/``load8`` provide the
#: bounds-checked heap; ``exit`` terminates the run with an exit code.
BUILTIN_SIGNATURES: dict[str, FunctionSignature] = {
    "read_byte": FunctionSignature("read_byte", U8, (), is_builtin=True),
    "read_u16_be": FunctionSignature("read_u16_be", U16, (), is_builtin=True),
    "read_u16_le": FunctionSignature("read_u16_le", U16, (), is_builtin=True),
    "read_u32_be": FunctionSignature("read_u32_be", U32, (), is_builtin=True),
    "read_u32_le": FunctionSignature("read_u32_le", U32, (), is_builtin=True),
    "skip_bytes": FunctionSignature("skip_bytes", VOID, (U32,), ("count",), is_builtin=True),
    "input_remaining": FunctionSignature("input_remaining", U32, (), is_builtin=True),
    "malloc": FunctionSignature("malloc", PointerType(U8), (U32,), ("size",), is_builtin=True),
    "malloc64": FunctionSignature("malloc64", PointerType(U8), (U64,), ("size",), is_builtin=True),
    "store8": FunctionSignature(
        "store8", VOID, (PointerType(U8), U32, U8), ("buffer", "index", "value"), is_builtin=True
    ),
    "load8": FunctionSignature(
        "load8", U8, (PointerType(U8), U32), ("buffer", "index"), is_builtin=True
    ),
    "exit": FunctionSignature("exit", VOID, (I32,), ("code",), is_builtin=True),
    "emit": FunctionSignature("emit", VOID, (U64,), ("value",), is_builtin=True),
}


@dataclass
class Program:
    """A type-checked MicroC program, ready for execution."""

    unit: ast.TranslationUnit
    struct_table: StructTable
    functions: dict[str, ast.FunctionDecl]
    signatures: dict[str, FunctionSignature]
    global_types: dict[str, Type]
    global_inits: dict[str, int]
    debug_info: DebugInfo
    name: str = ""

    @property
    def source(self) -> str:
        return self.unit.source

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 of the source text: the compile cache's content address.

        Hashed once per program; every VM run looks its artifact up by it.
        """
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    def function(self, name: str) -> ast.FunctionDecl:
        try:
            return self.functions[name]
        except KeyError:
            raise CheckError(f"program has no function {name!r}") from None

    def signature(self, name: str) -> FunctionSignature:
        signature = self.signatures.get(name) or BUILTIN_SIGNATURES.get(name)
        if signature is None:
            raise CheckError(f"unknown function {name!r}")
        return signature


class Checker:
    """Performs semantic analysis over a translation unit."""

    def __init__(self, unit: ast.TranslationUnit, name: str = "") -> None:
        self.unit = unit
        self.name = name or unit.name
        self.struct_table = StructTable()
        self.signatures: dict[str, FunctionSignature] = {}
        self.global_types: dict[str, Type] = {}
        self.global_inits: dict[str, int] = {}
        self.debug_info = DebugInfo(struct_table=self.struct_table)

    # -- entry point -----------------------------------------------------------

    def check(self) -> Program:
        for struct_decl in self.unit.structs:
            self._check_struct(struct_decl)
        for global_decl in self.unit.globals:
            self._check_global(global_decl)
        for function in self.unit.functions:
            self._register_function(function)
        functions: dict[str, ast.FunctionDecl] = {}
        for function in self.unit.functions:
            self._check_function(function)
            functions[function.name] = function
        if "main" not in functions:
            raise CheckError("program has no main function")
        return Program(
            unit=self.unit,
            struct_table=self.struct_table,
            functions=functions,
            signatures=self.signatures,
            global_types=self.global_types,
            global_inits=self.global_inits,
            debug_info=self.debug_info,
            name=self.name,
        )

    # -- declarations -------------------------------------------------------------

    def _check_struct(self, decl: ast.StructDecl) -> None:
        fields = []
        for field_decl in decl.fields:
            fields.append(StructField(field_decl.name, self._resolve(field_decl.type_ref)))
        try:
            self.struct_table.define(decl.name, fields)
        except TypeError_ as error:
            raise CheckError(str(error), decl.line) from None

    def _check_global(self, decl: ast.GlobalVarDecl) -> None:
        if decl.name in self.global_types:
            raise CheckError(f"global {decl.name!r} redefined", decl.line)
        declared = self._resolve(decl.type_ref)
        self.global_types[decl.name] = declared
        value = 0
        if decl.init is not None:
            if not isinstance(decl.init, ast.IntLiteral):
                raise CheckError(
                    f"global {decl.name!r} initialiser must be an integer literal", decl.line
                )
            if not isinstance(declared, IntType):
                raise CheckError(f"only integer globals may have initialisers", decl.line)
            decl.init.ctype = declared
            value = decl.init.value
        self.global_inits[decl.name] = value

    def _register_function(self, function: ast.FunctionDecl) -> None:
        if function.name in self.signatures or function.name in BUILTIN_SIGNATURES:
            raise CheckError(f"function {function.name!r} redefined", function.line)
        parameter_types = tuple(self._resolve(param.type_ref) for param in function.parameters)
        parameter_names = tuple(param.name for param in function.parameters)
        for param, param_type in zip(function.parameters, parameter_types):
            if isinstance(param_type, StructType):
                raise CheckError(
                    f"parameter {param.name!r}: structs are passed by pointer in MicroC",
                    param.line,
                )
        self.signatures[function.name] = FunctionSignature(
            name=function.name,
            return_type=self._resolve(function.return_type),
            parameter_types=parameter_types,
            parameter_names=parameter_names,
        )

    # -- type resolution --------------------------------------------------------------

    def _resolve(self, type_ref: ast.TypeRef) -> Type:
        if type_ref.is_struct:
            if not self.struct_table.has(type_ref.name):
                raise CheckError(f"unknown struct {type_ref.name!r}", type_ref.line)
            base: Type = self.struct_table.lookup(type_ref.name)
        elif type_ref.name == "void":
            base = VOID
        else:
            resolved = integer_type(type_ref.name)
            if resolved is None:
                raise CheckError(f"unknown type {type_ref.name!r}", type_ref.line)
            base = resolved
        for _ in range(type_ref.pointer_depth):
            base = PointerType(base)
        return base

    # -- function bodies ------------------------------------------------------------------

    def _check_function(self, function: ast.FunctionDecl) -> None:
        signature = self.signatures[function.name]
        scope: dict[str, Type] = {}
        scope_order: list[ScopeVariable] = [
            ScopeVariable(name, declared, "global") for name, declared in self.global_types.items()
        ]
        for param, param_type in zip(function.parameters, signature.parameter_types):
            if param.name in scope:
                raise CheckError(f"duplicate parameter {param.name!r}", param.line)
            scope[param.name] = param_type
            scope_order.append(ScopeVariable(param.name, param_type, "param"))
        for name, declared in self.global_types.items():
            scope.setdefault(name, declared)
        self.debug_info.entry_scopes[function.name] = tuple(scope_order)
        self._check_block(function.body, function, signature, scope, scope_order)

    def _check_block(
        self,
        block: ast.Block,
        function: ast.FunctionDecl,
        signature: FunctionSignature,
        scope: dict[str, Type],
        scope_order: list[ScopeVariable],
    ) -> None:
        local_names: list[str] = []
        local_count_before = len(scope_order)
        for statement in block.statements:
            self._check_statement(statement, function, signature, scope, scope_order)
            self.debug_info.record(statement.node_id, function.name, scope_order)
        # Pop block-local declarations when leaving the block.
        for variable in scope_order[local_count_before:]:
            if variable.kind == "local":
                scope.pop(variable.name, None)
        del scope_order[local_count_before:]
        del local_names

    def _check_statement(
        self,
        statement: ast.Statement,
        function: ast.FunctionDecl,
        signature: FunctionSignature,
        scope: dict[str, Type],
        scope_order: list[ScopeVariable],
    ) -> None:
        if isinstance(statement, ast.VarDecl):
            declared = self._resolve(statement.type_ref)
            if statement.name in scope and any(
                variable.name == statement.name and variable.kind != "global"
                for variable in scope_order
            ):
                raise CheckError(f"variable {statement.name!r} redefined", statement.line)
            if statement.init is not None:
                init_type = self._check_expression(statement.init, scope)
                if not assignable(declared, init_type):
                    raise CheckError(
                        f"cannot initialise {declared} variable {statement.name!r} "
                        f"with value of type {init_type}",
                        statement.line,
                    )
            scope[statement.name] = declared
            scope_order.append(ScopeVariable(statement.name, declared, "local"))
            return

        if isinstance(statement, ast.Assign):
            target_type = self._check_expression(statement.target, scope)
            if not self._is_lvalue(statement.target):
                raise CheckError("assignment target is not an lvalue", statement.line)
            value_type = self._check_expression(statement.value, scope)
            if not assignable(target_type, value_type):
                raise CheckError(
                    f"cannot assign value of type {value_type} to target of type {target_type}",
                    statement.line,
                )
            return

        if isinstance(statement, ast.If):
            condition_type = self._check_expression(statement.condition, scope)
            if not isinstance(condition_type, (IntType, PointerType)):
                raise CheckError("if condition must be an integer or pointer", statement.line)
            self._check_block(statement.then_block, function, signature, scope, scope_order)
            if statement.else_block is not None:
                self._check_block(statement.else_block, function, signature, scope, scope_order)
            return

        if isinstance(statement, ast.While):
            condition_type = self._check_expression(statement.condition, scope)
            if not isinstance(condition_type, (IntType, PointerType)):
                raise CheckError("while condition must be an integer or pointer", statement.line)
            self._check_block(statement.body, function, signature, scope, scope_order)
            return

        if isinstance(statement, ast.Return):
            if statement.value is None:
                if not isinstance(signature.return_type, VoidType):
                    raise CheckError(
                        f"function {function.name!r} must return {signature.return_type}",
                        statement.line,
                    )
                return
            value_type = self._check_expression(statement.value, scope)
            if isinstance(signature.return_type, VoidType):
                raise CheckError(f"void function {function.name!r} returns a value", statement.line)
            if not assignable(signature.return_type, value_type):
                raise CheckError(
                    f"cannot return {value_type} from function returning {signature.return_type}",
                    statement.line,
                )
            return

        if isinstance(statement, ast.ExprStmt):
            self._check_expression(statement.expression, scope)
            return

        raise CheckError(f"unknown statement kind {type(statement).__name__}", statement.line)

    # -- expressions -----------------------------------------------------------------------

    def _is_lvalue(self, expression: ast.Expression) -> bool:
        if isinstance(expression, ast.Name):
            return True
        if isinstance(expression, ast.FieldAccess):
            return True
        if isinstance(expression, ast.Deref):
            return True
        return False

    def _check_expression(self, expression: ast.Expression, scope: dict[str, Type]) -> Type:
        ctype = self._compute_type(expression, scope)
        expression.ctype = ctype
        return ctype

    def _compute_type(self, expression: ast.Expression, scope: dict[str, Type]) -> Type:
        if isinstance(expression, ast.IntLiteral):
            # Literals default to i32; wider constants become u64.
            if expression.value > 0x7FFFFFFF:
                return U64
            return I32

        if isinstance(expression, ast.Name):
            if expression.name not in scope:
                raise CheckError(f"unknown variable {expression.name!r}", expression.line)
            return scope[expression.name]

        if isinstance(expression, ast.FieldAccess):
            base_type = self._check_expression(expression.base, scope)
            if expression.arrow:
                if not isinstance(base_type, PointerType) or not isinstance(
                    base_type.pointee, StructType
                ):
                    raise CheckError("-> requires a pointer to a struct", expression.line)
                struct = base_type.pointee
            else:
                if not isinstance(base_type, StructType):
                    raise CheckError(". requires a struct value", expression.line)
                struct = base_type
            if not struct.has_field(expression.field_name):
                raise CheckError(
                    f"struct {struct.name} has no field {expression.field_name!r}",
                    expression.line,
                )
            return struct.field_type(expression.field_name)

        if isinstance(expression, ast.Unary):
            operand_type = self._check_expression(expression.operand, scope)
            if expression.op == "!":
                return I32
            if not isinstance(operand_type, IntType):
                raise CheckError(f"unary {expression.op} requires an integer", expression.line)
            return operand_type

        if isinstance(expression, ast.Binary):
            return self._check_binary(expression, scope)

        if isinstance(expression, ast.Cast):
            self._check_expression(expression.operand, scope)
            return self._resolve(expression.target)

        if isinstance(expression, ast.Call):
            return self._check_call(expression, scope)

        if isinstance(expression, ast.AddressOf):
            operand_type = self._check_expression(expression.operand, scope)
            if not self._is_lvalue(expression.operand):
                raise CheckError("& requires an lvalue", expression.line)
            return PointerType(operand_type)

        if isinstance(expression, ast.Deref):
            operand_type = self._check_expression(expression.operand, scope)
            if not isinstance(operand_type, PointerType):
                raise CheckError("* requires a pointer", expression.line)
            return operand_type.pointee

        raise CheckError(f"unknown expression kind {type(expression).__name__}", expression.line)

    def _check_binary(self, expression: ast.Binary, scope: dict[str, Type]) -> Type:
        left_type = self._check_expression(expression.left, scope)
        right_type = self._check_expression(expression.right, scope)
        op = expression.op

        if op in ("&&", "||"):
            return I32

        if op in ("==", "!=", "<", "<=", ">", ">="):
            if isinstance(left_type, PointerType) and isinstance(right_type, (PointerType, IntType)):
                return I32
            if isinstance(left_type, IntType) and isinstance(right_type, IntType):
                return I32
            raise CheckError(f"cannot compare {left_type} and {right_type}", expression.line)

        if not isinstance(left_type, IntType) or not isinstance(right_type, IntType):
            raise CheckError(
                f"operator {op!r} requires integer operands, got {left_type} and {right_type}",
                expression.line,
            )
        try:
            return promote(left_type, right_type)
        except TypeError_ as error:
            raise CheckError(str(error), expression.line) from None

    def _check_call(self, expression: ast.Call, scope: dict[str, Type]) -> Type:
        callee = expression.callee
        if callee.startswith("__sizeof:"):
            return U32

        signature = self.signatures.get(callee) or BUILTIN_SIGNATURES.get(callee)
        if signature is None:
            raise CheckError(f"call to unknown function {callee!r}", expression.line)
        if len(expression.args) != len(signature.parameter_types):
            raise CheckError(
                f"function {callee!r} expects {len(signature.parameter_types)} argument(s), "
                f"got {len(expression.args)}",
                expression.line,
            )
        for argument, expected in zip(expression.args, signature.parameter_types):
            actual = self._check_expression(argument, scope)
            if not assignable(expected, actual):
                raise CheckError(
                    f"argument of type {actual} does not match parameter type {expected} "
                    f"in call to {callee!r}",
                    expression.line,
                )
        return signature.return_type


def check_program(unit: ast.TranslationUnit, name: str = "") -> Program:
    """Type-check a translation unit and return the executable program."""
    return Checker(unit, name=name).check()


#: Content-addressed program cache.  Campaign workers and validation rounds
#: repeatedly compile byte-identical sources (the same candidate patch is
#: revalidated, the same recipient re-registered); keying on the full source
#: text makes the cache self-invalidating — a rewritten program is a new key.
#: Only successful compiles are cached; failures re-raise on every call.
_PROGRAM_CACHE: "OrderedDict[tuple[str, str], Program]" = OrderedDict()
_PROGRAM_CACHE_CAPACITY = 64


def compile_program(source: str, name: str = "<program>") -> Program:
    """Parse and check MicroC source text (the reproduction's "compiler")."""
    key = (name, source)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        from .parser import parse_program

        program = check_program(parse_program(source, name=name), name=name)
        _PROGRAM_CACHE[key] = program
        if len(_PROGRAM_CACHE) > _PROGRAM_CACHE_CAPACITY:
            _PROGRAM_CACHE.popitem(last=False)
    else:
        _PROGRAM_CACHE.move_to_end(key)
    return program
