"""MicroC abstract syntax tree.

Every node carries a ``node_id`` (unique within a parsed program, assigned in
source order by the parser) and a source ``line``.  Statement node ids double
as *program points*: candidate patch insertion points are identified by the id
of the statement after which the check is inserted, and the patcher
(:mod:`repro.lang.patcher`) locates statements by id when splicing a patch
into the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Node:
    """Base class for all AST nodes."""

    node_id: int = field(default=-1, compare=False)
    line: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# Type references (resolved to repro.lang.types types by the checker)
# ---------------------------------------------------------------------------


@dataclass
class TypeRef(Node):
    """A syntactic type: base name, struct flag, and pointer depth."""

    name: str = ""
    is_struct: bool = False
    pointer_depth: int = 0

    def __str__(self) -> str:
        base = f"struct {self.name}" if self.is_struct else self.name
        return base + "*" * self.pointer_depth


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expression(Node):
    """Base class for expressions; ``ctype`` is annotated by the checker."""

    ctype: object = field(default=None, compare=False, repr=False)

    def children(self) -> tuple["Expression", ...]:
        return ()

    def walk(self) -> Iterator["Expression"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class IntLiteral(Expression):
    """An integer literal (decimal or hexadecimal in source)."""

    value: int = 0


@dataclass
class Name(Expression):
    """A reference to a variable (local, parameter, or global)."""

    name: str = ""


@dataclass
class FieldAccess(Expression):
    """``base.field`` (``arrow`` False) or ``base->field`` (``arrow`` True)."""

    base: Expression = None  # type: ignore[assignment]
    field_name: str = ""
    arrow: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.base,)


@dataclass
class Unary(Expression):
    """Unary operator: ``-``, ``~``, or ``!``."""

    op: str = "-"
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass
class Binary(Expression):
    """Binary operator (arithmetic, bitwise, comparison, or logical)."""

    op: str = "+"
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass
class Cast(Expression):
    """A C-style cast ``(type) expr``."""

    target: TypeRef = None  # type: ignore[assignment]
    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass
class Call(Expression):
    """A call to a user function or builtin."""

    callee: str = ""
    args: tuple[Expression, ...] = ()

    def children(self) -> tuple[Expression, ...]:
        return tuple(self.args)


@dataclass
class AddressOf(Expression):
    """``&lvalue`` — used to pass structs by reference."""

    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass
class Deref(Expression):
    """``*pointer``."""

    operand: Expression = None  # type: ignore[assignment]

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Statement(Node):
    """Base class for statements."""


@dataclass
class Block(Node):
    """A brace-delimited list of statements."""

    statements: list[Statement] = field(default_factory=list)

    def walk_statements(self) -> Iterator[Statement]:
        for statement in self.statements:
            yield statement
            yield from _walk_nested(statement)


def _walk_nested(statement: Statement) -> Iterator[Statement]:
    if isinstance(statement, If):
        yield from statement.then_block.walk_statements()
        if statement.else_block is not None:
            yield from statement.else_block.walk_statements()
    elif isinstance(statement, While):
        yield from statement.body.walk_statements()


@dataclass
class VarDecl(Statement):
    """A local variable declaration with optional initialiser."""

    type_ref: TypeRef = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expression] = None


@dataclass
class Assign(Statement):
    """An assignment to an lvalue (name, field access, or dereference)."""

    target: Expression = None  # type: ignore[assignment]
    value: Expression = None  # type: ignore[assignment]


@dataclass
class If(Statement):
    """An if/else statement."""

    condition: Expression = None  # type: ignore[assignment]
    then_block: Block = None  # type: ignore[assignment]
    else_block: Optional[Block] = None


@dataclass
class While(Statement):
    """A while loop."""

    condition: Expression = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass
class Return(Statement):
    """A return statement with optional value."""

    value: Optional[Expression] = None


@dataclass
class ExprStmt(Statement):
    """An expression evaluated for its side effects (typically a call)."""

    expression: Expression = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


@dataclass
class StructFieldDecl(Node):
    """One field of a struct declaration."""

    type_ref: TypeRef = None  # type: ignore[assignment]
    name: str = ""


@dataclass
class StructDecl(Node):
    """A struct type declaration."""

    name: str = ""
    fields: list[StructFieldDecl] = field(default_factory=list)


@dataclass
class Parameter(Node):
    """A function parameter."""

    type_ref: TypeRef = None  # type: ignore[assignment]
    name: str = ""


@dataclass
class FunctionDecl(Node):
    """A function definition."""

    return_type: TypeRef = None  # type: ignore[assignment]
    name: str = ""
    parameters: list[Parameter] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]


@dataclass
class GlobalVarDecl(Node):
    """A global variable declaration with optional constant initialiser."""

    type_ref: TypeRef = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expression] = None


@dataclass
class TranslationUnit(Node):
    """A whole MicroC program: structs, globals, and functions."""

    structs: list[StructDecl] = field(default_factory=list)
    globals: list[GlobalVarDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    source: str = ""
    name: str = ""

    def function(self, name: str) -> FunctionDecl:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r}")

    def all_statements(self) -> Iterator[Statement]:
        for function in self.functions:
            yield from function.body.walk_statements()
