"""Source-level patch insertion for MicroC programs.

CP generates a candidate patch as "an if statement inserted at the insertion
point": the translated check becomes the condition and the body either exits
the application (``exit(-1)``), or — for the divide-by-zero alternate strategy
of §4.5 — returns zero from the enclosing function.

The patcher works the way CP does with source-level patches: it finds the
insertion-point statement in the recipient's checked program (the one
:func:`~repro.lang.checker.compile_program` already holds for that source,
so statement node ids are the parser's), renders the program back to source
with the patch statement right after that statement, and recompiles the
result.  Rendering never mutates the checked program's AST, which is shared
by every caller that compiled the same source — threads included.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import ast
from .checker import Program, compile_program
from .parser import parse_expression
from .printer import render_program, render_statement


class PatchError(Exception):
    """Raised when a patch cannot be constructed or applied."""


class PatchAction(enum.Enum):
    """What the inserted check does when the condition fires."""

    EXIT = "exit"            # exit(-1): reject the input before the error occurs
    RETURN_ZERO = "return0"  # return 0 from the enclosing function (§4.5 strategy)


@dataclass(frozen=True)
class SourcePatch:
    """A source patch: where to insert, what to check, what to do."""

    insertion_statement_id: int
    condition_source: str
    action: PatchAction = PatchAction.EXIT
    description: str = ""

    def render(self) -> str:
        """The patch as it would appear in the recipient source."""
        if self.action is PatchAction.EXIT:
            body = "exit(-1);"
        else:
            body = "return 0;"
        return f"if ({self.condition_source}) {{ {body} }}"


@dataclass
class PatchedProgram:
    """Result of applying a patch: new source, recompiled program, location info."""

    source: str
    program: Program
    patch: SourcePatch
    function: str
    insertion_line: int


def _checked_unit(source: str, program_name: str) -> ast.TranslationUnit:
    """The AST of ``source``'s checked program (shared: read it, never mutate it)."""
    try:
        return compile_program(source, name=program_name or "<program>").unit
    except Exception as error:
        raise PatchError(f"recipient program does not compile: {error}") from error


def _locate(unit: ast.TranslationUnit, statement_id: int) -> tuple[ast.Statement, str]:
    """The statement with ``statement_id`` and the name of its function."""
    for function in unit.functions:
        for statement in function.body.walk_statements():
            if statement.node_id == statement_id:
                return statement, function.name
    raise PatchError(f"no statement with node id {statement_id} in program")


def _build_patch_statement(patch: SourcePatch) -> ast.If:
    """The patch's if-statement AST (rendered only, so its node ids do not matter)."""
    if patch.action is PatchAction.EXIT:
        body: ast.Statement = ast.ExprStmt(
            expression=ast.Call(
                callee="exit", args=(ast.Unary(op="-", operand=ast.IntLiteral(value=1)),)
            )
        )
    else:
        body = ast.Return(value=ast.IntLiteral(value=0))
    return ast.If(
        condition=parse_expression(patch.condition_source),
        then_block=ast.Block(statements=[body]),
        else_block=None,
    )


def apply_patch(source: str, patch: SourcePatch, program_name: str = "") -> PatchedProgram:
    """Apply ``patch`` to MicroC ``source`` and recompile the result.

    ``program_name`` names the checked program ``source`` was compiled as;
    reusing that name lets the patcher read the cached program instead of
    parsing ``source`` again.  Raises :class:`PatchError` if the insertion
    point does not exist or the patched program fails to recompile (CP's
    first validation step).
    """
    unit = _checked_unit(source, program_name)
    anchor, function_name = _locate(unit, patch.insertion_statement_id)
    new_source = render_program(
        unit, after={anchor.node_id: _build_patch_statement(patch)}
    )
    try:
        program = compile_program(new_source, name=(program_name or "patched"))
    except Exception as error:  # compilation failure -> validation failure
        raise PatchError(f"patched program failed to recompile: {error}") from error

    return PatchedProgram(
        source=new_source,
        program=program,
        patch=patch,
        function=function_name,
        insertion_line=anchor.line,
    )


def render_patch_preview(source: str, patch: SourcePatch) -> str:
    """A short human-readable preview of the patch in context (for reports)."""
    anchor, function_name = _locate(
        _checked_unit(source, ""), patch.insertion_statement_id
    )
    return (
        f"in {function_name}, after `{render_statement(anchor).strip()}`:\n"
        f"    {patch.render()}"
    )
