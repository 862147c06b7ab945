"""MicroC source renderer (AST -> source text).

Used to display patched recipient programs (the reproduction's analogue of the
source-level patches CP generates) and by tests that check parser/printer
round trips.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import ast


_INDENT = "    "

#: Extra statements to render, each keyed by the node id of the statement
#: it follows in the same block.
_After = Optional[Mapping[int, ast.Statement]]


def render_program(unit: ast.TranslationUnit, after: _After = None) -> str:
    """Render a whole translation unit back to MicroC source.

    ``after`` adds statements to the rendering without touching ``unit`` —
    how the patcher splices a patch into a checked program's shared AST.
    """
    parts: list[str] = []
    for struct in unit.structs:
        parts.append(_render_struct(struct))
    if unit.structs:
        parts.append("")
    for declaration in unit.globals:
        initialiser = f" = {render_expression(declaration.init)}" if declaration.init else ""
        parts.append(f"{declaration.type_ref} {declaration.name}{initialiser};")
    if unit.globals:
        parts.append("")
    for function in unit.functions:
        parts.append(_render_function(function, after))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def _render_struct(struct: ast.StructDecl) -> str:
    lines = [f"struct {struct.name} {{"]
    for field in struct.fields:
        lines.append(f"{_INDENT}{field.type_ref} {field.name};")
    lines.append("};")
    return "\n".join(lines)


def _render_function(function: ast.FunctionDecl, after: _After) -> str:
    parameters = ", ".join(f"{param.type_ref} {param.name}" for param in function.parameters)
    header = f"{function.return_type} {function.name}({parameters}) {{"
    body = _render_block(function.body, 1, after)
    return "\n".join([header, body, "}"])


def _render_block(block: ast.Block, depth: int, after: _After) -> str:
    lines = []
    for statement in block.statements:
        lines.append(render_statement(statement, depth, after))
        extra = after.get(statement.node_id) if after else None
        if extra is not None:
            lines.append(render_statement(extra, depth))
    return "\n".join(lines)


def render_statement(statement: ast.Statement, depth: int = 0, after: _After = None) -> str:
    """Render one statement at the given indentation depth (``after``: as in
    :func:`render_program`)."""
    pad = _INDENT * depth

    if isinstance(statement, ast.VarDecl):
        initialiser = f" = {render_expression(statement.init)}" if statement.init else ""
        return f"{pad}{statement.type_ref} {statement.name}{initialiser};"

    if isinstance(statement, ast.Assign):
        return f"{pad}{render_expression(statement.target)} = {render_expression(statement.value)};"

    if isinstance(statement, ast.If):
        lines = [f"{pad}if ({render_expression(statement.condition)}) {{"]
        lines.append(_render_block(statement.then_block, depth + 1, after))
        if statement.else_block is not None:
            lines.append(f"{pad}}} else {{")
            lines.append(_render_block(statement.else_block, depth + 1, after))
        lines.append(f"{pad}}}")
        return "\n".join(line for line in lines if line)

    if isinstance(statement, ast.While):
        lines = [f"{pad}while ({render_expression(statement.condition)}) {{"]
        lines.append(_render_block(statement.body, depth + 1, after))
        lines.append(f"{pad}}}")
        return "\n".join(line for line in lines if line)

    if isinstance(statement, ast.Return):
        if statement.value is None:
            return f"{pad}return;"
        return f"{pad}return {render_expression(statement.value)};"

    if isinstance(statement, ast.ExprStmt):
        return f"{pad}{render_expression(statement.expression)};"

    raise TypeError(f"cannot render statement {type(statement).__name__}")


def render_expression(expression: ast.Expression) -> str:
    """Render an expression with explicit parentheses (no precedence games)."""
    if isinstance(expression, ast.IntLiteral):
        return str(expression.value)
    if isinstance(expression, ast.Name):
        return expression.name
    if isinstance(expression, ast.FieldAccess):
        separator = "->" if expression.arrow else "."
        return f"{render_expression(expression.base)}{separator}{expression.field_name}"
    if isinstance(expression, ast.Unary):
        return f"{expression.op}({render_expression(expression.operand)})"
    if isinstance(expression, ast.Binary):
        return (
            f"({render_expression(expression.left)} {expression.op} "
            f"{render_expression(expression.right)})"
        )
    if isinstance(expression, ast.Cast):
        return f"(({expression.target}) {render_expression(expression.operand)})"
    if isinstance(expression, ast.Call):
        if expression.callee.startswith("__sizeof:"):
            return f"sizeof({expression.callee.split(':', 1)[1]})"
        arguments = ", ".join(render_expression(argument) for argument in expression.args)
        return f"{expression.callee}({arguments})"
    if isinstance(expression, ast.AddressOf):
        return f"&{render_expression(expression.operand)}"
    if isinstance(expression, ast.Deref):
        return f"*({render_expression(expression.operand)})"
    raise TypeError(f"cannot render expression {type(expression).__name__}")
