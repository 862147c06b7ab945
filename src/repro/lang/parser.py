"""MicroC recursive-descent parser.

Produces the AST of :mod:`repro.lang.ast`; every node receives a unique
``node_id`` in source order (statement ids are the program points the CP
insertion-point analysis and the patcher work with).
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import Token, TokenKind, tokenize


class ParseError(Exception):
    """Raised on syntactically invalid MicroC source."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


#: Binary operator precedence levels (lower binds weaker), mirroring C.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class Parser:
    """Parses one MicroC translation unit."""

    def __init__(self, source: str, name: str = "<program>") -> None:
        self._tokens = tokenize(source)
        self._position = 0
        self._next_node_id = 0
        self._source = source
        self._name = name
        self._struct_names: set[str] = set()

    # -- token helpers ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind is not TokenKind.END:
            self._position += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._advance()
        if not token.is_punct(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.line)
        return token

    def _expect_ident(self) -> Token:
        token = self._advance()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.line)
        return token

    def _node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _stamp(self, node: ast.Node, line: int) -> ast.Node:
        node.node_id = self._node_id()
        node.line = line
        return node

    # -- type references ----------------------------------------------------------

    def _at_type(self) -> bool:
        token = self._peek()
        if token.kind is TokenKind.TYPE_NAME or token.is_keyword("void"):
            return True
        if token.is_keyword("struct"):
            return True
        return False

    def _parse_type_ref(self) -> ast.TypeRef:
        token = self._advance()
        line = token.line
        if token.is_keyword("struct"):
            name_token = self._expect_ident()
            ref = ast.TypeRef(name=name_token.text, is_struct=True)
        elif token.kind is TokenKind.TYPE_NAME or token.is_keyword("void"):
            ref = ast.TypeRef(name=token.text, is_struct=False)
        else:
            raise ParseError(f"expected a type, found {token.text!r}", token.line)
        while self._peek().is_op("*"):
            self._advance()
            ref.pointer_depth += 1
        self._stamp(ref, line)
        return ref

    # -- top level -------------------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(source=self._source, name=self._name)
        self._stamp(unit, 1)
        while self._peek().kind is not TokenKind.END:
            token = self._peek()
            if token.is_keyword("struct") and self._peek(2).is_punct("{"):
                unit.structs.append(self._parse_struct_decl())
            else:
                self._parse_global_or_function(unit)
        return unit

    def _parse_struct_decl(self) -> ast.StructDecl:
        start = self._advance()  # 'struct'
        name = self._expect_ident()
        self._struct_names.add(name.text)
        decl = ast.StructDecl(name=name.text)
        self._stamp(decl, start.line)
        self._expect_punct("{")
        while not self._peek().is_punct("}"):
            type_ref = self._parse_type_ref()
            field_name = self._expect_ident()
            field_decl = ast.StructFieldDecl(type_ref=type_ref, name=field_name.text)
            self._stamp(field_decl, field_name.line)
            decl.fields.append(field_decl)
            self._expect_punct(";")
        self._expect_punct("}")
        self._expect_punct(";")
        return decl

    def _parse_global_or_function(self, unit: ast.TranslationUnit) -> None:
        type_ref = self._parse_type_ref()
        name = self._expect_ident()
        if self._peek().is_punct("("):
            unit.functions.append(self._parse_function(type_ref, name))
            return
        decl = ast.GlobalVarDecl(type_ref=type_ref, name=name.text)
        self._stamp(decl, name.line)
        if self._peek().is_op("="):
            self._advance()
            decl.init = self._parse_expression()
        self._expect_punct(";")
        unit.globals.append(decl)

    def _parse_function(self, return_type: ast.TypeRef, name: Token) -> ast.FunctionDecl:
        function = ast.FunctionDecl(return_type=return_type, name=name.text)
        self._stamp(function, name.line)
        self._expect_punct("(")
        if not self._peek().is_punct(")"):
            while True:
                param_type = self._parse_type_ref()
                param_name = self._expect_ident()
                parameter = ast.Parameter(type_ref=param_type, name=param_name.text)
                self._stamp(parameter, param_name.line)
                function.parameters.append(parameter)
                if self._peek().is_punct(","):
                    self._advance()
                    continue
                break
        self._expect_punct(")")
        function.body = self._parse_block()
        return function

    # -- statements ----------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_brace = self._expect_punct("{")
        block = ast.Block()
        self._stamp(block, open_brace.line)
        while not self._peek().is_punct("}"):
            block.statements.append(self._parse_statement())
        self._expect_punct("}")
        return block

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()

        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("return"):
            return self._parse_return()
        if self._at_type():
            return self._parse_var_decl()

        # Assignment or expression statement.
        line = token.line
        expression = self._parse_expression()
        if self._peek().is_op("="):
            self._advance()
            value = self._parse_expression()
            statement = ast.Assign(target=expression, value=value)
            self._stamp(statement, line)
        else:
            statement = ast.ExprStmt(expression=expression)
            self._stamp(statement, line)
        self._expect_punct(";")
        return statement

    def _parse_if(self) -> ast.Statement:
        start = self._advance()  # 'if'
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then_block = self._parse_block()
        else_block: Optional[ast.Block] = None
        if self._peek().is_keyword("else"):
            self._advance()
            if self._peek().is_keyword("if"):
                # else-if chains: wrap the nested if in a synthetic block.
                nested = self._parse_if()
                else_block = ast.Block(statements=[nested])
                self._stamp(else_block, nested.line)
            else:
                else_block = self._parse_block()
        statement = ast.If(condition=condition, then_block=then_block, else_block=else_block)
        self._stamp(statement, start.line)
        return statement

    def _parse_while(self) -> ast.Statement:
        start = self._advance()  # 'while'
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_block()
        statement = ast.While(condition=condition, body=body)
        self._stamp(statement, start.line)
        return statement

    def _parse_return(self) -> ast.Statement:
        start = self._advance()  # 'return'
        value: Optional[ast.Expression] = None
        if not self._peek().is_punct(";"):
            value = self._parse_expression()
        self._expect_punct(";")
        statement = ast.Return(value=value)
        self._stamp(statement, start.line)
        return statement

    def _parse_var_decl(self) -> ast.Statement:
        type_ref = self._parse_type_ref()
        name = self._expect_ident()
        declaration = ast.VarDecl(type_ref=type_ref, name=name.text)
        self._stamp(declaration, name.line)
        if self._peek().is_op("="):
            self._advance()
            declaration.init = self._parse_expression()
        self._expect_punct(";")
        return declaration

    # -- expressions -------------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_binary(0)

    def _parse_binary(self, min_precedence: int) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind is not TokenKind.OPERATOR:
                break
            precedence = _PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            right = self._parse_binary(precedence + 1)
            node = ast.Binary(op=token.text, left=left, right=right)
            self._stamp(node, token.line)
            left = node
        return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.OPERATOR and token.text in ("-", "~", "!"):
            self._advance()
            operand = self._parse_unary()
            node = ast.Unary(op=token.text, operand=operand)
            self._stamp(node, token.line)
            return node
        if token.is_op("*"):
            self._advance()
            operand = self._parse_unary()
            node = ast.Deref(operand=operand)
            self._stamp(node, token.line)
            return node
        if token.is_op("&"):
            self._advance()
            operand = self._parse_unary()
            node = ast.AddressOf(operand=operand)
            self._stamp(node, token.line)
            return node
        # Cast: '(' type ')' unary
        if token.is_punct("(") and self._is_cast_ahead():
            self._advance()  # '('
            target = self._parse_type_ref()
            self._expect_punct(")")
            operand = self._parse_unary()
            node = ast.Cast(target=target, operand=operand)
            self._stamp(node, token.line)
            return node
        return self._parse_postfix()

    def _is_cast_ahead(self) -> bool:
        next_token = self._peek(1)
        if next_token.kind is TokenKind.TYPE_NAME:
            return True
        if next_token.is_keyword("struct"):
            return True
        return False

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_op("."):
                self._advance()
                field_name = self._expect_ident()
                node = ast.FieldAccess(base=expression, field_name=field_name.text, arrow=False)
                self._stamp(node, field_name.line)
                expression = node
            elif token.is_op("->"):
                self._advance()
                field_name = self._expect_ident()
                node = ast.FieldAccess(base=expression, field_name=field_name.text, arrow=True)
                self._stamp(node, field_name.line)
                expression = node
            else:
                break
        return expression

    def _parse_primary(self) -> ast.Expression:
        token = self._advance()

        if token.kind is TokenKind.NUMBER:
            node = ast.IntLiteral(value=token.value)
            self._stamp(node, token.line)
            return node

        if token.kind is TokenKind.IDENT:
            if self._peek().is_punct("("):
                return self._parse_call(token)
            node = ast.Name(name=token.text)
            self._stamp(node, token.line)
            return node

        if token.is_punct("("):
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression

        if token.is_keyword("sizeof"):
            # sizeof(type) — evaluates to the byte size of the type; resolved
            # by the checker into an integer literal-like expression.
            self._expect_punct("(")
            target = self._parse_type_ref()
            self._expect_punct(")")
            node = ast.Call(callee="__sizeof", args=(ast.IntLiteral(value=0),))
            # Store the type name textually; the checker resolves it.
            node.args = ()
            node.callee = f"__sizeof:{target}"
            self._stamp(node, token.line)
            return node

        raise ParseError(f"unexpected token {token.text!r}", token.line)

    def _parse_call(self, name: Token) -> ast.Expression:
        self._expect_punct("(")
        args: list[ast.Expression] = []
        if not self._peek().is_punct(")"):
            while True:
                args.append(self._parse_expression())
                if self._peek().is_punct(","):
                    self._advance()
                    continue
                break
        self._expect_punct(")")
        node = ast.Call(callee=name.text, args=tuple(args))
        self._stamp(node, name.line)
        return node


def parse_program(source: str, name: str = "<program>") -> ast.TranslationUnit:
    """Parse MicroC source text into a translation unit."""
    return Parser(source, name=name).parse()


def parse_expression(source: str) -> ast.Expression:
    """Parse a standalone MicroC expression (used by the patch generator)."""
    parser = Parser(source, name="<expression>")
    expression = parser._parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.END:
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.line)
    return expression
