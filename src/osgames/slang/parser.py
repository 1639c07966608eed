"""Recursive-descent parser for SLANG.

Grammar (documented in docs/slang.md):

    program    = { definition } ;
    definition = "fn" IDENT "(" [ IDENT { "," IDENT } ] ")" block ;
    block      = "{" { statement } "}" ;
    statement  = "let" IDENT "=" expr
               | IDENT "=" expr
               | "if" expr block { "elif" expr block } [ "else" block ]
               | "while" expr block
               | "for" IDENT "in" expr block
               | "return" expr
               | expr ;

Expressions are parsed by precedence climbing over BINARY_PREC, with `not`
and unary `-` as prefix levels (NOT_PREC, NEG_PREC); docs/slang.md gives
the same table and its rules.  A binary operator,
call `(` or index `[` may not start a new line unless it appears inside an
open `(`/`[` group; this makes statement boundaries unambiguous and lets the
pretty-printer's one-statement-per-line output reparse to the same tree.

Parsing stops at the first error and raises ParseError with the offending
span and the set of token descriptions that would have been accepted.
"""

from __future__ import annotations

import re

from . import nodes as n
from .tokens import Span, Token, TokenKind, SourceText, tokenize

#: Binding strength of each binary operator, higher binding tighter.  The
#: parser climbs this table and the renderer parenthesizes by it.
#: Comparisons do not chain; the other operators associate left.
BINARY_PREC = {
    "or": 1,
    "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
COMPARISON_PREC = BINARY_PREC["=="]
#: Levels of the prefix operators: `not` binds between `and` and the
#: comparisons, unary `-` tighter than any binary operator.
NOT_PREC = 3
NEG_PREC = 7

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\([\s\S]?)")

#: Longest integer literal accepted: CPython's lowest settable limit on
#: int-from-text conversion, so a literal parses alike on every host.
MAX_INT_DIGITS = 640

#: Nesting caps keep adversarial inputs (thousands of nested parentheses,
#: blocks, or operator chains inside the 64 KiB source budget) from
#: exhausting the host stack anywhere in the engine; they are far beyond
#: anything a real strategy program needs.
MAX_EXPR_NESTING = 200
MAX_BLOCK_NESTING = 100
MAX_TREE_DEPTH = 200


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected


def _decode_string(token: Token) -> str:
    def unescape(m: re.Match) -> str:
        if m[1] not in _ESCAPES:
            at = token.span.start + 1 + m.start()
            raise ParseError("unsupported escape sequence in string", Span(at, at + 2))
        return _ESCAPES[m[1]]

    return _ESCAPE.sub(unescape, token.lexeme[1:-1])


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = [t for t in tokens if t.kind is not TokenKind.COMMENT]
        self.pos = 0
        self.group_depth = 0  # open ( or [ within the current expression
        self.expr_depth = 0
        self.block_depth = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _prev(self) -> Token | None:
        return self.tokens[self.pos - 1] if self.pos > 0 else None

    def _eof_span(self) -> Span:
        if self.tokens:
            end = self.tokens[-1].span.end
            return Span(end, end)
        return Span(0, 0)

    def _here(self) -> Span:
        tok = self._peek()
        return tok.span if tok else self._eof_span()

    def _error(self, message: str, expected: tuple[str, ...] = ()):
        raise ParseError(message, self._here(), expected)

    def _advance(self) -> Token:
        tok = self._peek()
        if tok is None:
            self._error("unexpected end of input")
        self.pos += 1
        return tok

    def _check(self, kind: TokenKind, lexeme: str | None = None) -> bool:
        tok = self._peek()
        if tok is None or tok.kind is not kind:
            return False
        return lexeme is None or tok.lexeme == lexeme

    def _match(self, kind: TokenKind, lexeme: str | None = None) -> Token | None:
        if self._check(kind, lexeme):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, lexeme: str, what: str) -> Token:
        tok = self._match(kind, lexeme)
        if tok is None:
            self._error(f"expected {what}", expected=(lexeme,))
        return tok

    def _expect_ident(self, what: str) -> Token:
        tok = self._match(TokenKind.IDENT)
        if tok is None:
            self._error(f"expected {what}", expected=("identifier",))
        return tok

    def _same_line(self) -> bool:
        """May the next token extend the current expression?"""
        if self.group_depth > 0:
            return True
        tok, prev = self._peek(), self._prev()
        return tok is not None and prev is not None and tok.line == prev.line

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> n.Program:
        defs: list[n.FuncDef] = []
        names: set[str] = set()
        while self._peek() is not None:
            d = self._definition()
            if d.name in names:
                raise ParseError(f"duplicate function name '{d.name}'", d.name_span)
            names.add(d.name)
            defs.append(d)
        if n.ENTRY_POINT not in names:
            raise ParseError(
                "missing strategy definition", self._eof_span(), expected=("fn",)
            )
        span = Span(0, self._eof_span().end)
        program = n.Program(tuple(defs), span=span)
        if n.tree_depth(program) > MAX_TREE_DEPTH:
            raise ParseError("program nested too deeply", span)
        return program

    def _definition(self) -> n.FuncDef:
        start = self._here()
        if not self._match(TokenKind.KEYWORD, "fn"):
            self._error("expected function definition", expected=("fn",))
        name_tok = self._expect_ident("function name")
        self._expect(TokenKind.DELIM, "(", "'(' after function name")
        params: list[str] = []
        param_spans: list[Span] = []
        if not self._check(TokenKind.DELIM, ")"):
            while True:
                p = self._expect_ident("parameter name")
                params.append(p.lexeme)
                param_spans.append(p.span)
                if not self._match(TokenKind.DELIM, ","):
                    break
        self._expect(TokenKind.DELIM, ")", "')' after parameters")
        body = self._block()
        end = self._prev().span.end
        return n.FuncDef(
            name_tok.lexeme,
            tuple(params),
            body,
            span=Span(start.start, end),
            name_span=name_tok.span,
            param_spans=tuple(param_spans),
        )

    def _block(self) -> n.Block:
        open_tok = self._expect(TokenKind.DELIM, "{", "'{' to open a block")
        self.block_depth += 1
        if self.block_depth > MAX_BLOCK_NESTING:
            raise ParseError("blocks nested too deeply", open_tok.span)
        stmts: list[n.Stmt] = []
        while not self._check(TokenKind.DELIM, "}"):
            if self._peek() is None:
                self._error("unclosed block", expected=("}",))
            stmts.append(self._statement())
        self._advance()  # consume '}'
        self.block_depth -= 1
        return tuple(stmts)

    # -- statements ----------------------------------------------------------

    def _statement(self) -> n.Stmt:
        tok = self._peek()
        assert tok is not None
        if tok.kind is TokenKind.KEYWORD:
            if tok.lexeme == "let":
                return self._let()
            if tok.lexeme == "if":
                return self._if()
            if tok.lexeme == "while":
                return self._while()
            if tok.lexeme == "for":
                return self._for()
            if tok.lexeme == "return":
                return self._return()
        if tok.kind is TokenKind.IDENT and self._is_assign_ahead():
            return self._assign()
        start = tok.span.start
        expr = self._expression()
        return n.ExprStmt(expr, span=Span(start, self._prev().span.end))

    def _is_assign_ahead(self) -> bool:
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        return nxt is not None and nxt.kind is TokenKind.OP and nxt.lexeme == "="

    def _let(self) -> n.Let:
        start = self._advance().span.start
        name = self._expect_ident("variable name after 'let'")
        self._expect(TokenKind.OP, "=", "'=' in let statement")
        value = self._expression()
        return n.Let(
            name.lexeme, value, span=Span(start, self._prev().span.end),
            name_span=name.span,
        )

    def _assign(self) -> n.Assign:
        name = self._advance()
        self._expect(TokenKind.OP, "=", "'=' in assignment")
        value = self._expression()
        return n.Assign(
            name.lexeme, value, span=Span(name.span.start, self._prev().span.end),
            name_span=name.span,
        )

    def _if(self) -> n.If:
        start = self._advance().span.start
        arms = [(self._expression(), self._block())]
        orelse: n.Block | None = None
        while self._check(TokenKind.KEYWORD, "elif"):
            self._advance()
            arms.append((self._expression(), self._block()))
        if self._match(TokenKind.KEYWORD, "else"):
            orelse = self._block()
        return n.If(tuple(arms), orelse, span=Span(start, self._prev().span.end))

    def _while(self) -> n.While:
        start = self._advance().span.start
        cond = self._expression()
        body = self._block()
        return n.While(cond, body, span=Span(start, self._prev().span.end))

    def _for(self) -> n.For:
        start = self._advance().span.start
        var = self._expect_ident("loop variable after 'for'")
        self._expect(TokenKind.KEYWORD, "in", "'in' in for statement")
        iterable = self._expression()
        body = self._block()
        return n.For(
            var.lexeme, iterable, body, span=Span(start, self._prev().span.end),
            var_span=var.span,
        )

    def _return(self) -> n.Return:
        ret = self._advance()
        nxt = self._peek()
        if (
            nxt is None
            or nxt.line != ret.line
            or (nxt.kind is TokenKind.DELIM and nxt.lexeme in ")}],")
        ):
            raise ParseError(
                "return requires an expression", Span(ret.span.start, ret.span.end),
                expected=("expression",),
            )
        value = self._expression()
        return n.Return(value, span=Span(ret.span.start, self._prev().span.end))

    # -- expressions -----------------------------------------------------------

    def _expression(self) -> n.Expr:
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_NESTING:
            raise ParseError("expression nested too deeply", self._here())
        try:
            return self._binary(1)
        finally:
            self.expr_depth -= 1

    def _binary(self, floor: int) -> n.Expr:
        """Parse the operators that bind at `floor` or tighter.

        At `not` level and below, an operand takes every operator that binds
        at `not` or tighter, so the loop only joins `and`/`or`; after one
        comparison, no further comparison joins (they do not chain).
        """
        if floor <= NOT_PREC:
            prefixes = self._prefixes("not")
            left = self._binary(COMPARISON_PREC)
            ceiling = NOT_PREC - 1
        else:
            prefixes = self._prefixes("-")
            left = self._postfix()
            ceiling = NEG_PREC
        for tok in reversed(prefixes):
            left = n.Unary(tok.lexeme, left, span=Span(tok.span.start, left.span.end))
        while self._same_line():
            tok = self._peek()
            prec = BINARY_PREC.get(tok.lexeme, 0) if tok is not None else 0
            if not floor <= prec <= ceiling:
                break
            self._advance()
            right = self._binary(prec + 1)
            left = n.Binary(
                tok.lexeme, left, right, span=Span(left.span.start, right.span.end)
            )
            if prec == COMPARISON_PREC:
                ceiling = prec - 1
        return left

    def _prefixes(self, op: str) -> list[Token]:
        """Consume a run of the prefix operator `op` (`not` or `-`)."""
        prefixes: list[Token] = []
        while (tok := self._peek()) is not None and tok.lexeme == op:
            prefixes.append(self._advance())
            if len(prefixes) > MAX_EXPR_NESTING:
                raise ParseError("expression nested too deeply", tok.span)
        return prefixes

    def _postfix(self) -> n.Expr:
        expr = self._primary()
        while self._same_line():
            if self._check(TokenKind.DELIM, "("):
                if not isinstance(expr, n.Var):
                    raise ParseError(
                        "only named functions can be called", self._here()
                    )
                self._advance()
                self.group_depth += 1
                args: list[n.Expr] = []
                if not self._check(TokenKind.DELIM, ")"):
                    while True:
                        args.append(self._expression())
                        if not self._match(TokenKind.DELIM, ","):
                            break
                self.group_depth -= 1
                close = self._expect(TokenKind.DELIM, ")", "')' to close the call")
                expr = n.Call(
                    expr.name, tuple(args),
                    span=Span(expr.span.start, close.span.end),
                    name_span=expr.span,
                )
            elif self._check(TokenKind.DELIM, "["):
                self._advance()
                self.group_depth += 1
                index = self._expression()
                self.group_depth -= 1
                close = self._expect(TokenKind.DELIM, "]", "']' to close the index")
                expr = n.Index(expr, index, span=Span(expr.span.start, close.span.end))
            else:
                break
        return expr

    def _primary(self) -> n.Expr:
        tok = self._peek()
        if tok is None:
            self._error("expected expression", expected=("expression",))
        if tok.kind is TokenKind.INT:
            if len(tok.lexeme) > MAX_INT_DIGITS:
                self._error(f"integer literal longer than {MAX_INT_DIGITS} digits")
            self._advance()
            return n.IntLit(int(tok.lexeme), span=tok.span)
        if tok.kind is TokenKind.STRING:
            self._advance()
            return n.StrLit(_decode_string(tok), span=tok.span)
        if tok.kind is TokenKind.KEYWORD and tok.lexeme in ("true", "false"):
            self._advance()
            return n.BoolLit(tok.lexeme == "true", span=tok.span)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return n.Var(tok.lexeme, span=tok.span)
        if tok.kind is TokenKind.DELIM and tok.lexeme == "[":
            return self._list_literal()
        if tok.kind is TokenKind.DELIM and tok.lexeme == "(":
            return self._paren_or_pair()
        self._error(
            f"expected expression, found {tok.lexeme!r}", expected=("expression",)
        )

    def _list_literal(self) -> n.ListLit:
        open_tok = self._advance()
        self.group_depth += 1
        items: list[n.Expr] = []
        if not self._check(TokenKind.DELIM, "]"):
            while True:
                items.append(self._expression())
                if not self._match(TokenKind.DELIM, ","):
                    break
        self.group_depth -= 1
        close = self._expect(TokenKind.DELIM, "]", "']' to close the list")
        return n.ListLit(tuple(items), span=Span(open_tok.span.start, close.span.end))

    def _paren_or_pair(self) -> n.Expr:
        open_tok = self._advance()
        self.group_depth += 1
        first = self._expression()
        if self._match(TokenKind.DELIM, ","):
            second = self._expression()
            self.group_depth -= 1
            close = self._expect(TokenKind.DELIM, ")", "')' to close the pair")
            return n.PairLit(
                first, second, span=Span(open_tok.span.start, close.span.end)
            )
        self.group_depth -= 1
        self._expect(TokenKind.DELIM, ")", "')' to close the group")
        return first


def parse(tokens: list[Token]) -> n.Program:
    """Parse a token stream (comments are ignored) into a Program."""
    from .._stack import stack_headroom

    with stack_headroom():
        return _Parser(tokens).parse_program()


def parse_source(src: SourceText | str) -> n.Program:
    """Tokenize and parse in one step."""
    return parse(tokenize(src))
