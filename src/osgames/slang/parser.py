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
    """Keeps the current token in `tok` and the one before it in `prev`.

    A keyword, operator or delimiter is known by its lexeme alone: no token
    of another kind has the same lexeme.  Past the last token stands `eof`,
    at the end-of-input span, whose empty lexeme and line 0 match no test.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = [t for t in tokens if t.kind is not TokenKind.COMMENT]
        end = self.tokens[-1].span.end if self.tokens else 0
        self.eof = Token(None, "", Span(end, end), 0)
        self.tokens.append(self.eof)
        self.pos = 0
        self.tok = self.tokens[0]
        self.prev: Token | None = None
        self.group_depth = 0  # open ( or [ within the current expression
        self.expr_depth = 0
        self.block_depth = 0
        self.height = 0  # of the expression parsed last
        self.deepest = 1  # tree depth so far; a function is at depth 1

    # -- token plumbing ----------------------------------------------------

    def _error(self, message: str, expected: tuple[str, ...] = ()):
        raise ParseError(message, self.tok.span, expected)

    def _advance(self) -> Token:
        """Consume the current token, never the sentinel, and return it."""
        tok = self.prev = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def _expect(self, lexeme: str, what: str) -> Token:
        if self.tok.lexeme != lexeme:
            self._error(f"expected {what}", expected=(lexeme,))
        return self._advance()

    def _expect_ident(self, what: str) -> Token:
        if self.tok.kind is not TokenKind.IDENT:
            self._error(f"expected {what}", expected=("identifier",))
        return self._advance()

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> n.Program:
        defs: list[n.FuncDef] = []
        names: set[str] = set()
        while self.tok is not self.eof:
            d = self._definition()
            if d.name in names:
                raise ParseError(f"duplicate function name '{d.name}'", d.name_span)
            names.add(d.name)
            defs.append(d)
        if n.ENTRY_POINT not in names:
            raise ParseError(
                "missing strategy definition", self.eof.span, expected=("fn",)
            )
        span = Span(0, self.eof.span.end)
        if self.deepest > MAX_TREE_DEPTH:
            raise ParseError("program nested too deeply", span)
        return n.Program(tuple(defs), span=span)

    def _definition(self) -> n.FuncDef:
        start = self._expect("fn", "function definition").span.start
        name_tok = self._expect_ident("function name")
        self._expect("(", "'(' after function name")
        params: list[str] = []
        param_spans: list[Span] = []
        if self.tok.lexeme != ")":
            while True:
                p = self._expect_ident("parameter name")
                params.append(p.lexeme)
                param_spans.append(p.span)
                if self.tok.lexeme != ",":
                    break
                self._advance()
        self._expect(")", "')' after parameters")
        body = self._block()
        return n.FuncDef(
            name_tok.lexeme,
            tuple(params),
            body,
            span=Span(start, self.prev.span.end),
            name_span=name_tok.span,
            param_spans=tuple(param_spans),
        )

    def _block(self) -> n.Block:
        open_tok = self._expect("{", "'{' to open a block")
        self.block_depth += 1
        if self.block_depth > MAX_BLOCK_NESTING:
            raise ParseError("blocks nested too deeply", open_tok.span)
        stmts: list[n.Stmt] = []
        while self.tok.lexeme != "}":
            if self.tok is self.eof:
                self._error("unclosed block", expected=("}",))
            stmts.append(self._statement())
        self._advance()  # consume '}'
        self.block_depth -= 1
        return tuple(stmts)

    # -- statements ----------------------------------------------------------

    def _statement(self) -> n.Stmt:
        tok = self.tok
        if tok.lexeme in ("let", "if", "while", "for", "return"):
            return getattr(self, "_" + tok.lexeme)()  # _let, _if, ...
        if tok.kind is TokenKind.IDENT and self.tokens[self.pos + 1].lexeme == "=":
            return self._assign()
        expr = self._expression()
        return n.ExprStmt(expr, span=Span(tok.span.start, self.prev.span.end))

    def _let(self) -> n.Let:
        start = self._advance().span.start
        name = self._expect_ident("variable name after 'let'")
        self._expect("=", "'=' in let statement")
        value = self._expression()
        return n.Let(
            name.lexeme, value, span=Span(start, self.prev.span.end),
            name_span=name.span,
        )

    def _assign(self) -> n.Assign:
        name = self._advance()
        self._expect("=", "'=' in assignment")
        value = self._expression()
        return n.Assign(
            name.lexeme, value, span=Span(name.span.start, self.prev.span.end),
            name_span=name.span,
        )

    def _if(self) -> n.If:
        start = self._advance().span.start
        arms = [(self._expression(), self._block())]
        orelse: n.Block | None = None
        while self.tok.lexeme == "elif":
            self._advance()
            arms.append((self._expression(), self._block()))
        if self.tok.lexeme == "else":
            self._advance()
            orelse = self._block()
        return n.If(tuple(arms), orelse, span=Span(start, self.prev.span.end))

    def _while(self) -> n.While:
        start = self._advance().span.start
        cond = self._expression()
        body = self._block()
        return n.While(cond, body, span=Span(start, self.prev.span.end))

    def _for(self) -> n.For:
        start = self._advance().span.start
        var = self._expect_ident("loop variable after 'for'")
        self._expect("in", "'in' in for statement")
        iterable = self._expression()
        body = self._block()
        return n.For(
            var.lexeme, iterable, body, span=Span(start, self.prev.span.end),
            var_span=var.span,
        )

    def _return(self) -> n.Return:
        ret = self._advance()
        if self.tok.line != ret.line or self.tok.lexeme in (")", "}", "]", ","):
            raise ParseError(
                "return requires an expression", ret.span, expected=("expression",)
            )
        value = self._expression()
        return n.Return(value, span=Span(ret.span.start, self.prev.span.end))

    # -- expressions -----------------------------------------------------------

    def _expression(self) -> n.Expr:
        """An expression; a statement's expression also records the tree depth.

        Each expression parser leaves the height of what it built in
        `height`.  A statement inside b open blocks sits at depth b + 1, so
        the deepest node of its expression is at b + 1 + that height.
        """
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_NESTING:
            raise ParseError("expression nested too deeply", self.tok.span)
        expr = self._binary(1)
        self.expr_depth -= 1
        if not self.expr_depth:
            self.deepest = max(self.deepest, self.block_depth + 1 + self.height)
        return expr

    def _binary(self, floor: int) -> n.Expr:
        """Parse the operators that bind at `floor` or tighter.

        At `not` level and below, a `not` takes as its operand every operator
        that binds tighter than `not`, so the loop after it only joins
        `and`/`or`; after one comparison, no further comparison joins (they
        do not chain).
        """
        prefix = "not" if floor <= NOT_PREC and self.tok.lexeme == "not" else "-"
        prefixes: list[Token] = []
        while self.tok.lexeme == prefix:
            prefixes.append(self._advance())
            if len(prefixes) > MAX_EXPR_NESTING:
                raise ParseError("expression nested too deeply", self.prev.span)
        if prefix == "not":
            left = self._binary(COMPARISON_PREC)
            ceiling = NOT_PREC - 1
        else:
            left = self._operand()
            ceiling = NEG_PREC
        height = self.height
        for tok in reversed(prefixes):
            left = n.Unary(tok.lexeme, left, span=Span(tok.span.start, left.span.end))
            height += 1
        # an operator may continue the expression inside an open ( or [
        # group, or on the line of the token before it
        while self.group_depth or self.tok.line == self.prev.line:
            tok = self.tok
            prec = BINARY_PREC.get(tok.lexeme, 0)
            if not floor <= prec <= ceiling:
                break
            self._advance()
            right = self._binary(prec + 1)
            height = max(height, self.height) + 1
            left = n.Binary(
                tok.lexeme, left, right, span=Span(left.span.start, right.span.end)
            )
            if prec == COMPARISON_PREC:
                ceiling = prec - 1
        self.height = height
        return left

    def _operand(self) -> n.Expr:
        """A primary expression, then the calls and indexes that follow it."""
        tok = self.tok
        kind = tok.kind
        lexeme = tok.lexeme
        height = 1
        if kind is TokenKind.IDENT:
            expr = n.Var(lexeme, span=tok.span)
            self._advance()
        elif kind is TokenKind.INT:
            if len(lexeme) > MAX_INT_DIGITS:
                self._error(f"integer literal longer than {MAX_INT_DIGITS} digits")
            expr = n.IntLit(int(lexeme), span=tok.span)
            self._advance()
        elif kind is TokenKind.STRING:
            expr = n.StrLit(_decode_string(tok), span=tok.span)
            self._advance()
        elif lexeme in ("true", "false"):
            expr = n.BoolLit(lexeme == "true", span=tok.span)
            self._advance()
        elif lexeme == "[":
            items = self._items("]", "']' to close the list")
            height = self.height + 1
            expr = n.ListLit(items, span=Span(tok.span.start, self.prev.span.end))
        elif lexeme == "(":
            expr = self._paren_or_pair()
            height = self.height
        elif tok is self.eof:
            self._error("expected expression", expected=("expression",))
        else:
            self._error(
                f"expected expression, found {lexeme!r}", expected=("expression",)
            )
        while self.group_depth or self.tok.line == self.prev.line:  # as in _binary
            if self.tok.lexeme == "(":
                if not isinstance(expr, n.Var):
                    self._error("only named functions can be called")
                args = self._items(")", "')' to close the call")
                height = self.height + 1
                expr = n.Call(
                    expr.name, args,
                    span=Span(expr.span.start, self.prev.span.end),
                    name_span=expr.span,
                )
            elif self.tok.lexeme == "[":
                self._advance()
                self.group_depth += 1
                index = self._expression()
                self.group_depth -= 1
                close = self._expect("]", "']' to close the index")
                height = max(height, self.height) + 1
                expr = n.Index(expr, index, span=Span(expr.span.start, close.span.end))
            else:
                break
        self.height = height
        return expr

    def _items(self, close: str, what: str) -> tuple[n.Expr, ...]:
        """Comma-separated expressions between the current token and `close`.

        Leaves the tallest item's height (0 for none) in `height`.
        """
        self._advance()
        self.group_depth += 1
        items: list[n.Expr] = []
        tallest = 0
        if self.tok.lexeme != close:
            while True:
                items.append(self._expression())
                tallest = max(tallest, self.height)
                if self.tok.lexeme != ",":
                    break
                self._advance()
        self.group_depth -= 1
        self._expect(close, what)
        self.height = tallest
        return tuple(items)

    def _paren_or_pair(self) -> n.Expr:
        open_tok = self._advance()
        self.group_depth += 1
        first = self._expression()
        if self.tok.lexeme == ",":
            height = self.height
            self._advance()
            second = self._expression()
            self.group_depth -= 1
            close = self._expect(")", "')' to close the pair")
            self.height = max(height, self.height) + 1
            return n.PairLit(
                first, second, span=Span(open_tok.span.start, close.span.end)
            )
        self.group_depth -= 1
        self._expect(")", "')' to close the group")
        return first


def parse(tokens: list[Token]) -> n.Program:
    """Parse a token stream (comments are ignored) into a Program."""
    from .._stack import stack_headroom

    with stack_headroom():
        return _Parser(tokens).parse_program()


def parse_source(src: SourceText | str) -> n.Program:
    """Tokenize and parse in one step."""
    return parse(tokenize(src))
