"""Lexer for SLANG, the strategy language player programs are written in.

Tokens carry exact spans into the original text: the lexeme of every token
equals the source slice at its span, spans are ordered and non-overlapping,
and the gaps between consecutive tokens contain only whitespace.  Comments
(`#` to end of line) are emitted as tokens so source transforms can remove
them without disturbing anything else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

#: Hard cap on accepted program size (bytes of UTF-8).
MAX_SOURCE_BYTES = 64 * 1024

KEYWORDS = frozenset(
    {
        "fn", "let", "if", "elif", "else", "while", "for", "in",
        "return", "and", "or", "not", "true", "false",
    }
)

class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    INT = "integer-literal"
    STRING = "string-literal"
    OP = "operator"
    DELIM = "delimiter"
    COMMENT = "comment"


# Spans and tokens are named tuples: cheap to build, and each equals the
# plain tuple of its fields.
class Span(NamedTuple):
    start: int
    end: int

    def slice(self, text: str) -> str:
        return text[self.start : self.end]


@dataclass(frozen=True)
class SourceText:
    text: str
    origin: str = "<memory>"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    span: Span
    line: int  # 1-based line number of the token's first character


class LexError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset; handy for diagnostics."""
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl


#: One alternative per token shape, tried in this order at each position.
#: Named groups that are TokenKind names become tokens; the rest are skipped
#: or reported.  IDENT is a word character that is not a decimal digit, then
#: word characters; INT is decimal digits; a string holds any character but
#: a quote, backslash or newline, or a backslash and any one character (the
#: parser decides which escapes are legal); an unterminated string runs to
#: the newline or the end of the text, a final lone backslash included;
#: two-character operators come before their one-character prefixes.  The
#: blanks before a token are skipped within its match, so a token is its
#: group, not the whole match; BLANK matches only blanks that end the text.
_TOKEN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<NEWLINE>\n)
    | (?P<BLANK>[ \t\r]+)
    | (?P<COMMENT>\#[^\n]*)
    | (?P<IDENT>[^\W\d]\w*)
    | (?P<INT>\d+)
    | (?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<UNTERMINATED>"(?:[^"\\\n]|\\[\s\S])*\\?)
    | (?P<OP>[=!<>]=|[-+*/%<>=])
    | (?P<DELIM>[(){}\[\],])
    | (?P<ILLEGAL>[\s\S])
    )
    """,
    re.VERBOSE,
)
_NEWLINE = _TOKEN.groupindex["NEWLINE"]
#: TokenKind of each group, by group number; None where no token is made.
_KINDS = [None] + [
    TokenKind.__members__.get(name)
    for name in sorted(_TOKEN.groupindex, key=_TOKEN.groupindex.get)
]
#: Builds a Span or Token from a tuple of its fields, skipping `__new__`.
_new = tuple.__new__


def tokenize(src: SourceText | str, max_bytes: int = MAX_SOURCE_BYTES) -> list[Token]:
    """Tokenize SLANG source, raising LexError on the first problem."""
    text = src.text if isinstance(src, SourceText) else src
    try:
        size = len(text.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate is not Unicode text
        raise LexError(
            f"lone surrogate {text[exc.start]!r}", Span(exc.start, exc.start + 1)
        ) from None
    if size > max_bytes:
        raise LexError(
            f"source exceeds the {max_bytes} byte cap", Span(0, len(text))
        )

    tokens: list[Token] = []
    line = 1
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        kind = _KINDS[group]
        if kind is None:
            if group == _NEWLINE:
                line += 1
            elif m.lastgroup != "BLANK":
                span = Span(*m.span(group))
                if m.lastgroup == "UNTERMINATED":
                    raise LexError("unterminated string", span)
                raise LexError(f"illegal character {m.group(group)!r}", span)
            continue
        lexeme = m.group(group)
        if kind is TokenKind.IDENT and lexeme in KEYWORDS:
            kind = TokenKind.KEYWORD
        tokens.append(_new(Token, (kind, lexeme, _new(Span, m.span(group)), line)))
    return tokens
