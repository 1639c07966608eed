"""SLANG front end: lexer, parser, validator and pretty-printer."""

from . import nodes
from .parser import ParseError, parse, parse_source
from .render import render
from .tokens import LexError, SourceText, Span, Token, TokenKind, tokenize
from .validator import (
    AMBIENT_BINDINGS,
    BUILTINS,
    GAME_COIN,
    GAME_IPD,
    GAMES,
    Diagnostic,
    ValidationReport,
    validate,
)

__all__ = [
    "AMBIENT_BINDINGS",
    "BUILTINS",
    "Diagnostic",
    "GAME_COIN",
    "GAME_IPD",
    "GAMES",
    "LexError",
    "ParseError",
    "SourceText",
    "Span",
    "Token",
    "TokenKind",
    "ValidationReport",
    "nodes",
    "parse",
    "parse_source",
    "render",
    "tokenize",
    "validate",
]
