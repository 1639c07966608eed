"""Digests that pin the SLANG front end's output byte for byte.

Each digest is the sha256 of a canonical JSON dump of everything the lexer
and parser produce for a fixed input set: every token's kind, lexeme, span
and line; every tree with every span field (node spans, `name_span`,
`param_spans`, `var_span`); and the class, message and span of every
LexError and ParseError.  Tree equality ignores spans, so these digests are
what catches an offset that moved.  A change to the front end that keeps
them is a change in speed or structure only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from test_frontend_fuzz import CASES, mutate

from osgames._stack import stack_headroom
from osgames.fixtures import load_corpus_sources
from osgames.slang import LexError, ParseError, Span, parse, tokenize

CORPUS_DIRS = ("ipd", "coin", "equilibrium")

TOKENS_SHA256 = "28667c3017cd258798301c5bf9dbf1c5ab49ef4e4a6fcf6c4f0c1d3bc987c7f6"
TREES_SHA256 = "7b82f21ae33871e4567dd0505a86f338c1b3c35644a36a3d76497e9da7896f43"
FUZZ_SHA256 = "757808a9ea0341f836563813f9904d3c6b907ac5fe567496293c7cdc3e3dbf10"


def _corpus() -> list[str]:
    return [src.text for d in CORPUS_DIRS for _, src in load_corpus_sources(d)]


def _token_rows(tokens) -> list:
    return [
        [t.kind.name, t.lexeme, t.span.start, t.span.end, t.line] for t in tokens
    ]


def _tree(node):
    """A node, with every field (spans included), as nested JSON lists."""
    if isinstance(node, Span):
        return [node.start, node.end]
    if isinstance(node, tuple):
        return [_tree(item) for item in node]
    if dataclasses.is_dataclass(node):
        return [type(node).__name__] + [
            _tree(getattr(node, f.name)) for f in dataclasses.fields(node)
        ]
    return node


def _error(exc: LexError | ParseError) -> list:
    return [type(exc).__name__, exc.message, exc.span.start, exc.span.end]


def _front_end(text: str) -> list:
    """Tokens and tree of a text, or the error that stopped it."""
    try:
        tokens = tokenize(text)
    except LexError as exc:
        return [_error(exc)]
    try:
        with stack_headroom():
            tree = _tree(parse(tokens))
    except ParseError as exc:
        tree = _error(exc)
    return [_token_rows(tokens), tree]


def _fuzz_texts() -> list[str]:
    """The seeded mutation set of test_frontend_fuzz, case by case."""
    sources = [
        src.text for subdir in ("ipd", "coin") for _, src in load_corpus_sources(subdir)
    ]
    rng = random.Random(9)
    return [mutate(rng, rng.choice(sources)) for _ in range(CASES)]


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("ascii")).hexdigest()


def test_corpus_token_digest():
    assert _sha256([_token_rows(tokenize(text)) for text in _corpus()]) == TOKENS_SHA256


def test_corpus_tree_digest():
    with stack_headroom():
        trees = [_tree(parse(tokenize(text))) for text in _corpus()]
    assert _sha256(trees) == TREES_SHA256


def test_fuzz_outcome_digest():
    assert _sha256([_front_end(text) for text in _fuzz_texts()]) == FUZZ_SHA256
