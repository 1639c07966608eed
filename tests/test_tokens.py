from __future__ import annotations

import pytest

from osgames.fixtures import load_corpus_sources
from osgames.program import ProgramError, load_program
from osgames.slang import LexError, SourceText, Span, TokenKind, tokenize


def kinds(text):
    return [(t.kind, t.lexeme) for t in tokenize(text)]


def test_two_token_fragment():
    assert kinds('return "C"') == [
        (TokenKind.KEYWORD, "return"),
        (TokenKind.STRING, '"C"'),
    ]


def test_comment_capture():
    toks = tokenize('# note\nreturn "D"')
    assert [t.kind for t in toks] == [
        TokenKind.COMMENT,
        TokenKind.KEYWORD,
        TokenKind.STRING,
    ]
    assert toks[0].lexeme == "# note"


def test_hand_tokenization_of_condition():
    # Hand-derived from the token grammar: keyword, identifier, operator,
    # integer, and the two block delimiters.
    assert kinds("if x == 1 { }") == [
        (TokenKind.KEYWORD, "if"),
        (TokenKind.IDENT, "x"),
        (TokenKind.OP, "=="),
        (TokenKind.INT, "1"),
        (TokenKind.DELIM, "{"),
        (TokenKind.DELIM, "}"),
    ]


def test_spans_reconstruct_source():
    # Lexemes equal the source slice at their span; the gaps between
    # consecutive tokens are whitespace only.  Together: concatenating
    # lexemes with the original whitespace reproduces the source.
    for _, src in load_corpus_sources("ipd"):
        toks = tokenize(src)
        prev_end = 0
        for t in toks:
            assert src.text[t.span.start : t.span.end] == t.lexeme
            assert src.text[prev_end : t.span.start].strip() == ""
            assert t.span.start >= prev_end
            prev_end = t.span.end
        assert src.text[prev_end:].strip() == ""


def test_spans_ordered_and_disjoint():
    toks = tokenize("let x = 12 + foo(y)")
    for a, b in zip(toks, toks[1:]):
        assert a.span.end <= b.span.start


def test_comment_is_raw_to_end_of_line():
    toks = tokenize('# has "quotes" and { stuff\nreturn "C"')
    assert toks[0].kind is TokenKind.COMMENT
    assert toks[0].lexeme == '# has "quotes" and { stuff'


def test_unterminated_string():
    with pytest.raises(LexError) as exc:
        tokenize('return "oops')
    assert "unterminated" in str(exc.value)
    assert exc.value.span.start == 7


def test_string_stops_at_newline():
    with pytest.raises(LexError):
        tokenize('let x = "a\nb"')


def test_illegal_character():
    with pytest.raises(LexError) as exc:
        tokenize("let x = 1 @ 2")
    assert exc.value.span.start == 10


def test_lone_surrogate_is_a_located_lex_error():
    # such text cannot be encoded as UTF-8, so it is not Unicode source text
    text = 'fn strategy(a,b,c,d,e) { return "C" } # \ud800'
    with pytest.raises(LexError) as exc:
        tokenize(text)
    assert exc.value.message == "lone surrogate '\\ud800'"
    assert exc.value.span == Span(40, 41)
    with pytest.raises(ProgramError, match=r"^<memory>:1:41: lone surrogate"):
        load_program(text)


def test_source_cap():
    big = "# " + "x" * 100 + "\n"
    with pytest.raises(LexError):
        tokenize(SourceText(big), max_bytes=50)


def test_keywords_vs_identifiers():
    toks = tokenize("iffy fort lettuce fn")
    assert [t.kind for t in toks] == [
        TokenKind.IDENT,
        TokenKind.IDENT,
        TokenKind.IDENT,
        TokenKind.KEYWORD,
    ]


def test_tokenize_is_deterministic():
    text = 'fn strategy() { return "C" } # tail'
    assert kinds(text) == kinds(text)


def test_numerals_by_unicode_category():
    # INT is decimal digits of any script; other numerals such as `²` or
    # `½` are word characters and so may only appear inside identifiers.
    assert kinds("٣ 1² ½x") == [
        (TokenKind.INT, "٣"),
        (TokenKind.INT, "1"),
        (TokenKind.IDENT, "²"),
        (TokenKind.IDENT, "½x"),
    ]


def test_escaped_newline_stays_in_the_string_token():
    # A backslash escapes any one character in the lexer, a newline too;
    # the parser rejects the escape.  Lines count only unescaped newlines.
    toks = tokenize('"a\\\nb" x\ny')
    assert [(t.kind, t.lexeme, t.line) for t in toks] == [
        (TokenKind.STRING, '"a\\\nb"', 1),
        (TokenKind.IDENT, "x", 1),
        (TokenKind.IDENT, "y", 2),
    ]


def test_unterminated_string_spans_to_newline_or_end():
    for text, end in [('x = "ab\ncd"', 7), ('x = "ab\\', 8), ('x = "a\\"', 8)]:
        with pytest.raises(LexError) as exc:
            tokenize(text)
        assert exc.value.message == "unterminated string"
        assert (exc.value.span.start, exc.value.span.end) == (4, end)


def test_operators_munch_two_characters_first():
    assert kinds("a<=b==c!=d>=e<f=g") == [
        (TokenKind.IDENT, "a"), (TokenKind.OP, "<="), (TokenKind.IDENT, "b"),
        (TokenKind.OP, "=="), (TokenKind.IDENT, "c"), (TokenKind.OP, "!="),
        (TokenKind.IDENT, "d"), (TokenKind.OP, ">="), (TokenKind.IDENT, "e"),
        (TokenKind.OP, "<"), (TokenKind.IDENT, "f"), (TokenKind.OP, "="),
        (TokenKind.IDENT, "g"),
    ]
    with pytest.raises(LexError) as exc:
        tokenize("a ! b")
    assert exc.value.message == "illegal character '!'"
    assert (exc.value.span.start, exc.value.span.end) == (2, 3)
