from __future__ import annotations

import pytest

from osgames.fixtures import load_corpus_sources
from osgames.program import ProgramError, load_program
from osgames.slang import ParseError, Span, parse_source
from osgames.slang import nodes as n
from osgames.slang.parser import MAX_INT_DIGITS, MAX_TREE_DEPTH

TFT = """fn strategy() {
    if len(my_history) == 0 {
        return "C"
    }
    if opp_history[-1] == "D" {
        return "D"
    }
    return "C"
}
"""


def count_nodes(tree, node_type):
    total = 0
    for d in tree.defs:
        for stmt in n.walk_stmts(d.body):
            if isinstance(stmt, node_type):
                total += 1
    return total


def tree_depth(program: n.Program) -> int:
    """Maximum nesting depth over statements and expressions, walked
    iteratively over the finished tree."""
    deepest = 0
    stack: list[tuple[object, int]] = [(d, 1) for d in program.defs]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        depth += 1
        stack.extend((child, depth) for child in n.child_exprs(node))
        for block in n.child_blocks(node):
            stack.extend((s, depth) for s in block)
    return deepest


def test_tft_shape():
    tree = parse_source(TFT)
    assert len(tree.defs) == 1
    assert count_nodes(tree, n.If) == 2
    assert count_nodes(tree, n.Return) == 3


def test_empty_source_missing_strategy():
    with pytest.raises(ParseError) as exc:
        parse_source("")
    assert "missing strategy definition" in exc.value.message


def test_helper_only_missing_strategy():
    with pytest.raises(ParseError) as exc:
        parse_source("fn helper() {\n    return 1\n}\n")
    assert "missing strategy definition" in exc.value.message
    # end-of-input span
    assert exc.value.span.start == exc.value.span.end


def test_return_requires_expression():
    with pytest.raises(ParseError) as exc:
        parse_source("fn strategy() { return }")
    assert "return requires an expression" in exc.value.message


def test_return_expression_must_start_on_same_line():
    src = 'fn strategy() {\n    return\n    "C"\n}\n'
    with pytest.raises(ParseError) as exc:
        parse_source(src)
    assert "return requires an expression" in exc.value.message


def test_duplicate_function_name():
    src = 'fn strategy() { return "C" }\nfn strategy() { return "D" }\n'
    with pytest.raises(ParseError) as exc:
        parse_source(src)
    assert "duplicate" in exc.value.message


def test_first_error_carries_span_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_source("fn strategy( { return 1 }")
    assert exc.value.expected  # non-empty expected set
    assert exc.value.span.start == 13  # the '{'


def test_span_soundness_on_errors():
    bad_sources = [
        "fn strategy() { let = 1 }",
        "fn strategy() { if { } }",
        "fn strategy() { return 1 +  }",
        "fn strategy() { for in xs { } }",
        "fn strategy() (",
    ]
    for src in bad_sources:
        with pytest.raises(ParseError) as exc:
            parse_source(src)
        assert 0 <= exc.value.span.start <= exc.value.span.end <= len(src)


@pytest.mark.parametrize(
    "src, message",
    [
        ("fn strategy() {\n    return 1\n", "unclosed block"),
        ("fn strategy() {\n    return 1 +", "expected expression"),
    ],
    ids=["unclosed-block", "expected-expression"],
)
def test_errors_at_end_of_input(src, message):
    with pytest.raises(ParseError) as exc:
        parse_source(src)
    assert exc.value.message == message
    # located just past the last token
    assert exc.value.span.start == exc.value.span.end == len(src.rstrip("\n"))


def test_precedence():
    tree = parse_source("fn strategy() {\n    return 1 + 2 * 3 == 7\n}\n")
    ret = tree.defs[0].body[0]
    expr = ret.value
    assert isinstance(expr, n.Binary) and expr.op == "=="
    assert isinstance(expr.left, n.Binary) and expr.left.op == "+"
    assert isinstance(expr.left.right, n.Binary) and expr.left.right.op == "*"


def test_bool_ops_and_not():
    tree = parse_source("fn strategy() {\n    return not true and false or true\n}\n")
    expr = tree.defs[0].body[0].value
    # or is the weakest, then and, then not
    assert expr.op == "or"
    assert expr.left.op == "and"
    assert isinstance(expr.left.left, n.Unary) and expr.left.left.op == "not"


def test_statement_boundary_split():
    src = 'fn strategy() {\n    let x = 1\n    (2, 3)\n    return "C"\n}\n'
    tree = parse_source(src)
    body = tree.defs[0].body
    assert isinstance(body[0], n.Let)
    assert isinstance(body[0].value, n.IntLit)
    assert isinstance(body[1], n.ExprStmt)
    assert isinstance(body[1].value, n.PairLit)


def test_multiline_inside_brackets_is_fine():
    src = 'fn strategy() {\n    let xs = [1,\n        2,\n        3]\n    return "C"\n}\n'
    tree = parse_source(src)
    assert isinstance(tree.defs[0].body[0].value, n.ListLit)
    assert len(tree.defs[0].body[0].value.items) == 3


def test_call_requires_named_function():
    with pytest.raises(ParseError) as exc:
        parse_source("fn strategy() { return xs[0](1) }")
    assert "named functions" in exc.value.message


def test_pair_vs_group():
    tree = parse_source('fn strategy() {\n    let p = (1, 2)\n    let g = (1 + 2) * 3\n    return "C"\n}\n')
    body = tree.defs[0].body
    assert isinstance(body[0].value, n.PairLit)
    assert isinstance(body[1].value, n.Binary) and body[1].value.op == "*"


def test_string_escapes():
    tree = parse_source('fn strategy() {\n    return "a\\"b\\\\c\\n\\t"\n}\n')
    assert tree.defs[0].body[0].value.value == 'a"b\\c\n\t'


def test_unsupported_escape():
    with pytest.raises(ParseError):
        parse_source('fn strategy() { return "\\q" }')


def test_structural_equality_ignores_spans():
    a = parse_source('fn strategy() { return "C" }')
    b = parse_source('fn strategy()    {\n        return "C"\n}\n')
    assert a == b


def test_parse_is_deterministic_over_corpus():
    for _, src in load_corpus_sources("ipd"):
        assert parse_source(src) == parse_source(src)


def test_adversarial_nesting_rejected_cleanly():
    # Oversized nesting must yield a diagnostic, never a host stack error.
    hostile = [
        "fn strategy() { return " + "(" * 5000 + "1" + ")" * 5000 + " }",
        "fn strategy() { return " + "+".join(["1"] * 8000) + " }",
        'fn strategy() { ' + "if true { " * 3000 + "}" * 3000 + ' return "C" }',
        "fn strategy() { return " + "not " * 5000 + "true }",
        "fn strategy() { return " + "-" * 5000 + "1 }",
    ]
    for src in hostile:
        with pytest.raises(ParseError) as exc:
            parse_source(src)
        assert "deep" in exc.value.message


@pytest.mark.parametrize("blocks", [0, 7, 60])
@pytest.mark.parametrize(
    "shape",
    [
        lambda k: " + ".join(["x"] * (k + 1)),
        lambda k: "x" + "[0]" * k,
        lambda k: "f(" * k + "x" + ")" * k,
        lambda k: "[" * k + "x" + "]" * k,
        lambda k: "-" * k + "x",
    ],
    ids=["chain", "index", "call", "list", "neg"],
)
def test_tree_depth_cap_matches_tree_depth(shape, blocks):
    # The parser counts depth as it goes; tree_depth walks the finished
    # tree.  The deepest accepted program must sit exactly at the cap.
    def program(k, tail=""):
        body = "if x {\n" * blocks + f"return {shape(k)}\n" + "}\n" * blocks
        return f"fn f(x) {{\n{body}}}\nfn strategy() {{ return 1{tail} }}\n"

    # the function, its ifs and the return take 2 + blocks levels, and the
    # returned expression is k + 1 high
    k = MAX_TREE_DEPTH - 3 - blocks
    assert tree_depth(parse_source(program(k))) == MAX_TREE_DEPTH
    text = program(k + 1)
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert exc.value.message == "program nested too deeply"
    assert exc.value.span == Span(0, len(text.rstrip()))
    with pytest.raises(ParseError) as exc:  # a later syntax error comes first
        parse_source(program(k + 1, tail=" +"))
    assert exc.value.message == "expected expression, found '}'"


def test_reasonable_nesting_accepted():
    src = "fn strategy() { return " + "(" * 50 + '"C"' + ")" * 50 + " }"
    assert parse_source(src).defs[0].body[0].value == n.StrLit("C")


def test_elif_else_chain():
    src = """fn strategy() {
    if round_index == 0 {
        return "C"
    } elif round_index == 1 {
        return "D"
    } else {
        return "C"
    }
}
"""
    tree = parse_source(src)
    stmt = tree.defs[0].body[0]
    assert isinstance(stmt, n.If)
    assert len(stmt.arms) == 2
    assert stmt.orelse is not None


def test_chained_comparison_rejected_at_second_operator():
    with pytest.raises(ProgramError) as exc:
        load_program("fn strategy() {\n return 1 == 2 == 3\n}", game=None)
    assert str(exc.value) == "<memory>:2:16: expected expression, found '=='"


def test_not_binds_between_and_and_comparison():
    src = "fn strategy() {\n    return not 1 < 2 and true\n}\n"
    expr = parse_source(src).defs[0].body[0].value
    assert expr == n.Binary(
        "and",
        n.Unary("not", n.Binary("<", n.IntLit(1), n.IntLit(2))),
        n.BoolLit(True),
    )
    # spans: `not 1 < 2` covers 27..36, the whole `and` 27..45
    assert (expr.span.start, expr.span.end) == (27, 45)
    assert (expr.left.span.start, expr.left.span.end) == (27, 36)
    assert (expr.left.operand.span.start, expr.left.operand.span.end) == (31, 36)


def test_integer_literal_digit_cap():
    longest = "7" * MAX_INT_DIGITS
    src = "fn strategy() {\n    return " + longest + "\n}\n"
    assert parse_source(src).defs[0].body[0].value == n.IntLit(int(longest))
    with pytest.raises(ParseError) as exc:
        parse_source("fn strategy() {\n    return 1" + longest + "\n}\n")
    assert exc.value.message == "integer literal longer than 640 digits"
    assert (exc.value.span.start, exc.value.span.end) == (27, 27 + MAX_INT_DIGITS + 1)


@pytest.mark.parametrize(
    "body",
    ["return ²", "return 1²", "return " + "1" * 5000, "return ½"],
    ids=["superscript", "digit-superscript", "5000-digits", "fraction"],
)
def test_numeral_edge_cases_are_program_errors(body):
    with pytest.raises(ProgramError) as exc:
        load_program("fn strategy() {\n    " + body + "\n}\n")
    assert str(exc.value).startswith("<memory>:2:")
