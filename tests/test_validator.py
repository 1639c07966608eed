from __future__ import annotations

import dataclasses

import osgames.slang
from osgames.slang import Diagnostic, parse_source, validate


def errors_of(src, game="ipd"):
    report = validate(parse_source(src), game)
    return [d.message for d in report.errors()]


def test_tft_validates_for_ipd(tft):
    assert validate(tft.tree, "ipd").ok


def test_coin_builtin_gated_in_ipd():
    src = "fn strategy() {\n    let p = my_pos()\n    return \"C\"\n}\n"
    msgs = errors_of(src, "ipd")
    assert any("not available in this game" in m for m in msgs)
    assert not errors_of(src, "coin")


def test_undeclared_variable_with_span():
    src = 'fn strategy() {\n    if z == 1 {\n        return "C"\n    }\n    return "D"\n}\n'
    tree = parse_source(src)
    report = validate(tree, "ipd")
    assert not report.ok
    bad = [d for d in report.errors() if "unbound variable 'z'" in d.message]
    assert bad
    assert src[bad[0].span.start : bad[0].span.end] == "z"


def test_ok_iff_no_errors():
    good = validate(parse_source('fn strategy() { return "C" }'), "ipd")
    assert good.ok and not good.errors()
    bad = validate(parse_source("fn strategy() { return z }"), "ipd")
    assert (not bad.ok) and bad.errors()


def test_entry_point_arity():
    msgs = errors_of('fn strategy(x) { return "C" }')
    assert any("no parameters" in m for m in msgs)


def test_unknown_builtin():
    msgs = errors_of('fn strategy() { return foo(1) }')
    assert any("unknown function or builtin 'foo'" in m for m in msgs)


def test_builtin_arity():
    msgs = errors_of('fn strategy() { return len(1, 2) }')
    assert any("takes 1 argument" in m for m in msgs)


def test_user_function_arity():
    src = 'fn helper(a, b) { return a }\nfn strategy() { return helper(1) }\n'
    msgs = errors_of(src)
    assert any("takes 2 argument" in m for m in msgs)


def test_shadowing_rejected():
    assert any("shadows" in m for m in errors_of('fn len() { return 1 }\nfn strategy() { return "C" }'))
    assert any("shadows" in m for m in errors_of('fn strategy() { let len = 1\n    return "C" }'))
    assert any("shadows" in m for m in errors_of('fn strategy() { let opp_source = 1\n    return "C" }'))
    assert any("shadows" in m for m in errors_of(
        'fn helper() { return 1 }\nfn strategy() { let helper = 2\n    return "C" }'
    ))
    assert errors_of(
        'fn helper() { return 1 }\nfn other(helper) { return 1 }\nfn strategy() { return "C" }'
    ) == ["parameter 'helper' shadows a reserved or function name"]


def test_every_diagnostic_is_an_error():
    assert [f.name for f in dataclasses.fields(Diagnostic)] == ["span", "message"]
    assert not hasattr(osgames.slang, "Severity")


def test_ambient_bindings_are_readable_not_writable():
    ok = errors_of('fn strategy() {\n    let n = len(my_history) + round_index\n    return "C"\n}')
    assert not ok
    bad = errors_of('fn strategy() {\n    my_history = []\n    return "C"\n}')
    assert any("read-only" in m for m in bad)


def test_assignment_requires_declaration():
    msgs = errors_of('fn strategy() {\n    x = 1\n    return "C"\n}')
    assert any("undeclared" in m for m in msgs)


def test_duplicate_parameter():
    msgs = errors_of('fn helper(a, a) { return a }\nfn strategy() { return "C" }')
    assert any("duplicate parameter" in m for m in msgs)


def test_corpus_validates(ipd_corpus):
    for name, program in ipd_corpus:
        assert validate(program.tree, "ipd").ok, name


def test_coin_fixtures_validate(lookahead):
    assert validate(lookahead.tree, "coin").ok
    assert not validate(lookahead.tree, "ipd").ok  # uses coin builtins
