from __future__ import annotations

import hashlib
import json
import re

from osgames.fixtures import load_corpus_programs, load_corpus_sources
from osgames.metrics import collect
from osgames.program import load_program
from osgames.rng import SplitMix64, derive_seed
from osgames.slang import TokenKind, parse_source, render, tokenize, validate
from osgames.slang.tokens import MAX_SOURCE_BYTES
from osgames.transforms import GLOBAL_SCOPE, mask, obfuscate, strip_comments

COMMENTED = """# leading comment
fn strategy() {
    # inner comment
    let x = 1  # trailing comment
    if x == 1 {
        return "C"
    }
    return "D"
}
"""


def non_comment_stream(text):
    return [(t.kind, t.lexeme) for t in tokenize(text) if t.kind is not TokenKind.COMMENT]


def test_strip_removes_all_comments_same_tree():
    stripped = strip_comments(COMMENTED)
    toks = tokenize(stripped.text)
    assert all(t.kind is not TokenKind.COMMENT for t in toks)
    assert non_comment_stream(stripped.text) == non_comment_stream(COMMENTED)
    assert parse_source(stripped.text) == parse_source(COMMENTED)


def test_strip_handles_quotes_in_comments():
    src = '# comment with "quote and { brace\nfn strategy() {\n    return "C"\n}\n'
    stripped = strip_comments(src)
    assert '"quote' not in stripped.text
    assert parse_source(stripped.text) == parse_source(src)


def test_strip_idempotent():
    once = strip_comments(COMMENTED)
    twice = strip_comments(once)
    assert once.text == twice.text


def test_strip_over_corpus():
    for name, src in load_corpus_sources("ipd"):
        stripped = strip_comments(src)
        assert non_comment_stream(stripped.text) == non_comment_stream(src.text), name


def _cut_each_comment_out(text):
    """strip_comments' former formula: rebuild the text once per comment."""
    for tok in reversed([t for t in tokenize(text) if t.kind is TokenKind.COMMENT]):
        text = text[: tok.span.start] + text[tok.span.end :]
    return text


def test_strip_output_unchanged():
    for subdir in ("ipd", "coin", "equilibrium"):
        for name, src in load_corpus_sources(subdir):
            assert strip_comments(src).text == _cut_each_comment_out(src.text), name
    # 64 KiB of comment lines, which the former formula copied 32,000 times
    code = "fn strategy() { return 1 }\n"
    big = code + "#\n" * 32_000
    assert len(big.encode()) <= MAX_SOURCE_BYTES
    assert strip_comments(big).text == code + "\n" * 32_000


def test_mask_renames_helpers_only():
    src = """fn greedy_move(xs) {
    return xs[0]
}

fn strategy() {
    let my_var = greedy_move(["C"])
    return my_var
}
"""
    tree = parse_source(src)
    masked, rename_map = mask(tree)
    out = render(masked).text
    assert "greedy_move" not in out
    assert "fn_1" in out
    assert "my_var" in out  # variables untouched
    assert masked.function("strategy") is not None
    assert rename_map.entries == ((GLOBAL_SCOPE, "greedy_move", "fn_1"),)
    assert rename_map.is_injective()


def test_mask_numbering_in_definition_order():
    src = (
        "fn zeta() {\n    return 1\n}\n"
        "fn alpha() {\n    return 2\n}\n"
        "fn strategy() {\n    if zeta() > alpha() {\n        return \"C\"\n    }\n    return \"D\"\n}\n"
    )
    _, rename_map = mask(parse_source(src))
    assert rename_map.scope(GLOBAL_SCOPE) == {"zeta": "fn_1", "alpha": "fn_2"}


def test_obfuscate_renames_everything_user_defined():
    src = """fn helper(count_arg) {
    let doubled = count_arg * 2
    return doubled
}

fn strategy() {
    let threshold = helper(2)
    for item in my_history {
        if item == "D" {
            threshold = threshold + 1
        }
    }
    if threshold > 4 {
        return "D"
    }
    return "C"
}
"""
    tree = parse_source(src)
    renamed, rename_map = obfuscate(tree, SplitMix64(1))
    out = render(renamed).text
    for ident in ("helper", "count_arg", "doubled", "threshold", "item"):
        assert not re.search(rf"\b{ident}\b", out), ident
    # entry point, ambient bindings and builtins survive
    assert "fn strategy()" in out
    assert "my_history" in out
    assert rename_map.is_injective()
    for _, _, new in rename_map.entries:
        assert 12 <= len(new) <= 20
        assert set(new) <= {"I", "l"}
    assert validate(renamed, "ipd").ok
    # structure is isomorphic: same node shapes module renames
    assert parse_source(out).defs[1].body == renamed.function("strategy").body


def test_obfuscate_scope_consistency():
    src = """fn first(x) {
    return x + 1
}

fn second(x) {
    return x + 2
}

fn strategy() {
    if first(1) + second(2) == 6 {
        return "C"
    }
    return "D"
}
"""
    renamed, rename_map = obfuscate(parse_source(src), SplitMix64(3))
    # the two x parameters live in different scopes and get distinct names
    first_name = rename_map.scope(GLOBAL_SCOPE)["first"]
    second_name = rename_map.scope(GLOBAL_SCOPE)["second"]
    x_in_first = rename_map.scope("first")["x"]
    x_in_second = rename_map.scope("second")["x"]
    assert x_in_first != x_in_second
    assert first_name != second_name
    out = render(renamed).text
    assert validate(parse_source(out), "ipd").ok


def test_obfuscate_renames_the_parameters_of_a_tree_built_without_spans():
    from dataclasses import replace

    tree = parse_source(
        "fn f(a, b) {\n    return a + b\n}\n\nfn strategy() {\n    return f(1, 2)\n}\n"
    )
    bare = replace(tree, defs=tuple(replace(d, param_spans=()) for d in tree.defs))
    renamed, rename_map = obfuscate(bare, SplitMix64(3))
    assert render(renamed).text == render(obfuscate(tree, SplitMix64(3))[0]).text
    assert sorted(rename_map.scope("f")) == ["a", "b"]


def test_obfuscate_deterministic_per_seed():
    tree = parse_source(COMMENTED)
    a, _ = obfuscate(tree, SplitMix64(5))
    b, _ = obfuscate(tree, SplitMix64(5))
    c, _ = obfuscate(tree, SplitMix64(6))
    assert render(a).text == render(b).text
    assert render(a).text != render(c).text


def test_behavior_preservation_spot_check(tft, alld):
    from osgames.arena import MatchConfig, play_match

    for name, src in load_corpus_sources("ipd")[:5]:
        tree = parse_source(strip_comments(src))
        masked, _ = mask(tree)
        obfd, _ = obfuscate(tree, SplitMix64(17))
        cfg = MatchConfig(seed=5)
        base = play_match(load_program(src, game="ipd"), alld, cfg).actions
        for variant in (masked, obfd):
            prog = load_program(render(variant).text, game="ipd")
            assert play_match(prog, alld, cfg).actions == base, name


def test_rename_map_injectivity_detector():
    from osgames.transforms import RenameMap

    assert RenameMap((("s", "a", "x"), ("s", "b", "y"))).is_injective()
    assert not RenameMap((("s", "a", "x"), ("s", "b", "x"))).is_injective()
    assert RenameMap((("s1", "a", "x"), ("s2", "b", "x"))).is_injective()


def _pinned_digests(subdir):
    """sha256 of the masked and obfuscated renders with their RenameMaps, and
    of the metrics, over one corpus directory (obfuscation seeded per program)."""
    variants, metrics = hashlib.sha256(), hashlib.sha256()
    for name, program in load_corpus_programs(subdir):
        masked, mask_map = mask(program.tree)
        obfuscated, obf_map = obfuscate(program.tree, SplitMix64(derive_seed("pin", subdir, name)))
        for tree, renames in ((masked, mask_map), (obfuscated, obf_map)):
            variants.update(render(tree).text.encode())
            variants.update(json.dumps(renames.entries).encode())
        flat = collect(program.tree).to_flat_dict()
        metrics.update(json.dumps([name, flat], sort_keys=True).encode())
    return variants.hexdigest()[:16], metrics.hexdigest()[:16]


def test_transform_and_metric_outputs_pinned():
    # Exact bytes, not just properties: any change to the renamer, the
    # renderer or a metric walk moves one of these digests.
    assert {subdir: _pinned_digests(subdir) for subdir in ("ipd", "coin", "equilibrium")} == {
        "ipd": ("ec3f0a30672e6a56", "9e7051d1d5f2646e"),
        "coin": ("5b0c7455023dfa65", "e632e714360cc2d4"),
        "equilibrium": ("a131c63368d8839b", "d446f75760a2c5c0"),
    }
