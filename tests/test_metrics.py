from __future__ import annotations

import math
from dataclasses import replace

from osgames.fixtures import load_corpus_programs
from osgames.metrics import collect, cyclomatic, halstead, osas
from osgames.rng import SplitMix64
from osgames.slang import nodes as n
from osgames.slang import parse_source
from osgames.transforms import mask, obfuscate

ALLC = 'fn strategy() {\n    return "C"\n}\n'
COMPARATOR = (
    "fn strategy() {\n"
    '    if opp_source == my_source {\n'
    '        return "C"\n'
    "    }\n"
    '    return "D"\n'
    "}\n"
)


def test_cyclomatic_allc():
    assert cyclomatic(parse_source(ALLC)) == 1


def test_cyclomatic_tft(tft):
    assert cyclomatic(tft.tree) == 3


def test_cyclomatic_bool_ops_and_loop():
    src = (
        "fn strategy() {\n"
        "    let a = true\n"
        "    let b = true\n"
        "    if a and b {\n        return \"C\"\n    }\n"
        "    while a {\n        return \"D\"\n    }\n"
        "    return \"C\"\n"
        "}\n"
    )
    assert cyclomatic(parse_source(src)) == 4  # if + and + while


def test_cyclomatic_counts_elifs():
    src = (
        "fn strategy() {\n"
        "    if round_index == 0 {\n        return \"C\"\n"
        "    } elif round_index == 1 {\n        return \"D\"\n"
        "    } else {\n        return \"C\"\n    }\n"
        "}\n"
    )
    assert cyclomatic(parse_source(src)) == 3  # if + elif; else is free


def test_halstead_allc_hand_counts():
    # Hand classification: operators {fn, return} x1 each; operands
    # {strategy, "C"} x1 each.  volume = 4*log2(4) = 8, difficulty =
    # (2/2)*(2/2) = 1, effort = 8.
    h = halstead(parse_source(ALLC))
    assert (h.eta1, h.eta2, h.n1, h.n2) == (2, 2, 2, 2)
    assert h.volume == 8.0
    assert h.difficulty == 1.0
    assert h.effort == 8.0


def test_halstead_formulas_hold_on_corpus():
    for name, program in load_corpus_programs("ipd"):
        h = halstead(program.tree)
        assert h.eta2 > 0, name
        assert math.isclose(h.volume, (h.n1 + h.n2) * math.log2(h.eta1 + h.eta2))
        assert math.isclose(h.difficulty, (h.eta1 / 2) * (h.n2 / h.eta2))
        assert math.isclose(h.effort, h.difficulty * h.volume)


def test_effort_monotone_under_statement_duplication():
    # Duplicating a statement grows N at fixed eta, so effort must rise.
    base = (
        "fn strategy() {\n"
        "    let x = 1\n"
        "    return \"C\"\n"
        "}\n"
    )
    duplicated = (
        "fn strategy() {\n"
        "    let x = 1\n"
        "    let x = 1\n"
        "    return \"C\"\n"
        "}\n"
    )
    h1 = halstead(parse_source(base))
    h2 = halstead(parse_source(duplicated))
    assert (h2.eta1, h2.eta2) == (h1.eta1, h1.eta2)
    assert h2.n1 > h1.n1 and h2.n2 > h1.n2
    assert h2.effort > h1.effort


def test_effort_monotone_over_corpus_duplication():
    for name, program in load_corpus_programs("ipd"):
        tree = program.tree
        entry = tree.function("strategy")
        stmt = entry.body[0]
        if isinstance(stmt, (n.Return,)):
            continue  # duplicating a leading return changes nothing after it
        bigger = replace(
            tree,
            defs=tuple(
                replace(d, body=(stmt,) + d.body) if d.name == "strategy" else d
                for d in tree.defs
            ),
        )
        h1, h2 = halstead(tree), halstead(bigger)
        assert h2.effort > h1.effort, name


def test_osas_zero_without_opponent_source(tft):
    assert osas(tft.tree).score == 0.0


def test_osas_soundness_over_corpus():
    for name, program in load_corpus_programs("ipd"):
        if "opp_source" not in program.text:
            assert osas(program.tree).score == 0.0, name


def test_osas_comparator_two_thirds():
    report = osas(parse_source(COMPARATOR))
    assert (report.tainted_sites, report.total_sites) == (2, 3)
    assert math.isclose(report.score, 2 / 3)


def test_osas_one_step_propagation():
    src = (
        "fn strategy() {\n"
        "    let x = len(opp_source)\n"
        "    if x > 3 {\n        return \"D\"\n    }\n"
        "    return \"C\"\n"
        "}\n"
    )
    report = osas(parse_source(src))
    # condition tainted via x; return inside tainted branch tainted;
    # final return clean
    assert (report.tainted_sites, report.total_sites) == (2, 3)


def test_osas_monotone_in_added_tainted_branch():
    base = (
        "fn strategy() {\n"
        "    if round_index == 0 {\n        return \"C\"\n    }\n"
        "    return \"D\"\n"
        "}\n"
    )
    extended = (
        "fn strategy() {\n"
        "    if contains(opp_source, \"D\") {\n        return \"D\"\n    }\n"
        "    if round_index == 0 {\n        return \"C\"\n    }\n"
        "    return \"D\"\n"
        "}\n"
    )
    assert osas(parse_source(extended)).tainted_sites > osas(parse_source(base)).tainted_sites


def test_osas_invariants():
    for name, program in load_corpus_programs("ipd"):
        report = osas(program.tree)
        assert 0 <= report.tainted_sites <= report.total_sites, name
        if report.total_sites:
            assert math.isclose(report.score, report.tainted_sites / report.total_sites)
        else:
            assert report.score == 0.0


def test_metrics_invariant_under_renaming():
    for name, program in load_corpus_programs("ipd"):
        tree = program.tree
        masked, _ = mask(tree)
        obfuscated, _ = obfuscate(tree, SplitMix64(11))
        for variant in (masked, obfuscated):
            assert cyclomatic(variant) == cyclomatic(tree), name
            h0, h1 = halstead(tree), halstead(variant)
            assert (h0.eta1, h0.eta2, h0.n1, h0.n2) == (h1.eta1, h1.eta2, h1.n1, h1.n2), name
            assert osas(variant) == osas(tree), name


def test_flat_report_schema(tft):
    flat = collect(tft.tree).to_flat_dict()
    assert flat["schema"] == "osgames.metrics/1"
    assert flat["cyclomatic"] == 3
    assert set(k for k in flat if k.startswith("halstead_")) == {
        "halstead_eta1", "halstead_eta2", "halstead_n1", "halstead_n2",
        "halstead_volume", "halstead_difficulty", "halstead_effort",
    }
