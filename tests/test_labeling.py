from __future__ import annotations

import pytest

from osgames.labeling import (
    BenchmarkItem,
    TransformViolation,
    benchmark_summary,
    build_benchmark,
    cooperation_rate,
    cooperator_program,
    is_stochastic,
    label_cooperative,
    make_variants,
    write_benchmark,
)
from osgames.program import load_program
from osgames.rng import derive_seed
from osgames.slang.tokens import SourceText


def test_tft_is_cooperative(tft):
    label = label_cooperative(tft)
    assert label.cooperative
    assert label.trace == ("C",) * 10
    assert label.fault is None


def test_suspicious_tft_not_cooperative():
    src = (
        "fn strategy() {\n"
        "    if round_index == 0 {\n        return \"D\"\n    }\n"
        "    if opp_history[-1] == \"D\" {\n        return \"D\"\n    }\n"
        "    return \"C\"\n"
        "}\n"
    )
    label = label_cooperative(load_program(src))
    assert not label.cooperative
    assert label.trace[0] == "D"
    assert all(a == "C" for a in label.trace[1:])


def test_delayed_defector_caught_by_ten_round_horizon():
    src = (
        "fn strategy() {\n"
        "    if round_index < 5 {\n        return \"C\"\n    }\n"
        "    return \"D\"\n"
        "}\n"
    )
    label = label_cooperative(load_program(src))
    assert not label.cooperative
    assert label.trace == ("C",) * 5 + ("D",) * 5  # defects from round 6 on


def test_sanity_anchors(allc, alld):
    assert label_cooperative(allc).cooperative
    assert not label_cooperative(alld).cooperative
    assert label_cooperative(cooperator_program()).cooperative


def test_fault_labels_non_cooperative(crasher):
    label = label_cooperative(crasher)
    assert not label.cooperative
    assert label.fault is not None
    assert label.fault.kind == "division-by-zero"


def test_label_invariant():
    # cooperative <=> full-length all-C trace with no fault
    for src in (
        'fn strategy() { return "C" }',
        'fn strategy() { return "D" }',
        'fn strategy() { if round_index == 9 { return "D" } return "C" }',
    ):
        label = label_cooperative(load_program(src))
        assert label.cooperative == (
            len(label.trace) == label.rounds
            and all(a == "C" for a in label.trace)
            and label.fault is None
        )


def test_label_seed_independent_for_deterministic_programs(ipd_corpus):
    for name, program in ipd_corpus:
        if is_stochastic(program):
            continue
        labels = {label_cooperative(program, seed=s).cooperative for s in range(10)}
        assert len(labels) == 1, name


def test_is_stochastic_flags():
    assert not is_stochastic(load_program('fn strategy() { return "C" }'))
    assert is_stochastic(load_program('fn strategy() { return choice(["C", "D"]) }'))
    # unreachable randomness still counts: the test is syntactic
    src = (
        "fn strategy() {\n"
        "    if false {\n        let x = rand_int(0, 1)\n    }\n"
        "    return \"C\"\n"
        "}\n"
    )
    assert is_stochastic(load_program(src))


def test_cooperation_rate_bounds(ipd_corpus):
    by_name = dict(ipd_corpus)
    assert cooperation_rate(by_name["allc"], trials=5) == 1.0
    assert cooperation_rate(by_name["alld"], trials=5) == 0.0
    rate = cooperation_rate(by_name["random_coinflip"], trials=20)
    assert 0.0 <= rate <= 0.3  # P(all 10 C) = 2^-10 per trial


@pytest.mark.parametrize("trials", [0, -2])
def test_cooperation_rate_needs_a_trial(ipd_corpus, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        cooperation_rate(dict(ipd_corpus)["allc"], trials=trials)


def test_build_benchmark_counts_and_agreement(ipd_sources):
    items = build_benchmark(ipd_sources, seed=1729)
    assert len(items) == len(ipd_sources) * 3
    by_id: dict[str, list[BenchmarkItem]] = {}
    for item in items:
        by_id.setdefault(item.item_id, []).append(item)
    for item_id, variants in by_id.items():
        assert {v.variant for v in variants} == {"unmasked", "masked", "obfuscated"}
        labels = {v.label.cooperative for v in variants}
        assert len(labels) == 1, item_id  # 100% agreement across variants
    summary = benchmark_summary(items)
    assert summary["programs"] == len(ipd_sources)
    assert summary["stochastic"] == 3
    assert summary["items"] == len(items)


def test_build_benchmark_empty_corpus():
    assert build_benchmark([], seed=1) == []


def test_benchmark_abort_on_behavior_violation(monkeypatch):
    # Force a broken "transform" and check that the builder refuses it.
    import osgames.labeling as labeling_mod

    def broken_variants(program, seed):
        return {
            "unmasked": program.source,
            "masked": SourceText('fn strategy() {\n    return "D"\n}\n', "broken"),
            "obfuscated": program.source,
        }

    monkeypatch.setattr(labeling_mod, "make_variants", broken_variants)
    corpus = [("allc", SourceText('fn strategy() {\n    return "C"\n}\n', "allc"))]
    with pytest.raises(TransformViolation):
        build_benchmark(corpus, seed=1)


def test_make_variants_shapes():
    src = SourceText(
        '# says hi\nfn strategy() {\n    return "C"  # always\n}\n', "allc"
    )
    variants = make_variants(load_program(src), seed=9)
    assert variants["unmasked"].text == src.text
    assert "#" not in variants["masked"].text
    assert "#" not in variants["obfuscated"].text


def test_write_benchmark_layout(tmp_path, ipd_sources):
    items = build_benchmark(ipd_sources[:3], seed=1729)
    written = write_benchmark(items, tmp_path)
    assert (tmp_path / "labels.json").exists()
    for variant in ("unmasked", "masked", "obfuscated"):
        files = list((tmp_path / variant).glob("*.slang"))
        assert len(files) == 3
    assert len(written) == 10  # 9 sources + labels.json

    import json

    manifest = json.loads((tmp_path / "labels.json").read_text())
    assert manifest["schema"] == "osgames.labels/1"
    assert len(manifest["items"]) == 9
    for row in manifest["items"]:
        assert set(row) == {"id", "variant", "cooperative", "stochastic", "seed"}


def test_variant_labels_equal_under_same_seed(ipd_sources):
    # variant consistency: all three variants must trace identically
    for item_id, src in ipd_sources[:6]:
        variants = make_variants(load_program(src), derive_seed(1729, "obfuscate", item_id))
        seed = derive_seed(1729, "label", item_id)
        results = {
            name: label_cooperative(load_program(text, game="ipd"), seed=seed)
            for name, text in variants.items()
        }
        assert (
            results["unmasked"].trace
            == results["masked"].trace
            == results["obfuscated"].trace
        ), item_id
