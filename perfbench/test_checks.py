"""Each output check accepts a real output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import agent  # noqa: E402
import checks  # noqa: E402
import programs as gen  # noqa: E402
import workloads  # noqa: E402
from osgames import evolution, labeling, metagame, runio  # noqa: E402
from osgames.arena import MatchConfig  # noqa: E402
from osgames.fixtures import load_corpus_programs  # noqa: E402
from osgames.program import ProgramError  # noqa: E402
from osgames.slang import LexError, ParseError, SourceText  # noqa: E402

# --------------------------------------------------------------------------
# evolve_ipd


@pytest.fixture(scope="module")
def evolve_output():
    corpus = dict(load_corpus_programs("ipd"))
    tags = ["tft", "alld", "similarity_tester", "faulty_bot", "random_coinflip"]
    entries = [(t, corpus[t]) for t in tags]
    matrix = evolution.estimate_payoff_matrix(entries, MatchConfig(rounds=100, seed=3))
    final = evolution.integrate(matrix, np.full(len(tags), 1 / len(tags))).final
    expected = checks.reference_cells(tags, [corpus[t].text for t in tags], 100)
    return matrix.a.tolist(), expected, final


def test_evolve_accepts_real_output(evolve_output):
    assert checks.check_evolve(*evolve_output) == []


def test_evolve_rejects_wrong_cell(evolve_output):
    means, expected, final = copy.deepcopy(evolve_output)
    means[2][3] += 1
    assert [item for item, _ in checks.check_evolve(means, expected, final)] == [2 * 5 + 3]


def test_evolve_rejects_population_off_simplex(evolve_output):
    means, expected, final = evolve_output
    failures = checks.check_evolve(means, expected, final * 1.001)
    assert failures and failures[0][0] is None and "simplex" in failures[0][1]


# --------------------------------------------------------------------------
# label_variants


@pytest.fixture(scope="module")
def label_output(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("labels")
    programs = gen.generate(seed=5, batch=0, count=len(gen.BASE_KINDS))
    corpus = [(p.item_id, SourceText(p.text, p.item_id)) for p in programs]
    items = labeling.build_benchmark(corpus, seed=5, rounds=gen.LABEL_ROUNDS)
    labeling.write_benchmark(items, outdir)
    labels = json.loads((outdir / "labels.json").read_text(encoding="utf-8"))
    return programs, items, labels


def _check_label(programs, items, labels):
    return checks.check_label(
        programs, items, labels, workloads.reload_variant, (ProgramError, LexError, ParseError)
    )


def _with_text(item, text):
    return dataclasses.replace(item, source=SourceText(text, item.source.origin))


def test_generator_texts_are_distinct_and_mixed():
    batch = gen.generate(seed=5, batch=0, count=400) + gen.generate(seed=5, batch=1, count=400)
    assert len({p.text for p in batch}) == len(batch)
    assert 0 < sum(p.cooperative for p in batch) < len(batch)
    assert 0 < sum(p.stochastic for p in batch) < len(batch)


def test_label_accepts_real_output(label_output):
    assert _check_label(*label_output) == []


def test_label_rejects_wrong_label(label_output):
    programs, items, labels = label_output
    flipped = dataclasses.replace(
        items[0].label, cooperative=not items[0].label.cooperative
    )
    bad = [dataclasses.replace(items[0], label=flipped)] + items[1:]
    assert [item for item, _ in _check_label(programs, bad, labels)] == [0]


def test_label_rejects_variant_that_does_not_load(label_output):
    programs, items, labels = label_output
    k = next(i for i, item in enumerate(items) if item.variant == "masked")
    bad = list(items)
    bad[k] = _with_text(items[k], items[k].source.text.rstrip().rstrip("}"))
    failures = _check_label(programs, bad, labels)
    assert failures and "does not load" in failures[0][1]


def test_label_rejects_variant_that_does_not_round_trip(label_output):
    programs, items, labels = label_output
    k = next(i for i, item in enumerate(items) if item.variant == "obfuscated")
    bad = list(items)
    bad[k] = _with_text(items[k], "# note\n" + items[k].source.text)
    failures = _check_label(programs, bad, labels)
    assert failures and "render(parse(v)) != v" in failures[0][1]


def test_label_rejects_obfuscation_that_keeps_an_identifier(label_output):
    programs, items, labels = label_output
    k = next(i for i, item in enumerate(items) if item.variant == "obfuscated")
    original = next(
        p for p in programs if p.item_id == items[k].item_id
    ).text
    bad = list(items)
    bad[k] = _with_text(items[k], workloads.reload_variant(original))
    failures = _check_label(programs, bad, labels)
    assert failures and "keeps" in failures[0][1]


def test_label_rejects_wrong_manifest(label_output):
    programs, items, labels = label_output
    bad = copy.deepcopy(labels)
    bad["summary"]["cooperative"] += 1
    failures = _check_label(programs, items, bad)
    assert failures and failures[0][0] is None


# --------------------------------------------------------------------------
# meta_coin_external

META_ROUNDS = 12


@pytest.fixture(scope="module")
def meta_output(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("meta")
    wl = workloads.MetaCoinExternal(seed=9, workdir=outdir, loaded=[])
    seed = 9
    providers = [wl._provider(p, seed, outdir) for p in ("a", "b")]
    record = metagame.run_meta_game(
        *providers, META_ROUNDS, MatchConfig(game="coin", rounds=10, seed=seed)
    ).to_json_dict()
    planned = [
        [agent.proposal(seed, p, k, wl.bases) for k in range(1, META_ROUNDS + 1)]
        for p in ("a", "b")
    ]
    return record, planned


def _check_meta(record, planned):
    return checks.check_meta(record, planned, runio.canonical_json_bytes(record))


def test_agent_plan_is_fresh_with_one_invalid_round_in_ten():
    bases = agent.load_bases(workloads.CORPUS / "coin")
    plan = [agent.proposal(4, "a", k, bases) for k in range(1, 101)]
    assert len({text for text, _ in plan}) == 100
    assert plan[0][1] and sum(not valid for _, valid in plan) == 10


def test_meta_accepts_real_output(meta_output):
    record, planned = meta_output
    assert any(r["provider_faults"] for r in record["rounds"])
    assert _check_meta(record, planned) == []


def _first_step_with_event(record):
    for k, meta in enumerate(record["rounds"]):
        for turn in meta["match"]["turns"]:
            if turn["events"]:
                return k, turn
    raise AssertionError("no coin was collected")


def test_meta_rejects_wrong_delta(meta_output):
    record = copy.deepcopy(meta_output[0])
    k, turn = _first_step_with_event(record)
    turn["deltas"][0] += 1
    assert {item for item, _ in _check_meta(record, meta_output[1])} == {k}


def test_meta_rejects_wrong_event_cell(meta_output):
    record = copy.deepcopy(meta_output[0])
    k, turn = _first_step_with_event(record)
    cell = turn["events"][0]["cell"]
    cell[0] = (cell[0] + 1) % record["config"]["board_size"]
    assert {item for item, _ in _check_meta(record, meta_output[1])} == {k}


def test_meta_rejects_missing_provider_fault(meta_output):
    record = copy.deepcopy(meta_output[0])
    k = next(i for i, r in enumerate(record["rounds"]) if r["provider_faults"])
    record["rounds"][k]["provider_faults"] = []
    assert k in {item for item, _ in _check_meta(record, meta_output[1])}


def test_meta_rejects_invalid_source_not_reused(meta_output):
    record, planned = copy.deepcopy(meta_output[0]), meta_output[1]
    k, me = next(
        (k, me) for k in range(META_ROUNDS) for me in (0, 1) if not planned[me][k][1]
    )
    record["rounds"][k]["sources"][me] = planned[me][k][0]
    assert k in {item for item, _ in _check_meta(record, planned)}


def test_meta_rejects_wrong_opponent_previous(meta_output):
    record = copy.deepcopy(meta_output[0])
    record["rounds"][3]["opponent_previous"][0] = "fn strategy() {\n}\n"
    assert 3 in {item for item, _ in _check_meta(record, meta_output[1])}


def test_meta_rejects_record_that_does_not_round_trip(meta_output):
    record, planned = meta_output
    altered = copy.deepcopy(record)
    altered["totals"][0] += 1
    failures = checks.check_meta(record, planned, runio.canonical_json_bytes(altered))
    assert failures and failures[0][0] is None
