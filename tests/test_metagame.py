from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from osgames.arena import MatchConfig, MatchRecord
from osgames.metagame import (
    JUDGE_FEATURES,
    MetaGameError,
    check_judge_labels,
    merge_judge_labels,
    run_meta_game,
)
from osgames.providers import (
    MAX_REPLY_CHARS,
    ExternalProvider,
    ProviderError,
    ScriptedProvider,
    StaticProvider,
)
from osgames.runio import canonical_json_bytes

AGENTS = Path(__file__).parent / "agents"

ALLC = 'fn strategy() {\n    return "C"\n}\n'
ALLD = 'fn strategy() {\n    return "D"\n}\n'
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


def test_two_static_tft_providers():
    record = run_meta_game(
        StaticProvider("a", source=TFT),
        StaticProvider("b", source=TFT),
        meta_rounds=10,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    assert len(record.rounds) == 10
    for r in record.rounds:
        assert r.match.totals == (30, 30)
    assert record.totals() == (300, 300)
    # all ten matches identical
    first = record.rounds[0].match.actions
    assert all(r.match.actions == first for r in record.rounds)


def test_scripted_switch_shifts_totals():
    # AllC until meta-round 4, AllD from meta-round 5, against static TFT:
    # rounds 1-4 give (30, 30); from round 5 the defector earns 14 vs 9.
    record = run_meta_game(
        ScriptedProvider("a", schedule=[(1, ALLC), (5, ALLD)]),
        StaticProvider("b", source=TFT),
        meta_rounds=10,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    per_round = [r.match.totals for r in record.rounds]
    assert per_round[:4] == [(30, 30)] * 4
    assert per_round[4:] == [(14, 9)] * 6


def test_providers_see_previous_round_source_only():
    record = run_meta_game(
        ScriptedProvider("a", schedule=[(1, ALLC), (2, ALLD)]),
        StaticProvider("b", source=TFT),
        meta_rounds=3,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    # meta-round 1: nobody saw anything
    assert record.rounds[0].opponent_previous == (None, None)
    # meta-round 2: each side saw the round-1 submission of the other
    assert record.rounds[1].opponent_previous == (TFT, ALLC)
    assert record.rounds[2].opponent_previous == (TFT, ALLD)


def test_meta_history_monotonicity():
    seen = []

    class Spy(StaticProvider):
        def propose(self, ctx):
            seen.append((ctx.meta_round, len(ctx.history)))
            return super().propose(ctx)

    run_meta_game(
        Spy("a", source=ALLC),
        StaticProvider("b", source=ALLC),
        meta_rounds=4,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    assert seen == [(1, 0), (2, 1), (3, 2), (4, 3)]


def test_history_entries_are_built_once_per_round(monkeypatch):
    calls = []
    player_actions = MatchRecord.player_actions

    def counted(self, player):
        calls.append(player)
        return player_actions(self, player)

    monkeypatch.setattr(MatchRecord, "player_actions", counted)
    run_meta_game(
        StaticProvider("a", source=TFT),
        StaticProvider("b", source=ALLD),
        meta_rounds=30,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    # two entries a round, each reading both players' actions
    assert len(calls) == 4 * 30


def test_each_proposal_keeps_its_own_history_snapshot():
    contexts = []

    class Spy(StaticProvider):
        def propose(self, ctx):
            contexts.append(ctx)
            return super().propose(ctx)

    run_meta_game(
        Spy("a", source=ALLC),
        StaticProvider("b", source=TFT),
        meta_rounds=6,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    assert [len(ctx.history) for ctx in contexts] == [0, 1, 2, 3, 4, 5]
    # each history extends the previous one with the very same entries
    for before, after in zip(contexts, contexts[1:]):
        assert all(x is y for x, y in zip(before.history, after.history))


def _entry(r, me):
    """A history entry as docs/records.md defines it."""
    opp = 1 - me
    return {
        "meta_round": r.meta_round,
        "my_source": r.sources[me],
        "opponent_source": r.sources[opp],
        "my_total": r.match.totals[me],
        "opponent_total": r.match.totals[opp],
        "my_actions": [turn[me] for turn in r.match.actions],
        "opponent_actions": [turn[opp] for turn in r.match.actions],
    }


def test_propose_lines_are_json_dumps_of_the_message(tmp_path):
    logs = (tmp_path / "a.ndjson", tmp_path / "b.ndjson")
    providers = [
        ExternalProvider(
            pid,
            command=[sys.executable, str(AGENTS / "recording_agent.py"), str(log), action],
            timeout=20,
        )
        for pid, log, action in zip("ab", logs, "CD")
    ]
    record = run_meta_game(*providers, meta_rounds=7, cfg=MatchConfig(rounds=6, seed=3))
    assert len(record.rounds[2].provider_faults) == 2  # both agents fail in round 3
    assert "☕" in record.rounds[0].sources[0]
    for me, log in enumerate(logs):
        lines = log.read_text(encoding="utf-8").split("\n")
        assert lines[0] == json.dumps({"game": "ipd", "protocol": 1, "type": "hello"})
        proposes = lines[1:-2]
        assert lines[-2:] == ['{"type": "shutdown"}', ""]
        assert len(proposes) == 7
        for k, line in enumerate(proposes, start=1):
            message = {
                "type": "propose",
                "meta_round": k,
                "history": [_entry(r, me) for r in record.rounds[: k - 1]],
                "opponent_previous_source": record.rounds[k - 1].opponent_previous[me],
            }
            assert line == json.dumps(message, sort_keys=True)
        assert proposes[0].endswith('"opponent_previous_source": null, "type": "propose"}')
        assert "\\u2615" in proposes[-1]


def test_invalid_source_reuses_previous():
    class Flaky(StaticProvider):
        def propose(self, ctx):
            if ctx.meta_round == 2:
                return "fn nope("  # parse error
            return super().propose(ctx)

    record = run_meta_game(
        Flaky("a", source=ALLC),
        StaticProvider("b", source=ALLC),
        meta_rounds=3,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    assert record.rounds[1].provider_faults  # fault recorded
    assert record.rounds[1].sources[0] == ALLC  # previous source reused
    assert record.rounds[1].match.totals == (30, 30)
    assert record.rounds[1].match.origins[0] == "a@r2"


def test_round_one_failure_aborts():
    class Broken(StaticProvider):
        def propose(self, ctx):
            return "fn nope("

    with pytest.raises(MetaGameError):
        run_meta_game(
            Broken("a", source=ALLC),
            StaticProvider("b", source=ALLC),
            meta_rounds=2,
            cfg=MatchConfig(rounds=10, seed=0),
        )


def test_meta_rounds_must_be_positive():
    started = []

    class Recording(StaticProvider):
        def start(self, game):
            started.append(self.provider_id)

    with pytest.raises(MetaGameError, match="meta_rounds must be at least 1"):
        run_meta_game(Recording("a", source=ALLC), Recording("b", source=ALLC), meta_rounds=0)
    assert started == []


def test_overlong_reply_is_a_recorded_provider_fault():
    record = run_meta_game(
        ExternalProvider(
            "a", command=[sys.executable, str(AGENTS / "flood_agent.py")], timeout=20
        ),
        StaticProvider("b", source=TFT),
        meta_rounds=2,
        cfg=MatchConfig(rounds=10, seed=4),
    )
    assert record.rounds[0].provider_faults == ()
    assert record.rounds[1].provider_faults == (
        f"a: agent reply line exceeds {MAX_REPLY_CHARS} characters; reusing previous source",
    )
    assert record.rounds[1].sources[0] == ALLC


def test_provider_whose_start_fails_is_closed():
    rude = ExternalProvider(
        "a", command=[sys.executable, str(AGENTS / "rude_agent.py")], timeout=20
    )
    with pytest.raises(ProviderError):
        run_meta_game(rude, StaticProvider("b", source=TFT), 1, MatchConfig(rounds=10))
    assert rude._process is None  # shut down, not left running


def test_started_provider_is_closed_when_the_other_start_fails():
    first = ExternalProvider(
        "a", command=[sys.executable, str(AGENTS / "allc_agent.py")], timeout=20
    )
    rude = ExternalProvider(
        "b", command=[sys.executable, str(AGENTS / "rude_agent.py")], timeout=20
    )
    with pytest.raises(ProviderError):
        run_meta_game(first, rude, 1, MatchConfig(rounds=10))
    assert first._process is None and rude._process is None


def test_external_loopback_equals_static():
    cfg = MatchConfig(rounds=10, seed=4)
    external = run_meta_game(
        ExternalProvider(
            "a", command=[sys.executable, str(AGENTS / "allc_agent.py")], timeout=20
        ),
        StaticProvider("b", source=TFT),
        meta_rounds=3,
        cfg=cfg,
    )
    static = run_meta_game(
        StaticProvider("a", source=ALLC),
        StaticProvider("b", source=TFT),
        meta_rounds=3,
        cfg=cfg,
    )
    assert [r.match.actions for r in external.rounds] == [
        r.match.actions for r in static.rounds
    ]
    assert external.totals() == static.totals()


def test_record_round_count_and_determinism():
    def make():
        return run_meta_game(
            StaticProvider("a", source=TFT),
            ScriptedProvider("b", schedule=[(1, ALLC), (3, ALLD)]),
            meta_rounds=5,
            cfg=MatchConfig(rounds=10, seed=12),
        )

    blob1 = canonical_json_bytes(make().to_json_dict())
    blob2 = canonical_json_bytes(make().to_json_dict())
    assert blob1 == blob2
    obj = json.loads(blob1)
    assert obj["schema"] == "osgames.meta/1"
    assert [r["meta_round"] for r in obj["rounds"]] == [1, 2, 3, 4, 5]


def test_judge_label_merge():
    record = run_meta_game(
        StaticProvider("a", source=TFT),
        StaticProvider("b", source=TFT),
        meta_rounds=2,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    sidecar = [
        {
            "meta_round": 2,
            "player": "a",
            "labels": {"counter_measure": True, "feint": False},
        }
    ]
    merged = merge_judge_labels(record, sidecar)
    assert merged.rounds[0].judge_labels is None
    assert merged.rounds[1].judge_labels == {
        "a": {"counter_measure": True, "feint": False}
    }
    with pytest.raises(MetaGameError):
        merge_judge_labels(record, [{"meta_round": 1, "player": "a", "labels": {"bogus": True}}])
    assert len(JUDGE_FEATURES) == 5


def _two_round_record(seed: int):
    return run_meta_game(
        StaticProvider("a", source=TFT),
        StaticProvider("b", source=TFT),
        meta_rounds=2,
        cfg=MatchConfig(rounds=10, seed=seed),
    )


@pytest.mark.parametrize(
    "labels, named",
    [
        ({"feint": "yes please"}, "judge entry 0 feature 'feint' must be true or false"),
        ({"counter_measure": 7}, "judge entry 0 feature 'counter_measure' must be true or false"),
        ({"feint": None}, "judge entry 0 feature 'feint' must be true or false"),
        ({"feint": 1}, "judge entry 0 feature 'feint' must be true or false"),
    ],
    ids=["string", "integer", "null", "one"],
)
def test_judge_label_values_must_be_booleans(labels, named):
    sidecar = [{"meta_round": 1, "player": "a", "labels": labels}]
    with pytest.raises(MetaGameError, match=named):
        merge_judge_labels(_two_round_record(0), sidecar)


def test_judge_entry_with_a_seed_is_attached_only_to_that_seed():
    sidecar = [
        {"meta_round": 1, "player": "a", "labels": {"feint": True}, "seed": 3},
        {"meta_round": 1, "player": "b", "labels": {"feint": False}},
        {"meta_round": 2, "player": "a", "labels": {"feint": False}, "seed": 4},
    ]
    merged = merge_judge_labels(_two_round_record(3), sidecar)
    assert [r.judge_labels for r in merged.rounds] == [
        {"a": {"feint": True}, "b": {"feint": False}},
        None,
    ]
    merged = merge_judge_labels(_two_round_record(4), sidecar)
    assert [r.judge_labels for r in merged.rounds] == [
        {"b": {"feint": False}},
        {"a": {"feint": False}},
    ]


@pytest.mark.parametrize("seed", [1.9, 1.0, True, "1", None], ids=repr)
def test_judge_entry_seed_must_be_an_integer(seed):
    sidecar = [{"meta_round": 1, "player": "a", "labels": {"feint": True}, "seed": seed}]
    with pytest.raises(MetaGameError, match="judge entry 0 seed must be an integer"):
        merge_judge_labels(_two_round_record(1), sidecar)


def test_judge_entry_for_another_seed_is_still_checked():
    sidecar = [
        {"meta_round": 1, "player": "a", "labels": {"feint": True}},
        {"meta_round": 1, "player": "a", "labels": {"bogus": True}, "seed": 9},
    ]
    with pytest.raises(MetaGameError, match="judge entry 1 has unknown judge feature 'bogus'"):
        merge_judge_labels(_two_round_record(0), sidecar)


def _judge(k, player="a", **seed):
    return {"meta_round": k, "player": player, "labels": {"feint": True}, **seed}


@pytest.mark.parametrize(
    "sidecar, named",
    [
        (["round 1"], "judge entry 0 must be an object, got 'round 1'"),
        ([_judge("1")], "judge entry 0 needs an integer meta_round, got '1'"),
        ([_judge(1.0)], "judge entry 0 needs an integer meta_round, got 1.0"),
        ([_judge(0)], "judge entry 0 meta_round 0 is outside 1..2"),
        ([_judge(1), _judge(5)], "judge entry 1 meta_round 5 is outside 1..2"),
        ([_judge(1), _judge(1)], "judge entries 0 and 1 both label meta_round 1 player 'a'"),
        ([_judge(1, seed=3), _judge(1, seed=3)], "judge entries 0 and 1 both label"),
        ([_judge(1, seed=3), _judge(1)], "judge entries 0 and 1 both label"),
        ([_judge(2), _judge(1), _judge(2, "A", seed=4)],
         "judge entries 0 and 2 both label meta_round 2 player 'a'"),
    ],
    ids=["not-object", "round-string", "round-float", "round-zero", "round-past-run",
         "same-entry-twice", "same-seed", "one-without-seed", "player-case"],
)
def test_judge_entries_that_would_be_lost_are_rejected(sidecar, named):
    with pytest.raises(MetaGameError, match=named):
        check_judge_labels(sidecar, 2)
    with pytest.raises(MetaGameError, match=named):
        merge_judge_labels(_two_round_record(0), sidecar)


def test_judge_entries_for_one_round_and_player_may_differ_by_seed():
    sidecar = [_judge(1, seed=3), {**_judge(1, seed=4), "labels": {"feint": False}}]
    check_judge_labels(sidecar, 2)
    for seed, feint in ((3, True), (4, False)):
        merged = merge_judge_labels(_two_round_record(seed), sidecar)
        assert merged.rounds[0].judge_labels == {"a": {"feint": feint}}


@pytest.mark.parametrize("literal", ["²", "1" * 5000], ids=["superscript", "5000-digits"])
def test_bad_numeral_in_meta_round_two_is_a_recorded_provider_fault(literal):
    bad = "fn strategy() {\n    return " + literal + "\n}\n"
    record = run_meta_game(
        ScriptedProvider("a", schedule=[(1, ALLC), (2, bad)]),
        StaticProvider("b", source=ALLC),
        meta_rounds=2,
        cfg=MatchConfig(rounds=10, seed=0),
    )
    assert record.rounds[0].provider_faults == ()
    (fault,) = record.rounds[1].provider_faults
    assert fault.startswith("a: a@r2:2:")
    assert fault.endswith("; reusing previous source")
    assert record.rounds[1].sources[0] == ALLC


def test_lone_surrogate_in_meta_round_two_is_a_recorded_provider_fault():
    # the agent sends "\ud800" as a JSON escape; json.loads turns it into a
    # lone surrogate, which the lexer rejects at its offset
    agent = ExternalProvider(
        "a", command=[sys.executable, str(AGENTS / "surrogate_agent.py")], timeout=20
    )
    record = run_meta_game(
        agent,
        StaticProvider("b", source=ALLC),
        meta_rounds=3,
        cfg=MatchConfig(rounds=6, seed=0),
    )
    assert record.rounds[0].provider_faults == ()
    assert record.rounds[1].provider_faults == (
        "a: a@r2:1:3: lone surrogate '\\ud800'; reusing previous source",
    )
    assert record.rounds[1].sources[0] == ALLC
    assert record.rounds[2].provider_faults == ()
    canonical_json_bytes(record.to_json_dict())  # the record stays writable
