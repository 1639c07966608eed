from __future__ import annotations

import concurrent.futures
import json
from dataclasses import replace

import pytest

from osgames import _pool, arena, program
from osgames.arena import (
    ArenaError,
    FaultRecord,
    MatchConfig,
    PLAYER_IDS,
    Policy,
    RoundRobinTable,
    play_match,
    replay,
    round_robin,
)
from osgames.fixtures import load_corpus_programs, load_fixture
from osgames.games import PayoffParams
from osgames.program import ProgramError, load_program
from osgames.runio import canonical_json_bytes
from osgames.rng import derive_seed
from osgames.runtime import Bindings, Budget, can_draw, reads_opp_source
from osgames.slang.validator import validate


def test_allc_vs_alld_totals(allc, alld):
    record = play_match(allc, alld, MatchConfig(rounds=10, seed=7))
    assert record.totals == (0, 50)
    assert record.actions == (("C", "D"),) * 10


def test_tft_vs_alld_totals(tft, alld):
    # hand simulation: round 1 (0,5), then nine rounds of (1,1)
    record = play_match(tft, alld, MatchConfig(rounds=10, seed=7))
    assert record.totals == (9, 14)
    assert record.deltas[0] == (0, 5)
    assert record.deltas[1:] == ((1, 1),) * 9


def test_mutual_cooperation_total_is_rounds_times_reward(allc, tft):
    record = play_match(allc, tft, MatchConfig(rounds=10))
    assert record.totals == (30, 30)


def test_crasher_gets_fallback_defection(crasher, allc):
    record = play_match(crasher, allc, MatchConfig(rounds=10, seed=1))
    assert record.player_actions("A") == ("D",) * 10
    assert len(record.player_faults("A")) == 10
    assert record.totals == (50, 0)
    assert record.faults[0].kind == "division-by-zero"


def test_totals_equal_sum_of_deltas(tft, alld):
    record = play_match(tft, alld, MatchConfig(rounds=10, seed=3))
    assert record.totals == (
        sum(d[0] for d in record.deltas),
        sum(d[1] for d in record.deltas),
    )
    assert len(record.actions) == record.config.rounds


def test_match_sees_current_round_sources(comparator):
    # Two byte-identical comparators cooperate through source equality.
    twin = load_program(comparator.text, origin="twin")
    record = play_match(comparator, twin, MatchConfig(rounds=10))
    assert record.totals == (30, 30)


def test_simultaneity_no_order_effects(tft, alld, allc):
    # Deterministic programs: swapping the player slots mirrors the record.
    for pa, pb in ((tft, alld), (allc, tft)):
        fwd = play_match(pa, pb, MatchConfig(rounds=10, seed=9))
        rev = play_match(pb, pa, MatchConfig(rounds=10, seed=9))
        assert fwd.player_actions("A") == rev.player_actions("B")
        assert fwd.player_actions("B") == rev.player_actions("A")
        assert fwd.totals == tuple(reversed(rev.totals))


def test_invalid_program_rejected_before_play(allc):
    bad = load_program("fn strategy() {\n    return my_pos()\n}\n", game=None)
    with pytest.raises(ProgramError):
        play_match(bad, allc, MatchConfig())


def test_play_match_validates_only_programs_not_loaded_for_its_game(monkeypatch, allc, alld):
    calls = []

    def counting_validate(tree, game):
        calls.append(game)
        return validate(tree, game)

    monkeypatch.setattr(arena, "validate", counting_validate)
    play_match(allc, alld, MatchConfig())
    assert calls == []
    unchecked = load_program(allc.text, game=None)
    play_match(unchecked, alld, MatchConfig())
    assert calls == ["ipd"]


def test_config_json_round_trip_off_defaults():
    ipd = MatchConfig(
        rounds=7,
        payoffs=PayoffParams(6, 4, 2, 1),
        budget=Budget(step_limit=500, call_depth_limit=9, list_length_cap=33),
        seed=13,
    )
    coin = MatchConfig(game="coin", rounds=5, fallback="LEFT", seed=2, board_size=4)
    for cfg in (ipd, coin):
        back = MatchConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == replace(cfg, fallback=cfg.fallback_action)


def test_replay_reproduces_record_bytes(tft, alld):
    record = play_match(tft, alld, MatchConfig(rounds=10, seed=11))
    blob = canonical_json_bytes(record.to_json_dict())
    again = replay(json.loads(blob))
    assert canonical_json_bytes(again.to_json_dict()) == blob


def test_coin_match_record_replay():
    walker = load_fixture("coin/random_walker.slang")
    chaser = load_fixture("coin/greedy_chaser.slang")
    record = play_match(walker, chaser, MatchConfig(game="coin", rounds=10, seed=21))
    blob = canonical_json_bytes(record.to_json_dict())
    assert replay(json.loads(blob)).to_json_dict() == json.loads(blob)
    assert record.initial_state is not None
    assert len(record.events) == 10


def test_stochastic_match_deterministic_given_seed():
    flip = load_program('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    other = load_program('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    a = play_match(flip, other, MatchConfig(rounds=10, seed=5))
    b = play_match(flip, other, MatchConfig(rounds=10, seed=5))
    c = play_match(flip, other, MatchConfig(rounds=10, seed=6))
    assert a.actions == b.actions
    assert a.actions != c.actions  # overwhelmingly likely
    # players draw from distinct streams: traces differ between players
    assert any(x != y for x, y in a.actions)


def test_eval_streams_derived_only_for_programs_that_can_draw(allc, monkeypatch):
    calls = []

    def counting(*parts):
        calls.append(parts)
        return derive_seed(*parts)

    derive_seed = arena.derive_seed
    monkeypatch.setattr(arena, "derive_seed", counting)
    flip = load_program('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    play_match(allc, allc, MatchConfig(rounds=10, seed=5))
    assert calls == []
    play_match(flip, allc, MatchConfig(rounds=10, seed=5))
    assert calls == [(5, "eval", "A", r) for r in range(10)]


def test_each_player_reads_one_live_binding_per_match(tft, monkeypatch):
    seen = []  # (binding, round index and history length when it was read)

    def recording(tree, env, budget, rng):
        seen.append((env, env.round_index, len(env.my_history)))
        return evaluate(tree, env, budget, rng)

    evaluate = arena.evaluate
    monkeypatch.setattr(arena, "evaluate", recording)
    alternator = load_program(
        'fn strategy() {\n    if round_index % 2 == 0 {\n        return "C"\n    }\n'
        '    return "D"\n}\n'
    )
    record = play_match(tft, alternator, MatchConfig(rounds=30, seed=3))
    assert len(seen) == 60
    envs_a = {id(env) for env, _, _ in seen[0::2]}
    envs_b = {id(env) for env, _, _ in seen[1::2]}
    assert len(envs_a) == len(envs_b) == 1 and envs_a != envs_b
    env_a, env_b = seen[0][0], seen[1][0]
    assert env_a.my_history is env_b.opp_history
    assert env_a.opp_history is env_b.my_history
    assert env_a.my_history == list(record.player_actions("A"))
    assert env_b.my_history == list(record.player_actions("B"))
    assert [(r, length) for _, r, length in seen] == [(r, r) for r in range(30) for _ in "AB"]


def test_round_robin_exact_matrix(allc, alld, tft):
    table = round_robin(
        [("AllC", allc), ("AllD", alld), ("TFT", tft)], MatchConfig(rounds=10, seed=0)
    )
    assert table.means == (
        (30.0, 0.0, 30.0),
        (50.0, 10.0, 14.0),
        (30.0, 9.0, 30.0),
    )
    assert table.tags == ("AllC", "AllD", "TFT")


def test_round_robin_self_play_diagonal(allc):
    table = round_robin([("a", allc), ("b", allc)], MatchConfig(rounds=10))
    assert table.means[0][0] == 30.0


def test_round_robin_repetitions_record_samples(allc):
    flip = load_program('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    table = round_robin([("AllC", allc), ("Flip", flip)], MatchConfig(rounds=10), repetitions=5)
    cell = table.samples[(1, 0)]
    assert len(cell) == 5
    assert len({seed for seed, _ in cell}) == 5  # distinct derived seeds
    mean = sum(p for _, p in cell) / 5
    assert table.means[1][0] == mean


def reference_round_robin(entries, cfg, repetitions):
    """Plays every ordered cell and every repetition, reusing nothing."""
    n = len(entries)
    samples = {}
    for i, (_, pi) in enumerate(entries):
        for j, (_, pj) in enumerate(entries):
            seeds = [derive_seed(cfg.seed, "pair", i, j, rep) for rep in range(repetitions)]
            samples[(i, j)] = tuple(
                (seed, play_match(pi, pj, replace(cfg, seed=seed)).totals[0]) for seed in seeds
            )
    means = tuple(
        tuple(sum(p for _, p in samples[(i, j)]) / repetitions for j in range(n))
        for i in range(n)
    )
    return RoundRobinTable(tuple(tag for tag, _ in entries), means, samples)


def equilibrium_entries():
    """The comparator against its byte-identical twin, a reader of the
    opponent's source, fixed strategies and a drawing one."""
    comparator = load_fixture("equilibrium/syntactic_comparator.slang")
    twin = load_program(comparator.text, origin="twin")
    ipd = dict(load_corpus_programs("ipd"))
    picked = ("similarity_tester", "allc", "alld", "random_coinflip")
    return [("comparator", comparator), ("twin", twin)] + [(k, ipd[k]) for k in picked]


def corpus_entries(ipd_corpus, corpus):
    if corpus == "ipd":
        return ipd_corpus
    return equilibrium_entries() if corpus == "equilibrium" else load_corpus_programs("coin")


def set_cpus(monkeypatch, cpus):
    """Make the pool see `cpus` CPUs, so a test sizes it the same on any runner."""
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: cpus)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps
    in this process, so no test has to start that many processes."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def fake_pool(monkeypatch, cpus) -> list[int]:
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    return InProcessPool.sizes


@pytest.mark.parametrize("corpus", ["ipd", "equilibrium", "coin"])
@pytest.mark.parametrize("repetitions", [1, 2])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_round_robin_reuse_matches_playing_every_cell(
    monkeypatch, ipd_corpus, corpus, repetitions, jobs
):
    set_cpus(monkeypatch, 3)  # jobs processes, on any runner
    entries = corpus_entries(ipd_corpus, corpus)
    game = "coin" if corpus == "coin" else "ipd"
    cfg = MatchConfig(game=game, rounds=12, seed=31)
    table = round_robin(entries, cfg, repetitions, jobs=jobs)
    expected = reference_round_robin(entries, cfg, repetitions)
    assert table.to_json_dict() == expected.to_json_dict()
    assert table == expected
    assert list(table.samples) == list(expected.samples)


@pytest.mark.parametrize("corpus", ["ipd", "coin"])
def test_round_robin_with_more_jobs_than_pairings_gives_each_its_own_share(
    monkeypatch, ipd_corpus, corpus
):
    entries = corpus_entries(ipd_corpus, corpus)[:3]
    game = "coin" if corpus == "coin" else "ipd"
    cfg = MatchConfig(game=game, rounds=6, seed=8)
    pairings = 6 if corpus == "ipd" else 9  # seed-free IPD cells play i <= j only
    shares = []
    real = arena._play_share
    monkeypatch.setattr(
        arena, "_play_share", lambda *share: shares.append(share[2]) or real(*share)
    )
    sizes = fake_pool(monkeypatch, cpus=64)
    table = round_robin(entries, cfg, repetitions=2, jobs=1000)
    assert sizes == [pairings]
    assert [len(share) for share in shares] == [1] * pairings
    expected = reference_round_robin(entries, cfg, repetitions=2)
    assert canonical_json_bytes(table.to_json_dict()) == canonical_json_bytes(
        expected.to_json_dict()
    )


@pytest.mark.parametrize(
    "jobs, tasks, cpus, size",
    [(1, 10, 8, 1), (4, 10, 8, 4), (4, 3, 8, 3), (16, 100, 2, 2), (3, 0, 8, 1), (5, 5, None, 1)],
)
def test_pool_size_is_bounded_by_jobs_tasks_and_cpus(monkeypatch, jobs, tasks, cpus, size):
    sizes = fake_pool(monkeypatch, cpus)
    assert _pool.workers(jobs, tasks) == size
    assert _pool.pool_map(divmod, [(k, 3) for k in range(tasks)], jobs) == [
        divmod(k, 3) for k in range(tasks)
    ]
    assert sizes == ([size] if size > 1 else [])  # one worker runs in-process


def test_serial_round_robin_parses_each_program_once(monkeypatch, ipd_corpus):
    parsed = []
    real = program.parse_source
    monkeypatch.setattr(program, "parse_source", lambda src: parsed.append(src.text) or real(src))
    round_robin(ipd_corpus, MatchConfig(rounds=5, seed=3), repetitions=2)
    assert sorted(parsed) == sorted(p.text for _, p in ipd_corpus)


def count_matches(monkeypatch):
    calls = []
    real = arena.play_match  # the one match loop, round_robin's included

    def counting(pa, pb, cfg, memo=None):
        calls.append((pa.text, pb.text, cfg.seed))
        return real(pa, pb, cfg, memo)

    monkeypatch.setattr(arena, "play_match", counting)
    return calls


@pytest.mark.parametrize("repetitions, matches", [(1, 264), (2, 375)])
def test_round_robin_plays_each_seed_free_pairing_once(
    monkeypatch, ipd_corpus, repetitions, matches
):
    drawing = {tag for tag, p in ipd_corpus if can_draw(p.tree)}
    assert drawing == {"generous_tft", "random_coinflip", "random_then_tft"}
    calls = count_matches(monkeypatch)
    table = round_robin(ipd_corpus, MatchConfig(rounds=5, seed=3), repetitions)
    assert len(calls) == matches
    assert len(table.samples) == 400
    assert all(len(cell) == repetitions for cell in table.samples.values())


def test_round_robin_coin_game_plays_every_seed(monkeypatch):
    coin = load_corpus_programs("coin")
    assert not any(can_draw(p.tree) for _, p in coin[:2])  # seed-free in the IPD
    calls = count_matches(monkeypatch)
    round_robin(coin, MatchConfig(game="coin", rounds=4, seed=2), repetitions=2)
    assert len(calls) == len(coin) ** 2 * 2
    assert len({seed for _, _, seed in calls}) == len(calls)


def test_round_robin_pairing_with_a_drawing_program_plays_every_repetition(
    monkeypatch, allc
):
    flip = load_program('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    calls = count_matches(monkeypatch)
    round_robin([("AllC", allc), ("Flip", flip)], MatchConfig(rounds=4), repetitions=3)
    # (AllC, AllC) once; (AllC, Flip), (Flip, AllC) and (Flip, Flip) three times each
    assert len(calls) == 1 + 3 * 3
    assert sum(1 for a, b, _ in calls if (a, b) == (allc.text, flip.text)) == 3


def count_evaluations(monkeypatch):
    calls = []
    real = arena.evaluate

    def counting(tree, env, budget, rng):
        calls.append(tree)
        return real(tree, env, budget, rng)

    monkeypatch.setattr(arena, "evaluate", counting)
    return calls


@pytest.mark.parametrize("rounds, seed, evaluations", [(5, 3, 1038), (100, 7, 30948)])
def test_round_robin_evaluates_each_seed_free_history_once(
    monkeypatch, ipd_corpus, rounds, seed, evaluations
):
    calls = count_evaluations(monkeypatch)
    round_robin(ipd_corpus, MatchConfig(rounds=rounds, seed=seed))
    drawing = [tree for tree in calls if can_draw(tree)]
    # The 3 drawing programs still evaluate every round, in both seats
    # against all 20 types; the 17 seed-free programs evaluate once per
    # distinct history (and opponent source, for similarity_tester).
    assert len(drawing) == 3 * 20 * 2 * rounds
    assert len(calls) == evaluations  # 264 matches x 2 x rounds with no reuse


def test_types_of_identical_text_share_one_trie(monkeypatch, tft, alld):
    twin = load_program(tft.text, origin="twin")
    entries = [("tft", tft), ("twin", twin), ("alld", alld)]
    cfg = MatchConfig(rounds=4, seed=6)
    calls = count_evaluations(monkeypatch)
    table = round_robin(entries, cfg)
    # The TFT text meets 7 histories of up to 3 rounds (all C against
    # itself, C then D's against AllD), and AllD meets 7; a trie per type
    # would evaluate the TFT text's 7 once for each of its two tags.
    assert len(calls) == 7 + 7
    monkeypatch.undo()
    assert table == reference_round_robin(entries, cfg, repetitions=1)


def distinct_histories(programs, pairings, cfg):
    """The (trie key, joint history) pairs the seed-free players of
    these pairings meet, from plain play_match records."""
    seen = set()
    for i, j, seeds in pairings:
        for seed in seeds:
            record = play_match(programs[i], programs[j], replace(cfg, seed=seed))
            for me, other, seat in ((programs[i], programs[j], 0), (programs[j], programs[i], 1)):
                key = (me.text, other.text) if reads_opp_source(me.tree) else me.text
                joint = tuple((turn[seat], turn[1 - seat]) for turn in record.actions)
                seen.update((key, joint[:r]) for r in range(cfg.rounds))
    return seen


def test_each_share_evaluates_each_seed_free_history_once(monkeypatch, ipd_corpus):
    programs = [p for _, p in ipd_corpus if not can_draw(p.tree)]
    texts = [p.text for p in programs]
    cfg = MatchConfig(rounds=5, seed=3)
    pairings = [
        (i, j, [derive_seed(cfg.seed, "pair", i, j, 0)])
        for i in range(len(programs))
        for j in range(i, len(programs))
    ]
    shares = pairings[0::2], pairings[1::2]
    expected = [len(distinct_histories(programs, share, cfg)) for share in shares]
    in_one_share = len(distinct_histories(programs, pairings, cfg))
    calls = count_evaluations(monkeypatch)
    counts = []
    for share in shares:
        del calls[:]
        arena._play_share(texts, cfg, share)
        counts.append(len(calls))
    assert counts == expected
    # each share keeps its own tries: together they evaluate more than one would
    assert sum(counts) > in_one_share


@pytest.mark.parametrize("cap", [0, 40])
def test_round_robin_tables_do_not_depend_on_the_node_cap(monkeypatch, ipd_corpus, cap):
    monkeypatch.setattr(arena, "TRIE_NODE_CAP", cap)
    cfg = MatchConfig(rounds=6, seed=5)
    calls = count_evaluations(monkeypatch)
    table = round_robin(ipd_corpus, cfg, repetitions=2)
    evaluations = len(calls)
    monkeypatch.undo()
    expected = reference_round_robin(ipd_corpus, cfg, repetitions=2)
    assert canonical_json_bytes(table.to_json_dict()) == canonical_json_bytes(
        expected.to_json_dict()
    )
    # 375 matches of 6 rounds; a capped trie saves only what it holds
    assert (evaluations == 375 * 12) if cap == 0 else (evaluations < 375 * 12)


FLAKY_SRC = """fn strategy() {
    if len(opp_history) > 0 and opp_history[-1] == "D" {
        return opp_history[3]
    }
    return "C"
}
"""


def test_trie_replay_keeps_every_fault(monkeypatch, alld, tft):
    # faulty_bot faults in round 0 only; FLAKY faults after an opponent's
    # D before round 4, and reads round 3 after that.
    programs = [
        load_fixture("ipd/faulty_bot.slang"),
        load_program(FLAKY_SRC, origin="flaky"),
        alld,
        tft,
    ]
    cfg = MatchConfig(rounds=8, seed=4)
    pairs = [(i, j) for i in range(len(programs)) for j in range(len(programs))]
    plain = {(i, j): play_match(programs[i], programs[j], cfg) for i, j in pairs}
    faulted = {
        ((i, j)[PLAYER_IDS.index(f.player)], f.player)
        for (i, j), record in plain.items()
        for f in record.faults
    }
    assert faulted == {(0, "A"), (0, "B"), (1, "A"), (1, "B")}
    assert {f.round for f in plain[(1, 2)].faults} == {1, 2, 3}
    expected = {cell: canonical_json_bytes(r.to_json_dict()) for cell, r in plain.items()}
    memo = arena.Memo()
    calls = count_evaluations(monkeypatch)
    for warm in (False, True):
        del calls[:]
        for i, j in pairs:
            record = play_match(programs[i], programs[j], cfg, memo)
            assert canonical_json_bytes(record.to_json_dict()) == expected[(i, j)]
        assert (len(calls) == 0) if warm else (0 < len(calls) < 2 * cfg.rounds * len(pairs))


def test_policy_replays_a_memo_without_play_match(monkeypatch, alld, tft):
    flaky = load_program(FLAKY_SRC, origin="flaky")  # faults in round 1 after a D
    cfg = MatchConfig(rounds=2, seed=4)
    memo = arena.Memo()

    def moves(player, opponent):
        policy = Policy(flaky, opponent, cfg, player, memo)
        env = Bindings("ipd", [], [], flaky.text, opponent.text)
        first = policy.act(env)
        policy.advance(first[0] + "D")
        env.my_history.append(first[0])
        env.opp_history.append("D")
        env.round_index = 1
        return first, policy.act(env)

    first, second = moves("A", alld)
    assert first == ("C", None)
    assert second[0] == cfg.fallback_action
    fault = second[1]
    assert (fault.player, fault.round, fault.kind) == ("A", 1, "index-out-of-range")
    calls = count_evaluations(monkeypatch)
    # flaky does not read opp_source, so another opponent shares its trie
    assert moves("B", tft) == (
        ("C", None),
        (cfg.fallback_action, FaultRecord("B", 1, fault.kind, fault.span, fault.detail)),
    )
    assert calls == []


def test_round_robin_requires_two_types(allc):
    with pytest.raises(ArenaError):
        round_robin([("only", allc)], MatchConfig())


def test_fallback_must_be_legal():
    with pytest.raises(ValueError):
        MatchConfig(game="ipd", fallback="UP")
    assert MatchConfig(game="coin", fallback="LEFT").fallback_action == "LEFT"
    assert MatchConfig(game="ipd").fallback_action == "D"
    assert MatchConfig(game="coin").fallback_action == "UP"


def test_record_json_shape(tft, alld):
    record = play_match(tft, alld, MatchConfig(rounds=3, seed=2))
    obj = record.to_json_dict()
    assert obj["schema"] == "osgames.match/1"
    assert obj["rng_algorithm"] == "splitmix64"
    assert [p["id"] for p in obj["players"]] == list(PLAYER_IDS)
    assert obj["players"][0]["source"] == tft.text
    assert len(obj["turns"]) == 3
    assert obj["totals"] == [2, 7]
