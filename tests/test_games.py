from __future__ import annotations

from collections import deque

import pytest

from osgames.games import (
    ACTIONS,
    FALLBACK,
    CoinEvent,
    CoinState,
    CoinView,
    PayoffParams,
    adjacent,
    coin_step,
    initial_coin_state,
    ipd_payoff,
    move_position,
    wrap_distance,
)
from osgames.rng import SplitMix64


def test_payoff_table_exact():
    assert ipd_payoff("C", "C") == (3, 3)
    assert ipd_payoff("D", "C") == (5, 0)
    assert ipd_payoff("C", "D") == (0, 5)
    assert ipd_payoff("D", "D") == (1, 1)


def test_payoff_symmetry():
    params = PayoffParams()
    for a in "CD":
        for b in "CD":
            pa, pb = ipd_payoff(a, b, params)
            qb, qa = ipd_payoff(b, a, params)
            assert (pa, pb) == (qa, qb)


def test_payoff_invariants_enforced():
    with pytest.raises(ValueError):
        PayoffParams(3, 5, 1, 0)  # T > R violated
    with pytest.raises(ValueError):
        PayoffParams(6, 3, 1, 1)  # 2R > T + S violated


def test_illegal_action_rejected():
    with pytest.raises(ValueError):
        ipd_payoff("C", "X")


# --------------------------------------------------------------------------
# torus geometry


def bfs_distance(p, q, n):
    """Independent oracle: shortest path on the torus grid graph."""
    if p == q:
        return 0
    seen = {p}
    queue = deque([(p, 0)])
    while queue:
        cell, dist = queue.popleft()
        for _, neighbour in adjacent(cell, n):
            if neighbour == q:
                return dist + 1
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append((neighbour, dist + 1))
    raise AssertionError("unreachable cell")


def test_wrap_distance_examples():
    assert wrap_distance((0, 0), (2, 2), 3) == 2
    assert wrap_distance((1, 1), (1, 1), 3) == 0
    assert wrap_distance((0, 0), (3, 4), 5) == 3  # BFS-verified below too


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_wrap_distance_matches_bfs(n):
    cells = [(r, c) for r in range(n) for c in range(n)]
    for p in cells:
        for q in cells:
            assert wrap_distance(p, q, n) == bfs_distance(p, q, n), (p, q, n)


def test_wrap_distance_symmetry_and_identity():
    for n in (3, 5):
        for p in [(0, 0), (1, 2), (2, 1)]:
            for q in [(0, 2), (2, 2), (1, 0)]:
                assert wrap_distance(p, q, n) == wrap_distance(q, p, n)
                assert (wrap_distance(p, q, n) == 0) == (p == q)


def test_adjacent_convention():
    entries = adjacent((0, 0), 3)
    assert entries[0] == ("UP", (2, 0))  # UP decreases the row, wrapping
    assert [m for m, _ in entries] == ["UP", "DOWN", "LEFT", "RIGHT"]
    for move, pos in adjacent((1, 1), 3):
        assert wrap_distance((1, 1), pos, 3) == 1
    # adjacency law on every cell of a few boards
    for n in (2, 4):
        for r in range(n):
            for c in range(n):
                for move, pos in adjacent((r, c), n):
                    assert wrap_distance((r, c), pos, n) == 1
                    assert move_position((r, c), move, n) == pos


# --------------------------------------------------------------------------
# coin game


def make_state(pos_a, pos_b, red, blue, n=3, step=0):
    return CoinState(n, pos_a, pos_b, red, blue, step)


def test_own_colour_collection():
    # A at (0,0), red coin at (0,1); A moves RIGHT onto it, B moves onto an
    # empty cell: A +1, no penalty, red respawns elsewhere.
    state = make_state((0, 0), (2, 2), (0, 1), (1, 1))
    nxt, da, db, events = coin_step(state, "RIGHT", "DOWN", SplitMix64(1))
    assert (da, db) == (1, 0)
    assert len(events) == 1
    assert events[0].collector == "A" and events[0].color == "red"
    assert nxt.coin_red != (0, 1)
    assert nxt.coin_red != nxt.coin_blue
    assert nxt.step_index == 1


def test_cross_colour_collection_penalty():
    # B lands on the red coin (A's colour): B +1, A -2.
    state = make_state((2, 2), (0, 0), (0, 1), (1, 1))
    nxt, da, db, events = coin_step(state, "UP", "RIGHT", SplitMix64(2))
    assert (da, db) == (-2, 1)
    assert events[0].collector == "B" and events[0].color == "red"


def test_both_players_collect_same_coin():
    # Both land on the red coin cell: both collect (+1 each), A also pays the
    # owner penalty for B's cross-collect; two events, one respawn.
    state = make_state((0, 0), (0, 2), (0, 1), (2, 2))
    nxt, da, db, events = coin_step(state, "RIGHT", "LEFT", SplitMix64(3))
    assert len(events) == 2
    assert (da, db) == (1 - 2, 1)
    assert nxt.coin_red != (0, 1)
    assert nxt.pos_a == nxt.pos_b == (0, 1)


def test_simultaneous_different_coins():
    state = make_state((0, 0), (2, 2), (0, 1), (2, 1))
    nxt, da, db, events = coin_step(state, "RIGHT", "LEFT", SplitMix64(4))
    assert (da, db) == (1, 1)
    assert len(events) == 2
    assert nxt.coin_red not in ((0, 1), nxt.coin_blue)


def test_respawn_excludes_players_and_other_coin():
    for seed in range(200):
        state = make_state((0, 0), (0, 2), (0, 1), (2, 2))
        nxt, _, _, _ = coin_step(state, "RIGHT", "LEFT", SplitMix64(seed))
        assert nxt.coin_red not in (nxt.pos_a, nxt.pos_b, nxt.coin_blue)


def test_events_come_by_player_then_colour_and_red_respawns_first():
    # A takes blue and B takes red in one step: both cross-colour.
    state = make_state((0, 0), (2, 2), (2, 1), (0, 1))
    nxt, da, db, events = coin_step(state, "RIGHT", "LEFT", SplitMix64(6))
    assert events == [CoinEvent("A", "blue", (0, 1), 0), CoinEvent("B", "red", (2, 1), 0)]
    assert (da, db) == (1 - 2, 1 - 2)
    rng = SplitMix64(6)
    cells = [(r, c) for r in range(3) for c in range(3)]
    red = [c for c in cells if c not in {(0, 1), (2, 1)}]
    red = red[rng.rand_below(len(red))]
    blue = [c for c in cells if c not in {(0, 1), (2, 1), red}]
    blue = blue[rng.rand_below(len(blue))]
    assert (nxt.coin_red, nxt.coin_blue) == (red, blue)


def test_coins_may_not_share_a_cell():
    with pytest.raises(ValueError, match="the two coins may not share a cell"):
        make_state((0, 0), (2, 2), (1, 1), (1, 1))


def test_each_seat_sees_its_own_position_and_colour_first():
    state = make_state((0, 0), (2, 2), (0, 1), (1, 0), n=4)
    assert state.view("A") == CoinView((0, 0), (2, 2), (0, 1), (1, 0), 4)
    assert state.view("B") == CoinView((2, 2), (0, 0), (1, 0), (0, 1), 4)


def test_each_game_has_its_actions_and_a_legal_fallback():
    assert ACTIONS == {"ipd": ("C", "D"), "coin": ("UP", "DOWN", "LEFT", "RIGHT")}
    assert FALLBACK == {"ipd": "D", "coin": "UP"}


def test_no_collection_no_respawn():
    state = make_state((0, 0), (2, 2), (0, 1), (1, 1))
    nxt, da, db, events = coin_step(state, "UP", "DOWN", SplitMix64(5))
    assert (da, db, events) == (0, 0, [])
    assert (nxt.coin_red, nxt.coin_blue) == ((0, 1), (1, 1))


def test_delta_algebra_and_coin_invariant_over_random_play():
    allowed = {(0, 0), (1, 0), (0, 1), (-2, 1), (1, -2), (1, 1), (-1, 1), (1, -1), (-1, -1)}
    rng = SplitMix64(2024)
    moves = ["UP", "DOWN", "LEFT", "RIGHT"]
    for episode in range(200):
        state = initial_coin_state(3, rng)
        for _ in range(10):
            state, da, db, events = coin_step(
                state, moves[rng.rand_below(4)], moves[rng.rand_below(4)], rng
            )
            assert (da, db) in allowed, (da, db)
            assert len(events) <= 2
            assert state.coin_red != state.coin_blue


def test_initial_state_four_distinct_cells():
    for seed in range(1000):
        s = initial_coin_state(3, SplitMix64(seed))
        assert len({s.pos_a, s.pos_b, s.coin_red, s.coin_blue}) == 4


def test_initial_state_reproducible():
    a = initial_coin_state(3, SplitMix64(99))
    b = initial_coin_state(3, SplitMix64(99))
    assert a == b


def test_minimum_board_size():
    assert initial_coin_state(2, SplitMix64(0)).n == 2
    with pytest.raises(ValueError):
        initial_coin_state(1, SplitMix64(0))


def test_illegal_move_rejected():
    state = make_state((0, 0), (2, 2), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        coin_step(state, "STAY", "UP", SplitMix64(0))
