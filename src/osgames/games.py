"""Base-game semantics: each game's legal actions and fallback,
prisoner's-dilemma payoffs, and the coin-collecting gridworld on a
wrap-around board with each player's view of it.

Positions are (row, col) tuples taken modulo the board size.  The move
convention is pinned here: UP decreases the row (mod n), DOWN increases it,
LEFT decreases the column, RIGHT increases it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import SplitMix64
from .slang.validator import GAME_COIN, GAME_IPD

IPD_ACTIONS = ("C", "D")
MOVES = ("UP", "DOWN", "LEFT", "RIGHT")

#: Each game's legal actions, and the one a faulting program plays.
ACTIONS = {GAME_IPD: IPD_ACTIONS, GAME_COIN: MOVES}
FALLBACK = {GAME_IPD: "D", GAME_COIN: "UP"}

_MOVE_DELTAS = {
    "UP": (-1, 0),
    "DOWN": (1, 0),
    "LEFT": (0, -1),
    "RIGHT": (0, 1),
}

Position = tuple[int, int]


@dataclass(frozen=True)
class PayoffParams:
    """Temptation / reward / punishment / sucker points for one PD round."""

    t: int = 5
    r: int = 3
    p: int = 1
    s: int = 0

    def __post_init__(self):
        if not (self.t > self.r > self.p > self.s):
            raise ValueError("payoffs must satisfy T > R > P > S")
        if not (2 * self.r > self.t + self.s):
            raise ValueError("payoffs must satisfy 2R > T + S")


def ipd_payoff(a: str, b: str, params: PayoffParams = PayoffParams()) -> tuple[int, int]:
    if a not in IPD_ACTIONS or b not in IPD_ACTIONS:
        raise ValueError(f"illegal actions {(a, b)!r}")
    table = {
        ("C", "C"): (params.r, params.r),
        ("C", "D"): (params.s, params.t),
        ("D", "C"): (params.t, params.s),
        ("D", "D"): (params.p, params.p),
    }
    return table[(a, b)]


# --------------------------------------------------------------------------
# coin game


def wrap_distance(p: Position, q: Position, n: int) -> int:
    """Manhattan distance on the n-by-n torus."""
    dr = abs(p[0] - q[0])
    dc = abs(p[1] - q[1])
    return min(dr, n - dr) + min(dc, n - dc)


def move_position(p: Position, move: str, n: int) -> Position:
    dr, dc = _MOVE_DELTAS[move]
    return ((p[0] + dr) % n, (p[1] + dc) % n)


def adjacent(p: Position, n: int) -> list[tuple[str, Position]]:
    """The four neighbouring cells, in the pinned UP/DOWN/LEFT/RIGHT order."""
    return [(move, move_position(p, move, n)) for move in MOVES]


#: The players of both games, and their coin colours in the same order.
PLAYER_IDS = ("A", "B")
_COLOURS = ("red", "blue")


@dataclass(frozen=True)
class CoinView:
    """What one player of the coin game observes: full state, own-relative."""

    my_pos: Position
    opp_pos: Position
    my_coin: Position
    opp_coin: Position
    board_size: int


@dataclass(frozen=True)
class CoinState:
    n: int
    pos_a: Position
    pos_b: Position
    coin_red: Position  # player A's colour
    coin_blue: Position  # player B's colour
    step_index: int = 0

    def __post_init__(self):
        if self.coin_red == self.coin_blue:
            raise ValueError("the two coins may not share a cell")

    def view(self, player: str) -> CoinView:
        """The board as player "A" or "B" sees it: its own cell and colour first."""
        if player == PLAYER_IDS[0]:
            return CoinView(self.pos_a, self.pos_b, self.coin_red, self.coin_blue, self.n)
        return CoinView(self.pos_b, self.pos_a, self.coin_blue, self.coin_red, self.n)


@dataclass(frozen=True)
class CoinEvent:
    collector: str  # "A" or "B"
    color: str  # "red" or "blue"
    cell: Position
    step: int


def initial_coin_state(n: int, rng: SplitMix64) -> CoinState:
    """Draw the two players and two coins onto four distinct cells."""
    if n < 2:
        raise ValueError("board size must be at least 2")
    cells = [(r, c) for r in range(n) for c in range(n)]
    picks = []
    for _ in range(4):
        picks.append(cells.pop(rng.rand_below(len(cells))))
    return CoinState(n, picks[0], picks[1], picks[2], picks[3])


def _respawn(n: int, rng: SplitMix64, occupied: set[Position]) -> Position:
    free = [(r, c) for r in range(n) for c in range(n) if (r, c) not in occupied]
    return free[rng.rand_below(len(free))]


def coin_step(
    state: CoinState, move_a: str, move_b: str, rng: SplitMix64
) -> tuple[CoinState, int, int, list[CoinEvent]]:
    """Advance one step: both players move simultaneously, collections score,
    collected coins respawn on a free cell.

    Scoring: a collector always gains +1; collecting the other player's
    colour additionally costs the owner 2 points.  Both players landing on
    the same coin both collect it (two events, one respawn).  Events come
    player by player, red before blue.  Respawns exclude both player cells
    and the other coin's cell, red before blue.
    """
    if move_a not in MOVES or move_b not in MOVES:
        raise ValueError(f"illegal moves {(move_a, move_b)!r}")
    n = state.n
    step = state.step_index
    cells = (move_position(state.pos_a, move_a, n), move_position(state.pos_b, move_b, n))
    coins = [state.coin_red, state.coin_blue]  # coin c is player c's colour
    deltas = [0, 0]
    taken = [False, False]
    events: list[CoinEvent] = []
    for p, player in enumerate(PLAYER_IDS):
        for c, colour in enumerate(_COLOURS):
            if cells[p] == coins[c]:
                taken[c] = True
                events.append(CoinEvent(player, colour, cells[p], step))
                deltas[p] += 1
                if c != p:
                    deltas[c] -= 2
    for c in (0, 1):
        if taken[c]:
            coins[c] = _respawn(n, rng, {*cells, coins[1 - c]})
    return CoinState(n, *cells, *coins, step + 1), deltas[0], deltas[1], events
