"""Match execution: one base-game match between two programs, plus the
round-robin tournament used for payoff-matrix estimation.

Each player's moves come from a Policy, the one place where a move is
evaluated or replayed; both see bindings that show the pre-round state (so
neither action can depend on the other's same-round action) including the
opponent's complete current source.  A runtime fault never aborts a match:
the fallback action is substituted and the fault is logged in the record.
Everything is deterministic given the config seed; per-player, per-round
rng streams are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import games
from .program import ProgramError, StrategyProgram, load_program
from .rng import RNG_ALGORITHM, SplitMix64, derive_seed
from .runtime import (
    Bindings, Budget, CoinView, RuntimeFault, can_draw, evaluate, legal_actions, reads_opp_source,
)
from .slang.validator import GAME_COIN, GAME_IPD, GAMES, validate

SCHEMA_MATCH = "osgames.match/1"

DEFAULT_FALLBACK = {GAME_IPD: "D", GAME_COIN: "UP"}

PLAYER_IDS = ("A", "B")


@dataclass(frozen=True)
class MatchConfig:
    game: str = GAME_IPD
    rounds: int = 10  # base-game rounds (steps, for the coin game)
    payoffs: games.PayoffParams = field(default_factory=games.PayoffParams)
    budget: Budget = field(default_factory=Budget)
    fallback: str | None = None  # substituted on faults; None = game default
    seed: int = 0
    board_size: int = 3  # coin game only

    def __post_init__(self):
        if self.game not in GAMES:
            raise ValueError(f"unknown game kind {self.game!r}")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.game == GAME_COIN and self.board_size < 2:
            raise ValueError("board size must be at least 2")
        if self.fallback is not None and self.fallback not in legal_actions(self.game):
            raise ValueError(f"fallback {self.fallback!r} is not legal for {self.game}")

    @property
    def fallback_action(self) -> str:
        return self.fallback if self.fallback is not None else DEFAULT_FALLBACK[self.game]

    def to_json_dict(self) -> dict:
        d = {
            "game": self.game,
            "rounds": self.rounds,
            "seed": self.seed,
            "fallback": self.fallback_action,
            "budget": {
                "step_limit": self.budget.step_limit,
                "call_depth_limit": self.budget.call_depth_limit,
                "list_length_cap": self.budget.list_length_cap,
            },
        }
        if self.game == GAME_IPD:
            p = self.payoffs
            d["payoffs"] = {"T": p.t, "R": p.r, "P": p.p, "S": p.s}
        else:
            d["board_size"] = self.board_size
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> MatchConfig:
        """Inverse of to_json_dict (the fallback comes back explicit)."""
        extra = {}
        if "payoffs" in d:
            p = d["payoffs"]
            extra["payoffs"] = games.PayoffParams(p["T"], p["R"], p["P"], p["S"])
        if "board_size" in d:
            extra["board_size"] = d["board_size"]
        return cls(
            game=d["game"],
            rounds=d["rounds"],
            seed=d["seed"],
            fallback=d["fallback"],
            budget=Budget(**d["budget"]),
            **extra,
        )


@dataclass(frozen=True)
class FaultRecord:
    player: str
    round: int
    kind: str
    span: tuple[int, int]
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "player": self.player,
            "round": self.round,
            "kind": self.kind,
            "span": list(self.span),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class MatchRecord:
    config: MatchConfig
    sources: tuple[str, str]
    origins: tuple[str, str]
    actions: tuple[tuple[str, str], ...]  # per round, (A, B)
    deltas: tuple[tuple[int, int], ...]
    totals: tuple[int, int]
    faults: tuple[FaultRecord, ...]
    initial_state: games.CoinState | None = None
    events: tuple[tuple[games.CoinEvent, ...], ...] = ()  # per step (coin only)

    def player_actions(self, player: str) -> tuple[str, ...]:
        idx = PLAYER_IDS.index(player)
        return tuple(turn[idx] for turn in self.actions)

    def player_faults(self, player: str) -> tuple[FaultRecord, ...]:
        return tuple(f for f in self.faults if f.player == player)

    def to_json_dict(self) -> dict:
        turns = []
        for r, (acts, ds) in enumerate(zip(self.actions, self.deltas)):
            turn = {"round": r, "actions": list(acts), "deltas": list(ds)}
            if self.config.game == GAME_COIN:
                turn["events"] = [
                    {
                        "collector": e.collector,
                        "color": e.color,
                        "cell": list(e.cell),
                        "step": e.step,
                    }
                    for e in self.events[r]
                ]
            turns.append(turn)
        record = {
            "schema": SCHEMA_MATCH,
            "rng_algorithm": RNG_ALGORITHM,
            "config": self.config.to_json_dict(),
            "players": [
                {"id": pid, "origin": origin, "source": source}
                for pid, origin, source in zip(PLAYER_IDS, self.origins, self.sources)
            ],
            "turns": turns,
            "totals": list(self.totals),
            "faults": [f.to_json_dict() for f in self.faults],
        }
        if self.initial_state is not None:
            s = self.initial_state
            record["initial_state"] = {
                "n": s.n,
                "pos_a": list(s.pos_a),
                "pos_b": list(s.pos_b),
                "coin_red": list(s.coin_red),
                "coin_blue": list(s.coin_blue),
            }
        return record


class ArenaError(Exception):
    pass


def _require_valid(program: StrategyProgram, game: str, who: str) -> None:
    if program.game == game:
        return  # load_program validated it for this game
    report = validate(program.tree, game)
    if not report.ok:
        messages = "; ".join(d.message for d in report.errors())
        raise ProgramError(f"player {who} does not validate for {game}: {messages}")


#: Nodes one Memo may hold; past it, a history with no node is evaluated.
TRIE_NODE_CAP = 1 << 17

#: A trie node's child slot for the joint actions of a round, (mine, theirs).
_CHILD_SLOT = {"CC": 1, "CD": 2, "DC": 3, "DD": 4}


class Memo:
    """The history tries of the Policies made with it, and the room left
    under TRIE_NODE_CAP; the round robin keeps one per share."""

    def __init__(self):
        self.roots: dict = {}
        self.room = TRIE_NODE_CAP

    def node(self) -> list | None:
        if self.room <= 0:
            return None
        self.room -= 1
        return [None, None, None, None, None]


class Policy:
    """What one program plays in one seat against one opponent: the one place
    where a move is evaluated or replayed.  act(env) gives the action on the
    bindings env, with a FaultRecord when a runtime fault made it cfg's
    fallback; a program that can draw gets an rng stream per player and round.
    advance(joint) moves past a round, given its own action then the
    opponent's (env keeps the histories).

    With a memo, a seed-free program evaluates each joint history once: its
    result depends only on that history, its source, the opponent's source if
    it reads opp_source, and the config except its seed.  Each such key has
    one trie in the memo, whose node at depth r is a joint history of r
    rounds in five slots: the result (the action, or (action, fault kind,
    span, detail); None until evaluated) and a child per joint action of the
    next round.
    """

    __slots__ = ("tree", "cfg", "player", "draws", "memo", "node")

    def __init__(self, program: StrategyProgram, opponent: StrategyProgram,
                 cfg: MatchConfig, player: str, memo: Memo | None = None):
        self.tree = program.tree
        self.cfg = cfg
        self.player = player
        self.draws = can_draw(program.tree)
        self.memo = memo
        self.node = None  # this history's trie node; None to evaluate
        if memo is not None and Policy.seed_free(program, cfg.game):
            key = (program.text, opponent.text) if reads_opp_source(program.tree) else program.text
            if memo.roots.get(key) is None:
                memo.roots[key] = memo.node()
            self.node = memo.roots[key]

    @staticmethod
    def seed_free(program: StrategyProgram, game: str) -> bool:
        """Whether the program's actions in the game never depend on the seed."""
        return game == GAME_IPD and not can_draw(program.tree)

    def act(self, env: Bindings) -> tuple[str, FaultRecord | None]:
        node = self.node
        result = None if node is None else node[0]
        if result is None:
            cfg = self.cfg
            rng = None  # a program that cannot draw never touches its stream
            if self.draws:
                rng = SplitMix64(derive_seed(cfg.seed, "eval", self.player, env.round_index))
            try:
                result, _ = evaluate(self.tree, env, cfg.budget, rng)
            except RuntimeFault as fault:
                span = (fault.span.start, fault.span.end)
                result = (cfg.fallback_action, fault.kind.value, span, fault.detail)
            if node is not None:
                node[0] = result
        if type(result) is str:
            return result, None
        action, kind, span, detail = result
        return action, FaultRecord(self.player, env.round_index, kind, span, detail)

    def advance(self, joint: str) -> None:
        node = self.node
        if node is not None:
            slot = _CHILD_SLOT[joint]
            child = node[slot]
            if child is None:
                child = node[slot] = self.memo.node()
            self.node = child


def play_match(
    pa: StrategyProgram,
    pb: StrategyProgram,
    cfg: MatchConfig = MatchConfig(),
    memo: Memo | None = None,
) -> MatchRecord:
    """Run one full match; faults become fallback actions plus log entries.

    Programs not already loaded for cfg.game (see StrategyProgram.game) are
    validated first.  One loop serves both games; only the step differs.
    Each player has one Policy, and one binding over the match's own
    history lists, which grow only after both players have moved.  With a
    memo (see Policy), seed-free players replay what they did before.
    """
    _require_valid(pa, cfg.game, "A")
    _require_valid(pb, cfg.game, "B")
    policy_a = Policy(pa, pb, cfg, "A", memo)
    policy_b = Policy(pb, pa, cfg, "B", memo)
    state = None  # coin game board; None for the IPD
    if cfg.game == GAME_COIN:
        state = games.initial_coin_state(
            cfg.board_size, SplitMix64(derive_seed(cfg.seed, "init"))
        )
    initial = state
    hist_a: list[str] = []
    hist_b: list[str] = []
    env_a = Bindings(cfg.game, hist_a, hist_b, pa.text, pb.text)
    env_b = Bindings(cfg.game, hist_b, hist_a, pb.text, pa.text)
    deltas: list[tuple[int, int]] = []
    events: list[tuple[games.CoinEvent, ...]] = []
    faults: list[FaultRecord] = []
    last = cfg.rounds - 1
    for r in range(cfg.rounds):
        env_a.round_index = env_b.round_index = r
        if state is not None:
            a, b, red, blue = state.pos_a, state.pos_b, state.coin_red, state.coin_blue
            env_a.coin_view = CoinView(a, b, red, blue, state.n)
            env_b.coin_view = CoinView(b, a, blue, red, state.n)
        act_a, fault_a = policy_a.act(env_a)
        act_b, fault_b = policy_b.act(env_b)
        faults.extend(f for f in (fault_a, fault_b) if f is not None)
        if state is None:
            da, db = games.ipd_payoff(act_a, act_b, cfg.payoffs)
        else:
            env_rng = SplitMix64(derive_seed(cfg.seed, "env", r))
            state, da, db, step_events = games.coin_step(state, act_a, act_b, env_rng)
            events.append(tuple(step_events))
        hist_a.append(act_a)
        hist_b.append(act_b)
        deltas.append((da, db))
        if r < last:  # no history past the last round
            policy_a.advance(act_a + act_b)
            policy_b.advance(act_b + act_a)
    totals = (sum(d[0] for d in deltas), sum(d[1] for d in deltas))
    return MatchRecord(
        cfg,
        (pa.text, pb.text),
        (pa.origin, pb.origin),
        tuple(zip(hist_a, hist_b)),
        tuple(deltas),
        totals,
        tuple(faults),
        initial_state=initial,
        events=tuple(events),
    )


def replay(record_dict: dict) -> MatchRecord:
    """Re-run the configuration stored in a match record dict."""
    if record_dict.get("schema") != SCHEMA_MATCH:
        raise ArenaError(f"not a match record: {record_dict.get('schema')!r}")
    if record_dict.get("rng_algorithm") != RNG_ALGORITHM:
        raise ArenaError("record was produced with a different rng algorithm")
    cfg = MatchConfig.from_json_dict(record_dict["config"])
    pa, pb = (
        load_program(p["source"], origin=p["origin"], game=cfg.game)
        for p in record_dict["players"]
    )
    return play_match(pa, pb, cfg)


# --------------------------------------------------------------------------
# round robin


@dataclass(frozen=True)
class RoundRobinTable:
    """Mean payoff of the row type against the column type."""

    tags: tuple[str, ...]
    means: tuple[tuple[float, ...], ...]
    samples: dict[tuple[int, int], tuple[tuple[int, int], ...]]  # (seed, payoff)

    def to_json_dict(self) -> dict:
        return {
            "schema": "osgames.tournament/1",
            "tags": list(self.tags),
            "means": [list(row) for row in self.means],
            "samples": {
                f"{i},{j}": [[seed, payoff] for seed, payoff in cell]
                for (i, j), cell in sorted(self.samples.items())
            },
        }


def _play_share(
    texts: list[str], cfg: MatchConfig, pairings: list[tuple[int, int, list[int]]]
) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """One worker's share of a round robin: each pairing (i, j, seeds) with
    its match totals, a pair per seed (top level so worker pools can run it).

    The programs are parsed from their texts once, and one Memo serves
    every pairing of the share.
    """
    programs = [load_program(text, game=cfg.game) for text in texts]
    memo = Memo()
    results = []
    for i, j, seeds in pairings:
        totals = tuple(
            play_match(programs[i], programs[j], replace(cfg, seed=seed), memo).totals
            for seed in seeds
        )
        results.append((i, j, totals))
    return results


def round_robin(
    entries: list[tuple[str, StrategyProgram]],
    cfg: MatchConfig = MatchConfig(),
    repetitions: int = 1,
    jobs: int = 1,
) -> RoundRobinTable:
    """Sample every ordered pair (self-play included) `repetitions` times.

    Each cell and repetition gets its own seed derived from cfg.seed, so the
    table is identical however the pairings are scheduled.  The pairings
    are dealt round-robin into one share per worker, min(jobs, pairings,
    CPUs) of them (_pool.workers); one share plays in-process, more play on
    a process pool, and every share runs the same _play_share.

    An IPD pairing of two programs that cannot draw is seed-free: its match
    depends on neither the seed nor the seat.  It is played once, for i <= j
    at the (i, j, 0) seed, and that one match gives every sample of cell
    (i, j) and, mirrored, of cell (j, i).  Repetitions therefore add
    information only to pairings with a drawing program (and to every
    coin-game pairing, whose board depends on the seed).

    Within the call, a seed-free program is also evaluated only once per
    distinct history it meets, whoever the opponent (see Policy).  Every
    match is played by play_match, and each share keeps one Memo for all of
    its pairings, up to TRIE_NODE_CAP nodes; it is dropped when the share
    ends, so no work carries from one call to the next.  The table is the same as if
    every round were evaluated, for any jobs.  Raises ArenaError for fewer
    than two types, or for repetitions or jobs below 1.
    """
    from ._pool import pool_map, workers  # _pool imports this module

    if len(entries) < 2:
        raise ArenaError("round robin needs at least two types")
    if repetitions < 1:
        raise ArenaError("repetitions must be at least 1")
    tags = tuple(tag for tag, _ in entries)
    programs = [program for _, program in entries]
    for tag, program in entries:
        _require_valid(program, cfg.game, tag)
    n = len(programs)
    seed_free = [Policy.seed_free(p, cfg.game) for p in programs]
    seeds = {
        (i, j): [derive_seed(cfg.seed, "pair", i, j, rep) for rep in range(repetitions)]
        for i in range(n)
        for j in range(n)
    }
    pairings = []
    for (i, j), cell_seeds in seeds.items():
        if seed_free[i] and seed_free[j]:
            if i > j:
                continue  # read from the mirrored (j, i) match
            cell_seeds = cell_seeds[:1]
        pairings.append((i, j, cell_seeds))
    texts = [program.text for program in programs]
    count = workers(jobs, len(pairings))
    shares = [(texts, cfg, pairings[k::count]) for k in range(count)]
    payoffs: dict[tuple[int, int], list[int]] = {}
    for share in pool_map(_play_share, shares, count):
        for i, j, totals in share:
            if seed_free[i] and seed_free[j]:
                totals *= repetitions
                payoffs[(j, i)] = [b for _, b in totals]
            payoffs[(i, j)] = [a for a, _ in totals]
    samples = {cell: tuple(zip(seeds[cell], payoffs[cell])) for cell in seeds}
    means = tuple(
        tuple(sum(payoffs[(i, j)]) / repetitions for j in range(n)) for i in range(n)
    )
    return RoundRobinTable(tags, means, samples)
