"""The repeated open-source game: providers submit a program each meta-round,
the programs play a base-game match, and everybody observes the outcome.

Providers see the opponent's source from the previous meta-round only, while
the submitted programs read each other's current source during the match —
both views are intentional and recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arena import MatchConfig, MatchRecord, play_match
from .games import PLAYER_IDS
from .program import ProgramError, StrategyProgram, load_program
from .providers import ProposalContext, Provider, ProviderError
from .rng import RNG_ALGORITHM, derive_seed
from .slang.tokens import SourceText

SCHEMA_META = "osgames.meta/1"

#: The five strategic-adaptation features an external judge may attach to a
#: meta-round.  The engine only records them; nothing in here produces them.
JUDGE_FEATURES = (
    "independent_development",
    "exploitation_attempt",
    "counter_measure",
    "direct_imitation",
    "feint",
)


@dataclass(frozen=True)
class MetaRound:
    meta_round: int  # 1-based
    sources: tuple[str, str]
    opponent_previous: tuple[str | None, str | None]  # what each provider saw
    provider_faults: tuple[str, ...]
    match: MatchRecord
    judge_labels: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "meta_round": self.meta_round,
            "sources": list(self.sources),
            "opponent_previous": list(self.opponent_previous),
            "provider_faults": list(self.provider_faults),
            "match": self.match.to_json_dict(),
            "judge_labels": self.judge_labels,
        }


@dataclass(frozen=True)
class MetaGameRecord:
    config: MatchConfig
    meta_rounds: int
    providers: tuple[dict, dict]
    rounds: tuple[MetaRound, ...]

    def totals(self) -> tuple[int, int]:
        a = sum(r.match.totals[0] for r in self.rounds)
        b = sum(r.match.totals[1] for r in self.rounds)
        return a, b

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_META,
            "rng_algorithm": RNG_ALGORITHM,
            "config": self.config.to_json_dict(),
            "meta_rounds": self.meta_rounds,
            "providers": list(self.providers),
            "rounds": [r.to_json_dict() for r in self.rounds],
            "totals": list(self.totals()),
        }


class MetaGameError(Exception):
    pass


def _history_entry(r: MetaRound, me: int) -> dict:
    """One meta-round from one provider's perspective."""
    opp = 1 - me
    return {
        "meta_round": r.meta_round,
        "my_source": r.sources[me],
        "opponent_source": r.sources[opp],
        "my_total": r.match.totals[me],
        "opponent_total": r.match.totals[opp],
        "my_actions": list(r.match.player_actions(PLAYER_IDS[me])),
        "opponent_actions": list(r.match.player_actions(PLAYER_IDS[opp])),
    }


def run_meta_game(
    prov_a: Provider,
    prov_b: Provider,
    meta_rounds: int = 10,
    cfg: MatchConfig = MatchConfig(),
) -> MetaGameRecord:
    """Run the full meta-game.

    A provider that fails or submits an invalid program has its previous
    source reused (recorded as a provider fault); in meta-round 1 there is
    nothing to reuse and the run aborts.
    """
    if meta_rounds < 1:
        raise MetaGameError("meta_rounds must be at least 1")
    providers = (prov_a, prov_b)
    rounds: list[MetaRound] = []
    previous: list[StrategyProgram | None] = [None, None]
    # each provider's meta-history, one entry per round, built once
    histories: tuple[list[dict], list[dict]] = ([], [])
    try:
        for p in providers:
            p.start(cfg.game)
        for k in range(1, meta_rounds + 1):
            programs: list[StrategyProgram] = []
            faults: list[str] = []
            # what each provider sees: the opponent's previous source
            seen_previous = tuple(p.text if p else None for p in reversed(previous))
            for me, provider in enumerate(providers):
                ctx = ProposalContext(
                    game=cfg.game,
                    meta_round=k,
                    # a copy: a provider may keep the context past this round
                    history=list(histories[me]),
                    opponent_previous_source=seen_previous[me],
                )
                origin = f"{provider.provider_id}@r{k}"
                try:
                    program = load_program(provider.propose(ctx), origin=origin, game=cfg.game)
                except (ProviderError, ProgramError) as exc:
                    if previous[me] is None:
                        raise MetaGameError(
                            f"provider {provider.provider_id} failed in meta-round 1: {exc}"
                        ) from exc
                    faults.append(
                        f"{provider.provider_id}: {exc}; reusing previous source"
                    )
                    # the reused program plays under this round's origin
                    program = replace(
                        previous[me], source=SourceText(previous[me].text, origin)
                    )
                programs.append(program)
            pa, pb = programs
            match_cfg = replace(cfg, seed=derive_seed(cfg.seed, "meta", k))
            match = play_match(pa, pb, match_cfg)
            rounds.append(
                MetaRound(
                    k,
                    (pa.text, pb.text),
                    seen_previous,
                    tuple(faults),
                    match,
                )
            )
            for me, history in enumerate(histories):
                history.append(_history_entry(rounds[-1], me))
            previous = programs
    finally:  # closing a provider that never started does nothing
        for p in providers:
            p.close()
    return MetaGameRecord(
        cfg,
        meta_rounds,
        (prov_a.describe(), prov_b.describe()),
        tuple(rounds),
    )


def check_judge_labels(sidecar: list, meta_rounds: int) -> None:
    """Check judge-label entries against a run of meta_rounds meta-rounds.

    Entries: {"meta_round": k, "player": "a"|"b", "labels": {feature: bool},
    "seed": s (optional)}.  Every entry is checked, whatever its seed: a
    malformed entry, an unknown feature, a meta_round outside 1..meta_rounds,
    or two entries for the same meta-round and player that would reach the
    same record (the same seed, or either without one) raise a MetaGameError
    naming the entries.
    """
    if not isinstance(sidecar, list):
        raise MetaGameError("the sidecar must be a list of entries")
    claimed: dict[tuple[int, str], dict[int | None, int]] = {}  # seed (None: any) -> entry
    for i, entry in enumerate(sidecar):
        if not isinstance(entry, dict):
            raise MetaGameError(f"judge entry {i} must be an object, got {entry!r}")
        k, player, labels = entry.get("meta_round"), entry.get("player"), entry.get("labels")
        if type(k) is not int:
            raise MetaGameError(f"judge entry {i} needs an integer meta_round, got {k!r}")
        if not 1 <= k <= meta_rounds:
            raise MetaGameError(f"judge entry {i} meta_round {k} is outside 1..{meta_rounds}")
        if not isinstance(player, str) or player.lower() not in ("a", "b"):
            raise MetaGameError(f"judge entry {i} has bad judge player {player!r}")
        if not isinstance(labels, dict):
            raise MetaGameError(f"judge entry {i} labels must be an object, got {labels!r}")
        for feature, value in labels.items():
            if feature not in JUDGE_FEATURES:
                raise MetaGameError(f"judge entry {i} has unknown judge feature {feature!r}")
            if type(value) is not bool:
                raise MetaGameError(
                    f"judge entry {i} feature {feature!r} must be true or false, got {value!r}"
                )
        seed = entry.get("seed")
        if "seed" in entry and type(seed) is not int:
            raise MetaGameError(f"judge entry {i} seed must be an integer, got {seed!r}")
        # the earlier entry reaching a record this one reaches, if any
        slot = claimed.setdefault((k, player.lower()), {})
        j = next(iter(slot.values()), None) if seed is None else slot.get(seed, slot.get(None))
        if j is not None:
            raise MetaGameError(
                f"judge entries {j} and {i} both label meta_round {k} player {player.lower()!r}"
            )
        slot[seed] = i


def merge_judge_labels(record: MetaGameRecord, sidecar: list) -> MetaGameRecord:
    """Attach externally produced judge labels to their meta-rounds, after
    check_judge_labels; an entry with a seed is attached only to the record
    whose config has that seed."""
    check_judge_labels(sidecar, record.meta_rounds)
    seed = record.config.seed
    by_round: dict[int, dict] = {}
    for entry in sidecar:
        if entry.get("seed", seed) == seed:
            labels = by_round.setdefault(entry["meta_round"], {})
            labels[entry["player"].lower()] = dict(entry["labels"])
    rounds = tuple(
        replace(r, judge_labels=by_round.get(r.meta_round, r.judge_labels))
        for r in record.rounds
    )
    return replace(record, rounds=rounds)
