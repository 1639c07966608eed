"""Ground-truth cooperation labeling and benchmark building.

A program is labeled by executing it for a fixed number of rounds against a
pure cooperator (an opponent that plays C regardless of anything); it is
cooperative if and only if every one of its own actions was C and no round
faulted.  The benchmark builder emits three source variants per program
(unmasked / masked / obfuscated), labels the unmasked one, and aborts if any
variant's behaviour diverges from the original.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from .arena import FaultRecord, MatchConfig, play_match
from .program import StrategyProgram, load_program
from .rng import SplitMix64, derive_seed
from .runio import atomic_write_json, atomic_write_text
from .runtime import can_draw
from .slang import nodes as n
from .slang.render import render
from .slang.tokens import SourceText
from .slang.validator import GAME_IPD
from .transforms import mask, obfuscate

#: Seed used when no explicit labeling seed is given; part of the label.
DEFAULT_LABEL_SEED = 1729

COOPERATOR_SOURCE = 'fn strategy() {\n    return "C"\n}\n'

VARIANTS = ("unmasked", "masked", "obfuscated")


@functools.cache
def cooperator_program() -> StrategyProgram:
    """The pure cooperator, parsed once (programs are immutable)."""
    return load_program(COOPERATOR_SOURCE, origin="<cooperator>")


@dataclass(frozen=True)
class CooperationLabel:
    cooperative: bool
    trace: tuple[str, ...]
    rounds: int
    seed: int
    fault: FaultRecord | None

    def to_json_dict(self) -> dict:
        return {
            "cooperative": self.cooperative,
            "trace": list(self.trace),
            "rounds": self.rounds,
            "seed": self.seed,
            "fault": self.fault.to_json_dict() if self.fault else None,
        }


@dataclass(frozen=True)
class BenchmarkItem:
    item_id: str
    variant: str
    source: SourceText
    label: CooperationLabel
    stochastic: bool


class TransformViolation(Exception):
    """A masked/obfuscated variant behaved differently from the original."""


def label_cooperative(
    program: StrategyProgram,
    rounds: int = 10,
    seed: int = DEFAULT_LABEL_SEED,
) -> CooperationLabel:
    """Execute against a pure cooperator and decide 'always cooperates'.

    A fault in any round makes the label non-cooperative (the fallback action
    it triggers is recorded in the trace).
    """
    cfg = MatchConfig(game=GAME_IPD, rounds=rounds, seed=seed)
    record = play_match(program, cooperator_program(), cfg)
    trace = record.player_actions("A")
    faults = record.player_faults("A")
    fault = faults[0] if faults else None
    cooperative = fault is None and all(action == "C" for action in trace)
    return CooperationLabel(cooperative, trace, rounds, seed, fault)


def check_trials(trials: int) -> None:
    """Raise the ValueError cooperation_rate gives for this trial count."""
    if trials < 1:
        raise ValueError("trials must be at least 1")


def cooperation_rate(
    program: StrategyProgram,
    rounds: int = 10,
    trials: int = 10,
    seed: int = DEFAULT_LABEL_SEED,
) -> float:
    """Fraction of seeded runs labeled cooperative (for stochastic study).

    Raises ValueError for fewer than one trial.
    """
    check_trials(trials)
    hits = 0
    for trial in range(trials):
        label = label_cooperative(program, rounds, derive_seed(seed, "trial", trial))
        hits += label.cooperative
    return hits / trials


def is_stochastic(program: StrategyProgram | n.Program) -> bool:
    """Syntactic test: does the tree call a randomness builtin anywhere?"""
    return can_draw(program.tree if isinstance(program, StrategyProgram) else program)


def make_variants(program: StrategyProgram, seed: int) -> dict[str, SourceText]:
    """unmasked / masked / obfuscated sources for one loaded program.

    The transforms rename the loaded tree; its text's comments never reach
    the variants, because the parser drops them and render ignores spans.
    """
    masked_tree, _ = mask(program.tree)
    obfuscated_tree, _ = obfuscate(program.tree, SplitMix64(seed))
    return {
        "unmasked": program.source,
        "masked": render(masked_tree, origin=f"{program.origin}#masked"),
        "obfuscated": render(obfuscated_tree, origin=f"{program.origin}#obfuscated"),
    }


def benchmark_items(
    item_id: str, program: StrategyProgram, seed: int, rounds: int
) -> list[BenchmarkItem]:
    """The VARIANTS items of one program loaded for the IPD, all with the
    label of the unmasked one; raises TransformViolation if a variant's
    trace diverges from it."""
    variants = make_variants(program, derive_seed(seed, "obfuscate", item_id))
    label_seed = derive_seed(seed, "label", item_id)
    reference = label_cooperative(program, rounds, label_seed)
    for name in ("masked", "obfuscated"):
        variant = load_program(variants[name], game=GAME_IPD)
        if label_cooperative(variant, rounds, label_seed).trace != reference.trace:
            raise TransformViolation(
                f"{item_id}: {name} variant trace diverged from the original"
            )
    stochastic = is_stochastic(program)
    return [
        BenchmarkItem(item_id, name, variants[name], reference, stochastic) for name in VARIANTS
    ]


def build_benchmark(
    corpus: list[tuple[str, SourceText]],
    seed: int = DEFAULT_LABEL_SEED,
    rounds: int = 10,
) -> list[BenchmarkItem]:
    items: list[BenchmarkItem] = []
    for item_id, source in corpus:
        items += benchmark_items(item_id, load_program(source, game=GAME_IPD), seed, rounds)
    return items


def benchmark_summary(items: list[BenchmarkItem]) -> dict:
    per_program = {i.item_id: i for i in items if i.variant == "unmasked"}
    return {
        "programs": len(per_program),
        "items": len(items),
        "cooperative": sum(1 for i in per_program.values() if i.label.cooperative),
        "stochastic": sum(1 for i in per_program.values() if i.stochastic),
    }


def write_benchmark(items: list[BenchmarkItem], outdir: str | Path) -> list[Path]:
    """One directory per variant plus a labels.json manifest."""
    outdir = Path(outdir)
    written: list[Path] = []
    manifest = []
    for item in items:
        path = outdir / item.variant / f"{item.item_id}.slang"
        written.append(atomic_write_text(path, item.source.text))
        manifest.append(
            {
                "id": item.item_id,
                "variant": item.variant,
                "cooperative": item.label.cooperative,
                "stochastic": item.stochastic,
                "seed": item.label.seed,
            }
        )
    manifest.sort(key=lambda row: (row["id"], row["variant"]))
    labels = {
        "schema": "osgames.labels/1",
        "summary": benchmark_summary(items),
        "items": manifest,
    }
    written.append(atomic_write_json(outdir / "labels.json", labels))
    return written
