"""Seeded NDJSON agent for the meta_coin_external workload.

Speaks the osgames external-provider protocol on its standard streams.  Each
meta-round it submits fresh coin-game text built from one of the coin corpus
programs: a header comment naming the player, round and seed, and every user
identifier renamed with a per-round suffix, so no two submissions share a
text.  The base programs take turns, so each seed plays the same pairings.  In
each block of ten meta-rounds exactly one submission (never that
of meta-round 1) is deliberately invalid: a parse error or a validation
error, alternately.  The agent never sleeps.  It records, for every propose
request after the first, the time between writing its previous reply and
receiving the request, and writes those samples to --out at shutdown.

The plan is a pure function of (seed, player, meta-round), so the benchmark
imports `proposal` to know the expected sources and invalid rounds.

    python3 agent.py --seed N --player a --corpus DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from pathlib import Path

BLOCK = 10
BASES = ("greedy_chaser", "lookahead", "random_walker")

# Names an identifier rename must leave alone: SLANG keywords, builtins,
# ambient bindings and the entry point.
_FIXED_NAMES = frozenset(
    "fn let if elif else while for in return and or not true false strategy "
    "len last count contains rand_int choice my_pos opp_pos my_coin opp_coin "
    "wrap_dist adjacent board_size my_history opp_history my_source opp_source "
    "round_index".split()
)
_TOKEN = re.compile(r'#[^\n]*|"(?:\\.|[^"\\])*"|[A-Za-z_][A-Za-z0-9_]*')


def load_bases(corpus_dir: str | Path) -> dict[str, str]:
    corpus_dir = Path(corpus_dir)
    return {name: (corpus_dir / f"{name}.slang").read_text(encoding="utf-8") for name in BASES}


def _rng(seed: int, player: str, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, player, *parts)))


def invalid_round(seed: int, player: str, block: int) -> int:
    """The one meta-round of a ten-round block whose submission is invalid."""
    first = block * BLOCK + 1
    return _rng(seed, player, "invalid", block).randint(max(first, 2), first + BLOCK - 1)


def base_for(seed: int, player: str, meta_round: int) -> str:
    """The bases in turn, from a seeded starting point shared by both players,
    with player b one step ahead, so every seed plays the same pairings."""
    phase = random.Random(f"{seed}:phase").randrange(len(BASES)) + (player == "b")
    return BASES[(meta_round + phase) % len(BASES)]


def rename_identifiers(text: str, suffix: str) -> str:
    def sub(match: re.Match) -> str:
        token = match.group(0)
        if token[0] in '#"' or token in _FIXED_NAMES:
            return token
        return f"{token}_{suffix}"

    return _TOKEN.sub(sub, text)


def proposal(seed: int, player: str, meta_round: int, bases: dict[str, str]) -> tuple[str, bool]:
    """(source, valid) that this agent submits in a meta-round (1-based)."""
    suffix = f"{player}{meta_round}"
    base = base_for(seed, player, meta_round)
    body = rename_identifiers(bases[base], suffix)
    text = f"# agent {player}, meta-round {meta_round}, seed {seed}, from {base}\n{body}"
    block = (meta_round - 1) // BLOCK
    if meta_round != invalid_round(seed, player, block):
        return text, True
    if block % 2 == 0:
        # Parse error: the last closing brace is missing.
        cut = text.rstrip().rfind("}")
        return text[:cut] + "\n", False
    # Validation error: a helper reads a variable nothing binds.
    return text + f"\nfn stray_{suffix}() {{\n    return unbound_{suffix}\n}}\n", False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--player", required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bases = load_bases(args.corpus)
    samples: list[float] = []
    replied_at: float | None = None
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    while True:
        line = stdin.readline()
        received_at = time.perf_counter()
        if not line:
            break
        message = json.loads(line)
        kind = message.get("type")
        if kind == "shutdown":
            break
        if kind == "hello":
            reply = {"type": "ready"}
        elif kind == "propose":
            if replied_at is not None:
                samples.append(received_at - replied_at)
            source, _ = proposal(args.seed, args.player, message["meta_round"], bases)
            reply = {"type": "program", "source": source}
        else:
            reply = {"type": "error", "detail": f"unknown message {kind!r}"}
        stdout.write((json.dumps(reply) + "\n").encode("utf-8"))
        stdout.flush()
        replied_at = time.perf_counter() if kind == "propose" else None
    Path(args.out).write_text(json.dumps(samples), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
