"""Seeded mutation fuzz of the SLANG front end.

Programs come from outside the repo, so any text must either load or fail
with a located ProgramError, never with a host exception.  Each case
inserts a few hostile fragments into a corpus program: numerals that are
not decimal digits, digit runs past the literal cap, stray backslashes and
quotes, and deep prefix chains.
"""

from __future__ import annotations

import random
import re

from osgames.fixtures import load_corpus_sources
from osgames.program import ProgramError, load_program
from osgames.slang.parser import MAX_INT_DIGITS
from osgames.slang.validator import GAME_COIN, GAME_IPD

FRAGMENTS = [
    "²", "½", "٣", "1²", "x½", "٣٣",
    "9" * (MAX_INT_DIGITS + 1), "8" * MAX_INT_DIGITS, "7" * 5000,
    "\\", '"', "\\\n", '"\\', '"\\q"',
    "not " * 300, "-" * 300, "[" * 300, "not -" * 150, "(" * 300,
]
CASES = 1500
LOCATED = re.compile(r"^\S+:\d+:\d+: ", re.MULTILINE)


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
    return text


def test_mutated_programs_load_or_fail_located():
    sources = [
        (src.text, game)
        for subdir, game in (("ipd", GAME_IPD), ("coin", GAME_COIN))
        for _, src in load_corpus_sources(subdir)
    ]
    rng = random.Random(9)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(CASES):
        text, game = rng.choice(sources)
        try:
            load_program(mutate(rng, text), game=game)
        except ProgramError as exc:
            assert LOCATED.match(str(exc)), str(exc)
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    # the fuzz must exercise both outcomes to mean anything
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > CASES // 2
