"""Seeded generator of distinct IPD programs for the label_variants workload.

Every program wraps one base behaviour whose cooperation label against a
pure cooperator over ten rounds is known by construction, and mixes in one
to three helper functions, some called and some not, plus comments of
varied length.  A called helper only feeds a guard that can never fire, so
it adds work without changing the label.  Every text carries a unique tag
in its identifiers and its header comment, so no two texts are equal.

Base behaviours are dealt in shuffled blocks of the full list, so each batch
has the same mix of behaviours whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Rounds a label plays against the cooperator; labels below assume it.
LABEL_ROUNDS = 10


@dataclass(frozen=True)
class GeneratedProgram:
    item_id: str
    text: str
    cooperative: bool  # label by construction
    stochastic: bool  # calls a randomness builtin
    identifiers: frozenset[str]  # user identifiers (helpers, params, locals)


def _base(kind: str, rng: random.Random, t: str) -> tuple[list[str], bool, bool, set[str]]:
    """(strategy body lines, cooperative, stochastic, locals) of one behaviour."""
    if kind == "always_c":
        return ['return "C"'], True, False, set()
    if kind == "always_d":
        return ['return "D"'], False, False, set()
    if kind == "mirror":
        return [
            "if len(opp_history) == 0 {",
            '    return "C"',
            "}",
            'if opp_history[-1] == "D" {',
            '    return "D"',
            "}",
            'return "C"',
        ], True, False, set()
    if kind == "grim":
        return [
            'if count(opp_history, "D") > 0 {',
            '    return "D"',
            "}",
            'return "C"',
        ], True, False, set()
    if kind == "delayed":
        k = rng.randint(1, 2 * LABEL_ROUNDS)
        return [
            f"if round_index < {k} {{",
            '    return "C"',
            "}",
            'return "D"',
        ], k >= LABEL_ROUNDS, False, set()
    if kind == "periodic":
        period = rng.randint(2, 4)
        phase = rng.randint(1, period - 1)
        return [
            f"if round_index % {period} == {phase} {{",
            '    return "D"',
            "}",
            'return "C"',
        ], False, False, set()
    if kind == "faulting":
        # Reads the previous round before one happened: faults in round 0.
        name = f"previous_{t}"
        return [
            f"let {name} = opp_history[-1]",
            f'if {name} == "D" {{',
            '    return "D"',
            "}",
            'return "C"',
        ], False, False, {name}
    if kind == "lucky_c":
        hi = rng.randint(1, 9)
        return [
            f"if rand_int(0, {hi}) >= 0 {{",
            '    return "C"',
            "}",
            'return "D"',
        ], True, True, set()
    if kind == "coin_d":
        return ['return choice(["D", "D"])'], False, True, set()
    if kind == "reads_source":
        return [
            'if contains(opp_source, "strategy") {',
            '    return "C"',
            "}",
            'return "D"',
        ], True, False, set()
    if kind == "majority":
        d, c, i = f"defections_{t}", f"cooperations_{t}", f"index_{t}"
        return [
            f"let {d} = 0",
            f"let {c} = 0",
            f"let {i} = 0",
            f"while {i} < len(opp_history) {{",
            f'    if opp_history[{i}] == "D" {{',
            f"        {d} = {d} + 1",
            "    } else {",
            f"        {c} = {c} + 1",
            "    }",
            f"    {i} = {i} + 1",
            "}",
            f"if {d} > {c} {{",
            '    return "D"',
            "}",
            'return "C"',
        ], True, False, {d, c, i}
    raise ValueError(kind)


BASE_KINDS = (
    "always_c",
    "always_d",
    "mirror",
    "grim",
    "delayed",
    "periodic",
    "faulting",
    "lucky_c",
    "coin_d",
    "reads_source",
    "majority",
)


def _helper(kind: str, name: str, t: str) -> tuple[list[str], str, set[str]]:
    """(definition lines, guard that calls it and never fires, identifiers)."""
    v = f"v_{t}"
    if kind == "tally":
        xs, target, total, item = f"xs_{t}", f"target_{t}", f"total_{t}", f"item_{t}"
        lines = [
            f"fn {name}({xs}, {target}) {{",
            f"    let {total} = 0",
            f"    for {item} in {xs} {{",
            f"        if {item} == {target} {{",
            f"            {total} = {total} + 1",
            "        }",
            "    }",
            f"    return {total}",
            "}",
        ]
        return lines, f'{name}(opp_history, "D") < 0', {name, xs, target, total, item}
    if kind == "clamp":
        lo, hi = f"lo_{t}", f"hi_{t}"
        lines = [
            f"fn {name}({v}, {lo}, {hi}) {{",
            f"    if {v} < {lo} {{",
            f"        return {lo}",
            f"    }} elif {v} > {hi} {{",
            f"        return {hi}",
            "    }",
            f"    return {v}",
            "}",
        ]
        return lines, f"{name}(round_index, 0, 100) > 1000", {name, v, lo, hi}
    if kind == "window":
        xs, k = f"xs_{t}", f"k_{t}"
        lines = [
            f"fn {name}({xs}, {k}) {{",
            f"    if len({xs}) < {k} {{",
            f"        return {xs}",
            "    }",
            f"    return last({xs}, {k})",
            "}",
        ]
        return lines, f"len({name}(my_history, 3)) > 3", {name, xs, k}
    if kind == "repeat_add":
        a, b, acc, i = f"a_{t}", f"b_{t}", f"acc_{t}", f"i_{t}"
        lines = [
            f"fn {name}({a}, {b}) {{",
            f"    let {acc} = 0",
            f"    let {i} = 0",
            f"    while {i} < {b} {{",
            f"        {acc} = {acc} + {a}",
            f"        {i} = {i} + 1",
            "    }",
            f"    return {acc}",
            "}",
        ]
        return lines, f"{name}(round_index, 3) < 0", {name, a, b, acc, i}
    raise ValueError(kind)


HELPER_KINDS = ("tally", "clamp", "window", "repeat_add")

_WORDS = (
    "opening probe patience memory history mirror punish forgive defect "
    "cooperate round tally window guard budget signal trust reply"
).split()


def _comment(rng: random.Random) -> str:
    return "# " + " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 12)))


def generate(seed: int, batch: int, count: int) -> list[GeneratedProgram]:
    """`count` distinct programs for one batch; same (seed, batch) same texts."""
    rng = random.Random(f"label:{seed}:{batch}")
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(BASE_KINDS)
        rng.shuffle(block)
        kinds.extend(block)
    programs = []
    for index, kind in enumerate(kinds[:count]):
        t = f"b{batch}n{index}"
        item_id = f"prog_{batch:03d}_{index:04d}"
        body, cooperative, stochastic, identifiers = _base(kind, rng, t)
        helpers = rng.sample(HELPER_KINDS, 1 + index % 3)
        lines = [f"# generated {item_id} (seed {seed}): {kind}"]
        guards = []
        for h, helper_kind in enumerate(helpers):
            name = f"{helper_kind}_{h}_{t}"
            definition, guard, names = _helper(helper_kind, name, t)
            identifiers |= names
            if rng.random() < 0.4:
                lines.append(_comment(rng))
            lines.extend(definition)
            lines.append("")
            if h == 0 or rng.random() < 0.5:
                guards.append(guard)
        lines.append(_comment(rng))
        lines.append("fn strategy() {")
        for guard in guards:
            lines.extend([f"    if {guard} {{", '        return "D"', "    }"])
        lines.extend("    " + line for line in body)
        lines.append("}")
        programs.append(
            GeneratedProgram(
                item_id, "\n".join(lines) + "\n", cooperative, stochastic, frozenset(identifiers)
            )
        )
    return programs
