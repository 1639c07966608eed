"""Output checks for the three workloads.

Each check returns a list of failures, `(item, message)`, where `item` is
the index of the failed item (a match, a program or a meta-round) or None
when the whole round's output is wrong.  The checks use their own
reimplementations and the inputs' construction, not the engine's own
verdicts: the IPD corpus is replayed in plain Python, labels come from the
generator, and coin-game scores and positions are recomputed from the
recorded events and moves.
"""

from __future__ import annotations

import json
import re

import numpy as np

# --------------------------------------------------------------------------
# evolve_ipd

#: Row player's points for (my action, opponent action): T5 / R3 / P1 / S0.
PAYOFF = {("C", "C"): 3, ("C", "D"): 0, ("D", "C"): 5, ("D", "D"): 1}
FALLBACK = "D"
#: Corpus programs that draw random numbers; every other one is replayed below.
STOCHASTIC_IPD = frozenset({"generous_tft", "random_coinflip", "random_then_tft"})
SIMPLEX_TOL = 1e-9


def _mirror(opp):
    return "D" if opp[-1] == "D" else "C"


#: name -> f(my_history, opp_history, my_source, opp_source, round_index);
#: raising IndexError stands for the engine's index-out-of-range fault.
REFERENCE = {
    "allc": lambda me, opp, ms, os_, r: "C",
    "alld": lambda me, opp, ms, os_, r: "D",
    "alternator": lambda me, opp, ms, os_, r: "C" if r % 2 == 0 else "D",
    "counting_cooperator": lambda me, opp, ms, os_, r: "D" if opp.count("D") > 2 else "C",
    "delayed_defector": lambda me, opp, ms, os_, r: "C" if r < 5 else "D",
    "faulty_bot": lambda me, opp, ms, os_, r: _mirror(opp) if opp else _raise(),
    "grim": lambda me, opp, ms, os_, r: "D" if "D" in opp else "C",
    "grim_after_trigger": lambda me, opp, ms, os_, r: "D",
    "handshake": lambda me, opp, ms, os_, r: (
        "C" if r == 0 else "D" if r == 1 else "C" if opp[:2] == ["C", "D"] else "D"
    ),
    "hard_majority": lambda me, opp, ms, os_, r: (
        "D" if opp.count("D") >= opp.count("C") else "C"
    ),
    "pavlov": lambda me, opp, ms, os_, r: "C" if r == 0 or me[-1] == opp[-1] else "D",
    "prober": lambda me, opp, ms, os_, r: "D" if r == 0 else "C" if r < 3 else _mirror(opp),
    "similarity_tester": lambda me, opp, ms, os_, r: "C" if ms in os_ else "D",
    "soft_majority": lambda me, opp, ms, os_, r: (
        "D" if opp.count("D") > opp.count("C") else "C"
    ),
    "suspicious_tft": lambda me, opp, ms, os_, r: "D" if r == 0 else _mirror(opp),
    "tft": lambda me, opp, ms, os_, r: "C" if not me else _mirror(opp),
    "tit_for_two_tats": lambda me, opp, ms, os_, r: (
        "D" if opp[-2:] == ["D", "D"] else "C"
    ),
}


def _raise():
    raise IndexError("opp_history[-1] on an empty history")


def _act(name, me, opp, ms, os_, r) -> str:
    try:
        return REFERENCE[name](me, opp, ms, os_, r)
    except IndexError:
        return FALLBACK


def reference_score(name_a: str, name_b: str, text_a: str, text_b: str, rounds: int) -> int:
    """Row player's total in a match of two deterministic corpus programs."""
    ha: list[str] = []
    hb: list[str] = []
    total = 0
    for r in range(rounds):
        a = _act(name_a, ha, hb, text_a, text_b, r)
        b = _act(name_b, hb, ha, text_b, text_a, r)
        total += PAYOFF[(a, b)]
        ha.append(a)
        hb.append(b)
    return total


def reference_cells(tags, texts, rounds: int) -> dict[tuple[int, int], int]:
    """Expected score of every cell between two deterministic programs."""
    det = [i for i, tag in enumerate(tags) if tag not in STOCHASTIC_IPD]
    return {
        (i, j): reference_score(tags[i], tags[j], texts[i], texts[j], rounds)
        for i in det
        for j in det
    }


def check_evolve(means, expected_cells, final) -> list[tuple[int | None, str]]:
    n = len(means)
    failures: list[tuple[int | None, str]] = []
    for (i, j), want in expected_cells.items():
        if means[i][j] != want:
            failures.append((i * n + j, f"cell ({i},{j}) is {means[i][j]}, replay gives {want}"))
    x = np.asarray(final, dtype=float)
    if x.shape != (n,) or np.any(x < -SIMPLEX_TOL) or abs(x.sum() - 1.0) > SIMPLEX_TOL:
        failures.append((None, f"final population is off the simplex: sum {x.sum()!r}"))
    return failures


# --------------------------------------------------------------------------
# label_variants

_STRING = re.compile(r'"(?:\\.|[^"\\])*"')
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def identifiers_in(text: str) -> set[str]:
    return set(_IDENT.findall(_STRING.sub("", text)))


def check_label(
    programs, items, labels_json, reload, load_errors
) -> list[tuple[int | None, str]]:
    """programs: generator output; items: build_benchmark's output;
    labels_json: labels.json read back; reload(text) parses and validates
    text, raising one of load_errors, and returns render(parse(text)).
    """
    index = {p.item_id: k for k, p in enumerate(programs)}
    failures: list[tuple[int | None, str]] = []
    seen = set()
    for item in items:
        k = index.get(item.item_id)
        if k is None:
            failures.append((None, f"unknown item {item.item_id}"))
            continue
        program = programs[k]
        seen.add((item.item_id, item.variant))
        if item.label.cooperative != program.cooperative:
            failures.append((k, f"{item.item_id}/{item.variant}: label {item.label.cooperative}"))
        if item.stochastic != program.stochastic:
            failures.append((k, f"{item.item_id}/{item.variant}: stochastic {item.stochastic}"))
        text = item.source.text
        if item.variant == "unmasked":
            if text != program.text:
                failures.append((k, f"{item.item_id}: unmasked text differs from the input"))
            continue
        try:
            rendered = reload(text)
        except load_errors as exc:
            failures.append((k, f"{item.item_id}/{item.variant} does not load: {exc}"))
            continue
        if rendered != text:
            failures.append((k, f"{item.item_id}/{item.variant}: render(parse(v)) != v"))
        if item.variant == "obfuscated":
            kept = identifiers_in(text) & program.identifiers
            if kept:
                failures.append((k, f"{item.item_id}: obfuscated text keeps {sorted(kept)}"))
    for k, program in enumerate(programs):
        for variant in ("unmasked", "masked", "obfuscated"):
            if (program.item_id, variant) not in seen:
                failures.append((k, f"{program.item_id}/{variant} missing"))
    summary = labels_json.get("summary", {})
    want = {
        "programs": len(programs),
        "items": 3 * len(programs),
        "cooperative": sum(p.cooperative for p in programs),
        "stochastic": sum(p.stochastic for p in programs),
    }
    if summary != want:
        failures.append((None, f"labels.json summary {summary} != {want}"))
    for row in labels_json.get("items", []):
        k = index.get(row["id"])
        if k is None or row["cooperative"] != programs[k].cooperative:
            failures.append((k, f"labels.json row {row['id']}/{row['variant']} is wrong"))
    return failures


# --------------------------------------------------------------------------
# meta_coin_external

_MOVES = {"UP": (-1, 0), "DOWN": (1, 0), "LEFT": (0, -1), "RIGHT": (0, 1)}
_OWNER = {"red": 0, "blue": 1}


def check_coin_match(match: dict) -> list[str]:
    """Recompute deltas from events and positions from moves."""
    problems = []
    init = match["initial_state"]
    n = init["n"]
    pos = [tuple(init["pos_a"]), tuple(init["pos_b"])]
    sums = [0, 0]
    for step, turn in enumerate(match["turns"]):
        for p, move in enumerate(turn["actions"]):
            dr, dc = _MOVES[move]
            pos[p] = ((pos[p][0] + dr) % n, (pos[p][1] + dc) % n)
        deltas = [0, 0]
        for event in turn["events"]:
            collector = "AB".index(event["collector"])
            deltas[collector] += 1
            owner = _OWNER[event["color"]]
            if owner != collector:
                deltas[owner] -= 2
            if tuple(event["cell"]) != pos[collector] or event["step"] != step:
                problems.append(f"step {step}: event {event} not at collector {pos[collector]}")
        if deltas != turn["deltas"]:
            problems.append(f"step {step}: deltas {turn['deltas']}, events give {deltas}")
        sums[0] += deltas[0]
        sums[1] += deltas[1]
    if sums != match["totals"]:
        problems.append(f"totals {match['totals']}, events give {sums}")
    return problems


def check_meta(record: dict, planned, record_bytes: bytes) -> list[tuple[int | None, str]]:
    """planned[me][k - 1] = (source, valid) the agent submitted in meta-round k."""
    failures: list[tuple[int | None, str]] = []
    if json.loads(record_bytes.decode("utf-8")) != record:
        failures.append((None, "record JSON does not round-trip"))
    rounds = record["rounds"]
    if len(rounds) != len(planned[0]):
        failures.append((None, f"{len(rounds)} meta-rounds, {len(planned[0])} planned"))
        return failures
    previous = [None, None]
    for k, meta in enumerate(rounds):
        problems = [f"match: {p}" for p in check_coin_match(meta["match"])]
        invalid = 0
        for me in (0, 1):
            source, valid = planned[me][k]
            want = source if valid else previous[me]
            invalid += not valid
            if meta["sources"][me] != want:
                problems.append(f"player {me} source is not the {'planned' if valid else 'reused'} one")
            if meta["opponent_previous"][me] != previous[1 - me]:
                problems.append(f"player {me} saw the wrong opponent_previous")
        if len(meta["provider_faults"]) != invalid:
            problems.append(f"{len(meta['provider_faults'])} provider faults, {invalid} expected")
        failures.extend((k, f"meta-round {k + 1}: {p}") for p in problems)
        previous = list(meta["sources"])
    return failures
