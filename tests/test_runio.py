"""The canonical-JSON writer against json.dumps, and the atomic file writes."""

from __future__ import annotations

import json
import math
import os
import random
import tracemalloc
from pathlib import Path

import pytest

from osgames.runio import atomic_write_bytes, atomic_write_json, canonical_json_bytes

GOLDEN = Path(__file__).parent / "golden"


def reference(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def outcome(fn, obj):
    """fn(obj), or the type and message of what it raised."""
    try:
        return fn(obj)
    except Exception as exc:  # any exception: its type and message are compared
        return type(exc), str(exc)


class Int(int):
    def __repr__(self):
        return "Int()"


class Str(str):
    pass


class Float(float):
    def __repr__(self):
        return "Float()"


TEXT = "aZ09 é中😀\"\\/\b\f\n\r\t\x00\x01\x1f\x7f ﻿"
FLOATS = (0.0, -0.0, 1.5, -2.25, 0.1, 1e16, 1e-7, 5e-324, 1.7976931348623157e308,
          math.nan, math.inf, -math.inf)
INTS = (0, 1, -1, 2**31, -(2**63), 2**64 + 1, 10**100, -(10**300))


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random):
    kind = rng.randrange(9)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return Str(random_text(rng))
    if kind == 2:
        return rng.choice(INTS) + rng.randrange(-3, 4)
    if kind == 3:
        return Int(rng.choice(INTS))
    if kind == 4:
        return rng.choice(FLOATS)
    if kind == 5:
        return Float(rng.choice(FLOATS))
    if kind == 6:
        return rng.choice((True, False))
    if kind == 7:
        return None
    return rng.randrange(2)  # an int beside the bools


def random_keys(rng: random.Random) -> list:
    """Keys one dict can hold and sort: all text, all numbers (with bools and
    nan among them), or a lone None."""
    count = rng.randrange(5)
    kind = rng.randrange(4)
    if kind <= 1:
        return [rng.choice((random_text(rng), Str(random_text(rng)))) for _ in range(count)]
    if kind == 2:
        numbers = INTS + FLOATS + (True, False, Int(7), Float(0.5))
        return [rng.choice(numbers) for _ in range(count)]
    return [None]


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5) if depth < 4 else 0
    if kind <= 1:
        return random_scalar(rng)
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {key: random_value(rng, depth + 1) for key in random_keys(rng)}


# eval_traces.json is not a record: tests/test_eval_traces.py writes it one
# trace per line
GOLDENS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "eval_traces.json")


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.name)
def test_golden_records_rewrite_to_their_own_bytes(path):
    blob = path.read_bytes()
    assert canonical_json_bytes(json.loads(blob)) == blob


def test_random_values_match_json_dumps():
    rng = random.Random(20261020)
    values = [random_value(rng) for _ in range(2500)]
    kinds = {type(v) for v in values}
    assert {str, int, float, bool, list, tuple, dict, Str, Int, Float, type(None)} <= kinds
    for value in values:
        assert outcome(canonical_json_bytes, value) == outcome(reference, value), value


def test_scalars_keys_and_nesting_match_json_dumps():
    values = [
        *FLOATS, *INTS, TEXT, Str(TEXT), Int(3), Float(-0.0), True, False, None,
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [1, True, 1.0, "1", None],
        {True: 1, 2: 2, 0.5: 3, math.nan: 4, -math.inf: 5, Int(9): 6, Float(2.5): 7},
        {None: [TEXT, (1, (2, [3]))]},
        {Str("b"): 1, "a": {"c": [(), {}, [[[[]]]]]}},
        [[i, [i] * i, {str(i): i}] for i in range(12)],
    ]
    for value in values:
        assert canonical_json_bytes(value) == reference(value), value


def _cycles():
    a: list = [1]
    a.append(a)
    d: dict = {"x": 1}
    d["self"] = d
    e: dict = {}
    e["list"] = [1, {"inner": e}]
    return [a, d, e, {"ok": [1], "z": a}]


ERRORS = [
    {(1, 2): 1},
    {"a": {b"k": 1}},
    {frozenset(): 1},
    *_cycles(),
    object(),
    [1, set()],
    {"a": 1, "b": b"bytes"},
    {"a": 1j},
    [object(), {(1,): 2}],  # the first error in output order wins
    {"z": object(), "a": {(1,): 2}},
    {"a": 1, 2: 2},  # str and int keys do not sort
    {None: 1, "a": 2},
    [10**5000],
]


@pytest.mark.parametrize("value", ERRORS, ids=range(len(ERRORS)))
def test_errors_match_json_dumps(value):
    expected = outcome(reference, value)
    assert isinstance(expected, tuple)
    assert outcome(canonical_json_bytes, value) == expected


@pytest.mark.parametrize("value", ["\ud800", {"k": ["ok", "x\udfff"]}, {"\ud83d": 1}])
def test_lone_surrogate_raises_unicode_encode_error(value):
    with pytest.raises(UnicodeEncodeError):
        reference(value)
    with pytest.raises(UnicodeEncodeError):
        canonical_json_bytes(value)


def big_record(turns: int) -> dict:
    """A meta-game-shaped record: many small dicts of short scalar lists."""
    return {
        "schema": "test/1",
        "rounds": [
            {
                "round": i,
                "actions": ["C", "D"],
                "deltas": [i % 5, 3],
                "events": [{"kind": "coin", "cell": [i % 7, i % 3], "by": "a"}],
                "note": f"turn {i} é",
            }
            for i in range(turns)
        ],
    }


def traced_peak(fn, obj) -> tuple[bytes, int]:
    tracemalloc.start()
    try:
        blob = fn(obj)
        return blob, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_peak_is_about_the_output():
    record = big_record(12_000)
    blob, peak = traced_peak(canonical_json_bytes, record)
    assert len(blob) >= 2 * 1024 * 1024
    assert blob == reference(record)
    assert peak <= 1.25 * len(blob) + 64 * 1024, (peak, len(blob))
    # the same measurement tells the two apart: json.dumps holds every chunk
    small = big_record(2_000)
    small_blob, dumps_peak = traced_peak(reference, small)
    assert dumps_peak > 3 * len(small_blob), (dumps_peak, len(small_blob))


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.name)
def test_atomic_write_json_writes_canonical_bytes(tmp_path, path):
    obj = json.loads(path.read_bytes())
    out = atomic_write_json(tmp_path / "deep" / "record.json", obj)
    assert out.read_bytes() == canonical_json_bytes(obj) == path.read_bytes()
    assert sorted(p.name for p in out.parent.iterdir()) == ["record.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_get_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        paths = [
            atomic_write_json(tmp_path / "a.json", {"a": 1}),
            atomic_write_bytes(tmp_path / "b.bin", b"b"),
        ]
    finally:
        os.umask(old)
    for path in paths:
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("bad", [{"a": 1, "b": object()}, [1, 2, {"x": {(1,): 1}}], "\ud800"])
def test_failed_write_leaves_no_file(tmp_path, bad):
    target = tmp_path / "out" / "record.json"
    with pytest.raises((TypeError, UnicodeEncodeError)):
        atomic_write_json(target, bad)
    assert list(target.parent.iterdir()) == []
    # an existing target keeps its bytes
    atomic_write_json(target, {"kept": True})
    with pytest.raises((TypeError, UnicodeEncodeError)):
        atomic_write_json(target, bad)
    assert target.read_bytes() == canonical_json_bytes({"kept": True})
    assert [p.name for p in target.parent.iterdir()] == ["record.json"]
