from __future__ import annotations

import copy
import sys

import pytest

from osgames.rng import SplitMix64
from osgames.runtime import (
    SHOW_LIMIT,
    Bindings,
    Budget,
    CoinView,
    FaultKind,
    RuntimeFault,
    evaluate,
)
from osgames.slang import parse_source


def run(src, env=Bindings(), budget=Budget(), seed=0):
    tree = parse_source(src)
    return evaluate(tree, env, budget, SplitMix64(seed))


def fault_of(src, env=Bindings(), budget=Budget()):
    with pytest.raises(RuntimeFault) as exc:
        run(src, env, budget)
    return exc.value


def test_allc_returns_c_with_small_step_count(allc):
    value, steps = evaluate(allc.tree, Bindings())
    assert value == "C"
    assert steps < 20


def test_tft_mirrors_last_opponent_action(tft):
    env = Bindings(
        my_history=("C", "C"), opp_history=("C", "D"), round_index=2
    )
    assert evaluate(tft.tree, env)[0] == "D"
    env = Bindings(
        my_history=("C", "D"), opp_history=("C", "C"), round_index=2
    )
    assert evaluate(tft.tree, env)[0] == "C"


def test_infinite_loop_hits_step_budget():
    src = "fn strategy() {\n    while true {\n    }\n}\n"
    fault = fault_of(src, budget=Budget(step_limit=500))
    assert fault.kind is FaultKind.STEP_BUDGET
    # the fault is attributed to the loop statement
    assert src[fault.span.start : fault.span.start + 5] == "while"


# "@" marks the statement that should carry the fault; it is cut before parsing.
@pytest.mark.parametrize(
    "marked, step_limit",
    [
        ("fn strategy() {\n    @while true {\n    }\n}\n", 500),
        ("fn strategy() {\n    if true {\n        @while true {\n        }\n    }\n}\n", 500),
        ("fn strategy() {\n    while true {\n        @while true {\n        }\n    }\n}\n", 500),
        ("fn strategy() {\n    for x in [1, 2] {\n        @while true {\n        }\n    }\n}\n",
         500),
        ("fn spin() {\n    @while true {\n    }\n}\nfn strategy() {\n    return spin()\n}\n", 500),
        # Steps: let, +, call, return, 1 inside one(); then the right operand
        # 1 is the sixth, past the limit of 5, after one() has returned.
        ("fn one() {\n    return 1\n}\n"
         "fn strategy() {\n    @let x = one() + 1\n    return \"C\"\n}\n", 5),
    ],
    ids=["loop", "if-body", "while-body", "for-body", "helper-body", "let-after-call"],
)
def test_step_budget_fault_lands_on_innermost_statement(marked, step_limit):
    src = marked.replace("@", "")
    fault = fault_of(src, budget=Budget(step_limit=step_limit))
    assert fault.kind is FaultKind.STEP_BUDGET
    assert fault.steps == step_limit + 1
    # the fault is attributed to the innermost statement running at the time
    assert fault.span.start == marked.index("@")


def test_budget_monotonicity():
    src = 'fn strategy() {\n    let x = 0\n    while x < 50 {\n        x = x + 1\n    }\n    return "C"\n}\n'
    tree = parse_source(src)
    value1, steps1 = evaluate(tree, Bindings(), Budget(step_limit=1000))
    value2, steps2 = evaluate(tree, Bindings(), Budget(step_limit=100_000))
    assert (value1, steps1) == (value2, steps2)


def test_call_depth_fault():
    src = "fn loop(x) {\n    return loop(x)\n}\nfn strategy() {\n    return loop(1)\n}\n"
    fault = fault_of(src, budget=Budget(call_depth_limit=16))
    assert fault.kind is FaultKind.CALL_DEPTH


def test_division_by_zero():
    assert fault_of("fn strategy() { return 1 / 0 }").kind is FaultKind.DIV_ZERO
    assert fault_of("fn strategy() { return 1 % 0 }").kind is FaultKind.DIV_ZERO


def test_index_out_of_range():
    fault = fault_of("fn strategy() { return opp_history[-1] }")
    assert fault.kind is FaultKind.INDEX_RANGE


def test_type_errors():
    assert fault_of('fn strategy() { return 1 + "a" }').kind is FaultKind.TYPE_ERROR
    assert fault_of("fn strategy() { if 1 { } return \"C\" }").kind is FaultKind.TYPE_ERROR
    assert fault_of('fn strategy() { return -"a" }').kind is FaultKind.TYPE_ERROR
    assert fault_of('fn strategy() { return true and 1 }').kind is FaultKind.TYPE_ERROR


# "«" and "»" mark the span that should carry the fault; they are cut before parsing.
@pytest.mark.parametrize(
    "marked, detail",
    [
        ("fn strategy() {\n    while «1» {\n    }\n}\n",
         "condition must be boolean, got integer"),
        ("fn strategy() {\n    let x = 1\n    while true {\n        x = «x + x»\n    }\n}\n",
         "integer magnitude cap (2^256) exceeded"),
        ("fn u() {\n    let x = 1\n}\nfn strategy() {\n    return «-u()»\n}\n",
         "unary '-' needs an integer, got unit"),
    ],
    ids=["while-condition", "plus-int-cap", "minus-unit"],
)
def test_type_fault_kind_span_and_detail(marked, detail):
    src = marked.replace("«", "").replace("»", "")
    fault = fault_of(src)
    assert fault.kind is FaultKind.TYPE_ERROR
    assert (fault.span.start, fault.span.end) == (marked.index("«"), marked.index("»") - 1)
    assert fault.detail == detail


def test_invalid_return():
    fault = fault_of('fn strategy() { return "X" }')
    assert fault.kind is FaultKind.INVALID_RETURN
    fault = fault_of("fn strategy() { return 3 }")
    assert fault.kind is FaultKind.INVALID_RETURN
    # falling off the end returns unit, which is never a legal action
    fault = fault_of("fn strategy() { let x = 1 }")
    assert fault.kind is FaultKind.INVALID_RETURN
    assert fault.detail == "strategy returned unit, expected one of ['C', 'D']"


def test_every_fault_carries_kind_and_span():
    cases = [
        "fn strategy() { return 1 / 0 }",
        "fn strategy() { return opp_history[5] }",
        'fn strategy() { return 1 + "a" }',
        "fn strategy() { while true { } }",
    ]
    for src in cases:
        fault = fault_of(src, budget=Budget(step_limit=200))
        assert isinstance(fault.kind, FaultKind)
        assert 0 <= fault.span.start <= fault.span.end <= len(src)


def test_list_length_cap():
    src = (
        "fn strategy() {\n"
        "    let xs = [1]\n"
        "    while true {\n"
        "        xs = xs + xs\n"
        "    }\n"
        "}\n"
    )
    fault = fault_of(src, budget=Budget(list_length_cap=256))
    assert fault.kind is FaultKind.TYPE_ERROR
    assert "list length cap" in fault.detail


def test_determinism_and_rng_draw_accounting():
    src = 'fn strategy() {\n    let a = rand_int(0, 9)\n    let b = rand_int(0, 9)\n    if a + b > 9 {\n        return "C"\n    }\n    return "D"\n}\n'
    tree = parse_source(src)
    r1, r2 = SplitMix64(5), SplitMix64(5)
    v1 = evaluate(tree, Bindings(), rng=r1)
    v2 = evaluate(tree, Bindings(), rng=r2)
    assert v1 == v2
    assert r1.draws == r2.draws >= 2
    # without an rng, a drawing program draws from a fixed stream
    assert evaluate(tree, Bindings()) == evaluate(tree, Bindings(), rng=SplitMix64(0))


def test_isolation_bindings_unchanged():
    env = Bindings(my_history=("C",), opp_history=("D",), round_index=1)
    before = copy.deepcopy(env)
    run(
        'fn strategy() {\n    let xs = my_history + opp_history\n    return "C"\n}\n',
        env,
    )
    assert env == before


def test_inconsistent_bindings_are_refused_on_every_read():
    tree = parse_source('fn strategy() {\n    return "C"\n}\n')
    env = Bindings(my_history=("C",), opp_history=("D",), round_index=1)
    assert type(env.my_history) is list  # a tuple becomes a list once
    assert evaluate(tree, env)[0] == "C"
    broken = [
        Bindings(my_history=("C",), opp_history=(), round_index=1),
        Bindings(my_history=("C",), opp_history=("D",), round_index=2),
        Bindings(game="coin"),
    ]
    env.my_history.append("C")  # a live binding that went out of step
    broken.append(env)
    for env in broken:
        with pytest.raises(ValueError):
            evaluate(tree, env)


def test_builtins():
    assert run('fn strategy() { if len(["C", "D"]) == 2 { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if contains("abc", "bc") { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if count(["C", "D", "C"], "C") == 2 { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if last([1, 2, 3], 2) == [2, 3] { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if last([1, 2], 5) == [1, 2] { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if len("abcd") == 4 { return "C" } return "D" }')[0] == "C"


def test_rand_int_golden_first_draw():
    # Pinned seed; first draw must be reproducible across runs and platforms.
    src = 'fn strategy() {\n    if rand_int(0, 3) == 1 {\n        return "C"\n    }\n    return "D"\n}\n'
    tree = parse_source(src)
    assert evaluate(tree, Bindings(), rng=SplitMix64(42))[0] == "C"  # draw = 1
    assert evaluate(tree, Bindings(), rng=SplitMix64(43))[0] == "D"


def test_string_and_pair_semantics():
    assert run('fn strategy() { if "ab" + "c" == "abc" { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { let p = (1, 2) if p[0] == 1 and p[1] == 2 { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if "abc"[1] == "b" { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if 7 / 2 == 3 and 7 % 2 == 1 { return "C" } return "D" }')[0] == "C"
    assert run('fn strategy() { if (0 - 7) / 2 == -4 { return "C" } return "D" }')[0] == "C"


def test_equality_across_types_is_false_not_fault():
    assert run('fn strategy() { if 1 == "1" { return "D" } return "C" }')[0] == "C"
    assert run('fn strategy() { if true == 1 { return "D" } return "C" }')[0] == "C"


def test_for_loop_and_helpers():
    src = """fn total(xs) {
    let acc = 0
    for x in xs {
        acc = acc + x
    }
    return acc
}

fn strategy() {
    if total([1, 2, 3, 4]) == 10 {
        return "C"
    }
    return "D"
}
"""
    assert run(src)[0] == "C"


def test_coin_view_builtins():
    view = CoinView((0, 0), (2, 2), (0, 1), (1, 0), 3)
    env = Bindings(game="coin", coin_view=view)
    src = """fn strategy() {
    if board_size() == 3 and wrap_dist(my_pos(), opp_pos()) == 2 {
        if my_coin() == (0, 1) and opp_coin() == (1, 0) {
            return "UP"
        }
    }
    return "DOWN"
}
"""
    assert run(src, env)[0] == "UP"


def test_adjacent_builtin_order_and_wrap():
    view = CoinView((0, 0), (2, 2), (0, 1), (1, 0), 3)
    env = Bindings(game="coin", coin_view=view)
    src = """fn strategy() {
    let moves = adjacent(my_pos())
    if moves[0] == ("UP", (2, 0)) and moves[3] == ("RIGHT", (0, 1)) {
        return "UP"
    }
    return "DOWN"
}
"""
    assert run(src, env)[0] == "UP"


def test_coin_move_legality():
    view = CoinView((0, 0), (2, 2), (0, 1), (1, 0), 3)
    env = Bindings(game="coin", coin_view=view)
    with pytest.raises(RuntimeFault) as exc:
        run('fn strategy() { return "C" }', env)
    assert exc.value.kind is FaultKind.INVALID_RETURN


def test_short_circuit():
    # the right side would fault; short-circuiting must skip it
    src = 'fn strategy() { if false and [1][5] == 1 { return "D" } return "C" }'
    assert run(src)[0] == "C"


def test_giant_rand_range_terminates():
    src = (
        "fn strategy() {\n"
        "    let x = rand_int(0, 99999999999999999999999999999)\n"
        '    if x >= 0 {\n        return "C"\n    }\n'
        '    return "D"\n'
        "}\n"
    )
    assert run(src, seed=3)[0] == "C"


def test_integer_magnitude_cap():
    # repeated squaring must fault instead of exhausting memory
    src = "fn strategy() {\n    let x = 999999999\n    while true {\n        x = x * x\n    }\n}\n"
    fault = fault_of(src)
    assert fault.kind is FaultKind.TYPE_ERROR
    assert "integer magnitude cap" in fault.detail
    # so must a directly written oversized literal
    fault = fault_of('fn strategy() { let x = 9' + "9" * 200 + ' return "C" }')
    assert "integer magnitude cap" in fault.detail


def test_string_length_cap():
    src = 'fn strategy() {\n    let s = "abcdefgh"\n    while true {\n        s = s + s\n    }\n}\n'
    fault = fault_of(src)
    assert fault.kind is FaultKind.TYPE_ERROR
    assert "string length cap" in fault.detail


def _recursion_through(k: int, shape: str) -> str:
    """f recurses through k levels of nesting; strategy calls f(70)."""
    if shape == "expr":
        body = "f(k - 1)"
        for _ in range(k):
            body = f"(0 + {body})"
        body = f"return {body}"
    else:
        body = "return f(k - 1)"
        for _ in range(k):
            body = f"if true {{\n{body}\n}}"
    return f"fn f(k) {{\n{body}\n}}\nfn strategy() {{\n    return f(70)\n}}\n"


@pytest.mark.parametrize("shape, cap", [("expr", 195), ("if", 99)])
def test_deepest_parsable_recursion_faults_at_call_depth(shape, cap):
    # The parser's nesting caps, times the call-depth budget, must fit in
    # the recursion headroom: the match logs a located fault instead of the
    # host raising RecursionError.
    from osgames.arena import MatchConfig, play_match
    from osgames.program import ProgramError, load_program

    with pytest.raises(ProgramError):
        load_program(_recursion_through(cap + 1, shape))
    src = _recursion_through(cap, shape)
    program = load_program(src)
    limit = sys.getrecursionlimit()
    record = None
    try:
        record = play_match(program, program, MatchConfig(rounds=1))
    except RecursionError:  # its traceback is too long to print
        pass
    assert record is not None, "host RecursionError instead of a fault"
    assert sys.getrecursionlimit() == limit
    assert [f.kind for f in record.faults] == ["call-depth-exceeded"] * 2
    start, end = record.faults[0].span
    assert src[start:end] == "f"
    # A larger call-depth budget gets a larger headroom.
    deep = src.replace("f(70)", "f(120)")
    fault = None
    try:
        run(deep, budget=Budget(call_depth_limit=100))
    except RuntimeFault as exc:
        fault = exc
    except RecursionError:
        pass
    assert fault is not None and fault.kind is FaultKind.CALL_DEPTH


def test_compiled_form_is_kept_per_tree_not_per_equal_tree():
    import pickle

    from osgames.runtime import can_draw

    src = "fn strategy() {\n    return opp_history[0]\n}\n"
    tree = parse_source(src)
    moved = parse_source("\n\n" + src)
    assert tree == moved  # node equality ignores spans
    starts = []
    for t in (tree, moved, tree):
        with pytest.raises(RuntimeFault) as exc:
            evaluate(t, Bindings())
        starts.append(exc.value.span.start)
    assert starts == [starts[0], starts[0] + 2, starts[0]]
    assert not can_draw(tree)
    assert can_draw(parse_source('fn strategy() { return choice(["C"]) }'))
    assert pickle.loads(pickle.dumps(tree)) == tree  # the cache is not pickled


def test_reads_opp_source_is_a_static_flag(comparator, ipd_corpus):
    from osgames.runtime import reads_opp_source

    corpus = dict(ipd_corpus)
    dead_branch = (
        "fn strategy() {\n    if false {\n        return opp_source\n    }\n"
        '    return "C"\n}\n'
    )
    own_source_only = (
        'fn strategy() {\n    if contains(my_source, "C") {\n        return "C"\n    }\n'
        '    return "D"\n}\n'
    )
    assert reads_opp_source(corpus["similarity_tester"].tree)
    assert reads_opp_source(comparator.tree)
    assert reads_opp_source(parse_source(dead_branch))
    assert not reads_opp_source(corpus["tft"].tree)
    assert not reads_opp_source(parse_source(own_source_only))
    assert run(dead_branch)[0] == "C"  # the dead read never runs


DEEP_VALUES = """fn strategy() {
    let xs = []
    let ys = []
    let i = 0
    while i < 3000 {
        xs = [xs]
        ys = [ys]
        i = i + 1
    }
    TAIL
}
"""


@pytest.mark.parametrize(
    "tail",
    [
        'if xs == xs and xs == ys and xs != [ys] and count([ys, xs], xs) == 2 {\n'
        '        return "C"\n    }\n    return "D"',
        "return xs",
    ],
    ids=["equality", "return"],
)
def test_deep_values_end_in_a_value_or_a_located_fault(tail):
    # Values nest as deep as the step budget allows, far past the recursion
    # headroom of call_depth_limit=1: equality and fault details must not
    # recurse on them.
    from osgames.arena import MatchConfig, play_match
    from osgames.program import load_program

    src = DEEP_VALUES.replace("TAIL", tail)
    program = load_program(src)
    record = None
    try:
        record = play_match(
            program, program, MatchConfig(rounds=1, budget=Budget(call_depth_limit=1))
        )
    except RecursionError:  # its traceback is too long to print
        pass
    assert record is not None, "host RecursionError instead of a value or a fault"
    if tail == "return xs":
        assert [f.kind for f in record.faults] == ["invalid-return"] * 2
        start, end = record.faults[0].span
        assert src[start:end] == "return xs"
        shown = ("[" * 3001 + "]" * 3001)[:SHOW_LIMIT] + "…"  # details are cut
        assert record.faults[0].detail == f"strategy returned {shown}, expected one of ['C', 'D']"
    else:
        assert record.faults == ()
        assert record.actions == (("C", "C"),)


def test_nested_value_details_read_like_host_reprs():
    src = (
        'fn u() {\n    let x = 1\n}\n'
        'fn strategy() {\n    return [("C", [true, 1]), [], [[u()]], (false, ("a", [])), "D"]\n}\n'
    )
    fault = fault_of(src)
    shown = repr([("C", [True, 1]), [], [["unit"]], (False, ("a", [])), "D"])
    shown = shown.replace("'unit'", "unit")
    assert fault.detail == f"strategy returned {shown}, expected one of ['C', 'D']"


def test_iterative_equality_and_details_match_recursive_references():
    import random

    from osgames.runtime import UNIT, _show, slang_eq

    def eq(a, b):  # the recursive definition
        if type(a) is not type(b):
            return False
        if type(a) is list:
            return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
        if type(a) is tuple:
            return eq(a[0], b[0]) and eq(a[1], b[1])
        return a == b

    def show(v):  # the host repr, except at the top
        if v is UNIT:
            return "unit"
        if type(v) is bool:
            return "true" if v else "false"
        return repr(v)

    r = random.Random(5)

    def value(depth):
        k = r.randrange(9 if depth < 4 else 5)
        if k < 5:
            return r.choice([0, 1, True, False, "C", "a'b", "", UNIT])
        if k < 7:
            return [value(depth + 1) for _ in range(r.randrange(4))]
        return (value(depth + 1), value(depth + 1))

    values = [value(0) for _ in range(500)]
    for _ in range(5000):
        a = r.choice(values)
        b = copy.deepcopy(a) if r.random() < 0.25 else r.choice(values)
        assert slang_eq(a, b) is eq(a, b), (a, b)
    for v in values:
        assert _show(v) == show(v), v


SIZED_VALUES = """fn strategy() {
    let xs = ["C"]
    let ys = ["C"]
    while len(xs) < 4096 {
        xs = xs + xs
        ys = ys + ys
    }
    let s = "x"
    let t = "x"
    while len(s) < 1048576 {
        s = s + s
        t = t + t
    }
    let probe = EXPR
    return "C"
}
"""


@pytest.mark.parametrize(
    "expr, baseline, extra",
    [
        ("xs == ys", "xs == 0", 64),  # 4,096 items; strings under 64 cost nothing
        ("[xs, xs] == [ys, ys]", "[xs, xs] == [0, 0]", 64),  # xs, ys visited once
        ("[s] == [t]", "[s] == [0]", 256),
        ("last(xs, 63) == last(ys, 63)", "last(xs, 63) == last(ys, 0)", 0),  # 4,095 units
        ("last(xs, 64) == last(ys, 64)", "last(xs, 64) == last(ys, 0)", 1 + 1),
        ("s == t", "s == 0", 256),
        ("s != t + \"\"", "s != 0 + 0", 256 + 256),
        ("xs + []", "xs == 0", 64),
        ("count(xs, \"C\")", "last(xs, 0)", 64),
        ("count(xs, 0)", "last(xs, 0)", 64),
        ("count([s, t, \"x\"], s)", "last([s, t, \"x\"], 0)", 2 * 256),
        ("contains(s, \"abc\")", "contains(\"\", \"abc\")", 256),
        ("last(xs, 5000)", "last(xs, 0)", 64),
    ],
)
def test_size_dependent_work_costs_a_step_per_64_items_or_4096_characters(
    expr, baseline, extra
):
    # The baseline has the same nodes, so it costs the same steps apart from
    # the size-dependent work.
    steps = [run(SIZED_VALUES.replace("EXPR", probe))[1] for probe in (expr, baseline)]
    assert steps[0] - steps[1] == extra


DOUBLING = """fn strategy() {
    let xs = ["C"]
    let s = "x"
    while len(xs) < 4096 {
        xs = xs + xs
    }
    while len(s) < 1048576 {
        s = s + s
    }
    while true {
        if xs == xs and contains(s, "abc") {
            return "D"
        }
    }
    return "C"
}
"""


def test_step_budget_bounds_wall_time_on_large_values():
    import time

    start = time.perf_counter()
    fault = fault_of(DOUBLING)
    assert fault.kind is FaultKind.STEP_BUDGET
    assert time.perf_counter() - start < 5.0  # one step per op took 10-30 s


SHARED_VALUES = """fn strategy() {
    let ys = ["C"]
    let zs = ["C"]
    let i = 0
    while i < 30 {
        ys = [ys, ys]
        zs = [zs, zs]
        i = i + 1
    }
    TAIL
}
"""


@pytest.mark.parametrize(
    "tail, expected",
    [
        ('if ys == zs and ys == ys and not (ys != zs) {\n        return "C"\n    }\n'
         '    return "D"', "C"),
        ('if count([ys, zs, ["C"]], zs) == 2 {\n        return "C"\n    }\n    return "D"',
         "C"),
        ("return ys", None),
    ],
    ids=["equality", "count", "return"],
)
def test_values_sharing_sublists_compare_and_print_in_bounded_time(tail, expected):
    # 2^30 leaves, 31 distinct lists: a walk that follows every reference
    # would never finish.
    import time

    src = SHARED_VALUES.replace("TAIL", tail)
    start = time.perf_counter()
    if expected is None:
        fault = fault_of(src)
        assert fault.kind is FaultKind.INVALID_RETURN
        shown = "[" * 31 + "'C'"
        assert fault.detail.startswith(f"strategy returned {shown}")
        assert fault.detail.endswith("…, expected one of ['C', 'D']")
        frame = "strategy returned , expected one of ['C', 'D']"
        assert len(fault.detail) == len(frame) + SHOW_LIMIT + 1
    else:
        assert run(src)[0] == expected
    assert time.perf_counter() - start < 1.0


def test_fault_details_are_bounded_in_match_records():
    from osgames.arena import MatchConfig, play_match
    from osgames.program import load_program
    from osgames.runio import canonical_json_bytes

    program = load_program(
        'fn strategy() {\n    let s = "x"\n    while len(s) < 1048576 {\n'
        '        s = s + s\n    }\n    return s\n}\n'
    )
    record = play_match(program, program, MatchConfig(rounds=20))
    assert [f.kind for f in record.faults] == ["invalid-return"] * 40
    assert record.faults[0].detail.startswith("strategy returned 'xxx")
    assert len(canonical_json_bytes(record.to_json_dict())) < 100_000
