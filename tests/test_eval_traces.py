"""Replay of pinned evaluation traces.

`tests/golden/eval_traces.json` holds, for a fixed set of cases, what one
evaluation produced: the value, steps and rng draws, or the fault's kind,
span, detail, steps and draws, or the host exception an unvalidated tree
raised.  It was written by the tree-walking evaluator that the closure
compiler in `osgames.runtime` replaced, so this test pins the compiler to
the walker's step charging, fault attribution and rng use.

The cases are the corpus programs under fixed bindings and budgets, plus
seeded random programs (rendered and reparsed, so their spans are real and
most of them do not validate).  `python tests/test_eval_traces.py --write`
rewrites the golden from whichever `osgames` is importable.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from osgames.fixtures import load_corpus_sources
from osgames.rng import SplitMix64
from osgames.runtime import Bindings, Budget, CoinView, RuntimeFault, evaluate
from osgames.slang import nodes as n
from osgames.slang import parse_source, render

GOLDEN = Path(__file__).parent / "golden" / "eval_traces.json"

CORPUS_BUDGETS = [Budget(step_limit=s) for s in (1, 3, 8, 50, 100_000)] + [
    Budget(call_depth_limit=1),
    Budget(call_depth_limit=2),
    Budget(list_length_cap=1),
]
FUZZ_BUDGETS = [
    Budget(step_limit=8),
    Budget(step_limit=50),
    Budget(step_limit=2000, call_depth_limit=4, list_length_cap=8),
]
FUZZ_PROGRAMS = 700
FUZZ_SEED = 5150

COOPERATOR = 'fn strategy() {\n    return "C"\n}\n'

#: Hand-written programs for rules random programs rarely reach: which
#: return a fault is located at, structural equality, count, call binding.
EDGE_SOURCES = [
    'fn f() {\n    return 3\n}\nfn strategy() {\n    return f()\n}\n',
    'fn f() {\n    return "C"\n}\nfn strategy() {\n    f()\n}\n',
    'fn g(k) {\n    if k == 0 {\n        return "X"\n    }\n    return g(k - 1)\n}\n'
    'fn strategy() {\n    let v = g(3)\n    if v == "X" {\n        return v\n    }\n'
    '    return "C"\n}\n',
    'fn strategy() {\n    if round_index > 99 {\n        return "C"\n    }\n'
    '    let s = strategy()\n    return s\n}\n',
    'fn strategy() {\n    let a = count([true, 1, 1, (1, 2), [1]], 1)\n'
    '    let b = count([[1], (1, 2), [1, 2]], [1])\n    let c = count(["C", "C", 1], "C")\n'
    '    if a == 2 and b == 1 and c == 2 {\n        return "C"\n    }\n    return "D"\n}\n',
    'fn u() {\n}\nfn strategy() {\n    if true == 1 or [1, true] != [1, true] {\n'
    '        return "D"\n    }\n    if (1, "a") != (1, "b") and u() == u() {\n'
    '        return "C"\n    }\n    return "D"\n}\n',
    'fn spin() {\n    while true {\n    }\n}\nfn strategy() {\n    while spin() {\n    }\n}\n',
    'fn first(xs) {\n    for x in xs {\n        if x > 1 {\n            return x\n        }\n'
    '    }\n    return 0\n}\nfn strategy() {\n    if first([0, 1, 5, 7]) == 5 {\n'
    '        return opp_history[-1]\n    }\n    return "D"\n}\n',
    'fn strategy() {\n    let s = "ab" + "c"\n    if s[-1] == "c" and contains(s, "bc") {\n'
    '        return last(my_history, 0) + last(opp_history, 99)\n    }\n    return "D"\n}\n',
    'fn strategy(a) {\n    return a\n}\n',
    'fn f(a, b) {\n    return b\n}\nfn strategy() {\n    return f("C")\n}\n',
    'fn f(a, b) {\n    return b\n}\nfn strategy() {\n    return f("C", "D", "C")\n}\n',
]
EDGE_BUDGETS = [Budget(), Budget(step_limit=8), Budget(step_limit=50), Budget(call_depth_limit=2)]


def _ipd_envs(text: str) -> list[Bindings]:
    long_a = tuple("CD"[i % 3 == 0] for i in range(40))
    long_b = tuple("CD"[i % 2] for i in range(40))
    return [
        Bindings(my_source=text, opp_source=text),
        Bindings(my_history=("C",), opp_history=("D",), my_source=text,
                 opp_source=COOPERATOR, round_index=1),
        Bindings(my_history=tuple("CCDCDD"), opp_history=tuple("CDDCCD"),
                 my_source=text, opp_source=text, round_index=6),
        Bindings(my_history=long_a, opp_history=long_b, my_source=text,
                 opp_source=COOPERATOR, round_index=40),
    ]


def _coin_envs(text: str) -> list[Bindings]:
    return [
        Bindings(game="coin", my_source=text, opp_source=text,
                 coin_view=CoinView((0, 0), (2, 2), (1, 0), (0, 2), 3)),
        Bindings(game="coin", my_history=("UP", "LEFT", "RIGHT"),
                 opp_history=("DOWN", "DOWN", "UP"), my_source=text,
                 opp_source=COOPERATOR, round_index=3,
                 coin_view=CoinView((4, 1), (0, 3), (4, 4), (2, 0), 5)),
    ]


# --------------------------------------------------------------------------
# seeded random programs


_LOCALS = ("a", "b", "c")
_AMBIENT = ("my_history", "opp_history", "round_index", "my_source", "opp_source")
_ACTIONS = ("C", "D", "UP", "DOWN", "LEFT", "RIGHT", "STAY")
_BINOPS = ("or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%")
_BUILTIN_ARITY = {
    "len": 1, "last": 2, "count": 2, "contains": 2, "rand_int": 2, "choice": 1,
    "my_pos": 0, "opp_pos": 0, "my_coin": 0, "opp_coin": 0, "wrap_dist": 2,
    "adjacent": 1, "board_size": 0,
}


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.funcs: dict[str, int] = {}

    def leaf(self) -> n.Expr:
        r = self.rng
        k = r.randrange(10)
        if k < 3:
            return n.IntLit(r.choice((7, 40, 2**300)) if k == 0 else r.randrange(6))
        if k < 5:
            return n.Var(r.choice(_LOCALS))
        if k < 7:
            return n.Var(r.choice(_AMBIENT))
        if k == 7:
            return n.StrLit(r.choice(_ACTIONS + ("ab", "")))
        if k == 8:
            return n.BoolLit(r.random() < 0.6)
        return n.Var("zz")  # never bound

    def call(self, depth: int) -> n.Call:
        r = self.rng
        k = r.randrange(10)
        if k < 6:
            name = r.choice(sorted(_BUILTIN_ARITY))
            arity = _BUILTIN_ARITY[name]
        elif k < 9 and self.funcs:
            name = r.choice(sorted(self.funcs))
            arity = self.funcs[name]
        else:
            name, arity = r.choice((("strategy", 0), ("h", 1)))  # "h" is unknown
        if r.random() < 0.25:
            arity = max(0, arity + r.choice((-1, 1)))
        return n.Call(name, tuple(self.expr(depth - 1) for _ in range(arity)))

    def expr(self, depth: int) -> n.Expr:
        """Mostly well-typed expressions, so runs get past their first node."""
        r = self.rng
        if r.random() < 0.5:
            return r.choice((self.int_expr, self.bool_expr, self.list_expr))(depth)
        if depth <= 0 or r.random() < 0.3:
            return self.leaf()
        k = r.randrange(11)
        if k < 4:
            return n.Binary(r.choice(_BINOPS), self.expr(depth - 1), self.expr(depth - 1))
        if k == 4:
            return n.Unary(r.choice(("-", "not")), self.expr(depth - 1))
        if k < 8:
            return self.call(depth)
        if k == 8:
            return n.Index(self.expr(depth - 1), self.expr(depth - 1))
        if k == 9:
            return n.ListLit(tuple(self.expr(depth - 1) for _ in range(r.randrange(4))))
        return n.PairLit(self.expr(depth - 1), self.expr(depth - 1))

    def int_expr(self, depth: int) -> n.Expr:
        r = self.rng
        k = r.randrange(9 if depth > 0 else 4)
        if k == 0:
            return n.IntLit(r.randrange(4))
        if k < 3:
            return n.Var(r.choice(_LOCALS + ("round_index",)))
        if k == 3:
            return n.Call("len", (n.Var(r.choice(("my_history", "opp_source"))),))
        if k < 6:
            op = r.choice(("+", "-", "*", "/", "%"))
            return n.Binary(op, self.int_expr(depth - 1), self.int_expr(depth - 1))
        if k == 6:
            return n.Unary("-", self.int_expr(depth - 1))
        if k == 7:
            return n.Call("rand_int", (self.int_expr(depth - 1), self.int_expr(depth - 1)))
        return n.Call("count", (self.list_expr(depth - 1), n.StrLit(r.choice("CD"))))

    def bool_expr(self, depth: int) -> n.Expr:
        r = self.rng
        k = r.randrange(7 if depth > 0 else 1)
        if k == 0:
            return n.BoolLit(r.random() < 0.5)
        if k < 3:
            op = r.choice(("==", "!=", "<", "<=", ">", ">="))
            return n.Binary(op, self.int_expr(depth - 1), self.int_expr(depth - 1))
        if k == 3:
            op = r.choice(("and", "or"))
            return n.Binary(op, self.bool_expr(depth - 1), self.bool_expr(depth - 1))
        if k == 4:
            return n.Unary("not", self.bool_expr(depth - 1))
        if k == 5:
            return n.Call("contains", (n.Var("opp_source"), n.StrLit(r.choice(("C", "fn", "zz")))))
        index = n.Index(n.Var(r.choice(("my_history", "opp_history"))), self.int_expr(depth - 1))
        return n.Binary("==", index, n.StrLit(r.choice("CD")))

    def list_expr(self, depth: int) -> n.Expr:
        r = self.rng
        k = r.randrange(5 if depth > 0 else 1)
        if k == 0:
            return n.Var(r.choice(("my_history", "opp_history")))
        if k == 1:
            return n.Call("last", (n.Var("opp_history"), self.int_expr(depth - 1)))
        if k == 2:
            return n.ListLit(tuple(self.int_expr(depth - 1) for _ in range(r.randrange(4))))
        if k == 3:
            return n.Binary("+", self.list_expr(depth - 1), self.list_expr(depth - 1))
        return n.ListLit((n.StrLit("C"), n.StrLit("D")))

    def action(self, depth: int) -> n.Expr:
        r = self.rng
        k = r.randrange(5)
        if k < 2:
            return n.StrLit(r.choice(_ACTIONS))
        if k == 2:
            return n.Call("choice", (self.list_expr(depth - 1),))
        if k == 3:
            return n.Index(n.Var("opp_history"), self.int_expr(depth - 1))
        return self.expr(depth)

    def block(self, depth: int, size: int) -> tuple[n.Stmt, ...]:
        return tuple(self.stmt(depth) for _ in range(size))

    def stmt(self, depth: int) -> n.Stmt:
        r = self.rng
        k = r.randrange(12 if depth > 0 else 6)
        if k < 2:
            return n.Let(r.choice(_LOCALS + ("my_history",) * (k == 1)), self.expr(2))
        if k == 2:
            return n.Assign(r.choice(_LOCALS), self.expr(2))
        if k == 3:
            return n.ExprStmt(self.expr(2))
        if k < 6:
            return n.Return(self.action(3))
        if k < 8:
            arms = tuple(
                (self.bool_expr(2), self.block(depth - 1, r.randrange(1, 3)))
                for _ in range(r.randrange(1, 3))
            )
            orelse = self.block(depth - 1, r.randrange(3)) if r.random() < 0.5 else None
            return n.If(arms, orelse)
        if k < 10:
            v = r.choice(_LOCALS)
            if r.random() < 0.7:  # a counting loop that usually terminates
                step = n.Assign(v, n.Binary("+", n.Var(v), n.IntLit(1)))
                cond = n.Binary("<", n.Var(v), n.IntLit(r.randrange(6)))
                return n.While(cond, self.block(depth - 1, r.randrange(2)) + (step,))
            return n.While(self.bool_expr(2), self.block(depth - 1, r.randrange(1, 3)))
        iterable = r.choice(
            (n.Var("my_history"), n.Call("adjacent", (n.Call("my_pos", ()),)),
             self.expr(2))
        )
        return n.For(r.choice(_LOCALS), iterable, self.block(depth - 1, r.randrange(1, 3)))

    def program(self) -> n.Program:
        r = self.rng
        self.funcs = {}
        helpers = []
        for name in ("f", "g")[: r.randrange(3)]:
            params = tuple(r.sample(_LOCALS, r.randrange(3)))
            self.funcs[name] = len(params)
            helpers.append((name, params))
        defs = [
            n.FuncDef(name, params, self.block(2, r.randrange(1, 4)))
            for name, params in helpers
        ]
        params = ("a",) if r.random() < 0.05 else ()
        prelude = (n.Let("a", n.IntLit(0)), n.Let("b", n.IntLit(1)), n.Let("c", n.IntLit(2)))
        body = prelude[: r.choice((0, 1, 2, 3, 3, 3))] + self.block(3, r.randrange(1, 5))
        defs.append(n.FuncDef("strategy", params, body))
        return n.Program(tuple(defs))


def fuzz_sources() -> list[str]:
    gen = _Gen(random.Random(FUZZ_SEED))
    return [render(gen.program()).text for _ in range(FUZZ_PROGRAMS)]


# --------------------------------------------------------------------------
# cases and outcomes


def cases():
    """(case id, tree, bindings, budget, rng seed), in a fixed order."""
    k = 0
    for game, make_envs in (("ipd", _ipd_envs), ("coin", _coin_envs)):
        for name, src in load_corpus_sources(game):
            tree = parse_source(src)
            for e, env in enumerate(make_envs(src.text)):
                for b, budget in enumerate(CORPUS_BUDGETS):
                    k += 1
                    yield f"{game}/{name}|e{e}|b{b}", tree, env, budget, 1000 + k
    for i, text in enumerate(EDGE_SOURCES):
        tree = parse_source(text)
        for e, env in enumerate((_ipd_envs(text)[2], _coin_envs(text)[1])):
            for b, budget in enumerate(EDGE_BUDGETS):
                k += 1
                yield f"edge/{i}|e{e}|b{b}", tree, env, budget, 1000 + k
    # The parser rejects a program without a strategy; build such trees.
    for name, src in load_corpus_sources("ipd")[:2]:
        tree = parse_source(src)
        headless = n.Program(tuple(d for d in tree.defs if d.name != n.ENTRY_POINT))
        k += 1
        yield f"headless/{name}", headless, _ipd_envs(src.text)[0], Budget(), 1000 + k
    for i, text in enumerate(fuzz_sources()):
        tree = parse_source(text)
        envs = (_ipd_envs(text)[2], _coin_envs(text)[1])
        for e, env in enumerate(envs):
            for b, budget in enumerate(FUZZ_BUDGETS):
                k += 1
                yield f"fuzz/{i}|e{e}|b{b}", tree, env, budget, 1000 + k


def outcome(tree, env, budget, seed) -> list:
    rng = SplitMix64(seed)
    try:
        value, steps = evaluate(tree, env, budget, rng)
    except RuntimeFault as fault:
        return ["fault", fault.kind.value, fault.span.start, fault.span.end,
                fault.detail, fault.steps, rng.draws]
    except Exception as exc:  # unvalidated trees may raise host errors
        return ["host", type(exc).__name__, str(exc), rng.draws]
    return ["ok", value, steps, rng.draws]


def fuzz_digest() -> str:
    return hashlib.sha256("\x00".join(fuzz_sources()).encode("utf-8")).hexdigest()


def write_golden() -> None:
    # One trace a line, so a changed outcome shows as a one-line diff.
    lines = ",\n".join(json.dumps([cid, outcome(*args)]) for cid, *args in cases())
    GOLDEN.write_text(
        f'{{"fuzz_sources_sha256": "{fuzz_digest()}",\n"traces": [\n{lines}\n]}}\n',
        encoding="utf-8",
    )


def test_compiled_evaluator_replays_walker_traces():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # The random programs must be the ones the golden was written from.
    assert golden["fuzz_sources_sha256"] == fuzz_digest()
    expected = dict(golden["traces"])
    assert len(expected) == len(golden["traces"])
    seen = 0
    for cid, *args in cases():
        assert outcome(*args) == expected[cid], cid
        seen += 1
    assert seen == len(expected)


def test_golden_covers_every_outcome_kind():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kinds = {(t[1][0], t[1][1] if t[1][0] != "ok" else "") for t in golden["traces"]}
    faults = {k for tag, k in kinds if tag == "fault"}
    assert faults == {
        "step-budget-exceeded", "call-depth-exceeded", "type-error",
        "division-by-zero", "index-out-of-range", "invalid-return",
    }
    hosts = {k for tag, k in kinds if tag == "host"}
    assert {"KeyError", "AssertionError", "ValueError", "IndexError"} <= hosts
    assert any(t[1][0] == "ok" and t[1][3] > 0 for t in golden["traces"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_eval_traces.py --write")
    write_golden()
