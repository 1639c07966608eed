"""Deterministic evaluator with resource budgets.

A program is run once per round against a set of ambient bindings (its own
and the opponent's history and source, the round index, and for the grid
game a positional view).  Evaluation is pure: identical (tree, bindings,
budget, rng seed) always produce the identical value, step count and draws,
and nothing in the bindings can be mutated from inside the language.

SLANG values map to Python values: integers/booleans/strings to themselves,
lists to Python lists (never mutated), pairs to 2-tuples, and a unit
singleton for functions that fall off the end.

A tree is compiled once, on its first evaluation, into nested Python
closures with operator dispatch, call targets and builtins resolved; the
compiled form is kept on the tree object and reused for every later round.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

from . import games
from .games import CoinView
from ._stack import stack_headroom
from .rng import SplitMix64
from .slang import nodes as n
from .slang.parser import MAX_TREE_DEPTH
from .slang.tokens import Span
from .slang.validator import AMBIENT_BINDINGS, BUILTINS, GAME_COIN, GAME_IPD


#: Magnitude caps on produced values; they exist to stop exponential-growth
#: bombs (repeated squaring / string doubling) that would otherwise blow up
#: memory within a handful of budgeted steps.  Generous enough that no sane
#: strategy arithmetic gets near them.
MAX_INT_BITS = 256
MAX_STRING_LENGTH = 1 << 20


@dataclass(frozen=True)
class Budget:
    step_limit: int = 100_000
    call_depth_limit: int = 64
    list_length_cap: int = 4096

    def __post_init__(self):
        if self.step_limit <= 0 or self.call_depth_limit <= 0 or self.list_length_cap <= 0:
            raise ValueError("budget limits must be strictly positive")


class FaultKind(Enum):
    STEP_BUDGET = "step-budget-exceeded"
    CALL_DEPTH = "call-depth-exceeded"
    TYPE_ERROR = "type-error"
    DIV_ZERO = "division-by-zero"
    INDEX_RANGE = "index-out-of-range"
    INVALID_RETURN = "invalid-return"


class RuntimeFault(Exception):
    def __init__(self, kind: FaultKind, span: Span, detail: str, steps: int = 0):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.span = span
        self.detail = detail
        self.steps = steps


@dataclass
class Bindings:
    """What a program reads.  evaluate reads the histories in place, so a
    match keeps one binding per player and only advances it between rounds;
    evaluate checks it on every read."""

    game: str = GAME_IPD
    my_history: list[str] = ()  # a non-list sequence becomes a list
    opp_history: list[str] = ()
    my_source: str = ""
    opp_source: str = ""
    round_index: int = 0
    coin_view: CoinView | None = None

    def __post_init__(self):
        if type(self.my_history) is not list:
            self.my_history = list(self.my_history)
        if type(self.opp_history) is not list:
            self.opp_history = list(self.opp_history)


class _Unit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unit"


UNIT = _Unit()


def type_name(value) -> str:
    if type(value) is bool:
        return "boolean"
    if type(value) is int:
        return "integer"
    if type(value) is str:
        return "string"
    if type(value) is list:
        return "list"
    if type(value) is tuple:
        return "pair"
    if value is UNIT:
        return "unit"
    return type(value).__name__


def slang_eq(a, b, ctx: _Ctx | None = None) -> bool:
    """Structural equality; values of different types are simply unequal.

    Iterative, so values of any nesting compare without host recursion, and
    each pair of lists or pairs is visited once however often the values
    share it (and not at all if both are the same object), so sharing
    cannot make a comparison exponential.  With an
    evaluation's ctx it adds its work to ctx.work, the tally its caller
    started, and charges it as it goes.
    """
    if ctx is None:
        ctx = _Ctx()
        ctx.left = math.inf
        ctx.work = 0
    pending = [(a, b)]
    seen = set()
    while pending:
        a, b = pending.pop()
        kind = type(a)
        if kind is not type(b):
            return False
        if a is b:  # no value can differ from itself
            continue
        if kind is list or kind is tuple:
            if len(a) != len(b):
                return False
            ctx.work += len(a) * _ITEM_WORK
            if ctx.work >= _STEP_WORK:
                _charge_tally(ctx)
            for x, y in zip(a, b):
                item = type(x)
                if item is not type(y):
                    return False
                if item is str:
                    if len(x) >= _ITEM_WORK and len(x) == len(y):
                        ctx.work += len(x)  # shorter ones cost less than their item
                        if ctx.work >= _STEP_WORK:
                            _charge_tally(ctx)
                    if x != y:
                        return False
                elif item is list or item is tuple:
                    if x is not y and (id(x), id(y)) not in seen:
                        seen.add((id(x), id(y)))
                        pending.append((x, y))
                elif x != y:
                    return False
        elif a != b:
            return False
    return True


# --------------------------------------------------------------------------
# compilation
#
# Each tree is compiled once into Python closures, cached on the tree object
# itself (never keyed by node equality, which ignores spans).  A closure
# takes (ctx, frame): the per-evaluation state and the current function's
# variables.  Every expression closure charges one step before its
# sub-expressions, and every loop one more step after each iteration.  A
# block runs its statements: it charges each one step before running it, and
# locates a step past the budget, wherever it is raised, at the statement
# it was running; so the innermost running statement carries the fault.
# Other faults carry the steps charged so far.  Statement closures return
# None, or the value of a `return` they executed.


class _OutOfSteps(Exception):
    """A step past the budget; the block running the innermost statement
    locates it there."""


class _Ctx:
    """The mutable state of one evaluation."""

    __slots__ = ("left", "limit", "calls_left", "depth_limit", "list_cap", "rng", "env",
                 "ret_span", "work")


#: Size-dependent work (docs/slang.md): operations whose host cost grows with
#: their values charge one step per _STEP_WORK units on top of their own
#: step, rounded down, where a character is one unit and a list or pair item
#: _ITEM_WORK units: a step per 4,096 characters or 64 items.  Smaller
#: values cost nothing extra.
_STEP_WORK = 4096
_ITEM_WORK = 64
_STEP_ITEMS = _STEP_WORK // _ITEM_WORK


def _charge(ctx: _Ctx, work: int) -> None:
    ctx.left -= work // _STEP_WORK
    if ctx.left < 0:
        raise _OutOfSteps


def _charge_tally(ctx: _Ctx) -> None:
    """Charge the whole steps of ctx.work, the running tally of an operation
    that works in parts (a comparison, a count), and keep the rest."""
    _charge(ctx, ctx.work)
    ctx.work %= _STEP_WORK


def _fault(ctx: _Ctx, kind: FaultKind, span: Span, detail: str):
    raise RuntimeFault(kind, span, detail, steps=ctx.limit - ctx.left)


def _out_of_steps(ctx: _Ctx, span: Span) -> RuntimeFault:
    return RuntimeFault(
        FaultKind.STEP_BUDGET, span, f"exceeded {ctx.limit} steps", steps=ctx.limit + 1
    )


def _type_fault(ctx: _Ctx, span: Span, detail: str):
    _fault(ctx, FaultKind.TYPE_ERROR, span, detail)


#: |value| at or above this exceeds MAX_INT_BITS.
_INT_LIMIT = 1 << MAX_INT_BITS


def _int_cap_fault(ctx: _Ctx, span: Span):
    _type_fault(ctx, span, f"integer magnitude cap (2^{MAX_INT_BITS}) exceeded")


def _list_cap_fault(ctx: _Ctx, span: Span):
    _type_fault(ctx, span, f"list length cap {ctx.list_cap} exceeded")


def _no_op(ctx, frame):
    return None


class _Function:
    __slots__ = ("params", "span", "body")

    def __init__(self, d: n.FuncDef):
        self.params = d.params
        self.span = d.span
        self.body = _no_op  # set once every function is known (recursion)


class _Compiled:
    """A tree compiled to closures: its functions by name, and whether it
    calls a randomness builtin or reads opp_source anywhere."""

    def __init__(self, tree: n.Program):
        self.functions = {d.name: _Function(d) for d in tree.defs}
        self.can_draw = False
        self.reads_opp_source = False
        for d in tree.defs:  # of duplicate names the last wins, body too
            self.functions[d.name].body = self.block(d.body)

    # -- statements -----------------------------------------------------------

    def block(self, stmts: n.Block):
        run = tuple((_STATEMENTS[type(s)](self, s), s.span) for s in stmts)

        def block(ctx, frame):
            try:
                for stmt, span in run:
                    ctx.left -= 1
                    if ctx.left < 0:
                        raise _OutOfSteps
                    value = stmt(ctx, frame)
                    if value is not None:
                        return value
            except _OutOfSteps:
                raise _out_of_steps(ctx, span) from None
            return None

        return block

    def expr_stmt(self, stmt: n.ExprStmt):
        value = self.expr(stmt.value)

        def expr_stmt(ctx, frame):
            value(ctx, frame)

        return expr_stmt

    def let(self, stmt: n.Let):
        name = stmt.name
        value = self.expr(stmt.value)

        def let(ctx, frame):
            frame[name] = value(ctx, frame)

        return let

    def assign(self, stmt: n.Assign):
        name = stmt.name
        name_span = stmt.name_span
        value = self.expr(stmt.value)

        def assign(ctx, frame):
            result = value(ctx, frame)
            if name not in frame:
                _type_fault(ctx, name_span, f"assignment to unbound variable '{name}'")
            frame[name] = result

        return assign

    def return_(self, stmt: n.Return):
        span = stmt.span
        value = self.expr(stmt.value)

        def return_(ctx, frame):
            result = value(ctx, frame)
            # The last return to finish is the strategy's own, if it has one.
            ctx.ret_span = span
            return result

        return return_

    def if_(self, stmt: n.If):
        arms = tuple(
            (self.expr(cond), cond.span, self.block(body))
            for cond, body in stmt.arms
        )
        orelse = _no_op if stmt.orelse is None else self.block(stmt.orelse)

        def if_(ctx, frame):
            for cond, cond_span, body in arms:
                test = cond(ctx, frame)
                if test is True:
                    return body(ctx, frame)
                if test is not False:
                    _condition_fault(ctx, cond_span, test)
            return orelse(ctx, frame)

        return if_

    def while_(self, stmt: n.While):
        cond = self.expr(stmt.cond)
        cond_span = stmt.cond.span
        body = self.block(stmt.body)

        def while_(ctx, frame):
            while True:
                test = cond(ctx, frame)
                if test is not True:
                    if test is False:
                        return None
                    _condition_fault(ctx, cond_span, test)
                result = body(ctx, frame)
                if result is not None:
                    return result
                ctx.left -= 1
                if ctx.left < 0:
                    raise _OutOfSteps

        return while_

    def for_(self, stmt: n.For):
        var = stmt.var
        iterable = self.expr(stmt.iterable)
        iterable_span = stmt.iterable.span
        body = self.block(stmt.body)

        def for_(ctx, frame):
            items = iterable(ctx, frame)
            if type(items) is not list:
                detail = f"for-in expects a list, got {type_name(items)}"
                _type_fault(ctx, iterable_span, detail)
            for item in items:
                frame[var] = item
                result = body(ctx, frame)
                if result is not None:
                    return result
                ctx.left -= 1
                if ctx.left < 0:
                    raise _OutOfSteps
            return None

        return for_

    # -- expressions ------------------------------------------------------------

    def expr(self, expr: n.Expr):
        kind = type(expr)
        if kind is n.IntLit:
            if expr.value.bit_length() > MAX_INT_BITS:
                return self.int_cap_fault(expr.span)
            return _constant(expr.value)
        if kind is n.StrLit or kind is n.BoolLit:
            return _constant(expr.value)
        if kind is n.Var:
            self.reads_opp_source = self.reads_opp_source or expr.name == "opp_source"
            return _variable(expr.name, expr.span)
        if kind is n.ListLit:
            return self.list_lit(expr)
        if kind is n.PairLit:
            return self.pair_lit(expr)
        if kind is n.Unary:
            return self.unary(expr)
        if kind is n.Binary:
            return self.binary(expr)
        if kind is n.Index:
            return self.index(expr)
        if kind is n.Call:
            return self.call(expr)
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

    def int_cap_fault(self, span: Span):
        def int_cap_fault(ctx, frame):
            ctx.left -= 1
            if ctx.left < 0:
                raise _OutOfSteps
            _int_cap_fault(ctx, span)

        return int_cap_fault

    def list_lit(self, expr: n.ListLit):
        items = tuple(self.expr(item) for item in expr.items)
        span = expr.span

        def list_lit(ctx, frame):
            ctx.left -= 1
            if ctx.left < 0:
                raise _OutOfSteps
            values = []
            for item in items:
                values.append(item(ctx, frame))
            if len(values) > ctx.list_cap:
                _list_cap_fault(ctx, span)
            return values

        return list_lit

    def pair_lit(self, expr: n.PairLit):
        first = self.expr(expr.first)
        second = self.expr(expr.second)

        def pair_lit(ctx, frame):
            ctx.left -= 1
            if ctx.left < 0:
                raise _OutOfSteps
            return (first(ctx, frame), second(ctx, frame))

        return pair_lit

    def unary(self, expr: n.Unary):
        operand = self.expr(expr.operand)
        span = expr.span
        if expr.op == "-":

            def negate(ctx, frame):
                ctx.left -= 1
                if ctx.left < 0:
                    raise _OutOfSteps
                value = operand(ctx, frame)
                if type(value) is not int:
                    detail = f"unary '-' needs an integer, got {type_name(value)}"
                    _type_fault(ctx, span, detail)
                return -value

            return negate

        def not_(ctx, frame):
            ctx.left -= 1
            if ctx.left < 0:
                raise _OutOfSteps
            value = operand(ctx, frame)
            if value is False:
                return True
            if value is not True:
                _type_fault(ctx, span, f"'not' needs a boolean, got {type_name(value)}")
            return False

        return not_

    def binary(self, expr: n.Binary):
        op = expr.op
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if op in ("and", "or"):
            return _logic(op, left, right, expr.left.span, expr.right.span)
        if op in ("==", "!="):
            return _equality(op == "!=", left, right)
        if op == "+":
            return _plus(left, right, expr.span)
        if op in _INTEGER_OPS:
            return _integer_op(op, left, right, expr.span)
        raise TypeError(f"unknown operator {op!r}")  # pragma: no cover

    def index(self, expr: n.Index):
        base = self.expr(expr.base)
        index = self.expr(expr.index)
        span = expr.span
        index_span = expr.index.span

        def index_(ctx, frame):
            ctx.left -= 1
            if ctx.left < 0:
                raise _OutOfSteps
            seq = base(ctx, frame)
            i = index(ctx, frame)
            if type(i) is not int:
                _type_fault(ctx, index_span, f"index must be an integer, got {type_name(i)}")
            kind = type(seq)
            if kind is not list and kind is not str and kind is not tuple:
                _type_fault(ctx, span, f"cannot index into {type_name(seq)}")
            try:
                return seq[i]
            except IndexError:
                detail = f"index {i} out of range for length {len(seq)}"
                _fault(ctx, FaultKind.INDEX_RANGE, span, detail)

        return index_

    def call(self, expr: n.Call):
        args = tuple(self.expr(a) for a in expr.args)
        fn = self.functions.get(expr.name)
        if fn is not None:
            return _user_call(fn, args, expr.name_span)
        builtin = _BUILTIN_IMPLS.get(expr.name)
        if builtin is not None:
            self.can_draw = self.can_draw or BUILTINS[expr.name].stochastic
            return _builtin_call(builtin, args, expr.span)
        return _unknown_call(expr.name, args, expr.name_span)


#: The compiler of each statement class.
_STATEMENTS = {
    n.Let: _Compiled.let, n.Assign: _Compiled.assign, n.Return: _Compiled.return_,
    n.ExprStmt: _Compiled.expr_stmt, n.If: _Compiled.if_, n.While: _Compiled.while_,
    n.For: _Compiled.for_,
}


def _condition_fault(ctx: _Ctx, span: Span, value):
    _type_fault(ctx, span, f"condition must be boolean, got {type_name(value)}")


def _constant(value):
    def constant(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        return value

    return constant


def _variable(name: str, span: Span):
    if name in AMBIENT_BINDINGS:
        ambient = operator.attrgetter(name)

        def ambient_var(ctx, frame):
            ctx.left -= 1
            if ctx.left < 0:
                raise _OutOfSteps
            if name in frame:  # only an unvalidated tree binds an ambient name
                return frame[name]
            return ambient(ctx.env)

        return ambient_var

    def local_var(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        try:
            return frame[name]
        except KeyError:
            pass
        _type_fault(ctx, span, f"unbound variable '{name}'")

    return local_var


def _logic(op: str, left, right, left_span: Span, right_span: Span):
    decides = op == "or"  # the left value that settles the result alone
    continues = not decides

    def logic(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        value = left(ctx, frame)
        if value is decides:
            return value
        if value is not continues:
            _type_fault(ctx, left_span, f"'{op}' needs booleans, got {type_name(value)}")
        value = right(ctx, frame)
        if type(value) is not bool:
            _type_fault(ctx, right_span, f"'{op}' needs booleans, got {type_name(value)}")
        return value

    return logic


def _plus(left, right, span: Span):
    def plus(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        a = left(ctx, frame)
        b = right(ctx, frame)
        kind = type(a)
        if kind is type(b):
            if kind is int:
                value = a + b
                if value >= _INT_LIMIT or value <= -_INT_LIMIT:
                    _int_cap_fault(ctx, span)
                return value
            if kind is str:
                size = len(a) + len(b)
                if size > MAX_STRING_LENGTH:
                    _type_fault(ctx, span, f"string length cap {MAX_STRING_LENGTH} exceeded")
                if size >= _STEP_WORK:
                    _charge(ctx, size)
                return a + b
            if kind is list:
                value = a + b
                if len(value) > ctx.list_cap:
                    _list_cap_fault(ctx, span)
                if len(value) >= _STEP_ITEMS:
                    _charge(ctx, len(value) * _ITEM_WORK)
                return value
        _type_fault(ctx, span, f"'+' cannot combine {type_name(a)} and {type_name(b)}")

    return plus


#: Integer-only operators: (function, zero-divisor fault detail, capped).
_INTEGER_OPS = {
    "-": (operator.sub, None, True),
    "*": (operator.mul, None, True),
    "/": (operator.floordiv, "division by zero", False),
    "%": (operator.mod, "modulo by zero", False),
    "<": (operator.lt, None, False),
    "<=": (operator.le, None, False),
    ">": (operator.gt, None, False),
    ">=": (operator.ge, None, False),
}


def _integer_op(op: str, left, right, span: Span):
    compute, zero_detail, capped = _INTEGER_OPS[op]

    def integer_op(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        a = left(ctx, frame)
        b = right(ctx, frame)
        if type(a) is not int or type(b) is not int:
            detail = f"'{op}' needs integers, got {type_name(a)} and {type_name(b)}"
            _type_fault(ctx, span, detail)
        if zero_detail is not None and b == 0:
            _fault(ctx, FaultKind.DIV_ZERO, span, zero_detail)
        value = compute(a, b)
        if capped and (value >= _INT_LIMIT or value <= -_INT_LIMIT):
            _int_cap_fault(ctx, span)
        return value

    return integer_op


def _equality(negate: bool, left, right):
    def equality(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        a = left(ctx, frame)
        b = right(ctx, frame)
        kind = type(a)
        if kind is not type(b):
            return negate
        if kind is str:
            if len(a) >= _STEP_WORK and len(a) == len(b):
                _charge(ctx, len(a))
        elif kind is list or kind is tuple:
            ctx.work = 0
            return slang_eq(a, b, ctx) is not negate
        return (a == b) is not negate

    return equality


def _user_call(fn: _Function, args: tuple, name_span: Span):
    # A call binds dict(zip(params, values)), so extra values are dropped and
    # missing ones leave their parameters unbound, as for an unvalidated tree.
    def call(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        values = [arg(ctx, frame) for arg in args]
        calls_left = ctx.calls_left
        if calls_left == 0:
            detail = f"exceeded call depth {ctx.depth_limit}"
            _fault(ctx, FaultKind.CALL_DEPTH, name_span, detail)
        ctx.calls_left = calls_left - 1
        result = fn.body(ctx, dict(zip(fn.params, values)))
        ctx.calls_left = calls_left
        return UNIT if result is None else result

    return call


def _builtin_call(builtin, args: tuple, span: Span):
    def call(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        return builtin(ctx, span, [arg(ctx, frame) for arg in args])

    return call


def _unknown_call(name: str, args: tuple, name_span: Span):
    def call(ctx, frame):
        ctx.left -= 1
        if ctx.left < 0:
            raise _OutOfSteps
        for arg in args:
            arg(ctx, frame)
        _type_fault(ctx, name_span, f"unknown function '{name}'")

    return call


# --------------------------------------------------------------------------
# builtins: (ctx, call span, argument values) -> value


def _need(ctx: _Ctx, cond: bool, span: Span, detail: str) -> None:
    if not cond:
        _type_fault(ctx, span, detail)


def _len(ctx, span, args):
    _need(ctx, type(args[0]) in (list, str), span, "len needs a list or string")
    return len(args[0])


def _last(ctx, span, args):
    xs, k = args
    _need(ctx, type(xs) is list, span, "last needs a list")
    _need(ctx, type(k) is int and k >= 0, span, "last needs a non-negative count")
    if k >= _STEP_ITEMS and len(xs) >= _STEP_ITEMS:
        _charge(ctx, min(k, len(xs)) * _ITEM_WORK)
    return xs[-k:] if k > 0 else []


def _count(ctx, span, args):
    xs, v = args
    _need(ctx, type(xs) is list, span, "count needs a list")
    kind = type(v)
    if kind is str:  # only an equal string equals a string
        if len(xs) >= _STEP_ITEMS or len(v) >= _ITEM_WORK:  # else under a step
            work = len(xs) * _ITEM_WORK
            if len(v) >= _ITEM_WORK:  # items of v's length compare in full
                work += len(v) * sum(1 for x in xs if type(x) is str and len(x) == len(v))
            _charge(ctx, work)
        return xs.count(v)
    ctx.work = len(xs) * _ITEM_WORK
    if ctx.work >= _STEP_WORK:
        _charge_tally(ctx)
    if kind is list or kind is tuple:  # each distinct item is compared once
        equal: dict[int, bool] = {}
        hits = 0
        for item in xs:
            if type(item) is kind:
                if id(item) not in equal:
                    equal[id(item)] = slang_eq(item, v, ctx)
                hits += equal[id(item)]
        return hits
    return sum(1 for item in xs if type(item) is kind and item == v)


def _contains(ctx, span, args):
    s, sub = args
    _need(ctx, type(s) is str and type(sub) is str, span, "contains needs two strings")
    if len(s) + len(sub) >= _STEP_WORK:
        _charge(ctx, len(s) + len(sub))
    return sub in s


def _rand_int(ctx, span, args):
    lo, hi = args
    _need(ctx, type(lo) is int and type(hi) is int, span, "rand_int needs integers")
    _need(ctx, lo <= hi, span, "rand_int needs lo <= hi")
    return ctx.rng.rand_int(lo, hi)


def _choice(ctx, span, args):
    xs = args[0]
    _need(ctx, type(xs) is list, span, "choice needs a list")
    if not xs:
        _fault(ctx, FaultKind.INDEX_RANGE, span, "choice on an empty list")
    return ctx.rng.choice(xs)


def _view(ctx) -> CoinView:
    view = ctx.env.coin_view
    assert view is not None  # validated: coin builtins imply a coin view
    return view


def _wrap_dist(ctx, span, args):
    view = _view(ctx)
    p, q = args
    _need(ctx, _is_position(p) and _is_position(q), span, "wrap_dist needs two positions")
    return games.wrap_distance(p, q, view.board_size)


def _adjacent(ctx, span, args):
    view = _view(ctx)
    p = args[0]
    _need(ctx, _is_position(p), span, "adjacent needs a position")
    return [(move, pos) for move, pos in games.adjacent(p, view.board_size)]


def _view_field(name: str):
    get = operator.attrgetter(name)
    return lambda ctx, span, args: get(_view(ctx))


_BUILTIN_IMPLS = {
    "len": _len,
    "last": _last,
    "count": _count,
    "contains": _contains,
    "rand_int": _rand_int,
    "choice": _choice,
    "my_pos": _view_field("my_pos"),
    "opp_pos": _view_field("opp_pos"),
    "my_coin": _view_field("my_coin"),
    "opp_coin": _view_field("opp_coin"),
    "board_size": _view_field("board_size"),
    "wrap_dist": _wrap_dist,
    "adjacent": _adjacent,
}
assert _BUILTIN_IMPLS.keys() == BUILTINS.keys()


def _is_position(v) -> bool:
    return type(v) is tuple and type(v[0]) is int and type(v[1]) is int


#: Longest value text a fault detail quotes; a longer one is cut there and
#: ends in "…".
SHOW_LIMIT = 1000


def _show(value) -> str:
    """A value as fault details print it: a host repr, except at the top,
    cut after SHOW_LIMIT characters.

    Iterative, and it stops at the cut, so values of any nesting or size
    print without host recursion in bounded time.
    """
    if type(value) is bool:
        return "true" if value else "false"
    parts = []
    size = 0
    for piece in _pieces(value):
        parts.append(piece)
        size += len(piece)
        if size > SHOW_LIMIT:
            return "".join(parts)[:SHOW_LIMIT] + "…"
    return "".join(parts)


def _pieces(value):
    """The text of a value, piece by piece: a list or pair as its brackets,
    separators and items, anything else as its host repr."""
    stack = [iter((value,))]
    while stack:
        for item in stack[-1]:
            kind = type(item)
            if kind is _Text:
                yield item
            elif kind is list or kind is tuple:
                yield "[" if kind is list else "("
                stack.append(_items(item, _Text("]" if kind is list else ")")))
                break
            elif kind is str and len(item) > SHOW_LIMIT:
                yield repr(item[: SHOW_LIMIT + 1])
            else:
                yield repr(item)
        else:
            stack.pop()


class _Text(str):
    """Literal text among a value's items, told apart from string values."""


def _items(items, close: _Text):
    for i, item in enumerate(items):
        if i:
            yield _Text(", ")
        yield item
    yield close


# --------------------------------------------------------------------------
# entry points


def _compiled(tree: n.Program) -> _Compiled:
    """The tree's compiled form, built on first use and kept on the tree."""
    try:
        return tree.__dict__[n.COMPILED_ATTR]
    except KeyError:
        pass
    with stack_headroom():
        code = _Compiled(tree)
    object.__setattr__(tree, n.COMPILED_ATTR, code)
    return code


def can_draw(tree: n.Program) -> bool:
    """Whether the program calls a randomness builtin anywhere.

    A program that cannot draw never touches its rng stream, so callers may
    skip deriving one for it.
    """
    return _compiled(tree).can_draw


def reads_opp_source(tree: n.Program) -> bool:
    """Whether the program reads opp_source anywhere, dead code included.

    A program that does not sees the same bindings against every opponent
    that plays the same history.
    """
    return _compiled(tree).reads_opp_source


#: Host frames one tree level can take in compiled code (a statement and
#: its block, or an expression and a comprehension).
_FRAMES_PER_LEVEL = 2
#: Frames left for the caller below evaluate (Python's default limit).
_HOST_FRAMES = 1000


def _frames_needed(budget: Budget) -> int:
    """Recursion limit that lets any parsable tree reach its call-depth fault."""
    return _HOST_FRAMES + (budget.call_depth_limit + 1) * MAX_TREE_DEPTH * _FRAMES_PER_LEVEL


def evaluate(
    tree: n.Program,
    env: Bindings,
    budget: Budget = Budget(),
    rng: SplitMix64 | None = None,
):
    """Run a program's strategy once.

    Returns (value, steps used) or raises RuntimeFault.  The rng advances by
    exactly the number of draws the program performs.  Raises ValueError for
    inconsistent bindings.
    """
    if len(env.my_history) != len(env.opp_history):
        raise ValueError("histories must have equal length")
    if len(env.my_history) != env.round_index:
        raise ValueError("round_index must equal the history length")
    if env.game == GAME_COIN and env.coin_view is None:
        raise ValueError("coin game bindings need a coin_view")
    code = _compiled(tree)
    if rng is None and code.can_draw:
        rng = SplitMix64(0)
    ctx = _Ctx()
    ctx.left = ctx.limit = budget.step_limit
    ctx.depth_limit = budget.call_depth_limit
    ctx.calls_left = budget.call_depth_limit - 1  # the strategy's own call
    ctx.list_cap = budget.list_length_cap
    ctx.rng = rng
    ctx.env = env
    entry = code.functions[n.ENTRY_POINT]
    # Inline rather than stack_headroom(): this runs once per evaluation.
    needed = _frames_needed(budget)
    previous = sys.getrecursionlimit()
    if previous < needed:
        sys.setrecursionlimit(needed)
    try:
        result = entry.body(ctx, {})
    finally:
        if previous < needed:
            sys.setrecursionlimit(previous)
    if result is None:
        value, span = UNIT, entry.span
    else:
        value, span = result, ctx.ret_span
    legal = games.ACTIONS[env.game]
    if type(value) is not str or value not in legal:
        detail = f"strategy returned {_show(value)}, expected one of {list(legal)}"
        _fault(ctx, FaultKind.INVALID_RETURN, span, detail)
    return value, ctx.limit - ctx.left
