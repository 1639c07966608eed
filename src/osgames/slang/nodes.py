"""Syntax tree for SLANG programs.

Nodes are frozen dataclasses.  Equality is structural and deliberately
ignores spans, so reparsing a pretty-printed tree compares equal to the
original even though every offset moved.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from typing import Iterator, Union

from .tokens import Span

_NO_SPAN = Span(0, 0)


def _span_field() -> Span:
    return field(default=_NO_SPAN, compare=False, repr=False)  # type: ignore[return-value]


# --------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span = _span_field()


@dataclass(frozen=True)
class StrLit:
    value: str
    span: Span = _span_field()


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: Span = _span_field()


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    span: Span = _span_field()
    name_span: Span = _span_field()


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class ListLit:
    items: tuple["Expr", ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class PairLit:
    first: "Expr"
    second: "Expr"
    span: Span = _span_field()


Expr = Union[IntLit, StrLit, BoolLit, Var, Unary, Binary, Call, Index, ListLit, PairLit]


# --------------------------------------------------------------------------
# statements


@dataclass(frozen=True)
class Let:
    name: str
    value: Expr
    span: Span = _span_field()
    name_span: Span = _span_field()


@dataclass(frozen=True)
class Assign:
    name: str
    value: Expr
    span: Span = _span_field()
    name_span: Span = _span_field()


@dataclass(frozen=True)
class If:
    #: (condition, body) arms: the first is the `if`, the rest are `elif`s.
    arms: tuple[tuple[Expr, tuple["Stmt", ...]], ...]
    orelse: tuple["Stmt", ...] | None
    span: Span = _span_field()


@dataclass(frozen=True)
class While:
    cond: Expr
    body: tuple["Stmt", ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class For:
    var: str
    iterable: Expr
    body: tuple["Stmt", ...]
    span: Span = _span_field()
    var_span: Span = _span_field()


@dataclass(frozen=True)
class Return:
    value: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class ExprStmt:
    value: Expr
    span: Span = _span_field()


Stmt = Union[Let, Assign, If, While, For, Return, ExprStmt]
Block = tuple[Stmt, ...]


@dataclass(frozen=True)
class FuncDef:
    name: str
    params: tuple[str, ...]
    body: Block
    span: Span = _span_field()
    name_span: Span = _span_field()
    param_spans: tuple[Span, ...] = field(default=(), compare=False, repr=False)


#: Attribute under which the evaluator keeps a tree's compiled closures.
COMPILED_ATTR = "_compiled"


@dataclass(frozen=True)
class Program:
    defs: tuple[FuncDef, ...]
    span: Span = _span_field()

    def function(self, name: str) -> FuncDef | None:
        for d in self.defs:
            if d.name == name:
                return d
        return None

    def __getstate__(self):
        # Compiled closures are a cache, not data, and cannot be pickled.
        state = dict(self.__dict__)
        state.pop(COMPILED_ATTR, None)
        return state


ENTRY_POINT = "strategy"


# --------------------------------------------------------------------------
# the tree's shape

#: Shapes of a sub-node field: one expression, a tuple of expressions, a
#: Block (or None, for an absent else), and If's (condition, Block) arms.
EXPR, EXPRS, BLOCK, ARMS = "expr", "exprs", "block", "arms"

#: Each node class's sub-node fields in source order, expressions first and
#: then blocks.  Every walk below reads the tree's structure from here.
CHILD_FIELDS: dict[type, tuple[tuple[str, str], ...]] = {
    IntLit: (),
    StrLit: (),
    BoolLit: (),
    Var: (),
    Unary: (("operand", EXPR),),
    Binary: (("left", EXPR), ("right", EXPR)),
    Call: (("args", EXPRS),),
    Index: (("base", EXPR), ("index", EXPR)),
    ListLit: (("items", EXPRS),),
    PairLit: (("first", EXPR), ("second", EXPR)),
    Let: (("value", EXPR),),
    Assign: (("value", EXPR),),
    If: (("arms", ARMS), ("orelse", BLOCK)),
    While: (("cond", EXPR), ("body", BLOCK)),
    For: (("iterable", EXPR), ("body", BLOCK)),
    Return: (("value", EXPR),),
    ExprStmt: (("value", EXPR),),
    FuncDef: (("body", BLOCK),),
}

#: The field holding the identifier of each node class but FuncDef that has
#: one (a FuncDef has its name and its params).
NAME_FIELD = {Var: "name", Call: "name", Let: "name", Assign: "name", For: "var"}


def child_exprs(node) -> Iterator[Expr]:
    """Direct sub-expressions of an expression or statement."""
    for name, shape in CHILD_FIELDS[type(node)]:
        if shape is EXPR:
            yield getattr(node, name)
        elif shape is EXPRS:
            yield from getattr(node, name)
        elif shape is ARMS:
            for cond, _ in getattr(node, name):
                yield cond


def child_blocks(node) -> Iterator[Block]:
    """Direct sub-blocks of a statement or function."""
    for name, shape in CHILD_FIELDS[type(node)]:
        if shape is BLOCK:
            block = getattr(node, name)
            if block is not None:
                yield block
        elif shape is ARMS:
            for _, body in getattr(node, name):
                yield body


def walk_exprs(root: Expr) -> Iterator[Expr]:
    """The expression and all sub-expressions, pre-order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child_exprs(node))


def walk_stmts(block: Block) -> Iterator[Stmt]:
    """All statements of a block, recursing into nested blocks, pre-order."""
    stack = list(reversed(block))
    while stack:
        stmt = stack.pop()
        yield stmt
        for sub in child_blocks(stmt):
            stack.extend(reversed(sub))


def declared_names(func: FuncDef) -> dict[str, Span]:
    """Each name the function declares (its parameters, then its lets and
    loop variables in walk order) with the span of its first declaration
    (no span for the parameters of a tree built without them)."""
    names: dict[str, Span] = {}
    for p, sp in zip(func.params, func.param_spans or (_NO_SPAN,) * len(func.params)):
        names.setdefault(p, sp)
    for stmt in walk_stmts(func.body):
        if isinstance(stmt, Let):
            names.setdefault(stmt.name, stmt.name_span)
        elif isinstance(stmt, For):
            names.setdefault(stmt.var, stmt.var_span)
    return names


def map_tree(node, fn):
    """Rebuild a function, statement or expression bottom-up.

    Each node's sub-nodes are mapped first; `fn` then gets the node, rebuilt
    with its new sub-nodes (spans kept) if any changed, and returns what
    takes its place.  Recursive: the parser's depth cap bounds it.
    """
    changes = {}
    for name, shape in CHILD_FIELDS[type(node)]:
        old = getattr(node, name)
        if shape is EXPR:
            new = map_tree(old, fn)
        elif shape is ARMS:
            new = _kept(old, tuple(
                _kept(arm, (map_tree(arm[0], fn), _map_all(arm[1], fn))) for arm in old
            ))
        elif old is None:
            continue
        else:
            new = _map_all(old, fn)
        if new is not old:
            changes[name] = new
    if changes:
        node = dataclasses.replace(node, **changes)
    return fn(node)


def _map_all(nodes: tuple, fn) -> tuple:
    return _kept(nodes, tuple(map_tree(child, fn) for child in nodes))


def _kept(old: tuple, new: tuple) -> tuple:
    """`old` itself if `new` holds the very same items, else `new`."""
    return old if all(map(operator.is_, old, new)) else new

