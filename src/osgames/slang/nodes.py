"""Syntax tree for SLANG programs.

Nodes are frozen dataclasses.  Equality is structural and deliberately
ignores spans, so reparsing a pretty-printed tree compares equal to the
original even though every offset moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
# traversal helpers


def child_exprs(node) -> Iterator[Expr]:
    """Direct sub-expressions of an expression or statement."""
    if isinstance(node, (Unary,)):
        yield node.operand
    elif isinstance(node, Binary):
        yield node.left
        yield node.right
    elif isinstance(node, Call):
        yield from node.args
    elif isinstance(node, Index):
        yield node.base
        yield node.index
    elif isinstance(node, ListLit):
        yield from node.items
    elif isinstance(node, PairLit):
        yield node.first
        yield node.second
    elif isinstance(node, (Let, Assign, Return, ExprStmt)):
        yield node.value
    elif isinstance(node, While):
        yield node.cond
    elif isinstance(node, For):
        yield node.iterable
    elif isinstance(node, If):
        for cond, _ in node.arms:
            yield cond


def child_blocks(stmt) -> Iterator[Block]:
    if isinstance(stmt, If):
        for _, body in stmt.arms:
            yield body
        if stmt.orelse is not None:
            yield stmt.orelse
    elif isinstance(stmt, (While, For)):
        yield stmt.body


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


def walk_program_exprs(program: Program) -> Iterator[Expr]:
    for d in program.defs:
        for stmt in walk_stmts(d.body):
            for top in child_exprs(stmt):
                yield from walk_exprs(top)


def replace(node, **changes):
    """dataclasses.replace that tolerates our field(compare=False) spans."""
    kwargs = {f.name: getattr(node, f.name) for f in fields(node)}
    kwargs.update(changes)
    return type(node)(**kwargs)


def tree_depth(program: Program) -> int:
    """Maximum nesting depth over statements and expressions (iterative).

    The parser enforces a cap on this, which is what lets every consumer
    (evaluator, renderer, transforms, metrics) recurse on node structure
    without risking the host stack on adversarial inputs.
    """
    deepest = 0
    stack: list[tuple[object, int]] = [(d, 1) for d in program.defs]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, FuncDef):
            stack.extend((s, depth + 1) for s in node.body)
            continue
        for child in child_exprs(node):
            stack.append((child, depth + 1))
        if isinstance(node, (If, While, For)):
            for block in child_blocks(node):
                stack.extend((s, depth + 1) for s in block)
    return deepest
