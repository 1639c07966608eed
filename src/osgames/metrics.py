"""Static program metrics: cyclomatic complexity, Halstead counts and the
opponent-script-access score (OSAS).

The operator/operand classification is pinned in docs/metrics.md: keywords,
binary/unary operators, assignments, call sites and index sites count as
operators; identifiers and literals count as operands; grouping delimiters
count as neither.  OSAS marks the ambient `opp_source` binding as tainted,
propagates taint through assignments, compound expressions and calls, treats
the contents of a tainted branch as tainted (implicit flow), and reports the
tainted fraction of all decision sites (branch/loop conditions plus return
statements).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .slang import nodes as n
from .slang.validator import AMBIENT_BINDINGS

TAINT_SOURCE = "opp_source"


@dataclass(frozen=True)
class HalsteadReport:
    eta1: int  # distinct operators
    eta2: int  # distinct operands
    n1: int  # total operators
    n2: int  # total operands
    volume: float
    difficulty: float
    effort: float


@dataclass(frozen=True)
class OsasReport:
    tainted_sites: int
    total_sites: int
    score: float


@dataclass(frozen=True)
class MetricsReport:
    cyclomatic: int
    halstead: HalsteadReport
    osas: OsasReport

    def to_flat_dict(self) -> dict:
        h, o = self.halstead, self.osas
        return {
            "schema": "osgames.metrics/1",
            "cyclomatic": self.cyclomatic,
            "halstead_eta1": h.eta1,
            "halstead_eta2": h.eta2,
            "halstead_n1": h.n1,
            "halstead_n2": h.n2,
            "halstead_volume": h.volume,
            "halstead_difficulty": h.difficulty,
            "halstead_effort": h.effort,
            "osas_tainted_sites": o.tainted_sites,
            "osas_total_sites": o.total_sites,
            "osas_score": o.score,
        }


def _stmts_and_exprs(tree: n.Program):
    """Every statement of every function, each followed by its expressions."""
    for d in tree.defs:
        for stmt in n.walk_stmts(d.body):
            yield stmt
            for top in n.child_exprs(stmt):
                yield from n.walk_exprs(top)


def cyclomatic(tree: n.Program) -> int:
    """1 + the number of branch points (if, elif, while, for, and, or)."""
    branches = 0
    for node in _stmts_and_exprs(tree):
        kind = type(node)
        if kind is n.If:
            branches += len(node.arms)  # the if plus each elif
        elif kind is n.While or kind is n.For:
            branches += 1
        elif kind is n.Binary and node.op in ("and", "or"):
            branches += 1
    return 1 + branches


#: Operators each node class counts, besides Unary/Binary's own operator and
#: If's elif and else keywords.  List and pair literals are pure grouping:
#: neither operator nor operand.
_OPERATORS = {
    n.Call: ("call",),
    n.Index: ("index",),
    n.Let: ("let", "="),
    n.Assign: ("=",),
    n.If: ("if",),
    n.While: ("while",),
    n.For: ("for", "in"),
    n.Return: ("return",),
}
_LITERALS = {n.IntLit: "int", n.StrLit: "str", n.BoolLit: "bool"}


def halstead(tree: n.Program) -> HalsteadReport:
    operators: Counter = Counter()
    operands: Counter = Counter()
    for d in tree.defs:
        operators["fn"] += 1
        for name in (d.name,) + d.params:
            operands[("id", name)] += 1
    for node in _stmts_and_exprs(tree):
        kind = type(node)
        for op in _OPERATORS.get(kind, ()):
            operators[op] += 1
        if kind in _LITERALS:
            operands[(_LITERALS[kind], node.value)] += 1
        elif kind in n.NAME_FIELD:
            operands[("id", getattr(node, n.NAME_FIELD[kind]))] += 1
        if kind is n.Unary or kind is n.Binary:
            operators[node.op] += 1
        elif kind is n.If:
            operators["elif"] += len(node.arms) - 1
            if node.orelse is not None:
                operators["else"] += 1

    eta1 = sum(1 for c in operators.values() if c)
    eta2 = sum(1 for c in operands.values() if c)
    n1 = sum(operators.values())
    n2 = sum(operands.values())
    volume = (n1 + n2) * math.log2(eta1 + eta2) if (eta1 + eta2) else 0.0
    difficulty = (eta1 / 2) * (n2 / eta2) if eta2 else 0.0
    effort = difficulty * volume
    return HalsteadReport(eta1, eta2, n1, n2, volume, difficulty, effort)


# --------------------------------------------------------------------------
# OSAS taint analysis


def _expr_tainted(expr: n.Expr, tainted: set[str]) -> bool:
    for sub in n.walk_exprs(expr):
        if isinstance(sub, n.Var) and (sub.name == TAINT_SOURCE or sub.name in tainted):
            return True
    return False


def _taint_pass(block: n.Block, tainted: set[str], ctx: bool, sites: list[bool]) -> bool:
    """One pass over a block under a tainted (ctx) or clean control context.

    Taints assigned names and appends each decision site's taint to
    `sites`; returns True if the tainted set grew, so only the sites of a
    pass that returns False are final.
    """
    changed = False
    for stmt in block:
        kind = type(stmt)
        if kind is n.Let or kind is n.Assign:
            if ctx or _expr_tainted(stmt.value, tainted):
                changed |= _taint(stmt.name, tainted)
        elif kind is n.Return:
            sites.append(ctx or _expr_tainted(stmt.value, tainted))
        elif kind is n.If:
            # A body is control-dependent on its own condition and every
            # condition before it in the chain; the else arm on all of them.
            running = ctx
            for cond, body in stmt.arms:
                sites.append(_expr_tainted(cond, tainted))
                running = running or sites[-1]
                changed |= _taint_pass(body, tainted, running, sites)
            if stmt.orelse is not None:
                changed |= _taint_pass(stmt.orelse, tainted, running, sites)
        elif kind is n.While or kind is n.For:
            head = stmt.cond if kind is n.While else stmt.iterable
            sites.append(_expr_tainted(head, tainted))
            inner = ctx or sites[-1]
            if kind is n.For and inner:
                changed |= _taint(stmt.var, tainted)
            changed |= _taint_pass(stmt.body, tainted, inner, sites)
    return changed


def _taint(name: str, tainted: set[str]) -> bool:
    if name in tainted or name in AMBIENT_BINDINGS:
        return False
    tainted.add(name)
    return True


def osas(tree: n.Program) -> OsasReport:
    sites: list[bool] = []
    for d in tree.defs:
        tainted: set[str] = set()
        while True:
            def_sites: list[bool] = []
            if not _taint_pass(d.body, tainted, False, def_sites):
                break
        sites += def_sites
    total = len(sites)
    hits = sum(sites)
    score = hits / total if total else 0.0
    return OsasReport(hits, total, score)


def collect(tree: n.Program) -> MetricsReport:
    return MetricsReport(cyclomatic(tree), halstead(tree), osas(tree))
