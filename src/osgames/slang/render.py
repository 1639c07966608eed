"""Canonical pretty-printer for SLANG trees.

Output is the language's normal form: four-space indents, one statement per
line, minimal parentheses.  Reparsing the output yields a tree structurally
equal to the input, which is what the source transforms rely on.
"""

from __future__ import annotations

from . import nodes as n
from .parser import BINARY_PREC, COMPARISON_PREC, NEG_PREC, NOT_PREC
from .tokens import SourceText

_INDENT = "    "

_ATOM = 10

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _escape(value: str) -> str:
    return "".join(_STRING_ESCAPES.get(ch, ch) for ch in value)


def _prec(expr: n.Expr) -> int:
    if isinstance(expr, n.Binary):
        return BINARY_PREC[expr.op]
    if isinstance(expr, n.Unary):
        return NEG_PREC if expr.op == "-" else NOT_PREC
    return _ATOM


def _emit(expr: n.Expr) -> str:
    if isinstance(expr, n.IntLit):
        return str(expr.value)
    if isinstance(expr, n.StrLit):
        return f'"{_escape(expr.value)}"'
    if isinstance(expr, n.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, n.Var):
        return expr.name
    if isinstance(expr, n.Unary):
        inner = _wrap(expr.operand, _prec(expr))
        return f"-{inner}" if expr.op == "-" else f"not {inner}"
    if isinstance(expr, n.Binary):
        me = BINARY_PREC[expr.op]
        # Comparisons are non-associative: parenthesize equal precedence on
        # both sides.  Everything else is left-associative.
        left_min = me + 1 if me == COMPARISON_PREC else me
        left = _wrap(expr.left, left_min)
        right = _wrap(expr.right, me + 1)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, n.Call):
        args = ", ".join(_emit(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, n.Index):
        base = _wrap(expr.base, _ATOM)
        return f"{base}[{_emit(expr.index)}]"
    if isinstance(expr, n.ListLit):
        return "[" + ", ".join(_emit(item) for item in expr.items) + "]"
    if isinstance(expr, n.PairLit):
        return f"({_emit(expr.first)}, {_emit(expr.second)})"
    raise TypeError(f"unknown expression node {expr!r}")


def _wrap(expr: n.Expr, min_prec: int) -> str:
    text = _emit(expr)
    return f"({text})" if _prec(expr) < min_prec else text


def _emit_block(block: n.Block, depth: int, out: list[str]) -> None:
    pad = _INDENT * depth
    for stmt in block:
        if isinstance(stmt, n.Let):
            out.append(f"{pad}let {stmt.name} = {_emit(stmt.value)}")
        elif isinstance(stmt, n.Assign):
            out.append(f"{pad}{stmt.name} = {_emit(stmt.value)}")
        elif isinstance(stmt, n.Return):
            out.append(f"{pad}return {_emit(stmt.value)}")
        elif isinstance(stmt, n.ExprStmt):
            out.append(f"{pad}{_emit(stmt.value)}")
        elif isinstance(stmt, n.While):
            out.append(f"{pad}while {_emit(stmt.cond)} {{")
            _emit_block(stmt.body, depth + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(stmt, n.For):
            out.append(f"{pad}for {stmt.var} in {_emit(stmt.iterable)} {{")
            _emit_block(stmt.body, depth + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(stmt, n.If):
            for k, (cond, body) in enumerate(stmt.arms):
                head = "if" if k == 0 else "} elif"
                out.append(f"{pad}{head} {_emit(cond)} {{")
                _emit_block(body, depth + 1, out)
            if stmt.orelse is not None:
                out.append(f"{pad}}} else {{")
                _emit_block(stmt.orelse, depth + 1, out)
            out.append(f"{pad}}}")
        else:
            raise TypeError(f"unknown statement node {stmt!r}")


def render(tree: n.Program, origin: str = "<render>") -> SourceText:
    """Re-emit a tree as canonical SLANG source."""
    from .._stack import stack_headroom

    out: list[str] = []
    with stack_headroom():
        for i, d in enumerate(tree.defs):
            if i:
                out.append("")
            out.append(f"fn {d.name}({', '.join(d.params)}) {{")
            _emit_block(d.body, 1, out)
            out.append("}")
    return SourceText("\n".join(out) + "\n", origin=origin)
