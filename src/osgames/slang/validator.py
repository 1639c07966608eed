"""Static validation of parsed SLANG programs.

Checks the rules the grammar cannot express: the entry point takes no
parameters, every variable reference is bound (parameter, let, loop variable
or ambient binding), only whitelisted builtins are called, builtins gated to
the other game are rejected, and user names never shadow builtins, ambient
bindings or other functions (which is also what makes alpha-renaming safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import nodes as n
from .tokens import Span

#: Read-only names the runtime injects into every program.
AMBIENT_BINDINGS = (
    "my_history",
    "opp_history",
    "my_source",
    "opp_source",
    "round_index",
)

GAME_IPD = "ipd"
GAME_COIN = "coin"
GAMES = (GAME_IPD, GAME_COIN)

_BOTH = (GAME_IPD, GAME_COIN)
_COIN_ONLY = (GAME_COIN,)


@dataclass(frozen=True)
class BuiltinSig:
    arity: int
    games: tuple[str, ...]
    stochastic: bool = False


BUILTINS: dict[str, BuiltinSig] = {
    "len": BuiltinSig(1, _BOTH),
    "last": BuiltinSig(2, _BOTH),
    "count": BuiltinSig(2, _BOTH),
    "contains": BuiltinSig(2, _BOTH),
    "rand_int": BuiltinSig(2, _BOTH, stochastic=True),
    "choice": BuiltinSig(1, _BOTH, stochastic=True),
    "my_pos": BuiltinSig(0, _COIN_ONLY),
    "opp_pos": BuiltinSig(0, _COIN_ONLY),
    "my_coin": BuiltinSig(0, _COIN_ONLY),
    "opp_coin": BuiltinSig(0, _COIN_ONLY),
    "wrap_dist": BuiltinSig(2, _COIN_ONLY),
    "adjacent": BuiltinSig(1, _COIN_ONLY),
    "board_size": BuiltinSig(0, _COIN_ONLY),
}

#: Names user identifiers may never take.
RESERVED_NAMES = frozenset(BUILTINS) | frozenset(AMBIENT_BINDINGS)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    span: Span
    severity: Severity
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    diagnostics: tuple[Diagnostic, ...]

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)


def validate(tree: n.Program, game: str = GAME_IPD) -> ValidationReport:
    if game not in GAMES:
        raise ValueError(f"unknown game kind {game!r}")
    diags: list[Diagnostic] = []

    def err(span: Span, message: str) -> None:
        diags.append(Diagnostic(span, Severity.ERROR, message))

    entry = tree.function(n.ENTRY_POINT)
    if entry is None:
        err(tree.span, "missing strategy definition")
    elif entry.params:
        err(
            entry.name_span,
            f"strategy takes no parameters, found {len(entry.params)}",
        )

    func_names = {d.name for d in tree.defs}
    arities = {d.name: len(d.params) for d in tree.defs}

    for d in tree.defs:
        if d.name in RESERVED_NAMES:
            err(d.name_span, f"function name '{d.name}' shadows a reserved name")

    for d in tree.defs:
        seen_params: set[str] = set()
        for p, sp in zip(d.params, d.param_spans):
            if p in seen_params:
                err(sp, f"duplicate parameter '{p}'")
            seen_params.add(p)
            if p in RESERVED_NAMES or p in func_names:
                err(sp, f"parameter '{p}' shadows a reserved or function name")

        declared = n.declared_names(d)
        for stmt in n.walk_stmts(d.body):
            if isinstance(stmt, (n.Let, n.For)):
                name = stmt.name if isinstance(stmt, n.Let) else stmt.var
                span = stmt.name_span if isinstance(stmt, n.Let) else stmt.var_span
                if name in RESERVED_NAMES or name in func_names:
                    err(span, f"'{name}' shadows a reserved or function name")
            elif isinstance(stmt, n.Assign):
                if stmt.name in AMBIENT_BINDINGS:
                    err(stmt.name_span, f"'{stmt.name}' is read-only")
                elif stmt.name not in declared:
                    err(stmt.name_span, f"assignment to undeclared variable '{stmt.name}'")
            for top in n.child_exprs(stmt):
                for expr in n.walk_exprs(top):
                    if isinstance(expr, n.Var):
                        if expr.name not in declared and expr.name not in AMBIENT_BINDINGS:
                            err(expr.span, f"unbound variable '{expr.name}'")
                    elif isinstance(expr, n.Call):
                        _check_call(expr, game, func_names, arities, err)

    ok = not any(d.severity is Severity.ERROR for d in diags)
    return ValidationReport(ok, tuple(diags))


def _check_call(expr: n.Call, game, func_names, arities, err) -> None:
    if expr.name in func_names:
        want = arities[expr.name]
        if len(expr.args) != want:
            err(
                expr.name_span,
                f"'{expr.name}' takes {want} argument(s), got {len(expr.args)}",
            )
        return
    sig = BUILTINS.get(expr.name)
    if sig is None:
        err(expr.name_span, f"unknown function or builtin '{expr.name}'")
        return
    if game not in sig.games:
        err(expr.name_span, f"builtin '{expr.name}' not available in this game")
        return
    if len(expr.args) != sig.arity:
        err(
            expr.name_span,
            f"builtin '{expr.name}' takes {sig.arity} argument(s), got {len(expr.args)}",
        )
