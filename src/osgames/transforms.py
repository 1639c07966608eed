"""Source transforms: comment stripping, masking and obfuscation.

Masking renames helper functions to generic labels (fn_1, fn_2, ...) while
the entry point keeps its required name.  Obfuscation renames every user
identifier (helper functions, parameters, locals, loop variables) to random
strings over the two glyphs I and l, consistently within each scope.
Builtins and ambient bindings are never touched, so a renamed program
validates and behaves exactly like the original.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._stack import stack_headroom
from .rng import SplitMix64
from .slang import nodes as n
from .slang.tokens import SourceText, TokenKind, tokenize
from .slang.validator import RESERVED_NAMES

GLOBAL_SCOPE = "<global>"

_OBFUSCATION_GLYPHS = "Il"
_OBFUSCATION_MIN_LEN = 12
_OBFUSCATION_MAX_LEN = 20


@dataclass(frozen=True)
class RenameMap:
    """Scoped identifier renames; scope is a function name or GLOBAL_SCOPE."""

    entries: tuple[tuple[str, str, str], ...]  # (scope, original, renamed)

    def scope(self, scope: str) -> dict[str, str]:
        return {orig: new for s, orig, new in self.entries if s == scope}

    def is_injective(self) -> bool:
        by_scope: dict[str, set[str]] = {}
        for scope, _, new in self.entries:
            seen = by_scope.setdefault(scope, set())
            if new in seen:
                return False
            seen.add(new)
        return True


def strip_comments(src: SourceText | str) -> SourceText:
    """Remove comment tokens; every other token survives unchanged."""
    if not isinstance(src, SourceText):
        src = SourceText(src)
    text = src.text
    kept: list[str] = []  # the gaps between comments
    at = 0
    for tok in tokenize(src):
        if tok.kind is TokenKind.COMMENT:
            kept.append(text[at : tok.span.start])
            at = tok.span.end
    kept.append(text[at:])
    return SourceText("".join(kept), origin=src.origin)


def _fresh_obfuscated(rng: SplitMix64, used: set[str]) -> str:
    while True:
        length = rng.rand_int(_OBFUSCATION_MIN_LEN, _OBFUSCATION_MAX_LEN)
        name = "".join(
            _OBFUSCATION_GLYPHS[rng.rand_below(2)] for _ in range(length)
        )
        if name not in used and name not in RESERVED_NAMES:
            used.add(name)
            return name


def _renamer(func_map: dict[str, str], locals_map: dict[str, str]):
    """The map_tree function that renames the names of one function."""

    def rename(node):
        kind = type(node)
        if kind is n.FuncDef:
            return replace(
                node,
                name=func_map.get(node.name, node.name),
                params=tuple(locals_map.get(p, p) for p in node.params),
            )
        field = n.NAME_FIELD.get(kind)
        if field is None:
            return node
        new = (func_map if kind is n.Call else locals_map).get(getattr(node, field))
        return node if new is None else replace(node, **{field: new})

    return rename


def _apply_renames(
    tree: n.Program, func_map: dict[str, str], local_maps: dict[str, dict[str, str]]
) -> n.Program:
    with stack_headroom():
        defs = tuple(
            n.map_tree(d, _renamer(func_map, local_maps.get(d.name, {}))) for d in tree.defs
        )
    return replace(tree, defs=defs)


def mask(tree: n.Program) -> tuple[n.Program, RenameMap]:
    """Rename helper functions to fn_1, fn_2, ... (the entry point is kept)."""
    func_map: dict[str, str] = {}
    counter = 0
    for d in tree.defs:
        if d.name != n.ENTRY_POINT:
            counter += 1
            func_map[d.name] = f"fn_{counter}"
    renamed = _apply_renames(tree, func_map, {})
    entries = tuple((GLOBAL_SCOPE, orig, new) for orig, new in func_map.items())
    return renamed, RenameMap(entries)


def obfuscate(tree: n.Program, rng: SplitMix64) -> tuple[n.Program, RenameMap]:
    """Rename every user identifier to a random I/l string of length 12-20."""
    used: set[str] = set()
    entries: list[tuple[str, str, str]] = []

    func_map: dict[str, str] = {}
    for d in tree.defs:
        if d.name != n.ENTRY_POINT:
            func_map[d.name] = _fresh_obfuscated(rng, used)
            entries.append((GLOBAL_SCOPE, d.name, func_map[d.name]))

    local_maps: dict[str, dict[str, str]] = {}
    for d in tree.defs:
        locals_map: dict[str, str] = {}
        for name in n.declared_names(d):
            locals_map[name] = _fresh_obfuscated(rng, used)
            entries.append((d.name, name, locals_map[name]))
        local_maps[d.name] = locals_map

    renamed = _apply_renames(tree, func_map, local_maps)
    return renamed, RenameMap(tuple(entries))
