"""Loading and holding strategy programs (source text plus parsed tree)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .slang import (
    LexError,
    ParseError,
    SourceText,
    nodes,
    parse_source,
    validate,
)
from .slang.tokens import line_col
from .slang.validator import GAME_IPD


class ProgramError(Exception):
    """A program failed to lex, parse or validate; message carries spans."""


@dataclass(frozen=True)
class StrategyProgram:
    source: SourceText
    tree: nodes.Program
    game: str | None = None  # the game load_program validated it for, if any

    @property
    def text(self) -> str:
        return self.source.text

    @property
    def origin(self) -> str:
        return self.source.origin


def _describe(src: SourceText, span, message: str) -> str:
    line, col = line_col(src.text, span.start)
    return f"{src.origin}:{line}:{col}: {message}"


def load_program(
    source: SourceText | str,
    origin: str = "<memory>",
    game: str | None = GAME_IPD,
) -> StrategyProgram:
    """Parse (and, unless game is None, validate) a program.

    Raises ProgramError with a located message on any failure.
    """
    src = source if isinstance(source, SourceText) else SourceText(source, origin)
    try:
        tree = parse_source(src)
    except (LexError, ParseError) as exc:
        raise ProgramError(_describe(src, exc.span, exc.message)) from exc
    if game is not None:
        report = validate(tree, game)
        if not report.ok:
            lines = [_describe(src, d.span, d.message) for d in report.errors()]
            raise ProgramError("\n".join(lines))
    return StrategyProgram(src, tree, game)


def read_source_file(path: Path) -> str:
    """A program file's text; raises ProgramError naming the file if it
    cannot be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProgramError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProgramError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc


def load_program_file(path: str | Path, game: str | None = GAME_IPD) -> StrategyProgram:
    path = Path(path)
    return load_program(SourceText(read_source_file(path), origin=str(path)), game=game)
