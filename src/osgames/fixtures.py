"""Access to the packaged fixture corpus of strategy programs."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .program import StrategyProgram, load_program_file
from .slang.tokens import SourceText
from .slang.validator import GAME_COIN, GAME_IPD


def corpus_dir() -> Path:
    return Path(str(resources.files("osgames") / "corpus"))


def ipd_corpus_dir() -> Path:
    return corpus_dir() / "ipd"


def corpus_path(relative: str) -> Path:
    return corpus_dir() / relative


def load_corpus_sources(subdir: str = "ipd") -> list[tuple[str, SourceText]]:
    """(name, source) for every .slang file in a corpus directory, sorted."""
    out = []
    for path in sorted((corpus_dir() / subdir).glob("*.slang")):
        out.append((path.stem, SourceText(path.read_text(encoding="utf-8"), str(path))))
    return out


def _game_of(subdir: str) -> str:
    """The game a corpus subdirectory's programs are written for."""
    return GAME_COIN if subdir == "coin" else GAME_IPD


def load_corpus_programs(subdir: str = "ipd") -> list[tuple[str, StrategyProgram]]:
    return [
        (path.stem, load_program_file(path, game=_game_of(subdir)))
        for path in sorted((corpus_dir() / subdir).glob("*.slang"))
    ]


def load_fixture(relative: str) -> StrategyProgram:
    return load_program_file(
        corpus_path(relative), game=_game_of(relative.partition("/")[0])
    )
