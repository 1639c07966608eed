"""Record serialization and reproducible run output.

All persistent records are JSON with sorted keys and a fixed layout so that
re-running a configuration reproduces files byte for byte.  Writes go
through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__


def canonical_json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: str | Path, obj) -> Path:
    return atomic_write_bytes(path, canonical_json_bytes(obj))


def atomic_write_text(path: str | Path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def write_manifest(
    outdir: str | Path,
    command: str,
    config: dict,
    inputs: list[str | Path],
    artifacts: list[str | Path],
) -> Path:
    """Record what produced a run directory, so it can be reproduced."""
    outdir = Path(outdir)
    manifest = {
        "schema": "osgames.manifest/1",
        "engine_version": __version__,
        "command": command,
        "config": config,
        "config_hash": sha256_bytes(canonical_json_bytes(config)),
        "inputs": {
            str(p): sha256_file(p) for p in sorted(str(x) for x in inputs)
        },
        "artifacts": sorted(str(Path(a).relative_to(outdir)) for a in artifacts),
    }
    return atomic_write_json(outdir / "manifest.json", manifest)
