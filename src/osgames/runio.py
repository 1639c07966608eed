"""Record serialization and reproducible run output.

All persistent records are canonical JSON: the UTF-8 bytes of
json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) and a newline,
so that re-running a configuration reproduces files byte for byte.  One
streaming writer produces them.  Writes go through a temp file and an
atomic rename.
"""

from __future__ import annotations

import hashlib
import io
import os
from json.encoder import encode_basestring
from pathlib import Path

from . import __version__

_int_text = int.__repr__
_INF = float("inf")


def _float_text(value) -> str:
    """A float as json writes it: NaN and the infinities by name."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as json converts it, in the encoder's order of checks."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


#: The JSON text of a scalar of exactly this type.  Subclasses are not keys:
#: they take the encoder's isinstance checks in _write_json's value().
_SCALAR_TEXT = {
    str: encode_basestring,
    int: _int_text,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(obj, stream) -> None:
    """Write obj's canonical JSON bytes into the binary stream, piece by piece.

    The walk makes the checks of json's pure-Python encoder (the one
    indent=2 selects) in its order: str, None, True, False, int, float,
    list or tuple, dict; keys from sorted(dct.items()); a container met
    again inside itself is a ValueError, an unsupported key or value the
    encoder's TypeError.  So the bytes and the errors are those of
    json.dumps.  Scalars are encoded by the standard library's C functions,
    a list of scalars in one join, and no piece outlives its write.
    """
    write = stream.write
    text_for = _SCALAR_TEXT.get  # a scalar type's text function, or None
    markers: dict[int, object] = {}
    newlines = ["\n"]  # a newline and the indent of each level

    def newline(level: int) -> str:
        while len(newlines) <= level:
            newlines.append(newlines[-1] + "  ")
        return newlines[level]

    def mark(container) -> int:
        key = id(container)
        if key in markers:
            raise ValueError("Circular reference detected")
        markers[key] = container
        return key

    # `head` is the text before the value (separator, indent and key),
    # written together with the value's first piece.

    def value(o, level: int, head: str) -> None:
        # plain lists and dicts first: they are most of what reaches here
        if type(o) is list:
            array(o, level, head)
        elif type(o) is dict:
            mapping(o, level, head)
        elif isinstance(o, str):
            write((head + encode_basestring(o)).encode())
        elif o is None:
            write((head + "null").encode())
        elif o is True:
            write((head + "true").encode())
        elif o is False:
            write((head + "false").encode())
        elif isinstance(o, int):
            write((head + _int_text(o)).encode())
        elif isinstance(o, float):
            write((head + _float_text(o)).encode())
        elif isinstance(o, (list, tuple)):
            array(o, level, head)
        elif isinstance(o, dict):
            mapping(o, level, head)
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def array(items, level: int, head: str) -> None:
        if not items:
            write((head + "[]").encode())
            return
        inner = newline(level + 1)
        try:
            texts = [_SCALAR_TEXT[type(item)](item) for item in items]
        except KeyError:  # a container or a subclass: item by item below
            pass
        else:  # only scalars, so no cycle either
            write((head + "[" + inner + ("," + inner).join(texts) + newline(level) + "]").encode())
            return
        key = mark(items)
        sep = head + "[" + inner
        for item in items:
            text = text_for(type(item))
            if text is None:
                value(item, level + 1, sep)
            else:
                write((sep + text(item)).encode())
            sep = "," + inner
        write((newline(level) + "]").encode())
        del markers[key]

    def mapping(dct, level: int, head: str) -> None:
        if not dct:
            write((head + "{}").encode())
            return
        key = mark(dct)
        inner = newline(level + 1)
        sep = head + "{" + inner
        for name, item in sorted(dct.items()):
            if type(name) is not str:
                name = _key_text(name)
            sep += encode_basestring(name) + ": "
            text = text_for(type(item))
            if text is None:
                value(item, level + 1, sep)
            else:
                write((sep + text(item)).encode())
            sep = "," + inner
        write((newline(level) + "}").encode())
        del markers[key]

    value(obj, 0, "")
    write(b"\n")


def canonical_json_bytes(obj, stream=None) -> bytes | None:
    """obj's canonical JSON bytes: json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) and a newline, UTF-8 encoded.

    Given a binary stream, the bytes are written into it instead, and None
    is returned; no copy of the whole text is held either way.
    """
    if stream is not None:
        _write_json(obj, stream)
        return None
    buffer = io.BytesIO()
    _write_json(obj, buffer)
    return buffer.getvalue()


def _atomic_write(path: str | Path, write) -> Path:
    """Create path's parent directories, call write(handle) on a new binary
    temp file beside path, then rename it to path.

    The temp file is created exclusively (O_EXCL) under a 96-bit random
    name, with mode 0o666 less the umask, as open() creates files.  If anything fails, the
    temp file is removed and path is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(12).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    return _atomic_write(path, lambda handle: handle.write(data))


def atomic_write_json(path: str | Path, obj) -> Path:
    """Stream obj's canonical JSON bytes into path, atomically."""
    # through canonical_json_bytes, the function perfbench/tracer.py times
    # as the runio.serialize layer
    return _atomic_write(path, lambda handle: canonical_json_bytes(obj, handle))


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
