"""Strategy providers for the repeated open-source game.

A provider is asked once per meta-round for a program source, given the full
history of previous meta-rounds and the opponent's source from the previous
round (never the current one).  Static providers always submit the same
source, scripted providers follow a schedule, and external providers bridge
to a child process speaking newline-delimited JSON on its standard streams
(the socket where model-backed agents attach).

Wire protocol (one JSON object per line):

    -> {"type": "hello", "protocol": 1, "game": "ipd"}
    <- {"type": "ready"}
    -> {"type": "propose", "meta_round": k, "history": [...],
        "opponent_previous_source": "..." | null}
    <- {"type": "program", "source": "..."}          # optional "rationale" ignored
    -> {"type": "shutdown"}
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .program import ProgramError, read_source_file

PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT = 60.0

#: The transcript keeps the last few messages, each cut to a fixed length:
#: propose messages carry the whole meta-history, so keeping them all grows
#: with the square of the number of meta-rounds.
TRANSCRIPT_MESSAGES = 8
TRANSCRIPT_MESSAGE_CHARS = 2000
#: Longest reply line read from an agent, newline excluded; a longer one is
#: a provider fault and its rest is read and dropped.
MAX_REPLY_CHARS = 1 << 20
#: Fault messages quote the agent's last few stderr lines, each cut to
#: TRANSCRIPT_MESSAGE_CHARS.
STDERR_TAIL_LINES = 8
#: How long a fault waits for an agent that closed a pipe to exit, and then
#: for its stderr to reach end of file; also how long close waits for an
#: agent to obey shutdown before it kills it.
EXIT_GRACE = 5.0


class ProviderError(Exception):
    pass


@dataclass
class ProposalContext:
    """What a provider is shown before it proposes.

    history holds one entry per earlier meta-round.  `run_meta_game` builds
    each entry once and never changes it, and gives every proposal its own
    copy of the list, so a provider's history extends the one it saw last
    time by one entry.  Providers must not change the entries either.
    """

    game: str
    meta_round: int  # 1-based
    history: list[dict]
    opponent_previous_source: str | None


@dataclass
class Provider:
    provider_id: str
    tag: str = ""
    kind: str = "static"
    #: The program files the provider was built from, in config order.
    inputs: tuple[str, ...] = ()

    def start(self, game: str) -> None:
        pass

    def propose(self, ctx: ProposalContext) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        return {"id": self.provider_id, "tag": self.tag, "kind": self.kind}


@dataclass
class StaticProvider(Provider):
    source: str = ""
    kind: str = "static"

    def propose(self, ctx: ProposalContext) -> str:
        return self.source


@dataclass
class ScriptedProvider(Provider):
    """Submits the source of the last schedule entry whose round has begun.

    schedule: list of (from_round, source), from_round 1-based ascending.
    """

    schedule: list[tuple[int, str]] = field(default_factory=list)
    kind: str = "scripted"

    def propose(self, ctx: ProposalContext) -> str:
        chosen: str | None = None
        for from_round, source in self.schedule:
            if ctx.meta_round >= from_round:
                chosen = source
        if chosen is None:
            raise ProviderError(
                f"scripted provider {self.provider_id} has no entry for "
                f"meta-round {ctx.meta_round}"
            )
        return chosen


def _cut(text: str, room: int = TRANSCRIPT_MESSAGE_CHARS) -> str:
    """text, cut to room characters with … marking the cut."""
    return text[:room] + "…" if len(text) > room else text


def _bounded_lines(stream, limit: int):
    """Yield (line, whole) for each line of a text stream, holding at most
    limit + 1 characters at a time.  A line longer than limit characters
    (newline excluded) yields its first limit characters with whole False,
    and its rest is read and dropped."""
    while line := stream.readline(limit + 1):
        if len(line) <= limit or line.endswith("\n"):
            yield line, True
            continue
        yield line[:limit], False
        while line and not line.endswith("\n"):
            line = stream.readline(limit + 1)


#: Queued in place of a reply line longer than MAX_REPLY_CHARS.
_TOO_LONG = object()


class _LineReader:
    """Blocking readline with a timeout, via a daemon thread."""

    def __init__(self, stream):
        self._queue: queue.Queue = queue.Queue()
        self.timed_out = False  # a read found no reply in time
        self.thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self.thread.start()

    def _pump(self, stream):
        try:
            for line, whole in _bounded_lines(stream, MAX_REPLY_CHARS):
                self._queue.put(line if whole else _TOO_LONG)
        finally:
            self._queue.put(None)

    def readline(self, timeout: float) -> str | None:
        """The next reply line, or None once the agent has closed its output."""
        try:
            line = self._queue.get(timeout=timeout)
        except queue.Empty:
            self.timed_out = True
            raise ProviderError(f"no reply within {timeout} seconds") from None
        if line is None:
            self._queue.put(None)  # a later read fails at once, not after the timeout
        elif line is _TOO_LONG:
            raise ProviderError(f"agent reply line exceeds {MAX_REPLY_CHARS} characters")
        return line


@dataclass
class ExternalProvider(Provider):
    command: list[str] = field(default_factory=list)
    timeout: float = DEFAULT_TIMEOUT
    kind: str = "external"

    _process: subprocess.Popen | None = None
    _reader: _LineReader | None = None
    _transcript: deque[str] = field(
        default_factory=lambda: deque(maxlen=TRANSCRIPT_MESSAGES)
    )
    _stderr: deque[str] = field(default_factory=lambda: deque(maxlen=STDERR_TAIL_LINES))
    _stderr_lock: threading.Lock = field(default_factory=threading.Lock)
    _stderr_pump: threading.Thread | None = None
    #: (entry, its JSON) for each history entry of the last propose.
    _encoded: list[tuple[dict, str]] = field(default_factory=list)

    @property
    def transcript(self) -> list[str]:
        """The last TRANSCRIPT_MESSAGES messages, each cut to a fixed length."""
        return list(self._transcript)

    def _note(self, arrow: str, body: str) -> None:
        """Keep arrow + body, cut to TRANSCRIPT_MESSAGE_CHARS; the body is cut
        before it is joined, so a long message is never copied whole."""
        self._transcript.append(arrow + _cut(body, TRANSCRIPT_MESSAGE_CHARS - len(arrow)))

    def _drain_stderr(self, stream) -> None:
        for line, whole in _bounded_lines(stream, TRANSCRIPT_MESSAGE_CHARS):
            line = line.rstrip("\n")
            with self._stderr_lock:
                self._stderr.append(line if whole else line + "…")

    def _fault(self, message: str, closed: bool = False) -> ProviderError:
        """A ProviderError that quotes the agent's stderr tail.

        closed: the agent closed a pipe, so it is given EXIT_GRACE seconds to
        exit.  The stderr of an agent that has exited is read to its end
        before it is quoted, so the message is the same on every run.
        """
        proc = self._process
        if closed:
            try:
                proc.wait(timeout=EXIT_GRACE)
            except subprocess.TimeoutExpired:
                pass
        if proc.poll() is not None:
            self._stderr_pump.join(EXIT_GRACE)
        with self._stderr_lock:
            tail = list(self._stderr)
        return ProviderError(f"{message}; stderr tail: {tail}")

    def start(self, game: str) -> None:
        if not self.command:
            raise ProviderError(f"external provider {self.provider_id} has no command")
        try:
            self._process = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                errors="replace",  # a bad byte makes a bad message, not a dead reader
                bufsize=1,
            )
        except OSError as exc:
            raise ProviderError(
                f"cannot start agent {self.command!r}: {exc.strerror or exc}"
            ) from exc
        self._stderr_pump = threading.Thread(
            target=self._drain_stderr, args=(self._process.stderr,), daemon=True
        )
        self._stderr_pump.start()
        self._reader = _LineReader(self._process.stdout)
        self._encoded.clear()
        hello = {"type": "hello", "protocol": PROTOCOL_VERSION, "game": game}
        reply = self._exchange(json.dumps(hello, sort_keys=True))
        if reply.get("type") != "ready":
            raise self._fault(
                f"agent handshake failed, expected ready, got {_cut(repr(reply))};"
                f" transcript: {self.transcript}"
            )

    def _exchange(self, line: str) -> dict:
        assert self._process is not None and self._reader is not None
        self._note("-> ", line)
        try:
            self._process.stdin.write(line + "\n")
            self._process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise self._fault(f"agent pipe closed: {exc}", closed=True) from exc
        raw = self._reader.readline(self.timeout)
        if raw is None:
            raise self._fault("agent process closed its output", closed=True)
        self._note("<- ", raw.rstrip())
        try:
            reply = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
            raise ProviderError(f"agent sent malformed JSON: {_cut(repr(raw))}") from exc
        if not isinstance(reply, dict):
            raise ProviderError(f"agent sent a non-object message: {_cut(repr(raw))}")
        return reply

    def propose(self, ctx: ProposalContext) -> str:
        if self._process is None:
            raise ProviderError("provider not started")
        reply = self._exchange(self._propose_line(ctx))
        if reply.get("type") != "program" or not isinstance(reply.get("source"), str):
            raise ProviderError(f"agent sent an invalid program message: {_cut(repr(reply))}")
        return reply["source"]

    def _propose_line(self, ctx: ProposalContext) -> str:
        """json.dumps of the propose message with sort_keys=True, byte for byte.

        Each history entry is encoded once per session: the leading entries
        that are the very objects of the last propose's history reuse their
        encoding, and only the rest are encoded.
        """
        encoded = self._encoded
        keep = 0
        for entry, (old, _) in zip(ctx.history, encoded):
            if entry is not old:
                break
            keep += 1
        del encoded[keep:]
        encoded.extend((e, json.dumps(e, sort_keys=True)) for e in ctx.history[keep:])
        history = ", ".join(text for _, text in encoded)
        # the keys in sorted order, as json.dumps(..., sort_keys=True) writes them
        return (
            f'{{"history": [{history}], "meta_round": {json.dumps(ctx.meta_round)}, '
            f'"opponent_previous_source": {json.dumps(ctx.opponent_previous_source)}, '
            '"type": "propose"}'
        )

    def close(self) -> None:
        proc = self._process
        if proc is None:
            return
        self._process = None
        if self._reader.timed_out:  # a stalled agent would not read a shutdown
            proc.kill()
        else:
            try:
                proc.stdin.write(json.dumps({"type": "shutdown"}) + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
        try:
            proc.wait(timeout=EXIT_GRACE)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        try:
            proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        # a pipe still held open by the agent's own children stays open
        for pump, stream in (
            (self._reader.thread, proc.stdout),
            (self._stderr_pump, proc.stderr),
        ):
            pump.join(EXIT_GRACE)
            if not pump.is_alive():
                stream.close()


def providers_from_config(config) -> tuple[Provider, Provider]:
    """Providers 'a' and 'b' of a providers config (the JSON value of its
    file); a malformed config raises ProviderError naming what is wrong."""
    if not isinstance(config, dict) or "a" not in config or "b" not in config:
        raise ProviderError("providers config must name providers 'a' and 'b'")
    return provider_from_spec(config["a"], "a"), provider_from_spec(config["b"], "b")


def provider_from_spec(spec: dict, provider_id: str) -> Provider:
    """Build a provider from its JSON config entry; a malformed entry raises
    ProviderError naming it."""
    where = f"provider {provider_id!r}"
    if not isinstance(spec, dict):
        raise ProviderError(f"{where} must be an object, got {spec!r}")
    kind = spec.get("kind", "static")
    tag = spec.get("tag", "")
    inputs: list[str] = []
    if kind == "static":
        source = _read_source(spec, where, inputs)
        return StaticProvider(provider_id, tag, inputs=tuple(inputs), source=source)
    if kind == "scripted":
        entries = spec.get("schedule", [])
        if not isinstance(entries, list) or not entries:
            raise ProviderError(f"scripted {where} needs a non-empty schedule list")
        schedule = []
        for i, entry in enumerate(entries):
            at = f"{where} schedule entry {i}"
            start = entry.get("from_round") if isinstance(entry, dict) else None
            if type(start) is not int:
                raise ProviderError(f"{at} needs an integer from_round")
            schedule.append((start, _read_source(entry, at, inputs)))
        schedule.sort(key=lambda e: e[0])
        return ScriptedProvider(provider_id, tag, inputs=tuple(inputs), schedule=schedule)
    if kind == "external":
        command = spec.get("command")
        if not isinstance(command, list) or not command or not all(
            isinstance(part, str) for part in command
        ):
            raise ProviderError(f"external {where} needs a command list of strings")
        timeout = spec.get("timeout", DEFAULT_TIMEOUT)
        if type(timeout) not in (int, float) or not 0 < timeout < math.inf:
            raise ProviderError(f"{where} timeout must be a positive number, got {timeout!r}")
        return ExternalProvider(provider_id, tag, command=command, timeout=float(timeout))
    raise ProviderError(f"{where} has unknown kind {kind!r}")


def _read_source(spec: dict, where: str, inputs: list[str]) -> str:
    """The entry's 'source' string, else the text of the file its 'path'
    names, which is then appended to inputs."""
    if isinstance(spec.get("source"), str):
        return spec["source"]
    if isinstance(spec.get("path"), str):
        try:
            text = read_source_file(Path(spec["path"]))
        except ProgramError as exc:
            raise ProviderError(f"{where}: {exc}") from exc
        inputs.append(spec["path"])
        return text
    raise ProviderError(f"{where} needs a 'source' or 'path' string")
