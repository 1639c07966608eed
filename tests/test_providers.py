from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from osgames.providers import (
    EXIT_GRACE,
    MAX_REPLY_CHARS,
    STDERR_TAIL_LINES,
    TRANSCRIPT_MESSAGE_CHARS,
    TRANSCRIPT_MESSAGES,
    ExternalProvider,
    ProposalContext,
    ProviderError,
    ScriptedProvider,
    StaticProvider,
    provider_from_spec,
    providers_from_config,
)

AGENTS = Path(__file__).parent / "agents"

ALLC = 'fn strategy() {\n    return "C"\n}\n'
ALLD = 'fn strategy() {\n    return "D"\n}\n'


def ctx(round_num=1, history=None, prev=None):
    return ProposalContext("ipd", round_num, history or [], prev)


def test_static_provider():
    provider = StaticProvider("a", "PM", source=ALLC)
    assert provider.propose(ctx(1)) == ALLC
    assert provider.propose(ctx(7)) == ALLC
    assert provider.describe() == {"id": "a", "tag": "PM", "kind": "static"}


def test_scripted_provider_switches():
    provider = ScriptedProvider("b", schedule=[(1, ALLC), (5, ALLD)])
    assert provider.propose(ctx(1)) == ALLC
    assert provider.propose(ctx(4)) == ALLC
    assert provider.propose(ctx(5)) == ALLD
    assert provider.propose(ctx(10)) == ALLD


def test_scripted_provider_without_entry():
    provider = ScriptedProvider("b", schedule=[(3, ALLD)])
    with pytest.raises(ProviderError):
        provider.propose(ctx(1))


def test_external_provider_loopback():
    provider = ExternalProvider(
        "x", command=[sys.executable, str(AGENTS / "allc_agent.py")], timeout=20
    )
    provider.start("ipd")
    try:
        source = provider.propose(ctx(1))
        assert source == ALLC
        # the optional rationale field is ignored, second round works
        assert provider.propose(ctx(2, prev=ALLD)) == ALLC
    finally:
        provider.close()


def test_external_provider_transcript_is_bounded():
    provider = ExternalProvider(
        "x", command=[sys.executable, str(AGENTS / "allc_agent.py")], timeout=20
    )
    provider.start("ipd")
    try:
        history = [{"meta_round": 1, "my_source": ALLC * 200}]
        for k in range(1, 2 * TRANSCRIPT_MESSAGES):
            provider.propose(ctx(k, history=history))
    finally:
        provider.close()
    transcript = provider.transcript
    assert len(transcript) == TRANSCRIPT_MESSAGES
    assert all(len(m) <= TRANSCRIPT_MESSAGE_CHARS + 1 for m in transcript)
    assert transcript[-1].startswith("<- ") and transcript[-2].startswith("-> ")
    assert transcript[-2].endswith("…")  # the long propose message was cut


def test_transcript_cuts_the_body_as_the_whole_message_was_cut():
    def old_formula(message):
        if len(message) > TRANSCRIPT_MESSAGE_CHARS:
            message = message[:TRANSCRIPT_MESSAGE_CHARS] + "…"
        return message

    provider = ExternalProvider("x")
    room = TRANSCRIPT_MESSAGE_CHARS - len("-> ")
    bodies = ["x" * 300_000, '{"type": "ready"}', "y" * room, "z" * (room + 1)]
    for body in bodies:
        provider._note("-> ", body)
    assert provider.transcript == [old_formula(f"-> {body}") for body in bodies]
    assert provider.transcript[0].endswith("…") and provider.transcript[3].endswith("…")
    assert provider.transcript[1] == '-> {"type": "ready"}'


def test_propose_line_is_exact_when_the_history_does_not_extend_the_last(tmp_path):
    log = tmp_path / "requests.ndjson"
    provider = ExternalProvider(
        "x",
        command=[sys.executable, str(AGENTS / "recording_agent.py"), str(log), "C"],
        timeout=20,
    )
    e1 = {"meta_round": 1, "my_source": "naïve ☕", "my_actions": ["C"]}
    e2 = {"meta_round": 2, "my_source": ALLC, "opponent_total": 3}
    histories = [
        [],
        [e1],
        [e1, e2],
        [dict(e1), dict(e2)],  # a new list of equal new entries
        [e1, {"meta_round": 2, "my_source": ALLD}],  # a replaced entry
        [e1],  # a shorter history
        [e2, e1],  # the same entries, reordered
        [e2, e1, e2],
    ]
    contexts = [ctx(k, h, prev=ALLD if k % 2 else None) for k, h in enumerate(histories, 1)]
    provider.start("ipd")
    try:
        for c in contexts:
            provider.propose(c)
    finally:
        provider.close()
    lines = log.read_text(encoding="utf-8").splitlines()[1:-1]
    assert lines == [
        json.dumps(
            {
                "type": "propose",
                "meta_round": c.meta_round,
                "history": c.history,
                "opponent_previous_source": c.opponent_previous_source,
            },
            sort_keys=True,
        )
        for c in contexts
    ]


def test_external_provider_handshake_failure():
    provider = ExternalProvider(
        "x", command=[sys.executable, str(AGENTS / "rude_agent.py")], timeout=20
    )
    with pytest.raises(ProviderError) as exc:
        provider.start("ipd")
    assert "handshake" in str(exc.value)
    assert "transcript" in str(exc.value)
    provider.close()


def test_external_provider_timeout():
    provider = ExternalProvider(
        "x", command=[sys.executable, str(AGENTS / "stubborn_agent.py")], timeout=0.8
    )
    provider.start("ipd")
    try:
        with pytest.raises(ProviderError) as exc:
            provider.propose(ctx(1))
        assert "no reply" in str(exc.value)
    finally:
        started = time.monotonic()
        provider.close()
    # the stalled agent is killed, not sent a shutdown it would never read
    assert time.monotonic() - started < EXIT_GRACE / 5


def test_external_provider_overlong_reply_is_a_fault():
    provider = ExternalProvider(
        "x", command=[sys.executable, str(AGENTS / "flood_agent.py")], timeout=20
    )
    provider.start("ipd")
    try:
        assert provider.propose(ctx(1)) == ALLC
        with pytest.raises(ProviderError) as exc:
            provider.propose(ctx(2))
        assert str(exc.value) == f"agent reply line exceeds {MAX_REPLY_CHARS} characters"
    finally:
        provider.close()


def test_external_provider_quotes_the_stderr_tail_of_an_exited_agent():
    expected = [f"warming up step {k}" for k in range(6, 12)]
    expected += ["traceback: " + "y" * (TRANSCRIPT_MESSAGE_CHARS - 11) + "…"]
    expected += ["fatal: no model configured"]
    assert len(expected) == STDERR_TAIL_LINES
    messages = set()
    for _ in range(3):
        provider = ExternalProvider(
            "x", command=[sys.executable, str(AGENTS / "dying_agent.py")], timeout=20
        )
        with pytest.raises(ProviderError) as exc:
            provider.start("ipd")
        provider.close()
        messages.add(str(exc.value))
    assert messages == {f"agent process closed its output; stderr tail: {expected}"}


def test_external_provider_undecodable_reply_is_an_invalid_message():
    agent = (
        "import sys\n"
        "sys.stdin.readline()\n"
        "sys.stdout.buffer.write(b'{\"type\": \"ready\"}\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
        "sys.stdout.buffer.write(b'{\"type\": \"progr\\xffm\"}\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
    )
    provider = ExternalProvider("x", command=[sys.executable, "-c", agent], timeout=20)
    provider.start("ipd")
    try:
        with pytest.raises(ProviderError) as exc:
            provider.propose(ctx(1))
        assert "invalid program message" in str(exc.value)
    finally:
        provider.close()


#: Python expressions for replies that must each end in a short ProviderError.
BAD_REPLIES = {
    "non-object": "'[1, 2]'",
    "deeply-nested": "'[' * 100_000 + ']' * 100_000",
    "long-malformed": "'x' * 100_000",
    "long-wrong-object": "'{\"type\": \"nope\", \"pad\": \"' + 'x' * 100_000 + '\"}'",
}


@pytest.mark.parametrize("stage", ["hello", "propose"])
@pytest.mark.parametrize("reply", list(BAD_REPLIES.values()), ids=list(BAD_REPLIES))
def test_external_provider_bad_reply_is_a_short_provider_error(stage, reply):
    agent = (
        "import sys\n"
        "sys.stdin.readline()\n"
        f"if {stage == 'propose'}:\n"
        "    sys.stdout.write('{\"type\": \"ready\"}\\n')\n"
        "    sys.stdout.flush()\n"
        "    sys.stdin.readline()\n"
        f"sys.stdout.write({reply} + '\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
    )
    provider = ExternalProvider("x", command=[sys.executable, "-c", agent], timeout=20)
    try:
        with pytest.raises(ProviderError) as exc:
            provider.start("ipd")
            provider.propose(ctx(1))
    finally:
        provider.close()
    message = str(exc.value)
    assert message.startswith("agent ")
    # the reply is quoted cut, like the transcript's copy of it
    assert len(message) < 3 * TRANSCRIPT_MESSAGE_CHARS


def test_external_provider_missing_command():
    provider = ExternalProvider("x", command=["/no/such/binary"])
    with pytest.raises(ProviderError):
        provider.start("ipd")


def test_provider_from_spec(tmp_path):
    path = tmp_path / "allc.slang"
    path.write_text(ALLC)
    static = provider_from_spec({"kind": "static", "path": str(path), "tag": "CPM"}, "a")
    assert isinstance(static, StaticProvider)
    assert static.tag == "CPM"
    assert static.propose(ctx(1)) == ALLC

    scripted = provider_from_spec(
        {
            "kind": "scripted",
            "schedule": [
                {"from_round": 1, "source": ALLC},
                {"from_round": 5, "source": ALLD},
            ],
        },
        "b",
    )
    assert isinstance(scripted, ScriptedProvider)
    assert scripted.propose(ctx(6)) == ALLD

    external = provider_from_spec(
        {"kind": "external", "command": ["prog"], "timeout": 5}, "c"
    )
    assert isinstance(external, ExternalProvider)
    assert external.timeout == 5

    with pytest.raises(ProviderError):
        provider_from_spec({"kind": "mystery"}, "d")
    with pytest.raises(ProviderError):
        provider_from_spec({"kind": "scripted", "schedule": []}, "e")
    with pytest.raises(ProviderError):
        provider_from_spec({"kind": "external", "command": []}, "f")


def test_provider_inputs_are_the_program_files_it_read(tmp_path):
    paths = []
    for name, text in (("allc", ALLC), ("alld", ALLD), ("other", ALLC)):
        paths.append(str(tmp_path / f"{name}.slang"))
        Path(paths[-1]).write_text(text)
    allc, alld, other = paths
    static = provider_from_spec({"kind": "static", "path": allc}, "a")
    assert static.inputs == (allc,)
    assert "inputs" not in static.describe()
    # a 'source' string wins over the 'path', which is then never read
    overridden = provider_from_spec({"kind": "static", "path": allc, "source": ALLD}, "a")
    assert overridden.inputs == () and overridden.propose(ctx(1)) == ALLD
    scripted = provider_from_spec(
        {
            "kind": "scripted",
            "schedule": [
                {"from_round": 5, "path": alld},
                {"from_round": 1, "path": allc},
                {"from_round": 3, "path": other, "source": ALLD},
            ],
        },
        "b",
    )
    assert scripted.inputs == (alld, allc)  # in config order, not schedule order
    external = provider_from_spec({"kind": "external", "command": ["prog"]}, "c")
    assert external.inputs == ()


@pytest.mark.parametrize(
    "config", [[], "ab", {"a": {"source": ALLC}}, {"b": {"source": ALLC}}],
    ids=["list", "string", "no-b", "no-a"],
)
def test_providers_config_must_name_a_and_b(config):
    with pytest.raises(ProviderError, match="providers config must name providers 'a' and 'b'"):
        providers_from_config(config)


def test_providers_from_config_builds_a_then_b():
    a, b = providers_from_config({"b": {"source": ALLD, "tag": "B"}, "a": {"source": ALLC}})
    assert (a.provider_id, a.propose(ctx(1))) == ("a", ALLC)
    assert (b.provider_id, b.tag, b.propose(ctx(1))) == ("b", "B", ALLD)
