"""The worker frame step under both of its hosts.

``_ShardSession.handle`` answers a failing frame with one ``error``
frame and survives; a frame that does not even decode is the host's to
report, the same way.  Each case runs against the pipe worker
(``run_worker`` over in-memory streams) and the TCP listener (a
localhost ``serve_worker_listener``, spoken to as a supervisor's
session would).
"""

import asyncio
import io
import json

import pytest

from repro.serve.protocol import (
    ServeEvent,
    StreamDecoder,
    decode_control_unit,
    get_codec,
)
from repro.serve.session import SessionHalf
from repro.serve.worker import run_worker, serve_worker_listener
from tests.conftest import serve_stream as stream

JSONL = get_codec("jsonl")


def drive_pipe(frames, shard=0):
    """Frames (dicts, or raw text for malformed input) -> output frames."""
    raw = "".join(
        frame if isinstance(frame, str) else json.dumps(frame) + "\n"
        for frame in frames
    )
    out = io.StringIO()
    assert run_worker(
        shard, timer_ratio=10,
        in_stream=io.BytesIO(raw.encode()), out_stream=out,
    ) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


async def converse(raw: bytes):
    """Write ``raw`` to a fresh listener, return every frame it answers
    until it closes the connection."""
    server = await serve_worker_listener(
        "127.0.0.1", 0, timer_ratio=10, heartbeat_interval=30.0, codec="jsonl"
    )
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        answered = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
    decoder = StreamDecoder()
    return [
        decode_control_unit(unit)
        for unit in decoder.feed(answered) + decoder.finish()
    ]


def drive_listener(frames, shard=0):
    """The same script over a session: hello first, every frame numbered."""
    half = SessionHalf()
    hello = {"op": "hello", "shard": shard, "codecs": ["jsonl"],
             "session": "feedfacecafebeef"}
    raw = JSONL.encode_control(hello) + b"".join(
        frame.encode()
        if isinstance(frame, str)
        else JSONL.encode_control(half.stamp(frame))
        for frame in frames
    )
    answered = asyncio.run(converse(raw))
    assert answered[0]["op"] == "hello_ack" and answered[0]["resumed"] is False
    numbers = [frame["n"] for frame in answered if "n" in frame]
    assert numbers == list(range(1, len(numbers) + 1))
    return answered[1:]


HOSTS = [
    pytest.param(drive_pipe, id="pipe"),
    pytest.param(drive_listener, id="listener", marks=pytest.mark.slow),
]

REGISTER = {"op": "register", "name": "rt", "expression": "buy ; sell",
            "context": "unrestricted"}


def event_frame(seq, event):
    return {"op": "event", "seq": seq, "event": event.to_dict()}


def errors(output):
    return [frame["message"] for frame in output if frame["op"] == "error"]


def acks(output):
    return [frame["seq"] for frame in output if frame["op"] == "ack"]


@pytest.mark.parametrize("drive", HOSTS)
class TestFrameStepErrors:
    def test_each_bad_frame_costs_one_error_and_the_loop_survives(self, drive):
        events = [ServeEvent("buy", "ny", 1, 10), ServeEvent("sell", "ny", 3, 30)]
        output = drive(
            [
                REGISTER,
                "NOT JSON AT ALL\n",                       # does not decode
                '{"op": "explode"}\n',                     # unknown op
                {"op": "beat", "seq": 1},                  # wrong direction
                {"op": "register", "name": "bad", "expression": "((("},
                event_frame(1, events[0]),
                {"op": "restore",                          # another shard's
                 "state": {"seq": 0, "index": 5, "detector": {}}},
                {"op": "restore"},                         # not a ReproError
                event_frame(2, events[1]),
                {"op": "stop"},
            ]
        )
        messages = errors(output)
        assert len(messages) == 6
        assert "invalid JSON control frame" in messages[0]
        assert "unknown control op 'explode'" in messages[1]
        assert messages[2] == "unexpected inbound op 'beat'"
        assert "checkpoint belongs to shard 5, this is shard 0" in messages[4]
        assert messages[5].startswith("KeyError")
        # Every good frame around them was still applied, in order.
        assert acks(output) == [1, 2]
        assert [f["row"]["detection"] for f in output
                if f["op"] == "detection"] == ["rt"]

    def test_a_clean_script_raises_no_error(self, drive):
        events = stream(4, types=("buy", "sell"))
        script = [REGISTER]
        script += [event_frame(i + 1, e) for i, e in enumerate(events)]
        script += [{"op": "checkpoint"}, {"op": "stop"}]
        output = drive(script)
        assert errors(output) == []
        assert acks(output) == [1, 2, 3, 4]
        state = [f for f in output if f["op"] == "checkpoint_state"]
        assert len(state) == 1 and state[0]["seq"] == 4


@pytest.mark.slow
class TestListenerRefusals:
    """A connection the listener will not serve gets one answer and EOF."""

    def test_sessionless_hello_is_refused(self):
        hello = {"op": "hello", "shard": 0, "codecs": ["binary", "jsonl"]}
        answered = asyncio.run(converse(JSONL.encode_control(hello)))
        assert [frame["op"] for frame in answered] == ["error"]
        assert "session" in answered[0]["message"]

    def test_first_frame_must_be_a_hello(self):
        for opening in (JSONL.encode_control(REGISTER), b"NOT JSON\n"):
            answered = asyncio.run(converse(opening))
            assert [frame["op"] for frame in answered] == ["error"]

    def test_resume_of_an_unknown_session_answers_resumed_false(self):
        hello = {"op": "hello", "shard": 0, "codecs": ["jsonl"],
                 "session": "0123456789abcdef", "resume": True, "recv": 0}
        answered = asyncio.run(converse(JSONL.encode_control(hello)))
        assert answered == [
            {"op": "hello_ack", "codec": "jsonl", "version": 1,
             "resumed": False}
        ]
