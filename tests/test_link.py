"""The supervisor<->worker link layer, stated once and tested without IO.

Four steps, each with one home: the receive ladder
(``SessionHalf.accept``), control-frame bytes (``Codec.encode_control``
/ ``decode_control`` / ``decode_control_unit``), the link-fault
schedule (``LinkFaults``), and — in ``tests/test_worker_hosts.py`` —
the worker frame step.  Nothing here opens a socket or starts an event
loop: the async link classes are driven over in-memory fakes whose
awaitables never suspend.
"""

import json

import pytest

from repro.errors import CodecError
from repro.serve.netfault import (
    FaultyLink,
    LinkFaults,
    NetFaultPlan,
    _Channel,
)
from repro.serve.protocol import (
    FRAME_CONTROL,
    BinaryCodec,
    StreamDecoder,
    StreamUnit,
    decode_control_unit,
    get_codec,
)
from repro.serve.session import SessionHalf
from repro.serve.transport import SubprocessLink, WorkerLink

CODECS = [get_codec("jsonl"), get_codec("binary")]


def run(coroutine):
    """Drive a coroutine whose awaitables are all in-memory to its end."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    raise AssertionError("the coroutine suspended: something did real IO")


def half_at(recv_n, sent=0):
    """A half that has delivered ``recv_n`` frames and stamped ``sent``."""
    half = SessionHalf()
    half.recv_n = recv_n
    for seq in range(1, sent + 1):
        half.stamp({"op": "event", "seq": seq})
    return half


class TestAcceptLadder:
    """(watermark, inbound frame) -> (deliver, replies)."""

    @pytest.mark.parametrize(
        "recv_n, sent, frame, deliver, replies, after",
        [
            pytest.param(
                3, 0, {"op": "ack", "n": 4, "recv": 0},
                True, [], (4, 0),
                id="next-in-order-is-delivered",
            ),
            pytest.param(
                3, 0, {"op": "ack", "n": 3, "recv": 0},
                False, [], (3, 0),
                id="duplicate-is-dropped-silently",
            ),
            pytest.param(
                3, 3, {"op": "ack", "n": 2, "recv": 2},
                False, [], (3, 1),
                id="duplicate-still-prunes-what-it-acks",
            ),
            pytest.param(
                3, 0, {"op": "ack", "n": 6, "recv": 0},
                False, [{"op": "rewind", "have": 3, "recv": 3}], (3, 0),
                id="gap-asks-for-a-rewind",
            ),
            pytest.param(
                3, 2, {"op": "ack", "n": 6, "recv": 1},
                False, [{"op": "rewind", "have": 3, "recv": 3}], (3, 1),
                id="gapped-frame-still-prunes-what-it-acks",
            ),
            pytest.param(
                5, 4, {"op": "rewind", "have": 2, "recv": 2},
                False,
                [
                    {"op": "event", "seq": 3, "n": 3, "recv": 5},
                    {"op": "event", "seq": 4, "n": 4, "recv": 5},
                ],
                (5, 2),
                id="rewind-is-answered-with-the-buffered-tail",
            ),
            pytest.param(
                2, 0, {"op": "rewind", "have": 0, "recv": 0},
                False, [], (2, 0),
                id="rewind-with-nothing-buffered-replays-nothing",
            ),
            pytest.param(
                7, 3, {"op": "beat", "seq": 9, "recv": 3},
                True, [], (7, 0),
                id="unnumbered-frame-is-delivered-and-acks",
            ),
        ],
    )
    def test_table(self, recv_n, sent, frame, deliver, replies, after):
        half = half_at(recv_n, sent)
        assert half.accept(frame) == (deliver, replies)
        assert (half.recv_n, half.outstanding) == after

    def test_replies_are_wire_ready_not_restamped(self):
        half = half_at(0, sent=3)
        _, replies = half.accept({"op": "rewind", "have": 1, "recv": 1})
        assert [reply["n"] for reply in replies] == [2, 3]
        assert half.sent_n == 3  # a replay numbers nothing new

    def test_two_halves_repair_a_lost_frame(self):
        sender, receiver = SessionHalf(), SessionHalf()
        wires = [sender.stamp({"op": "event", "seq": i}) for i in range(4)]
        delivered = []
        for wire in (wires[0], wires[2]):  # wires[1] is lost
            deliver, replies = receiver.accept(dict(wire))
            if deliver:
                delivered.append(wire["seq"])
        assert delivered == [0] and replies[0]["op"] == "rewind"
        _, replays = sender.accept(replies[0])
        for wire in replays + [wires[3]]:
            deliver, replies = receiver.accept(dict(wire))
            assert replies == []
            if deliver:
                delivered.append(wire["seq"])
        assert delivered == [0, 1, 2, 3]


def burst(count, dropped):
    """Send ``count`` frames in one burst over a FIFO wire that loses the
    sender->receiver transmissions whose 1-based ordinal is in
    ``dropped``; rewinds travel back losslessly and their replays queue
    behind whatever is still in flight.  Returns ``(rewinds sent, frames
    put on the wire, numbers delivered)``."""
    sender, receiver = SessionHalf(), SessionHalf()
    wire = [
        ("data", sender.stamp({"op": "event", "seq": seq}))
        for seq in range(count)
    ]
    transmissions = rewinds = 0
    delivered = []
    while wire:
        kind, frame = wire.pop(0)
        if kind == "rewind":
            _, replays = sender.accept(frame)
            wire.extend(("data", replay) for replay in replays)
            continue
        transmissions += 1
        if transmissions in dropped:
            continue
        deliver, replies = receiver.accept(dict(frame))
        if deliver:
            delivered.append(frame["n"])
        rewinds += len(replies)
        wire.extend(("rewind", reply) for reply in replies)
    return rewinds, transmissions, delivered


class TestOneRewindPerGapEpisode:
    """Every frame in flight behind a lost one is a gap too; answering
    each with a rewind made the peer replay its whole tail once per
    frame (57 rewinds and 3,370 frames for this burst)."""

    def test_one_lost_frame_costs_one_rewind_and_one_replay(self):
        rewinds, transmissions, delivered = burst(64, dropped={7})
        assert delivered == list(range(1, 65))
        assert rewinds == 1
        assert transmissions <= 64 + 58  # the burst, then frames 7..64 again

    def test_a_replay_that_loses_its_own_head_asks_again(self):
        # Transmission 65 is the replay's first frame (number 7).
        rewinds, transmissions, delivered = burst(64, dropped={7, 65})
        assert delivered == list(range(1, 65))
        assert rewinds == 2

    def test_a_new_gap_after_the_repair_is_a_new_episode(self):
        rewinds, _, delivered = burst(64, dropped={7, 100})
        assert delivered == list(range(1, 65))
        assert rewinds == 2

    def test_frames_behind_an_outstanding_rewind_still_ack(self):
        half = half_at(3, sent=2)
        assert half.accept({"op": "ack", "n": 6, "recv": 0})[1] != []
        assert half.accept({"op": "ack", "n": 7, "recv": 2}) == (False, [])
        assert half.outstanding == 0


class TestControlFrameBytes:
    FRAMES = [
        {"op": "beat", "seq": 9, "t": 1.5},
        {"op": "event", "seq": 3, "n": 2, "recv": 1,
         "event": {"type": "buy", "site": "ny", "global": 4, "local": 40,
                   "parameters": {"qty": 10, "note": "café"}}},
        {"op": "hello_ack", "codec": "binary", "version": 1,
         "resumed": True, "recv": 12},
    ]

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f["op"])
    def test_round_trip(self, codec, frame):
        assert codec.decode_control(codec.encode_control(frame)) == frame

    def test_jsonl_bytes_are_the_sorted_line(self):
        frame = self.FRAMES[1]
        assert get_codec("jsonl").encode_control(frame) == (
            json.dumps(frame, sort_keys=True) + "\n"
        ).encode("utf-8")

    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
    def test_unknown_op_is_refused_on_encode(self, codec):
        with pytest.raises(CodecError, match="unknown control op"):
            codec.encode_control({"op": "explode"})
        with pytest.raises(CodecError, match="unknown control op"):
            codec.encode_control({"seq": 1})

    def test_unknown_op_is_refused_on_decode(self):
        with pytest.raises(CodecError):
            get_codec("jsonl").decode_control(b'{"op": "explode"}\n')
        smuggled = BinaryCodec.frame(FRAME_CONTROL, b'{"op": "explode"}')
        with pytest.raises(CodecError):
            get_codec("binary").decode_control(smuggled)

    def test_unit_decoder_goes_by_the_units_own_framing(self):
        stream = b"".join(
            codec.encode_control(frame)
            for frame in self.FRAMES
            for codec in CODECS
        )
        units = StreamDecoder().feed(stream)
        assert [unit.kind for unit in units] == ["line", "frame"] * 3
        assert [decode_control_unit(unit) for unit in units] == [
            frame for frame in self.FRAMES for _ in CODECS
        ]

    def test_unit_decoder_raises_what_the_splitter_reported(self):
        with pytest.raises(CodecError, match="exceeds 8 bytes"):
            decode_control_unit(
                StreamUnit("error", message="event line exceeds 8 bytes")
            )
        with pytest.raises(CodecError):
            decode_control_unit(StreamUnit("line", payload=b"NOT JSON"))

    def test_pipe_link_checks_the_op_it_writes(self):
        written = []

        class Stdin:
            def write(self, data):
                written.append(data)

            async def drain(self):
                pass

        class Process:
            stdin = Stdin()

        link = SubprocessLink(Process())
        run(link.send({"op": "stop"}))
        assert written == [b'{"op": "stop"}\n']
        with pytest.raises(CodecError):
            run(link.send({"op": "explode"}))
        assert len(written) == 1


OVERLAPPING = NetFaultPlan(
    drop_to_worker=(2, 3),
    dup_to_worker=(3, 5),  # 3 is also dropped: the drop wins
    drop_to_supervisor=(1,),
    dup_to_supervisor=(2,),
    resets=(4, 6),  # counted over both directions
    stalls=(2, 4),
    stall_seconds=0.25,
    shard=1,
)

#: Which way each successive frame of the scripted traffic travels.
TRAFFIC = [
    "to_worker", "to_worker", "to_supervisor", "to_worker",
    "to_supervisor", "to_worker", "to_worker", "to_supervisor",
    "to_supervisor", "to_worker",
]


class TestLinkFaults:
    def test_overlapping_ordinals(self):
        faults = LinkFaults(OVERLAPPING, shard=1)
        verdicts = [faults.verdict(direction) for direction in TRAFFIC]
        assert verdicts == [
            ("deliver", 0.0),  # w1
            ("drop", 0.25),    # w2: dropped, and stalled first
            ("drop", 0.0),     # s1
            ("reset", 0.0),    # w3, 4th frame overall: the reset pre-empts
            ("dup", 0.25),     # s2
            ("reset", 0.0),    # w4, 6th overall: no stall on a reset
            ("dup", 0.0),      # w5
            ("deliver", 0.0),  # s3
            ("deliver", 0.25),  # s4
            ("deliver", 0.0),  # w6
        ]
        assert faults.fired == [
            ("to_worker", 2, "drop"),
            ("to_supervisor", 1, "drop"),
            ("to_worker", 3, "reset"),
            ("to_supervisor", 2, "dup"),
            ("to_worker", 4, "reset"),
            ("to_worker", 5, "dup"),
        ]

    def test_drop_wins_over_dup_on_one_ordinal(self):
        plan = NetFaultPlan(drop_to_worker=(1,), dup_to_worker=(1,))
        assert LinkFaults(plan, shard=0).verdict("to_worker")[0] == "drop"

    @pytest.mark.parametrize("plan", [None, OVERLAPPING])
    def test_unscoped_link_delivers_everything(self, plan):
        faults = LinkFaults(plan, shard=0)  # OVERLAPPING names shard 1
        assert {faults.verdict(d) for d in TRAFFIC} == {("deliver", 0.0)}
        assert faults.fired == []
        assert faults.ordinals == {"to_worker": 6, "to_supervisor": 4}


class FakeLink(WorkerLink):
    """An in-memory worker link: remembers sends, reads canned frames."""

    def __init__(self, inbound):
        self.sent = []
        self.inbound = list(inbound)
        self.kills = 0

    async def send(self, frame):
        self.sent.append(frame)

    async def read(self):
        return self.inbound.pop(0) if self.inbound else None

    def kill(self):
        self.kills += 1

    def close_input(self):
        pass


class QuietWorker:
    """A worker end that answers nothing, so the script is the traffic."""

    def __init__(self):
        self.handled = []

    def handle(self, frame, emit):
        self.handled.append(frame)
        return True


class TestFaultyLinkMatchesTheHarness:
    """One plan, one traffic script: the live injector and the sans-IO
    channel fire the same (direction, ordinal, verdict) sequence and
    hand on the same frames."""

    PLAN = NetFaultPlan(
        drop_to_worker=(2,),
        dup_to_worker=(4,),
        drop_to_supervisor=(3,),
        dup_to_supervisor=(1,),
        resets=(6,),
    )

    def test_same_verdicts_same_deliveries(self):
        # Unnumbered frames: the session layer passes them through
        # untouched, so what arrives is exactly what the faults allow.
        beats = [{"op": "beat", "seq": i} for i in range(len(TRAFFIC))]

        worker = QuietWorker()
        channel = _Channel(0, worker, self.PLAN, "jsonl")
        for direction, frame in zip(TRAFFIC, beats):
            channel._queue.append((direction, dict(frame)))
            channel._pump()

        inner = FakeLink(
            frame for d, frame in zip(TRAFFIC, beats) if d == "to_supervisor"
        )
        link = FaultyLink(inner, LinkFaults(self.PLAN, shard=0))
        read = []
        for direction, frame in zip(TRAFFIC, beats):
            if direction == "to_worker":
                try:
                    run(link.send(dict(frame)))
                except ConnectionResetError:
                    pass
                continue
            got = run(link.read())
            while got is not None:
                read.append(got)
                if not link._pending:
                    break
                got = run(link.read())

        assert link.faults.fired == channel.faults.fired
        assert {verdict for _, _, verdict in link.faults.fired} == {
            "drop", "dup", "reset",
        }
        assert inner.kills == channel.resumes == 1
        assert [f["seq"] for f in inner.sent] == [
            f["seq"] for f in worker.handled
        ]
        assert [f["seq"] for f in read] == [f["seq"] for f in channel.inbox]
