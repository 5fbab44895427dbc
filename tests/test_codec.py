"""Property-based tests for the versioned wire codecs.

Hypothesis drives the round-trip law ``decode_batch(encode_batch(b)) ==
b`` for both registered codecs across unicode names, arbitrary JSON
parameters, empty batches, and ticks beyond u64 (the ``_FLAG_WIDE``
escape hatch), then attacks the binary framing: every single-byte
corruption of a valid frame must raise a *typed*
:class:`~repro.errors.CodecError`, and a corrupt or oversized unit must
never desync the :class:`~repro.serve.protocol.StreamDecoder` — the
units after it still parse.  The negotiation matrix
(:func:`choose_codec` / hello lines) is pinned exactly.
"""

import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.detection.detector import Detection
from repro.errors import CodecError, ReproError
from repro.events.occurrences import EventOccurrence
from repro.serve.protocol import (
    BINARY_VERSION,
    CODEC_NAMES,
    FRAME_EVENTS,
    FRAME_MAGIC,
    HEADER_BYTES,
    MAX_LINE_BYTES,
    BinaryCodec,
    Codec,
    JsonlCodec,
    ServeEvent,
    StreamDecoder,
    choose_codec,
    detection_to_json,
    frame_to_line,
    get_codec,
    hello_ack_line,
    hello_line,
    parse_frame,
    parse_hello,
    resolve_codec,
    row_line,
)
from repro.sim.serving import ServingWorkload
from repro.time.composite import CompositeTimestamp
from repro.time.timestamps import PrimitiveTimestamp

JSONL = get_codec("jsonl")
BINARY = get_codec("binary")
MAX_U64 = (1 << 64) - 1

names = st.text(min_size=1, max_size=12)
json_scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
param_dicts = st.dictionaries(
    st.text(max_size=8),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),
    max_size=4,
)
narrow_ticks = st.integers(min_value=0, max_value=MAX_U64)
# Non-negative: a negative tick cannot be stamped, and both codecs refuse
# it on decode (TestNegativeTicks in test_shard_engine.py).
wide_ticks = st.integers(min_value=0, max_value=1 << 80)


@st.composite
def serve_events(draw, ticks=narrow_ticks):
    return ServeEvent(
        event_type=draw(names),
        site=draw(names),
        global_time=draw(ticks),
        local=draw(ticks),
        parameters=draw(param_dicts),
    )


event_batches = st.lists(serve_events(), max_size=20)
wide_batches = st.lists(serve_events(ticks=wide_ticks), min_size=1, max_size=8)


@st.composite
def detection_rows(draw):
    return {
        "detection": draw(names),
        "shard": draw(st.integers(min_value=0, max_value=64)),
        "timestamp": draw(
            st.lists(
                st.tuples(names, narrow_ticks, narrow_ticks).map(list),
                max_size=3,
            )
        ),
        "parameters": draw(st.dictionaries(st.text(max_size=8), json_scalars, max_size=3)),
    }


# Names that need escaping, every scalar a parameter may carry (floats
# with nan/inf, integers past 2**64), and non-scalars the row drops.
awkward_names = st.one_of(names, st.sampled_from(['say "hi"', "naïve\\site", "規則", "a\nb"]))
row_scalars = st.one_of(
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)


@st.composite
def detections(draw):
    """A detection whose stamp has up to three concurrent triples."""
    granule = draw(st.integers(min_value=0, max_value=MAX_U64 - 1))
    sites = draw(st.lists(awkward_names, min_size=1, max_size=3, unique=True))
    stamps = [
        PrimitiveTimestamp(site, granule + draw(st.integers(0, 1)), draw(narrow_ticks))
        for site in sites
    ]
    parameters = draw(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(row_scalars, st.lists(row_scalars, max_size=2)),
            max_size=4,
        )
    )
    return Detection(
        draw(awkward_names),
        EventOccurrence("e", CompositeTimestamp.of(*stamps), parameters),
    )


class TestRowLine:
    @given(
        detections(),
        st.integers(min_value=0, max_value=64),
        st.sampled_from([None, "tentative", "confirmed", "retracted"]),
        st.integers(min_value=0, max_value=1 << 70),
        st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 70)),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_rendering_step_equals_sorted_key_dumps(
        self, detection, shard, verdict, seq, ref
    ):
        row = detection_to_json(shard, detection, verdict=verdict, seq=seq, ref=ref)
        assert row_line(row) == json.dumps(row, sort_keys=True)
        assert ("verdict" in row) == (verdict is not None)
        stamp = detection.occurrence.timestamp
        assert row["timestamp"] == sorted(list(t.as_triple()) for t in stamp)
        assert all(
            isinstance(value, (str, int, float, bool, type(None)))
            for value in row["parameters"].values()
        )
        assert JSONL.encode_detections([row]) == (row_line(row) + "\n").encode()

    def test_rows_are_the_same_bytes_under_any_hash_seed(self):
        """A stamp is a frozenset; a row must not show its iteration order."""
        workload = ServingWorkload.standard(seed=3, events=150)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            served = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve", "--shards", "4", "--stdin"],
                input=workload.to_jsonl().encode(),
                env=env,
                capture_output=True,
                timeout=120,
                check=True,
            )
            outputs.append(sorted(served.stdout.splitlines()))
        rows = [json.loads(line) for line in outputs[0]]
        assert sum(len(row["timestamp"]) > 1 for row in rows) > 100
        assert outputs[0] == outputs[1]


class TestEventRoundTrip:
    @given(event_batches)
    @settings(deadline=None)
    def test_jsonl_identity(self, batch):
        assert JSONL.decode_batch(JSONL.encode_batch(batch)) == batch

    @given(event_batches)
    @settings(deadline=None)
    def test_binary_identity(self, batch):
        assert BINARY.decode_batch(BINARY.encode_batch(batch)) == batch

    @given(wide_batches)
    @settings(max_examples=50, deadline=None)
    def test_binary_wide_ticks_identity(self, batch):
        decoded = BINARY.decode_batch(BINARY.encode_batch(batch))
        assert decoded == batch
        for original, event in zip(batch, decoded):
            assert type(event.global_time) is int
            assert event.global_time == original.global_time
            assert event.local == original.local

    def test_empty_batch(self):
        for codec in (JSONL, BINARY):
            assert codec.decode_batch(codec.encode_batch([])) == []

    def test_binary_frame_is_one_unit(self):
        batch = [ServeEvent("buy", "ny", 3, 31), ServeEvent("sell", "ny", 3, 32)]
        blob = BINARY.encode_batch(batch)
        assert blob[0] == FRAME_MAGIC
        assert blob[1] == BINARY_VERSION
        assert blob[2] == FRAME_EVENTS
        assert len(blob) == HEADER_BYTES + int.from_bytes(blob[3:7], "big")

    def test_over_line_limit_batch_still_frames(self):
        # A granule batch bigger than any JSONL line may legally travel
        # as one binary frame (the frame bound is FRAME_LIMIT_FACTOR
        # times the line bound).
        big = ServeEvent("buy", "ny", 1, 10, {"blob": "x" * (MAX_LINE_BYTES + 100)})
        blob = BINARY.encode_batch([big])
        assert len(blob) > MAX_LINE_BYTES
        splitter = StreamDecoder()
        units = splitter.feed(blob) + splitter.finish()
        assert [unit.kind for unit in units] == ["frame"]
        assert BINARY.decode_batch(units[0].payload) == [big]


class TestOtherUnitRoundTrips:
    @given(st.lists(detection_rows(), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_detections_identity(self, rows):
        for codec in (JSONL, BINARY):
            assert codec.decode_detections(codec.encode_detections(rows)) == rows

    @given(st.integers(min_value=0, max_value=MAX_U64), serve_events())
    @settings(max_examples=50, deadline=None)
    def test_wal_event_entry(self, seq, event):
        for codec in (JSONL, BINARY):
            entry = codec.decode_wal_entry(codec.encode_wal_entry(seq, "event", event=event))
            assert entry == {"seq": seq, "kind": "event", "event": event}

    @given(
        st.integers(min_value=0, max_value=MAX_U64),
        st.integers(min_value=0, max_value=MAX_U64),
    )
    @settings(max_examples=50, deadline=None)
    def test_wal_advance_entry(self, seq, granule):
        for codec in (JSONL, BINARY):
            entry = codec.decode_wal_entry(
                codec.encode_wal_entry(seq, "advance", granule=granule)
            )
            assert entry == {"seq": seq, "kind": "advance", "granule": granule}

    def test_wal_rejects_unknown_kind(self):
        for codec in (JSONL, BINARY):
            with pytest.raises(CodecError):
                codec.encode_wal_entry(1, "mystery")

    def test_binary_control_matches_jsonl_control(self):
        frame = parse_frame(frame_to_line("beat", shard=2, seq=9))
        blob = BINARY.encode_control(frame)
        assert BINARY.decode_control(blob) == frame

    def test_binary_control_rejects_unknown_op(self):
        with pytest.raises(CodecError):
            BINARY.encode_control({"op": "explode"})


class TestFrameIntegrity:
    BATCH = [
        ServeEvent("buy", "ny", 7, 71, {"qty": 3}),
        ServeEvent("sell", "london", 7, 72),
    ]

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_single_byte_corruption_raises_codec_error(self, data):
        blob = bytearray(BINARY.encode_batch(self.BATCH))
        index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        blob[index] ^= flip
        with pytest.raises(CodecError):
            BINARY.decode_batch(bytes(blob))

    @given(st.integers(min_value=0, max_value=1))
    def test_truncated_frame_raises(self, keep_header):
        blob = BINARY.encode_batch(self.BATCH)
        cut = HEADER_BYTES + 2 if keep_header else HEADER_BYTES - 3
        with pytest.raises(CodecError):
            BINARY.decode_batch(blob[:cut])

    def test_trailing_garbage_raises(self):
        blob = BINARY.encode_batch(self.BATCH)
        with pytest.raises(CodecError, match="length mismatch"):
            BINARY.decode_batch(blob + b"tail")

    def test_checksum_failure_is_detected(self):
        blob = bytearray(BINARY.encode_batch(self.BATCH))
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError, match="checksum"):
            BINARY.decode_batch(bytes(blob))

    def test_unsupported_version_raises(self):
        blob = bytearray(BINARY.encode_batch(self.BATCH))
        blob[1] = 9
        with pytest.raises(CodecError, match="version"):
            BINARY.decode_batch(bytes(blob))

    def test_wrong_kind_raises(self):
        blob = BINARY.encode_batch(self.BATCH)
        with pytest.raises(CodecError, match="kind"):
            BINARY.decode_detections(blob)

    def test_codec_error_is_typed(self):
        assert issubclass(CodecError, ReproError)

    def test_intern_table_name_too_long(self):
        event = ServeEvent("x" * 70_000, "ny", 1, 10)
        with pytest.raises(CodecError, match="name over"):
            BINARY.encode_batch([event])

    def test_intern_table_capacity(self):
        batch = [ServeEvent(f"t{i}", "ny", 1, 10) for i in range(65_536)]
        with pytest.raises(CodecError, match="intern table capacity"):
            BINARY.encode_batch(batch)


def _mixed_stream():
    """A stream interleaving v0 lines, v1 frames, and a control frame."""
    first = [ServeEvent("buy", "ny", 1, 10), ServeEvent("sell", "ny", 1, 11)]
    second = [ServeEvent("cancel", "tokyo", 2, 21, {"ref": "a"})]
    blob = (
        JSONL.encode_batch(first)
        + BINARY.encode_batch(second)
        + (frame_to_line("advance", granule=3) + "\n").encode("utf-8")
        + BINARY.encode_batch(first)
    )
    return blob, first, second


class TestStreamDecoder:
    def _decode_units(self, units):
        events, ops = [], []
        for unit in units:
            if unit.kind == "frame":
                events.extend(BINARY.decode_batch(unit.payload))
            elif unit.kind == "line":
                text = unit.payload.decode("utf-8")
                if '"op"' in text:
                    ops.append(parse_frame(text)["op"])
                else:
                    events.extend(JSONL.decode_batch(unit.payload))
        return events, ops

    def test_mixed_stream_one_shot(self):
        blob, first, second = _mixed_stream()
        splitter = StreamDecoder()
        events, ops = self._decode_units(splitter.feed(blob) + splitter.finish())
        assert events == first + second + first
        assert ops == ["advance"]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunking_is_invisible(self, data):
        blob, _, _ = _mixed_stream()
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(blob)), max_size=8
                )
            )
        )
        one_shot = StreamDecoder()
        expected = one_shot.feed(blob) + one_shot.finish()
        chunked = StreamDecoder()
        units = []
        prev = 0
        for cut in cuts + [len(blob)]:
            units.extend(chunked.feed(blob[prev:cut]))
            prev = cut
        units.extend(chunked.finish())
        assert units == expected

    def test_corrupt_frame_does_not_desync(self):
        good = [ServeEvent("buy", "ny", 1, 10)]
        tail = [ServeEvent("sell", "ny", 2, 20)]
        corrupt = bytearray(BINARY.encode_batch(good))
        corrupt[-1] ^= 0xFF  # payload corruption: CRC fails, length intact
        blob = BINARY.encode_batch(good) + bytes(corrupt) + BINARY.encode_batch(tail)
        splitter = StreamDecoder()
        units = splitter.feed(blob) + splitter.finish()
        assert [unit.kind for unit in units] == ["frame", "frame", "frame"]
        assert BINARY.decode_batch(units[0].payload) == good
        with pytest.raises(CodecError):
            BINARY.decode_batch(units[1].payload)
        assert BINARY.decode_batch(units[2].payload) == tail

    def test_oversized_frame_skipped_without_desync(self):
        splitter = StreamDecoder(max_line_bytes=128)
        huge = BinaryCodec.frame(FRAME_EVENTS, b"x" * (128 * 64 + 1))
        line = JSONL.encode_batch([ServeEvent("buy", "ny", 1, 10)])
        units = splitter.feed(huge + line) + splitter.finish()
        assert [unit.kind for unit in units] == ["error", "line"]
        assert "exceeds" in units[0].message
        assert JSONL.decode_batch(units[1].payload) == [ServeEvent("buy", "ny", 1, 10)]

    def test_oversized_frame_skipped_across_chunks(self):
        splitter = StreamDecoder(max_line_bytes=128)
        huge = BinaryCodec.frame(FRAME_EVENTS, b"x" * (128 * 64 + 1))
        line = JSONL.encode_batch([ServeEvent("buy", "ny", 1, 10)])
        units = []
        for offset in range(0, len(huge), 1000):
            units.extend(splitter.feed(huge[offset:offset + 1000]))
        units.extend(splitter.feed(line) + splitter.finish())
        assert [unit.kind for unit in units] == ["error", "line"]

    def test_oversized_line_skipped_without_desync(self):
        splitter = StreamDecoder(max_line_bytes=32)
        blob = b"{" + b"x" * 64 + b"}\n" + b'{"ok": 1}\n'
        units = splitter.feed(blob) + splitter.finish()
        assert [unit.kind for unit in units] == ["error", "line"]
        assert units[1].payload == b'{"ok": 1}'

    def test_eof_mid_frame_is_reported(self):
        splitter = StreamDecoder()
        blob = BINARY.encode_batch([ServeEvent("buy", "ny", 1, 10)])
        assert splitter.feed(blob[: HEADER_BYTES + 2]) == []
        units = splitter.finish()
        assert [unit.kind for unit in units] == ["error"]
        assert "mid-frame" in units[0].message

    def test_finish_flushes_unterminated_line(self):
        splitter = StreamDecoder()
        splitter.feed(b'{"half": ')
        units = splitter.feed(b"1}") + splitter.finish()
        assert [unit.kind for unit in units] == ["line"]
        assert units[0].payload == b'{"half": 1}'


class TestNegotiation:
    def test_hello_round_trip(self):
        offered = parse_hello(json.loads(hello_line()))
        assert offered == list(CODEC_NAMES)

    def test_parse_hello_rejects_non_hello(self):
        assert parse_hello({"type": "buy"}) is None
        assert parse_hello({"hello": "yes"}) is None
        assert parse_hello({"hello": {"codecs": "binary"}}) is None

    def test_ack_names_the_choice(self):
        ack = json.loads(hello_ack_line(BINARY))
        assert ack == {"hello": {"codec": "binary", "version": 1}}
        ack = json.loads(hello_ack_line(JSONL))
        assert ack == {"hello": {"codec": "jsonl", "version": 0}}

    @pytest.mark.parametrize(
        ("mode", "offered", "expected"),
        [
            ("jsonl", ["binary", "jsonl"], "jsonl"),
            ("jsonl", ["binary"], "jsonl"),
            ("binary", ["binary", "jsonl"], "binary"),
            ("binary", ["jsonl"], "jsonl"),
            ("binary", [], "jsonl"),
            ("auto", ["binary", "jsonl"], "binary"),
            ("auto", ["jsonl", "binary"], "binary"),
            ("auto", ["jsonl"], "jsonl"),
            ("auto", ["martian"], "jsonl"),
        ],
    )
    def test_choose_codec_matrix(self, mode, offered, expected):
        assert choose_codec(mode, offered).name == expected

    def test_choose_codec_rejects_unknown_mode(self):
        with pytest.raises(CodecError, match="mode"):
            choose_codec("gzip", ["binary"])

    def test_registry(self):
        assert get_codec("jsonl") is JSONL
        assert get_codec("binary") is BINARY
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("martian")
        assert resolve_codec(None).name == "jsonl"
        assert resolve_codec(BINARY) is BINARY
        assert resolve_codec("binary") is BINARY
        assert isinstance(JSONL, Codec) and isinstance(BINARY, Codec)

    def test_versions(self):
        assert JsonlCodec.version == 0
        assert BinaryCodec.version == BINARY_VERSION == 1
