"""Wire formats of the serving runtime, behind a versioned codec API.

The serving runtime sits *downstream* of stamping: clients submit
primitive events that already carry their ``(site, global, local)``
timestamp triple (in a deployment, each site stamps with its own
synchronized clock before forwarding — exactly the paper's Section 4
premise).  Two codecs speak that contract:

``JsonlCodec`` (version 0)
    One JSON object per line — the human-debuggable fallback every
    transport accepts::

        {"type": "buy", "site": "ny", "global": 12, "local": 124,
         "parameters": {"qty": 10}}

``BinaryCodec`` (version 1)
    Length-prefixed CRC-checked frames, each carrying a whole granule
    batch of events packed with :mod:`struct` behind interned
    event-type/site string tables.  Batching whole granules is safe by
    Definition 4.4 (events inside one ``g_g`` granule are concurrent for
    every cross-site comparison), so a frame is the natural unit of the
    ``2g_g``-restricted order, and the per-event framing overhead of
    JSONL is paid once per granule instead of once per event.

Both implement :class:`Codec` (``encode_batch`` / ``decode_batch`` /
``version`` plus detection, control and WAL framing); transports
negotiate per connection (see :func:`choose_codec`) and fall back to
version-0 JSONL whenever the peer does not offer binary.  A corrupt
binary frame raises :class:`~repro.errors.CodecError` *without*
desyncing the stream: the splitter (:class:`StreamDecoder`) consumes
the frame by its declared length before the checksum is verified.

Detections travel back the same way (see :func:`detection_to_json`):
the registered rule name, the detecting shard, and the composite
max-set timestamp as a list of triples.

The multi-process cluster (:mod:`repro.serve.cluster`) speaks *control
frames* between the supervisor and a shard worker: one JSON object
with an ``"op"`` field each.  Supervisor -> worker ops are ``register``
/ ``restore`` / ``event`` / ``advance`` / ``checkpoint`` / ``stop``;
worker -> supervisor ops are ``beat`` / ``ack`` / ``detection`` /
``checkpoint_state`` / ``error``.  Their bytes are the codec's
(:meth:`Codec.encode_control` / :meth:`Codec.decode_control`: a JSONL
line — :func:`frame_to_line` / :func:`parse_frame` are its text form —
or a binary control frame), and :func:`decode_control_unit` reads one
off a split stream by the unit's own framing.  Every path checks the
op: an unknown or malformed frame raises
:class:`~repro.errors.CodecError` so both ends can respond with a
structured ``error`` frame instead of dying.
"""

from __future__ import annotations

import json
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.detection.detector import Detection
from repro.errors import CodecError, ReproError
from repro.events.occurrences import EventOccurrence
from repro.time.timestamps import PrimitiveTimestamp


@dataclass(frozen=True, slots=True)
class ServeEvent:
    """One stamped primitive event submitted to the serving runtime."""

    event_type: str
    site: str
    global_time: int
    local: int
    parameters: Mapping[str, Any] = field(default_factory=dict)

    @property
    def granule(self) -> int:
        """The global granule the event belongs to (its batch key)."""
        return self.global_time

    def stamp(self) -> PrimitiveTimestamp:
        """The event's primitive timestamp."""
        return PrimitiveTimestamp(self.site, self.global_time, self.local)

    def occurrence(self) -> EventOccurrence:
        """A fresh primitive occurrence carrying this event's stamp."""
        return EventOccurrence.primitive(
            self.event_type, self.stamp(), self.parameters
        )

    @classmethod
    def from_occurrence(cls, occurrence: EventOccurrence) -> "ServeEvent":
        """Project a stamped primitive occurrence into a serve event."""
        stamp = next(iter(occurrence.timestamp))
        return cls(
            event_type=occurrence.event_type,
            site=stamp.site,
            global_time=stamp.global_time,
            local=stamp.local,
            parameters=dict(occurrence.parameters),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.event_type,
            "site": self.site,
            "global": self.global_time,
            "local": self.local,
            "parameters": dict(self.parameters),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeEvent":
        try:
            global_time, local = int(data["global"]), int(data["local"])
            if global_time < 0 or local < 0:
                # Refused here, where outside bytes become an event: a
                # negative tick can never be stamped (Section 4.1).
                raise ValueError("timestamp ticks must be non-negative")
            return cls(
                event_type=str(data["type"]),
                site=str(data["site"]),
                global_time=global_time,
                local=local,
                parameters=dict(data.get("parameters") or {}),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(f"malformed serve event {data!r}: {error}") from None


def batch_occurrences(events: Sequence[ServeEvent]) -> list[EventOccurrence]:
    """:meth:`ServeEvent.occurrence` of every event, in order — the one
    way an event becomes an occurrence, in list form."""
    return [event.occurrence() for event in events]


def granule_runs(events: Iterable[ServeEvent]) -> Iterator[list[ServeEvent]]:
    """Runs of consecutive events sharing one global granule, order kept:
    the unit a binary frame carries and a shard applies as one step."""
    for _, run in groupby(events, key=attrgetter("granule")):
        yield list(run)


# --- JSONL plumbing (shared by JsonlCodec and the control channel) ----------


def _parse_event_text(line: str) -> ServeEvent:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise ReproError(f"invalid JSON event line: {error}") from None
    if not isinstance(data, dict):
        raise ReproError(f"event line must be a JSON object, got {type(data).__name__}")
    return ServeEvent.from_dict(data)


def _event_to_text(event: ServeEvent) -> str:
    return json.dumps(event.to_dict(), sort_keys=True)


#: Every op the cluster control channel speaks, in either direction.
CONTROL_OPS = frozenset(
    {
        # supervisor -> worker
        "register", "restore", "event", "advance", "checkpoint", "stop",
        # supervisor -> worker: connection setup (TCP transports open with
        # a JSONL hello naming the shard and offering codecs; the worker
        # answers hello_ack and both sides switch to the chosen codec) and
        # state migration (handoff asks for a final checkpoint_state at
        # the current applied seq, the last frame before the shard's
        # rules move to a new shard map).
        "hello", "handoff",
        # admin -> server: re-shard the cluster at the next granule
        # boundary (accepted in-stream by the cluster stdin server).
        "scale",
        # worker -> supervisor
        "hello_ack", "beat", "ack", "detection", "checkpoint_state", "error",
        # either direction: session-layer retransmission request — the
        # receiver saw a numbered frame past a gap and asks the sender
        # to resend everything after the ``have`` watermark (see
        # repro.serve.session).
        "rewind",
    }
)

#: Default bound on one JSONL line (events and control frames alike).
MAX_LINE_BYTES = 1 << 20

#: A binary frame may legitimately carry a whole granule batch, so its
#: bound is this factor times the per-line bound of the same transport.
FRAME_LIMIT_FACTOR = 64


def _checked_control(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """``payload`` if its op is one the control channel speaks."""
    op = payload.get("op")
    if op not in CONTROL_OPS:
        raise CodecError(f"unknown control op {op!r}")
    return payload


def frame_to_line(op: str, **fields: Any) -> str:
    """Serialize one control frame as a JSONL line (no newline)."""
    return json.dumps(_checked_control({"op": op, **fields}), sort_keys=True)


def parse_frame(line: str) -> dict[str, Any]:
    """Parse one control-frame line; raises CodecError on malformed input."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise CodecError(f"invalid JSON control frame: {error}") from None
    if not isinstance(data, dict):
        raise CodecError(
            f"control frame must be a JSON object, got {type(data).__name__}"
        )
    _checked_control(data)
    return data


def detection_to_json(
    shard: int,
    detection: Detection,
    *,
    verdict: str | None = None,
    seq: int | None = None,
    ref: int | None = None,
) -> dict[str, Any]:
    """The JSON row emitted for one detection.

    Triples are listed sorted by ``(site, global, local)``, so a row's
    bytes do not depend on the order the max-set iterates in.
    Exact-mode rows carry no verdict keys at all, so version-0 readers
    are unaffected; an approximate-mode row adds ``verdict``
    (``"tentative"`` / ``"confirmed"`` / ``"retracted"``), its emission
    ``seq``, and — on resolutions — the ``ref`` of the tentative row it
    confirms or cancels.
    """
    occurrence = detection.occurrence
    row = {
        "detection": detection.name,
        "shard": shard,
        "timestamp": sorted(
            [t.site, t.global_time, t.local] for t in occurrence.timestamp
        ),
        "parameters": {
            key: value
            for key, value in occurrence.parameters.items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
    }
    if verdict is not None:
        row["verdict"] = verdict
        row["seq"] = seq
        if ref is not None:
            row["ref"] = ref
    return row


def _sorted_key_encoder() -> Callable[[Any, int], Iterable[str]]:
    """The chunk encoder ``json.dumps(..., sort_keys=True)`` builds anew
    on every call, built once (a row's options never change)."""
    encoder = json.JSONEncoder(sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:  # no C accelerator: the public method, same bytes
        return lambda value, _level: (encoder.encode(value),)
    # No marker table: one shared across calls would keep the ids of a
    # row whose encoding raised; a cyclic row hits the recursion limit.
    return make(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, True, False, True,
    )


_ROW_CHUNKS = _sorted_key_encoder()


def row_line(row: Mapping[str, Any]) -> str:
    """The JSONL text of one detection row (no newline): the one step
    from :func:`detection_to_json` to the wire, byte-identical to
    ``json.dumps(row, sort_keys=True)``."""
    return "".join(_ROW_CHUNKS(row, 0))


# --- the versioned codec API -------------------------------------------------


class Codec(ABC):
    """One wire encoding of the serving protocol, identified by version.

    A codec frames four unit kinds: event *batches* (the ingest hot
    path), detection rows, control frames, and WAL entries.  Encoders
    return ``bytes`` ready for the transport; decoders take exactly one
    framed unit (as produced by :class:`StreamDecoder`) and raise
    :class:`~repro.errors.CodecError` on malformed input.
    """

    #: Short registry name (``"jsonl"`` / ``"binary"``).
    name: str
    #: Protocol version carried on the wire (0 = JSONL, 1 = binary).
    version: int

    @abstractmethod
    def encode_batch(self, events: Sequence[ServeEvent]) -> bytes:
        """Frame a whole (granule) batch of events as one wire unit."""

    @abstractmethod
    def decode_batch(self, data: bytes) -> list[ServeEvent]:
        """Decode one framed unit back into its event batch."""

    @abstractmethod
    def encode_detections(self, rows: Sequence[Mapping[str, Any]]) -> bytes:
        """Frame a batch of detection rows (see :func:`detection_to_json`)."""

    @abstractmethod
    def decode_detections(self, data: bytes) -> list[dict[str, Any]]:
        """Decode one framed unit back into its detection rows."""

    @abstractmethod
    def encode_control(self, frame: Mapping[str, Any]) -> bytes:
        """Frame one control frame; an op outside :data:`CONTROL_OPS`
        raises :class:`~repro.errors.CodecError`."""

    @abstractmethod
    def decode_control(self, data: bytes) -> dict[str, Any]:
        """Decode one framed unit back into its control frame (op
        checked)."""

    @abstractmethod
    def encode_wal_entry(
        self,
        seq: int,
        kind: str,
        event: ServeEvent | None = None,
        granule: int | None = None,
    ) -> bytes:
        """Frame one WAL entry (``kind`` is ``"event"`` or ``"advance"``)."""

    @abstractmethod
    def decode_wal_entry(self, data: bytes) -> dict[str, Any]:
        """Decode one WAL unit to ``{seq, kind, event?, granule?}``."""

    def frame_limit(self, max_line_bytes: int) -> int:
        """The oversized-unit bound for this codec on a transport whose
        per-line bound is ``max_line_bytes``."""
        return max_line_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} v{self.version}>"


class JsonlCodec(Codec):
    """Version 0: one JSON object per ``\\n``-terminated line."""

    name = "jsonl"
    version = 0

    def encode_batch(self, events: Sequence[ServeEvent]) -> bytes:
        return "".join(
            _event_to_text(event) + "\n" for event in events
        ).encode("utf-8")

    def decode_batch(self, data: bytes) -> list[ServeEvent]:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"event lines are not UTF-8: {error}") from None
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(_parse_event_text(line))
            except ReproError as error:
                raise CodecError(str(error)) from None
        return events

    def encode_detections(self, rows: Sequence[Mapping[str, Any]]) -> bytes:
        return "".join(row_line(row) + "\n" for row in rows).encode("utf-8")

    def decode_detections(self, data: bytes) -> list[dict[str, Any]]:
        rows = []
        for line in data.decode("utf-8", errors="replace").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise CodecError(f"invalid detection line: {error}") from None
            if not isinstance(row, dict):
                raise CodecError("detection line must be a JSON object")
            rows.append(row)
        return rows

    def encode_control(self, frame: Mapping[str, Any]) -> bytes:
        # row_line: sorted-key JSON without an encoder built per frame.
        return (row_line(_checked_control(frame)) + "\n").encode("utf-8")

    def decode_control(self, data: bytes) -> dict[str, Any]:
        return parse_frame(data.decode("utf-8", errors="replace"))

    def encode_wal_entry(
        self,
        seq: int,
        kind: str,
        event: ServeEvent | None = None,
        granule: int | None = None,
    ) -> bytes:
        if kind == "event":
            payload: dict[str, Any] = {
                "seq": seq, "kind": kind, "event": event.to_dict()
            }
        elif kind == "advance":
            payload = {"seq": seq, "kind": kind, "granule": granule}
        else:
            raise CodecError(f"unknown WAL entry kind {kind!r}")
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

    def decode_wal_entry(self, data: bytes) -> dict[str, Any]:
        try:
            row = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CodecError(f"malformed WAL line: {error}") from None
        if not isinstance(row, dict):
            raise CodecError("WAL line must be a JSON object")
        try:
            kind = str(row["kind"])
            out: dict[str, Any] = {"seq": int(row["seq"]), "kind": kind}
            if kind == "event":
                out["event"] = ServeEvent.from_dict(row["event"])
            elif kind == "advance":
                out["granule"] = int(row["granule"])
            else:
                raise CodecError(f"unknown WAL entry kind {kind!r}")
        except (KeyError, TypeError, ValueError, ReproError) as error:
            raise CodecError(f"malformed WAL entry {row!r}: {error}") from None
        return out


# Binary framing: one 11-byte header, then the payload.
#
#     offset  size  field
#     0       1     magic (0xF5 — never a valid UTF-8 lead byte, so the
#                   splitter can tell a frame from a JSONL line)
#     1       1     protocol version (1)
#     2       1     frame kind (1 events, 2 detections, 3 control, 4 WAL)
#     3       4     payload length N (big-endian u32)
#     7       4     CRC-32 of the payload (big-endian u32)
#     11      N     payload
FRAME_MAGIC = 0xF5
BINARY_VERSION = 1
_HEADER = struct.Struct(">BBBII")
HEADER_BYTES = _HEADER.size

FRAME_EVENTS = 1
FRAME_DETECTIONS = 2
FRAME_CONTROL = 3
FRAME_WAL = 4

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_MAX_U16 = (1 << 16) - 1
_MAX_U64 = (1 << 64) - 1

_FLAG_PARAMS = 1
_FLAG_WIDE = 2


def _json_bytes(value: Any) -> bytes:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _loads_or_codec_error(blob: bytes) -> Any:
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CodecError(f"malformed embedded JSON: {error}") from None


class _Cursor:
    """Bounds-checked reader over one frame payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise CodecError(
                f"truncated frame payload: wanted {count} byte(s) at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: struct.Struct) -> int:
        return fmt.unpack(self.take(fmt.size))[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(
                f"{len(self.data) - self.pos} trailing byte(s) in frame payload"
            )


class BinaryCodec(Codec):
    """Version 1: length-prefixed CRC-checked binary frames.

    An event frame packs the whole batch columnarly: interned
    event-type and site tables up front, then per-event u16 table
    indexes and u64 ``(global, local)`` ticks in four bulk
    :mod:`struct` arrays.  Parameters, when any event has them, ride as
    *one* JSON array for the whole batch — so the per-event Python/JSON
    cost of JSONL collapses to a handful of bulk operations per granule.

    Two escape hatches keep the format total: tick values outside u64
    (or negative) flip the batch to a JSON-encoded tick array
    (``_FLAG_WIDE``), and parameter maps must be JSON-serializable with
    string keys — the same contract the JSONL codec imposes.
    """

    name = "binary"
    version = BINARY_VERSION

    # --- framing ---------------------------------------------------------

    @staticmethod
    def frame(kind: int, payload: bytes) -> bytes:
        return _HEADER.pack(
            FRAME_MAGIC, BINARY_VERSION, kind, len(payload),
            zlib.crc32(payload),
        ) + payload

    @staticmethod
    def unframe(data: bytes, expected_kind: int | None = None) -> tuple[int, bytes]:
        """Validate one complete frame; returns ``(kind, payload)``."""
        if len(data) < HEADER_BYTES:
            raise CodecError(
                f"truncated frame header: {len(data)} < {HEADER_BYTES} bytes"
            )
        magic, version, kind, length, crc = _HEADER.unpack_from(data)
        if magic != FRAME_MAGIC:
            raise CodecError(f"bad frame magic 0x{magic:02X}")
        if version != BINARY_VERSION:
            raise CodecError(
                f"unsupported binary protocol version {version} "
                f"(this codec speaks {BINARY_VERSION})"
            )
        payload = data[HEADER_BYTES:]
        if len(payload) != length:
            raise CodecError(
                f"frame length mismatch: header says {length}, "
                f"payload is {len(payload)} byte(s)"
            )
        if zlib.crc32(payload) != crc:
            raise CodecError("frame checksum mismatch (corrupt payload)")
        if expected_kind is not None and kind != expected_kind:
            raise CodecError(
                f"unexpected frame kind {kind} (wanted {expected_kind})"
            )
        return kind, payload

    def frame_limit(self, max_line_bytes: int) -> int:
        return FRAME_LIMIT_FACTOR * max_line_bytes

    # --- event batches ---------------------------------------------------

    # Serialized intern tables recur verbatim across frames (a serving
    # stream cycles through a small set of event types and sites), so
    # the table bytes are memoized per name tuple.  Bounded: a hostile
    # or pathological stream with unbounded distinct name sets clears
    # the cache instead of growing it.
    _TABLE_CACHE: dict[tuple[str, ...], bytes] = {}
    _TABLE_CACHE_MAX = 256

    @classmethod
    def _encode_table(cls, names: tuple[str, ...], what: str) -> bytes:
        cached = cls._TABLE_CACHE.get(names)
        if cached is not None:
            return cached
        parts = [_U32.pack(len(names))]
        for name in names:
            blob = name.encode("utf-8")
            if len(blob) > _MAX_U16:
                raise CodecError(f"{what} name over {_MAX_U16} bytes")
            parts.append(_U16.pack(len(blob)))
            parts.append(blob)
        encoded = b"".join(parts)
        if len(cls._TABLE_CACHE) >= cls._TABLE_CACHE_MAX:
            cls._TABLE_CACHE.clear()
        cls._TABLE_CACHE[names] = encoded
        return encoded

    @staticmethod
    def _encode_events_payload(events: Sequence[ServeEvent]) -> bytes:
        count = len(events)
        types: dict[str, int] = {}
        sites: dict[str, int] = {}
        # dict.setdefault(name, len(table)) evaluates len *before* the
        # insert, so a fresh name gets the next index in one call.
        tset = types.setdefault
        sset = sites.setdefault
        type_idx = [tset(event.event_type, len(types)) for event in events]
        site_idx = [sset(event.site, len(sites)) for event in events]
        globals_ = [event.global_time for event in events]
        locals_ = [event.local for event in events]
        params = [event.parameters for event in events]
        if len(types) > _MAX_U16 or len(sites) > _MAX_U16:
            raise CodecError(
                "batch exceeds intern table capacity "
                f"({len(types)} type(s), {len(sites)} site(s) > {_MAX_U16}); "
                "split it into smaller frames"
            )
        flags = 0
        wide = count > 0 and (
            min(globals_) < 0 or max(globals_) > _MAX_U64
            or min(locals_) < 0 or max(locals_) > _MAX_U64
        )
        if wide:
            flags |= _FLAG_WIDE
        if any(params):
            flags |= _FLAG_PARAMS
        parts = [
            BinaryCodec._encode_table(tuple(types), "event type"),
            BinaryCodec._encode_table(tuple(sites), "site"),
        ]
        # One bulk pack for the whole fixed-width mid-section ('<' means
        # no alignment padding, so this is byte-identical to packing the
        # count, flags, index arrays and tick arrays separately).
        try:
            if wide:
                parts.append(
                    struct.pack(
                        f"<IB{count}H{count}H", count, flags,
                        *type_idx, *site_idx,
                    )
                )
                blob = _json_bytes([globals_, locals_])
                parts.append(_U32.pack(len(blob)))
                parts.append(blob)
            else:
                parts.append(
                    struct.pack(
                        f"<IB{count}H{count}H{count}Q{count}Q", count, flags,
                        *type_idx, *site_idx, *globals_, *locals_,
                    )
                )
        except struct.error as error:
            raise CodecError(f"unpackable event batch: {error}") from None
        if flags & _FLAG_PARAMS:
            try:
                blob = _json_bytes(params)
            except TypeError:
                # Non-dict Mappings are JSON-serializable in spirit but
                # not to the C encoder; copy only on this rare path.
                blob = _json_bytes([dict(p) for p in params])
            parts.append(_U32.pack(len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @staticmethod
    def _decode_events_payload(cursor: _Cursor) -> list[ServeEvent]:
        # Hot path: raw offset arithmetic over the payload instead of
        # per-field cursor calls, one bulk unpack for the fixed-width
        # mid-section, and direct slot assignment for the events (the
        # CRC-checked frame already vouches for integrity; shape errors
        # below still surface as CodecError).
        data = cursor.data
        pos = cursor.pos
        end = len(data)
        try:
            (n_types,) = _U32.unpack_from(data, pos)
            pos += 4
            types = []
            for _ in range(n_types):
                (length,) = _U16.unpack_from(data, pos)
                pos += 2
                if pos + length > end:
                    raise struct.error
                types.append(data[pos:pos + length].decode("utf-8"))
                pos += length
            (n_sites,) = _U32.unpack_from(data, pos)
            pos += 4
            sites = []
            for _ in range(n_sites):
                (length,) = _U16.unpack_from(data, pos)
                pos += 2
                if pos + length > end:
                    raise struct.error
                sites.append(data[pos:pos + length].decode("utf-8"))
                pos += length
            count, flags = struct.unpack_from("<IB", data, pos)
            pos += 5
            indexes = struct.unpack_from(f"<{2 * count}H", data, pos)
            pos += 4 * count
            type_idx = indexes[:count]
            site_idx = indexes[count:]
            if flags & _FLAG_WIDE:
                (length,) = _U32.unpack_from(data, pos)
                pos += 4
                if pos + length > end:
                    raise struct.error
                ticks = _loads_or_codec_error(data[pos:pos + length])
                pos += length
                if (
                    not isinstance(ticks, list) or len(ticks) != 2
                    or len(ticks[0]) != count or len(ticks[1]) != count
                ):
                    raise CodecError("malformed wide-tick array")
                globals_, locals_ = ticks
            else:
                ticks = struct.unpack_from(f"<{2 * count}Q", data, pos)
                pos += 16 * count
                globals_ = ticks[:count]
                locals_ = ticks[count:]
            if flags & _FLAG_PARAMS:
                (length,) = _U32.unpack_from(data, pos)
                pos += 4
                if pos + length > end:
                    raise struct.error
                params = _loads_or_codec_error(data[pos:pos + length])
                pos += length
                if not isinstance(params, list) or len(params) != count:
                    raise CodecError("malformed batch parameter array")
            else:
                params = None
        except (struct.error, UnicodeDecodeError):
            raise CodecError(
                f"truncated or malformed event frame payload at offset {pos}"
            ) from None
        cursor.pos = pos
        cursor.done()
        new = object.__new__
        set_slot = object.__setattr__
        events: list[ServeEvent] = []
        append = events.append
        try:
            if params is None:
                for i in range(count):
                    event = new(ServeEvent)
                    set_slot(event, "event_type", types[type_idx[i]])
                    set_slot(event, "site", sites[site_idx[i]])
                    set_slot(event, "global_time", globals_[i])
                    set_slot(event, "local", locals_[i])
                    set_slot(event, "parameters", {})
                    append(event)
            else:
                for i in range(count):
                    p = params[i]
                    if type(p) is not dict:
                        raise CodecError(
                            "batch parameter entries must be JSON objects"
                        )
                    event = new(ServeEvent)
                    set_slot(event, "event_type", types[type_idx[i]])
                    set_slot(event, "site", sites[site_idx[i]])
                    set_slot(event, "global_time", globals_[i])
                    set_slot(event, "local", locals_[i])
                    set_slot(event, "parameters", p)
                    append(event)
        except IndexError:
            raise CodecError(
                "event frame references an intern-table index out of range"
            ) from None
        if flags & _FLAG_WIDE:
            # The JSON tick arrays may carry non-integers and negatives;
            # the struct path cannot (u64s decode as non-negative ints by
            # construction).
            for event in events:
                if (
                    type(event.global_time) is not int
                    or type(event.local) is not int
                ):
                    raise CodecError("malformed wide-tick array")
                if event.global_time < 0 or event.local < 0:
                    raise CodecError(
                        "timestamp ticks must be non-negative, got "
                        f"global={event.global_time}, local={event.local}"
                    )
        return events

    def encode_batch(self, events: Sequence[ServeEvent]) -> bytes:
        return self.frame(FRAME_EVENTS, self._encode_events_payload(events))

    def decode_batch(self, data: bytes) -> list[ServeEvent]:
        _, payload = self.unframe(data, expected_kind=FRAME_EVENTS)
        return self._decode_events_payload(_Cursor(payload))

    # --- detections and control ------------------------------------------

    def encode_detections(self, rows: Sequence[Mapping[str, Any]]) -> bytes:
        return self.frame(FRAME_DETECTIONS, _json_bytes(list(rows)))

    def decode_detections(self, data: bytes) -> list[dict[str, Any]]:
        _, payload = self.unframe(data, expected_kind=FRAME_DETECTIONS)
        rows = _loads_or_codec_error(payload)
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            raise CodecError("detection frame must carry a JSON row array")
        return rows

    def encode_control(self, frame: Mapping[str, Any]) -> bytes:
        return self.frame(
            FRAME_CONTROL, _json_bytes(dict(_checked_control(frame)))
        )

    def decode_control(self, data: bytes) -> dict[str, Any]:
        _, payload = self.unframe(data, expected_kind=FRAME_CONTROL)
        frame = _loads_or_codec_error(payload)
        if not isinstance(frame, dict) or frame.get("op") not in CONTROL_OPS:
            raise CodecError("malformed binary control frame")
        return frame

    # --- WAL entries ------------------------------------------------------

    _WAL_EVENT = 1
    _WAL_ADVANCE = 2

    def encode_wal_entry(
        self,
        seq: int,
        kind: str,
        event: ServeEvent | None = None,
        granule: int | None = None,
    ) -> bytes:
        if not 0 <= seq <= _MAX_U64:
            raise CodecError(f"WAL seq {seq} outside u64")
        if kind == "event":
            payload = (
                _U8.pack(self._WAL_EVENT)
                + _U64.pack(seq)
                + self._encode_events_payload([event])
            )
        elif kind == "advance":
            if not 0 <= granule <= _MAX_U64:
                raise CodecError(f"WAL advance granule {granule} outside u64")
            payload = (
                _U8.pack(self._WAL_ADVANCE) + _U64.pack(seq)
                + _U64.pack(granule)
            )
        else:
            raise CodecError(f"unknown WAL entry kind {kind!r}")
        return self.frame(FRAME_WAL, payload)

    def decode_wal_entry(self, data: bytes) -> dict[str, Any]:
        _, payload = self.unframe(data, expected_kind=FRAME_WAL)
        cursor = _Cursor(payload)
        entry_kind = cursor.unpack(_U8)
        seq = cursor.unpack(_U64)
        if entry_kind == self._WAL_EVENT:
            events = self._decode_events_payload(cursor)
            if len(events) != 1:
                raise CodecError(
                    f"WAL event entry carries {len(events)} event(s), wanted 1"
                )
            return {"seq": seq, "kind": "event", "event": events[0]}
        if entry_kind == self._WAL_ADVANCE:
            granule = cursor.unpack(_U64)
            cursor.done()
            return {"seq": seq, "kind": "advance", "granule": granule}
        raise CodecError(f"unknown binary WAL entry kind {entry_kind}")


_CODECS: dict[str, Codec] = {
    JsonlCodec.name: JsonlCodec(),
    BinaryCodec.name: BinaryCodec(),
}

#: Registry names, most preferred first (what `auto` negotiates toward).
CODEC_NAMES = ("binary", "jsonl")


def get_codec(name: str) -> Codec:
    """The singleton codec registered under ``name``."""
    codec = _CODECS.get(name)
    if codec is None:
        raise CodecError(
            f"unknown codec {name!r}; registered: {', '.join(sorted(_CODECS))}"
        )
    return codec


def resolve_codec(codec: "str | Codec | None", default: str = "jsonl") -> Codec:
    """Normalize a codec argument (name, instance, or None) to a codec."""
    if codec is None:
        return get_codec(default)
    if isinstance(codec, Codec):
        return codec
    return get_codec(codec)


# --- negotiation -------------------------------------------------------------
#
# Negotiation is itself version 0: the client *may* open with one JSONL
# hello line offering its codecs; the server answers with the codec it
# chose and both sides switch.  A client that never says hello is a
# version-0 client, and a `binary`- or `auto`-configured server still
# accepts its JSONL lines — the fallback is always available, the
# upgrade is opt-in.


def hello_line(codecs: Iterable[str] = CODEC_NAMES) -> str:
    """The client's opening JSONL line offering its codecs, best first."""
    return json.dumps({"hello": {"codecs": list(codecs)}}, sort_keys=True)


def hello_ack_line(codec: Codec) -> str:
    """The server's JSONL reply naming the codec both sides now speak."""
    return json.dumps(
        {"hello": {"codec": codec.name, "version": codec.version}},
        sort_keys=True,
    )


def parse_hello(data: Mapping[str, Any]) -> list[str] | None:
    """The offered codec names if ``data`` is a client hello, else None."""
    hello = data.get("hello")
    if not isinstance(hello, Mapping):
        return None
    codecs = hello.get("codecs")
    if not isinstance(codecs, (list, tuple)):
        return None
    return [str(name) for name in codecs]


def choose_codec(mode: str, offered: Iterable[str]) -> Codec:
    """The server's pick for a client offering ``offered`` codecs.

    ``mode`` is the server's configuration: ``"jsonl"`` pins version 0,
    ``"binary"`` upgrades clients that offer it (others fall back to
    JSONL — a v1 server never strands a v0 client), ``"auto"`` takes the
    best codec both sides speak, preferring binary.
    """
    if mode == "jsonl":
        return get_codec("jsonl")
    if mode not in ("binary", "auto"):
        raise CodecError(
            f"unknown codec mode {mode!r}; expected jsonl, binary, or auto"
        )
    available = set(offered) & set(_CODECS)
    for name in CODEC_NAMES:
        if name in available:
            return get_codec(name)
    return get_codec("jsonl")


# --- the incremental stream splitter ----------------------------------------


@dataclass(frozen=True, slots=True)
class StreamUnit:
    """One unit split off a byte stream: a line, a frame, or an error.

    ``kind`` is ``"line"`` (a complete JSONL line, newline stripped),
    ``"frame"`` (a complete binary frame, header included), or
    ``"error"`` (an oversized or truncated unit that was discarded —
    the stream itself remains usable).
    """

    kind: str
    payload: bytes = b""
    message: str = ""


def unit_codec(unit: StreamUnit) -> Codec:
    """The codec a split unit declares by its own framing: a ``frame``
    is binary, a ``line`` JSONL — whatever the stream negotiated.  An
    ``error`` unit raises its message as a
    :class:`~repro.errors.CodecError`."""
    if unit.kind == "error":
        raise CodecError(unit.message)
    return _CODECS["binary" if unit.kind == "frame" else "jsonl"]


def decode_control_unit(unit: StreamUnit) -> dict[str, Any]:
    """The control frame one split unit carries (op checked)."""
    return unit_codec(unit).decode_control(unit.payload)


class StreamDecoder:
    """Incremental splitter of a mixed JSONL/binary byte stream.

    Feed arbitrary chunks; get back complete :class:`StreamUnit`\\ s.
    The leading byte disambiguates: :data:`FRAME_MAGIC` (0xF5) can
    never start a UTF-8 JSONL line, so frames and lines interleave
    freely on one connection — which is what lets a server accept a
    version-0 client and a version-1 client with the same reader, and
    lets a client upgrade mid-stream after the hello exchange.

    Oversized units are discarded *in bounded memory* (an oversized
    frame is skipped by its declared length without buffering it; an
    oversized line is dropped through its terminating newline) and
    surfaced as one ``"error"`` unit each, so a hostile or broken peer
    cannot wedge the transport.
    """

    def __init__(
        self,
        *,
        max_line_bytes: int = MAX_LINE_BYTES,
        max_frame_bytes: int | None = None,
    ) -> None:
        self.max_line_bytes = max_line_bytes
        self.max_frame_bytes = (
            max_frame_bytes
            if max_frame_bytes is not None
            else get_codec("binary").frame_limit(max_line_bytes)
        )
        self._buffer = b""
        self._skip = 0
        self._discarding_line = False

    def feed(self, data: bytes) -> list[StreamUnit]:
        """Consume one chunk; returns every unit it completed."""
        self._buffer += data
        units: list[StreamUnit] = []
        while True:
            if self._skip:
                dropped = min(self._skip, len(self._buffer))
                self._buffer = self._buffer[dropped:]
                self._skip -= dropped
                if self._skip:
                    break
                continue
            if self._discarding_line:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    self._buffer = b""
                    break
                self._buffer = self._buffer[newline + 1:]
                self._discarding_line = False
                continue
            if not self._buffer:
                break
            if self._buffer[0] == FRAME_MAGIC:
                if len(self._buffer) < HEADER_BYTES:
                    break
                length = _HEADER.unpack_from(self._buffer)[3]
                total = HEADER_BYTES + length
                if total > self.max_frame_bytes:
                    units.append(StreamUnit(
                        "error",
                        message=(
                            f"binary frame of {total} bytes exceeds "
                            f"{self.max_frame_bytes}"
                        ),
                    ))
                    if total <= len(self._buffer):
                        self._buffer = self._buffer[total:]
                    else:
                        self._skip = total - len(self._buffer)
                        self._buffer = b""
                    continue
                if len(self._buffer) < total:
                    break
                frame, self._buffer = (
                    self._buffer[:total], self._buffer[total:]
                )
                units.append(StreamUnit("frame", payload=frame))
                continue
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line, self._buffer = (
                    self._buffer[:newline], self._buffer[newline + 1:]
                )
                if len(line) > self.max_line_bytes:
                    units.append(StreamUnit(
                        "error",
                        message=f"event line exceeds {self.max_line_bytes} bytes",
                    ))
                elif line.strip():
                    units.append(StreamUnit("line", payload=line))
                continue
            if len(self._buffer) > self.max_line_bytes:
                units.append(StreamUnit(
                    "error",
                    message=f"event line exceeds {self.max_line_bytes} bytes",
                ))
                self._buffer = b""
                self._discarding_line = True
            break
        return units

    def finish(self) -> list[StreamUnit]:
        """Signal EOF; flushes a final unterminated line or reports a
        truncated frame."""
        units: list[StreamUnit] = []
        if self._skip:
            self._skip = 0
            self._buffer = b""
            return units  # the oversized frame was already reported
        if self._discarding_line:
            self._discarding_line = False
            self._buffer = b""
            return units
        if not self._buffer:
            return units
        if self._buffer[0] == FRAME_MAGIC:
            units.append(StreamUnit(
                "error",
                message=(
                    f"stream ended mid-frame ({len(self._buffer)} byte(s) "
                    "of an incomplete binary frame)"
                ),
            ))
        elif len(self._buffer) > self.max_line_bytes:
            units.append(StreamUnit(
                "error",
                message=f"event line exceeds {self.max_line_bytes} bytes",
            ))
        elif self._buffer.strip():
            units.append(StreamUnit("line", payload=self._buffer))
        self._buffer = b""
        return units
