"""Per-shard write-ahead log for the fault-tolerant serving cluster.

Every event the router dispatches to a shard — and every drain-time
clock advance — is appended to that shard's WAL *before* it is sent to
the worker process.  The WAL is therefore the authoritative record of
what the shard must have applied: on worker death the supervisor
restores the last durable checkpoint and replays the tail of entries
with sequence numbers past the checkpoint's ``seq``, which reproduces
the exact pre-crash detector state (the replay boundary is well-defined
because entries are applied one at a time in sequence order — see
Def 4.4 and ``docs/serving.md``).

Entries come in two kinds:

``event``
    One :class:`~repro.serve.protocol.ServeEvent` dispatched to the
    shard.

``advance``
    A drain-time engine-clock advance to a horizon granule (fires due
    temporal-operator timers).  Advances are logged so replay reproduces
    timer firings too — a timer detection is as much shard state as an
    event-driven one.

A :class:`ShardWAL` may be file-backed (one file per shard, the mode
the cluster supervisor uses — durable across *process* crashes;
appends are flushed, not fsynced, so an OS crash or power loss may lose
the newest entries) or purely in-memory (the mode the in-process
failover harness, the conformance ``failover`` check, and the benches
use — same replay semantics, no disk).  A file holds JSONL lines or
binary frames (:meth:`~repro.serve.protocol.Codec.encode_wal_entry`)
and is read back by each unit's own framing, bounded only by the
file's size: whatever a log appended, it reloads.  Truncation drops
entries at or below a sequence number once a *previous-generation*
checkpoint covers them; the supervisor deliberately retains one
checkpoint generation of slack so a corrupted latest checkpoint can
still fall back to the previous one plus the retained tail.  The
newest entry is always kept
even when fully covered: it is the durable sequence watermark, so a
reopened log keeps numbering past the checkpoint instead of restarting
below it (which would make new entries invisible to recovery's tail
replay).

A file-backed log keeps, beside each entry, the bytes it stored for it,
so truncation is a copy of the retained bytes to a temp file and an
``os.replace`` — no entry is ever encoded twice, and a checkpoint's WAL
cost does not grow with how far the supervisor runs ahead of its
worker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import CodecError, ReproError
from repro.serve.protocol import (
    Codec,
    ServeEvent,
    StreamDecoder,
    resolve_codec,
    unit_codec,
)

KIND_EVENT = "event"
KIND_ADVANCE = "advance"


@dataclass(frozen=True, slots=True)
class WalEntry:
    """One durable unit of shard input: an event or a clock advance."""

    seq: int
    kind: str
    event: ServeEvent | None = None
    granule: int | None = None

    def to_dict(self) -> dict[str, Any]:
        if self.kind == KIND_EVENT:
            return {"seq": self.seq, "kind": self.kind,
                    "event": self.event.to_dict()}
        return {"seq": self.seq, "kind": self.kind, "granule": self.granule}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WalEntry":
        try:
            kind = str(data["kind"])
            seq = int(data["seq"])
            if kind == KIND_EVENT:
                return cls(seq=seq, kind=kind,
                           event=ServeEvent.from_dict(data["event"]))
            if kind == KIND_ADVANCE:
                return cls(seq=seq, kind=kind, granule=int(data["granule"]))
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(f"malformed WAL entry {data!r}: {error}") from None
        raise ReproError(f"unknown WAL entry kind {kind!r}")

    def frame(self) -> dict[str, Any]:
        """The wire frame dispatching this entry to a worker process."""
        if self.kind == KIND_EVENT:
            return {"op": "event", "seq": self.seq,
                    "event": self.event.to_dict()}
        return {"op": "advance", "seq": self.seq, "granule": self.granule}

    def encode(self, codec: Codec) -> bytes:
        """This entry in ``codec``'s WAL framing."""
        return codec.encode_wal_entry(
            self.seq, self.kind, event=self.event, granule=self.granule
        )

    @classmethod
    def decode(cls, codec: Codec, blob: bytes) -> "WalEntry":
        """One entry back out of ``codec``'s WAL framing."""
        data = codec.decode_wal_entry(blob)
        if data["kind"] == KIND_EVENT:
            return cls(seq=data["seq"], kind=KIND_EVENT, event=data["event"])
        return cls(
            seq=data["seq"], kind=KIND_ADVANCE, granule=data["granule"]
        )


class ShardWAL:
    """Append-only sequence-numbered log of one shard's inputs.

    ``path=None`` keeps the log purely in memory (in-process harness);
    with a path, every append is flushed to the file before the entry
    is considered logged, and an existing file is loaded on open — so a
    restarted *supervisor* recovers parked and unreplayed events, not
    just a restarted worker.  Durability is scoped to process crashes:
    appends are flushed to the OS but not fsynced, so an OS crash or
    power loss may lose the newest entries.

    ``codec`` selects the storage encoding (a name or
    :class:`~repro.serve.protocol.Codec`); a named codec also
    round-trips every append — encoded *and decoded back* before it
    lands in the replay list — so failover replay exercises the
    negotiated wire encoding rather than the in-memory objects.
    ``None`` means exactly "do not re-materialise": the entry is kept
    as the object it is, and a file is written in the JSONL layout.  A
    file is loaded through the stream splitter, so a binary WAL whose
    history began as JSONL (or vice versa, after a codec upgrade) still
    loads: each unit declares its own framing.
    """

    def __init__(
        self, path: str | None = None, *, codec: str | Codec | None = None
    ) -> None:
        self.path = path
        self.codec = resolve_codec(codec)
        self._round_trip = codec is not None
        self._entries: list[WalEntry] = []
        #: The stored bytes of each entry, in step with ``_entries``
        #: while file-backed (empty for an in-memory log).
        self._blobs: list[bytes] = []
        self._next_seq = 1
        self._handle = None
        #: Torn tails healed on load — a final entry truncated mid-write
        #: by a crash was cut off and the log continued (the entry was
        #: never considered logged, so nothing durable is lost).
        self.torn_tails = 0
        if path is not None:
            if os.path.exists(path):
                self._load(path)
            self._handle = open(path, "ab")

    def _load(self, path: str) -> None:
        # The ingest bounds guard against hostile peers; this file is
        # our own.  An event the server accepted can re-serialise past
        # the line that carried it in (the entry wrapper, sorted keys,
        # ASCII escapes), so the only bound on a unit is the file's size.
        size = os.path.getsize(path)
        splitter = StreamDecoder(max_line_bytes=size, max_frame_bytes=size)
        units = []
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 16):
                units.extend(splitter.feed(chunk))
        units.extend(splitter.finish())
        for unit in units:
            try:
                entry = WalEntry.decode(unit_codec(unit), unit.payload)
            except CodecError as error:
                # Only the stream's very tail may legitimately be
                # incomplete (a crash mid-append): it is cut off.  An
                # error earlier in the file is real corruption.
                if unit is not units[-1]:
                    raise ReproError(
                        f"corrupt WAL file {path!r}: {error}"
                    ) from None
                self.torn_tails += 1
                self._rewrite(self._blobs)
            else:
                self._entries.append(entry)
                # Whatever framing the unit came in, a rewrite stores
                # it in this log's codec.
                self._blobs.append(entry.encode(self.codec))
        if self._entries:
            self._next_seq = self._entries[-1].seq + 1

    def _rewrite(self, blobs: list[bytes]) -> None:
        """Atomically replace the file with ``blobs``, the stored bytes
        of the entries it is to hold."""
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(b"".join(blobs))
        os.replace(tmp, self.path)

    # --- append side -----------------------------------------------------

    def append_event(self, event: ServeEvent) -> WalEntry:
        """Log one routed event; returns the entry (with its seq)."""
        return self._append(WalEntry(self._next_seq, KIND_EVENT, event=event))

    def append_advance(self, granule: int) -> WalEntry:
        """Log one drain-time clock advance to ``granule``."""
        return self._append(
            WalEntry(self._next_seq, KIND_ADVANCE, granule=granule)
        )

    def seed_seq(self, after_seq: int) -> None:
        """Never assign sequence numbers at or below ``after_seq``.

        The supervisor seeds a reopened WAL from its checkpoint store's
        watermark: if the log file was lost (or truncated by an older
        version that could empty it), a fresh entry numbered below the
        checkpoint seq would be excluded from recovery's tail replay
        and silently dropped.  Seeding is monotonic — a lower seed
        never rewinds the counter.
        """
        self._next_seq = max(self._next_seq, after_seq + 1)

    def _append(self, entry: WalEntry) -> WalEntry:
        durable = self._handle is not None
        if durable or self._round_trip:
            blob = entry.encode(self.codec)
        if self._round_trip:
            # Store what the codec would put on the wire: the entry is
            # re-materialized from its own encoding, so replay consumes
            # the negotiated format, not the object that produced it.
            entry = WalEntry.decode(self.codec, blob)
        self._entries.append(entry)
        self._next_seq = entry.seq + 1
        if durable:
            self._blobs.append(blob)
            self._handle.write(blob)
            self._handle.flush()
        return entry

    # --- replay side -----------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The newest logged sequence number (0 when empty)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[WalEntry]:
        return iter(self._entries)

    def events(self) -> Iterator[ServeEvent]:
        """The logged events in append order (clock advances skipped).

        The envelope store's lanes hold nothing but events, so this is
        the whole chronology a point-in-time replay consumes.
        """
        for entry in self._entries:
            if entry.kind == KIND_EVENT:
                yield entry.event

    def tail(self, after_seq: int) -> list[WalEntry]:
        """Entries with ``seq > after_seq`` — the failover replay set."""
        return [entry for entry in self._entries if entry.seq > after_seq]

    def truncate(self, upto_seq: int) -> int:
        """Drop entries with ``seq <= upto_seq``; returns how many.

        Callers truncate only up to the *previous* checkpoint
        generation's seq, keeping one generation of replayable slack
        under checkpoint corruption.  The newest entry is retained even
        when covered: it carries the sequence watermark across a
        close/reopen, so numbering never restarts below a checkpoint.
        """
        entries = self._entries
        keep = [n for n, entry in enumerate(entries) if entry.seq > upto_seq]
        if not keep and entries:
            keep = [len(entries) - 1]
        dropped = len(entries) - len(keep)
        if not dropped:
            return 0
        if self._handle is not None:
            # The file is replaced before memory forgets anything: if
            # the write or the rename fails, the error propagates with
            # the log as it was, on disk and in memory, and appendable.
            blobs = [self._blobs[n] for n in keep]
            self._handle.close()
            try:
                self._rewrite(blobs)
            finally:
                self._handle = open(self.path, "ab")
            self._blobs = blobs
        self._entries = [entries[n] for n in keep]
        return dropped

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._blobs = []  # a closed log writes nothing more

    def discard(self) -> None:
        """Close the log and remove every file it writes.

        The log file and the temp file an interrupted truncation can
        leave: a log reopened at this path starts empty.
        """
        self.close()
        self._entries = []
        if self.path is not None:
            for path in (self.path, f"{self.path}.tmp"):
                if os.path.exists(path):
                    os.remove(path)

    def __enter__(self) -> "ShardWAL":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
