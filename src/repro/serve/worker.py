"""The worker side of the serving cluster: one replica behind control frames.

A worker is one :class:`~repro.serve.core.ShardReplica` driven by the
control frames of :mod:`repro.serve.protocol` and knows nothing of the
supervisor feeding it — no router, no WAL, no ledger.
:class:`_ShardSession` is the worker frame step (one inbound frame →
its responses, a failing frame answered with one ``error`` frame), and
it has three hosts that only carry frames to and from it:
:func:`run_worker` behind stdin/stdout pipes (``repro serve-worker
--shard K``), :func:`serve_worker_listener` behind TCP connections with
codec negotiation — every one of them a resumable session, its receive
ladder :meth:`~repro.serve.session.SessionHalf.accept` (``repro
serve-worker --listen HOST:PORT``) — and the sans-IO partition harness
of :mod:`repro.serve.netfault`.  Frame bytes are the codec's in all
three.  What the frames *mean* is decided by
:class:`~repro.serve.core.ClusterCore` and carried here by
:class:`~repro.serve.cluster.ClusterSupervisor`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import time
from typing import Any, Callable, IO

from repro.contexts.policies import Context
from repro.errors import ReproError
from repro.serve.core import ShardReplica
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    Codec,
    StreamDecoder,
    choose_codec,
    decode_control_unit,
    detection_to_json,
    get_codec,
)
from repro.serve.session import DEFAULT_SESSION_GRACE, SessionHalf
from repro.serve.wal import WalEntry

_WORKER_FRAME_LIMIT = 64 * MAX_LINE_BYTES
"""Stream limit for frames read *from* a worker.

``checkpoint_state`` and ``detection`` frames wrap whole detector
snapshots and merged parameter maps, so they can legitimately exceed
the 1 MiB event-line bound; giving the worker's stdout a much larger
limit keeps them deliverable.  A frame past even this limit is
discarded by the stream reader and counted in
:attr:`~repro.serve.cluster.ClusterSupervisor.frames_dropped`.
"""

#: The pipe worker's framing, and the hello exchange of the listener.
_JSONL = get_codec("jsonl")


class _ShardSession:
    """One worker incarnation: a replica driven by inbound control frames.

    The worker frame step, the same under every host: :meth:`handle`
    processes one frame and emits its responses through the supplied
    callable; it returns False when the session should end (a ``stop``
    frame).  A frame that fails — a rule that does not parse, a
    ``restore`` for another shard, an op that is not inbound — costs
    one structured ``error`` frame and the session survives: the
    supervisor decides whether to kill.
    """

    def __init__(self, shard: int, *, timer_ratio: int = 1) -> None:
        self.shard = shard
        self.replica = ShardReplica(shard, timer_ratio=timer_ratio)

    def beat(self) -> dict[str, Any]:
        """A liveness beat's fields: the applied watermark, and the
        send-time clock that lets the monitor tell latency from silence."""
        return {"seq": self.replica.applied_seq, "t": time.monotonic()}

    def handle(
        self, frame: dict[str, Any], emit: Callable[..., None]
    ) -> bool:
        replica = self.replica
        op = frame["op"]
        try:
            if op == "register":
                replica.register(
                    str(frame["expression"]),
                    name=str(frame["name"]),
                    context=Context(frame.get("context", "unrestricted")),
                )
            elif op == "restore":
                replica.restore(frame["state"])
                emit("ack", seq=replica.applied_seq)
            elif op in ("event", "advance"):
                entry = WalEntry.from_dict(
                    {
                        "seq": frame["seq"],
                        "kind": frame["op"],
                        "event": frame.get("event"),
                        "granule": frame.get("granule"),
                    }
                )
                for tagged in replica.apply(entry):
                    emit(
                        "detection",
                        seq=tagged.seq,
                        k=tagged.k,
                        row=detection_to_json(self.shard, tagged.detection),
                    )
                emit("ack", seq=entry.seq)
            elif op in ("checkpoint", "handoff"):
                # A handoff is the state migration of scale(): a
                # checkpoint, but tagged so the supervisor resolves its
                # pending handoff instead of (only) persisting a routine
                # checkpoint.
                emit(
                    "checkpoint_state",
                    seq=replica.applied_seq,
                    state=replica.snapshot(),
                    **({"handoff": True} if op == "handoff" else {}),
                )
            elif op == "stop":
                return False
            else:  # an op valid on the wire but not inbound (beat/ack/...)
                emit("error", message=f"unexpected inbound op {op!r}")
        except ReproError as error:
            emit("error", message=str(error))
        except Exception as error:  # noqa: BLE001 - keep the host's loop alive
            emit("error", message=f"{type(error).__name__}: {error}")
        return True


def run_worker(
    shard: int,
    *,
    timer_ratio: int = 1,
    heartbeat_interval: float = 0.25,
    in_stream: IO[bytes] | None = None,
    out_stream: IO[str] | None = None,
) -> int:
    """The ``repro serve-worker`` loop: one replica behind JSONL frames.

    Reads control frames from ``in_stream`` (default: raw stdin), writes
    response frames to ``out_stream`` (default: stdout, flushed per
    line).  Emits a ``beat`` frame every ``heartbeat_interval`` seconds
    even while idle (using ``select`` on the input fd so buffered lines
    are never stranded).  A malformed or failing frame produces one
    structured ``error`` frame and the loop survives — the supervisor
    decides whether to kill.  EOF on stdin is the shutdown signal.
    """
    import select as select_mod

    session = _ShardSession(shard, timer_ratio=timer_ratio)
    out = out_stream if out_stream is not None else sys.stdout

    def emit(op: str, **fields: Any) -> None:
        out.write(_JSONL.encode_control({"op": op, **fields}).decode("utf-8"))
        out.flush()

    emit("beat", **session.beat())
    source = in_stream if in_stream is not None else sys.stdin.buffer
    try:
        fd = source.fileno()  # io.UnsupportedOperation subclasses OSError
    except (AttributeError, OSError, ValueError):
        fd = None
    buffer = b""
    last_beat = time.monotonic()
    running = True
    while running:
        newline = buffer.find(b"\n")
        if newline < 0:
            if fd is not None:
                ready, _, _ = select_mod.select([fd], [], [], heartbeat_interval)
                if not ready:
                    emit("beat", **session.beat())
                    last_beat = time.monotonic()
                    continue
                chunk = os.read(fd, 1 << 16)
            else:  # in-memory stream (tests): no select, just read
                chunk = source.read(1 << 16)
            if not chunk:
                break
            buffer += chunk
            continue
        line, buffer = buffer[:newline], buffer[newline + 1 :]
        if not line or line.isspace():
            continue
        try:
            frame = _JSONL.decode_control(line)
        except ReproError as error:
            emit("error", message=str(error))
            continue
        running = session.handle(frame, emit)
        if time.monotonic() - last_beat >= heartbeat_interval:
            emit("beat", **session.beat())
            last_beat = time.monotonic()
    return 0


class _HeldSession:
    """A listener-side resumable session: replica + frame ledger.

    Lives in the listener's session table across connections.  While a
    connection is attached, ``owner`` is that connection's writer; after a
    disconnect the session survives until ``expires_at`` (the grace
    window), within which a resume ``hello`` re-attaches it.
    """

    __slots__ = ("sid", "session", "half", "owner", "expires_at", "grace")

    def __init__(self, sid: str, session: _ShardSession, grace: float) -> None:
        self.sid = sid
        self.session = session
        self.half = SessionHalf()
        self.owner: asyncio.StreamWriter | None = None
        self.expires_at: float | None = None
        self.grace = grace


class _Refused(Exception):
    """A hello this listener will not serve; ``frame`` is the one JSONL
    answer the connection gets before it is closed."""

    def __init__(self, op: str, **fields: Any) -> None:
        self.frame = {"op": op, **fields}


async def serve_worker_listener(
    host: str,
    port: int,
    *,
    timer_ratio: int = 1,
    heartbeat_interval: float = 0.25,
    codec: str = "auto",
    announce: Callable[[str], None] | None = None,
    session_grace: float | None = None,
) -> "asyncio.Server":
    """A TCP worker host: ``repro serve-worker --listen HOST:PORT``.

    Each accepted connection opens with a JSONL ``hello`` naming the
    shard index, a ``session`` id and the codecs on offer (plus
    ``timer_ratio``/``heartbeat_interval`` overrides), answered by a
    JSONL ``hello_ack`` naming the codec this listener chose — after
    which both directions speak the negotiated codec.  The connection
    then runs the exact :class:`_ShardSession` frame step the
    subprocess worker runs, with periodic beats.

    Every connection is a *resumable* session: frames run through a
    :class:`~repro.serve.session.SessionHalf` ledger, and when the
    connection drops the replica is held for a grace window
    (``session_grace``, overridable per hello) instead of being
    discarded.  A reconnect hello with ``resume: true`` and the same id
    re-attaches the live replica — the ``hello_ack`` answers
    ``resumed: true`` plus the worker's ``recv`` watermark and both
    sides replay their unacknowledged buffers, so a severed-and-healed
    link is invisible to detection.  A first frame that is not a hello,
    or a hello without a session id, is refused with one ``error``
    frame; a resume of a session this listener no longer holds is
    answered ``resumed: false`` (the supervisor falls back to a full
    respawn).

    One listener hosts any number of shards (one per connection), which
    is what lets ``scale(n)`` grow a cluster without new machines.

    Returns the started :class:`asyncio.Server`; the caller owns its
    lifetime (``serve_forever`` in the CLI, ``close`` in tests).
    ``announce`` is called with the bound ``host:port`` once listening —
    the CLI prints it as a JSON line so scripts can use port 0.
    """
    default_grace = (
        session_grace if session_grace is not None else DEFAULT_SESSION_GRACE
    )
    sessions: dict[str, _HeldSession] = {}

    def attach(
        hello: Any, writer: asyncio.StreamWriter
    ) -> tuple[Codec, _HeldSession]:
        """The codec ``hello`` negotiates and the session it opens or
        resumes, now owned by ``writer``'s connection; :class:`_Refused`
        when there is none to serve."""
        if (
            not isinstance(hello, dict)  # EOF, or a unit that did not decode
            or hello.get("op") != "hello"
            or hello.get("session") is None
        ):
            raise _Refused(
                "error",
                message="expected a hello naming its session as the "
                "first frame",
            )
        sid = str(hello["session"])
        chosen = choose_codec(codec, [str(c) for c in hello.get("codecs", [])])
        now = time.monotonic()
        for expired in [
            key
            for key, held in sessions.items()
            if held.expires_at is not None and now > held.expires_at
        ]:
            del sessions[expired]
        if not hello.get("resume"):
            sessions[sid] = _HeldSession(
                sid,
                _ShardSession(
                    int(hello.get("shard", 0)),
                    timer_ratio=int(hello.get("timer_ratio", timer_ratio)),
                ),
                float(hello.get("session_grace", default_grace)),
            )
        elif sid not in sessions:
            # Grace expired (or the listener itself restarted): the
            # replica is gone, and the supervisor must fall back to a
            # full respawn.
            raise _Refused(
                "hello_ack", codec=chosen.name, version=1, resumed=False
            )
        held = sessions[sid]
        held.owner = writer
        held.expires_at = None
        return chosen, held

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = StreamDecoder(
            max_line_bytes=_WORKER_FRAME_LIMIT,
            max_frame_bytes=_WORKER_FRAME_LIMIT,
        )

        async def inbound():
            """Each unit as its control frame, or as the error decoding
            it raised; our writes are drained between chunks."""
            while chunk := await reader.read(1 << 16):
                for unit in decoder.feed(chunk):
                    try:
                        yield decode_control_unit(unit)
                    except ReproError as error:
                        yield error
                await writer.drain()

        try:
            async with contextlib.aclosing(inbound()) as frames:
                hello = await anext(frames, None)
                try:
                    chosen, held = attach(hello, writer)
                except _Refused as refusal:
                    writer.write(_JSONL.encode_control(refusal.frame))
                    return
                await converse(hello, chosen, held, frames, writer)
        except (OSError, ConnectionError):  # peer went away mid-write
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def converse(
        hello: dict[str, Any],
        chosen: Codec,
        held: _HeldSession,
        frames: Any,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One attached connection, from its ``hello_ack`` to the
        session being finished (``stop``) or held (anything else)."""
        session, half = held.session, held.half
        resumed = bool(hello.get("resume"))

        def write_wire(frame: dict[str, Any]) -> None:
            # A severed transport drops everything anyway; skipping the
            # write spares asyncio's per-call connection-lost warning.
            # Session-stamped frames are already buffered in the session
            # half, so they replay on resume; the rest dies with the link.
            if not writer.transport.is_closing():
                writer.write(chosen.encode_control(frame))

        def emit(op: str, **fields: Any) -> None:
            write_wire(half.stamp({"op": op, **fields}))

        async def beat_loop(interval: float) -> None:
            try:
                while True:
                    await asyncio.sleep(interval)
                    emit("beat", **session.beat())
                    await writer.drain()
            except (OSError, ConnectionError):
                pass  # link died between beats; the read loop holds the session

        # The ack itself is always a JSONL line (readable before
        # negotiation); the switch happens after.
        writer.write(
            _JSONL.encode_control(
                {
                    "op": "hello_ack",
                    "codec": chosen.name,
                    "version": 1,
                    "resumed": resumed,
                    "recv": half.recv_n,
                }
            )
        )
        if resumed:
            # Replay everything the supervisor never saw (already
            # numbered — not re-stamped).
            for replay in half.replay_after(int(hello.get("recv", 0))):
                write_wire(replay)
        emit("beat", **session.beat())
        beats = asyncio.get_running_loop().create_task(
            beat_loop(float(hello.get("heartbeat_interval", heartbeat_interval)))
        )
        stopped = False
        try:
            async for frame in frames:
                if isinstance(frame, ReproError):
                    emit("error", message=str(frame))
                    continue
                deliver, replies = half.accept(frame)
                for reply in replies:
                    write_wire(reply)
                if deliver and not session.handle(frame, emit):
                    stopped = True
                    break
        finally:
            beats.cancel()
            if held.owner is writer:
                if stopped:
                    # Clean shutdown: the session is finished, not lost.
                    if sessions.get(held.sid) is held:
                        del sessions[held.sid]
                else:
                    # Hold the replica for the grace window: a resuming
                    # supervisor reclaims it, everyone else times out.
                    held.owner = None
                    held.expires_at = time.monotonic() + held.grace

    server = await asyncio.start_server(
        on_connection, host, port, limit=_WORKER_FRAME_LIMIT
    )
    if announce is not None:
        bound = server.sockets[0].getsockname()
        announce(f"{bound[0]}:{bound[1]}")
    return server
