"""The worker side of the serving cluster: one replica behind control frames.

A worker is one :class:`~repro.serve.core.ShardReplica` driven by the
control frames of :mod:`repro.serve.protocol` and knows nothing of the
supervisor feeding it — no router, no WAL, no ledger.
:class:`_ShardSession` is the transport-independent half (one frame in,
its responses out; the sans-IO partition harness drives it directly),
:func:`run_worker` wraps it behind stdin/stdout pipes (``repro
serve-worker --shard K``) and :func:`serve_worker_listener` behind TCP
connections with codec negotiation and resumable sessions (``repro
serve-worker --listen HOST:PORT``).  What the frames *mean* is decided
by :class:`~repro.serve.core.ClusterCore` and carried here by
:class:`~repro.serve.cluster.ClusterSupervisor`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, IO

from repro.contexts.policies import Context
from repro.errors import ReproError
from repro.serve.core import ShardReplica
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    StreamDecoder,
    choose_codec,
    detection_to_json,
    frame_to_line,
    get_codec,
    parse_frame,
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


class _ShardSession:
    """One worker incarnation: a replica driven by inbound control frames.

    The transport-independent half of the worker: :func:`run_worker`
    wraps it behind stdin/stdout pipes, :func:`serve_worker_listener`
    behind a TCP connection.  ``handle`` processes one frame and emits
    responses through the supplied callable; it returns False when the
    session should end (a ``stop`` frame).
    """

    def __init__(self, shard: int, *, timer_ratio: int = 1) -> None:
        self.shard = shard
        self.replica = ShardReplica(shard, timer_ratio=timer_ratio)

    def handle(
        self, frame: dict[str, Any], emit: Callable[..., None]
    ) -> bool:
        replica = self.replica
        op = frame["op"]
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
            # A handoff is the state migration of scale(): a checkpoint,
            # but tagged so the supervisor resolves its pending handoff
            # instead of (only) persisting a routine checkpoint.
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
    replica = session.replica
    out = out_stream if out_stream is not None else sys.stdout

    def emit(op: str, **fields: Any) -> None:
        # Beats carry the worker's send-time clock so the supervisor's
        # liveness monitor can separate transport latency from silence.
        if op == "beat":
            fields.setdefault("t", time.monotonic())
        out.write(frame_to_line(op, **fields) + "\n")
        out.flush()

    emit("beat", seq=0)
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
                    emit("beat", seq=replica.applied_seq)
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
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        try:
            frame = parse_frame(text)
        except ReproError as error:
            emit("error", message=str(error))
            continue
        try:
            running = session.handle(frame, emit)
        except ReproError as error:
            emit("error", message=str(error))
        except Exception as error:  # noqa: BLE001 - keep the loop alive
            emit("error", message=f"{type(error).__name__}: {error}")
        if time.monotonic() - last_beat >= heartbeat_interval:
            emit("beat", seq=replica.applied_seq)
            last_beat = time.monotonic()
    return 0


class _HeldSession:
    """A listener-side resumable session: replica + frame ledger.

    Lives in the listener's session table across connections.  While a
    connection is attached, ``owner`` is that connection's id; after a
    disconnect the session survives until ``expires_at`` (the grace
    window), within which a resume ``hello`` re-attaches it.
    """

    __slots__ = ("session", "half", "owner", "expires_at", "grace")

    def __init__(
        self, session: _ShardSession, grace: float
    ) -> None:
        self.session = session
        self.half = SessionHalf()
        self.owner: int | None = None
        self.expires_at: float | None = None
        self.grace = grace


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
    shard index and offering codecs (plus ``timer_ratio``/
    ``heartbeat_interval`` overrides), answered by a JSONL
    ``hello_ack`` naming the codec this listener chose — after which
    both directions speak the negotiated codec.  The connection then
    runs the exact :class:`_ShardSession` loop the subprocess worker
    runs, with periodic beats.

    A hello that carries a ``session`` id makes the incarnation
    *resumable*: frames run through a
    :class:`~repro.serve.session.SessionHalf` ledger, and when the
    connection drops the replica is held for a grace window
    (``session_grace``, overridable per hello) instead of being
    discarded.  A reconnect hello with ``resume: true`` and the same id
    re-attaches the live replica — the ``hello_ack`` answers
    ``resumed: true`` plus the worker's ``recv`` watermark and both
    sides replay their unacknowledged buffers, so a severed-and-healed
    link is invisible to detection.  Without a session id (legacy
    supervisors), dropping the connection discards the replica exactly
    as before, and a kill + reconnect is semantically a respawn.

    One listener hosts any number of shards (one per connection), which
    is what lets ``scale(n)`` grow a cluster without new machines.

    Returns the started :class:`asyncio.Server`; the caller owns its
    lifetime (``serve_forever`` in the CLI, ``close`` in tests).
    ``announce`` is called with the bound ``host:port`` once listening —
    the CLI prints it as a JSON line so scripts can use port 0.
    """
    binary = get_codec("binary")
    default_grace = (
        session_grace if session_grace is not None else DEFAULT_SESSION_GRACE
    )
    sessions: dict[str, _HeldSession] = {}
    connection_counter = itertools.count(1)

    def sweep(now: float) -> None:
        for sid in [
            sid
            for sid, held in sessions.items()
            if held.expires_at is not None and now > held.expires_at
        ]:
            del sessions[sid]

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = StreamDecoder(
            max_line_bytes=_WORKER_FRAME_LIMIT,
            max_frame_bytes=_WORKER_FRAME_LIMIT,
        )
        conn_id = next(connection_counter)
        session: _ShardSession | None = None
        held: _HeldSession | None = None
        chosen = "jsonl"
        stopped = False

        def write_wire(frame: dict[str, Any]) -> None:
            # A severed transport drops everything anyway; skipping the
            # write spares asyncio's per-call connection-lost warning.
            # Session-stamped frames are already buffered in the session
            # half, so they replay on resume; the rest dies with the link.
            if writer.transport.is_closing():
                return
            if chosen == "binary":
                writer.write(binary.encode_control(frame))
            else:
                writer.write(
                    (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")
                )

        def emit(op: str, **fields: Any) -> None:
            if op == "beat":
                fields.setdefault("t", time.monotonic())
            frame = {"op": op, **fields}
            if held is not None:
                frame = held.half.stamp(frame)
            write_wire(frame)

        async def beat_loop(interval: float) -> None:
            try:
                while True:
                    await asyncio.sleep(interval)
                    emit("beat", seq=session.replica.applied_seq)
                    await writer.drain()
            except (OSError, ConnectionError):
                pass  # link died between beats; the read loop holds the session

        beats: asyncio.Task | None = None
        try:
            running = True
            while running:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                for unit in decoder.feed(chunk):
                    if unit.kind == "error":
                        emit("error", message=unit.message)
                        continue
                    try:
                        if unit.kind == "frame":
                            frame = binary.decode_control(bytes(unit.payload))
                        else:
                            frame = parse_frame(
                                unit.payload.decode("utf-8", errors="replace")
                            )
                    except Exception as error:  # noqa: BLE001 - bad frame
                        emit("error", message=str(error))
                        continue
                    if session is None:
                        # Connection setup: hello before anything else.
                        if frame.get("op") != "hello":
                            emit(
                                "error",
                                message="expected hello as the first frame",
                            )
                            running = False
                            break
                        chosen = choose_codec(
                            codec, [str(c) for c in frame.get("codecs", [])]
                        ).name
                        now = time.monotonic()
                        sweep(now)
                        sid = frame.get("session")
                        resumed = False
                        if sid is not None and frame.get("resume"):
                            candidate = sessions.get(str(sid))
                            if candidate is None:
                                # Grace expired (or the listener itself
                                # restarted): the replica is gone, and
                                # the supervisor must fall back to a
                                # full respawn.
                                writer.write(
                                    (
                                        frame_to_line(
                                            "hello_ack",
                                            codec=chosen,
                                            version=1,
                                            resumed=False,
                                        )
                                        + "\n"
                                    ).encode("utf-8")
                                )
                                running = False
                                break
                            held = candidate
                            held.owner = conn_id
                            held.expires_at = None
                            session = held.session
                            resumed = True
                        else:
                            session = _ShardSession(
                                int(frame.get("shard", 0)),
                                timer_ratio=int(
                                    frame.get("timer_ratio", timer_ratio)
                                ),
                            )
                            if sid is not None:
                                held = _HeldSession(
                                    session,
                                    float(
                                        frame.get(
                                            "session_grace", default_grace
                                        )
                                    ),
                                )
                                held.owner = conn_id
                                sessions[str(sid)] = held
                        interval = float(
                            frame.get(
                                "heartbeat_interval", heartbeat_interval
                            )
                        )
                        # The ack itself is always a JSONL line (readable
                        # before negotiation); the switch happens after.
                        ack_fields: dict[str, Any] = {
                            "codec": chosen, "version": 1,
                        }
                        if held is not None:
                            ack_fields["resumed"] = resumed
                            ack_fields["recv"] = held.half.recv_n
                        writer.write(
                            (
                                frame_to_line("hello_ack", **ack_fields)
                                + "\n"
                            ).encode("utf-8")
                        )
                        if resumed:
                            # Replay everything the supervisor never
                            # saw (already numbered — not re-stamped).
                            for replay in held.half.replay_after(
                                int(frame.get("recv", 0))
                            ):
                                write_wire(replay)
                        emit("beat", seq=session.replica.applied_seq)
                        beats = asyncio.get_running_loop().create_task(
                            beat_loop(interval)
                        )
                        continue
                    if held is not None:
                        verdict = held.half.receive(frame)
                        if verdict == "duplicate":
                            continue
                        if verdict == "gap":
                            write_wire(held.half.rewind_frame())
                            continue
                        if frame.get("op") == "rewind":
                            for replay in held.half.replay_after(
                                int(frame["have"])
                            ):
                                write_wire(replay)
                            continue
                    try:
                        running = session.handle(frame, emit)
                    except ReproError as error:
                        emit("error", message=str(error))
                    except Exception as error:  # noqa: BLE001 - keep alive
                        emit("error", message=f"{type(error).__name__}: {error}")
                    if not running:
                        stopped = True
                        break
                await writer.drain()
        except (OSError, ConnectionError):  # peer went away mid-write
            pass
        finally:
            if beats is not None:
                beats.cancel()
            if held is not None and held.owner == conn_id:
                if stopped:
                    # Clean shutdown: the session is finished, not lost.
                    for key in [k for k, h in sessions.items() if h is held]:
                        del sessions[key]
                else:
                    # Hold the replica for the grace window: a resuming
                    # supervisor reclaims it, everyone else times out.
                    held.owner = None
                    held.expires_at = time.monotonic() + held.grace
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    server = await asyncio.start_server(
        on_connection, host, port, limit=_WORKER_FRAME_LIMIT
    )
    if announce is not None:
        bound = server.sockets[0].getsockname()
        announce(f"{bound[0]}:{bound[1]}")
    return server

