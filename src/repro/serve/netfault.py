"""Deterministic network-fault injection for the serving cluster.

:mod:`repro.serve.core`'s :class:`~repro.serve.core.FaultPlan`
schedules *process* faults — kills, dropped beats, corrupt checkpoints.
This module supplies the missing axis: faults in the **network** between
a supervisor and its workers, scheduled just as deterministically:

* :class:`NetFaultPlan` — a seeded, JSON-serializable schedule of
  link-level faults: one-way frame drops (each direction
  independently), frame duplication, connection resets (a partition
  that later heals), and latency stalls.  ``from_seed`` derives a
  reproducible plan from one integer, which is how the conformance
  ``netfault`` check and the fuzzer parameterize cases.

* :class:`LinkFaults` — the one interpreter of a plan: it counts the
  frames attempted on a shard's link and answers each with ``deliver``
  / ``drop`` / ``dup`` / ``reset``.  Both injectors below only ask it.

* :func:`replay_with_netfault` — the sans-IO harness: per shard, a
  supervisor-side :class:`~repro.serve.session.SessionHalf` faces a
  worker-side half plus a live :class:`~repro.serve.worker.
  _ShardSession` replica across a scripted faulty channel.  Every frame
  is round-tripped through the negotiated codec per hop, resets run the
  real resume handshake, and dropped frames are recovered by the
  session layer's gap/rewind machinery — the same
  :meth:`~repro.serve.session.SessionHalf.accept` and the same worker
  frame step the shipped links run — so the check proves the
  *protocol* (not the scheduler) delivers exactly-once detection under
  partitions, for both codecs, with no sockets and no clocks.

* :class:`FaultyLink` + :func:`install_fault_filter` — the in-path
  injector for a *live* TCP cluster: wraps each
  :class:`~repro.serve.transport.TcpLink` below the session layer (via
  ``TcpTransport.link_filter``), applying the same plan to real
  connections.  The interpreter is shared per shard across reconnects,
  so a reset consumes its schedule slot exactly once.

* :class:`TcpFaultProxy` — a real socket-level proxy with ``sever()`` /
  ``heal()`` for end-to-end partition drills (the CI chaos leg and the
  severed-link integration tests): the supervisor dials the proxy, the
  proxy dials the worker, and severing it drops every byte in flight.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.contexts.policies import Context
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.serve.core import ClusterCore, register_frame
from repro.serve.protocol import ServeEvent, get_codec
from repro.serve.session import SessionHalf
from repro.serve.transport import WorkerLink
from repro.serve.worker import _ShardSession


@dataclass(frozen=True, slots=True)
class NetFaultPlan:
    """A deterministic, JSON-serializable schedule of link faults.

    Frame ordinals are 1-based counts of frames *attempted* on a
    direction of one shard's link since the run began (reconnects do
    not reset them — the schedule describes the link's whole history).

    ``drop_to_worker`` / ``drop_to_supervisor``
        Ordinals of frames silently dropped in that direction (a
        one-way partition of length one; contiguous runs model longer
        partitions).
    ``dup_to_worker`` / ``dup_to_supervisor``
        Ordinals of frames delivered twice (retransmission storms,
        misbehaving middleboxes).
    ``resets``
        Ordinals — counted over *both* directions combined — after
        which the connection drops entirely and must be re-established
        (the sever-and-heal partition).
    ``stalls``
        Ordinals (per direction, both directions) of frames delayed by
        ``stall_seconds`` before delivery — latency spikes.  Only the
        live :class:`FaultyLink` sleeps; the sans-IO harness has no
        clock and delivers.
    ``shard``
        Restrict the plan to one shard index (``None`` faults every
        link).
    """

    seed: int = 0
    drop_to_worker: tuple[int, ...] = ()
    drop_to_supervisor: tuple[int, ...] = ()
    dup_to_worker: tuple[int, ...] = ()
    dup_to_supervisor: tuple[int, ...] = ()
    resets: tuple[int, ...] = ()
    stalls: tuple[int, ...] = ()
    stall_seconds: float = 0.05
    shard: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "drop_to_worker", "drop_to_supervisor", "dup_to_worker",
            "dup_to_supervisor", "resets", "stalls",
        ):
            for ordinal in getattr(self, name):
                if ordinal < 1:
                    raise ReproError(
                        f"net-fault {name} ordinals are 1-based, "
                        f"got {ordinal}"
                    )
        if self.stall_seconds < 0:
            raise ReproError(
                f"stall_seconds must be non-negative, got {self.stall_seconds}"
            )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        frames: int = 60,
        drops: int = 2,
        dups: int = 2,
        resets: int = 1,
        stalls: int = 1,
        shard: int | None = None,
    ) -> "NetFaultPlan":
        """A reproducible random plan: same seed, same faults."""
        rng = random.Random(seed)

        def pick(count: int, span: int) -> tuple[int, ...]:
            count = min(count, span)
            return tuple(sorted(rng.sample(range(1, span + 1), count)))

        return cls(
            seed=seed,
            drop_to_worker=pick(drops, frames),
            drop_to_supervisor=pick(drops, frames),
            dup_to_worker=pick(dups, frames),
            dup_to_supervisor=pick(dups, frames),
            resets=pick(resets, frames * 2),
            stalls=pick(stalls, frames),
            shard=shard,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "drop_to_worker": list(self.drop_to_worker),
            "drop_to_supervisor": list(self.drop_to_supervisor),
            "dup_to_worker": list(self.dup_to_worker),
            "dup_to_supervisor": list(self.dup_to_supervisor),
            "resets": list(self.resets),
            "stalls": list(self.stalls),
            "stall_seconds": self.stall_seconds,
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetFaultPlan":
        try:
            return cls(
                seed=int(data.get("seed", 0)),
                drop_to_worker=tuple(
                    int(n) for n in data.get("drop_to_worker", ())
                ),
                drop_to_supervisor=tuple(
                    int(n) for n in data.get("drop_to_supervisor", ())
                ),
                dup_to_worker=tuple(
                    int(n) for n in data.get("dup_to_worker", ())
                ),
                dup_to_supervisor=tuple(
                    int(n) for n in data.get("dup_to_supervisor", ())
                ),
                resets=tuple(int(n) for n in data.get("resets", ())),
                stalls=tuple(int(n) for n in data.get("stalls", ())),
                stall_seconds=float(data.get("stall_seconds", 0.05)),
                shard=(
                    int(data["shard"])
                    if data.get("shard") is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as error:
            raise ReproError(f"malformed net-fault plan: {error}") from None

    @classmethod
    def from_json(cls, text: str) -> "NetFaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"net-fault plan is not valid JSON: {error}"
            ) from None
        if not isinstance(data, dict):
            raise ReproError("net-fault plan must be a JSON object")
        return cls.from_dict(data)


class LinkFaults:
    """The one interpreter of a :class:`NetFaultPlan`, for one shard's link.

    Counts the frames attempted per direction and over both (the
    plan's ordinals, never reset by a reconnect); ``fired`` logs every
    verdict but ``deliver`` as ``(direction, ordinal, verdict)``.  A
    plan scoped to another shard, or no plan, delivers everything.
    """

    def __init__(self, plan: NetFaultPlan | None, shard: int) -> None:
        scoped = plan is not None and plan.shard in (None, shard)
        self.plan = plan if scoped else None
        self.ordinals = {"to_worker": 0, "to_supervisor": 0}
        self.total = 0
        self.fired: list[tuple[str, int, str]] = []

    def verdict(self, direction: str) -> tuple[str, float]:
        """``(deliver | drop | dup | reset, stall seconds)`` for the next
        frame attempted in ``direction`` (``to_worker`` /
        ``to_supervisor``): a reset pre-empts the rest, a drop a dup."""
        self.ordinals[direction] += 1
        plan = self.plan
        if plan is None:
            return "deliver", 0.0
        ordinal = self.ordinals[direction]
        self.total += 1
        if self.total in plan.resets:
            verdict = "reset"
        elif ordinal in getattr(plan, f"drop_{direction}"):
            verdict = "drop"
        elif ordinal in getattr(plan, f"dup_{direction}"):
            verdict = "dup"
        else:
            verdict = "deliver"
        if verdict != "deliver":
            self.fired.append((direction, ordinal, verdict))
        stalled = verdict != "reset" and ordinal in plan.stalls
        return verdict, plan.stall_seconds if stalled else 0.0


class FaultyLink(WorkerLink):
    """In-path injector wrapping one live connection, below the session
    layer — drops, duplicates, stalls, and resets as its
    :class:`LinkFaults` says.

    A reset kills the underlying connection and surfaces the same
    errors a real RST would (``ConnectionResetError`` from ``send``,
    end-of-stream from ``read``), so the resumable link above runs its
    genuine reconnect path.
    """

    def __init__(self, inner: WorkerLink, faults: LinkFaults) -> None:
        self.inner = inner
        self.faults = faults
        self._pending: list[dict[str, Any]] = []

    @property
    def frames_dropped(self) -> int:  # type: ignore[override]
        return self.inner.frames_dropped

    @property
    def codec_name(self) -> str:
        return getattr(self.inner, "codec_name", "jsonl")

    async def send(self, frame: dict[str, Any]) -> None:
        verdict, stall = self.faults.verdict("to_worker")
        if verdict == "reset":
            self.inner.kill()
            raise ConnectionResetError("injected connection reset")
        if stall:
            await asyncio.sleep(stall)
        if verdict == "drop":
            return
        await self.inner.send(frame)
        if verdict == "dup":
            await self.inner.send(frame)

    async def read(self) -> dict[str, Any] | None:
        if self._pending:
            return self._pending.pop(0)
        while True:
            frame = await self.inner.read()
            if frame is None:
                return None
            verdict, stall = self.faults.verdict("to_supervisor")
            if verdict == "reset":
                self.inner.kill()
                return None
            if stall:
                await asyncio.sleep(stall)
            if verdict == "drop":
                continue
            if verdict == "dup":
                self._pending.append(dict(frame))
            return frame

    def kill(self) -> None:
        self.inner.kill()

    def close_input(self) -> None:
        self.inner.close_input()

    async def wait(self, timeout: float = 10.0) -> None:
        await self.inner.wait(timeout=timeout)


def install_fault_filter(transport: Any, plan: NetFaultPlan) -> None:
    """Arm ``transport`` (a TcpTransport) with in-path fault injection.

    Each shard's :class:`LinkFaults` persists across reconnects, so
    each scheduled fault fires exactly once over the link's whole
    history.
    """
    if not hasattr(transport, "link_filter"):
        raise ReproError(
            "net-fault injection needs the tcp transport "
            f"(got {type(transport).__name__})"
        )
    faults: dict[int, LinkFaults] = {}

    def wrap(link: WorkerLink, shard: int) -> WorkerLink:
        if shard not in faults:
            faults[shard] = LinkFaults(plan, shard)
        return FaultyLink(link, faults[shard])

    transport.link_filter = wrap


class TcpFaultProxy:
    """A severable TCP relay between a supervisor and one worker listener.

    The end-to-end partition drill: the supervisor dials the proxy's
    bound port instead of the worker's, and every accepted connection is
    piped byte-for-byte to the target.  :meth:`sever` aborts all live
    pipes and refuses new connections (a full partition — connects see
    resets, in-flight frames die); :meth:`heal` reopens the path, after
    which the resumable session layer reconnects and replays.  Used by
    the severed-link integration tests and the CI chaos partition leg
    (``repro netfault-proxy``).
    """

    def __init__(
        self,
        target: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        target_host, _, target_port = target.rpartition(":")
        if not target_host or not target_port.isdigit():
            raise ReproError(f"proxy target {target!r} is not HOST:PORT")
        self.target_host = target_host
        self.target_port = int(target_port)
        self.host = host
        self.port = port
        self.severed = False
        self.connections = 0
        self.severs = 0
        self._server: asyncio.Server | None = None
        self._writers: list[asyncio.StreamWriter] = []

    @property
    def bound(self) -> str:
        """The ``host:port`` the proxy listens on (after :meth:`start`)."""
        if self._server is None:
            raise ReproError("proxy is not started")
        name = self._server.sockets[0].getsockname()
        return f"{name[0]}:{name[1]}"

    async def start(self) -> "TcpFaultProxy":
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        return self

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.severed:
            writer.close()
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            writer.close()
            return
        self.connections += 1
        self._writers.extend((writer, up_writer))

        async def pipe(
            src: asyncio.StreamReader, dst: asyncio.StreamWriter
        ) -> None:
            try:
                while True:
                    chunk = await src.read(1 << 16)
                    if not chunk or self.severed:
                        break
                    dst.write(chunk)
                    await dst.drain()
            except (OSError, ConnectionError):
                pass
            finally:
                try:
                    dst.close()
                except (OSError, ConnectionError):
                    pass

        await asyncio.gather(
            pipe(reader, up_writer), pipe(up_reader, writer)
        )
        for closed in (writer, up_writer):
            if closed in self._writers:
                self._writers.remove(closed)

    def _abort_pipes(self) -> None:
        for writer in self._writers:
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()

    def sever(self) -> None:
        """Partition: abort every live pipe, refuse new connections."""
        self.severed = True
        self.severs += 1
        self._abort_pipes()

    def heal(self) -> None:
        """End the partition: new connections relay again."""
        self.severed = False

    async def serve_forever(self) -> None:
        """Relay until cancelled (the ``repro netfault-proxy`` loop)."""
        if self._server is None:
            raise ReproError("proxy is not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        self._abort_pipes()
        self.severed = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


# --- the sans-IO partition harness ------------------------------------------


class _Channel:
    """One shard's faulty duplex channel between two session halves.

    Synchronous and deterministic: frames are codec round-tripped per
    hop, faults fire by scripted ordinal, a reset runs the real resume
    handshake (each side replays its unacknowledged buffer — through
    the faulty channel again, so later faults can hit replayed frames).
    """

    def __init__(
        self,
        shard: int,
        worker: Any,
        plan: NetFaultPlan | None,
        codec: str,
    ) -> None:
        self.shard = shard
        self.codec = get_codec(codec)
        self.faults = LinkFaults(plan, shard)
        self.sup = SessionHalf()
        self.wrk = SessionHalf()
        self.resumes = 0
        self.inbox: list[dict[str, Any]] = []  # supervisor-delivered frames
        # direction -> (the half receiving there, what a delivered frame
        # is handed to, the direction its replies travel).  The worker
        # end is a worker._ShardSession answering through _emit.
        self._ends = {
            "to_worker": (
                self.wrk,
                lambda frame: worker.handle(frame, self._emit),
                "to_supervisor",
            ),
            "to_supervisor": (self.sup, self.inbox.append, "to_worker"),
        }
        # The wire is a FIFO, pumped one frame at a time: an endpoint
        # finishes processing a frame (including everything it emits)
        # before the next is delivered.  Recursing instead would let a
        # mid-apply fault re-enter the replica and interleave one
        # entry's detections with another's.
        self._queue: list[tuple[str, dict[str, Any]]] = []
        self._pumping = False

    # -- supervisor-side API ------------------------------------------

    def send(self, frame: dict[str, Any]) -> None:
        """Supervisor sends one logical frame toward the worker."""
        self._queue.append(("to_worker", self.sup.stamp(frame)))
        self._pump()

    def flush(self) -> None:
        """Fault-free settlement: replay until both buffers drain.

        A real link settles trailing losses on its next traffic or its
        next reconnect; the harness ends the scripted faults and runs
        one clean resume so the last frame of a run cannot stay lost.
        """
        self.faults.plan = None
        guard = 0
        while self.sup.outstanding or self.wrk.outstanding:
            self._resume(settle=True)
            self._pump()
            guard += 1
            if guard > 8:  # pragma: no cover - the handshake converges
                raise ReproError(
                    f"netfault flush did not converge for shard {self.shard}"
                )

    def _emit(self, op: str, **fields: Any) -> None:
        """The worker replica's emit callback: stamp and transmit."""
        self._queue.append(
            ("to_supervisor", self.wrk.stamp({"op": op, **fields}))
        )

    # -- the faulty wire ----------------------------------------------

    def _pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._queue:
                direction, wire = self._queue.pop(0)
                verdict, _stall = self.faults.verdict(direction)
                if verdict == "reset":
                    self._resume()
                    continue
                if verdict == "drop":
                    continue
                half, sink, back = self._ends[direction]
                for _ in range(2 if verdict == "dup" else 1):
                    frame = self.codec.decode_control(
                        self.codec.encode_control(wire)
                    )
                    deliver, replies = half.accept(frame)
                    self._queue.extend((back, reply) for reply in replies)
                    if deliver:
                        sink(frame)
        finally:
            self._pumping = False

    # -- the resume handshake -----------------------------------------

    def _resume(self, settle: bool = False) -> None:
        """Sever and immediately heal: the hello/hello_ack watermark
        exchange, then both sides replay their unacknowledged tails.

        ``settle`` marks the end-of-run flush (a trailing ack exchange,
        not a fault recovery) so fault-free runs report zero resumes.
        """
        if not settle:
            self.resumes += 1
        # hello carries the supervisor's recv_n; hello_ack the worker's.
        for wire in self.sup.replay_after(self.wrk.recv_n):
            self._queue.append(("to_worker", wire))
        for wire in self.wrk.replay_after(self.sup.recv_n):
            self._queue.append(("to_supervisor", wire))


@dataclass
class NetFaultReport:
    """What a harness run produced, plus the faults that actually fired."""

    rows: list[dict[str, Any]] = field(default_factory=list)
    resumes: int = 0
    drops: int = 0
    dups: int = 0
    duplicates_suppressed: int = 0

    def timestamps_of(self, name: str) -> list[tuple[Any, ...]]:
        """The (hashable) occurrence timestamps detected for one rule."""
        return [
            tuple(tuple(t) for t in row["timestamp"])
            for row in self.rows
            if row["detection"] == name
        ]

    def names(self) -> set[str]:
        return {row["detection"] for row in self.rows}


def replay_with_netfault(
    rules: Mapping[str, "EventExpression | str"],
    events: Iterable[ServeEvent],
    *,
    shards: int = 2,
    salt: int = 0,
    timer_ratio: int = 1,
    context: Context = Context.UNRESTRICTED,
    horizon: int | None = None,
    plan: NetFaultPlan | None = None,
    codec: str = "jsonl",
) -> NetFaultReport:
    """Serve ``events`` across faulty links; returns what was detected.

    The deterministic engine of the conformance ``netfault`` check:
    ``plan=None`` is the fault-free control run, and the check demands
    the faulted run's detection multiset equal it exactly.  Unlike the
    failover harness there are no crashes here — replicas live through
    every fault; only the *network* misbehaves — so any discrepancy is
    a session-protocol defect, not a recovery one.
    """
    if codec not in ("jsonl", "binary"):
        raise ReproError(f"codec must be jsonl or binary, got {codec!r}")
    # The core does what a supervisor does on its side of the links —
    # place and bind the rules, number each shard's entries, deduplicate
    # what comes back — with in-memory WALs; only the wire is faulty.
    core = ClusterCore(shards, salt=salt, timer_ratio=timer_ratio)
    channels: dict[int, _Channel] = {}
    for index in range(shards):
        channels[index] = _Channel(
            index, _ShardSession(index, timer_ratio=timer_ratio), plan, codec
        )
    for name in sorted(rules):
        index = core.register(rules[name], name, context)
        channels[index].send(register_frame(name, *core.rules[name]))

    for event in events:
        for index, entry in core.log_event(event):
            channels[index].send(entry.frame())
    drain_to = horizon if horizon is not None else (
        core.last_granule + 1 if core.last_granule is not None else 0
    )
    for index, entry in core.log_advance(drain_to):
        channels[index].send(entry.frame())
        channels[index].flush()

    report = NetFaultReport()
    for index, channel in channels.items():
        fired = [verdict for _, _, verdict in channel.faults.fired]
        report.resumes += channel.resumes
        report.drops += fired.count("drop")
        report.dups += fired.count("dup")
        for frame in channel.inbox:
            if frame.get("op") != "detection":
                continue
            if core.ledger.offer(index, int(frame["seq"]), int(frame["k"])):
                report.rows.append(dict(frame["row"]))
    report.duplicates_suppressed = core.ledger.duplicates
    return report
