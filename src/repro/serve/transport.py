"""Worker transports: how the supervisor reaches its shard workers.

The supervisor's machinery — WAL replay, the ``(seq, k)`` detection
ledger, heartbeat liveness, checkpoint frames — is transport-agnostic:
it sends and receives the control frames of
:mod:`repro.serve.protocol`.  This module gives that traffic a uniform
carrier interface:

* :class:`SubprocessTransport` — each shard is a local ``repro
  serve-worker`` child process; frames travel as JSONL over its
  stdin/stdout pipes (:class:`SubprocessLink`).  A pipe loses nothing
  while the process lives, so the pipe *is* the worker incarnation and
  needs no session.

* :class:`TcpTransport` — shards run on other machines behind
  ``repro serve-worker --listen HOST:PORT``.  Each (re)connection opens
  with a JSONL ``hello`` control frame naming the shard and offering
  codecs; the worker answers ``hello_ack`` and both sides switch to the
  negotiated codec (binary control frames when both speak v1).

Every TCP link is a session: the hello carries a session id and a
resume watermark, the worker keeps the replica alive for a grace window
after a disconnect, and :class:`ResumableTcpLink` reconnects under a
:class:`~repro.serve.session.RetryPolicy` and resumes mid-stream: both
directions replay their unacknowledged frame buffers, so a severed and
healed link loses nothing and duplicates nothing.  Only when the
deadline expires, the worker already discarded the session, or the
supervisor itself killed the link does the link report dead — at which
point the existing respawn path (register, restore, replay) takes over.

The links only carry: a frame's bytes are the codec's
(:mod:`repro.serve.protocol`), and what a receiver does with a numbered
frame is :meth:`~repro.serve.session.SessionHalf.accept`'s.  The two
link classes read differently because each is measurably better on its
own traffic: whole lines off a pipe, a split byte stream off a socket.

Shard ``k`` connects to ``endpoints[k % len(endpoints)]``, so one
listener hosts many shards and ``scale(n)`` needs no new machines.  A
dead endpoint is skipped: connect falls through the remaining
endpoints in round-robin order before giving up, which keeps a cluster
serving (and re-balancing) through the permanent loss of a worker
machine.
"""

from __future__ import annotations

import asyncio
import random
import time
from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.errors import ReproError
from repro.serve.protocol import StreamDecoder, decode_control_unit, get_codec
from repro.serve.session import (
    DEFAULT_SESSION_GRACE,
    RetryPolicy,
    SessionHalf,
    new_session_id,
)

#: Seconds a TCP connect + hello exchange gets before counting as a
#: failed spawn attempt (the supervisor's retry/backoff machinery then
#: takes over, exactly as for a subprocess that failed to start).
CONNECT_TIMEOUT = 10.0

#: The pipe link, and the hello exchange that precedes negotiation.
_JSONL = get_codec("jsonl")


class WorkerLink(ABC):
    """One live supervisor<->worker channel carrying control frames."""

    #: Frames discarded because they were oversized or undecodable.
    frames_dropped: int = 0

    @abstractmethod
    async def send(self, frame: dict[str, Any]) -> None:
        """Write one control frame (raises ``OSError``-family on a dead
        channel, like a broken pipe would)."""

    @abstractmethod
    async def read(self) -> dict[str, Any] | None:
        """The next parsed control frame, or ``None`` on EOF.

        Malformed units are skipped (counted in :attr:`frames_dropped`
        when they represent lost payload); the channel survives them.
        """

    @abstractmethod
    def kill(self) -> None:
        """Tear the channel down abruptly (process kill / socket abort)."""

    @abstractmethod
    def close_input(self) -> None:
        """Close the supervisor->worker direction (graceful shutdown)."""

    async def wait(self, timeout: float = 10.0) -> None:
        """Wait for the underlying resource to be released (best effort)."""


class WorkerTransport(ABC):
    """Factory of :class:`WorkerLink`\\ s, one per shard incarnation."""

    name: str

    @abstractmethod
    async def connect(
        self,
        shard: int,
        *,
        timer_ratio: int,
        heartbeat_interval: float,
        frame_limit: int,
    ) -> WorkerLink:
        """Bring up one worker incarnation for ``shard``."""


class SubprocessLink(WorkerLink):
    """JSONL over a supervised child process's stdin/stdout pipes."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process
        self.frames_dropped = 0

    async def send(self, frame: dict[str, Any]) -> None:
        self.process.stdin.write(_JSONL.encode_control(frame))
        await self.process.stdin.drain()

    async def read(self) -> dict[str, Any] | None:
        stream = self.process.stdout
        while True:
            try:
                raw = await stream.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # The stream reader discarded a frame past the limit.
                self.frames_dropped += 1
                continue
            if not raw:
                return None
            try:
                return _JSONL.decode_control(raw)
            except ReproError:  # blank or malformed: skipped, not counted
                continue

    def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()

    def close_input(self) -> None:
        try:
            self.process.stdin.close()
        except (OSError, ConnectionError):  # pragma: no cover - defensive
            pass

    async def wait(self, timeout: float = 10.0) -> None:
        if self.process.returncode is None:
            try:
                await asyncio.wait_for(self.process.wait(), timeout=timeout)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                self.process.kill()
                await self.process.wait()


class SubprocessTransport(WorkerTransport):
    """Each shard a local ``repro serve-worker`` child process."""

    name = "subprocess"

    async def connect(
        self,
        shard: int,
        *,
        timer_ratio: int,
        heartbeat_interval: float,
        frame_limit: int,
    ) -> WorkerLink:
        import sys

        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.cli",
            "serve-worker",
            "--shard",
            str(shard),
            "--timer-ratio",
            str(timer_ratio),
            "--heartbeat-interval",
            str(heartbeat_interval),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            limit=frame_limit,
        )
        return SubprocessLink(process)


class TcpLink(WorkerLink):
    """Negotiated control frames over one TCP connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        codec_name: str,
        frame_limit: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.codec_name = codec_name
        self.frames_dropped = 0
        self._codec = get_codec(codec_name)
        self._decoder = StreamDecoder(
            max_line_bytes=frame_limit, max_frame_bytes=frame_limit
        )
        self._pending: list[dict[str, Any]] = []

    async def send(self, frame: dict[str, Any]) -> None:
        self.writer.write(self._codec.encode_control(frame))
        await self.writer.drain()

    async def read(self) -> dict[str, Any] | None:
        while True:
            if self._pending:
                return self._pending.pop(0)
            try:
                chunk = await self.reader.read(1 << 16)
            except (OSError, ConnectionError):
                return None
            if not chunk:
                return None
            for unit in self._decoder.feed(chunk):
                try:
                    self._pending.append(decode_control_unit(unit))
                except ReproError:  # oversized, corrupt or unknown op
                    self.frames_dropped += 1

    def kill(self) -> None:
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    def close_input(self) -> None:
        try:
            if self.writer.can_write_eof():
                self.writer.write_eof()
        except (OSError, ConnectionError):  # pragma: no cover - defensive
            pass

    async def wait(self, timeout: float = 10.0) -> None:
        try:
            self.writer.close()
            await asyncio.wait_for(self.writer.wait_closed(), timeout=timeout)
        except (asyncio.TimeoutError, OSError, ConnectionError):
            pass


class TcpTransport(WorkerTransport):
    """Shards served by remote ``repro serve-worker --listen`` processes.

    ``endpoints`` are ``host:port`` strings; shard ``k`` prefers
    ``endpoints[k % len(endpoints)]`` and falls through the others on
    connection failure, so losing one worker machine re-routes its
    shards to the survivors instead of stranding them.
    """

    name = "tcp"

    def __init__(
        self,
        endpoints: tuple[str, ...],
        *,
        codec: str = "auto",
        retry_policy: RetryPolicy | None = None,
        session_grace: float | None = None,
        seed: int = 0,
    ) -> None:
        if not endpoints:
            raise ReproError("TcpTransport needs at least one endpoint")
        self.endpoints = tuple(endpoints)
        self.codec = codec
        self.retry_policy = retry_policy or RetryPolicy()
        self.session_grace = (
            session_grace if session_grace is not None else DEFAULT_SESSION_GRACE
        )
        self.seed = seed
        #: Optional in-path fault injector: wraps every raw connection
        #: *below* the session layer (repro.serve.netfault sets this).
        self.link_filter: Callable[[WorkerLink, int], WorkerLink] | None = None

    @staticmethod
    def _split(endpoint: str) -> tuple[str, int]:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ReproError(f"worker endpoint {endpoint!r} is not HOST:PORT")
        return host, int(port)

    async def connect(
        self,
        shard: int,
        *,
        timer_ratio: int,
        heartbeat_interval: float,
        frame_limit: int,
    ) -> WorkerLink:
        link = ResumableTcpLink(
            self,
            shard,
            hello={
                "op": "hello",
                "shard": shard,
                "codecs": (
                    ["jsonl"] if self.codec == "jsonl" else ["binary", "jsonl"]
                ),
                "timer_ratio": timer_ratio,
                "heartbeat_interval": heartbeat_interval,
                "session": new_session_id(),
                "session_grace": self.session_grace,
            },
            frame_limit=frame_limit,
            policy=self.retry_policy,
            rng=random.Random(self.seed * 1_000_003 + shard),
        )
        await link.establish()
        return link

    async def open_link(
        self,
        shard: int,
        hello: dict[str, Any],
        *,
        frame_limit: int,
        timeout: float | None = None,
    ) -> tuple[WorkerLink, dict[str, Any]]:
        """One connection attempt round-robin over the endpoints,
        opened with ``hello`` (a session's — the worker refuses any
        other); returns the link and the worker's ``hello_ack``.

        Bounded per endpoint by ``timeout`` (default
        :data:`CONNECT_TIMEOUT`); a total failure raises a
        :class:`~repro.errors.ReproError` naming every unreachable
        address with its specific failure — startup against a down
        listener fails fast and legibly instead of hanging.
        """
        preferred = shard % len(self.endpoints)
        order = [
            self.endpoints[(preferred + step) % len(self.endpoints)]
            for step in range(len(self.endpoints))
        ]
        failures: list[str] = []
        for endpoint in order:
            host, port = self._split(endpoint)
            try:
                link, ack = await asyncio.wait_for(
                    self._handshake(host, port, hello, frame_limit),
                    timeout=timeout if timeout is not None else CONNECT_TIMEOUT,
                )
            except asyncio.TimeoutError:
                failures.append(f"{endpoint} (connect timed out)")
            except (OSError, ConnectionError, ReproError) as error:
                failures.append(f"{endpoint} ({error})")
            else:
                if self.link_filter is not None:
                    link = self.link_filter(link, shard)
                return link, ack
        raise ReproError(
            f"no worker endpoint reachable for shard {shard}: "
            + "; ".join(failures)
        )

    async def _handshake(
        self, host: str, port: int, hello: dict[str, Any], frame_limit: int
    ) -> tuple[TcpLink, dict[str, Any]]:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_JSONL.encode_control({**hello, "t": time.monotonic()}))
        await writer.drain()
        # The ack is always a JSONL line, so a v0-only worker can answer.
        raw = await reader.readline()
        if not raw:
            writer.close()
            raise ReproError(
                f"worker at {host}:{port} closed during hello handshake"
            )
        ack = _JSONL.decode_control(raw)
        if ack.get("op") != "hello_ack":
            writer.close()
            raise ReproError(
                f"worker at {host}:{port} answered hello with "
                f"{ack.get('op')!r}, expected hello_ack"
            )
        codec_name = str(ack.get("codec", "jsonl"))
        if codec_name not in hello["codecs"]:
            writer.close()
            raise ReproError(
                f"worker at {host}:{port} chose unoffered codec "
                f"{codec_name!r}"
            )
        return TcpLink(reader, writer, codec_name, frame_limit), ack


class _SessionLost(Exception):
    """The worker no longer holds our session (grace expired/restarted)."""


class ResumableTcpLink(WorkerLink):
    """A TCP worker link that survives drops by resuming its session.

    Wraps one live :class:`TcpLink` at a time.  Every outbound frame is
    numbered and buffered by a :class:`~repro.serve.session.SessionHalf`
    and every inbound frame deduplicated by it, so a reconnect replays
    exactly the frames the other side never saw.  On an I/O failure
    both :meth:`send` and :meth:`read` run the same reconnect loop
    under the link's :class:`~repro.serve.session.RetryPolicy` —
    exponential backoff with deterministic jitter, a per-attempt
    timeout, and an overall deadline.  The link reports dead (``read``
    returns ``None`` / ``send`` raises) only when the deadline expires,
    the worker answered ``resumed: false``, or :meth:`kill` was called
    — at which point the supervisor's ordinary respawn path takes over.

    ``on_resume`` (set by the supervisor) fires after each successful
    resume so the heartbeat monitor's liveness window can be re-armed —
    a link that was severed for most of a suspicion window must not
    come back one miss from suspicion.
    """

    def __init__(
        self,
        transport: TcpTransport,
        shard: int,
        *,
        hello: dict[str, Any],
        frame_limit: int,
        policy: RetryPolicy,
        rng: random.Random,
    ) -> None:
        self.transport = transport
        self.shard = shard
        #: What every connection of this session opens with, session id
        #: included (a resume adds its watermark).
        self.hello = hello
        self.frame_limit = frame_limit
        self.policy = policy
        self.rng = rng
        self.session = SessionHalf()
        self.on_resume: Callable[[], None] | None = None
        self.resumes = 0
        self.frames_dropped = 0
        self._inner: WorkerLink | None = None
        self._inner_dropped = 0
        self._generation = 0
        self._closed = False
        self._finishing = False
        self._lock = asyncio.Lock()

    @property
    def codec_name(self) -> str:
        """The live connection's negotiated codec (jsonl when down)."""
        inner = self._inner
        return getattr(inner, "codec_name", "jsonl") if inner else "jsonl"

    async def establish(self) -> None:
        """Open the first connection and register the session id."""
        self._inner, _ack = await self.transport.open_link(
            self.shard, self.hello, frame_limit=self.frame_limit
        )

    async def _resume_once(self) -> WorkerLink:
        """One reconnect + resume attempt (no retries, no timeout)."""
        link, ack = await self.transport.open_link(
            self.shard,
            {**self.hello, "resume": True, "recv": self.session.recv_n},
            frame_limit=self.frame_limit,
            timeout=self.policy.attempt_timeout,
        )
        if not ack.get("resumed"):
            link.kill()
            raise _SessionLost()
        # Replay everything the worker never delivered; its own replay
        # of the frames we never saw is already in flight.
        for frame in self.session.replay_after(int(ack.get("recv", 0))):
            await link.send(frame)
        return link

    async def _reconnect(self, generation: int) -> bool:
        """Re-establish the session; False means the link is dead."""
        async with self._lock:
            if self._closed:
                return False
            if self._generation != generation:
                # Another coroutine already ran the reconnect episode.
                return self._inner is not None
            if self._inner is not None:
                self._inner.kill()
                self._inner = None
            self._generation += 1
            if self._finishing:
                return False
            deadline = time.monotonic() + self.policy.deadline
            attempt = 0
            while not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    link = await asyncio.wait_for(
                        self._resume_once(), timeout=remaining
                    )
                except _SessionLost:
                    break
                except (OSError, ConnectionError, asyncio.TimeoutError,
                        ReproError):
                    delay = min(
                        self.policy.delay(attempt, self.rng),
                        max(0.0, deadline - time.monotonic()),
                    )
                    attempt += 1
                    if delay > 0:
                        await asyncio.sleep(delay)
                    continue
                self._inner = link
                self._inner_dropped = 0
                self.resumes += 1
                if self.on_resume is not None:
                    self.on_resume()
                return True
            return False

    async def send(self, frame: dict[str, Any]) -> None:
        wire = self.session.stamp(frame)
        while True:
            link, generation = self._inner, self._generation
            if link is None or self._closed:
                raise ConnectionResetError(
                    f"worker link for shard {self.shard} is down"
                )
            try:
                await link.send(wire)
                return
            except (OSError, ConnectionError):
                if not await self._reconnect(generation):
                    raise
                # A successful resume already replayed the buffer (this
                # frame included); the loop re-sends it only so a frame
                # stamped *after* the resume replay is never skipped —
                # the receiver drops the duplicate by its number.

    async def read(self) -> dict[str, Any] | None:
        while True:
            link, generation = self._inner, self._generation
            if link is None or self._closed:
                return None
            frame = await link.read()
            if link.frames_dropped != self._inner_dropped:
                self.frames_dropped += link.frames_dropped - self._inner_dropped
                self._inner_dropped = link.frames_dropped
            if frame is None:
                if self._closed or self._finishing:
                    return None
                if not await self._reconnect(generation):
                    return None
                continue
            deliver, replies = self.session.accept(frame)
            try:
                for reply in replies:
                    await link.send(reply)
            except (OSError, ConnectionError):
                pass  # the reconnect path will replay instead
            if deliver:
                return frame

    def kill(self) -> None:
        self._closed = True
        if self._inner is not None:
            self._inner.kill()

    def close_input(self) -> None:
        self._finishing = True
        if self._inner is not None:
            self._inner.close_input()

    async def wait(self, timeout: float = 10.0) -> None:
        if self._inner is not None:
            await self._inner.wait(timeout=timeout)


def resolve_transport(
    transport: "str | WorkerTransport",
    workers: tuple[str, ...] | None = None,
    *,
    codec: str = "auto",
    retry_policy: RetryPolicy | None = None,
    session_grace: float | None = None,
    seed: int = 0,
) -> WorkerTransport:
    """Normalize a transport argument (name, instance, or ``"auto"``)."""
    if isinstance(transport, WorkerTransport):
        return transport
    if transport == "auto":
        transport = "tcp" if workers else "subprocess"
    if transport == "subprocess":
        return SubprocessTransport()
    if transport == "tcp":
        if not workers:
            raise ReproError(
                "tcp transport needs workers=('host:port', ...) endpoints"
            )
        return TcpTransport(
            tuple(workers),
            codec=codec,
            retry_policy=retry_policy,
            session_grace=session_grace,
            seed=seed,
        )
    raise ReproError(
        f"unknown transport {transport!r}; expected subprocess, tcp, or auto"
    )
