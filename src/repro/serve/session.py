"""Resumable transport sessions: exactly-once frames across reconnects.

A TCP connection between the supervisor and a shard worker used to *be*
the worker incarnation: a dropped link meant a full respawn (register,
checkpoint restore, WAL replay) even though the replica on the other
side was perfectly healthy.  Definition 4.4 makes reconnect-and-resume
safe — between granules no in-flight partial state spans a cross-site
comparison — so this module supplies the machinery to survive the
network instead of the process:

* :class:`RetryPolicy` — the reconnect schedule: exponential backoff
  with deterministic jitter, a per-attempt timeout, and an overall
  deadline after which the link is declared dead and the existing
  respawn path takes over as graceful degradation.

* :class:`SessionHalf` — the sans-IO per-direction frame ledger both
  endpoints run.  Every session frame (anything but ``beat`` / ``hello``
  / ``hello_ack`` / ``rewind``) is numbered ``n=1,2,...`` and buffered
  until the peer acknowledges receipt through the ``recv`` field
  piggybacked on every frame it sends back.  The receiver delivers only
  in order, drops duplicates (``n <= recv_n``), and answers a gap
  (``n > recv_n + 1``) with a ``rewind`` control frame naming the last
  number it holds; the sender then re-sends its buffered tail.  Across
  a reconnect the ``hello`` / ``hello_ack`` exchange carries each
  side's ``recv`` watermark and both replay their buffers past it —
  which makes the channel exactly-once and in-order end to end, for
  both event dispatch *and* the detections flowing back.
  :meth:`SessionHalf.accept` is that receive ladder, stated once.

The halves are symmetric and transport-free: the supervisor's
:class:`~repro.serve.transport.ResumableTcpLink` and the worker
listener of :mod:`repro.serve.worker` each own one, and the
deterministic network-fault harness (:mod:`repro.serve.netfault`)
drives a pair of them directly, with no sockets at all.  All three
only move what :meth:`~SessionHalf.stamp` and :meth:`~SessionHalf.accept`
return.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError

#: Ops that travel outside the numbered session stream.  Beats are
#: ephemeral liveness (losing one is the signal, not a defect), the
#: hello exchange *establishes* numbering, and ``rewind`` is the
#: retransmission request itself.
UNNUMBERED_OPS = frozenset({"beat", "hello", "hello_ack", "rewind"})

#: How long a worker holds a disconnected session's replica before
#: discarding it (a resume after this window answers ``resumed: false``
#: and the supervisor falls back to a full respawn).
DEFAULT_SESSION_GRACE = 30.0


def new_session_id() -> str:
    """A fresh link-session identifier (random, not security-sensitive)."""
    return os.urandom(8).hex()


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Reconnect schedule for a dropped worker link.

    ``delay(attempt, rng)`` grows as ``base * 2**attempt`` capped at
    ``cap`` and scaled by jitter in ``[0.5, 1.0)`` — the same shape as
    :class:`~repro.serve.heartbeat.Backoff`, but carried as data so the
    policy can live on :class:`~repro.serve.config.ServeConfig` and the
    CLI.  ``attempt_timeout`` bounds each connect + resume handshake;
    ``deadline`` bounds the whole reconnect episode, after which the
    link reports itself dead and the supervisor's respawn/park path
    takes over.
    """

    base: float = 0.05
    cap: float = 2.0
    attempt_timeout: float = 5.0
    deadline: float = 15.0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.cap < self.base:
            raise ReproError(
                f"retry policy needs 0 < base <= cap, got "
                f"base={self.base} cap={self.cap}"
            )
        if self.attempt_timeout <= 0:
            raise ReproError(
                f"per-attempt timeout must be positive, got "
                f"{self.attempt_timeout}"
            )
        if self.deadline <= 0:
            raise ReproError(
                f"overall deadline must be positive, got {self.deadline}"
            )

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The backoff sleep before retry number ``attempt`` (0-based)."""
        raw = min(self.cap, self.base * (2 ** max(0, attempt)))
        return raw * (0.5 + rng.random() / 2)

    def to_dict(self) -> dict[str, float]:
        return {
            "base": self.base,
            "cap": self.cap,
            "attempt_timeout": self.attempt_timeout,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RetryPolicy":
        try:
            return cls(**{key: float(value) for key, value in data.items()})
        except TypeError as error:
            raise ReproError(f"malformed retry policy {data!r}: {error}") from None


class SessionHalf:
    """One endpoint's sans-IO frame ledger for a resumable session.

    Symmetric: the supervisor and the worker each run one.  Outbound
    session frames are stamped (:meth:`stamp`) and buffered until the
    peer's ``recv`` acknowledges them; inbound frames pass through
    :meth:`accept`, which prunes the buffer, deduplicates, answers gaps
    and retransmission requests, and says whether the frame is the
    owner's to process.  No clocks, no sockets — retransmission timing
    belongs to the owner.
    """

    def __init__(self) -> None:
        self.sent_n = 0
        self.recv_n = 0
        self.peer_recv = 0
        self._buffer: list[dict[str, Any]] = []
        # The open gap episode: the watermark the last rewind named and
        # the highest number dropped behind it (see accept).
        self._rewound_at = -1
        self._gap_high = 0

    @property
    def outstanding(self) -> int:
        """Buffered outbound frames the peer has not yet acknowledged."""
        return len(self._buffer)

    def stamp(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Number + buffer an outbound frame; returns the wire copy.

        Unnumbered ops only pick up the ``recv`` watermark (so even an
        idle peer's beats keep pruning our buffer on the other side).
        """
        wire = dict(frame)
        wire["recv"] = self.recv_n
        if frame.get("op") in UNNUMBERED_OPS:
            return wire
        self.sent_n += 1
        wire["n"] = self.sent_n
        self._buffer.append(wire)
        return wire

    def ack(self, recv: int) -> None:
        """Drop buffered frames the peer confirms having delivered."""
        if recv <= self.peer_recv:
            return
        self.peer_recv = recv
        self._buffer = [f for f in self._buffer if f["n"] > recv]

    def receive(self, frame: dict[str, Any]) -> str:
        """Classify one inbound frame: ``deliver``, ``duplicate``, ``gap``.

        Applies the piggybacked ``recv`` acknowledgement first, so even
        a duplicate or a gapped frame prunes the outbound buffer.
        :meth:`accept` is what acts on the verdict.
        """
        recv = frame.get("recv")
        if recv is not None:
            self.ack(int(recv))
        n = frame.get("n")
        if n is None:
            return "deliver"
        n = int(n)
        if n <= self.recv_n:
            return "duplicate"
        if n == self.recv_n + 1:
            self.recv_n = n
            return "deliver"
        return "gap"

    def accept(
        self, frame: dict[str, Any]
    ) -> tuple[bool, list[dict[str, Any]]]:
        """The receive ladder: ``(deliver, replies)`` for one inbound frame.

        ``deliver`` says the frame is new, in order and the owner's to
        process; ``replies`` are wire-ready frames (never re-stamped)
        to send straight back: a ``rewind`` for a gap, the buffered
        tail for a peer's ``rewind``; a duplicate gets neither.

        One ``rewind`` per gap episode, not per gapped frame: every
        frame in flight behind a lost one is a gap too, and each
        ``rewind`` costs the peer its whole unacknowledged tail.  Such
        frames arrive with rising numbers and are dropped silently (the
        replay brings them again); a number that does not rise is the
        replay arriving with its own head lost, and asks again.
        """
        verdict = self.receive(frame)
        if verdict == "duplicate":
            return False, []
        if verdict == "gap":
            n = int(frame["n"])
            behind = self._rewound_at == self.recv_n and n > self._gap_high
            self._rewound_at, self._gap_high = self.recv_n, n
            return False, [] if behind else [self.rewind_frame()]
        if frame.get("op") == "rewind":
            return False, self.replay_after(int(frame["have"]))
        return True, []

    def rewind_frame(self) -> dict[str, Any]:
        """The retransmission request for the current inbound watermark."""
        return {"op": "rewind", "have": self.recv_n, "recv": self.recv_n}

    def replay_after(self, recv: int) -> list[dict[str, Any]]:
        """The buffered tail past the peer's watermark, ready to resend.

        Used both by ``rewind`` handling and by the resume handshake.
        Each frame's ``recv`` is refreshed to the current inbound
        watermark before it goes back on the wire.
        """
        self.ack(recv)
        out = []
        for frame in self._buffer:
            frame = dict(frame)
            frame["recv"] = self.recv_n
            out.append(frame)
        return out
