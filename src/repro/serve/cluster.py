"""Fault-tolerant multi-process serving: supervisor, workers, failover.

This module turns the single-process asyncio serving runtime into a
supervised cluster:

* :class:`ClusterSupervisor` runs in the parent process.  It owns the
  :class:`~repro.serve.router.EventRouter`, a per-shard write-ahead log
  (:mod:`repro.serve.wal`), a per-shard two-generation
  :class:`CheckpointStore`, a :class:`~repro.serve.heartbeat.
  HeartbeatMonitor`, and a :class:`DetectionLedger` deduplicating
  replayed detections.  Each shard is a **worker process** (``repro
  serve-worker``) the supervisor talks to over the JSONL control frames
  of :mod:`repro.serve.protocol` — stdin carries events, stdout carries
  detections, acks, and heartbeats.

* :func:`run_worker` is the worker side: a synchronous loop around a
  :class:`ShardReplica` (one detector applying WAL entries in sequence
  order), emitting a beat every heartbeat interval even while idle.

* Failover: on worker death (process exit, broken pipe, or
  ``miss_threshold`` missed heartbeats) the supervisor respawns the
  shard, re-registers its rules, restores the last intact checkpoint,
  and replays the WAL tail past the checkpoint's ``seq``.  Because a
  replica applies entries one at a time in sequence order, replay
  reproduces the pre-crash detector state *and* re-emits the same
  detections with the same ``(seq, k)`` tags — the ledger's per-shard
  watermark turns that at-least-once stream into exactly-once
  collection, so the detection multiset is preserved (the granule
  alignment of Def 4.4 makes per-entry application equivalent to the
  asyncio runtime's granule batching).

* Graceful degradation: recovery is retried with bounded exponential
  backoff + jitter; once the retry budget is exhausted the shard is
  marked unavailable, further events for it are *parked* in its WAL
  (never lost, never blocking healthy shards), and ``ingest`` surfaces
  a structured :class:`ShardUnavailable` signal.  :meth:`~
  ClusterSupervisor.revive` replays the parked tail when the operator
  (or a test) brings the shard back.

* :class:`FaultPlan` is the deterministic fault-injection hook shared
  with :mod:`repro.conformance`: kill shard *k* after WAL entry *n*,
  drop (equivalently: delay past the threshold) a span of heartbeats,
  corrupt the next checkpoint write, or fail the next spawn attempts.

* :class:`LocalFailoverCluster` drives the identical WAL + checkpoint +
  replay + ledger path fully in-process (no OS processes) — the engine
  of the conformance ``failover`` check, the failover bench, and the
  crash-recovery unit tests.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
import warnings
import zlib
from contextlib import AsyncExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Mapping

from repro.contexts.policies import Context
from repro.detection.approximate import Verdict, VerdictDetection
from repro.detection.checkpoint import restore as restore_detector
from repro.detection.checkpoint import snapshot as snapshot_detector
from repro.detection.detector import Detection, Detector
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.events.parser import parse_expression
from repro.obs.instrument import Instrumentation, resolve
from repro.serve.admin import ClusterAdmin, ClusterStatus
from repro.serve.config import UNSET as _UNSET
from repro.serve.config import ServeConfig
from repro.serve.config import resolve_config as _resolve_config
from repro.serve.heartbeat import Backoff, HeartbeatMonitor
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeEvent,
    detection_to_json,
    frame_to_line,
    parse_frame,
)
from repro.serve.rebalance import ScaleReport, graft_detector
from repro.serve.router import EventRouter
from repro.serve.shard import shard_engines
from repro.serve.transport import (
    WorkerLink,
    WorkerTransport,
    resolve_transport,
)
from repro.serve.wal import KIND_EVENT, ShardWAL, WalEntry
from repro.time.composite import CompositeTimestamp


# --- fault injection ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A deterministic, JSON-serializable schedule of injected faults.

    ``kills``
        ``(shard, seq)`` pairs: kill the shard's worker right after WAL
        entry ``seq`` was dispatched to it (once each).
    ``drop_beats``
        ``(shard, after, count)`` triples: once the supervisor has seen
        ``after`` beats from the shard, silently drop the next ``count``
        — a dropped beat and one delayed past the miss threshold are the
        same fault, so this covers both.
    ``corrupt_checkpoints``
        Shard indices whose *next* checkpoint write gets a corrupted
        integrity checksum (one per listed occurrence); restore must
        detect it and fall back to the previous generation + WAL.
    ``fail_spawns``
        ``(shard, times)`` pairs: the next ``times`` spawn attempts for
        the shard raise — the deterministic route to the retry-budget /
        :class:`ShardUnavailable` degradation path.
    ``scale_kills``
        Shard indices killed the moment the next ``scale`` asks them
        for their state handoff (one per listed occurrence) — the
        mid-migration crash: the handoff is in flight, the worker dies,
        and the migration must fall back to the shard's durable
        checkpoint + WAL without losing or duplicating detections.
    """

    kills: tuple[tuple[int, int], ...] = ()
    drop_beats: tuple[tuple[int, int, int], ...] = ()
    corrupt_checkpoints: tuple[int, ...] = ()
    fail_spawns: tuple[tuple[int, int], ...] = ()
    scale_kills: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kills": [list(pair) for pair in self.kills],
            "drop_beats": [list(row) for row in self.drop_beats],
            "corrupt_checkpoints": list(self.corrupt_checkpoints),
            "fail_spawns": [list(pair) for pair in self.fail_spawns],
            "scale_kills": list(self.scale_kills),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        try:
            return cls(
                kills=tuple(
                    (int(s), int(n)) for s, n in data.get("kills", ())
                ),
                drop_beats=tuple(
                    (int(s), int(a), int(c))
                    for s, a, c in data.get("drop_beats", ())
                ),
                corrupt_checkpoints=tuple(
                    int(s) for s in data.get("corrupt_checkpoints", ())
                ),
                fail_spawns=tuple(
                    (int(s), int(n)) for s, n in data.get("fail_spawns", ())
                ),
                scale_kills=tuple(
                    int(s) for s in data.get("scale_kills", ())
                ),
            )
        except (TypeError, ValueError) as error:
            raise ReproError(f"malformed fault plan: {error}") from None

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"fault plan is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ReproError("fault plan must be a JSON object")
        return cls.from_dict(data)


class FaultInjector:
    """Mutable bookkeeping over a :class:`FaultPlan` (one-shot triggers)."""

    def __init__(self, plan: FaultPlan | None) -> None:
        self.plan = plan or FaultPlan()
        self._kills = {(s, n) for s, n in self.plan.kills}
        self._spawn_failures = {s: n for s, n in self.plan.fail_spawns}
        self._corrupt = list(self.plan.corrupt_checkpoints)
        self._beat_windows = [list(row) for row in self.plan.drop_beats]
        self._scale_kills = list(self.plan.scale_kills)

    def should_kill(self, shard: int, seq: int) -> bool:
        key = (shard, seq)
        if key in self._kills:
            self._kills.remove(key)
            return True
        return False

    def should_drop_beat(self, shard: int, beats_seen: int) -> bool:
        for window in self._beat_windows:
            target, after, count = window
            if target == shard and beats_seen >= after and count > 0:
                window[2] = count - 1
                return True
        return False

    def take_corrupt_checkpoint(self, shard: int) -> bool:
        if shard in self._corrupt:
            self._corrupt.remove(shard)
            return True
        return False

    def take_spawn_failure(self, shard: int) -> bool:
        remaining = self._spawn_failures.get(shard, 0)
        if remaining > 0:
            self._spawn_failures[shard] = remaining - 1
            return True
        return False

    def take_scale_kill(self, shard: int) -> bool:
        if shard in self._scale_kills:
            self._scale_kills.remove(shard)
            return True
        return False


# --- degradation signal ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardUnavailable:
    """Structured signal: a shard is down past its retry budget.

    The event that produced it is *parked* in the shard's WAL (counted
    in ``parked``), so nothing is lost — it replays on
    :meth:`ClusterSupervisor.revive`.  Healthy shards are unaffected.
    """

    shard: int
    reason: str
    parked: int


# --- checkpoint persistence --------------------------------------------------


class CheckpointStore:
    """Two-generation checkpoint storage with CRC-32 integrity.

    ``save`` rotates the current generation to the previous one before
    writing (atomically, via temp file + rename when file-backed).
    ``load`` verifies the checksum and falls back to the previous
    generation on corruption — which is why WAL truncation must only
    discard entries covered by the *previous* generation
    (:attr:`retain_after`).  ``path=None`` keeps both generations in
    memory with identical semantics.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._memory: list[str] = []  # [current, previous] serialized docs
        self.corrupt_loads = 0
        if path is not None:
            for candidate in (path, path + ".prev"):
                if os.path.exists(candidate):
                    with open(candidate, "r", encoding="utf-8") as handle:
                        self._memory.append(handle.read())
                else:
                    self._memory.append("")

    @staticmethod
    def _encode(state: Mapping[str, Any], corrupt: bool) -> str:
        payload = json.dumps(state, sort_keys=True)
        crc = zlib.crc32(payload.encode("utf-8"))
        if corrupt:
            crc ^= 0xDEADBEEF
        return json.dumps({"crc": crc, "state": state}, sort_keys=True)

    @staticmethod
    def _decode(text: str) -> dict[str, Any] | None:
        if not text:
            return None
        try:
            doc = json.loads(text)
            state = doc["state"]
            payload = json.dumps(state, sort_keys=True)
            if zlib.crc32(payload.encode("utf-8")) != int(doc["crc"]):
                return None
            return state
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def save(self, state: Mapping[str, Any], *, corrupt: bool = False) -> None:
        """Persist a new generation (rotating the old one to ``.prev``)."""
        doc = self._encode(state, corrupt)
        previous = self._memory[0] if self._memory else ""
        self._memory = [doc, previous]
        if self.path is not None:
            if previous:
                with open(self.path + ".prev.tmp", "w", encoding="utf-8") as h:
                    h.write(previous)
                os.replace(self.path + ".prev.tmp", self.path + ".prev")
            with open(self.path + ".tmp", "w", encoding="utf-8") as handle:
                handle.write(doc)
            os.replace(self.path + ".tmp", self.path)

    def load(self) -> dict[str, Any] | None:
        """The newest intact checkpoint state, or ``None``.

        A corrupted current generation is counted and skipped; the
        previous generation (whose WAL tail was retained) backs it up.
        """
        for index, text in enumerate(self._memory):
            state = self._decode(text)
            if state is not None:
                return state
            if index == 0 and text:
                self.corrupt_loads += 1
        return None

    @property
    def retain_after(self) -> int:
        """Truncate the WAL only past this seq (previous generation)."""
        if len(self._memory) < 2:
            return 0
        previous = self._decode(self._memory[1])
        if previous is None:
            return 0
        return int(previous.get("seq", 0))


# --- the deterministic apply core -------------------------------------------


@dataclass(frozen=True, slots=True)
class TaggedDetection:
    """A detection plus its deterministic replay tag ``(seq, k)``.

    On an approximate replica every *verdict emission* — tentative,
    confirmed, or retracted — is one tagged unit (``verdict`` carries
    the full :class:`~repro.detection.approximate.VerdictDetection`),
    so retractions replay through the WAL with the same exactly-once
    ``(seq, k)`` discipline as detections.
    """

    seq: int
    k: int
    detection: Detection
    verdict: VerdictDetection | None = None


class ShardReplica:
    """One shard's detector applying WAL entries in sequence order.

    The worker process wraps one replica behind the control-frame loop;
    the in-process harness and the conformance ``failover`` check drive
    replicas directly.  Application is deterministic: entry ``seq``
    always produces the same detections in the same order, so a tag
    ``(seq, k)`` names a detection stably across crash/replay — the
    property the supervisor's :class:`DetectionLedger` relies on.

    The replica consumes its detector's detections (every rule has a
    collecting callback, :meth:`apply` hands out what one entry fired),
    so the detector's log stays empty however long the worker lives.
    """

    def __init__(
        self,
        index: int,
        *,
        timer_ratio: int = 1,
        approximate: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.index = index
        self.detector, self.stabilizer = shard_engines(
            timer_ratio, approximate, instrumentation
        )
        self.approximate = approximate
        self.applied_seq = 0
        self._fired: list[Detection] = []

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
    ) -> None:
        self.detector.register(
            expression, name=name, context=context, callback=self._fired.append
        )

    def apply(self, entry: WalEntry) -> list[TaggedDetection]:
        """Apply one WAL entry; returns the tagged detections it fired.

        An approximate replica applies the same entries through its
        stabilizer: events feed the shadow engine eagerly (tentatives)
        and advance-entries are the drain-horizon promise that closes
        the watermark frontier (confirmations and retractions).  The
        verdict stream is a pure function of the entry sequence, so
        replay after a crash re-emits the identical tagged verdicts —
        including retractions — and the ledger's ``(seq, k)`` marks
        deduplicate them.
        """
        stabilizer = self.stabilizer
        if stabilizer is not None:
            verdicts: list[VerdictDetection] = []
            if entry.kind == KIND_EVENT:
                event = entry.event
                verdicts.extend(stabilizer.advance_shadow(event.granule))
                verdicts.extend(stabilizer.offer(event.occurrence()))
            else:
                verdicts.extend(stabilizer.advance_shadow(entry.granule))
                verdicts.extend(stabilizer.announce_all(entry.granule))
            verdicts.extend(stabilizer.advance_exact())
            tagged = [
                TaggedDetection(entry.seq, k, verdict.detection, verdict)
                for k, verdict in enumerate(verdicts)
            ]
        else:
            detector = self.detector
            if entry.kind == KIND_EVENT:
                event = entry.event
                if event.granule > detector.now_global:
                    detector.advance_time(event.granule)
                detector.feed(event.occurrence())
            elif entry.granule > detector.now_global:
                detector.advance_time(entry.granule)
            tagged = [
                TaggedDetection(entry.seq, k, detection)
                for k, detection in enumerate(self._fired)
            ]
        # Tagged above — or, on the anytime path, out as CONFIRMED verdicts.
        self._fired.clear()
        self.applied_seq = entry.seq
        return tagged

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint: the applied watermark plus the detector state."""
        if self.approximate:
            raise ReproError(
                "approximate replicas do not checkpoint: recovery is a "
                "full-WAL replay (verdict emission is deterministic and "
                "the ledger deduplicates)"
            )
        return {
            "seq": self.applied_seq,
            "index": self.index,
            "detector": snapshot_detector(self.detector),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        if self.approximate:
            raise ReproError(
                "approximate replicas rebuild from the WAL, not from "
                "checkpoints"
            )
        if int(state.get("index", self.index)) != self.index:
            raise ReproError(
                f"checkpoint belongs to shard {state['index']}, "
                f"this is shard {self.index}"
            )
        restore_detector(self.detector, dict(state["detector"]))
        self.applied_seq = int(state["seq"])


class DetectionLedger:
    """Exactly-once detection collection over at-least-once replay.

    Replicas apply entries in sequence order and tag detections with
    ``(seq, k)``; replay after failover re-emits a *prefix-identical*
    tagged stream.  Keeping one high-water mark per shard therefore
    suffices: a tag at or below the mark has already been collected.
    """

    def __init__(self) -> None:
        self._marks: dict[int, tuple[int, int]] = {}
        self.accepted = 0
        self.duplicates = 0

    def offer(self, shard: int, seq: int, k: int) -> bool:
        """True exactly once per (shard, seq, k); False for replays."""
        mark = self._marks.get(shard, (0, -1))
        if (seq, k) <= mark:
            self.duplicates += 1
            return False
        self._marks[shard] = (seq, k)
        self.accepted += 1
        return True


# --- the in-process failover harness ----------------------------------------


class LocalFailoverCluster(ClusterAdmin):
    """The failover path (WAL -> checkpoint -> replay -> ledger) in-process.

    Semantically identical to :class:`ClusterSupervisor` minus the OS
    process boundary: a *kill* discards the shard's replica object
    outright (state, open granules, everything) and rebuilds it from the
    last intact checkpoint plus the WAL tail.  Deterministic and fast —
    this is what the conformance ``failover`` check runs per case and
    what ``bench_serve_failover`` / ``bench_serve_rebalance`` measure.

    Implements :class:`~repro.serve.admin.ClusterAdmin`: :meth:`scale`
    re-hashes the rules onto a new shard count at the current granule
    boundary and migrates detector state; :meth:`lose` is the permanent
    failure of one shard — its in-memory replica is discarded, its
    state recovered from the durable checkpoint + WAL (exactly-once via
    the ledger), and its rules re-homed onto the survivors.
    """

    def __init__(
        self,
        shards: int,
        *,
        salt: int = 0,
        timer_ratio: int = 1,
        checkpoint_every: int = 8,
        fault_plan: FaultPlan | None = None,
        codec: str | None = None,
        approximate: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ReproError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        self.router = EventRouter(shards, salt=salt)
        self.timer_ratio = timer_ratio
        self.approximate = approximate
        self.checkpoint_every = checkpoint_every
        self.faults = FaultInjector(fault_plan)
        self.obs = resolve(instrumentation)
        self._instrumentation = instrumentation
        self._rules: dict[str, tuple[EventExpression | str, Context]] = {}
        # With a codec, every WAL entry is round-tripped through that
        # encoding before it lands in the replay list — so the failover
        # path replays exactly what the wire format preserves.
        self._wals: dict[int, ShardWAL] = {
            index: ShardWAL(codec=codec) for index in range(shards)
        }
        self._stores: dict[int, CheckpointStore] = {
            index: CheckpointStore() for index in range(shards)
        }
        self._replicas: dict[int, ShardReplica] = {}
        self.ledger = DetectionLedger()
        self._detections: dict[str, list[Any]] = {}
        #: Approximate mode: every ledger-accepted verdict emission, in
        #: acceptance order (replayed duplicates excluded).
        self._verdicts: list[TaggedDetection] = []
        self._codec = codec
        self._last_granule: int | None = None
        #: granule -> shard-map epochs its events routed under.  The
        #: scale-at-boundary contract keeps every value a singleton —
        #: the property the Hypothesis epoch tests pin down.
        self.granule_epochs: dict[int, set[int]] = {}
        self.restarts = 0
        self.replayed = 0
        self.checkpoints = 0
        self.events_applied = 0
        self.rebalances = 0

    # --- registration ----------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
        *,
        salt: int | None = None,
    ) -> int:
        """Place and compile one rule; ``salt`` is the per-rule routing
        override the multi-tenant tier hashes tenants under (it
        survives :meth:`scale`'s re-hash)."""
        index = self.router.assign(name, salt=salt)
        self._rules[name] = (expression, context)
        if index in self._replicas:
            self._replicas[index].register(expression, name, context)
        else:
            self._replica(index)  # a new replica registers all its shard's rules
        self._bind()
        return index

    def _bind(self) -> None:
        by_shard: dict[int, set[str]] = {}
        for name, (expression, _) in self._rules.items():
            parsed = (
                parse_expression(expression)
                if isinstance(expression, str)
                else expression
            )
            by_shard.setdefault(self.router.assignments[name], set()).update(
                parsed.primitive_types()
            )
        self.router.bind(by_shard)

    def _replica(self, index: int) -> ShardReplica:
        replica = self._replicas.get(index)
        if replica is None:
            replica = ShardReplica(
                index,
                timer_ratio=self.timer_ratio,
                approximate=self.approximate,
                instrumentation=self._instrumentation,
            )
            for name in self.router.rules_of(index):
                expression, context = self._rules[name]
                replica.register(expression, name, context)
            self._replicas[index] = replica
        return replica

    # --- the ingest/apply path -------------------------------------------

    def ingest(self, event: ServeEvent) -> None:
        granule = event.granule
        self._last_granule = (
            granule
            if self._last_granule is None
            else max(self._last_granule, granule)
        )
        self.granule_epochs.setdefault(granule, set()).add(self.router.epoch)
        for index in self.router.route(event.event_type):
            entry = self._wals[index].append_event(event)
            self._apply(index, entry)
            self.events_applied += 1
            if entry.seq % self.checkpoint_every == 0:
                self._checkpoint(index)
            if self.faults.should_kill(index, entry.seq):
                self.crash(index)

    def advance(self, granule: int) -> None:
        """Drain-time clock advance on every shard (logged + applied)."""
        self._last_granule = (
            granule
            if self._last_granule is None
            else max(self._last_granule, granule)
        )
        for index, wal in self._wals.items():
            entry = wal.append_advance(granule)
            self._apply(index, entry)

    def _apply(self, index: int, entry: WalEntry) -> None:
        for tagged in self._replica(index).apply(entry):
            if self.ledger.offer(index, tagged.seq, tagged.k):
                if tagged.verdict is not None:
                    self._verdicts.append(tagged)
                if (
                    tagged.verdict is None
                    or tagged.verdict.verdict is Verdict.CONFIRMED
                ):
                    # detections_of stays the exact multiset in both
                    # modes: plain detections, or confirmed verdicts.
                    self._detections.setdefault(
                        tagged.detection.name, []
                    ).append(tagged.detection.occurrence)

    def _checkpoint(self, index: int) -> None:
        if self.approximate:
            # No snapshot format covers the stabilizer's held
            # occurrences and pending tentatives; approximate recovery
            # replays the full WAL instead (see ShardReplica.apply), so
            # the WAL is never truncated here.
            return
        store = self._stores[index]
        store.save(
            self._replica(index).snapshot(),
            corrupt=self.faults.take_corrupt_checkpoint(index),
        )
        self._wals[index].truncate(store.retain_after)
        self.checkpoints += 1
        if self.obs.enabled:
            self.obs.counter("serve.failover.checkpoints").inc()

    # --- failover --------------------------------------------------------

    def crash(self, index: int) -> int:
        """Kill the shard (discard its replica) and recover it.

        Returns the number of WAL entries replayed.  Detections the dead
        replica had already emitted are deduplicated by the ledger;
        detections it emitted *after* the last checkpoint but before the
        crash are re-derived by the replay — either way the collected
        multiset is exactly the fault-free one.
        """
        self._replicas.pop(index, None)
        self.restarts += 1
        state = self._stores[index].load()
        replica = self._replica(index)
        after = 0
        if state is not None:
            replica.restore(state)
            after = replica.applied_seq
        tail = self._wals[index].tail(after)
        for entry in tail:
            self._apply(index, entry)
        self.replayed += len(tail)
        if self.obs.enabled:
            self.obs.counter("serve.failover.restarts").inc()
            self.obs.histogram("serve.failover.replay_events").observe(
                len(tail)
            )
        return len(tail)

    # --- re-balancing (the ClusterAdmin surface) -------------------------

    def scale(self, shards: int) -> ScaleReport:
        """Re-hash every rule onto ``shards`` shards at the boundary.

        All shards first advance (logged) to the highest granule seen,
        so their detectors sit *between* granules — the point where
        Def 4.4 makes per-node state migratable.  Rules are re-assigned
        by the successor router (epoch + 1), each new shard's detector
        is grafted from the old replicas by shared ``(expression,
        context)`` identity, and fresh WALs are seeded past the global
        seq high-water so the detection ledger's existing per-shard
        marks keep deduplicating without a reset.
        """
        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        if self.approximate:
            raise ReproError(
                "approximate clusters cannot re-balance: stabilizer "
                "state (held occurrences, pending tentatives) has no "
                "migration path yet"
            )
        boundary = self._last_granule
        if boundary is not None:
            self.advance(boundary)
        old_shards = self.router.shards
        old_router = self.router
        sources = {
            index: self._replica(index).detector
            for index in range(old_shards)
        }
        global_seq = max(
            (wal.last_seq for wal in self._wals.values()), default=0
        )
        successor = old_router.rehash(shards)
        replicas: dict[int, ShardReplica] = {}
        for index in range(shards):
            replica = ShardReplica(
                index,
                timer_ratio=self.timer_ratio,
                instrumentation=self._instrumentation,
            )
            for name in successor.rules_of(index):
                expression, context = self._rules[name]
                replica.register(expression, name, context)
            graft_detector(replica.detector, sources)
            replica.applied_seq = global_seq
            replicas[index] = replica
        for wal in self._wals.values():
            wal.close()
        self._wals = {
            index: ShardWAL(codec=self._codec) for index in range(shards)
        }
        self._stores = {
            index: CheckpointStore() for index in range(shards)
        }
        for index, wal in self._wals.items():
            wal.seed_seq(global_seq)
            self._stores[index].save(replicas[index].snapshot())
        self._replicas = replicas
        self.router = successor
        self._bind()
        self.rebalances += 1
        if self.obs.enabled:
            self.obs.counter("serve.rebalance.scales").inc()
        return ScaleReport(
            from_shards=old_shards,
            to_shards=shards,
            epoch=successor.epoch,
            boundary=boundary,
            seq=global_seq,
            moved_rules={
                name: (old_router.assignments[name], home)
                for name, home in successor.assignments.items()
                if old_router.assignments.get(name) != home
            },
        )

    def lose(self, index: int) -> ScaleReport:
        """Permanently lose one shard; re-home its rules to survivors.

        The in-memory replica is discarded (everything since the last
        checkpoint exists only in the WAL), rebuilt from durable state
        with the ledger deduplicating replayed detections, and the
        whole cluster re-hashes onto one fewer shard.
        """
        if not 0 <= index < self.router.shards:
            raise ReproError(f"shard index {index} out of range")
        if self.router.shards < 2:
            raise ReproError("cannot lose the only remaining shard")
        self.crash(index)
        return self.scale(self.router.shards - 1)

    def revive(self, shard: int) -> bool:
        """In-process shards never park; recovery is immediate."""
        self.crash(shard)
        return True

    def drain(self, horizon: int | None = None) -> list[ShardUnavailable]:
        """Advance every shard to ``horizon`` (the in-process barrier).

        In-process application is synchronous, so after :meth:`advance`
        every WAL entry has been applied; the return value is always
        empty, matching the supervisor's healthy-path contract.
        """
        if horizon is not None:
            self.advance(horizon)
        return []

    def status(self) -> ClusterStatus:
        return ClusterStatus(
            shards=self.router.shards,
            epoch=self.router.epoch,
            transport="in-process",
            unavailable={},
            parked=0,
            restarts=self.restarts,
            checkpoints=self.checkpoints,
            detections=self.ledger.accepted,
        )

    # --- results ---------------------------------------------------------

    def detections_of(self, name: str):
        """Collected occurrences of one rule (exactly-once).

        In approximate mode this is the CONFIRMED multiset — the same
        exact-multiset contract as everywhere else.
        """
        if name not in self._rules:
            raise ReproError(f"no rule named {name!r} is registered")
        return list(self._detections.get(name, ()))

    def verdicts_of(self, name: str) -> list[VerdictDetection]:
        """One rule's ledger-accepted verdict stream (approximate mode).

        Exactly-once across crash/replay: a replayed emission carries
        the same ``(seq, k)`` tag, so the ledger filters it before it
        reaches this list.
        """
        if name not in self._rules:
            raise ReproError(f"no rule named {name!r} is registered")
        return [
            tagged.verdict
            for tagged in self._verdicts
            if tagged.verdict is not None
            and tagged.verdict.name == name
        ]


def replay_with_failover(
    rules: Mapping[str, EventExpression | str],
    events,
    *,
    shards: int = 2,
    salt: int = 0,
    timer_ratio: int = 1,
    context: Context = Context.UNRESTRICTED,
    horizon: int | None = None,
    checkpoint_every: int = 8,
    fault_plan: FaultPlan | None = None,
    codec: str | None = None,
    approximate: bool = False,
    scale_plan: tuple[tuple[int, int], ...] = (),
    lose: tuple[tuple[int, int], ...] = (),
) -> LocalFailoverCluster:
    """Run a finite stream through a faulted in-process cluster.

    The convenience mirror of :func:`repro.serve.runtime.serve_events`
    for the failover harness — registers, ingests, advances to
    ``horizon``, returns the cluster for inspection.  ``codec`` selects
    the WAL storage encoding (``"binary"`` replays through the binary
    wire format); ``approximate`` runs every replica in anytime mode,
    with verdict emissions — retractions included — riding the same
    ``(seq, k)`` exactly-once replay discipline as detections.

    ``scale_plan`` is a schedule of ``(after_count, shards)`` pairs:
    once ``after_count`` events have been ingested the cluster
    re-balances to ``shards`` shards.  ``lose`` is a schedule of
    ``(after_count, shard)`` pairs permanently losing one shard (its
    rules re-home onto the survivors).  Both migrate state at the
    current granule boundary, so the collected multiset must equal the
    fault-free single-process run — the elastic leg of the conformance
    ``failover`` check.
    """
    cluster = LocalFailoverCluster(
        shards,
        salt=salt,
        timer_ratio=timer_ratio,
        checkpoint_every=checkpoint_every,
        fault_plan=fault_plan,
        codec=codec,
        approximate=approximate,
    )
    for name, expression in rules.items():
        cluster.register(expression, name, context)
    scales = sorted(scale_plan)
    losses = sorted(lose)
    count = 0
    for event in events:
        cluster.ingest(event)
        count += 1
        while scales and scales[0][0] <= count:
            cluster.scale(scales.pop(0)[1])
        while losses and losses[0][0] <= count:
            cluster.lose(losses.pop(0)[1] % cluster.router.shards)
    for _, shards_after in scales:
        cluster.scale(shards_after)
    for _, shard in losses:
        cluster.lose(shard % cluster.router.shards)
    if horizon is not None:
        cluster.advance(horizon)
    return cluster


# --- the worker process side -------------------------------------------------


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
        elif op == "checkpoint":
            emit(
                "checkpoint_state",
                seq=replica.applied_seq,
                state=replica.snapshot(),
            )
        elif op == "handoff":
            # State migration for scale(): like checkpoint, but tagged
            # so the supervisor resolves its pending handoff instead of
            # (only) persisting a routine checkpoint.
            emit(
                "checkpoint_state",
                seq=replica.applied_seq,
                state=replica.snapshot(),
                handoff=True,
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

    def handle(frame: dict[str, Any]) -> bool:
        return session.handle(frame, emit)

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
            running = handle(frame)
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
        from repro.serve.session import SessionHalf

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
    from repro.serve.protocol import choose_codec, get_codec
    from repro.serve.session import DEFAULT_SESSION_GRACE

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
        from repro.serve.protocol import StreamDecoder

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


# --- the supervisor ----------------------------------------------------------


_STARTUP_TIMEOUT = 30.0
"""Seconds a freshly spawned worker gets to emit its first frame."""

_WORKER_FRAME_LIMIT = 64 * MAX_LINE_BYTES
"""Stream limit for frames read *from* a worker.

``checkpoint_state`` and ``detection`` frames wrap whole detector
snapshots and merged parameter maps, so they can legitimately exceed
the 1 MiB event-line bound; giving the worker's stdout a much larger
limit keeps them deliverable.  A frame past even this limit is
discarded by the stream reader and counted in
:attr:`ClusterSupervisor.frames_dropped`.
"""


class _Worker:
    """Supervisor-side handle of one live worker incarnation."""

    __slots__ = (
        "link", "reader", "dead", "acked_seq", "applied", "beats_seen",
        "started", "sent_seq", "handoff",
    )

    def __init__(self, link: WorkerLink) -> None:
        self.link = link
        self.reader: asyncio.Task | None = None
        self.dead = False
        self.acked_seq = 0
        self.applied = asyncio.Event()
        self.beats_seen = 0
        self.started = asyncio.Event()
        # Highest WAL seq already sent to this worker (restore replay
        # included) — _deliver skips entries at or below it, so an
        # entry covered by a recovery's tail replay is never re-sent.
        self.sent_seq = 0
        # Pending scale() handoff: resolved with the worker's migration
        # state (or None when the channel dies first).
        self.handoff: asyncio.Future | None = None

    @property
    def process(self):
        """The underlying OS process of a subprocess-backed worker.

        Kept for the tests (and callers) that reach through the handle
        to kill the process directly; TCP-backed workers have none.
        """
        return getattr(self.link, "process", None)


class ClusterSupervisor(ClusterAdmin):
    """Runs each shard on a supervised worker behind a transport.

    Configure through ``config=ServeConfig(...)`` — the relevant fields
    are ``procs`` (worker count; falls back to ``shards``), ``salt``,
    ``timer_ratio``, ``state_dir`` (required), ``heartbeat_interval``,
    ``miss_threshold``, ``retry_budget``, ``checkpoint_every``,
    ``seed``, ``codec`` (``"binary"`` stores the WALs in binary
    frames, so failover replay consumes the wire encoding),
    ``transport``/``workers`` (remote TCP shard endpoints instead of
    local subprocess workers), and ``rebalance_grace`` (``None`` parks
    a shard past its retry budget until :meth:`revive`; a float
    automatically re-homes its rules onto the surviving shards).  The
    individual keyword arguments are deprecated aliases; mixing them
    with ``config=`` raises ``TypeError``.

    Implements :class:`~repro.serve.admin.ClusterAdmin`: :meth:`scale`
    re-balances the live cluster onto a new worker count at the current
    granule boundary, migrating detector state through checkpoint
    handoff frames (falling back to an in-process rebuild from WAL +
    checkpoint, deduplicated by the ledger, for any worker that dies
    mid-handoff).

    ``state_dir`` holds per-shard WAL and checkpoint files (created if
    missing); a supervisor restarted over the same directory recovers
    parked and unreplayed events.  ``fault_plan`` (deterministic fault
    injection for tests and chaos CI) and ``on_detection`` (the
    streaming callback of ``repro serve --procs --stdin``) are runtime
    collaborators, not configuration — they stay regular parameters.
    """

    def __init__(
        self,
        shards: int = _UNSET,
        *,
        salt: int = _UNSET,
        timer_ratio: int = _UNSET,
        state_dir: str = _UNSET,
        heartbeat_interval: float = _UNSET,
        miss_threshold: int = _UNSET,
        retry_budget: int = _UNSET,
        checkpoint_every: int = _UNSET,
        seed: int = _UNSET,
        config: "ServeConfig | None" = None,
        fault_plan: FaultPlan | None = None,
        net_fault_plan: "NetFaultPlan | None" = None,
        instrumentation: Instrumentation | None = None,
        on_detection: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        legacy = {
            name: value
            for name, value in (
                ("shards", shards),
                ("salt", salt),
                ("timer_ratio", timer_ratio),
                ("state_dir", state_dir),
                ("heartbeat_interval", heartbeat_interval),
                ("miss_threshold", miss_threshold),
                ("retry_budget", retry_budget),
                ("checkpoint_every", checkpoint_every),
                ("seed", seed),
            )
            if value is not _UNSET
        }
        # The legacy signature's default checkpoint cadence (64) is the
        # ServeConfig default too, so folding legacy keywords into a
        # config is value-preserving.
        config = _resolve_config("ClusterSupervisor", config, legacy)
        self.config = config
        procs = config.procs if config.procs is not None else config.shards
        if config.state_dir is None:
            raise ReproError(
                "ClusterSupervisor needs a state_dir "
                "(set it on the ServeConfig)"
            )
        state_dir = config.state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.router = EventRouter(procs, salt=config.salt)
        self.timer_ratio = config.timer_ratio
        self.state_dir = state_dir
        self.retry_budget = config.retry_budget
        self.checkpoint_every = config.checkpoint_every
        self.monitor = HeartbeatMonitor(
            config.heartbeat_interval, config.miss_threshold
        )
        self.backoff = Backoff(seed=config.seed)
        self.faults = FaultInjector(fault_plan)
        self.obs = resolve(instrumentation)
        self.on_detection = on_detection
        self._rules: dict[str, tuple[str, Context]] = {}
        # "binary" stores WAL entries as version-1 frames; "jsonl" and
        # "auto" keep the legacy text layout (compatible with existing
        # state directories — binary is an explicit storage upgrade).
        wal_codec = "binary" if config.codec == "binary" else None
        self._wal_codec = wal_codec
        shards = procs
        self._wals: dict[int, ShardWAL] = {
            k: ShardWAL(
                os.path.join(state_dir, f"shard{k}.wal"), codec=wal_codec
            )
            for k in range(shards)
        }
        self._stores: dict[int, CheckpointStore] = {
            k: CheckpointStore(os.path.join(state_dir, f"shard{k}.ckpt"))
            for k in range(shards)
        }
        # A restarted supervisor must never number new entries below
        # the durable checkpoint watermark (they would be invisible to
        # recovery's tail replay), even if the WAL file is gone.
        for k, wal in self._wals.items():
            state = self._stores[k].load()
            wal.seed_seq(
                max(
                    int(state.get("seq", 0)) if state is not None else 0,
                    self._stores[k].retain_after,
                )
            )
        self.transport = resolve_transport(
            config.transport,
            config.workers,
            codec=config.codec,
            retry_policy=config.retry_policy,
            session_grace=config.session_grace,
            seed=config.seed,
        )
        if net_fault_plan is not None:
            from repro.serve.netfault import install_fault_filter

            install_fault_filter(self.transport, net_fault_plan)
        torn = sum(wal.torn_tails for wal in self._wals.values())
        if torn:
            self.obs.counter("serve.failover.wal_torn_tail").inc(torn)
        self.rebalance_grace = config.rebalance_grace
        self._workers: dict[int, _Worker] = {}
        self._locks: dict[int, asyncio.Lock] = {}
        self._unavailable: dict[int, str] = {}
        self.ledger = DetectionLedger()
        self._detections: dict[str, list[dict[str, Any]]] = {}
        self._monitor_task: asyncio.Task | None = None
        self._stopping = False
        self._last_granule: int | None = None
        #: granule -> shard-map epochs its events routed under (always
        #: singletons: scale() happens between granules, and one
        #: event's whole fan-out is appended under one epoch).
        self.granule_epochs: dict[int, set[int]] = {}
        # scale() must not interleave with ingest: the flag blocks new
        # batches synchronously, the event wakes them when done.
        self._scaling = False
        self._scale_done = asyncio.Event()
        self._scale_done.set()
        # Shards past their retry budget awaiting automatic re-homing
        # (only populated when rebalance_grace is not None).
        self._rehome_pending: set[int] = set()
        self._rehome_at = 0.0
        self.restarts = 0
        self.resumes = 0
        self.replayed = 0
        self.parked = 0
        self.checkpoints = 0
        self.events_ingested = 0
        self.events_unrouted = 0
        self.frames_dropped = 0
        self.rebalances = 0
        self.rehomes = 0

    # --- registration ----------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
    ) -> int:
        """Register one rule; returns the owning shard index.

        The expression is parsed here both to validate it before any
        worker sees it and to derive the routing subscription map (the
        parent holds no compiled detection graph — the workers do).
        """
        parsed = (
            parse_expression(expression)
            if isinstance(expression, str)
            else expression
        )
        index = self.router.assign(name)
        self._rules[name] = (str(parsed), context)
        self._bind()
        return index

    def _bind(self) -> None:
        by_shard: dict[int, set[str]] = {}
        for rule, (text, _) in self._rules.items():
            by_shard.setdefault(
                self.router.assignments[rule], set()
            ).update(parse_expression(text).primitive_types())
        self.router.bind(by_shard)

    def rule_names(self) -> list[str]:
        return sorted(self._rules)

    # --- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker (recovering any durable WAL/checkpoints)."""
        self._stopping = False
        for index in range(self.router.shards):
            await self._recover(index, count_restart=False)
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor_loop(), name="repro-serve-cluster-monitor"
        )

    async def __aenter__(self) -> "ClusterSupervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # --- ingest / dispatch -----------------------------------------------

    async def ingest(self, event: ServeEvent) -> list[ShardUnavailable]:
        """Route one event; WAL-append, dispatch, inject planned faults.

        Returns the degradation signals (empty while everything is
        healthy).  Events for an unavailable shard are parked in its
        WAL; healthy shards are never blocked by a sick one.
        """
        while self._scaling:
            await self._scale_done.wait()
        targets = self.router.route(event.event_type)
        if not targets:
            self.events_unrouted += 1
            return []
        self.events_ingested += 1
        granule = event.granule
        self._last_granule = (
            granule
            if self._last_granule is None
            else max(self._last_granule, granule)
        )
        self.granule_epochs.setdefault(granule, set()).add(self.router.epoch)
        # Route + append for the whole fan-out synchronously (no awaits
        # in between): a concurrent scale() can only observe the event
        # fully logged under one epoch, never half-routed across two
        # shard maps.
        entries = [
            (index, self._wals[index].append_event(event))
            for index in targets
        ]
        signals: list[ShardUnavailable] = []
        for index, entry in entries:
            signal = await self._deliver(index, entry)
            if signal is not None:
                signals.append(signal)
        await self._maybe_rehome()
        return signals

    async def _deliver(
        self, index: int, entry: WalEntry
    ) -> ShardUnavailable | None:
        # The per-shard lock serializes dispatch with recovery: while a
        # respawn is mid register/restore/replay, a concurrent ingest
        # (the stdin pump keeps running while the monitor loop recovers
        # a shard) parks here instead of interleaving its event frame
        # into the replay stream.  The entry is already in the WAL, so
        # either the in-flight recovery's tail covers it (sent_seq then
        # says skip) or we send it now, strictly after the replay.
        if index >= self.router.shards:
            # The cluster scaled in under this batch's feet; the entry
            # was appended pre-scale and migrated with the old shard's
            # state, so there is nothing left to deliver.
            return None
        async with self._lock(index):
            if index in self._unavailable:
                self.parked += 1
                if self.obs.enabled:
                    self.obs.counter("serve.failover.parked").inc()
                return ShardUnavailable(
                    index, self._unavailable[index], self.parked
                )
            worker = self._workers.get(index)
            if worker is None or worker.dead:
                # Recovery replays the WAL tail, which includes this entry.
                if not await self._recover_locked(index):
                    self.parked += 1
                    return ShardUnavailable(
                        index, self._unavailable.get(index, "down"),
                        self.parked,
                    )
            elif entry.seq > worker.sent_seq:
                try:
                    await self._send(worker, entry.frame())
                    worker.sent_seq = entry.seq
                    if entry.seq % self.checkpoint_every == 0:
                        await self._send(worker, {"op": "checkpoint"})
                except (OSError, ConnectionError, BrokenPipeError):
                    worker.dead = True
                    if not await self._recover_locked(index):
                        self.parked += 1
                        return ShardUnavailable(
                            index, self._unavailable.get(index, "down"),
                            self.parked,
                        )
            if self.faults.should_kill(index, entry.seq):
                live = self._workers.get(index)
                if live is not None and not live.dead:
                    live.link.kill()
                    live.dead = True
            return None

    async def _send(self, worker: _Worker, frame: dict[str, Any]) -> None:
        await worker.link.send(frame)

    # --- worker output ---------------------------------------------------

    async def _read_loop(self, index: int, worker: _Worker) -> None:
        link = worker.link
        dropped = link.frames_dropped
        while True:
            frame = await link.read()
            if link.frames_dropped != dropped:
                # The link discarded oversized/undecodable frames.  Stay
                # connected, but surface the loss: a dropped detection
                # or checkpoint_state frame is otherwise invisible (and
                # a shard whose checkpoints never land grows its WAL
                # without bound).
                delta = link.frames_dropped - dropped
                dropped = link.frames_dropped
                self.frames_dropped += delta
                if self.obs.enabled:
                    self.obs.counter(
                        "serve.failover.frames_dropped", shard=index
                    ).inc(delta)
            if frame is None:
                break
            worker.started.set()  # any frame proves the worker is up
            self._handle_frame(index, worker, frame)
        worker.dead = True
        worker.started.set()
        worker.applied.set()  # wake any drain barrier so it re-checks
        if worker.handoff is not None and not worker.handoff.done():
            worker.handoff.set_result(None)  # died mid-handoff

    def _handle_frame(
        self, index: int, worker: _Worker, frame: dict[str, Any]
    ) -> None:
        op = frame["op"]
        if op == "beat":
            worker.beats_seen += 1
            if self.faults.should_drop_beat(index, worker.beats_seen):
                if self.obs.enabled:
                    self.obs.counter("serve.failover.beats_dropped").inc()
                return
            sent_at = frame.get("t")
            self.monitor.beat(
                index,
                sent_at=float(sent_at) if sent_at is not None else None,
            )
        elif op == "ack":
            worker.acked_seq = max(worker.acked_seq, int(frame["seq"]))
            worker.applied.set()
            self.monitor.beat(index)  # an ack is proof of life too
        elif op == "detection":
            seq, k = int(frame["seq"]), int(frame["k"])
            if self.ledger.offer(index, seq, k):
                if self.obs.enabled:
                    self.obs.counter(
                        "serve.detections", shard=index
                    ).inc()
                self._deliver_row(frame["row"])
        elif op == "checkpoint_state":
            store = self._stores[index]
            store.save(
                frame["state"],
                corrupt=self.faults.take_corrupt_checkpoint(index),
            )
            self._wals[index].truncate(store.retain_after)
            self.checkpoints += 1
            if self.obs.enabled:
                self.obs.counter("serve.failover.checkpoints").inc()
            if worker.handoff is not None and not worker.handoff.done():
                # scale() is waiting on this state for migration.
                worker.handoff.set_result(dict(frame["state"]))
        # "error" frames are tolerated: the worker survived the problem.

    def _deliver_row(self, row: dict[str, Any]) -> None:
        """A ledger-accepted row goes to its one owner: the sink if there
        is one, the collected rows (:meth:`detection_rows`) otherwise."""
        if self.on_detection is not None:
            self.on_detection(row)
        else:
            self._detections.setdefault(row["detection"], []).append(row)

    # --- failure detection and recovery ----------------------------------

    async def _monitor_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.monitor.interval)
            if self._scaling:
                continue
            for index in range(self.router.shards):
                if self._stopping or self._scaling:
                    break
                if index in self._unavailable:
                    continue
                worker = self._workers.get(index)
                if worker is None:
                    continue
                if worker.dead:
                    await self._recover(index)
                elif self.monitor.suspect(index):
                    if self.obs.enabled:
                        self.obs.counter("serve.failover.beats_missed").inc(
                            self.monitor.missed(index)
                        )
                    worker.link.kill()
                    worker.dead = True
                    await self._recover(index)
            await self._maybe_rehome()

    def _lock(self, index: int) -> asyncio.Lock:
        lock = self._locks.get(index)
        if lock is None:
            lock = self._locks[index] = asyncio.Lock()
        return lock

    async def _recover(self, index: int, count_restart: bool = True) -> bool:
        """Respawn a shard: register, restore checkpoint, replay WAL tail.

        Bounded by ``retry_budget`` attempts with exponential backoff +
        jitter; returns False (and marks the shard unavailable) when the
        budget is exhausted.  Serialized per shard — against other
        recoveries *and* against :meth:`_deliver` — so the monitor loop
        cannot race a double respawn and a concurrent ingest cannot
        interleave event frames into the restore/replay stream.
        """
        async with self._lock(index):
            return await self._recover_locked(index, count_restart)

    async def _recover_locked(
        self, index: int, count_restart: bool = True
    ) -> bool:
        """The body of :meth:`_recover`; the per-shard lock is held."""
        existing = self._workers.get(index)
        if existing is not None and not existing.dead:
            return True  # someone else already recovered it
        started = time.perf_counter_ns()
        failure = "unknown"
        for attempt in range(self.retry_budget + 1):
            try:
                await self._reap(index)
                worker = await self._spawn(index)
                self._workers[index] = worker
                # Wait for the startup beat before arming the
                # liveness/dispatch clocks: interpreter startup must
                # never be mistaken for a dispatch stall.
                try:
                    await asyncio.wait_for(
                        worker.started.wait(), timeout=_STARTUP_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    raise ReproError(
                        f"shard {index} worker emitted no frame within "
                        f"{_STARTUP_TIMEOUT}s of spawn"
                    ) from None
                if worker.dead:
                    raise ReproError(
                        f"shard {index} worker exited during startup"
                    )
                for name in self.router.rules_of(index):
                    text, context = self._rules[name]
                    await self._send(
                        worker,
                        {
                            "op": "register",
                            "name": name,
                            "expression": text,
                            "context": context.value,
                        },
                    )
                state = self._stores[index].load()
                after = 0
                if state is not None:
                    await self._send(
                        worker, {"op": "restore", "state": state}
                    )
                    after = int(state["seq"])
                tail = self._wals[index].tail(after)
                for entry in tail:
                    await self._send(worker, entry.frame())
                worker.sent_seq = tail[-1].seq if tail else after
                self._unavailable.pop(index, None)
                self.monitor.mark(index)
                if count_restart:
                    self.restarts += 1
                    self.replayed += len(tail)
                    if self.obs.enabled:
                        self.obs.counter("serve.failover.restarts").inc()
                        self.obs.histogram(
                            "serve.failover.replay_events"
                        ).observe(len(tail))
                        self.obs.histogram(
                            "serve.failover.restart_ns"
                        ).observe(time.perf_counter_ns() - started)
                return True
            except (ReproError, OSError, ConnectionError) as error:
                failure = str(error)
                await asyncio.sleep(self.backoff.delay(attempt))
        self._unavailable[index] = failure
        self.monitor.forget(index)
        if self.obs.enabled:
            self.obs.counter("serve.failover.unavailable").inc()
        # With a rebalance grace configured, a shard past its retry
        # budget is not parked indefinitely: its rules are re-homed onto
        # the survivors once the grace elapses (see _maybe_rehome; the
        # scale itself cannot run here — this shard's lock is held).
        if self.rebalance_grace is not None and self.router.shards > 1:
            self._rehome_pending.add(index)
            self._rehome_at = time.monotonic() + self.rebalance_grace
        return False

    async def _spawn(self, index: int) -> _Worker:
        if self.faults.take_spawn_failure(index):
            raise ReproError(f"injected spawn failure for shard {index}")
        link = await self.transport.connect(
            index,
            timer_ratio=self.timer_ratio,
            heartbeat_interval=self.monitor.interval,
            frame_limit=_WORKER_FRAME_LIMIT,
        )
        if hasattr(link, "on_resume"):
            # A severed-and-healed link resumes instead of respawning;
            # count it and reset the heartbeat baseline so a partition
            # that just healed is not instantly re-suspected.
            def resumed(shard: int = index) -> None:
                self.resumes += 1
                self.obs.counter("serve.failover.resumes").inc()
                self.monitor.mark(shard)

            link.on_resume = resumed
        worker = _Worker(link)
        worker.reader = asyncio.get_running_loop().create_task(
            self._read_loop(index, worker),
            name=f"repro-serve-cluster-reader-{index}",
        )
        return worker

    async def _reap(self, index: int) -> None:
        worker = self._workers.pop(index, None)
        if worker is None:
            return
        worker.link.kill()
        await worker.link.wait(timeout=5)
        if worker.reader is not None:
            worker.reader.cancel()
            try:
                await worker.reader
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    async def revive(self, index: int) -> bool:
        """Bring an unavailable shard back and replay its parked tail."""
        self._unavailable.pop(index, None)
        self._rehome_pending.discard(index)
        return await self._recover(index)

    # --- live re-balancing -----------------------------------------------

    def _register_all(self, replica: ShardReplica, names) -> None:
        for name in names:
            text, context = self._rules[name]
            replica.register(text, name, context)

    def _rebuild_replica(self, index: int) -> ShardReplica:
        """Rebuild a shard in-process from its durable checkpoint + WAL.

        The migration fallback for a worker that cannot hand its state
        off (dead, parked, or killed mid-handoff): everything since the
        last checkpoint exists in the WAL, and replaying the tail
        through the ledger re-derives exactly the detections the dead
        worker never delivered — the same exactly-once argument as a
        respawn, executed in the supervisor.
        """
        replica = ShardReplica(index, timer_ratio=self.timer_ratio)
        self._register_all(replica, self.router.rules_of(index))
        state = self._stores[index].load()
        if state is not None:
            replica.restore(state)
        tail = self._wals[index].tail(replica.applied_seq)
        for entry in tail:
            for tagged in replica.apply(entry):
                if self.ledger.offer(index, tagged.seq, tagged.k):
                    self._deliver_row(detection_to_json(index, tagged.detection))
        self.replayed += len(tail)
        return replica

    async def _collect_handoff(
        self, index: int, entry: WalEntry | None
    ) -> dict[str, Any] | None:
        """One worker's migration state, or None if it must be rebuilt.

        Sends the boundary advance (when one was logged), awaits its
        ack so the snapshot sits exactly at the granule boundary, then
        requests a checkpoint handoff and awaits the state frame.  Any
        failure — dead worker, parked shard, ack or handoff timeout —
        returns None and the caller falls back to
        :meth:`_rebuild_replica`.
        """
        if index in self._unavailable:
            return None
        worker = self._workers.get(index)
        if worker is None or worker.dead:
            return None
        timeout = max(
            5.0, self.monitor.interval * self.monitor.miss_threshold
        )
        try:
            if entry is not None and entry.seq > worker.sent_seq:
                await self._send(worker, entry.frame())
                worker.sent_seq = entry.seq
            target_seq = entry.seq if entry is not None else worker.sent_seq
            deadline = time.monotonic() + timeout
            while worker.acked_seq < target_seq and not worker.dead:
                worker.applied.clear()
                if worker.acked_seq >= target_seq or worker.dead:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                try:
                    await asyncio.wait_for(
                        worker.applied.wait(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    return None
            if worker.dead:
                return None
            worker.handoff = asyncio.get_running_loop().create_future()
            await self._send(worker, {"op": "handoff"})
            if self.faults.take_scale_kill(index):
                # Chaos injection: the worker dies with the checkpoint
                # handoff in flight — the reply may or may not make it.
                worker.link.kill()
                worker.dead = True
            try:
                return await asyncio.wait_for(worker.handoff, timeout=timeout)
            except asyncio.TimeoutError:
                return None
        except (OSError, ConnectionError):
            worker.dead = True
            return None
        finally:
            worker.handoff = None

    async def scale(self, shards: int) -> ScaleReport:
        """Re-balance the live cluster onto ``shards`` workers.

        The migration runs at the current granule boundary: every shard
        first advances (logged) to the highest granule ingested, so by
        Def 4.4 the per-node state is *between* granules and movable.
        Live workers hand their state off via checkpoint frames; a
        worker that dies mid-handoff (or was already parked) is rebuilt
        in-process from its durable checkpoint + WAL with the ledger
        deduplicating replayed detections.  Rules are re-hashed by the
        successor router (epoch + 1), each new worker's detector is
        grafted from the old states, fresh WALs are seeded past the
        global seq high-water (so the ledger's per-shard marks keep
        deduplicating without a reset), and the new worker set is
        spawned.  Ingest is blocked for the duration; no event's
        fan-out ever straddles two shard maps.
        """
        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        if self._stopping:
            raise ReproError("cannot scale a stopping cluster")
        while self._scaling:
            await self._scale_done.wait()
        self._scaling = True
        self._scale_done.clear()
        try:
            return await self._scale_now(shards)
        finally:
            self._scaling = False
            self._scale_done.set()

    async def _scale_now(self, shards: int) -> ScaleReport:
        old_router = self.router
        old_shards = old_router.shards
        boundary = self._last_granule
        sources: dict[int, Detector] = {}
        async with AsyncExitStack() as stack:
            # Hold every old shard's lock: recovery and dispatch are
            # fully quiesced while state is in motion.
            for index in range(old_shards):
                await stack.enter_async_context(self._lock(index))
            boundary_entries: dict[int, WalEntry] = {}
            if boundary is not None:
                for index in range(old_shards):
                    boundary_entries[index] = self._wals[
                        index
                    ].append_advance(boundary)
            handoff_fallbacks = 0
            for index in range(old_shards):
                state = await self._collect_handoff(
                    index, boundary_entries.get(index)
                )
                if state is not None:
                    replica = ShardReplica(
                        index, timer_ratio=self.timer_ratio
                    )
                    self._register_all(
                        replica, old_router.rules_of(index)
                    )
                    replica.restore(state)
                    sources[index] = replica.detector
                else:
                    handoff_fallbacks += 1
                    sources[index] = self._rebuild_replica(index).detector
            global_seq = max(
                (wal.last_seq for wal in self._wals.values()), default=0
            )
            successor = old_router.rehash(shards)
            snapshots: dict[int, dict[str, Any]] = {}
            for j in range(shards):
                target = ShardReplica(j, timer_ratio=self.timer_ratio)
                names = successor.rules_of(j)
                for name in names:
                    text, context = self._rules[name]
                    target.register(text, name, context)
                graft_detector(target.detector, sources)
                target.applied_seq = global_seq
                snapshots[j] = target.snapshot()
            # Swap the durable state wholesale: the snapshots above are
            # the new generation's checkpoints, and both WAL and store
            # files of the old layout are removed so a restarted
            # supervisor can never resurrect a stale shard map.
            for index in range(old_shards):
                await self._reap(index)
            for wal in self._wals.values():
                wal.close()
            for k in range(max(old_shards, shards)):
                for suffix in ("wal", "ckpt"):
                    path = os.path.join(self.state_dir, f"shard{k}.{suffix}")
                    if os.path.exists(path):
                        os.remove(path)
            self._wals = {
                k: ShardWAL(
                    os.path.join(self.state_dir, f"shard{k}.wal"),
                    codec=self._wal_codec,
                )
                for k in range(shards)
            }
            self._stores = {
                k: CheckpointStore(
                    os.path.join(self.state_dir, f"shard{k}.ckpt")
                )
                for k in range(shards)
            }
            for k in range(shards):
                self._wals[k].seed_seq(global_seq)
                self._stores[k].save(snapshots[k])
            for index in range(old_shards):
                self.monitor.forget(index)
            self._unavailable.clear()
            self._rehome_pending.clear()
            self.router = successor
            self._bind()
        # Locks released (new ingest is still blocked by the _scaling
        # flag); spawn the new worker set through the normal recovery
        # path — it restores the freshly saved snapshot and replays an
        # empty tail.
        for j in range(shards):
            await self._recover(j, count_restart=False)
        self.rebalances += 1
        if self.obs.enabled:
            self.obs.counter("serve.rebalance.scales").inc()
        if handoff_fallbacks:
            self.obs.counter(
                "serve.rebalance.handoff_fallbacks"
            ).inc(handoff_fallbacks)
        return ScaleReport(
            from_shards=old_shards,
            to_shards=shards,
            epoch=successor.epoch,
            boundary=boundary,
            seq=global_seq,
            moved_rules={
                name: (old_router.assignments[name], home)
                for name, home in successor.assignments.items()
                if old_router.assignments.get(name) != home
            },
            handoff_fallbacks=handoff_fallbacks,
        )

    async def _maybe_rehome(self) -> None:
        """Re-home the rules of shards past their retry budget.

        Runs outside every per-shard lock (exhaustion is noted inside
        :meth:`_recover_locked`, which holds one).  A no-op until the
        configured ``rebalance_grace`` has elapsed — the window in
        which an operator ``revive`` can still cancel the migration.
        """
        if (
            not self._rehome_pending
            or self._scaling
            or self._stopping
            or time.monotonic() < self._rehome_at
        ):
            return
        dead = sorted(self._rehome_pending)
        self._rehome_pending.clear()
        survivors = max(1, self.router.shards - len(dead))
        self.rehomes += 1
        if self.obs.enabled:
            self.obs.counter("serve.rebalance.rehomes").inc()
        await self.scale(survivors)

    def status(self) -> ClusterStatus:
        return ClusterStatus(
            shards=self.router.shards,
            epoch=self.router.epoch,
            transport=self.transport.name,
            unavailable=dict(self._unavailable),
            parked=self.parked,
            restarts=self.restarts,
            checkpoints=self.checkpoints,
            detections=self.ledger.accepted,
        )

    # --- drain / stop ----------------------------------------------------

    async def drain(self, horizon: int | None = None) -> list[ShardUnavailable]:
        """Barrier: every available shard has applied its whole WAL.

        With ``horizon`` each shard's engine clock first advances to
        that granule (logged as a WAL entry so failover replays it too).
        A shard that dies mid-drain is recovered and re-awaited; one
        past its retry budget is skipped and reported, never blocking
        the rest.
        """
        while self._scaling:
            await self._scale_done.wait()
        await self._maybe_rehome()
        signals: list[ShardUnavailable] = []
        for index in range(self.router.shards):
            if index in self._unavailable:
                signals.append(
                    ShardUnavailable(
                        index, self._unavailable[index], self.parked
                    )
                )
                continue
            if horizon is not None:
                entry = self._wals[index].append_advance(horizon)
                signal = await self._deliver(index, entry)
                if signal is not None:
                    signals.append(signal)
                    continue
            if not await self._await_applied(index, self._wals[index].last_seq):
                signals.append(
                    ShardUnavailable(
                        index, self._unavailable.get(index, "down"),
                        self.parked,
                    )
                )
        return signals

    async def _await_applied(self, index: int, seq: int) -> bool:
        """Wait until the shard's worker acked ``seq`` (dispatch timeout
        -> kill, recover, retry with backoff, bounded by the budget)."""
        timeout = self.monitor.interval * self.monitor.miss_threshold
        for attempt in range(self.retry_budget + 1):
            worker = self._workers.get(index)
            if worker is None or worker.dead:
                if not await self._recover(index):
                    return False
                continue
            while worker.acked_seq < seq and not worker.dead:
                worker.applied.clear()
                if worker.acked_seq >= seq or worker.dead:
                    break
                try:
                    await asyncio.wait_for(
                        worker.applied.wait(), timeout=timeout
                    )
                except asyncio.TimeoutError:
                    break
            if worker.acked_seq >= seq:
                return True
            # Timed out or died: treat as a dispatch failure.
            if not worker.dead:
                worker.link.kill()
                worker.dead = True
            await asyncio.sleep(self.backoff.delay(attempt))
            if not await self._recover(index):
                return False
        self._unavailable.setdefault(index, "dispatch timeout")
        return False

    async def stop(self) -> None:
        """Graceful shutdown: final checkpoints, stop frames, reap all.

        The reader tasks are *awaited to EOF* (not cancelled) for
        gracefully stopped workers, so the final ``checkpoint_state``
        frame is always collected — which is what lets a restarted
        supervisor resume from the durable state with an empty replay
        tail instead of re-deriving (and re-deduplicating) detections.
        """
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for worker in self._workers.values():
            if worker.dead:
                continue
            try:
                await self._send(worker, {"op": "checkpoint"})
                await self._send(worker, {"op": "stop"})
                worker.link.close_input()
            except (OSError, ConnectionError):
                pass
        for worker in self._workers.values():
            if worker.reader is not None:
                try:
                    # The reader exits on channel EOF once the worker is
                    # gone, after consuming every buffered frame.
                    await asyncio.wait_for(worker.reader, timeout=10)
                except asyncio.TimeoutError:  # pragma: no cover - defensive
                    worker.reader.cancel()
            await worker.link.wait(timeout=10)
        self._workers.clear()
        for wal in self._wals.values():
            wal.close()

    # --- results ---------------------------------------------------------

    def detection_rows(self, name: str) -> list[dict[str, Any]]:
        """The collected JSON detection rows of one rule (none when an
        ``on_detection`` sink takes them)."""
        if name not in self._rules:
            raise ReproError(f"no rule named {name!r} is registered")
        return list(self._detections.get(name, ()))

    def timestamps_of(self, name: str) -> list[CompositeTimestamp]:
        """Composite timestamps of one rule's collected detections."""
        return [
            CompositeTimestamp.from_triples(
                [(site, int(g), int(l)) for site, g, l in row["timestamp"]]
            )
            for row in self.detection_rows(name)
        ]

    def unavailable_shards(self) -> dict[int, str]:
        """Deprecated: use :meth:`status` (``status().unavailable``)."""
        warnings.warn(
            "ClusterSupervisor.unavailable_shards() is deprecated; use "
            "status().unavailable",
            DeprecationWarning,
            stacklevel=2,
        )
        return dict(self._unavailable)


async def cluster_serve_stdin(
    supervisor: ClusterSupervisor,
    *,
    in_stream: IO[str] | IO[bytes] | None = None,
    out_stream: IO[str] | None = None,
    horizon_pad: int = 1,
    max_line_bytes: int = MAX_LINE_BYTES,
    codec: str | None = None,
) -> int:
    """Pump events from a stream through the cluster.

    The ``repro serve --procs N --stdin`` transport.  Input may be
    JSONL lines, version-1 binary event frames, or any interleaving —
    the splitter tells them apart by leading byte — subject to the
    ``codec`` mode (default: the supervisor's config): ``"jsonl"`` pins
    version 0 and rejects binary frames with a structured error;
    ``"binary"``/``"auto"`` accept both.  A client hello line is
    answered with a hello ack naming the chosen codec.  Detections and
    errors stream to ``out_stream`` as JSONL rows regardless of the
    ingest framing (pipeline composability: ``repro serve`` stdout is
    line-oriented).  Malformed, oversized, or corrupt input costs one
    structured error object each and the loop survives.  After EOF the
    cluster drains to ``last granule + horizon_pad`` and stops.
    """
    from repro.serve.protocol import (
        CodecError,
        StreamDecoder,
        choose_codec,
        get_codec,
        hello_ack_line,
        parse_hello,
        row_line,
    )

    mode = codec if codec is not None else supervisor.config.codec
    source = in_stream if in_stream is not None else sys.stdin
    target = out_stream if out_stream is not None else sys.stdout
    jsonl = get_codec("jsonl")
    binary = get_codec("binary")

    def write_line(line: str) -> None:
        target.write(line + "\n")
        target.flush()

    def write_error(message: str, **fields: Any) -> None:
        payload = {"error": message}
        payload.update(fields)
        write_line(json.dumps(payload, sort_keys=True))

    supervisor.on_detection = lambda row: write_line(row_line(row))
    count = 0
    last_granule: int | None = None

    async def handle_event(event: ServeEvent) -> None:
        nonlocal count, last_granule
        for signal in await supervisor.ingest(event):
            write_error(
                "shard unavailable",
                shard=signal.shard,
                reason=signal.reason,
                parked=signal.parked,
            )
        count += 1
        granule = event.granule
        last_granule = (
            granule if last_granule is None else max(last_granule, granule)
        )

    async def handle_unit(unit: Any) -> None:
        if unit.kind == "error":
            write_error(unit.message)
            return
        if unit.kind == "frame":
            if mode == "jsonl":
                write_error(
                    "binary frame rejected: this server speaks jsonl only"
                )
                return
            try:
                events = binary.decode_batch(unit.payload)
            except CodecError as error:
                write_error(str(error))
                return
            for event in events:
                await handle_event(event)
            return
        # A JSONL line: a hello, an event, or garbage.
        try:
            data = json.loads(unit.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            write_error(f"invalid JSON event line: {error}")
            return
        if isinstance(data, dict):
            offered = parse_hello(data)
            if offered is not None:
                write_line(hello_ack_line(choose_codec(mode, offered)))
                return
            if data.get("op") == "scale":
                # In-stream admin: re-balance the live cluster between
                # granules.  The caller splices the line into the event
                # stream; scale() itself enforces the boundary.
                try:
                    report = await supervisor.scale(int(data["shards"]))
                except (ReproError, KeyError, TypeError, ValueError) as error:
                    write_error(f"scale failed: {error}")
                else:
                    write_line(
                        json.dumps(
                            {"scaled": report.to_dict()}, sort_keys=True
                        )
                    )
                return
        if not isinstance(data, dict):
            write_error(
                f"event line must be a JSON object, got {type(data).__name__}"
            )
            return
        try:
            await handle_event(ServeEvent.from_dict(data))
        except ReproError as error:
            write_error(str(error))

    splitter = StreamDecoder(
        max_line_bytes=max_line_bytes,
        max_frame_bytes=binary.frame_limit(max_line_bytes),
    )
    # sys.stdin (and any text wrapper over a buffer) yields its raw
    # byte stream for frame-capable reading; a plain text stream (tests
    # pass io.StringIO) stays line-oriented and is re-framed per line.
    raw = getattr(source, "buffer", None)
    byte_source = raw if raw is not None else source
    reads_bytes = not hasattr(byte_source, "encoding")

    await supervisor.start()
    try:
        if reads_bytes:
            while chunk := await asyncio.to_thread(byte_source.read, 1 << 16):
                for unit in splitter.feed(chunk):
                    await handle_unit(unit)
        else:
            while line := await asyncio.to_thread(source.readline):
                for unit in splitter.feed(line.encode("utf-8")):
                    await handle_unit(unit)
        for unit in splitter.finish():
            await handle_unit(unit)
        horizon = None if last_granule is None else last_granule + horizon_pad
        await supervisor.drain(horizon)
    finally:
        await supervisor.stop()
    return count
