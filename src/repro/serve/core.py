"""The sans-IO cluster core: what every serving cluster does, stated once.

A detection is a function of the event history alone (Defs 4.4-5.9),
and Def 4.4 lets a shard be recovered or re-homed at a granule boundary
without changing the detection multiset — so "what recovering shard *k*
means" and "what ``scale(n)`` does" are each one procedure, and
:class:`ClusterCore` is where they live.  Like
:class:`~repro.serve.session.SessionHalf` it is synchronous: no
asyncio, no processes, no clock reads, no IO beyond its own durable
files.  It owns the router and rule table, one WAL + checkpoint store
per shard, the detection ledger, the fault injector and the counters,
and offers the steps a driver performs in its own way:

``log_event`` / ``log_advance``
    route and append a whole fan-out under one shard-map epoch;
``checkpoint_due`` / ``save_checkpoint``
    persist a snapshot, truncate the WAL to the previous generation;
``recovery``
    a shard's rules, newest intact checkpoint and the WAL tail past it;
``rebuild``
    that plan applied to an in-process replica through the ledger;
``begin_scale`` / ``migrate``
    log the boundary advance; re-hash, graft, replace the durable layout.

:class:`~repro.serve.cluster.LocalFailoverCluster` drives it with
in-process replicas, :class:`~repro.serve.cluster.ClusterSupervisor`
with worker processes, :func:`~repro.serve.netfault.replay_with_netfault`
across a scripted faulty wire.  The value types the steps trade in
(:class:`FaultPlan`, :class:`CheckpointStore`, :class:`ShardReplica`,
:class:`TaggedDetection`, :class:`DetectionLedger`) live here too.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.contexts.policies import Context
from repro.detection.approximate import VerdictDetection
from repro.detection.detector import Detection, Detector
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.events.parser import parse_expression
from repro.obs.instrument import Instrumentation, resolve
from repro.serve.admin import ClusterStatus
from repro.serve.protocol import ServeEvent
from repro.serve.rebalance import ScaleReport, graft_detector
from repro.serve.router import EventRouter
from repro.serve.shard import ShardEngine
from repro.serve.wal import KIND_EVENT, ShardWAL, WalEntry


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
        :class:`~repro.serve.cluster.ShardUnavailable` degradation path.
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
        #: Truncate the WAL only past this seq: the previous
        #: generation's, 0 when there is none or it fails its CRC.
        self.retain_after = 0
        self._seq = 0  # the current generation's, likewise
        if path is not None:
            for candidate in (path, path + ".prev"):
                if os.path.exists(candidate):
                    with open(candidate, "r", encoding="utf-8") as handle:
                        self._memory.append(handle.read())
                else:
                    self._memory.append("")
            self._seq, self.retain_after = map(self._seq_of, self._memory)

    @staticmethod
    def _encode(state: Mapping[str, Any], corrupt: bool) -> str:
        payload = json.dumps(state, sort_keys=True)
        crc = zlib.crc32(payload.encode("utf-8"))
        if corrupt:
            crc ^= 0xDEADBEEF
        # json.dumps({"crc": crc, "state": state}, sort_keys=True), from
        # the payload already serialised for the checksum.
        return f'{{"crc": {crc}, "state": {payload}}}'

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

    @classmethod
    def _seq_of(cls, text: str) -> int:
        """The ``seq`` of a serialized generation, 0 if it is not intact."""
        state = cls._decode(text)
        return int(state.get("seq", 0)) if state is not None else 0

    def save(self, state: Mapping[str, Any], *, corrupt: bool = False) -> None:
        """Persist a new generation (rotating the old one to ``.prev``)."""
        doc = self._encode(state, corrupt)
        previous = self._memory[0] if self._memory else ""
        self._memory = [doc, previous]
        self.retain_after = self._seq
        self._seq = 0 if corrupt else int(state.get("seq", 0))
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

    def discard(self) -> None:
        """Forget both generations and remove every file the store writes.

        Both generations go, and the temp files an interrupted ``save``
        can leave: a store reopened at this path loads nothing.
        """
        self._memory = []
        self._seq = self.retain_after = 0
        if self.path is not None:
            for suffix in ("", ".tmp", ".prev", ".prev.tmp"):
                if os.path.exists(self.path + suffix):
                    os.remove(self.path + suffix)


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
    """One shard's engine applying WAL entries in sequence order.

    A driver of :class:`~repro.serve.shard.ShardEngine` (the step a
    :class:`~repro.serve.shard.DetectionShard` batches for, reporting
    the same ``serve.*`` step metrics): one entry is one step, and the
    replica adds the ``(seq, k)`` tags and the applied watermark.  The
    worker process wraps one replica behind the control-frame loop; the
    in-process harness and the conformance ``failover`` check drive
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
        self.engine = ShardEngine(index, timer_ratio, approximate, instrumentation)
        self.detector = self.engine.detector
        self.applied_seq = 0
        self._fired: list[Detection] = []

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
    ) -> None:
        self.engine.register(
            expression, name=name, context=context, callback=self._fired.append
        )

    def apply(self, entry: WalEntry) -> list[TaggedDetection]:
        """Apply one WAL entry; returns the tagged detections it fired.

        On an approximate replica the step's verdicts are the tagged
        units: events reach the shadow engine eagerly (tentatives) and
        advance-entries are the drain-horizon promise that closes the
        watermark frontier (confirmations and retractions).  The
        verdict stream is a pure function of the entry sequence, so
        replay after a crash re-emits the identical tagged verdicts —
        including retractions — and the ledger's ``(seq, k)`` marks
        deduplicate them.
        """
        if entry.kind == KIND_EVENT:
            event = entry.event
            verdicts = self.engine.apply(event.granule, (event,))
        else:
            verdicts = self.engine.advance(entry.granule)
        seq = entry.seq
        # An exact step returns no verdicts and leaves what it fired in
        # ``_fired``; an approximate one returns every emission, its
        # CONFIRMED ones being the ``_fired`` detections over again.
        if verdicts:
            tagged = [
                TaggedDetection(seq, k, verdict.detection, verdict)
                for k, verdict in enumerate(verdicts)
            ]
        else:
            tagged = [
                TaggedDetection(seq, k, detection)
                for k, detection in enumerate(self._fired)
            ]
        self._fired.clear()
        self.applied_seq = seq
        return tagged

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint: the applied watermark plus the detector state
        (refused when approximate: recovery is a full-WAL replay)."""
        return {"seq": self.applied_seq, **self.engine.snapshot()}

    def restore(self, state: Mapping[str, Any]) -> None:
        self.engine.restore(state)
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



# --- the cluster core -------------------------------------------------------


def register_frame(
    name: str, expression: EventExpression, context: Context
) -> dict[str, Any]:
    """The control frame that registers one rule on a worker."""
    return {
        "op": "register",
        "name": name,
        "expression": str(expression),
        "context": context.value,
    }


class ClusterCore:
    """Router, durable per-shard state, ledger and counters of one cluster.

    A driver owns the replicas (or the workers holding them) and
    decides *when* a step runs; the core decides what it does.
    ``state_dir=None`` keeps every WAL and checkpoint in memory;
    otherwise shard ``k`` lives in ``shard{k}.wal`` / ``shard{k}.ckpt``
    under it, and a core reopened over the directory resumes numbering
    past everything durable.  ``codec`` is the WAL storage encoding.

    ``events_ingested`` / ``events_unrouted`` count events (routed to
    some shard, or to none) and ``events_applied`` deliveries (one per
    routed shard); ``restarts``, ``replayed`` (WAL entries re-applied
    by recoveries), ``checkpoints`` and ``rebalances`` count the steps.
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
        state_dir: str | None = None,
        approximate: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ReproError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        self.router = EventRouter(shards, salt=salt)
        self.timer_ratio = timer_ratio
        self.checkpoint_every = checkpoint_every
        self.faults = FaultInjector(fault_plan)
        self.codec = codec
        self.state_dir = state_dir
        self.approximate = approximate
        self.obs = resolve(instrumentation)
        self._instrumentation = instrumentation
        self.rules: dict[str, tuple[EventExpression, Context]] = {}
        self._types: dict[str, frozenset[str]] = {}
        self.ledger = DetectionLedger()
        #: The highest granule seen: the boundary a migration advances to.
        self.last_granule: int | None = None
        #: granule -> shard-map epochs its events routed under.  Always
        #: singletons: migration happens between granules and one
        #: event's whole fan-out is appended under one epoch.
        self.granule_epochs: dict[int, set[int]] = {}
        self.events_ingested = 0
        self.events_unrouted = 0
        self.events_applied = 0
        self.restarts = 0
        self.replayed = 0
        self.checkpoints = 0
        self.rebalances = 0
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
        self.wals: dict[int, ShardWAL] = {}
        self.stores: dict[int, CheckpointStore] = {}
        for shard in range(shards):
            self._open(shard)
        torn = sum(wal.torn_tails for wal in self.wals.values())
        if torn:
            self.obs.counter("serve.failover.wal_torn_tail").inc(torn)

    def _open(self, shard: int, floor: int = 0) -> None:
        """Open shard ``shard``'s durable pair, loading whatever is on
        disk and numbering past ``floor`` and everything durable."""
        if self.state_dir is None:
            wal, store = ShardWAL(codec=self.codec), CheckpointStore()
        else:
            stem = os.path.join(self.state_dir, f"shard{shard}")
            wal = ShardWAL(f"{stem}.wal", codec=self.codec)
            store = CheckpointStore(f"{stem}.ckpt")
        # A reopened log must never number new entries below the
        # durable checkpoint watermark (they would be invisible to
        # recovery's tail replay), even if the WAL file is gone.
        state = store.load()
        durable = int(state.get("seq", 0)) if state is not None else 0
        wal.seed_seq(max(floor, durable, store.retain_after))
        self.wals[shard], self.stores[shard] = wal, store

    def close(self) -> None:
        """Close the WAL files (the durable state stays)."""
        for wal in self.wals.values():
            wal.close()

    # --- rules -----------------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
        *,
        salt: int | None = None,
    ) -> int:
        """Place one rule and bind its event types; returns its shard.

        Parsing here validates the expression before any replica sees
        it and yields the routing subscription map.  ``salt`` is the
        per-rule routing override the multi-tenant tier hashes tenants
        under (it survives :meth:`migrate`'s re-hash).
        """
        parsed = (
            parse_expression(expression)
            if isinstance(expression, str)
            else expression
        )
        shard = self.router.assign(name, salt=salt)
        self.rules[name] = (parsed, context)
        self._types[name] = frozenset(parsed.primitive_types())
        self._bind()
        return shard

    def _bind(self) -> None:
        by_shard: dict[int, set[str]] = {}
        for name, types in self._types.items():
            by_shard.setdefault(self.router.assignments[name], set()).update(
                types
            )
        self.router.bind(by_shard)

    def replica(
        self, shard: int, router: EventRouter | None = None
    ) -> ShardReplica:
        """A fresh replica holding the rules ``router`` (default: the
        live one) places on ``shard``."""
        replica = ShardReplica(
            shard,
            timer_ratio=self.timer_ratio,
            approximate=self.approximate,
            instrumentation=self._instrumentation,
        )
        for name in (router or self.router).rules_of(shard):
            expression, context = self.rules[name]
            replica.register(expression, name, context)
        return replica

    # --- logging ---------------------------------------------------------

    def _saw(self, granule: int) -> None:
        if self.last_granule is None or granule > self.last_granule:
            self.last_granule = granule

    def log_event(self, event: ServeEvent) -> list[tuple[int, WalEntry]]:
        """Route one event and log it on every subscribing shard.

        The whole fan-out is appended before anything is returned, so a
        migration only ever sees the event fully logged under one
        epoch.  An event no rule subscribes to is counted, not logged.
        """
        self._saw(event.granule)
        self.granule_epochs.setdefault(event.granule, set()).add(
            self.router.epoch
        )
        targets = self.router.route(event.event_type)
        if not targets:
            self.events_unrouted += 1
            return []
        self.events_ingested += 1
        self.events_applied += len(targets)
        return [
            (shard, self.wals[shard].append_event(event)) for shard in targets
        ]

    def log_advance(self, granule: int) -> list[tuple[int, WalEntry]]:
        """Log a clock advance to ``granule`` on every shard (logged so
        that recovery replays timer firings too)."""
        self._saw(granule)
        return [
            (shard, wal.append_advance(granule))
            for shard, wal in self.wals.items()
        ]

    def accept(
        self, shard: int, tagged: Iterable[TaggedDetection]
    ) -> list[TaggedDetection]:
        """The tagged detections the ledger has not collected yet."""
        offer = self.ledger.offer
        return [t for t in tagged if offer(shard, t.seq, t.k)]

    # --- checkpoints -----------------------------------------------------

    def checkpoint_due(self, seq: int) -> bool:
        """Whether the shard that just applied entry ``seq`` checkpoints.

        Never in approximate mode: no snapshot format covers the
        stabilizer's held occurrences and pending tentatives, so an
        approximate shard recovers by replaying its whole (never
        truncated) WAL instead.
        """
        return not self.approximate and seq % self.checkpoint_every == 0

    def save_checkpoint(self, shard: int, state: Mapping[str, Any]) -> None:
        """Persist ``state`` as the shard's newest generation.

        The WAL is truncated only up to the *previous* generation, so a
        corrupt newest one (which the fault plan can inject here) still
        recovers from the one before plus the retained tail.
        """
        store = self.stores[shard]
        store.save(state, corrupt=self.faults.take_corrupt_checkpoint(shard))
        wal = self.wals[shard]
        wal.truncate(store.retain_after)
        self.checkpoints += 1
        if self.obs.enabled:
            self.obs.counter("serve.failover.checkpoints").inc()
            # Generation slack plus however far the driver has logged
            # ahead of what the shard has applied.
            self.obs.histogram("serve.wal.retained", shard=shard).observe(
                len(wal)
            )

    # --- recovery --------------------------------------------------------

    def recovery(self, shard: int):
        """What brings ``shard`` back: ``(rules, state, tail)``.

        Register ``rules`` (``(name, expression, context)`` triples),
        restore ``state`` (the newest intact checkpoint, ``None`` if
        there is none) and apply ``tail`` (the WAL entries past it) in
        order.  Application is deterministic, so the replay re-emits
        the dead incarnation's detections under the same ``(seq, k)``
        tags and the ledger collects each once.
        """
        state = self.stores[shard].load()
        after = int(state["seq"]) if state is not None else 0
        rules = [
            (name, *self.rules[name]) for name in self.router.rules_of(shard)
        ]
        return rules, state, self.wals[shard].tail(after)

    def note_restart(self, replayed: int) -> None:
        """Count one recovered shard whose recovery replayed ``replayed``
        WAL entries (which :meth:`rebuild`, or the driver, has counted)."""
        self.restarts += 1
        if self.obs.enabled:
            self.obs.counter("serve.failover.restarts").inc()
            self.obs.histogram("serve.failover.replay_events").observe(
                replayed
            )

    def rebuild(self, shard: int) -> tuple[ShardReplica, list[TaggedDetection]]:
        """:meth:`recovery` applied to a fresh in-process replica.

        Returns it with the replayed detections the ledger accepted —
        the ones the dead incarnation never delivered.
        """
        _, state, tail = self.recovery(shard)
        replica = self.replica(shard)
        if state is not None:
            replica.restore(state)
        accepted: list[TaggedDetection] = []
        for entry in tail:
            accepted.extend(self.accept(shard, replica.apply(entry)))
        self.replayed += len(tail)
        return replica, accepted

    # --- re-balancing ----------------------------------------------------

    def begin_scale(self, shards: int) -> list[tuple[int, WalEntry]]:
        """Validate a migration and log its boundary advance.

        Every shard advances (logged) to the highest granule seen, so
        its detector sits *between* granules — where Def 4.4 makes
        per-node state migratable.  The driver applies the entries,
        gathers each old shard's detector, and calls :meth:`migrate`.
        """
        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        if self.approximate:
            raise ReproError(
                "approximate clusters cannot re-balance: stabilizer "
                "state (held occurrences, pending tentatives) has no "
                "migration path yet"
            )
        if self.last_granule is None:
            return []
        return self.log_advance(self.last_granule)

    def migrate(
        self, shards: int, sources: Mapping[int, Detector]
    ) -> tuple[ScaleReport, dict[int, ShardReplica]]:
        """Re-hash every rule onto ``shards`` shards; returns the report
        and the new shard set's replicas.

        ``sources`` maps each old shard to its detector at the boundary.
        Rules are re-assigned by the successor router (epoch + 1) and
        each new detector is grafted from the old ones by shared
        ``(expression, context)`` identity.  The old durable layout is
        discarded wholesale — a reopened core can never resurrect a
        stale shard map — and the new one starts from the grafted
        snapshots with WALs seeded past the global seq high-water, so
        the ledger's per-shard marks keep deduplicating without a reset.
        """
        old = self.router
        global_seq = max(
            (wal.last_seq for wal in self.wals.values()), default=0
        )
        successor = old.rehash(shards)
        replicas: dict[int, ShardReplica] = {}
        for shard in range(shards):
            replica = self.replica(shard, successor)
            graft_detector(replica.detector, sources)
            replica.applied_seq = global_seq
            replicas[shard] = replica
        for shard in range(old.shards, shards):
            # An index the old map did not use can still hold files of
            # an earlier life of the directory; they go too.
            self._open(shard)
        for durable in (*self.wals.values(), *self.stores.values()):
            durable.discard()
        self.wals, self.stores = {}, {}
        for shard, replica in replicas.items():
            self._open(shard, floor=global_seq)
            self.stores[shard].save(replica.snapshot())
        self.router = successor
        self._bind()
        self.rebalances += 1
        if self.obs.enabled:
            self.obs.counter("serve.rebalance.scales").inc()
        report = ScaleReport(
            from_shards=old.shards,
            to_shards=shards,
            epoch=successor.epoch,
            boundary=self.last_granule,
            seq=global_seq,
            moved_rules={
                name: (old.assignments[name], home)
                for name, home in successor.assignments.items()
                if old.assignments.get(name) != home
            },
        )
        return report, replicas

    def status(self, **driver: Any) -> ClusterStatus:
        """The cluster's shape and health; the driver adds what only it
        knows (``transport``, and ``unavailable`` / ``parked`` if any)."""
        return ClusterStatus(
            shards=self.router.shards,
            epoch=self.router.epoch,
            restarts=self.restarts,
            checkpoints=self.checkpoints,
            detections=self.ledger.accepted,
            **driver,
        )
