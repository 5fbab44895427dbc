"""Fault-tolerant serving clusters: two drivers of one :class:`ClusterCore`.

What a cluster *does* — route and log an event, checkpoint a shard,
recover one from checkpoint + WAL tail with the ledger deduplicating
the replay, re-hash onto a new shard count at a granule boundary — is
stated once, in :mod:`repro.serve.core`.  This module runs it two ways:

* :class:`LocalFailoverCluster` is the core plus a dict of in-process
  replicas applied inline — synchronous and deterministic, what the
  conformance ``failover``/``tenancy`` checks, ``repro serve --tenants``
  and approximate mode run.

* :class:`ClusterSupervisor` is the core plus what a process boundary
  needs: a :class:`~repro.serve.transport.WorkerTransport` (``repro
  serve-worker`` subprocesses or remote TCP listeners, see
  :mod:`repro.serve.worker`), per-shard locks, heartbeats, bounded
  retry with backoff.  It sends the core's recovery plan as control
  frames, gathers migration sources by handoff, and falls back to the
  core's in-process rebuild for a worker that cannot answer.  Its
  lifecycle is two tables, each written by one method: a
  :class:`ShardState` per shard and a :class:`ClusterPhase`.  A shard
  past its retry budget is PARKED, with no worker: its events wait in
  its WAL (never lost, never blocking healthy shards) behind a
  :class:`ShardUnavailable` signal until :meth:`~ClusterSupervisor.revive`
  replays them or ``rebalance_grace`` re-homes its rules.

Both implement :class:`~repro.serve.admin.ClusterAdmin` and expose the
core's router, ledger and counters under the same names.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from collections import defaultdict
from contextlib import AsyncExitStack
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Any, Callable, IO, Mapping

from repro.contexts.policies import Context
from repro.detection.approximate import Verdict, VerdictDetection
from repro.detection.detector import Detector
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.obs.instrument import Instrumentation
from repro.serve.admin import ClusterAdmin, ClusterStatus
from repro.serve.config import ServeConfig
from repro.serve.core import (
    ClusterCore,
    FaultPlan,
    ShardReplica,
    TaggedDetection,
    register_frame,
)
from repro.serve.heartbeat import Backoff, HeartbeatMonitor
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeEvent,
    StreamUnit,
    detection_to_json,
    row_line,
)
from repro.serve.rebalance import ScaleReport
from repro.serve.server import _Connection, pump_units
from repro.serve.transport import WorkerLink, resolve_transport
from repro.serve.wal import WalEntry
from repro.serve.worker import _WORKER_FRAME_LIMIT
from repro.time.composite import CompositeTimestamp

# Re-exported: these lived here before the core and the worker side moved out.
from repro.serve.core import CheckpointStore as CheckpointStore
from repro.serve.core import DetectionLedger as DetectionLedger
from repro.serve.core import FaultInjector as FaultInjector
from repro.serve.worker import run_worker as run_worker
from repro.serve.worker import serve_worker_listener as serve_worker_listener

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


class _CoreDriver(ClusterAdmin):
    """What either driver exposes of its core, under one set of names."""

    core: ClusterCore

    router = property(lambda self: self.core.router)
    ledger = property(lambda self: self.core.ledger)
    granule_epochs = property(lambda self: self.core.granule_epochs)
    events_ingested = property(lambda self: self.core.events_ingested)
    events_unrouted = property(lambda self: self.core.events_unrouted)
    events_applied = property(lambda self: self.core.events_applied)
    restarts = property(lambda self: self.core.restarts)
    replayed = property(lambda self: self.core.replayed)
    checkpoints = property(lambda self: self.core.checkpoints)
    rebalances = property(lambda self: self.core.rebalances)

    def rule_names(self) -> list[str]:
        """Every registered rule name, sorted."""
        return sorted(self.core.rules)

    def _known(self, name: str) -> None:
        if name not in self.core.rules:
            raise ReproError(f"no rule named {name!r} is registered")


# --- the in-process driver ---------------------------------------------------


class LocalFailoverCluster(_CoreDriver):
    """A :class:`~repro.serve.core.ClusterCore` driven in-process.

    The core's steps applied inline to a dict of replicas: an entry is
    applied the moment it is logged, and a *kill* discards the shard's
    replica object outright (state, open granules, everything) and
    rebuilds it.  Deterministic and fast — what the conformance
    ``failover`` check runs per case, and what ``repro serve
    --tenants`` and approximate mode serve through.
    Beyond :class:`~repro.serve.admin.ClusterAdmin` it offers
    :meth:`crash` and :meth:`lose` (a shard's permanent failure).
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
        # With a codec, every WAL entry is round-tripped through that
        # encoding before it lands in the replay list — so the failover
        # path replays exactly what the wire format preserves.
        self.core = ClusterCore(
            shards,
            salt=salt,
            timer_ratio=timer_ratio,
            checkpoint_every=checkpoint_every,
            fault_plan=fault_plan,
            codec=codec,
            approximate=approximate,
            instrumentation=instrumentation,
        )
        self.obs = self.core.obs
        self._replicas: dict[int, ShardReplica] = {}
        self._detections: dict[str, list[Any]] = {}
        #: Approximate mode: every ledger-accepted verdict emission, in
        #: acceptance order (replayed duplicates excluded).
        self._verdicts: list[TaggedDetection] = []

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
        survives :meth:`scale`'s re-hash).  The replica is in-process,
        so a rule registered mid-stream detects from that point on."""
        index = self.core.register(expression, name, context, salt=salt)
        if index in self._replicas:
            self._replicas[index].register(expression, name, context)
        else:
            self._replica(index)  # a new replica registers all its shard's rules
        return index

    def _replica(self, index: int) -> ShardReplica:
        replica = self._replicas.get(index)
        if replica is None:
            replica = self._replicas[index] = self.core.replica(index)
        return replica

    # --- the ingest/apply path -------------------------------------------

    def ingest(self, event: ServeEvent) -> None:
        """Log one event and apply it on every subscribing shard."""
        core = self.core
        for index, entry in core.log_event(event):
            self._apply(index, entry)
            if core.checkpoint_due(entry.seq):
                core.save_checkpoint(index, self._replica(index).snapshot())
            if core.faults.should_kill(index, entry.seq):
                self.crash(index)

    def advance(self, granule: int) -> None:
        """Drain-time clock advance on every shard (logged + applied)."""
        for index, entry in self.core.log_advance(granule):
            self._apply(index, entry)

    def _apply(self, index: int, entry: WalEntry) -> None:
        self._collect(
            self.core.accept(index, self._replica(index).apply(entry))
        )

    def _collect(self, accepted: list[TaggedDetection]) -> None:
        for tagged in accepted:
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

    # --- failover --------------------------------------------------------

    def crash(self, index: int) -> int:
        """Kill the shard (discard its replica) and recover it by
        :meth:`~repro.serve.core.ClusterCore.rebuild`; returns the
        number of WAL entries replayed.  Whatever the dead replica had
        emitted the ledger deduplicates, the rest the replay re-derives:
        the collected multiset is exactly the fault-free one."""
        core = self.core
        before = core.replayed
        self._replicas[index], accepted = core.rebuild(index)
        self._collect(accepted)
        replayed = core.replayed - before
        core.note_restart(replayed)
        return replayed

    # --- re-balancing (the ClusterAdmin surface) -------------------------

    def scale(self, shards: int) -> ScaleReport:
        """Re-hash every rule onto ``shards`` shards at the boundary:
        :meth:`~repro.serve.core.ClusterCore.migrate` with the live
        replicas' detectors as its sources and its grafted replicas as
        the new shard set."""
        for index, entry in self.core.begin_scale(shards):
            self._apply(index, entry)
        sources = {
            index: self._replica(index).detector
            for index in range(self.core.router.shards)
        }
        report, self._replicas = self.core.migrate(shards, sources)
        return report

    def lose(self, index: int) -> ScaleReport:
        """Permanently lose one shard: its replica is discarded and
        rebuilt from durable state (:meth:`crash`), then the whole
        cluster re-hashes onto one fewer shard (:meth:`scale`)."""
        if not 0 <= index < self.core.router.shards:
            raise ReproError(f"shard index {index} out of range")
        if self.core.router.shards < 2:
            raise ReproError("cannot lose the only remaining shard")
        self.crash(index)
        return self.scale(self.core.router.shards - 1)

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
        return self.core.status(transport="in-process")

    # --- results ---------------------------------------------------------

    def detections_of(self, name: str):
        """Collected occurrences of one rule (exactly-once).

        In approximate mode this is the CONFIRMED multiset — the same
        exact-multiset contract as everywhere else.
        """
        self._known(name)
        return list(self._detections.get(name, ()))

    def verdicts_of(self, name: str) -> list[VerdictDetection]:
        """One rule's ledger-accepted verdict stream (approximate mode).

        Exactly-once across crash/replay: a replayed emission carries
        the same ``(seq, k)`` tag, so the ledger filters it before it
        reaches this list.
        """
        self._known(name)
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


# --- the supervisor ----------------------------------------------------------


_STARTUP_TIMEOUT = 30.0
"""Seconds a freshly spawned worker gets to emit its first frame."""


class ShardState(Enum):
    """Where one supervised shard is in its lifecycle (docs/serving.md)."""

    DOWN = "down"  # no live worker: the next dispatch or monitor tick respawns
    STARTING = "starting"  # spawned, getting its recovery plan; not suspected
    LIVE = "live"  # has its plan: entries go to it, its beats are watched
    PARKED = "parked"  # past its budget, no worker: entries wait in the WAL


class ClusterPhase(Enum):
    """What the whole supervisor is doing."""

    RUNNING = "running"
    SCALING = "scaling"  # scale() owns the shard map: ingest, drain, stop wait
    STOPPING = "stopping"  # stop() has begun; the monitor exits, nothing scales


#: Every move a shard may make (entering its own state is a no-op);
#: ``ClusterSupervisor._enter`` raises on any other.
_TRANSITIONS: dict[ShardState, frozenset[ShardState]] = {
    ShardState.DOWN: frozenset({ShardState.STARTING, ShardState.PARKED}),
    ShardState.STARTING: frozenset({ShardState.LIVE, ShardState.DOWN}),
    ShardState.LIVE: frozenset({ShardState.DOWN}),
    ShardState.PARKED: frozenset({ShardState.DOWN}),
}
_PHASE_TRANSITIONS: dict[ClusterPhase, frozenset[ClusterPhase]] = {
    ClusterPhase.RUNNING: frozenset({ClusterPhase.SCALING, ClusterPhase.STOPPING}),
    ClusterPhase.SCALING: frozenset({ClusterPhase.RUNNING}),
    ClusterPhase.STOPPING: frozenset(),
}


def _check_move(table: dict, old: Enum, new: Enum, what: str) -> None:
    if new not in table[old]:
        raise ReproError(f"{what} cannot move from {old.value} to {new.value}")


@dataclass(slots=True)
class _Shard:
    """A shard's state, why it is not LIVE, and when a PARKED one re-homes."""

    state: ShardState = ShardState.DOWN
    reason: str = ""
    rehome_at: float | None = None


@dataclass(eq=False, slots=True)
class _Worker:
    """Supervisor-side handle of one worker incarnation."""

    link: WorkerLink
    reader: asyncio.Task | None = None
    acked_seq: int = 0
    applied: asyncio.Event = field(default_factory=asyncio.Event)
    beats_seen: int = 0
    started: asyncio.Event = field(default_factory=asyncio.Event)
    #: Highest WAL seq already sent (restore replay included): _deliver
    #: skips entries at or below it, so a tail replay is never re-sent.
    sent_seq: int = 0
    #: Pending scale() handoff: resolved with the worker's migration
    #: state (or None when the channel dies first).
    handoff: asyncio.Future | None = None


class ClusterSupervisor(_CoreDriver):
    """A :class:`~repro.serve.core.ClusterCore` driven over worker processes.

    Each shard is a supervised worker behind a transport; the core's
    steps reach it as control frames.  ``config=ServeConfig(...)``
    supplies ``procs`` (else ``shards``), ``state_dir`` (required: WAL
    and checkpoint files a restarted supervisor recovers from), the
    routing, heartbeat, retry, checkpoint, codec (a named one is also
    the WALs' framing) and transport fields, and ``rebalance_grace``
    (``None`` parks a shard past its retry budget until :meth:`revive`;
    a float re-homes its rules onto the survivors).  ``fault_plan`` and
    ``on_detection`` are runtime collaborators, not configuration.
    """

    def __init__(
        self,
        *,
        config: ServeConfig,
        fault_plan: FaultPlan | None = None,
        net_fault_plan: "NetFaultPlan | None" = None,
        instrumentation: Instrumentation | None = None,
        on_detection: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.config = config
        if config.state_dir is None:
            raise ReproError(
                "ClusterSupervisor needs a state_dir "
                "(set it on the ServeConfig)"
            )
        self.core = ClusterCore(
            config.procs if config.procs is not None else config.shards,
            salt=config.salt,
            timer_ratio=config.timer_ratio,
            checkpoint_every=config.checkpoint_every,
            fault_plan=fault_plan,
            # A named codec is the WAL's storage encoding (binary is an
            # explicit storage upgrade); "auto" names none, and the WAL
            # keeps its default layout, JSONL.
            codec=None if config.codec == "auto" else config.codec,
            state_dir=config.state_dir,
            instrumentation=instrumentation,
        )
        self.obs = self.core.obs
        self.monitor = HeartbeatMonitor(
            config.heartbeat_interval, config.miss_threshold
        )
        self.backoff = Backoff(seed=config.seed)
        self.on_detection = on_detection
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
        self._workers: dict[int, _Worker] = {}
        self._locks: dict[int, asyncio.Lock] = defaultdict(asyncio.Lock)
        self._shards: dict[int, _Shard] = defaultdict(_Shard)
        self._phase = ClusterPhase.RUNNING
        self._phase_changed = asyncio.Event()  # set, then replaced, per move
        self._detections: dict[str, list[dict[str, Any]]] = {}
        self._monitor_task: asyncio.Task | None = None
        self.resumes = 0
        self.parked = 0
        self.frames_dropped = 0
        self.rehomes = 0

    # --- registration ----------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
    ) -> int:
        """Register one rule; returns the owning shard index.

        Rules are registered before :meth:`start`: a worker learns its
        rules from the recovery plan that spawns it, and nothing tells
        a live one about a later rule, so a late registration is
        rejected rather than left silently dead.
        """
        if self._monitor_task is not None:
            raise ReproError(
                f"cannot register rule {name!r} on a running cluster: "
                "rules are registered before start()"
            )
        return self.core.register(expression, name, context)

    # --- lifecycle -------------------------------------------------------

    def _enter(
        self, index: int, state: ShardState, *,
        by: _Worker | None = None, reason: str = "",
    ) -> None:
        """The one writer of shard state; a move asked ``by`` a stale
        incarnation (an old reader's late EOF) is ignored.  LIVE arms the
        heartbeat window; PARKED (no worker left) stops watching the
        shard, counts it and schedules a ``rebalance_grace`` re-home."""
        shard = self._shards[index]
        stale = by is not None and by is not self._workers.get(index)
        if stale or state is shard.state:
            return
        _check_move(_TRANSITIONS, shard.state, state, f"shard {index}")
        if state is ShardState.PARKED and index in self._workers:
            raise ReproError(f"shard {index} cannot park with a worker")
        shard.state, shard.reason, shard.rehome_at = state, reason, None
        if state is ShardState.LIVE:
            self.monitor.mark(index)
        elif state is ShardState.PARKED:
            self.monitor.forget(index)
            if self.obs.enabled:
                self.obs.counter("serve.failover.unavailable").inc()
            grace = self.config.rebalance_grace
            if grace is not None and self.core.router.shards > 1:
                shard.rehome_at = time.monotonic() + grace

    def _enter_phase(self, phase: ClusterPhase) -> None:
        """The one writer of the cluster phase; wakes :meth:`_unblocked`."""
        if phase is not self._phase:
            _check_move(_PHASE_TRANSITIONS, self._phase, phase, "the cluster")
            self._phase = phase
            self._phase_changed.set()
            self._phase_changed = asyncio.Event()

    async def _unblocked(self) -> None:
        """Wait out a :meth:`scale` in progress."""
        while self._phase is ClusterPhase.SCALING:
            await self._phase_changed.wait()

    def _live(self, index: int) -> _Worker | None:
        """The shard's worker while the shard is LIVE."""
        if self._shards[index].state is ShardState.LIVE:
            return self._workers.get(index)
        return None

    def _kill(self, index: int, worker: _Worker, reason: str) -> None:
        """Tear ``worker`` down now; the shard goes DOWN if it still is
        the shard's, and the next dispatch or monitor tick respawns it."""
        worker.link.kill()
        self._enter(index, ShardState.DOWN, by=worker, reason=reason)

    async def _reap(self, index: int) -> None:
        """Take the shard DOWN and release its worker, if it has one."""
        self._enter(index, ShardState.DOWN)
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

    async def _give_up(self, index: int, reason: str) -> None:
        """Every park: reap the worker, then enter PARKED (lock held)."""
        await self._reap(index)
        self._enter(index, ShardState.PARKED, reason=reason)

    async def start(self) -> None:
        """Spawn every worker (recovering any durable WAL/checkpoints)."""
        self._enter_phase(ClusterPhase.RUNNING)  # a stopped one raises
        for index in range(self.core.router.shards):
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
        await self._unblocked()
        signals: list[ShardUnavailable] = []
        # log_event appends the whole fan-out before the first await, so
        # a concurrent scale() never sees the event half-routed.
        for index, entry in self.core.log_event(event):
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
        if index >= self.core.router.shards:
            # The cluster scaled in under this batch's feet: the entry
            # migrated with the old shard's state, nothing is left to do.
            return None
        async with self._locks[index]:
            if self._shards[index].state is ShardState.PARKED:
                return self._park(index)
            worker = self._live(index)
            if worker is None:
                # Recovery replays the WAL tail, which includes this entry.
                if not await self._recover_locked(index):
                    return self._park(index)
            elif entry.seq > worker.sent_seq:
                try:
                    await self._send(worker, entry.frame())
                    worker.sent_seq = entry.seq
                    if self.core.checkpoint_due(entry.seq):
                        await self._send(worker, {"op": "checkpoint"})
                except (OSError, ConnectionError, BrokenPipeError):
                    self._kill(index, worker, "send failed")
                    if not await self._recover_locked(index):
                        return self._park(index)
            if self.core.faults.should_kill(index, entry.seq):
                worker = self._live(index)
                if worker is not None:
                    self._kill(index, worker, "fault plan")
            return None

    def _down(self, index: int) -> ShardUnavailable:
        return ShardUnavailable(index, self._shards[index].reason, self.parked)

    def _park(self, index: int) -> ShardUnavailable:
        """The entry stays in the shard's WAL until a revive replays it."""
        self.parked += 1
        if self.obs.enabled:
            self.obs.counter("serve.failover.parked").inc()
        return self._down(index)

    async def _send(self, worker: _Worker, frame: dict[str, Any]) -> None:
        await worker.link.send(frame)

    # --- worker output ---------------------------------------------------

    async def _read_loop(self, index: int, worker: _Worker) -> None:
        link = worker.link
        dropped = link.frames_dropped
        while True:
            frame = await link.read()
            if link.frames_dropped != dropped:
                # The link discarded oversized/undecodable frames: stay
                # connected but count them, or a lost detection or
                # checkpoint (an unbounded WAL) would be invisible.
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
        self._enter(index, ShardState.DOWN, by=worker, reason="exited")
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
            if self.core.faults.should_drop_beat(index, worker.beats_seen):
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
            if self.core.ledger.offer(index, seq, k):
                if self.obs.enabled:
                    self.obs.counter("serve.detections", shard=index).inc()
                self._deliver_row(frame["row"])
        elif op == "checkpoint_state":
            self.core.save_checkpoint(index, frame["state"])
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
        while self._phase is not ClusterPhase.STOPPING:
            await asyncio.sleep(self.monitor.interval)
            for index in range(self.core.router.shards):
                if self._phase is not ClusterPhase.RUNNING:
                    break
                worker = self._live(index)
                if worker is not None and self.monitor.suspect(index):
                    if self.obs.enabled:
                        self.obs.counter("serve.failover.beats_missed").inc(
                            self.monitor.missed(index)
                        )
                    self._kill(index, worker, "heartbeat")
                if self._shards[index].state is ShardState.DOWN:
                    await self._recover(index)
            await self._maybe_rehome()

    async def _recover(self, index: int, count_restart: bool = True) -> bool:
        """Respawn a shard and send it the core's recovery plan, under
        its lock (no second recovery and no dispatch interleaves); after
        ``retry_budget`` retries with backoff it parks (returns False)."""
        async with self._locks[index]:
            return await self._recover_locked(index, count_restart)

    async def _recover_locked(
        self, index: int, count_restart: bool = True
    ) -> bool:
        """The body of :meth:`_recover`; the per-shard lock is held."""
        shard = self._shards[index]
        if shard.state is ShardState.LIVE:
            return True  # someone else already recovered it
        if shard.state is ShardState.PARKED:
            return False  # only revive() or a re-home brings it back
        started = time.perf_counter_ns()
        failure = "unknown"
        for attempt in range(self.config.retry_budget + 1):
            try:
                await self._reap(index)
                worker = await self._spawn(index)
                self._workers[index] = worker
                self._enter(index, ShardState.STARTING)
                # The startup beat comes before the liveness/dispatch
                # clocks: startup is never mistaken for a stall.
                try:
                    await asyncio.wait_for(
                        worker.started.wait(), timeout=_STARTUP_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    raise ReproError(
                        f"shard {index} worker emitted no frame within "
                        f"{_STARTUP_TIMEOUT}s of spawn"
                    ) from None
                if shard.state is not ShardState.STARTING:
                    raise ReproError(
                        f"shard {index} worker exited during startup"
                    )
                rules, state, tail = self.core.recovery(index)
                for rule in rules:
                    await self._send(worker, register_frame(*rule))
                after = 0
                if state is not None:
                    await self._send(worker, {"op": "restore", "state": state})
                    after = int(state["seq"])
                for entry in tail:
                    await self._send(worker, entry.frame())
                worker.sent_seq = tail[-1].seq if tail else after
                self._enter(index, ShardState.LIVE)
                if count_restart:
                    self.core.replayed += len(tail)
                    self.core.note_restart(len(tail))
                    if self.obs.enabled:
                        elapsed = time.perf_counter_ns() - started
                        self.obs.histogram("serve.failover.restart_ns").observe(elapsed)
                return True
            except (ReproError, OSError, ConnectionError) as error:
                failure = str(error)
                await asyncio.sleep(self.backoff.delay(attempt))
        await self._give_up(index, failure)
        return False

    async def _spawn(self, index: int) -> _Worker:
        if self.core.faults.take_spawn_failure(index):
            raise ReproError(f"injected spawn failure for shard {index}")
        link = await self.transport.connect(
            index,
            timer_ratio=self.core.timer_ratio,
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

    async def revive(self, index: int) -> bool:
        """Bring a parked shard back: respawn it and replay its parked tail."""
        async with self._locks[index]:
            if self._shards[index].state is ShardState.PARKED:
                self._enter(index, ShardState.DOWN)
            return await self._recover_locked(index)

    # --- live re-balancing -----------------------------------------------

    def _rebuild(self, index: int) -> ShardReplica:
        """The migration fallback for a worker that cannot hand its
        state off (dead, parked, or killed mid-handoff): the core's
        in-process :meth:`~repro.serve.core.ClusterCore.rebuild`, its
        newly accepted detections delivered as rows."""
        replica, accepted = self.core.rebuild(index)
        for tagged in accepted:
            self._deliver_row(detection_to_json(index, tagged.detection))
        return replica

    async def _acked(
        self, index: int, worker: _Worker, seq: int, timeout: float
    ) -> bool:
        """Whether ``worker`` acks ``seq``; gives up once it is no longer
        the shard's LIVE incarnation or stays silent for ``timeout``
        (every ack restarts the clock)."""
        while worker.acked_seq < seq and self._live(index) is worker:
            worker.applied.clear()
            try:
                await asyncio.wait_for(worker.applied.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                break
        return worker.acked_seq >= seq

    async def _collect_handoff(
        self, index: int, entry: WalEntry | None
    ) -> dict[str, Any] | None:
        """One LIVE worker's migration state, the snapshot exactly at the
        boundary (its advance is sent and acked first).  None (dead,
        parked, a timeout) makes the caller fall back to :meth:`_rebuild`."""
        worker = self._live(index)
        if worker is None:
            return None
        timeout = max(5.0, self.monitor.interval * self.monitor.miss_threshold)
        try:
            if entry is not None and entry.seq > worker.sent_seq:
                await self._send(worker, entry.frame())
                worker.sent_seq = entry.seq
            if not await self._acked(index, worker, worker.sent_seq, timeout):
                return None
            worker.handoff = asyncio.get_running_loop().create_future()
            await self._send(worker, {"op": "handoff"})
            if self.core.faults.take_scale_kill(index):
                # Chaos injection: the worker dies with the checkpoint
                # handoff in flight — the reply may or may not make it.
                self._kill(index, worker, "fault plan")
            try:
                return await asyncio.wait_for(worker.handoff, timeout=timeout)
            except asyncio.TimeoutError:
                return None
        except (OSError, ConnectionError):
            self._kill(index, worker, "send failed")
            return None
        finally:
            worker.handoff = None

    async def scale(self, shards: int) -> ScaleReport:
        """Re-balance the live cluster onto ``shards`` workers.

        :meth:`~repro.serve.core.ClusterCore.migrate` with sources handed
        off over the wire (rebuilt in-process for a shard that is parked
        or dies mid-handoff); old workers are reaped, the new set spawns
        from the saved snapshots.  The SCALING phase blocks ingest, so no
        event's fan-out straddles two shard maps.
        """
        await self._unblocked()
        self._enter_phase(ClusterPhase.SCALING)  # raises once stopping
        try:
            return await self._scale_now(shards)
        finally:
            self._enter_phase(ClusterPhase.RUNNING)

    async def _scale_now(self, shards: int) -> ScaleReport:
        old_shards = self.core.router.shards
        sources: dict[int, Detector] = {}
        handoff_fallbacks = 0
        async with AsyncExitStack() as stack:
            # Hold every old shard's lock: recovery and dispatch are
            # fully quiesced while state is in motion.
            for index in range(old_shards):
                await stack.enter_async_context(self._locks[index])
            boundary = dict(self.core.begin_scale(shards))
            for index in range(old_shards):
                state = await self._collect_handoff(index, boundary.get(index))
                if state is not None:
                    replica = self.core.replica(index)
                    replica.restore(state)
                else:
                    handoff_fallbacks += 1
                    replica = self._rebuild(index)
                sources[index] = replica.detector
            for index in range(old_shards):
                await self._reap(index)  # a parked shard goes DOWN too
                self.monitor.forget(index)
            report, _ = self.core.migrate(shards, sources)
        # Locks released, ingest still blocked: the new set spawns
        # through recovery, from the snapshot with an empty tail.
        for index in range(shards):
            await self._recover(index, count_restart=False)
        if handoff_fallbacks:
            name = "serve.rebalance.handoff_fallbacks"
            self.obs.counter(name).inc(handoff_fallbacks)
        return replace(report, handoff_fallbacks=handoff_fallbacks)

    async def _maybe_rehome(self) -> None:
        """Re-home parked shards' rules once the last one's
        ``rebalance_grace`` (the window for a ``revive``) has elapsed.
        Outside every shard lock; :meth:`scale` enters SCALING before
        its first await, so two callers never re-home twice."""
        due = [
            s.rehome_at for s in self._shards.values() if s.rehome_at is not None
        ]
        if not due or self._phase is not ClusterPhase.RUNNING:
            return
        if time.monotonic() < max(due):
            return
        survivors = max(1, self.core.router.shards - len(due))
        self.rehomes += 1
        if self.obs.enabled:
            self.obs.counter("serve.rebalance.rehomes").inc()
        await self.scale(survivors)

    def status(self) -> ClusterStatus:
        return self.core.status(
            transport=self.transport.name,
            unavailable={
                index: shard.reason
                for index, shard in sorted(self._shards.items())
                if shard.state is ShardState.PARKED
            },
            parked=self.parked,
        )

    # --- drain / stop ----------------------------------------------------

    async def drain(self, horizon: int | None = None) -> list[ShardUnavailable]:
        """Barrier: every available shard has applied its whole WAL.

        With ``horizon`` each shard's clock first advances to that
        granule (a WAL entry, so failover replays it; a parked shard's
        waits in its WAL).  A shard that dies mid-drain is recovered and
        re-awaited; a parked one is reported, never blocking the rest.
        """
        await self._unblocked()
        await self._maybe_rehome()
        signals: list[ShardUnavailable] = []
        advances = (
            dict(self.core.log_advance(horizon)) if horizon is not None else {}
        )
        for index in range(self.core.router.shards):
            parked = self._shards[index].state is ShardState.PARKED
            if not parked and index in advances:
                parked = await self._deliver(index, advances[index]) is not None
            if parked or not await self._await_applied(
                index, self.core.wals[index].last_seq
            ):
                signals.append(self._down(index))
        return signals

    async def _await_applied(self, index: int, seq: int) -> bool:
        """Wait until the shard's worker acked ``seq`` (dispatch timeout
        -> kill, recover, retry with backoff; past the budget the shard
        parks like one whose respawns failed)."""
        timeout = self.monitor.interval * self.monitor.miss_threshold
        for attempt in range(self.config.retry_budget + 1):
            worker = self._live(index)
            if worker is not None:
                if await self._acked(index, worker, seq, timeout):
                    return True
                # Timed out or died: treat as a dispatch failure.
                self._kill(index, worker, "dispatch timeout")
                await asyncio.sleep(self.backoff.delay(attempt))
            if not await self._recover(index):
                return False
        async with self._locks[index]:
            await self._give_up(index, "dispatch timeout")
        return False

    async def stop(self) -> None:
        """Graceful shutdown: final checkpoints, stop frames, reap all.

        Readers are *awaited to EOF*, not cancelled, so each final
        ``checkpoint_state`` lands and a restarted supervisor resumes
        with an empty replay tail instead of re-deriving detections.
        """
        await self._unblocked()
        self._enter_phase(ClusterPhase.STOPPING)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for index, worker in self._workers.items():
            if self._shards[index].state is ShardState.DOWN:
                continue
            try:
                await self._send(worker, {"op": "checkpoint"})
                await self._send(worker, {"op": "stop"})
                worker.link.close_input()
            except (OSError, ConnectionError):
                pass
        for index, worker in self._workers.items():
            if worker.reader is not None:
                try:
                    await asyncio.wait_for(worker.reader, timeout=10)
                except asyncio.TimeoutError:  # pragma: no cover - defensive
                    worker.reader.cancel()
            await worker.link.wait(timeout=10)
            self._enter(index, ShardState.DOWN, reason="stopped")
        self._workers.clear()
        self.core.close()

    # --- results ---------------------------------------------------------

    def detection_rows(self, name: str) -> list[dict[str, Any]]:
        """The collected JSON detection rows of one rule (none when an
        ``on_detection`` sink takes them)."""
        self._known(name)
        return list(self._detections.get(name, ()))

    def timestamps_of(self, name: str) -> list[CompositeTimestamp]:
        """Composite timestamps of one rule's collected detections."""
        return [
            CompositeTimestamp.from_triples(
                [(site, int(g), int(l)) for site, g, l in row["timestamp"]]
            )
            for row in self.detection_rows(name)
        ]


def _scale_request(unit: StreamUnit) -> dict[str, Any] | None:
    """The in-stream admin line ``{"op": "scale", "shards": N}``, if
    ``unit`` is one — anything else is client input."""
    # The byte test spares every event line a second JSON parse.
    if unit.kind != "line" or b'"scale"' not in unit.payload:
        return None
    try:
        data = json.loads(unit.payload)
    except ValueError:  # malformed input is the connection's to report
        return None
    if isinstance(data, dict) and data.get("op") == "scale":
        return data
    return None


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

    The ``repro serve --procs N --stdin`` transport.  Client input is
    decoded exactly as :func:`~repro.serve.server.serve_stdin` decodes
    it — JSONL lines, version-1 binary event frames, or any
    interleaving, subject to the ``codec`` mode (default: the
    supervisor's config), a hello line answered with a hello ack —
    plus one in-stream admin line, ``{"op": "scale", "shards": N}``,
    that re-balances the live cluster between granules.  Detections and
    errors stream to ``out_stream`` as JSONL rows regardless of the
    ingest framing (pipeline composability: ``repro serve`` stdout is
    line-oriented).  Malformed, oversized, or corrupt input costs one
    structured error object each and the loop survives.  After EOF the
    cluster drains to ``last granule + horizon_pad`` and stops.
    """
    mode = codec if codec is not None else supervisor.config.codec
    source = in_stream if in_stream is not None else sys.stdin
    target = out_stream if out_stream is not None else sys.stdout
    connection = _Connection(mode, max_line_bytes)

    def write_line(line: str) -> None:
        target.write(line + "\n")
        target.flush()

    def write_error(message: str, **fields: Any) -> None:
        write_line(json.dumps({"error": message, **fields}, sort_keys=True))

    supervisor.on_detection = lambda row: write_line(row_line(row))
    count = 0

    async def handle_unit(unit: StreamUnit) -> None:
        nonlocal count
        admin = _scale_request(unit)
        if admin is not None:
            # The caller splices the line into the event stream;
            # scale() itself enforces the granule boundary.
            try:
                report = await supervisor.scale(int(admin["shards"]))
            except (ReproError, KeyError, TypeError, ValueError) as error:
                write_error(f"scale failed: {error}")
            else:
                write_line(
                    json.dumps({"scaled": report.to_dict()}, sort_keys=True)
                )
            return
        events, reply, error = connection.consume(unit)
        if reply is not None:
            write_line(reply)
        if error is not None:
            write_error(error)
        for event in events:
            for signal in await supervisor.ingest(event):
                write_error("shard unavailable", **asdict(signal))
        count += len(events)

    await supervisor.start()
    try:
        await pump_units(source, connection.splitter, handle_unit)
        last_granule = supervisor.core.last_granule
        horizon = None if last_granule is None else last_granule + horizon_pad
        await supervisor.drain(horizon)
    finally:
        await supervisor.stop()
    return count
