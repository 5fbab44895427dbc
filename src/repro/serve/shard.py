"""One detection shard: a bounded queue, a worker, a detector.

A :class:`DetectionShard` owns a single-site
:class:`~repro.detection.detector.Detector` holding the rules the
router assigned to it, plus a bounded :class:`asyncio.Queue` of incoming
:class:`~repro.serve.protocol.ServeEvent`\\ s.  The worker coroutine
accumulates queued events into **granule-aligned batches** — all
consecutive events whose global time falls in the same ``g_g`` granule —
and feeds each batch through the detector in one step.

Why batching is safe: Definition 4.4 only orders events whose global
times differ by *more than one* granule, so two events inside one
granule are concurrent for every cross-site comparison, and same-site
events keep their local-tick order because the batch preserves arrival
order.  Batching therefore cannot reorder any *detectable* occurrence;
it only amortizes the per-event engine entry cost.

A batch is flushed when (a) an event from a later granule arrives, or
(b) the queue goes idle — so a quiet stream still sees its detections
promptly — or (c) the shard drains on shutdown.  Before the batch is
fed, the shard's engine clock advances to the batch granule, firing any
due temporal-operator timers exactly as the simulator's granule pump
does.  Events that arrive *late* (an older granule than the engine
clock) are fed immediately rather than dropped: the detector clamps
late timers instead of raising, matching the coordinator's behaviour
under message delay.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Mapping

from repro.contexts.policies import Context
from repro.detection.approximate import ApproximateStabilizer, VerdictDetection
from repro.detection.checkpoint import restore, snapshot
from repro.detection.detector import Detection, Detector
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.obs.instrument import Instrumentation, resolve
from repro.serve.protocol import ServeEvent, batch_occurrences

_STOP = object()


def shard_engines(
    timer_ratio: int, approximate: bool, instrumentation: Instrumentation | None
) -> tuple[Detector, ApproximateStabilizer | None]:
    """One shard's (or replica's) detector and its anytime stabilizer.

    The detector site is logical, not physical: every shard uses the
    same name so timer stamps (``shard.timer``) stay comparable when an
    elastic re-balance re-homes a rule.  Which shard detected an
    occurrence is carried by the row's index, never by the timestamp.
    """
    detector = Detector(
        site="shard", timer_ratio=timer_ratio, instrumentation=instrumentation
    )
    if not approximate:
        return detector, None
    return detector, ApproximateStabilizer(
        detector, sites=[], auto_sites=True, instrumentation=instrumentation
    )


class DetectionShard:
    """One shard of the serving runtime.

    Parameters
    ----------
    index:
        The shard's position in the runtime (names its detector site).
    capacity:
        Bound of the ingest queue; a full queue suspends producers.
    high_water:
        Queue depth at which :meth:`under_pressure` reports ``True``
        (defaults to three quarters of ``capacity``).
    timer_ratio:
        Local ticks per global granule for temporal-operator timers.
    approximate:
        Anytime mode: intake runs through an
        :class:`~repro.detection.approximate.ApproximateStabilizer`
        (open-world: sites join its watermark set on first contact), so
        the shard emits TENTATIVE verdicts immediately and CONFIRMED /
        RETRACTED verdicts as the watermark frontier closes.  The
        shard's detector becomes the stabilizer's *exact* engine, so
        :meth:`detections_of` still reports the exact multiset.
    instrumentation:
        Optional :class:`~repro.obs.instrument.Instrumentation` hub.
    """

    def __init__(
        self,
        index: int,
        *,
        capacity: int = 1024,
        high_water: int | None = None,
        timer_ratio: int = 1,
        approximate: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if capacity <= 0:
            raise ReproError(f"queue capacity must be positive, got {capacity}")
        if high_water is None:
            high_water = max(1, (capacity * 3) // 4)
        if not 0 < high_water <= capacity:
            raise ReproError(
                f"high_water must be in (0, capacity], got {high_water}"
            )
        self.index = index
        self.capacity = capacity
        self.high_water = high_water
        self.obs = resolve(instrumentation)
        self.detector, self.stabilizer = shard_engines(
            timer_ratio, approximate, instrumentation
        )
        self.approximate = approximate
        self.verdicts: list[tuple[int, VerdictDetection]] = []
        #: Streaming hook: called with ``(shard index, verdict)`` for
        #: every verdict emission (the approximate-mode analogue of the
        #: per-rule detection callbacks).
        self.verdict_sink: Callable[[int, VerdictDetection], None] | None = None
        self.queue: asyncio.Queue[Any] = asyncio.Queue(maxsize=capacity)
        self.events_processed = 0
        self.batches_flushed = 0
        self._batch: list[ServeEvent] = []
        self._batch_granule: int | None = None
        self._task: asyncio.Task | None = None

    # --- registration -----------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
        callback: Callable[[Detection], None] | None = None,
    ) -> None:
        """Register one rule on this shard's detector."""
        self.detector.register(
            expression, name=name, context=context, callback=callback
        )

    def subscribed_types(self) -> frozenset[str]:
        """The primitive event types this shard's rules consume."""
        return self.detector.graph.subscribed_event_types()

    def rule_names(self) -> list[str]:
        """The rules registered on this shard, sorted."""
        return sorted(self.detector.graph.roots)

    def detections_of(self, name: str) -> list:
        """Occurrences of one rule registered on this shard."""
        return self.detector.detections_of(name)

    @property
    def detections(self) -> list[tuple[int, Detection]]:
        """``(shard index, detection)`` pairs, built when read from the
        detector's log: the rules registered without a callback (the
        shard keeps no copy, so a streamed rule contributes nothing)."""
        index = self.index
        return [(index, detection) for detection in self.detector.detections]

    # --- ingest side ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Events queued but not yet consumed by the worker."""
        return self.queue.qsize()

    def under_pressure(self) -> bool:
        """Whether the queue depth has passed the high-water mark."""
        return self.queue.qsize() >= self.high_water

    async def put(self, event: ServeEvent) -> None:
        """Enqueue one event; suspends while the queue is full."""
        await self.queue.put(event)

    async def put_batch(self, events: list[ServeEvent]) -> None:
        """Enqueue a whole batch as *one* queue item.

        The batch travels through the queue intact (one slot, one
        ``task_done``), so a granule decoded from one binary frame is
        accumulated by the worker in a single wake-up instead of N.
        """
        if events:
            await self.queue.put(events)

    # --- worker side ------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker task on the running event loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._worker(), name=f"repro-serve-shard-{self.index}"
            )

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def _worker(self) -> None:
        queue = self.queue
        while True:
            item = await queue.get()
            if item is _STOP:
                self._flush()
                queue.task_done()
                return
            if type(item) is list:
                for event in item:
                    self._accumulate(event)
            else:
                self._accumulate(item)
            if queue.empty():
                self._flush()
            queue.task_done()

    def _accumulate(self, event: ServeEvent) -> None:
        granule = event.granule
        if self._batch_granule is None:
            self._batch_granule = granule
        elif granule > self._batch_granule:
            self._flush()
            self._batch_granule = granule
        # A *smaller* granule joins the current batch: the event is late
        # and must not stall behind the granule it missed.
        self._batch.append(event)

    def _flush(self) -> None:
        """Feed the open batch through the detector; records metrics."""
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        granule = self._batch_granule
        self._batch_granule = None
        started = time.perf_counter_ns()
        detector = self.detector
        stabilizer = self.stabilizer
        if stabilizer is not None:
            # Anytime path: the shadow engine's clock follows the raw
            # stream (tentative timer fires), the exact engine's clock
            # trails the watermark frontier (confirmations in
            # stabilized order).
            record_verdicts = self._record_verdicts
            if granule is not None:
                record_verdicts(stabilizer.advance_shadow(granule))
            for occurrence in batch_occurrences(batch):
                record_verdicts(stabilizer.offer(occurrence))
            record_verdicts(stabilizer.advance_exact())
        else:
            fired = 0
            if granule is not None and granule > detector.now_global:
                fired = len(detector.advance_time(granule))
            # One stamping pass for the whole batch (kernels.batch_stamps)
            # instead of N constructor calls — the ingest-side half of
            # the granule-batch amortization.  The detector has handed
            # each detection to its owner; only the count is ours.
            fired += sum(map(len, map(detector.feed, batch_occurrences(batch))))
            self._count_detections(fired)
        self.events_processed += len(batch)
        self.batches_flushed += 1
        if self.obs.enabled:
            self.obs.histogram("serve.batch_size", shard=self.index).observe(
                len(batch)
            )
            self.obs.histogram("serve.flush_ns", shard=self.index).observe(
                time.perf_counter_ns() - started
            )
            self.obs.counter("serve.events", shard=self.index).inc(len(batch))

    def _count_detections(self, fired: int) -> None:
        if fired and self.obs.enabled:
            self.obs.counter("serve.detections", shard=self.index).inc(fired)

    def _record_verdicts(self, verdicts: list[VerdictDetection]) -> None:
        sink = self.verdict_sink
        for verdict in verdicts:
            self.verdicts.append((self.index, verdict))
            if sink is not None:
                sink(self.index, verdict)
        if verdicts and self.obs.enabled:
            self.obs.counter("serve.verdicts", shard=self.index).inc(
                len(verdicts)
            )

    def advance_time(self, granule: int) -> None:
        """Advance the engine clock (fires due timers); call only idle.

        The runtime invokes this from :meth:`~repro.serve.runtime.
        ServingRuntime.drain` after the queue has joined, so the worker
        is parked in ``queue.get`` and cannot race the detector.  In
        approximate mode this is also the drain-horizon promise — every
        known site's watermark is announced at ``granule``, so pending
        tentatives below it resolve.
        """
        self._flush()
        stabilizer = self.stabilizer
        if stabilizer is not None:
            self._record_verdicts(stabilizer.advance_shadow(granule))
            self._record_verdicts(stabilizer.announce_all(granule))
            self._record_verdicts(stabilizer.advance_exact())
            return
        if granule > self.detector.now_global:
            self._count_detections(len(self.detector.advance_time(granule)))

    async def drain(self) -> None:
        """Wait until every queued event has been processed and flushed."""
        await self.queue.join()
        # The worker flushes before task_done when the queue goes idle,
        # so after join() the open batch is empty — but a stopped worker
        # leaves the batch to us.
        if not self.running:
            self._flush()

    async def stop(self) -> None:
        """Flush, then terminate the worker (graceful shutdown)."""
        if self._task is None:
            self._flush()
        else:
            await self.queue.put(_STOP)
            await self._task
            self._task = None
        if self.stabilizer is not None:
            # End of stream: release everything still held, fire exact
            # timers up to where the shadow clock reached, and resolve
            # every remaining tentative one way or the other.
            self._record_verdicts(
                self.stabilizer.flush(
                    advance_to=self.stabilizer.shadow.now_global
                )
            )

    # --- crash recovery ---------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot detector state *and* undigested events.

        The pending batch and the queued events ride along so a restore
        resumes with zero loss — the serving analogue of the simulator's
        in-flight message snapshot.
        """
        if self.approximate:
            raise ReproError(
                "approximate shards do not checkpoint: the stabilizer's "
                "held occurrences and pending tentatives are not part "
                "of the snapshot format"
            )
        pending = [event.to_dict() for event in self._batch]
        # Queue internals are stable under asyncio's single thread; the
        # snapshot must be taken while the worker is idle (post-drain or
        # pre-start), which the runtime enforces.
        for item in list(self.queue._queue):  # noqa: SLF001
            if item is _STOP:
                continue
            if type(item) is list:
                pending.extend(event.to_dict() for event in item)
            else:
                pending.append(item.to_dict())
        return {
            "index": self.index,
            "detector": snapshot(self.detector),
            "pending": pending,
            "events_processed": self.events_processed,
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load a checkpoint into this identically-registered shard."""
        if self.approximate:
            raise ReproError(
                "approximate shards do not restore checkpoints; replay "
                "the stream instead (verdict emission is deterministic)"
            )
        if int(state["index"]) != self.index:
            raise ReproError(
                f"checkpoint belongs to shard {state['index']}, "
                f"this is shard {self.index}"
            )
        restore(self.detector, dict(state["detector"]))
        for row in state["pending"]:
            self.queue.put_nowait(ServeEvent.from_dict(row))
        self.events_processed = int(state.get("events_processed", 0))
