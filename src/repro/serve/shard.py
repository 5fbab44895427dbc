"""One detection shard: the step, and a queue that batches for it.

:class:`ShardEngine` is the shard step, stated once — a single-site
:class:`~repro.detection.detector.Detector`, its
:class:`~repro.detection.approximate.ApproximateStabilizer` in
approximate mode, and the order input is applied in: **advance the
clock, then feed, then close**.  It is the only code under
``repro.serve`` that calls ``Detector.feed`` / ``advance_time`` or a
stabilizer method; its drivers add no detection logic.
:class:`DetectionShard` (under ``ServingRuntime``, ``serve_stdin``,
``serve_tcp``) is a bounded :class:`asyncio.Queue`, a worker and the
batching policy below; :class:`~repro.serve.core.ShardReplica` (under
the clusters, the workers, tenancy and replay) is one WAL entry per
step plus ``(seq, k)`` tagging.

The worker coroutine accumulates queued
:class:`~repro.serve.protocol.ServeEvent`\\ s into **granule-aligned
batches** — all consecutive events whose global time falls in the same
``g_g`` granule — and applies each batch to the engine in one step.

Why batching is safe: Definition 4.4 only orders events whose global
times differ by *more than one* granule, so two events inside one
granule are concurrent for every cross-site comparison, and same-site
events keep their local-tick order because the batch preserves arrival
order.  Batching therefore cannot reorder any *detectable* occurrence;
it only amortizes the per-event engine entry cost.

A batch is flushed when (a) an event from a later granule arrives, or
(b) the queue goes idle — so a quiet stream still sees its detections
promptly — or (c) the shard drains on shutdown.  Before the batch is
fed, the engine clock advances to the batch granule, firing any due
temporal-operator timers exactly as the simulator's granule pump does.
Events that arrive *late* (an older granule than the engine clock) are
fed immediately rather than dropped: the detector clamps late timers
instead of raising, matching the coordinator's behaviour under message
delay.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Mapping, Sequence

from repro.contexts.policies import Context
from repro.detection.approximate import ApproximateStabilizer, VerdictDetection
from repro.detection.checkpoint import restore, snapshot
from repro.detection.detector import Detection, Detector
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.obs.instrument import Instrumentation, resolve
from repro.serve.protocol import ServeEvent

_STOP = object()


class ShardEngine:
    """One shard's detector, its stabilizer when approximate, and the step.

    Synchronous and queue-free.  A step returns the verdicts it emitted
    — none on the exact path, where the detector has already handed
    each detection to its owner (the rule's callback, or its log) — and,
    under enabled instrumentation only, observes ``serve.events`` /
    ``serve.batch_size`` / ``serve.flush_ns`` (a step carrying events),
    ``serve.detections`` and ``serve.verdicts``, labelled by shard.

    The detector site is logical, not physical: every engine uses the
    same name so timer stamps (``shard.timer``) stay comparable when an
    elastic re-balance re-homes a rule.  Which shard detected an
    occurrence is carried by the row's index, never by the timestamp.
    """

    def __init__(
        self,
        index: int,
        timer_ratio: int = 1,
        approximate: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.index = index
        self.obs = resolve(instrumentation)
        self.detector = Detector(
            site="shard", timer_ratio=timer_ratio, instrumentation=instrumentation
        )
        self.stabilizer: ApproximateStabilizer | None = None
        #: Every verdict emitted, in emission order (the stabilizer's log).
        self.verdicts: list[VerdictDetection] = []
        if approximate:
            # Open-world: sites join the watermark set on first contact.
            self.stabilizer = ApproximateStabilizer(
                self.detector, sites=[], auto_sites=True,
                instrumentation=instrumentation,
            )
            self.verdicts = self.stabilizer.verdicts

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
        callback: Callable[[Detection], None] | None = None,
    ) -> None:
        """Register one rule; ``callback`` owns its detections."""
        self.detector.register(
            expression, name=name, context=context, callback=callback
        )

    def apply(
        self, granule: int, events: Sequence[ServeEvent]
    ) -> Sequence[VerdictDetection]:
        """Apply one granule's events, in order, as one step."""
        return self._step(granule, events, False)

    def advance(self, granule: int) -> Sequence[VerdictDetection]:
        """Advance the clock to ``granule`` (an earlier one: nothing).

        In approximate mode this is also the drain-horizon promise:
        every known site's watermark is announced at ``granule``, so
        pending tentatives below it resolve.
        """
        return self._step(granule, (), True)

    def _step(
        self, granule: int, events: Sequence[ServeEvent], horizon: bool
    ) -> Sequence[VerdictDetection]:
        obs = self.obs
        started = time.perf_counter_ns() if obs.enabled else 0
        stabilizer = self.stabilizer
        fired = 0
        if stabilizer is None:
            verdicts = ()
            detector = self.detector
            if granule > detector.now_global:
                fired = len(detector.advance_time(granule))
            for event in events:
                fired += len(detector.feed(event.occurrence()))
        else:
            # The shadow clock follows the raw stream (tentative timer
            # fires); the exact clock trails the watermark frontier
            # (confirmations in stabilized order).
            verdicts = list(stabilizer.advance_shadow(granule))
            for event in events:
                verdicts.extend(stabilizer.offer(event.occurrence()))
            if horizon:
                verdicts.extend(stabilizer.announce_all(granule))
            verdicts.extend(stabilizer.advance_exact())
        if obs.enabled:
            shard = self.index
            if events:
                obs.histogram("serve.batch_size", shard=shard).observe(len(events))
                obs.histogram("serve.flush_ns", shard=shard).observe(
                    time.perf_counter_ns() - started
                )
                obs.counter("serve.events", shard=shard).inc(len(events))
            if fired:
                obs.counter("serve.detections", shard=shard).inc(fired)
            self._count_verdicts(verdicts)
        return verdicts

    def _count_verdicts(self, verdicts: Sequence[VerdictDetection]) -> None:
        if verdicts and self.obs.enabled:
            self.obs.counter("serve.verdicts", shard=self.index).inc(len(verdicts))

    def finish(self) -> Sequence[VerdictDetection]:
        """End of stream: release everything still held, fire exact
        timers up to where the shadow clock reached, resolve every
        remaining tentative.  An exact engine holds nothing back."""
        stabilizer = self.stabilizer
        if stabilizer is None:
            return ()
        verdicts = stabilizer.flush(advance_to=stabilizer.shadow.now_global)
        self._count_verdicts(verdicts)
        return verdicts

    def unresolved(self) -> int:
        """Tentatives not yet confirmed or retracted (exact: none)."""
        return 0 if self.stabilizer is None else self.stabilizer.unresolved()

    def _exact_detector(self) -> Detector:
        if self.stabilizer is not None:
            raise ReproError(
                "approximate shards neither checkpoint nor restore: the "
                "stabilizer's held occurrences and pending tentatives are "
                "not part of the snapshot format; replay the stream "
                "instead (verdict emission is deterministic)"
            )
        return self.detector

    def snapshot(self) -> dict[str, Any]:
        """``{"index", "detector"}``: what both checkpoint layouts share."""
        return {"index": self.index, "detector": snapshot(self._exact_detector())}

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load the :meth:`snapshot` part of a checkpoint of either
        layout into this identically registered engine."""
        detector = self._exact_detector()
        if int(state.get("index", self.index)) != self.index:
            raise ReproError(
                f"checkpoint belongs to shard {state['index']}, "
                f"this is shard {self.index}"
            )
        restore(detector, dict(state["detector"]))


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
        :class:`~repro.detection.approximate.ApproximateStabilizer`,
        so the shard emits TENTATIVE verdicts immediately and CONFIRMED
        / RETRACTED verdicts as the watermark frontier closes.  The
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
        self.engine = ShardEngine(index, timer_ratio, approximate, instrumentation)
        self.detector = self.engine.detector
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
        """Register one rule on this shard's engine."""
        self.engine.register(
            expression, name=name, context=context, callback=callback
        )

    def subscribed_types(self) -> frozenset[str]:
        """The primitive event types this shard's rules consume."""
        return self.detector.graph.subscribed_event_types()

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

    @property
    def verdicts(self) -> list[tuple[int, VerdictDetection]]:
        """``(shard index, verdict)`` pairs in emission order, built
        when read from the engine's verdict log (the shard keeps no
        copy; empty on an exact shard)."""
        index = self.index
        return [(index, verdict) for verdict in self.engine.verdicts]

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
        await self._enqueue([event])

    async def put_batch(self, events: list[ServeEvent]) -> None:
        """Enqueue a whole batch as *one* queue item.

        Every queue item is a batch; this one travels intact (one slot,
        one ``task_done``), so a granule decoded from one binary frame is
        accumulated by the worker in a single wake-up instead of N.
        """
        if events:
            await self._enqueue(events)

    async def _enqueue(self, item: list[ServeEvent]) -> None:
        queue = self.queue
        if not queue.full():
            queue.put_nowait(item)
            return
        task = self._task
        if task is None:
            await queue.put(item)
            return
        # Only the worker frees a slot, and a dead one (a rule callback
        # raised) never will: race the put against the worker, as
        # ``drain`` does, and raise its exception instead of hanging.
        put = asyncio.ensure_future(queue.put(item))
        try:
            await asyncio.wait({put, task}, return_when=asyncio.FIRST_COMPLETED)
        except BaseException:
            put.cancel()
            raise
        if put.done():
            return
        put.cancel()
        task.result()
        raise ReproError(f"shard {self.index} stopped with a full queue")

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
            for event in item:
                self._accumulate(event)
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
        """Apply the open batch to the engine as one step."""
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        granule, self._batch_granule = self._batch_granule, None
        self._deliver(self.engine.apply(granule, batch))
        self.events_processed += len(batch)
        self.batches_flushed += 1

    def _deliver(self, verdicts: Sequence[VerdictDetection]) -> None:
        sink = self.verdict_sink
        if sink is not None:
            for verdict in verdicts:
                sink(self.index, verdict)

    def advance_time(self, granule: int) -> None:
        """Advance the engine clock (fires due timers); call only idle.

        The runtime invokes this from :meth:`~repro.serve.runtime.
        ServingRuntime.drain` after the queue has joined, so the worker
        is parked in ``queue.get`` and cannot race the detector.
        """
        self._flush()
        self._deliver(self.engine.advance(granule))

    async def drain(self) -> None:
        """Wait until every queued event has been processed and flushed.

        A worker that died (a rule callback raised) can never finish its
        queue item, so the wait also ends when the worker does — by
        raising the worker's exception instead of hanging.
        """
        joined = asyncio.ensure_future(self.queue.join())
        if self._task is not None:
            await asyncio.wait(
                {joined, self._task}, return_when=asyncio.FIRST_COMPLETED
            )
            if not joined.done():
                joined.cancel()
                self._task.result()
        await joined
        # The worker flushes before task_done when the queue goes idle,
        # so after join() the open batch is empty — but a stopped worker
        # leaves the batch to us.
        if not self.running:
            self._flush()

    async def stop(self) -> None:
        """Flush, terminate the worker, finish the engine (graceful
        shutdown); raises the worker's exception if it had died."""
        task, self._task = self._task, None
        if task is not None:
            if not task.done():
                await self.queue.put(_STOP)
            await task
        self._flush()  # what a worker that never ran left open
        self._deliver(self.engine.finish())

    # --- crash recovery ---------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot detector state *and* undigested events.

        The pending batch and the queued events ride along so a restore
        resumes with zero loss — the serving analogue of the simulator's
        in-flight message snapshot.
        """
        pending = [event.to_dict() for event in self._batch]
        # Queue internals are stable under asyncio's single thread; the
        # snapshot must be taken while the worker is idle (post-drain or
        # pre-start), which the runtime enforces.
        for item in list(self.queue._queue):  # noqa: SLF001
            if item is not _STOP:
                pending.extend(event.to_dict() for event in item)
        return {
            **self.engine.snapshot(),
            "pending": pending,
            "events_processed": self.events_processed,
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load a checkpoint into this identically-registered shard."""
        self.engine.restore(state)
        # One batch item whatever the count: a checkpoint flattens queued
        # batches into events, and one slot each could overflow the queue.
        pending = [ServeEvent.from_dict(row) for row in state["pending"]]
        if pending:
            self.queue.put_nowait(pending)
        self.events_processed = int(state.get("events_processed", 0))
