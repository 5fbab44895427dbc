"""The serving runtime: router + shards behind one async facade.

:class:`ServingRuntime` is the object the CLI, the bench harness, and
the conformance runner all drive.  Lifecycle::

    runtime = ServingRuntime(config=ServeConfig(shards=4, timer_ratio=10))
    runtime.register("buy ; sell", name="round_trip")
    async with runtime:                      # starts the shard workers
        pressured = await runtime.ingest(event)
        ...
    detections = runtime.detections_of("round_trip")

Registration hash-partitions each rule onto exactly one shard (see
:mod:`repro.serve.router`), then rebinds the router's subscription map
from the shards' compiled event graphs.  ``ingest`` fans one stamped
event out to every subscribing shard; the return value is the
backpressure signal — ``True`` once any target shard's queue has passed
its high-water mark, telling a well-behaved producer to slow down
(ingest itself never drops; a full queue suspends the producer).

Because every rule lives on one shard and a shard receives *all* events
its rules subscribe to in submission order, the multiset of detections
is invariant in the shard count — the property the conformance runner's
``sharding`` check sweeps shard counts and salts to verify.

:func:`serve_events` is the synchronous convenience wrapper: one call
runs a whole stream through a fresh runtime and returns it drained.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.contexts.policies import Context
from repro.detection.approximate import VerdictDetection
from repro.detection.detector import Detection
from repro.errors import ReproError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence
from repro.obs.instrument import Instrumentation, resolve
from repro.serve.config import ServeConfig
from repro.serve.protocol import ServeEvent, granule_runs
from repro.serve.router import EventRouter
from repro.serve.shard import DetectionShard


class ServingRuntime:
    """N detection shards behind an :class:`EventRouter`.

    Configure through ``config=ServeConfig(...)`` (default: one
    shard).  The fields that matter here are ``shards``, ``salt``,
    ``timer_ratio``, ``capacity`` and ``high_water`` (per shard); the
    transport fields (``max_line_bytes``, ``codec``) are read by the
    servers in :mod:`repro.serve.server`.
    """

    def __init__(
        self,
        *,
        config: ServeConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if config is None:
            config = ServeConfig()
        self.config = config
        self.router = EventRouter(config.shards, salt=config.salt)
        self.obs = resolve(instrumentation)
        self.shards: list[DetectionShard] = [
            DetectionShard(
                index,
                capacity=config.capacity,
                high_water=config.high_water,
                timer_ratio=config.timer_ratio,
                approximate=config.approximate,
                instrumentation=instrumentation,
            )
            for index in range(config.shards)
        ]
        self.events_ingested = 0
        self.events_unrouted = 0

    # --- registration -----------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
        callback: Callable[[Detection], None] | None = None,
    ) -> int:
        """Register a rule on its hash-assigned shard; returns the index.

        ``callback`` fires synchronously inside the owning shard's
        worker on each detection — the streaming hook the JSONL servers
        emit through — and the owner of the rule's detections, which
        are then delivered, not kept (see :meth:`detections`).
        """
        index = self.router.assign(name)
        self.shards[index].register(
            expression, name=name, context=context, callback=callback
        )
        self._bind()
        return index

    def _bind(self) -> None:
        self.router.bind(
            {shard.index: shard.subscribed_types() for shard in self.shards}
        )

    # --- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start all shard workers (requires a running event loop)."""
        for shard in self.shards:
            shard.start()

    async def __aenter__(self) -> "ServingRuntime":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def ingest(self, event: ServeEvent) -> bool:
        """Route one event to its subscribing shards: a batch of one."""
        return await self.ingest_batch((event,))

    async def ingest_batch(self, events: Sequence[ServeEvent]) -> bool:
        """Route a whole batch (typically one decoded granule frame).

        Returns the backpressure signal: ``True`` if any target shard is
        past its high-water mark after the enqueue.  Events no rule
        subscribes to are counted and dropped — the router knows they
        cannot contribute to any detection.

        Routing decisions are memoized per event type across the batch
        and each shard receives its slice as *one* queue item, so a
        granule of N events costs a handful of queue operations instead
        of N router lookups and N enqueues.  Ordering is preserved:
        events land in each shard's slice in submission order, and
        whole-granule batches cannot cross a granule boundary out of
        order (Definition 4.4 makes intra-granule order immaterial for
        cross-site comparisons).
        """
        route = self.router.route
        routes: dict[str, tuple[int, ...]] = {}
        per_shard: dict[int, list[ServeEvent]] = {}
        ingested = 0
        unrouted = 0
        for event in events:
            event_type = event.event_type
            targets = routes.get(event_type)
            if targets is None:
                targets = tuple(route(event_type))
                routes[event_type] = targets
            if not targets:
                unrouted += 1
                continue
            ingested += 1
            for index in targets:
                slice_ = per_shard.get(index)
                if slice_ is None:
                    per_shard[index] = [event]
                else:
                    slice_.append(event)
        self.events_ingested += ingested
        self.events_unrouted += unrouted
        pressured = False
        for index, slice_ in per_shard.items():
            shard = self.shards[index]
            await shard.put_batch(slice_)
            pressured = shard.under_pressure() or pressured
        if self.obs.enabled and ingested:
            self.obs.counter("serve.ingested").inc(ingested)
            if pressured:
                self.obs.counter("serve.pressure").inc()
        return pressured

    async def drain(self, horizon: int | None = None) -> None:
        """Wait for all queues to empty and all open batches to flush.

        With ``horizon`` the engine clocks then advance to that granule,
        firing any temporal-operator timers due before it — the serving
        analogue of the simulator pumping time past the last event.
        """
        await asyncio.gather(*(shard.drain() for shard in self.shards))
        if horizon is not None:
            for shard in self.shards:
                shard.advance_time(horizon)

    async def stop(self, horizon: int | None = None) -> None:
        """Graceful shutdown: drain, optionally advance, stop workers."""
        await self.drain(horizon)
        await asyncio.gather(*(shard.stop() for shard in self.shards))

    # --- results ----------------------------------------------------------

    def detections(self) -> list[tuple[int, Detection]]:
        """All ``(shard index, detection)`` pairs in per-shard order.

        Built when called, from the shard detectors' logs: the rules
        registered *without* a callback (all of them after
        :func:`serve_events`) — empty on a streaming runtime, whose
        rows left through their callbacks.
        """
        merged: list[tuple[int, Detection]] = []
        for shard in self.shards:
            merged.extend(shard.detections)
        return merged

    def detections_of(self, name: str) -> list[EventOccurrence]:
        """Occurrences of one rule (it lives on exactly one shard);
        raises :class:`~repro.errors.DetectionError` when a callback
        owns them."""
        index = self.router.assignments.get(name)
        if index is None:
            raise ReproError(f"no rule named {name!r} is registered")
        return self.shards[index].detections_of(name)

    def depths(self) -> list[int]:
        """Current queue depth per shard (an obs gauge, not a guarantee)."""
        return [shard.depth for shard in self.shards]

    # --- approximate-mode results -----------------------------------------

    def verdicts(self) -> list[tuple[int, VerdictDetection]]:
        """All ``(shard index, verdict)`` pairs in per-shard order.

        Empty unless the runtime was configured with
        ``ServeConfig(approximate=True)`` — exact shards emit plain
        detections, not verdicts.
        """
        merged: list[tuple[int, VerdictDetection]] = []
        for shard in self.shards:
            merged.extend(shard.verdicts)
        return merged

    def verdicts_of(self, name: str) -> list[VerdictDetection]:
        """One rule's verdict stream, in emission order."""
        index = self.router.assignments.get(name)
        if index is None:
            raise ReproError(f"no rule named {name!r} is registered")
        return [
            verdict
            for _, verdict in self.shards[index].verdicts
            if verdict.name == name
        ]

    def unresolved(self) -> int:
        """Tentatives not yet confirmed or retracted, across all shards.

        Zero after a clean ``stop()`` — the shutdown flush resolves
        every straggler.
        """
        return sum(shard.engine.unresolved() for shard in self.shards)

    # --- crash recovery ---------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot every shard; take only while workers are idle."""
        return {
            "shards": len(self.shards),
            "salt": self.router.salt,
            "rules": dict(self.router.assignments),
            "states": [shard.checkpoint() for shard in self.shards],
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load a runtime checkpoint; rules must already be registered.

        The shard count and salt must match the checkpoint — rule
        placement is derived from them, so a mismatch would restore
        state into detectors that do not own those rules — and every
        rule recorded in the checkpoint must already be registered
        (registrations are code, not state).  *All* mismatches are
        collected and reported in one error, so an operator fixes a bad
        restore in one round trip instead of one failure at a time.
        """
        problems: list[str] = []
        if int(state["shards"]) != len(self.shards):
            problems.append(
                f"checkpoint has {state['shards']} shard(s), "
                f"runtime has {len(self.shards)}"
            )
        if int(state["salt"]) != self.router.salt:
            problems.append(
                f"checkpoint salt {state['salt']} != runtime salt "
                f"{self.router.salt}"
            )
        missing = sorted(
            set(state.get("rules", ())) - set(self.router.assignments)
        )
        if missing:
            problems.append(
                "checkpoint rule(s) not registered on this runtime: "
                + ", ".join(repr(name) for name in missing)
            )
        if problems:
            raise ReproError(
                f"cannot restore checkpoint ({len(problems)} mismatch(es)): "
                + "; ".join(problems)
            )
        for shard, shard_state in zip(self.shards, state["states"]):
            shard.restore(shard_state)


def serve_events(
    rules: Mapping[str, EventExpression | str] | Sequence[tuple[str, Any]],
    events: Iterable[ServeEvent],
    *,
    shards: int | None = None,
    salt: int | None = None,
    timer_ratio: int | None = None,
    capacity: int | None = None,
    config: ServeConfig | None = None,
    context: Context = Context.UNRESTRICTED,
    horizon: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> ServingRuntime:
    """Run a finite event stream through a fresh runtime, synchronously.

    Registers ``rules`` (a name -> expression mapping or pair sequence),
    ingests ``events`` in order, drains to ``horizon``, stops, and
    returns the runtime for inspection.  This is the entry point the
    conformance runner and the unit tests compare across shard counts.

    ``shards``/``salt``/``timer_ratio``/``capacity`` are *convenience*
    keywords (this wrapper exists to be terse) folded into a
    :class:`ServeConfig` here; pass ``config=ServeConfig(...)`` for
    anything beyond them, but not both (``TypeError``).  An invalid
    keyword value raises :class:`~repro.errors.ReproError`.  Ingest is
    granule-batched: one :meth:`ServingRuntime.ingest_batch` per run of
    consecutive events sharing a global granule.
    """
    given = {
        name: value
        for name, value in dict(
            shards=shards, salt=salt, timer_ratio=timer_ratio, capacity=capacity
        ).items()
        if value is not None
    }
    if config is None:
        try:
            config = ServeConfig(**given)
        except ValueError as error:
            raise ReproError(str(error)) from None
    elif given:
        raise TypeError(
            "serve_events: pass configuration either through "
            "config=ServeConfig(...) or through the convenience keywords, "
            "not both: " + ", ".join(sorted(given))
        )
    runtime = ServingRuntime(config=config, instrumentation=instrumentation)
    pairs = rules.items() if isinstance(rules, Mapping) else rules
    for name, expression in pairs:
        runtime.register(expression, name=name, context=context)

    async def _run() -> None:
        async with runtime:
            for run in granule_runs(events):
                await runtime.ingest_batch(run)
            await runtime.drain(horizon)

    asyncio.run(_run())
    return runtime
