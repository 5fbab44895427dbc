"""The simulated distributed system: sites, clocks, network, detector.

:class:`DistributedSystem` is the top-level facade of the simulator.  It
owns:

* a :class:`~repro.sim.engine.SimulationEngine` (true-time event queue),
* a :class:`~repro.time.clocks.ClockEnsemble` — one drifting local clock
  per site, synchronized within the model's precision ``Π``,
* a :class:`~repro.detection.coordinator.DistributedDetector` whose
  cross-site messages travel through a :class:`~repro.sim.network.
  Network` with a pluggable latency model, and
* the bookkeeping that turns detections into
  :class:`DetectionRecord` rows (detection latency, constituent spread)
  consumed by the benchmarks.

Substitution note (see DESIGN.md): the paper's physical testbed is
replaced by this simulator; primitive events are injected at *true*
times, stamped by their site's local clock (drift and offset included),
so every artifact the semantics cares about — granule truncation, the
``2g_g`` margin, cross-site concurrency — arises exactly as it would on
real hardware with synchronized clocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from repro.contexts.policies import Context
from repro.detection.coordinator import (
    DistributedDetector,
    Message,
    PlacementPolicy,
)
from repro.detection.detector import Detection
from repro.detection.nodes import Node
from repro.errors import SimulationError, UnknownSiteError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence, History
from repro.obs.instrument import resolve
from repro.sim.config import SimConfig
from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.workloads import WorkloadEvent
from repro.time.clocks import ClockEnsemble
from repro.time.ticks import TimeModel


@dataclass(frozen=True)
class DetectionRecord:
    """One composite-event detection with timing metadata.

    ``true_time`` — reference time at which the detector signalled;
    ``injection_span`` — (earliest, latest) true injection times of the
    primitive constituents; ``latency`` — signal delay past the latest
    constituent, the SCALE benchmark's headline metric.
    """

    name: str
    detection: Detection
    true_time: Fraction
    injection_span: tuple[Fraction, Fraction]

    @property
    def latency(self) -> Fraction:
        return self.true_time - self.injection_span[1]


class DistributedSystem:
    """A simulated multi-site active-DBMS system.

    >>> from repro.contexts.policies import Context
    >>> from repro.sim.workloads import paired_stream
    >>> import random
    >>> system = DistributedSystem(["a", "b"], config=SimConfig(seed=7))
    >>> system.set_home("cause", "a"); system.set_home("effect", "b")
    >>> _ = system.register("cause ; effect", name="seq",
    ...                     context=Context.CHRONICLE)
    >>> _ = system.inject(paired_stream(random.Random(0), "a", "b", 1, pairs=3))
    >>> _ = system.run()
    >>> len(system.detections_of("seq"))
    3
    """

    def __init__(
        self,
        sites: list[str],
        *,
        config: SimConfig | None = None,
    ) -> None:
        if config is None:
            config = SimConfig()
        self.config = config
        self.model = (
            config.model if config.model is not None else TimeModel.example_5_1()
        )
        self.engine = SimulationEngine()
        self.obs = resolve(config.instrumentation)
        if self.obs.enabled:
            self.obs.bind_clock(lambda: self.engine.now)
        rng = random.Random(config.seed)
        self.network = Network(
            self.engine,
            config.latency,
            loss_probability=config.loss_probability,
            rng=random.Random(config.seed + 0x5EED),
            instrumentation=config.instrumentation,
        )
        self.retransmit = config.retransmit
        self.max_retries = config.max_retries
        self.retry_timeout = (
            config.retry_timeout
            if config.retry_timeout is not None
            else Fraction(1, 10)
        )
        self.retransmissions = 0
        self.lost_messages = 0
        if config.perfect_clocks:
            self.clocks = ClockEnsemble.perfect(self.model, sites)
        else:
            self.clocks = ClockEnsemble.random(self.model, sites, rng)
        self.detector = DistributedDetector(
            sites,
            coordinator=config.coordinator,
            timer_ratio=self.model.ratio,
            instrumentation=config.instrumentation,
        )
        gg = self.model.global_.seconds
        self._gg_num = gg.numerator
        self._gg_den = gg.denominator
        self._last_granule = -1
        self._clock_by_site = self.clocks.clocks
        self.records: list[DetectionRecord] = []
        self.history = History()
        self._injection_times: dict[int, Fraction] = {}
        self._injection_spans: dict[int, int] = {}
        self._subscribers: dict[str, list[Callable[[DetectionRecord], None]]] = {}
        self._injected = 0
        # Messages handed to the fabric but not yet delivered (including
        # those waiting out a retransmission timeout), keyed by message
        # seq.  Without this, a checkpoint taken mid-retransmission would
        # silently drop the message — it lives only in an engine closure.
        self._inflight: dict[int, Message] = {}

    # --- configuration -----------------------------------------------------

    @property
    def sites(self) -> list[str]:
        """The site names of the system."""
        return self.detector.sites

    def set_home(self, event_type: str, site: str) -> None:
        """Declare the home site of a primitive event type."""
        self.detector.set_home(event_type, site)

    def register(
        self,
        expression: EventExpression | str,
        name: str | None = None,
        context: Context = Context.UNRESTRICTED,
        placement: PlacementPolicy = PlacementPolicy.LEAF_MAJORITY,
        callback: Callable[[Detection], None] | None = None,
    ) -> Node:
        """Register a composite event; detections are recorded with timing.

        ``expression`` is either Snoop text (``"buy ; sell"``) or a
        pre-built :class:`~repro.events.expressions.EventExpression`.
        To react to detections, prefer :meth:`subscribe`, which delivers
        the timed :class:`DetectionRecord` rather than the raw
        :class:`~repro.detection.detector.Detection`.
        """
        root = self.detector.register(
            expression,
            name=name,
            context=context,
            placement=placement,
            callback=self._record,
        )
        if callback is not None:
            self.detector.subscribe(root.name, callback)
        return root

    def subscribe(
        self, name: str, callback: Callable[[DetectionRecord], None]
    ) -> Callable[[DetectionRecord], None]:
        """Call ``callback`` with each new :class:`DetectionRecord` of ``name``.

        The observer API: applications react to detections as they are
        signalled instead of polling :meth:`detections_of` after the
        run.  Subscribing before :meth:`register` is allowed.  Returns
        ``callback`` so inline lambdas can be kept for
        :meth:`unsubscribe`.
        """
        self._subscribers.setdefault(name, []).append(callback)
        return callback

    def unsubscribe(
        self, name: str, callback: Callable[[DetectionRecord], None]
    ) -> None:
        """Remove a callback added with :meth:`subscribe`."""
        try:
            self._subscribers.get(name, []).remove(callback)
        except ValueError:
            raise SimulationError(
                f"callback is not subscribed to {name!r}"
            ) from None

    # --- event injection ------------------------------------------------------

    def inject(
        self,
        events: Iterable[WorkloadEvent] | str,
        event: str | None = None,
        *,
        at: int | float | Fraction | None = None,
        parameters: Mapping[str, Any] | None = None,
    ) -> int:
        """Schedule primitive events for injection; returns the count.

        The documented ingestion entrypoint, in two forms::

            system.inject("ny", "buy", at=1, parameters={"qty": 10})
            system.inject(paired_stream(rng, "ny", "ldn", 1, pairs=3))

        The single-event form takes a site name, an event type, and a
        keyword-only true time ``at`` (seconds); the bulk form takes any
        iterable of :class:`~repro.sim.workloads.WorkloadEvent` (workload
        generators, :class:`~repro.sim.trace.Trace` objects, plain lists).
        """
        if isinstance(events, str):
            if event is None or at is None:
                raise TypeError(
                    "inject(site, event, at=...) requires an event type and "
                    "a true time"
                )
            if events not in self.sites:
                raise UnknownSiteError(f"{events!r} is not a site of this system")
            events = [
                WorkloadEvent(
                    time=Fraction(at),
                    site=events,
                    event_type=event,
                    parameters=dict(parameters or {}),
                )
            ]
        elif event is not None or at is not None or parameters is not None:
            raise TypeError(
                "inject(events) bulk form takes no event/at/parameters"
            )
        else:
            events = list(events)
            known = set(self.sites)
            for workload_event in events:
                if workload_event.site not in known:
                    raise UnknownSiteError(
                        f"{workload_event.site!r} is not a site of this "
                        f"system (sites: {sorted(known)})"
                    )
        return self.engine.schedule_many(
            (workload_event.time, partial(self._raise, workload_event))
            for workload_event in events
        )

    def _raise(self, event: WorkloadEvent) -> None:
        self._advance_detector_clock()
        now = self.engine.now
        clock = self._clock_by_site.get(event.site)
        if clock is None:
            raise UnknownSiteError(f"{event.site!r} is not a site of this system")
        stamp = clock.stamp(now)
        occurrence = EventOccurrence.primitive(
            event.event_type, stamp, event.parameters
        )
        self._injection_times[occurrence.uid] = now
        self.history.add(occurrence)
        self._injected += 1
        if self.obs.enabled:
            with self.obs.span(
                "inject",
                site=event.site,
                event=event.event_type,
                uid=occurrence.uid,
            ) as span:
                self._injection_spans[occurrence.uid] = span.id
                self.detector.feed(occurrence)
                self._drain_outbox()
        else:
            self.detector.feed(occurrence)
            if self.detector.outbox:
                self._drain_outbox()

    # --- detector plumbing ------------------------------------------------------

    def _advance_detector_clock(self) -> None:
        # now / g_g in integer arithmetic; engine time is non-negative so
        # floor division matches truncation.  Re-advancing to an unchanged
        # granule is a no-op unless timers are pending (a timer may be due
        # at the current granule).
        now = self.engine.now
        granule = (now.numerator * self._gg_den) // (now.denominator * self._gg_num)
        detector = self.detector
        if granule != self._last_granule or detector.pending_timers():
            self._last_granule = granule
            detector.advance_time(granule)
        if detector.outbox:
            self._drain_outbox()

    def _drain_outbox(self) -> None:
        while self.detector.outbox:
            message = self.detector.outbox.popleft()
            self._send_with_recovery(message, attempt=0)

    def _send_with_recovery(self, message: Message, attempt: int) -> None:
        self._inflight[message.seq] = message
        outcome = self.network.send(
            message.src, message.dst, message.size, partial(self._deliver, message)
        )
        if outcome is not None:
            return
        if not self.retransmit or attempt >= self.max_retries:
            self.lost_messages += 1
            self._inflight.pop(message.seq, None)
            return
        # Simulated ack timeout: re-send after the retry timeout, with
        # linear backoff; deterministic given the seeds.
        self.retransmissions += 1
        delay = self.retry_timeout * (attempt + 1)
        self.engine.schedule_in(
            delay, lambda: self._send_with_recovery(message, attempt + 1)
        )

    def _deliver(self, message: Message) -> None:
        self._inflight.pop(message.seq, None)
        self._advance_detector_clock()
        self.detector.deliver(message)
        if self.detector.outbox:
            self._drain_outbox()

    def _record(self, detection: Detection) -> None:
        leaves = detection.occurrence.primitive_leaves()
        injection_times = self._injection_times
        earliest = latest = None
        for leaf in leaves:
            t = injection_times.get(leaf.uid)
            if t is None:
                continue
            if earliest is None:
                earliest = latest = t
            elif t < earliest:
                earliest = t
            elif t > latest:
                latest = t
        if earliest is None:
            earliest = latest = self.engine.now
        record = DetectionRecord(
            name=detection.name,
            detection=detection,
            true_time=self.engine.now,
            injection_span=(earliest, latest),
        )
        self.records.append(record)
        if self.obs.enabled:
            uids = [leaf.uid for leaf in leaves]
            self.obs.event(
                "detect",
                event=detection.name,
                latency=record.latency,
                uids=uids,
                links=[
                    self._injection_spans[uid]
                    for uid in uids
                    if uid in self._injection_spans
                ],
            )
        for callback in self._subscribers.get(detection.name, []):
            callback(record)

    # --- checkpointing ------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the detector *and* the messages still on the wire.

        Extends :func:`repro.detection.checkpoint.snapshot`
        with the in-flight messages this system is tracking — including
        a message waiting out a retransmission timeout, which lives only
        in an engine closure and would otherwise be lost.  The snapshot
        is meant for transfer into a *fresh* identically-registered
        system via :meth:`restore_checkpoint`; in-flight messages are
        folded into the snapshot's outbox and re-sent on restore.
        """
        from repro.detection.checkpoint import message_to_dict, snapshot

        state = snapshot(self.detector)
        for message in sorted(self._inflight.values(), key=lambda m: m.seq):
            state["outbox"].append(message_to_dict(self.detector, message))
        now = self.engine.now
        state["true_time"] = [now.numerator, now.denominator]
        return state

    def restore_checkpoint(self, state: Mapping[str, Any]) -> None:
        """Load a :meth:`checkpoint` into this (freshly built) system.

        The same expressions must already be registered (same names,
        contexts, and event homes).  Restored outbox messages — the
        in-flight traffic at snapshot time — are re-sent through this
        system's network; call :meth:`run` afterwards to deliver them.
        """
        from repro.detection.checkpoint import restore

        restore(self.detector, dict(state))
        true_time = state.get("true_time")
        if true_time is not None:
            t = Fraction(int(true_time[0]), int(true_time[1]))
            if t > self.engine.now:
                # Resume the true-time clock where the snapshot left it so
                # retransmission timeouts and granule advances line up.
                self.engine.now = t
                self.engine._now_f = t.numerator / t.denominator
        if self.detector.outbox:
            self._drain_outbox()

    # --- running -----------------------------------------------------------------

    def run(
        self,
        until: int | float | Fraction | None = None,
        pump_granules: bool = False,
    ) -> int:
        """Run the simulation; returns the number of processed actions.

        ``pump_granules`` schedules a clock advance at every global
        granule up to ``until`` so that temporal operators (``P``,
        ``Plus``) fire even during event-free stretches; it requires an
        explicit ``until``.
        """
        if pump_granules:
            if until is None:
                raise SimulationError("pump_granules requires an explicit until")
            granule_seconds = self.model.global_.seconds
            t = granule_seconds
            while t <= Fraction(until):
                self.engine.schedule_at(t, self._advance_detector_clock)
                t += granule_seconds
        return self.engine.run(until)

    # --- results --------------------------------------------------------------------

    def detections_of(self, name: str) -> list[DetectionRecord]:
        """Detection records of one registered composite event."""
        return [r for r in self.records if r.name == name]

    def injected_count(self) -> int:
        """Primitive events injected so far."""
        return self._injected

    def message_stats(self) -> dict[str, Any]:
        """Cross-site traffic summary for the benchmarks."""
        return {
            "messages": self.network.stats.messages,
            "volume": self.network.stats.volume,
            "mean_delay": self.network.stats.mean_delay(),
            "dropped": self.network.stats.dropped,
            "retransmissions": self.retransmissions,
            "lost": self.lost_messages,
        }
