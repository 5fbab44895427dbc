"""A stabilized central monitor: heartbeat-driven in-order evaluation.

The architecture Schwiderski's dissertation evaluates — and the one that
makes the *non-monotonic* operators correct over a real network:

* every site streams its primitive events to a central monitor over
  **FIFO channels** (per-link order preserved; cross-site interleaving
  arbitrary, latencies heterogeneous);
* every site also emits a **heartbeat** each ``heartbeat_granules``
  global granules, carrying its current global time;
* the monitor runs a :class:`~repro.detection.stabilizer.Stabilizer` in
  front of a local :class:`~repro.detection.detector.Detector`: events
  are held until every site's watermark passes them, then evaluated in a
  linearization of happen-before.

The result is oracle-exact detection of ``not``/``A``/``A*`` under
arbitrary cross-site delays, with a detection latency floor of roughly
``heartbeat interval + max link latency`` — the MON benchmark sweeps the
heartbeat period to expose that trade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.contexts.policies import Context
from repro.detection.approximate import (
    ApproximateStabilizer,
    Verdict,
    VerdictDetection,
)
from repro.detection.detector import Detection, Detector
from repro.detection.stabilizer import Stabilizer
from repro.errors import SimulationError, UnknownSiteError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence, History
from repro.obs.instrument import Instrumentation, resolve
from repro.sim.engine import SimulationEngine
from repro.sim.network import LatencyModel, Network
from repro.sim.workloads import WorkloadEvent
from repro.time.clocks import ClockEnsemble
from repro.time.ticks import TimeModel


@dataclass(frozen=True)
class MonitorDetection:
    """A detection with the true time the monitor signalled it.

    ``verdict`` is ``None`` in exact mode; in approximate mode every
    record carries the anytime verdict it was emitted with (a TENTATIVE
    record is *not* removed when later confirmed or retracted — the
    resolution is a separate record referencing it via ``ref``).
    """

    detection: Detection
    true_time: Fraction
    latest_injection: Fraction
    verdict: Verdict | None = None
    seq: int | None = None
    ref: int | None = None

    @property
    def latency(self) -> Fraction:
        return self.true_time - self.latest_injection


class StabilizedMonitor:
    """Central-monitor deployment with heartbeat stabilization.

    >>> monitor = StabilizedMonitor(["s1", "s2"], seed=3)
    >>> _ = monitor.register("a ; b", name="seq")
    """

    def __init__(
        self,
        sites: list[str],
        model: TimeModel | None = None,
        seed: int = 0,
        latency: LatencyModel | None = None,
        heartbeat_granules: int = 5,
        monitor_site: str = "__monitor__",
        *,
        approximate: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if heartbeat_granules <= 0:
            raise SimulationError(
                f"heartbeat_granules must be positive, got {heartbeat_granules}"
            )
        self.model = model if model is not None else TimeModel.example_5_1()
        self.sites = list(sites)
        self.monitor_site = monitor_site
        self.heartbeat_granules = heartbeat_granules
        self.engine = SimulationEngine()
        self.obs = resolve(instrumentation)
        if self.obs.enabled:
            self.obs.bind_clock(lambda: self.engine.now)
        # FIFO channels are the stabilizer's delivery premise.
        self.network = Network(
            self.engine, latency, fifo=True, instrumentation=instrumentation
        )
        self.clocks = ClockEnsemble.random(
            self.model, self.sites, random.Random(seed)
        )
        self.detector = Detector(
            site=monitor_site,
            timer_ratio=self.model.ratio,
            instrumentation=instrumentation,
        )
        self.approximate = approximate
        stabilizer_class = ApproximateStabilizer if approximate else Stabilizer
        self.stabilizer = stabilizer_class(
            self.detector, sites=self.sites, instrumentation=instrumentation
        )
        self.history = History()
        self.records: list[MonitorDetection] = []
        self._injection_times: dict[int, Fraction] = {}
        self._injection_spans: dict[int, int] = {}
        self._heartbeats_scheduled = False

    # --- registration ---------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str | None = None,
        context: Context = Context.UNRESTRICTED,
    ):
        """Register a composite event on the monitor's detector."""
        return self.detector.register(expression, name=name, context=context)

    # --- event and heartbeat injection -------------------------------------

    def inject(self, events: Iterable[WorkloadEvent]) -> int:
        """Schedule workload events; heartbeats are armed on first use."""
        count = 0
        horizon = Fraction(0)
        for event in events:
            if event.site not in self.sites:
                raise UnknownSiteError(f"{event.site!r} is not a monitored site")
            self.engine.schedule_at(event.time, self._make_raiser(event))
            horizon = max(horizon, event.time)
            count += 1
        self._schedule_heartbeats(horizon)
        return count

    def _make_raiser(self, event: WorkloadEvent):
        def raiser() -> None:
            stamp = self.clocks.stamp(event.site, self.engine.now)
            occurrence = EventOccurrence.primitive(
                event.event_type, stamp, dict(event.parameters)
            )
            self.history.add(occurrence)
            self._injection_times[occurrence.uid] = self.engine.now
            if self.obs.enabled:
                span = self.obs.event(
                    "inject",
                    site=event.site,
                    event=event.event_type,
                    uid=occurrence.uid,
                )
                self._injection_spans[occurrence.uid] = span.span_id
            self.network.send(
                event.site,
                self.monitor_site,
                len(occurrence.parameters) + 1,
                lambda: self._deliver_event(occurrence),
            )

        return raiser

    def _schedule_heartbeats(self, horizon: Fraction) -> None:
        if self._heartbeats_scheduled:
            return
        self._heartbeats_scheduled = True
        period = self.model.global_.seconds * self.heartbeat_granules
        # Run heartbeats a few periods past the last event so in-flight
        # occurrences stabilize.
        end = horizon + 4 * period + Fraction(1)
        for site in self.sites:
            t = period
            while t <= end:
                self.engine.schedule_at(t, self._make_heartbeat(site, t))
                t += period

    def _make_heartbeat(self, site: str, at: Fraction):
        def beat() -> None:
            granule = self.clocks.clock(site).global_time(self.engine.now)
            self.network.send(
                site, self.monitor_site, 1,
                lambda: self._deliver_heartbeat(site, granule),
            )

        return beat

    # --- monitor-side delivery ---------------------------------------------

    def _deliver_event(self, occurrence: EventOccurrence) -> None:
        for detection in self.stabilizer.offer(occurrence):
            self._record(detection)

    def _deliver_heartbeat(self, site: str, granule: int) -> None:
        for detection in self.stabilizer.announce(site, granule):
            self._record(detection)

    def _record(self, detection: Detection | VerdictDetection) -> None:
        verdict = seq = ref = None
        if isinstance(detection, VerdictDetection):
            verdict, seq, ref = detection.verdict, detection.seq, detection.ref
            detection = detection.detection
        leaves = detection.occurrence.primitive_leaves()
        times = [
            self._injection_times[leaf.uid]
            for leaf in leaves
            if leaf.uid in self._injection_times
        ]
        record = MonitorDetection(
            detection=detection,
            true_time=self.engine.now,
            latest_injection=max(times) if times else self.engine.now,
            verdict=verdict,
            seq=seq,
            ref=ref,
        )
        self.records.append(record)
        if self.obs.enabled:
            uids = [leaf.uid for leaf in leaves]
            self.obs.event(
                "detect",
                site=self.monitor_site,
                event=detection.name,
                latency=record.latency,
                uids=uids,
                links=[
                    self._injection_spans[uid]
                    for uid in uids
                    if uid in self._injection_spans
                ],
            )

    # --- running -----------------------------------------------------------

    def run(self) -> int:
        """Run the simulation to quiescence; returns actions processed."""
        return self.engine.run()

    def detections_of(self, name: str) -> list[MonitorDetection]:
        """Detections of one registered composite event.

        In approximate mode this includes every verdict record; each
        carries its ``verdict`` (TENTATIVE, CONFIRMED or RETRACTED).
        """
        return [r for r in self.records if r.detection.name == name]

    def drain(self) -> list[MonitorDetection]:
        """Approximate mode: flush the stabilizer, resolving stragglers.

        End-of-run closure for tentatives whose stabilization window
        never closed inside the heartbeat horizon; exact mode has
        nothing to resolve and returns ``[]``.
        """
        if not self.approximate:
            return []
        before = len(self.records)
        for verdict in self.stabilizer.flush():
            self._record(verdict)
        return self.records[before:]

    def held_count(self) -> int:
        """Occurrences still awaiting stabilization."""
        return self.stabilizer.held_count()
