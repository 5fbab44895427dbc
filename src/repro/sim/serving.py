"""Serving workloads: stamped event streams for the serve runtime.

The simulator's generators (:mod:`repro.sim.workloads`) emit *true-time*
:class:`~repro.sim.workloads.WorkloadEvent` records; the serving runtime
consumes *stamped* :class:`~repro.serve.protocol.ServeEvent` records.
:class:`ServingWorkload` bridges them: each event is stamped by its
site's clock in a :class:`~repro.time.clocks.ClockEnsemble` — exactly
what the sites themselves would do before forwarding to the service.

:meth:`ServingWorkload.standard` builds the canonical reproducible
scenario (Example 5.1 time model, uniform buy/sell/cancel mix, three
round-trip rules) shared by the serving bench, the CI ``serve-smoke``
job, and the conformance tests — one definition, so "the workload the
docs describe" and "the workload CI measures" can never diverge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from repro.serve.protocol import (
    Codec,
    ServeEvent,
    get_codec,
    granule_runs,
    resolve_codec,
)
from repro.sim.workloads import WorkloadEvent, uniform_stream
from repro.time.clocks import ClockEnsemble
from repro.time.ticks import TimeModel

STANDARD_RULES: Mapping[str, str] = {
    "round_trip": "buy ; sell",
    "churn": "(buy or sell) ; cancel",
    "busy_granule": "buy and sell",
}
"""The rule set of the standard serving scenario (name -> expression)."""


@dataclass(frozen=True, slots=True)
class ServingWorkload:
    """A stamped, ordered event stream plus the rules that consume it."""

    model: TimeModel
    events: tuple[ServeEvent, ...]
    rules: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def from_workload(
        cls,
        workload: Sequence[WorkloadEvent],
        ensemble: ClockEnsemble,
        rules: Mapping[str, str] | None = None,
    ) -> "ServingWorkload":
        """Stamp a simulator workload through an ensemble's site clocks.

        Events are sorted by true time first, so the stream arrives in
        the order the sites would have emitted it.
        """
        ordered = sorted(workload, key=lambda event: event.time)
        stamped = []
        for event in ordered:
            stamp = ensemble.stamp(event.site, event.time)
            stamped.append(
                ServeEvent(
                    event_type=event.event_type,
                    site=event.site,
                    global_time=stamp.global_time,
                    local=stamp.local,
                    parameters=dict(event.parameters),
                )
            )
        stamped = tuple(stamped)
        return cls(
            model=ensemble.model, events=stamped, rules=dict(rules or {})
        )

    @classmethod
    def standard(
        cls,
        seed: int = 0,
        *,
        events: int = 2_000,
        sites: int = 4,
        rate_per_second: int = 50,
        perfect_clocks: bool = True,
    ) -> "ServingWorkload":
        """The canonical serving scenario, reproducible from ``seed``."""
        rng = random.Random(seed)
        model = TimeModel.example_5_1()
        site_names = [f"site{i}" for i in range(sites)]
        duration = Fraction(events, rate_per_second)
        stream = uniform_stream(
            rng,
            site_names,
            ["buy", "sell", "cancel"],
            rate_per_second=rate_per_second,
            duration_seconds=duration,
        )
        if perfect_clocks:
            ensemble = ClockEnsemble.perfect(model, site_names)
        else:
            ensemble = ClockEnsemble.random(
                model, site_names, rng, horizon=duration
            )
        return cls.from_workload(stream, ensemble, rules=STANDARD_RULES)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ServeEvent]:
        return iter(self.events)

    @property
    def timer_ratio(self) -> int:
        """Local ticks per global granule (the detector's timer ratio)."""
        return self.model.ratio

    def horizon(self) -> int:
        """One granule past the last event — where drains advance to."""
        if not self.events:
            return 0
        return max(event.granule for event in self.events) + 1

    def mid_granule_index(self) -> int:
        """Index of an event that is *not* the first of its granule.

        Fault tests kill a shard right after this event so the crash
        lands strictly inside an open granule batch — the hardest spot
        for checkpoint+replay to get right.  Falls back to the middle of
        the stream when every granule has a single event.
        """
        for index in range(1, len(self.events)):
            if self.events[index].granule == self.events[index - 1].granule:
                return index
        return len(self.events) // 2

    def granule_batches(self) -> list[tuple[ServeEvent, ...]]:
        """The stream split on ``g_g`` granule boundaries, order kept.

        Each run of consecutive events sharing one global granule is one
        batch — the unit a binary frame carries and a shard flushes
        (safe by Def 4.4: intra-granule order is immaterial for every
        cross-site comparison).
        """
        return [tuple(run) for run in granule_runs(self.events)]

    def to_jsonl(self) -> str:
        """The stream as JSONL input for ``repro serve --stdin``."""
        return get_codec("jsonl").encode_batch(self.events).decode("utf-8")

    def to_frames(self, codec: str | Codec = "binary") -> bytes:
        """The stream as wire bytes, one frame per granule batch.

        With the default binary codec this is the input ``repro serve
        --stdin --codec binary`` consumes; with ``"jsonl"`` it equals
        :meth:`to_jsonl` encoded as UTF-8.
        """
        chosen = resolve_codec(codec)
        return b"".join(
            chosen.encode_batch(list(batch))
            for batch in self.granule_batches()
        )
