"""Anytime approximate detection under partial synchrony.

The watermark :class:`~repro.detection.stabilizer.Stabilizer` buys
oracle-exactness by *parking* every occurrence until the ``2g_g``
stabilization window closes around it — a full heartbeat round of
latency before anything is signalled.  Bonakdarpour et al.
(*Approximate Distributed Monitoring under Partial Synchrony*, see
PAPERS.md) formalize the alternative this module implements: emit
**anytime** detections immediately, tagged with a verdict that records
how much of the stabilization evidence is in:

``TENTATIVE``
    Signalled the moment the terminating occurrence arrives, before the
    stabilization window closed.  May later be superseded: a
    late-delivered occurrence (an opener of a sequence, the blocker of
    a ``not``) can change what the in-order evaluation would have seen.

``CONFIRMED``
    The window closed and the exact in-order evaluation produced the
    same detection.  The multiset of CONFIRMED detections is *identical
    to exact mode by construction* — the exact path here literally is a
    :class:`~repro.detection.stabilizer.Stabilizer` run.

``RETRACTED``
    The window closed and the exact evaluation did **not** produce the
    tentative detection — a late delivery invalidated it.  Retractions
    always reference the tentative they cancel.

The verdict lattice is ``TENTATIVE -> CONFIRMED | RETRACTED``: every
tentative detection is eventually resolved one way or the other (at the
latest by :meth:`ApproximateStabilizer.flush`), a CONFIRMED or
RETRACTED verdict is final, and a detection the eager path missed
entirely (e.g. an in-order pairing only the stabilized evaluation
finds) surfaces as a CONFIRMED verdict with no tentative reference.

Soundness contract (enforced by the ``approx`` conformance check):
CONFIRMED == the exact stabilized multiset, and no TENTATIVE verdict
ever contradicts it — a tentative either converts into exactly one
CONFIRMED or is explicitly RETRACTED, never silently dropped or
double-counted.

Like the plain stabilizer, neither engine's clock is advanced here —
timer-driven operators (``P``/``P*``/``+``) fire only when the embedder
calls ``advance_time`` on the engines it owns; see ``docs/approximate.md``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum

from repro.detection.detector import Detection, Detector
from repro.detection.stabilizer import Stabilizer
from repro.events.occurrences import EventOccurrence
from repro.obs.instrument import Instrumentation

_TIMER_SITE = re.compile(r"[^\s',()]*\.timer")


class Verdict(Enum):
    """How much stabilization evidence backs a detection."""

    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    RETRACTED = "retracted"

    @property
    def resolved(self) -> bool:
        """Whether this verdict is final (CONFIRMED or RETRACTED)."""
        return self is not Verdict.TENTATIVE


@dataclass(frozen=True, slots=True)
class VerdictDetection:
    """One anytime emission: a detection tagged with its verdict.

    ``seq`` orders emissions; ``at`` is the stream granule (the highest
    global granule the stabilizer had seen) when the verdict was
    emitted; ``ref`` links a CONFIRMED or RETRACTED verdict back to the
    ``seq`` of the tentative it resolves (``None`` for a confirmation
    the eager path never anticipated).
    """

    detection: Detection
    verdict: Verdict
    seq: int
    at: int
    ref: int | None = None

    @property
    def name(self) -> str:
        return self.detection.name

    @property
    def occurrence(self) -> EventOccurrence:
        return self.detection.occurrence

    @property
    def granule(self) -> int:
        """The latest global granule of the detection's constituents."""
        return self.detection.occurrence.timestamp.global_span()[1]

    @property
    def lag(self) -> int:
        """Granules between the detection's content and its emission.

        The anytime metric: a tentative verdict's lag is (near) zero,
        a confirmed verdict's lag is the stabilization window it waited
        out.
        """
        return self.at - self.granule


def detection_key(detection: Detection) -> tuple[str, str]:
    """Canonical matching key: name + timer-site-scrubbed constituents.

    Identity is the full set of primitive leaves, not the composite
    max-set timestamp: the max-set can collapse to the terminator alone
    (every other constituent happened-before it), which would let a
    tentative built from the *wrong* opener match an exact detection
    built from a late-delivered one.  Timer stamps carry the emitting
    engine's site label (``<site>.timer``); scrubbing it lets tentative
    detections from the shadow engine match confirmations from the
    exact engine even when the embedder runs them under different site
    names (the sharded cluster does, across re-homes).
    """
    stamps = sorted(
        repr(stamp)
        for leaf in detection.occurrence.primitive_leaves()
        for stamp in leaf.timestamp
    )
    return detection.name, _TIMER_SITE.sub("timer", repr(stamps))


class ApproximateStabilizer(Stabilizer):
    """A stabilizer that also emits eager, verdict-tagged detections.

    Two engines run side by side over the same intake:

    * the **exact** engine is the inherited stabilizer path — park,
      release behind the watermark frontier, evaluate in linearization
      order.  Its detections become CONFIRMED verdicts.
    * the **shadow** engine (a :meth:`~repro.detection.detector.
      Detector.clone` of the exact one) is fed every occurrence
      immediately, in raw arrival order.  Its detections become
      TENTATIVE verdicts.

    A tentative detection is decidable once the frontier passes its
    latest constituent granule: everything that could contribute has
    been released and evaluated by the exact engine, so a tentative
    still unmatched at that point is RETRACTED.

    >>> detector = Detector()
    >>> _ = detector.register("a ; b", name="seq")
    >>> approx = ApproximateStabilizer(detector, sites=["s1", "s2"])
    """

    def __init__(
        self,
        detector: Detector,
        sites: list[str],
        *,
        auto_sites: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        super().__init__(
            detector, sites, auto_sites=auto_sites,
            instrumentation=instrumentation,
        )
        self.shadow = detector.clone()
        self.verdicts: list[VerdictDetection] = []
        self._seq = itertools.count()
        self._pending: dict[tuple[str, str], list[VerdictDetection]] = {}
        self._clock = -1

    # --- intake ---------------------------------------------------------

    def offer(  # type: ignore[override]
        self, occurrence: EventOccurrence
    ) -> list[VerdictDetection]:
        """Buffer for the exact engine, feed the shadow engine eagerly.

        Returns the verdicts this occurrence triggered, in emission
        order: tentatives from the shadow engine first (the anytime
        payoff), then any confirmations the advanced watermark
        released, then retractions of tentatives the frontier just
        proved wrong.
        """
        self._sync_shadow()
        released = super().offer(occurrence)
        self._clock = max(self._clock, occurrence.timestamp.global_span()[1])
        out = [
            self._tentative(detection)
            for detection in self.shadow.feed(occurrence)
        ]
        out.extend(self._resolve(released))
        out.extend(self._retire())
        self.verdicts.extend(out)
        return out

    def announce(  # type: ignore[override]
        self, site: str, global_time: int
    ) -> list[VerdictDetection]:
        """A heartbeat; returns confirmations/retractions it unlocked."""
        released = super().announce(site, global_time)
        self._clock = max(self._clock, global_time)
        out = self._resolve(released)
        out.extend(self._retire())
        self.verdicts.extend(out)
        return out

    def flush(  # type: ignore[override]
        self, advance_to: int | None = None
    ) -> list[VerdictDetection]:
        """End-of-stream: release everything, resolve every tentative.

        ``advance_to`` optionally advances the exact engine's clock
        after the held occurrences are fed, so timer-driven detections
        the shadow engine already anticipated confirm instead of being
        retracted and re-surfacing as unreferenced confirmations.
        """
        out = self._resolve(super().flush())
        if advance_to is not None and advance_to > self.detector.now_global:
            out.extend(self._resolve(self.detector.advance_time(advance_to)))
        out.extend(self._retire(everything=True))
        self.verdicts.extend(out)
        return out

    # --- embedder clock hooks -------------------------------------------

    def advance_shadow(self, granule: int) -> list[VerdictDetection]:
        """Advance the eager engine's clock; timer fires become tentative.

        The embedder owns both engine clocks (the stabilizer never
        advances them).  The shadow engine tracks the *raw* stream, so
        its clock follows the newest granule seen.
        """
        self._sync_shadow()
        self._clock = max(self._clock, granule)
        if granule <= self.shadow.now_global:
            return []
        out = [
            self._tentative(detection)
            for detection in self.shadow.advance_time(granule)
        ]
        self.verdicts.extend(out)
        return out

    def advance_exact(self, granule: int | None = None) -> list[VerdictDetection]:
        """Advance the exact engine's clock (default: to the frontier).

        The exact engine tracks the *stabilized* stream, so its clock
        must trail the frontier — timers due inside the stable region
        fire here, and their detections resolve like any release.
        """
        target = self.frontier() if granule is None else granule
        if target <= self.detector.now_global:
            return []
        out = self._resolve(self.detector.advance_time(target))
        out.extend(self._retire())
        self.verdicts.extend(out)
        return out

    def announce_all(self, global_time: int) -> list[VerdictDetection]:
        """Announce one watermark for every known site (drain horizon).

        The serving shards call this when the embedder promises the
        whole stream has reached ``global_time`` — the open-world
        analogue of every site heartbeating at once.
        """
        out: list[VerdictDetection] = []
        for site in sorted(self.watermarks):
            out.extend(self.announce(site, global_time))
        return out

    # --- verdict bookkeeping --------------------------------------------

    def _sync_shadow(self) -> None:
        """Mirror registrations made on the exact engine after cloning.

        Embedders (the monitor, the serving shards) build the
        stabilizer first and register rules afterwards; the shadow
        picks the new roots up on the next intake, before any
        occurrence reaches it.
        """
        self.detector.copy_rules_to(self.shadow)

    def _tentative(self, detection: Detection) -> VerdictDetection:
        verdict = VerdictDetection(
            detection, Verdict.TENTATIVE, next(self._seq), self._clock
        )
        self._pending.setdefault(detection_key(detection), []).append(verdict)
        if self.obs.enabled:
            self.obs.counter("approx.tentative").inc()
        return verdict

    def _resolve(self, released: list[Detection]) -> list[VerdictDetection]:
        out = []
        for detection in released:
            queue = self._pending.get(detection_key(detection))
            ref = queue.pop(0).seq if queue else None
            out.append(
                VerdictDetection(
                    detection, Verdict.CONFIRMED, next(self._seq),
                    self._clock, ref,
                )
            )
            if self.obs.enabled:
                self.obs.counter("approx.confirmed").inc()
        return out

    def _retire(self, everything: bool = False) -> list[VerdictDetection]:
        """Retract pending tentatives the frontier has proven wrong."""
        frontier = self.frontier()
        out = []
        for key, queue in list(self._pending.items()):
            keep = []
            for tentative in queue:
                if everything or tentative.granule < frontier:
                    out.append(
                        VerdictDetection(
                            tentative.detection, Verdict.RETRACTED,
                            next(self._seq), self._clock, tentative.seq,
                        )
                    )
                    if self.obs.enabled:
                        self.obs.counter("approx.retracted").inc()
                else:
                    keep.append(tentative)
            if keep:
                self._pending[key] = keep
            else:
                del self._pending[key]
        return out

    # --- results --------------------------------------------------------

    def tentative(self) -> list[VerdictDetection]:
        """Every TENTATIVE emission, in emission order."""
        return [v for v in self.verdicts if v.verdict is Verdict.TENTATIVE]

    def confirmed(self) -> list[VerdictDetection]:
        """Every CONFIRMED emission, in emission order."""
        return [v for v in self.verdicts if v.verdict is Verdict.CONFIRMED]

    def retracted(self) -> list[VerdictDetection]:
        """Every RETRACTED emission, in emission order."""
        return [v for v in self.verdicts if v.verdict is Verdict.RETRACTED]

    def confirmed_of(self, name: str) -> list[EventOccurrence]:
        """Confirmed occurrences of one composite — the exact multiset."""
        return [
            v.occurrence
            for v in self.verdicts
            if v.verdict is Verdict.CONFIRMED and v.name == name
        ]

    def unresolved(self) -> int:
        """Tentatives not yet confirmed or retracted."""
        return sum(len(queue) for queue in self._pending.values())
