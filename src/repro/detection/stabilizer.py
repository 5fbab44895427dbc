"""Watermark stabilization: in-order evaluation of out-of-order streams.

The non-monotonic operators (``not``, ``A``, ``A*``) can only match the
denotational semantics when occurrences are *evaluated* in a
linearization of happen-before — a detection signalled early cannot be
retracted when a late blocker arrives.  That is necessary, not
sufficient: with a *composite* child (``A(a and b, c, a)``) a
linearization of the primitives can still complete the child after an
event it precedes under ``<_p``, and the release order below can impose
such a linearization (correction C7 in EXPERIMENTS.md).  Schwiderski's evaluation
protocol solves this with heartbeats: a site's events are evaluated only
once every site has announced a clock reading past them, so nothing
earlier can still arrive.

:class:`Stabilizer` implements that protocol in front of a
:class:`~repro.detection.detector.Detector`:

* ``offer(occurrence)`` buffers an occurrence instead of feeding it;
* ``announce(site, global_time)`` records a site's watermark — a promise
  that the site will raise no further event with a global time at or
  below it (heartbeats and ordinary events both advance it);
* occurrences whose latest granule lies *more than one granule below*
  the minimum watermark (the ``2g_g`` margin again: a cross-site event
  within one granule of the watermark could still be concurrent with an
  in-flight one) are released to the detector in the canonical
  linearization (global, local, arrival).

The price is latency — nothing is evaluated until every site's watermark
passes it — which is the classic CEP safety/latency trade; the tests
demonstrate oracle-exactness for ``not`` under adversarial reordering,
and the stalled-site behaviour (one silent site freezes release until
its next heartbeat).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.detection.detector import Detection, Detector
from repro.errors import DetectionError, UnknownSiteError
from repro.events.occurrences import EventOccurrence
from repro.obs.instrument import Instrumentation, resolve


@dataclass
class StabilizerStats:
    """Counters for observability."""

    offered: int = 0
    released: int = 0
    heartbeats: int = 0

    @property
    def held(self) -> int:
        return self.offered - self.released


class Stabilizer:
    """A watermark buffer in front of a local detector.

    >>> detector = Detector()
    >>> _ = detector.register("a ; b", name="seq")
    >>> stabilizer = Stabilizer(detector, sites=["s1", "s2"])
    """

    def __init__(
        self,
        detector: Detector,
        sites: list[str],
        *,
        auto_sites: bool = False,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if not sites and not auto_sites:
            raise DetectionError("a stabilizer needs at least one site")
        self.detector = detector
        self.auto_sites = auto_sites
        self.watermarks: dict[str, int] = {site: -1 for site in sites}
        self.stats = StabilizerStats()
        self.obs = resolve(instrumentation)
        self._held: list[tuple[tuple[int, int, int], EventOccurrence]] = []
        self._offered_at: dict[int, Fraction] = {}
        self._arrival = 0

    # --- intake ---------------------------------------------------------

    def offer(self, occurrence: EventOccurrence) -> list[Detection]:
        """Buffer an occurrence; returns any detections it unblocks.

        The occurrence's own site watermark advances to its global time
        (a site's events are non-decreasing on its own clock), which can
        release previously held occurrences.

        **Premise**: each site's events arrive in that site's clock
        order (per-site FIFO channels) — the network may interleave
        *across* sites arbitrarily.  An occurrence below its own site's
        watermark breaks the promise the watermark encoded and raises
        :class:`DetectionError` rather than silently mis-evaluating.
        """
        site = occurrence.site()
        if site is not None and site not in self.watermarks and self.auto_sites:
            # Open-world intake (the serving shards): a site joins the
            # watermark set on first contact.  Until every site has been
            # seen the frontier stays conservative at -2, so nothing
            # releases prematurely; a site first seen *after* the
            # frontier passed its early granules is the approximate
            # mode's retraction trigger rather than a protocol error.
            self.watermarks[site] = -1
        if site is not None and site in self.watermarks:
            granule = occurrence.timestamp.global_span()[1]
            if granule < self.watermarks[site]:
                raise DetectionError(
                    f"site {site!r} delivered an event at granule {granule} "
                    f"behind its own watermark {self.watermarks[site]} — "
                    f"per-site FIFO delivery is a stabilizer premise"
                )
            self._advance(site, granule)
        self._arrival += 1
        key = (
            occurrence.timestamp.global_span()[1],
            min(t.local for t in occurrence.timestamp),
            self._arrival,
        )
        self._held.append((key, occurrence))
        self.stats.offered += 1
        if self.obs.enabled:
            self._offered_at[occurrence.uid] = self.obs.now()
            self.obs.counter("stabilizer.offered").inc()
        return self._release()

    def announce(self, site: str, global_time: int) -> list[Detection]:
        """A heartbeat: ``site`` promises no more events at or below
        ``global_time``; returns detections released by the new watermark."""
        if site not in self.watermarks:
            if not self.auto_sites:
                raise UnknownSiteError(f"{site!r} is not a stabilized site")
            self.watermarks[site] = -1
        self.stats.heartbeats += 1
        if self.obs.enabled:
            self.obs.counter("stabilizer.heartbeats", site=site).inc()
        self._advance(site, global_time)
        return self._release()

    def _advance(self, site: str, global_time: int) -> None:
        if global_time > self.watermarks[site]:
            self.watermarks[site] = global_time

    # --- release ------------------------------------------------------------

    def frontier(self) -> int:
        """The stable frontier: granules strictly below are safe.

        An occurrence is releasable when its latest granule is more than
        one granule below every site's watermark — within one granule it
        could still be concurrent with an event yet to arrive.
        """
        if not self.watermarks:
            return -2
        return min(self.watermarks.values()) - 1

    def _release(self) -> list[Detection]:
        frontier = self.frontier()
        ready = [entry for entry in self._held if entry[0][0] < frontier]
        if not ready:
            return []
        self._held = [entry for entry in self._held if entry[0][0] >= frontier]
        ready.sort(key=lambda entry: entry[0])
        detections: list[Detection] = []
        for key, occurrence in ready:
            self._note_release(key, occurrence)
            detections.extend(self.detector.feed(occurrence))
            self.stats.released += 1
        return detections

    def flush(self) -> list[Detection]:
        """Release everything held, in order (end-of-stream)."""
        self._held.sort(key=lambda entry: entry[0])
        detections: list[Detection] = []
        for key, occurrence in self._held:
            self._note_release(key, occurrence)
            detections.extend(self.detector.feed(occurrence))
            self.stats.released += 1
        self._held = []
        return detections

    def _note_release(self, key: tuple[int, int, int], occurrence: EventOccurrence) -> None:
        """Record the hold span of one released occurrence."""
        if not self.obs.enabled:
            return
        now = self.obs.now()
        offered_at = self._offered_at.pop(occurrence.uid, now)
        self.obs.record_span(
            "stabilizer.hold",
            start=offered_at,
            end=now,
            site=occurrence.site(),
            event=occurrence.event_type,
            granule=key[0],
        )
        self.obs.histogram("stabilizer.hold_seconds").observe(float(now - offered_at))

    def held_count(self) -> int:
        """Occurrences currently awaiting stabilization."""
        return len(self._held)
