"""The composite-event detection engine.

:class:`Detector` owns an :class:`~repro.detection.graph.EventGraph`,
propagates primitive occurrences up the graph, fires timers for the
temporal operators, and reports detections of the registered composite
events.

Typical use::

    detector = Detector(site="bank1")
    detector.register("deposit ; withdraw", name="suspicious",
                      context=Context.CHRONICLE)
    detector.feed("deposit", stamp_a)
    detections = detector.feed("withdraw", stamp_b)

:meth:`Detector.feed` is the single documented intake: it accepts either
a pre-built :class:`~repro.events.occurrences.EventOccurrence` or an
``(event_type, stamp)`` pair.  The detector is synchronous and
deterministic: every ``feed`` returns the detections (of registered
roots) that the occurrence triggered, transitively through the graph.

There is one engine.  Where a node runs is data (:attr:`Detector.
placements`), not a second implementation: a ``Detector`` is the case
where every node sits on the engine's own site, and
:class:`~repro.detection.coordinator.DistributedDetector` adds only the
placement, and what happens to an emission whose subscriber sits on
another site.  The walk, the timer service (one clock and one heap per
site), root recording and cloning are stated here once, so a detection
does not depend on how the graph was laid out (Sections 5.2-5.3).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Iterator, Mapping

from repro.contexts.policies import Context
from repro.errors import DetectionError, SchedulingError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence
from repro.events.parser import parse_expression
from repro.obs.instrument import Instrumentation, resolve
from repro.detection.graph import Edge, EventGraph
from repro.detection.nodes import Node, PeriodicNode, PlusNode, make_timer_stamp
from repro.time.timestamps import PrimitiveTimestamp


class Detection:
    """A detected composite event: the registered name plus the occurrence."""

    __slots__ = ("name", "occurrence")

    def __init__(self, name: str, occurrence: EventOccurrence) -> None:
        self.name = name
        self.occurrence = occurrence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Detection):
            return NotImplemented
        return self.name == other.name and self.occurrence == other.occurrence

    def __hash__(self) -> int:
        return hash((self.name, self.occurrence))

    def __repr__(self) -> str:
        return f"Detection(name={self.name!r}, occurrence={self.occurrence!r})"


class Detector:
    """The Sentinel-style detection engine.

    Parameters
    ----------
    site:
        Name of the site the engine runs at; labels its timer stamps and
        is where every node sits unless :attr:`placements` says otherwise.
    timer_ratio:
        Local ticks per global granule for timer stamps (matches the
        site's :class:`~repro.time.ticks.TimeModel` ratio).
    instrumentation:
        An optional :class:`~repro.obs.instrument.Instrumentation` hub;
        defaults to the shared disabled singleton (no-op hooks).
    """

    def __init__(
        self,
        site: str = "local",
        timer_ratio: int = 1,
        *,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.site = site
        self.sites = [site]
        self.timer_ratio = timer_ratio
        self.obs = resolve(instrumentation)
        self.graph = EventGraph()
        self.detections: list[Detection] = []
        #: Node -> site, for the nodes a placement put somewhere; a node
        #: that is not a key sits on :attr:`site`.
        self.placements: dict[Node, str] = {}
        self._callbacks: dict[str, list[Callable[[Detection], None]]] = {}
        self._clocks: dict[str, int] = {site: 0}
        self._timer_heaps: dict[str, list[tuple[int, int, Node, Any]]] = {site: []}
        self._timer_seq = itertools.count()
        self._registrations: list[tuple[EventExpression, str, Context]] = []
        # child -> (what to send for its edges into another site, its
        # same-site edges); only a placement over several sites fills it.
        self._remote_edges: dict[Node, tuple[list[Any], list[Edge]]] = {}

    # --- registration ---------------------------------------------------

    def register(
        self,
        expression: EventExpression | str,
        name: str | None = None,
        context: Context = Context.UNRESTRICTED,
        callback: Callable[[Detection], None] | None = None,
        optimize: bool = False,
    ) -> Node:
        """Register a composite event for detection.

        ``expression`` may be an AST or Snoop text; ``name`` defaults to
        the expression's textual form.  ``callback`` (optional) becomes
        the *owner* of the rule's detections: each is handed to it as it
        fires and is **not** appended to :attr:`detections` (an output
        no operator reads back); without one the engine keeps the log.
        ``optimize=True`` applies the algebraic rewriter
        (:mod:`repro.events.rewrite`) first — note the ``E or E`` law
        deliberately deduplicates detections.
        """
        return self._install(
            self._prepare(expression, optimize), name, context, callback
        )

    @staticmethod
    def _prepare(
        expression: EventExpression | str, optimize: bool
    ) -> EventExpression:
        if isinstance(expression, str):
            expression = parse_expression(expression)
        if optimize:
            from repro.events.rewrite import simplify

            expression = simplify(expression)
        return expression

    def _install(
        self,
        expression: EventExpression,
        name: str | None,
        context: Context,
        callback: Callable[[Detection], None] | None,
        **placed: Any,
    ) -> Node:
        root = self.graph.add_expression(expression, name=name, context=context)
        self._bind_new_nodes()
        self._registrations.append((expression, root.name, context))
        if callback is not None:
            self.subscribe(root.name, callback)
        if self.obs.enabled:
            self.obs.event(
                "detector.register",
                site=self.placements.get(root, self.site),
                event=root.name,
                expression=str(expression),
                **placed,
                **self.graph.stats(),
            )
        return root

    def _bind_new_nodes(self) -> None:
        """Make this engine the timer service of every temporal node."""
        for node in self.graph.operator_nodes():
            if isinstance(node, (PeriodicNode, PlusNode)):
                node.bind_timers(self)

    def subscribe(self, name: str, callback: Callable[[Detection], None]) -> None:
        """Make ``callback`` an owner of the registered rule ``name``.

        What ``register(callback=)`` does, for a rule registered earlier
        (an ECA rule attached to a named composite event): from here on
        the rule's detections are delivered, not logged.
        """
        if name not in self.graph.roots:
            raise DetectionError(f"no composite event {name!r} is registered")
        self._callbacks.setdefault(name, []).append(callback)

    # --- the timer service: one clock and one heap per site ---------------

    @property
    def now_global(self) -> int:
        """The engine clock, in global granules (every site's agree
        between calls; :meth:`advance_time` moves them together)."""
        return self._clocks[self.site]

    @now_global.setter
    def now_global(self, global_time: int) -> None:
        for site in self._clocks:
            self._clocks[site] = global_time

    def schedule(self, node: Node, fire_global: int, payload: Any) -> None:
        """Arrange a timer callback at a future granule of ``node``'s site.

        A deadline already in the past is clamped to the site's current
        granule (the timer fires on the next clock advance): a temporal
        operator whose opener was delivered late — fed late, or slower
        across the network than its offset — must still signal, just
        late; raising here would crash the engine on an ordinary
        message-delay race (found by the conformance fuzzer).
        """
        site = self.placements.get(node, self.site)
        if fire_global < self._clocks[site]:
            fire_global = self._clocks[site]
        heapq.heappush(
            self._timer_heaps[site],
            (fire_global, next(self._timer_seq), node, payload),
        )

    def advance_time(self, global_time: int) -> list[Detection]:
        """Move every site's clock forward, firing its due timers in order."""
        clocks = self._clocks
        now = max(clocks.values())
        if global_time < now:
            raise SchedulingError(
                f"time cannot move backward: {global_time} < {now}"
            )
        obs = self.obs
        fired: list[Detection] = []
        for site, heap in self._timer_heaps.items():
            while heap and heap[0][0] <= global_time:
                fire_global, _, node, payload = heapq.heappop(heap)
                if clocks[site] < fire_global:
                    clocks[site] = fire_global
                stamp = make_timer_stamp(
                    f"{site}.timer", fire_global, self.timer_ratio
                )
                if obs.enabled:
                    with obs.span(
                        "timer.fire",
                        site=site,
                        op=node.kind,
                        node=node.name,
                        granule=fire_global,
                    ) as span:
                        emissions = node.on_timer(stamp, payload)
                        span.set(emitted=len(emissions))
                else:
                    emissions = node.on_timer(stamp, payload)
                for emission in emissions:
                    fired += self._propagate(node, [emission])
            clocks[site] = global_time
        return fired

    def pending_timers(self) -> int:
        """Number of timers not yet fired."""
        return sum(len(heap) for heap in self._timer_heaps.values())

    def iter_timers(self) -> Iterator[tuple[str, int, Node, Any]]:
        """Every pending timer as ``(site, fire_global, node, payload)``,
        in no firing order — what a checkpoint or a migration copies."""
        for site, heap in self._timer_heaps.items():
            for fire_global, _, node, payload in heap:
                yield site, fire_global, node, payload

    # --- feeding ----------------------------------------------------------

    def feed(
        self,
        occurrence: EventOccurrence | str,
        stamp: PrimitiveTimestamp | None = None,
        *,
        parameters: Mapping[str, Any] | None = None,
    ) -> list[Detection]:
        """Feed a primitive occurrence; returns triggered root detections.

        The documented intake, in two forms::

            detector.feed(occurrence)                       # pre-built
            detector.feed("deposit", stamp, parameters={})  # built here
        """
        if isinstance(occurrence, EventOccurrence):
            if stamp is not None or parameters is not None:
                raise TypeError(
                    "feed(occurrence) takes no stamp/parameters — they are "
                    "already part of the occurrence"
                )
        else:
            if stamp is None:
                raise TypeError("feed(event_type, stamp) requires a stamp")
            occurrence = EventOccurrence.primitive(occurrence, stamp, parameters)
        leaf = self.graph.primitive_node(occurrence.event_type)
        if self.obs.enabled:
            with self.obs.span(
                "detector.feed",
                site=self.placements.get(leaf, self.site),
                event=occurrence.event_type,
            ):
                return self._propagate(leaf, [occurrence])
        return self._propagate(leaf, [occurrence])

    def _propagate(
        self, source: Node, emissions: list[EventOccurrence]
    ) -> list[Detection]:
        """Push ``source``'s emissions through the graph (BFS).

        The worklist holds one entry per ``receive`` result, not per
        emission: a batch's emissions were adjacent in the per-emission
        queue anyway, so a root's detections are recorded in the same
        order with one ``extend`` instead of a round trip each.  An edge
        into a node on the same site is a ``receive`` call; an edge into
        another site is handed to ``_send`` (the placing subclass's: a
        :class:`~repro.detection.coordinator.Message` in its outbox),
        and the walk goes on when that message is delivered.  With
        instrumentation on, every ``receive`` runs inside a
        ``node.receive`` span.
        """
        traced = self.obs.enabled
        results: list[Detection] = []
        roots = self.graph.roots
        subscribers = self.graph.subscribers
        remote = self._remote_edges
        worklist: deque[tuple[Node, list[EventOccurrence]]] = deque(
            ((source, emissions),)
        )
        while worklist:
            node, emissions = worklist.popleft()
            if roots.get(node.name) is node:
                results += self._record_root(node.name, emissions)
            edges = subscribers(node)
            if remote:
                split = remote.get(node)
                if split is not None:
                    crossing, edges = split
                    self._send(crossing, emissions)
            if not edges:
                continue
            for emission in emissions:
                for edge in edges:
                    parent = edge.parent
                    if traced:
                        produced = self._traced_receive(parent, emission, edge.role)
                    else:
                        produced = parent.receive(emission, edge.role)
                    if produced:
                        worklist.append((parent, produced))
        return results

    def _arrive(
        self, node: Node, occurrence: EventOccurrence, role: str
    ) -> list[Detection]:
        """An occurrence reaching ``node`` from outside a walk (a
        delivered message): the ``receive`` its edge stood for, then the
        walk from what that produced."""
        if self.obs.enabled:
            produced = self._traced_receive(node, occurrence, role)
        else:
            produced = node.receive(occurrence, role)
        return self._propagate(node, produced) if produced else []

    def _traced_receive(
        self, node: Node, occurrence: EventOccurrence, role: str
    ) -> list[EventOccurrence]:
        with self.obs.span(
            "node.receive",
            site=self.placements.get(node, self.site),
            op=node.kind,
            node=node.name,
            role=role,
        ) as span:
            produced = node.receive(occurrence, role)
            span.set(emitted=len(produced))
        return produced

    def _record_root(
        self, name: str, emissions: list[EventOccurrence]
    ) -> list[Detection]:
        """Hand one batch of a root's emissions, in order, to its one
        owner: the rule's callbacks if it has any, the log otherwise."""
        batch = [Detection(name, emission) for emission in emissions]
        callbacks = self._callbacks.get(name)
        if callbacks:
            for detection in batch:
                for callback in callbacks:
                    callback(detection)
        else:
            self.detections += batch
        return batch

    # --- cloning ----------------------------------------------------------

    def clone(
        self,
        *,
        site: str | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> "Detector":
        """A fresh one-site detector with the same registrations, no state.

        The twin shares expressions, names, contexts, timer ratio and
        (unless ``site`` renames it) the site label, but none of the
        buffered occurrences, detections, callbacks or placements — the
        anytime layer (:class:`~repro.detection.approximate.
        ApproximateStabilizer`) uses one as the eagerly-fed shadow
        engine.  Timer stamps carry the clone's site label,
        so comparisons across engines must canonicalize timer sites
        (:func:`~repro.detection.approximate.detection_key`).
        """
        twin = Detector(
            site if site is not None else self.site,
            self.timer_ratio,
            instrumentation=instrumentation,
        )
        self.copy_rules_to(twin)
        return twin

    def copy_rules_to(self, twin: "Detector") -> None:
        """Register on a clone the rules registered here since it was made."""
        for expression, name, context in self._registrations[
            len(twin._registrations):
        ]:
            twin.register(expression, name=name, context=context)

    # --- introspection ----------------------------------------------------

    def detections_of(self, name: str) -> list[EventOccurrence]:
        """All logged occurrences of one registered composite event — an
        error (:class:`~repro.errors.DetectionError`), not an empty list,
        for a rule whose callbacks own its detections (see
        :meth:`register`)."""
        owners = self._callbacks.get(name)
        if owners:
            raise DetectionError(
                f"detections of {name!r} are delivered to its {len(owners)} "
                "registered callback(s) and not kept in the engine's log; "
                "read them where the callback put them"
            )
        return [d.occurrence for d in self.detections if d.name == name]

    def prune_before(self, global_time: int) -> int:
        """Garbage-collect node buffers below a granule horizon.

        Drops every buffered occurrence whose latest global granule is
        below ``global_time`` from every operator node; returns the total
        dropped.  Long-running unrestricted-context detectors call this
        periodically with ``now - window`` to bound memory.
        """
        return sum(node.prune_before(global_time) for node in self.graph.nodes())

    def buffered_occurrences(self) -> int:
        """Total occurrences currently buffered across operator nodes."""
        return sum(node.buffered() for node in self.graph.nodes())
