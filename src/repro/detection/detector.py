"""The per-site composite-event detection engine.

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
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Mapping

from repro.contexts.policies import Context
from repro.errors import DetectionError, SchedulingError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence
from repro.events.parser import parse_expression
from repro.obs.instrument import Instrumentation, resolve
from repro.detection.graph import EventGraph
from repro.detection.nodes import (
    ROLE_LEFT,
    Node,
    PeriodicNode,
    PlusNode,
    make_timer_stamp,
)
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


def logged_occurrences(engine: Any, name: str) -> list[EventOccurrence]:
    """An engine's logged occurrences of ``name`` — an error, not an
    empty list, when callbacks own them (delivered, never kept)."""
    owners = engine._callbacks.get(name)
    if owners:
        raise DetectionError(
            f"detections of {name!r} are delivered to its {len(owners)} "
            "registered callback(s) and not kept in the engine's log; "
            "read them where the callback put them"
        )
    return [d.occurrence for d in engine.detections if d.name == name]


class Detector:
    """A single-site Sentinel-style detection engine.

    Parameters
    ----------
    site:
        Name of the site the engine runs at; used to label timer stamps.
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
        self.timer_ratio = timer_ratio
        self.obs = resolve(instrumentation)
        self.graph = EventGraph()
        self.now_global = 0
        self.detections: list[Detection] = []
        self._callbacks: dict[str, list[Callable[[Detection], None]]] = {}
        self._timer_heap: list[tuple[int, int, Node, Any]] = []
        self._timer_seq = itertools.count()
        self._registrations: list[tuple[EventExpression, str, Context]] = []

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
        if isinstance(expression, str):
            expression = parse_expression(expression)
        if optimize:
            from repro.events.rewrite import simplify

            expression = simplify(expression)
        root = self.graph.add_expression(
            expression,
            name=name,
            context=context,
            timer_site=f"{self.site}.timer",
            timer_ratio=self.timer_ratio,
        )
        self._bind_timers()
        self._registrations.append((expression, root.name, context))
        if callback is not None:
            self._callbacks.setdefault(root.name, []).append(callback)
        if self.obs.enabled:
            self.obs.event(
                "detector.register",
                site=self.site,
                event=root.name,
                expression=str(expression),
                **self.graph.stats(),
            )
        return root

    def _bind_timers(self) -> None:
        for node in self.graph.operator_nodes():
            if isinstance(node, (PeriodicNode, PlusNode)):
                node.bind_timers(self)

    # --- TimerService ----------------------------------------------------

    def schedule(self, node: Node, fire_global: int, payload: Any) -> None:
        """Arrange a timer callback at a future global granule.

        A deadline already in the past is clamped to the current granule
        (the timer fires on the next clock advance): a temporal operator
        whose opener was delivered late must still signal, just late —
        raising here would crash the engine on an ordinary message-delay
        race (found by the conformance fuzzer).
        """
        if fire_global < self.now_global:
            fire_global = self.now_global
        heapq.heappush(
            self._timer_heap, (fire_global, next(self._timer_seq), node, payload)
        )

    def advance_time(self, global_time: int) -> list[Detection]:
        """Move the engine clock forward, firing due timers in order."""
        if global_time < self.now_global:
            raise SchedulingError(
                f"time cannot move backward: {global_time} < {self.now_global}"
            )
        fired: list[Detection] = []
        while self._timer_heap and self._timer_heap[0][0] <= global_time:
            fire_global, _, node, payload = heapq.heappop(self._timer_heap)
            self.now_global = max(self.now_global, fire_global)
            stamp = make_timer_stamp(
                f"{self.site}.timer", fire_global, self.timer_ratio
            )
            if self.obs.enabled:
                with self.obs.span(
                    "timer.fire",
                    site=self.site,
                    op=node.kind,
                    node=node.name,
                    granule=fire_global,
                ) as span:
                    emissions = node.on_timer(stamp, payload)
                    span.set(emitted=len(emissions))
            else:
                emissions = node.on_timer(stamp, payload)
            for emission in emissions:
                fired.extend(self._propagate(node, emission))
        self.now_global = max(self.now_global, global_time)
        return fired

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
                "detector.feed", site=self.site, event=occurrence.event_type
            ):
                return self._propagate(leaf, occurrence)
        return self._propagate(leaf, occurrence)

    def _propagate(self, source: Node, occurrence: EventOccurrence) -> list[Detection]:
        """Push an occurrence from ``source`` through the graph (BFS).

        The worklist holds one entry per ``receive`` result, not per
        emission: a batch's emissions were adjacent in the per-emission
        queue anyway, so a root's detections are recorded in the same
        order with one ``extend`` instead of a round trip each.  With
        instrumentation on, every ``receive`` runs inside a
        ``node.receive`` span.
        """
        obs = self.obs
        traced = obs.enabled
        results: list[Detection] = []
        roots = self.graph.roots
        subscribers = self.graph.subscribers
        worklist: deque[tuple[Node, list[EventOccurrence]]] = deque(
            ((source, [occurrence]),)
        )
        while worklist:
            node, emissions = worklist.popleft()
            if roots.get(node.name) is node:
                results += self._record_root(node.name, emissions)
            edges = subscribers(node)
            if not edges:
                continue
            for emission in emissions:
                for edge in edges:
                    parent = edge.parent
                    if traced:
                        with obs.span(
                            "node.receive",
                            site=self.site,
                            op=parent.kind,
                            node=parent.name,
                            role=edge.role,
                        ) as span:
                            produced = parent.receive(emission, edge.role)
                            span.set(emitted=len(produced))
                    else:
                        produced = parent.receive(emission, edge.role)
                    if produced:
                        worklist.append((parent, produced))
        return results

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
        """A fresh detector with the same registrations and no state.

        The twin shares expressions, names, contexts, site label, and
        timer ratio, but none of the buffered occurrences, detections,
        or callbacks — the anytime layer
        (:class:`~repro.detection.approximate.ApproximateStabilizer`)
        uses one as the eagerly-fed shadow engine.  Registrations made
        on either detector after cloning are not reflected in the other.
        """
        twin = Detector(
            site if site is not None else self.site,
            self.timer_ratio,
            instrumentation=instrumentation,
        )
        for expression, name, context in self._registrations:
            twin.register(expression, name=name, context=context)
        return twin

    # --- introspection ----------------------------------------------------

    def detections_of(self, name: str) -> list[EventOccurrence]:
        """All logged occurrences of one registered composite event;
        raises :class:`~repro.errors.DetectionError` for a rule whose
        callbacks own its detections (see :meth:`register`)."""
        return logged_occurrences(self, name)

    def pending_timers(self) -> int:
        """Number of timers not yet fired."""
        return len(self._timer_heap)

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
