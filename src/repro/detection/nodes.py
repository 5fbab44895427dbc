"""Operator node state machines for the event detection graph.

Each composite-event operator is detected by a node that buffers
constituent occurrences arriving from its children (tagged with a *role*)
and emits composite occurrences whose timestamps are assembled with the
``Max`` operator (Section 5.2) — the timestamp a node propagates is the
max-set of the constituents' primitive triples, exactly the paper's
distributed composite timestamp.

Consumption is governed by a :class:`repro.contexts.policies.Context`.
In the ``UNRESTRICTED`` context the nodes are *order-insensitive*: they
buffer both sides and emit every valid combination regardless of arrival
order, so distributed out-of-order delivery cannot lose detections and
the node output equals the denotational oracle
(:func:`repro.events.semantics.evaluate`).  The consuming contexts follow
Sentinel's operational behaviour (initiator buffers, terminator-driven
detection) and are therefore sensitive to arrival order — the CTX
benchmark quantifies the difference.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Protocol, Sequence

from repro.contexts.policies import Context, select_initiators
from repro.errors import DetectionError
from repro.events.occurrences import EventOccurrence
from repro.time.composite import (
    CompositeTimestamp,
    composite_happens_before,
    max_of,
    max_of_many,
)
from repro.time.timestamps import PrimitiveTimestamp

ROLE_LEFT = "left"
ROLE_RIGHT = "right"
ROLE_FIRST = "first"
ROLE_SECOND = "second"
ROLE_OPENER = "opener"
ROLE_BODY = "body"
ROLE_CLOSER = "closer"
ROLE_NEGATED = "negated"


class TimerService(Protocol):
    """What temporal nodes need from the engine: one-shot timers.

    ``schedule(node, fire_global, payload)`` arranges for
    ``node.on_timer(stamp, payload)`` to be invoked when the engine's
    clock reaches ``fire_global`` granules.
    """

    def schedule(self, node: "Node", fire_global: int, payload: Any) -> None:
        ...  # pragma: no cover - protocol


class Node:
    """Base class for graph nodes.

    ``name`` labels emitted occurrences; leaves of the graph are
    :class:`PrimitiveNode` instances keyed by event-type name.
    ``kind`` is the operator's stable label, used by the observability
    layer to group per-operator metrics across differently named nodes.
    """

    kind = "node"

    def __init__(self, name: str, context: Context = Context.UNRESTRICTED) -> None:
        self.name = name
        self.context = context
        self.emitted_count = 0

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        """Process a constituent occurrence; return new detections."""
        raise NotImplementedError

    def on_timer(
        self, stamp: CompositeTimestamp, payload: Any
    ) -> list[EventOccurrence]:
        """Handle a timer tick (temporal nodes only)."""
        raise DetectionError(f"node {self.name!r} does not accept timers")

    def prune_before(self, global_time: int) -> int:
        """Drop buffered occurrences entirely before ``global_time``.

        Garbage collection for long-running detectors: an occurrence
        whose latest global granule is below the horizon can never pair
        with future events in a consuming context and is unlikely to
        matter in unrestricted mode either (the caller chooses the
        horizon).  Returns the number of occurrences dropped; stateless
        nodes return 0.
        """
        return sum(_prune_list(b, global_time) for b in self.buffers().values())

    def buffered(self) -> int:
        """Occurrences this node currently holds (0 for stateless nodes)."""
        return sum(len(b) for b in self.buffers().values())

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        """The occurrence buffers this node holds, by checkpoint key: what
        pruning, counting and checkpointing each walk.  Stateless nodes
        have none."""
        return {}

    def _emit(
        self,
        constituents: tuple[EventOccurrence, ...],
        parameters: dict | None = None,
        timestamp: CompositeTimestamp | None = None,
    ) -> EventOccurrence:
        """Build one detection: ``Max`` over constituents, merged parameters.

        The n-ary emitter (cumulative operators, consuming contexts,
        pass-through nodes); binary UNRESTRICTED pairing goes through
        :meth:`_emit_pairs`.  Nodes that maintain their accumulator's
        max-set incrementally (e.g. :class:`TimesNode`) pass the
        precomputed ``timestamp`` — by Theorem 5.4 the incremental fold
        equals the one-shot ``max_of_many`` computed here otherwise.
        Without operator ``parameters`` the occurrence merges its
        constituents' on first read.
        """
        self.emitted_count += 1
        merged = None
        if parameters:
            merged = {}
            for constituent in constituents:
                merged.update(constituent.parameters)
            merged.update(parameters)
        if timestamp is None:
            timestamp = max_of_many([c.timestamp for c in constituents])
        return EventOccurrence(self.name, timestamp, merged, constituents)

    def _emit_pairs(
        self,
        partners: list[EventOccurrence],
        occurrence: EventOccurrence,
        partner_first: bool = True,
        ordered: bool = True,
    ) -> list[EventOccurrence]:
        """One detection per partner of ``occurrence``, in ``partners`` order.

        ``partner_first`` puts the partner before ``occurrence`` in the
        constituents; ``ordered`` says the first constituent is already
        known to happen before the second.  For two singleton stamps
        that makes ``Max`` the second stamp itself (``{a} <_p {b}`` iff
        ``a < b``, so ``max({a, b}) = {b}``) and the fold is skipped;
        composite stamps always fold, because ``<_p`` does not imply
        domination (Theorem 5.4 holds under ``<_g`` only).
        """
        self.emitted_count += len(partners)
        name = self.name
        stamp = occurrence.timestamp
        skip_fold = ordered and len(stamp._stamps) == 1
        detections = []
        for partner in partners:
            pair = (partner, occurrence) if partner_first else (occurrence, partner)
            held = partner.timestamp
            if skip_fold and len(held._stamps) == 1:
                later = stamp if partner_first else held
            else:
                later = max_of(pair[0].timestamp, pair[1].timestamp)
            detections.append(EventOccurrence(name, later, None, pair))
        return detections


class PrimitiveNode(Node):
    """A leaf: re-emits primitive occurrences of one event type."""

    kind = "primitive"

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        return [occurrence]


class OrNode(Node):
    """Disjunction: emit on any arrival from either side."""

    kind = "or"

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        return [self._emit((occurrence,))]


class FilterNode(Node):
    """Parameter filter: pass occurrences whose parameters match.

    A stateless guard (Sentinel's event mask); filtering at the child's
    site keeps non-matching occurrences off the network entirely.
    """

    kind = "filter"

    def __init__(
        self,
        name: str,
        predicate: Callable[[dict], bool],
        context: Context = Context.UNRESTRICTED,
    ) -> None:
        super().__init__(name, context)
        self.predicate = predicate

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if not self.predicate(dict(occurrence.parameters)):
            return []
        return [self._emit((occurrence,))]


class AndNode(Node):
    """Conjunction: both sides, any order; ``ts = Max(t1, t2)``.

    Either side acts as terminator for the buffered opposite side; under
    consuming contexts the context policy is applied to the opposite
    (initiator) buffer.
    """

    kind = "and"

    def __init__(self, name: str, context: Context = Context.UNRESTRICTED) -> None:
        super().__init__(name, context)
        self._buffers: dict[str, list[EventOccurrence]] = {
            ROLE_LEFT: [],
            ROLE_RIGHT: [],
        }

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role not in self._buffers:
            raise DetectionError(f"AndNode {self.name!r} got unknown role {role!r}")
        opposite = ROLE_RIGHT if role == ROLE_LEFT else ROLE_LEFT
        if self.context is Context.UNRESTRICTED:
            detections = self._emit_pairs(
                self._buffers[opposite],
                occurrence,
                partner_first=opposite == ROLE_LEFT,
                ordered=False,
            )
        else:
            # select_initiators reads the buffer without mutating it, and
            # _prune runs only after the groups are materialised as tuples.
            selection = select_initiators(self.context, self._buffers[opposite])
            detections = []
            for group in selection.groups:
                ordered = (*group, occurrence) if opposite == ROLE_LEFT else (occurrence, *group)
                detections.append(self._emit(ordered))
            _prune(self._buffers[opposite], selection.consumed + selection.discarded)
        self._buffers[role].append(occurrence)
        return detections

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        return self._buffers


class SequenceNode(Node):
    """Sequence ``E1 ; E2``: pairs with ``T(first) <_p T(second)``.

    Unrestricted context buffers both sides (order-insensitive, matches
    the oracle under out-of-order delivery); consuming contexts buffer
    only initiators (firsts) and detect on terminator (second) arrival.
    """

    kind = "sequence"

    def __init__(self, name: str, context: Context = Context.UNRESTRICTED) -> None:
        super().__init__(name, context)
        self._firsts: list[EventOccurrence] = []
        self._seconds: list[EventOccurrence] = []

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role == ROLE_FIRST:
            self._firsts.append(occurrence)
            if self.context is Context.UNRESTRICTED:
                return self._emit_pairs(
                    _after(self._seconds, occurrence.timestamp),
                    occurrence,
                    partner_first=False,
                )
            return []
        if role == ROLE_SECOND:
            eligible = _before(self._firsts, occurrence.timestamp)
            if self.context is Context.UNRESTRICTED:
                self._seconds.append(occurrence)
                return self._emit_pairs(eligible, occurrence)
            selection = select_initiators(self.context, eligible)
            detections = [
                self._emit((*group, occurrence)) for group in selection.groups
            ]
            _prune(self._firsts, selection.consumed + selection.discarded)
            return detections
        raise DetectionError(f"SequenceNode {self.name!r} got unknown role {role!r}")

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        return {"firsts": self._firsts, "seconds": self._seconds}


class NotNode(Node):
    """Non-occurrence ``¬(E2)[E1, E3]``.

    Openers are buffered; negated occurrences are recorded; a closer
    triggers detection for the context-selected openers whose open
    interval to the closer contains no negated occurrence.
    """

    kind = "not"

    def __init__(self, name: str, context: Context = Context.UNRESTRICTED) -> None:
        super().__init__(name, context)
        self._openers: list[EventOccurrence] = []
        self._negated: list[EventOccurrence] = []
        self._closers: list[EventOccurrence] = []

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role == ROLE_OPENER:
            self._openers.append(occurrence)
            if self.context is Context.UNRESTRICTED:
                return self._pair_late_opener(occurrence)
            return []
        if role == ROLE_NEGATED:
            self._negated.append(occurrence)
            return []
        if role == ROLE_CLOSER:
            eligible = [
                opener
                for opener in _before(self._openers, occurrence.timestamp)
                if not self._blocked(opener, occurrence)
            ]
            if self.context is Context.UNRESTRICTED:
                self._closers.append(occurrence)
                return self._emit_pairs(eligible, occurrence)
            selection = select_initiators(self.context, eligible)
            detections = [
                self._emit((*group, occurrence)) for group in selection.groups
            ]
            _prune(self._openers, selection.consumed + selection.discarded)
            return detections
        raise DetectionError(f"NotNode {self.name!r} got unknown role {role!r}")

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        return {
            "openers": self._openers,
            "negated": self._negated,
            "closers": self._closers,
        }

    def _pair_late_opener(self, opener: EventOccurrence) -> list[EventOccurrence]:
        """Out-of-order support: an opener arriving after its closer."""
        closers = [
            closer
            for closer in _after(self._closers, opener.timestamp)
            if not self._blocked(opener, closer)
        ]
        return self._emit_pairs(closers, opener, partner_first=False)

    def _blocked(self, opener: EventOccurrence, closer: EventOccurrence) -> bool:
        return any(
            composite_happens_before(opener.timestamp, negated.timestamp)
            and composite_happens_before(negated.timestamp, closer.timestamp)
            for negated in self._negated
        )


class AperiodicNode(Node):
    """Non-cumulative aperiodic ``A(E1, E2, E3)``.

    Emits on each body occurrence inside a window opened by ``E1`` and
    not closed by an intervening ``E3`` (a closer strictly between the
    opener and the body).  Consuming contexts additionally retire openers
    when a closer arrives.
    """

    kind = "aperiodic"

    def __init__(self, name: str, context: Context = Context.UNRESTRICTED) -> None:
        super().__init__(name, context)
        self._openers: list[EventOccurrence] = []
        self._closers: list[EventOccurrence] = []

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role == ROLE_OPENER:
            self._openers.append(occurrence)
            return []
        if role == ROLE_CLOSER:
            self._closers.append(occurrence)
            if self.context is not Context.UNRESTRICTED:
                _prune(self._openers, _before(self._openers, occurrence.timestamp))
            return []
        if role == ROLE_BODY:
            eligible = [
                opener
                for opener in _before(self._openers, occurrence.timestamp)
                if not self._window_closed(opener, occurrence)
            ]
            if self.context is Context.UNRESTRICTED:
                return self._emit_pairs(eligible, occurrence)
            selection = select_initiators(self.context, eligible)
            return [self._emit((*group, occurrence)) for group in selection.groups]
        raise DetectionError(f"AperiodicNode {self.name!r} got unknown role {role!r}")

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        return {"openers": self._openers, "closers": self._closers}

    def _window_closed(
        self, opener: EventOccurrence, body: EventOccurrence
    ) -> bool:
        return any(
            composite_happens_before(opener.timestamp, closer.timestamp)
            and composite_happens_before(closer.timestamp, body.timestamp)
            for closer in self._closers
        )


class AperiodicStarNode(Node):
    """Cumulative aperiodic ``A*(E1, E2, E3)``: emit on the closer.

    Bodies are buffered; on a closer, each context-selected opener emits
    one detection accumulating the bodies strictly inside its window.
    """

    kind = "aperiodic*"

    def __init__(self, name: str, context: Context = Context.UNRESTRICTED) -> None:
        super().__init__(name, context)
        self._openers: list[EventOccurrence] = []
        self._bodies: list[EventOccurrence] = []

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role == ROLE_OPENER:
            self._openers.append(occurrence)
            return []
        if role == ROLE_BODY:
            self._bodies.append(occurrence)
            return []
        if role == ROLE_CLOSER:
            selection = select_initiators(
                self.context, _before(self._openers, occurrence.timestamp)
            )
            detections = []
            for group in selection.groups:
                for opener in group:
                    window = [
                        body
                        for body in self._bodies
                        if composite_happens_before(opener.timestamp, body.timestamp)
                        and composite_happens_before(
                            body.timestamp, occurrence.timestamp
                        )
                    ]
                    detections.append(
                        self._emit(
                            (opener, *window, occurrence),
                            parameters={
                                "accumulated": tuple(
                                    dict(body.parameters) for body in window
                                )
                            },
                        )
                    )
            consumed = selection.consumed + selection.discarded
            _prune(self._openers, consumed)
            return detections
        raise DetectionError(
            f"AperiodicStarNode {self.name!r} got unknown role {role!r}"
        )

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        return {"openers": self._openers, "bodies": self._bodies}


class TimesNode(Node):
    """Frequency ``times(n, E)``: emit on every ``n``-th arrival.

    Arrivals are batched in delivery order; under in-timestamp-order
    delivery this matches the oracle's canonical linearization.
    """

    kind = "times"

    def __init__(
        self, name: str, count: int, context: Context = Context.UNRESTRICTED
    ) -> None:
        super().__init__(name, context)
        self.count = count
        self._pending: list[EventOccurrence] = []
        # Running Max over the pending batch, folded per arrival so the
        # n-th arrival emits without rescanning the accumulated batch.
        self._acc: CompositeTimestamp | None = None

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role != ROLE_BODY:
            raise DetectionError(f"TimesNode {self.name!r} got unknown role {role!r}")
        self._pending.append(occurrence)
        acc = self._acc
        self._acc = (
            occurrence.timestamp
            if acc is None
            else max_of(acc, occurrence.timestamp)
        )
        if len(self._pending) < self.count:
            return []
        batch = tuple(self._pending)
        stamp = self._acc
        self._pending = []
        self._acc = None
        return [
            self._emit(batch, parameters={"count": self.count}, timestamp=stamp)
        ]

    def buffers(self) -> dict[str, list[EventOccurrence]]:
        return {"pending": self._pending}

    def prune_before(self, global_time: int) -> int:
        dropped = super().prune_before(global_time)
        if dropped:
            self.refold()
        return dropped

    def refold(self) -> None:
        """Rebuild the running Max after the pending batch was replaced
        (pruned, or restored from a checkpoint)."""
        self._acc = (
            max_of_many(o.timestamp for o in self._pending)
            if self._pending
            else None
        )


class _Window:
    """An open periodic window: opener plus the ticks fired so far."""

    __slots__ = ("opener", "ticks", "next_tick", "closed")

    def __init__(self, opener: EventOccurrence, next_tick: int) -> None:
        self.opener = opener
        self.ticks: list[EventOccurrence] = []
        self.next_tick = next_tick
        self.closed = False


class PeriodicNode(Node):
    """Periodic ``P(E1, period, E3)`` / cumulative ``P*``.

    Relies on a :class:`TimerService` (wired by the detector): each
    opener schedules a tick every ``period`` granules until a closer
    arrives.  ``P`` emits on each tick; ``P*`` accumulates and emits on
    the closer.
    """

    kind = "periodic"

    def __init__(
        self,
        name: str,
        period: int,
        cumulative: bool,
        context: Context = Context.UNRESTRICTED,
    ) -> None:
        super().__init__(name, context)
        self.period = period
        self.cumulative = cumulative
        self._timers: TimerService | None = None
        self._windows: list[_Window] = []

    def bind_timers(self, timers: TimerService) -> None:
        """Attach the engine's timer service (done at graph build)."""
        self._timers = timers

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role == ROLE_OPENER:
            if self._timers is None:
                raise DetectionError(
                    f"PeriodicNode {self.name!r} has no timer service bound"
                )
            fire_at = occurrence.timestamp.global_span()[1] + self.period
            window = _Window(occurrence, fire_at)
            self._windows.append(window)
            self._timers.schedule(self, fire_at, window)
            return []
        if role == ROLE_CLOSER:
            detections = []
            for window in self._windows:
                if window.closed:
                    continue
                if composite_happens_before(
                    window.opener.timestamp, occurrence.timestamp
                ):
                    window.closed = True
                    if self.cumulative:
                        ticks = [
                            tick
                            for tick in window.ticks
                            if composite_happens_before(
                                tick.timestamp, occurrence.timestamp
                            )
                        ]
                        detections.append(
                            self._emit(
                                (window.opener, *ticks, occurrence),
                                parameters={
                                    "ticks": tuple(
                                        t.parameters["tick_global"] for t in ticks
                                    )
                                },
                            )
                        )
            self._windows = [w for w in self._windows if not w.closed]
            return detections
        raise DetectionError(f"PeriodicNode {self.name!r} got unknown role {role!r}")

    def on_timer(
        self, stamp: CompositeTimestamp, payload: Any
    ) -> list[EventOccurrence]:
        window: _Window = payload
        if window.closed or self._timers is None:
            return []
        tick_global = window.next_tick
        tick = EventOccurrence(
            event_type=f"{self.name}.tick",
            timestamp=stamp,
            parameters={"tick_global": tick_global},
        )
        window.ticks.append(tick)
        window.next_tick = tick_global + self.period
        self._timers.schedule(self, window.next_tick, window)
        if self.cumulative:
            return []
        return [self._emit((window.opener, tick))]

    def buffered(self) -> int:
        """Each open window's opener plus the ticks it has accumulated."""
        return sum(1 + len(w.ticks) for w in self._windows if not w.closed)


class PlusNode(Node):
    """Temporal offset ``E1 + offset`` granules."""

    kind = "plus"

    def __init__(
        self,
        name: str,
        offset: int,
        context: Context = Context.UNRESTRICTED,
    ) -> None:
        super().__init__(name, context)
        self.offset = offset
        self._timers: TimerService | None = None

    def bind_timers(self, timers: TimerService) -> None:
        """Attach the engine's timer service (done at graph build)."""
        self._timers = timers

    def receive(self, occurrence: EventOccurrence, role: str) -> list[EventOccurrence]:
        if role != ROLE_OPENER:
            raise DetectionError(f"PlusNode {self.name!r} got unknown role {role!r}")
        if self._timers is None:
            raise DetectionError(f"PlusNode {self.name!r} has no timer service bound")
        fire_at = occurrence.timestamp.global_span()[1] + self.offset
        self._timers.schedule(self, fire_at, occurrence)
        return []

    def on_timer(
        self, stamp: CompositeTimestamp, payload: Any
    ) -> list[EventOccurrence]:
        base: EventOccurrence = payload
        (tick_stamp,) = stamp.stamps
        tick = EventOccurrence(
            event_type=f"{self.name}.tick",
            timestamp=stamp,
            parameters={"tick_global": tick_stamp.global_time},
        )
        return [self._emit((base, tick))]


def _before(
    buffer: list[EventOccurrence], stamp: CompositeTimestamp
) -> list[EventOccurrence]:
    """Partner selection: the buffered ``o`` with ``T(o) <_p stamp``, in order.

    Definition 5.3.2 with the loop invariants hoisted: against a
    singleton ``stamp = {b}`` a singleton ``{a}`` is decided by Definition
    4.7 on the integer fields alone, and a composite ``T(o)`` by one
    ``exists_lt`` on its extrema digest.
    """
    if len(stamp._stamps) != 1:
        return [o for o in buffer if composite_happens_before(o.timestamp, stamp)]
    (b,) = stamp._stamps
    sid = b._sid
    local = b.local
    bound = b.global_time - 1
    picked = []
    for o in buffer:
        held = o.timestamp
        if len(held._stamps) == 1:
            (a,) = held._stamps
            if a.local < local if a._sid == sid else a.global_time < bound:
                picked.append(o)
        elif held.summary.exists_lt(b):
            picked.append(o)
    return picked


def _after(
    buffer: list[EventOccurrence], stamp: CompositeTimestamp
) -> list[EventOccurrence]:
    """Partner selection: the buffered ``o`` with ``stamp <_p T(o)``, in order."""
    if len(stamp._stamps) != 1:
        return [o for o in buffer if composite_happens_before(stamp, o.timestamp)]
    (a,) = stamp._stamps
    sid = a._sid
    local = a.local
    bound = a.global_time + 1
    picked = []
    for o in buffer:
        held = o.timestamp
        if len(held._stamps) == 1:
            (b,) = held._stamps
            if local < b.local if b._sid == sid else bound < b.global_time:
                picked.append(o)
        elif composite_happens_before(stamp, held):
            picked.append(o)
    return picked


def _prune_list(buffer: list[EventOccurrence], global_time: int) -> int:
    """Drop occurrences whose latest granule is below ``global_time``."""
    before = len(buffer)
    buffer[:] = [
        o for o in buffer if o.timestamp.global_span()[1] >= global_time
    ]
    return before - len(buffer)


def _prune(buffer: list[EventOccurrence], remove: Sequence[EventOccurrence]) -> None:
    """Remove occurrences (by identity) from a buffer, preserving order."""
    if not remove:
        return
    if len(remove) == 1:
        uid = remove[0].uid
        for index, occurrence in enumerate(buffer):
            if occurrence.uid == uid:
                del buffer[index]
                return
        return
    doomed = {occurrence.uid for occurrence in remove}
    buffer[:] = [o for o in buffer if o.uid not in doomed]


def make_timer_stamp(
    timer_site: str, global_time: int, ratio: int = 1
) -> CompositeTimestamp:
    """The singleton composite stamp of a timer tick."""
    return CompositeTimestamp.singleton(
        PrimitiveTimestamp(
            site=timer_site, global_time=global_time, local=global_time * ratio
        )
    )
