"""Event occurrences and histories.

An :class:`EventOccurrence` is one instance of an event — primitive or
composite — carrying:

* the event type name,
* its distributed composite timestamp (a primitive occurrence carries a
  singleton composite stamp, per Definition 5.2 every composite stamp is
  built from primitive triples),
* the event parameters (the paper propagates "event name and event
  parameters" alongside the timestamp), and
* its *constituents* — for a composite occurrence, the primitive
  occurrences that made it happen, preserving full provenance for the
  cumulative operators (``A*``) and for rule conditions.

A :class:`History` is a finite, validated record of primitive occurrences
— the input to both the denotational semantics (the oracle) and the
operational detectors.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import SimultaneityViolationError, UnknownEventTypeError
from repro.events.types import EventClass, TypeRegistry
from repro.time.composite import CompositeTimestamp
from repro.time.timestamps import PrimitiveTimestamp

_next_uid = itertools.count(1).__next__


class EventOccurrence:
    """One occurrence of a (primitive or composite) event.

    Instances are treated as immutable; ``uid`` is a process-unique
    sequence number used for stable ordering and deduplication in
    detector state.  ``parameters=None`` means "whatever the
    constituents carry": the merge (later constituent wins ties) is
    built on first read, so a detection nobody inspects never pays for
    the dictionary.
    """

    __slots__ = ("event_type", "timestamp", "_parameters", "constituents", "uid")

    def __init__(
        self,
        event_type: str,
        timestamp: CompositeTimestamp,
        parameters: Mapping[str, Any] | None = None,
        constituents: tuple["EventOccurrence", ...] = (),
        uid: int | None = None,
    ) -> None:
        self.event_type = event_type
        self.timestamp = timestamp
        self._parameters = parameters
        self.constituents = constituents
        self.uid = _next_uid() if uid is None else uid

    @classmethod
    def primitive(
        cls,
        event_type: str,
        stamp: PrimitiveTimestamp,
        parameters: Mapping[str, Any] | None = None,
    ) -> "EventOccurrence":
        """Build a primitive occurrence from a single primitive stamp."""
        return cls(
            event_type,
            CompositeTimestamp.singleton(stamp),
            dict(parameters or {}),
        )

    @property
    def parameters(self) -> Mapping[str, Any]:
        """The event parameters; a composite's default is its constituents' merge."""
        merged = self._parameters
        if merged is None:
            merged = {}
            for constituent in self.constituents:
                merged.update(constituent.parameters)
            self._parameters = merged
        return merged

    @property
    def is_primitive(self) -> bool:
        """Whether this occurrence has no constituents of its own."""
        return not self.constituents

    def site(self) -> str | None:
        """The site of a primitive occurrence, ``None`` for composites."""
        if len(self.timestamp) == 1 and self.is_primitive:
            (stamp,) = self.timestamp.stamps
            return stamp.site
        return None

    def primitive_leaves(self) -> tuple["EventOccurrence", ...]:
        """The primitive occurrences at the leaves of the provenance tree."""
        if self.is_primitive:
            return (self,)
        leaves: list[EventOccurrence] = []
        for constituent in self.constituents:
            leaves.extend(constituent.primitive_leaves())
        return tuple(leaves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventOccurrence):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.event_type}#{self.uid} @ {self.timestamp!r}>"


class History:
    """A finite record of primitive occurrences across all sites.

    The history is kept in arrival order; per-site sub-histories are
    available via :meth:`at_site`.  :meth:`validate_simultaneity` enforces
    the Section 3.1 assumptions against a type registry.

    >>> from repro.time.timestamps import PrimitiveTimestamp
    >>> h = History()
    >>> _ = h.record("e1", PrimitiveTimestamp("s1", 5, 50))
    >>> len(h)
    1
    """

    def __init__(self, occurrences: Iterable[EventOccurrence] = ()) -> None:
        self._occurrences: list[EventOccurrence] = list(occurrences)

    def record(
        self,
        event_type: str,
        stamp: PrimitiveTimestamp,
        parameters: Mapping[str, Any] | None = None,
    ) -> EventOccurrence:
        """Append a primitive occurrence and return it."""
        occurrence = EventOccurrence.primitive(event_type, stamp, parameters)
        self._occurrences.append(occurrence)
        return occurrence

    def add(self, occurrence: EventOccurrence) -> None:
        """Append an existing occurrence."""
        self._occurrences.append(occurrence)

    def of_type(self, event_type: str) -> list[EventOccurrence]:
        """All occurrences of one event type, in arrival order."""
        return [o for o in self._occurrences if o.event_type == event_type]

    def at_site(self, site: str) -> list[EventOccurrence]:
        """All primitive occurrences raised at one site."""
        return [o for o in self._occurrences if o.site() == site]

    def types(self) -> set[str]:
        """The set of event-type names appearing in the history."""
        return {o.event_type for o in self._occurrences}

    def filtered(self, predicate: Callable[[EventOccurrence], bool]) -> "History":
        """A new history containing the occurrences matching ``predicate``."""
        return History(o for o in self._occurrences if predicate(o))

    def validate_simultaneity(self, registry: TypeRegistry) -> None:
        """Enforce the Section 3.1 simultaneity assumptions.

        Two occurrences are *simultaneous* when their primitive stamps
        are (same site, same local tick).  Raises
        :class:`SimultaneityViolationError` when two database events or
        two explicit events are simultaneous.
        """
        seen: dict[tuple[str, int, EventClass], EventOccurrence] = {}
        for occurrence in self._occurrences:
            site = occurrence.site()
            if site is None:
                continue
            try:
                event_class = registry.get(occurrence.event_type).event_class
            except UnknownEventTypeError:
                continue
            if not event_class.excludes_simultaneity:
                continue
            (stamp,) = occurrence.timestamp.stamps
            key = (site, stamp.local, event_class)
            previous = seen.get(key)
            if previous is not None:
                raise SimultaneityViolationError(
                    f"two {event_class.value} events are simultaneous at "
                    f"site {site!r}, local tick {stamp.local}: "
                    f"{previous.event_type!r} and {occurrence.event_type!r}"
                )
            seen[key] = occurrence

    def __iter__(self) -> Iterator[EventOccurrence]:
        return iter(self._occurrences)

    def __len__(self) -> int:
        return len(self._occurrences)

    def __getitem__(self, index: int) -> EventOccurrence:
        return self._occurrences[index]


__all__ = ["EventOccurrence", "History"]
