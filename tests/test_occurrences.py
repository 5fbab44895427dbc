"""Unit tests for event occurrences and histories."""

import pytest

from repro.detection.checkpoint import occurrence_to_dict, restore, snapshot
from repro.detection.detector import Detection, Detector
from repro.errors import SimultaneityViolationError
from repro.events.occurrences import EventOccurrence, History
from repro.events.types import EventClass, TypeRegistry
from repro.time.composite import CompositeTimestamp
from tests.conftest import ts


class TestEventOccurrence:
    def test_primitive_builder(self):
        occ = EventOccurrence.primitive("e", ts("a", 5, 50), {"x": 1})
        assert occ.event_type == "e"
        assert occ.parameters == {"x": 1}
        assert occ.is_primitive
        assert occ.site() == "a"

    def test_uid_unique_and_ordered(self):
        a = EventOccurrence.primitive("e", ts("a", 5, 50))
        b = EventOccurrence.primitive("e", ts("a", 5, 51))
        assert a.uid < b.uid
        assert a != b

    def test_equality_is_identity_by_uid(self):
        a = EventOccurrence.primitive("e", ts("a", 5, 50))
        assert a == a
        assert hash(a) == hash(a.uid)

    def test_composite_has_no_site(self):
        a = EventOccurrence.primitive("x", ts("a", 5, 50))
        b = EventOccurrence.primitive("y", ts("b", 6, 60))
        composite = EventOccurrence(
            event_type="c",
            timestamp=CompositeTimestamp(a.timestamp.stamps | b.timestamp.stamps),
            constituents=(a, b),
        )
        assert composite.site() is None
        assert not composite.is_primitive

    def test_primitive_leaves_flatten_provenance(self):
        a = EventOccurrence.primitive("x", ts("a", 5, 50))
        b = EventOccurrence.primitive("y", ts("b", 6, 60))
        inner = EventOccurrence(
            event_type="i", timestamp=a.timestamp, constituents=(a,)
        )
        outer = EventOccurrence(
            event_type="o", timestamp=b.timestamp, constituents=(inner, b)
        )
        assert outer.primitive_leaves() == (a, b)


class TestPlainClassContract:
    """``EventOccurrence``/``Detection`` left ``@dataclass(frozen=True)``
    for a plain slotted ``__init__``; what callers relied on stays."""

    def test_positional_and_keyword_construction_agree(self):
        a = EventOccurrence.primitive("x", ts("a", 5, 50), {"k": 1})
        stamp = a.timestamp
        by_position = EventOccurrence("c", stamp, {"p": 2}, (a,), 7)
        by_keyword = EventOccurrence(
            event_type="c", timestamp=stamp, parameters={"p": 2},
            constituents=(a,), uid=7,
        )  # fmt: skip
        for occurrence in (by_position, by_keyword):
            assert occurrence.event_type == "c"
            assert occurrence.timestamp is stamp
            assert occurrence.parameters == {"p": 2}
            assert occurrence.constituents == (a,)
            assert occurrence.uid == 7
        assert by_position == by_keyword  # same uid
        assert hash(by_position) == hash(by_keyword) == hash(7)

    def test_defaults(self):
        occurrence = EventOccurrence("e", CompositeTimestamp.singleton(ts("a", 1)))
        assert occurrence.parameters == {}
        assert occurrence.constituents == ()
        assert occurrence.is_primitive
        assert not hasattr(occurrence, "__dict__")

    def test_primitive_copies_its_parameters(self):
        given = {"x": 1}
        occurrence = EventOccurrence.primitive("e", ts("a", 5, 50), given)
        given["x"] = 2
        assert occurrence.parameters == {"x": 1}
        assert EventOccurrence.primitive("e", ts("a", 5, 51)).parameters == {}

    def test_repr_names_type_uid_and_stamp(self):
        occurrence = EventOccurrence.primitive("e", ts("a", 5, 50))
        assert repr(occurrence) == (
            f"<e#{occurrence.uid} @ CompositeTimestamp{{(a, 5, 50)}}>"
        )

    def test_detection_is_a_value(self):
        occurrence = EventOccurrence.primitive("e", ts("a", 5, 50))
        other = EventOccurrence.primitive("e", ts("a", 5, 50))
        by_position = Detection("rule", occurrence)
        by_keyword = Detection(name="rule", occurrence=occurrence)
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert by_position != Detection("other", occurrence)
        assert by_position != Detection("rule", other)  # uid-based underneath
        assert by_position != ("rule", occurrence)
        assert repr(by_position) == f"Detection(name='rule', occurrence={occurrence!r})"
        assert not hasattr(by_position, "__dict__")

    def test_checkpoint_round_trip_of_never_read_parameters(self):
        detector = Detector()
        detector.register("(a ; b) ; c", name="abc")
        detector.feed("a", ts("s1", 1, 10), parameters={"k": "a", "x": 1})
        detector.feed("b", ts("s1", 4, 40), parameters={"k": "b"})
        (inner,) = detector.graph.roots["abc"]._firsts
        assert inner._parameters is None  # emitted, never read
        restored = Detector()
        restored.register("(a ; b) ; c", name="abc")
        restore(restored, snapshot(detector))
        (copy,) = restored.graph.roots["abc"]._firsts
        assert copy.parameters == {"k": "b", "x": 1}
        assert [c.parameters for c in copy.constituents] == [
            {"k": "a", "x": 1}, {"k": "b"},
        ]  # fmt: skip
        assert occurrence_to_dict(inner)["parameters"] == {"k": "b", "x": 1}
        (detection,) = restored.feed("c", ts("s1", 8, 80), parameters={"x": 3})
        assert detection.occurrence.parameters == {"k": "b", "x": 3}


class TestHistory:
    def test_record_and_len(self):
        h = History()
        h.record("e", ts("a", 5, 50))
        assert len(h) == 1

    def test_of_type_filters(self):
        h = History()
        h.record("x", ts("a", 5, 50))
        h.record("y", ts("a", 5, 51))
        h.record("x", ts("a", 5, 52))
        assert len(h.of_type("x")) == 2

    def test_at_site(self):
        h = History()
        h.record("x", ts("a", 5, 50))
        h.record("x", ts("b", 5, 50))
        assert len(h.at_site("a")) == 1

    def test_types(self):
        h = History()
        h.record("x", ts("a", 5, 50))
        h.record("y", ts("a", 5, 51))
        assert h.types() == {"x", "y"}

    def test_filtered(self):
        h = History()
        h.record("x", ts("a", 5, 50), {"v": 1})
        h.record("x", ts("a", 5, 51), {"v": 9})
        small = h.filtered(lambda o: o.parameters["v"] < 5)
        assert len(small) == 1

    def test_indexing(self):
        h = History()
        first = h.record("x", ts("a", 5, 50))
        assert h[0] is first


class TestSimultaneityValidation:
    def make_registry(self):
        registry = TypeRegistry()
        registry.define("db1", EventClass.DATABASE)
        registry.define("db2", EventClass.DATABASE)
        registry.define("exp1", EventClass.EXPLICIT)
        registry.define("tmp1", EventClass.TEMPORAL)
        return registry

    def test_two_database_events_same_tick_rejected(self):
        registry = self.make_registry()
        h = History()
        h.record("db1", ts("a", 5, 50))
        h.record("db2", ts("a", 5, 50))
        with pytest.raises(SimultaneityViolationError):
            h.validate_simultaneity(registry)

    def test_database_and_explicit_same_tick_allowed(self):
        registry = self.make_registry()
        h = History()
        h.record("db1", ts("a", 5, 50))
        h.record("exp1", ts("a", 5, 50))
        h.validate_simultaneity(registry)

    def test_temporal_events_may_coincide(self):
        registry = self.make_registry()
        h = History()
        h.record("tmp1", ts("a", 5, 50))
        h.record("tmp1", ts("a", 5, 50))
        h.validate_simultaneity(registry)

    def test_different_sites_never_simultaneous(self):
        registry = self.make_registry()
        h = History()
        h.record("db1", ts("a", 5, 50))
        h.record("db2", ts("b", 5, 50))
        h.validate_simultaneity(registry)

    def test_unknown_types_tolerated(self):
        registry = self.make_registry()
        h = History()
        h.record("mystery", ts("a", 5, 50))
        h.record("mystery", ts("a", 5, 50))
        h.validate_simultaneity(registry)

    def test_same_database_type_same_tick_rejected(self):
        registry = self.make_registry()
        h = History()
        h.record("db1", ts("a", 5, 50))
        h.record("db1", ts("a", 5, 50))
        with pytest.raises(SimultaneityViolationError):
            h.validate_simultaneity(registry)
