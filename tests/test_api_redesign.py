"""Tests for the unified ingestion/subscription API.

``DistributedSystem.inject`` / ``Detector.feed`` are the documented
entrypoints.
"""

import warnings
from fractions import Fraction

import pytest

from repro.detection.coordinator import DistributedDetector
from repro.detection.detector import Detector
from repro.errors import SimulationError, UnknownSiteError
from repro.events.occurrences import EventOccurrence
from repro.events.parser import parse_expression
from repro.sim.cluster import DistributedSystem
from repro.sim.config import SimConfig
from repro.sim.workloads import WorkloadEvent
from repro.time.timestamps import PrimitiveTimestamp


def ts(site, g, l):
    return PrimitiveTimestamp(site, g, l)


def two_site_system():
    system = DistributedSystem(["s1", "s2"], config=SimConfig(seed=1))
    system.set_home("a", "s1")
    system.set_home("b", "s2")
    return system


class TestDetectorFeed:
    def test_feed_event_type_and_stamp(self):
        detector = Detector()
        detector.register("a ; b", name="seq")
        detector.feed("a", ts("s1", 1, 10))
        detections = detector.feed("b", ts("s1", 2, 20))
        assert len(detections) == 1

    def test_feed_occurrence(self):
        detector = Detector()
        detector.register("a ; b", name="seq")
        detector.feed(EventOccurrence.primitive("a", ts("s1", 1, 10)))
        detections = detector.feed(EventOccurrence.primitive("b", ts("s1", 2, 20)))
        assert len(detections) == 1

    def test_feed_parameters_keyword(self):
        detector = Detector()
        detector.register("a", name="alone")
        detections = detector.feed("a", ts("s1", 1, 10), parameters={"v": 7})
        assert detections[0].occurrence.parameters == {"v": 7}

    def test_feed_event_type_requires_stamp(self):
        detector = Detector()
        detector.register("a", name="alone")
        with pytest.raises(TypeError):
            detector.feed("a")

    def test_feed_occurrence_rejects_stamp(self):
        detector = Detector()
        detector.register("a", name="alone")
        occurrence = EventOccurrence.primitive("a", ts("s1", 1, 10))
        with pytest.raises(TypeError):
            detector.feed(occurrence, ts("s1", 1, 10))

    def test_register_accepts_expression_object(self):
        detector = Detector()
        root = detector.register(parse_expression("a and b"), name="both")
        assert root.name == "both"
        detector.feed("a", ts("s1", 1, 10))
        assert len(detector.feed("b", ts("s1", 1, 15))) == 1


class TestCoordinatorFeed:
    def test_feed_polymorphism_matches_detector(self):
        coordinator = DistributedDetector(["s1"])
        coordinator.set_home("a", "s1")
        coordinator.register("a", name="alone")
        assert len(coordinator.feed("a", ts("s1", 1, 10))) == 1
        assert len(
            coordinator.feed(EventOccurrence.primitive("a", ts("s1", 2, 20)))
        ) == 1


class TestInject:
    def test_single_event_form(self):
        system = two_site_system()
        system.register("a ; b", name="seq")
        assert system.inject("s1", "a", at=1) == 1
        assert system.inject("s2", "b", at=Fraction(3, 2)) == 1
        system.run()
        assert len(system.detections_of("seq")) == 1

    def test_bulk_form(self):
        system = two_site_system()
        system.register("a ; b", name="seq")
        count = system.inject(
            [
                WorkloadEvent(Fraction(1), "s1", "a", {}),
                WorkloadEvent(Fraction(2), "s2", "b", {}),
            ]
        )
        assert count == 2
        system.run()
        assert len(system.detections_of("seq")) == 1

    def test_single_form_requires_event_and_at(self):
        system = two_site_system()
        with pytest.raises(TypeError):
            system.inject("s1", "a")
        with pytest.raises(TypeError):
            system.inject("s1", at=1)

    def test_single_form_rejects_unknown_site(self):
        system = two_site_system()
        with pytest.raises(UnknownSiteError):
            system.inject("nowhere", "a", at=1)

    def test_bulk_form_rejects_single_kwargs(self):
        system = two_site_system()
        events = [WorkloadEvent(Fraction(1), "s1", "a", {})]
        with pytest.raises(TypeError):
            system.inject(events, at=1)
        with pytest.raises(TypeError):
            system.inject(events, "a")

    def test_parameters_reach_the_detection(self):
        system = two_site_system()
        system.register("a", name="alone")
        system.inject("s1", "a", at=1, parameters={"qty": 10})
        system.run()
        [record] = system.detections_of("alone")
        assert record.detection.occurrence.parameters == {"qty": 10}

    def test_register_accepts_expression_object(self):
        system = two_site_system()
        system.register(parse_expression("a ; b"), name="seq")
        system.inject("s1", "a", at=1)
        system.inject("s2", "b", at=2)
        system.run()
        assert len(system.detections_of("seq")) == 1


class TestSubscribe:
    def test_callback_receives_records(self):
        system = two_site_system()
        system.register("a ; b", name="seq")
        records = []
        system.subscribe("seq", records.append)
        system.inject("s1", "a", at=1)
        system.inject("s2", "b", at=2)
        system.run()
        assert len(records) == 1
        assert records[0].name == "seq"
        assert records[0] is system.detections_of("seq")[0]

    def test_subscribe_before_register(self):
        system = two_site_system()
        hits = []
        system.subscribe("seq", hits.append)
        system.register("a ; b", name="seq")
        system.inject("s1", "a", at=1)
        system.inject("s2", "b", at=2)
        system.run()
        assert len(hits) == 1

    def test_multiple_subscribers(self):
        system = two_site_system()
        system.register("a", name="alone")
        first, second = [], []
        system.subscribe("alone", first.append)
        system.subscribe("alone", second.append)
        system.inject("s1", "a", at=1)
        system.run()
        assert len(first) == len(second) == 1

    def test_unsubscribe(self):
        system = two_site_system()
        system.register("a", name="alone")
        hits = []
        callback = system.subscribe("alone", hits.append)
        system.unsubscribe("alone", callback)
        system.inject("s1", "a", at=1)
        system.run()
        assert hits == []

    def test_unsubscribe_unknown_raises(self):
        system = two_site_system()
        with pytest.raises(SimulationError):
            system.unsubscribe("alone", lambda record: None)


class TestNoWarningsOnNewApi:
    def test_new_entrypoints_are_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = two_site_system()
            system.register("a ; b", name="seq")
            system.subscribe("seq", lambda record: None)
            system.inject("s1", "a", at=1)
            system.inject("s2", "b", at=2)
            system.run()
            detector = Detector()
            detector.register("a", name="alone")
            detector.feed("a", ts("s1", 1, 10))


class TestSimConfig:
    def test_reexported_from_repro(self):
        import repro

        assert repro.SimConfig is SimConfig

    def test_defaults_match_legacy_defaults(self):
        plain = DistributedSystem(["s1", "s2"])
        configured = DistributedSystem(["s1", "s2"], config=SimConfig())
        assert plain.clocks.as_mapping() == configured.clocks.as_mapping()
        assert plain.detector.coordinator == configured.detector.coordinator

    def test_config_is_frozen(self):
        config = SimConfig()
        with pytest.raises(Exception):
            config.seed = 5  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(loss_probability=1.5)
        with pytest.raises(ValueError):
            SimConfig(max_retries=-1)
        with pytest.raises(ValueError):
            SimConfig(retry_timeout=Fraction(0))

    def test_field_names_cover_legacy_keywords(self):
        assert SimConfig.field_names() == (
            "model",
            "seed",
            "latency",
            "perfect_clocks",
            "coordinator",
            "loss_probability",
            "retransmit",
            "max_retries",
            "retry_timeout",
            "instrumentation",
        )


class TestRuleManagerFeed:
    def _manager(self):
        from repro.rules.eca import RuleManager

        detector = Detector()
        detector.register("a", name="alone")
        manager = RuleManager(detector)
        manager.define("log", "alone", action=lambda d: "ran")
        return manager

    def test_feed_is_primary_and_warning_free(self):
        manager = self._manager()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            executions = manager.feed("a", ts("s1", 1, 10))
        assert [e.executed for e in executions] == [True]

    def test_feed_accepts_occurrence(self):
        manager = self._manager()
        occurrence = EventOccurrence.primitive("a", ts("s1", 1, 10))
        executions = manager.feed(occurrence)
        assert [e.rule for e in executions] == ["log"]
