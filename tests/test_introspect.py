"""Tests for engine introspection."""

import pytest

from repro.contexts.policies import Context
from repro.detection.detector import Detector
from repro.detection.introspect import inspect_detector, node_buffered
from tests.conftest import ts


@pytest.fixture
def busy_detector():
    detector = Detector()
    detector.register("a ; b", name="seq")
    detector.register("A*(o, m, c)", name="batch", context=Context.CHRONICLE)
    detector.register("e + 5", name="later")
    detector.feed("a", ts("s1", 1, 10))
    detector.feed("a", ts("s1", 2, 21))
    detector.feed("o", ts("s2", 1, 11))
    detector.feed("m", ts("s3", 4, 40))
    detector.feed("e", ts("s1", 3, 33))
    return detector


class TestInspect:
    def test_node_and_edge_counts(self, busy_detector):
        report = inspect_detector(busy_detector)
        assert report.primitive_count == 6  # a b o m c e
        assert report.operator_count == 3  # seq, batch, later
        assert report.edge_count == 6  # 2 + 3 + 1 subscriptions

    def test_roots_listed(self, busy_detector):
        report = inspect_detector(busy_detector)
        assert report.root_names == ["batch", "later", "seq"]

    def test_buffer_accounting(self, busy_detector):
        report = inspect_detector(busy_detector)
        assert report.by_name("seq").buffered == 2
        assert report.by_name("batch").buffered == 2  # opener + body
        assert report.total_buffered == 4

    def test_timers_counted(self, busy_detector):
        report = inspect_detector(busy_detector)
        assert report.pending_timers == 1

    def test_emitted_counts(self, busy_detector):
        busy_detector.feed("b", ts("s2", 9, 90))
        report = inspect_detector(busy_detector)
        assert report.by_name("seq").emitted == 2

    def test_render_is_readable(self, busy_detector):
        text = inspect_detector(busy_detector).render()
        assert "roots: batch, later, seq" in text
        assert "seq" in text

    def test_unknown_node_lookup(self, busy_detector):
        with pytest.raises(KeyError):
            inspect_detector(busy_detector).by_name("nope")


class TestNodeBuffered:
    def test_periodic_windows_counted(self):
        detector = Detector()
        root = detector.register("P*(o, 2, c)", name="ticks")
        detector.feed("o", ts("s1", 1, 10))
        detector.advance_time(6)  # ticks at 3 and 5
        assert node_buffered(root) == 3  # opener + two ticks

    def test_detector_and_report_count_the_same_state(self):
        # Detector.buffered_occurrences() used to skip TimesNode._pending
        # and PeriodicNode._windows, so these two rules read 0 there.
        detector = Detector()
        times = detector.register("times(3, a)", name="thrice")
        periodic = detector.register("P(a, 2, b)", name="pulse")
        detector.feed("a", ts("s1", 1, 10))
        detector.feed("a", ts("s1", 2, 20))
        detector.advance_time(5)  # each window ticks at its opener + 2, + 4, …
        assert node_buffered(times) == times.buffered() == 2
        assert node_buffered(periodic) == 2 + 3  # two openers, ticks at 3, 4, 5
        assert detector.buffered_occurrences() == 2 + 5
        assert inspect_detector(detector).total_buffered == 2 + 5
        detector.feed("a", ts("s1", 6, 60))  # third arrival empties the batch
        assert times.buffered() == 0
