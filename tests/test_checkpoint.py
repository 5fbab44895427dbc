"""Tests for detector checkpoint/restore."""

import pytest

from repro.contexts.policies import Context
from repro.detection.checkpoint import (
    load_checkpoint,
    occurrence_from_dict,
    occurrence_to_dict,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.detection.detector import Detector
from repro.errors import DetectionError
from repro.events.occurrences import EventOccurrence
from tests.conftest import cts, ts


def timestamps(detector, name):
    return sorted(repr(o.timestamp) for o in detector.detections_of(name))


class TestOccurrenceRoundTrip:
    def test_primitive_round_trip(self):
        occurrence = EventOccurrence.primitive("e", ts("a", 5, 50), {"v": 1})
        restored = occurrence_from_dict(occurrence_to_dict(occurrence))
        assert restored.event_type == "e"
        assert restored.timestamp == occurrence.timestamp
        assert restored.parameters == {"v": 1}

    def test_provenance_round_trip(self):
        a = EventOccurrence.primitive("x", ts("a", 5, 50))
        b = EventOccurrence.primitive("y", ts("b", 6, 60))
        composite = EventOccurrence(
            event_type="c",
            timestamp=cts(("a", 5, 50), ("b", 6, 60)),
            parameters={"tags": ("p", "q")},
            constituents=(a, b),
        )
        restored = occurrence_from_dict(occurrence_to_dict(composite))
        assert len(restored.constituents) == 2
        assert restored.constituents[0].event_type == "x"
        assert restored.parameters["tags"] == ["p", "q"]

    def test_fresh_uid_assigned(self):
        occurrence = EventOccurrence.primitive("e", ts("a", 5, 50))
        restored = occurrence_from_dict(occurrence_to_dict(occurrence))
        assert restored.uid != occurrence.uid


def build_detector(context=Context.UNRESTRICTED):
    detector = Detector(site="main")
    detector.register("a ; b", name="seq", context=context)
    detector.register("not(n)[o, c]", name="quiet")
    detector.register("A*(o, m, c)", name="batch")
    detector.register("x + 4", name="later")
    return detector


FIRST_HALF = [
    ("a", ts("s1", 1, 10), {"v": 1}),
    ("a", ts("s1", 2, 21), {"v": 2}),
    ("o", ts("s2", 1, 11), {}),
    ("m", ts("s3", 4, 40), {}),
    ("x", ts("s1", 3, 33), {}),
]
SECOND_HALF = [
    ("b", ts("s2", 9, 90), {}),
    ("m", ts("s3", 6, 60), {}),
    ("c", ts("s2", 10, 100), {}),
]


class TestDetectorContinuity:
    def feed(self, detector, events):
        for event_type, stamp, params in events:
            detector.feed(event_type, stamp, parameters=params)

    def test_checkpoint_restore_matches_uninterrupted_run(self):
        # Uninterrupted reference run.
        reference = build_detector()
        self.feed(reference, FIRST_HALF)
        reference.advance_time(8)
        self.feed(reference, SECOND_HALF)

        # Interrupted run: checkpoint mid-stream, restore into new engine.
        first = build_detector()
        self.feed(first, FIRST_HALF)
        state = snapshot(first)

        second = build_detector()
        restore(second, state)
        second.advance_time(8)
        self.feed(second, SECOND_HALF)

        for name in ("seq", "quiet", "batch", "later"):
            # Detections before the checkpoint stay with the old engine;
            # compare only post-restore detections against the reference's
            # post-half detections.
            reference_all = timestamps(reference, name)
            pre = timestamps(first, name)
            post = timestamps(second, name)
            assert sorted(pre + post) == reference_all, name

    def test_plus_timer_survives_restart(self):
        first = build_detector()
        first.feed("x", ts("s1", 3, 33))
        assert first.pending_timers() == 1
        state = snapshot(first)

        second = build_detector()
        restore(second, state)
        assert second.pending_timers() == 1
        detections = second.advance_time(8)
        assert [d.name for d in detections] == ["later"]

    def test_periodic_window_survives_restart(self):
        first = Detector()
        first.register("P*(o, 3, c)", name="ticks")
        first.feed("o", ts("s1", 1, 10))
        first.advance_time(5)  # one tick fired at granule 4
        state = snapshot(first)

        second = Detector()
        second.register("P*(o, 3, c)", name="ticks")
        restore(second, state)
        second.advance_time(11)  # ticks at 7 and 10
        (detection,) = second.feed("c", ts("s2", 13, 130))
        assert detection.occurrence.parameters["ticks"] == (4, 7, 10)

    def test_clock_restored(self):
        first = build_detector()
        first.advance_time(42)
        second = build_detector()
        restore(second, snapshot(first))
        assert second.now_global == 42

    def test_consuming_context_state_round_trips(self):
        first = Detector()
        first.register("a ; b", name="seq", context=Context.CHRONICLE)
        first.feed("a", ts("s1", 1, 10), parameters={"k": "old"})
        first.feed("a", ts("s1", 2, 21), parameters={"k": "new"})

        second = Detector()
        second.register("a ; b", name="seq", context=Context.CHRONICLE)
        restore(second, snapshot(first))
        (detection,) = second.feed("b", ts("s2", 9, 90))
        assert detection.occurrence.parameters["k"] == "old"
        (detection,) = second.feed("b", ts("s2", 10, 100))
        assert detection.occurrence.parameters["k"] == "new"


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        first = build_detector()
        first.feed("a", ts("s1", 1, 10))
        save_checkpoint(first, str(path))

        second = build_detector()
        load_checkpoint(second, str(path))
        assert second.feed("b", ts("s2", 9, 90))


class TestErrors:
    def test_unknown_node_in_snapshot_rejected(self):
        first = build_detector()
        first.feed("a", ts("s1", 1, 10))
        state = snapshot(first)
        bare = Detector()
        bare.register("p ; q", name="other")
        with pytest.raises(DetectionError):
            restore(bare, state)

    def test_bad_version_rejected(self):
        detector = build_detector()
        with pytest.raises(DetectionError):
            restore(detector, {"version": 999})


class TestDistributedCheckpoint:
    def build(self):
        from repro.detection.coordinator import DistributedDetector

        detector = DistributedDetector(["s1", "s2"])
        detector.set_home("a", "s1")
        detector.set_home("b", "s2")
        detector.register("a ; b", name="seq")
        detector.register("a + 4", name="later")
        return detector

    def test_round_trip_with_in_flight_messages(self):
        first = self.build()
        first.feed("a", ts("s1", 2, 20))
        first.pump()
        # The terminator's message from s2 to the seq node (placed at s1)
        # is deliberately left in flight across the checkpoint.
        first.feed("b", ts("s2", 9, 90))
        assert len(first.outbox) >= 1
        state = snapshot(first)

        second = self.build()
        restore(second, state)
        second.pump()
        assert len(second.detections_of("seq")) == 1

    def test_distributed_timers_restored(self):
        first = self.build()
        first.feed("a", ts("s1", 3, 30))
        first.pump()
        state = snapshot(first)

        second = self.build()
        restore(second, state)
        detections = second.advance_time(8)
        assert any(d.name == "later" for d in detections)

    def test_wrong_kind_rejected(self):
        import pytest as _pytest

        first = build_detector()
        local_state = snapshot(first)
        distributed = self.build()
        with _pytest.raises(DetectionError):
            restore(distributed, local_state)


class TestSystemCheckpointUnderFault:
    """Checkpoint a DistributedSystem while a retransmission is in flight.

    A dropped message awaiting its retry lives only inside an engine
    closure; ``DistributedSystem.checkpoint`` must still capture it (via
    the in-flight registry) so the detection survives a restore into a
    fresh system.
    """

    def build(self):
        from fractions import Fraction

        from repro.sim.cluster import DistributedSystem
        from repro.sim.config import SimConfig

        system = DistributedSystem(
            ["s1", "s2"],
            config=SimConfig(
                seed=1,
                retransmit=True,
                max_retries=5,
                retry_timeout=Fraction(1, 20),
            ),
        )
        system.set_home("a", "s1")
        system.set_home("b", "s2")
        system.register("a ; b", name="seq")
        return system

    def test_in_flight_retransmission_survives_restore(self):
        from fractions import Fraction

        system = self.build()
        original_send = system.network.send
        dropped = []

        def flaky_send(src, dst, size, handler):
            # Drop the first cross-site attempt; the recovery protocol
            # schedules a retry that is still pending at checkpoint time.
            if src != dst and not dropped:
                dropped.append((src, dst))
                system.network.stats.dropped += 1
                return None
            return original_send(src, dst, size, handler)

        system.network.send = flaky_send
        system.inject("s1", "a", at=1)
        system.inject("s2", "b", at=2)
        system.run(until=2)  # the retry (due at 2 + 1/20) is in flight
        assert dropped, "no cross-site message was sent before checkpoint"
        assert not system.detections_of("seq")

        state = system.checkpoint()
        assert state["outbox"], "in-flight retransmission missing from snapshot"
        assert state["true_time"] == [2, 1]

        fresh = self.build()
        fresh.restore_checkpoint(state)
        fresh.run()
        assert fresh.engine.now >= Fraction(2)
        detections = fresh.detections_of("seq")
        assert len(detections) == 1
        stamp = detections[0].detection.occurrence.timestamp
        assert {s.site for s in stamp} <= {"s1", "s2"}

    def test_clean_checkpoint_has_empty_outbox(self):
        system = self.build()
        system.inject("s1", "a", at=1)
        system.inject("s2", "b", at=2)
        system.run()
        assert len(system.detections_of("seq")) == 1
        state = system.checkpoint()
        assert state["outbox"] == []
