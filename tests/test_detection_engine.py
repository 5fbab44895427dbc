"""One detection engine: a ``Detector`` and a ``DistributedDetector``
whose nodes all sit on one site are the same walk, the same timer
service and the same checkpoint body.

Before the engines were merged the local one walked breadth-first in
batches and the distributed one recursed depth-first per emission, so a
primitive reaching an operator by two paths arrived in a different
order and the consuming contexts paired differently (16 of 1,500 fuzz
cases; the three-event streams below are the smallest).
"""

import gc
import json
import os

import pytest

from repro.conformance.generator import generate_case
from repro.conformance.runner import CASE_NAME, _execute
from repro.contexts.policies import Context
from repro.detection.approximate import detection_key
from repro.detection.checkpoint import restore, snapshot
from repro.detection.coordinator import DistributedDetector, Message
from repro.detection.detector import Detector
from repro.errors import DetectionError, SchedulingError
from repro.events.occurrences import EventOccurrence
from tests.conftest import ts
from tests.fixtures.make_engine_state import (
    build_distributed,
    drive,
    keys,
    register_all,
)

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "engine_checkpoint.json"
)


def one_site_pair(expression, context) -> tuple[Detector, DistributedDetector]:
    local = Detector(site="x")
    local.register(expression, name=CASE_NAME, context=context)
    placed = DistributedDetector(["x"])
    for event_type in local.graph.primitives:
        placed.set_home(event_type, "x")
    placed.register(expression, name=CASE_NAME, context=context)
    return local, placed


def calls(engine, occurrences) -> list[list[tuple[str, str]]]:
    """The ordered detections of every ``advance_time`` / ``feed`` call
    of a stream fed in order, the clock moved to each event's granule."""
    out = []
    now = 0
    for occurrence in occurrences:
        granule = occurrence.timestamp.global_span()[1]
        if granule > now:
            now = granule
            out.append([detection_key(d) for d in engine.advance_time(granule)])
        fresh = EventOccurrence.primitive(
            occurrence.event_type,
            next(iter(occurrence.timestamp)),
            occurrence.parameters,
        )
        out.append([detection_key(d) for d in engine.feed(fresh)])
    out.append([detection_key(d) for d in engine.advance_time(now + 40)])
    return out


@pytest.mark.parametrize(
    "context, stream, detections",
    [
        (Context.RECENT, "bab", 1),
        (Context.CHRONICLE, "abb", 2),
        (Context.CUMULATIVE, "abb", 2),
        (Context.CONTINUOUS, "aab", 1),
    ],
)
def test_two_paths_to_one_operator_pair_alike(context, stream, detections):
    """``(a ; b) and b``: each ``b`` reaches the ``and`` directly and
    through the sequence; which arrives first decides what it consumes."""
    occurrences = [
        EventOccurrence.primitive(event_type, ts("x", 1 + 2 * i))
        for i, event_type in enumerate(stream)
    ]
    local, placed = one_site_pair("(a ; b) and b", context)
    expected = calls(local, occurrences)
    assert calls(placed, occurrences) == expected
    assert sum(map(len, expected)) == detections
    assert not placed.outbox and placed.message_count() == 0


def test_generated_cases_agree_call_by_call():
    """The fuzzer's own cases (temporal operators included): ordered
    detections of every call are equal, not just the multisets."""
    consuming = 0
    for index in range(300):
        case = generate_case(7 * 1_000_003 + index, include_temporal=True)
        expression, context = case.parsed(), Context(case.context)
        consuming += context is not Context.UNRESTRICTED
        history = list(_execute(case, expression).history)
        local, placed = one_site_pair(expression, context)
        assert calls(placed, history) == calls(local, history), (
            index,
            case.expression,
            case.context,
        )
    assert consuming >= 80


class TestOneTimerService:
    def engines(self):
        local = Detector()
        placed = DistributedDetector(["s1", "s2"])
        placed.set_home("a", "s1")
        for engine in (local, placed):
            engine.register("a + 2", name="later")
            engine.advance_time(5)
        return local, placed

    def test_a_clock_does_not_run_backwards_on_either_entry_point(self):
        for engine in self.engines():
            with pytest.raises(SchedulingError):
                engine.advance_time(4)
            assert engine.now_global == 5
            engine.advance_time(5)

    def test_a_late_deadline_is_clamped_to_the_sites_clock(self):
        for engine in self.engines():
            engine.feed("a", ts("s1", 1))
            assert engine.pending_timers() == 1
            (fired,) = engine.advance_time(5)
            (tick,) = fired.occurrence.constituents[1].timestamp
            assert tick.global_time == 5

    def test_a_clone_is_a_one_site_engine_with_the_same_rules(self):
        for engine in self.engines():
            twin = engine.clone(site="shadow")
            assert type(twin) is Detector and twin.sites == ["shadow"]
            engine.register("a ; a", name="again")
            engine.copy_rules_to(twin)
            assert sorted(twin.graph.roots) == ["again", "later"]


def test_subscribing_to_an_unregistered_rule_is_an_error():
    detector = Detector()
    with pytest.raises(DetectionError):
        detector.subscribe("nothing", print)


def test_traffic_counters_hold_no_message():
    """``message_count`` / ``bytes_sent`` are two integers, not a log of
    every message ever sent."""

    def live_messages() -> int:
        gc.collect()
        return sum(isinstance(o, Message) for o in gc.get_objects())

    engine = DistributedDetector(["s1", "s2"])
    engine.set_home("a", "s1")
    engine.set_home("b", "s2")
    engine.register("a ; b", name="seq", context=Context.RECENT)
    before = live_messages()
    sizes = 0
    for i in range(10_000):
        engine.feed("a", ts("s1", 2 * i, 20 * i))
        engine.feed("b", ts("s2", 2 * i + 1, 20 * i + 10))
        sizes += sum(message.size for message in engine.outbox)
        engine.pump()
    assert engine.message_count() == 10_000
    assert engine.bytes_sent() == sizes
    assert live_messages() <= before


class TestSnapshotsWrittenByTheParentCommit:
    """``tests/fixtures/make_engine_state.py`` run on ``09eede7``."""

    @pytest.fixture(scope="class")
    def fixture(self):
        with open(FIXTURE, encoding="utf-8") as handle:
            return json.load(handle)

    def test_one_site_snapshot_is_byte_for_byte(self, fixture):
        detector = Detector(site="solo", timer_ratio=fixture["timer_ratio"])
        register_all(detector)
        drive(detector, fixture["before"], pump=False)
        assert json.dumps(snapshot(detector)) == fixture["local"]

    def test_distributed_snapshot_is_byte_for_byte(self, fixture):
        engine = build_distributed()
        drive(engine, fixture["before"][:-1], pump=True)
        drive(engine, fixture["before"][-1:], pump=False)
        assert json.dumps(snapshot(engine)) == fixture["distributed"]["snapshot"]

    def test_distributed_snapshot_restores_and_continues(self, fixture):
        engine = build_distributed()
        restore(engine, json.loads(fixture["distributed"]["snapshot"]))
        assert len(engine.outbox) == 2 and engine.pending_timers() >= 2
        fired = engine.pump() + drive(engine, fixture["after"], pump=True)
        fired += engine.advance_time(fixture["horizon"]) + engine.pump()
        assert keys(fired) == fixture["distributed"]["detected"]

    def test_a_layout_is_refused_by_an_engine_it_does_not_fit(self, fixture):
        with pytest.raises(DetectionError):
            restore(build_distributed(), json.loads(fixture["local"]))
        solo = Detector(site="solo", timer_ratio=fixture["timer_ratio"])
        register_all(solo)
        with pytest.raises(DetectionError):
            restore(solo, json.loads(fixture["distributed"]["snapshot"]))
