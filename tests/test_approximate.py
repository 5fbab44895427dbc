"""Tests for anytime approximate detection (``repro.detection.approximate``).

The soundness contract under test: the CONFIRMED multiset equals what a
plain :class:`~repro.detection.stabilizer.Stabilizer` produces over the
identical delivery, every TENTATIVE resolves into exactly one CONFIRMED
or RETRACTED, and the failover cluster replays verdict streams
deterministically (the ``(seq, k)`` ledger deduplicates re-emissions).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contexts.policies import Context
from repro.detection.approximate import (
    ApproximateStabilizer,
    Verdict,
    detection_key,
)
from repro.detection.detector import Detector
from repro.detection.stabilizer import Stabilizer
from repro.errors import ReproError
from repro.events.occurrences import EventOccurrence, History
from repro.events.parser import parse_expression
from repro.events.semantics import evaluate
from repro.serve.cluster import FaultPlan, LocalFailoverCluster
from repro.serve.config import ServeConfig
from repro.serve.protocol import ServeEvent
from repro.serve.runtime import serve_events
from repro.time.timestamps import PrimitiveTimestamp

SITES = ["s1", "s2", "s3"]


def occ(event_type, site, granule, local=None):
    return EventOccurrence.primitive(
        event_type,
        PrimitiveTimestamp(site, granule, granule * 10 if local is None else local),
    )


def make(expression, context=Context.UNRESTRICTED):
    detector = Detector()
    detector.register(expression, name="r", context=context)
    return detector, ApproximateStabilizer(detector, sites=SITES)


class TestVerdict:
    def test_lattice_resolution(self):
        assert not Verdict.TENTATIVE.resolved
        assert Verdict.CONFIRMED.resolved
        assert Verdict.RETRACTED.resolved

    def test_values_are_wire_stable(self):
        assert [v.value for v in Verdict] == [
            "tentative", "confirmed", "retracted",
        ]


class TestApproximateStabilizer:
    def test_tentative_then_confirmed_with_ref(self):
        _, approx = make("a ; b")
        assert approx.offer(occ("a", "s1", 2)) == []
        [tentative] = approx.offer(occ("b", "s2", 5))
        assert tentative.verdict is Verdict.TENTATIVE
        assert tentative.lag == 0
        resolved = approx.announce_all(9)
        [confirmed] = [v for v in resolved if v.verdict is Verdict.CONFIRMED]
        assert confirmed.ref == tentative.seq
        assert approx.unresolved() == 0
        assert approx.retracted() == []

    def test_late_blocker_retracts_the_tentative(self):
        """The spurious eager detection not(n)[o, c] must be cancelled."""
        detector, approx = make("not(n)[o, c]")
        approx.offer(occ("o", "s1", 1))
        [tentative] = approx.offer(occ("c", "s3", 9))
        assert tentative.verdict is Verdict.TENTATIVE
        approx.offer(occ("n", "s2", 5))  # the blocker, delivered late
        approx.announce_all(20)
        assert approx.confirmed() == []
        [retracted] = approx.retracted()
        assert retracted.ref == tentative.seq
        assert approx.unresolved() == 0
        assert detector.detections_of("r") == []  # exact engine agrees

    def test_late_opener_retracts_and_reconfirms(self):
        """Chronicle pairing flips to a late-delivered older opener."""
        _, approx = make("o ; c", context=Context.CHRONICLE)
        approx.offer(occ("o", "s1", 3))
        [tentative] = approx.offer(occ("c", "s2", 6))
        approx.offer(occ("o", "s3", 1))  # older opener, delivered last
        resolved = approx.announce_all(9)
        [confirmed] = [v for v in resolved if v.verdict is Verdict.CONFIRMED]
        [retracted] = [v for v in resolved if v.verdict is Verdict.RETRACTED]
        assert confirmed.ref is None  # a pairing the eager path never saw
        assert retracted.ref == tentative.seq
        assert approx.unresolved() == 0

    def test_flush_resolves_every_tentative(self):
        _, approx = make("a ; b")
        approx.offer(occ("a", "s1", 2))
        approx.offer(occ("b", "s2", 5))
        out = approx.flush()
        assert [v.verdict for v in out] == [Verdict.CONFIRMED]
        assert approx.unresolved() == 0

    def test_verdict_detection_is_frozen(self):
        _, approx = make("a ; b")
        approx.offer(occ("a", "s1", 2))
        [tentative] = approx.offer(occ("b", "s2", 5))
        with pytest.raises(Exception):
            tentative.verdict = Verdict.CONFIRMED

    def test_detection_key_uses_all_leaves(self):
        """Two detections sharing a terminator must not collide."""
        detector = Detector()
        detector.register("o ; c", name="r")
        fed = detector.feed(occ("o", "s1", 3))
        assert fed == []
        [first] = detector.feed(occ("c", "s2", 6))
        other = Detector()
        other.register("o ; c", name="r")
        other.feed(occ("o", "s3", 1))
        [second] = other.feed(occ("c", "s2", 6))
        # Max-set timestamps collapse to the terminator for both; the
        # key must still tell the two openers apart.
        assert detection_key(first) != detection_key(second)


class TestClusterLateOpenerRegression:
    """The WAL-replay regression: one RETRACTED + one CONFIRMED, once."""

    EVENTS = (
        ServeEvent("o", "s1", 3, 30),
        ServeEvent("c", "s2", 6, 60),
        ServeEvent("o", "s3", 1, 10),  # older opener, delivered last
    )

    def run_cluster(self, plan=None):
        cluster = LocalFailoverCluster(
            1, timer_ratio=10, approximate=True, fault_plan=plan
        )
        cluster.register("o ; c", "pair", Context.CHRONICLE)
        for event in self.EVENTS:
            cluster.ingest(event)
        cluster.advance(9)
        return cluster

    def verdict_stream(self, cluster):
        return [
            (t.verdict.verdict.value, t.seq, t.k)
            for t in cluster._verdicts
        ]

    def test_exactly_one_retraction_and_one_confirmation(self):
        cluster = self.run_cluster()
        verdicts = [t.verdict.verdict for t in cluster._verdicts]
        assert verdicts.count(Verdict.TENTATIVE) == 1
        assert verdicts.count(Verdict.RETRACTED) == 1
        assert verdicts.count(Verdict.CONFIRMED) == 1
        # detections_of stays the exact multiset: exactly one pairing
        # (the max-set timestamp collapses to the shared terminator).
        [occurrence] = cluster.detections_of("pair")
        assert occurrence.timestamp.global_span()[1] == 6

    def test_crash_replay_is_deduplicated_and_identical(self):
        baseline = self.run_cluster()
        faulted = self.run_cluster(FaultPlan(kills=((0, 2),)))
        assert faulted.restarts == 1
        # Approximate mode recovers by full-WAL replay; the (seq, k)
        # ledger swallows the re-emitted verdicts.
        assert faulted.ledger.duplicates >= 1
        assert self.verdict_stream(faulted) == self.verdict_stream(baseline)
        confirmed = [
            v for v in faulted.verdicts_of("pair")
            if v.verdict is Verdict.CONFIRMED
        ]
        assert len(confirmed) == 1

    def test_checkpoint_and_scale_are_rejected(self):
        cluster = self.run_cluster()
        with pytest.raises(ReproError):
            cluster.scale(2)


EXPRESSIONS = ["o ; c", "o and c", "o or c", "not(n)[o, c]", "A(o, n, c)"]


def fifo_preserving_shuffle(rng, stream):
    by_site = {}
    for occurrence in stream:
        by_site.setdefault(occurrence.site(), []).append(occurrence)
    for queue in by_site.values():
        queue.sort(
            key=lambda o: min((t.global_time, t.local) for t in o.timestamp)
        )
    merged = []
    queues = [q for q in by_site.values() if q]
    while queues:
        merged.append(rng.choice(queues).pop(0))
        queues = [q for q in queues if q]
    return merged


class TestConfirmedEqualsExact:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["o", "n", "c"]),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=0,
            max_size=14,
        ),
        expression=st.sampled_from(EXPRESSIONS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_confirmed_multiset_matches_plain_stabilizer(
        self, events, expression, seed
    ):
        """CONFIRMED == exact on random FIFO-preserving schedules."""
        homes = {"o": "s1", "n": "s2", "c": "s3"}
        stream = [
            occ(event_type, homes[event_type], granule, granule * 10 + i)
            for i, (event_type, granule) in enumerate(events)
        ]
        rng = random.Random(seed)
        delivery = fifo_preserving_shuffle(rng, stream)

        exact_detector = Detector()
        exact_detector.register(expression, name="r")
        exact = Stabilizer(exact_detector, sites=SITES)
        _, approx = make(expression)
        for occurrence in delivery:
            exact.offer(occurrence)
            approx.advance_shadow(occurrence.timestamp.global_span()[1])
            approx.offer(occurrence)
        exact.flush()
        approx.flush()

        expected = sorted(
            repr(o.timestamp) for o in exact_detector.detections_of("r")
        )
        confirmed = sorted(
            repr(v.occurrence.timestamp) for v in approx.confirmed()
        )
        assert confirmed == expected
        assert approx.unresolved() == 0
        # Every resolution references a real tentative, at most once.
        tentatives = {v.seq for v in approx.tentative()}
        refs = [
            v.ref for v in approx.verdicts
            if v.verdict.resolved and v.ref is not None
        ]
        assert len(refs) == len(set(refs))
        assert set(refs) <= tentatives


# Correction C7 (ROADMAP 22) in approximate mode.  Each history arrives in
# a linearization the detector gets right (exact mode serves the oracle's
# answer), but the stabilizer releases in (global, local, arrival) order,
# which imposes the other linearization: the A row is confirmed by nobody
# (TENTATIVE, then RETRACTED) and the not row is CONFIRMED although the
# oracle has none.  The fix drops the xfail mark.
C7_APPROXIMATE = [
    (
        "A(a and b, c, a)",
        [("a", "s1", 0, 0), ("b", "s2", 1, 10), ("c", "s1", 0, 5)],
    ),
    (
        "not(a and b)[c, c]",
        [
            ("c", "s1", 0, 0),
            ("a", "s1", 1, 10),
            ("b", "s2", 2, 20),
            ("c", "s1", 1, 15),
        ],
    ),
]


def c7_oracle(expression, events):
    history = History()
    for event_type, site, global_time, local in events:
        history.record(event_type, PrimitiveTimestamp(site, global_time, local))
    oracle = evaluate(parse_expression(expression), history, label="r")
    return sorted(repr(o.timestamp) for o in oracle)


def c7_serve(expression, events, approximate):
    return serve_events(
        {"r": expression},
        [ServeEvent(*event) for event in events],
        config=ServeConfig(approximate=approximate),
        horizon=10,
    )


@pytest.mark.parametrize("expression, events", C7_APPROXIMATE)
def test_c7_histories_are_served_exactly_in_exact_mode(expression, events):
    runtime = c7_serve(expression, events, approximate=False)
    assert sorted(repr(o.timestamp) for o in runtime.detections_of("r")) == (
        c7_oracle(expression, events)
    )


@pytest.mark.parametrize("expression, events", C7_APPROXIMATE)
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="C7: see ROADMAP 22"
)
def test_c7_confirmed_matches_oracle_in_approximate_mode(expression, events):
    runtime = c7_serve(expression, events, approximate=True)
    confirmed = sorted(
        repr(v.occurrence.timestamp)
        for v in runtime.verdicts_of("r")
        if v.verdict is Verdict.CONFIRMED
    )
    assert confirmed == c7_oracle(expression, events)
