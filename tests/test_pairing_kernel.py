"""The UNRESTRICTED pairing kernel ≡ the per-pair path it replaced.

``detection.nodes`` picks partners with one hoisted loop (``_before`` /
``_after``) and emits them in one ``_emit_pairs`` loop that skips the
``Max`` fold where Definition 4.7 already fixed the order.  These tests
pin the three shortcuts to what they stand for: the selection to the
``composite_happens_before`` comprehension, every emitted stamp to
``max_of_many`` of its constituents (Theorem 5.4), the lazily merged
parameters to the eager ``merge_parameters`` fold — and the batched
``Detector._propagate`` to the per-emission BFS order.
"""

from functools import reduce

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.detection.detector import Detector
from repro.detection.nodes import SequenceNode, _after, _before
from repro.events.occurrences import EventOccurrence
from repro.events.semantics import merge_parameters
from repro.time.composite import (
    CompositeTimestamp,
    composite_happens_before,
    max_of_many,
)
from repro.time.timestamps import PrimitiveTimestamp
from tests.test_kernel_equivalence import RATIO, SITES, composite_stamps



def _singleton(site, global_time, local):
    return CompositeTimestamp.singleton(PrimitiveTimestamp(site, global_time, local))


# --- strategies ---------------------------------------------------------------


@st.composite
def skewed_singletons(draw):
    # ``local`` drawn independently of ``global_time``: same-site stamps
    # may order one way by local tick and the other by granule, which a
    # kernel comparing the wrong field would get wrong.  Singletons only
    # — such stamps need not have a max-set.
    return _singleton(
        draw(st.sampled_from(SITES)),
        draw(st.integers(min_value=0, max_value=8)),
        draw(st.integers(min_value=0, max_value=8 * RATIO)),
    )


stamps = st.one_of(skewed_singletons(), composite_stamps())


@st.composite
def buffers(draw):
    return [
        EventOccurrence("e", stamp)
        for stamp in draw(st.lists(stamps, max_size=12))
    ]


parameter_dicts = st.dictionaries(
    st.sampled_from(["k", "x", "y", "count"]), st.integers(0, 9), max_size=3
)


@st.composite
def streams(draw, types):
    """Primitive occurrences over ``types``, each tagged with parameters.

    Granules advance along the stream so that chains (opener, bodies,
    closer) actually form; about half the streams are then delivered
    out of order, which is what the late-arrival scans are for.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(types),
                st.sampled_from(SITES),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=RATIO - 1),
                parameter_dicts,
            ),
            max_size=14,
        )
    )
    granule = 0
    stream = []
    for kind, site, step, offset, parameters in rows:
        granule += step
        stamp = PrimitiveTimestamp(site, granule, granule * RATIO + offset)
        stream.append(EventOccurrence.primitive(kind, stamp, parameters))
    if draw(st.booleans()):
        stream = draw(st.permutations(stream))
    return stream


def eager_parameters(constituents, extras=None):
    """What the per-pair ``_emit`` built at emission time."""
    merged = reduce(merge_parameters, (c.parameters for c in constituents), {})
    return merge_parameters(merged, extras or {})


# --- partner selection ----------------------------------------------------------


class TestPartnerSelection:
    @given(buffers(), stamps)
    def test_before_is_the_happens_before_comprehension(self, buffer, probe):
        assert _before(buffer, probe) == [
            o for o in buffer if composite_happens_before(o.timestamp, probe)
        ]

    @given(buffers(), stamps)
    def test_after_is_the_happens_before_comprehension(self, buffer, probe):
        assert _after(buffer, probe) == [
            o for o in buffer if composite_happens_before(probe, o.timestamp)
        ]

    def test_same_site_decided_by_local_tick_not_granule(self):
        late_granule = EventOccurrence("e", _singleton("s1", 9, 10))
        late_local = EventOccurrence("e", _singleton("s1", 1, 30))
        probe = _singleton("s1", 5, 20)
        assert _before([late_granule, late_local], probe) == [late_granule]
        assert _after([late_granule, late_local], probe) == [late_local]


# --- emitted stamps (Theorem 5.4) -----------------------------------------------


RULES = {
    "seq": "(a and b) ; (c or d)",
    "both": "(a ; c) and b",
    "quiet": "not(d)[a, c and b]",
    "window": "A(a ; b, c, d)",
}


def _every_occurrence(occurrence):
    yield occurrence
    for constituent in occurrence.constituents:
        yield from _every_occurrence(constituent)


class TestEmittedStamps:
    @settings(max_examples=60, deadline=None)
    @given(streams(["a", "b", "c", "d"]))
    def test_stamp_is_max_of_constituent_stamps(self, stream):
        detector = Detector()
        for name, rule in RULES.items():
            detector.register(rule, name=name)
        for occurrence in stream:
            detector.feed(occurrence)
        for detection in detector.detections:
            for occurrence in _every_occurrence(detection.occurrence):
                if occurrence.constituents:
                    assert occurrence.timestamp == max_of_many(
                        [c.timestamp for c in occurrence.constituents]
                    )

    @given(buffers(), stamps)
    def test_ordered_pairs_fold_unless_both_singletons(self, buffer, probe):
        # ``<_p`` between composite stamps does not make the later one
        # dominate, so the fold may only be skipped for two singletons.
        node = SequenceNode("n")
        terminator = EventOccurrence("t", probe)
        emitted = node._emit_pairs(_before(buffer, probe), terminator)
        for detection in emitted:
            first, second = detection.constituents
            assert second is terminator
            assert detection.timestamp == max_of_many(
                [first.timestamp, second.timestamp]
            )
        assert node.emitted_count == len(emitted)


# --- lazily merged parameters ----------------------------------------------------


class TestLazyParameters:
    @given(parameter_dicts, parameter_dicts, parameter_dicts)
    def test_nested_composite_merges_like_the_eager_fold(self, pa, pb, pc):
        stamp = _singleton("s1", 1, 10)
        a, b, c = (EventOccurrence("e", stamp, dict(p)) for p in (pa, pb, pc))
        inner = EventOccurrence("i", stamp, None, (a, b))
        outer = EventOccurrence("o", stamp, None, (inner, c))
        assert outer.parameters == eager_parameters(
            [EventOccurrence("i", stamp, eager_parameters([a, b])), c]
        )
        assert inner.parameters == eager_parameters([a, b])

    @given(parameter_dicts, parameter_dicts)
    def test_explicit_parameters_are_not_merged_over(self, pa, explicit):
        stamp = _singleton("s1", 1, 10)
        a = EventOccurrence("e", stamp, dict(pa))
        assert EventOccurrence("c", stamp, explicit, (a,)).parameters == explicit

    @settings(max_examples=60, deadline=None)
    @given(streams(["o", "m", "c", "x"]))
    def test_cumulative_extras_ride_on_top_of_the_merge(self, stream):
        detector = Detector()
        detector.register("A*(o, m, c) ; x", name="astar")
        detector.register("times(2, m) ; x", name="times")
        detector.register("P*(o, 1, c) ; x", name="pstar")
        granule = 0
        for occurrence in stream:
            granule = max(granule, occurrence.timestamp.global_span()[1])
            detector.advance_time(granule)
            detector.feed(occurrence)
        for detection in detector.detections:
            inner, closer = detection.occurrence.constituents
            body = inner.constituents[1:-1]
            if detection.name == "astar":
                extras = {"accumulated": tuple(dict(b.parameters) for b in body)}
            elif detection.name == "pstar":
                extras = {"ticks": tuple(t.parameters["tick_global"] for t in body)}
            else:
                extras = {"count": 2}
            assert inner.parameters == eager_parameters(inner.constituents, extras)
            assert detection.occurrence.parameters == eager_parameters([inner, closer])


# --- detection order within a feed -----------------------------------------------

STREAM = [
    ("a", "s1", 1, 10), ("c", "s2", 1, 11), ("a", "s2", 2, 20), ("b", "s1", 2, 25),
    ("c", "s1", 3, 31), ("b", "s2", 5, 50), ("a", "s1", 5, 52), ("d", "s2", 8, 80),
    ("c", "s2", 9, 90), ("a", "s2", 0, 1),
]  # fmt: skip

# Recorded from the per-emission BFS (parent commit): per feed, the rule
# and the feed indices of the detection's primitive leaves.
GOLDEN = [
    [], [], [],
    [("ab", (0, 3)), ("abc", (0, 3, 1)), ("ab_again", (0, 3))],
    [("abc", (0, 3, 4))],
    [("ab", (0, 5)), ("ab", (2, 5)), ("abc", (0, 5, 1)), ("abc", (0, 5, 4)),
     ("ab_again", (0, 5)), ("abc", (2, 5, 1)), ("abc", (2, 5, 4)),
     ("ab_again", (2, 5))],
    [],
    [("abd", (0, 3, 7)), ("abd", (0, 5, 7)), ("abd", (2, 5, 7))],
    [("abc", (0, 3, 8)), ("abc", (0, 5, 8)), ("abc", (2, 5, 8))],
    [("ab", (9, 3)), ("ab", (9, 5)), ("abc", (9, 3, 1)), ("abc", (9, 3, 4)),
     ("abc", (9, 3, 8)), ("abd", (9, 3, 7)), ("ab_again", (9, 3)),
     ("abc", (9, 5, 1)), ("abc", (9, 5, 4)), ("abc", (9, 5, 8)),
     ("abd", (9, 5, 7)), ("ab_again", (9, 5))],
]  # fmt: skip


RULES = {
    "ab": "a ; b",  # shared, a root with subscribers
    "abc": "(a ; b) and c",  # a root without
    "abd": "(a ; b) ; d",
    "ab_again": "a ; b",  # alias under a root
}


def feed_stream(detector):
    """Per feed of STREAM, the detections it returned."""
    return [
        detector.feed(
            kind,
            PrimitiveTimestamp(site, global_time, local),
            parameters={"i": index},
        )
        for index, (kind, site, global_time, local) in enumerate(STREAM)
    ]


class TestDetectionOrder:
    def test_feed_returns_detections_in_bfs_order(self):
        # A detection has one owner, so each order has its own detector:
        # the log's on one registered without callbacks ...
        logging = Detector()
        for name, rule in RULES.items():
            logging.register(rule, name=name)
        fired = [
            [
                (
                    d.name,
                    tuple(
                        leaf.parameters["i"]
                        for leaf in d.occurrence.primitive_leaves()
                    ),
                )
                for d in detections
            ]
            for detections in feed_stream(logging)
        ]
        assert fired == GOLDEN
        assert [d.name for d in logging.detections] == [
            name for feed in GOLDEN for name, _ in feed
        ]
        # ... the callbacks' on one registered with them.
        streaming = Detector()
        seen = []
        for name, rule in RULES.items():
            streaming.register(rule, name=name, callback=seen.append)
        returned = [d for feed in feed_stream(streaming) for d in feed]
        assert [d.name for d in returned] == [d.name for d in logging.detections]
        assert seen == returned  # callbacks fired in that order too
        assert streaming.detections == []
