"""Randomized equivalence: operational detector ≡ denotational oracle.

In the UNRESTRICTED context, for any history and any expression over the
non-temporal operators, the detector must produce exactly the oracle's
occurrence set (as a multiset of timestamps) — regardless of placement
and even under adversarial message reordering.  This is the strongest
correctness statement of the engine and exercises the entire stack:
timestamps, ``Max``, operator nodes, graph sharing, and routing.
"""

import random
from fractions import Fraction

import pytest

from repro.conformance import FaultSchedule, FuzzCase, run_case
from repro.detection.coordinator import DistributedDetector, PlacementPolicy
from repro.detection.detector import Detector
from repro.events.occurrences import History
from repro.events.parser import parse_expression
from repro.events.semantics import evaluate
from repro.time.timestamps import PrimitiveTimestamp

SITES = {"a": "s1", "b": "s2", "c": "s3"}

EXPRESSIONS = [
    "a ; b",
    "a and b",
    "a or b",
    "(a ; b) and c",
    "(a or b) ; c",
    "a ; (b ; c)",
    "not(b)[a, c]",
    "A(a, b, c)",
    "A*(a, b, c)",
    "(a and b) or (b and c)",
    "times(2, a)",
    "times(3, a or b)",
    "a[n >= 5] ; b",
    "(a[n < 9] and b[n > 2]) or c",
]


def random_stream(seed: int, length: int = 14):
    """A random primitive stream fed in timestamp order.

    Sorting by ``(global, local)`` is a linearization of the primitive
    happen-before.  The monotonic operators (And/Or/Seq) are insensitive
    to arrival order (the conformance runner's ``reorder`` check pins
    this); the non-monotonic ones (Not, A, A*) over primitive children
    match the oracle exactly when events arrive in any linearization of
    ``<`` (a composite child does not: C7, below) — a late closer
    cannot retract an already-signalled detection, which is inherent to
    online detection of non-monotonic operators.
    """
    rng = random.Random(seed)
    stream = []
    for i in range(length):
        event_type = rng.choice(list(SITES))
        site = SITES[event_type]
        g = rng.randint(0, 15)
        stream.append(
            (
                event_type,
                PrimitiveTimestamp(site, g, g * 10 + i % 10),
                {"n": rng.randint(0, 10)},
            )
        )
    stream.sort(key=lambda entry: (entry[1].global_time, entry[1].local))
    return stream


def timestamps_multiset(occurrences):
    return sorted(repr(o.timestamp) for o in occurrences)


@pytest.mark.parametrize("expression", EXPRESSIONS)
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestLocalEquivalence:
    def test_detector_matches_oracle(self, expression, seed):
        stream = random_stream(seed)
        history = History()
        for event_type, stamp, params in stream:
            history.record(event_type, stamp, params)
        oracle = evaluate(parse_expression(expression), history, label="r")

        detector = Detector()
        detector.register(expression, name="r")
        for event_type, stamp, params in stream:
            detector.feed(event_type, stamp, parameters=params)
        assert timestamps_multiset(detector.detections_of("r")) == (
            timestamps_multiset(oracle)
        )


@pytest.mark.parametrize("expression", ["a ; b", "(a ; b) and c", "A*(a, b, c)"])
@pytest.mark.parametrize("placement", list(PlacementPolicy))
class TestDistributedEquivalence:
    def test_distributed_matches_oracle(self, expression, placement):
        stream = random_stream(11)
        history = History()
        for event_type, stamp, params in stream:
            history.record(event_type, stamp, params)
        oracle = evaluate(parse_expression(expression), history, label="r")

        detector = DistributedDetector(list(SITES.values()))
        for event_type, site in SITES.items():
            detector.set_home(event_type, site)
        detector.register(expression, name="r", placement=placement)
        for event_type, stamp, params in stream:
            detector.feed(event_type, stamp, parameters=params)
            detector.pump()
        assert timestamps_multiset(detector.detections_of("r")) == (
            timestamps_multiset(oracle)
        )


LOSSY = FaultSchedule(
    loss_probability=0.2, retransmit=True, max_retries=12, retry_timeout="1/20"
)
REORDERED = FaultSchedule(reorder=True)


def _fault_case(expression: str, seed: int, schedule: FaultSchedule) -> FuzzCase:
    """One fixed expression as a full conformance case under ``schedule``."""
    rng = random.Random(seed)
    types = sorted(parse_expression(expression).primitive_types())
    sites = tuple(sorted(set(SITES.values())))
    events = []
    t = Fraction(1, 2)
    for _ in range(12):
        t += Fraction(rng.randint(1, 40), 100)
        events.append(
            (
                f"{t.numerator}/{t.denominator}",
                rng.choice(sites),
                rng.choice(types),
                rng.randint(0, 10),
            )
        )
    return FuzzCase(
        seed=seed,
        expression=str(parse_expression(expression)),
        sites=sites,
        homes={event_type: SITES[event_type] for event_type in types},
        perfect_clocks=True,
        events=tuple(events),
        schedule=schedule,
    )


@pytest.mark.parametrize("expression", EXPRESSIONS)
class TestFaultScheduleEquivalence:
    """Every fixed expression through the conformance runner under faults.

    The runner applies each differential check that is sound for the
    case — the oracle and reorder comparisons where arrival order is a
    linearization of ``<``, the kernel and checkpoint-continuity checks
    always — and the case must pass them all.  This subsumes the old
    ad-hoc message-shuffling test (the runner's ``reorder`` check is the
    same shuffle-deliver loop, applied across the whole grammar).
    """

    def test_lossy_schedule(self, expression):
        result = run_case(_fault_case(expression, seed=21, schedule=LOSSY))
        assert result.passed, [
            (check.name, check.detail) for check in result.failed_checks()
        ]

    def test_reordered_schedule(self, expression):
        result = run_case(
            _fault_case(expression, seed=22, schedule=REORDERED)
        )
        assert result.passed, [
            (check.name, check.detail) for check in result.failed_checks()
        ]
        oracle = result.check("oracle")
        assert oracle is not None and (oracle.passed or oracle.detail)


# Correction C7 (EXPERIMENTS.md): a *composite* child of not/A/A* breaks
# oracle-exactness even when events arrive in (global, local) order, a
# linearization of primitive happen-before.  Under <_p a composite can
# precede an event that one of its constituents does not, and then it
# completes only after that event has been consumed.  Each case asserts
# the oracle's answer and fails today; the fix drops the mark.
C7_CASES = [
    (
        "A(a and b, c, a)",
        [("a", "s1", 0, 0), ("c", "s1", 0, 5), ("b", "s2", 1, 10)],
    ),
    (
        "A*(a and b, c, a)",
        [("a", "s1", 0, 0), ("a", "s1", 0, 5), ("b", "s2", 0, 5)],
    ),
    (
        "not(a and b)[c, c]",
        [
            ("c", "s1", 0, 0),
            ("a", "s1", 1, 10),
            ("c", "s1", 1, 15),
            ("b", "s2", 2, 20),
        ],
    ),
]


@pytest.mark.parametrize("expression, events", C7_CASES)
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="C7: see ROADMAP 22"
)
def test_composite_child_in_order_matches_oracle(expression, events):
    history = History()
    detector = Detector()
    detector.register(expression, name="r")
    for event_type, site, global_time, local in events:
        stamp = PrimitiveTimestamp(site, global_time, local)
        history.record(event_type, stamp)
        if global_time > detector.now_global:
            detector.advance_time(global_time)
        detector.feed(event_type, stamp)
    oracle = evaluate(parse_expression(expression), history, label="r")
    assert timestamps_multiset(detector.detections_of("r")) == (
        timestamps_multiset(oracle)
    )
