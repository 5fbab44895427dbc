"""Execute one fuzz case and cross-check it against differential checks.

``run_case`` drives a :class:`FuzzCase` end-to-end through the simulated
:class:`~repro.sim.cluster.DistributedSystem` and applies every
differential check that is *sound* for the case:

``execution``
    The simulation itself must complete without raising; the stamped
    history and detections feed the other checks.

``oracle``
    Detections must equal ``repro.events.semantics.evaluate`` over the
    stamped history as a multiset of composite timestamps.  Sound in
    the UNRESTRICTED context for non-temporal expressions (the oracle's
    timer site differs from the detector's) when no message was
    permanently lost.  The arrival-order-insensitive operators
    (Or/And/Sequence/Filter) qualify under any such schedule; Not/A/A*
    additionally require an *orderly* one — no loss, perfect clocks,
    constant latency of at most one global granule — so that arrival
    inversions stay confined to concurrent events and arrival order
    remains a linearization of ``<_p``.  Times is always excluded (it
    batches by raw arrival order).

``kernels``
    The fast-path kernels (``relation_code``, ``fast_max_set``, the
    composite relations) must agree with the literal Definitions
    4.7–5.4 from :mod:`repro.conformance.literal` on the stamps the case
    actually produced.

``checkpoint``
    Split the stream at the schedule's ``checkpoint_fraction``, snapshot
    a single-site detector, restore into a fresh one, feed the rest:
    detections must match an uninterrupted run.  Sound for *every*
    operator and context because a lone detector is deterministic.

``failover``
    Kill-and-restart invariance of the fault-tolerant serving cluster:
    the stamped stream runs through the in-process failover harness
    (:class:`~repro.serve.cluster.LocalFailoverCluster` — the exact WAL
    + checkpoint + replay + ledger path of the cluster supervisor)
    fault-free and under a deterministic kill/corruption
    :class:`~repro.serve.cluster.FaultPlan`; the per-rule detection
    multisets must match.  Sound for every operator class, like
    ``sharding``.

``approx``
    Anytime soundness of :class:`~repro.detection.approximate.
    ApproximateStabilizer`: drive the stamped history through a plain
    :class:`~repro.detection.stabilizer.Stabilizer` (the exact
    reference) and an approximate one over the *identical*
    FIFO-preserving adversarial delivery and clock-advance schedule.
    The CONFIRMED multiset must equal the exact multiset, every
    TENTATIVE must resolve (confirm or retract — never dangle), and no
    tentative may be referenced twice.  Sound for every operator class
    and context: both engines are deterministic given the delivery.

``reorder``
    Deliver the cross-site messages of a zero-latency
    :class:`~repro.detection.coordinator.DistributedDetector` in a
    random adversarial order; the result must still equal the oracle.
    Gated like ``oracle`` plus the schedule's ``reorder`` flag.

Checks that are not sound for a case are reported as skipped (with the
reason), never silently dropped.  ``run_case(case, checks=[...])``
restricts a run to the named checks (the CLI's ``fuzz --check`` filter).
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from repro.analysis.metrics import multiset_diff
from repro.errors import ReproError
from repro.contexts.policies import Context
from repro.detection.approximate import ApproximateStabilizer
from repro.detection.checkpoint import restore, snapshot
from repro.detection.coordinator import DistributedDetector
from repro.detection.detector import Detector
from repro.detection.stabilizer import Stabilizer
from repro.events.expressions import (
    Aperiodic,
    AperiodicStar,
    EventExpression,
    Not,
    Periodic,
    PeriodicStar,
    Plus,
    Times,
)
from repro.events.occurrences import EventOccurrence, History
from repro.events.semantics import evaluate
from repro.sim.cluster import DistributedSystem
from repro.sim.config import SimConfig
from repro.time.composite import (
    CompositeTimestamp,
    composite_relation,
    max_set,
)
from repro.time.kernels import fast_max_set, relation_code
from repro.conformance.generator import FuzzCase
from repro.conformance.literal import (
    ref_composite_relation,
    ref_lt,
    ref_max_set,
)

CASE_NAME = "fuzz"

_TEMPORAL = (Periodic, PeriodicStar, Plus)
_ORDER_SENSITIVE = (Not, Aperiodic, AperiodicStar, Times)


def has_temporal(expression: EventExpression) -> bool:
    """Whether the expression uses timer-driven operators (P/P*/+)."""
    return any(isinstance(node, _TEMPORAL) for node in expression.walk())


def is_order_sensitive(expression: EventExpression) -> bool:
    """Whether detections can depend on arrival order (Not/A/A*/Times)."""
    return any(
        isinstance(node, _ORDER_SENSITIVE) for node in expression.walk()
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one differential check on one case."""

    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False


@dataclass
class CaseResult:
    """All check outcomes of one executed case."""

    case: FuzzCase
    checks: list[CheckResult] = field(default_factory=list)
    detections: int = 0

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.passed]

    def check(self, name: str) -> CheckResult | None:
        for check in self.checks:
            if check.name == name:
                return check
        return None


def timestamps_multiset(occurrences) -> list[str]:
    """Canonical comparison form: the sorted composite-timestamp reprs."""
    return sorted(repr(o.timestamp) for o in occurrences)


def build_system(case: FuzzCase) -> DistributedSystem:
    """The simulated system a case describes (faults included)."""
    schedule = case.schedule
    config = SimConfig(
        seed=case.seed,
        latency=schedule.build_latency(case.seed),
        perfect_clocks=case.perfect_clocks,
        loss_probability=schedule.loss_probability,
        retransmit=schedule.retransmit,
        max_retries=schedule.max_retries,
        retry_timeout=Fraction(schedule.retry_timeout),
    )
    system = DistributedSystem(list(case.sites), config=config)
    for event_type, home in sorted(case.homes.items()):
        system.set_home(event_type, home)
    system.register(
        case.expression, name=CASE_NAME, context=Context(case.context)
    )
    return system


def _temporal_pad(expression: EventExpression) -> int:
    """Granules to keep pumping past the last event so timers drain."""
    constants = [
        node.period
        for node in expression.walk()
        if isinstance(node, (Periodic, PeriodicStar))
    ] + [node.offset for node in expression.walk() if isinstance(node, Plus)]
    return 2 * max(constants, default=0) + 2


# Tail-drain allowance past the pumped horizon: covers the slowest spiky
# delivery plus a full linear-backoff retry chain.
_DRAIN_SLACK = Fraction(6)


def _execute(case: FuzzCase, expression: EventExpression) -> DistributedSystem:
    system = build_system(case)
    workload = case.workload()
    system.inject(workload)
    if has_temporal(expression) and workload:
        horizon = max(event.time for event in workload)
        horizon += _temporal_pad(expression) * system.model.global_.seconds
        system.run(until=horizon, pump_granules=True)
        # An unclosed P/P* window ticks forever, and every cross-site tick
        # delivery advances the clock past the next tick deadline — an
        # unbounded run() would never drain.  Bound the tail instead; the
        # cutoff is deterministic, so verdicts stay reproducible.
        system.run(until=horizon + _DRAIN_SLACK)
    else:
        system.run()
    return system


def _failure(name: str, error: Exception) -> CheckResult:
    last = traceback.format_exception_only(type(error), error)[-1].strip()
    return CheckResult(name, passed=False, detail=f"raised {last}")


def _skip(name: str, reason: str) -> CheckResult:
    return CheckResult(name, passed=True, skipped=True, detail=reason)


# --- the individual checks ----------------------------------------------------


def _oracle_gate(
    case: FuzzCase, expression: EventExpression, system: DistributedSystem
) -> str | None:
    """Why the end-to-end oracle comparison is unsound here, if it is."""
    if Context(case.context) is not Context.UNRESTRICTED:
        return f"context {case.context} (oracle is unrestricted-only)"
    if has_temporal(expression):
        return "temporal operators (oracle timer site differs)"
    if any(isinstance(node, Times) for node in expression.walk()):
        return "times batches by arrival order"
    if is_order_sensitive(expression):
        # Not/A/A* match the oracle when events arrive in a linearization
        # of <_p.  With no loss, perfect clocks, and a constant latency
        # at most one global granule, arrival inversions are confined to
        # concurrent events — still a linearization.  Anything looser
        # (retransmission lag, latency spikes, drift) can invert ordered
        # pairs, where online non-monotonic detection legitimately
        # diverges from the oracle.
        if not case.schedule.is_orderly:
            return "order-sensitive operators under loss/variable latency"
        if not case.perfect_clocks:
            return "order-sensitive operators under clock drift"
        if Fraction(case.schedule.latency_high) > system.model.global_.seconds:
            return "order-sensitive operators with latency above one granule"
    if system.lost_messages:
        return f"{system.lost_messages} message(s) permanently lost"
    return None


def _check_oracle(
    oracle_strs: list[str], system: DistributedSystem
) -> CheckResult:
    actual = timestamps_multiset(
        record.detection.occurrence
        for record in system.detections_of(CASE_NAME)
    )
    missing, extra = multiset_diff(oracle_strs, actual)
    if not missing and not extra:
        return CheckResult(
            "oracle", True, f"{len(actual)} detections match the oracle"
        )
    return CheckResult(
        "oracle",
        False,
        f"missing={missing[:3]} extra={extra[:3]} "
        f"(oracle {len(oracle_strs)}, detector {len(actual)})",
    )


def _check_kernels(case: FuzzCase, system: DistributedSystem) -> CheckResult:
    rng = random.Random(case.seed ^ 0xC0FFEE)
    stamps = [
        stamp
        for occurrence in system.history
        for stamp in occurrence.timestamp
    ]
    problems: list[str] = []
    pool = stamps[:24]
    for i, a in enumerate(pool):
        for b in pool[i:]:
            code = relation_code(a, b)
            want = -1 if ref_lt(a, b) else (1 if ref_lt(b, a) else 0)
            if code != want:
                problems.append(
                    f"relation_code({a!r}, {b!r}) = {code}, literal {want}"
                )
    composites: list[CompositeTimestamp] = []
    if stamps:
        for _ in range(24):
            sample = rng.sample(stamps, rng.randint(1, min(6, len(stamps))))
            fast = fast_max_set(sample)
            if fast != ref_max_set(sample):
                problems.append(f"fast_max_set diverges on {sample!r}")
                continue
            composites.append(CompositeTimestamp(max_set(sample)))
    composites.extend(
        record.detection.occurrence.timestamp
        for record in system.detections_of(CASE_NAME)[:12]
    )
    comp_pool = composites[:16]
    for t1 in comp_pool:
        for t2 in comp_pool:
            got = composite_relation(t1, t2)
            want_rel = ref_composite_relation(t1, t2)
            if got is not want_rel:
                problems.append(
                    f"composite_relation({t1}, {t2}) = {got.value}, "
                    f"literal {want_rel.value}"
                )
    if problems:
        return CheckResult(
            "kernels", False, "; ".join(problems[:3])
        )
    return CheckResult(
        "kernels",
        True,
        f"{len(pool)} stamps, {len(comp_pool)} composites vs literal defs",
    )


def _feed_into(detector: Detector, occurrences) -> None:
    # Feed *fresh copies*: after a restore, buffered occurrences carry
    # newly allocated uids, so post-checkpoint events must get uids
    # allocated after them — exactly what a real restarted process sees.
    # Re-using the pre-cut occurrence objects would invert that order and
    # flip uid-tie-breaks in the consumption contexts.
    for occurrence in occurrences:
        granule = occurrence.timestamp.global_span()[1]
        if granule > detector.now_global:
            detector.advance_time(granule)
        detector.feed(
            EventOccurrence.primitive(
                occurrence.event_type,
                next(iter(occurrence.timestamp)),
                occurrence.parameters,
            )
        )


def _check_continuity(
    case: FuzzCase, expression: EventExpression, history: History
) -> CheckResult:
    occurrences = list(history)
    if len(occurrences) < 2:
        return _skip("checkpoint", "fewer than two events")
    context = Context(case.context)
    ratio = 10  # example 5.1 model: local ticks per global granule

    def fresh() -> Detector:
        detector = Detector(site="conf", timer_ratio=ratio)
        detector.register(expression, name=CASE_NAME, context=context)
        return detector

    horizon = max(
        occurrence.timestamp.global_span()[1] for occurrence in occurrences
    ) + _temporal_pad(expression)
    reference = fresh()
    _feed_into(reference, occurrences)
    reference.advance_time(horizon)

    cut = int(len(occurrences) * case.schedule.checkpoint_fraction)
    cut = min(max(cut, 1), len(occurrences) - 1)
    first = fresh()
    _feed_into(first, occurrences[:cut])
    state = snapshot(first)
    second = fresh()
    restore(second, state)
    _feed_into(second, occurrences[cut:])
    second.advance_time(horizon)

    expected = timestamps_multiset(reference.detections_of(CASE_NAME))
    actual = timestamps_multiset(
        first.detections_of(CASE_NAME) + second.detections_of(CASE_NAME)
    )
    missing, extra = multiset_diff(expected, actual)
    if not missing and not extra:
        return CheckResult(
            "checkpoint",
            True,
            f"cut at {cut}/{len(occurrences)}: {len(expected)} detections "
            "preserved",
        )
    return CheckResult(
        "checkpoint",
        False,
        f"cut at {cut}/{len(occurrences)}: missing={missing[:3]} "
        f"extra={extra[:3]}",
    )


def _wire_round_trip(events):
    """The stream after one pass through the binary wire codec.

    Granule runs become frames exactly as a binary client would send
    them (:meth:`~repro.sim.serving.ServingWorkload.to_frames` framing);
    decoding them back yields the stream a ``--codec binary`` server
    ingests.  A transparent codec returns an equal event list.
    """
    from repro.serve.protocol import get_codec, granule_runs

    codec = get_codec("binary")
    out = []
    for run in granule_runs(events):
        out.extend(codec.decode_batch(codec.encode_batch(run)))
    return out


def _check_sharding(
    case: FuzzCase, expression: EventExpression, history: History
) -> CheckResult:
    """Shard-count invariance: serve detections match a 1-shard run.

    The case expression is registered under several rule names so the
    hash assignment spreads them across shards, then the same stamped
    stream runs through the serving runtime with 1 shard and with 3
    shards under two different salts.  Every configuration must produce
    the identical multiset of composite timestamps per rule.  Both
    sides are deterministic replays of the same arrival order, so the
    check is sound for every operator class and fault schedule.

    The sharded runs additionally consume the stream *through the
    version-1 binary wire codec* (each granule run encoded to a frame
    and decoded back), so the check also proves the wire encoding is
    transparent: a binary client must see the same detection multisets
    as a JSONL one.
    """
    from repro.serve import ServeEvent, serve_events

    occurrences = list(history)
    if not occurrences:
        return _skip("sharding", "no events")
    events = [ServeEvent.from_occurrence(o) for o in occurrences]
    horizon = max(event.granule for event in events) + _temporal_pad(
        expression
    )
    rules = {f"{CASE_NAME}_{i}": expression for i in range(3)}
    context = Context(case.context)

    wire_events = _wire_round_trip(events)
    if wire_events != events:
        return CheckResult(
            "sharding",
            False,
            "binary codec round trip altered the event stream",
        )

    def run(stream, shards: int, salt: int):
        return serve_events(
            rules,
            stream,
            shards=shards,
            salt=salt,
            timer_ratio=10,  # example 5.1 model, as elsewhere in this runner
            context=context,
            horizon=horizon,
        )

    baseline = run(events, shards=1, salt=0)
    expected = {
        name: timestamps_multiset(baseline.detections_of(name))
        for name in rules
    }
    for shards, salt in ((3, 0), (3, case.seed % 97 + 1)):
        # The sharded runs consume the binary-decoded stream, so any
        # divergence the wire encoding introduced shows up as a
        # multiset mismatch against the JSONL-equivalent baseline.
        sharded = run(wire_events, shards=shards, salt=salt)
        for name in rules:
            missing, extra = multiset_diff(
                expected[name],
                timestamps_multiset(sharded.detections_of(name)),
            )
            if missing or extra:
                return CheckResult(
                    "sharding",
                    False,
                    f"{name} at shards={shards} salt={salt} (binary wire): "
                    f"missing={missing[:3]} extra={extra[:3]}",
                )
    detections = sum(len(expected[name]) for name in rules)
    return CheckResult(
        "sharding",
        True,
        f"{detections} detections invariant over shards 1/3, two salts, "
        "binary wire round trip",
    )


def _check_failover(
    case: FuzzCase, expression: EventExpression, history: History
) -> CheckResult:
    """Shard-kill/restart invariance: failover preserves detections.

    The mirror of ``sharding`` for the fault-tolerant cluster: the same
    stamped stream runs through the in-process failover harness (the
    exact WAL + checkpoint + replay + detection-ledger path of
    :class:`repro.serve.cluster.ClusterSupervisor`, minus the OS process
    boundary) twice — fault-free, and under a deterministic
    :class:`~repro.serve.cluster.FaultPlan` that kills every shard
    mid-stream and corrupts one checkpoint (forcing the
    previous-generation fallback).  Recovery restores the last intact
    checkpoint and replays the WAL tail, so the multiset of composite
    timestamps per rule must be identical.  Sound for every operator
    class and fault schedule: both runs are deterministic replays of the
    same arrival order.

    The faulted run logs with ``codec="binary"`` (version-1 WAL frames)
    while the fault-free baseline keeps the legacy JSONL text layout,
    so the comparison also proves recovery is codec-invariant: replay
    from a binary WAL restores the same detections as never crashing
    with a JSONL one.

    Two *elastic* legs extend the check to live re-balancing: one run
    re-hashes the cluster 2 -> 4 -> 3 mid-stream (detector state
    migrating at granule boundaries, safe by Def 4.4), and one run
    permanently loses a seed-chosen shard mid-stream, re-homing its
    rules onto the survivors over binary WALs.  Both must reproduce the
    baseline multiset exactly — growth, shrink, and loss never drop,
    duplicate, or invent a detection.
    """
    from repro.serve import ServeEvent
    from repro.serve.cluster import FaultPlan, replay_with_failover

    occurrences = list(history)
    if not occurrences:
        return _skip("failover", "no events")
    events = [ServeEvent.from_occurrence(o) for o in occurrences]
    horizon = max(event.granule for event in events) + _temporal_pad(
        expression
    )
    rules = {f"{CASE_NAME}_{i}": expression for i in range(3)}
    context = Context(case.context)
    salt = case.seed % 97

    def run(
        plan: FaultPlan | None,
        codec: str | None = None,
        *,
        shards: int = 3,
        scale_plan: tuple[tuple[int, int], ...] = (),
        lose: tuple[tuple[int, int], ...] = (),
    ):
        return replay_with_failover(
            rules,
            events,
            shards=shards,
            salt=salt,
            timer_ratio=10,  # example 5.1 model, as elsewhere in this runner
            context=context,
            horizon=horizon,
            checkpoint_every=3,
            fault_plan=plan,
            codec=codec,
            scale_plan=scale_plan,
            lose=lose,
        )

    baseline = run(None)
    count = len(events)
    # At least one kill is guaranteed to fire: every rule lives on some
    # shard, that shard's WAL sees all `count` events, and each shard has
    # a kill point at or below `count`.
    plan = FaultPlan(
        kills=(
            (0, max(1, count // 3)),
            (1, max(1, count // 2)),
            (2, max(1, (2 * count) // 3)),
        ),
        corrupt_checkpoints=(case.seed % 3,),
    )
    faulted = run(plan, codec="binary")
    # Elastic legs: mid-stream re-balancing (2 -> 4 -> 3) and a
    # permanent seed-chosen shard loss re-homed onto the survivors
    # (binary WALs), each at a third of the stream.
    scaled = run(
        None, shards=2,
        scale_plan=((max(1, count // 3), 4), (max(1, (2 * count) // 3), 3)),
    )
    lost = run(
        None, codec="binary", shards=3,
        lose=((max(1, count // 2), case.seed % 3),),
    )
    legs = (
        ("binary WAL", faulted),
        ("scale 2->4->3", scaled),
        ("lose shard", lost),
    )
    for label, cluster in legs:
        for name in rules:
            missing, extra = multiset_diff(
                timestamps_multiset(baseline.detections_of(name)),
                timestamps_multiset(cluster.detections_of(name)),
            )
            if missing or extra:
                return CheckResult(
                    "failover",
                    False,
                    f"{name} [{label}] after {cluster.restarts} restart(s), "
                    f"{cluster.rebalances} re-balance(s): "
                    f"missing={missing[:3]} extra={extra[:3]}",
                )
    detections = sum(
        len(baseline.detections_of(name)) for name in rules
    )
    return CheckResult(
        "failover",
        True,
        f"{detections} detections preserved over {faulted.restarts} "
        f"kill(s), {faulted.replayed} replayed entries (binary WAL), "
        f"{scaled.rebalances + lost.rebalances} elastic re-balance(s)",
    )


def _check_tenancy(
    case: FuzzCase, expression: EventExpression, history: History
) -> CheckResult:
    """Tenant-isolation invariance: interleaved multi-tenant serving
    detects per tenant exactly what each tenant run alone would.

    The case's stamped stream is interleaved across two tenants (event
    ``i`` goes to tenant ``i % 2``) and the case expression is
    registered under two rule names for *both* tenants, so rules from
    different tenants share shards, type namespaces are exercised, and
    the tenant-folded routing salts spread the rules independently.
    The interleaved run goes through :func:`repro.serve.tenancy.
    serve_tenants` with a deliberately tight quota (forcing the parked/
    deferred admission path), a mid-stream shard kill, and binary WALs.
    Each tenant's collected multiset must equal a fault-free solo run
    of its own sub-stream through the single-shard serving runtime —
    the configuration the ``sharding`` and ``oracle`` checks already
    tie to the denotational semantics — and each tenant's envelope-log
    ``replay(tenant)`` must reconstruct the live multiset exactly.
    Sound for every operator class: all runs are deterministic replays
    of the same per-tenant arrival orders, and Definition 4.4 makes the
    intra-granule deferral the quota introduces immaterial.
    """
    from repro.serve import ServeEvent, serve_events
    from repro.serve.cluster import FaultPlan
    from repro.serve.tenancy import TenantQuota, serve_tenants

    occurrences = list(history)
    if not occurrences:
        return _skip("tenancy", "no events")
    events = [ServeEvent.from_occurrence(o) for o in occurrences]
    horizon = max(event.granule for event in events) + _temporal_pad(
        expression
    )
    rules = {f"{CASE_NAME}_{i}": expression for i in range(2)}
    context = Context(case.context)
    salt = case.seed % 97
    tenants = ("acme", "globex")
    stream = [
        (tenants[index % len(tenants)], event)
        for index, event in enumerate(events)
    ]
    count = len(events)
    cluster = serve_tenants(
        {tenant: rules for tenant in tenants},
        stream,
        shards=3,
        salt=salt,
        timer_ratio=10,  # example 5.1 model, as elsewhere in this runner
        quota=TenantQuota(rate=2, burst=3),
        context=context,
        horizon=horizon,
        checkpoint_every=3,
        fault_plan=FaultPlan(kills=((case.seed % 3, max(1, count // 2)),)),
        codec="binary",
    )
    throttled = 0
    for tenant in tenants:
        solo_events = [
            event for owner, event in stream if owner == tenant
        ]
        baseline = serve_events(
            rules,
            solo_events,
            shards=1,
            timer_ratio=10,
            context=context,
            horizon=horizon,
        )
        replayed = cluster.replay(tenant, upto=horizon)
        for name in rules:
            expected = timestamps_multiset(baseline.detections_of(name))
            live = timestamps_multiset(cluster.detections_of(tenant, name))
            missing, extra = multiset_diff(expected, live)
            if missing or extra:
                return CheckResult(
                    "tenancy",
                    False,
                    f"{tenant}/{name} interleaved vs solo: "
                    f"missing={missing[:3]} extra={extra[:3]}",
                )
            rebuilt = timestamps_multiset(replayed[name])
            missing, extra = multiset_diff(live, rebuilt)
            if missing or extra:
                return CheckResult(
                    "tenancy",
                    False,
                    f"{tenant}/{name} envelope replay vs live: "
                    f"missing={missing[:3]} extra={extra[:3]}",
                )
        status = cluster.status().tenants[tenant]
        throttled += status["throttled"]
    detections = sum(
        len(cluster.detections_of(tenant, name))
        for tenant in tenants
        for name in rules
    )
    return CheckResult(
        "tenancy",
        True,
        f"{detections} detections isolated across {len(tenants)} tenants "
        f"({throttled} quota-deferred, {cluster.cluster.restarts} kill(s), "
        "envelope replay exact)",
    )


def _check_reorder(
    case: FuzzCase, expression: EventExpression, history: History,
    oracle_strs: list[str],
) -> CheckResult:
    detector = DistributedDetector(list(case.sites))
    for event_type, home in sorted(case.homes.items()):
        detector.set_home(event_type, home)
    detector.register(
        expression, name=CASE_NAME, context=Context(case.context)
    )
    for occurrence in history:
        detector.feed(
            EventOccurrence.primitive(
                occurrence.event_type,
                next(iter(occurrence.timestamp)),
                occurrence.parameters,
            )
        )
    rng = random.Random(case.seed * 31 + 7)
    while detector.outbox:
        pending = list(detector.outbox)
        detector.outbox.clear()
        rng.shuffle(pending)
        for message in pending:
            detector.deliver(message)
    actual = timestamps_multiset(detector.detections_of(CASE_NAME))
    missing, extra = multiset_diff(oracle_strs, actual)
    if not missing and not extra:
        return CheckResult(
            "reorder", True, f"{len(actual)} detections survive shuffling"
        )
    return CheckResult(
        "reorder",
        False,
        f"missing={missing[:3]} extra={extra[:3]} under shuffled delivery",
    )


def _check_netfault(
    case: FuzzCase, expression: EventExpression, history: History
) -> CheckResult:
    """Partition invariance: faulty links never change what is detected.

    The mirror of ``failover`` for the *network* axis: the same stamped
    stream runs through the sans-IO session harness of
    :mod:`repro.serve.netfault` twice — fault-free, and under a
    seed-derived :class:`~repro.serve.netfault.NetFaultPlan` injecting
    one-way frame drops, duplicated frames, and connection resets that
    run the real resume handshake (each side replaying its
    unacknowledged session buffer).  No replica ever crashes, so any
    discrepancy is a defect in the resumable-session protocol itself —
    a lost, duplicated, or reordered frame the
    :class:`~repro.serve.session.SessionHalf` ledgers failed to repair.
    The faulted leg runs under both wire codecs (every frame is
    round-tripped per hop), proving resume replay is codec-invariant.
    Sound for every operator class and fault schedule: both runs are
    deterministic replays of the same arrival order, and the session
    layer's in-order exactly-once delivery makes the faulted run's
    per-replica input stream identical to the fault-free run's.
    """
    from repro.serve import ServeEvent
    from repro.serve.netfault import NetFaultPlan, replay_with_netfault

    occurrences = list(history)
    if not occurrences:
        return _skip("netfault", "no events")
    events = [ServeEvent.from_occurrence(o) for o in occurrences]
    horizon = max(event.granule for event in events) + _temporal_pad(
        expression
    )
    rules = {f"{CASE_NAME}_{i}": expression for i in range(3)}
    context = Context(case.context)
    salt = case.seed % 97

    def run(plan: "NetFaultPlan | None", codec: str):
        return replay_with_netfault(
            rules,
            events,
            shards=3,
            salt=salt,
            timer_ratio=10,  # example 5.1 model, as elsewhere in this runner
            context=context,
            horizon=horizon,
            plan=plan,
            codec=codec,
        )

    def rule_multiset(report, name: str) -> list[str]:
        return sorted(
            json.dumps(stamps) for stamps in report.timestamps_of(name)
        )

    baseline = run(None, "jsonl")
    count = len(events)
    plan = NetFaultPlan.from_seed(
        case.seed,
        # Per-direction frame budget ~ registers + events + responses;
        # scaling with the stream keeps faults landing mid-traffic.
        frames=max(12, count * 2),
        drops=3,
        dups=3,
        resets=2,
    )
    legs = (
        ("jsonl", run(plan, "jsonl")),
        ("binary", run(plan, "binary")),
    )
    for label, faulted in legs:
        for name in rules:
            missing, extra = multiset_diff(
                rule_multiset(baseline, name), rule_multiset(faulted, name)
            )
            if missing or extra:
                return CheckResult(
                    "netfault",
                    False,
                    f"{name} [{label}] after {faulted.resumes} resume(s), "
                    f"{faulted.drops} dropped frame(s): "
                    f"missing={missing[:3]} extra={extra[:3]}",
                )
    resumes = sum(report.resumes for _, report in legs)
    drops = sum(report.drops for _, report in legs)
    return CheckResult(
        "netfault",
        True,
        f"{len(baseline.rows)} detections preserved over {resumes} "
        f"resume(s), {drops} dropped and "
        f"{sum(r.dups for _, r in legs)} duplicated frame(s)",
    )


def _check_approx(
    case: FuzzCase, expression: EventExpression, history: History
) -> CheckResult:
    def build(approximate: bool) -> Stabilizer:
        detector = Detector()
        detector.register(
            expression, name=CASE_NAME, context=Context(case.context)
        )
        if approximate:
            return ApproximateStabilizer(detector, sites=list(case.sites))
        return Stabilizer(detector, sites=list(case.sites))

    # FIFO-preserving adversarial interleaving: per-site order kept (the
    # stabilizer's premise), cross-site order scrambled by the seed.
    by_site: dict[str, list[EventOccurrence]] = {}
    for occurrence in history:
        by_site.setdefault(occurrence.site(), []).append(
            EventOccurrence.primitive(
                occurrence.event_type,
                next(iter(occurrence.timestamp)),
                occurrence.parameters,
            )
        )
    for queue in by_site.values():
        queue.sort(key=lambda o: min(t.local for t in o.timestamp))
    rng = random.Random(case.seed * 131 + 17)
    delivery: list[EventOccurrence] = []
    queues = [queue for queue in by_site.values() if queue]
    while queues:
        delivery.append(rng.choice(queues).pop(0))
        queues = [queue for queue in queues if queue]
    horizon = max(
        (o.timestamp.global_span()[1] for o in delivery), default=0
    ) + _temporal_pad(expression)

    reference = build(approximate=False)
    approx = build(approximate=True)
    for occurrence in delivery:
        granule = occurrence.timestamp.global_span()[1]
        approx.advance_shadow(granule)
        approx.offer(occurrence)
        approx.advance_exact()
        reference.offer(occurrence)
        frontier = reference.frontier()
        if frontier > reference.detector.now_global:
            reference.detector.advance_time(frontier)
    approx.advance_shadow(horizon)
    approx.announce_all(horizon)
    approx.advance_exact()
    approx.flush(advance_to=horizon)
    for site in sorted(reference.watermarks):
        reference.announce(site, horizon)
    frontier = reference.frontier()
    if frontier > reference.detector.now_global:
        reference.detector.advance_time(frontier)
    reference.flush()
    if horizon > reference.detector.now_global:
        reference.detector.advance_time(horizon)

    expected = timestamps_multiset(
        reference.detector.detections_of(CASE_NAME)
    )
    confirmed = timestamps_multiset(approx.confirmed_of(CASE_NAME))
    missing, extra = multiset_diff(expected, confirmed)
    if missing or extra:
        return CheckResult(
            "approx",
            False,
            f"CONFIRMED != exact: missing={missing[:3]} extra={extra[:3]} "
            f"(exact {len(expected)}, confirmed {len(confirmed)})",
        )
    if approx.unresolved():
        return CheckResult(
            "approx",
            False,
            f"{approx.unresolved()} tentative(s) unresolved after flush",
        )
    tentatives = {v.seq for v in approx.tentative()}
    refs = [
        v.ref
        for v in approx.verdicts
        if v.verdict.resolved and v.ref is not None
    ]
    if len(refs) != len(set(refs)) or not set(refs) <= tentatives:
        return CheckResult(
            "approx", False, "dangling or double-referenced tentative(s)"
        )
    if set(refs) != tentatives:
        return CheckResult(
            "approx",
            False,
            f"{len(tentatives - set(refs))} tentative(s) never resolved",
        )
    anticipated = sum(1 for v in approx.confirmed() if v.ref is not None)
    return CheckResult(
        "approx",
        True,
        f"{len(confirmed)} confirmed == exact ({anticipated} anticipated "
        f"eagerly, {len(approx.retracted())} retracted)",
    )


# --- the driver ---------------------------------------------------------------


#: Every check name ``run_case`` knows (the ``checks=`` filter domain).
CHECK_NAMES = (
    "execution",
    "oracle",
    "kernels",
    "checkpoint",
    "sharding",
    "failover",
    "netfault",
    "tenancy",
    "approx",
    "reorder",
)


def run_case(case: FuzzCase, checks: Sequence[str] | None = None) -> CaseResult:
    """Execute one case and apply every sound differential check.

    ``checks`` restricts the run to the named checks (``execution``
    always runs — it produces the history the others consume); an
    unknown name raises so CLI typos fail loudly instead of silently
    passing an empty campaign.
    """
    if checks is not None:
        unknown = sorted(set(checks) - set(CHECK_NAMES))
        if unknown:
            raise ReproError(
                f"unknown conformance check(s) {unknown}; "
                f"valid: {', '.join(sorted(CHECK_NAMES))}"
            )

    def wanted(name: str) -> bool:
        return checks is None or name in checks

    result = CaseResult(case)
    try:
        expression = case.parsed()
        case.validate()
        system = _execute(case, expression)
    except Exception as error:  # noqa: BLE001 - a crash IS the finding
        result.checks.append(_failure("execution", error))
        return result
    result.detections = len(system.detections_of(CASE_NAME))
    result.checks.append(
        CheckResult(
            "execution",
            True,
            f"{len(system.history)} events, {result.detections} detections, "
            f"{system.retransmissions} retransmissions",
        )
    )

    oracle_strs: list[str] | None = None
    gate = _oracle_gate(case, expression, system)
    if wanted("oracle") or wanted("reorder"):
        if gate is not None:
            if wanted("oracle"):
                result.checks.append(_skip("oracle", gate))
        else:
            try:
                oracle_strs = timestamps_multiset(
                    evaluate(expression, system.history, label=CASE_NAME)
                )
                if wanted("oracle"):
                    result.checks.append(_check_oracle(oracle_strs, system))
            except Exception as error:  # noqa: BLE001
                if wanted("oracle"):
                    result.checks.append(_failure("oracle", error))

    if wanted("kernels"):
        try:
            result.checks.append(_check_kernels(case, system))
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("kernels", error))

    if wanted("checkpoint"):
        try:
            result.checks.append(
                _check_continuity(case, expression, system.history)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("checkpoint", error))

    if wanted("sharding"):
        try:
            result.checks.append(
                _check_sharding(case, expression, system.history)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("sharding", error))

    if wanted("failover"):
        try:
            result.checks.append(
                _check_failover(case, expression, system.history)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("failover", error))

    if wanted("netfault"):
        try:
            result.checks.append(
                _check_netfault(case, expression, system.history)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("netfault", error))

    if wanted("tenancy"):
        try:
            result.checks.append(
                _check_tenancy(case, expression, system.history)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("tenancy", error))

    if wanted("approx"):
        try:
            result.checks.append(
                _check_approx(case, expression, system.history)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("approx", error))

    if not wanted("reorder"):
        pass
    elif not case.schedule.reorder:
        result.checks.append(_skip("reorder", "schedule has reorder=False"))
    elif is_order_sensitive(expression):
        # Shuffled delivery is NOT a linearization of <_p, so the relaxed
        # orderly-schedule argument that admits Not/A/A* to the oracle
        # check does not extend here.
        result.checks.append(
            _skip("reorder", "order-sensitive operators under shuffling")
        )
    elif gate is not None:
        result.checks.append(_skip("reorder", gate))
    elif oracle_strs is None:
        result.checks.append(_skip("reorder", "oracle unavailable"))
    else:
        try:
            result.checks.append(
                _check_reorder(case, expression, system.history, oracle_strs)
            )
        except Exception as error:  # noqa: BLE001
            result.checks.append(_failure("reorder", error))
    return result
