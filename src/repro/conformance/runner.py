"""Execute one fuzz case and cross-check it against differential checks.

``run_case`` drives a :class:`FuzzCase` end-to-end through the simulated
:class:`~repro.sim.cluster.DistributedSystem` and applies every
differential check that is *sound* for the case.  Each check is one row
of :data:`LEGS` — a name, a *gate* that says why the check is unsound
for a case, and the check itself, whose docstring says what it compares
and why that is sound — and ``run_case`` is one loop over the rows.
Checks that are not sound for a case are reported as skipped (with the
gate's reason), never silently dropped.  ``run_case(case, checks=[...])``
restricts a run to the named checks (the CLI's ``fuzz --check`` filter).
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

from repro.analysis.metrics import (
    detection_mismatch,
    detection_multiset,
    timestamps_multiset,
)
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
from repro.events.occurrences import EventOccurrence
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


def _compare(expected: list[str], actual: list[str], label: str = "") -> str | None:
    """:func:`detection_mismatch` for one unnamed rule (the case's own)."""
    return detection_mismatch({"": expected}, {"": actual}, label)


def _multisets(detections_of, names) -> dict[str, list[str]]:
    """One run's per-rule detection multisets."""
    return {name: timestamps_multiset(detections_of(name)) for name in names}


# Example 5.1 model: local ticks per global granule, for the checkpoint
# detectors and every serving run a leg builds.
_TIMER_RATIO = 10


# --- what the legs share ------------------------------------------------------


class CaseRun:
    """One case as every leg reads it, each shared part computed once.

    The ``execution`` leg sets :attr:`expression` and :attr:`system`.
    The serving prelude (:attr:`events`, :attr:`horizon`, :attr:`rules`,
    :attr:`context`, :attr:`salt`) and the oracle multiset are derived
    on first use, so a leg that is filtered out or gated off costs
    nothing.
    """

    expression: EventExpression
    system: DistributedSystem

    def __init__(self, case: FuzzCase) -> None:
        self.case = case
        #: The routing salt of the serving legs.
        self.salt = case.seed % 97

    @property
    def detections(self) -> int:
        return len(self.system.detections_of(CASE_NAME))

    @cached_property
    def context(self) -> Context:
        return Context(self.case.context)

    @cached_property
    def occurrences(self) -> list[EventOccurrence]:
        """The stamped history, in arrival order."""
        return list(self.system.history)

    @cached_property
    def events(self) -> list:
        """The stamped history as serve events."""
        from repro.serve import ServeEvent

        return [ServeEvent.from_occurrence(o) for o in self.occurrences]

    @cached_property
    def horizon(self) -> int:
        """The last event's granule, plus room for timers to drain."""
        last = max(
            (o.timestamp.global_span()[1] for o in self.occurrences), default=0
        )
        return last + _temporal_pad(self.expression)

    @cached_property
    def serve_options(self) -> dict[str, Any]:
        """The keywords every serving run of the case shares."""
        return {
            "timer_ratio": _TIMER_RATIO,
            "context": self.context,
            "horizon": self.horizon,
        }

    @cached_property
    def rules(self) -> dict[str, EventExpression]:
        """The case expression under three rule names, so the hash
        assignment spreads it across shards."""
        return {f"{CASE_NAME}_{i}": self.expression for i in range(3)}

    @cached_property
    def oracle_result(self) -> list[str] | Exception:
        """The denotational oracle's multiset over the stamped history,
        or what evaluating it raised; ``oracle`` and ``reorder`` share it."""
        try:
            return timestamps_multiset(
                evaluate(self.expression, self.system.history, label=CASE_NAME)
            )
        except Exception as error:  # noqa: BLE001 - the oracle leg reports it
            return error

    def oracle(self) -> list[str]:
        """:attr:`oracle_result`, raising what the evaluation raised."""
        result = self.oracle_result
        if isinstance(result, Exception):
            raise result
        return result


# --- the gates ----------------------------------------------------------------


def _always(run: CaseRun) -> str | None:
    return None


def _needs_events(run: CaseRun) -> str | None:
    return None if run.occurrences else "no events"


def _needs_two_events(run: CaseRun) -> str | None:
    return None if len(run.occurrences) >= 2 else "fewer than two events"


def _oracle_gate(run: CaseRun) -> str | None:
    """Why the end-to-end oracle comparison is unsound here, if it is."""
    case, expression, system = run.case, run.expression, run.system
    if run.context is not Context.UNRESTRICTED:
        return f"context {case.context} (oracle is unrestricted-only)"
    if has_temporal(expression):
        return "temporal operators (oracle timer site differs)"
    if any(isinstance(node, Times) for node in expression.walk()):
        return "times batches by arrival order"
    if is_order_sensitive(expression):
        # Not/A/A* whose children are primitive match the oracle when
        # events arrive in a linearization of <_p.  With no loss, perfect
        # clocks, and a constant latency at most one global granule,
        # arrival inversions are confined to concurrent events — still a
        # linearization.  Anything looser (retransmission lag, latency
        # spikes, drift) can invert ordered pairs, where online
        # non-monotonic detection legitimately diverges from the oracle.
        # A *composite* child breaks even a linearization (correction
        # C7): a composite can be <_p an event one of its constituents
        # does not precede, and then completes after it.  This gate
        # still admits such cases; ROADMAP item 2(0) replaces it.
        if not case.schedule.is_orderly:
            return "order-sensitive operators under loss/variable latency"
        if not case.perfect_clocks:
            return "order-sensitive operators under clock drift"
        if Fraction(case.schedule.latency_high) > system.model.global_.seconds:
            return "order-sensitive operators with latency above one granule"
    if system.lost_messages:
        return f"{system.lost_messages} message(s) permanently lost"
    return None


def _reorder_gate(run: CaseRun) -> str | None:
    if not run.case.schedule.reorder:
        return "schedule has reorder=False"
    if is_order_sensitive(run.expression):
        # Shuffled delivery is NOT a linearization of <_p, so the relaxed
        # orderly-schedule argument that admits Not/A/A* to the oracle
        # check does not extend here.
        return "order-sensitive operators under shuffling"
    reason = _oracle_gate(run)
    if reason is not None:
        return reason
    if isinstance(run.oracle_result, Exception):
        return "oracle unavailable"
    return None


# --- the checks ---------------------------------------------------------------


def _check_execution(run: CaseRun) -> CheckResult:
    """The simulation itself must complete without raising; the stamped
    history and detections feed the other checks."""
    run.expression = run.case.parsed()
    run.case.validate()
    run.system = system = _execute(run.case, run.expression)
    return CheckResult(
        "execution",
        True,
        f"{len(system.history)} events, {run.detections} detections, "
        f"{system.retransmissions} retransmissions",
    )


def _check_oracle(run: CaseRun) -> CheckResult:
    """Detections must equal ``repro.events.semantics.evaluate`` over the
    stamped history as a multiset of composite timestamps.

    Sound in the UNRESTRICTED context for non-temporal expressions (the
    oracle's timer site differs from the detector's) when no message was
    permanently lost.  The arrival-order-insensitive operators
    (Or/And/Sequence/Filter) qualify under any such schedule; Not/A/A*
    additionally require an *orderly* one (see :func:`_oracle_gate`,
    and its correction C7).  Times is always excluded (it batches by
    raw arrival order).
    """
    expected = run.oracle()
    actual = timestamps_multiset(
        record.detection.occurrence
        for record in run.system.detections_of(CASE_NAME)
    )
    mismatch = _compare(expected, actual)
    if mismatch is None:
        return CheckResult(
            "oracle", True, f"{len(actual)} detections match the oracle"
        )
    return CheckResult(
        "oracle",
        False,
        f"{mismatch} (oracle {len(expected)}, detector {len(actual)})",
    )


def _check_kernels(run: CaseRun) -> CheckResult:
    """The fast-path kernels (``relation_code``, ``fast_max_set``, the
    composite relations) must agree with the literal Definitions
    4.7–5.4 from :mod:`repro.conformance.literal` on the stamps the case
    actually produced."""
    rng = random.Random(run.case.seed ^ 0xC0FFEE)
    stamps = [
        stamp
        for occurrence in run.occurrences
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
        for record in run.system.detections_of(CASE_NAME)[:12]
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
        return CheckResult("kernels", False, "; ".join(problems[:3]))
    return CheckResult(
        "kernels",
        True,
        f"{len(pool)} stamps, {len(comp_pool)} composites vs literal defs",
    )


def _fresh(occurrence: EventOccurrence) -> EventOccurrence:
    """A new primitive occurrence (new uid) with the same stamp."""
    return EventOccurrence.primitive(
        occurrence.event_type,
        next(iter(occurrence.timestamp)),
        occurrence.parameters,
    )


def _advance(detector: Detector, granule: int) -> None:
    """Move a detector's clock forward to ``granule`` (never back)."""
    if granule > detector.now_global:
        detector.advance_time(granule)


def _feed_into(detector: Detector, occurrences) -> None:
    # Feed *fresh copies*: after a restore, buffered occurrences carry
    # newly allocated uids, so post-checkpoint events must get uids
    # allocated after them — exactly what a real restarted process sees.
    # Re-using the pre-cut occurrence objects would invert that order and
    # flip uid-tie-breaks in the consumption contexts.
    for occurrence in occurrences:
        _advance(detector, occurrence.timestamp.global_span()[1])
        detector.feed(_fresh(occurrence))


def _check_continuity(run: CaseRun) -> CheckResult:
    """Split the stream at the schedule's ``checkpoint_fraction``,
    snapshot a single-site detector, restore into a fresh one, feed the
    rest: detections must match an uninterrupted run.  Sound for *every*
    operator and context because a lone detector is deterministic."""
    occurrences = run.occurrences

    def fresh() -> Detector:
        detector = Detector(site="conf", timer_ratio=_TIMER_RATIO)
        detector.register(run.expression, name=CASE_NAME, context=run.context)
        return detector

    reference = fresh()
    _feed_into(reference, occurrences)
    reference.advance_time(run.horizon)

    cut = int(len(occurrences) * run.case.schedule.checkpoint_fraction)
    cut = min(max(cut, 1), len(occurrences) - 1)
    first = fresh()
    _feed_into(first, occurrences[:cut])
    state = snapshot(first)
    second = fresh()
    restore(second, state)
    _feed_into(second, occurrences[cut:])
    second.advance_time(run.horizon)

    expected = timestamps_multiset(reference.detections_of(CASE_NAME))
    actual = timestamps_multiset(
        first.detections_of(CASE_NAME) + second.detections_of(CASE_NAME)
    )
    where = f"cut at {cut}/{len(occurrences)}"
    mismatch = _compare(expected, actual, where)
    if mismatch is None:
        return CheckResult(
            "checkpoint", True, f"{where}: {len(expected)} detections preserved"
        )
    return CheckResult("checkpoint", False, mismatch)


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


def _check_sharding(run: CaseRun) -> CheckResult:
    """Shard-count invariance: serve detections match a 1-shard run.

    The case expression runs under three rule names (so the hash
    assignment spreads them across shards) through the serving runtime
    with 1 shard, then with 3 shards under two salts; every
    configuration must produce the same per-rule multisets.  The sharded
    runs consume the stream through the version-1 binary wire codec
    (each granule run framed and decoded back), so the check also proves
    the wire encoding transparent.  Sound for every operator class and
    fault schedule: each side replays the same arrival order
    deterministically.
    """
    from repro.serve import serve_events

    wire_events = _wire_round_trip(run.events)
    if wire_events != run.events:
        return CheckResult(
            "sharding",
            False,
            "binary codec round trip altered the event stream",
        )

    def serve(stream, shards: int, salt: int) -> dict[str, list[str]]:
        runtime = serve_events(
            run.rules,
            stream,
            shards=shards,
            salt=salt,
            **run.serve_options,
        )
        return _multisets(runtime.detections_of, run.rules)

    expected = serve(run.events, shards=1, salt=0)
    for shards, salt in ((3, 0), (3, run.salt + 1)):
        # The sharded runs consume the binary-decoded stream, so any
        # divergence the wire encoding introduced shows up as a
        # multiset mismatch against the JSONL-equivalent baseline.
        mismatch = detection_mismatch(
            expected,
            serve(wire_events, shards=shards, salt=salt),
            f"at shards={shards} salt={salt} (binary wire)",
        )
        if mismatch is not None:
            return CheckResult("sharding", False, mismatch)
    detections = sum(len(stamps) for stamps in expected.values())
    return CheckResult(
        "sharding",
        True,
        f"{detections} detections invariant over shards 1/3, two salts, "
        "binary wire round trip",
    )


def _check_failover(run: CaseRun) -> CheckResult:
    """Shard-kill/restart invariance: failover preserves detections.

    The mirror of ``sharding`` for the fault-tolerant cluster: the
    stamped stream runs through the in-process failover harness (the
    WAL + checkpoint + replay + detection-ledger path of
    :class:`repro.serve.cluster.ClusterSupervisor`, minus the process
    boundary) fault-free, and then three more times, each of which must
    reproduce the fault-free per-rule multisets exactly:

    * under a :class:`~repro.serve.cluster.FaultPlan` that kills every
      shard mid-stream and corrupts one checkpoint (forcing the
      previous-generation fallback), logging binary WAL frames where the
      baseline logs JSONL — recovery is codec-invariant;
    * re-hashing 2 -> 4 -> 3 shards mid-stream (state migrates at
      granule boundaries, safe by Def 4.4);
    * permanently losing a seed-chosen shard, its rules re-homed onto
      the survivors.

    Sound for every operator class and fault schedule: every run is a
    deterministic replay of the same arrival order.
    """
    from repro.serve.cluster import FaultPlan, replay_with_failover

    def replay(
        plan: FaultPlan | None = None,
        codec: str | None = None,
        *,
        shards: int = 3,
        scale_plan: tuple[tuple[int, int], ...] = (),
        lose: tuple[tuple[int, int], ...] = (),
    ):
        return replay_with_failover(
            run.rules,
            run.events,
            shards=shards,
            salt=run.salt,
            checkpoint_every=3,
            fault_plan=plan,
            codec=codec,
            scale_plan=scale_plan,
            lose=lose,
            **run.serve_options,
        )

    expected = _multisets(replay().detections_of, run.rules)
    count = len(run.events)
    # At least one kill is guaranteed to fire: every rule lives on some
    # shard, that shard's WAL sees all `count` events, and each shard has
    # a kill point at or below `count`.
    plan = FaultPlan(
        kills=(
            (0, max(1, count // 3)),
            (1, max(1, count // 2)),
            (2, max(1, (2 * count) // 3)),
        ),
        corrupt_checkpoints=(run.case.seed % 3,),
    )
    faulted = replay(plan, codec="binary")
    # Elastic legs: mid-stream re-balancing (2 -> 4 -> 3) and a
    # permanent seed-chosen shard loss re-homed onto the survivors
    # (binary WALs), each at a third of the stream.
    scaled = replay(
        shards=2,
        scale_plan=((max(1, count // 3), 4), (max(1, (2 * count) // 3), 3)),
    )
    lost = replay(codec="binary", lose=((max(1, count // 2), run.case.seed % 3),))
    for label, cluster in (
        ("binary WAL", faulted),
        ("scale 2->4->3", scaled),
        ("lose shard", lost),
    ):
        mismatch = detection_mismatch(
            expected,
            _multisets(cluster.detections_of, run.rules),
            f"[{label}] after {cluster.restarts} restart(s), "
            f"{cluster.rebalances} re-balance(s)",
        )
        if mismatch is not None:
            return CheckResult("failover", False, mismatch)
    detections = sum(len(stamps) for stamps in expected.values())
    return CheckResult(
        "failover",
        True,
        f"{detections} detections preserved over {faulted.restarts} "
        f"kill(s), {faulted.replayed} replayed entries (binary WAL), "
        f"{scaled.rebalances + lost.rebalances} elastic re-balance(s)",
    )


def _check_tenancy(run: CaseRun) -> CheckResult:
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
    from repro.serve import serve_events
    from repro.serve.cluster import FaultPlan
    from repro.serve.tenancy import TenantQuota, serve_tenants

    rules = dict(list(run.rules.items())[:2])
    tenants = ("acme", "globex")
    stream = [
        (tenants[index % len(tenants)], event)
        for index, event in enumerate(run.events)
    ]
    count = len(run.events)
    cluster = serve_tenants(
        {tenant: rules for tenant in tenants},
        stream,
        shards=3,
        salt=run.salt,
        quota=TenantQuota(rate=2, burst=3),
        checkpoint_every=3,
        fault_plan=FaultPlan(kills=((run.case.seed % 3, max(1, count // 2)),)),
        codec="binary",
        **run.serve_options,
    )
    throttled = detections = 0
    for tenant in tenants:
        baseline = serve_events(
            rules,
            [event for owner, event in stream if owner == tenant],
            shards=1,
            **run.serve_options,
        )
        replayed = cluster.replay(tenant, upto=run.horizon)
        for name in rules:
            key = f"{tenant}/{name}"
            live = {key: timestamps_multiset(cluster.detections_of(tenant, name))}
            mismatch = detection_mismatch(
                {key: timestamps_multiset(baseline.detections_of(name))},
                live,
                "interleaved vs solo",
            ) or detection_mismatch(
                live,
                {key: timestamps_multiset(replayed[name])},
                "envelope replay vs live",
            )
            if mismatch is not None:
                return CheckResult("tenancy", False, mismatch)
            detections += len(live[key])
        throttled += cluster.status().tenants[tenant]["throttled"]
    return CheckResult(
        "tenancy",
        True,
        f"{detections} detections isolated across {len(tenants)} tenants "
        f"({throttled} quota-deferred, {cluster.cluster.restarts} kill(s), "
        "envelope replay exact)",
    )


def _check_reorder(run: CaseRun) -> CheckResult:
    """Deliver the cross-site messages of a zero-latency
    :class:`~repro.detection.coordinator.DistributedDetector` in a random
    adversarial order; the result must still equal the oracle.  Gated
    like ``oracle`` plus the schedule's ``reorder`` flag."""
    case = run.case
    detector = DistributedDetector(list(case.sites))
    for event_type, home in sorted(case.homes.items()):
        detector.set_home(event_type, home)
    detector.register(run.expression, name=CASE_NAME, context=run.context)
    for occurrence in run.occurrences:
        detector.feed(_fresh(occurrence))
    rng = random.Random(case.seed * 31 + 7)
    while detector.outbox:
        pending = list(detector.outbox)
        detector.outbox.clear()
        rng.shuffle(pending)
        for message in pending:
            detector.deliver(message)
    actual = timestamps_multiset(detector.detections_of(CASE_NAME))
    mismatch = _compare(run.oracle(), actual)
    if mismatch is None:
        return CheckResult(
            "reorder", True, f"{len(actual)} detections survive shuffling"
        )
    return CheckResult("reorder", False, f"{mismatch} under shuffled delivery")


def _check_netfault(run: CaseRun) -> CheckResult:
    """Partition invariance: faulty links never change what is detected.

    The mirror of ``failover`` for the network axis: the stamped stream
    runs through the sans-IO session harness of
    :mod:`repro.serve.netfault` fault-free, then on both wire codecs
    under a seed-derived :class:`~repro.serve.netfault.NetFaultPlan`
    (one-way drops, duplicated frames, and resets that run the real
    resume handshake).  No replica crashes, so a mismatch is a defect of
    the resumable-session protocol.  Sound for every operator class and
    fault schedule: the session layer's in-order exactly-once delivery
    gives every replica the fault-free run's input stream.
    """
    from repro.serve.netfault import NetFaultPlan, replay_with_netfault

    def replay(plan: "NetFaultPlan | None", codec: str):
        return replay_with_netfault(
            run.rules,
            run.events,
            shards=3,
            salt=run.salt,
            plan=plan,
            **run.serve_options,
            codec=codec,
        )

    def multisets(report) -> dict[str, list[str]]:
        return {
            name: detection_multiset(
                CompositeTimestamp.from_triples(stamps)
                for stamps in report.timestamps_of(name)
            )
            for name in run.rules
        }

    baseline = replay(None, "jsonl")
    expected = multisets(baseline)
    plan = NetFaultPlan.from_seed(
        run.case.seed,
        # Per-direction frame budget ~ registers + events + responses;
        # scaling with the stream keeps faults landing mid-traffic.
        frames=max(12, len(run.events) * 2),
        drops=3,
        dups=3,
        resets=2,
    )
    legs = (
        ("jsonl", replay(plan, "jsonl")),
        ("binary", replay(plan, "binary")),
    )
    for label, faulted in legs:
        mismatch = detection_mismatch(
            expected,
            multisets(faulted),
            f"[{label}] after {faulted.resumes} resume(s), "
            f"{faulted.drops} dropped frame(s)",
        )
        if mismatch is not None:
            return CheckResult("netfault", False, mismatch)
    resumes = sum(report.resumes for _, report in legs)
    drops = sum(report.drops for _, report in legs)
    return CheckResult(
        "netfault",
        True,
        f"{len(baseline.rows)} detections preserved over {resumes} "
        f"resume(s), {drops} dropped and "
        f"{sum(r.dups for _, r in legs)} duplicated frame(s)",
    )


def _check_approx(run: CaseRun) -> CheckResult:
    """Anytime soundness of :class:`~repro.detection.approximate.
    ApproximateStabilizer`: drive the stamped history through a plain
    :class:`~repro.detection.stabilizer.Stabilizer` (the exact
    reference) and an approximate one over the *identical*
    FIFO-preserving adversarial delivery and clock-advance schedule.

    The CONFIRMED multiset must equal the exact multiset, every
    TENTATIVE must resolve (confirm or retract — never dangle), and no
    tentative may be referenced twice.  Sound for every operator class
    and context: both engines are deterministic given the delivery.
    """
    def build(approximate: bool) -> Stabilizer:
        detector = Detector()
        detector.register(run.expression, name=CASE_NAME, context=run.context)
        if approximate:
            return ApproximateStabilizer(detector, sites=list(run.case.sites))
        return Stabilizer(detector, sites=list(run.case.sites))

    # FIFO-preserving adversarial interleaving: per-site order kept (the
    # stabilizer's premise), cross-site order scrambled by the seed.
    by_site: dict[str, list[EventOccurrence]] = {}
    for occurrence in run.occurrences:
        by_site.setdefault(occurrence.site(), []).append(_fresh(occurrence))
    for queue in by_site.values():
        queue.sort(key=lambda o: min(t.local for t in o.timestamp))
    rng = random.Random(run.case.seed * 131 + 17)
    delivery: list[EventOccurrence] = []
    queues = [queue for queue in by_site.values() if queue]
    while queues:
        delivery.append(rng.choice(queues).pop(0))
        queues = [queue for queue in queues if queue]
    horizon = run.horizon

    reference = build(approximate=False)
    approx = build(approximate=True)
    for occurrence in delivery:
        granule = occurrence.timestamp.global_span()[1]
        approx.advance_shadow(granule)
        approx.offer(occurrence)
        approx.advance_exact()
        reference.offer(occurrence)
        _advance(reference.detector, reference.frontier())
    approx.advance_shadow(horizon)
    approx.announce_all(horizon)
    approx.advance_exact()
    approx.flush(advance_to=horizon)
    for site in sorted(reference.watermarks):
        reference.announce(site, horizon)
    _advance(reference.detector, reference.frontier())
    reference.flush()
    _advance(reference.detector, horizon)

    expected = timestamps_multiset(
        reference.detector.detections_of(CASE_NAME)
    )
    confirmed = timestamps_multiset(approx.confirmed_of(CASE_NAME))
    mismatch = _compare(expected, confirmed, "CONFIRMED != exact")
    if mismatch is not None:
        return CheckResult(
            "approx",
            False,
            f"{mismatch} (exact {len(expected)}, confirmed {len(confirmed)})",
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


# --- the table and its driver -------------------------------------------------


class Leg(NamedTuple):
    """One differential leg: a row of :data:`LEGS`.

    ``gate(run)`` says why the leg is unsound for the case (``None``
    when it is sound); ``check(run)`` runs it.  Either may raise: the
    leg then fails with ``raised ...`` and the rows after it still run.
    """

    name: str
    gate: Callable[[CaseRun], str | None]
    check: Callable[[CaseRun], CheckResult]


#: Every leg, in report order.  The first row, ``execution``, always
#: runs and its failure ends the case: every other row reads what it
#: produced.
LEGS: tuple[Leg, ...] = (
    Leg("execution", _always, _check_execution),
    Leg("oracle", _oracle_gate, _check_oracle),
    Leg("kernels", _always, _check_kernels),
    Leg("checkpoint", _needs_two_events, _check_continuity),
    Leg("sharding", _needs_events, _check_sharding),
    Leg("failover", _needs_events, _check_failover),
    Leg("netfault", _needs_events, _check_netfault),
    Leg("tenancy", _needs_events, _check_tenancy),
    Leg("approx", _always, _check_approx),
    Leg("reorder", _reorder_gate, _check_reorder),
)

#: Every check name ``run_case`` knows (the ``checks=`` filter domain).
CHECK_NAMES = tuple(leg.name for leg in LEGS)


def run_case(case: FuzzCase, checks: Sequence[str] | None = None) -> CaseResult:
    """Execute one case and apply every sound differential check.

    ``checks`` restricts the run to the named checks (``execution``
    always runs — it produces the history the others consume); an
    unknown name raises so CLI typos fail loudly instead of silently
    passing an empty campaign.
    """
    names = [leg.name for leg in LEGS]
    if checks is not None:
        unknown = sorted(set(checks) - set(names))
        if unknown:
            raise ReproError(
                f"unknown conformance check(s) {unknown}; "
                f"valid: {', '.join(sorted(names))}"
            )

    result = CaseResult(case)
    run = CaseRun(case)
    for index, leg in enumerate(LEGS):
        if index and checks is not None and leg.name not in checks:
            continue
        try:
            reason = leg.gate(run)
            outcome = leg.check(run) if reason is None else _skip(leg.name, reason)
        except Exception as error:  # noqa: BLE001 - a crash IS the finding
            outcome = _failure(leg.name, error)
        result.checks.append(outcome)
        if not index:
            if not outcome.passed:
                break
            result.detections = run.detections
    return result
