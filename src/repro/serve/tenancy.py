"""Multi-tenant serving: namespaces, quotas, and a replayable envelope log.

One cluster, many tenants.  Three mechanisms make that safe:

**Namespaces.**  A tenant's rules and events live in a private
namespace: rule names are qualified (``tenant/rule``) and every
primitive event type in a tenant's expressions is rewritten to its
tenant-scoped form (``buy`` -> ``acme/buy``) by
:func:`namespace_expression`.  Shard detectors are shared, and
``Detector.feed`` delivers an occurrence to *every* rule on the shard
subscribing to its type — so placing tenants on disjoint shards is not
enough; disjoint *type* namespaces are what isolate co-located tenants.
The tenant id is also folded into the CRC-32 routing salt
(:func:`tenant_salt`), so each tenant's rules spread across the shards
independently of every other tenant's.

**Quotas.**  Admission is a per-tenant token bucket refilled by the
*global granule clock* (:class:`TokenBucket` — tokens per granule, so
throttling is deterministic and fake-clock testable).  A tenant past
its budget has its surplus *parked*, not dropped: the events wait in
arrival order and are delivered at the next granule boundary (or at
drain).  Because intra-granule order is immaterial under Definition 4.4
and parked events never cross their own granule boundary, the detection
multiset is invariant — a noisy tenant pays latency, never correctness,
and never starves a quiet tenant's dispatch path.  Admission totals
surface as ``serve.tenant.*`` metrics and in
:meth:`MultiTenantCluster.status`.

**The envelope log.**  Every arrival is appended to the tenant's own
WAL lane before admission control runs (:class:`EnvelopeStore`, one
binary-codec-framed :class:`~repro.serve.wal.ShardWAL` per tenant plus
a ``tenants.json`` manifest).  An :class:`EventEnvelope` is the
spec-kitty-shaped view of one entry — ``event_id`` (lane seq),
``tenant``, ``aggregate_id`` (the emitting site), the composite clock
``(site, global, local)``, and the payload.  Because the lane holds the
raw (un-namespaced) events in arrival order, ``replay(tenant, upto)``
can rebuild the tenant's detection multiset *at any granule boundary*
by feeding a fresh replica and advancing its clock to ``upto`` —
exactly the chronology-as-invariant property the composite-timestamp
semantics forces.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Mapping

from repro.analysis.metrics import timestamps_multiset
from repro.contexts.policies import Context
from repro.errors import ReproError
from repro.events.expressions import EventExpression, Primitive
from repro.events.occurrences import EventOccurrence
from repro.events.parser import parse_expression
from repro.obs.instrument import Instrumentation, resolve
from repro.serve.admin import ClusterAdmin, ClusterStatus
from repro.serve.cluster import LocalFailoverCluster
from repro.serve.core import FaultPlan, ShardReplica
from repro.serve.protocol import ServeEvent
from repro.serve.wal import KIND_ADVANCE, KIND_EVENT, ShardWAL, WalEntry

#: Separator between a tenant id and the name it qualifies.  Tenant ids
#: themselves must not contain it (rule names and event types may).
TENANT_SEP = "/"

_TENANT_PATTERN = re.compile(r"[A-Za-z0-9_.\-]+\Z")

#: The envelope store's manifest file: rules, contexts, codec, horizon,
#: and the live detection multisets — everything a standalone
#: ``repro replay --store`` needs to rebuild and verify a tenant.
MANIFEST_NAME = "tenants.json"


def validate_tenant(tenant: str) -> str:
    """``tenant`` if it is a legal tenant id, else :class:`ReproError`.

    Tenant ids name WAL lane files and prefix rule names and event
    types, so they are restricted to ``[A-Za-z0-9_.-]+`` — in
    particular no ``/`` (the namespace separator) and never empty.
    """
    if not isinstance(tenant, str) or not _TENANT_PATTERN.match(tenant):
        raise ReproError(
            f"invalid tenant id {tenant!r}: must match [A-Za-z0-9_.-]+"
        )
    return tenant


def tenant_salt(salt: int, tenant: str) -> int:
    """The cluster salt with ``tenant`` folded in (stable CRC-32).

    Each tenant's rules hash under their own effective salt, so one
    tenant's rule names spread across the shards independently of every
    other tenant's — and the spread survives process restarts, unlike
    anything derived from Python's randomized ``hash``.
    """
    return zlib.crc32(f"{salt}:{tenant}".encode("utf-8"))


def qualified_rule(tenant: str, name: str) -> str:
    """The cluster-wide rule name for ``name`` owned by ``tenant``."""
    validate_tenant(tenant)
    if not name:
        raise ReproError("rule name must be non-empty")
    return f"{tenant}{TENANT_SEP}{name}"


def split_rule(qualified: str) -> tuple[str, str]:
    """``(tenant, name)`` back out of a qualified rule name."""
    tenant, sep, name = qualified.partition(TENANT_SEP)
    if not sep or not name:
        raise ReproError(f"{qualified!r} is not a tenant-qualified name")
    return validate_tenant(tenant), name


def namespaced_type(tenant: str, event_type: str) -> str:
    """The tenant-scoped form of a primitive event type."""
    return f"{tenant}{TENANT_SEP}{event_type}"


def namespace_expression(
    expression: EventExpression | str, tenant: str
) -> EventExpression:
    """``expression`` with every primitive leaf moved into ``tenant``'s
    type namespace.

    Only the :class:`~repro.events.expressions.Primitive` names change;
    operators, periods, offsets, and parameter filters are preserved,
    and timestamps never mention type names — so the namespaced rule
    detects exactly what the original would over the tenant's own
    (equally namespaced) events.
    """
    validate_tenant(tenant)
    if isinstance(expression, str):
        expression = parse_expression(expression)
    if isinstance(expression, Primitive):
        return Primitive(namespaced_type(tenant, expression.name))
    changes: dict[str, EventExpression] = {}
    for spec in fields(expression):
        value = getattr(expression, spec.name)
        if isinstance(value, EventExpression):
            changes[spec.name] = namespace_expression(value, tenant)
    return replace(expression, **changes) if changes else expression


def namespace_event(tenant: str, event: ServeEvent) -> ServeEvent:
    """``event`` re-typed into ``tenant``'s namespace (stamp unchanged)."""
    return ServeEvent(
        event_type=namespaced_type(tenant, event.event_type),
        site=event.site,
        global_time=event.global_time,
        local=event.local,
        parameters=event.parameters,
    )


# --- quotas -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """A tenant's admission budget: ``rate`` tokens per global granule,
    bursting up to ``burst``."""

    rate: float = 64.0
    burst: float = 128.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ReproError(f"quota rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ReproError(f"quota burst must be >= 1, got {self.burst}")


class TokenBucket:
    """A token bucket refilled by an injectable monotonic clock.

    The cluster's clock is the highest global granule seen, which makes
    admission a pure function of the event stream — the property the
    Hypothesis budget tests and the fake-clock latency regression test
    rely on.  ``try_acquire`` never admits past ``burst + rate *
    elapsed`` within any window, by construction.
    """

    def __init__(self, quota: TenantQuota, *, clock) -> None:
        self.quota = quota
        self._clock = clock
        self._tokens = float(quota.burst)
        self._last = float(clock())
        self.admitted = 0
        self.throttled = 0

    def _refill(self) -> None:
        now = float(self._clock())
        if now > self._last:
            self._tokens = min(
                float(self.quota.burst),
                self._tokens + (now - self._last) * self.quota.rate,
            )
            self._last = now

    @property
    def tokens(self) -> float:
        """The currently available tokens (after refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if the budget allows; count the outcome."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            self.admitted += 1
            return True
        self.throttled += 1
        return False


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank) of ``values``; 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0 < q <= 100:
        raise ReproError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return float(ordered[int(rank) - 1])


# --- the envelope log ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EventEnvelope:
    """One append-only record of a tenant's event arrival.

    The spec-kitty system-events shape: a monotone ``event_id`` (the
    lane's WAL seq), the owning ``tenant``, the ``aggregate_id`` (the
    emitting site — the entity whose chronology the lane preserves),
    the composite clock, and the payload.  The wrapped ``event`` is the
    *raw* (un-namespaced) serve event, so replaying a lane is
    indistinguishable from the tenant having run alone.
    """

    event_id: int
    tenant: str
    event: ServeEvent

    @property
    def aggregate_id(self) -> str:
        return self.event.site

    @property
    def clock(self) -> tuple[str, int, int]:
        """The composite clock ``(site, global granule, local tick)``."""
        return (self.event.site, self.event.global_time, self.event.local)

    @property
    def granule(self) -> int:
        return self.event.granule

    @property
    def payload(self) -> Mapping[str, Any]:
        return self.event.parameters

    def to_dict(self) -> dict[str, Any]:
        return {
            "event_id": self.event_id,
            "tenant": self.tenant,
            "aggregate_id": self.aggregate_id,
            "clock": list(self.clock),
            "type": self.event.event_type,
            "payload": dict(self.event.parameters),
        }


class EnvelopeStore:
    """Per-tenant append-only event lanes over :class:`ShardWAL`.

    ``state_dir=None`` keeps every lane in memory; with a directory,
    each tenant gets a ``tenant-<id>.wal`` file (binary-codec framed by
    default — the WAL's mixed-framing loader reopens JSONL history
    too) and :meth:`save_manifest` persists the rule/context/horizon
    metadata a standalone replay needs.  Lanes only ever hold raw
    events in arrival order: clock advances are reconstructed by the
    replayer, so the log *is* the tenant's chronology and nothing else.
    """

    def __init__(
        self, state_dir: str | None = None, *, codec: str | None = "binary"
    ) -> None:
        self.state_dir = state_dir
        self.codec = codec
        self._lanes: dict[str, ShardWAL] = {}
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            for filename in sorted(os.listdir(state_dir)):
                if filename.startswith("tenant-") and filename.endswith(".wal"):
                    self.lane(filename[len("tenant-") : -len(".wal")])

    def lane_path(self, tenant: str) -> str | None:
        """The lane file for ``tenant`` (None for in-memory stores)."""
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, f"tenant-{tenant}.wal")

    def lane(self, tenant: str) -> ShardWAL:
        """The (lazily created) WAL lane owned by ``tenant``."""
        validate_tenant(tenant)
        wal = self._lanes.get(tenant)
        if wal is None:
            wal = ShardWAL(self.lane_path(tenant), codec=self.codec)
            self._lanes[tenant] = wal
        return wal

    def append(self, tenant: str, event: ServeEvent) -> EventEnvelope:
        """Log one arrival; returns its envelope (with the new id)."""
        entry = self.lane(tenant).append_event(event)
        return EventEnvelope(entry.seq, tenant, entry.event)

    def tenants(self) -> list[str]:
        """Every tenant with a lane, sorted."""
        return sorted(self._lanes)

    def envelopes(
        self, tenant: str, *, upto: int | None = None
    ) -> list[EventEnvelope]:
        """``tenant``'s envelopes in arrival order, optionally only
        those strictly below the ``upto`` granule boundary."""
        return [
            EventEnvelope(entry.seq, tenant, entry.event)
            for entry in self.lane(tenant)
            if entry.kind == KIND_EVENT
            and (upto is None or entry.event.granule < upto)
        ]

    def events(
        self, tenant: str, *, upto: int | None = None
    ) -> list[ServeEvent]:
        """The raw events behind :meth:`envelopes`."""
        return [
            event
            for event in self.lane(tenant).events()
            if upto is None or event.granule < upto
        ]

    # --- the manifest ----------------------------------------------------

    def manifest_path(self) -> str | None:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, MANIFEST_NAME)

    def save_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Atomically persist the replay manifest (no-op in memory)."""
        path = self.manifest_path()
        if path is None:
            return
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=1)
        os.replace(tmp, path)

    def load_manifest(self) -> dict[str, Any] | None:
        """The persisted manifest, or None when absent/in-memory."""
        path = self.manifest_path()
        if path is None or not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def close(self) -> None:
        for wal in self._lanes.values():
            wal.close()

    def __enter__(self) -> "EnvelopeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def replay_tenant(
    events: Iterable[ServeEvent],
    rules: Mapping[str, tuple[EventExpression | str, Context]],
    *,
    upto: int | None = None,
    timer_ratio: int = 1,
) -> dict[str, list[EventOccurrence]]:
    """Rebuild a tenant's detections from its raw event chronology.

    Feeds every event with granule below the ``upto`` boundary (all of
    them when ``upto`` is None) into a fresh single replica — the same
    :class:`~repro.serve.core.ShardReplica` the failover path
    replays WALs through, logical timer site ``shard`` — then advances
    its clock to ``upto`` so due temporal-operator timers fire.  The
    result is the detection multiset the live cluster held at that
    granule boundary.
    """
    replica = ShardReplica(0, timer_ratio=timer_ratio)
    for name, (expression, context) in rules.items():
        replica.register(expression, name, context)
    detections: dict[str, list[EventOccurrence]] = {name: [] for name in rules}

    def apply(entry: WalEntry) -> None:
        for tagged in replica.apply(entry):
            detections[tagged.detection.name].append(
                tagged.detection.occurrence
            )

    seq = 0
    for event in events:
        if upto is not None and event.granule >= upto:
            continue
        seq += 1
        apply(WalEntry(seq, KIND_EVENT, event=event))
    if upto is not None:
        apply(WalEntry(seq + 1, KIND_ADVANCE, granule=upto))
    return detections


# --- the multi-tenant cluster -------------------------------------------------


class MultiTenantCluster(ClusterAdmin):
    """Tenant namespaces + quotas + envelope log over the failover tier.

    Wraps one :class:`~repro.serve.cluster.LocalFailoverCluster`:
    registration qualifies the rule name, namespaces the expression's
    primitive types, and hashes under the tenant-folded salt; ingest
    appends the raw event to the tenant's envelope lane, then admits it
    through the tenant's token bucket (surplus parks until the granule
    boundary).  Everything the inner cluster already guarantees —
    WAL + checkpoint failover, exactly-once ledgers, elastic ``scale``
    — applies per tenant unchanged, and per-tenant admission totals
    ride along in :meth:`status`.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        salt: int = 0,
        timer_ratio: int = 1,
        checkpoint_every: int = 8,
        fault_plan: FaultPlan | None = None,
        codec: str | None = None,
        state_dir: str | None = None,
        quota: TenantQuota | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.cluster = LocalFailoverCluster(
            shards,
            salt=salt,
            timer_ratio=timer_ratio,
            checkpoint_every=checkpoint_every,
            fault_plan=fault_plan,
            codec=codec,
            instrumentation=instrumentation,
        )
        self.salt = salt
        self.timer_ratio = timer_ratio
        self.quota = quota
        self.store = EnvelopeStore(state_dir, codec=codec or "binary")
        self.obs = resolve(instrumentation)
        self._rules: dict[str, dict[str, tuple[str, Context]]] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._parked: dict[str, deque[tuple[ServeEvent, int]]] = {}
        self._latencies: dict[str, list[int]] = {}
        self._deferred: dict[str, int] = {}
        self._granule: int | None = None
        self._step = 0

    # --- registration ----------------------------------------------------

    def register(
        self,
        tenant: str,
        expression: EventExpression | str,
        name: str,
        context: Context = Context.UNRESTRICTED,
    ) -> int:
        """Register one rule in ``tenant``'s namespace; returns its shard."""
        validate_tenant(tenant)
        parsed = (
            parse_expression(expression)
            if isinstance(expression, str)
            else expression
        )
        source = expression if isinstance(expression, str) else str(parsed)
        self._rules.setdefault(tenant, {})[name] = (source, context)
        return self.cluster.register(
            namespace_expression(parsed, tenant),
            qualified_rule(tenant, name),
            context,
            salt=tenant_salt(self.salt, tenant),
        )

    def tenants(self) -> list[str]:
        """Every tenant with rules or an envelope lane, sorted."""
        return sorted(set(self._rules) | set(self.store.tenants()))

    def rules_of(self, tenant: str) -> dict[str, str]:
        """``tenant``'s rule names -> expression sources, for display."""
        return {
            name: source
            for name, (source, _) in self._rules.get(tenant, {}).items()
        }

    # --- the ingest path -------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket | None:
        if self.quota is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.quota,
                clock=lambda: 0 if self._granule is None else self._granule,
            )
            self._buckets[tenant] = bucket
        return bucket

    def ingest(self, tenant: str, event: ServeEvent) -> bool:
        """Log and admit one tenant event.

        Returns True when the event was dispatched immediately, False
        when the tenant's quota parked it (it will be delivered at the
        next granule boundary, or at :meth:`drain` — parked means
        deferred, never dropped, so detection multisets are invariant).
        """
        validate_tenant(tenant)
        self._step += 1
        granule = event.granule
        if self._granule is not None and granule > self._granule:
            # Entering a new granule: everything parked in the previous
            # one is delivered first, so no event ever crosses its own
            # granule boundary out of order.
            self._flush_parked()
        self._granule = (
            granule if self._granule is None else max(self._granule, granule)
        )
        self.store.append(tenant, event)
        bucket = self._bucket(tenant)
        parked = self._parked.get(tenant)
        if bucket is not None and (parked or not bucket.try_acquire()):
            if parked is None:
                parked = deque()
                self._parked[tenant] = parked
            parked.append((event, self._step))
            if self.obs.enabled:
                self.obs.counter(
                    "serve.tenant.throttled", tenant=tenant
                ).inc()
            return False
        self._deliver(tenant, event, self._step)
        if self.obs.enabled:
            self.obs.counter("serve.tenant.admitted", tenant=tenant).inc()
        return True

    def _deliver(self, tenant: str, event: ServeEvent, ingest_step: int) -> None:
        self.cluster.ingest(namespace_event(tenant, event))
        self._latencies.setdefault(tenant, []).append(
            self._step - ingest_step
        )

    def _flush_parked(self) -> None:
        flushed = 0
        for tenant in sorted(self._parked):
            queue = self._parked[tenant]
            while queue:
                event, step = queue.popleft()
                self._deliver(tenant, event, step)
                self._deferred[tenant] = self._deferred.get(tenant, 0) + 1
                flushed += 1
        if flushed and self.obs.enabled:
            self.obs.counter("serve.tenant.unparked").inc(flushed)

    def advance(self, granule: int) -> None:
        """Advance every shard clock to ``granule`` (flushes parked)."""
        self._flush_parked()
        self._granule = (
            granule if self._granule is None else max(self._granule, granule)
        )
        self.cluster.advance(granule)

    def dispatch_latencies(self, tenant: str) -> list[int]:
        """Per-event dispatch delays for ``tenant``, in ingest steps.

        0 means the event went straight through admission; a parked
        event's delay counts the ingest steps until its granule
        boundary flushed it — the deterministic latency signal the
        noisy-neighbour regression test gates on.
        """
        return list(self._latencies.get(tenant, ()))

    # --- the ClusterAdmin surface ----------------------------------------

    def scale(self, shards: int):
        """Re-balance the inner cluster (tenant salts re-hash intact)."""
        self._flush_parked()
        return self.cluster.scale(shards)

    def lose(self, index: int):
        self._flush_parked()
        return self.cluster.lose(index)

    def crash(self, index: int) -> int:
        return self.cluster.crash(index)

    def revive(self, shard: int) -> bool:
        return self.cluster.revive(shard)

    def drain(self, horizon: int | None = None):
        """Flush parked events, drain the cluster, persist the manifest."""
        self._flush_parked()
        if horizon is not None:
            self._granule = max(self._granule or 0, horizon)
        result = self.cluster.drain(horizon)
        self.save_manifest()
        return result

    def status(self) -> ClusterStatus:
        base = self.cluster.status()
        tenants: dict[str, dict[str, Any]] = {}
        for tenant in self.tenants():
            bucket = self._buckets.get(tenant)
            tenants[tenant] = {
                "rules": len(self._rules.get(tenant, {})),
                "events": len(self.store.lane(tenant)),
                "admitted": bucket.admitted if bucket else 0,
                "throttled": bucket.throttled if bucket else 0,
                "deferred": self._deferred.get(tenant, 0),
                "parked": len(self._parked.get(tenant, ())),
            }
        return replace(
            base,
            parked=base.parked
            + sum(len(queue) for queue in self._parked.values()),
            tenants=tenants,
        )

    # --- results and replay ----------------------------------------------

    def detections_of(self, tenant: str, name: str) -> list[EventOccurrence]:
        """Collected occurrences of one tenant rule (exactly-once)."""
        if name not in self._rules.get(tenant, {}):
            raise ReproError(
                f"tenant {tenant!r} has no rule named {name!r}"
            )
        return self.cluster.detections_of(qualified_rule(tenant, name))

    def replay(
        self, tenant: str, upto: int | None = None
    ) -> dict[str, list[EventOccurrence]]:
        """Rebuild ``tenant``'s detections from its envelope lane.

        ``upto`` is a granule boundary: events strictly below it are
        replayed and the clock advances to it.  ``None`` replays the
        whole lane and advances to the cluster's current granule — the
        multiset then equals the live run exactly, kills, re-balances,
        and quota parking included.
        """
        rules = self._rules.get(tenant)
        if not rules:
            raise ReproError(f"no rules registered for tenant {tenant!r}")
        events = self.store.events(tenant, upto=upto)
        boundary = self._granule if upto is None else upto
        return replay_tenant(
            events, rules, upto=boundary, timer_ratio=self.timer_ratio
        )

    def save_manifest(self) -> None:
        """Persist everything a standalone replay needs (with a state
        dir): rules, contexts, codec, the drain horizon, and the live
        per-rule detection multisets for byte-for-byte verification."""
        detections = {
            tenant: {
                name: timestamps_multiset(self.detections_of(tenant, name))
                for name in rules
            }
            for tenant, rules in self._rules.items()
        }
        self.store.save_manifest(
            {
                "salt": self.salt,
                "timer_ratio": self.timer_ratio,
                "codec": self.store.codec,
                "horizon": self._granule,
                "tenants": {
                    tenant: {
                        "rules": {
                            name: {
                                "expression": source,
                                "context": context.name,
                            }
                            for name, (source, context) in rules.items()
                        }
                    }
                    for tenant, rules in self._rules.items()
                },
                "detections": detections,
            }
        )

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "MultiTenantCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def replay_store(
    state_dir: str,
    tenant: str,
    *,
    upto: int | None = None,
) -> tuple[dict[str, list[EventOccurrence]], dict[str, Any]]:
    """Standalone point-in-time replay from a persisted envelope store.

    Reads the ``tenants.json`` manifest for the tenant's rules,
    contexts, codec, and drain horizon; replays the tenant's lane to
    the ``upto`` boundary (the recorded horizon when None).  Returns
    ``(detections, manifest)`` — the manifest carries the live
    multisets recorded at drain, so callers can verify the
    reconstruction byte-for-byte (``repro replay --store --check``).
    """
    store = EnvelopeStore(state_dir)
    manifest = store.load_manifest()
    if manifest is None:
        raise ReproError(
            f"no {MANIFEST_NAME} manifest under {state_dir!r}; was the "
            "cluster drained with a state_dir?"
        )
    validate_tenant(tenant)
    entry = manifest.get("tenants", {}).get(tenant)
    if entry is None:
        raise ReproError(
            f"tenant {tenant!r} not in manifest; known: "
            + ", ".join(sorted(manifest.get("tenants", {})))
        )
    rules = {
        name: (spec["expression"], Context[spec["context"]])
        for name, spec in entry["rules"].items()
    }
    boundary = manifest.get("horizon") if upto is None else upto
    detections = replay_tenant(
        store.events(tenant),
        rules,
        upto=boundary,
        timer_ratio=int(manifest.get("timer_ratio", 1)),
    )
    store.close()
    return detections, manifest


def serve_tenants(
    rules_by_tenant: Mapping[str, Mapping[str, EventExpression | str]],
    events: Iterable[tuple[str, ServeEvent]],
    *,
    shards: int = 2,
    salt: int = 0,
    timer_ratio: int = 1,
    quota: TenantQuota | None = None,
    context: Context = Context.UNRESTRICTED,
    horizon: int | None = None,
    checkpoint_every: int = 8,
    fault_plan: FaultPlan | None = None,
    codec: str | None = None,
    state_dir: str | None = None,
    instrumentation: Instrumentation | None = None,
) -> MultiTenantCluster:
    """Run one interleaved ``(tenant, event)`` stream to completion.

    The multi-tenant mirror of
    :func:`~repro.serve.cluster.replay_with_failover`: registers every
    tenant's rules, ingests the stream in order, drains to ``horizon``
    (persisting the manifest when ``state_dir`` is set), and returns
    the cluster for inspection.
    """
    cluster = MultiTenantCluster(
        shards,
        salt=salt,
        timer_ratio=timer_ratio,
        checkpoint_every=checkpoint_every,
        fault_plan=fault_plan,
        codec=codec,
        state_dir=state_dir,
        quota=quota,
        instrumentation=instrumentation,
    )
    for tenant, rules in rules_by_tenant.items():
        for name, expression in rules.items():
            cluster.register(tenant, expression, name, context)
    for tenant, event in events:
        cluster.ingest(tenant, event)
    cluster.drain(horizon)
    return cluster
