"""Sharded asyncio serving runtime over the detection stack.

``repro.serve`` turns the single-threaded detector into a concurrent
service: an :class:`~repro.serve.router.EventRouter` hash-partitions
rules across N :class:`~repro.serve.shard.DetectionShard` workers, each
batching incoming events on ``g_g`` granule boundaries (safe by
Def 4.4) before feeding the existing engine.  See ``docs/serving.md``.

:mod:`repro.serve.core` adds the fault-tolerant tier: write-ahead
logging (:mod:`repro.serve.wal`), periodic checkpoints, and
checkpoint+replay failover that preserves detection multisets, stated
once in the sans-IO :class:`~repro.serve.core.ClusterCore`.
:mod:`repro.serve.cluster` drives it two ways — in-process
(:class:`~repro.serve.cluster.LocalFailoverCluster`) and with every
shard a supervised worker *process* (:mod:`repro.serve.worker`) under
heartbeat failure detection (:mod:`repro.serve.heartbeat`).

The wire formats live behind the versioned :class:`~repro.serve.
protocol.Codec` API: version 0 is one-JSON-object-per-line
(:class:`~repro.serve.protocol.JsonlCodec`), version 1 packs whole
granule batches into length-prefixed CRC-checked binary frames
(:class:`~repro.serve.protocol.BinaryCodec`); transports negotiate per
connection and fall back to JSONL.  :class:`~repro.serve.config.
ServeConfig` is the single configuration entry point across
:class:`~repro.serve.runtime.ServingRuntime`,
:class:`~repro.serve.cluster.ClusterSupervisor`, and the ``repro
serve`` CLI.

The cluster is *elastic*: workers run behind a
:class:`~repro.serve.transport.WorkerTransport` — local subprocesses
or remote ``repro serve-worker --listen`` TCP listeners — and
:meth:`~repro.serve.cluster.ClusterSupervisor.scale` re-hashes rules
onto a new worker count at a granule boundary, migrating detector
state through checkpoint handoffs.  The
:class:`~repro.serve.admin.ClusterAdmin` surface (``scale`` /
``revive`` / ``drain`` / ``status``) is shared by the supervisor, the
in-process :class:`~repro.serve.cluster.LocalFailoverCluster`, and the
CLI.

Detection itself has two modes: exact (the default — detections are
signalled only once stabilization evidence is complete) and
*approximate* anytime detection (``ServeConfig(approximate=True)`` /
``repro serve --approximate``), where each shard runs an
:class:`~repro.detection.approximate.ApproximateStabilizer` and streams
TENTATIVE / CONFIRMED / RETRACTED verdicts; see ``docs/approximate.md``.
"""

from repro.serve.admin import ClusterAdmin, ClusterStatus
from repro.serve.cluster import (
    ClusterSupervisor,
    LocalFailoverCluster,
    ShardUnavailable,
    cluster_serve_stdin,
    replay_with_failover,
)
from repro.serve.config import ServeConfig
from repro.serve.core import (
    CheckpointStore,
    ClusterCore,
    DetectionLedger,
    FaultInjector,
    FaultPlan,
    ShardReplica,
    TaggedDetection,
)
from repro.serve.netfault import (
    FaultyLink,
    NetFaultPlan,
    NetFaultReport,
    TcpFaultProxy,
    install_fault_filter,
    replay_with_netfault,
)
from repro.serve.rebalance import ScaleReport, graft_detector
from repro.serve.heartbeat import Backoff, HeartbeatMonitor
from repro.serve.session import (
    DEFAULT_SESSION_GRACE,
    RetryPolicy,
    SessionHalf,
    new_session_id,
)
from repro.serve.protocol import (
    BINARY_VERSION,
    CODEC_NAMES,
    CONTROL_OPS,
    MAX_LINE_BYTES,
    BinaryCodec,
    Codec,
    JsonlCodec,
    ServeEvent,
    StreamDecoder,
    StreamUnit,
    batch_occurrences,
    choose_codec,
    decode_control_unit,
    detection_to_json,
    frame_to_line,
    get_codec,
    hello_ack_line,
    hello_line,
    parse_frame,
    parse_hello,
    resolve_codec,
    row_line,
)
from repro.serve.router import EventRouter, shard_of
from repro.serve.runtime import ServingRuntime, serve_events
from repro.serve.tenancy import (
    EnvelopeStore,
    EventEnvelope,
    MultiTenantCluster,
    TenantQuota,
    TokenBucket,
    namespace_event,
    namespace_expression,
    namespaced_type,
    qualified_rule,
    replay_store,
    replay_tenant,
    serve_tenants,
    split_rule,
    tenant_salt,
    validate_tenant,
)
from repro.serve.server import (
    DetectionBroadcast,
    serve_stdin,
    serve_tcp,
    wire_rules,
)
from repro.serve.shard import DetectionShard
from repro.serve.transport import (
    ResumableTcpLink,
    SubprocessTransport,
    TcpTransport,
    WorkerLink,
    WorkerTransport,
    resolve_transport,
)
from repro.serve.wal import KIND_ADVANCE, KIND_EVENT, ShardWAL, WalEntry
from repro.serve.worker import run_worker, serve_worker_listener

__all__ = [
    "BINARY_VERSION",
    "Backoff",
    "BinaryCodec",
    "CODEC_NAMES",
    "CONTROL_OPS",
    "CheckpointStore",
    "Codec",
    "ClusterAdmin",
    "ClusterCore",
    "ClusterStatus",
    "ClusterSupervisor",
    "DEFAULT_SESSION_GRACE",
    "DetectionBroadcast",
    "DetectionLedger",
    "DetectionShard",
    "EnvelopeStore",
    "EventEnvelope",
    "EventRouter",
    "FaultInjector",
    "FaultPlan",
    "FaultyLink",
    "HeartbeatMonitor",
    "JsonlCodec",
    "KIND_ADVANCE",
    "KIND_EVENT",
    "LocalFailoverCluster",
    "MAX_LINE_BYTES",
    "MultiTenantCluster",
    "NetFaultPlan",
    "NetFaultReport",
    "ResumableTcpLink",
    "RetryPolicy",
    "ScaleReport",
    "ServeConfig",
    "SessionHalf",
    "ServeEvent",
    "ServingRuntime",
    "ShardReplica",
    "ShardUnavailable",
    "ShardWAL",
    "StreamDecoder",
    "StreamUnit",
    "SubprocessTransport",
    "TaggedDetection",
    "TcpFaultProxy",
    "TcpTransport",
    "TenantQuota",
    "TokenBucket",
    "WalEntry",
    "WorkerLink",
    "WorkerTransport",
    "batch_occurrences",
    "choose_codec",
    "cluster_serve_stdin",
    "decode_control_unit",
    "detection_to_json",
    "frame_to_line",
    "get_codec",
    "graft_detector",
    "hello_ack_line",
    "hello_line",
    "install_fault_filter",
    "namespace_event",
    "namespace_expression",
    "namespaced_type",
    "new_session_id",
    "parse_frame",
    "parse_hello",
    "qualified_rule",
    "replay_store",
    "replay_tenant",
    "replay_with_failover",
    "replay_with_netfault",
    "resolve_codec",
    "resolve_transport",
    "row_line",
    "run_worker",
    "serve_events",
    "serve_stdin",
    "serve_tcp",
    "serve_tenants",
    "serve_worker_listener",
    "shard_of",
    "split_rule",
    "tenant_salt",
    "validate_tenant",
    "wire_rules",
]
