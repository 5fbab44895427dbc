"""Consolidated configuration of the serving surface.

:class:`ServeConfig` is to the serving stack what
:class:`~repro.sim.config.SimConfig` is to the simulator: one frozen
dataclass carrying every knob that used to sprawl across
:class:`~repro.serve.runtime.ServingRuntime`,
:class:`~repro.serve.cluster.ClusterSupervisor`, and the ``repro
serve`` CLI.  Constructing it validates every field eagerly, so a typo
fails at configuration time rather than mid-stream.

Both entry points take ``config=ServeConfig(...)`` and nothing else
that configures them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from repro.serve.session import RetryPolicy


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Every serving knob in one place.

    Single-process fields (``ServingRuntime``): ``shards``, ``salt``,
    ``timer_ratio``, ``capacity``, ``high_water``.  Multi-process fields
    (``ClusterSupervisor``): ``procs``, ``state_dir``,
    ``heartbeat_interval``, ``miss_threshold``, ``retry_budget``,
    ``checkpoint_every``, ``seed``, ``rebalance_grace`` (``None`` parks
    a shard past its retry budget until ``revive``; a float re-homes its
    rules onto the surviving shards after that many seconds).  Transport
    fields: ``max_line_bytes``, ``codec``, ``transport`` (``"auto"``
    picks ``"tcp"`` when ``workers`` endpoints are given, else local
    ``"subprocess"`` workers), ``workers`` (remote ``host:port`` shard
    endpoints; mutually exclusive with ``procs``), ``retry_policy`` (the
    :class:`~repro.serve.session.RetryPolicy` a dropped TCP link
    reconnects under; ``None`` uses the default policy) and
    ``session_grace`` (seconds a worker holds a disconnected session's
    replica for resume before discarding it).  Multi-tenant fields
    (:mod:`repro.serve.tenancy`): ``tenants`` (the synthetic tenant
    count ``repro serve --tenants`` interleaves its selftest workload
    across), ``quota_rate``/``quota_burst`` (the per-tenant token
    bucket: tokens per global granule and bucket capacity).  Detection
    mode: ``approximate`` turns on anytime detection — every shard runs
    an :class:`~repro.detection.approximate.ApproximateStabilizer` and
    emits TENTATIVE/CONFIRMED/RETRACTED verdicts instead of bare
    detections (in-process transports only; see ``docs/approximate.md``).
    """

    shards: int = 1
    salt: int = 0
    timer_ratio: int = 1
    capacity: int = 1024
    high_water: int | None = None
    procs: int | None = None
    state_dir: str | None = None
    heartbeat_interval: float = 0.25
    miss_threshold: int = 4
    retry_budget: int = 3
    checkpoint_every: int = 64
    max_line_bytes: int = 1 << 20
    codec: str = "auto"
    seed: int = 0
    transport: str = "auto"
    workers: tuple[str, ...] | None = None
    retry_policy: "RetryPolicy | None" = None
    session_grace: float | None = None
    rebalance_grace: float | None = None
    tenants: int | None = None
    quota_rate: float | None = None
    quota_burst: float | None = None
    approximate: bool = False

    def __post_init__(self) -> None:
        # workers= (remote TCP endpoints) and procs= (local subprocess
        # workers) name two different deployment shapes of the same
        # supervisor; silently preferring one would hide a real
        # misconfiguration, so mixing raises.
        if self.workers is not None and self.procs is not None:
            raise TypeError(
                "ServeConfig: pass either workers= (remote TCP shard "
                "endpoints) or procs= (local subprocess worker count), "
                "not both"
            )
        if self.workers is not None:
            object.__setattr__(self, "workers", tuple(self.workers))
            if not self.workers:
                raise ValueError("workers must name at least one endpoint")
            for endpoint in self.workers:
                host, _, port = str(endpoint).rpartition(":")
                if not host or not port.isdigit():
                    raise ValueError(
                        f"worker endpoint {endpoint!r} is not HOST:PORT"
                    )
        if self.transport not in ("auto", "subprocess", "tcp"):
            raise ValueError(
                "transport must be auto, subprocess, or tcp, "
                f"got {self.transport!r}"
            )
        if self.transport == "tcp" and self.workers is None:
            raise ValueError(
                "transport='tcp' needs workers=('host:port', ...) endpoints"
            )
        if self.transport == "subprocess" and self.workers is not None:
            raise ValueError(
                "workers= endpoints are meaningless with "
                "transport='subprocess'"
            )
        if self.retry_policy is not None and not isinstance(
            self.retry_policy, RetryPolicy
        ):
            raise ValueError(
                "retry_policy must be a repro.serve.session.RetryPolicy, "
                f"got {self.retry_policy!r}"
            )
        if self.session_grace is not None and self.session_grace < 0:
            raise ValueError(
                "session_grace must be non-negative (or None for the "
                f"default), got {self.session_grace}"
            )
        if self.rebalance_grace is not None and self.rebalance_grace < 0:
            raise ValueError(
                "rebalance_grace must be non-negative (or None to park "
                f"failed shards), got {self.rebalance_grace}"
            )
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.timer_ratio <= 0:
            raise ValueError(
                f"timer_ratio must be positive, got {self.timer_ratio}"
            )
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.high_water is not None and not (
            0 < self.high_water <= self.capacity
        ):
            raise ValueError(
                f"high_water must be in (0, capacity], got {self.high_water}"
            )
        if self.procs is not None and self.procs <= 0:
            raise ValueError(f"procs must be positive, got {self.procs}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                "heartbeat_interval must be positive, got "
                f"{self.heartbeat_interval}"
            )
        if self.miss_threshold <= 0:
            raise ValueError(
                f"miss_threshold must be positive, got {self.miss_threshold}"
            )
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be non-negative, got {self.retry_budget}"
            )
        if self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )
        if self.max_line_bytes <= 0:
            raise ValueError(
                f"max_line_bytes must be positive, got {self.max_line_bytes}"
            )
        if self.codec not in ("jsonl", "binary", "auto"):
            raise ValueError(
                f"codec must be jsonl, binary, or auto, got {self.codec!r}"
            )
        if self.tenants is not None and self.tenants <= 0:
            raise ValueError(
                f"tenants must be positive, got {self.tenants}"
            )
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ValueError(
                f"quota_rate must be positive, got {self.quota_rate}"
            )
        if self.quota_burst is not None and self.quota_burst < 1:
            raise ValueError(
                f"quota_burst must be >= 1, got {self.quota_burst}"
            )
        if self.approximate and (
            self.procs is not None
            or self.workers is not None
            or self.tenants is not None
        ):
            # Verdict streams have no control-frame encoding yet, so the
            # multi-process / remote / multi-tenant deployments cannot
            # relay them; failing here beats silently serving exact.
            raise ValueError(
                "approximate mode serves in-process only (not with "
                "procs=, workers=, or tenants=)"
            )

    @property
    def resolved_transport(self) -> str:
        """The concrete transport ``"auto"`` resolves to."""
        if self.transport == "auto":
            return "tcp" if self.workers is not None else "subprocess"
        return self.transport

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The configurable field names, in declaration order."""
        return tuple(f.name for f in fields(cls))

    def replace(self, **changes: Any) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
