"""The unified cluster administration surface.

Cluster operability grew up ad hoc: the supervisor had ``revive`` and
``drain``, the in-process harness had ``advance`` and ``crash``, and
inspection meant poking attributes.  :class:`ClusterAdmin` names the
four operations an operator (or the CLI) actually performs —
``scale``, ``revive``, ``drain``, ``status`` — and both
:class:`~repro.serve.cluster.ClusterSupervisor` (async) and
:class:`~repro.serve.cluster.LocalFailoverCluster` (sync) implement
them, so tooling written against one drives the other.  What the
operations *do* is stated once, in :class:`~repro.serve.core.
ClusterCore`; the two classes differ in how the steps reach a shard.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class ClusterStatus:
    """One consistent snapshot of a cluster's shape and health."""

    shards: int
    epoch: int
    transport: str
    unavailable: dict[int, str] = field(default_factory=dict)
    parked: int = 0
    restarts: int = 0
    checkpoints: int = 0
    detections: int = 0
    #: Per-tenant admission totals (rules, events, admitted, throttled,
    #: deferred, parked) — populated by the multi-tenant tier, empty on
    #: single-tenant clusters.
    tenants: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """Every shard currently serving."""
        return not self.unavailable

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "epoch": self.epoch,
            "transport": self.transport,
            "unavailable": dict(self.unavailable),
            "parked": self.parked,
            "restarts": self.restarts,
            "checkpoints": self.checkpoints,
            "detections": self.detections,
            "tenants": {
                tenant: dict(info) for tenant, info in self.tenants.items()
            },
            "healthy": self.healthy,
        }


class ClusterAdmin(ABC):
    """The administrative contract every cluster implementation offers.

    ``scale`` and ``revive`` and ``drain`` are coroutines on the
    process-backed supervisor and plain methods on the in-process
    harness; ``status`` is synchronous everywhere.
    """

    @abstractmethod
    def scale(self, shards: int):
        """Re-hash rules onto ``shards`` shards at a granule boundary,
        migrating detector state; returns a
        :class:`~repro.serve.rebalance.ScaleReport`."""

    @abstractmethod
    def revive(self, shard: int):
        """Bring a degraded shard back and replay its parked WAL tail."""

    @abstractmethod
    def drain(self, horizon: int | None = None):
        """Barrier: every available shard has applied its whole WAL
        (optionally advancing engine clocks to ``horizon`` first)."""

    @abstractmethod
    def status(self) -> ClusterStatus:
        """The cluster's current shape and health."""
