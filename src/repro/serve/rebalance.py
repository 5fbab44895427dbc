"""Detector state migration for live shard re-balancing.

``scale(n)`` re-hashes rules onto a new shard set at a granule
boundary.  Def 4.4 makes every event inside one granule concurrent, so
once every shard has advanced to the boundary granule the per-node
buffers are *between* granules — exactly the state the checkpoint
format already captures — and can be re-homed wholesale.

The subtlety is identity, not state.  Checkpoint node keys are
``name::context`` strings, and node *names* depend on registration
history: a root node adopts the first registering rule's name, and a
rule whose expression is already compiled gets an alias node
(:meth:`~repro.detection.graph.EventGraph.register`).  Two shards that
own different subsets of the rules therefore key the same logical node
differently, so migrating by key string would silently drop or reject
state.  This module grafts by the stable identity instead: the
``(expression, context)`` pair under which
:class:`~repro.detection.graph.EventGraph` shares subexpression nodes.

Merging is safe because routing fans a primitive event type to *every*
shard whose rules consume it: if two old shards both host a shared
subexpression, both fed it the identical substream, so their copies
agree at the boundary (modulo the per-shard timer site name, which the
conformance harness already canonicalizes).  The graft takes the
lowest-indexed contributor per node, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.detection.checkpoint import _dump_node, _load_node, rearm_windows
from repro.detection.detector import Detector
from repro.detection.nodes import PlusNode


@dataclass(frozen=True, slots=True)
class ScaleReport:
    """What one re-balancing migration did (returned by ``scale``)."""

    from_shards: int
    to_shards: int
    epoch: int
    boundary: int | None
    seq: int
    moved_rules: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Shards whose live checkpoint handoff failed mid-migration (dead,
    #: parked, or timed out) and were rebuilt from durable WAL +
    #: checkpoint state instead — nonzero means the migration survived
    #: a fault, not that anything was lost.
    handoff_fallbacks: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "epoch": self.epoch,
            "boundary": self.boundary,
            "seq": self.seq,
            "moved_rules": {
                name: list(homes) for name, homes in self.moved_rules.items()
            },
            "handoff_fallbacks": self.handoff_fallbacks,
        }


def graft_detector(
    target: Detector, sources: Mapping[int, Detector]
) -> None:
    """Copy migratable state from old shard detectors into ``target``.

    ``target`` must already have its (new) rule set registered and
    ``sources`` must be at a common granule boundary (equal
    ``now_global`` for every shard that was reachable; stragglers are
    tolerated by taking the max).  For every node of the target graph,
    the lowest-indexed source compiled from the same ``(expression,
    context)`` pair contributes its buffered state; pending Plus timers
    migrate with their nodes; the engine clock becomes the boundary.
    """
    target_shared = dict(target.graph._shared)
    target_aliases = {node.name: node for node in target.graph._aliases}
    grafted: set[int] = set()
    grafted_aliases: set[str] = set()
    boundary = target.now_global
    for index in sorted(sources):
        source = sources[index]
        boundary = max(boundary, source.now_global)
        by_identity = source.graph._shared
        for identity, source_node in by_identity.items():
            target_node = target_shared.get(identity)
            if target_node is None or id(target_node) in grafted:
                continue
            state = _dump_node(source_node)
            if state is not None:
                _load_node(target_node, state)
            grafted.add(id(target_node))
            # Pending timers belong to their node: re-schedule each one
            # owned by this identity on the target's heap.  Deadlines at
            # or below the boundary have already fired on the source
            # (it advanced to the boundary first), so what is left is
            # strictly future work.
            if isinstance(target_node, PlusNode):
                for _, fire_global, node, payload in source.iter_timers():
                    if node is source_node:
                        target.schedule(target_node, fire_global, payload)
            rearm_windows(target, target_node)
        # Alias nodes (duplicate-expression registrations) are not in
        # the shared map; match them by rule name.  They are currently
        # stateless pass-throughs, but a future stateful alias would
        # migrate here rather than silently reset.
        for source_alias in source.graph._aliases:
            name = source_alias.name
            target_alias = target_aliases.get(name)
            if target_alias is None or name in grafted_aliases:
                continue
            state = _dump_node(source_alias)
            if state is not None:
                _load_node(target_alias, state)
            grafted_aliases.add(name)
        # Timers whose node the target does not compile (the rule moved
        # elsewhere) are simply not copied — the shard owning that rule
        # grafts them from the same source.
    if boundary > target.now_global:
        target.now_global = boundary
