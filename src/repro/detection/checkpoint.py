"""Detector state checkpoint and restore.

A production detector must survive restarts without losing open windows:
a ``seq`` initiator buffered for an hour, a half-accumulated ``A*``
window, a pending ``Plus`` timer.  This module serializes a
:class:`~repro.detection.detector.Detector`'s *dynamic* state — node
buffers, periodic windows, pending timers, the engine clock — to a
JSON-compatible dictionary and restores it into a freshly constructed
detector with the **same registrations** (expressions and contexts are
code, not state; re-register them, then call :func:`restore`).

The site is a dimension of the one layout, not a second format: an
engine with one site writes ``site`` / ``now_global`` / ``nodes`` /
``plus_timers``; an engine placed over several writes ``"kind":
"distributed"`` with a clock per site, each Plus timer's site, and the
messages still in its outbox.  :func:`restore` reads either.

Occurrence identity: uids are process-local, so restored occurrences get
fresh uids while preserving structure (type, timestamp, parameters,
provenance).  Everything else — buffer order, window progress, timer
deadlines — round-trips exactly; the tests verify detection continuity
(feed half a stream, checkpoint, restore into a new detector, feed the
rest: the detections match an uninterrupted run).
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import DetectionError
from repro.events.occurrences import EventOccurrence
from repro.detection.coordinator import DistributedDetector, Message
from repro.detection.detector import Detector
from repro.detection.nodes import Node, PeriodicNode, PlusNode, TimesNode, _Window
from repro.time.composite import CompositeTimestamp
from repro.time.timestamps import PrimitiveTimestamp

FORMAT_VERSION = 1


# --- occurrence (de)serialization ------------------------------------------------


def occurrence_to_dict(occurrence: EventOccurrence) -> dict[str, Any]:
    """Serialize an occurrence tree (provenance included)."""
    return {
        "event_type": occurrence.event_type,
        "timestamp": [list(t.as_triple()) for t in occurrence.timestamp],
        "parameters": _plain(occurrence.parameters),
        "constituents": [
            occurrence_to_dict(child) for child in occurrence.constituents
        ],
    }


def occurrence_from_dict(data: dict[str, Any]) -> EventOccurrence:
    """Rebuild an occurrence tree (fresh uids, same structure)."""
    stamps = [
        PrimitiveTimestamp(site, int(global_time), int(local))
        for site, global_time, local in data["timestamp"]
    ]
    return EventOccurrence(
        event_type=data["event_type"],
        timestamp=CompositeTimestamp(stamps),
        parameters=dict(data["parameters"]),
        constituents=tuple(
            occurrence_from_dict(child) for child in data["constituents"]
        ),
    )


def _plain(parameters: Any) -> dict[str, Any]:
    """Force parameters into JSON-compatible plain data."""
    result = {}
    for key, value in dict(parameters).items():
        if isinstance(value, tuple):
            value = list(value)
        result[key] = value
    return result


# --- per-node-state handlers --------------------------------------------------------


def _node_key(node: Node) -> str:
    return f"{node.name}::{node.context.value}"


def _dump_node(node: Node) -> dict[str, Any] | None:
    """A node's dynamic state, or ``None`` for a node that holds none
    (Or, Filter, leaves; a Plus node's state lives in the timer heap)."""
    if isinstance(node, PeriodicNode):
        return {
            "kind": "periodic",
            "windows": [
                {
                    "opener": occurrence_to_dict(window.opener),
                    "ticks": [occurrence_to_dict(t) for t in window.ticks],
                    "next_tick": window.next_tick,
                }
                for window in node._windows
                if not window.closed
            ],
        }
    buffers = node.buffers()
    if not buffers:
        return None
    return {
        "kind": _state_kind(node),
        **{key: [occurrence_to_dict(o) for o in b] for key, b in buffers.items()},
    }


def _state_kind(node: Node) -> str:
    return node.kind.replace("*", "_star")


def _load_node(node: Node, state: dict[str, Any]) -> None:
    if state.get("kind") != _state_kind(node):
        raise DetectionError(
            f"checkpoint state kind {state.get('kind')!r} does not match node "
            f"{type(node).__name__}"
        )
    if isinstance(node, PeriodicNode):
        node._windows = []
        for window_state in state["windows"]:
            window = _Window(
                opener=occurrence_from_dict(window_state["opener"]),
                next_tick=int(window_state["next_tick"]),
            )
            window.ticks = [occurrence_from_dict(t) for t in window_state["ticks"]]
            node._windows.append(window)
        return
    for key, buffer in node.buffers().items():
        buffer[:] = [occurrence_from_dict(o) for o in state[key]]
    if isinstance(node, TimesNode):
        # Leaving the running Max unset would make the first post-restore
        # batch emit a timestamp that ignores the restored constituents
        # (found by the conformance fuzzer's checkpoint-continuity check).
        node.refold()


# --- engine snapshot / restore ----------------------------------------------------------


def message_to_dict(engine: DistributedDetector, message: Message) -> dict[str, Any]:
    """One in-flight message as an ``outbox`` entry of a snapshot."""
    return {
        "src": message.src,
        "dst": message.dst,
        "node": _node_key(engine._nodes_by_id[message.node_id]),
        "role": message.role,
        "occurrence": occurrence_to_dict(message.occurrence),
    }


def snapshot(detector: Detector) -> dict[str, Any]:
    """Capture an engine's dynamic state as a JSON-compatible dict.

    Covers every node's buffers, the clocks and pending timers and, for
    an engine placed over several sites, the messages not yet delivered.
    Registrations are code: the restoring process must re-register the
    same expressions (same names, contexts, and placement-relevant site
    homes) before calling :func:`restore`.
    """
    nodes: dict[str, Any] = {}
    for node in detector.graph.nodes():
        state = _dump_node(node)
        if state is not None:
            nodes[_node_key(node)] = state
    placed = len(detector.sites) > 1
    plus_timers = []
    for site, fire_global, node, payload in detector.iter_timers():
        if isinstance(node, PlusNode):
            timer = {
                "fire_global": fire_global,
                "node": _node_key(node),
                "base": occurrence_to_dict(payload),
            }
            plus_timers.append({"site": site, **timer} if placed else timer)
    if not placed:
        return {
            "version": FORMAT_VERSION,
            "site": detector.site,
            "now_global": detector.now_global,
            "nodes": nodes,
            "plus_timers": plus_timers,
        }
    return {
        "version": FORMAT_VERSION,
        "kind": "distributed",
        "now_global": dict(detector._clocks),
        "nodes": nodes,
        "plus_timers": plus_timers,
        "outbox": [message_to_dict(detector, m) for m in detector.outbox],
    }


def rearm_windows(detector: Detector, node: Node) -> None:
    """Periodic windows re-arm their own timers from their loaded state."""
    if isinstance(node, PeriodicNode):
        for window in node._windows:
            if not window.closed:
                detector.schedule(node, window.next_tick, window)


def restore(detector: Detector, data: dict[str, Any]) -> None:
    """Load a snapshot into an engine with identical registrations.

    The engine must have the same expressions registered (same names,
    contexts and homes); unknown node keys in the snapshot raise
    :class:`DetectionError` so drift between code and checkpoint is loud.
    """
    if data.get("version") != FORMAT_VERSION:
        raise DetectionError(
            f"unsupported checkpoint version {data.get('version')!r}"
        )
    placed = data.get("kind") == "distributed"
    if not placed and len(detector.sites) > 1:
        raise DetectionError(
            "a one-site checkpoint cannot be restored into an engine placed "
            f"over {len(detector.sites)} sites"
        )
    by_key = {_node_key(node): node for node in detector.graph.nodes()}

    def node_of(key: str, what: str) -> Node:
        node = by_key.get(key)
        if node is None:
            raise DetectionError(
                f"checkpoint contains {what} for unregistered node "
                f"{key.split('::')[0]!r}"
            )
        return node

    for key, state in data["nodes"].items():
        _load_node(node_of(key, "state"), state)
    if placed:
        unknown = sorted(set(data["now_global"]) - set(detector.sites))
        if unknown:
            raise DetectionError(
                f"checkpoint holds clocks of sites {unknown} this engine lacks"
            )
        for site, now in data["now_global"].items():
            detector._clocks[site] = int(now)
    else:
        detector.now_global = int(data["now_global"])
    for timer in data["plus_timers"]:
        node = by_key.get(timer["node"])
        if not isinstance(node, PlusNode):
            raise DetectionError(
                f"checkpoint timer references non-Plus node {timer['node']!r}"
            )
        detector.schedule(
            node, int(timer["fire_global"]), occurrence_from_dict(timer["base"])
        )
    for node in detector.graph.nodes():
        rearm_windows(detector, node)
    for entry in data.get("outbox", ()):
        node = node_of(entry["node"], "a message")
        detector._enqueue(
            entry["src"],
            entry["dst"],
            detector._node_ids[node],
            entry["role"],
            occurrence_from_dict(entry["occurrence"]),
        )


def save_checkpoint(detector: Detector, path: str) -> None:
    """Snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot(detector), handle)


def load_checkpoint(detector: Detector, path: str) -> None:
    """Restore from a JSON file written by :func:`save_checkpoint`."""
    with open(path, "r", encoding="utf-8") as handle:
        restore(detector, json.load(handle))
