"""Graph and engine introspection.

Operational visibility for deployed detectors: node/edge counts, buffer
occupancy per node, emitted-detection counters, and pending timers —
the numbers an operator dashboards.  Used by the CLI and the SHARE
benchmark; exposed as plain dataclasses so callers can serialize them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.detector import Detector
from repro.detection.graph import EventGraph
from repro.detection.nodes import Node, PrimitiveNode


@dataclass(frozen=True, slots=True)
class NodeReport:
    """One node's live state."""

    name: str
    kind: str
    context: str
    buffered: int
    emitted: int


@dataclass
class GraphReport:
    """A full engine snapshot."""

    nodes: list[NodeReport] = field(default_factory=list)
    edge_count: int = 0
    primitive_count: int = 0
    operator_count: int = 0
    root_names: list[str] = field(default_factory=list)
    pending_timers: int = 0
    total_buffered: int = 0
    total_emitted: int = 0

    def by_name(self, name: str) -> NodeReport:
        """Look up one node's report."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def render(self) -> str:
        """A fixed-width text rendition for terminals."""
        lines = [
            f"nodes: {len(self.nodes)} ({self.primitive_count} primitive, "
            f"{self.operator_count} operator), edges: {self.edge_count}, "
            f"timers: {self.pending_timers}",
            f"buffered: {self.total_buffered}, emitted: {self.total_emitted}",
            f"roots: {', '.join(self.root_names) or '(none)'}",
        ]
        width = max((len(n.name) for n in self.nodes), default=4)
        lines.append(f"{'node':<{width}}  {'kind':<18} {'ctx':<12} "
                     f"{'buf':>5} {'emit':>5}")
        for node in self.nodes:
            lines.append(
                f"{node.name:<{width}}  {node.kind:<18} {node.context:<12} "
                f"{node.buffered:>5} {node.emitted:>5}"
            )
        return "\n".join(lines)


def node_buffered(node: Node) -> int:
    """Occurrences currently buffered in one node."""
    return node.buffered()


def inspect_graph(graph: EventGraph, pending_timers: int = 0) -> GraphReport:
    """Build a report from a graph (engine-agnostic)."""
    graph_report = GraphReport(pending_timers=pending_timers)
    for node in graph.nodes():
        buffered = node_buffered(node)
        graph_report.nodes.append(
            NodeReport(
                name=node.name,
                kind=type(node).__name__,
                context=node.context.value,
                buffered=buffered,
                emitted=node.emitted_count,
            )
        )
        graph_report.total_buffered += buffered
        graph_report.total_emitted += node.emitted_count
        if isinstance(node, PrimitiveNode):
            graph_report.primitive_count += 1
        else:
            graph_report.operator_count += 1
    graph_report.edge_count = sum(len(edges) for edges in graph.edges.values())
    graph_report.root_names = sorted(graph.roots)
    return graph_report


def inspect_detector(detector: Detector) -> GraphReport:
    """Build a report from a local detector (includes timers)."""
    return inspect_graph(detector.graph, pending_timers=detector.pending_timers())
