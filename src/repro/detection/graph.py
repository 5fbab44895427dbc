"""Event-graph construction from Snoop expressions.

Sentinel detects composite events with an *event graph*: primitive event
types at the leaves, one operator node per composite subexpression,
edges carrying occurrences upward.  Common subexpressions are shared —
two rules over ``(e1 ; e2)`` in the same parameter context reuse one
node.

:func:`build_graph` compiles an expression into an :class:`EventGraph`;
the graph is engine-agnostic (the local :class:`~repro.detection.detector.
Detector` and the distributed coordinator both consume it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.contexts.policies import Context
from repro.errors import GraphConstructionError
from repro.events.expressions import (
    And,
    Aperiodic,
    AperiodicStar,
    EventExpression,
    Filter,
    Not,
    Or,
    Periodic,
    PeriodicStar,
    Plus,
    Primitive,
    Sequence,
    Times,
)
from repro.detection.nodes import (
    ROLE_BODY,
    ROLE_CLOSER,
    ROLE_FIRST,
    ROLE_LEFT,
    ROLE_NEGATED,
    ROLE_OPENER,
    ROLE_RIGHT,
    ROLE_SECOND,
    AndNode,
    AperiodicNode,
    AperiodicStarNode,
    FilterNode,
    Node,
    NotNode,
    OrNode,
    PeriodicNode,
    PlusNode,
    PrimitiveNode,
    SequenceNode,
    TimesNode,
)


@dataclass(frozen=True, slots=True)
class Edge:
    """A subscription: occurrences of ``child`` feed ``parent`` as ``role``."""

    child: Node
    parent: Node
    role: str


@dataclass
class EventGraph:
    """The compiled detection graph.

    ``primitives`` maps event-type names to their leaf nodes; ``edges``
    maps each node to its parent subscriptions; ``roots`` maps registered
    composite-event names to their root nodes.
    """

    primitives: dict[str, PrimitiveNode] = field(default_factory=dict)
    edges: dict[Node, list[Edge]] = field(default_factory=dict)
    roots: dict[str, Node] = field(default_factory=dict)
    _shared: dict[tuple[EventExpression, Context], Node] = field(default_factory=dict)
    _aliases: list[Node] = field(default_factory=list)

    def subscribers(self, node: Node) -> list[Edge]:
        """The parents subscribed to ``node``."""
        return self.edges.get(node, [])

    def stats(self) -> dict[str, int]:
        """Graph-shape counters (recorded on registration spans)."""
        return {
            "primitives": len(self.primitives),
            "operators": len(self.operator_nodes()),
            "edges": sum(len(edges) for edges in self.edges.values()),
            "roots": len(self.roots),
        }

    def nodes(self) -> Iterator[Node]:
        """All nodes: primitives, operators, then root aliases."""
        yield from self.primitives.values()
        yield from self._shared.values()
        yield from self._aliases

    def operator_nodes(self) -> list[Node]:
        """All non-primitive nodes, including root aliases."""
        shared = [n for n in self._shared.values() if not isinstance(n, PrimitiveNode)]
        return shared + list(self._aliases)

    def subscribed_event_types(self) -> frozenset[str]:
        """Primitive event types that registered rules consume.

        The introspection the serving runtime's router is built from: a
        leaf that feeds an operator node or is itself a root (rule ``a``
        named ``a``).  A leaf created on demand by a stray ``feed`` has
        no subscribers and is excluded.
        """
        return frozenset(
            name
            for name, node in self.primitives.items()
            if self.edges.get(node) or node in self.roots.values()
        )

    def primitive_node(self, name: str) -> PrimitiveNode:
        """The leaf node of an event type, created on demand."""
        node = self.primitives.get(name)
        if node is None:
            node = PrimitiveNode(name)
            self.primitives[name] = node
        return node

    def add_expression(
        self,
        expression: EventExpression,
        name: str | None = None,
        context: Context = Context.UNRESTRICTED,
    ) -> Node:
        """Compile ``expression`` into the graph and register its root.

        Returns the root node.  If ``name`` is given and the same
        (expression, context) pair is already compiled under a different
        name, a relabeling passthrough node is created so both names
        fire.
        """
        nodes_before = {id(node) for node in self._shared.values()}
        root = self._compile(expression, context)
        label = name if name is not None else str(expression)
        existing = self.roots.get(label)
        if existing is not None:
            is_alias_of_root = any(
                edge.parent is existing for edge in self.edges.get(root, [])
            )
            if existing is root or is_alias_of_root:
                return existing
            raise GraphConstructionError(
                f"composite event name {label!r} is already registered "
                f"for a different expression"
            )
        if root.name != label:
            if not isinstance(root, PrimitiveNode) and id(root) not in nodes_before:
                # A fresh operator node: adopt the registered name directly,
                # so detections carry it with no extra provenance layer.
                root.name = label
                self.roots[label] = root
                return root
            # A primitive leaf or an already-shared node: relabel through a
            # single-input passthrough so both names fire independently.
            alias = OrNode(label, context)
            self._subscribe(root, alias, ROLE_LEFT)
            self._aliases.append(alias)
            self.roots[label] = alias
            return alias
        self.roots[label] = root
        return root

    def _subscribe(self, child: Node, parent: Node, role: str) -> None:
        self.edges.setdefault(child, []).append(Edge(child, parent, role))

    def _compile(self, expression: EventExpression, context: Context) -> Node:
        if isinstance(expression, Primitive):
            return self.primitive_node(expression.name)
        key = (expression, context)
        node = self._shared.get(key)
        if node is not None:
            return node
        node = self._make_node(expression, context)
        self._shared[key] = node
        for child_expression, role in _child_roles(expression):
            child = self._compile(child_expression, context)
            self._subscribe(child, node, role)
        return node

    def _make_node(self, expression: EventExpression, context: Context) -> Node:
        name = str(expression)
        if isinstance(expression, Or):
            return OrNode(name, context)
        if isinstance(expression, And):
            return AndNode(name, context)
        if isinstance(expression, Sequence):
            return SequenceNode(name, context)
        if isinstance(expression, Not):
            return NotNode(name, context)
        if isinstance(expression, Aperiodic):
            return AperiodicNode(name, context)
        if isinstance(expression, AperiodicStar):
            return AperiodicStarNode(name, context)
        if isinstance(expression, Periodic):
            return PeriodicNode(
                name, period=expression.period, cumulative=False, context=context
            )
        if isinstance(expression, PeriodicStar):
            return PeriodicNode(
                name, period=expression.period, cumulative=True, context=context
            )
        if isinstance(expression, Plus):
            return PlusNode(name, offset=expression.offset, context=context)
        if isinstance(expression, Filter):
            return FilterNode(name, predicate=expression.accepts, context=context)
        if isinstance(expression, Times):
            return TimesNode(name, count=expression.count, context=context)
        raise GraphConstructionError(
            f"cannot compile expression node {type(expression).__name__}"
        )


def _child_roles(expression: EventExpression) -> list[tuple[EventExpression, str]]:
    """The (child expression, subscription role) pairs of an operator."""
    if isinstance(expression, Or):
        return [(expression.left, ROLE_LEFT), (expression.right, ROLE_RIGHT)]
    if isinstance(expression, And):
        return [(expression.left, ROLE_LEFT), (expression.right, ROLE_RIGHT)]
    if isinstance(expression, Sequence):
        return [(expression.first, ROLE_FIRST), (expression.second, ROLE_SECOND)]
    if isinstance(expression, Not):
        return [
            (expression.opener, ROLE_OPENER),
            (expression.negated, ROLE_NEGATED),
            (expression.closer, ROLE_CLOSER),
        ]
    if isinstance(expression, (Aperiodic, AperiodicStar)):
        return [
            (expression.opener, ROLE_OPENER),
            (expression.body, ROLE_BODY),
            (expression.closer, ROLE_CLOSER),
        ]
    if isinstance(expression, (Periodic, PeriodicStar)):
        return [
            (expression.opener, ROLE_OPENER),
            (expression.closer, ROLE_CLOSER),
        ]
    if isinstance(expression, Plus):
        return [(expression.base, ROLE_OPENER)]
    if isinstance(expression, Filter):
        return [(expression.base, ROLE_LEFT)]
    if isinstance(expression, Times):
        return [(expression.body, ROLE_BODY)]
    raise GraphConstructionError(
        f"expression node {type(expression).__name__} has no child roles"
    )


def build_graph(
    expression: EventExpression,
    name: str | None = None,
    context: Context = Context.UNRESTRICTED,
) -> EventGraph:
    """Compile a single expression into a fresh :class:`EventGraph`."""
    graph = EventGraph()
    graph.add_expression(expression, name=name, context=context)
    return graph
