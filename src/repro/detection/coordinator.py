"""Distributed composite-event detection across sites.

The distributed engine mirrors Sentinel's architecture extended to a
multi-site system (Section 5.2-5.3 of the paper): primitive events are
detected at their home site; every operator node of the event graph is
*placed* at one site; when a node's emission has a subscriber on another
site, the occurrence — event type, parameters, and its composite
timestamp — travels there in a :class:`Message`.

:class:`DistributedDetector` is the one engine of
:mod:`repro.detection.detector` with a placement: this module holds what
is about distribution — the :class:`PlacementPolicy` choices, the
:class:`Message`, the outbox and its delivery, the traffic counters —
and nothing about walking the graph, timers or recording detections.

The coordinator is transport-agnostic: emissions destined for a remote
node are appended to :attr:`DistributedDetector.outbox`, and the caller
(typically the simulator, :mod:`repro.sim`) delivers them with whatever
latency/ordering model it implements by calling :meth:`deliver`.
:meth:`pump` is the zero-latency convenience that drains the outbox in
FIFO order.

Because timestamps are propagated as composite max-sets and combined via
``Max`` at every node, detections carry exactly the timestamps the
paper's semantics prescribes *regardless of where nodes are placed* —
the placement only affects message counts and latency, which the SCALE
benchmark measures across :class:`PlacementPolicy` choices.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable

from repro.contexts.policies import Context
from repro.errors import PlacementError, UnknownSiteError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence
from repro.obs.instrument import Instrumentation
from repro.detection.detector import Detection, Detector
from repro.detection.nodes import Node, PrimitiveNode


class PlacementPolicy(enum.Enum):
    """How operator nodes are assigned to sites.

    ``LEAF_MAJORITY`` places each operator at the site contributing most
    of its primitive leaves (ties to the lexicographically first site) —
    it minimizes leaf-to-operator messages.  ``COORDINATOR`` places every
    operator at one designated site — the classic centralized-detector
    layout.  ``ROUND_ROBIN`` spreads operators across sites in creation
    order — a load-balancing strawman for the ablation.
    """

    LEAF_MAJORITY = "leaf_majority"
    COORDINATOR = "coordinator"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True, slots=True)
class Message:
    """A cross-site event notification.

    ``size`` approximates the wire size: one unit per primitive triple in
    the timestamp plus one per parameter — used by the benchmarks to
    compare timestamp-set growth against the no-max-set baseline.
    """

    src: str
    dst: str
    node_id: int
    role: str
    occurrence: EventOccurrence
    seq: int

    @property
    def size(self) -> int:
        return len(self.occurrence.timestamp) + len(self.occurrence.parameters)


class DistributedDetector(Detector):
    """A multi-site detection engine over one shared event graph.

    Parameters
    ----------
    sites:
        The site names of the distributed system.
    coordinator:
        The site used by :attr:`PlacementPolicy.COORDINATOR` and as the
        default home of root aliases; defaults to the first site.
    timer_ratio:
        Local ticks per global granule for timer stamps.
    instrumentation:
        An optional :class:`~repro.obs.instrument.Instrumentation` hub;
        defaults to the shared disabled singleton (no-op hooks).
    """

    def __init__(
        self,
        sites: list[str],
        coordinator: str | None = None,
        timer_ratio: int = 1,
        *,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if not sites:
            raise PlacementError("a distributed detector needs at least one site")
        if coordinator is None:
            coordinator = sites[0]
        elif coordinator not in sites:
            raise UnknownSiteError(f"coordinator {coordinator!r} is not a site")
        super().__init__(coordinator, timer_ratio, instrumentation=instrumentation)
        self.coordinator = coordinator
        self.sites = list(sites)
        self._clocks = {site: 0 for site in self.sites}
        self._timer_heaps = {site: [] for site in self.sites}
        self.home_sites: dict[str, str] = {}
        self.outbox: deque[Message] = deque()
        self._messages_sent = 0
        self._bytes_sent = 0
        self._round_robin = itertools.cycle(self.sites)
        self._message_seq = itertools.count()
        self._node_ids: dict[Node, int] = {}
        self._nodes_by_id: dict[int, Node] = {}
        self._node_id_seq = itertools.count(1)
        self._placement_policy = PlacementPolicy.LEAF_MAJORITY

    # --- registration and placement -----------------------------------------

    def set_home(self, event_type: str, site: str) -> None:
        """Declare the home site of a primitive event type."""
        if site not in self.sites:
            raise UnknownSiteError(f"{site!r} is not a site of this system")
        self.home_sites[event_type] = site

    def register(  # type: ignore[override]
        self,
        expression: EventExpression | str,
        name: str | None = None,
        context: Context = Context.UNRESTRICTED,
        placement: PlacementPolicy = PlacementPolicy.LEAF_MAJORITY,
        callback: Callable[[Detection], None] | None = None,
        optimize: bool = False,
    ) -> Node:
        """Register a composite event and place its operator nodes.

        As on :meth:`repro.detection.detector.Detector.register`, a
        ``callback`` owns the rule's detections: they are delivered to
        it and not appended to :attr:`detections`.
        """
        expression = self._prepare(expression, optimize)
        for leaf in expression.primitive_types():
            if leaf not in self.home_sites:
                raise PlacementError(
                    f"primitive event {leaf!r} has no home site; call "
                    f"set_home({leaf!r}, <site>) first"
                )
        self._placement_policy = placement
        return self._install(
            expression, name, context, callback, placement=placement.value
        )

    def _bind_new_nodes(self) -> None:
        """Place the nodes a registration added, then resolve which
        edges cross sites — the one thing the walk asks of a placement."""
        super()._bind_new_nodes()
        placements = self.placements
        for node in self.graph.nodes():
            if node not in placements:
                node_id = next(self._node_id_seq)
                self._node_ids[node] = node_id
                self._nodes_by_id[node_id] = node
                placements[node] = self._site_for(node)
        self._remote_edges = {}
        for child, edges in self.graph.edges.items():
            src = placements[child]
            crossing = [
                (src, placements[e.parent], self._node_ids[e.parent], e.role)
                for e in edges
                if placements[e.parent] != src
            ]
            if crossing:
                local = [e for e in edges if placements[e.parent] == src]
                self._remote_edges[child] = (crossing, local)

    def _site_for(self, node: Node) -> str:
        if isinstance(node, PrimitiveNode):
            return self.home_sites.get(node.name, self.coordinator)
        return {
            PlacementPolicy.LEAF_MAJORITY: self._leaf_majority_site,
            PlacementPolicy.COORDINATOR: lambda n: self.coordinator,
            PlacementPolicy.ROUND_ROBIN: lambda n: next(self._round_robin),
        }[self._placement_policy](node)

    def _leaf_majority_site(self, node: Node) -> str:
        votes: Counter[str] = Counter()
        self._collect_leaf_sites(node, votes, set())
        if not votes:
            return self.coordinator
        top_count = max(votes.values())
        return min(site for site, count in votes.items() if count == top_count)

    def _collect_leaf_sites(
        self, target: Node, votes: Counter, seen: set[int]
    ) -> None:
        if id(target) in seen:
            return
        seen.add(id(target))
        for child, edges in self.graph.edges.items():
            for edge in edges:
                if edge.parent is target:
                    if isinstance(child, PrimitiveNode):
                        votes[self.home_sites.get(child.name, self.coordinator)] += 1
                    else:
                        self._collect_leaf_sites(child, votes, seen)

    # --- messages ---------------------------------------------------------------

    def _send(
        self,
        crossing: list[tuple[str, str, int, str]],
        emissions: list[EventOccurrence],
    ) -> None:
        """The walk's other branch: each emission, for each of its
        node's edges into another site, becomes a message in flight."""
        for emission in emissions:
            for src, dst, node_id, role in crossing:
                message = self._enqueue(src, dst, node_id, role, emission)
                self._messages_sent += 1
                self._bytes_sent += message.size
                if self.obs.enabled:
                    self.obs.counter(
                        "coordinator.messages", link=f"{src}->{dst}"
                    ).inc()

    def _enqueue(
        self, src: str, dst: str, node_id: int, role: str, occurrence: EventOccurrence
    ) -> Message:
        message = Message(
            src, dst, node_id, role, occurrence, next(self._message_seq)
        )
        self.outbox.append(message)
        return message

    def deliver(self, message: Message) -> list[Detection]:
        """Deliver one in-flight message to its destination node.

        The caller (simulator) decides *when* to call this; the engine
        does not reorder or drop.
        """
        node = self._nodes_by_id[message.node_id]
        if self.obs.enabled:
            with self.obs.span(
                "message.deliver",
                site=message.dst,
                link=f"{message.src}->{message.dst}",
                node=node.name,
            ):
                return self._arrive(node, message.occurrence, message.role)
        return self._arrive(node, message.occurrence, message.role)

    def pump(self) -> list[Detection]:
        """Deliver all in-flight messages FIFO until quiescent (zero latency)."""
        detections: list[Detection] = []
        while self.outbox:
            detections.extend(self.deliver(self.outbox.popleft()))
        return detections

    # --- statistics -----------------------------------------------------------

    def message_count(self) -> int:
        """Total cross-site messages sent so far."""
        return self._messages_sent

    def bytes_sent(self) -> int:
        """Total approximate message volume sent so far."""
        return self._bytes_sent
