"""Distributed composite-event detection across sites.

The distributed engine mirrors Sentinel's architecture extended to a
multi-site system (Section 5.2-5.3 of the paper): primitive events are
detected at their home site; every operator node of the event graph is
*placed* at one site; when a node's emission has a subscriber on another
site, the occurrence — event type, parameters, and its composite
timestamp — travels there in a :class:`Message`.

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
import heapq
import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.contexts.policies import Context
from repro.errors import PlacementError, UnknownSiteError
from repro.events.expressions import EventExpression, Primitive
from repro.events.occurrences import EventOccurrence
from repro.events.parser import parse_expression
from repro.obs.instrument import Instrumentation, resolve
from repro.detection.detector import Detection, Detector, logged_occurrences
from repro.detection.graph import EventGraph
from repro.detection.nodes import (
    Node,
    PeriodicNode,
    PlusNode,
    PrimitiveNode,
    make_timer_stamp,
)
from repro.time.timestamps import PrimitiveTimestamp


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


class DistributedDetector:
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
        self.sites = list(sites)
        self.coordinator = coordinator if coordinator is not None else sites[0]
        if self.coordinator not in self.sites:
            raise UnknownSiteError(f"coordinator {self.coordinator!r} is not a site")
        self.timer_ratio = timer_ratio
        self.obs = resolve(instrumentation)
        self.graph = EventGraph()
        self.placements: dict[Node, str] = {}
        self.home_sites: dict[str, str] = {}
        self.outbox: deque[Message] = deque()
        self.detections: list[Detection] = []
        self.message_log: list[Message] = []
        self._callbacks: dict[str, list[Callable[[Detection], None]]] = {}
        self._round_robin = itertools.cycle(self.sites)
        self._message_seq = itertools.count()
        self._node_ids: dict[Node, int] = {}
        self._nodes_by_id: dict[int, Node] = {}
        self._node_id_seq = itertools.count(1)
        self._placement_policy = PlacementPolicy.LEAF_MAJORITY
        self._timer_heaps: dict[str, list[tuple[int, int, Node, Any]]] = {
            site: [] for site in self.sites
        }
        self._timer_seq = itertools.count()
        self._pending_timers = 0
        self._now_global: dict[str, int] = {site: 0 for site in self.sites}
        self._timer_site_binding: dict[Node, str] = {}
        self._registrations: list[tuple[EventExpression, str, Context]] = []

    # --- registration -----------------------------------------------------

    def set_home(self, event_type: str, site: str) -> None:
        """Declare the home site of a primitive event type."""
        if site not in self.sites:
            raise UnknownSiteError(f"{site!r} is not a site of this system")
        self.home_sites[event_type] = site

    def register(
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
        if isinstance(expression, str):
            expression = parse_expression(expression)
        if optimize:
            from repro.events.rewrite import simplify

            expression = simplify(expression)
        for leaf in expression.primitive_types():
            if leaf not in self.home_sites:
                raise PlacementError(
                    f"primitive event {leaf!r} has no home site; call "
                    f"set_home({leaf!r}, <site>) first"
                )
        root = self.graph.add_expression(
            expression, name=name, context=context, timer_ratio=self.timer_ratio
        )
        self._placement_policy = placement
        self._place_new_nodes(expression)
        self._registrations.append((expression, root.name, context))
        if callback is not None:
            self._callbacks.setdefault(root.name, []).append(callback)
        if self.obs.enabled:
            self.obs.event(
                "detector.register",
                site=self.placements.get(root, self.coordinator),
                event=root.name,
                expression=str(expression),
                placement=placement.value,
                **self.graph.stats(),
            )
        return root

    def local_clone(self, site: str = "local") -> Detector:
        """A single-site :class:`Detector` with the same registrations.

        The confirmation pass of the approximate mode
        (:meth:`~repro.sim.cluster.DistributedSystem.confirm`) replays
        the stamped history through one of these behind a stabilizer to
        obtain the exact in-order multiset.  Timer stamps carry the
        clone's site label instead of the placed site's, so comparisons
        must canonicalize timer sites
        (:func:`~repro.detection.approximate.detection_key`).
        """
        twin = Detector(site, self.timer_ratio)
        for expression, name, context in self._registrations:
            twin.register(expression, name=name, context=context)
        return twin

    def _place_new_nodes(self, expression: EventExpression) -> None:
        for node in self.graph.nodes():
            if node in self.placements:
                continue
            node_id = next(self._node_id_seq)
            self._node_ids[node] = node_id
            self._nodes_by_id[node_id] = node
            site = self._site_for(node)
            self.placements[node] = site
            if isinstance(node, (PeriodicNode, PlusNode)):
                node.bind_timers(_SiteTimerService(self, site))
                node.timer_site = f"{site}.timer"
                self._timer_site_binding[node] = site

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

    # --- feeding and message delivery --------------------------------------

    def feed(
        self,
        occurrence: EventOccurrence | str,
        stamp: PrimitiveTimestamp | None = None,
        *,
        parameters: Mapping[str, Any] | None = None,
    ) -> list[Detection]:
        """Raise a primitive occurrence at its home site.

        The documented intake, in two forms (mirrors
        :meth:`repro.detection.detector.Detector.feed`)::

            detector.feed(occurrence)                    # pre-built
            detector.feed("deposit", stamp, parameters={})
        """
        if isinstance(occurrence, EventOccurrence):
            if stamp is not None or parameters is not None:
                raise TypeError(
                    "feed(occurrence) takes no stamp/parameters — they are "
                    "already part of the occurrence"
                )
        else:
            if stamp is None:
                raise TypeError("feed(event_type, stamp) requires a stamp")
            occurrence = EventOccurrence.primitive(occurrence, stamp, parameters)
        return self.feed_occurrence(occurrence)

    def feed_occurrence(self, occurrence: EventOccurrence) -> list[Detection]:
        """Raise an already-built primitive occurrence at its home site."""
        leaf = self.graph.primitive_node(occurrence.event_type)
        if leaf not in self.placements:
            node_id = next(self._node_id_seq)
            self._node_ids[leaf] = node_id
            self._nodes_by_id[node_id] = leaf
            self.placements[leaf] = self.home_sites.get(
                occurrence.event_type, self.coordinator
            )
        if self.obs.enabled:
            with self.obs.span(
                "detector.feed",
                site=self.placements[leaf],
                event=occurrence.event_type,
            ):
                return self._emit_from(leaf, occurrence)
        return self._emit_from(leaf, occurrence)

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
                with self.obs.span(
                    "node.receive",
                    site=message.dst,
                    op=node.kind,
                    node=node.name,
                    role=message.role,
                ) as span:
                    produced = node.receive(message.occurrence, message.role)
                    span.set(emitted=len(produced))
                detections: list[Detection] = []
                for emission in produced:
                    detections.extend(self._emit_from(node, emission))
                return detections
        produced = node.receive(message.occurrence, message.role)
        detections = []
        for emission in produced:
            detections.extend(self._emit_from(node, emission))
        return detections

    def pump(self) -> list[Detection]:
        """Deliver all in-flight messages FIFO until quiescent (zero latency)."""
        detections: list[Detection] = []
        while self.outbox:
            detections.extend(self.deliver(self.outbox.popleft()))
        return detections

    def _emit_from(self, node: Node, occurrence: EventOccurrence) -> list[Detection]:
        obs = self.obs
        detections = self._record_if_root(node, occurrence)
        placements = self.placements
        node_site = placements[node]
        for edge in self.graph.subscribers(node):
            parent = edge.parent
            parent_site = placements[parent]
            if parent_site == node_site:
                if obs.enabled:
                    with obs.span(
                        "node.receive",
                        site=parent_site,
                        op=parent.kind,
                        node=parent.name,
                        role=edge.role,
                    ) as span:
                        produced = parent.receive(occurrence, edge.role)
                        span.set(emitted=len(produced))
                else:
                    produced = parent.receive(occurrence, edge.role)
                for emission in produced:
                    detections.extend(self._emit_from(parent, emission))
            else:
                message = Message(
                    src=node_site,
                    dst=parent_site,
                    node_id=self._node_ids[edge.parent],
                    role=edge.role,
                    occurrence=occurrence,
                    seq=next(self._message_seq),
                )
                self.outbox.append(message)
                self.message_log.append(message)
                if obs.enabled:
                    obs.counter(
                        "coordinator.messages", link=f"{node_site}->{parent_site}"
                    ).inc()
        return detections

    def _record_if_root(
        self, node: Node, occurrence: EventOccurrence
    ) -> list[Detection]:
        """A registered root's emission goes to its one owner: the rule's
        callbacks if it has any, the log otherwise (the rule of
        :meth:`repro.detection.detector.Detector.register`)."""
        name = node.name
        if occurrence.event_type != name or self.graph.roots.get(name) is not node:
            return []
        detection = Detection(name, occurrence)
        callbacks = self._callbacks.get(name)
        if callbacks:
            for callback in callbacks:
                callback(detection)
        else:
            self.detections.append(detection)
        return [detection]

    # --- timers -------------------------------------------------------------

    def schedule_at(
        self, site: str, node: Node, fire_global: int, payload: Any
    ) -> None:
        """Schedule a timer on one site's clock (used by temporal nodes).

        Late deadlines are clamped to the site's current granule, as in
        :meth:`repro.detection.detector.Detector.schedule`: an opener
        that crossed the network slower than its offset still fires its
        timer, at the earliest granule the site's clock allows.
        """
        if fire_global < self._now_global[site]:
            fire_global = self._now_global[site]
        heapq.heappush(
            self._timer_heaps[site],
            (fire_global, next(self._timer_seq), node, payload),
        )
        self._pending_timers += 1

    def advance_time(self, global_time: int) -> list[Detection]:
        """Advance every site's clock, firing due timers in granule order."""
        if not self._pending_timers:
            now_global = self._now_global
            for site, current in now_global.items():
                if current < global_time:
                    now_global[site] = global_time
            return []
        detections: list[Detection] = []
        for site in self.sites:
            heap = self._timer_heaps[site]
            while heap and heap[0][0] <= global_time:
                fire_global, _, node, payload = heapq.heappop(heap)
                self._pending_timers -= 1
                self._now_global[site] = max(self._now_global[site], fire_global)
                stamp = make_timer_stamp(
                    f"{site}.timer", fire_global, self.timer_ratio
                )
                if self.obs.enabled:
                    with self.obs.span(
                        "timer.fire",
                        site=site,
                        op=node.kind,
                        node=node.name,
                        granule=fire_global,
                    ) as span:
                        emissions = node.on_timer(stamp, payload)
                        span.set(emitted=len(emissions))
                else:
                    emissions = node.on_timer(stamp, payload)
                for emission in emissions:
                    detections.extend(self._emit_from(node, emission))
            self._now_global[site] = max(self._now_global[site], global_time)
        return detections

    # --- statistics -----------------------------------------------------------

    def message_count(self) -> int:
        """Total cross-site messages sent so far."""
        return len(self.message_log)

    def bytes_sent(self) -> int:
        """Total approximate message volume sent so far."""
        return sum(m.size for m in self.message_log)

    def detections_of(self, name: str) -> list[EventOccurrence]:
        """All logged occurrences of one registered composite event;
        raises for a rule whose callbacks own its detections."""
        return logged_occurrences(self, name)

    def prune_before(self, global_time: int) -> int:
        """Garbage-collect node buffers below a granule horizon (all sites)."""
        return sum(node.prune_before(global_time) for node in self.graph.nodes())


class _SiteTimerService:
    """Adapter giving a temporal node timers on its placement site."""

    def __init__(self, owner: DistributedDetector, site: str) -> None:
        self._owner = owner
        self._site = site

    def schedule(self, node: Node, fire_global: int, payload: Any) -> None:
        self._owner.schedule_at(self._site, node, fire_global, payload)
