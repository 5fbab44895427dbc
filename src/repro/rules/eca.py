"""ECA rules: conditions, actions, coupling modes, and the rule manager.

Sentinel models active behaviour as Event-Condition-Action rules: when a
(possibly composite) event is detected and the condition holds over the
event's parameters, the action executes.  This module provides the rule
layer on top of :class:`~repro.detection.detector.Detector` (or the
distributed coordinator), with the classic Sentinel features:

* **coupling modes** — ``IMMEDIATE`` actions run synchronously inside the
  triggering feed; ``DEFERRED`` actions queue until :meth:`RuleManager.
  flush` (transaction commit point); ``DETACHED`` actions queue to an
  independent batch (:meth:`RuleManager.drain_detached`) modelling a
  separate transaction;
* **priorities** — among rules triggered by the same detection, higher
  priority runs first (ties broken by definition order);
* **cascades** — actions may raise further primitive events through the
  manager; a configurable depth limit guards against runaway recursion.

Conditions and actions are plain callables receiving a
:class:`~repro.detection.detector.Detection`; a condition returning a
falsy value vetoes the action.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.contexts.policies import Context
from repro.errors import DuplicateRuleError, RuleError, UnknownRuleError
from repro.events.expressions import EventExpression
from repro.events.occurrences import EventOccurrence
from repro.detection.detector import Detection, Detector
from repro.time.timestamps import PrimitiveTimestamp

Condition = Callable[[Detection], bool]
Action = Callable[[Detection], Any]


class CouplingMode(enum.Enum):
    """When a triggered action runs relative to the triggering event."""

    IMMEDIATE = "immediate"
    DEFERRED = "deferred"
    DETACHED = "detached"


@dataclass(frozen=True)
class Rule:
    """An ECA rule definition."""

    name: str
    event: str
    condition: Condition
    action: Action
    priority: int = 0
    coupling: CouplingMode = CouplingMode.IMMEDIATE
    enabled: bool = True


@dataclass(frozen=True)
class RuleExecution:
    """A record of one rule firing (or being vetoed by its condition)."""

    rule: str
    detection: Detection
    executed: bool
    result: Any = None
    cascade_depth: int = 0


class RuleManager:
    """Registers rules against a detector and orchestrates execution.

    >>> detector = Detector()
    >>> manager = RuleManager(detector)
    >>> _ = detector.register("deposit ; withdraw", name="roundtrip")
    >>> _ = manager.define("audit", "roundtrip",
    ...     condition=lambda d: True, action=lambda d: "logged")
    """

    def __init__(self, detector: Detector, max_cascade_depth: int = 16) -> None:
        self.detector = detector
        self.max_cascade_depth = max_cascade_depth
        self.executions: list[RuleExecution] = []
        self._rules: dict[str, Rule] = {}
        self._by_event: dict[str, list[Rule]] = {}
        self._deferred: list[tuple[Rule, Detection]] = []
        self._detached: list[tuple[Rule, Detection]] = []
        self._definition_order: dict[str, int] = {}
        self._order_seq = itertools.count()
        self._cascade_depth = 0

    # --- rule definition ----------------------------------------------------

    def define(
        self,
        name: str,
        event: str | EventExpression,
        condition: Condition | None = None,
        action: Action | None = None,
        priority: int = 0,
        coupling: CouplingMode = CouplingMode.IMMEDIATE,
        context: Context = Context.UNRESTRICTED,
    ) -> Rule:
        """Define a rule; ``event`` may be a registered composite-event
        name or an expression (registered on the fly under ``name``.evt)."""
        if name in self._rules:
            raise DuplicateRuleError(f"rule {name!r} is already defined")
        if isinstance(event, EventExpression):
            event_name = f"{name}.evt"
            self.detector.register(event, name=event_name, context=context)
        else:
            event_name = event
            if event_name not in self.detector.graph.roots:
                self.detector.register(event_name, name=event_name, context=context)
        rule = Rule(
            name=name,
            event=event_name,
            condition=condition if condition is not None else (lambda d: True),
            action=action if action is not None else (lambda d: None),
            priority=priority,
            coupling=coupling,
        )
        self._rules[name] = rule
        self._definition_order[name] = next(self._order_seq)
        self._by_event.setdefault(event_name, []).append(rule)
        if len(self._by_event[event_name]) == 1:
            self.detector.subscribe(
                event_name,
                lambda detection, en=event_name: self._on_detection(en, detection),
            )
        return rule

    def enable(self, name: str) -> None:
        """Re-enable a disabled rule."""
        self._set_enabled(name, True)

    def disable(self, name: str) -> None:
        """Disable a rule without removing it."""
        self._set_enabled(name, False)

    def _set_enabled(self, name: str, value: bool) -> None:
        rule = self._rules.get(name)
        if rule is None:
            raise UnknownRuleError(f"rule {name!r} is not defined")
        updated = Rule(
            name=rule.name,
            event=rule.event,
            condition=rule.condition,
            action=rule.action,
            priority=rule.priority,
            coupling=rule.coupling,
            enabled=value,
        )
        self._rules[name] = updated
        bucket = self._by_event[rule.event]
        bucket[bucket.index(rule)] = updated

    def rule(self, name: str) -> Rule:
        """Look up a rule by name."""
        try:
            return self._rules[name]
        except KeyError:
            raise UnknownRuleError(f"rule {name!r} is not defined") from None

    # --- event intake ---------------------------------------------------------

    def feed(
        self,
        event: str | EventOccurrence,
        stamp: PrimitiveTimestamp | None = None,
        parameters: Mapping[str, Any] | None = None,
    ) -> list[RuleExecution]:
        """Feed a primitive event and run the triggered IMMEDIATE rules.

        Accepts the same polymorphic forms as :meth:`Detector.feed` — an
        ``(event_type, stamp)`` pair or a prebuilt
        :class:`~repro.events.occurrences.EventOccurrence` — and returns
        the executions the event triggered.
        """
        before = len(self.executions)
        if stamp is None and parameters is None and not isinstance(event, str):
            self.detector.feed(event)
        else:
            self.detector.feed(event, stamp, parameters=parameters)
        return self.executions[before:]

    def _on_detection(self, event_name: str, detection: Detection) -> None:
        rules = sorted(
            (r for r in self._by_event.get(event_name, []) if r.enabled),
            key=lambda r: (-r.priority, self._definition_order[r.name]),
        )
        for rule in rules:
            if rule.coupling is CouplingMode.IMMEDIATE:
                self._run(rule, detection)
            elif rule.coupling is CouplingMode.DEFERRED:
                self._deferred.append((rule, detection))
            else:
                self._detached.append((rule, detection))

    def _run(self, rule: Rule, detection: Detection) -> RuleExecution:
        if self._cascade_depth >= self.max_cascade_depth:
            raise RuleError(
                f"rule cascade exceeded depth {self.max_cascade_depth} at "
                f"rule {rule.name!r}"
            )
        self._cascade_depth += 1
        try:
            if not rule.condition(detection):
                execution = RuleExecution(
                    rule=rule.name,
                    detection=detection,
                    executed=False,
                    cascade_depth=self._cascade_depth - 1,
                )
            else:
                result = rule.action(detection)
                execution = RuleExecution(
                    rule=rule.name,
                    detection=detection,
                    executed=True,
                    result=result,
                    cascade_depth=self._cascade_depth - 1,
                )
        finally:
            self._cascade_depth -= 1
        self.executions.append(execution)
        return execution

    # --- deferred / detached batches -------------------------------------------

    def flush(self) -> list[RuleExecution]:
        """Run all DEFERRED actions (transaction commit point), in
        priority order across the whole batch."""
        batch = sorted(
            self._deferred,
            key=lambda item: (-item[0].priority, self._definition_order[item[0].name]),
        )
        self._deferred.clear()
        return [self._run(rule, detection) for rule, detection in batch]

    def drain_detached(self) -> list[RuleExecution]:
        """Run all DETACHED actions as an independent batch."""
        batch = list(self._detached)
        self._detached.clear()
        return [self._run(rule, detection) for rule, detection in batch]

    def pending_deferred(self) -> int:
        """Number of queued deferred firings."""
        return len(self._deferred)

    def pending_detached(self) -> int:
        """Number of queued detached firings."""
        return len(self._detached)
