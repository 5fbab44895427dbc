"""The instrumentation hub threaded through the detection stack.

One :class:`Instrumentation` instance owns the metrics registry, the
span-id sequence, the current-span stack (the simulator is
single-threaded, so nesting is a stack), and the sinks.  Every
instrumented component — :class:`~repro.detection.detector.Detector`,
:class:`~repro.detection.coordinator.DistributedDetector`,
:class:`~repro.sim.network.Network`,
:class:`~repro.detection.stabilizer.Stabilizer`,
:class:`~repro.sim.cluster.DistributedSystem` — takes an optional
``instrumentation=`` and defaults to the shared :data:`DISABLED`
singleton, whose hooks are all no-ops; hot paths guard with
``if obs.enabled:`` so the disabled cost is one attribute load and a
branch.

Span-name conventions used by the built-in hooks:

========================  =====================================================
``inject``                one primitive injection (attrs: ``event``, ``uid``)
``detector.feed``         one occurrence fed into an engine (attr ``event``)
``node.receive``          one operator-node ``receive`` (attrs ``op``,
                          ``node``, ``role``, ``emitted``)
``timer.fire``            one temporal-operator timer firing (attr ``granule``)
``net.send``              one message flight; ``start``/``end`` span the
                          simulated delay (attrs ``src``, ``dst``, ``size``)
``message.deliver``       remote-constituent delivery processing (attr ``link``)
``stabilizer.hold``       buffered time of one occurrence between ``offer``
                          and release (attrs ``event``, ``granule``)
``detect``                one detection, linked back to the injection spans of
                          its primitive constituents (attrs ``event``,
                          ``latency``, ``links``, ``uids``)
========================  =====================================================

The serving runtime (``repro.serve``) adds metric-only hooks: counters
``serve.ingested`` / ``serve.pressure`` at the router, and five
per-shard metrics observed by the one shard step
(:class:`~repro.serve.shard.ShardEngine`, so a runtime's shards and a
cluster's replicas report alike): counters ``serve.events`` /
``serve.detections`` / ``serve.verdicts`` and histograms
``serve.batch_size`` / ``serve.flush_ns``.

The fault-tolerant cluster (``repro.serve.cluster``) adds the
``serve.failover.*`` family: counters ``serve.failover.restarts``
(worker respawns), ``serve.failover.checkpoints`` (persisted shard
checkpoints), ``serve.failover.parked`` (events parked in the WAL of an
unavailable shard), ``serve.failover.unavailable`` (shards declared
down past the retry budget), ``serve.failover.beats_missed`` /
``serve.failover.beats_dropped`` (liveness anomalies), plus histograms
``serve.failover.replay_events`` (WAL entries replayed per recovery)
and ``serve.failover.restart_ns`` (wall time of one recovery), and the
per-shard histogram ``serve.wal.retained`` (entries the shard's WAL
still holds after a checkpoint's truncation).
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Any, Callable, Iterable

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.sinks import SpanSink
from repro.obs.spans import Span


class _ActiveSpan:
    """A span under construction; use as a context manager."""

    __slots__ = ("_obs", "_span")

    def __init__(self, obs: "Instrumentation", span: Span) -> None:
        self._obs = obs
        self._span = span

    @property
    def id(self) -> int:
        """The span id (0 until entered)."""
        return self._span.span_id

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span."""
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        self._obs._open(self._span)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._obs._finish(self._span)
        return False


class _NullSpan:
    """The no-op span handed out by disabled instrumentation."""

    __slots__ = ()
    id = 0

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Instrumentation:
    """Spans + metrics + sinks for one run.

    Parameters
    ----------
    sinks:
        Span sinks (e.g. :class:`~repro.obs.sinks.RingBufferSink`,
        :class:`~repro.obs.sinks.JSONLSink`).  More can be added with
        :meth:`add_sink`.
    clock:
        A zero-argument callable returning the current *true* time.
        :class:`~repro.sim.cluster.DistributedSystem` binds its engine
        clock automatically; unbound instrumentation stamps 0.
    """

    enabled = True

    def __init__(
        self,
        *,
        sinks: Iterable[SpanSink] | None = None,
        clock: Callable[[], Fraction] | None = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.sinks: list[SpanSink] = list(sinks) if sinks is not None else []
        self._clock: Callable[[], Fraction] = clock or (lambda: Fraction(0))
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self.spans_finished = 0

    # --- wiring -----------------------------------------------------------

    def bind_clock(self, clock: Callable[[], Fraction]) -> None:
        """Set the true-time source (idempotent; last bind wins)."""
        self._clock = clock

    def add_sink(self, sink: SpanSink) -> None:
        """Attach another span sink."""
        self.sinks.append(sink)

    def close(self) -> None:
        """Close every sink, handing each the final metrics registry."""
        for sink in self.sinks:
            sink.close(self.metrics)

    def now(self) -> Fraction:
        """Current true time from the bound clock."""
        return Fraction(self._clock())

    # --- spans ------------------------------------------------------------

    def span(self, name: str, *, site: str | None = None, **attrs: Any) -> _ActiveSpan:
        """A nested span context; timing starts when entered."""
        return _ActiveSpan(self, Span(0, name, site=site, attrs=attrs))

    def event(self, name: str, *, site: str | None = None, **attrs: Any) -> Span:
        """Record an instantaneous span (start == end == now)."""
        now = self.now()
        span = Span(
            next(self._ids),
            name,
            site=site,
            parent_id=self._stack[-1] if self._stack else None,
            start=now,
            end=now,
            attrs=attrs,
        )
        self._dispatch(span)
        return span

    def record_span(
        self,
        name: str,
        *,
        start: Fraction,
        end: Fraction,
        site: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Record a span with explicit true-time bounds.

        For operations whose endpoints are known out-of-band — a message
        flight, a stabilizer hold — rather than bracketed by a ``with``
        block.  Such spans are cross-cutting and carry no parent link.
        """
        span = Span(
            next(self._ids), name, site=site, start=start, end=end, attrs=attrs
        )
        self._dispatch(span)
        return span

    def _open(self, span: Span) -> None:
        span.span_id = next(self._ids)
        span.parent_id = self._stack[-1] if self._stack else None
        span.start = self.now()
        span.wall_ns = time.perf_counter_ns()
        self._stack.append(span.span_id)

    def _finish(self, span: Span) -> None:
        span.wall_ns = time.perf_counter_ns() - span.wall_ns
        span.end = self.now()
        self._stack.pop()
        self._dispatch(span)

    def _dispatch(self, span: Span) -> None:
        self.spans_finished += 1
        for sink in self.sinks:
            sink.record(span)

    # --- metrics ----------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Shorthand for ``metrics.counter``."""
        return self.metrics.counter(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Shorthand for ``metrics.histogram``."""
        return self.metrics.histogram(name, **labels)


class _DisabledInstrumentation(Instrumentation):
    """The default no-op hub; every hook returns immediately."""

    enabled = False

    def span(self, name: str, *, site: str | None = None, **attrs: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, name: str, *, site: str | None = None, **attrs: Any) -> None:  # type: ignore[override]
        return None

    def record_span(self, name: str, **kwargs: Any) -> None:  # type: ignore[override]
        return None

    def bind_clock(self, clock: Callable[[], Fraction]) -> None:
        pass

    def add_sink(self, sink: SpanSink) -> None:
        pass


DISABLED = _DisabledInstrumentation()
"""The shared disabled singleton every component defaults to."""


def resolve(instrumentation: Instrumentation | None) -> Instrumentation:
    """``instrumentation`` or the disabled singleton."""
    return instrumentation if instrumentation is not None else DISABLED
