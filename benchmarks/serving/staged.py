"""The staged, traced run: where a workload's time goes, layer by layer.

The end-to-end passes treat the program as a black box.  Here the
harness replays the same stream itself, one public call per stage and
granule batch — ``StreamDecoder.feed`` → decode → ``EventRouter.route``
→ ``batch_occurrences`` → ``Detector.advance_time``/``feed`` → row
encoding, or on the durable path ``ShardWAL.append_event`` →
``ShardReplica.apply`` → ``DetectionLedger.offer`` → checkpoint — and
wraps each call in a span.  Only the stages on a workload's own serving
path run, so their sum is comparable with its end-to-end wall time; the
remainder is what the stages cannot see (queue hops, the event loop,
pipes, the other process).

Spans inside ``src/`` are a later change (ROADMAP item 2).
"""

from __future__ import annotations

import _paths  # noqa: F401  (puts src/ on sys.path; must come first)

import asyncio
import gc
import json
import os
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.detection.checkpoint import restore, snapshot
from repro.detection.detector import Detection, Detector
from repro.serve import (
    CheckpointStore,
    DetectionLedger,
    EventRouter,
    ServeEvent,
    ShardReplica,
    ShardWAL,
    StreamDecoder,
    SubprocessTransport,
    batch_occurrences,
    detection_to_json,
    get_codec,
)
from repro.time.composite import CompositeTimestamp, max_of
from repro.time.kernels import relation_code
from repro.time.timestamps import happens_before

from workloads import (
    Workload,
    bare_detector,
    key_of_detection,
    key_of_row,
    mismatches,
)

perf = time.perf_counter
perf_ns = time.perf_counter_ns

# --- spans --------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        # Allocating the record may start a collection, whose own span
        # must be complete before this one takes its index.
        self.record = [self.name, tracer.trace, tracer._open[-1], 0, 0]
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[3] = perf_ns()

    def __exit__(self, *exc_info: object) -> None:
        self.record[4] = perf_ns()
        self.tracer._open.pop()


class Tracer:
    """Spans kept in memory until the run ends.

    A span is ``[name, trace id, parent index, start_ns, end_ns]``; its
    own index in :attr:`spans` is its id, ``-1`` means no parent, and
    the trace id is the ordinal of the granule batch it belongs to.

    While entered as a context manager it also records every pause of
    the garbage collector as a ``gc`` span under whichever stage was
    running, so a stage's self time is its own work and not the
    collections its allocations happened to set off.
    """

    columns = ("name", "trace", "parent", "start_ns", "end_ns")

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = [-1]
        self.trace = 0
        self._gc = _Span(self, "gc")

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc.__enter__()
        else:
            self._gc.__exit__()

    def __enter__(self) -> None:
        gc.callbacks.append(self._on_gc)

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._on_gc)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus what its children cover."""
        own = [end - start for _, _, _, start, end in self.spans]
        for (_, _, parent, start, end) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def seconds_by_name(self) -> dict[str, float]:
        """Self time summed over every span of a name."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_ns()):
            totals[span[0]] = totals.get(span[0], 0.0) + own / 1e9
        return totals

    def dump(self, path: os.PathLike, **header: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**header, "columns": self.columns, "spans": self.spans},
                handle,
            )


class NullTracer:
    """The tracing-off twin: same calls, nothing recorded."""

    trace = 0

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc_info: object) -> None:
        pass


# --- the staged run -------------------------------------------------------------


@dataclass
class Staged:
    wall_s: float
    keys: Counter
    events: int = 0
    #: Shard targets summed over events (fan-out numerator).
    targets: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    checkpoints: int = 0
    #: Bytes appended to the WAL file over the run.
    wal_bytes: int = 0
    detector: Detector | None = field(default=None, repr=False)


def _row_bytes(detection: Detection) -> bytes:
    row = detection_to_json(0, detection)
    return (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")


def staged_run(
    wl: Workload, tracer: Tracer | NullTracer, state_dir: str | None = None
) -> Staged:
    """Replay ``wl`` stage by stage; ``state_dir`` only on the durable path."""
    span = tracer.span
    router = EventRouter(1)
    for name in wl.rules:
        router.assign(name)
    fired: list[Detection] = []  # what a path without rows delivers
    rows: list[bytes] = []
    out = Staged(wall_s=0.0, keys=Counter())
    if wl.durable:
        replica = ShardReplica(0, timer_ratio=wl.timer_ratio)
        for name, expression in wl.rules.items():
            replica.register(expression, name=name, context=wl.context)
        detector = replica.detector
        wal = ShardWAL(os.path.join(state_dir, "shard0.wal"), codec="binary")
        store = CheckpointStore(os.path.join(state_dir, "shard0.ckpt"))
        ledger = DetectionLedger()
    else:
        detector = bare_detector(wl)
    router.bind({0: detector.graph.subscribed_event_types()})
    payloads = wl.payloads if wl.wire else None
    decoder = StreamDecoder()
    binary = get_codec("binary")
    decode_stage = "decode" if wl.wire == "binary" else "decode_jsonl"

    def deliver(detections: list[Detection]) -> None:
        """Keep what the real path keeps: the encoded row, if it makes one.

        Held detections would weigh on every later collection and make
        the staged run the slower of the two.
        """
        if not wl.rows:
            fired.extend(detections)
            return
        with span("row"):
            for detection in detections:
                rows.append(_row_bytes(detection))
                out.bytes_out += len(rows[-1])

    def applied(entry: Any) -> None:
        with span("apply"):
            tagged = replica.apply(entry)
        deliver([item.detection for item in tagged])
        with span("ledger"):
            for item in tagged:
                ledger.offer(0, item.seq, item.k)

    kept = 0  # bytes a truncation left in the WAL file
    with tracer:
        started = perf()
        for ordinal, batch in enumerate(wl.batches):
            tracer.trace = ordinal
            with span("batch"):
                events: Any = batch
                if payloads is not None:
                    out.bytes_in += len(payloads[ordinal])
                    with span("split"):
                        units = decoder.feed(payloads[ordinal])
                    with span(decode_stage):
                        if wl.wire == "binary":
                            events = [
                                event
                                for unit in units
                                for event in binary.decode_batch(unit.payload)
                            ]
                        else:
                            events = [
                                ServeEvent.from_dict(json.loads(unit.payload))
                                for unit in units
                            ]
                with span("route"):
                    for event in events:
                        out.targets += len(router.route(event.event_type))
                out.events += len(events)
                if wl.durable:
                    for event in events:
                        with span("wal_append"):
                            entry = wal.append_event(event)
                        applied(entry)
                        if entry.seq % wl.checkpoint_every == 0:
                            with span("checkpoint"):
                                with span("snapshot"):
                                    state = replica.snapshot()
                                with span("save"):
                                    store.save(state)
                                appended = os.path.getsize(wal.path)
                                with span("truncate"):
                                    wal.truncate(store.retain_after)
                            out.wal_bytes += appended - kept
                            kept = os.path.getsize(wal.path)
                            out.checkpoints += 1
                    continue
                with span("stamp"):
                    occurrences = batch_occurrences(events)
                with span("detect"):
                    emitted: list[Detection] = []
                    granule = events[0].granule
                    if granule > detector.now_global:
                        with span("advance"):
                            emitted += detector.advance_time(granule)
                    with span("feed"):
                        for occurrence in occurrences:
                            emitted += detector.feed(occurrence)
                deliver(emitted)
        tracer.trace = len(wl.batches)
        with span("drain"):
            if wl.durable:
                with span("wal_append"):
                    entry = wal.append_advance(wl.horizon)
                applied(entry)
            else:
                with span("advance"):
                    emitted = detector.advance_time(wl.horizon)
                deliver(emitted)
        out.wall_s = perf() - started
    if wl.durable:
        out.wal_bytes += os.path.getsize(wal.path) - kept
        wal.close()
    out.keys.update(map(key_of_detection, fired))
    out.keys.update(key_of_row(json.loads(row)) for row in rows)
    out.detector = detector
    return out


# --- single-layer measurements ------------------------------------------------------


def _ns_per_call(call: Callable[[Any, Any], Any], pairs: list[tuple]) -> float:
    """Median over five rounds of (loop with the call − empty loop) / n."""

    def round_ns(body: Callable[[Any, Any], Any] | None) -> int:
        started = perf_ns()
        if body is None:
            for a, b in pairs:
                pass
        else:
            for a, b in pairs:
                body(a, b)
        return perf_ns() - started

    rounds = [round_ns(call) - round_ns(None) for _ in range(5)]
    return max(statistics.median(rounds), 0) / len(pairs)


def time_kernels(wl: Workload, pairs: int = 20_000) -> dict[str, float]:
    """Def 4.4's order and the Max fold over pairs of the stream's stamps."""
    rng = random.Random(wl.seed)
    stamps = [event.stamp() for event in wl.events]
    primitive = [
        (rng.choice(stamps), rng.choice(stamps)) for _ in range(pairs)
    ]
    composite = [
        (CompositeTimestamp([a]), CompositeTimestamp([b]))
        for a, b in primitive
    ]
    return {
        "time.relation_code_ns": _ns_per_call(relation_code, primitive),
        "time.happens_before_ns": _ns_per_call(happens_before, primitive),
        "time.max_of_ns": _ns_per_call(max_of, composite),
    }


def snapshot_layers(wl: Workload, detector: Detector) -> dict[str, float]:
    """One snapshot of the final detector state, and its way back."""
    started = perf()
    state = snapshot(detector)
    snapshot_s = perf() - started
    twin = bare_detector(wl)
    started = perf()
    restore(twin, state)
    return {
        "detection.snapshot_s": snapshot_s,
        "detection.restore_s": perf() - started,
        "detection.snapshot_bytes": len(json.dumps(state, sort_keys=True)),
    }


def rebuild_layers(wl: Workload, state_dir: str) -> dict[str, float]:
    """Read back the state a supervisor left: checkpoint, then WAL tail."""
    started = perf()
    state = CheckpointStore(os.path.join(state_dir, "shard0.ckpt")).load()
    replica = ShardReplica(0, timer_ratio=wl.timer_ratio)
    for name, expression in wl.rules.items():
        replica.register(expression, name=name, context=wl.context)
    after = 0
    if state is not None:
        replica.restore(state)
        after = int(state["seq"])
    tail_started = perf()
    with ShardWAL(os.path.join(state_dir, "shard0.wal"), codec="binary") as wal:
        tail = wal.tail(after)
    tail_s = perf() - tail_started
    for entry in tail:
        replica.apply(entry)
    return {
        "serve.wal.tail_s": tail_s,
        "serve.cluster.rebuild_s": perf() - started,
    }


def transport_rtt_us(frames: int = 2000) -> float:
    """Median round trip of one control frame to a worker process."""

    async def ping() -> float:
        link = await SubprocessTransport().connect(
            0, timer_ratio=1, heartbeat_interval=0.25, frame_limit=1 << 20
        )
        try:
            trips = []
            for seq in range(1, frames + 1):
                started = perf()
                await link.send({"op": "advance", "seq": seq, "granule": seq})
                while True:
                    frame = await link.read()
                    if frame is None:
                        raise RuntimeError("the worker closed its pipe")
                    if frame["op"] == "ack" and frame["seq"] == seq:
                        break
                trips.append(perf() - started)
            await link.send({"op": "stop"})
            link.close_input()
        finally:
            await link.wait()
        return statistics.median(trips) * 1e6

    return asyncio.run(ping())


# --- everything per layer, for one workload -------------------------------------------

#: A traced run never makes fewer rounds than this.
MIN_ROUNDS = 5
#: Share of the end-to-end wall time by which stages + overhead may miss it.
RESIDUAL_LIMIT = 0.05


def _staged(wl: Workload, tracer: Tracer | NullTracer) -> Staged:
    """One staged run; the durable path gets a state directory for it."""
    state_dir = None
    if wl.durable:
        state_dir = str(_paths.OUT / f"staged-{wl.seed}")
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
    try:
        gc.collect()
        return staged_run(wl, tracer, state_dir)
    finally:
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)


def per_layer(
    wl: Workload,
    reference: Counter,
    seconds: float,
    e2e_pass: Callable[[], dict[str, float]],
) -> tuple[dict[str, float], int, dict[str, Any], list[dict[str, float]]]:
    """Every per-layer metric, the wrong staged detections, the stage
    table, the numbers of the end-to-end passes.

    The box's speed drifts, so a ratio of two timings means something
    only when both were taken in the same moment.  The run is therefore
    made of rounds, each one end-to-end pass (``e2e_pass``, untraced,
    checked by the caller), one bare-detector pass, one staged run
    without spans and one with (in alternating order); every share and
    difference is formed within a round, and the metric is the median
    over the rounds.  A layer off this workload's serving path reads 0.
    """
    rounds: list[dict[str, Any]] = []
    wrong = 0
    #: What does not differ between rounds, taken from the first.
    fixed: dict[str, float] = {}

    def traced_run() -> tuple[dict[str, float], float]:
        """Self seconds by stage and the wall time of a run with spans.

        Nothing else of it outlives the call: 100,000 spans still held
        would weigh on every collection of the passes that follow.
        """
        nonlocal wrong
        tracer = Tracer()
        traced = _staged(wl, tracer)
        wrong += mismatches(reference, traced.keys)
        if not fixed:
            _paths.OUT.mkdir(exist_ok=True)
            tracer.dump(
                _paths.OUT / f"trace_{wl.name}.json", workload=wl.name, seed=wl.seed
            )
            fixed.update(
                {
                    "events": traced.events,
                    "targets": traced.targets,
                    "bytes_in": traced.bytes_in,
                    "bytes_out": traced.bytes_out,
                    "wal_bytes": traced.wal_bytes,
                    "checkpoints": traced.checkpoints,
                    "buffered": traced.detector.buffered_occurrences(),
                    **snapshot_layers(wl, traced.detector),
                }
            )
        return tracer.seconds_by_name(), traced.wall_s

    began = perf()
    while len(rounds) < MIN_ROUNDS or perf() - began < seconds:
        e2e = e2e_pass()
        feed_s = wl.reference()[1]
        if len(rounds) % 2:
            stage, traced_s = traced_run()
            plain_s = _staged(wl, NullTracer()).wall_s
        else:
            plain_s = _staged(wl, NullTracer()).wall_s
            stage, traced_s = traced_run()
        rounds.append(
            {
                "e2e": e2e,
                "stage": stage,
                "feed_s": feed_s,
                "feed_share": feed_s / e2e["wall_s"],
                "plain_s": plain_s,
                "traced_s": traced_s,
                # What the real path spends beyond its stages called directly.
                "overhead_s": e2e["wall_s"] - plain_s,
                "trace_share": traced_s / plain_s,
                # Stages + overhead against the wall they should add up to:
                # what is left is the spans' own cost and the box's drift
                # within the round.
                "residual_share": (sum(stage.values()) - plain_s) / e2e["wall_s"],
            }
        )

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    def e2e_median(key: str) -> float:
        return statistics.median(r["e2e"][key] for r in rounds)

    stage = {
        name: statistics.median(r["stage"].get(name, 0.0) for r in rounds)
        for name in rounds[-1]["stage"]
    }
    overhead_s = median("overhead_s")
    batches = e2e_median("batches")
    flags = []
    if overhead_s < 0:
        flags.append("the staged run is slower than the real path: overhead < 0")
    if abs(median("residual_share")) > RESIDUAL_LIMIT:
        flags.append(
            "stages + overhead miss the end-to-end wall time by more than "
            f"{RESIDUAL_LIMIT:.0%}"
        )

    metrics = {
        **time_kernels(wl),
        "detection.feed_s": median("feed_s"),
        "detection.feed_share": median("feed_share"),
        "detection.detections_per_event": sum(reference.values()) / fixed["events"],
        "detection.buffered_final": fixed["buffered"],
        "detection.snapshot_s": fixed["detection.snapshot_s"],
        "detection.restore_s": fixed["detection.restore_s"],
        "detection.snapshot_bytes": fixed["detection.snapshot_bytes"],
        "serve.protocol.split_s": stage.get("split", 0.0),
        "serve.protocol.decode_s": stage.get("decode", 0.0),
        "serve.protocol.decode_jsonl_s": stage.get("decode_jsonl", 0.0),
        "serve.protocol.stamp_s": stage.get("stamp", 0.0),
        "serve.protocol.row_s": stage.get("row", 0.0),
        "serve.protocol.bytes_in": fixed["bytes_in"],
        "serve.protocol.bytes_out": fixed["bytes_out"],
        "serve.router.route_s": stage.get("route", 0.0),
        "serve.router.fanout": fixed["targets"] / fixed["events"],
        "serve.shard.queue_overhead_s": 0.0 if wl.durable else overhead_s,
        "serve.shard.batches_flushed": batches,
        "serve.shard.mean_batch": fixed["events"] / batches if batches else 0.0,
        "serve.server.latency_p99_ms": e2e_median("latency_p99_ms"),
        "serve.server.latency_max_ms": max(
            r["e2e"]["latency_max_ms"] for r in rounds
        ),
        "serve.server.generator_late_p50_ms": e2e_median("late_p50_ms"),
        "serve.server.drain_after_last_ms": e2e_median("drain_ms"),
        "serve.wal.append_s": stage.get("wal_append", 0.0),
        "serve.wal.bytes": fixed["wal_bytes"],
        "serve.wal.tail_s": 0.0,
        "serve.wal.truncate_s": stage.get("truncate", 0.0),
        "serve.cluster.apply_s": stage.get("apply", 0.0),
        "serve.cluster.ledger_s": stage.get("ledger", 0.0),
        "serve.cluster.checkpoint_s": sum(
            stage.get(name, 0.0) for name in ("checkpoint", "snapshot", "save")
        ),
        "serve.cluster.checkpoints": fixed["checkpoints"],
        "serve.cluster.rebuild_s": 0.0,
        "serve.transport.rtt_us": 0.0,
        "serve.transport.overhead_s": overhead_s if wl.durable else 0.0,
        "gc.pause_s": stage.get("gc", 0.0),
        "trace.overhead_share": median("trace_share"),
    }
    if wl.durable:
        metrics.update(rebuild_layers(wl, wl.state_dir))
        metrics["serve.transport.rtt_us"] = transport_rtt_us()
    table = {
        "stages": stage,
        "overhead_s": overhead_s,
        "wall_s": e2e_median("wall_s"),
        "plain_staged_s": median("plain_s"),
        "traced_staged_s": median("traced_s"),
        "residual_share": median("residual_share"),
        "rounds": len(rounds),
        "flags": flags,
    }
    return metrics, wrong, table, [r["e2e"] for r in rounds]
