"""The four workloads of the serving benchmark.

Every workload draws its stream from ``ServingWorkload.standard(seed)``
(4 sites, the three ``STANDARD_RULES``) and hands the program under test
nothing but those events.  A workload knows how to

* set itself up (generate the stream, register the rules, spawn what
  the program needs) and say how long that took,
* compute the reference multiset with a bare :class:`Detector`,
* run one timed pass through the serving path it exists to stress.

See ``README.md`` for why each one exists.
"""

from __future__ import annotations

import _paths  # noqa: F401  (puts src/ on sys.path; must come first)

import asyncio
import bisect
import gc
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterable, Iterator, Sequence

from repro.contexts.policies import Context
from repro.detection.detector import Detection, Detector
from repro.serve import (
    ClusterSupervisor,
    DetectionBroadcast,
    ServeConfig,
    ServeEvent,
    ServingRuntime,
    batch_occurrences,
    detection_to_json,
    get_codec,
    serve_events,
    serve_stdin,
)
from repro.sim.serving import ServingWorkload

Triple = tuple[str, int, int]
#: What a detection is compared by: the rule and its timestamp triples.
Key = tuple[str, tuple[Triple, ...]]

perf = time.perf_counter


def vm_hwm_mb(pid: int | str = "self") -> float:
    """High-water resident set of a process, in MiB.

    ``VmHWM``, not ``ru_maxrss``: a spawned process inherits the latter
    from its parent, so a worker would report the harness's footprint.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def child_pids() -> list[int]:
    """The live processes this one spawned."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                # pid (comm) state ppid …; comm may hold spaces.
                ppid = stat.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # gone since the listing
        if ppid == me:
            children.append(int(entry))
    return children


def key_of_detection(detection: Detection) -> Key:
    return (
        detection.name,
        tuple(sorted(t.as_triple() for t in detection.occurrence.timestamp)),
    )


def key_of_row(row: dict[str, Any]) -> Key:
    return (
        row["detection"],
        tuple(sorted((s, int(g), int(l)) for s, g, l in row["timestamp"])),
    )


def mismatches(reference: Counter, keys: Iterable[Key]) -> int:
    """Reference detections missing from ``keys`` plus those not in it."""
    got = keys if isinstance(keys, Counter) else Counter(keys)
    return sum((reference - got).values()) + sum((got - reference).values())


def triple_of(event: ServeEvent) -> Triple:
    return (event.site, event.global_time, event.local)


def bare_detector(wl: "Workload") -> Detector:
    """The single-threaded baseline of the job: one detector, no serving."""
    detector = Detector(site="shard", timer_ratio=wl.timer_ratio)
    for name, expression in wl.rules.items():
        detector.register(expression, name=name, context=wl.context)
    return detector


def streaming_runtime(
    rules: dict[str, str], context: Context, timer_ratio: int, codec: str
) -> tuple[ServingRuntime, DetectionBroadcast]:
    """One shard whose rules stream rows into a broadcast.

    ``repro.serve.wire_rules`` does the same but cannot pass a context.
    """
    runtime = ServingRuntime(
        config=ServeConfig(shards=1, timer_ratio=timer_ratio, codec=codec)
    )
    broadcast = DetectionBroadcast()
    for name, expression in rules.items():
        index = runtime.router.assign(name)

        def callback(detection: Detection, _shard: int = index) -> None:
            broadcast.emit(detection_to_json(_shard, detection))

        runtime.register(
            expression, name=name, context=context, callback=callback
        )
    return runtime, broadcast


@dataclass
class Pass:
    """What one pass through the program delivered, and when."""

    wall_s: float
    events: int
    #: Events refused or unrouted, error rows, worker restarts.
    refused: int
    keys: list[Key]
    #: Per detection: delivery minus hand-in (or due time) of its
    #: terminator, in ms; same order as ``keys``.
    latency_ms: list[float]
    #: From the last hand-in until everything was delivered.
    drain_ms: float
    #: Detector entries: shard flushes, or WAL entries applied.
    batches: int
    #: Open loop only — how late each batch left the generator.
    late_ms: list[float] = field(default_factory=list)


class Workload:
    """Base: stream, rules, reference; subclasses add the serving path."""

    name = ""
    context = Context.RECENT
    #: ``standard(events=…)`` at scale 1.
    events_at_scale_1 = 0
    #: Encoding of the bytes the program reads (staged run decodes it).
    wire: str | None = None
    #: Whether the serving path encodes a JSON row per detection.
    rows = True
    #: Whether the serving path logs, checkpoints and crosses a process.
    durable = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.rules: dict[str, str] = {}
        self.timer_ratio = 1
        self.batches: list[tuple[ServeEvent, ...]] = []
        #: With a ``wire``: one encoded unit per granule batch.
        self.payloads: list[bytes] = []
        self.horizon = 0
        self._unit_of: dict[Triple, int] | None = None

    # --- inputs -------------------------------------------------------------

    def size(self) -> int:
        return max(60, int(self.events_at_scale_1 * self.scale))

    def generate(self) -> None:
        stream = ServingWorkload.standard(self.seed, events=self.size())
        self.rules = dict(stream.rules)
        self.timer_ratio = stream.timer_ratio
        self._use(stream.granule_batches())

    def _use(self, batches: list[tuple[ServeEvent, ...]]) -> None:
        self.batches = batches
        self.horizon = batches[-1][-1].granule + 1
        self._unit_of = None

    @property
    def events(self) -> list[ServeEvent]:
        return [event for batch in self.batches for event in batch]

    def hand_in_units(self) -> Iterator[Sequence[ServeEvent]]:
        """The units the program receives at one instant each.

        A granule batch here; a single event where ingest is per event.
        """
        return iter(self.batches)

    def unit_of(self) -> dict[Triple, int]:
        if self._unit_of is None:
            self._unit_of = {
                triple_of(event): index
                for index, unit in enumerate(self.hand_in_units())
                for event in unit
            }
        return self._unit_of

    # --- the three things a run needs -----------------------------------------

    def setup(self) -> float:
        """Generate, register, spawn until ready; returns the seconds.

        Whatever it spawned is released again, outside the measured time.
        """
        raise NotImplementedError

    def reference(self) -> tuple[Counter, float]:
        """The reference multiset and the seconds the detector spent on it.

        The baseline holds on to what the serving path holds on to: the
        detections themselves where the path delivers those, and nothing
        where it encodes a row and lets the detection go — what is held
        is what every collection has to walk.
        """
        detector = bare_detector(self)
        keys: Counter = Counter()
        held: list[Detection] = []
        spent = 0.0
        count = 0

        def keep(fired: list[Detection]) -> None:
            if self.rows:
                keys.update(map(key_of_detection, fired))
            else:
                held.extend(fired)

        for index, batch in enumerate(self.batches):
            occurrences = batch_occurrences(batch)
            started = perf()
            fired = []
            if batch[0].granule > detector.now_global:
                fired += detector.advance_time(batch[0].granule)
            for occurrence in occurrences:
                fired += detector.feed(occurrence)
            spent += perf() - started
            keep(fired)
            count += len(fired)
            if self._reference_is_enough(count):
                self._use(self.batches[: index + 1])
                break
        started = perf()
        fired = detector.advance_time(self.horizon)
        spent += perf() - started
        keep(fired)
        keys.update(map(key_of_detection, held))
        return keys, spent

    def _reference_is_enough(self, detections: int) -> bool:
        return False

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process under test, in MiB."""
        return vm_hwm_mb()

    def cleanup(self) -> None:
        """Remove what the passes left on disk."""

    # --- helpers ------------------------------------------------------------

    def _latencies(
        self,
        keys: list[Key],
        delivered: Sequence[float],
        handed: Sequence[float],
    ) -> list[float]:
        """Delivery minus hand-in of the last-handed constituent, in ms."""
        unit_of = self.unit_of()
        latencies = []
        for (_, triples), at in zip(keys, delivered):
            units = [unit_of[t] for t in triples if t in unit_of]
            if units:
                latencies.append((at - handed[max(units)]) * 1e3)
        return latencies


class ReplayUnrestricted(Workload):
    """``serve_events``, UNRESTRICTED: the detector is ~90% of the time and
    output is quadratic; detection-state work shows here, serving-path work
    should not."""

    name = "replay-unrestricted"
    context = Context.UNRESTRICTED
    events_at_scale_1 = 1100
    rows = False
    #: Output is quadratic in the stream and varies ±10% between seeds at
    #: a fixed event count, so the stream is cut where the reference has
    #: produced this many detections (at scale 1): equal work per seed.
    detections_at_scale_1 = 200_000

    def _config(self) -> ServeConfig:
        return ServeConfig(shards=1, timer_ratio=self.timer_ratio)

    def setup(self) -> float:
        started = perf()
        self.generate()
        runtime = ServingRuntime(config=self._config())
        for name, expression in self.rules.items():
            runtime.register(expression, name=name, context=self.context)
        return perf() - started

    def _reference_is_enough(self, detections: int) -> bool:
        return detections >= self.detections_at_scale_1 * self.scale**2

    def hand_in_units(self) -> Iterator[Sequence[ServeEvent]]:
        return ((event,) for event in self.events)

    def run_pass(self) -> Pass:
        handed: list[float] = []

        def pulled(events: list[ServeEvent]) -> Iterator[ServeEvent]:
            for event in events:
                handed.append(perf())
                yield event

        events = self.events
        gc.collect()
        started = perf()
        runtime = serve_events(
            self.rules,
            pulled(events),
            config=self._config(),
            context=self.context,
            horizon=self.horizon,
        )
        ended = perf()
        # A replay delivers everything when it returns.
        keys = [key_of_detection(d) for _, d in runtime.detections()]
        return Pass(
            wall_s=ended - started,
            events=runtime.events_ingested + runtime.events_unrouted,
            refused=runtime.events_unrouted,
            keys=keys,
            latency_ms=self._latencies(keys, [ended] * len(keys), handed),
            drain_ms=(ended - handed[-1]) * 1e3,
            batches=sum(shard.batches_flushed for shard in runtime.shards),
        )


class _TimedReader:
    """A byte source that notes when each chunk was handed over."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._at = 0
        self.offsets: list[int] = []
        self.times: list[float] = []

    def read(self, size: int) -> bytes:
        chunk = self._data[self._at : self._at + size]
        self._at += len(chunk)
        self.offsets.append(self._at)
        self.times.append(perf())
        return chunk


class _TimedWriter:
    """A text sink that notes when each line arrived."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> None:
        self.lines.append(text)
        self.times.append(perf())

    def flush(self) -> None:
        pass


def _parse_rows(lines: Sequence[str | bytes]) -> tuple[list[Key], list[int], int]:
    """Detection keys, the index of each one's line, and the error rows."""
    keys, kept, errors = [], [], 0
    for index, line in enumerate(lines):
        row = json.loads(line)
        if "detection" in row:
            keys.append(key_of_row(row))
            kept.append(index)
        else:
            errors += 1
    return keys, kept, errors


class WireRecent(Workload):
    """``serve_stdin`` over binary frames, RECENT: buffers hold one occurrence and
    output is linear, so split/decode/route/queue/stamp/propagate/row-encode
    carry the time; bypasses buffer indexing."""

    name = "wire-recent"
    events_at_scale_1 = 40_000
    wire = "binary"

    def setup(self) -> float:
        started = perf()
        self.generate()
        codec = get_codec(self.wire)
        self.payloads = [codec.encode_batch(list(b)) for b in self.batches]
        streaming_runtime(self.rules, self.context, self.timer_ratio, self.wire)
        return perf() - started

    def run_pass(self) -> Pass:
        runtime, broadcast = streaming_runtime(
            self.rules, self.context, self.timer_ratio, self.wire
        )
        reader = _TimedReader(b"".join(self.payloads))
        writer = _TimedWriter()
        gc.collect()
        started = perf()
        count = asyncio.run(
            serve_stdin(runtime, broadcast, in_stream=reader, out_stream=writer)
        )
        ended = perf()
        # A frame is handed in with the chunk that carries its last byte.
        handed = [
            reader.times[bisect.bisect_left(reader.offsets, end)]
            for end in accumulate(map(len, self.payloads))
        ]
        keys, kept, errors = _parse_rows(writer.lines)
        delivered = [writer.times[index] for index in kept]
        return Pass(
            wall_s=ended - started,
            events=count,
            refused=runtime.events_unrouted + errors,
            keys=keys,
            latency_ms=self._latencies(keys, delivered, handed),
            drain_ms=(ended - reader.times[-1]) * 1e3,
            batches=sum(shard.batches_flushed for shard in runtime.shards),
        )


class ClusterDurable(Workload):
    """ClusterSupervisor with one worker process, binary WAL on disk and a
    checkpoint per 64 entries: WAL append, checkpoint save, control frames
    and the ledger dominate; detection does little."""

    name = "cluster-durable"
    events_at_scale_1 = 10_000
    durable = True
    checkpoint_every = 64

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._dirs = 0
        #: The state directory the newest pass left (read back by the
        #: staged run's rebuild stage).
        self.state_dir: str | None = None
        self.workers_rss_mb = 0.0

    def hand_in_units(self) -> Iterator[Sequence[ServeEvent]]:
        return ((event,) for event in self.events)

    def _fresh_dir(self) -> str:
        self._dirs += 1
        path = _paths.OUT / f"state-{self.seed}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)

    def _supervisor(self, state_dir: str, on_detection: Any) -> ClusterSupervisor:
        supervisor = ClusterSupervisor(
            config=ServeConfig(
                procs=1,
                codec="binary",
                checkpoint_every=self.checkpoint_every,
                state_dir=state_dir,
                timer_ratio=self.timer_ratio,
            ),
            on_detection=on_detection,
        )
        for name, expression in self.rules.items():
            supervisor.register(expression, name=name, context=self.context)
        return supervisor

    def setup(self) -> float:
        state_dir = self._fresh_dir()

        async def until_ready() -> float:
            started = perf()
            self.generate()
            supervisor = self._supervisor(state_dir, None)
            await supervisor.start()
            ready = perf()
            await supervisor.stop()
            return ready - started

        try:
            return asyncio.run(until_ready())
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    def run_pass(self) -> Pass:
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir = self._fresh_dir()
        rows: list[dict[str, Any]] = []
        delivered: list[float] = []
        handed: list[float] = []

        def on_detection(row: dict[str, Any]) -> None:
            rows.append(row)
            delivered.append(perf())

        async def closed_loop() -> tuple[float, float, int, ClusterSupervisor]:
            supervisor = self._supervisor(self.state_dir, on_detection)
            await supervisor.start()
            try:
                refused = 0
                gc.collect()
                started = perf()
                for event in self.events:
                    handed.append(perf())
                    refused += len(await supervisor.ingest(event))
                refused += len(await supervisor.drain(self.horizon))
                ended = perf()
                self.workers_rss_mb = max(
                    self.workers_rss_mb, sum(map(vm_hwm_mb, child_pids()))
                )
                return started, ended, refused, supervisor
            finally:
                await supervisor.stop()

        started, ended, refused, supervisor = asyncio.run(closed_loop())
        keys = [key_of_row(row) for row in rows]
        return Pass(
            wall_s=ended - started,
            events=supervisor.events_ingested + supervisor.events_unrouted,
            refused=refused + supervisor.events_unrouted + supervisor.restarts,
            keys=keys,
            latency_ms=self._latencies(keys, delivered, handed),
            drain_ms=(ended - handed[-1]) * 1e3,
            batches=len(handed),
        )

    def peak_rss_mb(self) -> float:
        return super().peak_rss_mb() + self.workers_rss_mb

    def cleanup(self) -> None:
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None


class PacedTcp(Workload):
    """``serve_tcp`` in a child process, JSONL client sending granule batches open
    loop at 2000 events/s: the only workload where queue wait and the
    shard's flush policy decide the result."""

    name = "paced-tcp"
    wire = "jsonl"
    #: Events per second of the open-loop schedule.
    rate = 2000
    #: A pass is one session of this many seconds of traffic (at scale 1)
    #: against a fresh server.  The median latency differs more between
    #: sessions than within one, so several short sessions steady it
    #: better than one long one.
    session_s = 3.0
    #: Sleep until this close to a due time, then spin.
    spin_s = 0.0004
    #: Share of the first rows dropped as warm-up.
    warmup_share = 0.2

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.server_rss_mb = 0.0
        self.server_batches = 0

    def size(self) -> int:
        return max(200, int(self.rate * self.session_s * self.scale))

    def _spawn(self) -> tuple[subprocess.Popen, int]:
        server = subprocess.Popen(
            [
                sys.executable,
                str(_paths.HERE / "_server.py"),
                "--timer-ratio",
                str(self.timer_ratio),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        announced = server.stdout.readline()
        if not announced:
            server.wait()
            raise RuntimeError("the TCP server child exited before listening")
        return server, int(json.loads(announced)["listening"])

    def _release(self, server: subprocess.Popen) -> dict[str, Any]:
        server.terminate()
        out, _ = server.communicate(timeout=30)
        return json.loads(out.splitlines()[-1]) if out.strip() else {}

    def setup(self) -> float:
        started = perf()
        self.generate()
        codec = get_codec(self.wire)
        self.payloads = [codec.encode_batch(list(b)) for b in self.batches]
        server, _ = self._spawn()
        spent = perf() - started
        self._release(server)
        return spent

    def run_pass(self) -> Pass:
        sizes = [len(batch) for batch in self.batches]
        # A batch is due when the events before it have had their turn.
        offsets = [before / self.rate for before in accumulate([0] + sizes[:-1])]
        server, port = self._spawn()
        try:
            gc.collect()
            first_due, sent, chunks, closed = _paced_session(
                port, self.payloads, offsets, self.spin_s, offsets[-1] + 60
            )
        finally:
            summary = self._release(server)
        self.server_rss_mb = max(
            self.server_rss_mb, summary.get("peak_rss_mb", 0.0)
        )
        lines = b"".join(data for _, data in chunks).split(b"\n")[:-1]
        received = [
            at for at, data in chunks for _ in range(data.count(b"\n"))
        ]
        keys, kept, errors = _parse_rows(lines)
        due = [first_due + offset for offset in offsets]
        latency = self._latencies(keys, [received[i] for i in kept], due)
        events = sum(sizes)
        # The achieved rate is the sender's: from the first due time until
        # the last batch has left and had its turn.  How long the server
        # then takes to finish is ``drain_ms``, a number of its own.
        wall = sent[-1] - first_due + sizes[-1] / self.rate
        late_ms = [(s - d) * 1e3 for s, d in zip(sent, due)]
        # Falling behind the schedule is a failure, not a slower result.  A
        # sender that manages under 99% of the rate is late by over 1% of
        # the session at its end and by over 0.5% at its median batch; the
        # median is asked, because the box stalls for tens of ms now and
        # then, and a stall that happens to hold the last batch back is
        # not a sender that cannot keep up.
        behind = int(statistics.median(late_ms) > 0.005 * offsets[-1] * 1e3)
        return Pass(
            wall_s=wall,
            events=events,
            refused=errors + behind + summary.get("unrouted", 0),
            keys=keys,
            latency_ms=latency[int(len(latency) * self.warmup_share) :],
            drain_ms=(closed - sent[-1]) * 1e3,
            batches=summary.get("batches_flushed", 0),
            late_ms=late_ms,
        )

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb


def _paced_session(
    port: int,
    payloads: Sequence[bytes],
    offsets: Sequence[float],
    spin_s: float,
    give_up_s: float,
) -> tuple[float, list[float], list[tuple[float, bytes]], float]:
    """Send each payload when due, reading rows on the same socket.

    One thread: a sender thread spinning beside a reader thread would
    hold the interpreter lock while rows wait to be stamped.  Sleeps in
    ``select`` until ``spin_s`` before a due time, then polls.  Returns
    the first due time, each payload's send time, the received chunks
    with their arrival times, and when the server closed the stream.
    """
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    chunks: list[tuple[float, bytes]] = []
    sent: list[float] = []
    try:
        first_due = perf() + 0.05
        deadline = first_due + give_up_s
        total = len(payloads)
        while True:
            now = perf()
            if now > deadline:
                raise TimeoutError("the TCP server did not finish the stream")
            if len(sent) < total:
                wait = first_due + offsets[len(sent)] - now
                if wait <= 0:
                    sock.sendall(payloads[len(sent)])
                    sent.append(now)
                    if len(sent) == total:
                        sock.shutdown(socket.SHUT_WR)
                    continue
                timeout = max(0.0, wait - spin_s)
            else:
                timeout = 1.0
            if select.select([sock], [], [], timeout)[0]:
                data = sock.recv(1 << 16)
                if not data:
                    return first_due, sent, chunks, perf()
                chunks.append((perf(), data))
    finally:
        sock.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ReplayUnrestricted, WireRecent, ClusterDurable, PacedTcp)
}
