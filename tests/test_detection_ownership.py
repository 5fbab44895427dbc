"""One owner per detection: delivered *or* kept, never both.

A root's detections go to the callbacks registered for it and, only
when there are none, to the engine's log.  These tests pin that rule on
both engines and on every layer built over it: the streaming server
holds nothing it has written out, a replay still returns its log, the
failover replica consumes what its detector fires, and the supervisor
keeps a row only when no sink took it.
"""

import asyncio
import gc
import io

import pytest

from repro.contexts.policies import Context
from repro.detection.coordinator import DistributedDetector
from repro.detection.detector import Detector
from repro.errors import DetectionError
from repro.serve import (
    DetectionBroadcast,
    ServeConfig,
    ServingRuntime,
    serve_events,
    serve_stdin,
    wire_rules,
)
from repro.serve.cluster import ClusterSupervisor, ShardReplica, _Worker
from repro.serve.tenancy import replay_tenant
from repro.serve.wal import ShardWAL
from repro.sim.serving import ServingWorkload
from tests.conftest import occurrence_multiset as multiset
from tests.conftest import serve_stream as stream
from tests.conftest import ts as stamp


class TestOneOwner:
    def test_callback_owns_the_detection_log_keeps_the_rest(self):
        detector = Detector()
        seen = []
        detector.register("a ; b", name="streamed", callback=seen.append)
        detector.register("a and b", name="logged")
        detector.feed("a", stamp("s1", 1))
        returned = detector.feed("b", stamp("s2", 5))
        assert {d.name for d in returned} == {"streamed", "logged"}
        assert [d.name for d in seen] == ["streamed"]
        assert [d.name for d in detector.detections] == ["logged"]
        assert len(detector.detections_of("logged")) == 1

    def test_asking_the_log_for_an_owned_rule_is_an_error(self):
        detector = Detector()
        detector.register("a ; b", name="streamed", callback=lambda d: None)
        with pytest.raises(DetectionError, match="'streamed'.*1 registered callback"):
            detector.detections_of("streamed")

    def test_the_distributed_engine_follows_the_same_rule(self):
        detector = DistributedDetector(["s1", "s2"])
        detector.set_home("a", "s1")
        detector.set_home("b", "s2")
        seen = []
        detector.register("a ; b", name="streamed", callback=seen.append)
        detector.register("a and b", name="logged")
        detector.feed("a", stamp("s1", 1))
        detector.feed("b", stamp("s2", 5))
        detector.pump()
        assert [d.name for d in seen] == ["streamed"]
        assert [d.name for d in detector.detections] == ["logged"]
        assert len(detector.detections_of("logged")) == 1
        with pytest.raises(DetectionError, match="'streamed'"):
            detector.detections_of("streamed")


class _CountingSink(io.StringIO):
    """Row text out; every ``every``-th row, the gc-tracked object count."""

    def __init__(self, every):
        super().__init__()
        self.every = every
        self.rows = 0
        self.tracked = []

    def write(self, text):
        self.rows += 1
        if self.rows % self.every == 0:
            gc.collect()
            self.tracked.append(len(gc.get_objects()))
        return super().write(text)


class TestBoundedStreamingState:
    # wire_rules registers UNRESTRICTED, where `;`/`and` buffers grow with
    # the stream by design; these operators hold at most two occurrences,
    # so anything that grows with the stream is a retained detection.
    RULES = [("either", "buy or sell"), ("pairs", "times(2, cancel)")]

    def test_a_streamed_row_leaves_nothing_behind(self):
        workload = ServingWorkload.standard(seed=5, events=5_000)
        runtime = ServingRuntime(
            config=ServeConfig(shards=2, timer_ratio=workload.timer_ratio)
        )
        broadcast = DetectionBroadcast()
        wire_rules(runtime, self.RULES, broadcast)
        sink = _CountingSink(every=250)
        # A text source is read a line at a time, so every sample is
        # taken with the same single event in flight.
        count = asyncio.run(
            serve_stdin(
                runtime,
                broadcast,
                in_stream=io.StringIO(workload.to_jsonl()),
                out_stream=sink,
            )
        )
        assert count == len(workload) >= 5_000
        assert sink.rows == broadcast.emitted > 3_000
        assert runtime.detections() == []
        assert all(shard.detector.detections == [] for shard in runtime.shards)
        with pytest.raises(DetectionError, match="callback"):
            runtime.detections_of("either")
        # At the parent every row kept ~10 tracked objects alive (two
        # Detection references, occurrence, stamps, parameters), ~20,000
        # over the second half of this stream.
        half = len(sink.tracked) // 2
        assert sink.tracked[-1] - sink.tracked[half - 1] < 200


# `serve_events(RULES, stream(60), shards=3, salt=3, RECENT)` at the parent
# of the one-owner change: shard, rule, and the `i` of each primitive leaf.
REPLAY_RULES = {"rt": "buy ; sell", "pair": "buy and sell", "either": "buy or sell"}
REPLAY_GOLDEN = """
0:either:0 0:either:1 0:either:3 0:rt:0-4 0:either:4 0:either:6 0:rt:3-7
0:either:7 0:either:9 0:rt:6-10 0:either:10 0:either:12 0:rt:9-13
0:either:13 0:either:15 0:rt:12-16 0:either:16 0:either:18 0:rt:15-19
0:either:19 0:either:21 0:rt:18-22 0:either:22 0:either:24 0:rt:21-25
0:either:25 0:either:27 0:rt:24-28 0:either:28 0:either:30 0:rt:27-31
0:either:31 0:either:33 0:rt:30-34 0:either:34 0:either:36 0:rt:33-37
0:either:37 0:either:39 0:rt:36-40 0:either:40 0:either:42 0:rt:39-43
0:either:43 0:either:45 0:rt:42-46 0:either:46 0:either:48 0:rt:45-49
0:either:49 0:either:51 0:rt:48-52 0:either:52 0:either:54 0:rt:51-55
0:either:55 0:either:57 0:rt:54-58 0:either:58 1:pair:0-1 1:pair:3-1
1:pair:3-4 1:pair:6-4 1:pair:6-7 1:pair:9-7 1:pair:9-10 1:pair:12-10
1:pair:12-13 1:pair:15-13 1:pair:15-16 1:pair:18-16 1:pair:18-19
1:pair:21-19 1:pair:21-22 1:pair:24-22 1:pair:24-25 1:pair:27-25
1:pair:27-28 1:pair:30-28 1:pair:30-31 1:pair:33-31 1:pair:33-34
1:pair:36-34 1:pair:36-37 1:pair:39-37 1:pair:39-40 1:pair:42-40
1:pair:42-43 1:pair:45-43 1:pair:45-46 1:pair:48-46 1:pair:48-49
1:pair:51-49 1:pair:51-52 1:pair:54-52 1:pair:54-55 1:pair:57-55
1:pair:57-58
""".split()


class TestReplayUnchanged:
    def test_serve_events_returns_its_log_in_the_same_order(self):
        runtime = serve_events(
            REPLAY_RULES,
            stream(60),
            shards=3,
            salt=3,
            timer_ratio=10,
            context=Context.RECENT,
            horizon=16,
        )
        pairs = runtime.detections()
        assert [
            f"{index}:{detection.name}:"
            + "-".join(
                str(leaf.parameters["i"])
                for leaf in detection.occurrence.primitive_leaves()
            )
            for index, detection in pairs
        ] == REPLAY_GOLDEN
        # The view tags the detector's own objects; nothing is copied.
        assert [d for _, d in pairs if d.name == "pair"] == (
            runtime.shards[1].detector.detections
        )
        assert len(runtime.detections_of("rt")) == 19


class TestReplicaIsTheConsumer:
    def entries(self, events):
        wal = ShardWAL()
        entries = [wal.append_event(event) for event in events]
        entries.append(wal.append_advance(events[-1].granule + 1))
        return entries

    def test_apply_hands_out_what_fired_and_the_log_stays_empty(self):
        events = stream(40, types=("buy", "sell"))
        reference = Detector(site="shard", timer_ratio=10)
        reference.register("buy ; sell", name="rt")
        replica = ShardReplica(0, timer_ratio=10)
        replica.register("buy ; sell", "rt")
        for entry in self.entries(events):
            if entry.event is not None:
                expected = reference.feed(entry.event.occurrence())
            else:
                expected = reference.advance_time(entry.granule)
            tagged = replica.apply(entry)
            assert [(t.seq, t.k) for t in tagged] == [
                (entry.seq, k) for k in range(len(expected))
            ]
            assert multiset(t.detection.occurrence for t in tagged) == (
                multiset(d.occurrence for d in expected)
            )
        assert reference.detections  # the stream does fire
        assert replica.detector.detections == []
        assert replica._fired == []

    def test_replay_tenant_reads_its_detections_from_apply(self):
        events = stream(40, types=("buy", "sell"))
        rules = {
            "rt": ("buy ; sell", Context.UNRESTRICTED),
            "pair": ("buy and sell", Context.RECENT),
        }
        reference = Detector(site="shard", timer_ratio=10)
        for name, (expression, context) in rules.items():
            reference.register(expression, name=name, context=context)
        upto = 7
        for event in events:
            if event.granule < upto:
                reference.feed(event.occurrence())
        rebuilt = replay_tenant(events, rules, upto=upto, timer_ratio=10)
        assert set(rebuilt) == set(rules)
        for name in rules:
            assert multiset(rebuilt[name]) == multiset(reference.detections_of(name))
            assert rebuilt[name]


class TestSupervisorKeepsWhatNoSinkTook:
    """Both ledger sites, without worker processes."""

    def supervisor(self, tmp_path, on_detection):
        supervisor = ClusterSupervisor(
            config=ServeConfig(
                shards=1, timer_ratio=10, state_dir=str(tmp_path / "state")
            ),
            on_detection=on_detection,
        )
        supervisor.register("buy ; sell", "rt")
        return supervisor

    def deliver(self, supervisor):
        """One row by worker frame, then the rest by in-process rebuild."""
        row = {"detection": "rt", "shard": 0, "timestamp": [["s0", 0, 0]], "parameters": {}}
        frame = {"op": "detection", "seq": 1, "k": 0, "row": row}
        supervisor._handle_frame(0, _Worker(None), frame)
        supervisor._handle_frame(0, _Worker(None), frame)  # a replayed duplicate
        for event in stream(24, types=("buy", "sell")):
            supervisor.core.wals[0].append_event(event)
        supervisor._rebuild(0)
        return supervisor.ledger.accepted

    def test_without_a_sink_the_rows_are_collected(self, tmp_path):
        supervisor = self.supervisor(tmp_path, None)
        accepted = self.deliver(supervisor)
        assert accepted > 1
        assert len(supervisor.detection_rows("rt")) == accepted
        assert len(supervisor.timestamps_of("rt")) == accepted

    def test_a_row_handed_to_the_sink_is_not_kept(self, tmp_path):
        rows = []
        supervisor = self.supervisor(tmp_path, rows.append)
        accepted = self.deliver(supervisor)
        assert len(rows) == accepted > 1
        assert supervisor.detection_rows("rt") == []
        assert supervisor._detections == {}
