"""Tests for the fault-tolerant serving cluster (``repro.serve.cluster``)."""

import asyncio
import io
import json

import pytest

from repro.errors import ReproError
from repro.serve import ServeConfig
from repro.serve.cluster import (
    CheckpointStore,
    ClusterSupervisor,
    DetectionLedger,
    FaultInjector,
    FaultPlan,
    LocalFailoverCluster,
    ShardReplica,
    _Worker,
    replay_with_failover,
    run_worker,
)
from repro.serve.heartbeat import Backoff, HeartbeatMonitor
from repro.serve.wal import ShardWAL, WalEntry
from tests.conftest import occurrence_multiset as multiset
from tests.conftest import serve_stream as stream

RULES = {
    "rt": "buy ; sell",
    "pair": "buy and sell",
    "either": "buy or sell",
}


class TestShardWAL:
    def test_sequencing_tail_and_truncate(self):
        wal = ShardWAL()
        for event in stream(5):
            wal.append_event(event)
        wal.append_advance(9)
        assert wal.last_seq == 6
        assert [entry.seq for entry in wal.tail(4)] == [5, 6]
        assert wal.truncate(4) == 4
        assert [entry.seq for entry in wal] == [5, 6]
        # Sequence numbers keep rising after truncation.
        assert wal.append_event(stream(1)[0]).seq == 7

    def test_file_backed_survives_reopen(self, tmp_path):
        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path) as wal:
            for event in stream(4):
                wal.append_event(event)
            wal.truncate(1)
        with ShardWAL(path) as reopened:
            assert [entry.seq for entry in reopened] == [2, 3, 4]
            assert reopened.append_advance(7).seq == 5

    def test_full_truncation_keeps_seq_watermark(self, tmp_path):
        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path) as wal:
            for event in stream(4):
                wal.append_event(event)
            # A checkpoint covering every entry keeps the newest one as
            # the watermark; replay still sees an empty tail.
            assert wal.truncate(4) == 3
            assert wal.last_seq == 4
            assert wal.tail(4) == []
        with ShardWAL(path) as reopened:
            assert reopened.last_seq == 4
            assert reopened.append_advance(7).seq == 5

    def test_seed_seq_is_monotonic(self):
        wal = ShardWAL()
        wal.seed_seq(9)
        assert wal.append_advance(1).seq == 10
        wal.seed_seq(3)  # a lower seed never rewinds the counter
        assert wal.append_advance(2).seq == 11

    def test_checkpoint_watermark_survives_restart(self, tmp_path):
        """Two checkpoints landing at the same seq (cadence checkpoint
        then stop()'s final one) fully cover the WAL.  After a restart,
        new entries must be numbered above the checkpoint watermark or
        recovery's tail replay would silently drop them."""
        wal_path = str(tmp_path / "shard0.wal")
        ckpt_path = str(tmp_path / "shard0.ckpt")
        with ShardWAL(wal_path) as wal:
            store = CheckpointStore(ckpt_path)
            for event in stream(6):
                wal.append_event(event)
            watermark = wal.last_seq
            store.save({"seq": watermark})  # cadence checkpoint
            store.save({"seq": watermark})  # final checkpoint at stop()
            assert store.retain_after == watermark
            wal.truncate(store.retain_after)
        with ShardWAL(wal_path) as wal:
            store = CheckpointStore(ckpt_path)
            state = store.load()
            wal.seed_seq(max(int(state["seq"]), store.retain_after))
            entry = wal.append_event(stream(1)[0])
            assert entry.seq > watermark
            assert [e.seq for e in wal.tail(int(state["seq"]))] == [entry.seq]

    def test_entry_round_trip_and_frames(self):
        event_entry = WalEntry.from_dict(
            {"seq": 3, "kind": "event", "event": stream(1)[0].to_dict()}
        )
        advance_entry = WalEntry.from_dict(
            {"seq": 4, "kind": "advance", "granule": 11}
        )
        assert WalEntry.from_dict(event_entry.to_dict()) == event_entry
        assert advance_entry.frame() == {"op": "advance", "seq": 4, "granule": 11}
        assert event_entry.frame()["op"] == "event"
        with pytest.raises(ReproError):
            WalEntry.from_dict({"seq": 1, "kind": "mystery"})

    def test_binary_codec_file_round_trip(self, tmp_path):
        from repro.serve.protocol import FRAME_MAGIC

        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path, codec="binary") as wal:
            for event in stream(5):
                wal.append_event(event)
            wal.append_advance(9)
            entries = list(wal)
        with open(path, "rb") as handle:
            assert handle.read(1)[0] == FRAME_MAGIC
        with ShardWAL(path, codec="binary") as reopened:
            assert list(reopened) == entries
            assert reopened.last_seq == 6
            assert reopened.append_advance(11).seq == 7

    def test_binary_codec_truncate_rewrites_frames(self, tmp_path):
        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path, codec="binary") as wal:
            for event in stream(4):
                wal.append_event(event)
            assert wal.truncate(2) == 2
        with ShardWAL(path, codec="binary") as reopened:
            assert [entry.seq for entry in reopened] == [3, 4]

    def test_mixed_framing_legacy_file_then_binary(self, tmp_path):
        # A WAL written before the codec upgrade keeps its JSONL lines;
        # a binary-configured reopen appends frames after them and
        # recovery reads the interleaved file in order.
        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path) as wal:
            for event in stream(3):
                wal.append_event(event)
        with ShardWAL(path, codec="binary") as upgraded:
            assert upgraded.last_seq == 3
            upgraded.append_event(stream(4)[3])
            upgraded.append_advance(8)
        with ShardWAL(path, codec="binary") as reopened:
            assert [entry.seq for entry in reopened] == [1, 2, 3, 4, 5]
            kinds = [entry.kind for entry in reopened]
            assert kinds == ["event"] * 4 + ["advance"]

    @pytest.mark.parametrize("codec", [None, "binary"])
    def test_torn_tail_is_healed_on_load(self, tmp_path, codec):
        # A hard kill mid-append leaves a partial final unit; reopening
        # tolerates exactly that, truncates it, and keeps appending.
        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path, codec=codec) as wal:
            for event in stream(3):
                wal.append_event(event)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-7])
        with ShardWAL(path, codec=codec) as healed:
            assert healed.torn_tails == 1
            assert [entry.seq for entry in healed] == [1, 2]
            assert healed.append_advance(5).seq == 3
        # The rewrite healed the file: a further reopen is clean.
        with ShardWAL(path, codec=codec) as clean:
            assert clean.torn_tails == 0
            assert [entry.seq for entry in clean] == [1, 2, 3]

    @pytest.mark.parametrize("codec", [None, "binary"])
    def test_mid_file_corruption_still_raises(self, tmp_path, codec):
        # Torn-tail tolerance is for the *final* unit only; damage in
        # the middle of the log is real corruption and must refuse.
        path = str(tmp_path / "shard0.wal")
        with ShardWAL(path, codec=codec) as wal:
            for event in stream(3):
                wal.append_event(event)
        if codec is None:
            lines = open(path, "rb").read().splitlines()
            lines[1] = b'{"torn'
            blob = b"\n".join(lines) + b"\n"
        else:
            blob = bytearray(open(path, "rb").read())
            blob[len(blob) // 3] ^= 0xFF  # CRC mismatch mid-stream
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ReproError, match="corrupt WAL file"):
            ShardWAL(path, codec=codec)


class TestHeartbeat:
    def test_monitor_suspects_after_missed_intervals(self):
        now = [0.0]
        monitor = HeartbeatMonitor(0.5, 3, clock=lambda: now[0])
        monitor.mark(0)
        now[0] = 1.0
        assert monitor.missed(0) == 2
        assert not monitor.suspect(0)
        now[0] = 1.6
        assert monitor.suspect(0)
        monitor.beat(0)
        assert not monitor.suspect(0)
        assert monitor.beats[0] == 1
        monitor.forget(0)
        assert monitor.missed(0) == 0

    def test_monitor_validates_parameters(self):
        with pytest.raises(ReproError):
            HeartbeatMonitor(0)
        with pytest.raises(ReproError):
            HeartbeatMonitor(0.25, 0)

    def test_first_beat_after_suspicion_resets_the_baseline(self):
        # A worker that reconnects after a long sever must get a fresh
        # liveness window: the old min-offset baseline describes the
        # dead link, and keeping it would leave the revived worker one
        # miss from suspicion (or permanently suspect).
        now = [0.0]
        monitor = HeartbeatMonitor(0.5, 3, clock=lambda: now[0])
        monitor.mark(0)
        now[0] = 10.0
        assert monitor.suspect(0)
        monitor.beat(0)
        assert monitor.missed(0) == 0
        assert not monitor.suspect(0)
        now[0] = 10.4
        monitor.beat(0)
        now[0] = 11.0
        assert monitor.missed(0) <= 2
        assert not monitor.suspect(0)

    def test_mark_after_forget_also_resets(self):
        now = [0.0]
        monitor = HeartbeatMonitor(0.5, 3, clock=lambda: now[0])
        monitor.mark(0)
        now[0] = 9.0
        assert monitor.suspect(0)
        monitor.forget(0)
        monitor.mark(0)
        monitor.beat(0)
        assert not monitor.suspect(0)

    def test_backoff_is_bounded_jittered_and_deterministic(self):
        first = [Backoff(base=0.05, cap=0.4, seed=3).delay(n) for n in range(6)]
        second = [Backoff(base=0.05, cap=0.4, seed=3).delay(n) for n in range(6)]
        assert first == second
        for attempt, delay in enumerate(first):
            ceiling = min(0.4, 0.05 * 2**attempt)
            assert ceiling / 2 <= delay < ceiling
        with pytest.raises(ReproError):
            Backoff(base=0.5, cap=0.1)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            kills=((0, 7), (2, 30)),
            drop_beats=((1, 4, 2),),
            corrupt_checkpoints=(0,),
            fail_spawns=((1, 3),),
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_malformed_plans_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ReproError):
            FaultPlan.from_json("{nope")
        with pytest.raises(ReproError):
            FaultPlan.from_dict({"kills": [["x", "y"]]})

    def test_injector_triggers_are_one_shot(self):
        injector = FaultInjector(
            FaultPlan(
                kills=((0, 5),),
                corrupt_checkpoints=(1, 1),
                fail_spawns=((2, 2),),
                drop_beats=((0, 2, 1),),
            )
        )
        assert not injector.should_kill(0, 4)
        assert injector.should_kill(0, 5)
        assert not injector.should_kill(0, 5)
        assert injector.take_corrupt_checkpoint(1)
        assert injector.take_corrupt_checkpoint(1)
        assert not injector.take_corrupt_checkpoint(1)
        assert injector.take_spawn_failure(2)
        assert injector.take_spawn_failure(2)
        assert not injector.take_spawn_failure(2)
        assert not injector.should_drop_beat(0, 1)
        assert injector.should_drop_beat(0, 2)
        assert not injector.should_drop_beat(0, 3)


class TestCheckpointStore:
    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.save({"seq": 4, "x": 1})
        store.save({"seq": 9, "x": 2}, corrupt=True)
        assert store.load() == {"seq": 4, "x": 1}
        assert store.corrupt_loads == 1
        # WAL retention must cover the fallback generation.
        assert store.retain_after == 4

    def test_file_backed_generations_survive_reopen(self, tmp_path):
        path = str(tmp_path / "ckpt")
        store = CheckpointStore(path)
        store.save({"seq": 2})
        store.save({"seq": 6})
        reopened = CheckpointStore(path)
        assert reopened.load() == {"seq": 6}
        assert reopened.retain_after == 2

    def test_empty_store_loads_none(self):
        store = CheckpointStore()
        assert store.load() is None
        assert store.retain_after == 0


class TestDetectionLedger:
    def test_exactly_once_over_replay(self):
        ledger = DetectionLedger()
        assert ledger.offer(0, 3, 0)
        assert ledger.offer(0, 3, 1)
        # Replay of the same tagged prefix is dropped...
        assert not ledger.offer(0, 3, 0)
        assert not ledger.offer(0, 3, 1)
        # ...but fresh tags past the watermark are accepted,
        assert ledger.offer(0, 4, 0)
        # and shards are independent.
        assert ledger.offer(1, 1, 0)
        assert ledger.accepted == 4
        assert ledger.duplicates == 2


class TestShardReplica:
    def test_checkpoint_restore_replay_is_deterministic(self):
        events = stream(24, types=("buy", "sell"))
        wal = ShardWAL()
        entries = [wal.append_event(event) for event in events]
        entries.append(wal.append_advance(events[-1].granule + 1))

        reference = ShardReplica(0, timer_ratio=10)
        reference.register("buy ; sell", "rt")
        expected = [
            (t.seq, t.k, repr(sorted(repr(s) for s in t.detection.occurrence.timestamp)))
            for entry in entries
            for t in reference.apply(entry)
        ]

        first = ShardReplica(0, timer_ratio=10)
        first.register("buy ; sell", "rt")
        cut = len(entries) // 2
        tagged = [t for entry in entries[:cut] for t in first.apply(entry)]
        state = json.loads(json.dumps(first.snapshot()))

        second = ShardReplica(0, timer_ratio=10)
        second.register("buy ; sell", "rt")
        second.restore(state)
        assert second.applied_seq == entries[cut - 1].seq
        tagged += [t for entry in entries[cut:] for t in second.apply(entry)]
        actual = [
            (t.seq, t.k, repr(sorted(repr(s) for s in t.detection.occurrence.timestamp)))
            for t in tagged
        ]
        assert actual == expected

    def test_restore_rejects_foreign_shard(self):
        replica = ShardReplica(0, timer_ratio=10)
        replica.register("buy ; sell", "rt")
        state = replica.snapshot()
        other = ShardReplica(1, timer_ratio=10)
        other.register("buy ; sell", "rt")
        with pytest.raises(ReproError):
            other.restore(state)


class TestLocalFailoverCluster:
    def run_cluster(self, plan, events=None, checkpoint_every=5):
        cluster = LocalFailoverCluster(
            3, salt=7, timer_ratio=10, checkpoint_every=checkpoint_every,
            fault_plan=plan,
        )
        for name, expression in RULES.items():
            cluster.register(expression, name)
        events = stream(48) if events is None else events
        for event in events:
            cluster.ingest(event)
        cluster.advance(events[-1].granule + 2)
        return cluster

    def assert_multisets_match(self, baseline, faulted):
        for name in RULES:
            assert multiset(faulted.detections_of(name)) == multiset(
                baseline.detections_of(name)
            ), name

    def test_kill_and_replay_preserves_multisets(self):
        baseline = self.run_cluster(None)
        faulted = self.run_cluster(
            FaultPlan(kills=((0, 6), (1, 13), (2, 21), (0, 30)))
        )
        assert faulted.restarts >= 3
        assert faulted.replayed > 0
        assert faulted.ledger.duplicates > 0  # replay re-derived detections
        self.assert_multisets_match(baseline, faulted)

    def test_corrupt_checkpoint_falls_back_and_still_matches(self):
        baseline = self.run_cluster(None)
        faulted = self.run_cluster(
            FaultPlan(kills=((0, 17),), corrupt_checkpoints=(0,))
        )
        assert faulted.restarts == 1
        self.assert_multisets_match(baseline, faulted)

    def test_explicit_crash_every_shard(self):
        baseline = self.run_cluster(None)
        cluster = self.run_cluster(None)
        for index in range(3):
            cluster.crash(index)
        self.assert_multisets_match(baseline, cluster)

    def test_replay_with_failover_convenience(self):
        events = stream(30)
        cluster = replay_with_failover(
            RULES,
            events,
            shards=2,
            timer_ratio=10,
            horizon=events[-1].granule + 2,
            fault_plan=FaultPlan(kills=((0, 9),)),
        )
        plain = replay_with_failover(
            RULES, events, shards=2, timer_ratio=10,
            horizon=events[-1].granule + 2,
        )
        self.assert_multisets_match(plain, cluster)

    def test_binary_wal_failover_matches_jsonl_baseline(self):
        events = stream(30)
        horizon = events[-1].granule + 2
        plain = replay_with_failover(
            RULES, events, shards=2, salt=5, timer_ratio=10,
            horizon=horizon,
        )
        faulted = replay_with_failover(
            RULES, events, shards=2, salt=5, timer_ratio=10,
            horizon=horizon,
            fault_plan=FaultPlan(kills=((0, 9), (1, 14))),
            codec="binary",
        )
        assert faulted.restarts >= 2
        self.assert_multisets_match(plain, faulted)

    def test_unknown_rule_rejected(self):
        cluster = LocalFailoverCluster(2)
        with pytest.raises(ReproError):
            cluster.detections_of("ghost")
        with pytest.raises(ReproError):
            LocalFailoverCluster(2, checkpoint_every=0)


class TestRunWorker:
    def drive(self, frames, shard=0):
        raw = "".join(
            frame if isinstance(frame, str) else json.dumps(frame) + "\n"
            for frame in frames
        )
        out = io.StringIO()
        code = run_worker(
            shard, timer_ratio=10,
            in_stream=io.BytesIO(raw.encode()), out_stream=out,
        )
        assert code == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def register_frame(self, name="rt", expression="buy ; sell"):
        return {
            "op": "register", "name": name, "expression": expression,
            "context": "unrestricted",
        }

    def event_frame(self, seq, event):
        return {"op": "event", "seq": seq, "event": event.to_dict()}

    def test_acks_detections_and_checkpoint(self):
        events = stream(16, types=("buy", "sell"))
        frames = [self.register_frame()]
        frames += [self.event_frame(i + 1, e) for i, e in enumerate(events)]
        frames += [
            {"op": "advance", "seq": 17, "granule": events[-1].granule + 2},
            {"op": "checkpoint"},
            {"op": "stop"},
        ]
        output = self.drive(frames)
        acks = [f["seq"] for f in output if f["op"] == "ack"]
        assert acks == list(range(1, 18))
        detections = [f for f in output if f["op"] == "detection"]
        assert detections, "sequence rule should have fired"
        assert all(
            f["row"]["detection"] == "rt" and f["row"]["shard"] == 0
            for f in detections
        )
        states = [f for f in output if f["op"] == "checkpoint_state"]
        assert len(states) == 1 and states[0]["state"]["seq"] == 17

    def test_malformed_and_unexpected_frames_survive(self):
        events = stream(4, types=("buy", "sell"))
        frames = [
            self.register_frame(),
            "NOT JSON AT ALL\n",
            {"op": "beat", "seq": 1},  # valid op, wrong direction
            {"op": "register", "name": "bad", "expression": "((("},
            self.event_frame(1, events[0]),
            {"op": "stop"},
        ]
        output = self.drive(frames)
        errors = [f for f in output if f["op"] == "error"]
        assert len(errors) == 3
        # The loop survived every bad frame and still acked the event.
        assert [f["seq"] for f in output if f["op"] == "ack"] == [1]

    def test_restore_resumes_mid_stream(self):
        events = stream(20, types=("buy", "sell"))
        cut = 11
        frames = [self.register_frame()]
        frames += [self.event_frame(i + 1, e) for i, e in enumerate(events[:cut])]
        frames += [{"op": "checkpoint"}, {"op": "stop"}]
        first = self.drive(frames)
        state = [f for f in first if f["op"] == "checkpoint_state"][0]["state"]

        resumed = [self.register_frame(), {"op": "restore", "state": state}]
        resumed += [
            self.event_frame(cut + 1 + i, e)
            for i, e in enumerate(events[cut:])
        ]
        resumed += [
            {"op": "advance", "seq": len(events) + 1,
             "granule": events[-1].granule + 2},
            {"op": "stop"},
        ]
        second = self.drive(resumed)

        whole = [self.register_frame()]
        whole += [self.event_frame(i + 1, e) for i, e in enumerate(events)]
        whole += [
            {"op": "advance", "seq": len(events) + 1,
             "granule": events[-1].granule + 2},
            {"op": "stop"},
        ]
        reference = self.drive(whole)

        def rows(output):
            return sorted(
                json.dumps(f["row"], sort_keys=True)
                for f in output
                if f["op"] == "detection"
            )

        assert sorted(rows(first) + rows(second)) == rows(reference)


class TestDeliverReplayOverlap:
    """Dispatch must not duplicate entries covered by a recovery replay."""

    def test_deliver_skips_entries_covered_by_replay(self, tmp_path):
        sent = []

        class FakeStdin:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

        class FakeProcess:
            stdin = FakeStdin()
            returncode = 0

            def kill(self):
                pass

            async def wait(self):
                return 0

        async def scenario():
            supervisor = ClusterSupervisor(config=ServeConfig(
                shards=1, timer_ratio=10,
                state_dir=str(tmp_path / "state"),
            ))
            supervisor.register("buy ; sell", "rt")

            async def fake_spawn(index):
                worker = _Worker(FakeProcess())
                worker.started.set()
                return worker

            async def fake_send(worker, frame):
                sent.append(frame)

            supervisor._spawn = fake_spawn
            supervisor._send = fake_send

            def dispatched():
                return [
                    f["seq"] for f in sent if f["op"] in ("event", "advance")
                ]

            # Entries parked in the WAL before any worker exists are
            # covered by the recovery replay...
            first = supervisor.core.wals[0].append_event(stream(2)[0])
            second = supervisor.core.wals[0].append_event(stream(2)[1])
            assert await supervisor._recover(0)
            assert dispatched() == [1, 2]
            # ...so delivering them afterwards must not re-send them
            # (the replica would apply them twice).
            assert await supervisor._deliver(0, first) is None
            assert await supervisor._deliver(0, second) is None
            assert dispatched() == [1, 2]
            # A genuinely new entry still goes out exactly once.
            third = supervisor.core.wals[0].append_event(stream(3)[2])
            assert await supervisor._deliver(0, third) is None
            assert dispatched() == [1, 2, 3]

        asyncio.run(scenario())


@pytest.mark.slow
class TestClusterSupervisor:
    """Real worker subprocesses — the full failover integration path."""

    # salt=5 spreads RULES over both shards (rt/either on 0, pair on 1),
    # so fault plans targeting either shard actually bite.
    SALT = 5

    def build(self, tmp_path, procs=2, **kwargs):
        fields = dict(
            shards=procs,
            salt=self.SALT,
            timer_ratio=10,
            state_dir=str(tmp_path / "state"),
            heartbeat_interval=0.1,
            miss_threshold=5,
            checkpoint_every=10,
        )
        # Config fields ride on the ServeConfig; runtime collaborators
        # (fault_plan, on_detection, ...) stay keyword arguments.
        for name in tuple(kwargs):
            if name in ServeConfig.field_names():
                fields[name] = kwargs.pop(name)
        supervisor = ClusterSupervisor(
            config=ServeConfig(**fields), **kwargs
        )
        for name, expression in RULES.items():
            supervisor.register(expression, name)
        return supervisor

    def reference_multisets(self, events, horizon):
        from repro.serve import serve_events

        runtime = serve_events(
            RULES, events, shards=2, salt=self.SALT, timer_ratio=10,
            horizon=horizon,
        )
        return {
            name: multiset(runtime.detections_of(name)) for name in RULES
        }

    def cluster_multisets(self, supervisor):
        return {
            name: sorted(
                repr(sorted(repr(t) for t in stamps))
                for stamps in supervisor.timestamps_of(name)
            )
            for name in RULES
        }

    def test_kill_recover_preserves_multisets(self, tmp_path):
        events = stream(60)
        horizon = events[-1].granule + 2
        expected = self.reference_multisets(events, horizon)

        async def scenario():
            supervisor = self.build(
                tmp_path, fault_plan=FaultPlan(kills=((0, 12), (1, 25)))
            )
            async with supervisor:
                for event in events:
                    signals = await supervisor.ingest(event)
                    assert signals == []
                assert await supervisor.drain(horizon) == []
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor.restarts >= 2
        assert supervisor.replayed > 0
        assert self.cluster_multisets(supervisor) == expected
        assert supervisor.status().unavailable == {}

    def test_binary_wal_kill_recover_preserves_multisets(self, tmp_path):
        from repro.serve.protocol import FRAME_MAGIC

        events = stream(40)
        horizon = events[-1].granule + 2
        expected = self.reference_multisets(events, horizon)

        async def scenario():
            supervisor = self.build(
                tmp_path, codec="binary",
                fault_plan=FaultPlan(kills=((0, 10),)),
            )
            async with supervisor:
                for event in events:
                    assert await supervisor.ingest(event) == []
                assert await supervisor.drain(horizon) == []
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor.restarts >= 1
        assert self.cluster_multisets(supervisor) == expected
        # The durable WALs really are binary frames, not JSONL lines.
        wal_path = str(tmp_path / "state" / "shard0.wal")
        with open(wal_path, "rb") as handle:
            assert handle.read(1)[0] == FRAME_MAGIC

    def test_retry_exhaustion_parks_then_revive_replays(self, tmp_path):
        events = stream(40, types=("buy", "sell"))
        horizon = events[-1].granule + 2
        expected = self.reference_multisets(events, horizon)

        async def scenario():
            supervisor = self.build(
                tmp_path,
                retry_budget=1,
                # The victim's first 2 spawn attempts (budget + 1) fail:
                # it comes up unavailable and events for it park.
                fault_plan=FaultPlan(fail_spawns=((0, 2),)),
            )
            async with supervisor:
                down = supervisor.status().unavailable
                assert 0 in down
                parked_signals = []
                for event in events:
                    parked_signals.extend(await supervisor.ingest(event))
                assert parked_signals
                assert all(s.shard == 0 for s in parked_signals)
                assert supervisor.parked == len(parked_signals)
                # Healthy shards were never blocked.
                assert 1 not in supervisor.status().unavailable
                # Bring the shard back: the parked WAL tail replays.
                assert await supervisor.revive(0)
                assert supervisor.status().unavailable == {}
                assert await supervisor.drain(horizon) == []
            return supervisor

        supervisor = asyncio.run(scenario())
        assert self.cluster_multisets(supervisor) == expected

    def test_restart_then_crash_replays_post_restart_events(self, tmp_path):
        """Regression: a run, an idle restart (whose stop-time checkpoint
        lands at the same seq as the previous one, fully truncating the
        WAL), then a run whose workers are hard-killed mid-stream.
        Post-restart events must get seqs above the checkpoint watermark
        so the crash recovery's tail replay includes them."""
        events = stream(40)
        horizon = events[-1].granule + 2
        expected = self.reference_multisets(events, horizon)
        cut = 20

        async def run(batch, *, kill_midway=False, horizon=None):
            supervisor = self.build(tmp_path)
            async with supervisor:
                for position, event in enumerate(batch):
                    if kill_midway and position == len(batch) // 2:
                        for index, worker in list(supervisor._workers.items()):
                            supervisor._kill(index, worker, "test kill")
                    assert await supervisor.ingest(event) == []
                assert await supervisor.drain(horizon) == []
            return supervisor

        first = asyncio.run(run(events[:cut]))
        idle = asyncio.run(run([]))
        assert idle.events_ingested == 0
        second = asyncio.run(run(events[cut:], kill_midway=True, horizon=horizon))
        assert second.restarts >= 1
        combined = {
            name: sorted(
                self.cluster_multisets(first)[name]
                + self.cluster_multisets(second)[name]
            )
            for name in RULES
        }
        assert combined == expected

    def test_supervisor_restart_recovers_from_durable_state(self, tmp_path):
        events = stream(30)
        horizon = events[-1].granule + 2
        expected = self.reference_multisets(events, horizon)
        cut = 17

        async def first_run():
            supervisor = self.build(tmp_path)
            async with supervisor:
                for event in events[:cut]:
                    await supervisor.ingest(event)
                await supervisor.drain()
            return supervisor

        async def second_run():
            supervisor = self.build(tmp_path)
            async with supervisor:
                for event in events[cut:]:
                    await supervisor.ingest(event)
                await supervisor.drain(horizon)
            return supervisor

        first = asyncio.run(first_run())
        second = asyncio.run(second_run())
        combined = {
            name: sorted(
                self.cluster_multisets(first)[name]
                + self.cluster_multisets(second)[name]
            )
            for name in RULES
        }
        assert combined == expected
