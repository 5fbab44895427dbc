"""Tests for the sharded serving runtime (``repro.serve``)."""

import asyncio
import io
import json
import zlib

import pytest

from repro.detection.detector import Detector
from repro.errors import ReproError
from repro.serve import (
    DetectionBroadcast,
    DetectionShard,
    EventRouter,
    ServeConfig,
    ServeEvent,
    ServingRuntime,
    get_codec,
    serve_events,
    serve_stdin,
    shard_of,
    wire_rules,
)
from repro.sim.serving import STANDARD_RULES, ServingWorkload

JSONL = get_codec("jsonl")


def stream(count=40, types=("buy", "sell", "cancel"), sites=2, per_granule=4):
    """A deterministic multi-granule event stream."""
    return [
        ServeEvent(
            event_type=types[i % len(types)],
            site=f"s{i % sites}",
            global_time=i // per_granule,
            local=i,
            parameters={"i": i},
        )
        for i in range(count)
    ]


def multiset(occurrences):
    return sorted(
        repr(sorted(repr(t) for t in occurrence.timestamp))
        for occurrence in occurrences
    )


RULES = {
    "rt": "buy ; sell",
    "pair": "buy and sell",
    "either": "buy or sell",
}


def reference_detector(events, rules=RULES, horizon=None):
    """A plain single detector fed the same stream, granule-pumped."""
    detector = Detector(site="ref", timer_ratio=10)
    for name, expression in rules.items():
        detector.register(expression, name=name)
    for event in events:
        if event.granule > detector.now_global:
            detector.advance_time(event.granule)
        detector.feed(event.occurrence())
    if horizon is not None:
        detector.advance_time(horizon)
    return detector


class TestShardOf:
    def test_stable_across_calls_and_processes(self):
        # CRC-32 of "salt:name" — process-independent by construction,
        # unlike builtin hash() under PYTHONHASHSEED.
        assert shard_of("round_trip", 4) == zlib.crc32(b"0:round_trip") % 4
        assert shard_of("round_trip", 4) == 2
        assert shard_of("churn", 4) == 2
        assert shard_of("busy_granule", 4) == 0

    def test_salt_perturbs_assignment(self):
        assert shard_of("round_trip", 4, salt=1) == 1
        assignments = {shard_of("rule", 5, salt=s) for s in range(40)}
        assert len(assignments) > 1

    def test_in_range(self):
        for shards in (1, 2, 3, 7):
            for name in ("a", "b", "rule-long-name", ""):
                assert 0 <= shard_of(name, shards) < shards

    def test_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            shard_of("x", 0)


class TestEventRouter:
    def test_assign_idempotent(self):
        router = EventRouter(4)
        first = router.assign("rule")
        assert router.assign("rule") == first
        assert router.assignments == {"rule": first}

    def test_route_follows_bound_subscriptions(self):
        router = EventRouter(3)
        router.bind({0: ["buy"], 2: ["buy", "sell"]})
        assert router.route("buy") == (0, 2)
        assert router.route("sell") == (2,)
        assert router.route("unknown") == ()
        assert router.subscribed_types() == {"buy", "sell"}

    def test_bind_rejects_out_of_range(self):
        router = EventRouter(2)
        with pytest.raises(ReproError):
            router.bind({5: ["buy"]})

    def test_rules_of(self):
        router = EventRouter(1)
        router.assign("b")
        router.assign("a")
        assert router.rules_of(0) == ["a", "b"]

    @pytest.mark.parametrize("name", ["a", "r"])
    def test_a_bare_primitive_rule_routes_under_any_name(self, name):
        """A rule that is its own leaf (``a`` named ``a``) has no edge in
        the graph; it still subscribes, so both drivers serve it alike."""
        from repro.serve import replay_with_failover

        events = [ServeEvent("a", "s1", i, 10 * i) for i in range(5)]
        runtime = serve_events({name: "a"}, events, config=ServeConfig(shards=1))
        cluster = replay_with_failover({name: "a"}, events)
        assert runtime.events_unrouted == 0
        assert len(runtime.detections_of(name)) == 5
        assert multiset(runtime.detections_of(name)) == multiset(
            cluster.detections_of(name)
        )


class TestProtocol:
    def test_line_round_trip(self):
        event = ServeEvent("buy", site="ny", global_time=3, local=31,
                           parameters={"qty": 5})
        assert JSONL.decode_batch(JSONL.encode_batch([event])) == [event]

    def test_rejects_invalid_json(self):
        with pytest.raises(ReproError):
            JSONL.decode_batch(b"{not json")

    def test_rejects_non_object(self):
        with pytest.raises(ReproError):
            JSONL.decode_batch(b"[1, 2]")

    def test_rejects_missing_fields(self):
        with pytest.raises(ReproError):
            ServeEvent.from_dict({"type": "buy"})

    def test_granule_is_global_time(self):
        assert ServeEvent("e", site="s", global_time=7, local=70).granule == 7


class TestBackpressure:
    def test_high_water_signal(self):
        async def scenario():
            shard = DetectionShard(0, capacity=8, high_water=3)
            events = stream(4)
            assert not shard.under_pressure()
            await shard.put(events[0])
            await shard.put(events[1])
            assert not shard.under_pressure()
            await shard.put(events[2])
            assert shard.under_pressure()
            assert shard.depth == 3

        asyncio.run(scenario())

    def test_default_high_water_is_three_quarters(self):
        async def scenario():
            return DetectionShard(0, capacity=100).high_water

        assert asyncio.run(scenario()) == 75

    def test_runtime_reports_pressure(self):
        async def scenario():
            runtime = ServingRuntime(config=ServeConfig(
                shards=1, timer_ratio=10, capacity=8, high_water=2))
            runtime.register("buy ; sell", name="rt")
            pressured = []
            # Workers not started: queue depth only grows.
            for event in stream(4, types=("buy",)):
                pressured.append(await runtime.ingest(event))
            return pressured

        assert asyncio.run(scenario()) == [False, True, True, True]

    def test_full_queue_of_a_dead_shard_raises_instead_of_hanging(self):
        def boom(detection):
            raise RuntimeError("callback failed")

        async def scenario():
            runtime = ServingRuntime(config=ServeConfig(shards=1, capacity=2))
            runtime.register("a", name="r", callback=boom)
            runtime.start()
            for i in range(10):
                await runtime.ingest(ServeEvent("a", "s1", i, 10 * i))

        async def bounded():
            await asyncio.wait_for(scenario(), 5)

        with pytest.raises(RuntimeError, match="callback failed"):
            asyncio.run(bounded())

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ReproError):
            DetectionShard(0, capacity=0)
        with pytest.raises(ReproError):
            DetectionShard(0, capacity=4, high_water=9)


class TestShardInvariance:
    def test_matches_plain_detector(self):
        events = stream(60)
        horizon = events[-1].granule + 1
        reference = reference_detector(events, horizon=horizon)
        runtime = serve_events(RULES, events, shards=1, timer_ratio=10,
                               horizon=horizon)
        for name in RULES:
            assert multiset(runtime.detections_of(name)) == multiset(
                reference.detections_of(name)
            ), name

    @pytest.mark.parametrize("shards", [2, 3, 5])
    @pytest.mark.parametrize("salt", [0, 11])
    def test_shard_count_and_salt_invariance(self, shards, salt):
        events = stream(60)
        horizon = events[-1].granule + 1
        baseline = serve_events(RULES, events, shards=1, timer_ratio=10,
                                horizon=horizon)
        sharded = serve_events(RULES, events, shards=shards, salt=salt,
                               timer_ratio=10, horizon=horizon)
        for name in RULES:
            assert multiset(sharded.detections_of(name)) == multiset(
                baseline.detections_of(name)
            ), (name, shards, salt)

    def test_unrouted_events_counted_not_fed(self):
        events = stream(12, types=("buy", "sell")) + [
            ServeEvent("noise", site="s0", global_time=2, local=99)
        ]
        runtime = serve_events(RULES, events, shards=2, timer_ratio=10)
        assert runtime.events_unrouted == 1
        assert runtime.events_ingested == 12

    def test_granule_batches_feed_through_one_flush(self):
        async def scenario():
            shard = DetectionShard(0, timer_ratio=10)
            shard.register("buy ; sell", name="rt")
            for event in stream(12, types=("buy", "sell")):
                await shard.put(event)
            shard.start()
            await shard.drain()
            await shard.stop()
            return shard

        shard = asyncio.run(scenario())
        assert shard.events_processed == 12
        # 12 events over granules 0..2 arrive before the worker wakes:
        # one flush per granule boundary plus the idle flush, never one
        # flush per event.
        assert shard.batches_flushed <= 4

    def test_late_event_is_fed_not_dropped(self):
        late_last = stream(8, types=("buy", "sell"), per_granule=4)
        late_last.append(
            ServeEvent("buy", site="s0", global_time=0, local=2)
        )
        late_last.append(
            ServeEvent("sell", site="s1", global_time=1, local=19)
        )
        runtime = serve_events(RULES, late_last, shards=1, timer_ratio=10,
                               horizon=3)
        assert runtime.events_ingested == 10
        assert runtime.shards[0].events_processed == 10


class TestDrainAndShutdown:
    def test_stop_flushes_open_batch(self):
        events = stream(30)

        async def scenario():
            runtime = ServingRuntime(config=ServeConfig(shards=3, timer_ratio=10))
            for name, expression in RULES.items():
                runtime.register(expression, name=name)
            runtime.start()
            for event in events:
                await runtime.ingest(event)
            # No explicit drain: stop() itself must lose nothing.
            await runtime.stop(horizon=events[-1].granule + 1)
            return runtime

        runtime = asyncio.run(scenario())
        reference = reference_detector(
            events, horizon=events[-1].granule + 1
        )
        for name in RULES:
            assert multiset(runtime.detections_of(name)) == multiset(
                reference.detections_of(name)
            ), name

    def test_drain_then_restartable(self):
        async def scenario():
            runtime = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
            runtime.register("buy ; sell", name="rt")
            async with runtime:
                for event in stream(10, types=("buy", "sell")):
                    await runtime.ingest(event)
                await runtime.drain()
                depth_after_drain = runtime.depths()
            # Context exit stopped the workers; a new context restarts.
            async with runtime:
                await runtime.ingest(
                    ServeEvent("buy", site="s0", global_time=9, local=90)
                )
                await runtime.drain()
            return depth_after_drain, runtime

        depths, runtime = asyncio.run(scenario())
        assert depths == [0, 0]
        assert runtime.events_ingested == 11


class TestCheckpoint:
    def test_union_of_pre_and_post_crash_detections(self):
        events = stream(40)
        horizon = events[-1].granule + 1
        reference = reference_detector(events, horizon=horizon)

        runtime = ServingRuntime(config=ServeConfig(shards=3, timer_ratio=10))
        for name, expression in RULES.items():
            runtime.register(expression, name=name)

        async def first_half():
            async with runtime:
                for event in events[:20]:
                    await runtime.ingest(event)
                await runtime.drain()

        asyncio.run(first_half())
        pre = {name: multiset(runtime.detections_of(name)) for name in RULES}
        state = json.loads(json.dumps(runtime.checkpoint()))

        restored = ServingRuntime(config=ServeConfig(shards=3, timer_ratio=10))
        for name, expression in RULES.items():
            restored.register(expression, name=name)
        restored.restore(state)

        async def second_half():
            async with restored:
                for event in events[20:]:
                    await restored.ingest(event)
                await restored.drain(horizon)

        asyncio.run(second_half())
        for name in RULES:
            combined = sorted(
                pre[name] + multiset(restored.detections_of(name))
            )
            assert combined == multiset(reference.detections_of(name)), name

    def test_checkpoint_carries_queued_events(self):
        async def scenario():
            shard = DetectionShard(0, timer_ratio=10)
            shard.register("buy ; sell", name="rt")
            for event in stream(6, types=("buy", "sell")):
                await shard.put(event)
            # Never started: everything is still queued.
            return shard.checkpoint()

        state = asyncio.run(scenario())
        assert len(state["pending"]) == 6

    def test_restore_rejects_mismatched_shape(self):
        runtime = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        runtime.register("buy ; sell", name="rt")
        state = runtime.checkpoint()
        other = ServingRuntime(config=ServeConfig(shards=3, timer_ratio=10))
        other.register("buy ; sell", name="rt")
        with pytest.raises(ReproError):
            other.restore(state)
        salted = ServingRuntime(config=ServeConfig(shards=2, salt=5, timer_ratio=10))
        salted.register("buy ; sell", name="rt")
        with pytest.raises(ReproError):
            salted.restore(state)


class TestStdinServer:
    def test_jsonl_round_trip_with_errors(self):
        workload = stream(12, types=("buy", "sell"))
        lines = JSONL.encode_batch(workload).decode("utf-8").splitlines()
        lines.insert(3, "{broken")
        source = io.StringIO("\n".join(lines) + "\n")
        target = io.StringIO()

        runtime = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        broadcast = DetectionBroadcast()
        wire_rules(runtime, [("rt", "buy ; sell")], broadcast)
        count = asyncio.run(
            serve_stdin(
                runtime, broadcast, in_stream=source, out_stream=target
            )
        )
        assert count == 12
        rows = [json.loads(line) for line in target.getvalue().splitlines()]
        errors = [row for row in rows if "error" in row]
        detections = [row for row in rows if "detection" in row]
        assert len(errors) == 1
        assert detections and all(
            row["detection"] == "rt" for row in detections
        )
        assert len(detections) == broadcast.emitted


class TestDetectionBroadcast:
    def test_a_sink_that_raises_is_evicted_once_and_the_rest_keep_receiving(self):
        broadcast = DetectionBroadcast()
        before, after = [], []

        def dead(row):
            raise ConnectionError("peer reset")

        broadcast.attach(before.append)
        broadcast.attach(dead)
        detach = broadcast.attach(after.append)
        rows = [{"detection": "rt", "n": n} for n in range(3)]
        for row in rows:
            broadcast.emit(row)
        # The row that found the sink dead still reached both survivors,
        # on either side of it, and so did every later one.
        assert before == after == rows
        assert broadcast.evicted == 1
        assert broadcast.emitted == 3
        detach()
        broadcast.emit({"detection": "rt", "n": 3})
        assert len(before) == 4 and len(after) == 3


class TestRestoreMismatchReport:
    def test_all_mismatches_listed_in_one_error(self):
        source = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        source.register("buy ; sell", name="rt")
        source.register("buy and sell", name="pair")
        state = source.checkpoint()

        # Wrong shard count AND wrong salt AND a missing rule: the
        # operator must see all three in a single round trip.
        target = ServingRuntime(config=ServeConfig(shards=3, salt=9, timer_ratio=10))
        target.register("buy ; sell", name="rt")
        with pytest.raises(ReproError) as excinfo:
            target.restore(state)
        message = str(excinfo.value)
        assert "3 mismatch(es)" in message
        assert "2 shard(s)" in message and "runtime has 3" in message
        assert "salt" in message
        assert "'pair'" in message

    def test_unregistered_rule_alone_is_rejected(self):
        source = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        source.register("buy ; sell", name="rt")
        source.register("buy and sell", name="pair")
        state = source.checkpoint()

        target = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        target.register("buy ; sell", name="rt")
        with pytest.raises(ReproError) as excinfo:
            target.restore(state)
        message = str(excinfo.value)
        assert "1 mismatch(es)" in message
        assert "not registered" in message and "'pair'" in message

    def test_matching_shape_restores(self):
        source = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        source.register("buy ; sell", name="rt")
        state = source.checkpoint()
        target = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        target.register("buy ; sell", name="rt")
        target.restore(state)  # must not raise


class TestMidGranuleFailover:
    def test_kill_mid_granule_preserves_multisets(self):
        from repro.serve import FaultPlan, replay_with_failover

        events = stream(40, per_granule=4)
        horizon = events[-1].granule + 1
        # seq 14 is the second event of granule 3: the crash lands
        # strictly inside an open granule batch, so replay must rebuild
        # a half-consumed granule from checkpoint + WAL tail.
        assert events[13].granule == events[12].granule
        plan = FaultPlan(kills=((0, 14), (1, 22)))

        clean = replay_with_failover(
            RULES, events, shards=2, salt=5, timer_ratio=10,
            horizon=horizon, checkpoint_every=4,
        )
        faulted = replay_with_failover(
            RULES, events, shards=2, salt=5, timer_ratio=10,
            horizon=horizon, checkpoint_every=4, fault_plan=plan,
        )
        assert faulted.restarts >= 2
        reference = reference_detector(events, horizon=horizon)
        for name in RULES:
            assert multiset(faulted.detections_of(name)) == multiset(
                clean.detections_of(name)
            ), name
            assert multiset(faulted.detections_of(name)) == multiset(
                reference.detections_of(name)
            ), name

    def test_mid_granule_index_lands_inside_a_granule(self):
        workload = ServingWorkload.standard(seed=7, events=100)
        index = workload.mid_granule_index()
        assert (
            workload.events[index].granule
            == workload.events[index - 1].granule
        )


class TestTransportHardening:
    def test_stdin_oversized_line_reported_and_survived(self):
        workload = stream(16, types=("buy", "sell"))
        lines = JSONL.encode_batch(workload).decode("utf-8").splitlines()
        huge = json.dumps(
            {"type": "buy", "site": "s0", "global": 0, "local": 0,
             "parameters": {"pad": "x" * 512}}
        )
        lines.insert(2, huge)
        source = io.StringIO("\n".join(lines) + "\n")
        target = io.StringIO()

        runtime = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
        broadcast = DetectionBroadcast()
        wire_rules(runtime, [("rt", "buy ; sell")], broadcast)
        count = asyncio.run(
            serve_stdin(
                runtime, broadcast, in_stream=source, out_stream=target,
                max_line_bytes=256,
            )
        )
        assert count == 16  # the oversized line is skipped, not fatal
        rows = [json.loads(line) for line in target.getvalue().splitlines()]
        errors = [row for row in rows if "error" in row]
        assert len(errors) == 1
        assert "exceeds 256 bytes" in errors[0]["error"]
        assert any("detection" in row for row in rows)

    def test_tcp_survives_malformed_and_oversized_lines(self):
        from repro.serve import serve_tcp

        events = stream(12, types=("buy", "sell"))

        async def scenario():
            runtime = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
            broadcast = DetectionBroadcast()
            wire_rules(runtime, [("rt", "buy ; sell")], broadcast)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            server = asyncio.create_task(
                serve_tcp(
                    runtime, broadcast, port=0, ready=ready,
                    max_line_bytes=256,
                )
            )
            port = await ready
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"{broken json\n")
            writer.write(b'{"pad": "' + b"x" * 1024 + b'"}\n')
            for event in events:
                writer.write(JSONL.encode_batch([event]))
            await writer.drain()
            writer.write_eof()
            rows = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                if not line:
                    break
                rows.append(json.loads(line))
            writer.close()
            await writer.wait_closed()
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            return runtime, rows

        runtime, rows = asyncio.run(scenario())
        errors = [row for row in rows if "error" in row]
        detections = [row for row in rows if "detection" in row]
        # One error for the malformed line, one for the oversized one;
        # the connection survived both and processed every good event.
        assert len(errors) == 2
        assert any("exceeds 256 bytes" in row["error"] for row in errors)
        assert runtime.events_ingested == 12
        assert detections and all(
            row["detection"] == "rt" for row in detections
        )


class TestServingWorkload:
    def test_standard_is_deterministic(self):
        first = ServingWorkload.standard(seed=5, events=120)
        second = ServingWorkload.standard(seed=5, events=120)
        assert first.events == second.events
        assert first.rules == STANDARD_RULES
        assert first.timer_ratio == 10

    def test_jsonl_parses_back(self):
        workload = ServingWorkload.standard(seed=2, events=50)
        parsed = JSONL.decode_batch(workload.to_jsonl().encode("utf-8"))
        assert tuple(parsed) == workload.events

    def test_horizon_past_last_event(self):
        workload = ServingWorkload.standard(seed=2, events=50)
        assert workload.horizon() > max(
            event.granule for event in workload.events
        )


class TestServeCli:
    def test_selftest_passes(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--selftest", "--shards", "3", "--events", "150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_bad_rule_syntax_rejected(self, capsys):
        from repro.cli import main

        code = main(["serve", "--selftest", "--rule", "nonsense"])
        assert code == 2


class TestServeConfig:
    def test_reexported_from_repro(self):
        import repro

        assert repro.ServeConfig is ServeConfig

    def test_config_is_frozen(self):
        config = ServeConfig()
        with pytest.raises(Exception):
            config.shards = 5  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(shards=0)
        with pytest.raises(ValueError):
            ServeConfig(capacity=8, high_water=9)
        with pytest.raises(ValueError):
            ServeConfig(codec="gzip")
        with pytest.raises(ValueError):
            ServeConfig(heartbeat_interval=0)

    def test_replace_revalidates(self):
        config = ServeConfig(shards=2)
        assert config.replace(shards=4).shards == 4
        with pytest.raises(ValueError):
            config.replace(shards=-1)

    def test_field_names_cover_legacy_keywords(self):
        assert ServeConfig.field_names() == (
            "shards",
            "salt",
            "timer_ratio",
            "capacity",
            "high_water",
            "procs",
            "state_dir",
            "heartbeat_interval",
            "miss_threshold",
            "retry_budget",
            "checkpoint_every",
            "max_line_bytes",
            "codec",
            "seed",
            "transport",
            "workers",
            "retry_policy",
            "session_grace",
            "rebalance_grace",
            "tenants",
            "quota_rate",
            "quota_burst",
            "approximate",
        )


def _granule_frames(events):
    """The stream as binary frames, one per granule batch."""
    binary = get_codec("binary")
    frames, run, granule = [], [], None
    for event in events:
        if granule is not None and event.granule != granule:
            frames.append(binary.encode_batch(run))
            run = []
        granule = event.granule
        run.append(event)
    if run:
        frames.append(binary.encode_batch(run))
    return frames


def _serve_bytes(blob, *, codec, rules=(("rt", "buy ; sell"),)):
    """Run serve_stdin over raw wire bytes; returns (count, rows, runtime)."""
    runtime = ServingRuntime(
        config=ServeConfig(shards=2, timer_ratio=10, codec=codec)
    )
    broadcast = DetectionBroadcast()
    wire_rules(runtime, list(rules), broadcast)
    target = io.StringIO()
    count = asyncio.run(
        serve_stdin(
            runtime, broadcast, in_stream=io.BytesIO(blob),
            out_stream=target,
        )
    )
    rows = [json.loads(line) for line in target.getvalue().splitlines()]
    return count, rows, runtime


class TestCodecNegotiation:
    """The mixed-version handshake: v1 clients against v0/v1 servers."""

    def test_auto_server_upgrades_binary_client(self):
        from repro.serve import hello_line

        events = stream(12, types=("buy", "sell"))
        blob = (hello_line() + "\n").encode("utf-8") + b"".join(
            _granule_frames(events)
        )
        count, rows, runtime = _serve_bytes(blob, codec="auto")
        assert count == 12
        acks = [row for row in rows if "hello" in row]
        assert acks == [{"hello": {"codec": "binary", "version": 1}}]
        assert not [row for row in rows if "error" in row]
        assert any("detection" in row for row in rows)

    def test_jsonl_pinned_server_answers_v0_and_client_falls_back(self):
        from repro.serve import hello_line

        events = stream(12, types=("buy", "sell"))
        # A binary-capable client offers its codecs, the pinned server
        # answers version 0; frames sent anyway are rejected with a
        # structured error, and the JSONL fallback is accepted in full.
        blob = (
            (hello_line() + "\n").encode("utf-8")
            + _granule_frames(events)[0]
            + JSONL.encode_batch(events)
        )
        count, rows, runtime = _serve_bytes(blob, codec="jsonl")
        acks = [row for row in rows if "hello" in row]
        assert acks == [{"hello": {"codec": "jsonl", "version": 0}}]
        errors = [row for row in rows if "error" in row]
        assert len(errors) == 1
        assert "speaks jsonl only" in errors[0]["error"]
        assert count == 12  # every JSONL fallback event was served
        assert runtime.events_ingested == 12

    def test_v0_client_needs_no_hello(self):
        events = stream(8, types=("buy", "sell"))
        count, rows, _ = _serve_bytes(
            JSONL.encode_batch(events), codec="auto"
        )
        assert count == 8
        assert not [row for row in rows if "error" in row]
        assert not [row for row in rows if "hello" in row]

    def test_binary_and_jsonl_streams_detect_identically(self):
        events = stream(24, types=("buy", "sell", "cancel"))
        jsonl_count, jsonl_rows, _ = _serve_bytes(
            JSONL.encode_batch(events), codec="auto"
        )
        binary_count, binary_rows, _ = _serve_bytes(
            b"".join(_granule_frames(events)), codec="binary"
        )
        assert jsonl_count == binary_count == 24
        key = sorted(
            json.dumps(row, sort_keys=True)
            for row in jsonl_rows if "detection" in row
        )
        other = sorted(
            json.dumps(row, sort_keys=True)
            for row in binary_rows if "detection" in row
        )
        assert key == other and key

    def test_tcp_handshake_upgrades_and_frames_flow_both_ways(self):
        from repro.serve import StreamDecoder, hello_line, serve_tcp

        events = stream(12, types=("buy", "sell"))
        binary = get_codec("binary")

        async def scenario():
            runtime = ServingRuntime(
                config=ServeConfig(shards=2, timer_ratio=10, codec="auto")
            )
            broadcast = DetectionBroadcast()
            wire_rules(runtime, [("rt", "buy ; sell")], broadcast)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            server = asyncio.create_task(
                serve_tcp(runtime, broadcast, port=0, ready=ready)
            )
            port = await ready
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((hello_line() + "\n").encode("utf-8"))
            await writer.drain()
            ack = json.loads(await asyncio.wait_for(
                reader.readline(), timeout=10
            ))
            for frame in _granule_frames(events):
                writer.write(frame)
            await writer.drain()
            writer.write_eof()
            raw = b""
            while True:
                chunk = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
                if not chunk:
                    break
                raw += chunk
            writer.close()
            await writer.wait_closed()
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            return runtime, ack, raw

        runtime, ack, raw = asyncio.run(scenario())
        assert ack == {"hello": {"codec": "binary", "version": 1}}
        assert runtime.events_ingested == 12
        # Detections came back framed in the negotiated v1 codec.
        splitter = StreamDecoder()
        units = splitter.feed(raw) + splitter.finish()
        assert units and all(unit.kind == "frame" for unit in units)
        rows = [
            row
            for unit in units
            for row in binary.decode_detections(unit.payload)
        ]
        assert rows and all(row["detection"] == "rt" for row in rows)
