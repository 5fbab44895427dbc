"""The shard step (``repro.serve.shard.ShardEngine``) and its two drivers.

The step table is driven directly, without an event loop; then the two
drivers (:class:`DetectionShard` in granule batches,
:class:`ShardReplica` one WAL entry per event) are held to the same
answers, state written by the parent of the engine change is loaded,
and the malformed-input and restore bugs that rode along are pinned.
"""

import asyncio
import io
import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.approximate import Verdict, detection_key
from repro.errors import CodecError, ReproError
from repro.obs.instrument import Instrumentation
from repro.serve import (
    CheckpointStore,
    DetectionBroadcast,
    DetectionShard,
    ServeConfig,
    ServeEvent,
    ServingRuntime,
    ShardReplica,
    batch_occurrences,
    get_codec,
    serve_events,
    serve_stdin,
    wire_rules,
)
from repro.serve.shard import ShardEngine
from repro.serve.wal import KIND_ADVANCE, KIND_EVENT, WalEntry
from repro.sim.serving import ServingWorkload

from tests.conftest import occurrence_multiset as multiset
from tests.conftest import serve_stream

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BINARY = get_codec("binary")
JSONL = get_codec("jsonl")


def engine_with(rules, **kwargs):
    engine = ShardEngine(0, timer_ratio=10, **kwargs)
    for name, expression in rules.items():
        engine.register(expression, name=name)
    return engine


def ev(event_type, site, granule, local=None):
    return ServeEvent(
        event_type, site, granule, granule * 10 if local is None else local
    )


def logged(engine, name):
    return multiset(engine.detector.detections_of(name))


# --- the step table, no event loop -----------------------------------------


class TestStepTable:
    def test_the_clock_advances_before_the_batch_is_fed(self):
        # ``a + 2`` is due at granule 3 and P ticks at 3 and 5: both fire
        # on the way to granule 6, *before* x / c of that batch are fed.
        # Fed first, x would precede the tick it must follow and c would
        # close the period with nothing fired.
        engine = engine_with(
            {"then": "(a + 2) ; x", "per": "P(a, 2, c)"}
        )
        assert engine.apply(1, [ev("a", "s1", 1)]) == ()
        engine.apply(6, [ev("x", "s2", 6), ev("c", "s2", 6, 61)])
        assert engine.detector.now_global == 6
        assert len(logged(engine, "then")) == 1
        assert len(logged(engine, "per")) == 2

    def test_a_late_event_is_fed_at_the_current_clock_not_dropped(self):
        engine = engine_with({"seq": "a ; b"})
        engine.apply(5, [ev("x", "s3", 5)])
        # Inside a batch: granule 2 rides in the granule-6 step.
        engine.apply(6, [ev("a", "s1", 2), ev("x", "s3", 6)])
        assert engine.detector.now_global == 6
        # A whole step behind the clock: fed, and the clock stays put.
        engine.apply(3, [ev("a", "s1", 3)])
        assert engine.detector.now_global == 6
        engine.apply(7, [ev("b", "s2", 7)])
        assert len(logged(engine, "seq")) == 2

    def test_advance_to_an_earlier_granule_is_a_no_op(self):
        engine = engine_with({"later": "a + 2"})
        engine.apply(1, [ev("a", "s1", 1)])
        assert engine.advance(5) == ()
        fired = logged(engine, "later")
        assert len(fired) == 1
        assert engine.advance(3) == ()  # no SchedulingError, nothing fires
        assert engine.detector.now_global == 5
        assert logged(engine, "later") == fired

    def test_finish_resolves_every_tentative(self):
        engine = engine_with({"seq": "a ; b"}, approximate=True)
        emitted = list(engine.apply(1, [ev("a", "s1", 1)]))
        emitted += engine.apply(4, [ev("b", "s2", 4)])
        assert [v.verdict for v in emitted] == [Verdict.TENTATIVE]
        assert engine.unresolved() == 1
        closing = engine.finish()
        assert [v.verdict for v in closing] == [Verdict.CONFIRMED]
        assert closing[0].ref == emitted[0].seq
        assert engine.unresolved() == 0
        assert engine.verdicts == emitted + list(closing)

    def test_an_exact_engine_has_nothing_to_finish(self):
        engine = engine_with({"seq": "a ; b"})
        engine.apply(1, [ev("a", "s1", 1)])
        assert engine.finish() == ()
        assert engine.unresolved() == 0
        assert engine.verdicts == []

    def test_snapshot_restore_round_trip(self):
        rules = {"rt": "buy ; sell", "late": "buy + 2", "per": "P(buy, 1, cancel)"}
        events = serve_stream(40, per_granule=2)

        def run(engine, part):
            for event in part:
                engine.apply(event.granule, [event])

        whole = engine_with(rules)
        run(whole, events)
        whole.advance(30)

        first = engine_with(rules)
        run(first, events[:18])
        state = json.loads(json.dumps(first.snapshot()))
        second = engine_with(rules)
        second.restore(state)
        run(second, events[18:])
        second.advance(30)
        for name in rules:
            assert sorted(logged(first, name) + logged(second, name)) == logged(
                whole, name
            ), name

    def test_approximate_state_is_refused_in_one_place(self):
        engine = engine_with({"seq": "a ; b"}, approximate=True)
        with pytest.raises(ReproError) as refused:
            engine.snapshot()
        message = str(refused.value)
        assert "approximate" in message
        shard = DetectionShard(0, approximate=True)
        replica = ShardReplica(0, approximate=True)
        for call in (
            lambda: engine.restore({}),
            shard.checkpoint,
            lambda: shard.restore({"index": 0, "detector": {}, "pending": []}),
            replica.snapshot,
            lambda: replica.restore({"seq": 0, "detector": {}}),
        ):
            with pytest.raises(ReproError) as again:
                call()
            assert str(again.value) == message

    def test_both_drivers_report_the_step_metrics(self):
        events = serve_stream(12, types=("buy", "sell"))
        obs = Instrumentation()
        replica = ShardReplica(3, timer_ratio=10, instrumentation=obs)
        replica.register("buy ; sell", name="rt")
        fired = 0
        for seq, event in enumerate(events, start=1):
            fired += len(replica.apply(WalEntry(seq, KIND_EVENT, event=event)))
        assert fired
        assert obs.counter("serve.events", shard=3).value == 12
        assert obs.counter("serve.detections", shard=3).value == fired
        assert obs.histogram("serve.batch_size", shard=3).count == 12
        assert obs.histogram("serve.flush_ns", shard=3).count == 12

        obs = Instrumentation()
        runtime = serve_events(
            {"rt": "buy ; sell"}, events, timer_ratio=10, instrumentation=obs
        )
        (shard,) = runtime.shards
        assert obs.counter("serve.events", shard=0).value == 12
        assert obs.counter("serve.detections", shard=0).value == fired
        assert (
            obs.histogram("serve.batch_size", shard=0).count
            == shard.batches_flushed
        )


# --- shard ≡ replica --------------------------------------------------------

TIMER_RULES = {"late": "buy + 2", "per": "P(buy, 1, cancel)"}


def standard_stream():
    workload = ServingWorkload.standard(seed=19, events=160)
    return workload, dict(workload.rules, **TIMER_RULES)


def through_shard(workload, rules, approximate, one_event_steps=False):
    """The stream through a :class:`DetectionShard`: ``(shard, verdicts
    its sink saw, how many of them before stop())``."""
    streamed = []
    shard = DetectionShard(
        0, timer_ratio=workload.timer_ratio, approximate=approximate
    )
    shard.verdict_sink = lambda index, verdict: streamed.append(verdict)
    for name, expression in rules.items():
        shard.register(expression, name=name)

    async def run():
        shard.start()
        for batch in workload.granule_batches():
            if one_event_steps:
                for event in batch:
                    await shard.put(event)
                    await shard.drain()
            else:
                await shard.put_batch(list(batch))
        await shard.drain()
        shard.advance_time(workload.horizon())
        before_stop = len(streamed)
        await shard.stop()
        return before_stop

    before_stop = asyncio.run(run())
    assert shard.events_processed == len(workload)
    return shard, streamed, before_stop


def through_replica(workload, rules, approximate):
    replica = ShardReplica(
        0, timer_ratio=workload.timer_ratio, approximate=approximate
    )
    for name, expression in rules.items():
        replica.register(expression, name=name)
    tagged = []
    seq = 0
    for seq, event in enumerate(workload.events, start=1):
        tagged.extend(replica.apply(WalEntry(seq, KIND_EVENT, event=event)))
    tagged.extend(
        replica.apply(
            WalEntry(seq + 1, KIND_ADVANCE, granule=workload.horizon())
        )
    )
    assert replica.applied_seq == len(workload) + 1
    assert [(t.seq, t.k) for t in tagged] == sorted(
        (t.seq, t.k) for t in tagged
    )
    return replica, tagged


def verdict_rows(verdicts, names=None, only=None):
    return [
        (v.verdict, v.name, detection_key(v.detection))
        for v in verdicts
        if (names is None or v.name in names)
        and (only is None or v.verdict is only)
    ]


class TestShardEqualsReplica:
    def test_exact_detection_multisets_are_equal(self):
        workload, rules = standard_stream()
        shard, streamed, _ = through_shard(workload, rules, approximate=False)
        _, tagged = through_replica(workload, rules, approximate=False)
        assert streamed == []
        assert shard.batches_flushed < len(workload)  # it did batch
        for name in rules:
            fired = [
                t.detection.occurrence
                for t in tagged
                if t.detection.name == name
            ]
            assert fired, name
            assert multiset(fired) == multiset(shard.detections_of(name)), name

    def test_approximate_verdict_sequences_are_equal_step_for_step(self):
        # The same steps (one event each, the same final advance) through
        # either driver: the same verdicts in the same order, timers too.
        workload, rules = standard_stream()
        shard, streamed, before_stop = through_shard(
            workload, rules, approximate=True, one_event_steps=True
        )
        replica, tagged = through_replica(workload, rules, approximate=True)
        assert len(tagged) == before_stop
        # ... and end of stream resolves the same stragglers.
        stepped = [t.verdict for t in tagged] + list(replica.engine.finish())
        assert verdict_rows(stepped) == verdict_rows(streamed)
        assert {v.verdict for v in streamed} == set(Verdict)
        assert shard.engine.unresolved() == replica.engine.unresolved() == 0
        # Each verdict is held once: the shard's log is a view of the
        # engine's, and the sink saw those objects in that order.
        assert [v for _, v in shard.verdicts] == streamed

    def test_approximate_granule_batches_against_one_event_steps(self):
        # A granule per step moves the exact clock once per granule, not
        # once per event.  Rules without timers cannot tell; a timer
        # rule's tentatives (the shadow follows the raw stream) cannot
        # either — when its confirmations land, and so which tentatives
        # the frontier retracts first, is the step size showing.
        workload, rules = standard_stream()
        shard, streamed, before_stop = through_shard(
            workload, rules, approximate=True
        )
        _, tagged = through_replica(workload, rules, approximate=True)
        assert shard.batches_flushed < len(workload)
        stepped = [t.verdict for t in tagged]
        streamed = streamed[:before_stop]
        untimed = set(workload.rules)
        assert verdict_rows(stepped, untimed) == verdict_rows(streamed, untimed)
        tentative = verdict_rows(stepped, set(TIMER_RULES), Verdict.TENTATIVE)
        assert tentative
        assert tentative == verdict_rows(
            streamed, set(TIMER_RULES), Verdict.TENTATIVE
        )


# --- parent-written state still loads ---------------------------------------


def fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return json.load(handle)


def events_of(rows):
    return [ServeEvent.from_dict(row) for row in rows]


class TestParentWrittenState:
    """``tests/fixtures/make_shard_state.py`` run on the parent commit."""

    def test_runtime_checkpoint_with_pending_events(self):
        doc = fixture("runtime_checkpoint.json")
        rules, config = doc["rules"], ServeConfig(**doc["config"])
        assert sum(len(s["pending"]) for s in doc["state"]["states"]) >= 8
        stream = events_of(doc["before"] + doc["queued"] + doc["after"])
        whole = serve_events(
            rules, stream, config=config, horizon=doc["horizon"]
        )

        restored = ServingRuntime(config=config)
        for name, expression in rules.items():
            restored.register(expression, name=name)
        restored.restore(doc["state"])

        async def rest():
            async with restored:
                for event in events_of(doc["after"]):
                    await restored.ingest(event)
                await restored.drain(doc["horizon"])

        asyncio.run(rest())
        for name in rules:
            continued = sorted(
                doc["detected"][name] + multiset(restored.detections_of(name))
            )
            assert continued == multiset(whole.detections_of(name)), name
        assert sum(s.events_processed for s in restored.shards) == sum(
            s.events_processed for s in whole.shards
        )

    def test_replica_checkpoint_through_the_store(self, tmp_path):
        doc = fixture("replica_checkpoint.json")
        path = str(tmp_path / "shard0.ckpt")
        shutil.copy(os.path.join(FIXTURES, "shard0.ckpt"), path)
        state = CheckpointStore(path).load()
        assert state is not None and state["seq"] == len(doc["before"])

        def replica():
            made = ShardReplica(0, timer_ratio=doc["timer_ratio"])
            for name, expression in doc["rules"].items():
                made.register(expression, name=name)
            return made

        def run(target, events, seq):
            out = []
            for seq, event in enumerate(events, start=seq + 1):
                out.extend(target.apply(WalEntry(seq, KIND_EVENT, event=event)))
            out.extend(
                target.apply(
                    WalEntry(seq + 1, KIND_ADVANCE, granule=doc["horizon"])
                )
            )
            return multiset(t.detection.occurrence for t in out)

        whole = run(replica(), events_of(doc["before"] + doc["after"]), 0)
        restored = replica()
        restored.restore(state)
        assert restored.applied_seq == state["seq"]
        continued = run(restored, events_of(doc["after"]), state["seq"])
        assert sorted(doc["detected"] + continued) == whole
        # What the change writes is what the parent wrote.
        fresh = replica()
        for seq, event in enumerate(events_of(doc["before"]), start=1):
            fresh.apply(WalEntry(seq, KIND_EVENT, event=event))
        assert fresh.snapshot() == state


# --- one way to stamp an event ----------------------------------------------

ticks = st.one_of(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=(1 << 64) - 2, max_value=1 << 80),
)
stamped_events = st.builds(
    ServeEvent,
    event_type=st.sampled_from(["buy", "sell", "cancel"]),
    site=st.sampled_from(["s1", "s2", "a-new-site"]),
    global_time=ticks,
    local=ticks,
    parameters=st.dictionaries(
        st.text(max_size=4), st.integers(-5, 5), max_size=2
    ),
)


@given(st.lists(stamped_events, max_size=12))
@settings(max_examples=60, deadline=None)
def test_batch_occurrences_is_occurrence_per_event(events):
    batch = batch_occurrences(events)
    singles = [event.occurrence() for event in events]
    assert len(batch) == len(events)
    for event, one, other in zip(events, batch, singles):
        assert one.event_type == other.event_type == event.event_type
        assert one.timestamp == other.timestamp
        assert hash(one.timestamp) == hash(other.timestamp)
        (stamp,) = one.timestamp
        assert (stamp.site, stamp.global_time, stamp.local) == (
            event.site, event.global_time, event.local
        )
        assert dict(one.parameters) == dict(other.parameters) == dict(
            event.parameters
        )


# --- bugfix: a negative tick is refused at the door -------------------------

NEGATIVE = [
    {"type": "buy", "site": "s1", "global": -1, "local": 6},
    {"type": "buy", "site": "s1", "global": 1, "local": -6},
]


def run_bounded(coroutine, seconds=10):
    """Run ``coroutine`` to its end, or fail once ``seconds`` are up.

    Not ``asyncio.run`` / ``wait_for``: both wait for the cancelled
    task to unwind, and a server hung on a dead shard's queue unwinds
    into the same wait.
    """
    loop = asyncio.new_event_loop()
    try:
        task = loop.create_task(coroutine)
        loop.run_until_complete(asyncio.wait({task}, timeout=seconds))
        assert task.done(), "still waiting on a shard whose worker is dead"
        # What a failed run leaves behind (the other shards' workers).
        leftovers = asyncio.all_tasks(loop)
        for leftover in leftovers:
            leftover.cancel()
        if leftovers:
            loop.run_until_complete(asyncio.wait(leftovers))
        return task.result()
    finally:
        loop.close()


def serve_bytes(source, codec):
    """``serve_stdin`` over ``source``: (count, rows)."""
    target = io.StringIO()
    runtime = ServingRuntime(config=ServeConfig(shards=2, timer_ratio=10))
    broadcast = DetectionBroadcast()
    wire_rules(runtime, [("rt", "buy ; sell")], broadcast)

    count = run_bounded(
        serve_stdin(
            runtime, broadcast, in_stream=source, out_stream=target,
            codec=codec,
        )
    )
    return count, [json.loads(line) for line in target.getvalue().splitlines()]


class TestNegativeTicks:
    @pytest.mark.parametrize("bad", NEGATIVE)
    def test_from_dict_refuses(self, bad):
        with pytest.raises(ReproError, match="non-negative"):
            ServeEvent.from_dict(bad)

    @pytest.mark.parametrize("bad", NEGATIVE)
    def test_wide_tick_decode_refuses(self, bad):
        event = ServeEvent("buy", "s1", bad["global"], bad["local"])
        with pytest.raises(CodecError, match="non-negative"):
            BINARY.decode_batch(BINARY.encode_batch([event]))

    @pytest.mark.parametrize("bad", NEGATIVE)
    def test_jsonl_server_answers_one_error_and_carries_on(self, bad):
        good = serve_stream(12, types=("buy", "sell"))
        lines = JSONL.encode_batch(good).decode("utf-8").splitlines()
        lines.insert(5, json.dumps(bad))
        count, rows = serve_bytes(io.StringIO("\n".join(lines) + "\n"), "jsonl")
        self.check(count, rows, good)

    @pytest.mark.parametrize("bad", NEGATIVE)
    def test_binary_server_answers_one_error_and_carries_on(self, bad):
        good = serve_stream(12, types=("buy", "sell"))
        event = ServeEvent("buy", "s1", bad["global"], bad["local"])
        frames = (
            BINARY.encode_batch(good[:5])
            + BINARY.encode_batch([event])
            + BINARY.encode_batch(good[5:])
        )
        count, rows = serve_bytes(io.BytesIO(frames), "binary")
        self.check(count, rows, good)

    @staticmethod
    def check(count, rows, good):
        assert count == len(good)
        errors = [row for row in rows if "error" in row]
        assert len(errors) == 1 and "non-negative" in errors[0]["error"]
        expected = serve_events({"rt": "buy ; sell"}, good, timer_ratio=10)
        detections = [row for row in rows if "detection" in row]
        assert len(detections) == len(expected.detections_of("rt")) > 0


# --- bugfix: a dead worker surfaces -----------------------------------------


class TestDeadWorker:
    def test_a_raising_callback_is_raised_by_drain_and_stop(self):
        def boom(detection):
            raise ValueError("callback failed")

        async def drained(runtime):
            runtime.start()
            for event in serve_stream(12, types=("buy", "sell")):
                await runtime.ingest(event)
            await runtime.drain()

        async def stopped(runtime):
            try:
                await drained(runtime)
            finally:
                await runtime.stop()

        for scenario in (drained, stopped):
            runtime = ServingRuntime(
                config=ServeConfig(shards=2, timer_ratio=10)
            )
            runtime.register("buy ; sell", name="rt", callback=boom)
            with pytest.raises(ValueError, match="callback failed"):
                run_bounded(scenario(runtime))


# --- bugfix: queued batches restore into one slot ---------------------------


class TestBatchedPendingRestore:
    def test_more_pending_events_than_queue_slots(self):
        rules = {"rt": "buy ; sell", "pair": "buy and sell"}
        config = ServeConfig(shards=1, capacity=4, timer_ratio=10)
        events = serve_stream(15, types=("buy", "sell"), per_granule=5)
        horizon = events[-1].granule + 1

        def runtime():
            made = ServingRuntime(config=config)
            for name, expression in rules.items():
                made.register(expression, name=name)
            return made

        source = runtime()

        async def queue_three_batches():
            for start in (0, 5, 10):
                await source.ingest_batch(events[start:start + 5])
            return source.checkpoint()

        state = json.loads(json.dumps(asyncio.run(queue_three_batches())))
        assert len(state["states"][0]["pending"]) == 15
        assert source.shards[0].depth == 3

        restored = runtime()
        restored.restore(state)  # asyncio.QueueFull at the parent
        assert restored.shards[0].depth == 1

        async def finish():
            async with restored:
                await restored.drain(horizon)

        asyncio.run(finish())
        whole = serve_events(rules, events, config=config, horizon=horizon)
        for name in rules:
            assert multiset(restored.detections_of(name)) == multiset(
                whole.detections_of(name)
            ), name
            assert whole.detections_of(name), name
