"""Tests for partition tolerance (``repro.serve.session`` / ``netfault``).

The invariant under test throughout: a network that drops, duplicates,
resets, or stalls frames between the supervisor and its shard workers
never changes the multiset of detections relative to a fault-free run —
the resumable session layer replays exactly what the other side never
saw, and the ``(seq, k)`` ledger absorbs anything replayed twice.
"""

import asyncio
import json
import socket

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ReproError
from repro.serve import ServeConfig, serve_events
from repro.serve.cluster import ClusterSupervisor, serve_worker_listener
from repro.serve.netfault import (
    NetFaultPlan,
    TcpFaultProxy,
    replay_with_netfault,
)
from repro.serve.session import RetryPolicy, SessionHalf, new_session_id
from repro.serve.transport import TcpTransport
from tests.conftest import serve_stream as stream
from tests.conftest import stamp_multiset as tsmultiset

RULES = {
    "rt": "buy ; sell",
    "pair": "buy and sell",
    "per": "P(buy, 2, cancel)",
    "plus": "(buy ; sell) + 3",
}

TIMER_RATIO = 10


def baseline_multisets(events, horizon, rules=RULES):
    runtime = serve_events(
        rules,
        events,
        config=ServeConfig(shards=1, timer_ratio=TIMER_RATIO),
        horizon=horizon,
    )
    return {
        name: tsmultiset(o.timestamp for o in runtime.detections_of(name))
        for name in rules
    }


def baseline_triples(events, horizon, rules=RULES):
    """Baseline multisets normalized to raw (site, global, local) triples."""
    runtime = serve_events(
        rules,
        events,
        config=ServeConfig(shards=1, timer_ratio=TIMER_RATIO),
        horizon=horizon,
    )
    return {
        name: sorted(
            repr(sorted(tuple(p.as_triple()) for p in o.timestamp))
            for o in runtime.detections_of(name)
        )
        for name in rules
    }


def supervisor_multisets(supervisor, rules=RULES):
    return {
        name: tsmultiset(supervisor.timestamps_of(name)) for name in rules
    }


def report_multisets(report, rules=RULES):
    return {
        name: sorted(
            repr(sorted((s, int(g), int(l)) for s, g, l in stamps))
            for stamps in report.timestamps_of(name)
        )
        for name in rules
    }


class TestRetryPolicy:
    def test_validates_parameters(self):
        with pytest.raises(ReproError):
            RetryPolicy(base=0)
        with pytest.raises(ReproError):
            RetryPolicy(base=0.5, cap=0.1)
        with pytest.raises(ReproError):
            RetryPolicy(attempt_timeout=0)
        with pytest.raises(ReproError):
            RetryPolicy(deadline=-1)

    def test_delay_is_bounded_jittered_and_deterministic(self):
        import random

        policy = RetryPolicy(base=0.05, cap=0.4)
        first = [policy.delay(n, random.Random(3)) for n in range(6)]
        second = [policy.delay(n, random.Random(3)) for n in range(6)]
        assert first == second
        for attempt, delay in enumerate(first):
            ceiling = min(0.4, 0.05 * 2**attempt)
            assert ceiling / 2 <= delay < ceiling

    def test_dict_round_trip(self):
        policy = RetryPolicy(base=0.1, cap=1.0, attempt_timeout=2, deadline=6)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ReproError):
            RetryPolicy.from_dict({"nope": 1.0})

    def test_session_ids_are_distinct(self):
        assert new_session_id() != new_session_id()


class TestNetFaultPlan:
    def test_json_round_trip(self):
        plan = NetFaultPlan(
            seed=7,
            drop_to_worker=(2, 5),
            dup_to_supervisor=(3,),
            resets=(4,),
            stalls=(1,),
            stall_seconds=0.01,
            shard=1,
        )
        assert NetFaultPlan.from_json(json.dumps(plan.to_dict())) == plan
        assert NetFaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_seed_is_deterministic(self):
        first = NetFaultPlan.from_seed(11, frames=50)
        again = NetFaultPlan.from_seed(11, frames=50)
        other = NetFaultPlan.from_seed(12, frames=50)
        assert first == again
        assert first != other

    def test_malformed_plans_rejected(self):
        with pytest.raises(ReproError):
            NetFaultPlan(drop_to_worker=(0,))
        with pytest.raises(ReproError):
            NetFaultPlan(stall_seconds=-0.1)
        with pytest.raises(ReproError):
            NetFaultPlan.from_json("[]")
        with pytest.raises(ReproError):
            NetFaultPlan.from_json('{"seed": "many"}')


def run_lossy_channel(count, script):
    """Drive ``count`` frames through a scripted lossy one-way channel.

    The sender stamps every frame through its :class:`SessionHalf`; the
    channel applies one scripted action per transmission (``deliver``,
    ``drop``, ``dup``, or ``swap`` with the next frame) — replayed
    frames included; both ends run :meth:`SessionHalf.accept` (the
    receiver's rewinds travel back losslessly, the replays they trigger
    ride the lossy channel again); and a final resume handshake replays
    whatever is still outstanding.  Returns the delivered frames in
    order.
    """
    sender, receiver = SessionHalf(), SessionHalf()
    delivered = []
    actions = iter(script)
    held = []  # one frame deferred by a pending "swap"

    def accept(wire):
        deliver, replies = receiver.accept(wire)
        if deliver:
            delivered.append(wire)
        for rewind in replies:
            for replay in sender.accept(rewind)[1]:
                transmit(replay)

    def transmit(wire):
        action = next(actions, "deliver")
        if action == "drop":
            return
        if action == "swap":
            held.append(wire)
            return
        if action == "dup":
            accept(dict(wire))
        accept(wire)
        while held:
            accept(held.pop(0))

    for i in range(count):
        transmit(sender.stamp({"op": "event", "seq": i}))
    # Resume handshake: the receiver reports its watermark and the
    # sender replays the tail — this leg is loss-free (a resume that
    # fails is just another reconnect attempt).
    for replay in sender.replay_after(receiver.recv_n):
        accept(replay)
    sender.ack(receiver.recv_n)
    return sender, receiver, delivered


class TestSessionProtocol:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        count=st.integers(min_value=1, max_value=30),
        script=st.lists(
            st.sampled_from(["deliver", "drop", "dup", "swap"]),
            max_size=90,
        ),
    )
    def test_lossy_channel_is_exactly_once_in_order(self, count, script):
        sender, receiver, delivered = run_lossy_channel(count, script)
        assert [f["n"] for f in delivered] == list(range(1, count + 1))
        assert [f["seq"] for f in delivered] == list(range(count))
        assert receiver.recv_n == count
        assert sender.outstanding == 0

    def test_duplicate_replay_frames_are_dropped(self):
        sender, receiver = SessionHalf(), SessionHalf()
        wires = [sender.stamp({"op": "event", "seq": i}) for i in range(4)]
        for wire in wires:
            assert receiver.receive(wire) == "deliver"
        # A reconnect storm replays everything twice: all duplicates.
        for wire in sender.replay_after(0):
            assert receiver.receive(wire) == "duplicate"
        assert receiver.recv_n == 4

    def test_unnumbered_ops_skip_the_ledger(self):
        half = SessionHalf()
        beat = half.stamp({"op": "beat"})
        assert "n" not in beat and beat["recv"] == 0
        assert half.outstanding == 0
        numbered = half.stamp({"op": "event"})
        assert numbered["n"] == 1 and half.outstanding == 1

    def test_piggybacked_recv_prunes_even_on_duplicates(self):
        sender, receiver = SessionHalf(), SessionHalf()
        wire = sender.stamp({"op": "event"})
        assert receiver.receive(wire) == "deliver"
        back = receiver.stamp({"op": "ack"})
        assert sender.receive(back) == "deliver"
        assert sender.outstanding == 0
        assert sender.receive(dict(back)) == "duplicate"


class TestNetFaultHarness:
    @pytest.mark.parametrize("codec", ["jsonl", "binary"])
    def test_faulted_replay_matches_fault_free(self, codec):
        events = stream(60)
        horizon = events[-1].granule + 8
        clean = replay_with_netfault(
            RULES,
            events,
            shards=3,
            timer_ratio=TIMER_RATIO,
            horizon=horizon,
            codec="jsonl",
        )
        assert clean.resumes == 0 and clean.drops == 0
        plan = NetFaultPlan.from_seed(
            5, frames=90, drops=4, dups=4, resets=2, stalls=0
        )
        faulted = replay_with_netfault(
            RULES,
            events,
            shards=3,
            timer_ratio=TIMER_RATIO,
            horizon=horizon,
            plan=plan,
            codec=codec,
        )
        assert faulted.resumes >= 1
        assert faulted.drops >= 1
        assert report_multisets(faulted) == report_multisets(clean)
        assert report_multisets(faulted) == baseline_triples(events, horizon)

    def test_shard_scoped_plan_leaves_other_shards_alone(self):
        events = stream(40)
        horizon = events[-1].granule + 8
        plan = NetFaultPlan.from_seed(
            3, frames=60, drops=3, dups=0, resets=1, stalls=0, shard=0
        )
        report = replay_with_netfault(
            RULES,
            events,
            shards=2,
            timer_ratio=TIMER_RATIO,
            horizon=horizon,
            plan=plan,
        )
        assert report_multisets(report) == baseline_triples(events, horizon)


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestFailFast:
    def test_unreachable_endpoint_is_named(self):
        dead = f"127.0.0.1:{free_port()}"
        transport = TcpTransport(
            (dead,),
            retry_policy=RetryPolicy(
                base=0.01, cap=0.02, attempt_timeout=0.2, deadline=0.2
            ),
        )

        async def attempt():
            await transport.connect(
                0,
                timer_ratio=TIMER_RATIO,
                heartbeat_interval=0.25,
                frame_limit=1 << 20,
            )

        with pytest.raises(ReproError, match=dead.replace(".", r"\.")):
            asyncio.run(attempt())


@pytest.mark.slow
class TestSeveredLink:
    """Real sockets: a partition proxy between supervisor and worker."""

    def _config(self, tmp_path, ports):
        return ServeConfig(
            shards=len(ports),
            timer_ratio=TIMER_RATIO,
            state_dir=str(tmp_path / "state"),
            heartbeat_interval=0.1,
            # The sever must read as a *network* fault, not a dead
            # worker: the monitor never gets to suspect.
            miss_threshold=1000,
            checkpoint_every=8,
            transport="tcp",
            workers=tuple(f"127.0.0.1:{p}" for p in ports),
            retry_policy=RetryPolicy(
                base=0.02, cap=0.2, attempt_timeout=2.0, deadline=10.0
            ),
            session_grace=30.0,
        )

    def test_severed_and_healed_link_resumes_without_respawn(self, tmp_path):
        events = stream(48)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)

        async def scenario():
            server = await serve_worker_listener(
                "127.0.0.1", 0, heartbeat_interval=0.1
            )
            port = server.sockets[0].getsockname()[1]
            proxy = await TcpFaultProxy(f"127.0.0.1:{port}").start()
            supervisor = ClusterSupervisor(
                config=self._config(
                    tmp_path, [int(proxy.bound.rsplit(":", 1)[1])]
                )
            )
            for name, expression in sorted(RULES.items()):
                supervisor.register(expression, name)
            loop = asyncio.get_running_loop()
            try:
                async with supervisor:
                    for count, event in enumerate(events):
                        if count == 25:
                            proxy.sever()
                            loop.call_later(0.3, proxy.heal)
                        assert await supervisor.ingest(event) == []
                    assert await supervisor.drain(horizon) == []
            finally:
                await proxy.close()
                server.close()
                await server.wait_closed()
            return supervisor, proxy

        supervisor, proxy = asyncio.run(scenario())
        assert proxy.severs == 1
        assert supervisor.restarts == 0
        assert supervisor.resumes >= 1
        assert supervisor.ledger.duplicates == 0
        assert supervisor_multisets(supervisor) == expected

    def test_reset_during_scale_keeps_epochs_single(self, tmp_path):
        events = stream(48)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)

        async def scenario():
            server = await serve_worker_listener(
                "127.0.0.1", 0, heartbeat_interval=0.1
            )
            port = server.sockets[0].getsockname()[1]
            proxy = await TcpFaultProxy(f"127.0.0.1:{port}").start()
            supervisor = ClusterSupervisor(
                config=self._config(
                    tmp_path, [int(proxy.bound.rsplit(":", 1)[1])]
                )
            )
            for name, expression in sorted(RULES.items()):
                supervisor.register(expression, name)
            loop = asyncio.get_running_loop()
            try:
                async with supervisor:
                    for count, event in enumerate(events):
                        if count == 24:
                            # The connection dies while the migration's
                            # handoff traffic is in flight.
                            loop.call_later(0.01, proxy.sever)
                            loop.call_later(0.25, proxy.heal)
                            await supervisor.scale(2)
                        assert await supervisor.ingest(event) == []
                    assert await supervisor.drain(horizon) == []
            finally:
                await proxy.close()
                server.close()
                await server.wait_closed()
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor.router.shards == 2
        assert supervisor.granule_epochs
        assert all(
            len(epochs) == 1
            for epochs in supervisor.granule_epochs.values()
        )
        assert supervisor_multisets(supervisor) == expected


@pytest.mark.slow
class TestScriptedLinkFaults:
    """The ``chaos-smoke`` ``--net-fault-plan`` leg as a test: scripted
    drops, duplicates and a reset injected in-path (``FaultyLink``) on a
    live localhost link, repaired by the session layer alone."""

    PLAN = NetFaultPlan(
        drop_to_worker=(7, 40), dup_to_supervisor=(12,), resets=(25,)
    )

    @pytest.mark.parametrize("codec", ["jsonl", "binary"])
    def test_faulted_link_keeps_the_multiset(self, tmp_path, codec):
        events = stream(48)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)

        async def scenario():
            server = await serve_worker_listener(
                "127.0.0.1", 0, heartbeat_interval=0.1
            )
            port = server.sockets[0].getsockname()[1]
            supervisor = ClusterSupervisor(
                config=ServeConfig(
                    shards=1,
                    timer_ratio=TIMER_RATIO,
                    state_dir=str(tmp_path / "state"),
                    heartbeat_interval=0.1,
                    miss_threshold=1000,
                    checkpoint_every=8,
                    codec=codec,
                    transport="tcp",
                    workers=(f"127.0.0.1:{port}",),
                    retry_policy=RetryPolicy(
                        base=0.02, cap=0.2, attempt_timeout=2.0, deadline=10.0
                    ),
                ),
                net_fault_plan=self.PLAN,
            )
            for name, expression in sorted(RULES.items()):
                supervisor.register(expression, name)
            try:
                async with supervisor:
                    for event in events:
                        assert await supervisor.ingest(event) == []
                    assert await supervisor.drain(horizon) == []
                    link = supervisor._workers[0].link
            finally:
                server.close()
                await server.wait_closed()
            return supervisor, link

        supervisor, link = asyncio.run(scenario())
        assert link.codec_name == codec
        fired = {verdict for _, _, verdict in link._inner.faults.fired}
        assert fired == {"drop", "dup", "reset"}
        assert supervisor.restarts == 0
        assert supervisor.resumes >= 1
        assert supervisor_multisets(supervisor) == expected
