"""Tests for elastic re-balancing, worker transports, and the admin API.

The invariant under test throughout: growing, shrinking, or re-homing a
live cluster at a granule boundary (safe by Def 4.4 — intra-granule
events are concurrent) never changes the multiset of detections relative
to a fault-free single-process run.
"""

import asyncio

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.serve import (
    ClusterAdmin,
    ClusterStatus,
    ScaleReport,
    ServeConfig,
    ServeEvent,
    SubprocessTransport,
    TcpTransport,
    serve_events,
)
from repro.serve.cluster import (
    ClusterSupervisor,
    FaultPlan,
    LocalFailoverCluster,
    serve_worker_listener,
)
from repro.serve.heartbeat import HeartbeatMonitor
from repro.serve.router import EventRouter, shard_of
from repro.serve.transport import resolve_transport
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
        name: tsmultiset(
            o.timestamp for o in runtime.detections_of(name)
        )
        for name in rules
    }


def cluster_multisets(cluster, rules=RULES):
    return {
        name: tsmultiset(
            o.timestamp for o in cluster.detections_of(name)
        )
        for name in rules
    }


def supervisor_multisets(supervisor, rules=RULES):
    return {
        name: tsmultiset(supervisor.timestamps_of(name)) for name in rules
    }


class TestLocalElastic:
    """LocalFailoverCluster: the in-process elastic harness."""

    def run_with_scales(self, events, horizon, scales, **kw):
        cluster = LocalFailoverCluster(
            2, timer_ratio=TIMER_RATIO, checkpoint_every=8, **kw
        )
        for name, expression in sorted(RULES.items()):
            cluster.register(expression, name)
        pending = sorted(scales)
        for count, event in enumerate(events):
            while pending and pending[0][0] <= count:
                cluster.scale(pending.pop(0)[1])
            cluster.ingest(event)
        for _, shards in pending:
            cluster.scale(shards)
        cluster.advance(horizon)
        return cluster

    def test_scale_up_and_down_preserves_multisets(self):
        events = stream(60)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)
        cluster = self.run_with_scales(
            events, horizon, [(20, 4), (40, 3)]
        )
        assert cluster_multisets(cluster) == expected
        assert cluster.rebalances == 2
        assert cluster.router.shards == 3
        assert cluster.router.epoch == 2

    def test_scale_report_names_moved_rules(self):
        events = stream(30)
        cluster = LocalFailoverCluster(2, timer_ratio=TIMER_RATIO)
        for name, expression in sorted(RULES.items()):
            cluster.register(expression, name)
        for event in events:
            cluster.ingest(event)
        before = dict(cluster.router.assignments)
        report = cluster.scale(4)
        assert isinstance(report, ScaleReport)
        assert (report.from_shards, report.to_shards) == (2, 4)
        assert report.epoch == 1
        for name, (old, new) in report.moved_rules.items():
            assert before[name] == old
            assert cluster.router.assignments[name] == new
            assert old != new
        unmoved = set(RULES) - set(report.moved_rules)
        for name in unmoved:
            assert cluster.router.assignments[name] == before[name]
        data = report.to_dict()
        assert data["from_shards"] == 2 and data["to_shards"] == 4

    def test_periodic_windows_survive_consecutive_scales(self):
        """Regression: PeriodicNode timers must re-arm on migration."""
        rules = {"per_only": "P(buy, 1, cancel)"}
        events = [ServeEvent("buy", "s1", 5, 51)]
        horizon = 10
        runtime = serve_events(
            rules,
            events,
            config=ServeConfig(shards=1, timer_ratio=TIMER_RATIO),
            horizon=horizon,
        )
        expected = tsmultiset(
            o.timestamp for o in runtime.detections_of("per_only")
        )
        assert expected  # the periodic rule must actually tick
        cluster = LocalFailoverCluster(2, timer_ratio=TIMER_RATIO)
        cluster.register(rules["per_only"], "per_only")
        cluster.ingest(events[0])
        cluster.scale(4)
        cluster.scale(3)
        cluster.advance(horizon)
        assert (
            tsmultiset(
                o.timestamp for o in cluster.detections_of("per_only")
            )
            == expected
        )

    def test_lose_rehomes_rules_onto_survivors(self):
        events = stream(60)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)
        cluster = LocalFailoverCluster(
            3, timer_ratio=TIMER_RATIO, checkpoint_every=8
        )
        for name, expression in sorted(RULES.items()):
            cluster.register(expression, name)
        for count, event in enumerate(events):
            cluster.ingest(event)
            if count == 30:
                cluster.lose(1)
        cluster.advance(horizon)
        assert cluster.router.shards == 2
        assert cluster_multisets(cluster) == expected

    def test_lose_rejects_last_shard(self):
        cluster = LocalFailoverCluster(1, timer_ratio=TIMER_RATIO)
        cluster.register(RULES["rt"], "rt")
        with pytest.raises(ReproError):
            cluster.lose(0)

    def test_status_snapshot(self):
        cluster = LocalFailoverCluster(2, timer_ratio=TIMER_RATIO)
        for name, expression in sorted(RULES.items()):
            cluster.register(expression, name)
        for event in stream(20):
            cluster.ingest(event)
        status = cluster.status()
        assert isinstance(status, ClusterStatus)
        assert status.shards == 2
        assert status.epoch == 0
        assert status.transport == "in-process"
        assert status.healthy
        assert status.to_dict()["healthy"] is True

    def test_granule_epochs_stay_singletons_across_scales(self):
        # Scale points land on granule boundaries (multiples of the
        # per_granule stride) — the contract under which every granule
        # routes under exactly one shard-map epoch.
        events = stream(60)
        cluster = self.run_with_scales(
            events, events[-1].granule + 8, [(16, 3), (36, 4), (48, 2)]
        )
        assert cluster.granule_epochs
        assert all(
            len(epochs) == 1 for epochs in cluster.granule_epochs.values()
        )


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_property_scales_never_split_a_granule_or_change_multisets(data):
    """Fuzzed elastic schedules: every granule routes under exactly one
    shard-map epoch, and the multiset matches the 1-shard baseline."""
    count = data.draw(st.integers(min_value=4, max_value=40))
    events = stream(count)
    horizon = events[-1].granule + 8
    n_scales = data.draw(st.integers(min_value=1, max_value=3))
    # Scale points are drawn on granule boundaries (the stream packs 4
    # events per granule): the scale-at-boundary contract is what makes
    # the one-epoch-per-granule property hold.
    scales = sorted(
        (
            4
            * data.draw(
                st.integers(min_value=0, max_value=count // 4),
                label=f"scale_point_{i}",
            ),
            data.draw(
                st.integers(min_value=1, max_value=5), label=f"shards_{i}"
            ),
        )
        for i in range(n_scales)
    )
    cluster = LocalFailoverCluster(2, timer_ratio=TIMER_RATIO)
    for name, expression in sorted(RULES.items()):
        cluster.register(expression, name)
    pending = list(scales)
    for done, event in enumerate(events):
        while pending and pending[0][0] <= done:
            cluster.scale(pending.pop(0)[1])
        cluster.ingest(event)
    for _, shards in pending:
        cluster.scale(shards)
    cluster.advance(horizon)
    assert all(
        len(epochs) == 1 for epochs in cluster.granule_epochs.values()
    )
    assert cluster_multisets(cluster) == baseline_multisets(events, horizon)


@settings(deadline=None, max_examples=50)
@given(
    names=st.lists(
        st.text("abcdefgh", min_size=1, max_size=6),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    before=st.integers(min_value=1, max_value=6),
    after=st.integers(min_value=1, max_value=6),
    salt=st.integers(min_value=0, max_value=96),
)
def test_property_rehash_is_a_clean_successor(names, before, after, salt):
    router = EventRouter(before, salt=salt)
    for name in names:
        router.assign(name)
    frozen = dict(router.assignments)
    successor = router.rehash(after)
    # The predecessor is untouched; the successor bumps the epoch, keeps
    # the rule domain, re-hashes deterministically, and starts unbound.
    assert router.assignments == frozen and router.epoch == 0
    assert successor.epoch == router.epoch + 1
    assert set(successor.assignments) == set(frozen)
    for name in names:
        assert successor.assignments[name] == shard_of(name, after, salt)
    assert successor.route("anything") == ()


@pytest.mark.slow
class TestSupervisorElastic:
    """ClusterSupervisor over real subprocess workers."""

    def config(self, tmp_path, **overrides):
        fields = dict(
            shards=2,
            timer_ratio=TIMER_RATIO,
            state_dir=str(tmp_path / "state"),
            heartbeat_interval=0.1,
            checkpoint_every=8,
        )
        fields.update(overrides)
        return ServeConfig(**fields)

    def drive(self, supervisor, events, horizon, scale_at=()):
        reports = []

        async def scenario():
            pending = sorted(scale_at)
            async with supervisor:
                for count, event in enumerate(events):
                    while pending and pending[0][0] <= count:
                        reports.append(
                            await supervisor.scale(pending.pop(0)[1])
                        )
                    assert await supervisor.ingest(event) == []
                for _, shards in pending:
                    reports.append(await supervisor.scale(shards))
                assert await supervisor.drain(horizon) == []

        asyncio.run(scenario())
        return reports

    def test_mid_stream_scale_preserves_multisets(self, tmp_path):
        events = stream(60)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)
        supervisor = ClusterSupervisor(config=self.config(tmp_path))
        for name, expression in sorted(RULES.items()):
            supervisor.register(expression, name)
        self.drive(
            supervisor, events, horizon, scale_at=[(20, 4), (40, 3)]
        )
        assert supervisor_multisets(supervisor) == expected
        assert supervisor.rebalances == 2
        assert supervisor.router.shards == 3
        assert supervisor.status().healthy
        assert all(
            len(epochs) == 1
            for epochs in supervisor.granule_epochs.values()
        )

    def test_kill_during_migration_falls_back_to_rebuild(self, tmp_path):
        """A worker dying mid-handoff degrades to checkpoint+WAL rebuild
        without losing or duplicating detections."""
        events = stream(60)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)
        supervisor = ClusterSupervisor(
            config=self.config(tmp_path),
            fault_plan=FaultPlan(scale_kills=(1,)),
        )
        for name, expression in sorted(RULES.items()):
            supervisor.register(expression, name)
        reports = self.drive(supervisor, events, horizon, scale_at=[(30, 3)])
        assert supervisor.rebalances == 1
        # The kill races the in-flight handoff reply: either the state
        # frame escaped first (no fallback) or the rebuild path ran.
        assert reports[0].handoff_fallbacks in (0, 1)
        assert supervisor_multisets(supervisor) == expected

    def test_dead_worker_scale_counts_handoff_fallback(self, tmp_path):
        """Scaling over an already-dead worker rebuilds its state from
        checkpoint + WAL and reports the fallback on the ScaleReport."""
        events = stream(48)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)
        supervisor = ClusterSupervisor(config=self.config(tmp_path))
        for name, expression in sorted(RULES.items()):
            supervisor.register(expression, name)

        async def scenario():
            async with supervisor:
                for count, event in enumerate(events):
                    if count == 24:
                        supervisor._kill(1, supervisor._workers[1], "test kill")
                        report = await supervisor.scale(3)
                        assert report.handoff_fallbacks == 1
                        assert report.to_dict()["handoff_fallbacks"] == 1
                    assert await supervisor.ingest(event) == []
                assert await supervisor.drain(horizon) == []

        asyncio.run(scenario())
        assert supervisor.rebalances == 1
        assert supervisor_multisets(supervisor) == expected

    def test_retry_exhaustion_rehomes_with_grace(self, tmp_path):
        """With rebalance_grace set, a shard past its retry budget is
        not parked: its rules re-home onto the survivors."""
        events = stream(80)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)
        # Shard 1 exhausts its retry budget at spawn time (the failure
        # budget covers the initial spawn plus the one retry); its rules
        # and WAL re-home onto shard 0 at the first ingest.
        supervisor = ClusterSupervisor(
            config=self.config(
                tmp_path, retry_budget=1, rebalance_grace=0.0
            ),
            fault_plan=FaultPlan(fail_spawns=((1, 2),)),
        )
        for name, expression in sorted(RULES.items()):
            supervisor.register(expression, name)

        async def scenario():
            async with supervisor:
                for event in events:
                    await supervisor.ingest(event)
                assert await supervisor.drain(horizon) == []

        asyncio.run(scenario())
        assert supervisor.rehomes == 1
        assert supervisor.router.shards == 1
        assert supervisor.status().healthy
        assert supervisor_multisets(supervisor) == expected


@pytest.mark.slow
class TestTcpTransportIntegration:
    """The supervisor over live TCP worker listeners."""

    @pytest.mark.parametrize("codec", ["binary", "jsonl"])
    def test_tcp_scale_and_kill_preserve_multisets(self, tmp_path, codec):
        events = stream(60)
        horizon = events[-1].granule + 8
        expected = baseline_multisets(events, horizon)

        async def scenario():
            servers = []
            ports = []
            for _ in range(2):
                server = await serve_worker_listener(
                    "127.0.0.1", 0, heartbeat_interval=0.1, codec=codec
                )
                servers.append(server)
                ports.append(server.sockets[0].getsockname()[1])
            supervisor = ClusterSupervisor(
                config=ServeConfig(
                    shards=2,
                    timer_ratio=TIMER_RATIO,
                    state_dir=str(tmp_path / "state"),
                    heartbeat_interval=0.1,
                    checkpoint_every=8,
                    codec=codec,
                    transport="tcp",
                    workers=tuple(f"127.0.0.1:{p}" for p in ports),
                )
            )
            for name, expression in sorted(RULES.items()):
                supervisor.register(expression, name)
            try:
                async with supervisor:
                    for count, event in enumerate(events):
                        if count == 20:
                            await supervisor.scale(4)
                        if count == 35:
                            # Abrupt connection loss: the heartbeat
                            # monitor must respawn the incarnation.
                            supervisor._workers[1].link.kill()
                        assert await supervisor.ingest(event) == []
                    assert await supervisor.drain(horizon) == []
                    if codec == "binary":
                        assert all(
                            w.link.codec_name == "binary"
                            for w in supervisor._workers.values()
                        )
            finally:
                for server in servers:
                    server.close()
                    await server.wait_closed()
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor.status().transport == "tcp"
        assert supervisor.router.shards == 4
        assert supervisor_multisets(supervisor) == expected


class TestTransportResolution:
    def test_resolve_auto_picks_tcp_with_workers(self):
        transport = resolve_transport("auto", ("h:1",))
        assert isinstance(transport, TcpTransport)
        assert resolve_transport("auto").name == "subprocess"

    def test_resolve_passes_instances_through(self):
        transport = SubprocessTransport()
        assert resolve_transport(transport) is transport

    def test_tcp_needs_endpoints(self):
        with pytest.raises(ReproError, match="endpoint"):
            resolve_transport("tcp")
        with pytest.raises(ReproError, match="unknown transport"):
            resolve_transport("carrier-pigeon")

    def test_endpoint_preference_is_round_robin_by_shard(self):
        transport = TcpTransport(("a:1", "b:2", "c:3"))
        assert transport.endpoints == ("a:1", "b:2", "c:3")
        with pytest.raises(ReproError, match="HOST:PORT"):
            TcpTransport._split("no-port")


class TestServeConfigElastic:
    def test_workers_and_procs_mix_raises_typeerror_naming_both(self):
        with pytest.raises(TypeError) as excinfo:
            ServeConfig(workers=("h:1",), procs=2)
        assert "workers=" in str(excinfo.value)
        assert "procs=" in str(excinfo.value)

    def test_workers_validated_and_normalized(self):
        config = ServeConfig(workers=["h:1", "i:2"])
        assert config.workers == ("h:1", "i:2")
        assert config.resolved_transport == "tcp"
        with pytest.raises(ValueError, match="HOST:PORT"):
            ServeConfig(workers=("nope",))
        with pytest.raises(ValueError, match="at least one"):
            ServeConfig(workers=())

    def test_transport_field_validation(self):
        assert ServeConfig().resolved_transport == "subprocess"
        with pytest.raises(ValueError, match="transport"):
            ServeConfig(transport="udp")
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(transport="tcp")
        with pytest.raises(ValueError, match="meaningless"):
            ServeConfig(transport="subprocess", workers=("h:1",))

    def test_rebalance_grace_must_be_non_negative(self):
        assert ServeConfig(rebalance_grace=0.0).rebalance_grace == 0.0
        with pytest.raises(ValueError, match="rebalance_grace"):
            ServeConfig(rebalance_grace=-1.0)


class TestAdminSurface:
    def test_both_clusters_implement_cluster_admin(self):
        assert issubclass(LocalFailoverCluster, ClusterAdmin)
        assert issubclass(ClusterSupervisor, ClusterAdmin)

    def test_status_health_reflects_unavailable(self):
        healthy = ClusterStatus(shards=2, epoch=0, transport="x")
        assert healthy.healthy
        degraded = ClusterStatus(
            shards=2, epoch=0, transport="x", unavailable={1: "down"}
        )
        assert not degraded.healthy
        assert degraded.to_dict()["unavailable"] == {1: "down"}


class TestHeartbeatJitter:
    """Transport-supplied beat timestamps make liveness jitter-immune."""

    def test_delayed_beats_with_send_stamps_are_credited(self):
        now = [0.0]
        monitor = HeartbeatMonitor(1.0, 3, clock=lambda: now[0])
        monitor.mark(0)
        # First beat establishes the offset baseline (sent at 0.9,
        # received at 1.0: baseline offset 0.1).
        now[0] = 1.0
        monitor.beat(0, sent_at=0.9)
        # The next beat was sent on schedule at 1.9 but the transport
        # sat on it for 2.6s — receipt alone would read as 3 missed
        # intervals, but the send stamp proves the worker was alive.
        now[0] = 4.5
        monitor.beat(0, sent_at=1.9)
        now[0] = 5.0
        assert monitor.missed(0) < 3
        assert not monitor.suspect(0)

    def test_silent_worker_is_still_suspected_in_bounded_time(self):
        now = [0.0]
        monitor = HeartbeatMonitor(1.0, 3, clock=lambda: now[0])
        monitor.mark(0)
        now[0] = 1.0
        monitor.beat(0, sent_at=0.9)
        # Jitter credit is capped at one suspicion window: even a
        # worker whose last beat was very slow gets suspected once it
        # goes quiet for two windows.
        now[0] = 4.5
        monitor.beat(0, sent_at=1.9)
        now[0] = now[0] + 2 * 3 * 1.0 + 1.0
        assert monitor.suspect(0)

    def test_beats_without_stamps_keep_receipt_semantics(self):
        now = [0.0]
        monitor = HeartbeatMonitor(1.0, 3, clock=lambda: now[0])
        monitor.mark(0)
        now[0] = 1.0
        monitor.beat(0, sent_at=0.5)
        # A stampless beat (pipe transport) clears the allowance.
        now[0] = 2.0
        monitor.beat(0)
        now[0] = 5.5
        assert monitor.missed(0) == 3
        assert monitor.suspect(0)
