"""The supervisor's lifecycle tables, driven over an in-process worker transport.

``ClusterSupervisor`` keeps one :class:`ShardState` per shard and one
:class:`ClusterPhase`, each moved only along its table.  These tests run
the supervisor against workers hosted in the test's own event loop (no
subprocess, no socket): each link wraps the worker-side
``_ShardSession``, beats on a task, can withhold its acks, and a kill
ends its ``read()``.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs.instrument import Instrumentation
from repro.serve.cluster import (
    _PHASE_TRANSITIONS,
    _TRANSITIONS,
    ClusterPhase,
    ClusterSupervisor,
    FaultPlan,
    ShardState,
)
from repro.serve.config import ServeConfig
from repro.serve.protocol import ServeEvent
from repro.serve.runtime import serve_events
from repro.serve.transport import WorkerLink, WorkerTransport
from repro.serve.worker import _ShardSession
from tests.conftest import stamp_multiset

DOCS = Path(__file__).resolve().parent.parent / "docs" / "serving.md"


class InProcessLink(WorkerLink):
    """One worker incarnation hosted in the caller's event loop."""

    def __init__(self, transport, shard, *, timer_ratio, interval, stillborn):
        self.transport = transport
        self.shard = shard
        self.session = _ShardSession(shard, timer_ratio=timer_ratio)
        self.frames_dropped = 0
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.closed = False
        self.beater = asyncio.get_running_loop().create_task(self._beat(interval))
        if stillborn:
            self._close()
        self._emit("beat", **self.session.beat())

    def _emit(self, op, **fields):
        if self.closed or (op == "ack" and self.shard in self.transport.muted):
            return
        self.outbox.put_nowait({"op": op, **fields})

    async def _beat(self, interval):
        while True:
            await asyncio.sleep(interval)
            self._emit("beat", **self.session.beat())

    def _close(self):
        if not self.closed:
            self.closed = True
            self.beater.cancel()
            self.outbox.put_nowait(None)

    async def send(self, frame):
        if self.closed:
            raise ConnectionError("the in-process worker is gone")
        if not self.session.handle(frame, self._emit):
            self._close()

    async def read(self):
        if self.closed and self.outbox.empty():
            return None
        return await self.outbox.get()

    def kill(self):
        self._close()

    def close_input(self):
        self._close()


class InProcessTransport(WorkerTransport):
    """Hands out :class:`InProcessLink` incarnations.

    ``muted`` holds the shards whose acks are withheld (beats still
    flow); ``stillborn`` is how many of the next incarnations die before
    their first frame.
    """

    name = "in-process"

    def __init__(self):
        self.muted: set[int] = set()
        self.stillborn = 0

    async def connect(self, shard, *, timer_ratio, heartbeat_interval, frame_limit):
        stillborn = self.stillborn > 0
        self.stillborn -= stillborn
        return InProcessLink(
            self,
            shard,
            timer_ratio=timer_ratio,
            interval=heartbeat_interval,
            stillborn=stillborn,
        )


def supervisor(tmp_path, fault_plan=None, **fields):
    config = dict(
        procs=1,
        heartbeat_interval=0.05,
        miss_threshold=2,
        retry_budget=1,
        state_dir=str(tmp_path / "state"),
    )
    config.update(fields)
    sup = ClusterSupervisor(
        config=ServeConfig(**config),
        fault_plan=fault_plan,
        instrumentation=Instrumentation(),
    )
    sup.transport = InProcessTransport()
    return sup


def alternating(count=30):
    return [
        ServeEvent("a" if i % 2 == 0 else "b", "s1", i, 10 * i)
        for i in range(count)
    ]


def reference(events, horizon):
    runtime = serve_events({"r": "a ; b"}, events, horizon=horizon)
    return stamp_multiset(o.timestamp for o in runtime.detections_of("r"))


def served(sup):
    return stamp_multiset(sup.timestamps_of("r"))


def unavailable_count(sup):
    return sup.obs.counter("serve.failover.unavailable").value


class TestDispatchTimeoutPark:
    """A shard parked by dispatch timeouts replays its parked tail on revive."""

    def test_revive_replays_every_parked_event(self, tmp_path):
        events = alternating()
        expected = reference(events, 40)
        assert len(expected) == 120
        sup = supervisor(tmp_path)
        sup.register("a ; b", "r")

        async def scenario():
            async with sup:
                for event in events[:10]:
                    assert await sup.ingest(event) == []
                sup.transport.muted.add(0)
                for event in events[10:12]:
                    assert await sup.ingest(event) == []
                signals = await sup.drain()
                assert [(s.shard, s.reason) for s in signals] == [
                    (0, "dispatch timeout")
                ]
                # Parked means no worker: nothing live can swallow a revive.
                assert sup._shards[0].state is ShardState.PARKED
                assert 0 not in sup._workers
                assert sup.status().unavailable == {0: "dispatch timeout"}
                sup.transport.muted.clear()
                parked = [s for e in events[12:20] for s in await sup.ingest(e)]
                assert len(parked) == 8
                assert await sup.revive(0)
                for event in events[20:]:
                    assert await sup.ingest(event) == []
                assert await sup.drain(40) == []

        asyncio.run(scenario())
        assert served(sup) == expected
        assert unavailable_count(sup) == 1

    def test_dispatch_timeout_park_rehomes_like_a_budget_park(self, tmp_path):
        events = alternating()
        expected = reference(events, 40)
        sup = supervisor(tmp_path, procs=2, rebalance_grace=0.0)
        home = sup.register("a ; b", "r")

        async def scenario():
            async with sup:
                for event in events[:8]:
                    assert await sup.ingest(event) == []
                sup.transport.muted.add(home)
                for event in events[8:10]:
                    assert await sup.ingest(event) == []
                signals = await sup.drain()
                assert [(s.shard, s.reason) for s in signals] == [
                    (home, "dispatch timeout")
                ]
                assert sup._shards[home].rehome_at is not None
                sup.transport.muted.clear()
                for event in events[10:]:
                    await sup.ingest(event)  # the first one re-homes
                assert await sup.drain(40) == []

        asyncio.run(scenario())
        assert sup.rehomes == 1
        assert sup.router.shards == 1
        assert sup.status().healthy
        assert unavailable_count(sup) == 1
        assert served(sup) == expected


def record_moves(monkeypatch):
    """Every state and phase move the supervisor really makes."""
    moves: set[tuple] = set()
    enter, enter_phase = ClusterSupervisor._enter, ClusterSupervisor._enter_phase

    def recording_enter(self, index, state, **kwargs):
        before = self._shards[index].state
        enter(self, index, state, **kwargs)
        if self._shards[index].state is not before:
            moves.add((before, state))

    def recording_enter_phase(self, phase):
        before = self._phase
        enter_phase(self, phase)
        if self._phase is not before:
            moves.add((before, phase))

    monkeypatch.setattr(ClusterSupervisor, "_enter", recording_enter)
    monkeypatch.setattr(ClusterSupervisor, "_enter_phase", recording_enter_phase)
    return moves


def edges(table):
    return {(old, new) for old, targets in table.items() for new in targets}


class TestTables:
    def test_every_edge_is_taken(self, tmp_path, monkeypatch):
        moves = record_moves(monkeypatch)
        events = alternating(12)
        # Shard 0's first two spawns fail: with retry_budget=1 it parks.
        sup = supervisor(tmp_path, fault_plan=FaultPlan(fail_spawns=((0, 2),)))
        sup.register("a ; b", "r")

        async def scenario():
            async with sup:
                assert sup._shards[0].state is ShardState.PARKED
                assert await sup.revive(0)
                for event in events[:6]:
                    assert await sup.ingest(event) == []
                sup._kill(0, sup._workers[0], "test kill")
                sup.transport.stillborn = 1  # the next respawn dies at once
                for event in events[6:]:
                    assert await sup.ingest(event) == []
                await sup.scale(1)
                assert await sup.drain(20) == []

        asyncio.run(scenario())
        assert moves == edges(_TRANSITIONS) | edges(_PHASE_TRANSITIONS)
        assert served(sup) == reference(events, 20)

    def test_an_unlisted_move_raises(self, tmp_path):
        sup = supervisor(tmp_path)

        async def scenario():
            with pytest.raises(ReproError, match="from down to live"):
                sup._enter(0, ShardState.LIVE)
            async with sup:
                worker = sup._workers[0]
                with pytest.raises(ReproError, match="from live to parked"):
                    sup._enter(0, ShardState.PARKED)
                sup._kill(0, worker, "test kill")
                # DOWN -> PARKED is listed, but not while a worker is attached.
                with pytest.raises(ReproError, match="park with a worker"):
                    sup._enter(0, ShardState.PARKED)
            assert sup._phase is ClusterPhase.STOPPING
            with pytest.raises(ReproError, match="from stopping to scaling"):
                await sup.scale(1)
            with pytest.raises(ReproError, match="from stopping to running"):
                await sup.start()

        asyncio.run(scenario())

    def test_a_killed_incarnations_late_eof_leaves_its_successor_live(
        self, tmp_path
    ):
        sup = supervisor(tmp_path)

        async def scenario():
            async with sup:
                old = sup._workers[0]
                sup._kill(0, old, "test kill")
                assert sup._shards[0].state is ShardState.DOWN
                assert await sup._recover(0)
                new = sup._workers[0]
                assert new is not old
                # The old reader was cancelled by the reap; run it again to
                # deliver its EOF after the successor is live.
                await sup._read_loop(0, old)
                assert sup._shards[0].state is ShardState.LIVE
                assert sup._workers[0] is new
                assert await sup.drain() == []

        asyncio.run(scenario())


def doc_table(header):
    """``{name: (entered from, leaves to)}`` of the docs table under ``header``."""
    lines = DOCS.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} |"))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name = cells[0].strip("`")
        rows[name] = tuple(
            frozenset(re.findall(r"`([a-z]+)`", cell)) for cell in cells[2:4]
        )
    return rows


@pytest.mark.parametrize(
    "header, table",
    [("shard state", _TRANSITIONS), ("cluster phase", _PHASE_TRANSITIONS)],
)
def test_docs_tables_match_the_code(header, table):
    expected = {
        old.value: (
            frozenset(o.value for o, news in table.items() if old in news),
            frozenset(new.value for new in news),
        )
        for old, news in table.items()
    }
    assert doc_table(header) == expected
