"""Tests for the sans-IO cluster core (``repro.serve.core.ClusterCore``).

No asyncio and no subprocess: the core plus plain ``ShardReplica``\\ s
applied inline, over both backings (in memory and a state directory).
"""

import json
import os
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.serve import ServeConfig, serve_events
from repro.serve.core import (
    CheckpointStore,
    ClusterCore,
    FaultInjector,
    FaultPlan,
)
from tests.conftest import serve_stream as stream
from tests.conftest import stamp_multiset as tsmultiset

RULES = {
    "rt": "buy ; sell",
    "pair": "buy and sell",
    "per": "P(buy, 2, cancel)",
    "plus": "(buy ; sell) + 3",
}

TIMER_RATIO = 10


class Inline:
    """The smallest possible driver: every logged entry applied at once."""

    def __init__(self, core):
        self.core = core
        for name, expression in sorted(RULES.items()):
            core.register(expression, name)
        self.replicas = {
            shard: core.replica(shard) for shard in range(core.router.shards)
        }
        self.accepted = []

    def apply(self, entries):
        for shard, entry in entries:
            replica = self.replicas[shard]
            self.accepted += self.core.accept(shard, replica.apply(entry))
            if self.core.checkpoint_due(entry.seq):
                self.core.save_checkpoint(shard, replica.snapshot())

    def ingest(self, events):
        for event in events:
            self.apply(self.core.log_event(event))

    def scale(self, shards):
        self.apply(self.core.begin_scale(shards))
        sources = {
            shard: replica.detector for shard, replica in self.replicas.items()
        }
        report, self.replicas = self.core.migrate(shards, sources)
        return report

    def multisets(self):
        return {
            name: tsmultiset(
                tagged.detection.occurrence.timestamp
                for tagged in self.accepted
                if tagged.detection.name == name
            )
            for name in RULES
        }


def baseline_multisets(events, horizon):
    runtime = serve_events(
        RULES,
        events,
        config=ServeConfig(shards=1, timer_ratio=TIMER_RATIO),
        horizon=horizon,
    )
    return {
        name: tsmultiset(o.timestamp for o in runtime.detections_of(name))
        for name in RULES
    }


@pytest.fixture(params=["memory", "disk"])
def state_dir(request, tmp_path):
    return None if request.param == "memory" else str(tmp_path / "state")


_opened = []


@pytest.fixture(autouse=True)
def close_cores():
    yield
    while _opened:
        _opened.pop().close()


def make_core(shards, state_dir, **kwargs):
    core = ClusterCore(
        shards, timer_ratio=TIMER_RATIO, state_dir=state_dir, **kwargs
    )
    _opened.append(core)
    return core


def make(shards, state_dir, **kwargs):
    kwargs.setdefault("checkpoint_every", 8)
    return Inline(make_core(shards, state_dir, **kwargs))


def test_one_epoch_per_fan_out(state_dir):
    # salt=5 spreads the rules over both shards, so "buy" fans out.
    driver = make(2, state_dir, salt=5)
    core = driver.core
    events = stream(24)
    fanned = 0
    for event in events[:12]:
        entries = core.log_event(event)
        assert [shard for shard, _ in entries] == list(
            core.router.route(event.event_type)
        )
        fanned = max(fanned, len(entries))
        # The whole fan-out is in the WALs before anything is applied.
        for shard, entry in entries:
            assert core.wals[shard].last_seq == entry.seq
        driver.apply(entries)
    assert fanned == 2
    driver.scale(3)
    driver.ingest(events[12:])
    assert core.router.epoch == 1
    assert all(len(epochs) == 1 for epochs in core.granule_epochs.values())
    assert {e for epochs in core.granule_epochs.values() for e in epochs} == {
        0, 1,
    }
    assert core.events_ingested + core.events_unrouted == len(events)
    assert core.events_applied >= core.events_ingested


def test_recovery_falls_back_a_generation_and_takes_the_longer_tail(state_dir):
    driver = make(1, state_dir, checkpoint_every=4)
    core = driver.core
    events = stream(10, types=("buy", "sell"))
    driver.ingest(events[:4])  # checkpoint at seq 4, intact
    core.faults = FaultInjector(FaultPlan(corrupt_checkpoints=(0,)))
    driver.ingest(events[4:])  # checkpoint at seq 8 is written corrupt
    assert core.checkpoints == 2
    rules, state, tail = core.recovery(0)
    assert [name for name, _, _ in rules] == sorted(RULES)
    assert state["seq"] == 4
    assert [entry.seq for entry in tail] == [5, 6, 7, 8, 9, 10]
    assert core.stores[0].corrupt_loads >= 1


def test_rebuild_accepts_nothing_already_delivered(state_dir):
    driver = make(2, state_dir, salt=5)
    core = driver.core
    driver.ingest(stream(40))
    assert driver.accepted
    delivered = core.ledger.accepted
    rebuilt = {}
    for shard in range(2):
        rebuilt[shard], accepted = core.rebuild(shard)
        assert accepted == []
        assert rebuilt[shard].applied_seq == driver.replicas[shard].applied_seq
    assert core.ledger.accepted == delivered
    assert core.ledger.duplicates > 0
    assert core.replayed > 0
    # ...and the rebuilt replicas hold what the live ones hold: the
    # pending timers fire the same detections on both.
    for shard, entry in core.log_advance(stream(40)[-1].granule + 8):
        fired = [
            sorted(str(t.detection.occurrence.timestamp) for t in r.apply(entry))
            for r in (driver.replicas[shard], rebuilt[shard])
        ]
        assert fired[0] == fired[1]


def test_rebuild_delivers_what_the_dead_replica_never_did(state_dir):
    driver = make(1, state_dir)
    core = driver.core
    events = stream(40)
    driver.ingest(events[:20])
    # Entries logged but never applied: the replica died first.
    for event in events[20:]:
        core.log_event(event)
    driver.replicas[0], accepted = core.rebuild(0)
    driver.accepted += accepted
    assert accepted
    horizon = events[-1].granule + 8
    driver.apply(core.log_advance(horizon))
    assert driver.multisets() == baseline_multisets(events, horizon)


def test_migrate_2_4_3_yields_the_one_shard_multiset(state_dir):
    driver = make(2, state_dir)
    events = stream(60)
    horizon = events[-1].granule + 8
    driver.ingest(events[:20])
    up = driver.scale(4)
    driver.ingest(events[20:40])
    down = driver.scale(3)
    driver.ingest(events[40:])
    driver.apply(driver.core.log_advance(horizon))
    assert driver.multisets() == baseline_multisets(events, horizon)
    assert (up.from_shards, up.to_shards, up.epoch) == (2, 4, 1)
    assert (down.from_shards, down.to_shards, down.epoch) == (4, 3, 2)
    assert driver.core.rebalances == 2
    # Every new shard resumes numbering past the old layout's high-water.
    assert all(wal.last_seq >= down.seq for wal in driver.core.wals.values())


def test_both_backings_agree(tmp_path):
    def run(state_dir):
        driver = make(2, state_dir)
        events = stream(60)
        driver.ingest(events[:20])
        reports = [driver.scale(4)]
        driver.ingest(events[20:40])
        reports.append(driver.scale(3))
        driver.ingest(events[40:])
        driver.apply(driver.core.log_advance(events[-1].granule + 8))
        core = driver.core
        return (
            [report.to_dict() for report in reports],
            {shard: wal.last_seq for shard, wal in core.wals.items()},
            core.ledger.accepted,
            core.checkpoints,
            driver.multisets(),
        )

    assert run(None) == run(str(tmp_path / "state"))


def test_scale_discards_every_file_of_the_old_layout(tmp_path):
    """Regression: ``.ckpt.prev`` generations of vanished shards used to
    survive a scale and were read back by ``CheckpointStore(path)``."""
    state_dir = str(tmp_path / "state")
    driver = make(3, state_dir, salt=5, checkpoint_every=8)
    events = stream(90)
    driver.ingest(events[:40])
    # Two generations exist somewhere before the first scale.
    assert any(name.endswith(".ckpt.prev") for name in os.listdir(state_dir))
    driver.scale(2)
    driver.ingest(events[40:70])
    report = driver.scale(1)
    listing = set(os.listdir(state_dir))
    assert {"shard0.wal", "shard0.ckpt"} <= listing
    assert listing <= {"shard0.wal", "shard0.ckpt", "shard0.ckpt.prev"}
    store = CheckpointStore(os.path.join(state_dir, "shard0.ckpt"))
    assert store.load()["seq"] >= report.seq
    if "shard0.ckpt.prev" in listing:
        assert store.retain_after >= report.seq
    for gone in (1, 2):
        path = os.path.join(state_dir, f"shard{gone}.ckpt")
        assert CheckpointStore(path).load() is None


def test_reopened_core_resumes_numbering_past_everything_durable(tmp_path):
    state_dir = str(tmp_path / "state")
    first = make(2, state_dir, salt=5)
    first.ingest(stream(40))
    marks = {shard: wal.last_seq for shard, wal in first.core.wals.items()}
    assert all(marks.values())
    first.core.close()
    for shard in range(2):  # even with the log itself gone
        os.remove(os.path.join(state_dir, f"shard{shard}.wal"))
    reopened = make_core(2, state_dir, salt=5)
    for shard, wal in reopened.wals.items():
        state = reopened.stores[shard].load()
        assert wal.last_seq >= state["seq"] > 0


def test_migration_is_refused_where_state_cannot_move(state_dir):
    from repro.errors import ReproError

    driver = make(2, state_dir)
    with pytest.raises(ReproError, match="positive"):
        driver.core.begin_scale(0)
    approximate = make_core(2, state_dir, approximate=True)
    with pytest.raises(ReproError, match="approximate"):
        approximate.begin_scale(3)
    assert not approximate.checkpoint_due(approximate.checkpoint_every)


def test_checkpoint_observes_what_the_wal_still_holds(state_dir):
    from repro.obs.instrument import Instrumentation

    obs = Instrumentation()
    core = make_core(1, state_dir, checkpoint_every=4, instrumentation=obs)
    driver = Inline(core)
    events = stream(12, types=("buy", "sell"))
    # Log everything first, apply afterwards: the driver runs ahead of
    # the replica the way the live supervisor runs ahead of its worker.
    logged = [entry for event in events for entry in core.log_event(event)]
    driver.apply(logged)
    retained = obs.histogram("serve.wal.retained", shard=0)
    assert core.checkpoints == retained.count == 3
    # One generation of slack (4, once there is a previous generation)
    # plus the run-ahead (all 12 were logged before any was applied):
    # 12 at seq 4, 4 + 4 at seq 8, 4 + 0 at seq 12.
    summary = retained.summary()
    assert (summary["max"], summary["mean"], summary["min"]) == (12, 8, 4)
    assert len(core.wals[0]) == 4


# --- CheckpointStore does each thing once ------------------------------------


def reference_document(state, crc_xor=0):
    payload = json.dumps(state, sort_keys=True)
    crc = zlib.crc32(payload.encode("utf-8")) ^ crc_xor
    return json.dumps({"crc": crc, "state": state}, sort_keys=True)


json_states = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@given(
    state=st.dictionaries(st.text(max_size=4), json_states, max_size=4),
    corrupt=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_checkpoint_document_is_the_reference_serialisation(state, corrupt):
    assert CheckpointStore._encode(state, corrupt) == reference_document(
        state, 0xDEADBEEF if corrupt else 0
    )


def test_checkpoint_document_matches_the_parent_written_fixtures():
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    with open(os.path.join(fixtures, "shard0.ckpt"), encoding="utf-8") as h:
        written = h.read()
    # The parent's bytes, reproduced from the state they hold.
    state = json.loads(written)["state"]
    assert CheckpointStore._encode(state, False) == written
    for name in ("replica_checkpoint.json", "runtime_checkpoint.json"):
        with open(os.path.join(fixtures, name), encoding="utf-8") as handle:
            doc = json.load(handle)
        assert CheckpointStore._encode(doc, False) == reference_document(doc)


def test_retain_after_is_remembered_not_reparsed(tmp_path, monkeypatch):
    path = str(tmp_path / "shard0.ckpt")
    store = CheckpointStore(path)
    decodes = []
    real = CheckpointStore._decode
    monkeypatch.setattr(
        CheckpointStore,
        "_decode",
        staticmethod(lambda text: decodes.append(1) or real(text)),
    )
    watermarks = []
    for seq, corrupt in [(4, False), (9, True), (12, False), (20, False)]:
        store.save({"seq": seq}, corrupt=corrupt)
        watermarks.append(store.retain_after)
    # A generation that fails its CRC covers nothing when it is rotated.
    assert watermarks == [0, 4, 0, 12] and decodes == []
    reopened = CheckpointStore(path)
    assert reopened.retain_after == 12 and len(decodes) == 2
    store.save({"seq": 31}, corrupt=True)
    store.save({"seq": 40})
    assert CheckpointStore(path).retain_after == store.retain_after == 0
    store.discard()
    assert store.retain_after == 0 and CheckpointStore(path).retain_after == 0
