"""The two drivers of ``ClusterCore`` against each other.

``LocalFailoverCluster`` (what conformance runs) and
``ClusterSupervisor`` (what ``--procs``/``--workers`` ship) must do the
same thing to the same stream, plus the two places they rightly differ:
what a scale leaves on disk, and a rule registered after ``start()``.
"""

import asyncio
import os

import pytest

from repro.errors import ReproError
from repro.serve import CheckpointStore, FaultPlan, ServeConfig, serve_events
from repro.serve.cluster import ClusterSupervisor, LocalFailoverCluster
from tests.conftest import serve_stream as stream
from tests.conftest import stamp_multiset as tsmultiset

RULES = {
    "rt": "buy ; sell",
    "pair": "buy and sell",
    "per": "P(buy, 2, cancel)",
    "plus": "(buy ; sell) + 3",
}

# salt=5 spreads RULES over both starting shards, so both kills bite.
SALT = 5
TIMER_RATIO = 10


def supervisor_config(tmp_path, shards, codec="auto", checkpoint_every=10):
    return ServeConfig(
        shards=shards,
        salt=SALT,
        timer_ratio=TIMER_RATIO,
        state_dir=str(tmp_path / "state"),
        heartbeat_interval=0.1,
        miss_threshold=50,
        checkpoint_every=checkpoint_every,
        codec=codec,
    )


def fingerprint(cluster, reports, multisets):
    core = cluster.core
    return {
        "last_seq": {shard: wal.last_seq for shard, wal in core.wals.items()},
        "accepted": core.ledger.accepted,
        "reports": [
            {k: v for k, v in report.to_dict().items() if k != "handoff_fallbacks"}
            for report in reports
        ],
        "multisets": multisets,
        "counters": (
            core.events_ingested, core.events_unrouted, core.events_applied,
            core.rebalances, core.router.epoch,
        ),
    }


@pytest.mark.slow
@pytest.mark.parametrize("codec", ["jsonl", "binary"])
def test_twins_agree_under_kills_a_corrupt_checkpoint_and_a_scale(tmp_path, codec):
    events = stream(60)
    horizon = events[-1].granule + 8
    cut = 32  # a granule boundary of the 4-per-granule stream

    def plan():
        # Shard 1 dies holding only a corrupt checkpoint: full-WAL replay.
        return FaultPlan(kills=((0, 12), (1, 15)), corrupt_checkpoints=(1,))

    local = LocalFailoverCluster(
        2,
        salt=SALT,
        timer_ratio=TIMER_RATIO,
        checkpoint_every=10,
        fault_plan=plan(),
        codec="binary" if codec == "binary" else None,
    )
    for name, expression in sorted(RULES.items()):
        local.register(expression, name)
    local_reports = []
    for count, event in enumerate(events):
        if count == cut:
            local_reports.append(local.scale(3))
        local.ingest(event)
    assert local.drain(horizon) == []

    async def drive():
        supervisor = ClusterSupervisor(
            config=supervisor_config(tmp_path, 2, codec), fault_plan=plan()
        )
        for name, expression in sorted(RULES.items()):
            supervisor.register(expression, name)
        reports = []
        async with supervisor:
            for count, event in enumerate(events):
                if count == cut:
                    reports.append(await supervisor.scale(3))
                assert await supervisor.ingest(event) == []
            assert await supervisor.drain(horizon) == []
        return supervisor, reports

    supervisor, supervisor_reports = asyncio.run(drive())

    assert local.restarts == 2 and supervisor.restarts >= 2
    assert fingerprint(
        supervisor,
        supervisor_reports,
        {name: tsmultiset(supervisor.timestamps_of(name)) for name in RULES},
    ) == fingerprint(
        local,
        local_reports,
        {
            name: tsmultiset(o.timestamp for o in local.detections_of(name))
            for name in RULES
        },
    )


@pytest.mark.slow
def test_supervisor_scale_leaves_no_file_of_a_dead_shard_map(tmp_path):
    """Regression: ``shard{k}.ckpt.prev`` of shards scaled away stayed in
    the state directory, where ``CheckpointStore(path)`` reads it back."""
    events = stream(90)
    state_dir = str(tmp_path / "state")

    async def drive():
        supervisor = ClusterSupervisor(
            config=supervisor_config(tmp_path, 3, checkpoint_every=8)
        )
        for name, expression in sorted(RULES.items()):
            supervisor.register(expression, name)
        async with supervisor:
            for event in events[:40]:
                await supervisor.ingest(event)
            await supervisor.drain()
            assert any(
                name.endswith(".ckpt.prev") for name in os.listdir(state_dir)
            )
            await supervisor.scale(2)
            for event in events[40:70]:
                await supervisor.ingest(event)
            report = await supervisor.scale(1)
            for event in events[70:]:
                await supervisor.ingest(event)
            await supervisor.drain(events[-1].granule + 8)
        return report

    report = asyncio.run(drive())
    listing = set(os.listdir(state_dir))
    assert {"shard0.wal", "shard0.ckpt"} <= listing
    assert listing <= {"shard0.wal", "shard0.ckpt", "shard0.ckpt.prev"}
    store = CheckpointStore(os.path.join(state_dir, "shard0.ckpt"))
    if "shard0.ckpt.prev" in listing:
        assert store.retain_after >= report.seq
    for gone in (1, 2):
        path = os.path.join(state_dir, f"shard{gone}.ckpt")
        assert CheckpointStore(path).load() is None


@pytest.mark.slow
def test_supervisor_rejects_a_rule_registered_after_start(tmp_path):
    """Regression: the late rule was hashed, bound and routed, but no
    worker ever heard of it — zero rows, no error."""

    async def drive():
        supervisor = ClusterSupervisor(config=supervisor_config(tmp_path, 1))
        supervisor.register("buy ; sell", "early")
        async with supervisor:
            with pytest.raises(ReproError, match="'late'.*before start"):
                supervisor.register("sell ; buy", "late")
            for event in stream(24):
                await supervisor.ingest(event)
            await supervisor.drain()
        return supervisor

    supervisor = asyncio.run(drive())
    assert supervisor.rule_names() == ["early"]
    assert supervisor.detection_rows("early")


def test_local_cluster_late_rule_detects_from_its_registration_point():
    events = stream(48)
    horizon = events[-1].granule + 2
    cluster = LocalFailoverCluster(2, salt=SALT, timer_ratio=TIMER_RATIO)
    cluster.register("buy ; sell", "early")
    for event in events[:24]:
        cluster.ingest(event)
    cluster.register("sell ; buy", "late")
    for event in events[24:]:
        cluster.ingest(event)
    cluster.advance(horizon)
    suffix = serve_events(
        {"late": "sell ; buy"}, events[24:], shards=1,
        timer_ratio=TIMER_RATIO, horizon=horizon,
    )
    late = tsmultiset(o.timestamp for o in cluster.detections_of("late"))
    assert late == tsmultiset(
        o.timestamp for o in suffix.detections_of("late")
    )
    assert late


@pytest.mark.slow
def test_cluster_stdin_decodes_like_the_server_and_scales_in_stream(tmp_path):
    """Client input goes through the server's ``_Connection`` (hello,
    frames, lines, errors); only the admin line is the cluster's own."""
    import io
    import json

    from repro.serve import cluster_serve_stdin, get_codec, hello_line

    events = stream(48)
    lines = [hello_line(["binary", "jsonl"]).encode()]
    lines += [json.dumps(e.to_dict()).encode() for e in events[:16]]
    lines += [b"not json", b"[1, 2]", b'{"op": "scale", "shards": 2}']
    lines += [b'{"op": "scale", "shards": 0}']
    blob = b"\n".join(lines) + b"\n"
    blob += get_codec("binary").encode_batch(events[16:32])
    blob += b"".join(json.dumps(e.to_dict()).encode() + b"\n" for e in events[32:])

    supervisor = ClusterSupervisor(config=supervisor_config(tmp_path, 1))
    supervisor.register("buy ; sell", "rt")
    out = io.StringIO()
    count = asyncio.run(
        cluster_serve_stdin(supervisor, in_stream=io.BytesIO(blob), out_stream=out)
    )
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert count == len(events) == supervisor.events_ingested + supervisor.events_unrouted
    assert rows[0] == {"hello": {"codec": "binary", "version": 1}}
    errors = [row["error"] for row in rows if "error" in row]
    assert [e.split(":")[0] for e in errors] == [
        "invalid JSON event line",
        "event line must be a JSON object, got list",
        "scale failed",
    ]
    [scaled] = [row["scaled"] for row in rows if "scaled" in row]
    assert (scaled["from_shards"], scaled["to_shards"]) == (1, 2)
    baseline = serve_events(
        {"rt": "buy ; sell"}, events, shards=1, timer_ratio=TIMER_RATIO,
        horizon=events[-1].granule + 1,
    )
    assert sum("detection" in row for row in rows) == len(
        baseline.detections_of("rt")
    )
