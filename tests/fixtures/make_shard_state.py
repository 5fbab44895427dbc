"""Write the two checkpoint fixtures ``tests/test_shard_engine.py`` loads.

Run it on the commit whose state format is to be pinned (the committed
files were written by the parent of the ``ShardEngine`` change,
``45ffc48``)::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_shard_state.py OUT_DIR

``runtime_checkpoint.json``
    ``{"rules", "config", "before", "queued", "after", "horizon",
    "detected", "state"}``: a ``ServingRuntime.checkpoint()`` taken
    after ``before`` was served and drained and ``queued`` was enqueued
    but not yet consumed (so ``pending`` is non-empty), plus what each
    rule had detected by then.
``shard0.ckpt`` (+ ``replica_checkpoint.json``, the stream around it)
    a ``ShardReplica.snapshot()`` saved through ``CheckpointStore``
    after ``before`` was applied one WAL entry per event.
"""

import asyncio
import json
import os
import sys

from repro.serve import (
    CheckpointStore,
    ServeConfig,
    ServeEvent,
    ServingRuntime,
    ShardReplica,
)
from repro.serve.wal import KIND_EVENT, WalEntry

RULES = {
    "rt": "buy ; sell",
    "pair": "buy and sell",
    "late": "buy + 2",
    "per": "P(buy, 1, cancel)",
}
CONFIG = {"shards": 2, "salt": 5, "timer_ratio": 10, "capacity": 64}


def stream(count: int) -> list[ServeEvent]:
    types = ("buy", "sell", "cancel")
    return [
        ServeEvent(types[i % 3], f"s{i % 2}", i // 2, i, {"i": i})
        for i in range(count)
    ]


def multiset(occurrences) -> list[str]:
    return sorted(
        repr(sorted(repr(t) for t in occurrence.timestamp))
        for occurrence in occurrences
    )


def runtime_fixture() -> dict:
    events = stream(40)
    before, queued, after = events[:18], events[18:26], events[26:]
    runtime = ServingRuntime(config=ServeConfig(**CONFIG))
    for name, expression in RULES.items():
        runtime.register(expression, name=name)

    async def first_part() -> tuple[dict, dict]:
        runtime.start()
        for event in before:
            await runtime.ingest(event)
        await runtime.drain()
        # Enqueued without yielding to the workers: two batch items and
        # two single events sit in the queues when the snapshot is taken.
        await runtime.ingest_batch(queued[:3])
        await runtime.ingest_batch(queued[3:6])
        await runtime.ingest(queued[6])
        await runtime.ingest(queued[7])
        # Both read before the loop runs again and the workers consume
        # what was queued.
        detected = {
            name: multiset(runtime.detections_of(name)) for name in RULES
        }
        return runtime.checkpoint(), detected

    state, detected = asyncio.run(first_part())
    assert sum(len(shard["pending"]) for shard in state["states"]) >= 8
    return {
        "rules": RULES,
        "config": CONFIG,
        "before": [event.to_dict() for event in before],
        "queued": [event.to_dict() for event in queued],
        "after": [event.to_dict() for event in after],
        "horizon": events[-1].granule + 4,
        "detected": detected,
        "state": state,
    }


def replica_fixture(out_dir: str) -> dict:
    events = stream(36)
    before, after = events[:16], events[16:]
    replica = ShardReplica(0, timer_ratio=10)
    for name, expression in RULES.items():
        replica.register(expression, name=name)
    detected = []
    for seq, event in enumerate(before, start=1):
        entry = WalEntry(seq=seq, kind=KIND_EVENT, event=event)
        detected.extend(replica.apply(entry))
    CheckpointStore(os.path.join(out_dir, "shard0.ckpt")).save(
        replica.snapshot()
    )
    return {
        "rules": RULES,
        "timer_ratio": 10,
        "before": [event.to_dict() for event in before],
        "after": [event.to_dict() for event in after],
        "horizon": events[-1].granule + 4,
        "detected": multiset(t.detection.occurrence for t in detected),
    }


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, document in (
        ("runtime_checkpoint.json", runtime_fixture()),
        ("replica_checkpoint.json", replica_fixture(out_dir)),
    ):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as out:
            json.dump(document, out, sort_keys=True, indent=1)
            out.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
