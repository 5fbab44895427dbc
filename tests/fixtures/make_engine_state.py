"""Write the engine checkpoint fixture ``tests/test_detection_engine.py`` loads.

Run it on the commit whose snapshot layouts are to be pinned (the
committed file was written by the parent of the one-engine change,
``09eede7``, where the distributed layout still had its own
``snapshot_distributed`` / ``restore_distributed``)::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_engine_state.py OUT_DIR

``engine_checkpoint.json``
    ``local``: the exact ``json.dumps(snapshot(detector))`` text of a
    one-site ``Detector`` after ``before`` was fed.  ``distributed``: the
    same text for a two-site ``DistributedDetector`` after ``before``
    with the last feed's messages still in the outbox, and the
    detections (by ``detection_key``) the writing commit got from
    restoring it into a fresh engine and feeding ``after``.
"""

import json
import os
import sys

from repro.contexts.policies import Context
from repro.detection import checkpoint
from repro.detection.approximate import detection_key
from repro.detection.coordinator import DistributedDetector
from repro.detection.detector import Detector
from repro.time.timestamps import PrimitiveTimestamp

RATIO = 10
RULES = {
    "seq": ("a ; b", "recent"),
    "both": ("(a ; b) and c", "chronicle"),
    "late": ("a + 4", "unrestricted"),
    "per": ("P(a, 2, c)", "unrestricted"),
    "count": ("times(2, b)", "unrestricted"),
}
HOMES = {"a": "s1", "b": "s2", "c": "s2"}


def stream(count: int) -> list[list]:
    """Rows ``[event_type, granule, local]``; the site is the type's home."""
    return [["abc"[i % 3], 1 + i // 2, 10 * (1 + i // 2) + i % 2] for i in range(count)]


def register_all(engine) -> None:
    for name, (expression, context) in RULES.items():
        engine.register(expression, name=name, context=Context(context))


def drive(engine, rows, pump: bool) -> list:
    """Feed rows, advancing the clock to each row's granule first."""
    fired = []
    now = 0
    for event_type, granule, local in rows:
        if granule > now:
            now = granule
            fired += engine.advance_time(granule)
        fired += engine.feed(
            event_type, PrimitiveTimestamp(HOMES[event_type], granule, local)
        )
        if pump:
            fired += engine.pump()
    return fired


def build_distributed() -> DistributedDetector:
    engine = DistributedDetector(["s1", "s2"], timer_ratio=RATIO)
    for event_type, home in HOMES.items():
        engine.set_home(event_type, home)
    register_all(engine)
    return engine


def keys(detections) -> list[list[str]]:
    return sorted(list(detection_key(d)) for d in detections)


def main(out_dir: str) -> None:
    rows = stream(30)
    before, after = rows[:17], rows[17:]
    horizon = rows[-1][1] + 6

    local = Detector(site="solo", timer_ratio=RATIO)
    register_all(local)
    drive(local, before, pump=False)

    snapshot = getattr(checkpoint, "snapshot_distributed", checkpoint.snapshot)
    restore = getattr(checkpoint, "restore_distributed", checkpoint.restore)
    first = build_distributed()
    drive(first, before[:-1], pump=True)
    drive(first, before[-1:], pump=False)
    assert first.outbox, "the snapshot must hold in-flight messages"
    text = json.dumps(snapshot(first))
    state = json.loads(text)
    assert state["plus_timers"] and state["nodes"]
    second = build_distributed()
    restore(second, state)
    fired = second.pump() + drive(second, after, pump=True)
    fired += second.advance_time(horizon) + second.pump()

    document = {
        "rules": RULES,
        "homes": HOMES,
        "timer_ratio": RATIO,
        "before": before,
        "after": after,
        "horizon": horizon,
        "local": json.dumps(checkpoint.snapshot(local)),
        "distributed": {"snapshot": text, "detected": keys(fired)},
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "engine_checkpoint.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, sort_keys=True, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
