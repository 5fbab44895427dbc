"""Performance regression harness behind ``repro bench``.

The ``benchmarks/`` directory regenerates the paper's artifacts under
pytest-benchmark; this module is the *regression* counterpart: a small,
dependency-free suite of hot-path kernels — mirroring the headline
benchmarks (``bench_max_operator``, ``bench_detection``,
``bench_scalability``) plus the micro-kernels underneath them — timed
with ``time.perf_counter`` and compared against a committed baseline
(``benchmarks/baseline.json``).

Running ``repro bench`` emits ``BENCH_<label>.json``::

    {
      "label": "local",
      "quick": false,
      "results": {
        "bench_max_operator": {
          "ops": 9950, "seconds": 0.004, "ops_per_sec": 2.4e6,
          "baseline_ops_per_sec": 1.1e6, "speedup": 2.18
        },
        ...
      }
    }

``speedup`` is this run divided by the committed baseline; ``--check``
exits non-zero when any benchmark falls more than ``--tolerance`` (30 %
by default) below the baseline — the CI perf-smoke gate.  Timings are
best-of-N wall clock, so background noise inflates *individual* rounds
without corrupting the measurement.

See ``docs/performance.md`` for the kernel design this suite guards.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

DEFAULT_BASELINE = Path("benchmarks") / "baseline.json"
REQUIRED = ("bench_max_operator", "bench_detection", "bench_scalability")


@dataclass(frozen=True)
class Bench:
    """One registered benchmark kernel.

    ``setup(quick)`` builds the workload and returns ``(kernel, ops)``
    where ``kernel()`` performs ``ops`` operations of whatever unit the
    benchmark counts (Max folds, events fed, relation classifications).
    """

    name: str
    title: str
    setup: Callable[[bool], tuple[Callable[[], object], int]]
    rounds: int = 5
    quick_rounds: int = 3


# --- kernels ----------------------------------------------------------------


def _chain_of_stamps(length: int, seed: int):
    """A time-advancing chain of composite stamps (mirrors MAX bench)."""
    from repro.analysis.universe import random_primitive
    from repro.time.composite import CompositeTimestamp

    sites = [f"s{i}" for i in range(1, 6)]
    rng = random.Random(seed)
    stamps = []
    base = 0
    for _ in range(length):
        base += rng.randint(0, 3)
        stamps.append(
            CompositeTimestamp.from_iterable(
                random_primitive(rng, sites, (base, base + 2))
                for _ in range(rng.randint(1, 3))
            )
        )
    return stamps


def _setup_max_operator(quick: bool):
    from repro.time.composite import max_of

    chain = _chain_of_stamps(200, seed=7)
    reps = 10 if quick else 50
    folds_per_rep = len(chain) - 1

    def kernel() -> None:
        for _ in range(reps):
            acc = chain[0]
            for stamp in chain[1:]:
                acc = max_of(acc, stamp)

    return kernel, reps * folds_per_rep


def _detection_stream(length: int, seed: int = 17):
    from repro.time.timestamps import PrimitiveTimestamp

    sites = {"a": "s1", "b": "s2", "c": "s3"}
    rng = random.Random(seed)
    stream = []
    for i in range(length):
        event_type = rng.choice(list(sites))
        g = rng.randint(0, 400)
        stream.append(
            (event_type, PrimitiveTimestamp(sites[event_type], g, g * 10 + i % 10))
        )
    stream.sort(key=lambda pair: (pair[1].global_time, pair[1].local))
    return stream


def _setup_detection(quick: bool):
    from repro.detection.detector import Detector

    stream = _detection_stream(60 if quick else 120)

    def kernel() -> int:
        detector = Detector()
        detector.register("(a ; b) and c", name="r")
        for event_type, stamp in stream:
            detector.feed(event_type, stamp)
        return len(detector.detections_of("r"))

    return kernel, len(stream)


def _run_scalability_round(rounds: int) -> int:
    from repro.contexts.policies import Context
    from repro.sim.cluster import DistributedSystem, SimConfig
    from repro.sim.network import ConstantLatency
    from repro.sim.workloads import WorkloadEvent

    sites = [f"s{i}" for i in range(1, 5)]
    system = DistributedSystem(
        sites,
        config=SimConfig(seed=13, latency=ConstantLatency(Fraction(1, 100))),
    )
    for site in sites:
        system.set_home(f"e_{site}", site)
    expression = f"e_{sites[0]}"
    for site in sites[1:]:
        expression = f"({expression} ; e_{site})"
    system.register(expression, name="chain", context=Context.CHRONICLE)
    events = []
    t = Fraction(1)
    for round_index in range(rounds):
        for offset, site in enumerate(sites):
            events.append(
                WorkloadEvent(
                    time=t + Fraction(offset, 4),
                    site=site,
                    event_type=f"e_{site}",
                    parameters={"round": round_index},
                )
            )
        t += Fraction(len(sites), 2) + 1
    system.inject(events)
    system.run()
    return len(events)


def _setup_scalability(quick: bool):
    reps = 3 if quick else 10
    rounds = 10

    def kernel() -> None:
        for _ in range(reps):
            _run_scalability_round(rounds)

    return kernel, reps * rounds * 4  # simulated primitive events


def _setup_relation(quick: bool):
    from repro.analysis.universe import random_composite_universe
    from repro.time.composite import composite_relation

    rng = random.Random(23)
    universe = random_composite_universe(rng, 40 if quick else 60)
    pairs = [(a, b) for a in universe for b in universe]

    def kernel() -> None:
        for a, b in pairs:
            composite_relation(a, b)

    return kernel, len(pairs)


def _setup_max_set(quick: bool):
    from repro.analysis.universe import random_primitive_universe
    from repro.time.composite import max_set

    rng = random.Random(29)
    pools = [
        random_primitive_universe(rng, 48, global_range=(0, 30))
        for _ in range(100 if quick else 400)
    ]

    def kernel() -> None:
        for pool in pools:
            max_set(pool)

    return kernel, len(pools)


def _setup_inject(quick: bool):
    from repro.sim.cluster import DistributedSystem, SimConfig
    from repro.sim.workloads import uniform_stream

    sites = ["a", "b", "c"]
    rng = random.Random(31)
    events = uniform_stream(
        rng, sites, ["e1", "e2"], rate_per_second=40,
        duration_seconds=25 if quick else 100,
    )

    def kernel() -> int:
        system = DistributedSystem(sites, config=SimConfig(seed=3))
        system.inject(events)
        system.run()
        return system.injected_count()

    return kernel, len(events)


BENCHMARKS: dict[str, Bench] = {
    bench.name: bench
    for bench in (
        Bench(
            name="bench_max_operator",
            title="Max-operator folds over a 200-stamp chain",
            setup=_setup_max_operator,
        ),
        Bench(
            name="bench_detection",
            title="local detector feed of (a ; b) and c",
            setup=_setup_detection,
        ),
        Bench(
            name="bench_scalability",
            title="4-site chain detection, end-to-end simulation",
            setup=_setup_scalability,
        ),
        Bench(
            name="bench_relation",
            title="composite_relation over all universe pairs",
            setup=_setup_relation,
        ),
        Bench(
            name="bench_max_set",
            title="max_set over 48-stamp pools",
            setup=_setup_max_set,
        ),
        Bench(
            name="bench_inject",
            title="bulk injection + event-loop drain (no detection)",
            setup=_setup_inject,
        ),
    )
}


# --- measurement -------------------------------------------------------------


def run_suite(
    quick: bool = False, names: Iterable[str] | None = None
) -> dict[str, dict[str, float]]:
    """Time every (selected) benchmark; returns name → measurement."""
    selected = list(names) if names else list(BENCHMARKS)
    results: dict[str, dict[str, float]] = {}
    for name in selected:
        bench = BENCHMARKS[name]
        kernel, ops = bench.setup(quick)
        kernel()  # warm-up: JIT-free but primes caches and allocators
        best = float("inf")
        rounds = bench.quick_rounds if quick else bench.rounds
        # Collector pauses land inside individual rounds and best-of
        # cannot filter them when every round allocates enough to
        # trigger one; measure with the collector off instead.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                start = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
            gc.collect()
        results[name] = {
            "ops": ops,
            "seconds": best,
            "ops_per_sec": ops / best if best > 0 else float("inf"),
        }
    return results


def apply_baseline(
    results: dict[str, dict[str, float]], baseline: dict | None
) -> None:
    """Annotate each entry with the committed baseline and the speedup."""
    if not baseline:
        return
    reference = baseline.get("results", baseline)
    for name, entry in results.items():
        base = reference.get(name)
        if not base:
            continue
        base_rate = base.get("ops_per_sec")
        if base_rate:
            entry["baseline_ops_per_sec"] = base_rate
            entry["speedup"] = entry["ops_per_sec"] / base_rate


def load_baseline(path: Path) -> dict | None:
    """Read a baseline JSON; ``None`` when absent."""
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def regressions(
    results: dict[str, dict[str, float]], tolerance: float
) -> list[str]:
    """Benchmarks slower than ``baseline × (1 - tolerance)``."""
    failed = []
    for name, entry in results.items():
        speedup = entry.get("speedup")
        if speedup is not None and speedup < 1.0 - tolerance:
            failed.append(
                f"{name}: {entry['ops_per_sec']:.0f} ops/s is "
                f"{(1.0 - speedup) * 100:.0f}% below baseline "
                f"{entry['baseline_ops_per_sec']:.0f} ops/s"
            )
    return failed


def render_table(results: dict[str, dict[str, float]]) -> str:
    """Fixed-width summary of a suite run."""
    lines = [
        f"{'benchmark':<22} {'ops':>8} {'seconds':>10} "
        f"{'ops/sec':>12} {'vs baseline':>12}"
    ]
    for name, entry in results.items():
        speedup = entry.get("speedup")
        delta = f"{speedup:.2f}x" if speedup is not None else "-"
        lines.append(
            f"{name:<22} {entry['ops']:>8} {entry['seconds']:>10.4f} "
            f"{entry['ops_per_sec']:>12.0f} {delta:>12}"
        )
    return "\n".join(lines)


def write_report(
    results: dict[str, dict[str, float]],
    label: str,
    quick: bool,
    out_dir: Path,
) -> Path:
    """Write ``BENCH_<label>.json`` and return its path."""
    payload = {
        "label": label,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(args) -> int:
    """Entry point for ``repro bench`` (argparse namespace in, exit code out)."""
    names = args.only or None
    unknown = [n for n in (names or []) if n not in BENCHMARKS]
    if unknown:
        print(f"error: unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = run_suite(quick=args.quick, names=names)
    baseline_path = Path(args.baseline)
    apply_baseline(results, load_baseline(baseline_path))
    path = write_report(results, args.label, args.quick, Path(args.out))
    print(render_table(results))
    print(f"wrote {path}")
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        stripped = {
            name: {k: v for k, v in entry.items() if not k.startswith("baseline")
                   and k != "speedup"}
            for name, entry in results.items()
        }
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"python": platform.python_version(), "results": stripped},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"updated baseline {baseline_path}")
    if args.check:
        failed = regressions(results, args.tolerance)
        for failure in failed:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failed:
            return 1
    return 0
