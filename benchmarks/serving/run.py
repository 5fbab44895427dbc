"""The repo's serving benchmark: one command, every metric by name.

``python benchmarks/serving/run.py [--seed 41] [--out FILE]`` runs every
workload of ``BENCHMARK.json`` — each in a fresh child process, first
untraced for the end-to-end metrics, then with the staged traced run for
the per-layer ones — checks every pass against a bare-``Detector``
reference, prints each metric with its unit, and exits non-zero when a
check fails.

With ``--workload NAME --seed N --seconds S --trace 0|1`` it is one such
child: it measures that workload for about ``S`` seconds and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text("utf-8"))
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}

#: Timed passes never number fewer than this.
MIN_PASSES = 5
#: Set-ups are repeated (3 to 9 times) until they have taken this long.
SETUP_BUDGET_S = 2.5


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3  # q2 is the median


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload in this process; returns (result line, detail).

    ``scale`` shortens the stream for the harness's own tests; the
    command line has no way to set it, so every reported run is full size.
    """
    from workloads import WORKLOADS, Pass, mismatches

    wl = WORKLOADS[name](seed, scale)
    try:
        # Set-up has no work to average over, so it is repeated, the
        # cheaper the more often, for its median to hold still.
        setups = [wl.setup()]
        while len(setups) < 3 or (sum(setups) < SETUP_BUDGET_S and len(setups) < 9):
            setups.append(wl.setup())
        reference, _ = wl.reference()
        expected = sum(reference.values())
        attempted = failed = 0

        def checked_pass() -> dict[str, float]:
            """Run one pass, check it and keep only its numbers.

            Holding every pass's rows would grow the heap pass by pass
            and slow the later ones, which is not the program's doing.
            """
            nonlocal attempted, failed
            result: Pass = wl.run_pass()
            attempted += result.events + expected
            failed += result.refused + mismatches(reference, result.keys)
            latency = sorted(result.latency_ms)
            return {
                "wall_s": result.wall_s,
                "events": result.events,
                "detections": len(result.keys),
                "latency_rows": len(latency),
                "latency_p50_ms": statistics.median(latency),
                "latency_p99_ms": latency[int(len(latency) * 0.99)],
                "latency_max_ms": latency[-1],
                "late_p50_ms": statistics.median(result.late_ms or [0.0]),
                "drain_ms": result.drain_ms,
                "batches": result.batches,
            }

        checked_pass()  # warm-up, checked but not timed
        samples: dict[str, list[float]] = {}
        table: dict[str, Any] = {}
        if trace:
            from staged import per_layer

            metrics, wrong, table, passes = per_layer(
                wl, reference, seconds, checked_pass
            )
            attempted += expected * table["rounds"]
            failed += wrong
            spec = LAYERS
        else:
            passes = []
            spent = 0.0
            while len(passes) < MIN_PASSES or spent < seconds:
                passes.append(checked_pass())
                spent += passes[-1]["wall_s"]
            samples = {
                "events_per_s": [p["events"] / p["wall_s"] for p in passes],
                "detections_per_s": [p["detections"] / p["wall_s"] for p in passes],
                "detect_latency_p50_ms": [p["latency_p50_ms"] for p in passes],
                "setup_s": setups,
            }
            metrics = {k: statistics.median(v) for k, v in samples.items()}
            metrics["peak_rss_mb"] = wl.peak_rss_mb()
            spec = E2E
    finally:
        wl.cleanup()
    if set(metrics) != set(spec):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(spec)}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": spec[key]["unit"]}
            for key in spec
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "counts": {
            "passes": len(passes),
            "events": passes[0]["events"],
            "detections": expected,
            "latency_rows": sum(p["latency_rows"] for p in passes),
        },
        # Gated by compare.py at an absolute 0; BENCHMARK.json cannot
        # carry it (its bounds are shares of a median that is 0 here).
        "failed_share": failed / attempted,
        "samples": samples,
        "staged": table,
        "passes": passes,
    }
    return result, detail


def show(result: dict[str, Any], detail: dict[str, Any]) -> None:
    counts = detail["counts"]
    print(
        f"# {detail['workload']}  seed={detail['seed']}  "
        f"trace={detail['trace']}  passes={counts['passes']}  "
        f"events={counts['events']}  detections={counts['detections']}"
    )
    rows = dict(result["metrics"])
    if not detail["trace"]:
        rows["failed_share"] = {"value": detail["failed_share"], "unit": "ratio"}
    for key, entry in rows.items():
        line = f"{key:38s} {entry['value']:>16.6g} {entry['unit']}"
        values = detail["samples"].get(key, [])
        if len(values) > 1:
            q1, _, q3 = quartiles(values)
            line += f"   (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
        print(line)
    for flag in detail["staged"].get("flags", []):
        print(f"# FLAG: {flag}")


def child(args: argparse.Namespace) -> int:
    # The kernel of the box this was sized on does not balance load over
    # its two CPUs: a process stays where it was started, so whatever is
    # not pinned shares CPU 0 with the tool that launched the benchmark,
    # and a spawned worker lands beside its parent or not by chance (the
    # same pass took 2.0 s or 3.2 s).  The run therefore takes the last
    # CPU it may use for itself and for everything it spawns.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        import _paths  # noqa: F401
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    show(result, detail)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def everything(args: argparse.Namespace) -> int:
    """Every workload, untraced and then traced, one child at a time.

    One at a time because the box has two cores and a workload may keep
    two processes busy (client + server, supervisor + worker).
    """
    runs = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]  # fmt: skip
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if len(lines) < 2 or not lines[-2].startswith("detail "):
                print(done.stdout, end="")
                print(f"{workload}: no result (exit {done.returncode})")
                return done.returncode or 1
            print("\n".join(lines[:-2]) + "\n")
            runs.append({**json.loads(lines[-2][7:]), **json.loads(lines[-1])})
    if args.out:
        report = {
            "benchmark": "serving",
            "meta": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "loadavg": os.getloadavg(),
                "seconds": args.seconds,
            },
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    wrong = sorted({r["workload"] for r in runs if not r["correct"]})
    if wrong:
        print(f"FAILED reference check: {wrong}")
    return 1 if wrong else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 for the staged, traced run")
    parser.add_argument("--out", help="without --workload: write every run here")
    args = parser.parse_args()
    return child(args) if args.workload else everything(args)


if __name__ == "__main__":
    sys.exit(main())
