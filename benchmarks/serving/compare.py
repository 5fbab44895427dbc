"""Compare two results of ``run.py --out``: A (parent) against B (change).

``python benchmarks/serving/compare.py A B`` prints, per workload and
end-to-end metric, each side's median and quartiles, the share by which
B is worse than A, A's own spread (the distance between its quartiles
over its median) and a verdict against the bound in ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound;
``REGRESSION``  it is;
``unresolved``  A's spread is wider than the bound, so neither can be said
                (unless every value of B reads better than every one of A).

``failed_share`` has no spread to judge by: its bound is an absolute 0,
and a workload on which anything failed on either side reads ``FAILED``.

A side is one result file or a directory of them, one per seed (``for s
in 1 2 3; do run.py --seed $s --out A/$s.json; done``).  Its values are
its runs' values when it holds several runs of a workload, else the
per-pass samples of its one run.  Exits 1 on any regression or failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from run import SPEC, quartiles

Runs = list[dict[str, Any]]


def load(path: str) -> Runs:
    """The runs of one result file, or of every one in a directory."""
    side = Path(path)
    files = sorted(side.glob("*.json")) if side.is_dir() else [side]
    return [
        run for file in files for run in json.loads(file.read_text("utf-8"))["runs"]
    ]


def values_of(runs: Runs, workload: str, metric: str) -> list[float]:
    runs = [
        run
        for run in runs
        if run["workload"] == workload and metric in run["metrics"]
    ]
    if len(runs) == 1:
        samples = runs[0]["samples"].get(metric, [])
        if len(samples) > 1:
            return samples
    return [run["metrics"][metric]["value"] for run in runs]


def compare(a: Runs, b: Runs) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':20s} {'metric':22s} {'A median (q1..q3)':>34s} "
        f"{'B median (q1..q3)':>34s} {'worse':>7s} {'spread':>7s} "
        f"{'bound':>6s}  verdict"
    ]
    bad = False
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va, vb = values_of(a, workload, name), values_of(b, workload, name)
            if not va or not vb:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            higher = metric["better"] == "higher"
            worse = (am - bm) / am if higher else (bm - am) / am
            spread = (a3 - a1) / am
            b_wins = min(vb) > max(va) if higher else max(vb) < min(va)
            if spread > metric["bound"]:
                verdict = "ok" if b_wins else "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "ok"
            lines.append(
                f"{workload:20s} {name:22s} "
                f"{f'{am:.5g} ({a1:.5g}..{a3:.5g})':>34s} "
                f"{f'{bm:.5g} ({b1:.5g}..{b3:.5g})':>34s} "
                f"{worse:>+7.1%} {spread:>7.1%} {metric['bound']:>6.0%}  "
                f"{verdict} [n={len(va)},{len(vb)} {metric['unit']}]"
            )
        worst = [
            max(
                (r["failed_share"] for r in side if r["workload"] == workload),
                default=0.0,
            )
            for side in (a, b)
        ]
        failed = max(worst) > 0
        bad |= failed
        lines.append(
            f"{workload:20s} {'failed_share':22s} {worst[0]:>34.5g} "
            f"{worst[1]:>34.5g} {'':>7s} {'':>7s} {'0':>6s}  "
            f"{'FAILED' if failed else 'ok'} [worst run, ratio]"
        )
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines, bad = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
