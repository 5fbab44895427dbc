"""The fuzzing campaign driver: generate, run, shrink, persist, report.

``fuzz`` runs ``cases`` generated cases from a master seed (optionally
wall-clock bounded by ``budget`` seconds).  Every failing case is
minimized with :func:`repro.conformance.shrinker.shrink` and written as
a replay artifact; the returned :class:`FuzzReport` aggregates per-check
run/failure/skip counts and renders the human summary the CLI and CI
print.  ``replay`` re-runs one saved artifact and reports whether the
verdict reproduced.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.conformance.artifacts import load_artifact, save_artifact
from repro.conformance.generator import generate_case
from repro.conformance.runner import CaseResult, run_case
from repro.conformance.shrinker import shrink


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing campaign."""

    seed: int
    cases: int = 0
    failures: int = 0
    events: int = 0
    detections: int = 0
    check_runs: Counter = field(default_factory=Counter)
    check_failures: Counter = field(default_factory=Counter)
    check_skips: Counter = field(default_factory=Counter)
    failing_seeds: list[int] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    truncated: bool = False
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def add(self, result: CaseResult) -> None:
        self.cases += 1
        self.events += len(result.case.events)
        self.detections += result.detections
        if not result.passed:
            self.failures += 1
            self.failing_seeds.append(result.case.seed)
        for check in result.checks:
            if check.skipped:
                self.check_skips[check.name] += 1
            else:
                self.check_runs[check.name] += 1
                if not check.passed:
                    self.check_failures[check.name] += 1

    def render(self) -> str:
        """The human summary printed by ``repro fuzz``."""
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"fuzz {status}: seed={self.seed} cases={self.cases} "
            f"failures={self.failures} events={self.events} "
            f"detections={self.detections} elapsed={self.elapsed:.1f}s"
        ]
        if self.truncated:
            lines.append("  (budget exhausted before all cases ran)")
        names = sorted(
            set(self.check_runs) | set(self.check_skips)
            | set(self.check_failures)
        )
        lines.append(f"  {'check':<12} {'runs':>6} {'failures':>9} {'skipped':>8}")
        for name in names:
            lines.append(
                f"  {name:<12} {self.check_runs[name]:>6} "
                f"{self.check_failures[name]:>9} {self.check_skips[name]:>8}"
            )
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


def fuzz(
    seed: int,
    cases: int,
    budget: float | None = None,
    artifact_dir: str | None = None,
    include_temporal: bool = True,
    shrink_failures: bool = True,
    shrink_attempts: int = 300,
    progress: Callable[[CaseResult], None] | None = None,
    checks: Sequence[str] | None = None,
) -> FuzzReport:
    """Run a campaign of ``cases`` cases derived from ``seed``.

    Deterministic for a given (seed, cases, include_temporal) — the only
    wall-clock dependence is the optional ``budget`` cutoff, which can
    truncate the campaign but never changes any case's verdict.
    ``checks`` restricts every case to the named differential checks
    (the CLI's repeatable ``--check`` flag); shrinking uses the same
    restriction so a minimized case still fails the selected checks.
    """
    report = FuzzReport(seed=seed)
    started = time.monotonic()
    for index in range(cases):
        if budget is not None and time.monotonic() - started >= budget:
            report.truncated = True
            break
        case = generate_case(
            seed * 1_000_003 + index, include_temporal=include_temporal
        )
        result = run_case(case, checks=checks)
        report.add(result)
        if progress is not None:
            progress(result)
        if not result.passed:
            final = result
            if shrink_failures:
                shrunk, _ = shrink(
                    case,
                    lambda candidate: not run_case(
                        candidate, checks=checks
                    ).passed,
                    max_attempts=shrink_attempts,
                )
                final = run_case(shrunk, checks=checks)
                if final.passed:  # shrinking lost the bug; keep the original
                    final = result
            if artifact_dir is not None:
                path = os.path.join(
                    artifact_dir, f"fuzz-{seed}-{index:04d}.json"
                )
                report.artifacts.append(save_artifact(path, final))
    report.elapsed = time.monotonic() - started
    return report


def replay(path: str) -> tuple[CaseResult, bool]:
    """Re-run one artifact; returns (fresh result, verdict reproduced)."""
    artifact = load_artifact(path)
    result = run_case(artifact.case)
    recorded = artifact.verdict.get("passed")
    reproduced = recorded is None or recorded == result.passed
    return result, reproduced
