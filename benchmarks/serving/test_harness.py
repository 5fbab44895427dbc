"""Self-test of the serving benchmark harness, at tiny sizes.

Run with ``pytest benchmarks/serving`` (tier-1 collects only ``tests/``).
"""

from __future__ import annotations

import pytest

import compare
import run
from staged import Tracer, staged_run
from workloads import WORKLOADS, WireRecent

SCALE = 0.05
SECONDS = 0.4
NAMES = [w["name"] for w in run.SPEC["workloads"]]


def test_workloads_are_the_ones_benchmark_json_names():
    assert list(WORKLOADS) == NAMES
    assert run.SPEC["paths"] == ["benchmarks/serving"]
    assert "setup_s" in run.E2E


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_a_run_reports_exactly_the_named_metrics(name, trace):
    spec = run.LAYERS if trace else run.E2E
    result, detail = run.measure(name, 41, SECONDS, trace, SCALE)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(spec)
    for key, entry in result["metrics"].items():
        assert entry["unit"] == spec[key]["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        assert detail["counts"]["passes"] >= run.MIN_PASSES


@pytest.mark.parametrize("name", NAMES)
def test_every_span_nests_inside_its_parent(name, tmp_path):
    wl = WORKLOADS[name](41, SCALE)
    wl.setup()
    reference, _ = wl.reference()
    tracer = Tracer()
    staged = staged_run(wl, tracer, str(tmp_path))
    assert staged.keys == reference
    assert tracer.spans and tracer._open == [-1]
    last_trace = 0
    for index, (_, trace, parent, start, end) in enumerate(tracer.spans):
        assert start <= end
        assert trace >= last_trace
        last_trace = trace
        if parent >= 0:
            assert parent < index
            _, parent_trace, _, parent_start, parent_end = tracer.spans[parent]
            assert parent_trace == trace
            assert parent_start <= start and end <= parent_end
    assert min(tracer.self_ns()) >= 0
    assert sum(tracer.seconds_by_name().values()) <= staged.wall_s


def test_counts_repeat_for_a_seed_and_differ_between_seeds():
    def counts(seed):
        result, detail = run.measure("wire-recent", seed, SECONDS, False, SCALE)
        per_pass = result["attempted"] / (detail["counts"]["passes"] + 1)
        return detail["counts"]["events"], detail["counts"]["detections"], per_pass

    assert counts(41) == counts(41)
    assert counts(41) != counts(42)


def test_the_reference_check_bites_when_one_row_is_dropped(monkeypatch):
    whole = WireRecent.run_pass

    def one_row_short(self):
        result = whole(self)
        result.keys.pop()
        return result

    monkeypatch.setattr(WireRecent, "run_pass", one_row_short)
    result, detail = run.measure("wire-recent", 41, SECONDS, False, SCALE)
    assert not result["correct"]
    # One row missing in the warm-up pass and in every timed pass.
    assert result["failed"] == detail["counts"]["passes"] + 1


def test_compare_judges_by_the_bound_and_fails_on_any_failure():
    def side(rate, failed_share=0.0):
        return [
            {
                "workload": "wire-recent",
                "failed_share": failed_share,
                "samples": {},
                "metrics": {"events_per_s": {"value": rate * (1 + seed / 1000)}},
            }
            for seed in range(10)
        ]

    bound = run.E2E["events_per_s"]["bound"]
    for b_rate, b_failed, verdict in [
        (1000 * (1 - bound / 2), 0.0, "ok"),
        (1000 * (1 - bound * 2), 0.0, "REGRESSION"),
        (1000, 1e-6, "FAILED"),
    ]:
        lines, bad = compare.compare(side(1000), side(b_rate, b_failed))
        assert bad == (verdict != "ok")
        assert any(line.endswith("]") and f" {verdict} [" in line for line in lines)
