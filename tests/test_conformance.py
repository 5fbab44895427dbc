"""Tests for the conformance fuzzing subsystem (:mod:`repro.conformance`).

Covers the generator (every generated case is internally consistent and
deterministic), the runner (clean cases pass all checks; gates report
skip reasons), the shrinker (synthetic predicates minimize to known-small
cases; a seeded detection-kernel mutation is caught, shrunk to a replayable
artifact of at most ten events, and reproduces on replay), the artifact
round-trip, and the ``repro fuzz`` CLI including ``--replay``.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.cli import main
from repro.conformance import (
    FaultSchedule,
    FuzzCase,
    build_system,
    fuzz,
    generate_case,
    generate_cases,
    has_temporal,
    load_artifact,
    replay,
    run_case,
    save_artifact,
    shrink,
)
from repro.analysis.metrics import detection_mismatch
from repro.conformance import runner
from repro.conformance.artifacts import dumps
from repro.conformance.runner import CheckResult
from repro.errors import SimulationError, UnknownSiteError
from repro.events.parser import parse_expression
from repro.sim.workloads import WorkloadEvent
from repro.time.composite import composite_happens_before

GENERATOR_SEEDS = list(range(20))


# --- generator ----------------------------------------------------------------


@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
class TestGeneratorValidity:
    def test_case_is_internally_consistent(self, seed):
        case = generate_case(seed)
        expression = case.parsed()  # parses without error
        # The textual form is stable under re-parsing (replay fidelity).
        assert str(parse_expression(case.expression)) == case.expression
        assert expression.primitive_types() <= set(case.homes)
        assert set(case.homes.values()) <= set(case.sites)
        times = [Fraction(time) for time, _, _, _ in case.events]
        assert all(time > 0 for time in times)
        assert times == sorted(times)
        for _, site, event_type, n in case.events:
            assert site in case.sites
            assert event_type in expression.primitive_types()
            assert isinstance(n, int)

    def test_case_is_deterministic(self, seed):
        assert generate_case(seed) == generate_case(seed)

    def test_dict_round_trip(self, seed):
        case = generate_case(seed)
        assert FuzzCase.from_dict(case.to_dict()) == case
        # ... and through actual JSON text, as the artifacts do.
        assert FuzzCase.from_dict(json.loads(json.dumps(case.to_dict()))) == case


class TestGeneratorOptions:
    def test_no_temporal_flag_excludes_timer_operators(self):
        for seed in GENERATOR_SEEDS:
            case = generate_case(seed, include_temporal=False)
            assert not has_temporal(case.parsed())

    def test_master_seed_spreads_case_seeds(self):
        cases = list(generate_cases(3, 5))
        assert [case.seed for case in cases] == [
            3 * 1_000_003 + index for index in range(5)
        ]
        assert len({case.expression for case in cases} | {None}) > 1


class TestFaultSchedule:
    def test_round_trip(self):
        schedule = FaultSchedule(
            loss_probability=0.25,
            latency="spiky",
            latency_low="1/100",
            latency_high="1/2",
            spike_every=4,
            reorder=True,
            checkpoint_fraction=0.75,
        )
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule

    def test_orderly_means_no_loss_and_constant_latency(self):
        assert FaultSchedule().is_orderly
        assert not FaultSchedule(loss_probability=0.1).is_orderly
        assert not FaultSchedule(
            latency="uniform", latency_high="1/4"
        ).is_orderly

    @pytest.mark.parametrize(
        "bad",
        [
            {"loss_probability": 1.0},
            {"loss_probability": -0.1},
            {"latency": "wormhole"},
            {"latency": "spiky", "spike_every": 0},
            {"checkpoint_fraction": 0.0},
            {"checkpoint_fraction": 1.0},
            {"latency_low": "1/2", "latency_high": "1/4"},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(SimulationError):
            FaultSchedule(**bad)


# --- runner -------------------------------------------------------------------


class TestRunner:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_generated_cases_pass_all_checks(self, seed):
        result = run_case(generate_case(seed))
        assert result.passed, [
            (check.name, check.detail) for check in result.failed_checks()
        ]
        assert result.check("execution") is not None

    def test_runner_is_deterministic(self):
        case = generate_case(11)
        first, second = run_case(case), run_case(case)
        assert first.checks == second.checks
        assert first.detections == second.detections

    def test_skips_carry_reasons(self):
        # A lossy schedule with a non-monotonic operator: the oracle gate
        # must skip with a reason, never silently drop the check.
        case = replace(
            generate_case(0),
            expression="not(b)[a, c]",
            homes={"a": "s1", "b": "s1", "c": "s1"},
            schedule=FaultSchedule(loss_probability=0.2, reorder=True),
        )
        result = run_case(case)
        oracle = result.check("oracle")
        assert oracle is not None and oracle.skipped and oracle.detail

    def test_inject_rejects_unknown_sites(self):
        case = generate_case(2)
        system = build_system(case)
        ghost = [
            WorkloadEvent(time=Fraction(1), site="nowhere", event_type="a")
        ]
        with pytest.raises(UnknownSiteError):
            system.inject(ghost)
        # SimulationError is the documented umbrella for callers.
        with pytest.raises(SimulationError):
            build_system(case).inject(ghost)


class TestChecksFilter:
    def test_failover_check_runs_and_passes(self):
        result = run_case(generate_case(3), checks=["failover"])
        names = [check.name for check in result.checks]
        assert "failover" in names
        failover = result.check("failover")
        assert failover is not None
        assert failover.passed, failover.detail

    def test_filter_restricts_to_requested_checks(self):
        result = run_case(generate_case(3), checks=["failover"])
        names = {check.name for check in result.checks}
        # Execution always runs (it produces the detections every other
        # check compares against); nothing else beyond the request does.
        assert names == {"execution", "failover"}

    def test_unknown_check_name_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_case(generate_case(3), checks=["no-such-check"])

    def test_reorder_filter_still_gets_its_oracle_input(self):
        result = run_case(generate_case(3), checks=["reorder"])
        names = {check.name for check in result.checks}
        assert "reorder" in names
        assert "oracle" not in names

    @pytest.mark.parametrize("seed", [0, 2, 4, 6])
    def test_failover_matches_unfaulted_run(self, seed):
        result = run_case(generate_case(seed), checks=["failover"])
        failover = result.check("failover")
        assert failover is not None and failover.passed, (
            seed,
            failover.detail if failover else None,
        )


class TestLegTable:
    """``run_case`` is one loop over ``LEGS``: a leg is one row."""

    def test_check_names_come_from_the_table(self):
        assert runner.CHECK_NAMES == tuple(row.name for row in runner.LEGS)

    def test_an_added_row_runs_on_every_case_and_is_selectable(
        self, monkeypatch
    ):
        seen = []

        def check(run):
            seen.append(run.case.seed)
            return CheckResult("extra", True, f"{len(run.occurrences)} events")

        extra = runner.Leg("extra", lambda run: None, check)
        monkeypatch.setattr(runner, "LEGS", runner.LEGS + (extra,))
        cases = list(generate_cases(3, 4))
        for case in cases:
            assert run_case(case).check("extra").passed
        assert seen == [case.seed for case in cases]
        selected = run_case(cases[0], checks=["extra"])
        assert [check.name for check in selected.checks] == [
            "execution",
            "extra",
        ]

    def test_a_raising_row_fails_and_later_rows_still_run(self, monkeypatch):
        def boom(run):
            raise ValueError("leg exploded")

        legs = list(runner.LEGS)
        legs.insert(2, runner.Leg("boom", lambda run: None, boom))
        monkeypatch.setattr(runner, "LEGS", tuple(legs))
        result = run_case(generate_case(3))
        failed = result.check("boom")
        assert failed is not None and not failed.passed
        assert failed.detail == "raised ValueError: leg exploded"
        names = [check.name for check in result.checks]
        assert names[names.index("boom") + 1 :] == [
            "kernels",
            "checkpoint",
            "sharding",
            "failover",
            "netfault",
            "tenancy",
            "approx",
            "reorder",
        ]

    def test_a_gate_reason_becomes_a_skip(self, monkeypatch):
        def never(run):
            raise AssertionError("a gated-off check must not run")

        gated = runner.Leg("gated", lambda run: "not sound here", never)
        monkeypatch.setattr(runner, "LEGS", runner.LEGS + (gated,))
        check = run_case(generate_case(3)).check("gated")
        assert check == CheckResult(
            "gated", passed=True, detail="not sound here", skipped=True
        )

    def test_fuzz_counts_are_pinned(self):
        report = fuzz(seed=7, cases=50, shrink_failures=False)
        assert report.passed
        assert report.detections == 883
        counts = {
            name: (report.check_runs[name], report.check_skips[name])
            for name in runner.CHECK_NAMES
        }
        assert counts == {
            name: {"oracle": (6, 44), "reorder": (3, 47)}.get(name, (50, 0))
            for name in runner.CHECK_NAMES
        }

    def test_mismatch_detail_names_rule_label_and_first_keys(self):
        expected = {"r1": ["k1", "k2"], "r2": ["a", "b", "c", "d"]}
        actual = {"r1": ["k2", "k1"], "r2": ["c", "x", "y", "z", "w"]}
        assert detection_mismatch(expected, dict(expected)) is None
        assert detection_mismatch(expected, actual, "[binary WAL]") == (
            "r2 [binary WAL]: missing=['a', 'b', 'd'] "
            "extra=['w', 'x', 'y']"
        )
        # A rule only one side has compares against an empty multiset.
        assert detection_mismatch({}, {"r3": ["k"]}) == (
            "r3: missing=[] extra=['k']"
        )


# --- shrinker -----------------------------------------------------------------


def _plain_case(events, expression="a ; b", sites=("s1", "s2")):
    return FuzzCase(
        seed=99,
        expression=expression,
        sites=sites,
        homes={
            event_type: sites[0]
            for event_type in parse_expression(expression).primitive_types()
        },
        events=tuple(events),
    )


class TestShrinker:
    def test_events_shrink_to_single_trigger(self):
        events = [
            (f"{index + 1}/1", "s1", "a" if index == 9 else "b", 0)
            for index in range(16)
        ]
        case = _plain_case(events, expression="a or b")

        def is_failing(candidate):
            return any(row[2] == "a" for row in candidate.events)

        shrunk, stats = shrink(case, is_failing)
        assert len(shrunk.events) == 1
        assert shrunk.events[0][2] == "a"
        assert stats.accepted >= 1

    def test_expression_shrinks_to_smallest_failing_subtree(self):
        case = _plain_case(
            [("1/1", "s1", "a", 0)],
            expression="((a ; b) and c) or times(2, a)",
            sites=("s1",),
        )

        def is_failing(candidate):
            return "times" in candidate.expression

        shrunk, _ = shrink(case, is_failing)
        assert shrunk.expression == "times(2, a)"

    def test_sites_shrink_and_rehome(self):
        events = [("1/1", "s1", "a", 0), ("2/1", "s2", "b", 0)]
        case = _plain_case(events, expression="a or b", sites=("s1", "s2"))
        shrunk, _ = shrink(case, lambda candidate: True)
        assert len(shrunk.sites) == 1
        assert set(shrunk.homes.values()) <= set(shrunk.sites)
        shrunk.validate()

    def test_unshrinkable_case_returned_unchanged(self):
        case = _plain_case([("1/1", "s1", "a", 0)], sites=("s1",))
        shrunk, _ = shrink(
            case, lambda candidate: candidate == case
        )
        assert shrunk == case

    def test_raising_predicate_counts_as_failing(self):
        case = _plain_case(
            [("1/1", "s1", "a", 0), ("2/1", "s1", "b", 0)]
        )

        def explodes(candidate):
            raise RuntimeError("the crash being minimized")

        shrunk, _ = shrink(case, explodes)
        assert len(shrunk.events) == 0  # everything was deletable


# --- the acceptance scenario: a seeded kernel mutation ------------------------


def _broken_happens_before(t1, t2):
    """Def 5.3 with the 2g_g safety margin dropped — a subtle fast-path bug."""
    span1 = t1.global_span()[1]
    span2 = t2.global_span()[0]
    return span1 < span2 or composite_happens_before(t1, t2)


class TestSeededMutation:
    def test_mutation_is_caught_shrunk_and_replayable(self, monkeypatch, tmp_path):
        # Detection nodes consult composite_happens_before for every
        # operator pairing decision; breaking it changes real detections.
        monkeypatch.setattr(
            "repro.detection.nodes.composite_happens_before",
            _broken_happens_before,
        )
        failing = None
        for case in generate_cases(1, 60, include_temporal=False):
            result = run_case(case)
            if not result.passed:
                failing = case
                break
        assert failing is not None, "mutation survived 60 fuzz cases"

        shrunk, stats = shrink(
            failing,
            lambda candidate: not run_case(candidate).passed,
            max_attempts=250,
        )
        final = run_case(shrunk)
        assert not final.passed
        assert len(shrunk.events) <= 10
        assert stats.attempts <= 250

        path = tmp_path / "mutation.json"
        save_artifact(str(path), final)
        fresh, reproduced = replay(str(path))
        assert reproduced and not fresh.passed


# --- artifacts and replay -----------------------------------------------------


class TestArtifacts:
    def test_save_load_round_trip(self, tmp_path):
        case = generate_case(4)
        result = run_case(case)
        path = tmp_path / "sub" / "case.json"
        saved = save_artifact(str(path), result)
        artifact = load_artifact(saved)
        assert artifact.case == case
        assert artifact.verdict["passed"] == result.passed
        assert artifact.verdict["detections"] == result.detections

    def test_serialization_is_canonical(self):
        result = run_case(generate_case(5))
        assert dumps(result) == dumps(run_case(result.case))

    def test_replay_reproduces_verdict(self, tmp_path):
        result = run_case(generate_case(6))
        path = save_artifact(str(tmp_path / "case.json"), result)
        fresh, reproduced = replay(path)
        assert reproduced
        assert fresh.checks == result.checks

    def test_version_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "case": {}}')
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            load_artifact(str(path))


# --- campaign driver and CLI --------------------------------------------------


class TestCampaign:
    def test_clean_campaign_reports_pass(self, tmp_path):
        report = fuzz(seed=7, cases=8, artifact_dir=str(tmp_path))
        assert report.passed
        assert report.cases == 8
        assert report.artifacts == []
        assert report.check_runs["execution"] == 8
        assert "fuzz PASS" in report.render()

    def test_failing_campaign_writes_shrunk_artifact(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            "repro.detection.nodes.composite_happens_before",
            _broken_happens_before,
        )
        report = fuzz(
            seed=1,
            cases=12,
            artifact_dir=str(tmp_path),
            include_temporal=False,
            shrink_attempts=120,
        )
        assert not report.passed
        assert report.artifacts
        artifact = load_artifact(report.artifacts[0])
        assert not artifact.verdict["passed"]
        assert "fuzz FAIL" in report.render()


class TestCli:
    def test_fuzz_smoke(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--seed", "7", "--cases", "5",
             "--artifacts", str(tmp_path)]
        )
        assert code == 0
        assert "fuzz PASS" in capsys.readouterr().out

    def test_fuzz_check_filter_smoke(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--seed", "5", "--cases", "3",
             "--check", "failover", "--artifacts", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz PASS" in out

    def test_replay_round_trip(self, tmp_path, capsys):
        result = run_case(generate_case(8))
        path = save_artifact(str(tmp_path / "case.json"), result)
        code = main(["fuzz", "--replay", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution" in out
