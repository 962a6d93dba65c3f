"""Tests of the benchmark's own logic: checks, failure counting, metric
names and span self-time arithmetic."""

import json
from pathlib import Path

import pytest

import checks
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

BORN = [[[1.0], 0.5], [[-1.0], 0.5]]


def _summary(count_plus: int, n_resolved: int = 1000) -> dict:
    outcomes = [
        {"eigenvalues": [1.0], "count": count_plus},
        {"eigenvalues": [-1.0], "count": n_resolved - count_plus},
    ]
    collapse = {"outcomes": outcomes, "n_resolved": n_resolved, "unresolved_fraction": 0.0}
    return {"engine": "hitting", "engines": {"hitting": {"collapse": collapse}}}


def _write_run(out: Path, summary: dict) -> Path:
    out.mkdir()
    (out / "summary.json").write_text(json.dumps(summary))
    (out / "trajectories.csv").write_text("")
    (out / "events.csv").write_text("")
    return out


def test_summary_inside_intervals_passes(tmp_path):
    out = _write_run(tmp_path / "ok", _summary(540))  # 2.5 sigma off 1/2
    assert checks.check_artifacts(out, "run", BORN) == []


def test_doctored_summary_frequency_outside_interval_fails(tmp_path):
    out = _write_run(tmp_path / "bad", _summary(660))  # 10 sigma off 1/2
    problems = checks.check_artifacts(out, "run", BORN)
    assert len(problems) == 2  # both outcomes miss their Born probability
    assert "outside" in problems[0]


def test_wilson_interval_at_count_zero_contains_zero():
    summary = _summary(500)
    summary["engines"]["hitting"]["collapse"]["outcomes"].append(
        {"eigenvalues": [0.0], "count": 0}
    )
    assert checks.check_summary(summary, BORN) == []
    assert checks.wilson_interval(0, 0, 5.0) == (0.0, 1.0)


def test_outcome_without_born_weight_that_occurs_fails():
    summary = _summary(490)
    summary["engines"]["hitting"]["collapse"]["outcomes"].append(
        {"eigenvalues": [0.0], "count": 10}
    )
    assert len(checks.check_summary(summary, BORN)) == 1


def test_all_unresolved_fails():
    summary = _summary(500)
    summary["engines"]["hitting"]["collapse"]["unresolved_fraction"] = 1.0
    assert checks.check_summary(summary, BORN) == ["hitting: no trajectory resolved"]


def test_compare_and_sweep_bounds():
    compare = {"probe_times": [0.0, 1.0], "mc_trace_distance": [0.0, 0.2],
               "mc_error": [0.0, 0.03], "oracle_trace_distance": [0.0, 0.01]}
    assert len(checks.check_compare(compare)) == 1  # 0.2 > 0.01 + 5 * 0.03
    compare["mc_error"][1] = 0.04
    assert checks.check_compare(compare) == []

    rows = [
        {"mu": 4.0, "channel_distance": 0.10, "mc_distance": 0.12, "mc_error": 0.02},
        {"mu": 64.0, "channel_distance": 0.01, "mc_distance": 0.02, "mc_error": 0.02},
    ]
    assert checks.check_sweep(rows) == []  # 0.02 <= 3 * 0.02 + 2 * 0.01
    rows[0]["mc_distance"] = 0.20
    assert len(checks.check_sweep(rows)) == 1


def test_step_rejected_run_counts_as_failed_without_crashing(tmp_path):
    config = {
        "scenario": "explicit-matrices", "engine": "continuous", "gamma": 1000.0,
        "dt": 0.1, "t_end": 0.1, "record_interval": 0.1, "n_trajectories": 2,
        "operators": [{"dim": 2, "re": [1.0, 0.0, 0.0, -1.0]}],
        "initial_state": {"re": [0.7071067811865476, 0.7071067811865476]},
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(config))
    runner = run.Runner(run.Workload("run", str(path)), seed=1, work=tmp_path / "work")
    child = runner.cli("run1")
    assert child.code == 2  # the CLI's exit code for a QReduceError
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "StepRejectedError" in child.stderr or "runtime error" in child.stderr


def test_metric_names_and_benchmark_json_agree():
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(run.METRIC_NAME.fullmatch(name) for name in declared)
    assert len(set(declared)) == len(declared)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in run.PER_LAYER.items()
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    emitted = set(run.layer_metrics({}, wall=1.0, untraced_wall=1.0)) | {"failed_frac"}
    assert emitted == set(run.PER_LAYER)


def test_self_time_on_hand_built_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["config.load_config", 1.0, 2.0, 0],
        ["ensemble.run_hitting_ensemble", 3.0, 8.0, 0],
        ["hitting.simulate_hitting_trajectory", 3.5, 5.0, 2],
        ["hitting.simulate_hitting_trajectory", 5.0, 7.0, 2],
        ["import.qreduce", 10.0, 11.0, -1],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 1.5, 1.5, 2.0, 1.0])
    layers = spans.layer_self_times(tree)
    assert layers["cli"] == pytest.approx(4.0)
    assert layers["hitting"] == pytest.approx(3.5)
    assert layers["ensemble"] == pytest.approx(1.5)
    assert sum(layers.values()) == pytest.approx(10.0)  # the import span is no layer


def test_self_time_counts_overlapping_children_once():
    tree = [["cli.main", 0.0, 10.0, -1], ["a.x", 1.0, 4.0, 0], ["a.y", 3.0, 6.0, 0],
            ["a.z", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)
