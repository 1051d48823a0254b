"""Tests of the benchmark's own code: self time, pushforward cost, reference check.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys

import pytest

import check
import layers
import run
import tracer

REFERENCES = json.loads(run.REFERENCES.read_text())


def span(pid, idx, name, start, end, parent=None, trial=None, **facts):
    return {"name": name, "id": [pid, idx], "parent": parent, "trial": trial,
            "start": start, "end": end, **facts}


# --- self time ----------------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(1, 0, "parent", 0.0, 10.0),
        span(1, 1, "a", 1.0, 3.0, parent=[1, 0]),
        span(2, 0, "b", 2.0, 5.0, parent=[1, 0]),    # overlaps a (other process)
        span(2, 1, "c", 8.0, 12.0, parent=[1, 0]),   # spills past the parent
        span(1, 2, "grandchild", 1.5, 2.5, parent=[1, 1]),
    ]
    own = layers.self_times(spans)
    assert own[(1, 0)] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[(1, 1)] == pytest.approx(2.0 - 1.0)
    assert own[(2, 0)] == pytest.approx(3.0)
    assert own[(1, 2)] == pytest.approx(1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert layers.self_times([span(1, 0, "leaf", 2.0, 2.5)]) == {(1, 0): 0.5}


# --- pushforward cost ---------------------------------------------------------

@pytest.mark.parametrize("m, p, nbytes, flops", [
    (1000, 10, 8_000_000, 2 * 1000 * 100 + 2 * 1000 * 1000 * 10),
    (500, 56, 2_000_000, 2 * 500 * 56**2 + 2 * 500**2 * 56),
    (100, 4, 80_000, 3_200 + 80_000),
])
def test_pushforward_cost(m, p, nbytes, flops):
    assert layers.pushforward_cost(m, p) == (nbytes, flops)


def test_layer_metrics_divide_by_records_and_ignore_spans_outside_trials():
    spans = [
        span(1, 0, "harness.run_shift", 0.0, 1.0),
        span(1, 1, "harness.run_trial", 0.0, 0.4, parent=[1, 0], trial="t0",
             records=2, failed=0),
        span(1, 2, "predict.pushforward", 0.1, 0.2, parent=[1, 1], trial="t0",
             m=1000, p=10),
        span(1, 3, "harness.run_trial", 0.5, 0.9, parent=[1, 0], trial="t1",
             records=2, failed=1),
        span(1, 4, "predict.pushforward", 0.6, 0.8, parent=[1, 3], trial="t1",
             m=100, p=4),
        span(1, 5, "predict.pushforward", 2.0, 5.0, trial=None, m=121, p=4),
        span(1, 6, "gaussian.likelihood", 0.55, 0.58, parent=[1, 3], trial="t1",
             error="CalibrationError"),
        span(1, 7, "gaussian.likelihood", 0.58, 0.6, parent=[1, 3], trial="t1"),
    ]
    counts = {"gaussian.dist_constructions": 8, "trace.span_cost_s": 1e-6,
              "trace.flush_s": 0.01}
    out = layers.layer_metrics(spans, counts)
    assert out["harness.records"] == 4
    assert out["harness.records_ok_share"] == 0.75
    assert out["gaussian.likelihood.ok_share"] == 0.5
    assert out["predict.pushforward.ms_per_rec"] == pytest.approx(1e3 * 0.3 / 4)
    assert out["predict.pushforward.bytes_per_call"] == pytest.approx((8e6 + 8e4) / 2)
    assert out["gaussian.dist_constructions_per_rec"] == 2
    assert out["harness.pool.speedup"] == pytest.approx(0.8)
    assert out["harness.run_trial.self_ms_per_trial"] == pytest.approx(1e3 * (0.3 + 0.15) / 2)
    assert out["trace.overhead_s"] == pytest.approx(8e-6 + 0.01)


# --- reference check ----------------------------------------------------------

@pytest.fixture
def aggregates():
    return copy.deepcopy(REFERENCES["subsurface"][str(run.REFERENCE_SEEDS[0])])


def perturb(aggs, rel, column="dlpfp_vs_b0_mean"):
    table = aggs["z2/aggregate_d3.csv"]
    col = table["columns"].index(column)
    table["rows"][2][col] *= 1.0 + rel
    return aggs


def test_reference_matches_itself(aggregates):
    assert check.compare(aggregates, copy.deepcopy(aggregates)) == []
    assert check.shape_errors(aggregates, aggregates) == []


def test_last_bit_change_is_accepted(aggregates):
    reference = copy.deepcopy(aggregates)
    assert check.compare(perturb(aggregates, 1e-12), reference) == []


@pytest.mark.parametrize("column", ["beta_star_mean", "dlpfp_vs_b0_mean", "rmse_b1_sd"])
def test_perturbed_aggregate_is_rejected(aggregates, column):
    reference = copy.deepcopy(aggregates)
    problems = check.compare(perturb(aggregates, 1e-4, column), reference)
    assert len(problems) == 1 and column in problems[0]


def test_nan_is_rejected_by_both_checks(aggregates):
    reference = copy.deepcopy(aggregates)
    aggregates["z2/aggregate_d3.csv"]["rows"][0][3] = math.nan
    assert check.compare(aggregates, reference)
    assert check.shape_errors(aggregates, reference)


def test_shape_check_rejects_missing_row_file_and_column(aggregates):
    reference = copy.deepcopy(aggregates)
    changed = copy.deepcopy(aggregates)
    del changed["z2/aggregate_d3.csv"]["rows"][-1]
    assert check.shape_errors(changed, reference)
    changed = copy.deepcopy(aggregates)
    del changed["R3/aggregate_d3.csv"]
    assert check.shape_errors(changed, reference)
    changed = copy.deepcopy(aggregates)
    changed["z2/aggregate_d3.csv"]["columns"][-1] = "renamed"
    assert check.shape_errors(changed, reference)


def test_shape_check_rejects_moved_shifts_trial_counts_and_nan(aggregates):
    reference = copy.deepcopy(aggregates)
    cols = aggregates["z2/aggregate_d3.csv"]["columns"]
    for column, value in (("shift", 9.0), ("n_trials", 3.0), ("rmse_b0_mean", math.nan)):
        changed = copy.deepcopy(aggregates)
        changed["z2/aggregate_d3.csv"]["rows"][1][cols.index(column)] = value
        assert check.shape_errors(changed, reference), column


def test_failed_trials_pass_the_shape_check_but_not_the_reference(aggregates):
    reference = copy.deepcopy(aggregates)
    col = aggregates["z2/aggregate_d3.csv"]["columns"].index("n_failed")
    aggregates["z2/aggregate_d3.csv"]["rows"][1][col] = 1.0
    assert check.shape_errors(aggregates, reference) == []
    assert check.compare(aggregates, reference)


def test_references_cover_every_workload_at_both_seeds():
    for workload in run.WORKLOADS.values():
        by_seed = REFERENCES[workload.reference]
        assert sorted(by_seed) == sorted(str(s) for s in run.REFERENCE_SEEDS)
        default = by_seed[str(run.REFERENCE_SEEDS[0])]
        for aggs in by_seed.values():
            assert check.shape_errors(aggs, default) == []
        # The two seeds give different inputs, so the check can tell them apart.
        assert check.compare(by_seed[str(run.REFERENCE_SEEDS[1])], default)


def test_read_aggregates_and_count_records(tmp_path):
    columns = ["shift", "n_trials", "n_failed", "beta_star_mean"]
    (tmp_path / "z2").mkdir()
    (tmp_path / "z2" / "aggregate_d3.csv").write_text(
        '# config {"a":1}\n' + ",".join(columns) + "\n0.0,2,0,1.0\n0.5,2,0,nan\n")
    (tmp_path / "z2" / "trials_d3.csv").write_text(
        '# config {"a":1}\ntrial,status\n0,ok\n1,failed: x\n')
    aggs = check.read_aggregates(tmp_path)
    assert aggs["z2/aggregate_d3.csv"]["columns"] == columns
    assert math.isnan(aggs["z2/aggregate_d3.csv"]["rows"][1][3])
    assert check.count_records(tmp_path) == (2, 1)
    assert check.expected_records(aggs) == 4


# --- tracer -------------------------------------------------------------------

def test_tracer_records_parents_trials_and_round_trips(tmp_path):
    t = tracer.Tracer(tmp_path)
    inner = t.wrap("inner", lambda x: x + 1, facts=lambda args, r: {"rows": r})
    outer = t.wrap("outer", lambda cfg, trial: inner(trial),
                   trial_of=lambda args: f"trial-{args[1]}")
    assert outer(None, 4) == 5
    failing = t.wrap("failing", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    t.flush()
    spans, counts = tracer.load_trace(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["trial"] == "trial-4" and by_name["inner"]["rows"] == 5
    assert by_name["failing"]["trial"] is None
    assert by_name["failing"]["error"] == "ZeroDivisionError"
    assert "error" not in by_name["outer"]
    assert set(counts) == {"trace.flush_s"} and counts["trace.flush_s"] > 0


def test_span_cost_is_positive_and_small():
    assert 0 < tracer.span_cost(calls=200, repeats=2) < 1e-3


def test_traced_cli_counts_design_matrices_per_record(tmp_path):
    env = run.program_env()
    out = subprocess.run(
        [sys.executable, str(run.HERE / "tracer.py"), "trace", str(tmp_path / "trace"),
         "repro-cubic", "--out", str(tmp_path / "out"), "--set", "n_trials=1",
         "--set", "shifts=[0.0, 2.5]", "--set", "bands=false"],
        env=env, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    spans, counts = tracer.load_trace(tmp_path / "trace")
    metrics = layers.layer_metrics(spans, counts)
    assert metrics["harness.records"] == 6
    # two likelihood fits plus three pushforwards and three RMSEs per record
    assert metrics["basis.vandermonde.calls_per_rec"] == 8
    assert metrics["gaussian.likelihood.ok_share"] == 1
    assert metrics["harness.records_ok_share"] == 1
    assert 0 < metrics["trace.overhead_s"] < 1
