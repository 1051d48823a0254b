"""Tests for the command-line interface contracts."""

import json

import numpy as np
import pytest

from pce_transfer.cli import main
from pce_transfer.models import cubic_truth


def run_cli(*argv):
    return main(list(argv))


def write_dataset(path, X, Y, header=None):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for x, y in zip(X, Y):
            writer.writerow(list(np.atleast_1d(x)) + [y])


@pytest.fixture
def cubic_dataset(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.2, 0.3, size=16)
    Y = cubic_truth(X) + 0.01 * rng.standard_normal(16)
    path = tmp_path / "data.csv"
    write_dataset(path, X, Y, header=["x", "y"])
    return path


def fit_args(dataset, out, degree=3, extra=()):
    return [
        "fit", "--out", str(out),
        "--set", f"dataset={dataset}",
        "--set", "dimension=1",
        "--set", f"degree={degree}",
        "--set", "lower=[-0.2]",
        "--set", "upper=[0.3]",
        "--set", "noise_var=0.0001",
        *extra,
    ]


class TestFit:
    def test_constant_fit_recovers_sample_mean(self, tmp_path):
        data = tmp_path / "pair.csv"
        write_dataset(data, [0.0, 0.5], [1.0, 3.0])
        out = tmp_path / "out"
        code = run_cli("fit", "--out", str(out),
                       "--set", f"dataset={data}",
                       "--set", "dimension=1", "--set", "degree=0",
                       "--set", "lower=[0.0]", "--set", "upper=[1.0]")
        assert code == 0
        payload = json.loads((out / "posterior.json").read_text())
        assert payload["posterior"]["mean"][0] == pytest.approx(2.0)
        assert "condition_number" in payload["report"]
        assert "residual_rmse" in payload["report"]
        assert payload["report"]["noise_var"] > 0
        assert payload["config"]["dimension"] == 1

    def test_malformed_csv_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        out = tmp_path / "out"
        code = run_cli(*fit_args(bad, out))
        assert code == 2
        assert not out.exists()

    def test_under_determined_exits_1(self, tmp_path):
        data = tmp_path / "tiny.csv"
        write_dataset(data, [0.1, 0.2], [0.0, 0.1])
        out = tmp_path / "out"
        code = run_cli(*fit_args(data, out))
        assert code == 1
        assert not (out / "posterior.json").exists()

    def test_refit_is_byte_identical(self, cubic_dataset, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli(*fit_args(cubic_dataset, out1)) == 0
        assert run_cli(*fit_args(cubic_dataset, out2)) == 0
        assert (out1 / "posterior.json").read_bytes() == (out2 / "posterior.json").read_bytes()

    def test_unknown_key_rejected(self, cubic_dataset, tmp_path):
        code = run_cli(*fit_args(cubic_dataset, tmp_path / "out",
                                 extra=["--set", "mystery=1"]))
        assert code == 2

    @pytest.mark.parametrize("setting", [
        'noise_var="x"', "noise_var=[1]", "noise_var=true", "degree=1.5", "degree=true",
        "dimension=2",
        'lower="a"', "lower=[[0.0],[1.0,2.0]]", 'cond_ceiling="x"', 'jitter="x"',
        "cond_ceiling=0", "jitter=-1",
    ])
    def test_schema_errors_exit_2_without_output(self, cubic_dataset, tmp_path, setting):
        out = tmp_path / "out"
        assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", setting])) == 2
        assert not out.exists()

    def test_negative_jitter_is_rejected(self, cubic_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", "jitter=-1"])) == 2
        assert "jitter non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2_naming_the_row(self, tmp_path, capsys, cell):
        X = np.linspace(-0.2, 0.3, 5)
        Y = [str(v) for v in cubic_truth(X)]
        Y[1] = cell
        data = tmp_path / "data.csv"
        write_dataset(data, X, Y, header=["x", "y"])
        out = tmp_path / "out"
        assert run_cli(*fit_args(data, out, degree=1)) == 2
        assert "row 3: non-finite cell" in capsys.readouterr().err
        assert not out.exists()


class TestTransfer:
    def make_artifact(self, cubic_dataset, out):
        assert run_cli(*fit_args(cubic_dataset, out)) == 0
        return out / "posterior.json"

    def test_identical_artifacts_give_full_transfer(self, cubic_dataset, tmp_path):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=EDF")
        assert code == 0
        payload = json.loads((out / "beta_result.json").read_text())
        assert payload["beta_star"] == pytest.approx(1.0, abs=1e-3)
        assert len(payload["curve"]["beta"]) == 1001

    def test_objective_is_case_insensitive(self, cubic_dataset, tmp_path):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=edf")
        assert code == 0
        assert json.loads((out / "beta_result.json").read_text())["objective"] == "EDF"

    def test_curve_length_follows_scan_points(self, cubic_dataset, tmp_path):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=ME", "--set", "scan_points=301")
        assert code == 0
        payload = json.loads((out / "beta_result.json").read_text())
        assert len(payload["curve"]["beta"]) == 301

    @pytest.mark.parametrize("setting", [
        "scan_points=0", "scan_points=-5", "scan_points=1", "scan_points=2.7",
        "scan_points=true", "beta_floor=2", "beta_floor=0", "beta_floor=-1",
        "beta_floor=1", "beta_floor=small",
    ])
    def test_invalid_scan_settings_exit_2(self, cubic_dataset, tmp_path, setting):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=ME", "--set", setting)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"posterior": {"mean": [0]}},
        {"posterior": {"dim": 1, "mean": [0.0]}},
        {"posterior": {"dim": 2, "mean": [0.0], "cov": [1.0, 0.0, 0.0, 1.0]}},
        {"posterior": {"dim": 2, "mean": [0.0, 0.0], "cov": [1.0]}},
        {"posterior": {"dim": "x", "mean": [0.0], "cov": [1.0]}},
        {"posterior": 5},
        [1, 2],
        {"posterior": {"dim": 1, "mean": [float("nan")], "cov": [1.0]}},
        {"posterior": {"dim": 1, "mean": [0.0], "cov": [float("inf")]}},
    ])
    def test_malformed_artifact_exits_2(self, cubic_dataset, tmp_path, payload):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={bad}", "--set", f"target={art}",
                       "--set", "objective=EDF")
        assert code == 2
        assert not out.exists()

    def test_unknown_objective_exits_2(self, cubic_dataset, tmp_path):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=foo")
        assert code == 2
        assert not out.exists()

    def test_dimension_mismatch_exits_2(self, cubic_dataset, tmp_path):
        art3 = self.make_artifact(cubic_dataset, tmp_path / "f3")
        out1 = tmp_path / "f1"
        assert run_cli(*fit_args(cubic_dataset, out1, degree=1)) == 0
        art1 = out1 / "posterior.json"
        code = run_cli("transfer", "--out", str(tmp_path / "tr"),
                       "--set", f"source={art3}", "--set", f"target={art1}",
                       "--set", "objective=EDF")
        assert code == 2


def tiny_repro_args(out, extra=()):
    return [
        "repro-cubic", "--out", str(out),
        "--set", "n_trials=1",
        "--set", "shifts=[0.0]",
        "--set", "degrees=[1]",
        "--set", "n_val=10",
        *extra,
    ]


class TestRepro:
    def test_run_never_imports_scipy(self, tmp_path):
        # numpy is the only run-time numeric dependency: one BLAS per process.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pce_transfer

        code = (
            "import sys\n"
            "from pce_transfer.cli import main\n"
            f"assert main(['repro-cubic', '--out', {str(tmp_path / 'run')!r}, "
            "'--set', 'n_trials=1', '--set', 'shifts=[0.0]']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(pce_transfer.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_smoke_run_emits_all_files(self, tmp_path):
        import time

        out = tmp_path / "run"
        t0 = time.perf_counter()
        assert run_cli(*tiny_repro_args(out)) == 0
        assert time.perf_counter() - t0 < 5.0
        assert (out / "trials_d1.csv").exists()
        assert (out / "aggregate_d1.csv").exists()
        assert (out / "summary.json").exists()
        for label in ("A", "B", "C", "D"):
            assert (out / f"bands_{label}_d1.csv").exists()
        first_line = (out / "trials_d1.csv").read_text().splitlines()[0]
        assert first_line.startswith("# config ")
        summary = json.loads((out / "summary.json").read_text())
        sweep = summary["sweeps"]["default"]["degrees"]["1"]
        assert sweep["beta_star_mean"] and sweep["rmse_bstar_mean"]

    def test_identical_configs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*tiny_repro_args(out1)) == 0
        assert run_cli(*tiny_repro_args(out2)) == 0
        for rel in ("trials_d1.csv", "aggregate_d1.csv", "summary.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_resume_skips_completed_shifts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*tiny_repro_args(out)) == 0
        shard = out / "shards" / "shift_000_d1.csv"
        original = shard.read_bytes()
        # Tampering with a data row of the shard then re-running without
        # --force preserves the tampered file (the shift is skipped), while
        # --force recomputes.
        header, columns, row = original.split(b"\n", 2)
        tampered = b"\n".join([header, columns, row.replace(b"0,0.0,", b"0,0.5,", 1)])
        assert tampered != original
        shard.write_bytes(tampered)
        assert run_cli(*tiny_repro_args(out)) == 0
        assert shard.read_bytes() == tampered
        assert run_cli(*tiny_repro_args(out, extra=["--force"])) == 0
        assert shard.read_bytes() == original

    def test_shard_from_another_config_is_recomputed(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*tiny_repro_args(out)) == 0
        assert run_cli(*tiny_repro_args(out, extra=["--set", "n_trials=3"])) == 0
        fresh = tmp_path / "fresh"
        assert run_cli(*tiny_repro_args(fresh, extra=["--set", "n_trials=3"])) == 0
        for rel in ("shards/shift_000_d1.csv", "trials_d1.csv", "aggregate_d1.csv",
                    "summary.json"):
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel
        lines = (out / "trials_d1.csv").read_text().splitlines()
        assert len(lines) == 2 + 3

    def test_seed_flag_changes_results(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*tiny_repro_args(out1, extra=["--seed", "1"])) == 0
        assert run_cli(*tiny_repro_args(out2, extra=["--seed", "2"])) == 0
        assert (out1 / "trials_d1.csv").read_bytes() != (out2 / "trials_d1.csv").read_bytes()

    def test_scenario_override_conflict_rejected(self, tmp_path):
        code = run_cli("repro-cubic", "--out", str(tmp_path / "x"),
                       "--set", "scenario=ishigami")
        assert code == 2

    def test_workers_flag_matches_serial(self, tmp_path):
        out1, out2 = tmp_path / "s", tmp_path / "p"
        args = ["--set", "n_trials=2"]
        assert run_cli(*tiny_repro_args(out1, extra=args)) == 0
        assert run_cli(*tiny_repro_args(out2, extra=args + ["--workers", "2"])) == 0
        assert (out1 / "trials_d1.csv").read_bytes() == (out2 / "trials_d1.csv").read_bytes()


REJECTED_SWEEP_SETTINGS = [
    "degrees=1", "degrees=[]", "degrees=[1.5]", "degrees=[-1]", "degrees=[1,1]",
    "n_trials=0", "n_trials=1.5", "n_trials=true", 'seed="x"', "n_val=0",
    "n_source=3", "objective=FOO", 'noise_sd="x"', "lpfp_noise_var=-1",
    "likelihood_noise_sd=0", "sampler=sobol",
    'shifts=["a"]', "shifts=[true]", "shifts=[NaN]", "shifts=[1e400]", "shifts=0.5",
    "sweep_param=z2", "bands=1", 'bands="yes"',
]


class TestSweepCommand:
    def test_generic_sweep_requires_scenario(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("command", ["repro-cubic", "repro-ishigami"])
    @pytest.mark.parametrize("setting", REJECTED_SWEEP_SETTINGS)
    def test_rejected_setting_exits_2_without_output(self, tmp_path, capsys, command,
                                                      setting):
        out = tmp_path / "run"
        code = run_cli(command, "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", "--set", setting)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bands_outside_cubic_exits_2(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("repro-ishigami", "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", "--set", "bands=true")
        assert code == 2
        assert not out.exists()

    def test_ishigami_applies_degrees_override(self, tmp_path):
        out = tmp_path / "ish"
        code = run_cli("repro-ishigami", "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", "--set", "n_val=20",
                       "--set", "degrees=[2]")
        assert code == 0
        assert (out / "trials_d2.csv").exists()
        assert not (out / "trials_d3.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["sweeps"]["default"]["degrees"]) == ["2"]

    def test_empty_shift_list_exits_2(self, tmp_path):
        out = tmp_path / "empty"
        assert run_cli(*tiny_repro_args(out, extra=["--set", "shifts=[]"])) == 2
        assert not out.exists()

    def test_shift_with_every_trial_failed_exits_1(self, tmp_path, capsys):
        # At shift 200 the reference box spans ~[-0.2, 200], so every degree-3
        # fit exceeds the condition-number ceiling; shift 0 stays healthy.
        out = tmp_path / "far"
        extra = ["--set", "shifts=[0.0,200.0]", "--set", "degrees=[3]",
                 "--set", "bands=false"]
        assert run_cli(*tiny_repro_args(out, extra=extra)) == 1
        for name in ("trials_d3.csv", "aggregate_d3.csv", "summary.json"):
            assert (out / name).exists()
        err = capsys.readouterr().err
        assert "sweep default, shift 200.0, degree 3" in err
        assert "shift 0.0" not in err

    def test_ishigami_summary_contains_beta_and_rmse_columns(self, tmp_path):
        out = tmp_path / "ish"
        code = run_cli("repro-ishigami", "--out", str(out),
                       "--set", "n_trials=1",
                       "--set", "shifts=[0.0,1.0]",
                       "--set", "n_val=20")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        table = summary["sweeps"]["default"]["degrees"]["3"]
        assert table["shift"] == [0.0, 1.0]
        for col in ("beta_star_mean", "rmse_b0_mean", "rmse_bstar_mean",
                    "rmse_b1_mean"):
            assert len(table[col]) == 2

    @pytest.mark.parametrize("param", ["z3", '["z2"]', "null"])
    def test_unknown_subsurface_sweep_param_exits_2(self, tmp_path, param):
        out = tmp_path / "sub"
        code = run_cli("repro-subsurface-synthetic", "--out", str(out),
                       "--set", f"sweep_param={param}", "--set", "n_trials=1")
        assert code == 2
        assert not out.exists()

    def test_shift_outside_the_model_domain_exits_2_without_output(self, tmp_path, capsys):
        # z2 spans [1, 2]; shifted by 5 it leaves the model's [0.5, 6] envelope.
        out = tmp_path / "sub"
        code = run_cli("repro-subsurface-synthetic", "--out", str(out),
                       "--set", "sweep_param=z2", "--set", "shifts=[0.0,5.0]")
        assert code == 2
        assert "outside the subsurface-synthetic domain" in capsys.readouterr().err
        assert not out.exists()

    def test_subsurface_single_param_layout(self, tmp_path):
        out = tmp_path / "sub"
        code = run_cli("sweep", "--out", str(out),
                       "--set", "scenario=subsurface-synthetic",
                       "--set", "sweep_param=z2",
                       "--set", "n_trials=1",
                       "--set", "shifts=[0.0]",
                       "--set", "n_val=20")
        assert code == 0
        assert (out / "z2" / "trials_d3.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "z2" in summary["sweeps"]
