"""Tests for the command-line interface contracts."""

import concurrent.futures
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pce_transfer
from pce_transfer import basis, cli, harness
from pce_transfer.cli import main
from pce_transfer.models import cubic_truth
from pce_transfer.scenarios import STUDIES

RUN_TRIAL = harness.run_trial


def run_cli(*argv):
    return main(list(argv))


def run_python(*args, cwd=None, env=None):
    """A fresh interpreter with this checkout's package on its path.

    env, if given, replaces this process's environment.
    """
    src = str(Path(pce_transfer.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=120)


def die_in_sweep_r3(cfg, trial, shared=None):
    """harness.run_trial, except that in the subsurface R3 sweep (axis 2) its process exits."""
    if cfg.shift_axis == 2:
        os._exit(3)
    return RUN_TRIAL(cfg, trial, shared)


def record_shifts(monkeypatch):
    """The (shift axis, shift) of every harness.run_trial call from now on, in call order."""
    calls = []

    def spy(cfg, trial, shared=None):
        calls.append((cfg.shift_axis, cfg.shift))
        return RUN_TRIAL(cfg, trial, shared)

    monkeypatch.setattr(harness, "run_trial", spy)
    return calls


def output_files(out):
    """Every file under out, by relative path, as bytes."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


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

    def test_too_few_samples_exit_1_before_the_basis_is_built(self, tmp_path, monkeypatch,
                                                               capsys):
        # At degree 40 in five dimensions the index set takes seconds to build;
        # three samples are too few whatever it holds.
        def never(n, d):
            raise AssertionError(f"built the ({n}, {d}) index set")

        monkeypatch.setattr(basis, "_total_order_indices", never)
        data = tmp_path / "three.csv"
        write_dataset(data, np.full((3, 5), 0.5), [0.0, 1.0, 2.0])
        out = tmp_path / "out"
        code = run_cli("fit", "--out", str(out), "--set", f"dataset={data}",
                       "--set", "dimension=5", "--set", "degree=40",
                       "--set", "lower=[0,0,0,0,0]", "--set", "upper=[1,1,1,1,1]")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: under-determined fit: 3 samples for 1221759 coefficients\n")
        assert not out.exists()

    def test_basis_size_past_2_to_the_53_exits_2_without_output(self, cubic_dataset, tmp_path,
                                                               capsys):
        out = tmp_path / "out"
        extra = ["--set", "dimension=5", "--set", "degree=100000"]
        assert run_cli(*fit_args(cubic_dataset, out, extra=extra)) == 2
        assert "exceeds the representable range" in capsys.readouterr().err
        assert not out.exists()

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
        "noise_var=1e400", "jitter=1e400", "cond_ceiling=1e400", "lower=[-1e400]",
    ])
    def test_schema_errors_exit_2_without_output(self, cubic_dataset, tmp_path, setting):
        out = tmp_path / "out"
        assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", setting])) == 2
        assert not out.exists()

    @pytest.mark.parametrize("bound", ['lower={"a":1}', 'lower=[{"a":1}]'])
    def test_non_numeric_bound_exits_2_without_output(self, cubic_dataset, tmp_path, capsys,
                                                      bound):
        out = tmp_path / "out"
        assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", bound])) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_negative_jitter_is_rejected(self, cubic_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", "jitter=-1"])) == 2
        assert "jitter non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_jitter_past_the_int64_range_fits_like_its_float(self, cubic_dataset, tmp_path):
        fits = []
        for jitter in ("1" + "0" * 30, "1e30"):
            out = tmp_path / jitter
            assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", f"jitter={jitter}"])) == 0
            fits.append(json.loads((out / "posterior.json").read_text()))
        big, real = fits
        assert (big["posterior"], big["report"]) == (real["posterior"], real["report"])

    def test_bad_noise_var_exits_2_before_an_ill_conditioned_design_exits_1(self, tmp_path,
                                                                          capsys):
        # Ten points at 0.5, one moved by 1e-9, cannot pass degree 3's
        # conditioning check; a malformed noise_var is still bad input first.
        X = np.full(10, 0.5)
        X[-1] += 1e-9
        data = tmp_path / "data.csv"
        write_dataset(data, X, np.zeros(10))
        out = tmp_path / "out"
        args = ["fit", "--out", str(out), "--set", f"dataset={data}", "--set", "dimension=1",
                "--set", "degree=3", "--set", "lower=[0.0]", "--set", "upper=[1.0]"]
        assert run_cli(*args) == 1
        assert "condition number" in capsys.readouterr().err
        assert run_cli(*args, "--set", 'noise_var="x"') == 2
        assert "noise_var must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_point_outside_the_bounds_exits_2_without_output(self, cubic_dataset, tmp_path,
                                                             capsys):
        # The dataset spans [-0.2, 0.3]; a malformed dataset is a usage error.
        out = tmp_path / "out"
        assert run_cli(*fit_args(cubic_dataset, out, extra=["--set", "upper=[0.1]"])) == 2
        assert "lies outside the box" in capsys.readouterr().err
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


    def test_bad_first_row_with_a_number_exits_2_naming_row_1(self, tmp_path, capsys):
        # A first row holding a number is data, not a header, so it is checked as data.
        rng = np.random.default_rng(1)
        X = rng.uniform(0.0, 1.0, size=(6, 2))
        Y = [str(v) for v in X.sum(axis=1)]
        Y[0] = "abc"
        data = tmp_path / "data.csv"
        write_dataset(data, X, Y)
        out = tmp_path / "out"
        assert run_cli("fit", "--out", str(out), "--set", f"dataset={data}",
                       "--set", "dimension=2", "--set", "degree=1",
                       "--set", "lower=[0,0]", "--set", "upper=[1,1]") == 2
        assert "row 1: non-numeric cell" in capsys.readouterr().err
        assert not out.exists()

    def test_first_row_without_a_number_is_a_header(self, tmp_path):
        X = np.linspace(-0.2, 0.3, 5)
        data = tmp_path / "data.csv"
        write_dataset(data, X, cubic_truth(X), header=["x", ""])
        out = tmp_path / "out"
        assert run_cli(*fit_args(data, out, degree=1)) == 0
        assert json.loads((out / "posterior.json").read_text())["report"]["n_samples"] == 5


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
        {"posterior": {"dim": 4.7, "mean": [0.0] * 4, "cov": np.eye(4).ravel().tolist()}},
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

    def test_scan_past_the_address_space_exits_1_without_output(self, cubic_dataset, tmp_path,
                                                                capsys):
        # 10**17 doubles exceed any address space, so the allocation fails at
        # once whatever the overcommit setting.
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        capsys.readouterr()
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=EDF", "--set", f"scan_points={10**17}")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_objective_exits_2(self, cubic_dataset, tmp_path):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=foo")
        assert code == 2
        assert not out.exists()

    def test_numeric_objective_exits_2(self, cubic_dataset, tmp_path, capsys):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "tr"
        code = run_cli("transfer", "--out", str(out),
                       "--set", f"source={art}", "--set", f"target={art}",
                       "--set", "objective=5")
        assert code == 2
        assert "unknown objective" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "transfer"])
    @pytest.mark.parametrize("flag", [["--workers", "3"], ["--seed", "4"], ["--force"]])
    def test_sweep_flags_exit_2_without_output(self, cubic_dataset, tmp_path, capsys,
                                                command, flag):
        art = self.make_artifact(cubic_dataset, tmp_path / "fit")
        out = tmp_path / "out"
        args = fit_args(cubic_dataset, out) if command == "fit" else [
            "transfer", "--out", str(out), "--set", f"source={art}",
            "--set", f"target={art}", "--set", "objective=EDF"]
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
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


class TestInputFiles:
    @pytest.mark.parametrize("role", ["config", "dataset", "source", "target"])
    def test_directory_exits_2_without_output(self, cubic_dataset, tmp_path, capsys, role):
        assert run_cli(*fit_args(cubic_dataset, tmp_path / "fit")) == 0
        capsys.readouterr()
        art, folder, out = tmp_path / "fit" / "posterior.json", tmp_path / "folder", tmp_path / "out"
        folder.mkdir()
        paths = {"source": art, "target": art, role: folder}
        args = fit_args(folder, out) if role == "dataset" else [
            "transfer", "--out", str(out), "--set", f"source={paths['source']}",
            "--set", f"target={paths['target']}", "--set", "objective=EDF",
            *(["--config", str(folder)] if role == "config" else [])]
        assert run_cli(*args) == 2
        assert f"cannot be read: {folder} (IsADirectoryError)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "transfer", "repro-cubic"])
    def test_missing_config_exits_2_naming_it(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.json"
        assert run_cli(command, "--out", str(tmp_path / "out"), "--config", str(missing)) == 2
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
        assert not (tmp_path / "out").exists()

    def test_dataset_given_as_a_number_names_a_file_not_a_descriptor(self, tmp_path, capsys,
                                                                     monkeypatch):
        # open(0) would read this process's standard input.
        monkeypatch.chdir(tmp_path)
        assert run_cli(*fit_args(0, tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: dataset not found: 0\n"
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_text_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bytes.json"
        config.write_bytes(b"\xff\xfe\x00")
        assert run_cli("repro-cubic", "--out", str(tmp_path / "out"), "--config", str(config)) == 2
        assert capsys.readouterr().err == (
            f"error: config file cannot be read: {config} (UnicodeDecodeError)\n")
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        assert run_cli("fit", "--out", str(tmp_path / "out"), "--config", str(config)) == 2
        assert capsys.readouterr().err == f"error: config file {config} must hold a JSON object\n"

    @pytest.mark.parametrize("command,missing", [("fit", "dataset"), ("transfer", "source")])
    def test_required_key_missing_exits_2(self, tmp_path, capsys, command, missing):
        assert run_cli(command, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {command} config requires {missing!r}\n"


class TestWholeFiles:
    def test_a_failed_write_leaves_the_previous_file_whole(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ("a",), [[1]], {})
        before = path.read_bytes()

        def rows():
            yield [2]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli.write_csv(path, ("a",), rows(), {})
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.csv"]

    @pytest.mark.parametrize("cut", ["last-row", "mid-line"])
    def test_resume_recomputes_a_shard_that_is_not_whole(self, tmp_path, cut):
        args = ["repro-ishigami", "--set", "n_trials=2", "--set", "shifts=[0.0,0.5]",
                "--set", "n_val=20"]
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_cli(*args, "--out", str(fresh)) == 0
        assert run_cli(*args, "--out", str(out)) == 0
        shard = out / "shards" / "shift_001_d3.csv"
        whole = shard.read_bytes()
        lines = whole.splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:-1]) if cut == "last-row" else whole[:-20])
        assert run_cli(*args, "--out", str(out)) == 0
        assert output_files(out) == output_files(fresh)

    def test_a_deleted_shard_recomputes_only_its_shift(self, tmp_path, monkeypatch):
        args = ["repro-ishigami", "--set", "n_trials=2", "--set", "shifts=[0.0,0.5,1.0]",
                "--set", "n_val=20"]
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_cli(*args, "--out", str(fresh)) == 0
        assert run_cli(*args, "--out", str(out)) == 0
        (out / "shards" / "shift_001_d3.csv").unlink()
        calls = record_shifts(monkeypatch)
        assert run_cli(*args, "--out", str(out)) == 0
        assert {shift for _, shift in calls} == {0.5}
        assert output_files(out) == output_files(fresh)

    @pytest.mark.parametrize("edit", ["reorder", "extra-row", "no-header", "blank-cell"])
    def test_shard_that_is_not_trials_0_to_n_is_recomputed(self, tmp_path, edit):
        out = tmp_path / "run"
        args = tiny_repro_args(out, extra=["--set", "n_trials=2", "--set", "bands=false"])
        assert run_cli(*args) == 0
        shard = out / "shards" / "shift_000_d1.csv"
        whole = shard.read_bytes()
        config, header, first, second = whole.splitlines(keepends=True)
        shard.write_bytes({
            "reorder": config + header + second + first,
            "extra-row": whole + second.replace(b"1,", b"2,", 1),
            "no-header": config + first + second,
            "blank-cell": config + header + first + second.replace(b"1,0.0,", b"1,,", 1),
        }[edit])
        assert run_cli(*args) == 0
        assert shard.read_bytes() == whole


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
        code = (
            "import sys\n"
            "from pce_transfer.cli import main\n"
            f"assert main(['repro-cubic', '--out', {str(tmp_path / 'run')!r}, "
            "'--set', 'n_trials=1', '--set', 'shifts=[0.0]']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_and_serial_run_load_no_process_pool(self, tmp_path):
        # Only --workers > 1 needs the pool; a serial run must not pay its import.
        pool = ("print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'"
                " or m.split('.')[0] == 'multiprocessing'))\n")
        code = (
            "import sys\n"
            "from pce_transfer.cli import main\n"
            + pool
            + f"assert main({tiny_repro_args(tmp_path / 'run')!r}) == 0\n"
            + pool
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["[]", "[]"]

    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
    def test_import_sets_one_blas_thread_unless_already_set(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, pce_transfer; print(os.environ['OPENBLAS_NUM_THREADS'])"
        result = run_python("-c", code, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected

    def test_validation_set_past_the_address_space_exits_1_without_output(self, tmp_path,
                                                                          capsys):
        # As for the transfer scan: 10**17 validation points fail to allocate at once.
        out = tmp_path / "run"
        assert run_cli("repro-ishigami", "--out", str(out), "--set", "n_trials=1",
                       "--set", f"n_val={10**17}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_the_tracer_still_finds_every_name_it_wraps(self):
        # perfbench/tracer.py patches package attributes by name, so a deleted
        # or renamed one fails its install with AttributeError.
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        code = ("import os, sys\n"
                "from pathlib import Path\n"
                f"sys.path.insert(0, {str(perfbench)!r})\n"
                "from tracer import Tracer, install\n"
                "install(Tracer(Path(os.devnull)))\n")
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("extra,code", [
        ((), 0),
        (("--set", "shifts=[0.0,200.0]", "--set", "degrees=[3]", "--set", "bands=false"), 1),
        (("--set", "shifts=[]"), 2),
    ], ids=["ok", "every-trial-failed", "usage"])
    def test_module_entry_point_exit_codes(self, tmp_path, extra, code):
        result = run_python("-m", "pce_transfer", *tiny_repro_args(tmp_path / "run", extra),
                            cwd=tmp_path)
        assert result.returncode == code, result.stderr
        assert ("error:" in result.stderr) == (code != 0)

    def test_entrypoint_freezes_only_after_main_returns(self, monkeypatch):
        # The freeze spares the exiting process a teardown collection; main()
        # itself, as tests and library callers use it, freezes nothing.
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or 0)
        try:
            with pytest.raises(SystemExit) as exit_info:
                cli.entrypoint()
            frozen = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        assert seen == [0]
        assert exit_info.value.code == 0
        assert frozen > 0

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
        args = ["--set", "n_trials=2", "--set", "shifts=[0.0,0.1]"]
        assert run_cli(*tiny_repro_args(out1, extra=args)) == 0
        assert run_cli(*tiny_repro_args(out2, extra=args + ["--workers", "2"])) == 0
        serial, parallel = output_files(out1), output_files(out2)
        assert {"shards/shift_001_d1.csv", "bands_A_d1.csv", "summary.json"} <= set(serial)
        assert parallel == serial

    @pytest.mark.parametrize("workers", [2, 64])
    def test_pool_never_exceeds_trial_count(self, tmp_path, monkeypatch, workers):
        # One pool serves the whole command, with one map per sweep.  It forks
        # all max_workers processes at the first map, so workers beyond the
        # trials of a sweep would sit idle, and one trial per sweep needs no
        # pool at all; an in-process fake records each pool built.
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                self.size, self.maps = max_workers, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                self.maps += 1
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        args = ["repro-subsurface-synthetic", "--set", "n_trials=3", "--set", "n_val=20",
                "--set", "shifts=[0.0,0.1]"]
        assert run_cli(*args, "--out", str(tmp_path / "p"), "--workers", str(workers)) == 0
        assert [(pool.size, pool.maps) for pool in pools] == [(min(workers, 3), 2)]
        assert run_cli(*args, "--out", str(tmp_path / "s")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "one"), "--set", "n_trials=1",
                       "--workers", str(workers)) == 0
        assert len(pools) == 1
        assert output_files(tmp_path / "p") == output_files(tmp_path / "s")

    def test_dead_worker_exits_1_naming_the_sweep_and_keeps_earlier_sweeps(
            self, tmp_path, monkeypatch, capsys):
        # A sweep's shifts are computed together, so a dead worker costs the
        # whole sweep; the sweeps before it are written, and a rerun keeps them.
        args = ["repro-subsurface-synthetic", "--set", "n_trials=2", "--set", "n_val=20",
                "--set", "shifts=[0.0,0.1]"]
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        monkeypatch.setattr(harness, "run_trial", die_in_sweep_r3)
        assert run_cli(*args, "--out", str(out), "--workers", "2") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: a worker process died in sweep R3: ")
        z2 = {"z2/shards/shift_000_d3.csv", "z2/shards/shift_001_d3.csv"}
        assert set(output_files(out)) == z2 | {"z2/trials_d3.csv", "z2/aggregate_d3.csv"}
        first = {rel: data for rel, data in output_files(out).items() if rel in z2}
        calls = record_shifts(monkeypatch)
        assert run_cli(*args, "--out", str(out)) == 0
        assert {axis for axis, _ in calls} == {2}  # R3's only: z2's shards were kept
        assert {rel: output_files(out)[rel] for rel in z2} == first
        monkeypatch.setattr(harness, "run_trial", RUN_TRIAL)
        assert run_cli(*args, "--out", str(fresh)) == 0
        assert output_files(out) == output_files(fresh)


REJECTED_SWEEP_SETTINGS = [
    "degrees=1", "degrees=[]", "degrees=[1.5]", "degrees=[-1]", "degrees=[1,1]",
    "n_trials=0", "n_trials=1.5", "n_trials=true", 'seed="x"', "n_val=0",
    "n_source=3", "objective=FOO", 'noise_sd="x"', "lpfp_noise_var=-1",
    "likelihood_noise_sd=0", "likelihood_noise_sd=1e-200", "likelihood_noise_sd=1e200",
    "noise_sd=1e-200 likelihood_noise_sd=null", "noise_sd=1e200 likelihood_noise_sd=null",
    "sampler=sobol",
    'shifts=["a"]', "shifts=[true]", "shifts=[NaN]", "shifts=[1e400]", "shifts=0.5",
    "sweep_param=z2", 'sweep_param=["z2"]', "bands=1", 'bands="yes"',
]


class TestSweepCommand:
    def test_a_study_runs_only_through_its_repro_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--out", str(tmp_path / "x"), "--set", "scenario=cubic")
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        out = tmp_path / "cubic"
        assert run_cli("repro-cubic", "--out", str(out), "--set", "scenario=cubic") == 2
        assert capsys.readouterr().err.startswith("error: unknown config keys ['scenario']")
        assert not out.exists()

    @pytest.mark.parametrize("study", ["cubic", "ishigami", "subsurface-synthetic"])
    def test_build_scenarios_returns_the_sweeps_and_their_bands(self, study):
        sweeps, bands = cli.build_scenarios({"scenario": study})
        assert [(tag, shifts) for tag, _, shifts in sweeps] == [
            (tag, tuple(map(float, shifts))) for tag, _, shifts in STUDIES[study].sweeps]
        assert bands == STUDIES[study].band_targets
        assert cli.build_scenarios({"scenario": study, "bands": False})[1] == {}

    @pytest.mark.parametrize("cfg,message", [
        ({}, "scenario must be one of"),
        ({"scenario": ["cubic"]}, "scenario must be one of"),
        ({"scenario": {"cubic": 1}}, "scenario must be one of"),
        ({"scenario": None}, "scenario must be one of"),
        ({"scenario": "cubes"}, "scenario must be one of"),
        ({"scenario": "cubic", "sweep_param": "z2"}, "sweep_param applies to a study"),
        ({"scenario": "subsurface-synthetic", "sweep_param": "both"}, "sweep_param must be"),
        ({"scenario": "cubic", "shifts": []}, "shifts must be"),
        ({"scenario": "ishigami", "bands": True}, "bands must be"),
        ({"scenario": "cubic", "bands": 1}, "bands must be"),
        ({"scenario": "cubic", "n_trials": 0}, "n_trials must be"),
    ])
    def test_build_scenarios_checks_every_study_key(self, cfg, message):
        with pytest.raises(ValueError, match=message):
            cli.build_scenarios(cfg)

    @pytest.mark.parametrize("command", ["repro-cubic", "repro-ishigami"])
    @pytest.mark.parametrize("setting", REJECTED_SWEEP_SETTINGS)
    def test_rejected_setting_exits_2_without_output(self, tmp_path, capsys, command,
                                                      setting):
        out = tmp_path / "run"
        sets = [arg for item in setting.split() for arg in ("--set", item)]
        code = run_cli(command, "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", *sets)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["repro-cubic", "repro-ishigami"])
    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_rejected_workers_exits_2_without_output(self, tmp_path, capsys, command,
                                                      workers):
        out = tmp_path / "run"
        code = run_cli(command, "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", "--workers", workers)
        assert code == 2
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
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

    def test_failed_band_fit_writes_every_other_output_and_exits_1(self, tmp_path, capsys):
        # Every trial fits, but at band A (shift 2.5) the five degree-4 target
        # points leave the normal equations past the conditioning ceiling.
        out = tmp_path / "run"
        code = run_cli("repro-cubic", "--out", str(out), "--set", "degrees=[4]",
                       "--set", "n_target=5", "--set", "n_source=20", "--set", "n_trials=3",
                       "--set", "shifts=[0.0]")
        assert code == 1
        files = set(output_files(out))
        assert {"trials_d4.csv", "aggregate_d4.csv", "summary.json", "bands_B_d4.csv",
                "bands_C_d4.csv", "bands_D_d4.csv"} <= files
        assert "bands_A_d4.csv" not in files
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: band A failed in sweep default, shift 2.5, degree 4: ")
        assert "exceeds ceiling" in err[0]

    def test_basis_size_past_2_to_the_53_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "ish"
        code = run_cli("repro-ishigami", "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", "--set", "degrees=[1000000000]")
        assert code == 2
        assert "exceeds the representable range" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("param", ["z3", '["z2"]', '{"z2":1}', "null", "both"])
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
        code = run_cli("repro-subsurface-synthetic", "--out", str(out),
                       "--set", "sweep_param=z2",
                       "--set", "n_trials=1",
                       "--set", "shifts=[0.0]",
                       "--set", "n_val=20")
        assert code == 0
        assert (out / "z2" / "trials_d3.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "z2" in summary["sweeps"]

    def test_subsurface_without_sweep_param_runs_both_sweeps(self, tmp_path):
        out = tmp_path / "sub"
        code = run_cli("repro-subsurface-synthetic", "--out", str(out), "--set", "n_trials=1",
                       "--set", "shifts=[0.0]", "--set", "n_val=20")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["sweeps"]) == {"z2", "R3"}
        assert summary["config"]["scenario"] == "subsurface-synthetic"
        for tag in ("z2", "R3"):
            assert (out / tag / "trials_d3.csv").exists()
