"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Criteria 3-5 run the shipped study configurations through the CLI exactly as
a user would, then assert trends on the emitted aggregate tables.  Criterion
7 reruns the same commands into fresh directories and compares CSVs byte for
byte.  A summary line per criterion is printed at the end of the session.
"""

import csv
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from oracles import (
    correlation_matrix,
    mc_edf,
    mc_kld,
    quad_product_integral,
    rand_problem,
    temper,
)
from pce_transfer.basis import BasisSpec
from pce_transfer.cli import main as cli_main
from pce_transfer.gaussian import CalibrationTask, likelihood
from pce_transfer.harness import trial_data
from pce_transfer.scenarios import subsurface_scenario
from pce_transfer.transfer import fuse, objective_value, tempered_posterior


def read_aggregate(path):
    """Aggregate CSV -> dict of column -> list of floats."""
    with open(path, newline="") as fh:
        fh.readline()  # config comment line
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {col: [float(r[col]) for r in rows] for col in rows[0]}


# ---------------------------------------------------------------------------
# Study runs shared by criteria 3-5 and 7 (each command runs exactly twice:
# once here, once inside the determinism criterion).
# ---------------------------------------------------------------------------

def run_study(command, out_dir):
    t0 = time.perf_counter()
    code = cli_main([command, "--out", str(out_dir)])
    elapsed = time.perf_counter() - t0
    assert code == 0, f"{command} failed"
    return elapsed


@pytest.fixture(scope="session")
def cubic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cubic")
    return out, run_study("repro-cubic", out)


@pytest.fixture(scope="session")
def ishigami_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ishigami")
    return out, run_study("repro-ishigami", out)


@pytest.fixture(scope="session")
def subsurface_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("subsurface")
    return out, run_study("repro-subsurface-synthetic", out)


# ---------------------------------------------------------------------------
# Criterion 1: conjugacy and tempering exactness
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=1, label="conjugacy & tempering exactness")
def test_criterion_1_conjugacy_and_tempering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for k in (2, 10, 56):
        for trial in range(3):
            prob = rand_problem(rng, k, "EDF")
            # Precision additivity within 1e-10 relative.
            for beta in (0.0, 0.25, 0.5, 1.0):
                post = tempered_posterior(prob, beta)
                lhs = np.linalg.inv(post.cov)
                rhs = np.linalg.inv(prob.target.cov) + beta * np.linalg.inv(prob.source.cov)
                assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
            # Tempering preserves the mean and correlation matrix to 1e-14.
            for beta in (0.1, 0.5, 0.9):
                t = temper(prob.source, beta)
                np.testing.assert_allclose(t.mean, prob.source.mean, atol=0)
                np.testing.assert_allclose(
                    correlation_matrix(t), correlation_matrix(prob.source), atol=1e-14
                )
            # beta = 1 equals the plain conjugate update exactly.
            via_temper = tempered_posterior(prob, 1.0)
            via_fuse = fuse(prob.source, prob.target)
            assert np.array_equal(via_temper.mean, via_fuse.mean)
            assert np.array_equal(via_temper.cov, via_fuse.cov)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: objective closed forms match quadrature / Monte-Carlo oracles
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=2, label="objective-oracle equivalence")
def test_criterion_2_objective_oracles():
    t0 = time.perf_counter()
    betas = (0.15, 0.4, 0.75, 1.0)

    def instances(objective):
        rng = np.random.default_rng(202)
        for i in range(20):
            k = 1 if i < 10 else 2
            yield i, rand_problem(rng, k, objective), betas[i % len(betas)]

    for i, prob, beta in instances("EDF"):
        oracle = mc_edf(prob, beta, seed=i)
        value = objective_value(prob, beta)
        assert abs(value - oracle) <= 0.01 * abs(oracle), f"EDF instance {i}"

    for i, prob, beta in instances("KLD"):
        oracle = mc_kld(prob, beta, seed=i)
        value = -objective_value(prob, beta)
        assert abs(value - oracle) <= 0.01 * max(abs(oracle), 1e-3), f"KLD instance {i}"

    for i, prob, beta in instances("ME"):
        oracle = quad_product_integral(temper(prob.source, beta), prob.target)
        value = np.exp(objective_value(prob, beta))
        assert abs(value - oracle) <= 0.005 * abs(oracle), f"ME instance {i}"

    for i, prob, beta in instances("DS"):
        tempered = temper(prob.source, beta)
        st_ = quad_product_integral(tempered, prob.target)
        ss = quad_product_integral(tempered, tempered)
        tt = quad_product_integral(prob.target, prob.target)
        oracle = 2.0 * st_ / (ss + tt)
        value = objective_value(prob, beta)
        assert abs(value - oracle) <= 0.005 * abs(oracle), f"DS instance {i}"

    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# Criterion 3: cubic domain adaptation trends
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=3, label="cubic domain adaptation")
def test_criterion_3_cubic_domain_adaptation(cubic_run):
    out, elapsed = cubic_run
    assert elapsed < 180.0

    cubic = read_aggregate(out / "aggregate_d3.csv")
    linear = read_aggregate(out / "aggregate_d1.csv")
    quadratic = read_aggregate(out / "aggregate_d2.csv")

    # (a) cubic surrogate transfers fully at every shift.
    assert min(cubic["beta_star_mean"]) >= 0.9

    # (b) linear surrogate: full transfer when coincident, rejected when far,
    # with a monotone trend across shifts.
    shifts = linear["shift"]
    betas = linear["beta_star_mean"]
    assert betas[0] >= 0.8
    assert betas[-1] <= 0.5
    rho = spearmanr(shifts, betas).statistic
    assert rho <= -0.7

    # (c) negative-transfer avoidance under EDF for every surrogate degree.
    for table in (linear, quadratic, cubic):
        assert min(table["dlpfp_vs_b0_mean"]) >= -0.05
        assert min(table["dlpfp_vs_b1_mean"]) >= -0.05


# ---------------------------------------------------------------------------
# Criterion 4: Ishigami task adaptation trends
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=4, label="Ishigami task adaptation")
def test_criterion_4_ishigami_task_adaptation(ishigami_run):
    out, elapsed = ishigami_run
    assert elapsed < 300.0

    table = read_aggregate(out / "aggregate_d3.csv")
    shifts = table["shift"]
    betas = table["beta_star_mean"]
    rmse_none = table["rmse_b0_mean"]
    rmse_opt = table["rmse_bstar_mean"]
    rmse_full = table["rmse_b1_mean"]

    # (a) with coincident tasks, transfer beats no transfer and matches full
    # transfer within 10%.
    assert rmse_none[0] > rmse_opt[0]
    assert abs(rmse_opt[0] - rmse_full[0]) <= 0.10 * rmse_full[0]

    # (b) transferred knowledge fades as the tasks separate.
    rho = spearmanr(shifts, betas).statistic
    assert rho <= -0.8

    # (c) at the largest separation, optimal transfer is no worse than full.
    assert rmse_opt[-1] <= rmse_full[-1]


# ---------------------------------------------------------------------------
# Criterion 5: synthetic subsurface sweep
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=5, label="subsurface-shaped synthetic sweep")
def test_criterion_5_subsurface_sweep(subsurface_run):
    out, elapsed = subsurface_run
    assert elapsed < 600.0

    table = read_aggregate(out / "z2" / "aggregate_d3.csv")
    betas = table["beta_star_mean"]
    assert betas[0] >= 0.9
    assert betas[-1] <= 0.5

    for opt, none, full in zip(table["rmse_bstar_mean"], table["rmse_b0_mean"],
                               table["rmse_b1_mean"]):
        assert opt <= min(none, full) * 1.10

    # The companion resistivity sweep must have run end to end as well.
    r3 = read_aggregate(out / "R3" / "aggregate_d3.csv")
    assert len(r3["shift"]) >= 2
    assert all(np.isfinite(r3["rmse_bstar_mean"]))


# ---------------------------------------------------------------------------
# Criterion 6: correlation diagnostics of the wide source likelihood
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=6, label="correlation diagnostics")
def test_criterion_6_correlation_diagnostics():
    cfg, _ = subsurface_scenario()
    cfg = cfg.with_shift(0.0)
    data = trial_data(cfg, 0)
    spec = BasisSpec.total_order(cfg.reference_box(), 3)
    source_lik = likelihood(
        CalibrationTask(spec, data.X_source, data.y_source, cfg.noise_var())
    )
    R = correlation_matrix(source_lik)
    p = R.shape[0]
    assert p == 56
    mean_abs_offdiag = np.abs(R - np.diag(np.diag(R))).sum() / (p * (p - 1))
    assert mean_abs_offdiag < 0.2


# ---------------------------------------------------------------------------
# Criterion 7: determinism of the study CSVs
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(criterion=7, label="byte-identical reruns")
def test_criterion_7_determinism(cubic_run, ishigami_run, subsurface_run,
                                 tmp_path_factory):
    for command, (first_out, _) in [
        ("repro-cubic", cubic_run),
        ("repro-ishigami", ishigami_run),
        ("repro-subsurface-synthetic", subsurface_run),
    ]:
        again = tmp_path_factory.mktemp(f"rerun-{command}")
        assert cli_main([command, "--out", str(again)]) == 0
        csvs = sorted(p.relative_to(first_out) for p in first_out.rglob("*.csv"))
        assert csvs, command
        for rel in csvs:
            assert (first_out / rel).read_bytes() == (again / rel).read_bytes(), (
                f"{command}: {rel} differs between reruns"
            )
        assert (first_out / "summary.json").read_bytes() == \
            (again / "summary.json").read_bytes()
