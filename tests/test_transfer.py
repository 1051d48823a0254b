"""Tests for tempering, transfer objectives, and the beta search.

The objective closed forms are checked against independent numerical
oracles: Monte-Carlo expectations for EDF and KLD, adaptive quadrature of
the defining integrals for ME and DS, and the plain matrix forms of all four.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    correlation_matrix,
    direct_objective,
    log_pdf,
    log_product_integral,
    mc_edf,
    mc_kld,
    precision_sum_posterior,
    quad_product_integral,
    rand_problem,
    rand_spd,
    temper,
)
from pce_transfer.errors import DomainError, NumericError
from pce_transfer.gaussian import GaussianDist
from pce_transfer.transfer import (
    TransferProblem,
    fuse,
    objective_value,
    optimize_beta,
    tempered_posterior,
)


def grid_posterior_moments(prob, beta, n_axis=201):
    """Normalize source^beta * target pointwise on a 2-d grid; return moments."""
    s, t = prob.source, prob.target
    center = 0.5 * (s.mean + t.mean)
    hw = 4.0 * np.sqrt(max((s.cov / max(beta, 1e-3)).max(), t.cov.max()))
    axes = [np.linspace(center[i] - hw, center[i] + hw, n_axis) for i in range(2)]
    G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    logw = beta * log_pdf(s, G) + log_pdf(t, G)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = w @ G
    diff = G - mean
    cov = (diff * w[:, None]).T @ diff
    return mean, cov


# ---------------------------------------------------------------------------
# Tempering
# ---------------------------------------------------------------------------

class TestTemper:
    def test_beta_one_is_identity(self):
        rng = np.random.default_rng(0)
        d = GaussianDist(rng.normal(size=3), rand_spd(rng, 3))
        t = temper(d, 1.0)
        np.testing.assert_array_equal(t.mean, d.mean)
        np.testing.assert_array_equal(t.cov, d.cov)

    def test_half_beta_doubles_covariance(self):
        rng = np.random.default_rng(1)
        d = GaussianDist(rng.normal(size=3), rand_spd(rng, 3))
        t = temper(d, 0.5)
        np.testing.assert_allclose(t.cov, 2.0 * d.cov, rtol=1e-15)

    @given(beta=st.sampled_from([0.1, 0.25, 0.5, 0.9]), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_correlation_and_mean_preserved(self, beta, seed):
        rng = np.random.default_rng(seed)
        d = GaussianDist(rng.normal(size=4), rand_spd(rng, 4))
        t = temper(d, beta)
        np.testing.assert_allclose(t.mean, d.mean, atol=0)
        np.testing.assert_allclose(
            correlation_matrix(t), correlation_matrix(d), atol=1e-14
        )

    def test_invalid_beta(self):
        d = GaussianDist(np.zeros(1), np.eye(1))
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                temper(d, bad)


class TestTemperedPosterior:
    def test_beta_zero_returns_target(self):
        rng = np.random.default_rng(2)
        prob = rand_problem(rng, 3, "EDF")
        assert tempered_posterior(prob, 0.0) is prob.target

    def test_beta_one_equals_plain_fuse(self):
        rng = np.random.default_rng(3)
        prob = rand_problem(rng, 4, "EDF")
        via_temper = tempered_posterior(prob, 1.0)
        via_fuse = fuse(prob.source, prob.target)
        np.testing.assert_array_equal(via_temper.mean, via_fuse.mean)
        np.testing.assert_array_equal(via_temper.cov, via_fuse.cov)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        prob = rand_problem(rng, 2, "EDF", mean_gap=0.3)
        post = tempered_posterior(prob, 0.3)
        mean_g, cov_g = grid_posterior_moments(prob, 0.3)
        assert np.abs(mean_g - post.mean).max() <= 0.02 * max(1.0, np.abs(post.mean).max())
        assert np.abs(cov_g - post.cov).max() <= 0.02 * np.abs(post.cov).max()

    @given(
        seed=st.integers(0, 500),
        beta=st.sampled_from([0.25, 0.5, 1.0]),
        k=st.sampled_from([2, 5]),
    )
    @settings(max_examples=30, deadline=None)
    def test_precision_additivity(self, seed, beta, k):
        rng = np.random.default_rng(seed)
        prob = rand_problem(rng, k, "EDF")
        post = tempered_posterior(prob, beta)
        lhs = np.linalg.inv(post.cov)
        rhs = np.linalg.inv(prob.target.cov) + beta * np.linalg.inv(prob.source.cov)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_monotone_uncertainty_in_beta(self):
        rng = np.random.default_rng(5)
        prob = rand_problem(rng, 3, "EDF")
        v = rng.normal(size=3)
        widths = [
            v @ tempered_posterior(prob, b).cov @ v
            for b in np.linspace(0.0, 1.0, 21)
        ]
        assert np.all(np.diff(widths) <= 1e-12)


def ill_conditioned_cov(rng, k, cond, scale):
    """Random-basis SPD covariance whose eigenvalues span `cond`."""
    Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    cov = (Q * (scale * np.logspace(0.0, -np.log10(cond), k))) @ Q.T
    return 0.5 * (cov + cov.T)


class TestWhitenedFrame:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_posterior_matches_cholesky_oracle_at_condition_1e9(self, seed):
        # p = 56 with covariances spanning nine decades, as the degree-3
        # subsurface fits at R3 shift 10 do.
        rng = np.random.default_rng(seed)
        k = 56
        source = GaussianDist(rng.normal(size=k), ill_conditioned_cov(rng, k, 1e9, 1e-2))
        target = GaussianDist(source.mean + 0.1 * rng.normal(size=k),
                              ill_conditioned_cov(rng, k, 1e9, 1e-3))
        assert np.linalg.cond(source.cov) == pytest.approx(1e9, rel=0.01)
        post = tempered_posterior(TransferProblem(source, target, "EDF"), 1.0)
        mean, cov = precision_sum_posterior(source, target)
        assert np.abs(post.mean - mean).max() <= 1e-9 * np.abs(mean).max()
        assert np.abs(post.cov - cov).max() <= 1e-9 * np.abs(cov).max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source_var, target_var", [(1e-300, 1e300), (1e-320, 1e308)])
    def test_overflowing_spectrum_is_numeric_error(self, source_var, target_var):
        # The first pair overflows the spectrum w = sigma^2, the second already
        # the whitened factor L_s^-1 L_t.
        source = GaussianDist(np.zeros(2), source_var * np.eye(2))
        target = GaussianDist(np.zeros(2), target_var * np.eye(2))
        with pytest.raises(NumericError):
            fuse(source, target)

    def test_svd_failure_is_numeric_error(self, monkeypatch):
        def no_convergence(*_args, **_kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        prob = rand_problem(np.random.default_rng(20), 3, "EDF")
        with pytest.raises(NumericError):
            optimize_beta(prob)

    def test_frame_is_factorized_once_per_problem(self):
        prob = rand_problem(np.random.default_rng(21), 4, "EDF")
        frame = prob.frame
        optimize_beta(prob)
        tempered_posterior(prob, 1.0)
        assert prob.frame is frame


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

class TestObjectiveValues:
    def test_edf_closed_form_for_standard_normals(self):
        # Identical standard-normal source and target: posterior covariance
        # I/(1+beta), zero mean gap.
        k = 2
        d = GaussianDist(np.zeros(k), np.eye(k))
        prob = TransferProblem(d, d, "EDF")
        for beta in [0.0, 0.2, 0.7, 1.0]:
            expected = -0.5 * (k / (1.0 + beta) + k * np.log(2.0 * np.pi))
            assert objective_value(prob, beta) == pytest.approx(expected, rel=1e-12)

    def test_me_frozen_value(self):
        # log N(1; 0, 2) = -0.25 - 0.5 log(4 pi), confirmed by quadrature below.
        src = GaussianDist(np.array([0.0]), np.array([[1.0]]))
        tgt = GaussianDist(np.array([1.0]), np.array([[1.0]]))
        prob = TransferProblem(src, tgt, "ME")
        value = objective_value(prob, 1.0)
        assert value == pytest.approx(-1.5155121234846454, rel=1e-12)
        oracle = quad_product_integral(temper(src, 1.0), tgt)
        assert np.exp(value) == pytest.approx(oracle, rel=1e-8)

    def test_ds_of_identical_distributions_is_one(self):
        rng = np.random.default_rng(6)
        d = GaussianDist(rng.normal(size=2), rand_spd(rng, 2))
        prob = TransferProblem(d, d, "DS")
        assert objective_value(prob, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_beta_domain_errors(self):
        rng = np.random.default_rng(7)
        for objective in ("KLD", "ME", "DS"):
            prob = rand_problem(rng, 2, objective)
            with pytest.raises(DomainError):
                objective_value(prob, 0.0)
            with pytest.raises(DomainError):
                objective_value(prob, 1.0 + 1e-9)
        prob = rand_problem(rng, 2, "EDF")
        assert np.isfinite(objective_value(prob, 0.0))

    def test_me_equals_product_integral(self):
        rng = np.random.default_rng(8)
        prob = rand_problem(rng, 3, "ME")
        for beta in (0.2, 0.6, 1.0):
            identity = log_product_integral(temper(prob.source, beta), prob.target)
            assert objective_value(prob, beta) == pytest.approx(identity, rel=1e-12)

    @pytest.mark.parametrize("objective", ["EDF", "KLD", "ME", "DS"])
    def test_whitened_scan_matches_direct_forms(self, objective):
        rng = np.random.default_rng(9)
        for k in (1, 3, 8):
            prob = rand_problem(rng, k, objective)
            betas = [1e-6, 0.01, 0.3, 0.77, 1.0]
            if objective == "EDF":
                betas.append(0.0)
            for beta in betas:
                direct = direct_objective(prob, beta)
                assert objective_value(prob, beta) == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("objective", ["EDF", "KLD", "ME", "DS"])
    def test_single_values_reproduce_the_scan_curve(self, objective):
        rng = np.random.default_rng(19)
        for k in (1, 2, 10, 56):
            prob = rand_problem(rng, k, objective)
            res = optimize_beta(prob)
            for i in np.linspace(0, len(res.betas) - 1, 6).astype(int):
                scanned = res.values[i]
                if objective == "DS":  # scanned as log-DS
                    scanned = math.exp(scanned)
                assert objective_value(prob, res.betas[i]) == scanned, (k, i)


class TestObjectiveOracles:
    def test_edf_against_monte_carlo(self):
        rng = np.random.default_rng(10)
        prob = rand_problem(rng, 2, "EDF")
        for beta in (0.3, 1.0):
            mc = mc_edf(prob, beta, seed=int(beta * 100))
            assert objective_value(prob, beta) == pytest.approx(mc, rel=0.01)

    def test_kld_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        prob = rand_problem(rng, 2, "KLD")
        for beta in (0.4, 0.9):
            mc = mc_kld(prob, beta, seed=int(beta * 100))
            assert -objective_value(prob, beta) == pytest.approx(mc, rel=0.01)

    def test_me_against_quadrature(self):
        rng = np.random.default_rng(12)
        for k in (1, 2):
            prob = rand_problem(rng, k, "ME")
            for beta in (0.25, 1.0):
                oracle = quad_product_integral(temper(prob.source, beta), prob.target)
                assert np.exp(objective_value(prob, beta)) == pytest.approx(oracle, rel=0.005)

    def test_ds_against_quadrature(self):
        rng = np.random.default_rng(13)
        for k in (1, 2):
            prob = rand_problem(rng, k, "DS")
            for beta in (0.25, 1.0):
                tempered = temper(prob.source, beta)
                st_ = quad_product_integral(tempered, prob.target)
                ss = quad_product_integral(tempered, tempered)
                tt = quad_product_integral(prob.target, prob.target)
                oracle = 2.0 * st_ / (ss + tt)
                assert objective_value(prob, beta) == pytest.approx(oracle, rel=0.005)


# ---------------------------------------------------------------------------
# Beta search
# ---------------------------------------------------------------------------

class TestOptimizeBeta:
    def test_identical_distributions_give_full_transfer_under_edf(self):
        d = GaussianDist(np.zeros(2), np.eye(2))
        res = optimize_beta(TransferProblem(d, d, "EDF"))
        assert res.beta_star == pytest.approx(1.0, abs=1e-9)

    def test_distant_source_is_rejected_under_edf(self):
        source = GaussianDist(np.array([100.0]), np.array([[1.0]]))
        target = GaussianDist(np.array([0.0]), np.array([[1.0]]))
        res = optimize_beta(TransferProblem(source, target, "EDF"))
        assert res.beta_star <= 0.05

    def test_far_source_is_rejected_under_ds(self):
        # DS itself underflows to 0.0 at every scan point here, which once
        # broke the tie toward beta = 1; log-DS keeps the scan informative.
        k = 56
        source = GaussianDist(np.zeros(k), 1e-5 * np.eye(k))
        target = GaussianDist(np.full(k, 20.0), 1e-5 * np.eye(k))
        res = optimize_beta(TransferProblem(source, target, "DS"))
        assert np.all(np.isfinite(res.values))
        assert np.all(np.diff(res.values) < 0)
        assert res.beta_star <= 1e-5

    def test_curve_is_bit_reproducible(self):
        rng = np.random.default_rng(14)
        prob = rand_problem(rng, 3, "KLD")
        r1 = optimize_beta(prob)
        r2 = optimize_beta(prob)
        assert r1.beta_star == r2.beta_star
        np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(r1.betas, r2.betas)

    def test_curve_resolution_and_bounds(self):
        rng = np.random.default_rng(15)
        prob = rand_problem(rng, 2, "ME")
        res = optimize_beta(prob, scan_points=501)
        assert len(res.betas) == 501
        assert res.betas[0] == pytest.approx(1e-6)
        assert res.betas[-1] == 1.0
        prob_edf = rand_problem(rng, 2, "EDF")
        res_edf = optimize_beta(prob_edf, scan_points=501)
        assert res_edf.betas[0] == 0.0

    def test_posterior_is_recomputable_at_beta_star(self):
        rng = np.random.default_rng(16)
        prob = rand_problem(rng, 3, "EDF")
        res = optimize_beta(prob)
        again = tempered_posterior(prob, res.beta_star)
        np.testing.assert_array_equal(res.tempered_posterior.mean, again.mean)
        np.testing.assert_array_equal(res.tempered_posterior.cov, again.cov)

    def test_beta_star_maximizes_scan(self):
        rng = np.random.default_rng(17)
        for objective in ("EDF", "KLD", "ME", "DS"):
            prob = rand_problem(rng, 2, objective)
            res = optimize_beta(prob)
            best = objective_value(prob, res.beta_star)
            if objective == "DS":  # scanned as log-DS
                best = math.log(best)
            assert best >= res.values.max() - 1e-9

    def test_record_serialization(self):
        rng = np.random.default_rng(18)
        prob = rand_problem(rng, 2, "EDF")
        res = optimize_beta(prob)
        rec = res.to_record()
        assert rec["beta_star"] == res.beta_star
        assert len(rec["curve"]["beta"]) == len(res.betas)
        assert rec["posterior"]["dim"] == 2


class TestTransferProblemValidation:
    def test_objective_normalized_to_upper_case(self):
        d = GaussianDist(np.zeros(1), np.eye(1))
        assert TransferProblem(d, d, "edf").objective == "EDF"

    def test_unknown_objective_rejected(self):
        d = GaussianDist(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            TransferProblem(d, d, "MAP")

    def test_dimension_mismatch_rejected(self):
        a = GaussianDist(np.zeros(1), np.eye(1))
        b = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(NumericError):
            TransferProblem(a, b, "EDF")
