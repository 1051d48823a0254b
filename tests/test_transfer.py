"""Tests for tempering, transfer objectives, and the beta search.

The objective closed forms are checked against independent numerical
oracles: Monte-Carlo expectations for EDF and KLD, adaptive quadrature of
the defining integrals for ME and DS, and the plain matrix forms of all four.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    broadcast_values,
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
    DEFAULT_SCAN_POINTS,
    OBJECTIVES,
    SCAN_BLOCK_ELEMENTS,
    TransferProblem,
    WhitenedFrame,
    fuse,
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

    @pytest.mark.parametrize("beta", [-1.0, 1.5, float("nan")])
    def test_beta_outside_0_1_rejected_by_the_frame(self, beta):
        prob = rand_problem(np.random.default_rng(2), 3, "EDF")
        for read in (lambda b: tempered_posterior(prob, b), prob.frame.whitened):
            with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
                read(beta)

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

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_new_target_mean_keeps_the_svd_and_matches_a_fresh_frame(self, objective):
        rng = np.random.default_rng(22)
        prob = rand_problem(rng, 6, objective)
        optimize_beta(prob)
        moved = GaussianDist(prob.target.mean + rng.normal(size=6), prob.target.cov.copy())
        kept = prob.with_target(moved)
        assert kept.target is moved and kept.source is prob.source
        assert kept.frame.F is prob.frame.F and kept.frame.w is prob.frame.w
        fresh = TransferProblem(prob.source, moved, objective)
        for name in ("w", "F", "m_t", "m_s", "logdet_t"):
            assert np.array_equal(getattr(kept.frame, name), getattr(fresh.frame, name)), name
        a, b = optimize_beta(kept), optimize_beta(fresh)
        assert a.beta_star == b.beta_star and a.values.tobytes() == b.values.tobytes()
        assert prob.frame.m_t.tobytes() != kept.frame.m_t.tobytes()

    def test_new_target_covariance_gets_its_own_frame(self):
        rng = np.random.default_rng(23)
        prob = rand_problem(rng, 4, "EDF")
        prob.frame
        wider = GaussianDist(prob.target.mean, 2.0 * prob.target.cov)
        moved = prob.with_target(wider)
        assert moved.frame is not prob.frame and moved.frame.F is not prob.frame.F
        assert np.array_equal(moved.frame.w, WhitenedFrame(prob.source, wider).w)
        unsolved = rand_problem(rng, 4, "EDF").with_target(wider)
        assert "frame" not in vars(unsolved)

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
            assert prob.frame.value("EDF", beta) == pytest.approx(expected, rel=1e-12)

    def test_me_frozen_value(self):
        # log N(1; 0, 2) = -0.25 - 0.5 log(4 pi), confirmed by quadrature below.
        src = GaussianDist(np.array([0.0]), np.array([[1.0]]))
        tgt = GaussianDist(np.array([1.0]), np.array([[1.0]]))
        prob = TransferProblem(src, tgt, "ME")
        value = prob.frame.value("ME", 1.0)
        assert value == pytest.approx(-1.5155121234846454, rel=1e-12)
        oracle = quad_product_integral(temper(src, 1.0), tgt)
        assert np.exp(value) == pytest.approx(oracle, rel=1e-8)

    def test_ds_of_identical_distributions_is_one(self):
        rng = np.random.default_rng(6)
        d = GaussianDist(rng.normal(size=2), rand_spd(rng, 2))
        prob = TransferProblem(d, d, "DS")
        assert math.exp(prob.frame.value("DS", 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_me_equals_product_integral(self):
        rng = np.random.default_rng(8)
        prob = rand_problem(rng, 3, "ME")
        for beta in (0.2, 0.6, 1.0):
            identity = log_product_integral(temper(prob.source, beta), prob.target)
            assert prob.frame.value("ME", beta) == pytest.approx(identity, rel=1e-12)

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
                value = prob.frame.value(objective, beta)
                if objective == "DS":  # evaluated as log-DS
                    value = math.exp(value)
                assert value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("objective", ["EDF", "KLD", "ME", "DS"])
    def test_single_values_reproduce_the_scan_curve(self, objective):
        rng = np.random.default_rng(19)
        for k in (1, 2, 10, 56):
            prob = rand_problem(rng, k, objective)
            # 20_001 points are several scan blocks at k = 10 and 56.
            for scan_points in (DEFAULT_SCAN_POINTS, 20_001):
                res = optimize_beta(prob, scan_points=scan_points)
                for i in np.linspace(0, len(res.betas) - 1, 6).astype(int):
                    value = prob.frame.value(objective, res.betas[i])
                    assert value == res.values[i], (k, scan_points, i)


class TestScanKernel:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("k", [1, 4, 10, 56, 300])
    def test_blocks_match_the_broadcast_formulas(self, objective, k):
        prob = rand_problem(np.random.default_rng(k), k, objective)
        frame = prob.frame
        lo = 0.0 if objective == "EDF" else 1e-6
        rows = SCAN_BLOCK_ELEMENTS // k
        for n in (1, rows, rows + 1, 5 * rows + 3):  # one point, then 1, 2 and 6 blocks
            betas = np.linspace(lo, 1.0, n)
            assert np.array_equal(frame.values(objective, betas),
                                  broadcast_values(frame, objective, betas)), n
        betas = np.linspace(lo, 1.0, 7)
        assert ([frame.value(objective, beta) for beta in betas]
                == broadcast_values(frame, objective, betas).tolist())

    def test_scan_memory_grows_with_points_not_points_times_p(self):
        # Broadcast over the whole grid, one (100_001, 56) temporary is 45 MB.
        base = rand_problem(np.random.default_rng(56), 56, "EDF")
        problems = [dataclasses.replace(base, objective=objective) for objective in OBJECTIVES]
        for prob in problems:
            prob.frame  # factorized before the measurement
        tracemalloc.start()
        try:
            for prob in problems:
                tracemalloc.reset_peak()
                optimize_beta(prob, scan_points=100_001)
                assert tracemalloc.get_traced_memory()[1] < 16 * 2**20, prob.objective
        finally:
            tracemalloc.stop()


class TestObjectiveOracles:
    def test_edf_against_monte_carlo(self):
        rng = np.random.default_rng(10)
        prob = rand_problem(rng, 2, "EDF")
        for beta in (0.3, 1.0):
            mc = mc_edf(prob, beta, seed=int(beta * 100))
            assert prob.frame.value("EDF", beta) == pytest.approx(mc, rel=0.01)

    def test_kld_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        prob = rand_problem(rng, 2, "KLD")
        for beta in (0.4, 0.9):
            mc = mc_kld(prob, beta, seed=int(beta * 100))
            assert -prob.frame.value("KLD", beta) == pytest.approx(mc, rel=0.01)

    def test_me_against_quadrature(self):
        rng = np.random.default_rng(12)
        for k in (1, 2):
            prob = rand_problem(rng, k, "ME")
            for beta in (0.25, 1.0):
                oracle = quad_product_integral(temper(prob.source, beta), prob.target)
                assert np.exp(prob.frame.value("ME", beta)) == pytest.approx(oracle, rel=0.005)

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
                value = np.exp(prob.frame.value("DS", beta))  # the scan ranks DS as log-DS
                assert value == pytest.approx(oracle, rel=0.005)


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
            best = prob.frame.value(objective, res.beta_star)  # log-DS for DS, as scanned
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
        with pytest.raises(ValueError):
            TransferProblem(a, b, "EDF")


class TestScanSettings:
    """optimize_beta checks its own scan settings."""

    D = GaussianDist(np.zeros(1), np.eye(1))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("scan_points", [0, 1, 2.5, True])
    def test_bad_scan_points_rejected(self, objective, scan_points):
        with pytest.raises(ValueError, match="scan_points"):
            optimize_beta(TransferProblem(self.D, self.D, objective), scan_points=scan_points)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("beta_floor", [0, -0.5, 1, 2.0, float("nan"), "small"])
    def test_bad_beta_floor_rejected(self, objective, beta_floor):
        prob = TransferProblem(self.D, self.D, objective)
        with pytest.raises(ValueError, match="beta_floor"):
            optimize_beta(prob, beta_floor=beta_floor)

    def test_floor_starts_the_scan_except_under_edf(self):
        for objective in OBJECTIVES:
            res = optimize_beta(TransferProblem(self.D, self.D, objective), scan_points=11,
                                beta_floor=0.25)
            assert res.betas[0] == (0.0 if objective == "EDF" else 0.25)
            assert 0.0 <= res.beta_star <= 1.0
