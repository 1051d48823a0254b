"""Tests for pushed-forward predictions and scoring."""

import dataclasses

import numpy as np
import pytest

from oracles import correlation_matrix, temper
from pce_transfer.basis import BasisSpec, DomainBox, vandermonde
from pce_transfer.errors import DomainError
from pce_transfer.gaussian import GaussianDist, likelihood
from pce_transfer.models import cubic_truth
from pce_transfer.predict import (
    Design,
    PfpPrediction,
    lpfp,
    pushforward,
    rmse,
)


def rand_spd(rng, k, scale=1.0):
    F = rng.normal(size=(k, k))
    S = F @ F.T / k + 0.3 * np.eye(k)
    return scale * 0.5 * (S + S.T)


UNIT_BOX = DomainBox(np.array([-1.0]), np.array([1.0]))


def point_mass(spec, coeff, points):
    """Noise-free prediction of fixed coefficients: the mean surrogate alone."""
    return PfpPrediction(vandermonde(spec, points) @ coeff, np.zeros(len(points)))


class TestPfpPrediction:
    def test_holds_only_what_the_scores_read(self):
        assert [f.name for f in dataclasses.fields(PfpPrediction)] == ["mean", "marginal_var"]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PfpPrediction(np.zeros(2), np.ones(3))

    def test_design_keeps_its_matrix_not_its_points(self):
        spec = BasisSpec.total_order(UNIT_BOX, 2)
        design = Design(spec, [[0.5], [-0.25]])
        np.testing.assert_array_equal(design.matrix, vandermonde(spec, np.array([[0.5], [-0.25]])))
        assert [f.name for f in dataclasses.fields(design)] == ["basis", "matrix"]


class TestPushforward:
    def test_degree_zero_single_point_is_posterior(self):
        spec = BasisSpec.total_order(UNIT_BOX, 0)
        post = GaussianDist(np.array([1.7]), np.array([[0.04]]))
        pred = pushforward(post, Design(spec, np.array([[0.2]])))
        assert pred.mean[0] == pytest.approx(1.7)
        assert pred.marginal_var[0] == pytest.approx(0.04)

    def test_identical_points_have_equal_marginals(self):
        rng = np.random.default_rng(0)
        spec = BasisSpec.total_order(UNIT_BOX, 2)
        post = GaussianDist(rng.normal(size=3), rand_spd(rng, 3, 0.1))
        pred = pushforward(post, Design(spec, np.array([[0.4], [0.4]])))
        assert pred.mean[0] == pred.mean[1]
        assert pred.marginal_var[0] == pred.marginal_var[1]

    def test_matches_monte_carlo_pushforward(self):
        rng = np.random.default_rng(1)
        spec = BasisSpec.total_order(UNIT_BOX, 3)
        post = GaussianDist(rng.normal(size=4), rand_spd(rng, 4, 0.3))
        points = np.linspace(-0.9, 0.9, 5).reshape(-1, 1)
        pred = pushforward(post, Design(spec, points))

        draws = rng.multivariate_normal(post.mean, post.cov, size=1_000_000)
        A = vandermonde(spec, points)
        pushed = draws @ A.T
        np.testing.assert_allclose(pred.mean, pushed.mean(axis=0), rtol=0.01, atol=1e-3)
        np.testing.assert_allclose(pred.marginal_var, pushed.var(axis=0), rtol=0.01)

    def test_noise_inflation_is_diagonal_only(self):
        rng = np.random.default_rng(2)
        spec = BasisSpec.total_order(UNIT_BOX, 1)
        post = GaussianDist(rng.normal(size=2), rand_spd(rng, 2))
        points = np.array([[-0.5], [0.5]])
        plain = pushforward(post, Design(spec, points))
        noisy = pushforward(post, Design(spec, points), noise_var=0.04)
        np.testing.assert_array_equal(noisy.mean, plain.mean)
        np.testing.assert_allclose(noisy.marginal_var - plain.marginal_var, 0.04, atol=1e-15)

    def test_point_permutation_permutes_prediction(self):
        rng = np.random.default_rng(3)
        spec = BasisSpec.total_order(UNIT_BOX, 2)
        post = GaussianDist(rng.normal(size=3), rand_spd(rng, 3))
        pts = np.array([[-0.7], [0.1], [0.8]])
        perm = np.array([2, 0, 1])
        direct = pushforward(post, Design(spec, pts[perm]))
        permuted = pushforward(post, Design(spec, pts))
        np.testing.assert_array_equal(direct.mean, permuted.mean[perm])
        np.testing.assert_array_equal(direct.marginal_var, permuted.marginal_var[perm])

    def test_dimension_mismatch_rejected(self):
        spec = BasisSpec.total_order(UNIT_BOX, 2)
        post = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            pushforward(post, Design(spec, np.array([[0.0]])))

    @pytest.mark.parametrize("noise_var", [-1.0, -1e-300, float("nan"), float("inf"), "0.1"])
    def test_negative_or_non_finite_noise_var_rejected(self, noise_var):
        spec = BasisSpec.total_order(UNIT_BOX, 0)
        post = GaussianDist(np.array([1.7]), np.array([[0.04]]))
        with pytest.raises(ValueError, match="noise_var must be a non-negative finite number"):
            pushforward(post, Design(spec, np.array([[0.2]])), noise_var=noise_var)

    def test_marginals_at_many_points_match_dense_diagonal(self):
        # 1e5 points: the m x m covariance would need 80 GB, the marginals 0.8 MB.
        rng = np.random.default_rng(8)
        box = DomainBox(np.zeros(3), np.ones(3))
        spec = BasisSpec.total_order(box, 2)
        assert spec.n_terms == 10
        post = GaussianDist(rng.normal(size=10), rand_spd(rng, 10, 0.2))
        points = rng.uniform(size=(100_000, 3))
        pred = pushforward(post, Design(spec, points))
        A = vandermonde(spec, points)
        expected = np.einsum("ij,jk,ik->i", A, post.cov, A)
        assert np.all(np.isfinite(pred.marginal_var))
        np.testing.assert_allclose(pred.marginal_var, expected, rtol=1e-10)


class TestLpfp:
    def test_single_point_at_mean_unit_variance(self):
        pred = PfpPrediction(np.array([2.0]), np.array([1.0]))
        assert lpfp(pred, np.array([2.0])) == pytest.approx(-0.9189385332046727)

    def test_sum_over_identical_points(self):
        m = 7
        pred = PfpPrediction(np.full(m, 2.0), np.ones(m))
        single = PfpPrediction(np.array([2.0]), np.ones(1))
        assert lpfp(pred, np.full(m, 2.0)) == pytest.approx(
            m * lpfp(single, np.array([2.0])), rel=1e-12
        )

    def test_shrinking_variance_with_mismatch_diverges(self):
        scores = []
        for var in [1.0, 1e-2, 1e-4, 1e-8]:
            pred = PfpPrediction(np.array([0.0]), np.array([var]))
            scores.append(lpfp(pred, np.array([0.5])))
        assert np.all(np.diff(scores) < 0)

    def test_underflowing_variance_is_clamped_not_infinite(self):
        pred = PfpPrediction(np.array([0.0]), np.array([0.0]))
        score = lpfp(pred, np.array([0.0]))
        assert np.isfinite(score)

    def test_additive_over_disjoint_subsets(self):
        rng = np.random.default_rng(4)
        spec = BasisSpec.total_order(UNIT_BOX, 2)
        post = GaussianDist(rng.normal(size=3), rand_spd(rng, 3))
        pts = rng.uniform(-1, 1, size=(6, 1))
        y = rng.normal(size=6)
        whole = lpfp(pushforward(post, Design(spec, pts)), y)
        parts = lpfp(pushforward(post, Design(spec, pts[:2])), y[:2]) + lpfp(
            pushforward(post, Design(spec, pts[2:])), y[2:]
        )
        assert whole == pytest.approx(parts, rel=1e-12)


class TestRmse:
    def test_perfect_fit_is_zero(self):
        spec = BasisSpec.total_order(UNIT_BOX, 1)
        coeff = np.array([0.3, 1.2])
        pts = np.linspace(-1, 1, 9).reshape(-1, 1)
        y = vandermonde(spec, pts) @ coeff
        assert rmse(point_mass(spec, coeff, pts), y) == 0.0

    def test_constant_offset(self):
        spec = BasisSpec.total_order(UNIT_BOX, 1)
        coeff = np.array([0.0, 1.0])
        pts = np.linspace(-1, 1, 5).reshape(-1, 1)
        y = vandermonde(spec, pts) @ coeff + 0.25
        assert rmse(point_mass(spec, coeff, pts), y) == pytest.approx(0.25, rel=1e-12)

    def test_in_span_cubic_recovery(self):
        rng = np.random.default_rng(5)
        box = DomainBox(np.array([-0.2]), np.array([0.3]))
        spec = BasisSpec.total_order(box, 3)
        X = rng.uniform(-0.2, 0.3, size=(16, 1))
        Y = cubic_truth(X[:, 0])
        lik = likelihood(spec, X, Y, noise_var=1e-12)
        val = rng.uniform(-0.2, 0.3, size=(50, 1))
        assert rmse(pushforward(lik, Design(spec, val)), cubic_truth(val[:, 0])) <= 1e-8

    def test_empty_points_rejected(self):
        empty = PfpPrediction(np.empty(0), np.empty(0))
        with pytest.raises(DomainError):
            rmse(empty, np.empty(0))

    def test_length_mismatch_rejected(self):
        pred = PfpPrediction(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            rmse(pred, np.zeros(3))


class TestCorrelationMatrix:
    def test_diagonal_covariance_gives_identity(self):
        d = GaussianDist(np.zeros(3), np.diag([0.5, 2.0, 7.0]))
        np.testing.assert_allclose(correlation_matrix(d), np.eye(3), atol=1e-15)

    def test_known_two_dim_case(self):
        d = GaussianDist(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
        R = correlation_matrix(d)
        assert R[0, 1] == pytest.approx(0.5, rel=1e-15)
        assert R[0, 0] == 1.0

    def test_invariant_under_tempering(self):
        rng = np.random.default_rng(6)
        d = GaussianDist(rng.normal(size=4), rand_spd(rng, 4))
        base = correlation_matrix(d)
        for beta in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(
                correlation_matrix(temper(d, beta)), base, atol=1e-14
            )
