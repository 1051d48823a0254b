"""Tests for Gaussian likelihoods, conjugate fusion, and log densities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pce_transfer.basis import BasisSpec, DomainBox
from pce_transfer.errors import CalibrationError, NumericError
from oracles import exact_ridge_mean, log_pdf
from pce_transfer.gaussian import GaussianDist, factorize, likelihood
from pce_transfer.transfer import fuse


def rand_spd(rng, k, scale=1.0):
    F = rng.normal(size=(k, k))
    S = F @ F.T / k + 0.3 * np.eye(k)
    return scale * 0.5 * (S + S.T)


def rand_gaussian(rng, k, scale=1.0):
    return GaussianDist(rng.normal(size=k), rand_spd(rng, k, scale))


def grid_product_moments(a: GaussianDist, b: GaussianDist, n_axis=41):
    """Brute-force oracle: normalize the pointwise product of two pdfs on a grid.

    The cube is sized from the inputs alone so the oracle never consults the
    fusion code it checks.
    """
    k = a.dim
    center = 0.5 * (a.mean + b.mean)
    hw = 4.0 * np.sqrt(max(a.cov.max(), b.cov.max()))
    axes = [np.linspace(center[i] - hw, center[i] + hw, n_axis) for i in range(k)]
    G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    logw = log_pdf(a, G) + log_pdf(b, G)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = w @ G
    diff = G - mean
    cov = (diff * w[:, None]).T @ diff
    return mean, cov


class TestGaussianDist:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NumericError):
            GaussianDist(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NumericError):
            GaussianDist(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("where,value", [
        ("mean", np.nan), ("mean", np.inf), ("cov", np.nan), ("cov", -np.inf),
    ])
    def test_rejects_non_finite_entries(self, where, value):
        mean, cov = np.zeros(2), np.eye(2)
        if where == "mean":
            mean[1] = value
        else:
            cov[1, 1] = value
        with pytest.raises(NumericError, match="finite"):
            GaussianDist(mean, cov)

    @pytest.mark.parametrize("mean,cov", [
        (np.zeros(2), np.eye(3)), (np.zeros(3), np.eye(2)), (np.zeros(2), np.zeros((2, 3))),
        (np.zeros(2), np.zeros(2)),
    ])
    def test_shapes_that_disagree_are_value_errors(self, mean, cov):
        with pytest.raises(ValueError) as exc:
            GaussianDist(mean, cov)
        assert not isinstance(exc.value, NumericError)

    def test_record_round_trip(self):
        rng = np.random.default_rng(0)
        d = rand_gaussian(rng, 4)
        again = GaussianDist.from_record(d.to_record())
        np.testing.assert_array_equal(again.mean, d.mean)
        np.testing.assert_array_equal(again.cov, d.cov)


class TestLikelihood:
    def test_non_finite_point_raises_value_error_not_linalg_error(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 1)
        with pytest.raises(ValueError, match="finite") as exc:
            likelihood(spec, np.array([0.2, np.nan, 0.8]), np.zeros(3))
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_rejected(self, bad):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 1)
        with pytest.raises(ValueError, match="finite"):
            likelihood(spec, np.array([0.2, 0.5, 0.8]), [1.0, bad, 2.0], noise_var=0.01)

    def test_constant_only_fit_is_sample_mean(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 0)
        lik = likelihood(spec, np.array([[0.2], [0.8]]), np.array([1.0, 3.0]), noise_var=0.09)
        assert lik.mean[0] == pytest.approx(2.0, rel=1e-14)
        assert lik.cov[0, 0] == pytest.approx(0.09 / 2.0, rel=1e-12)

    def test_recovers_in_span_coefficients(self):
        rng = np.random.default_rng(3)
        spec = BasisSpec.total_order(DomainBox(np.array([-0.2]), np.array([0.3])), 3)
        theta_true = rng.normal(size=spec.n_terms)
        from pce_transfer.basis import vandermonde

        X = rng.uniform(-0.2, 0.3, size=(16, 1))
        Y = vandermonde(spec, X) @ theta_true
        lik = likelihood(spec, X, Y, noise_var=1e-12)
        np.testing.assert_allclose(lik.mean, theta_true, atol=1e-8)

    def test_cubic_fit_matches_svd_solve(self):
        # Oracle: numpy's SVD-based lstsq on the same design matrix.
        from pce_transfer.basis import vandermonde
        from pce_transfer.models import cubic_truth

        rng = np.random.default_rng(11)
        spec = BasisSpec.total_order(DomainBox(np.array([-0.2]), np.array([0.3])), 3)
        X = rng.uniform(-0.2, 0.3, size=(16, 1))
        Y = cubic_truth(X[:, 0]) + 0.01 * rng.standard_normal(16)
        lik, report = factorize(spec, X).fit(Y, noise_var=0.01**2)
        A = vandermonde(spec, X)
        oracle_mean = np.linalg.lstsq(A, Y, rcond=None)[0]
        np.testing.assert_allclose(lik.mean, oracle_mean, atol=1e-10)
        assert report["residual_rmse"] <= 2 * 0.01

    def test_under_determined_raises(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 3)
        with pytest.raises(CalibrationError, match="under-determined"):
            likelihood(spec, np.array([[0.1], [0.5]]), np.array([0.0, 1.0]))

    def test_ill_conditioned_raises_with_condition_number(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 3)
        X = np.array([[0.5], [0.5], [0.5], [0.500000001], [0.5000000005]])
        with pytest.raises(CalibrationError, match="condition number"):
            likelihood(spec, X, np.zeros(5), noise_var=1.0)

    @pytest.mark.parametrize("settings", [
        {"jitter": -1.0}, {"jitter": float("nan")},
        {"cond_ceiling": -1.0}, {"cond_ceiling": float("nan")},
        {"jitter": float("inf")}, {"cond_ceiling": float("inf")},
    ])
    def test_settings_that_would_drop_the_ceiling_rejected(self, settings):
        # Without the check, a negative or NaN jitter skipped both the
        # condition-number ceiling and the ridge, fitting this design unguarded.
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 3)
        X = np.array([[0.5], [0.5], [0.5], [0.500000001], [0.5000000005]])
        with pytest.raises(ValueError, match="cond_ceiling must be positive and jitter"):
            factorize(spec, X, **settings).fit(np.zeros(5), noise_var=1.0)

    @pytest.mark.parametrize("noise_var", ["x", [1.0], True, 0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_malformed_noise_var_rejected(self, noise_var):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 1)
        with pytest.raises(ValueError, match="noise_var must be positive"):
            likelihood(spec, np.array([[0.1], [0.5]]), np.zeros(2), noise_var=noise_var)

    def test_jitter_opt_in_allows_degenerate_fit(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 3)
        X = np.array([[0.5], [0.5], [0.5], [0.500000001], [0.5000000005]])
        lik = factorize(spec, X, jitter=1e-6).fit(np.zeros(5), noise_var=1.0)[0]
        assert np.all(np.isfinite(lik.cov))

    def test_jitter_fit_is_the_ridge_solution(self):
        from pce_transfer.basis import vandermonde

        rng = np.random.default_rng(3)
        spec = BasisSpec.total_order(DomainBox(np.zeros(2), np.ones(2)), 3)
        X = rng.uniform(0, 1, size=(30, 2))
        Y = rng.normal(size=30)
        lik, report = factorize(spec, X, jitter=0.1).fit(Y, noise_var=0.5)
        A = vandermonde(spec, X)
        gram = A.T @ A + 0.1 * np.eye(spec.n_terms)
        np.testing.assert_allclose(lik.mean, np.linalg.solve(gram, A.T @ Y), rtol=1e-10)
        np.testing.assert_allclose(lik.cov, 0.5 * np.linalg.inv(gram), rtol=1e-10, atol=1e-14)
        assert report["condition_number"] == pytest.approx(np.linalg.cond(gram), rel=1e-8)

    @pytest.mark.parametrize("jitter", [1e-6, 1e-9, 1e-12])
    def test_ridge_on_clustered_design_matches_exact_solution(self, jitter):
        # Twelve points in 2% of the box at degree 7: cond(A^T A) is about
        # 2e28, so a Cholesky factor of A^T A + jitter I loses about
        # cond * eps, 7e-6 relative at jitter 1e-9.  QR of the design with
        # sqrt(jitter) I appended measured 5e-14, 6e-12 and 8e-11.
        from pce_transfer.basis import vandermonde

        rng = np.random.default_rng(0)
        spec = BasisSpec.total_order(DomainBox(np.zeros(1), np.ones(1)), 7)
        X = rng.uniform(0.5, 0.52, size=(12, 1))
        Y = np.sin(3.0 * X[:, 0])
        lik, _ = factorize(spec, X, jitter=jitter).fit(Y, noise_var=1.0)
        exact = exact_ridge_mean(vandermonde(spec, X), Y, jitter)
        assert np.linalg.norm(lik.mean - exact) <= 1e-9 * np.linalg.norm(exact)

    @pytest.mark.parametrize("n_samples", [57, 200])
    def test_condition_number_matches_design_svd(self, n_samples):
        # Subsurface sizes: 5 inputs at degree 3 give 56 coefficients.
        from pce_transfer.basis import vandermonde

        rng = np.random.default_rng(n_samples)
        box = DomainBox(np.array([1.0, 4.0, 7.0, -2.0, 1.0]),
                        np.array([3.0, 6.0, 9.0, -1.0, 2.0]))
        spec = BasisSpec.total_order(box, 3)
        assert spec.n_terms == 56
        X = rng.uniform(box.lower, box.upper, size=(n_samples, 5))
        _, report = factorize(spec, X).fit(rng.normal(size=n_samples), noise_var=1.0)
        s = np.linalg.svd(vandermonde(spec, X), compute_uv=False)
        assert report["condition_number"] == pytest.approx((s[0] / s[-1]) ** 2, rel=1e-8)

    def test_near_ceiling_fit_with_56_coefficients_matches_oracles(self):
        # Inputs packed into 2.6% of each side of the box put the normal
        # equations' condition number just under the 1e12 ceiling.  Measured
        # agreement: mean 1.7e-14 and covariance 2.6e-8 relative (the
        # covariance oracle inverts A^T A itself, losing about cond * eps).
        from pce_transfer.basis import vandermonde

        rng = np.random.default_rng(0)
        spec = BasisSpec.total_order(DomainBox(np.zeros(5), np.ones(5)), 3)
        assert spec.n_terms == 56
        X = 0.5 + 0.013 * rng.uniform(-1.0, 1.0, size=(200, 5))
        Y = rng.normal(size=200)
        dist, report = factorize(spec, X).fit(Y, noise_var=0.01)
        assert 1e11 < report["condition_number"] < 1e12
        A = vandermonde(spec, X)
        mean = np.linalg.lstsq(A, Y, rcond=None)[0]
        cov = 0.01 * np.linalg.pinv(A.T @ A)
        assert np.linalg.norm(dist.mean - mean) <= 1e-12 * np.linalg.norm(mean)
        assert np.linalg.norm(dist.cov - cov) <= 1e-6 * np.linalg.norm(cov)

    def test_noise_var_estimated_when_absent(self):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 0)
        _, report = factorize(spec, np.array([[0.2], [0.8]])).fit(np.array([1.0, 3.0]))
        # Residuals are (-1, +1) around the sample mean; mean square = 1.
        assert report["noise_var"] == pytest.approx(1.0, rel=1e-12)

    def test_dataset_duplication_halves_covariance(self):
        rng = np.random.default_rng(5)
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 2)
        X = rng.uniform(0, 1, size=(10, 1))
        Y = rng.normal(size=10)
        base = likelihood(spec, X, Y, noise_var=0.25)
        doubled = likelihood(spec, np.vstack([X, X]), np.concatenate([Y, Y]), noise_var=0.25)
        np.testing.assert_allclose(doubled.mean, base.mean, atol=1e-12)
        np.testing.assert_allclose(doubled.cov, base.cov / 2.0, rtol=1e-10)

    def test_orthonormal_design_decorrelates_coefficients(self):
        # Uniform sampling with an orthonormal basis leaves the likelihood
        # nearly uncorrelated once the dataset is large.
        from oracles import correlation_matrix

        rng = np.random.default_rng(42)
        box = DomainBox(np.zeros(5), np.ones(5))
        spec = BasisSpec.total_order(box, 3)
        def mean_abs_offdiag(n):
            X = rng.uniform(0, 1, size=(n, 5))
            Y = rng.normal(size=n)
            corr = correlation_matrix(likelihood(spec, X, Y, noise_var=1.0))
            off = np.abs(corr - np.diag(np.diag(corr)))
            p = corr.shape[0]
            return off.sum() / (p * (p - 1))

        at_200 = mean_abs_offdiag(200)
        assert at_200 < 0.2
        assert mean_abs_offdiag(2000) < at_200


class TestDesignFactors:
    """`factorize` once, then `DesignFactors.fit` per output vector, is a fresh fit of each."""

    @pytest.mark.parametrize("noise_var, jitter", [(0.01, 0.0), (None, 0.0), (0.01, 1e-6)])
    def test_one_factorization_fits_each_output_like_a_fresh_one(self, noise_var, jitter):
        rng = np.random.default_rng(31)
        spec = BasisSpec.total_order(DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 3)
        X = rng.uniform(-1.0, 1.0, size=(11, 2))
        factors = factorize(spec, X, jitter=jitter)
        for _ in range(3):
            Y = np.sin(X[:, 0] - rng.uniform()) + 0.01 * rng.standard_normal(11)
            dist, report = factors.fit(Y, noise_var)
            fresh_dist, fresh_report = factorize(spec, X, jitter=jitter).fit(Y, noise_var)
            assert dist.mean.tobytes() == fresh_dist.mean.tobytes()
            assert dist.cov.tobytes() == fresh_dist.cov.tobytes()
            assert report == fresh_report

    @pytest.mark.parametrize("Y, noise_var, match", [
        (np.zeros(4), None, "different numbers of samples"),
        (np.array([0.0, np.nan, 0.0, 0.0, 0.0]), None, "Y must be finite"),
        (np.zeros(5), 0.0, "noise_var must be positive"),
    ])
    def test_fit_checks_its_outputs(self, Y, noise_var, match):
        spec = BasisSpec.total_order(DomainBox(np.array([0.0]), np.array([1.0])), 1)
        factors = factorize(spec, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match=match):
            factors.fit(Y, noise_var)


class TestFuse:
    def test_equal_inputs_halve_covariance(self):
        rng = np.random.default_rng(1)
        d = rand_gaussian(rng, 3)
        post = fuse(d, d)
        np.testing.assert_allclose(post.mean, d.mean, rtol=1e-12)
        np.testing.assert_allclose(post.cov, d.cov / 2.0, rtol=1e-10)

    def test_matches_grid_oracle_moments(self):
        rng = np.random.default_rng(7)
        a = rand_gaussian(rng, 3)
        b = GaussianDist(a.mean + 0.4 * rng.normal(size=3), rand_spd(rng, 3))
        post = fuse(a, b)
        mean_g, cov_g = grid_product_moments(a, b)
        assert np.abs(mean_g - post.mean).max() <= 0.02 * max(1.0, np.abs(post.mean).max())
        assert np.abs(cov_g - post.cov).max() <= 0.02 * np.abs(post.cov).max()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_commutativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_gaussian(rng, 3)
        b = rand_gaussian(rng, 3)
        ab = fuse(a, b)
        ba = fuse(b, a)
        np.testing.assert_allclose(ab.mean, ba.mean, rtol=0, atol=1e-12 * (1 + np.abs(ab.mean).max()))
        np.testing.assert_allclose(ab.cov, ba.cov, rtol=0, atol=1e-12 * np.abs(ab.cov).max())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_posterior_covariance_loewner_dominated(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_gaussian(rng, 4)
        b = rand_gaussian(rng, 4)
        post = fuse(a, b)
        for parent in (a, b):
            diff = parent.cov - post.cov
            slack = 1e-10 * np.abs(parent.cov).max() * np.eye(4)
            np.linalg.cholesky(diff + slack)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            fuse(rand_gaussian(rng, 2), rand_gaussian(rng, 3))


class TestLogPdf:
    def test_standard_normal_at_origin(self):
        d = GaussianDist(np.zeros(1), np.eye(1))
        assert log_pdf(d, np.zeros(1)) == pytest.approx(-0.9189385332046727, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        cov = rand_spd(rng, 3)
        mu = rng.normal(size=3)
        v = rng.normal(size=3)
        shifted = log_pdf(GaussianDist(mu, cov), mu + v)
        centred = log_pdf(GaussianDist(np.zeros(3), cov), v)
        assert shifted == pytest.approx(centred, rel=1e-12)

    def test_diagonal_factorizes(self):
        d2 = GaussianDist(np.array([1.0, -2.0]), np.diag([0.5, 2.0]))
        x = np.array([0.3, -1.0])
        parts = [
            log_pdf(GaussianDist(np.array([1.0]), np.array([[0.5]])), x[:1]),
            log_pdf(GaussianDist(np.array([-2.0]), np.array([[2.0]])), x[1:]),
        ]
        assert log_pdf(d2, x) == pytest.approx(sum(parts), rel=1e-12)
