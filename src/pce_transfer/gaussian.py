"""Gaussian distributions over coefficients and conjugate Bayesian regression.

A regression dataset with known Gaussian noise induces a Gaussian likelihood
over the coefficient vector (mean = ordinary least squares, covariance =
noise_var * (A^T A)^{-1}).  Fusing Gaussians (the conjugate update) lives in
`transfer`, where it is the beta = 1 case of the tempered posterior.  All
solves go through QR or Cholesky factors, never explicit inverses of the
design matrix.  The linear algebra is numpy's alone (`numpy.linalg`, one BLAS
per process): every solve against a triangular factor goes through
`_solve_factor`.  Every fit is `factorize`, the design's share, then
`DesignFactors.fit`, the outputs' share, so one factorization serves every
output vector observed at the same points; `likelihood` is the two in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, as_points, vandermonde
from .errors import CalibrationError, NumericError, finite_real, integer

# Relative symmetry slack and the floor applied to estimated noise variances.
SYMMETRY_RTOL = 1e-12
NOISE_VAR_FLOOR = 1e-12
DEFAULT_COND_CEILING = 1e12


def _solve_factor(F: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve F X = B for a triangular QR or Cholesky factor F.

    numpy has no triangular solver, so every factor solve in the package is
    LU on the factor, here.
    """
    return np.linalg.solve(F, B)


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate normal with mean vector and SPD covariance; bad shapes raise ValueError."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if mean.shape[0] != cov.shape[0]:
            raise ValueError("mean length does not match covariance order")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise NumericError("mean and covariance must be finite")
        scale = max(np.abs(cov).max(), 1e-300)
        if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * scale:
            raise NumericError("covariance is not symmetric within tolerance")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"covariance is not positive definite: {exc}") from exc
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance (cached at construction)."""
        return self._chol

    def to_record(self) -> dict:
        """Flat numeric record (mean, row-major covariance) for JSON output."""
        return {
            "dim": self.dim,
            "mean": self.mean.tolist(),
            "cov": self.cov.ravel().tolist(),
        }

    @classmethod
    def from_record(cls, record: dict) -> "GaussianDist":
        dim = integer("dim", record["dim"], low=1)
        mean = np.asarray(record["mean"], dtype=float)
        cov = np.asarray(record["cov"], dtype=float).reshape(dim, dim)
        return cls(mean=mean, cov=cov)


def check_noise_var(noise_var):
    """Reject, with ValueError, a noise_var that is given but not positive and finite."""
    if noise_var is not None and not (finite_real(noise_var) and noise_var > 0):
        raise ValueError(f"noise_var must be positive and finite when given, got {noise_var!r}")


def check_sample_count(n_samples: int, n_terms: int):
    """Reject a fit with fewer samples than coefficients."""
    if n_samples < n_terms:
        raise CalibrationError(
            f"under-determined fit: {n_samples} samples for {n_terms} coefficients")


@dataclass(frozen=True)
class DesignFactors:
    """A basis's design matrix at fixed points, factorized: a fit less its outputs.

    A is the design matrix and Q R the QR factors of the system solved (A,
    with sqrt(jitter) * I appended under a ridge); unit_cov is R^-1 R^-T, the
    coefficient covariance per unit of noise variance.  `fit` turns outputs
    at the points into a likelihood, so one factorization serves any number
    of output vectors.
    """

    A: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    unit_cov: np.ndarray
    condition_number: float
    jitter: float

    def __post_init__(self):
        for array in (self.A, self.Q, self.R, self.unit_cov):
            array.flags.writeable = False

    def fit(self, Y, noise_var: float | None = None) -> tuple[GaussianDist, dict]:
        """Gaussian likelihood of outputs Y at the factorized points, plus fit diagnostics.

        Mean solves the least-squares problem through Q and R; covariance is
        noise_var * unit_cov, with noise_var estimated from the residual mean
        square (floored at NOISE_VAR_FLOOR) when None.  A Y of another length
        or with a NaN or infinite output, or a bad noise_var, raises ValueError.
        """
        n_samples, p = self.A.shape
        Y = np.asarray(Y, dtype=float).ravel()
        if Y.shape[0] != n_samples:
            raise ValueError("X and Y have different numbers of samples")
        if not np.all(np.isfinite(Y)):
            raise ValueError("Y must be finite; an output is NaN or infinite")
        check_noise_var(noise_var)
        targets = Y if self.jitter == 0.0 else np.concatenate([Y, np.zeros(p)])
        mean = _solve_factor(self.R, self.Q.T @ targets)
        resid = Y - self.A @ mean
        if noise_var is None:
            noise_var = max(float(np.mean(resid**2)), NOISE_VAR_FLOOR)
        else:
            noise_var = float(noise_var)

        cov = noise_var * self.unit_cov
        dist = GaussianDist(mean=mean, cov=0.5 * (cov + cov.T))
        report = {
            "n_samples": n_samples,
            "n_coefficients": p,
            "condition_number": self.condition_number,
            "residual_rmse": float(np.sqrt(np.mean(resid**2))),
            "noise_var": noise_var,
        }
        return dist, report


def factorize(basis: BasisSpec, X, cond_ceiling: float = DEFAULT_COND_CEILING,
              jitter: float = 0.0) -> DesignFactors:
    """QR-factorize the design of basis at points X (read by `as_points`).

    The condition number of A^T A comes from R's singular values.
    Ill-conditioning raises CalibrationError naming that condition number
    unless an explicit ridge `jitter` > 0 is opted into.  The ridge is the
    same QR solve with sqrt(jitter) * I appended to the design (and zeros to
    the outputs in `DesignFactors.fit`), so R^T R = A^T A + jitter * I, whose
    condition number is then kept.  A ceiling or jitter that would switch the
    conditioning guard off raises ValueError.
    """
    if not (finite_real(cond_ceiling) and cond_ceiling > 0.0
            and finite_real(jitter) and jitter >= 0.0):
        raise ValueError("cond_ceiling must be positive and jitter non-negative, both finite, "
                         f"got {cond_ceiling!r} and {jitter!r}")
    # numpy would hold an int past the int64 range as an object array.
    cond_ceiling, jitter = float(cond_ceiling), float(jitter)
    p = basis.n_terms
    X = as_points(X, basis.box.dimension)
    check_sample_count(X.shape[0], p)
    A = vandermonde(basis, X)
    system = A
    if jitter > 0.0:
        system = np.vstack([A, np.sqrt(jitter) * np.eye(p)])
    Q, R = np.linalg.qr(system, mode="reduced")
    # system = QR with orthonormal Q, so the p x p factor R has its singular values.
    singvals = np.linalg.svd(R, compute_uv=False)
    if singvals[-1] == 0.0:
        raise CalibrationError("design matrix is rank deficient")
    cond_normal = (singvals[0] / singvals[-1]) ** 2
    if cond_normal > cond_ceiling and jitter == 0.0:
        raise CalibrationError(
            f"normal equations condition number {cond_normal:.3e} exceeds "
            f"ceiling {cond_ceiling:.1e}"
        )
    Rinv = _solve_factor(R, np.eye(p))
    return DesignFactors(A, Q, R, Rinv @ Rinv.T, float(cond_normal), jitter)


def likelihood(basis: BasisSpec, X, Y, noise_var: float | None = None) -> GaussianDist:
    """Gaussian likelihood over coefficients of outputs Y at points X.

    `factorize` with the default conditioning ceiling and no ridge, then
    `DesignFactors.fit`; noise_var None estimates it from the residuals.
    """
    return factorize(basis, X).fit(Y, noise_var)[0]
