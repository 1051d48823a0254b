"""Gaussian distributions over coefficients and conjugate Bayesian regression.

A regression dataset with known Gaussian noise induces a Gaussian likelihood
over the coefficient vector (mean = ordinary least squares, covariance =
noise_var * (A^T A)^{-1}).  Fusing Gaussians (the conjugate update) lives in
`transfer`, where it is the beta = 1 case of the tempered posterior.  All
solves go through QR or Cholesky factors, never explicit inverses of the
design matrix.  The linear algebra is numpy's alone (`numpy.linalg`, one BLAS
per process): every solve against a triangular factor goes through
`_solve_factor`.
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
    """Multivariate normal with mean vector and SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise NumericError("covariance must be a square matrix")
        if mean.shape[0] != cov.shape[0]:
            raise NumericError("mean length does not match covariance order")
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


@dataclass(frozen=True)
class CalibrationTask:
    """A regression dataset with its basis and (optionally known) noise variance.

    noise_var is the variance of the i.i.d. Gaussian observation noise.  When
    None it is estimated from the residual mean square of the least-squares
    fit, floored at NOISE_VAR_FLOOR.
    """

    basis: BasisSpec
    X: np.ndarray
    Y: np.ndarray
    noise_var: float | None = None

    def __post_init__(self):
        X = as_points(self.X, self.basis.box.dimension)
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y have different numbers of samples")
        nv = self.noise_var
        if nv is not None and not (finite_real(nv) and nv > 0):
            raise ValueError(f"noise_var must be positive and finite when given, got {nv!r}")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


def check_fit_settings(cond_ceiling: float, jitter: float):
    """Reject a ceiling or jitter that would switch the conditioning guard off."""
    if not (finite_real(cond_ceiling) and cond_ceiling > 0.0
            and finite_real(jitter) and jitter >= 0.0):
        raise ValueError("cond_ceiling must be positive and jitter non-negative, both finite, "
                         f"got {cond_ceiling!r} and {jitter!r}")


def check_sample_count(n_samples: int, n_terms: int):
    """Reject a fit with fewer samples than coefficients."""
    if n_samples < n_terms:
        raise CalibrationError(
            f"under-determined fit: {n_samples} samples for {n_terms} coefficients")


def likelihood_with_report(task: CalibrationTask,
                           cond_ceiling: float = DEFAULT_COND_CEILING,
                           jitter: float = 0.0) -> tuple[GaussianDist, dict]:
    """Gaussian likelihood over coefficients plus fit diagnostics.

    Mean solves the least-squares problem via QR of the design matrix;
    covariance is noise_var * (A^T A)^{-1} assembled from the R factor, and
    the condition number of A^T A comes from R's singular values.
    Ill-conditioning raises CalibrationError naming that condition number
    unless an explicit ridge `jitter` > 0 is opted into.  The ridge is the
    same QR solve with sqrt(jitter) * I appended to the design and zeros to
    the targets, so R^T R = A^T A + jitter * I, whose condition number the
    report then holds.
    """
    check_fit_settings(cond_ceiling, jitter)
    p = task.basis.n_terms
    check_sample_count(task.n_samples, p)
    A = vandermonde(task.basis, task.X)
    system, targets = A, task.Y
    if jitter > 0.0:
        system = np.vstack([A, np.sqrt(jitter) * np.eye(p)])
        targets = np.concatenate([task.Y, np.zeros(p)])
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

    mean = _solve_factor(R, Q.T @ targets)
    Rinv = _solve_factor(R, np.eye(p))
    resid = task.Y - A @ mean
    if task.noise_var is None:
        noise_var = max(float(np.mean(resid**2)), NOISE_VAR_FLOOR)
    else:
        noise_var = float(task.noise_var)

    cov = noise_var * (Rinv @ Rinv.T)
    dist = GaussianDist(mean=mean, cov=0.5 * (cov + cov.T))
    report = {
        "n_samples": task.n_samples,
        "n_coefficients": p,
        "condition_number": float(cond_normal),
        "residual_rmse": float(np.sqrt(np.mean(resid**2))),
        "noise_var": noise_var,
    }
    return dist, report


def likelihood(task: CalibrationTask) -> GaussianDist:
    """Gaussian likelihood over coefficients from a regression dataset."""
    return likelihood_with_report(task)[0]
