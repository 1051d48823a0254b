"""Pushed-forward predictions and their scores.

A Gaussian coefficient posterior pushed through the (linear) basis map gives
a Gaussian over outputs at any set of evaluation points: mean = A mu,
covariance = A Sigma A^T, optionally inflated by an observation-noise
variance.  The design matrix A of a basis at a list of points is a `Design`,
built once and shared by every prediction there (`harness.mode_terms`
reads the whitened frame through it for beta* and 1).  Every score here reads
one point at a time, so a prediction keeps only the per-point marginal
variances diag(A Sigma A^T), never the m x m covariance between points.
Scores are the summed per-point marginal log-densities and the plain RMSE.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .basis import BasisSpec, vandermonde
from .errors import DomainError, NumericError, finite_real
from .gaussian import GaussianDist

# Marginal variances below this are clamped before taking logs; scores that
# hit the clamp are finite sentinels (~ -690 per point) rather than -inf.
MARGINAL_VAR_FLOOR = 1e-300


@dataclass(frozen=True)
class PfpPrediction:
    """Per-point Gaussian marginals of the outputs at a design's points, in its order."""

    mean: np.ndarray
    marginal_var: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        var = np.asarray(self.marginal_var, dtype=float).ravel()
        if mean.shape != var.shape:
            raise ValueError("mean and marginal_var sizes disagree")
        for arr in (mean, var):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "marginal_var", var)


@dataclass(frozen=True)
class Design:
    """The design matrix of a basis at a list of points, built once and shared."""

    basis: BasisSpec
    points: InitVar[np.ndarray]  # read once, to build the matrix; no score needs them
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, points):
        object.__setattr__(self, "matrix", vandermonde(self.basis, points))


def pushforward(posterior: GaussianDist, design: Design,
                noise_var: float = 0.0) -> PfpPrediction:
    """Push a coefficient posterior through the basis map at a design's points.

    noise_var, finite and >= 0, adds observation noise to every marginal
    variance; the default 0 scores the model alone.  The variances are the
    row sums of (A L)**2 for the posterior's Cholesky factor L, which cost
    O(m p) and cannot go negative by round-off.
    """
    if not (finite_real(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be a non-negative finite number, got {noise_var!r}")
    A = design.matrix
    if posterior.dim != A.shape[1]:
        raise ValueError(
            f"posterior dimension {posterior.dim} does not match basis size {A.shape[1]}"
        )
    B = A @ posterior.chol
    var = np.einsum("ij,ij->i", B, B) + noise_var
    return PfpPrediction(mean=A @ posterior.mean, marginal_var=var)


def lpfp(pred: PfpPrediction, y_obs) -> float:
    """Sum over points of the marginal Gaussian log-density of each observation."""
    y = np.asarray(y_obs, dtype=float).ravel()
    if y.shape[0] != pred.mean.shape[0]:
        raise ValueError("observation count does not match prediction count")
    var = pred.marginal_var
    if np.any(var < 0) or np.any(~np.isfinite(var)):
        raise NumericError("non-positive or non-finite marginal variance")
    var = np.maximum(var, MARGINAL_VAR_FLOOR)
    resid = y - pred.mean
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * var) + resid**2 / var))


def rmse(pred: PfpPrediction, y_true) -> float:
    """RMSE of the prediction's mean surrogate against true outputs."""
    if pred.mean.shape[0] == 0:
        raise DomainError("empty validation point list")
    y = np.asarray(y_true, dtype=float).ravel()
    if y.shape[0] != pred.mean.shape[0]:
        raise ValueError("y_true length does not match point count")
    return float(np.sqrt(np.mean((pred.mean - y) ** 2)))
