"""Power tempering of a source Gaussian and the choice of how much to trust it.

Raising a Gaussian to a power beta in (0, 1] rescales its covariance by
1/beta while leaving the mean and correlation structure alone.  Fusing the
tempered source with the target likelihood yields a posterior whose precision
is precision_target + beta * precision_source; beta = 0 ignores the source
and beta = 1 is the ordinary conjugate update.

Four scalar objectives rank beta values, all normalized here so that LARGER
is better:

  EDF  expected log target-likelihood under the tempered posterior;
  KLD  negative KL divergence from the tempered posterior to the tempered
       source;
  ME   log marginal likelihood of the target mean under source-plus-target
       spread;
  DS   Dice similarity, a normalized product integral of the two densities.

Every objective is evaluated by one solver: a simultaneous-diagonalization
reparameterization of the closed forms (one O(p^3) factorization, then O(p)
per beta).  The optimizer scans it on a dense grid and refines with
golden-section search; `objective_value` evaluates the same solver at one
beta, so a value it returns equals the matching scan point bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .gaussian import GaussianDist, _solve_factor, fuse

OBJECTIVES = ("EDF", "KLD", "ME", "DS")

DEFAULT_BETA_FLOOR = 1e-6
DEFAULT_SCAN_POINTS = 1001
DEFAULT_REFINE_TOL = 1e-6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TransferProblem:
    """Source and target coefficient Gaussians plus the objective to optimize."""

    source: GaussianDist
    target: GaussianDist
    objective: str

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise NumericError(
                f"source dimension {self.source.dim} != target dimension {self.target.dim}"
            )
        name = str(self.objective).upper()
        if name not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; choose from {OBJECTIVES}")
        object.__setattr__(self, "objective", name)


@dataclass(frozen=True)
class BetaResult:
    """Optimal tempering exponent with the scan curve that produced it."""

    beta_star: float
    betas: np.ndarray
    values: np.ndarray
    tempered_posterior: GaussianDist

    def to_record(self) -> dict:
        return {
            "beta_star": self.beta_star,
            "curve": {"beta": self.betas.tolist(), "value": self.values.tolist()},
            "posterior": self.tempered_posterior.to_record(),
        }


def temper(source: GaussianDist, beta: float) -> GaussianDist:
    """Raise a Gaussian to the power beta in (0, 1]: covariance scales by 1/beta."""
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"tempering exponent must lie in (0, 1], got {beta}")
    return GaussianDist(mean=source.mean, cov=source.cov / beta)


def tempered_posterior(prob: TransferProblem, beta: float) -> GaussianDist:
    """Fuse the tempered source with the target; beta = 0 returns the target."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"tempering exponent must lie in [0, 1], got {beta}")
    if beta == 0.0:
        return prob.target
    return fuse(temper(prob.source, beta), prob.target)


def _check_beta(objective: str, beta: float, beta_floor: float):
    if objective == "EDF":
        if not 0.0 <= beta <= 1.0:
            raise DomainError(f"EDF needs beta in [0, 1], got {beta}")
    elif not beta_floor <= beta <= 1.0:
        raise DomainError(
            f"{objective} needs beta in [{beta_floor}, 1], got {beta}"
        )


def objective_value(prob: TransferProblem, beta: float,
                    beta_floor: float = DEFAULT_BETA_FLOOR) -> float:
    """Value of the problem's objective at one beta; larger is always better.

    Runs the solver that `optimize_beta` scans, so it reproduces the scan
    curve exactly at the scan's own beta values.
    """
    _check_beta(prob.objective, beta, beta_floor)
    return _WhitenedScan(prob).value(beta)


class _WhitenedScan:
    """Objective evaluation after simultaneously diagonalizing both precisions.

    With z = U^T L_T^{-1} theta the target becomes N(m_T, I) and the source
    N(m_S, diag(1/w)), so every tempered-posterior quantity reduces to
    elementwise arithmetic on the eigenvalues w.
    """

    def __init__(self, prob: TransferProblem):
        self.objective = prob.objective
        self.k = prob.target.dim
        L_t = prob.target.chol
        L_s = prob.source.chol
        M = _solve_factor(L_s, L_t)
        C = M.T @ M
        # Eigenvector signs are arbitrary and drop out: each objective reads w and
        # squares of the whitened means' components, which flip sign together.
        w, U = np.linalg.eigh(0.5 * (C + C.T))
        if not np.all(w > 0):
            raise NumericError("relative precision spectrum lost positive definiteness")
        self.w = w
        self.m_t = U.T @ _solve_factor(L_t, prob.target.mean)
        self.m_s = U.T @ _solve_factor(L_t, prob.source.mean)
        self.logdet_t = 2.0 * np.sum(np.log(np.diag(L_t)))
        self.logdet_s = 2.0 * np.sum(np.log(np.diag(L_s)))
        self.log2pi = np.log(2.0 * np.pi)

    def values(self, betas: np.ndarray) -> np.ndarray:
        b = np.asarray(betas, dtype=float)[:, None]
        w, m_t, m_s, k = self.w, self.m_t, self.m_s, self.k
        if self.objective == "EDF":
            denom = 1.0 + b * w
            mu_p = (m_t + b * w * m_s) / denom
            quad = np.sum((mu_p - m_t) ** 2, axis=1)
            trace = np.sum(1.0 / denom, axis=1)
            return -0.5 * (quad + trace + k * self.log2pi + self.logdet_t)
        if self.objective == "KLD":
            denom = 1.0 + b * w
            mu_p = (m_t + b * w * m_s) / denom
            bw = b * w
            kl = 0.5 * (
                np.sum(bw / denom, axis=1)
                + np.sum(bw * (mu_p - m_s) ** 2, axis=1)
                - k
                - np.sum(np.log(bw / denom), axis=1)
            )
            return -kl
        if self.objective == "ME":
            spread = 1.0 + 1.0 / (b * w)
            quad = np.sum((m_t - m_s) ** 2 / spread, axis=1)
            logdet = np.sum(np.log(spread), axis=1)
            return -0.5 * (k * self.log2pi + self.logdet_t + logdet + quad)
        # DS
        var_st = 1.0 / (b * w) + 1.0
        l_st = -0.5 * (k * self.log2pi + np.sum(np.log(var_st), axis=1)
                       + np.sum((m_s - m_t) ** 2 / var_st, axis=1))
        l_ss = -0.5 * (k * self.log2pi + np.sum(np.log(2.0 / (b * w)), axis=1))
        l_tt = -0.5 * (k * self.log2pi + k * np.log(2.0))
        return 2.0 * np.exp(l_st - np.logaddexp(l_ss, l_tt))

    def value(self, beta: float) -> float:
        return float(self.values(np.array([beta]))[0])


def _golden_section_max(f, a: float, b: float, tol: float) -> float:
    """Deterministic golden-section maximization; ties drift toward larger x."""
    if b - a <= tol:
        return 0.5 * (a + b)
    n_steps = int(math.ceil(math.log(tol / (b - a)) / math.log(_INVPHI)))
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    yc, yd = f(c), f(d)
    for _ in range(n_steps):
        h *= _INVPHI
        if yc > yd:
            b, d, yd = d, c, yc
            c = b - _INVPHI * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * h
            yd = f(d)
    return 0.5 * (a + b)


def optimize_beta(prob: TransferProblem,
                  scan_points: int = DEFAULT_SCAN_POINTS,
                  beta_floor: float = DEFAULT_BETA_FLOOR,
                  refine_tol: float = DEFAULT_REFINE_TOL) -> BetaResult:
    """Two-stage deterministic search for the best tempering exponent.

    A dense equispaced scan guards against local optima; golden-section
    refinement inside the bracketing interval of the best scan point then
    resolves beta to `refine_tol`.  Ties break toward larger beta (prefer
    using the source when the objective is flat).
    """
    lo = 0.0 if prob.objective == "EDF" else beta_floor
    grid = np.linspace(lo, 1.0, scan_points)
    scan = _WhitenedScan(prob)
    values = scan.values(grid)
    if not np.all(np.isfinite(values)):
        bad = grid[np.flatnonzero(~np.isfinite(values))[0]]
        raise NumericError(f"objective {prob.objective} is non-finite at beta={bad}")

    idx = len(values) - 1 - int(np.argmax(values[::-1]))
    a = grid[max(idx - 1, 0)]
    b = grid[min(idx + 1, len(grid) - 1)]
    refined = _golden_section_max(scan.value, a, b, refine_tol)

    candidates = [(float(values[idx]), float(grid[idx])), (scan.value(refined), float(refined))]
    best_value = max(v for v, _ in candidates)
    beta_star = max(bta for v, bta in candidates if v == best_value)

    return BetaResult(
        beta_star=beta_star,
        betas=grid,
        values=values,
        tempered_posterior=tempered_posterior(prob, beta_star),
    )
