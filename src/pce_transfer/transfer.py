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

Each `TransferProblem` caches one `WhitenedFrame`, a single SVD that
diagonalizes both precisions.  The beta scan, `objective_value`, the tempered
posteriors and `fuse` (the frame at beta = 1) all read it.  The optimizer
scans a dense grid, DS as log-DS so that it cannot underflow, and refines with
golden-section search; `objective_value` reproduces a scan point bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, NumericError
from .gaussian import GaussianDist, _solve_factor

OBJECTIVES = ("EDF", "KLD", "ME", "DS")

DEFAULT_BETA_FLOOR = 1e-6
DEFAULT_SCAN_POINTS = 1001
DEFAULT_REFINE_TOL = 1e-6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class WhitenedFrame:
    """Source and target Gaussians in coordinates that whiten both at once.

    With the SVD L_s^-1 L_t = P diag(sigma) U^T, F = L_t U and w = sigma^2,
    theta = F z makes the target N(m_t, I) and the source N(m_s, diag(1/w)).
    The source tempered by beta, fused with the target, is then
    N(F (m_t + beta w m_s) / (1 + beta w), F diag(1 / (1 + beta w)) F^T), and
    an objective value costs O(p).  The SVD keeps w accurate where an
    eigendecomposition of the Gram matrix would square its condition number.
    """

    def __init__(self, source: GaussianDist, target: GaussianDist):
        if source.dim != target.dim:
            raise NumericError(f"dimension mismatch: {source.dim} vs {target.dim}")
        L_t = target.chol
        try:
            _, sigma, Ut = np.linalg.svd(_solve_factor(source.chol, L_t))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"relative precision spectrum did not converge: {exc}") from exc
        with np.errstate(over="ignore"):  # an overflow is raised just below
            self.w = w = sigma**2
        # An overflowing whitened factor surfaces here as a NaN or infinite w.
        if not np.all((w > 0) & np.isfinite(w)):
            raise NumericError("relative precision spectrum is not finite and positive")
        self.F = L_t @ Ut.T
        # Singular-vector signs are arbitrary and drop out: F and the whitened
        # means flip sign together, and the objectives read squares of them.
        self.m_t = Ut @ _solve_factor(L_t, target.mean)
        self.m_s = Ut @ _solve_factor(L_t, source.mean)
        self.logdet_t = 2.0 * np.sum(np.log(np.diag(L_t)))
        self.log2pi = np.log(2.0 * np.pi)

    def whitened(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """z and v with posterior(beta) = N(F z, F diag(v) F^T): through A, mean (A F) z."""
        shrink = 1.0 / (1.0 + beta * self.w)
        return (self.m_t + beta * self.w * self.m_s) * shrink, shrink

    def posterior(self, beta: float) -> GaussianDist:
        """The source tempered by beta, fused with the target."""
        z, shrink = self.whitened(beta)
        cov = (self.F * shrink) @ self.F.T
        return GaussianDist(mean=self.F @ z, cov=0.5 * (cov + cov.T))

    def values(self, objective: str, betas: np.ndarray) -> np.ndarray:
        """The objective at each beta on the scan's scale: log-DS for DS."""
        b = np.asarray(betas, dtype=float)[:, None]
        w, m_t, m_s, k = self.w, self.m_t, self.m_s, self.w.size
        if objective == "EDF":
            denom = 1.0 + b * w
            mu_p = (m_t + b * w * m_s) / denom
            quad = np.sum((mu_p - m_t) ** 2, axis=1)
            trace = np.sum(1.0 / denom, axis=1)
            return -0.5 * (quad + trace + k * self.log2pi + self.logdet_t)
        bw = b * w
        if objective == "KLD":
            denom = 1.0 + bw
            mu_p = (m_t + bw * m_s) / denom
            return -0.5 * (np.sum(bw / denom, axis=1) + np.sum(bw * (mu_p - m_s) ** 2, axis=1)
                           - k - np.sum(np.log(bw / denom), axis=1))
        if objective == "ME":
            spread = 1.0 + 1.0 / bw
            quad = np.sum((m_t - m_s) ** 2 / spread, axis=1)
            logdet = np.sum(np.log(spread), axis=1)
            return -0.5 * (k * self.log2pi + self.logdet_t + logdet + quad)
        # DS on the log scale: a far source drives DS itself below the
        # smallest double, which would flatten the scan to zeros.
        var_st = 1.0 / bw + 1.0
        l_st = -0.5 * (k * self.log2pi + np.sum(np.log(var_st), axis=1)
                       + np.sum((m_s - m_t) ** 2 / var_st, axis=1))
        l_ss = -0.5 * (k * self.log2pi + np.sum(np.log(2.0 / bw), axis=1))
        l_tt = -0.5 * (k * self.log2pi + k * np.log(2.0))
        return np.log(2.0) + l_st - np.logaddexp(l_ss, l_tt)

    def value(self, objective: str, beta: float) -> float:
        return float(self.values(objective, np.array([beta]))[0])


@dataclass(frozen=True)
class TransferProblem:
    """Source and target coefficient Gaussians plus the objective to optimize."""

    source: GaussianDist
    target: GaussianDist
    objective: str

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise NumericError(f"dimension mismatch: {self.source.dim} vs {self.target.dim}")
        name = str(self.objective).upper()
        if name not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; choose from {OBJECTIVES}")
        object.__setattr__(self, "objective", name)

    @cached_property
    def frame(self) -> WhitenedFrame:
        """The whitened frame of (source, target), factorized on first use."""
        return WhitenedFrame(self.source, self.target)


@dataclass(frozen=True)
class BetaResult:
    """Optimal tempering exponent with the scan curve (log-DS for DS) that produced it."""

    beta_star: float
    betas: np.ndarray
    values: np.ndarray
    problem: TransferProblem = field(repr=False)

    @cached_property
    def tempered_posterior(self) -> GaussianDist:
        """The posterior at beta*, assembled on first access."""
        return tempered_posterior(self.problem, self.beta_star)

    def to_record(self) -> dict:
        return {
            "beta_star": self.beta_star,
            "curve": {"beta": self.betas.tolist(), "value": self.values.tolist()},
            "posterior": self.tempered_posterior.to_record(),
        }


def tempered_posterior(prob: TransferProblem, beta: float) -> GaussianDist:
    """Fuse the tempered source with the target; beta = 0 returns the target."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"tempering exponent must lie in [0, 1], got {beta}")
    return prob.target if beta == 0.0 else prob.frame.posterior(beta)


def fuse(prior: GaussianDist, lik: GaussianDist) -> GaussianDist:
    """Conjugate update, where precisions add: the whitened frame of (prior, lik) at beta = 1."""
    return WhitenedFrame(prior, lik).posterior(1.0)


def objective_value(prob: TransferProblem, beta: float,
                    beta_floor: float = DEFAULT_BETA_FLOOR) -> float:
    """Value of the problem's objective at one beta; larger is always better.

    Runs the solver that `optimize_beta` scans, so it reproduces the scan
    curve exactly at the scan's own beta values; DS comes back on its linear
    scale, the exponential of the scan's log-DS.
    """
    lo = 0.0 if prob.objective == "EDF" else beta_floor
    if not lo <= beta <= 1.0:
        raise DomainError(f"{prob.objective} needs beta in [{lo:g}, 1], got {beta}")
    value = prob.frame.value(prob.objective, beta)
    return math.exp(value) if prob.objective == "DS" else value


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
                  beta_floor: float = DEFAULT_BETA_FLOOR) -> BetaResult:
    """Two-stage deterministic search for the best tempering exponent.

    A dense equispaced scan guards against local optima; golden-section
    refinement inside the bracketing interval of the best scan point then
    resolves beta to DEFAULT_REFINE_TOL.  Ties break toward larger beta (prefer
    using the source when the objective is flat).
    """
    lo = 0.0 if prob.objective == "EDF" else beta_floor
    grid = np.linspace(lo, 1.0, scan_points)
    frame = prob.frame
    values = frame.values(prob.objective, grid)
    if not np.all(np.isfinite(values)):
        bad = grid[np.flatnonzero(~np.isfinite(values))[0]]
        raise NumericError(f"objective {prob.objective} is non-finite at beta={bad}")

    idx = len(values) - 1 - int(np.argmax(values[::-1]))
    a = grid[max(idx - 1, 0)]
    b = grid[min(idx + 1, len(grid) - 1)]
    value = partial(frame.value, prob.objective)
    refined = _golden_section_max(value, a, b, DEFAULT_REFINE_TOL)

    candidates = [(float(values[idx]), float(grid[idx])), (value(refined), float(refined))]
    best_value = max(v for v, _ in candidates)
    beta_star = max(bta for v, bta in candidates if v == best_value)

    return BetaResult(
        beta_star=beta_star,
        betas=grid,
        values=values,
        problem=prob,
    )
