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
diagonalizes both precisions.  The beta scan, the tempered posteriors and
`fuse` (the frame at beta = 1) all read it, and `TransferProblem.with_target`
keeps its SVD for a new target mean under the same covariances.  The
optimizer scans a dense grid, DS as log-DS so that it cannot underflow, and
refines with golden-section search; `WhitenedFrame.value` reproduces a scan
point bit for bit.
The scan runs in blocks of fixed size in place, so the space it takes grows
with the number of scan points, not with scan points times coefficients.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, NumericError, finite_real, integer
from .gaussian import GaussianDist, _solve_factor

OBJECTIVES = ("EDF", "KLD", "ME", "DS")

DEFAULT_BETA_FLOOR = 1e-6
DEFAULT_SCAN_POINTS = 1001
DEFAULT_REFINE_TOL = 1e-6
# The most doubles (512 KB) in each of the beta scan's two work arrays.
SCAN_BLOCK_ELEMENTS = 2**16

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
            raise ValueError(f"dimension mismatch: {source.dim} vs {target.dim}")
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
        self.L_t, self.Ut = L_t, Ut
        # Singular-vector signs are arbitrary and drop out: F and the whitened
        # means flip sign together, and the objectives read squares of them.
        self.m_t = self._whiten(target.mean)
        self.m_s = self._whiten(source.mean)
        self.logdet_t = 2.0 * np.sum(np.log(np.diag(L_t)))
        self.log2pi = np.log(2.0 * np.pi)

    def _whiten(self, mean: np.ndarray) -> np.ndarray:
        return self.Ut @ _solve_factor(self.L_t, mean)

    def with_target_mean(self, mean: np.ndarray) -> "WhitenedFrame":
        """The frame of a target with the same covariance and this mean: the SVD is kept."""
        frame = copy.copy(self)
        frame.m_t = self._whiten(mean)
        return frame

    def whitened(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """z and v with posterior(beta) = N(F z, F diag(v) F^T): through A, mean (A F) z."""
        if not 0.0 <= beta <= 1.0:
            raise DomainError(f"tempering exponent must lie in [0, 1], got {beta}")
        shrink = 1.0 / (1.0 + beta * self.w)
        return (self.m_t + beta * self.w * self.m_s) * shrink, shrink

    def posterior(self, beta: float) -> GaussianDist:
        """The source tempered by beta, fused with the target."""
        z, shrink = self.whitened(beta)
        cov = (self.F * shrink) @ self.F.T
        return GaussianDist(mean=self.F @ z, cov=0.5 * (cov + cov.T))

    def values(self, objective: str, betas: np.ndarray) -> np.ndarray:
        """The objective at each beta on the scan's scale: log-DS for DS.

        The betas run through two (rows, p) work arrays, SCAN_BLOCK_ELEMENTS
        doubles at most each, rows at a time; every element sees the same
        operations in the same order as the broadcast closed forms, so each
        value is bit for bit independent of the block size.
        """
        betas = np.asarray(betas, dtype=float)
        out = np.empty(betas.size)
        k = self.w.size
        rows = max(1, SCAN_BLOCK_ELEMENTS // k)
        work = np.empty((2, min(rows, betas.size), k))
        for start in range(0, betas.size, rows):
            b = betas[start:start + rows, None]
            out[start:start + b.shape[0]] = self._block(objective, b, *work[:, :b.shape[0]])
        return out

    def _block(self, objective: str, b: np.ndarray, bw: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
        """`values` at the column b of betas, in place in the work arrays bw and tmp."""
        w, m_t, m_s, k = self.w, self.m_t, self.m_s, self.w.size
        np.multiply(b, w, out=bw)
        if objective == "EDF":
            denom = np.add(bw, 1.0, out=tmp)
            gap = np.multiply(bw, m_s, out=bw)  # the posterior mean's shift from m_t
            gap += m_t
            gap /= denom
            gap -= m_t
            quad = np.square(gap, out=gap).sum(axis=1)
            trace = np.divide(1.0, denom, out=denom).sum(axis=1)
            return -0.5 * (quad + trace + k * self.log2pi + self.logdet_t)
        if objective == "KLD":
            ratio = np.divide(bw, np.add(bw, 1.0, out=tmp), out=tmp)
            ratio_sum = ratio.sum(axis=1)
            log_ratio_sum = np.log(ratio, out=ratio).sum(axis=1)
            gap = np.multiply(bw, m_s, out=tmp)  # the posterior mean's shift from m_s
            gap += m_t
            gap /= np.add(bw, 1.0, out=bw)
            gap -= m_s
            np.square(gap, out=gap)
            gap *= np.multiply(b, w, out=bw)
            return -0.5 * (ratio_sum + gap.sum(axis=1) - k - log_ratio_sum)
        if objective == "ME":
            spread = np.add(np.divide(1.0, bw, out=bw), 1.0, out=bw)
            quad = np.divide((m_t - m_s) ** 2, spread, out=tmp).sum(axis=1)
            logdet = np.log(spread, out=spread).sum(axis=1)
            return -0.5 * (k * self.log2pi + self.logdet_t + logdet + quad)
        # DS on the log scale: a far source drives DS itself below the
        # smallest double, which would flatten the scan to zeros.
        log_ss = np.log(np.divide(2.0, bw, out=tmp), out=tmp).sum(axis=1)
        var_st = np.add(np.divide(1.0, bw, out=bw), 1.0, out=bw)
        quad = np.divide((m_s - m_t) ** 2, var_st, out=tmp).sum(axis=1)
        l_st = -0.5 * (k * self.log2pi + np.log(var_st, out=var_st).sum(axis=1) + quad)
        l_ss = -0.5 * (k * self.log2pi + log_ss)
        l_tt = -0.5 * (k * self.log2pi + k * np.log(2.0))
        return np.log(2.0) + l_st - np.logaddexp(l_ss, l_tt)

    def value(self, objective: str, beta: float) -> float:
        """`values` at one beta, bit for bit: one block of one row in fresh work arrays."""
        work = np.empty((2, 1, self.w.size))
        b = np.array([[beta]], dtype=float)
        return float(self._block(objective, b, work[0], work[1])[0])


@dataclass(frozen=True)
class TransferProblem:
    """Source and target coefficient Gaussians plus the objective to optimize."""

    source: GaussianDist
    target: GaussianDist
    objective: str

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise ValueError(f"dimension mismatch: {self.source.dim} vs {self.target.dim}")
        name = str(self.objective).upper()
        if name not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; choose from {OBJECTIVES}")
        object.__setattr__(self, "objective", name)

    @cached_property
    def frame(self) -> WhitenedFrame:
        """The whitened frame of (source, target), factorized on first use."""
        return WhitenedFrame(self.source, self.target)

    def with_target(self, target: GaussianDist) -> "TransferProblem":
        """This problem with another target.

        A target of the same covariance keeps the factorized frame's SVD, so
        only its whitened mean is formed anew; any other gets its own frame.
        """
        prob = TransferProblem(self.source, target, self.objective)
        if "frame" in self.__dict__ and np.array_equal(target.cov, self.target.cov):
            object.__setattr__(prob, "frame", self.frame.with_target_mean(target.mean))
        return prob


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
    return prob.target if beta == 0.0 else prob.frame.posterior(beta)


def fuse(prior: GaussianDist, lik: GaussianDist) -> GaussianDist:
    """Conjugate update, where precisions add: the whitened frame of (prior, lik) at beta = 1."""
    return WhitenedFrame(prior, lik).posterior(1.0)


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
    using the source when the objective is flat).  A scan_points below 2, or
    a beta_floor outside (0, 1), raises ValueError; the scan starts at
    beta_floor, or at 0 under EDF.
    """
    if not (finite_real(beta_floor) and 0.0 < beta_floor < 1.0):
        raise ValueError(f"beta_floor must lie in (0, 1), got {beta_floor!r}")
    lo = 0.0 if prob.objective == "EDF" else beta_floor
    grid = np.linspace(lo, 1.0, integer("scan_points", scan_points, low=2))
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
