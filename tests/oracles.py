"""Independent numerical oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the package's closed-form code paths:
densities go through plain inv/slogdet algebra, integrals through scipy's
adaptive cubature, the conjugate update through SciPy Cholesky solves, and
expectations through Monte-Carlo sampling.  The objectives also have a direct
matrix form here, one beta at a time, to check the package's whitened solver
against, and tempering and correlation matrices have their plain definitions.
The beta scan's closed forms are also here in their plain broadcast form, over
the whole (betas, p) grid at once, as the reference for the blocked kernel.
The ridge regression mean has an exact rational solution.
"""

from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.linalg import cho_factor, cho_solve

from pce_transfer.errors import DomainError
from pce_transfer.gaussian import GaussianDist
from pce_transfer.transfer import TransferProblem, WhitenedFrame, tempered_posterior


def rand_spd(rng, k, scale=1.0):
    F = rng.normal(size=(k, k))
    S = F @ F.T / k + 0.3 * np.eye(k)
    return scale * 0.5 * (S + S.T)


def rand_problem(rng, k, objective, mean_gap=0.5):
    src = GaussianDist(rng.normal(size=k), rand_spd(rng, k))
    tgt = GaussianDist(src.mean + mean_gap * rng.normal(size=k), rand_spd(rng, k, 0.7))
    return TransferProblem(src, tgt, objective)


def _plain_logpdf_of(mean, cov):
    """Log-density of N(mean, cov) as a function of a (n, k) array of points.

    The inverse and log-determinant are taken once, so cubature, which calls
    the integrand once per batch of points, does not repeat them per batch.
    """
    prec = np.linalg.inv(cov)
    const = cov.shape[0] * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1]

    def logpdf(draws):
        diff = draws - mean
        return -0.5 * (const + np.einsum("ij,jk,ik->i", diff, prec, diff))

    return logpdf


def _plain_logpdf(draws, mean, cov):
    return _plain_logpdf_of(mean, cov)(draws)


def log_pdf(dist: GaussianDist, theta):
    """Multivariate normal log-density of dist at one point, or at each row of an (n, k) grid.

    A single point of shape (k,) gives a float; a grid gives an array of n
    values from one inverse and one log-determinant.
    """
    theta = np.asarray(theta, dtype=float)
    points = theta if theta.ndim == 2 else theta.reshape(1, -1)
    if points.shape[1] != dist.dim:
        raise ValueError(f"points have dimension {points.shape[1]}, distribution has {dist.dim}")
    values = _plain_logpdf(points, dist.mean, dist.cov)
    return values if theta.ndim == 2 else float(values[0])


def temper(source: GaussianDist, beta: float) -> GaussianDist:
    """Raise a Gaussian to the power beta in (0, 1]: covariance scales by 1/beta."""
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"tempering exponent must lie in (0, 1], got {beta}")
    return GaussianDist(mean=source.mean, cov=source.cov / beta)


def correlation_matrix(dist: GaussianDist) -> np.ndarray:
    """Matrix of correlation coefficients R = D^{-1} Sigma D^{-1}, D = sqrt(diag)."""
    d = np.sqrt(np.diag(dist.cov))
    R = dist.cov / np.outer(d, d)
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    return np.clip(R, -1.0, 1.0)


def precision_sum_posterior(prior: GaussianDist, lik: GaussianDist):
    """Mean and covariance of the conjugate update by precision addition.

    Every inverse goes through SciPy's Cholesky solves, independently of the
    package's whitened frame.
    """
    eye = np.eye(prior.dim)
    prec_prior = cho_solve(cho_factor(prior.cov, lower=True), eye)
    prec_lik = cho_solve(cho_factor(lik.cov, lower=True), eye)
    post = cho_factor(prec_prior + prec_lik, lower=True)
    cov = cho_solve(post, eye)
    mean = cho_solve(post, prec_prior @ prior.mean + prec_lik @ lik.mean)
    return mean, 0.5 * (cov + cov.T)


def log_product_integral(a: GaussianDist, b: GaussianDist) -> float:
    """log of the integral of the product of two Gaussian densities."""
    return float(_plain_logpdf(a.mean[None, :], b.mean, a.cov + b.cov)[0])


def direct_objective(prob: TransferProblem, beta: float) -> float:
    """The problem's objective at one beta from its plain matrix form."""
    target = prob.target
    if prob.objective == "EDF":
        post = tempered_posterior(prob, beta)
        # E_post[log N(theta; m_T, S_T)] = log N(m_post; m_T, S_T) - tr(S_T^-1 S_post) / 2
        trace = np.trace(np.linalg.solve(target.cov, post.cov))
        return float(_plain_logpdf(post.mean[None, :], target.mean, target.cov)[0]
                     - 0.5 * trace)
    tempered = GaussianDist(prob.source.mean, prob.source.cov / beta)
    if prob.objective == "KLD":
        post = tempered_posterior(prob, beta)
        diff = post.mean - tempered.mean
        kl = 0.5 * (
            np.trace(np.linalg.solve(tempered.cov, post.cov))
            + diff @ np.linalg.solve(tempered.cov, diff)
            - target.dim
            + np.linalg.slogdet(tempered.cov)[1]
            - np.linalg.slogdet(post.cov)[1]
        )
        return float(-kl)
    if prob.objective == "ME":
        return log_product_integral(tempered, target)
    # DS: Dice similarity 2 <s, t> / (<s, s> + <t, t>) of the product integrals.
    l_st = log_product_integral(tempered, target)
    l_ss = log_product_integral(tempered, tempered)
    l_tt = log_product_integral(target, target)
    return float(2.0 * np.exp(l_st - np.logaddexp(l_ss, l_tt)))


def broadcast_values(frame: WhitenedFrame, objective: str, betas) -> np.ndarray:
    """`WhitenedFrame.values` as one broadcast over the (betas, p) grid, log-DS for DS.

    The same operations in the same order as the blocked kernel, so the two
    agree bit for bit.
    """
    b = np.asarray(betas, dtype=float)[:, None]
    w, m_t, m_s, k = frame.w, frame.m_t, frame.m_s, frame.w.size
    if objective == "EDF":
        denom = 1.0 + b * w
        mu_p = (m_t + b * w * m_s) / denom
        quad = np.sum((mu_p - m_t) ** 2, axis=1)
        trace = np.sum(1.0 / denom, axis=1)
        return -0.5 * (quad + trace + k * frame.log2pi + frame.logdet_t)
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
        return -0.5 * (k * frame.log2pi + frame.logdet_t + logdet + quad)
    var_st = 1.0 / bw + 1.0
    l_st = -0.5 * (k * frame.log2pi + np.sum(np.log(var_st), axis=1)
                   + np.sum((m_s - m_t) ** 2 / var_st, axis=1))
    l_ss = -0.5 * (k * frame.log2pi + np.sum(np.log(2.0 / bw), axis=1))
    l_tt = -0.5 * (k * frame.log2pi + k * np.log(2.0))
    return np.log(2.0) + l_st - np.logaddexp(l_ss, l_tt)


def mc_edf(prob, beta, n=1_000_000, seed=0):
    """Monte-Carlo E_{posterior}[log target] from posterior draws."""
    post = tempered_posterior(prob, beta)
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(post.mean, post.cov, size=n)
    return float(np.mean(_plain_logpdf(draws, prob.target.mean, prob.target.cov)))


def mc_kld(prob, beta, n=1_000_000, seed=0):
    """Monte-Carlo KL(posterior || tempered source) from posterior draws."""
    post = tempered_posterior(prob, beta)
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(post.mean, post.cov, size=n)
    return float(np.mean(
        _plain_logpdf(draws, post.mean, post.cov)
        - _plain_logpdf(draws, prob.source.mean, prob.source.cov / beta)
    ))


def quad_product_integral(a: GaussianDist, b: GaussianDist) -> float:
    """Adaptive cubature of the product of two densities over a 9-sd box.

    SciPy's `cubature` evaluates the integrand on whole batches of points, so
    a 2-D instance costs tens of milliseconds rather than the seconds of a
    point-by-point `dblquad`.
    """
    sd = np.sqrt(np.maximum(np.diag(a.cov), np.diag(b.cov)))
    lo = np.minimum(a.mean, b.mean) - 9 * sd
    hi = np.maximum(a.mean, b.mean) + 9 * sd
    logpdf_a = _plain_logpdf_of(a.mean, a.cov)
    logpdf_b = _plain_logpdf_of(b.mean, b.cov)
    res = integrate.cubature(lambda x: np.exp(logpdf_a(x) + logpdf_b(x)), lo, hi,
                             rtol=1e-12, atol=0.0)
    if res.status != "converged":
        raise RuntimeError(f"product-integral cubature did not converge: {res.error}")
    return float(res.estimate)


def exact_ridge_mean(A: np.ndarray, Y: np.ndarray, jitter: float) -> np.ndarray:
    """(A^T A + jitter I)^-1 A^T Y in exact rational arithmetic, rounded once at the end.

    Gauss-Jordan elimination on the augmented normal equations over
    `fractions.Fraction`, so the only error is the final rounding to doubles.
    """
    rows = [[Fraction(v) for v in row] for row in A]
    ys = [Fraction(v) for v in Y]
    p = A.shape[1]
    M = [[sum(r[a] * r[b] for r in rows) + (Fraction(jitter) if a == b else 0)
          for b in range(p)] + [sum(r[a] * y for r, y in zip(rows, ys))]
         for a in range(p)]
    for c in range(p):
        pivot = next(r for r in range(c, p) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(p):
            if r != c and M[r][c] != 0:
                factor = M[r][c] / M[c][c]
                M[r] = [x - factor * y for x, y in zip(M[r], M[c])]
    return np.array([float(M[a][p] / M[a][a]) for a in range(p)])
