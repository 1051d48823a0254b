"""Orthonormal multivariate Legendre bases over box domains.

The univariate family is orthonormal with respect to the uniform *probability*
density on [-1, 1] (weight 1/2), i.e. the degree-k member is sqrt(2k+1) * P_k
with P_k the classical Legendre polynomial.  Multivariate basis functions are
per-dimension products selected by a total-order multi-index set (one shared
per dimension and degree), and inputs map onto [-1, 1]^n per dimension affinely.
Every function that takes points reads them by `as_points`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, integer

# Slack for points that round-trip the affine map and land marginally outside.
BOX_TOLERANCE = 1e-12


def n_pce(n: int, d: int) -> int:
    """Number of terms (n+d)!/(n! d!) in a total-order truncation.

    Args:
        n: input dimension, >= 1.
        d: maximum total degree, >= 0.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    count = 1  # comb(max(n, d) + k, k) grows with k, so past 2**53 this stops within 54 steps
    for k in range(1, min(n, d) + 1):
        count = count * (max(n, d) + k) // k
        if count > 2**53:
            raise ValueError(f"basis size at dimension {n}, degree {d} exceeds the "
                             "representable range")
    return count


@functools.cache
def _total_order_indices(n: int, d: int) -> np.ndarray:
    """Multi-indices with component sum <= d, in graded lexicographic order.

    Built once per (n, d) and shared read-only by every basis of that shape.
    """

    def compositions(total: int, parts: int):
        # All `parts`-tuples of non-negative ints summing to `total`, lex ascending.
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    expected = n_pce(n, d)
    rows = []
    for grade in range(d + 1):
        rows.extend(compositions(grade, n))
    indices = np.array(rows, dtype=np.intp)
    assert indices.shape == (expected, n)
    indices.flags.writeable = False
    return indices


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box of admissible inputs, in model units."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if lower.size < 1:
            raise ValueError("box dimension must be >= 1")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def encompass(self, other: "DomainBox") -> "DomainBox":
        """Smallest box containing both self and other."""
        if other.dimension != self.dimension:
            raise ValueError("boxes have different dimensions")
        return DomainBox(np.minimum(self.lower, other.lower),
                         np.maximum(self.upper, other.upper))

    def translate(self, offset: float, axis: int) -> "DomainBox":
        """Shift the box by `offset` along one axis."""
        shift = np.zeros(self.dimension)
        shift[axis] = offset
        return DomainBox(self.lower + shift, self.upper + shift)


@dataclass(frozen=True)
class BasisSpec:
    """A domain box and the total degree of its Legendre basis.

    indices holds the basis's total-order multi-indices, one row per term.
    """

    box: DomainBox
    degree: int
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degree = integer("degree", self.degree, low=0)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "indices", _total_order_indices(self.box.dimension, degree))

    @classmethod
    def total_order(cls, box: DomainBox, degree: int) -> "BasisSpec":
        return cls(box, degree)

    @property
    def n_terms(self) -> int:
        return self.indices.shape[0]

    def to_config(self) -> dict:
        return {
            "dimension": self.box.dimension,
            "degree": self.degree,
            "lower": self.box.lower.tolist(),
            "upper": self.box.upper.tolist(),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "BasisSpec":
        dimension = integer("dimension", cfg["dimension"], low=0)
        box = DomainBox(np.asarray(cfg["lower"], dtype=float),
                        np.asarray(cfg["upper"], dtype=float))
        if box.dimension != dimension:
            raise ValueError("bounds length does not match the declared dimension")
        return cls(box, cfg["degree"])


def as_points(X, dimension: int) -> np.ndarray:
    """X as an (N, dimension) float array of points, one per row.

    A 1-d X lists consecutive points, so on a 1-d basis [0.1, 0.2, 0.3] is three
    points and on a 3-d one it is one.  Any other shape raises ValueError.
    """
    dimension = integer("dimension", dimension, low=1)
    pts = np.asarray(X, dtype=float)
    if pts.ndim == 1 and pts.size % dimension == 0:
        pts = pts.reshape(-1, dimension)
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise ValueError(f"expected {dimension}-dimensional points, got shape {pts.shape}")
    return pts


def to_reference(box: DomainBox, x: np.ndarray) -> np.ndarray:
    """Affine map of points in `box` onto the reference cube [-1, 1]^n.

    Reads x by `as_points` and returns shape (N, n).  Points may exceed the
    box by at most BOX_TOLERANCE (scaled by bound magnitude) to absorb
    floating-point round trips; endpoints map exactly to +/-1.
    """
    pts = as_points(x, box.dimension)
    slack = BOX_TOLERANCE * np.maximum(1.0, np.maximum(np.abs(box.lower), np.abs(box.upper)))
    outside = (pts < box.lower - slack) | (pts > box.upper + slack)
    if np.any(outside):
        bad = np.argwhere(outside)[0]
        raise DomainError(
            f"point {pts[bad[0]]} lies outside the box in dimension {bad[1]} "
            f"(bounds [{box.lower[bad[1]]}, {box.upper[bad[1]]}])"
        )
    xi = 2.0 * (pts - box.lower) / box.width - 1.0
    return np.clip(xi, -1.0, 1.0)


def legendre_orthonormal(max_degree: int, xi: np.ndarray) -> np.ndarray:
    """Univariate orthonormal Legendre values, shape xi.shape + (max_degree + 1,).

    Entry [..., k] holds sqrt(2k+1) * P_k(xi), orthonormal under the uniform
    probability density on [-1, 1]; evaluated by the three-term recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} on all of xi at once.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    table = np.empty((max_degree + 1,) + xi.shape)
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = xi
    for k in range(1, max_degree):
        table[k + 1] = ((2 * k + 1) * xi * table[k] - k * table[k - 1]) / (k + 1)
    table *= np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0).reshape((-1,) + (1,) * xi.ndim)
    return np.moveaxis(table, 0, -1)


def vandermonde(spec: BasisSpec, X: np.ndarray) -> np.ndarray:
    """Design matrix of basis values, shape (N_points, n_terms).

    Row k holds every basis function evaluated at point k of X (read by
    `as_points`) after mapping into the reference cube: one Legendre table for
    every dimension up to the basis degree, then one gather and product per
    dimension.
    """
    xi = to_reference(spec.box, X)
    table = legendre_orthonormal(spec.degree, xi)
    A = np.ones((xi.shape[0], spec.n_terms))
    for j in range(spec.box.dimension):
        A *= table[:, j, spec.indices[:, j]]
    return A
