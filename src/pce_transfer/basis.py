"""Orthonormal multivariate Legendre bases over box domains.

The univariate family is orthonormal with respect to the uniform *probability*
density on [-1, 1] (weight 1/2), i.e. the degree-k member is sqrt(2k+1) * P_k
with P_k the classical Legendre polynomial.  Multivariate basis functions are
per-dimension products selected by a total-order multi-index set (one shared
per dimension and degree), and inputs map onto [-1, 1]^n per dimension affinely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    count = math.comb(n + d, d)
    if count > 2**53:
        raise OverflowError(f"basis size {count} exceeds the representable range")
    return count


def _total_order_indices(n: int, d: int) -> np.ndarray:
    """Multi-indices with component sum <= d, in graded lexicographic order."""

    def compositions(total: int, parts: int):
        # All `parts`-tuples of non-negative ints summing to `total`, lex ascending.
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    rows = []
    for grade in range(d + 1):
        rows.extend(compositions(grade, n))
    return np.array(rows, dtype=np.intp)


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
class MultiIndexSet:
    """Total-order truncated multi-index set in graded lexicographic order."""

    dimension: int
    degree: int
    indices: np.ndarray

    @classmethod
    @functools.cache
    def total_order(cls, dimension: int, degree: int) -> "MultiIndexSet":
        """The set for (dimension, degree), built once per process and shared read-only."""
        expected = n_pce(dimension, degree)
        indices = _total_order_indices(dimension, degree)
        assert indices.shape == (expected, dimension)
        indices.flags.writeable = False
        return cls(dimension=dimension, degree=degree, indices=indices)

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.intp)
        if indices.ndim != 2 or indices.shape[1] != self.dimension:
            raise ValueError("indices must have shape (n_terms, dimension)")
        if np.any(indices < 0) or np.any(indices.sum(axis=1) > self.degree):
            raise ValueError("indices violate the total-order truncation")
        if len({tuple(row) for row in indices}) != len(indices):
            raise ValueError("duplicate multi-indices")
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class BasisSpec:
    """A domain box paired with the multi-index set of its Legendre basis."""

    box: DomainBox
    index_set: MultiIndexSet

    def __post_init__(self):
        if self.box.dimension != self.index_set.dimension:
            raise ValueError("box and index set dimensions differ")

    @classmethod
    def total_order(cls, box: DomainBox, degree: int) -> "BasisSpec":
        return cls(box=box, index_set=MultiIndexSet.total_order(box.dimension, degree))

    @property
    def n_terms(self) -> int:
        return len(self.index_set)

    def to_config(self) -> dict:
        return {
            "dimension": self.box.dimension,
            "degree": self.index_set.degree,
            "lower": self.box.lower.tolist(),
            "upper": self.box.upper.tolist(),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "BasisSpec":
        dimension, degree = (integer(key, cfg[key], low=0) for key in ("dimension", "degree"))
        box = DomainBox(np.asarray(cfg["lower"], dtype=float),
                        np.asarray(cfg["upper"], dtype=float))
        if box.dimension != dimension:
            raise ValueError("bounds length does not match the declared dimension")
        return cls.total_order(box, degree)


def to_reference(box: DomainBox, x: np.ndarray) -> np.ndarray:
    """Affine map of points in `box` onto the reference cube [-1, 1]^n.

    Accepts a single point of shape (n,) or a batch of shape (N, n).  Points
    may exceed the box by at most BOX_TOLERANCE (scaled by bound magnitude) to
    absorb floating-point round trips; endpoints map exactly to +/-1.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != box.dimension:
        raise ValueError(f"points have dimension {pts.shape[1]}, box has {box.dimension}")
    slack = BOX_TOLERANCE * np.maximum(1.0, np.maximum(np.abs(box.lower), np.abs(box.upper)))
    below = pts < box.lower - slack
    above = pts > box.upper + slack
    if np.any(below) or np.any(above):
        bad = np.argwhere(below | above)[0]
        raise DomainError(
            f"point {pts[bad[0]]} lies outside the box in dimension {bad[1]} "
            f"(bounds [{box.lower[bad[1]]}, {box.upper[bad[1]]}])"
        )
    xi = 2.0 * (pts - box.lower) / box.width - 1.0
    xi = np.clip(xi, -1.0, 1.0)
    return xi[0] if squeeze else xi


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

    Row k holds every basis function evaluated at X[k] after mapping into the
    reference cube: one Legendre table for every dimension up to the highest
    degree in the index set, then one gather and product per dimension.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, spec.box.dimension)
    xi = to_reference(spec.box, X)
    indices = spec.index_set.indices
    table = legendre_orthonormal(int(indices.max()), xi)
    A = np.ones((xi.shape[0], len(spec.index_set)))
    for j in range(spec.box.dimension):
        A *= table[:, j, indices[:, j]]
    return A
