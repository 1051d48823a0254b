"""Generative truth models driving the calibration experiments.

Each model evaluates deterministically on points read by `basis.as_points`
and returns outputs of shape (N,).  The subsurface stand-in is a synthetic smooth
response over five layered-medium parameters; it is not a physics solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .basis import DomainBox, as_points
from .errors import DomainError, NumericError, integer


def cubic_truth(x):
    """One-dimensional third-order polynomial truth: 0.3 ((1/3) x^3 - 2.25 x)."""
    x = np.asarray(x, dtype=float)
    return 0.3 * ((1.0 / 3.0) * x**3 - 2.25 * x)


def ishigami(x, y, theta=0.0):
    """Reduced two-variable Ishigami-style response sin(x - theta) + y^4 sin(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sin(x - theta) + y**4 * np.sin(x)


# Admissible envelope for the synthetic subsurface response: generous bounds
# covering the base parameter ranges and every shifted variant of them.  The
# R3 lower bound stays above the 6 ohm-m background the contrast is taken
# against.
SUBSURFACE_ENVELOPE = DomainBox(
    lower=np.array([0.5, 3.0, 6.5, -3.0, 0.5]),
    upper=np.array([4.0, 7.0, 25.0, 0.0, 6.0]),
)


def synthetic_subsurface(points):
    """Synthetic layered-medium response over (R1, R2, R3, z1, z2).

    A smooth stand-in for a depth-profile measurement: scaled logarithms of
    the layer resistivities, each modulated by a logistic weight in the depth
    of its bounding interface relative to the sensor at z = 0.  The third
    layer contributes the log of its resistivity contrast against a 6 ohm-m
    background, and its weight falls off as the boundary z2 recedes past 3 ft,
    so sliding the z2 or R3 ranges genuinely changes the local response shape.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 5:
        raise ValueError(f"expected 5 parameters (R1, R2, R3, z1, z2), got {pts.shape[1]}")
    lo, hi = SUBSURFACE_ENVELOPE.lower, SUBSURFACE_ENVELOPE.upper
    if np.any(pts < lo) or np.any(pts > hi):
        raise DomainError("subsurface parameters outside the admissible envelope")
    r1, r2, r3, z1, z2 = pts.T
    w1 = 1.0 / (1.0 + np.exp(-1.5 * (z1 + 1.5)))
    w3 = 1.0 / (1.0 + np.exp(2.0 * (z2 - 3.0)))
    y = w1 * np.log(r1) + np.log(r2) + w3 * np.log(r3 - 6.0)
    return y if np.asarray(points).ndim == 2 else y[0]


@dataclass(frozen=True)
class GenerativeModel:
    """Named deterministic truth model with its tunable parameters."""

    name: str
    dimension: int
    fn: Callable[..., np.ndarray]
    parameters: dict = field(default_factory=dict)
    domain: DomainBox | None = None  # admissible inputs; study boxes must stay inside

    def __post_init__(self):
        dimension = integer("dimension", self.dimension, low=1)
        object.__setattr__(self, "dimension", dimension)
        if not callable(self.fn):
            raise ValueError(f"fn must be callable, got {self.fn!r}")
        if self.domain is not None and self.domain.dimension != dimension:
            raise ValueError(f"domain has dimension {self.domain.dimension}, "
                             f"the model {dimension}")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(as_points(points, self.dimension), **self.parameters),
                         dtype=float)
        if not np.all(np.isfinite(out)):
            raise NumericError(f"model {self.name} produced non-finite output")
        return out

    def with_parameters(self, **updates) -> "GenerativeModel":
        return replace(self, parameters={**self.parameters, **updates})


def _cubic_fn(pts):
    return cubic_truth(pts[:, 0])


def _ishigami_fn(pts, theta=0.0):
    return ishigami(pts[:, 0], pts[:, 1], theta=theta)


def cubic_model() -> GenerativeModel:
    return GenerativeModel("cubic", 1, _cubic_fn)


def ishigami_model(theta: float = 0.0) -> GenerativeModel:
    return GenerativeModel("ishigami", 2, _ishigami_fn, {"theta": theta})


def subsurface_model() -> GenerativeModel:
    return GenerativeModel("subsurface-synthetic", 5, synthetic_subsurface,
                           domain=SUBSURFACE_ENVELOPE)
