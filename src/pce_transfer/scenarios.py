"""Shipped study configurations for the three reproduction scenarios.

Each scenario function returns its shipped constants as a base
`ExperimentConfig` plus its shift list, so the CLI and the acceptance suite
run the same studies.  `STUDIES` is the one table the CLI reads: each study
name maps to its sweeps and band targets.  Study settings change through
`dataclasses.replace` on a sweep's config, which `ExperimentConfig`
validates; the CLI applies every `--set` override to every sweep that way.

Two noise scales appear in every scenario: `noise_sd` is the injected
observation noise, while `likelihood_noise_sd` is the noise scale assumed by
the likelihood covariances.  The assumed scale deliberately dominates the
injected one (it acts as a trust level on each task's fitted coefficients,
absorbing surrogate structural error), which is what lets in-span agreement
between tasks register as full transfer.  LPFP scores add the assumed noise
variance to the predictive marginals so near-interpolating fits are scored on
a finite density.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .basis import DomainBox
from .harness import ExperimentConfig
from .models import cubic_model, ishigami_model, subsurface_model

DEFAULT_SEED = 20240810

# --- Cubic domain adaptation -------------------------------------------------
# Source interval [-0.2, 0.3]; length-0.4 target intervals slide away from the
# source center across [-3, 3].  Shifts are distances between domain centers.

CUBIC_SOURCE_BOX = DomainBox(np.array([-0.2]), np.array([0.3]))
CUBIC_TARGET_BASE_BOX = DomainBox(np.array([-0.15]), np.array([0.25]))
CUBIC_SHIFTS = tuple(np.round(np.arange(0.0, 2.51, 0.25), 2).tolist())
CUBIC_NOISE_SD = 0.01
CUBIC_LIKELIHOOD_NOISE_SD = 0.1

# Representative target placements for band exports: far, close, partially
# overlapping, and merged with the source interval.
CUBIC_BAND_TARGETS = {"A": 2.5, "B": 0.8, "C": 0.4, "D": 0.0}


def cubic_scenario() -> tuple[ExperimentConfig, tuple]:
    return ExperimentConfig(
        model=cubic_model(),
        source_box=CUBIC_SOURCE_BOX,
        target_box=CUBIC_TARGET_BASE_BOX,
        degrees=(1, 2, 3),
        n_source=16,
        n_target=4,
        n_val=100,
        n_trials=100,
        noise_sd=CUBIC_NOISE_SD,
        sampler="latin-hypercube",
        objective="EDF",
        seed=DEFAULT_SEED,
        shift_mode="target-box",
        likelihood_noise_sd=CUBIC_LIKELIHOOD_NOISE_SD,
        lpfp_noise_var=CUBIC_LIKELIHOOD_NOISE_SD**2,
    ), CUBIC_SHIFTS


# --- Ishigami task adaptation ------------------------------------------------
# Shared input domain [-1, 1]^2; the target task translates the first input
# by the shift p.  Ten coefficients at total degree 3 in two dimensions.  The
# assumed noise scale 0.1 sits a factor ~2.5 above the degree-3 surrogate's
# structural error (~0.04 RMS) so likelihood covariances stay meaningful.

ISHIGAMI_BOX = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
ISHIGAMI_SHIFTS = tuple(np.round(np.arange(0.0, 2.01, 0.25), 2).tolist())
ISHIGAMI_NOISE_SD = 0.01
ISHIGAMI_LIKELIHOOD_NOISE_SD = 0.1


def ishigami_scenario() -> tuple[ExperimentConfig, tuple]:
    return ExperimentConfig(
        model=ishigami_model(theta=0.0),
        source_box=ISHIGAMI_BOX,
        target_box=ISHIGAMI_BOX,
        degrees=(3,),
        n_source=40,
        n_target=11,
        n_val=1000,
        n_trials=100,
        noise_sd=ISHIGAMI_NOISE_SD,
        sampler="latin-hypercube",
        objective="EDF",
        seed=DEFAULT_SEED,
        shift_mode="model-param",
        likelihood_noise_sd=ISHIGAMI_LIKELIHOOD_NOISE_SD,
        lpfp_noise_var=ISHIGAMI_LIKELIHOOD_NOISE_SD**2,
    ), ISHIGAMI_SHIFTS


# --- Synthetic subsurface domain adaptation ----------------------------------
# Five parameters (R1, R2, R3, z1, z2); the target domain slides either the
# z2 depth range [1, 2] -> [4, 5] or the R3 resistivity range [7, 9] -> [17, 19].

SUBSURFACE_SOURCE_BOX = DomainBox(
    lower=np.array([1.0, 4.0, 7.0, -2.0, 1.0]),
    upper=np.array([3.0, 6.0, 9.0, -1.0, 2.0]),
)
SUBSURFACE_SWEEPS = {
    "z2": {"axis": 4, "shifts": (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)},
    "R3": {"axis": 2, "shifts": (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)},
}
SUBSURFACE_NOISE_SD = 0.01
SUBSURFACE_LIKELIHOOD_NOISE_SD = 0.05


def subsurface_scenario(sweep_param: str = "z2") -> tuple[ExperimentConfig, tuple]:
    if sweep_param not in SUBSURFACE_SWEEPS:
        raise ValueError(f"sweep_param must be one of {tuple(SUBSURFACE_SWEEPS)}")
    plan = SUBSURFACE_SWEEPS[sweep_param]
    return ExperimentConfig(
        model=subsurface_model(),
        source_box=SUBSURFACE_SOURCE_BOX,
        target_box=SUBSURFACE_SOURCE_BOX,
        degrees=(3,),
        n_source=200,
        n_target=57,
        n_val=500,
        n_trials=50,
        noise_sd=SUBSURFACE_NOISE_SD,
        sampler="uniform",
        objective="EDF",
        seed=DEFAULT_SEED,
        shift_mode="target-box",
        shift_axis=plan["axis"],
        likelihood_noise_sd=SUBSURFACE_LIKELIHOOD_NOISE_SD,
        lpfp_noise_var=SUBSURFACE_LIKELIHOOD_NOISE_SD**2,
    ), plan["shifts"]


class Study(NamedTuple):
    """A shipped study: its command's help line, its sweeps as (tag, config,
    shifts), and its band exports as label -> shift (empty for none)."""

    description: str
    sweeps: tuple[tuple[str, ExperimentConfig, tuple], ...]
    band_targets: dict[str, float]


STUDIES = {
    "cubic": Study("cubic-truth domain-adaptation study",
                   (("", *cubic_scenario()),), CUBIC_BAND_TARGETS),
    "ishigami": Study("task-adaptation study on the shifted Ishigami response",
                      (("", *ishigami_scenario()),), {}),
    "subsurface-synthetic": Study(
        "synthetic subsurface domain-adaptation study",
        tuple((tag, *subsurface_scenario(tag)) for tag in SUBSURFACE_SWEEPS), {}),
}
