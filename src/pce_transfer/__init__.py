"""Polynomial-chaos surrogates with optimally tempered knowledge transfer.

Build orthonormal Legendre bases over box domains, calibrate coefficient
Gaussians by Bayesian linear regression, temper a data-rich source posterior
into a prior for a data-poor target task, and pick the tempering exponent by
maximizing one of four overlap objectives.
"""

import os

# One BLAS thread per process, set before the first submodule loads numpy; a
# value the caller already set wins.  The algebra here is at most 1000 x 56,
# where OpenBLAS's own threads mostly spin: on 2 CPUs the shipped subsurface
# study took 7.8 s of wall and 14.6 s of CPU time with them and 6.2 s of each
# without, and under --workers 2 every worker's threads fought the other
# worker for the same CPUs.  Parallelism comes from --workers instead.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .basis import (
    BasisSpec,
    DomainBox,
    as_points,
    n_pce,
    to_reference,
    vandermonde,
)
from .errors import CalibrationError, DomainError, NumericError
from .gaussian import (
    CalibrationTask,
    GaussianDist,
    likelihood,
    likelihood_with_report,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    pfp_bands,
    run_shift,
    run_trial,
    sample,
)
from .models import (
    GenerativeModel,
    cubic_model,
    cubic_truth,
    ishigami,
    ishigami_model,
    subsurface_model,
    synthetic_subsurface,
)
from .predict import Design, PfpPrediction, lpfp, pushforward, rmse
from .transfer import (
    BetaResult,
    TransferProblem,
    fuse,
    objective_value,
    optimize_beta,
    tempered_posterior,
)

__version__ = "0.1.0"
