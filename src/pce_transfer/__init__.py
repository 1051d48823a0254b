"""Polynomial-chaos surrogates with optimally tempered knowledge transfer.

Build orthonormal Legendre bases over box domains, calibrate coefficient
Gaussians by Bayesian linear regression, temper a data-rich source posterior
into a prior for a data-poor target task, and pick the tempering exponent by
maximizing one of four overlap objectives.
"""

from .basis import (
    BasisSpec,
    DomainBox,
    MultiIndexSet,
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
from .predict import Design, PfpPrediction, correlation_matrix, lpfp, pushforward, rmse
from .transfer import (
    BetaResult,
    TransferProblem,
    fuse,
    objective_value,
    optimize_beta,
    temper,
    tempered_posterior,
)

__version__ = "0.1.0"
