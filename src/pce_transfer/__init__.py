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

# The package root names what README's library example and the file commands
# use; everything else is imported from its module (pce_transfer.harness, ...).
from .basis import BasisSpec, DomainBox
from .errors import CalibrationError, DomainError, NumericError
from .gaussian import GaussianDist, factorize, likelihood
from .predict import Design, lpfp, pushforward, rmse
from .transfer import TransferProblem, optimize_beta

__version__ = "0.1.0"
