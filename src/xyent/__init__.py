# Exact and asymptotic entanglement entropy of a block of spins in the
# ground state of the XY/XX quantum chain.
#
# The package is organized bottom-up:
#   special   Barnes G, elliptic integrals, theta functions, modular lambda
#   chain     model parameters, phase cases, correlation matrices, nu-spectra
#   toeplitz  exact and asymptotic Toeplitz/block determinants
#   entropy   entropy evaluations (exact, asymptotic, limit, closed forms)
#   spectrum  limit density-matrix ladder, multiplicities, zeta function
#   cli       the xyent command-line tool
#
# The public API is each library module's __all__, re-exported here.

from . import chain, entropy, errors, special, spectrum, toeplitz
from .chain import *  # noqa: F403
from .entropy import *  # noqa: F403
from .errors import *  # noqa: F403
from .special import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .toeplitz import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *chain.__all__,
    *special.__all__,
    *toeplitz.__all__,
    *entropy.__all__,
    *spectrum.__all__,
    *errors.__all__,
]
