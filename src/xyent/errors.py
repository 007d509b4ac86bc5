# errors.py
# Exception hierarchy. Two top-level families matter to callers (and to the
# CLI exit codes): bad inputs (DomainError, exit 2) and numerical failures
# (ConvergenceError, exit 3).

__all__ = [
    "XyentError",
    "DomainError",
    "BoundaryError",
    "CutError",
    "ProximityError",
    "RegimeError",
    "ConfigError",
    "ConvergenceError",
    "ResolutionError",
    "SpectrumRangeError",
]


class XyentError(Exception):
    """Base class for all library errors."""


class DomainError(XyentError):
    """Input outside the mathematical domain of an operation."""


class BoundaryError(DomainError):
    """Parameters sit on an excluded critical manifold (e.g. h = 2)."""


class CutError(DomainError):
    """Spectral parameter lies on the cut [-1, 1]."""


class ProximityError(DomainError):
    """Spectral parameter too close to an excluded point (+-1 or a
    prefactor zero of the theta ladder)."""


class RegimeError(DomainError):
    """Parameters outside the validity window of a near-critical
    approximation."""


class ConfigError(DomainError):
    """Invalid run configuration; message names the offending field."""


class ConvergenceError(XyentError):
    """A series, product, or quadrature failed to reach tolerance within
    its term budget."""


class ResolutionError(ConvergenceError):
    """Fourier/quadrature grid too coarse: trailing coefficients of a
    symbol declared smooth do not decay below tolerance, or the grid they
    need is over its cap."""


class SpectrumRangeError(ConvergenceError):
    """Eigensolver returned correlation eigenvalues outside [-1, 1] by
    more than the physical tolerance."""
