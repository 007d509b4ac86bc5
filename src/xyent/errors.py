# errors.py
# Exception hierarchy. Two top-level families matter to callers (and to the
# CLI exit codes): bad inputs (DomainError, exit 2) and numerical failures
# (ConvergenceError, exit 3).
#
# Every public entry reads its arguments through the validators below: _count
# for a block length, truncation or index, _real for a real parameter in a
# range, _complex for a complex one, _array for a vector of coefficients or
# modes.  Each refuses with a DomainError naming the argument, so each kind
# of argument is decided here alone; only _array reads numpy.

import math
import numbers
import operator
import sys

import numpy as np

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


def _shown(value) -> str:
    """repr(value), or by its size an int too long for repr (ValueError)."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _count(name: str, value, least: int, most: int = sys.maxsize) -> int:
    """value as an int with least <= value <= most <= sys.maxsize (no array is
    longer): a Python or numpy integer, never a bool, a float (even 8.0), NaN or +-inf."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is not None and least <= n <= most:
        return n
    bound = f">= {least}" if most == sys.maxsize and (n is None or n < least) else f"in [{least}, {most}]"
    raise DomainError(f"{name} must be an integer {bound}, got {_shown(value)}")


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf, ends: str = "[]") -> float:
    """value as a finite float inside lo .. hi, each end closed ('[', ']') or
    open ('(', ')') as ends says: a Python or numpy real, never NaN or
    +-inf.  A float (numpy's float64 among them) is returned as given."""
    x = value
    if not isinstance(x, float):  # numpy's float64 is one
        try:
            x = float(x) if isinstance(x, numbers.Real) else math.nan
        except OverflowError:  # an int beyond double range
            x = math.inf
    if (math.isfinite(x) and (lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi)):
        return x
    above = "" if lo == -math.inf else f" {'>' if ends[0] == '(' else '>='} {lo:g}"
    below = "" if hi == math.inf else f" {'<' if ends[1] == ')' else '<='} {hi:g}"
    bound = f" in {ends[0]}{lo:g}, {hi:g}{ends[1]}" if above and below else above or below
    raise DomainError(f"{name} must be a finite real{bound}, got {_shown(value)}")


def _complex(name: str, value) -> complex:
    """value as a complex with finite parts: a Python or numpy number, never
    a string, None, a NaN or +-inf part, or an int beyond double range."""
    try:
        z = complex(value) if isinstance(value, numbers.Number) else None
    except OverflowError:  # an int beyond double range
        z = None
    if z is not None and math.isfinite(z.real) and math.isfinite(z.imag):
        return z
    raise DomainError(f"{name} must be a finite complex number, got {_shown(value)}")


def _array(name: str, value, dtype: type = float) -> np.ndarray:
    """value, a list or an array, as a 1-D array of finite numbers of dtype
    float (from integers and reals) or complex (from those and complex
    ones), returned as given if it already is one: never a bool, string or
    object array, a scalar or a 2-D array."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list, or no array at all
        a = None
    if a is not None and a.ndim == 1 and a.dtype.kind in ("iuf" if dtype is float else "iufc"):
        a = a.astype(dtype, copy=False)
        if np.isfinite(a).all():
            return a
    got = type(value).__name__ if a is None else f"{a.dtype} of shape {a.shape}"
    raise DomainError(f"{name} must be a 1-D array of finite {'real' if dtype is float else 'complex'} "
                      f"numbers, got {got}")
