# special.py
# Special functions used throughout: Barnes G on the closed unit disc,
# complete elliptic integral K, Jacobi theta series theta_{2,3,4}, and the
# elliptic modular lambda function.
#
# Conventions:
#   * theta3(s|tau) = sum_n exp(i pi tau n^2 + 2 pi i s n), Im tau > 0.
#   * lambda(tau) = theta2^4(0|tau) / theta3^4(0|tau).
#   * All complex logarithms are principal-branch.

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "ModularPoint",
    "EllipticModulus",
    "barnes_g",
    "barnes_g_pair",
    "log_barnes_g",
    "log_barnes_g_pair",
    "complete_elliptic_K",
    "theta",
    "modular_lambda",
    "tau0_from_modulus",
]

EULER_GAMMA = 0.5772156649015329

_EPS = 2.220446049250313e-16

# Hard cap on series/product terms; exhausting it raises, never truncates
# silently.
_TERM_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ModularPoint:
    """A point tau in the upper half-plane.

    The nome q = exp(i pi tau) is always derived from tau on access, so the
    two can never disagree.
    """

    tau: complex

    def __post_init__(self) -> None:
        if not (self.tau.imag > 0):
            raise DomainError(f"modular parameter needs Im(tau) > 0, got {self.tau}")

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.tau)


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus pair (k, k') with the module parameter tau0 = K(k')/K(k)."""

    k: float
    kprime: float
    tau0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.k < 1.0):
            raise DomainError(f"modulus k must lie in (0, 1), got {self.k}")
        if abs(self.k * self.k + self.kprime * self.kprime - 1.0) > 1e-12:
            raise DomainError("k^2 + k'^2 = 1 violated")


def _as_tau(tau: ModularPoint | complex) -> complex:
    if isinstance(tau, ModularPoint):
        return tau.tau
    tau = complex(tau)
    if not (tau.imag > 0):
        raise DomainError(f"modular parameter needs Im(tau) > 0, got {tau}")
    return tau


# -----------------------------------------------------------------------------
# Barnes G
# -----------------------------------------------------------------------------
#
# G(1+x) is needed only for |x| <= 1 (arguments 1 + alpha_j +- beta_j stay
# near 1).  The defining product converges too slowly to reach 1e-14
# directly, so the first _N_DIRECT factors are multiplied out and the rest
# of the log-sum is resummed analytically: expanding n*log(1+x/n) - x
# + x^2/(2n) in powers of x/n and summing over n > _N_DIRECT gives Hurwitz
# zeta values.  scipy.special, which supplies them, costs about a third of a
# second to import, so only these two functions load it, on first call.

_N_DIRECT = 32


def log_barnes_g(x: complex, tol: float = 1e-14) -> complex:
    """log G(1+x) for |x| <= 1 via the defining product with an analytic
    tail.

    Raises DomainError outside the closed unit disc and ConvergenceError if
    the tail series fails to reach `tol` (it cannot for |x| <= 1; the guard
    protects the budget invariant).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    x = complex(x)
    if abs(x) > 1.0 + 1e-15:
        raise DomainError(f"Barnes G evaluated only on |x| <= 1, got |x| = {abs(x):.6g}")
    if x == 0:
        return 0.0 + 0.0j
    if x == -1:
        # G(0) = 0: the n=1 factor (1 + x/n)^n vanishes.
        return complex("-inf")
    from scipy.special import zeta as hurwitz_zeta

    total = (
        0.5 * x * math.log(2.0 * math.pi)
        - 0.5 * x * (x + 1.0)
        - 0.5 * EULER_GAMMA * x * x
    )
    for n in range(1, _N_DIRECT + 1):
        total += n * cmath.log(1.0 + x / n) - x + x * x / (2.0 * n)

    # Tail: sum_{n>N} [n log(1+x/n) - x + x^2/(2n)]
    #     = sum_{j>=3} (-1)^{j-1} x^j / j * zeta(j-1, N+1)
    xp = x * x * x
    j = 3
    while j < 400:
        term = (-1.0) ** (j - 1) * xp / j * hurwitz_zeta(j - 1, _N_DIRECT + 1)
        total += term
        if abs(term) < tol * max(1.0, abs(total)):
            return total
        xp *= x
        j += 1
    raise ConvergenceError("Barnes G tail did not converge within budget")


def barnes_g(x: complex, tol: float = 1e-14) -> complex:
    """G(1+x) on the closed disc |x| <= 1 (Weierstrass-type product)."""
    lg = log_barnes_g(x, tol)
    if lg.real == float("-inf"):
        return 0.0 + 0.0j
    return cmath.exp(lg)


def log_barnes_g_pair(beta: complex, tol: float = 1e-14) -> complex:
    """log[G(1+beta) G(1-beta)] via the even product in beta^2.

    Valid for |Re beta| < 1/2, which is exactly the range the spectral
    parameter supplies off the cut.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    beta = complex(beta)
    if abs(beta.real) >= 0.5:
        raise DomainError(f"pair form needs |Re beta| < 1/2, got Re beta = {beta.real:.6g}")
    from scipy.special import zeta as hurwitz_zeta
    b2 = beta * beta
    total = -(1.0 + EULER_GAMMA) * b2
    for n in range(1, _N_DIRECT + 1):
        total += n * cmath.log(1.0 - b2 / (n * n)) + b2 / n

    # Tail: -sum_{j>=2} beta^{2j} / j * zeta(2j-1, N+1)
    bp = b2 * b2
    j = 2
    while j < 300:
        term = -bp / j * hurwitz_zeta(2 * j - 1, _N_DIRECT + 1)
        total += term
        if abs(term) < tol * max(1.0, abs(total)):
            return total
        bp *= b2
        j += 1
    raise ConvergenceError("Barnes G pair tail did not converge within budget")


def barnes_g_pair(beta: complex, tol: float = 1e-14) -> complex:
    """G(1+beta) G(1-beta) for |Re beta| < 1/2."""
    return cmath.exp(log_barnes_g_pair(beta, tol))


# -----------------------------------------------------------------------------
# Complete elliptic integral
# -----------------------------------------------------------------------------
def complete_elliptic_K(k: float) -> float:
    """K(k) = integral_0^1 dx / sqrt((1-x^2)(1-k^2 x^2)), modulus convention.

    Evaluated by the arithmetic-geometric mean: K = pi / (2 AGM(1, k')).
    Accurate to ~1e-15 relative for 0 <= k < 1.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError(f"complete_elliptic_K needs 0 <= k < 1, got {k}")
    # (1-k)(1+k) avoids cancellation for k near 1
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(200):
        # quadratic convergence stalls at the rounding floor of ~1 ulp,
        # so the stop threshold must sit a few ulp above it
        if abs(a - b) <= 4.0 * _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    else:
        raise ConvergenceError("AGM iteration did not converge")
    return math.pi / (2.0 * a)


# -----------------------------------------------------------------------------
# Jacobi theta series
# -----------------------------------------------------------------------------
def theta(j: int, s: complex, tau: ModularPoint | complex, tol: float = 1e-14) -> complex:
    """Jacobi theta_j(s | tau) for j in {2, 3, 4}, by direct summation.

    theta3: sum over integer n of exp(i pi tau n^2 + 2 pi i s n);
    theta4: same with (-1)^n; theta2: half-integer indices n + 1/2.

    Terms are added in symmetric +-n pairs.  For complex s the summand
    peaks near n ~ |Im s| / Im tau, so truncation only triggers past that
    ridge; stopping earlier would drop the dominant terms.
    """
    if j not in (2, 3, 4):
        raise DomainError(f"theta index must be 2, 3 or 4, got {j}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    tau_c = _as_tau(tau)
    if not (tau_c.imag > 0):
        raise ConvergenceError("theta series diverges for Im(tau) <= 0")
    s = complex(s)
    ipitau = 1j * math.pi * tau_c
    twopis = 2j * math.pi * s
    n_peak = abs(s.imag) / tau_c.imag

    if j == 2:
        total = 0.0 + 0.0j
        n = 0
        while n < _TERM_BUDGET:
            a = n + 0.5
            t1 = cmath.exp(ipitau * a * a + twopis * a)
            t2 = cmath.exp(ipitau * a * a - twopis * a)
            total += t1 + t2
            if a > n_peak + 2 and abs(t1) + abs(t2) < tol * max(1.0, abs(total)):
                return total
            n += 1
    else:
        total = 1.0 + 0.0j
        sign = 1.0
        n = 1
        while n < _TERM_BUDGET:
            if j == 4:
                sign = -1.0 if n % 2 else 1.0
            t1 = cmath.exp(ipitau * n * n + twopis * n)
            t2 = cmath.exp(ipitau * n * n - twopis * n)
            total += sign * (t1 + t2)
            if n > n_peak + 2 and abs(t1) + abs(t2) < tol * max(1.0, abs(total)):
                return total
            n += 1
    raise ConvergenceError("theta series exhausted its term budget")


def modular_lambda(tau: ModularPoint | complex) -> complex:
    """Elliptic modular function lambda(tau) = theta2^4(0|tau) / theta3^4(0|tau).

    Purely imaginary tau gives lambda in (0, 1).
    """
    tau_c = _as_tau(tau)
    t2 = theta(2, 0.0, tau_c, tol=1e-15)
    t3 = theta(3, 0.0, tau_c, tol=1e-15)
    return (t2 / t3) ** 4


def tau0_from_modulus(k: float) -> EllipticModulus:
    """Build the full (k, k', tau0) triple with tau0 = K(k')/K(k).

    The endpoints k = 0, 1 are genuine degenerations (tau0 = infinity / 0)
    and are rejected.
    """
    if not (0.0 < k < 1.0):
        raise DomainError(f"tau0_from_modulus needs 0 < k < 1, got {k}")
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    tau0 = complete_elliptic_K(kprime) / complete_elliptic_K(k)
    return EllipticModulus(k=k, kprime=kprime, tau0=tau0)
