# special.py
# Special functions used throughout: Barnes G on the disc |x| <= 5.62,
# complete elliptic integral K, Jacobi theta series theta_{2,3,4}, and the
# elliptic modular lambda function.
#
# Conventions:
#   * theta3(s|tau) = sum_n exp(i pi tau n^2 + 2 pi i s n), Im tau > 0.
#   * lambda(tau) = theta2^4(0|tau) / theta3^4(0|tau)
#                 = 16 q prod_{n>=1} ((1 + q^{2n}) / (1 + q^{2n-1}))^8,  q = e^{i pi tau}.
#   * All complex logarithms are principal-branch.

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "EllipticModulus",
    "log_barnes_g",
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


def _as_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not (tau.imag > 0):
        raise DomainError(f"modular parameter needs Im(tau) > 0, got {tau}")
    return tau


# -----------------------------------------------------------------------------
# Barnes G
# -----------------------------------------------------------------------------
#
# G(1+x) is needed at the Fisher-Hartwig arguments 1 + alpha_j +- beta_j.
# The defining product converges too slowly to reach 1e-14 directly, so the
# first _N_DIRECT factors are multiplied out and the rest of the log-sum is
# resummed analytically: expanding n*log(1+x/n) - x + x^2/(2n) in powers of
# x/n and summing over n > _N_DIRECT gives Hurwitz zeta values, a series in
# x/(_N_DIRECT + 1).  scipy.special, which supplies them, costs about a
# third of a second to import, so log_barnes_g loads it on first call.

_N_DIRECT = 32
# The tail series stops at its first term below this, relative to the sum.
_BARNES_TOL = 1e-14
# Largest |x| accepted: it covers every +-beta of a SpectralParameter.  Its
# cut guard keeps lambda at least 1e-15 from +-1, so |Im beta| is at most
# ln(2e15) / (2 pi) = 5.607, and |beta| peaks at 5.613 near
# lambda = +-1 + 1e-15 i.  At 5.62 the tail falls by 5.62/33 = 0.17 a term.
_BARNES_MAX_ABS = 5.62


def log_barnes_g(x: complex) -> complex:
    """log G(1+x) for |x| <= _BARNES_MAX_ABS via the defining product with
    an analytic tail: a sum of principal logs, so a log of G(1+x) up to a
    multiple of 2 pi i.  At x = -1, -2, ..., where G(1+x) = 0, it is -inf.

    Raises DomainError beyond _BARNES_MAX_ABS and ConvergenceError if the
    tail series fails to reach _BARNES_TOL (it cannot inside the bound; the
    guard protects the budget invariant).
    """
    x = complex(x)
    if abs(x) > _BARNES_MAX_ABS:
        raise DomainError(
            f"Barnes G evaluated only on |x| <= _BARNES_MAX_ABS = {_BARNES_MAX_ABS}, "
            f"got |x| = {abs(x):.6g}"
        )
    if x == 0:
        return 0.0 + 0.0j
    if x.imag == 0 and x.real <= -1 and x.real.is_integer():
        # G(0) = G(-1) = ... = 0: the factor (1 + x/n)^n at n = -x vanishes.
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
    for j in range(3, 400):
        term = (-1.0) ** (j - 1) * xp / j * hurwitz_zeta(j - 1, _N_DIRECT + 1)
        total += term
        if abs(term) < _BARNES_TOL * max(1.0, abs(total)):
            return total
        xp *= x
    raise ConvergenceError(f"Barnes G tail at |x| = {abs(x):.6g} did not converge within 400 terms")


# -----------------------------------------------------------------------------
# Complete elliptic integral
# -----------------------------------------------------------------------------
def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a, b > 0; K(k) = pi / (2 AGM(1, k'))."""
    for _ in range(200):
        # quadratic convergence stalls at the rounding floor of ~1 ulp,
        # so the stop threshold must sit a few ulp above it
        if abs(a - b) <= 4.0 * _EPS * a:
            return a
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError("AGM iteration did not converge")


def complete_elliptic_K(k: float) -> float:
    """K(k) = integral_0^1 dx / sqrt((1-x^2)(1-k^2 x^2)), modulus convention.

    Evaluated by the arithmetic-geometric mean: K = pi / (2 AGM(1, k')).
    Accurate to ~1e-15 relative for 0 <= k < 1.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError(f"complete_elliptic_K needs 0 <= k < 1, got {k}")
    # (1-k)(1+k) avoids cancellation for k near 1
    return math.pi / (2.0 * _agm(1.0, math.sqrt((1.0 - k) * (1.0 + k))))


# -----------------------------------------------------------------------------
# Jacobi theta series
# -----------------------------------------------------------------------------
def theta(j: int, s: complex, tau: complex, tol: float = 1e-14) -> complex:
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
    raise ConvergenceError(
        f"theta series at Im tau = {tau_c.imag:.3e} exhausted its budget of "
        f"_TERM_BUDGET = {_TERM_BUDGET} terms"
    )


def _nome_log_sum(q: complex) -> complex:
    """ln prod_{n>=1} ((1 + q^{2n}) / (1 + q^{2n-1}))^8 = 8 sum_{m>=1} (-1)^m ln(1 + q^m)
    for |q| < 1, real (through log1p) or complex (principal logs, whose sum
    differs from the log of the product only by a multiple of 2 pi i).

    The sum stops once the rest of it, at most 8 |q|^{m+1} / (1 - |q|), is
    below an eighth of the double-precision epsilon.
    """
    log1p = math.log1p if isinstance(q, float) else (lambda z: cmath.log(1.0 + z))
    bound = _EPS * (1.0 - abs(q)) / 64.0
    total = 0.0
    qm = q
    sign = -8.0
    m = 1
    while m < _TERM_BUDGET:
        total += sign * log1p(qm)
        if abs(qm * q) < bound:
            return total
        qm *= q
        sign = -sign
        m += 1
    raise ConvergenceError(
        f"nome product at |q| = {abs(q):.15g} exhausted its budget of "
        f"_TERM_BUDGET = {_TERM_BUDGET} terms"
    )


def _log_lambda_imag(t: float) -> tuple[float, float]:
    """(ln lambda(i t), ln(1 - lambda(i t))) for real t > 0.

    The nome product is summed in log space at q = e^{-pi s}, s = max(t, 1/t),
    so q <= e^{-pi} and lambda(i s) <= 1/2 is the small side; ln(1 - lambda(i s))
    is log1p(-lambda(i s)).  The far side follows from lambda(i/t) = 1 - lambda(i t),
    so neither log is formed from a difference near 1.
    """
    s = max(t, 1.0 / t)
    log_small = math.log(16.0) - math.pi * s + _nome_log_sum(math.exp(-math.pi * s))
    log_large = math.log1p(-math.exp(log_small))
    return (log_small, log_large) if t >= 1.0 else (log_large, log_small)


def modular_lambda(tau: complex) -> complex:
    """Elliptic modular function lambda(tau) = theta2^4(0|tau) / theta3^4(0|tau),
    from the nome product 16 q prod_{n>=1} ((1 + q^{2n}) / (1 + q^{2n-1}))^8.

    Purely imaginary tau gives lambda in (0, 1).
    """
    q = cmath.exp(1j * math.pi * _as_tau(tau))
    return 16.0 * q * cmath.exp(_nome_log_sum(q))


def _elliptic_modulus(k: float, kprime: float) -> EllipticModulus:
    """The (k, k', tau0) triple from a modulus and its complement, each
    taken as given: tau0 = K(k')/K(k) = AGM(1, k') / AGM(1, k).

    The endpoints k = 0, 1 are genuine degenerations (tau0 = infinity / 0)
    and are rejected, also where k got there by rounding.
    """
    if not (0.0 < k < 1.0):
        raise DomainError(f"modulus k must lie in (0, 1), got {k}")
    return EllipticModulus(k=k, kprime=kprime, tau0=_agm(1.0, kprime) / _agm(1.0, k))


def tau0_from_modulus(k: float) -> EllipticModulus:
    """Build the full (k, k', tau0) triple with
    tau0 = K(k')/K(k) = AGM(1, k') / AGM(1, k).

    Each AGM takes its modulus as held, so no complement is rebuilt from a
    rounded one: k below 1e-8, where k' rounds to 1, keeps its digits.
    The endpoints k = 0, 1 are rejected.
    """
    if not (0.0 < k < 1.0):
        raise DomainError(f"tau0_from_modulus needs 0 < k < 1, got {k}")
    return _elliptic_modulus(k, math.sqrt((1.0 - k) * (1.0 + k)))
