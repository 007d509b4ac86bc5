# special.py
# Special functions used throughout: Barnes G on the disc |x| <= 5.62 (32
# product factors and a tail polynomial with frozen coefficients), the
# complete elliptic integral K, Jacobi theta series theta_{2,3,4}, and the
# elliptic modular lambda function.  theta3 is summed in one place, in log
# space (_log_theta3): theta, the XY determinant prefactor and the
# limit-entropy integral all read it.  So is ln lambda_0, the limit
# ladder's top (_ladder_params), for the spectrum and both Renyi forms.
#
# Conventions:
#   * theta3(s|tau) = sum_n exp(i pi tau n^2 + 2 pi i s n), Im tau > 0.
#   * lambda(tau) = theta2^4(0|tau) / theta3^4(0|tau)
#                 = 16 q prod_{n>=1} ((1 + q^{2n}) / (1 + q^{2n-1}))^8,  q = e^{i pi tau}.
#   * All complex logarithms are principal-branch.

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, _complex, _count, _real

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
    """Modulus pair (k, k') with the module parameter tau0 = K(k')/K(k).

    k lies in (0, 1), whose ends are degenerations (tau0 = infinity / 0),
    refused also where k got there by rounding.  A k' left out is computed
    once k has passed, and tau0 = AGM(1, k') / AGM(1, k) always, from both
    as held, so no complement is rebuilt from a rounded one.  Where tau0 >= 1
    (k^2 <= 1/2) it also holds _nome_sum, N = _nome_log_sum(e^{-pi tau0}),
    so that ln k^2 = ln 16 - pi tau0 + N (k^2 = lambda(i tau0)) for every
    form that reads it there.  It is summed here rather than on first read:
    a first read through functools.cached_property costs more than the sum
    at these nomes (q <= e^{-pi}).
    """

    k: float
    kprime: float | None = None

    def __post_init__(self) -> None:
        k = _real("modulus k", self.k, 0.0, 1.0, "()")
        if self.kprime is None:
            object.__setattr__(self, "kprime", math.sqrt((1.0 - k) * (1.0 + k)))
        kp = _real("complementary modulus k'", self.kprime, 0.0, math.inf, "()")
        if not abs(k * k + kp * kp - 1.0) <= 1e-12:
            raise DomainError("k^2 + k'^2 = 1 violated")
        tau0 = _agm(1.0, kp) / _agm(1.0, k)
        object.__setattr__(self, "tau0", tau0)
        if tau0 >= 1.0:
            object.__setattr__(self, "_nome_sum", _nome_log_sum(math.exp(-math.pi * tau0)))


def _as_tau(tau: complex) -> complex:
    tau = _complex("modular parameter tau", tau)
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
# x/n and summing over n > _N_DIRECT gives sum_{j>=3} (-1)^{j-1} zeta(j-1, 33)
# x^j / j.  On |x| <= 5.62 its terms past j = 22 sum to 7.5e-18, so the tail
# is a fixed polynomial (Horner), with zeta(s, 33), s = 2..21, frozen to
# double from 40-digit mpmath.

_N_DIRECT = 32
_ZETA_33 = (
    0.03076680402030209, 0.00047326080198204537, 9.7056181465898e-06, 2.2390520415408442e-07,
    5.509341869661817e-09, 1.4119843230949137e-10, 3.721862849883547e-12, 1.0014092850268639e-13,
    2.7369586674508075e-15, 7.573312678582031e-17, 2.1165784852683847e-18, 5.964211998122713e-20,
    1.692249333666506e-21, 4.8296897874911047e-23, 1.385357369694475e-24, 3.991215683168688e-26,
    1.1542894258769386e-27, 3.349623638814897e-29, 9.749588455364436e-31, 2.845429393519719e-32,
)
# (-1)^{j-1} zeta(j-1, 33) / j for j = 22 down to 3
_BARNES_TAIL = tuple((-1.0) ** s * z / (s + 1) for s, z in enumerate(_ZETA_33, start=2))[::-1]
# Largest |x| accepted: it covers every +-beta of a SpectralParameter.  Its
# cut guard keeps lambda at least 1e-15 from +-1, so |Im beta| is at most
# ln(2e15) / (2 pi) = 5.607, and |beta| peaks at 5.613 near
# lambda = +-1 + 1e-15 i.  At 5.62 the tail falls by 5.62/33 = 0.17 a term.
_BARNES_MAX_ABS = 5.62


def log_barnes_g(x: complex) -> complex:
    """log G(1+x) for |x| <= _BARNES_MAX_ABS via the defining product with
    an analytic tail: a sum of principal logs, so a log of G(1+x) up to a
    multiple of 2 pi i.  At x = -1, -2, ..., where G(1+x) = 0, it is -inf.

    Raises DomainError beyond _BARNES_MAX_ABS and at a non-finite x.
    """
    x = _complex("Barnes G argument x", x)
    r = math.hypot(x.real, x.imag)  # abs(x) raises OverflowError past double range
    if r > _BARNES_MAX_ABS:
        raise DomainError(
            f"Barnes G evaluated only on |x| <= _BARNES_MAX_ABS = {_BARNES_MAX_ABS}, "
            f"got |x| = {r:.6g}"
        )
    if x == 0:
        return 0.0 + 0.0j
    if x.imag == 0 and x.real <= -1 and x.real.is_integer():
        # G(0) = G(-1) = ... = 0: the factor (1 + x/n)^n at n = -x vanishes.
        return complex("-inf")
    total = (
        0.5 * x * math.log(2.0 * math.pi)
        - 0.5 * x * (x + 1.0)
        - 0.5 * EULER_GAMMA * x * x
    )
    for n in range(1, _N_DIRECT + 1):
        total += n * cmath.log(1.0 + x / n) - x + x * x / (2.0 * n)
    tail = 0.0
    for a in _BARNES_TAIL:
        tail = tail * x + a
    return total + tail * x * x * x


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
    k = _real("modulus k", k, 0.0, 1.0, "[)")
    # (1-k)(1+k) avoids cancellation for k near 1
    return math.pi / (2.0 * _agm(1.0, math.sqrt((1.0 - k) * (1.0 + k))))


# -----------------------------------------------------------------------------
# Jacobi theta series
# -----------------------------------------------------------------------------
def _theta3_moduli(y: np.ndarray, t: float):
    """The moduli of the theta3 terms at Im s = y, Im tau = t > 0, for
    _log_theta3: (a, y0, n, F_n, G_n, P) as described there."""
    c = math.log(1e17) / (math.pi * t)
    n_least = (math.sqrt(1.0 + 4.0 * c) - 1.0) / 2.0
    # the cap keeps the count finite where a subnormal t makes c infinite
    N = max(1, math.ceil(min(n_least, _TERM_BUDGET + 1)))
    if y.size * N > _TERM_BUDGET:
        raise ConvergenceError(
            f"theta series at Im tau = {t:.3e} needs {n_least:.4g} terms at each of "
            f"{y.size} points, over the budget of _TERM_BUDGET = {_TERM_BUDGET} terms"
        )
    a = np.rint(y / t)
    y0 = y - a * t
    n = np.arange(1.0, N + 1.0)
    f, g = np.exp(-math.pi * t * n * np.array((n - 1.0, n + 1.0)))
    # P reaches 0 only where pi t > 745, and there G_n is 0 as well
    p = np.exp(np.outer(np.abs(y0) - t / 2.0, 2.0 * math.pi * n))
    np.maximum(p, sys.float_info.min, out=p)
    return a, y0, n, f, g, p


def _log_theta3_axis(y: np.ndarray, t: float) -> np.ndarray:
    """ln theta3(i y | i t) for an array of real y and t > 0, in float
    arithmetic: on the imaginary axis every term is real and positive."""
    a, y0, _, f, g, p = _theta3_moduli(y, t)
    return math.pi * a * (y + y0) + np.log1p(p @ f + (1.0 / p) @ g)


def _log_theta3(s: np.ndarray, tau: complex) -> np.ndarray:
    """ln theta3(s | tau) for an array of complex s and Im tau > 0, reduced by
    quasi-periodicity; real where Re s = Re tau = 0 (_log_theta3_axis).

    theta3(s + a tau) picks up exp(-i pi a^2 tau - 2 pi i a s); shifting by
    a = round(Im s / t), t = Im tau, leaves s0 = s - a tau with |Im s0| <= t/2,
    where the terms exp(i pi tau n^2 + 2 pi i s0 n) are largest in modulus at
    n = 0 (value 1).  So the log-sum-exp over |n| <= N needs no rescaling,
    and the sum of the n != 0 terms goes through log1p.  N is the least index
    with pi t N (N+1) >= ln(1e17), which puts every dropped term below 1e-17;
    more than _TERM_BUDGET points x terms are refused before any is summed.

    With u = t/2 - |Im s0| in [0, t/2], the moduli of the terms at +-n are
    F_n P and G_n / P: F_n = e^{-pi t n(n-1)} and G_n = e^{-pi t n(n+1)} per
    n, and one exponential P = e^{-2 pi u n} per (point, n).  No factor
    exceeds 1 and P >= e^{-pi t n}, so nothing overflows.  Off the imaginary
    axis, one phase factor e^{+-2 pi i n Re s0} per (point, n) and
    e^{i pi Re(tau) n^2} per n turn the moduli into the terms.
    """
    if tau.real == 0.0 and not np.count_nonzero(s.real):
        return _log_theta3_axis(s.imag, tau.imag)
    y = s.imag
    a, y0, n, f, g, p = _theta3_moduli(y, tau.imag)
    x0 = s.real - a * tau.real
    # the larger term of each pair turns the other way from Im s0
    phase = np.exp(np.outer(np.where(y0 < 0.0, x0, -x0), 2j * math.pi * n))
    cn = np.exp(1j * math.pi * tau.real * n * n)
    tail = (p * phase) @ (cn * f) + (phase.conj() / p) @ (cn * g)
    # an exact zero of theta3 is ln 0 = -inf
    with np.errstate(divide="ignore"):
        return math.pi * a * (y + y0) - 1j * math.pi * a * (s.real + x0) + np.log1p(tail)


def theta(j: int, s: complex, tau: complex) -> complex:
    """Jacobi theta_j(s | tau) for j in {2, 3, 4}, the exponential of
    _log_theta3: theta4(s) = theta3(s + 1/2) and
    theta2(s) = e^{i pi tau/4 + i pi s} theta3(s + tau/2).

    A value beyond double range raises DomainError, and an Im tau below
    about 1e-11 ConvergenceError (the series' budget).
    """
    j = _count("theta index j", j, 2, 4)
    tau = _as_tau(tau)
    s = _complex("theta argument s", s)
    shift = {2: tau / 2.0, 3: 0.0, 4: 0.5}[j]
    with np.errstate(over="ignore", invalid="ignore"):
        log = complex(_log_theta3(np.array([s + shift]), tau)[0])
    if j == 2:
        log += 1j * math.pi * (tau / 4.0 + s)
    if not log.real < math.log(sys.float_info.max):
        raise DomainError(
            f"theta_{j}({s} | {tau}) lies beyond double range: ln|theta| = {log.real:.6g}"
        )
    return cmath.exp(log)


def _log_theta_prefactor(beta: np.ndarray, tau0: float, sigma: int) -> np.ndarray:
    """ln P(beta) for an array of complex beta, where
    P = theta3(beta + sigma tau/2) theta3(beta - sigma tau/2) / theta3(sigma tau/2)^2
    at tau = i tau0 is the prefactor of the XY block determinant; at
    beta = i x it is the kernel of the limit-entropy integral, and a real
    array stands for those points i x, where P is real and positive and the
    whole pass runs in float arithmetic (_log_theta3_axis).  Both sigma
    read one theta3 pass over beta - sigma tau/2 and sigma tau/2: theta3 is
    even and theta3(beta + tau/2) = e^{-2 pi i beta} theta3(beta - tau/2), so
    ln P = 2 (ln theta3(beta - sigma tau/2) - ln theta3(sigma tau/2))
    - 2 pi i sigma beta, up to a multiple of 2 pi i.
    """
    if beta.dtype.kind == "f":
        off = sigma * tau0 / 2.0
        logs = _log_theta3_axis(np.concatenate((beta - off, [off])), tau0)
        twist = -2.0 * math.pi * beta  # 2 pi i beta at beta = i x
    else:
        tau = 1j * tau0
        off = sigma * tau / 2.0
        logs = _log_theta3(np.append(beta - off, off), tau)
        twist = 2j * math.pi * beta
    logp = 2.0 * (logs[:-1] - logs[-1])
    return logp - twist if sigma else logp


def _log1p_series(z: complex, r: complex, sign: float, what: Callable[[], str]) -> complex:
    """sum_{j>=0} sign^j ln(1 + z r^j) for |r| < 1 and sign = +-1: real
    (through log1p) for real z and r, else a sum of principal logs, which
    differs from the log of the product only by a multiple of 2 pi i.

    The powers come by repeated multiplication, and the sum stops once the
    rest of it, at most |z r^{j+1}| / (1 - |r|) to first order, is at most
    eps/64 times min(1, |z|): at the first j past ln(bound/|z|) / ln|r|.
    |z r^{j+1}| is carried as a product of moduli beside the powers.  A
    count over _TERM_BUDGET is refused before any term is summed; what()
    names the series in that refusal.
    """
    log1p = math.log1p if isinstance(z, float) else (lambda w: cmath.log(1.0 + w))
    ar = abs(r)
    bound = _EPS * (1.0 - ar) / 64.0 * min(1.0, abs(z))
    mag = abs(z) * ar
    if mag <= bound or (bound > 0.0 and math.log(bound / abs(z)) / math.log(ar) < _TERM_BUDGET + 1):
        total = 0.0
        w = 1.0
        for _ in range(1, _TERM_BUDGET):
            total += w * log1p(z)
            if mag <= bound:
                return total
            z *= r
            mag *= ar
            w *= sign
    raise ConvergenceError(f"{what()} exhausted its budget of _TERM_BUDGET = {_TERM_BUDGET} terms")


def _nome_log_sum(q: complex) -> complex:
    """ln prod_{n>=1} ((1 + q^{2n}) / (1 + q^{2n-1}))^8 = 8 sum_{m>=1} (-1)^m ln(1 + q^m)
    for |q| < 1, real or complex, by _log1p_series.  Its rest is then below
    an eighth of the double-precision epsilon times min(1, |q|).
    """
    return -8.0 * _log1p_series(q, q, -1.0, lambda: f"nome product at |q| = {abs(q):.15g}")


def _log_lambda_imag(t: float) -> tuple[float, float, float]:
    """(ln lambda(i t), ln(1 - lambda(i t)), N(t)) for real t > 0, with
    N(t) = ln lambda(i t) + pi t - ln 16 the log of lambda's nome product;
    t = 0, where a product alpha tau0 underflowed, is its limit.

    The nome product is summed in log space at q = e^{-pi s}, s = max(t, 1/t),
    so q <= e^{-pi} and lambda(i s) <= 1/2 is the small side:
    ln lambda(i s) = ln 16 - pi s + N(s), N(s) = _nome_log_sum(q), and
    ln(1 - lambda(i s)) is log1p(-lambda(i s)).  The far side follows from
    lambda(i/t) = 1 - lambda(i t), so neither log is formed from a
    difference near 1; below t = 1, N(t) is formed from the far side's
    ln lambda(i t).
    """
    s = max(t, 1.0 / t) if t else math.inf
    n = _nome_log_sum(math.exp(-math.pi * s))
    log_small = math.log(16.0) - math.pi * s + n
    log_large = math.log1p(-math.exp(log_small))
    if t >= 1.0:
        return log_small, log_large, n
    return log_large, log_small, log_large + math.pi * t - math.log(16.0)


def _ladder_params(e: EllipticModulus, sigma: int) -> tuple[float, float]:
    """(ln lambda_0, step c) of the limit density-matrix ladder
    ln lambda_n = ln lambda_0 - c n, c = (1 + sigma) pi tau0: the ladder
    top that density_spectrum, zeta_function and both Renyi limit forms read.

    ln lambda_0 is pi tau0/12 + ln(k k'/4)/6 (sigma = 0) or
    -pi tau0/6 + ln(k'/(4k^2))/6 (sigma = 1), whose two terms cancel as
    k -> 0.  For tau0 >= 1 (k^2 <= 1/2) ln k^2 is taken as its nome product
    ln 16 - pi tau0 + N, N the modulus' nome sum (EllipticModulus._nome_sum),
    and pi tau0 drops out: ln lambda_0 = (ln(1 - k^2) + N)/12 or
    ln(1 - k^2)/12 - ln 2 - N/6.
    """
    k, kp, tau0 = e.k, e.kprime, e.tau0
    if tau0 >= 1.0:
        n, lk = e._nome_sum, math.log1p(-k * k)
        lead = (lk + n) / 12.0 if sigma == 0 else lk / 12.0 - math.log(2.0) - n / 6.0
    elif sigma == 0:
        lead = math.pi * tau0 / 12.0 + math.log(k * kp / 4.0) / 6.0
    else:
        lead = -math.pi * tau0 / 6.0 + math.log(kp / (4.0 * k * k)) / 6.0
    return lead, (1 + sigma) * math.pi * tau0


def modular_lambda(tau: complex) -> complex:
    """Elliptic modular function lambda(tau) = theta2^4(0|tau) / theta3^4(0|tau),
    from the nome product 16 q prod_{n>=1} ((1 + q^{2n}) / (1 + q^{2n-1}))^8.

    Purely imaginary tau = i t takes lambda from _log_lambda_imag(t), at the
    smaller of the nomes of i t and i/t, so lambda(i/t) = 1 - lambda(i t)
    holds and lambda stays in [0, 1]: 0.0 only where 16 e^{-pi t}
    underflows, 1.0 only where 1 - lambda rounds away.  Re tau is reduced
    modulo lambda's period 2.
    """
    tau = _as_tau(tau)
    tau = complex(math.fmod(tau.real, 2.0), tau.imag)
    if tau.real == 0.0:
        return complex(math.exp(_log_lambda_imag(tau.imag)[0]))
    q = cmath.exp(1j * math.pi * tau)
    return 16.0 * q * cmath.exp(_nome_log_sum(q))


def tau0_from_modulus(k: float) -> EllipticModulus:
    """The full (k, k', tau0) triple of a modulus 0 < k < 1, with
    tau0 = K(k')/K(k) = AGM(1, k') / AGM(1, k) (see EllipticModulus): k
    below 1e-8, where k' rounds to 1, keeps its digits."""
    return EllipticModulus(k)
