# entropy.py
# Every entropy evaluation: exact finite-L von Neumann and Renyi sums over
# the nu-spectrum, the XX large-L asymptote, the XY block-limit entropy in
# its three equivalent forms (ladder series, theta-kernel integral, closed
# elliptic form), Renyi limits via q-products and the modular lambda
# function, and the two near-critical approximations.
#
# All values are in nats.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import xlogy

from .chain import NuSpectrum, ModelParams, PhaseCase
from .errors import ConvergenceError, DomainError, RegimeError
from .special import EllipticModulus, complete_elliptic_K, modular_lambda, theta

__all__ = [
    "EntropyResult",
    "ThetaZeroLadder",
    "e_func",
    "vn_entropy_exact",
    "renyi_exact",
    "upsilon1",
    "xx_entropy_asymptotic",
    "theta_zero_ladder",
    "vn_entropy_limit_series",
    "vn_entropy_limit_integral",
    "vn_entropy_closed",
    "renyi_limit_qproduct",
    "renyi_limit_modular",
    "critical_entropy_approx",
]

_SERIES_BUDGET = 10 ** 5


@dataclass(frozen=True)
class EntropyResult:
    """An entropy value tagged with how it was computed.

    method is one of: ExactFiniteL, XXAsymptotic, LimitSeries,
    LimitIntegral, ClosedFormElliptic, RenyiQProduct, RenyiModular,
    CriticalApprox.  params records (gamma, h, L, alpha); L is None for a
    block-length limit and alpha is 1 for von Neumann.
    """

    value: float
    method: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ThetaZeroLadder:
    """Zeros lambda_m = tanh((m + (1-sigma)/2) pi tau0) of the theta
    prefactor, m = 0..M; strictly increasing, inside [0, 1)."""

    tau0: float
    sigma: int
    values: np.ndarray = field(repr=False)


def _mk(value: float, method: str, *, gamma=None, h=None, L=None, alpha=1.0) -> EntropyResult:
    return EntropyResult(
        value=float(value),
        method=method,
        params={"gamma": gamma, "h": h, "L": L, "alpha": alpha},
    )


# -----------------------------------------------------------------------------
# Binary entropy kernel and exact finite-L sums
# -----------------------------------------------------------------------------
def e_func(x: float, nu: float) -> float:
    """e(x, nu) = -((x+nu)/2) ln((x+nu)/2) - ((x-nu)/2) ln((x-nu)/2),
    with the convention 0 ln 0 = 0.  Requires x >= |nu|."""
    if x < abs(nu) - 1e-12:
        raise DomainError(f"e(x, nu) needs x >= |nu|, got x = {x}, nu = {nu}")
    p = max((x + nu) / 2.0, 0.0)
    q = max((x - nu) / 2.0, 0.0)
    return float(-(xlogy(p, p) + xlogy(q, q)))


def vn_entropy_exact(nus: NuSpectrum) -> EntropyResult:
    """Block von Neumann entropy S = sum_m e(1, nu_m)."""
    p = (1.0 + nus.nus) / 2.0
    q = (1.0 - nus.nus) / 2.0
    s = -float(np.sum(xlogy(p, p) + xlogy(q, q)))
    return _mk(s, "ExactFiniteL", L=len(nus))


def renyi_exact(nus: NuSpectrum, alpha: float) -> EntropyResult:
    """Block Renyi entropy (1/(1-alpha)) sum_k ln[((1+nu)/2)^a + ((1-nu)/2)^a].

    alpha must be positive and distinct from 1 (the functional degenerates
    there; its alpha -> 1 limit is the von Neumann value).
    """
    if not (alpha > 0.0) or alpha == 1.0:
        raise DomainError(f"Renyi order must be > 0 and != 1, got {alpha}")
    p = (1.0 + nus.nus) / 2.0
    q = (1.0 - nus.nus) / 2.0
    s = float(np.sum(np.log(np.power(p, alpha) + np.power(q, alpha))))
    return _mk(s / (1.0 - alpha), "ExactFiniteL", L=len(nus), alpha=alpha)


# -----------------------------------------------------------------------------
# XX asymptote
# -----------------------------------------------------------------------------
#
# The universal constant is an integral whose three terms each diverge like
# 1/t^3 at t -> 0 while their sum stays finite: evaluating the printed form
# directly below t ~ 1 costs ~3|log10 t| digits to cancellation.  On [0, 1]
# the combined integrand is therefore evaluated from its Taylor series
# (exact rational coefficients, frozen below, truncation < 1e-20 at t = 1);
# the raw form is safe on [1, 50] and the remaining tail is ~e^{-50}.

_UPSILON_SERIES = [
    -0.3333333333333333,
    0.2,
    -0.05555555555555555,
    0.011904761904761904,
    -0.002777777777777778,
    0.0005555555555555556,
    -6.613756613756614e-05,
    4.509379509379509e-06,
    -9.185773074661964e-07,
    2.3136035040796945e-07,
    -8.35070279514724e-09,
    -4.17535139757362e-09,
    -5.3530146122738715e-11,
    1.6652823608939388e-10,
    -2.5490545772732723e-13,
    -5.238738387334083e-12,
    -9.371524181151737e-16,
    1.6534208511364134e-13,
    -2.7402117488747765e-18,
    -5.090181602817408e-15,
    -6.524313687797087e-21,
    1.5405758669108334e-16,
]


def _upsilon_integrand(t: float) -> float:
    sh = math.sinh(t / 2.0)
    return math.exp(-t) / (3.0 * t) + 1.0 / (t * sh * sh) - math.cosh(t / 2.0) / (2.0 * sh ** 3)


@functools.lru_cache(maxsize=1)
def upsilon1() -> float:
    """The L-independent constant in the XX entropy asymptote,
    Upsilon1 = -int_0^inf [e^-t/(3t) + 1/(t sinh^2(t/2)) - cosh(t/2)/(2 sinh^3(t/2))] dt.
    """
    head = sum(c / (j + 1) for j, c in enumerate(_UPSILON_SERIES))
    tail, err = quad(_upsilon_integrand, 1.0, 50.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    if err > 1e-10:
        raise ConvergenceError(f"tail quadrature error estimate {err:.3e} exceeds 1e-10")
    return -(head + tail)


def xx_entropy_asymptotic(h: float, L: int) -> EntropyResult:
    """Large-L XX block entropy
    S = (1/3) ln L + (1/6) ln(1 - (h/2)^2) + (ln 2)/3 + Upsilon1."""
    if not (abs(h) < 2.0):
        raise DomainError(f"XX asymptote needs |h| < 2, got h = {h}")
    if L < 2:
        raise DomainError(f"XX asymptote needs L >= 2, got L = {L}")
    s = (
        math.log(L) / 3.0
        + math.log(1.0 - (h / 2.0) ** 2) / 6.0
        + math.log(2.0) / 3.0
        + upsilon1()
    )
    return _mk(s, "XXAsymptotic", gamma=0.0, h=h, L=L)


# -----------------------------------------------------------------------------
# XY block-length limit
# -----------------------------------------------------------------------------
def theta_zero_ladder(e: EllipticModulus, sigma: int, M: int) -> ThetaZeroLadder:
    """Ladder lambda_m = tanh((m + (1-sigma)/2) pi tau0), m = 0..M."""
    if sigma not in (0, 1):
        raise DomainError(f"sigma must be 0 or 1, got {sigma}")
    if M < 0:
        raise DomainError(f"ladder length must be >= 0, got {M}")
    m = np.arange(M + 1, dtype=float)
    vals = np.tanh((m + (1 - sigma) / 2.0) * math.pi * e.tau0)
    return ThetaZeroLadder(tau0=e.tau0, sigma=sigma, values=vals)


def vn_entropy_limit_series(e: EllipticModulus, sigma: int, tol: float = 1e-16) -> EntropyResult:
    """Limit entropy as the two-sided ladder sum S = sum_{m in Z} e(1, lambda_m).

    Terms fall off like m e^{-2 pi tau0 m}; summation stops in each
    direction once a term drops below tol.
    """
    if sigma not in (0, 1):
        raise DomainError(f"sigma must be 0 or 1, got {sigma}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    shift = (1 - sigma) / 2.0
    total = 0.0
    for direction in (0, -1):
        m = direction
        while abs(m) < _SERIES_BUDGET:
            lam = math.tanh((m + shift) * math.pi * e.tau0)
            term = e_func(1.0, lam)
            total += term
            if term < tol:
                break
            m += 1 if direction == 0 else -1
        else:
            raise ConvergenceError("ladder series exhausted its term budget")
    return _mk(total, "LimitSeries", L=None)


def _log_theta3_imag(y: float, tau0: float) -> float:
    """ln theta3(i y | i tau0) for real y, reduced by quasi-periodicity.

    theta3(s + a tau) picks up exp(-i pi a^2 tau - 2 pi i a s); shifting by
    a = round(y/tau0) keeps the series argument near its maximum, where the
    sum is O(1), so the result never overflows.
    """
    a = round(y / tau0)
    y0 = y - a * tau0
    base = theta(3, 1j * y0, 1j * tau0, tol=1e-15).real
    return 2.0 * math.pi * a * y - math.pi * tau0 * a * a + math.log(base)


def vn_entropy_limit_integral(e: EllipticModulus, sigma: int) -> EntropyResult:
    """Limit entropy as the theta-kernel integral
    S = (pi/2) int_0^inf ln[theta3(ix+s t/2) theta3(ix-s t/2)/theta3^2(s t/2)] dx / sinh^2(pi x).

    Both the log-numerator and sinh^2 vanish quadratically at x = 0; the
    head [0, 1e-3] uses the even quadratic/quartic fit of the integrand and
    the rest goes to adaptive quadrature.
    """
    if sigma not in (0, 1):
        raise DomainError(f"sigma must be 0 or 1, got {sigma}")
    tau0 = e.tau0
    off = sigma * tau0 / 2.0
    base = 2.0 * _log_theta3_imag(off, tau0)

    def integrand(x: float) -> float:
        num = _log_theta3_imag(x + off, tau0) + _log_theta3_imag(abs(x - off), tau0) - base
        sh = math.sinh(math.pi * x)
        return num / (sh * sh)

    # Even-function head: fit a + b x^2 + c x^4 through three small nodes.
    x0 = 1e-3
    xs = np.array([x0, 2 * x0, 4 * x0])
    fs = np.array([integrand(x) for x in xs])
    m = np.vander(xs * xs, 3, increasing=True)  # columns 1, x^2, x^4
    a, b, c = np.linalg.solve(m, fs)
    head = a * x0 + b * x0 ** 3 / 3.0 + c * x0 ** 5 / 5.0

    body, err, info, *rest = quad(
        integrand, x0, 10.0, epsabs=1e-13, epsrel=1e-12, limit=200, full_output=True
    )
    if rest:
        raise ConvergenceError(f"limit-entropy quadrature failed: {rest[0]}")
    return _mk(math.pi / 2.0 * (head + body), "LimitIntegral", L=None)


def vn_entropy_closed(e: EllipticModulus, case: PhaseCase) -> EntropyResult:
    """Closed elliptic form of the limit entropy.

    sigma = 1:  (1/6)[ln(k^2/(16 k')) + (1 - k^2/2) 4 K(k) K(k')/pi] + ln 2
    sigma = 0:  (1/12)[ln(16/(k^2 k'^2)) + (k^2 - k'^2) 4 K(k) K(k')/pi]
    """
    k, kp = e.k, e.kprime
    kk = 4.0 * complete_elliptic_K(k) * complete_elliptic_K(kp) / math.pi
    if case.sigma == 1:
        s = (math.log(k * k / (16.0 * kp)) + (1.0 - k * k / 2.0) * kk) / 6.0 + math.log(2.0)
    else:
        s = (math.log(16.0 / (k * k * kp * kp)) + (k * k - kp * kp) * kk) / 12.0
    return _mk(s, "ClosedFormElliptic", L=None)


# -----------------------------------------------------------------------------
# Renyi limits
# -----------------------------------------------------------------------------
def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0) or alpha == 1.0:
        raise DomainError(f"Renyi order must be > 0 and != 1, got {alpha}")


def renyi_limit_qproduct(alpha: float, e: EllipticModulus, case: PhaseCase) -> EntropyResult:
    """Renyi limit entropy from the q-products at nome q_alpha = e^{-alpha pi tau0}.

    sigma = 0:  a/(1-a) (pi tau0/12 + (1/6) ln(k k'/4)) + (2/(1-a)) sum_{n>=0} ln(1+q_a^{2n+1})
    sigma = 1:  a/(1-a) (-pi tau0/6 + (1/6) ln(k'/(4k^2)))
              + (1/(1-a)) [2 sum_{n>=1} ln(1+q_a^{2n}) + ln 2]

    Powers q_a^m are formed in log space so large alpha cannot flush the
    product to zero prematurely.
    """
    _check_alpha(alpha)
    lnq = -alpha * math.pi * e.tau0
    k, kp, tau0 = e.k, e.kprime, e.tau0

    def logprod(start: int, step: int) -> float:
        total = 0.0
        m = start
        while m < _SERIES_BUDGET:
            qm = math.exp(m * lnq)
            term = math.log1p(qm)
            total += term
            if term < 1e-15 * max(1.0, abs(total)):
                return total
            m += step
        raise ConvergenceError("q-product exhausted its term budget")

    if case.sigma == 0:
        lead = alpha / (1.0 - alpha) * (math.pi * tau0 / 12.0 + math.log(k * kp / 4.0) / 6.0)
        s = lead + 2.0 / (1.0 - alpha) * logprod(1, 2)
    else:
        lead = alpha / (1.0 - alpha) * (-math.pi * tau0 / 6.0 + math.log(kp / (4.0 * k * k)) / 6.0)
        s = lead + (2.0 * logprod(2, 2) + math.log(2.0)) / (1.0 - alpha)
    return _mk(s, "RenyiQProduct", L=None, alpha=alpha)


def renyi_limit_modular(alpha: float, e: EllipticModulus, case: PhaseCase) -> EntropyResult:
    """Renyi limit entropy through the modular lambda function at alpha*i*tau0.

    sigma = 0:  (1/6)(a/(1-a)) ln(k k') - (1/12)(1/(1-a)) ln[lam (1-lam)] + (1/3) ln 2
    sigma = 1:  (1/6)(a/(1-a)) ln(k'/k^2) + (1/12)(1/(1-a)) ln[lam^2/(1-lam)] + (1/3) ln 2
    with lam = lambda(i alpha tau0), real in (0, 1) on the imaginary axis.
    """
    _check_alpha(alpha)
    lam = modular_lambda(1j * alpha * e.tau0)
    if abs(lam.imag) > 1e-12:
        raise ConvergenceError(f"modular lambda not real on the imaginary axis: {lam}")
    lamr = lam.real
    if not (0.0 < lamr < 1.0):
        raise ConvergenceError(f"modular lambda outside (0, 1): {lamr}")
    k, kp = e.k, e.kprime
    third_ln2 = math.log(2.0) / 3.0
    if case.sigma == 0:
        s = (
            alpha / (1.0 - alpha) * math.log(k * kp) / 6.0
            - math.log(lamr * (1.0 - lamr)) / (12.0 * (1.0 - alpha))
            + third_ln2
        )
    else:
        s = (
            alpha / (1.0 - alpha) * math.log(kp / (k * k)) / 6.0
            + math.log(lamr * lamr / (1.0 - lamr)) / (12.0 * (1.0 - alpha))
            + third_ln2
        )
    return _mk(s, "RenyiModular", L=None, alpha=alpha)


# -----------------------------------------------------------------------------
# Near-critical approximations
# -----------------------------------------------------------------------------
def critical_entropy_approx(p: ModelParams) -> EntropyResult:
    """Two-term critical approximations.

    Near h = 2 (|2-h| <= 0.1, gamma > 0):  S = -(1/6) ln|2-h| + (1/3) ln(4 gamma)
    Near gamma = 0 (gamma < 0.1, h < 2):   S = -(1/3) ln gamma + (1/6) ln(4-h^2) + (1/3) ln 2
    The h -> 2 form takes precedence where both windows overlap.
    """
    # the window edge h = 1.9 itself must qualify; 2.0 - 1.9 rounds a hair
    # above 0.1 in binary, hence the padded comparison
    if abs(2.0 - p.h) <= 0.1 + 1e-12 and p.gamma > 0.0:
        s = -math.log(abs(2.0 - p.h)) / 6.0 + math.log(4.0 * p.gamma) / 3.0
    elif 0.0 < p.gamma < 0.1 and p.h < 2.0:
        s = (
            -math.log(p.gamma) / 3.0
            + math.log(4.0 - p.h * p.h) / 6.0
            + math.log(2.0) / 3.0
        )
    else:
        raise RegimeError(
            f"(gamma, h) = ({p.gamma}, {p.h}) is outside both near-critical windows "
            f"(|2-h| <= 0.1 with gamma > 0, or gamma in (0, 0.1) with h < 2)"
        )
    return _mk(s, "CriticalApprox", gamma=p.gamma, h=p.h, L=None)
