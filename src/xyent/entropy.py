# entropy.py
# Every entropy evaluation: exact finite-L von Neumann and Renyi sums over
# the nu-spectrum, the XX large-L asymptote, the XY block-limit entropy in
# its three equivalent forms (ladder series, theta-kernel integral, closed
# elliptic form), Renyi limits via q-products and the modular lambda
# function, and the two near-critical approximations.  The integral form
# reads the log-space theta3 of special, as the XY determinant asymptote
# does, and the q-products special's sum of ln(1 + q^m).
#
# All values are in nats.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import NuSpectrum, ModelParams, PhaseCase, _ladder_node
from .errors import ConvergenceError, DomainError, RegimeError, _count, _real
from .special import (EllipticModulus, _agm, _ladder_params, _log1p_series, _log_lambda_imag,
                      _log_theta_prefactor)

__all__ = [
    "EntropyResult",
    "ThetaZeroLadder",
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
# The ladder series sums the nodes x_m within this distance of its first
# one x_0; past it each term is below 1.9e-18 of the first.
_SERIES_SPAN = 22.5


@dataclass(frozen=True, eq=False)
class EntropyResult:
    """An entropy value tagged with how it was computed.

    method is one of: ExactFiniteL, XXAsymptotic, LimitSeries,
    LimitIntegral, ClosedFormElliptic, RenyiQProduct, RenyiModular,
    CriticalApprox.  params records (gamma, h, L, alpha); L is None for a
    block-length limit and alpha is 1 for von Neumann.  Results compare and
    hash by identity (params is a dict).
    """

    value: float
    method: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ThetaZeroLadder:
    """Zeros lambda_m = tanh((m + (1-sigma)/2) pi tau0), m = 0..M, of the
    theta prefactor: modulus, sigma and M fix tau0 (the modulus') and the
    values, which rise from 0 (sigma = 1) or tanh(pi tau0/2) toward 1."""

    modulus: EllipticModulus = field(repr=False)
    sigma: int
    M: int

    def __post_init__(self) -> None:
        sigma, M = _count("sigma", self.sigma, 0, 1), _count("ladder length M", self.M, 0)
        tau0 = self.modulus.tau0
        for name, value in (("sigma", sigma), ("M", M), ("tau0", tau0),
                            ("values", _ladder_node(np.arange(M + 1), sigma, tau0))):
            object.__setattr__(self, name, value)


def _mk(value: float, method: str, *, gamma=None, h=None, L=None, alpha=1.0) -> EntropyResult:
    return EntropyResult(
        value=float(value),
        method=method,
        params={"gamma": gamma, "h": h, "L": L, "alpha": alpha},
    )


# -----------------------------------------------------------------------------
# Exact finite-L sums
# -----------------------------------------------------------------------------
def vn_entropy_exact(nus: NuSpectrum) -> EntropyResult:
    """Block von Neumann entropy S = sum_m e(1, nu_m) = -sum (p ln p + q ln q)
    over the nontrivial modes, with q = (1 - |nu|)/2 from their delta (a
    trivial mode adds 0; with none nontrivial, S = +0.0)."""
    q, lnp = nus._halves
    s = 0.0 - float(np.sum((1.0 - q) * lnp + q * np.log(q)))
    return _mk(s, "ExactFiniteL", L=len(nus))


def _check_alpha(alpha: float) -> None:
    if _real("Renyi order alpha", alpha, 0.0, math.inf, "()") == 1.0:
        raise DomainError("alpha = 1 is excluded: 1/(1-alpha) ln tr rho^alpha is undefined there "
                          "(its limit is the von Neumann entropy; use the entropy command)")


def renyi_exact(nus: NuSpectrum, alpha: float) -> EntropyResult:
    """Block Renyi entropy (1/(1-alpha)) sum_k ln[((1+nu)/2)^a + ((1-nu)/2)^a].

    alpha must be positive and distinct from 1 (the functional degenerates
    there; its alpha -> 1 limit is the von Neumann value).  Each log is
    taken as a ln p + ln(1 + (q/p)^a), p = (1 + |nu|)/2 >= q, so it stays
    finite where both powers underflow (a past about 1075 at nu = 0), in the
    q-product frame a/(1-a) sum ln p + sum ln(1 + (q/p)^a)/(1-a), which
    meets its alpha -> inf limit -sum ln p as a/(1-a) rounds to -1.  q
    comes from the modes' delta, and a trivial mode adds 0 (+0.0 in all).
    """
    _check_alpha(alpha)
    q, lnp = nus._halves
    tail = float(np.log1p(np.power(q / (1.0 - q), alpha)).sum())
    s = alpha / (1.0 - alpha) * float(lnp.sum()) + tail / (1.0 - alpha) + 0.0
    return _mk(s, "ExactFiniteL", L=len(nus), alpha=alpha)


# -----------------------------------------------------------------------------
# XX asymptote
# -----------------------------------------------------------------------------
#
# Upsilon1 is a universal number (Jin and Korepin, J. Stat. Phys. 116, 79
# (2004)), 0.49501790813513705019... from a 40-digit mpmath quadrature of the
# integral in upsilon1's docstring.  The integrand's three terms each diverge
# like 1/t^3 at t -> 0 while their sum stays finite, so the quadrature carries
# 3|log10 t| + 10 extra digits below t = 1.  The constant is the correctly
# rounded double.
_UPSILON1 = 0.4950179081351371


def upsilon1() -> float:
    """The L-independent constant in the XX entropy asymptote,
    Upsilon1 = -int_0^inf [e^-t/(3t) + 1/(t sinh^2(t/2)) - cosh(t/2)/(2 sinh^3(t/2))] dt,
    as the correctly rounded double of its value."""
    return _UPSILON1


def xx_entropy_asymptotic(h: float, L: int) -> EntropyResult:
    """Large-L XX block entropy
    S = (1/3) ln L + (1/6) ln(1 - (h/2)^2) + (ln 2)/3 + Upsilon1."""
    h = _real("XX field h", h, -2.0, 2.0, "()")
    L = _count("block length L", L, 2)
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
    """ThetaZeroLadder(e, sigma, M): lambda_m = tanh((m + (1-sigma)/2) pi tau0),
    m = 0..M, at e's tau0."""
    return ThetaZeroLadder(e, sigma, M)


def vn_entropy_limit_series(e: EllipticModulus, sigma: int) -> EntropyResult:
    """Limit entropy as the two-sided ladder sum S = sum_{m in Z} e(1, lambda_m).

    With lambda_m = tanh x_m, x_m = (m + (1-sigma)/2) pi tau0, and e even,
    S = 2 sum_{m>=0} t(x_m), with the node x = 0 of sigma = 1 taken once, where
    t(x) = e(1, tanh x) = ln(1 + e^{-2x}) + 2x/(1 + e^{2x}) keeps its digits
    where tanh x rounds to 1.  The terms with x_m - x_0 <= 22.5 are summed
    in one array pass; more than 10^5 of them raise ConvergenceError first.
    """
    sigma = _count("sigma", sigma, 0, 1)
    step = math.pi * e.tau0
    span = _SERIES_SPAN / step
    if not span < _SERIES_BUDGET:
        raise ConvergenceError(f"ladder series at tau0 = {e.tau0:.3e} needs {span + 1.0:.4g} "
                               f"terms, over the budget of _SERIES_BUDGET = {_SERIES_BUDGET}")
    y = np.arange(int(span) + (1 - sigma) / 2.0, -0.5, -1.0) * (2.0 * step)  # 2 x_m, least term first
    u = np.exp(-y)
    t = np.log1p(u) + y * u / (1.0 + u)
    return _mk(2.0 * t[:t.size - sigma].sum() + sigma * t[-1], "LimitSeries", L=None)


# Cut-off and the two steps of the midpoint rule.  The integrand is even and
# analytic in |Im x| < 1/2 (ln theta3 has its nearest log singularities
# there), so the rule's error falls like e^{-pi/step}: about 2e-14 at 0.1
# and 6e-28 at 0.05, and the two rules' difference bounds the coarse one.
_INTEGRAL_CUTOFF = 10.0
_INTEGRAL_STEP = 0.1


@functools.lru_cache(maxsize=None)
def _midpoint_rules(step: float, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x of the midpoint rules on (0, cutoff] at step and step/2,
    concatenated, with their weights (pi/2) step_i / sinh^2(pi x)."""
    m = round(cutoff / step)
    x = np.concatenate(((np.arange(m) + 0.5) * step, (np.arange(2 * m) + 0.5) * (step / 2.0)))
    w = np.repeat([step, step / 2.0], [m, 2 * m]) * (math.pi / 2.0) / np.sinh(math.pi * x) ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def vn_entropy_limit_integral(e: EllipticModulus, sigma: int) -> EntropyResult:
    """Limit entropy as the theta-kernel integral
    S = (pi/2) int_0^inf ln[theta3(ix+s t/2) theta3(ix-s t/2)/theta3^2(s t/2)] dx / sinh^2(pi x).

    The integrand is even in x and analytic in |Im x| < 1/2, so the midpoint
    rule on (0, 10] converges geometrically in 1/step; its nodes never touch
    x = 0, where the log-numerator and sinh^2 both vanish.  The rule runs at
    step 0.1 and 0.05 in one pass over all nodes, and the finer value is
    returned.  A difference above both 1e-13 and 1e-12 |S| raises
    ConvergenceError.  The integrand is ln P(i x) of _log_theta_prefactor,
    the prefactor of xy_block_det_asymptotic, passed the real nodes x.
    """
    sigma = _count("sigma", sigma, 0, 1)
    h = _INTEGRAL_STEP
    x, w = _midpoint_rules(h, _INTEGRAL_CUTOFF)
    num = _log_theta_prefactor(x, e.tau0, sigma)
    m = x.size // 3
    coarse = float(num[:m] @ w[:m])
    fine = float(num[m:] @ w[m:])
    diff = abs(fine - coarse)
    if diff > max(1e-13, 1e-12 * abs(fine)):
        raise ConvergenceError(
            f"limit-entropy midpoint rules at steps {h} and {h / 2.0} differ by {diff:.3e}"
        )
    return _mk(fine, "LimitIntegral", L=None)


def vn_entropy_closed(e: EllipticModulus, case: PhaseCase) -> EntropyResult:
    """Closed elliptic form of the limit entropy.

    sigma = 1:  (1/6)[ln(k^2/(16 k')) + (1 - k^2/2) 4 K(k) K(k')/pi] + ln 2
    sigma = 0:  (1/12)[ln(16/(k^2 k'^2)) + (k^2 - k'^2) 4 K(k) K(k')/pi]
    with 4 K(k) K(k')/pi = pi tau0 / AGM(1, k')^2 from the modulus' tau0.
    """
    k, kp = e.k, e.kprime
    kk = math.pi * e.tau0 / _agm(1.0, kp) ** 2  # 4 K(k) K(k') / pi
    if case.sigma == 1:
        s = (math.log(k * k / (16.0 * kp)) + (1.0 - k * k / 2.0) * kk) / 6.0 + math.log(2.0)
    else:
        s = (math.log(16.0 / (k * k * kp * kp)) + (k * k - kp * kp) * kk) / 12.0
    return _mk(s, "ClosedFormElliptic", L=None)


# -----------------------------------------------------------------------------
# Renyi limits
# -----------------------------------------------------------------------------
def renyi_limit_qproduct(alpha: float, e: EllipticModulus, case: PhaseCase) -> EntropyResult:
    """Renyi limit entropy from the q-products at nome q_alpha = e^{-alpha pi tau0}.

    sigma = 0:  a/(1-a) ln lambda_0 + (2/(1-a)) sum_{n>=0} ln(1+q_a^{2n+1})
    sigma = 1:  a/(1-a) ln lambda_0 + (1/(1-a)) [2 sum_{n>=1} ln(1+q_a^{2n}) + ln 2]

    with lambda_0 the top of the density-matrix ladder (_ladder_params).
    Both sums are _log1p_series over the powers q_a^{1+sigma} q_a^{2j}.
    """
    _check_alpha(alpha)
    lnq = -alpha * math.pi * e.tau0
    logprod = _log1p_series(
        math.exp((1 + case.sigma) * lnq), math.exp(2.0 * lnq), 1.0,
        lambda: f"q-product at alpha * tau0 = {alpha * e.tau0:.3e}",
    )
    lead = alpha / (1.0 - alpha) * _ladder_params(e, case.sigma)[0]
    s = lead + (2.0 * logprod + case.sigma * math.log(2.0)) / (1.0 - alpha)
    return _mk(s, "RenyiQProduct", L=None, alpha=alpha)


def renyi_limit_modular(alpha: float, e: EllipticModulus, case: PhaseCase) -> EntropyResult:
    """Renyi limit entropy through the modular lambda function at alpha*i*tau0,
    in the q-product form's frame a/(1-a) ln lambda_0 + T/(1-a), with
    lambda_0 the ladder top (_ladder_params) and, at t = alpha tau0,

    sigma = 0:  T = -(N(t) + ln(1 - lambda(i t)))/12
    sigma = 1:  T = (2 N(t) - ln(1 - lambda(i t)))/12 + ln 2

    where N(t) = ln lambda(i t) + pi t - ln 16 is the log of lambda's nome
    product (_log_lambda_imag).  Both are read on whichever side of
    lambda(i) = 1/2 the nome product converges fastest, so nothing is formed
    by subtraction as alpha tau0 -> 0, and nothing cancels as k -> 0.  A
    value beyond double range raises DomainError.
    """
    _check_alpha(alpha)
    _, log_co, n = _log_lambda_imag(alpha * e.tau0)
    tail = -(n + log_co) / 12.0 if case.sigma == 0 else (2.0 * n - log_co) / 12.0 + math.log(2.0)
    s = alpha / (1.0 - alpha) * _ladder_params(e, case.sigma)[0] + tail / (1.0 - alpha)
    if not math.isfinite(s):
        raise DomainError(f"Renyi limit at alpha tau0 = {alpha * e.tau0:.3e} lies beyond "
                          "double range")
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
