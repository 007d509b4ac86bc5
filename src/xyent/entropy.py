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
from numpy.polynomial.legendre import leggauss

from .chain import NuSpectrum, ModelParams, PhaseCase, _ladder_node
from .errors import ConvergenceError, DomainError, RegimeError, _count, _real
from .special import EllipticModulus, _agm, _log1p_series, _log_lambda_imag, _log_theta_prefactor
from .spectrum import _ladder_params

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
# The ladder series stops at its first term below this.
_SERIES_TOL = 1e-16
# tanh(x) rounds to 1.0 from x = 19.1 on, so ladder nodes past this argument
# are 1.0 and their terms 0.
_TANH_ONE = 20.0
# A Renyi order past this is taken at its alpha -> inf limit, which the
# entropy meets there to double precision; alpha times a log may overflow.
_ALPHA_INF = 1e300


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
    with the convention 0 ln 0 = 0.  Requires a finite nu and a finite
    x >= |nu|; a value beyond double range raises DomainError."""
    nu = _real("nu", nu)
    x = _real("x", x, abs(nu) - 1e-12)
    s = _e(x, nu)
    if s == -math.inf:
        raise DomainError(f"e(x, nu) at x = {x}, nu = {nu} lies beyond double range")
    return s


def _e(x: float, nu: float) -> float:
    """e(x, nu) of e_func, unchecked, for the ladder series' terms."""
    p = (x + nu) / 2.0
    q = (x - nu) / 2.0
    return -((p * math.log(p) if p > 0.0 else 0.0)
             + (q * math.log(q) if q > 0.0 else 0.0))


def vn_entropy_exact(nus: NuSpectrum) -> EntropyResult:
    """Block von Neumann entropy S = sum_m e(1, nu_m) = -sum (p ln p + q ln q)
    over the nontrivial modes, with q = (1 - |nu|)/2 from their delta (a
    trivial mode adds 0)."""
    q, lnp = nus._halves
    s = -float(np.sum((1.0 - q) * lnp + q * np.log(q)))
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
    finite where both powers underflow (a past about 1075 at nu = 0); q
    comes from the modes' delta, and a trivial mode adds 0.  Past
    _ALPHA_INF it is its alpha -> inf limit -sum ln p.
    """
    _check_alpha(alpha)
    q, lnp = nus._halves
    if alpha > _ALPHA_INF:
        return _mk(-float(np.sum(lnp)), "ExactFiniteL", L=len(nus), alpha=alpha)
    s = float(np.sum(alpha * lnp + np.log1p(np.power(q / (1.0 - q), alpha))))
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
# the raw form is safe on [1, 50] and the remaining tail is ~e^{-50}.  The
# [1, 50] piece is Gauss-Legendre on panels that double in width, so each
# panel sits at least half its width from the pole at t = 0.

_UPSILON_SERIES = [
    -0.3333333333333333, 0.2, -0.05555555555555555, 0.011904761904761904,
    -0.002777777777777778, 0.0005555555555555556, -6.613756613756614e-05, 4.509379509379509e-06,
    -9.185773074661964e-07, 2.3136035040796945e-07, -8.35070279514724e-09, -4.17535139757362e-09,
    -5.3530146122738715e-11, 1.6652823608939388e-10, -2.5490545772732723e-13, -5.238738387334083e-12,
    -9.371524181151737e-16, 1.6534208511364134e-13, -2.7402117488747765e-18, -5.090181602817408e-15,
    -6.524313687797087e-21, 1.5405758669108334e-16,
]


_UPSILON_PANELS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0])
_UPSILON_ORDER = 20


def _upsilon_integrand(t: np.ndarray) -> np.ndarray:
    sh = np.sinh(t / 2.0)
    return np.exp(-t) / (3.0 * t) + 1.0 / (t * sh * sh) - np.cosh(t / 2.0) / (2.0 * sh ** 3)


def _upsilon_tail(order: int) -> float:
    """int_1^50 of the Upsilon1 integrand, order-point Gauss-Legendre per panel."""
    x, w = leggauss(order)
    a, b = _UPSILON_PANELS[:-1, None], _UPSILON_PANELS[1:, None]
    half = (b - a) / 2.0
    return float(np.sum(half * w * _upsilon_integrand(half * x + (a + b) / 2.0)))


@functools.lru_cache(maxsize=1)
def upsilon1() -> float:
    """The L-independent constant in the XX entropy asymptote,
    Upsilon1 = -int_0^inf [e^-t/(3t) + 1/(t sinh^2(t/2)) - cosh(t/2)/(2 sinh^3(t/2))] dt.
    """
    head = sum(c / (j + 1) for j, c in enumerate(_UPSILON_SERIES))
    tail = _upsilon_tail(2 * _UPSILON_ORDER)
    err = abs(tail - _upsilon_tail(_UPSILON_ORDER))
    if err > 1e-10:
        raise ConvergenceError(f"tail quadrature error estimate {err:.3e} exceeds 1e-10")
    return -(head + tail)


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
    """Ladder lambda_m = tanh((m + (1-sigma)/2) pi tau0), m = 0..M."""
    sigma = _count("sigma", sigma, 0, 1)
    M = _count("ladder length M", M, 0)
    vals = _ladder_node(np.arange(M + 1), sigma, e.tau0)
    return ThetaZeroLadder(tau0=e.tau0, sigma=sigma, values=vals)


def vn_entropy_limit_series(e: EllipticModulus, sigma: int) -> EntropyResult:
    """Limit entropy as the two-sided ladder sum S = sum_{m in Z} e(1, lambda_m).

    The ladder is symmetric about 0 and e(1, nu) is even in nu, so the sum
    runs over m >= sigma with weight 2, plus e(1, 0) once when sigma = 1.
    Terms fall off like m e^{-2 pi tau0 m}; summation stops once a term
    drops below 1e-16.  Every node past tanh argument 20 is 1.0, with term
    0, so the nodes are taken in one array call on m < 20/(pi tau0) + 1,
    at most the budget of 10^5 terms.
    """
    sigma = _count("sigma", sigma, 0, 1)
    stop = min(_SERIES_BUDGET, math.ceil(_TANH_ONE / (math.pi * e.tau0)) + 1)
    total = _e(1.0, 0.0) if sigma == 1 else 0.0
    for node in _ladder_node(np.arange(sigma, stop), sigma, e.tau0).tolist():
        term = _e(1.0, node)
        total += 2.0 * term
        if term < _SERIES_TOL:
            return _mk(total, "LimitSeries", L=None)
    raise ConvergenceError(
        f"ladder series at tau0 = {e.tau0:.3e} still above {_SERIES_TOL:.0e} after its "
        f"budget of _SERIES_BUDGET = {_SERIES_BUDGET} terms"
    )


# Cut-off and the two steps of the midpoint rule.  The integrand is even and
# analytic in |Im x| < 1/2 (ln theta3 has its nearest log singularities
# there), so the rule's error falls like e^{-pi/step}: about 2e-14 at 0.1
# and 6e-28 at 0.05, and the two rules' difference bounds the coarse one.
_INTEGRAL_CUTOFF = 10.0
_INTEGRAL_STEP = 0.1


@functools.lru_cache(maxsize=None)
def _midpoint_rules(step: float, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x of the midpoint rules on (0, cutoff] at step and step/2,
    concatenated and held as the prefactor arguments i x, with their
    weights (pi/2) step_i / sinh^2(pi x)."""
    m = round(cutoff / step)
    x = np.concatenate(((np.arange(m) + 0.5) * step, (np.arange(2 * m) + 0.5) * (step / 2.0)))
    w = np.repeat([step, step / 2.0], [m, 2 * m]) * (math.pi / 2.0) / np.sinh(math.pi * x) ** 2
    ix = 1j * x
    ix.flags.writeable = w.flags.writeable = False
    return ix, w


def vn_entropy_limit_integral(e: EllipticModulus, sigma: int) -> EntropyResult:
    """Limit entropy as the theta-kernel integral
    S = (pi/2) int_0^inf ln[theta3(ix+s t/2) theta3(ix-s t/2)/theta3^2(s t/2)] dx / sinh^2(pi x).

    The integrand is even in x and analytic in |Im x| < 1/2, so the midpoint
    rule on (0, 10] converges geometrically in 1/step; its nodes never touch
    x = 0, where the log-numerator and sinh^2 both vanish.  The rule runs at
    step 0.1 and 0.05 in one pass over all nodes, and the finer value is
    returned.  A difference above both 1e-13 and 1e-12 |S| raises
    ConvergenceError.  The integrand is ln P(i x) of _log_theta_prefactor,
    the prefactor of xy_block_det_asymptotic.
    """
    sigma = _count("sigma", sigma, 0, 1)
    h = _INTEGRAL_STEP
    ix, w = _midpoint_rules(h, _INTEGRAL_CUTOFF)
    num = _log_theta_prefactor(ix, e.tau0, sigma).real
    m = ix.size // 3
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
    """
    k, kp = e.k, e.kprime
    kk = math.pi / (_agm(1.0, kp) * _agm(1.0, k))  # 4 K(k) K(k') / pi
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

    with lambda_0 the top of the density-matrix ladder (see density_spectrum):
    ln lambda_0 = pi tau0/12 + (1/6) ln(k k'/4) for sigma = 0 and
    -pi tau0/6 + (1/6) ln(k'/(4k^2)) for sigma = 1.

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
    """Renyi limit entropy through the modular lambda function at alpha*i*tau0.

    sigma = 0:  (1/6)(a/(1-a)) ln(k k') - (1/12)(1/(1-a)) ln[lam (1-lam)] + (1/3) ln 2
    sigma = 1:  (1/6)(a/(1-a)) ln(k'/k^2) + (1/12)(1/(1-a)) ln[lam^2/(1-lam)] + (1/3) ln 2
    with lam = lambda(i alpha tau0) in (0, 1).  ln lam and ln(1 - lam) are
    read from the nome product on whichever side of lambda(i) = 1/2 it
    converges fastest, so neither is formed by subtraction as alpha tau0 -> 0.
    Past alpha max(tau0, 1) = _ALPHA_INF it is its alpha -> inf limit
    -ln lambda_0.  A value beyond double range raises DomainError.
    """
    _check_alpha(alpha)
    if alpha * max(e.tau0, 1.0) > _ALPHA_INF:
        return _mk(-_ladder_params(e, case.sigma)[0], "RenyiModular", L=None, alpha=alpha)
    log_lam, log_co = _log_lambda_imag(alpha * e.tau0)
    k, kp = e.k, e.kprime
    third_ln2 = math.log(2.0) / 3.0
    if case.sigma == 0:
        s = (
            alpha / (1.0 - alpha) * math.log(k * kp) / 6.0
            - (log_lam + log_co) / (12.0 * (1.0 - alpha))
            + third_ln2
        )
    else:
        s = (
            alpha / (1.0 - alpha) * math.log(kp / (k * k)) / 6.0
            + (2.0 * log_lam - log_co) / (12.0 * (1.0 - alpha))
            + third_ln2
        )
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
