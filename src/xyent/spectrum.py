# spectrum.py
# Structure of the reduced density matrix in the block-length limit: the
# geometric eigenvalue ladders, their integer multiplicities from pairs of
# partitions into distinct (odd) parts, the associated zeta function
# sum_n m_n lambda_n^alpha, and the top of the exact finite-L spectrum
# assembled from a nu-spectrum by subset products.

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .chain import ModelParams, PhaseCase, _classify, _modulus
from .errors import ConvergenceError, DomainError, _count, _real
from .special import EllipticModulus, _ladder_params

__all__ = [
    "multiplicities",
    "multiplicity_asymptotic",
    "DensitySpectrum",
    "density_spectrum",
    "zeta_function",
    "required_nmax",
    "finite_l_eigenvalues",
]

# Envelope constant for the multiplicity growth bounds; the exact counts
# stay below C e^{E(n)} for every computed n (checked in the tests).
_ENVELOPE_C = 2.0
# Largest zeta truncation tail accepted, relative to the value.
_ZETA_TAIL_TOL = 1e-12
# required_nmax searches nmax below this.
_NMAX_BUDGET = 10 ** 6


def _slot_bits(nmax: int, sigma: int) -> int:
    # Whole bytes, wider than log2(n + 1) + E(n)/ln 2 at n = nmax: a saddle point
    # x = e^-t bounds q(n) <= x^-n prod(1 + x^k) by e^{pi sqrt(n/3)} for distinct
    # parts (e^{pi sqrt(n/6)} for distinct odd ones), and sqrt(l) + sqrt(n - l)
    # <= sqrt(2n) each pair product by e^{E(n)}, so every coefficient is below 2^B.
    bits = math.log2(nmax + 1) + _envelope_exponent(nmax, sigma) / math.log(2.0)
    return 8 * (int(bits) // 8 + 1)


def _ladder_mults(sigma: int, nmax: int) -> list[int]:
    """(1 + sigma) times x^0..x^nmax of the square of prod (1 + x^k) over distinct odd
    (sigma = 0) or distinct (sigma = 1) parts k, from one exact integer with coefficient n in
    bits [n B, (n + 1) B) (Kronecker substitution): a part costs a shift, add and mask, and no
    slot reaches 2^B to carry."""
    slot = _slot_bits(nmax, sigma)
    mask = (1 << slot * (nmax + 1)) - 1
    packed = 1
    for part in range(1, nmax + 1, 2 - sigma):
        packed = (packed + (packed << slot * part)) & mask
    raw = (packed * packed & mask).to_bytes(slot // 8 * (nmax + 1), "little")
    return [(1 + sigma) * int.from_bytes(raw[i:i + slot // 8], "little")
            for i in range(0, len(raw), slot // 8)]


def multiplicities(case: PhaseCase, nmax: int) -> list[int]:
    """Degeneracy m_n of the n-th eigenvalue ladder rung.

    sigma = 0: m_n = sum_l pDO(l) pDO(n-l)  (pairs of distinct-odd partitions);
    sigma = 1: m_n = 2 sum_l pD(l) pD(n-l)  (pairs of distinct partitions;
    the overall factor 2 is the exact double degeneracy carried by the zero
    mode of the nu ladder)."""
    return _ladder_mults(case.sigma, _count("truncation nmax", nmax, 0))


def multiplicity_asymptotic(n: int) -> float:
    """Large-n form of the sigma = 0 multiplicities,
    m_n ~ 2^{-3/2} 3^{-1/4} n^{-3/4} e^{pi sqrt(n/3)}; from n = 153,135 on
    it lies beyond double range and raises DomainError."""
    n = _count("rung n", n, 1)
    try:
        return 2.0 ** -1.5 * 3.0 ** -0.25 * n ** -0.75 * math.exp(math.pi * math.sqrt(n / 3.0))
    except OverflowError:
        raise DomainError(f"multiplicity at n = {n} lies beyond double range") from None


@dataclass(frozen=True, eq=False)
class DensitySpectrum:
    """Limit spectrum of the reduced density matrix on rungs 0..truncation: the ladder
    ln lambda_n = ln lambda_0 - c n that modulus and sigma fix (loglambdas, exact even where
    lambdas underflows; ratio = e^{-c}) and the integer multiplicities mults that sigma fixes."""

    modulus: EllipticModulus = field(repr=False)
    sigma: int
    truncation: int

    def __post_init__(self) -> None:
        sigma, n = _count("sigma", self.sigma, 0, 1), _count("truncation nmax", self.truncation, 0)
        loglam0, c = _ladder_params(self.modulus, sigma)
        loglams = loglam0 - c * np.arange(n + 1, dtype=float)
        for name, value in (("sigma", sigma), ("truncation", n), ("mults", _ladder_mults(sigma, n)),
                            ("loglambdas", loglams), ("lambdas", np.exp(loglams)),
                            ("ratio", math.exp(-c))):
            object.__setattr__(self, name, value)


def density_spectrum(p: ModelParams, nmax: int = 64) -> DensitySpectrum:
    """Limit density-matrix spectrum for the XY chain at (gamma, h).

    Requires a noncritical point with gamma > 0 (the classification
    rejects gamma = 0 and the critical manifolds).
    """
    case, q, r = _classify(p)
    return DensitySpectrum(_modulus(p.gamma, case, q, r), case.sigma, nmax)


def _envelope_exponent(n: float, sigma: int) -> float:
    # Multiplicity growth exponent: pi sqrt(n/3) for sigma = 0, and
    # pi sqrt(2n/3) for sigma = 1 (the distinct-parts convolution grows
    # with sqrt(2) times the exponent of the distinct-odd one).
    scale = 2.0 if sigma == 1 else 1.0
    return math.pi * math.sqrt(scale * n / 3.0)


def _tail_bound(loglam0: float, c: float, alpha: float, sigma: int, start: int) -> float:
    """Upper bound on sum_{n >= start} m_n lambda_n^alpha via the growth
    envelope m_n <= C e^{E(n)} and concavity of E.  Returns +inf while the
    geometric decay has not yet overtaken the envelope growth."""
    n0 = max(start, 1)
    slope = _envelope_exponent(n0 + 1, sigma) - _envelope_exponent(n0, sigma)
    rho = math.exp(slope - alpha * c)
    if rho >= 1.0:
        return math.inf
    log_t0 = _envelope_exponent(n0, sigma) + alpha * (loglam0 - c * n0)
    if log_t0 > 700.0:
        return math.inf
    return _ENVELOPE_C * math.exp(log_t0) / (1.0 - rho)


def zeta_function(spec: DensitySpectrum, alpha: float) -> float:
    """zeta(alpha) = sum_n m_n lambda_n^alpha over the limit spectrum.

    The truncation tail is bounded analytically from the multiplicity
    growth envelope; if the bound exceeds 1e-12 relative to the sum
    (which happens for small alpha, where the series converges slowly),
    the truncation is refused rather than silently wrong, and an alpha
    whose powers of the ladder leave double range (the least exponent, or
    the top one should ln lambda_0 round above 0) raises DomainError.
    """
    alpha = _real("zeta order alpha", alpha, 0.0, math.inf, "()")
    loglam0, c = _ladder_params(spec.modulus, spec.sigma)
    if not (math.isfinite(alpha * (loglam0 - c * (spec.truncation + 1)))
            and alpha * loglam0 < math.log(sys.float_info.max)):
        raise DomainError(f"the ladder's powers at alpha = {alpha} lie beyond double range")
    value = float(
        sum(m * math.exp(alpha * ll) for m, ll in zip(spec.mults, spec.loglambdas.tolist()))
    )
    bound = _tail_bound(loglam0, c, alpha, spec.sigma, spec.truncation + 1)
    if not (bound <= _ZETA_TAIL_TOL * max(abs(value), 1e-300)):
        raise ConvergenceError(
            f"truncation tail bound {bound:.3e} exceeds {_ZETA_TAIL_TOL:.0e} x zeta; "
            f"raise nmax (have {spec.truncation}) or alpha (= {alpha})"
        )
    return value


def required_nmax(e: EllipticModulus, case: PhaseCase, alpha: float) -> int:
    """Smallest ladder truncation nmax >= 1 (never 0) whose zeta(alpha) tail
    bound clears the zeta_function tolerance relative to the leading term.

    The bound is C e^{E(n0) + alpha (ln lambda_0 - c n0)} / (1 - rho), and
    lambda_0^alpha is a factor of it and of the leading term alike, so it
    is tested at ln lambda_0 = 0 and lambda_0 never enters.  It is +inf
    until the ladder's decay overtakes the envelope's growth, and falls
    from there on (both the first term and the ratio of the geometric
    majorant fall), so whether nmax clears it is monotone in nmax.  Without
    its factor 1/(1 - rho) >= 1 it clears from the root of alpha c u^2 -
    E(u^2) = ln(C/tol), u^2 = nmax + 1: that nmax and the one below are
    tried, and a boundary elsewhere (or past a root kept finite by clamping
    alpha c) is bracketed by galloping and bisected, in O(log nmax) bound
    evaluations.
    """
    alpha = _real("zeta order alpha", alpha, 0.0, math.inf, "()")
    c = _ladder_params(e, case.sigma)[1]

    def clears(nmax: int) -> bool:
        return _tail_bound(0.0, c, alpha, case.sigma, nmax + 1) <= _ZETA_TAIL_TOL

    a, b = min(max(alpha * c, 1e-300), 1e300), _envelope_exponent(1.0, case.sigma)
    u = (b + math.sqrt(b * b + 4.0 * a * math.log(_ENVELOPE_C / _ZETA_TAIL_TOL))) / (2.0 * a)
    hi = max(1, min(math.ceil(min(u * u, _NMAX_BUDGET)) - 1, _NMAX_BUDGET - 1))
    lo, step = hi - 1, 1  # lo does not clear (0: nothing below 1 to try)
    while lo > 0 and clears(lo):
        hi, lo, step = lo, max(lo - step, 0), 2 * step
    while not clears(hi):
        if hi == _NMAX_BUDGET - 1:
            raise ConvergenceError(f"no truncation nmax below its budget of 10^6 brings the zeta "
                                   f"tail bound under {_ZETA_TAIL_TOL:.0e} at alpha = {alpha}")
        lo, hi, step = hi, min(hi + step, _NMAX_BUDGET - 1), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clears(mid):
            hi = mid
        else:
            lo = mid
    return hi


def finite_l_eigenvalues(nus, count: int) -> np.ndarray:
    """Largest `count` eigenvalues of the exact reduced density matrix built
    from a nu-spectrum, in descending order.

    Each eigenvalue is a product over modes of (1 +- nu_m)/2; the largest
    takes the bigger factor from every mode and the rest follow by flipping
    modes in order of least cost.  A trivial mode (|nu| = 1) has factors 1
    and 0, so it neither moves the top nor opens a flip, and only the
    nontrivial modes are read, their factors p and q from their delta.
    Enumerated lazily with a max-heap, so only O(count log count) subset
    products are formed.
    """
    count = _count("count", count, 1)
    q, lnp = nus._halves
    logtop = float(np.sum(lnp))
    cost = np.sort(np.log(q) - lnp)[::-1].tolist()  # least negative first
    out = [logtop]
    if cost:
        heap = [(-(logtop + cost[0]), 0)]
        while heap and len(out) < count:
            negval, i = heapq.heappop(heap)
            val = -negval
            out.append(val)
            if i + 1 < len(cost):
                heapq.heappush(heap, (-(val + cost[i + 1]), i + 1))
                heapq.heappush(heap, (-(val - cost[i] + cost[i + 1]), i + 1))
    vals = np.zeros(count)
    vals[:len(out)] = np.exp(out)
    return vals
