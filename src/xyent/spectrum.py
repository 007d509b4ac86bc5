# spectrum.py
# Structure of the reduced density matrix in the block-length limit: the
# geometric eigenvalue ladders, their integer multiplicities from pairs of
# partitions into distinct (odd) parts, the associated zeta function
# sum_n m_n lambda_n^alpha, and the top of the exact finite-L spectrum
# assembled from a nu-spectrum by subset products.

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .chain import ModelParams, PhaseCase, classify_case, modulus_k
from .errors import ConvergenceError, DomainError, _count, _real
from .special import EllipticModulus

__all__ = [
    "partition_counts",
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


def partition_counts(kind: Literal["Distinct", "DistinctOdd"], nmax: int) -> list[int]:
    """Counts of partitions of 0..nmax into distinct positive parts
    ("Distinct") or distinct odd parts ("DistinctOdd"), as exact integers,
    by dynamic programming."""
    if kind not in ("Distinct", "DistinctOdd"):
        raise DomainError(f"unknown partition kind {kind!r}")
    nmax = _count("truncation nmax", nmax, 0)
    step = 2 if kind == "DistinctOdd" else 1
    counts = [0] * (nmax + 1)
    counts[0] = 1
    part = 1
    while part <= nmax:
        for s in range(nmax, part - 1, -1):
            counts[s] += counts[s - part]
        part += step
    return counts


def multiplicities(case: PhaseCase, nmax: int) -> list[int]:
    """Degeneracy m_n of the n-th eigenvalue ladder rung.

    sigma = 0: m_n = sum_l pDO(l) pDO(n-l)  (pairs of distinct-odd partitions);
    sigma = 1: m_n = 2 sum_l pD(l) pD(n-l)  (pairs of distinct partitions;
    the overall factor 2 is the exact double degeneracy carried by the zero
    mode of the nu ladder).
    """
    p = partition_counts("Distinct" if case.sigma == 1 else "DistinctOdd", nmax)
    conv = [sum(p[l] * p[n - l] for l in range(n + 1)) for n in range(len(p))]
    if case.sigma == 1:
        return [2 * c for c in conv]
    return conv


def multiplicity_asymptotic(n: int) -> float:
    """Large-n form of the sigma = 0 multiplicities,
    m_n ~ 2^{-3/2} 3^{-1/4} n^{-3/4} e^{pi sqrt(n/3)}; from n = 153,135 on
    it lies beyond double range and raises DomainError."""
    n = _count("rung n", n, 1)
    try:
        return 2.0 ** -1.5 * 3.0 ** -0.25 * n ** -0.75 * math.exp(math.pi * math.sqrt(n / 3.0))
    except OverflowError:
        raise DomainError(f"multiplicity at n = {n} lies beyond double range") from None


@dataclass(frozen=True)
class DensitySpectrum:
    """Limit spectrum of the reduced density matrix: a geometric ladder
    lambda_n with integer multiplicities.

    loglambdas carries ln lambda_n exactly even where lambda_n underflows;
    ratio = lambda_{n+1}/lambda_n is constant along the ladder.
    """

    lambdas: np.ndarray = field(repr=False)
    loglambdas: np.ndarray = field(repr=False)
    mults: list[int] = field(repr=False)
    ratio: float
    truncation: int
    sigma: int
    modulus: EllipticModulus = field(repr=False)


def _ladder_params(e: EllipticModulus, sigma: int) -> tuple[float, float]:
    """(ln lambda_0, step c) with ln lambda_n = ln lambda_0 - c n."""
    k, kp, tau0 = e.k, e.kprime, e.tau0
    if sigma == 0:
        return math.pi * tau0 / 12.0 + math.log(k * kp / 4.0) / 6.0, math.pi * tau0
    return -math.pi * tau0 / 6.0 + math.log(kp / (4.0 * k * k)) / 6.0, 2.0 * math.pi * tau0


def density_spectrum(p: ModelParams, nmax: int = 64) -> DensitySpectrum:
    """Limit density-matrix spectrum for the XY chain at (gamma, h).

    Requires a noncritical point with gamma > 0 (the classification
    rejects gamma = 0 and the critical manifolds).
    """
    nmax = _count("truncation nmax", nmax, 0)
    case = classify_case(p)
    e = modulus_k(p)
    loglam0, c = _ladder_params(e, case.sigma)
    n = np.arange(nmax + 1, dtype=float)
    loglams = loglam0 - c * n
    return DensitySpectrum(
        lambdas=np.exp(loglams),
        loglambdas=loglams,
        mults=multiplicities(case, nmax),
        ratio=math.exp(-c),
        truncation=nmax,
        sigma=case.sigma,
        modulus=e,
    )


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
    whose powers of the ladder leave double range raises DomainError.
    """
    alpha = _real("zeta order alpha", alpha, 0.0, math.inf, "()")
    loglam0, c = _ladder_params(spec.modulus, spec.sigma)
    if not math.isfinite(alpha * (loglam0 - c * (spec.truncation + 1))):  # the least exponent
        raise DomainError(f"the ladder's powers at alpha = {alpha} lie beyond double range")
    value = float(
        sum(m * math.exp(alpha * ll) for m, ll in zip(spec.mults, spec.loglambdas))
    )
    bound = _tail_bound(loglam0, c, alpha, spec.sigma, spec.truncation + 1)
    if not (bound <= _ZETA_TAIL_TOL * max(abs(value), 1e-300)):
        raise ConvergenceError(
            f"truncation tail bound {bound:.3e} exceeds {_ZETA_TAIL_TOL:.0e} x zeta; "
            f"raise nmax (have {spec.truncation}) or alpha (= {alpha})"
        )
    return value


def required_nmax(e: EllipticModulus, case: PhaseCase, alpha: float) -> int:
    """Smallest ladder truncation whose zeta(alpha) tail bound clears the
    zeta_function tolerance relative to the leading term.

    The bound is +inf until the ladder's decay overtakes the envelope's
    growth, and falls from there on (both the first term and the ratio of
    the geometric majorant fall), so whether nmax clears it is monotone in
    nmax: doubling finds a truncation that clears, and bisection the least
    one, in O(log nmax) bound evaluations.
    """
    alpha = _real("zeta order alpha", alpha, 0.0, math.inf, "()")
    loglam0, c = _ladder_params(e, case.sigma)
    lead = math.exp(alpha * loglam0)

    def clears(nmax: int) -> bool:
        return _tail_bound(loglam0, c, alpha, case.sigma, nmax + 1) <= _ZETA_TAIL_TOL * lead

    hi = 1
    while not clears(hi):
        if hi == _NMAX_BUDGET - 1:
            raise ConvergenceError(
                f"no truncation nmax below its budget of 10^6 brings the zeta tail bound "
                f"under {_ZETA_TAIL_TOL:.0e} at alpha = {alpha}"
            )
        hi = min(2 * hi, _NMAX_BUDGET - 1)
    lo = hi // 2  # does not clear (0: nothing below 1 to try)
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
    cost = np.sort(np.log(q) - lnp)[::-1]  # least negative first
    out = [logtop]
    if cost.size:
        heap = [(-(logtop + cost[0]), 0)]
        while heap and len(out) < count:
            negval, i = heapq.heappop(heap)
            val = -negval
            out.append(val)
            if i + 1 < cost.size:
                heapq.heappush(heap, (-(val + cost[i + 1]), i + 1))
                heapq.heappush(heap, (-(val - cost[i] + cost[i + 1]), i + 1))
    vals = np.zeros(count)
    vals[:len(out)] = np.exp(out)
    return vals
