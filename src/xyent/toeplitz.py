# toeplitz.py
# Toeplitz determinants: exact dense evaluation, the Fisher-Hartwig
# expansion for symbols with jumps and roots (the strong Szego limit is its
# singularity-free case, the scalar XX characteristic determinant its
# two-jump case), and the XY block form whose prefactor is a ratio of theta
# functions.
#
# Determinants grow like e^{c L}, so every asymptotic routine returns a
# ScaledValue (log magnitude, phase) instead of a bare complex.

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chain import NuSpectrum, PhaseCase, _ladder_node, _toeplitz_view
from .errors import CutError, DomainError, ProximityError, ResolutionError, _count, _real
from .special import EllipticModulus, _log_theta_prefactor, log_barnes_g

__all__ = [
    "ScaledValue",
    "SpectralParameter",
    "FHSingularity",
    "SmoothSymbolFactorization",
    "fourier_coeffs",
    "toeplitz_det_exact",
    "toeplitz_matrix",
    "szego_asymptotic",
    "fisher_hartwig_asymptotic",
    "xx_char_det_asymptotic",
    "xx_char_det_exact",
    "xy_block_det_asymptotic",
    "xy_block_det_exact",
]

# Largest |c_{+-n}| accepted from fourier_coeffs and from the log-symbol of
# SmoothSymbolFactorization.from_symbol.
_COEFF_TAIL_TOL = 1e-10
_LOG_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ScaledValue:
    """A nonzero complex number x stored as (ln|x|, arg x).

    Safe for values far beyond float range; log_abs = -inf encodes 0.
    """

    log_abs: float
    phase: float

    @property
    def value(self) -> complex:
        if self.log_abs == -math.inf:
            return 0.0 + 0.0j
        if self.log_abs > 709.0:
            return cmath.rect(math.inf, 0.0)
        return cmath.rect(math.exp(self.log_abs), self.phase)

    def ratio(self, other: "ScaledValue") -> complex:
        """self / other as an ordinary complex; intended for ratios near 1.
        A ratio beyond double range raises DomainError."""
        log_ratio = complex(self.log_abs - other.log_abs, self.phase - other.phase)
        try:
            return cmath.exp(log_ratio)
        except OverflowError:
            raise DomainError(
                f"ratio e^{log_ratio.real:.6g} lies beyond double range"
            ) from None


@dataclass(frozen=True)
class SpectralParameter:
    """Characteristic-polynomial variable lambda: finite, off the cut [-1, 1]."""

    lam: complex

    def __post_init__(self) -> None:
        lam = complex(self.lam)
        if not cmath.isfinite(lam):
            raise DomainError(f"lambda must be finite, got {lam}")
        if abs(lam.imag) < 1e-15 and -1.0 - 1e-15 <= lam.real <= 1.0 + 1e-15:
            raise CutError(f"lambda = {lam} lies on the spectral cut [-1, 1]")

    @property
    def beta(self) -> complex:
        """(1/2 pi i) Log((lambda+1)/(lambda-1)), principal branch.

        Off the cut the argument avoids the negative real axis, so
        |Re beta| < 1/2 always holds.
        """
        lam = complex(self.lam)
        return cmath.log((lam + 1.0) / (lam - 1.0)) / (2.0j * math.pi)


@dataclass(frozen=True)
class FHSingularity:
    """One Fisher-Hartwig singularity: position theta in [0, 2 pi), root
    exponent alpha (Re alpha > -1/2) and jump exponent beta, both finite."""

    theta: float
    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        _real("singularity angle theta", self.theta, 0.0, 2.0 * math.pi, "[)")
        if not (cmath.isfinite(complex(self.alpha)) and cmath.isfinite(complex(self.beta))):
            raise DomainError(f"exponents must be finite: alpha = {self.alpha}, beta = {self.beta}")
        _real("root exponent Re alpha", complex(self.alpha).real, -0.5, math.inf, "()")

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.theta)


def _symbol_grid(symbol: Callable[[float], complex], n: int) -> np.ndarray:
    """Samples of symbol at 2 pi j / N, j = 0..N-1, on the least power of two
    N >= max(256, 4n): enough points for coefficients out to |k| = n."""
    size = 1 << max(8, (4 * _count("coefficient order n", n, 1) - 1).bit_length())
    thetas = 2.0 * math.pi * np.arange(size) / size
    return np.array([symbol(float(t)) for t in thetas], dtype=complex)


def _two_sided(samples: np.ndarray, n: int, tail_tol: float, what: str) -> np.ndarray:
    """Coefficients c_k, |k| <= n, of equispaced samples by one FFT, with c_k
    at index n+k.  |c_{+-n}| over tail_tol raises ResolutionError, since the
    grid then aliases unresolved structure."""
    c = np.fft.fft(samples) / samples.size  # c[k] = c_k for k >= 0, c[-k] at the top
    out = c[np.arange(-n, n + 1) % samples.size]
    tail = max(abs(out[0]), abs(out[-1]))
    if not tail <= tail_tol:  # a NaN sample makes every coefficient NaN
        raise ResolutionError(
            f"{what} coefficients at |k| = {n} still {tail:.3e} > {tail_tol:.0e}; raise n"
        )
    return out


def fourier_coeffs(symbol: Callable[[float], complex], n: int) -> np.ndarray:
    """Fourier coefficients c_k = (1/2 pi) int_0^2pi symbol(t) e^{-ikt} dt for
    |k| <= n, returned as an array of length 2n+1 with c_k at index n+k.

    The symbol must be smooth: |c_{+-n}| > 1e-10 raises ResolutionError.
    """
    return _two_sided(_symbol_grid(symbol, n), n, _COEFF_TAIL_TOL, "symbol")


def _window(coeffs: np.ndarray, L: int) -> np.ndarray:
    """(c_{1-L}, ..., c_{L-1}) from a two-sided coefficient array (length
    2n+1, c_k at index n+k, n >= L-1): the coefficients T_L(c) holds, each
    of them finite."""
    coeffs = np.asarray(coeffs)
    L = _count("matrix size L", L, 1)
    if coeffs.ndim != 1 or coeffs.size % 2 != 1:
        raise DomainError("coefficient array must be one-dimensional with odd length")
    n = coeffs.size // 2
    if n < L - 1:
        raise DomainError(f"need coefficients out to |k| = {L - 1}, have {n}")
    v = coeffs[n - L + 1: n + L]
    if not np.isfinite(v).all():
        raise DomainError(f"coefficients out to |k| = {L - 1} must be finite")
    return v


def toeplitz_matrix(coeffs: np.ndarray, L: int) -> np.ndarray:
    """L x L Toeplitz matrix T[j, k] = c_{j-k} from a two-sided coefficient
    array (length 2n+1, c_k at index n+k, n >= L-1), as an owned copy."""
    return _toeplitz_view(_window(coeffs, L)).copy()


def toeplitz_det_exact(coeffs: np.ndarray, L: int) -> ScaledValue:
    """det T_L(c) by dense LU factorization of its strided view, real if every c_k is.

    A numerically singular matrix yields log_abs = -inf together with a
    condition warning, not an exception.
    """
    v = _window(coeffs, L)
    sign, logdet = np.linalg.slogdet(_toeplitz_view(v if np.count_nonzero(v.imag) else v.real))
    if sign == 0:
        warnings.warn("Toeplitz matrix numerically singular; reporting det = 0")
        return ScaledValue(-math.inf, 0.0)
    return ScaledValue(float(logdet), float(cmath.phase(complex(sign))))


# -----------------------------------------------------------------------------
# Smooth (Szego) part
# -----------------------------------------------------------------------------
@dataclass(frozen=True)
class SmoothSymbolFactorization:
    """Wiener-Hopf data of a smooth nonvanishing index-zero symbol phi.

    Vk holds the Fourier coefficients of log phi (length 2n+1, V_k at index
    n+k); the factors b+(z) = e^{sum_{k>=1} V_k z^k} and
    b-(z) = e^{sum_{k<=-1} V_k z^k}, normalized to b+(0) = b-(inf) = 1, are
    read from it by log_b_plus and log_b_minus.
    """

    Vk: np.ndarray = field(repr=False)
    V0: complex

    @property
    def order(self) -> int:
        return self.Vk.size // 2

    @classmethod
    def from_symbol(
        cls, symbol: Callable[[float], complex], n: int = 64
    ) -> "SmoothSymbolFactorization":
        """Factorize from samples of phi.

        The symbol must not vanish on the circle and must have winding
        number zero; a nonzero index is a domain error (no Szego limit),
        and a log-coefficient tail above 1e-12 at |k| = n is a
        resolution error.
        """
        vals = _symbol_grid(symbol, n)
        amin = np.min(np.abs(vals))
        if not amin >= 1e-13:
            raise DomainError(f"symbol vanishes or is not finite: min |phi| = {amin:.3e}")
        ph = np.unwrap(np.angle(vals))
        winding = round((np.unwrap(np.append(ph, ph[0]))[-1] - ph[0]) / (2.0 * math.pi))
        if winding != 0:
            raise DomainError(
                f"symbol has index {winding} != 0; the smooth-limit form does not apply"
            )
        vk = _two_sided(np.log(np.abs(vals)) + 1j * ph, n, _LOG_TAIL_TOL, "log-symbol")
        return cls(Vk=vk, V0=complex(vk[n]))

    @classmethod
    def constant(cls, V0: complex) -> "SmoothSymbolFactorization":
        """Factorization of the constant symbol e^{V0} (b+ = b- = 1); V0 finite."""
        if not cmath.isfinite(complex(V0)):
            raise DomainError(f"V0 must be finite, got {V0}")
        vk = np.zeros(3, dtype=complex)
        vk[1] = V0
        return cls(Vk=vk, V0=complex(V0))

    def log_b_plus(self, z: complex) -> complex:
        """log b+(z) = sum_{k=1}^{n} V_k z^k (|z| <= 1 + 1e-12), by Horner's rule."""
        _real("|z|", abs(z), 0.0, 1.0 + 1e-12)
        return complex(z * np.polyval(self.Vk[:self.order:-1], z))

    def log_b_minus(self, z: complex) -> complex:
        """log b-(z) = sum_{k=1}^{n} V_{-k} z^{-k} (finite |z| >= 1 - 1e-12), by Horner's rule."""
        _real("|z|", abs(z), 1.0 - 1e-12)
        w = 1.0 / z
        return complex(w * np.polyval(self.Vk[:self.order], w))

    def szego_sum(self) -> complex:
        """sum_{k>=1} k V_k V_{-k}, the log of the smooth-limit constant."""
        n = self.order
        ks = np.arange(1, n + 1)
        return complex(np.sum(ks * self.Vk[n + 1:] * self.Vk[n - 1::-1]))


def szego_asymptotic(f: SmoothSymbolFactorization, L: int) -> ScaledValue:
    """Strong Szego limit: det T_L(phi) ~ exp(L V_0 + sum_{k>=1} k V_k V_{-k}),
    the singularity-free case of fisher_hartwig_asymptotic."""
    return fisher_hartwig_asymptotic(f, [], L)


# -----------------------------------------------------------------------------
# Fisher-Hartwig
# -----------------------------------------------------------------------------
def _validate_fh(sings: Sequence[FHSingularity]) -> None:
    thetas = [s.theta for s in sings]
    if len(set(thetas)) != len(thetas):
        raise DomainError("singularity angles must be distinct")
    for s in sings:
        for sgn in (+1, -1):
            x = complex(s.alpha) + sgn * complex(s.beta)
            r = round(x.real)  # finite: FHSingularity refuses a non-finite exponent
            if abs(x.imag) <= 1e-12 and r <= -1 and abs(x.real - r) < 1e-12:
                raise DomainError(f"alpha {'+' if sgn > 0 else '-'} beta = {x} hits a nonpositive "
                                  f"integer at theta = {s.theta}: the expansion degenerates")
    res = [complex(s.beta).real for s in sings]
    if res and max(res) - min(res) >= 1.0:  # some pair has |Re beta_j - Re beta_k| >= 1
        raise DomainError(f"jump exponents with Re beta spread over {max(res) - min(res):.6g} "
                          f">= 1 are outside the standard regime")


def fisher_hartwig_asymptotic(
    f: SmoothSymbolFactorization,
    sings: Sequence[FHSingularity],
    L: int,
) -> ScaledValue:
    """det T_L for a symbol with root/jump singularities:

    det T_L ~ E * L^{sum_j (alpha_j^2 - beta_j^2)} * e^{L V_0},

    E = exp(sum k V_k V_-k)
        * prod_j b+(z_j)^{-alpha_j + beta_j} b-(z_j)^{-alpha_j - beta_j}
        * prod_{j<k} |z_j - z_k|^{2(beta_j beta_k - alpha_j alpha_k)}
                      (z_k / (z_j e^{i pi}))^{alpha_j beta_k - alpha_k beta_j}
        * prod_j G(1+alpha_j+beta_j) G(1+alpha_j-beta_j) / G(1+2 alpha_j),

    with singularities ordered by angle.  An empty singularity list reduces
    to the smooth limit.  Every alpha_j +- beta_j and 2 alpha_j must lie in
    the domain |x| <= 5.62 of log_barnes_g, and a log beyond double range
    raises DomainError.
    """
    L = _count("matrix size L", L, 1)
    sings = sorted(sings, key=lambda s: s.theta)
    _validate_fh(sings)

    logd = L * complex(f.V0) + f.szego_sum()
    for s in sings:
        a, b = complex(s.alpha), complex(s.beta)
        logd += (a * a - b * b) * math.log(L)
        logd += (-a + b) * f.log_b_plus(s.z) + (-a - b) * f.log_b_minus(s.z)
        logd += log_barnes_g(a + b) + log_barnes_g(a - b) - log_barnes_g(2.0 * a)
    for j in range(len(sings)):
        aj, bj, tj = complex(sings[j].alpha), complex(sings[j].beta), sings[j].theta
        for k in range(j + 1, len(sings)):
            ak, bk, tk = complex(sings[k].alpha), complex(sings[k].beta), sings[k].theta
            dist = abs(2.0 * math.sin((tk - tj) / 2.0))
            logd += 2.0 * (bj * bk - aj * ak) * math.log(dist)
            # z_k/(z_j e^{i pi}) = e^{i (t_k - t_j - pi)} with the exponent
            # already in (-pi, pi), so the principal log is i times it.
            logd += (aj * bk - ak * bj) * 1j * (tk - tj - math.pi)
    if not cmath.isfinite(logd):
        raise DomainError(f"Fisher-Hartwig log-determinant {logd} lies beyond double range")
    return ScaledValue(float(logd.real), float(logd.imag))


# -----------------------------------------------------------------------------
# XX characteristic determinant
# -----------------------------------------------------------------------------
def xx_char_det_asymptotic(s: SpectralParameter, h: float, L: int) -> ScaledValue:
    """Large-L characteristic determinant of the XX block correlation matrix,
    the two-jump case of fisher_hartwig_asymptotic (symbol e^{V_0} with jump
    exponents -beta at kF and beta at 2 pi - kF, kF = arccos(|h|/2)):

    D_L(lambda) ~ (2 - 2 cos 2kF)^{-beta^2} [G(1+beta) G(1-beta)]^2
                  e^{L V_0} L^{-2 beta^2},
    V_0 = Log(lambda+1) - (kF/pi) Log((lambda+1)/(lambda-1)).
    """
    h = _real("XX field h", h, -2.0, 2.0, "()")
    lam = complex(s.lam)
    kf = math.acos(abs(h) / 2.0)
    v0 = cmath.log(lam + 1.0) - (kf / math.pi) * cmath.log((lam + 1.0) / (lam - 1.0))
    jumps = [FHSingularity(kf, 0.0, -s.beta), FHSingularity(2.0 * math.pi - kf, 0.0, s.beta)]
    return fisher_hartwig_asymptotic(SmoothSymbolFactorization.constant(v0), jumps, L)


def xx_char_det_exact(nus: NuSpectrum, s: SpectralParameter) -> ScaledValue:
    """D_L(lambda) = prod_m (lambda - nu_m) from the exact nu-spectrum: a
    product over its modes, times (lambda - 1)^n_plus (lambda + 1)^n_minus."""
    lam = complex(s.lam)
    logd = (np.sum(np.log(lam - nus.modes)) + nus.n_plus * cmath.log(lam - 1.0)
            + nus.n_minus * cmath.log(lam + 1.0))
    return ScaledValue(float(logd.real), float(logd.imag))


# -----------------------------------------------------------------------------
# XY block determinant
# -----------------------------------------------------------------------------
def xy_block_det_asymptotic(
    s: SpectralParameter,
    e: EllipticModulus,
    case: PhaseCase,
    L: int,
    proximity_tol: float = 1e-3,
) -> ScaledValue:
    """Large-L form of the XY block determinant of xy_block_det_exact:

    D_L(lambda) ~ P(beta(lambda)) * (1 - lambda^2)^L,
    P(beta) = theta3(beta + sigma tau/2) theta3(beta - sigma tau/2) / theta3(sigma tau/2)^2
    at tau = i tau0, which vanishes at the ladder points, flipping sign.
    ln P comes from _log_theta_prefactor, the kernel of the limit-entropy
    integral, and 1 - lambda^2 is formed as (1 - lambda)(1 + lambda).

    Within proximity_tol of a prefactor zero +-lambda_m the expansion is
    unreliable (the true determinant crosses over to the next order), so
    such lambda are rejected, and so are lambda within proximity_tol of
    +-1, where the zeros accumulate; pass a smaller tolerance deliberately
    to probe the sign change; a negative one is refused.
    """
    L = _count("block length L", L, 1)
    t = _real("proximity_tol", proximity_tol, 0.0)
    lam = complex(s.lam)
    x = abs(lam.real)
    if t > 0.0 and abs(lam.imag) < t:
        if abs(x - 1.0) < t:
            raise ProximityError(
                f"lambda = {lam} lies within {t} of +-1, where the prefactor zeros "
                f"accumulate; the leading-order form breaks down there"
            )
        if x < 1.0:
            # the zeros rise monotonically, so the nearest two bracket x
            j = math.atanh(x) / (math.pi * e.tau0) - (1 - case.sigma) / 2.0
            for m in {max(0, math.floor(j)), max(0, math.ceil(j))}:
                node = float(_ladder_node(m, case.sigma, e.tau0))
                if abs(x - node) < t:
                    raise ProximityError(
                        f"lambda = {lam} lies within {t} of the prefactor zero at "
                        f"+-{node:.9g}; the leading-order form breaks down there"
                    )
    logp = complex(_log_theta_prefactor(np.array([s.beta]), e.tau0, case.sigma)[0])
    logd = logp + L * cmath.log((1.0 - lam) * (1.0 + lam))
    return ScaledValue(float(logd.real), float(logd.imag))


def xy_block_det_exact(nus: NuSpectrum, s: SpectralParameter) -> ScaledValue:
    """D_L(lambda) = (-1)^L prod_m (lambda^2 - nu_m^2) from the exact XY
    nu-spectrum: lambda^2 - nu^2 = w + delta over its modes and w for each
    trivial one, w = (lambda - 1)(lambda + 1), so no factor cancels near
    lambda = +-1."""
    lam = complex(s.lam)
    L = len(nus)
    w = (lam - 1.0) * (lam + 1.0)
    logd = np.sum(np.log(w + nus.delta)) + (nus.n_plus + nus.n_minus) * cmath.log(w)
    return ScaledValue(float(logd.real), float(logd.imag + math.pi * (L % 2)))
