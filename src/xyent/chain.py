# chain.py
# Ground-state correlation matrices of the XX/XY chain and their nu-spectrum.
#
# Conventions:
#   * Hamiltonian H = -sum_j [(1+gamma) sx sx + (1-gamma) sy sy + h sz].
#   * XY block of length L: the real L x L Toeplitz matrix G_ij = g_{i-j},
#     g_l the Fourier coefficients of the unimodular symbol
#     phi(theta) = w(theta)/|w(theta)|, w = cos(theta) - i gamma sin(theta) - h/2.
#     The 2L x 2L Majorana matrix B_L interleaves G and -G^T, so
#     spec(i B_L) = +-svd(G) (Peschel, J. Phys. A 36 L205 (2003); Vidal et
#     al., PRL 90 227902 (2003)).  A Toeplitz G is persymmetric, J G J = G^T
#     with J the exchange matrix, so the Hankel matrix G J is symmetric and
#     nu = svd(G) = |eig(G J)|: one symmetric eigensolve, about half the
#     flops of the SVD.  Its trivial modes, those within 4 sqrt(L) eps of
#     |nu| = 1, are set to exactly 1 (see _SNAP_EPS).
#   * XX (gamma = 0): real symmetric Toeplitz L x L matrix with closed-form
#     entries; its signed eigenvalues are kept (entropies are even in nu and
#     the signed values feed the characteristic-determinant oracle).

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryError, DomainError, ResolutionError, SpectrumRangeError
from .special import EllipticModulus, _elliptic_modulus

__all__ = [
    "ModelParams",
    "PhaseCase",
    "CASE_1A",
    "CASE_1B",
    "CASE_2",
    "BranchPoints",
    "CorrelationMatrix",
    "NuSpectrum",
    "classify_case",
    "branch_points",
    "modulus_k",
    "build_correlation_matrix",
    "build_xx_matrix",
    "nu_spectrum",
]

# Relative tolerance deciding "on the critical boundary"; on-boundary inputs
# are rejected, never silently assigned to a side.
_BOUNDARY_TOL = 1e-12

# Largest Fourier grid build_correlation_matrix may use; a symbol whose
# coefficients decay too slowly for it is declared unresolved.
MAX_QUAD_POINTS = 2 ** 20

# The XY grid is sized so the coefficients fall by e^-_DECAY_LOG = 1e-16
# beyond the block, and certified by the computed ones there (_TAIL_TOL).
_DECAY_LOG = 16.0 * math.log(10.0)
_TAIL_TOL = 1e-12

# An XY nu >= 1 - _SNAP_EPS sqrt(L) is a trivial mode and is set to 1.0.
# Rounding in the eigensolve of G J spreads the trivial cluster |nu| ~ 1 by
# up to 16 eps at L = 100, 51 eps at L = 800 and 88 eps at L = 2400, about
# 1.8 sqrt(L) eps, and a mode left at nu = 1 - d adds
# e(1, nu) ~ (d/2)(1 + ln(2/d)) to S, 3.9e-14 at d = 10 eps.  4 sqrt(L) eps
# covers the spread twice over; 6 sqrt(L) eps already snaps a genuine mode
# at 1 - 230 eps ((0.6, 2.5), L = 1600: S off by -1.7e-12).  A genuine nu
# inside the band is lost, costing up to t (1 + ln(2/t)), t = 4 sqrt(L) eps,
# per +-pair of ladder modes: -6.9e-13 at (0.5, 1.0), L >= 800, whose pair
# sits at 1 - 92 eps.
_SNAP_EPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ModelParams:
    """Anisotropy gamma >= 0 and field h >= 0 of the chain."""

    gamma: float
    h: float

    def __post_init__(self) -> None:
        if not (self.gamma >= 0.0) or not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be a finite real >= 0, got {self.gamma}")
        if not (self.h >= 0.0) or not math.isfinite(self.h):
            raise DomainError(f"h must be a finite real >= 0, got {self.h}")


@dataclass(frozen=True)
class PhaseCase:
    """Phase region of the (gamma, h) plane.

    label '1a': 2 sqrt(1-gamma^2) < h < 2;  '1b': h^2 < 4(1-gamma^2);
    '2': h > 2.  sigma = 1 in cases 1a/1b, 0 in case 2.
    """

    label: str
    sigma: int


CASE_1A = PhaseCase("1a", 1)
CASE_1B = PhaseCase("1b", 1)
CASE_2 = PhaseCase("2", 0)


@dataclass(frozen=True)
class BranchPoints:
    """Branch points lambda1, lambda2 of the symbol's elliptic curve; with
    their reciprocals they are the four endpoints of its cuts."""

    lambda1: complex
    lambda2: complex


@dataclass(frozen=True)
class CorrelationMatrix:
    """Finite-block correlation matrix: the real L x L Toeplitz block.

    symmetric is True for the XX block (from build_xx_matrix), whose signed
    eigenvalues are its nu-spectrum; otherwise entries is the XY block G,
    whose singular values are, read as nu = |eig(G J)| with J the exchange
    matrix (G J is a symmetric Hankel matrix).
    """

    entries: np.ndarray = field(repr=False)
    symmetric: bool = False

    def __post_init__(self) -> None:
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise DomainError(f"expected square entries, got shape {self.entries.shape}")

    @property
    def L(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class NuSpectrum:
    """Correlation eigenvalue ladder, sorted descending.

    XY spectra are clamped to [0, 1].  XX spectra keep their signs (the
    entropy functions are even in nu), so values lie in [-1, 1].
    """

    nus: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.nus)


# -----------------------------------------------------------------------------
# Phase classification and elliptic data
# -----------------------------------------------------------------------------
def classify_case(p: ModelParams) -> PhaseCase:
    """Assign the phase case, rejecting the critical boundaries.

    Boundaries h = 2 and h^2 = 4(1-gamma^2) are excluded within relative
    tolerance 1e-12; gamma = 0 (the XX line) has no XY phase case.
    """
    if p.gamma == 0.0:
        raise BoundaryError("gamma = 0 is the XX line; no XY phase case is defined there")
    scale = max(1.0, p.h)
    if abs(p.h - 2.0) <= _BOUNDARY_TOL * scale:
        raise BoundaryError("on the critical manifold h = 2")
    thr = 2.0 * math.sqrt(max(0.0, 1.0 - p.gamma * p.gamma))
    if abs(p.h - thr) <= _BOUNDARY_TOL * scale:
        raise BoundaryError("on the critical manifold h^2 = 4(1 - gamma^2)")
    if p.h > 2.0:
        return CASE_2
    if p.h > thr:
        return CASE_1A
    return CASE_1B


def _branch_pair(gamma: float, h: float) -> tuple[complex, complex]:
    """The closed forms of lambda1, lambda2 (see branch_points), chosen by the
    sign of h^2 - 4(1-gamma^2) alone, so points on the circle are covered."""
    disc2 = h * h - 4.0 * (1.0 - gamma * gamma)
    if disc2 >= 0.0:
        disc = math.sqrt(disc2)
        lam1 = complex((h - disc) / (2.0 * (1.0 + gamma)))
        # h = disc = 0 only at (1, 0), where lambda2 has moved out to infinity
        lam2 = complex(2.0 * (1.0 + gamma) / (h + disc) if h + disc > 0.0 else math.inf)
    else:
        lam1 = (h - 1j * math.sqrt(-disc2)) / (2.0 * (1.0 + gamma))
        lam2 = 1.0 / lam1.conjugate()
    return lam1, lam2


def _branch_rho(gamma: float, h: float) -> float:
    """Largest modulus of the branch points inside the unit circle; the
    symbol is analytic in rho < |z| < 1/rho, so |g_l| decays like rho^|l|.
    The branch points come in pairs z, 1/conj(z), one of each inside."""
    return max(min(abs(lam), 1.0 / abs(lam)) if lam != 0 else 0.0
               for lam in _branch_pair(gamma, h))


def branch_points(p: ModelParams) -> BranchPoints:
    """Branch points of the symbol and the cut-endpoint labeling.

    Cases 1a/2 (real pair):
        lambda1 = (h - sqrt(h^2 - 4(1-gamma^2))) / (2(1+gamma))
        lambda2 = 2(1+gamma) / (h + sqrt(h^2 - 4(1-gamma^2)))
    where the second form equals ((1+gamma)/(1-gamma)) lambda1 but stays
    finite on the Ising line gamma = 1.
    Case 1b (complex pair): lambda1 = (h - i sqrt(4(1-gamma^2)-h^2)) / (2(1+gamma)),
    lambda2 = 1/conj(lambda1).
    On the Ising line gamma = 1, lambda1 sits at the origin.
    """
    classify_case(p)  # rejects the XX line and the critical manifolds
    return BranchPoints(*_branch_pair(p.gamma, p.h))


def _exact_square(x: float) -> tuple[float, float]:
    """x^2 as an unevaluated sum hi + lo, exactly (Dekker's product: x is
    split into two halves of 26 bits, whose products round to nothing)."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    lo = x - hi
    sq = x * x
    return sq, ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo


def modulus_k(p: ModelParams) -> EllipticModulus:
    """Elliptic modulus of the branch curve and its complement, by phase case,
    with q = (h/2)^2 - (1 - gamma)(1 + gamma) and r = (1 - h/2)(1 + h/2):

        Case 1a: k = sqrt(q) / gamma,   k' = sqrt(r) / gamma
        Case 1b: k = sqrt(-q / r),      k' = gamma / sqrt(r)
        Case 2:  k = gamma / sqrt(q),   k' = sqrt(-r / q)

    Each of k, k' has its own closed form, so neither is rebuilt from the
    other: k' keeps its digits as gamma -> 0 (k -> 1) and k as h -> 0 on the
    Ising line.  q, which cancels near the circle h^2 = 4(1 - gamma^2), is
    summed from the exact squares (h/2)^2 and gamma^2 with every rounding
    error carried.  A k that still rounds to 1 raises DomainError.
    """
    case = classify_case(p)
    g, h2 = p.gamma, p.h / 2.0
    a, da = _exact_square(h2)
    b, db = _exact_square(g)
    s = a + b
    ds = (a - (s - (s - a))) + (b - (s - a))  # s + ds = a + b exactly
    q = ((s - 1.0) + ds) + (da + db)
    r = (1.0 - h2) * (1.0 + h2)
    if case.label == "1a":
        k, kprime = math.sqrt(q) / g, math.sqrt(r) / g
    elif case.label == "1b":
        k, kprime = math.sqrt(-q / r), g / math.sqrt(r)
    else:
        k, kprime = g / math.sqrt(q), math.sqrt(-r / q)
    return _elliptic_modulus(k, kprime)


def _ladder_node(m, sigma: int, tau0: float):
    """Zero lambda_m = tanh((m + (1-sigma)/2) pi tau0) of the theta prefactor;
    m an integer or an integer array.  The nodes rise from tanh(0) = 0
    (sigma = 1) or tanh(pi tau0/2) (sigma = 0) and accumulate at 1."""
    return np.tanh((m + (1 - sigma) / 2.0) * math.pi * tau0)


# -----------------------------------------------------------------------------
# Correlation matrices
# -----------------------------------------------------------------------------
def _xx_coefficients(h: float, lmax: int) -> np.ndarray:
    """Closed-form Fourier coefficients of the piecewise XX symbol.

    c_0 = 2 kF/pi - 1 and c_l = 2 sin(kF l)/(pi l), kF = arccos(|h|/2).
    Returned as c[l] for l = 0..lmax (the symbol is even in theta).
    """
    kf = math.acos(min(abs(h) / 2.0, 1.0))
    c = np.empty(lmax + 1)
    c[0] = 2.0 * kf / math.pi - 1.0
    ls = np.arange(1, lmax + 1, dtype=float)
    c[1:] = 2.0 * np.sin(kf * ls) / (math.pi * ls)
    return c


def _toeplitz_fill(c: np.ndarray) -> np.ndarray:
    """L x L Toeplitz matrix T[i, j] = c_{i-j} from the two-sided vector
    c = (c_{1-L}, ..., c_0, ..., c_{L-1}), whose length 2L - 1 gives L.

    Row i is the window c_{i-L+1..i} read backwards: one strided view of
    the reversed vector, copied once.
    """
    L = (c.size + 1) // 2
    rows = sliding_window_view(np.ascontiguousarray(c[::-1]), L)
    return rows[::-1].copy()


def build_correlation_matrix(p: ModelParams, L: int) -> CorrelationMatrix:
    """Real Toeplitz block G_ij = g_{i-j} of an XY block of length L.

    The coefficients g_l come from one FFT of the smooth symbol.  They decay
    like rho^|l|, rho the largest modulus of a branch point inside the unit
    circle, so within K = ceil(16 ln 10 / ln(1/rho)) steps they lose 16
    digits.  The grid has the least power of two n >= max(64, 2(L + K))
    points, which puts every alias of an entry with |l| < L at least
    L + 2K steps out.  Certificate: the computed |g_l| on L + K <= |l| <= n/2
    must be at most 1e-12, or ResolutionError is raised; so is a grid over
    MAX_QUAD_POINTS, before any FFT.  The XX line gamma = 0 has a piecewise
    constant symbol; its block comes from build_xx_matrix.
    """
    if L < 1:
        raise DomainError(f"block length must be >= 1, got {L}")
    if p.gamma == 0.0:
        raise BoundaryError("gamma = 0 is the XX line; use build_xx_matrix(h, L)")
    scale = max(1.0, p.h)
    if abs(p.h - 2.0) <= _BOUNDARY_TOL * scale:
        raise BoundaryError("on the critical manifold h = 2")

    rho = _branch_rho(p.gamma, p.h)
    decay = -math.log(rho) if rho > 0.0 else math.inf
    K = math.ceil(_DECAY_LOG / decay) if decay > 0.0 else math.inf
    if 2 * (L + K) > MAX_QUAD_POINTS:
        raise ResolutionError(
            f"coefficients decay like rho^|l| with rho = {rho!r}: L = {L} needs a grid of "
            f"{2 * (L + K)} points, over MAX_QUAD_POINTS = {MAX_QUAD_POINTS}; (gamma, h) = "
            f"({p.gamma}, {p.h}) is too close to criticality"
        )
    n = 1 << (max(64, 2 * (L + K)) - 1).bit_length()
    thetas = 2.0 * math.pi * np.arange(n) / n
    w = np.cos(thetas) - 1j * p.gamma * np.sin(thetas) - p.h / 2.0
    g = np.fft.fft(w / np.abs(w)) / n  # g[l % n] = (1/2pi) int e^{-il theta} phi
    tail = np.max(np.abs(g[L + K: n - L - K + 1]))
    if tail > _TAIL_TOL:
        raise ResolutionError(
            f"symbol coefficients {tail:.3e} at L + K <= |l| <= n/2 exceed {_TAIL_TOL} on "
            f"the {n}-point grid sized from rho = {rho!r}: (gamma, h) = ({p.gamma}, {p.h})"
        )
    return CorrelationMatrix(entries=_toeplitz_fill(np.concatenate((g[n - L + 1:], g[:L])).real))


def build_xx_matrix(h: float, L: int) -> CorrelationMatrix:
    """Symmetric Toeplitz correlation matrix of an XX block (gamma = 0,
    |h| < 2), from the closed-form coefficients."""
    if not (abs(h) < 2.0):
        raise DomainError(f"XX correlation matrix needs |h| < 2, got h = {h}")
    if L < 1:
        raise DomainError(f"block length must be >= 1, got {L}")
    c = _xx_coefficients(h, L - 1)
    return CorrelationMatrix(entries=_toeplitz_fill(np.concatenate((c[:0:-1], c))), symmetric=True)


def nu_spectrum(c: CorrelationMatrix) -> NuSpectrum:
    """Extract the nu-spectrum, sorted descending.

    XY: the L singular values of G, which are the nonnegative eigenvalues of
    i B_L, taken as |eig(G J)| from one symmetric eigensolve of the Hankel
    matrix G J; clamped to [0, 1], and every nu >= 1 - 4 sqrt(L) eps set to
    exactly 1.0 (the trivial modes, whose rounding spreads by up to about
    1.8 sqrt(L) eps: 51 eps at L = 800).
    XX: the signed eigenvalues of the symmetric matrix, clamped to [-1, 1].
    Values beyond +-1 by more than 1e-8 indicate a failed solve; they are
    refused before any value is clamped or snapped.
    """
    if c.symmetric:
        nus = np.linalg.eigvalsh(c.entries)[::-1].copy()
    else:
        nus = np.sort(np.abs(np.linalg.eigvalsh(c.entries[:, ::-1])))[::-1].copy()
    if np.any(np.abs(nus) > 1.0 + 1e-8):
        raise SpectrumRangeError(
            f"|nu| > 1 beyond tolerance: range [{nus.min():.3e}, {nus.max():.3e}]"
        )
    np.clip(nus, -1.0, 1.0, out=nus)
    if not c.symmetric:
        nus[nus >= 1.0 - _SNAP_EPS * math.sqrt(c.L)] = 1.0
    return NuSpectrum(nus=nus)
