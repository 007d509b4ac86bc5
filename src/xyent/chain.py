# chain.py
# Ground-state correlation matrices of the XX/XY chain and their nu-spectrum.
#
# Conventions:
#   * Hamiltonian H = -sum_j [(1+gamma) sx sx + (1-gamma) sy sy + h sz].
#   * XY block of length L: the real L x L Toeplitz matrix G_ij = g_{i-j},
#     g_l the Fourier coefficients of the unimodular symbol
#     phi(theta) = w(theta)/|w(theta)|, w = cos(theta) - i gamma sin(theta) - h/2.
#     The 2L x 2L Majorana matrix B_L interleaves G and -G^T, so
#     spec(i B_L) = +-svd(G) and nu is read off as the singular values of G
#     (Peschel, J. Phys. A 36 L205 (2003); Vidal et al., PRL 90 227902 (2003)).
#   * XX (gamma = 0): real symmetric Toeplitz L x L matrix with closed-form
#     entries; its signed eigenvalues are kept (entropies are even in nu and
#     the signed values feed the characteristic-determinant oracle).

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryError, DomainError, ResolutionError, SpectrumRangeError
from .special import EllipticModulus, tau0_from_modulus

__all__ = [
    "ModelParams",
    "PhaseCase",
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

# Largest Fourier grid build_correlation_matrix doubles up to before it
# declares the symbol's coefficients unresolved.
MAX_QUAD_POINTS = 2 ** 20


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
    """Branch points lambda1, lambda2 of the symbol's elliptic curve and
    their A/B/C/D cut-endpoint labels (A, B inside the unit circle)."""

    lambda1: complex
    lambda2: complex
    lambda_a: complex
    lambda_b: complex
    lambda_c: complex
    lambda_d: complex


@dataclass(frozen=True)
class CorrelationMatrix:
    """Finite-block correlation matrix: the real L x L Toeplitz block.

    symmetric is True for the XX block (from build_xx_matrix), whose signed
    eigenvalues are its nu-spectrum; otherwise entries is the XY block G,
    whose singular values are.
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


def branch_points(p: ModelParams) -> BranchPoints:
    """Branch points of the symbol and the cut-endpoint labeling.

    Cases 1a/2 (real pair):
        lambda1 = (h - sqrt(h^2 - 4(1-gamma^2))) / (2(1+gamma))
        lambda2 = 2(1+gamma) / (h + sqrt(h^2 - 4(1-gamma^2)))
    where the second form equals ((1+gamma)/(1-gamma)) lambda1 but stays
    finite on the Ising line gamma = 1.
    Case 1b (complex pair): lambda1 = (h - i sqrt(4(1-gamma^2)-h^2)) / (2(1+gamma)),
    lambda2 = 1/conj(lambda1).
    """
    case = classify_case(p)
    g, h = p.gamma, p.h
    if case.label in ("1a", "2"):
        disc = math.sqrt(h * h - 4.0 * (1.0 - g * g))
        lam1 = complex((h - disc) / (2.0 * (1.0 + g)))
        lam2 = complex(2.0 * (1.0 + g) / (h + disc))
    else:
        lam1 = (h - 1j * math.sqrt(4.0 * (1.0 - g * g) - h * h)) / (2.0 * (1.0 + g))
        lam2 = 1.0 / lam1.conjugate()

    # on the Ising line gamma = 1 the curve degenerates: lam1 sits at the
    # origin and its partner moves out to infinity, which is still a valid
    # endpoint configuration
    def recip(z: complex) -> complex:
        return complex(math.inf, 0.0) if z == 0 else 1.0 / z

    if case.label == "1a":
        labels = (lam1, recip(lam2), lam2, recip(lam1))
    elif case.label == "1b":
        labels = (lam1, recip(lam2), recip(lam1), lam2)
    else:
        labels = (lam1, lam2, recip(lam2), recip(lam1))
    return BranchPoints(lam1, lam2, *labels)


def modulus_k(p: ModelParams) -> EllipticModulus:
    """Elliptic modulus of the branch curve, by phase case:

        Case 1a: k = sqrt((h/2)^2 + gamma^2 - 1) / gamma
        Case 1b: k = sqrt((1 - (h/2)^2 - gamma^2) / (1 - (h/2)^2))
        Case 2:  k = gamma / sqrt((h/2)^2 + gamma^2 - 1)
    """
    case = classify_case(p)
    g, h = p.gamma, p.h
    q = (h / 2.0) ** 2 + g * g - 1.0
    if case.label == "1a":
        k = math.sqrt(q) / g
    elif case.label == "1b":
        k = math.sqrt(-q / (1.0 - (h / 2.0) ** 2))
    else:
        k = g / math.sqrt(q)
    return tau0_from_modulus(k)


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


def build_correlation_matrix(p: ModelParams, L: int) -> CorrelationMatrix:
    """Real Toeplitz block G_ij = g_{i-j} of an XY block of length L.

    The coefficients g_l come from the FFT of the smooth symbol on a uniform
    grid that starts at max(4096, 8L) points (rounded up to a power of two)
    and doubles until the coefficients around the grid's middle fall below
    1e-12, up to MAX_QUAD_POINTS.  The XX line gamma = 0 has a piecewise
    constant symbol; its block comes from build_xx_matrix.
    """
    if L < 1:
        raise DomainError(f"block length must be >= 1, got {L}")
    if p.gamma == 0.0:
        raise BoundaryError("gamma = 0 is the XX line; use build_xx_matrix(h, L)")
    scale = max(1.0, p.h)
    if abs(p.h - 2.0) <= _BOUNDARY_TOL * scale:
        raise BoundaryError("on the critical manifold h = 2")

    n = max(4096, 1 << (8 * L - 1).bit_length())
    while True:
        thetas = 2.0 * math.pi * np.arange(n) / n
        w = np.cos(thetas) - 1j * p.gamma * np.sin(thetas) - p.h / 2.0
        r = np.abs(w)
        if np.min(r) < 1e-14:
            raise BoundaryError(
                f"symbol vanishes on the grid: (gamma, h) = ({p.gamma}, {p.h}) is critical"
            )
        g = np.fft.fft(w / r) / n  # g[l % n] = (1/2pi) int e^{-il theta} phi
        # Smooth symbol: coefficients must have decayed by the grid's middle.
        tail = np.max(np.abs(g[n // 2 - n // 8: n // 2 + n // 8]))
        if tail <= 1e-12:
            break
        if n >= MAX_QUAD_POINTS:
            raise ResolutionError(
                f"trailing symbol coefficients {tail:.3e} exceed 1e-12 on the largest "
                f"grid, MAX_QUAD_POINTS = {MAX_QUAD_POINTS}: (gamma, h) = "
                f"({p.gamma}, {p.h}) is too close to criticality"
            )
        n *= 2

    idx = np.arange(L)
    return CorrelationMatrix(entries=g[(idx[:, None] - idx[None, :]) % n].real)


def build_xx_matrix(h: float, L: int) -> CorrelationMatrix:
    """Symmetric Toeplitz correlation matrix of an XX block (gamma = 0,
    |h| < 2), from the closed-form coefficients."""
    if not (abs(h) < 2.0):
        raise DomainError(f"XX correlation matrix needs |h| < 2, got h = {h}")
    if L < 1:
        raise DomainError(f"block length must be >= 1, got {L}")
    c = _xx_coefficients(h, L - 1)
    idx = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
    return CorrelationMatrix(entries=c[idx], symmetric=True)


def nu_spectrum(c: CorrelationMatrix) -> NuSpectrum:
    """Extract the nu-spectrum, sorted descending.

    XY: the L singular values of G, which are the nonnegative eigenvalues of
    i B_L; clamped to [0, 1].
    XX: the signed eigenvalues of the symmetric matrix, clamped to [-1, 1].
    Values beyond +-1 by more than 1e-8 indicate a failed solve.
    """
    if c.symmetric:
        nus = np.linalg.eigvalsh(c.entries)[::-1].copy()
    else:
        nus = np.linalg.svd(c.entries, compute_uv=False)
    if np.any(np.abs(nus) > 1.0 + 1e-8):
        raise SpectrumRangeError(
            f"|nu| > 1 beyond tolerance: range [{nus.min():.3e}, {nus.max():.3e}]"
        )
    np.clip(nus, -1.0, 1.0, out=nus)
    return NuSpectrum(nus=nus)
