# Independent reference implementations used to check the package.  These
# are deliberately slow and simple: brute-force enumeration, adaptive
# quadrature and the 2L x 2L Majorana layout of the XY block, no shared code
# with the library under test.

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def brute_partition_count(kind: str, n: int) -> int:
    """Count partitions of n into distinct parts ("Distinct") or distinct
    odd parts ("DistinctOdd") by exhaustive recursion.  Usable to n ~ 30."""
    parts = range(1, n + 1) if kind == "Distinct" else range(1, n + 1, 2)
    parts = [p for p in parts if p <= n]

    def count(remaining: int, idx: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for i in range(idx, len(parts)):
            if parts[i] > remaining:
                break
            total += count(remaining - parts[i], i + 1)
        return total

    return count(n, 0)


def brute_density_probs(nus: np.ndarray) -> np.ndarray:
    """All 2^L eigenvalues of the reduced density matrix as subset products
    of (1 +- nu)/2.  The two factors are formed independently from nu so
    that neither suffers cancellation near nu = 1."""
    probs = np.array([1.0])
    for nu in np.asarray(nus, dtype=float):
        p = (1.0 + nu) / 2.0
        q = (1.0 - nu) / 2.0
        probs = np.concatenate([probs * p, probs * q])
    return probs


def brute_vn_entropy(nus: np.ndarray) -> float:
    pr = brute_density_probs(nus)
    pr = pr[pr > 0.0]
    return float(-np.sum(pr * np.log(pr)))


def brute_renyi_entropy(nus: np.ndarray, alpha: float) -> float:
    pr = brute_density_probs(nus)
    pr = pr[pr > 0.0]
    return float(math.log(float(np.sum(pr ** alpha))) / (1.0 - alpha))


def quad_fourier_coeff(symbol, k: int) -> complex:
    """(1/2 pi) int_0^{2 pi} symbol(t) e^{-ikt} dt by adaptive quadrature."""
    re, _ = quad(lambda t: (symbol(t) * np.exp(-1j * k * t)).real, 0.0, 2.0 * math.pi,
                 limit=400, epsabs=1e-13)
    im, _ = quad(lambda t: (symbol(t) * np.exp(-1j * k * t)).imag, 0.0, 2.0 * math.pi,
                 limit=400, epsabs=1e-13)
    return complex(re, im) / (2.0 * math.pi)


def majorana_matrix(gamma: float, h: float, L: int, n_grid: int = 1 << 16) -> np.ndarray:
    """The real antisymmetric 2L x 2L Majorana matrix B_L of an XY block.

    B_L has 2x2 blocks [[0, g_{i-j}], [-g_{j-i}, 0]], where g_l are the
    Fourier coefficients of phi = w/|w|, w = cos t - i gamma sin t - h/2,
    taken here by an FFT on a fixed grid of n_grid points.  The nu-spectrum
    is the nonnegative half of the eigenvalues of the Hermitian i B_L.
    """
    t = 2.0 * math.pi * np.arange(n_grid) / n_grid
    w = np.cos(t) - 1j * gamma * np.sin(t) - h / 2.0
    g = np.fft.fft(w / np.abs(w)).real / n_grid
    B = np.zeros((2 * L, 2 * L))
    for i in range(L):
        for j in range(L):
            B[2 * i, 2 * j + 1] = g[(i - j) % n_grid]
            B[2 * i + 1, 2 * j] = -g[(j - i) % n_grid]
    return B


def quad_elliptic_K(k: float) -> float:
    """K(k) by quadrature in the substitution-free form."""
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2.0, limit=200, epsabs=1e-14)
    return val


# Universal constant in the XX entropy asymptote, derived independently of
# the integral representation (via the digamma-function series for the
# same quantity) and frozen here to full double precision.
UPSILON1_REFERENCE = 0.495017908135137050
