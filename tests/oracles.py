# Independent reference implementations used to check the package.  These
# are deliberately slow and simple: brute-force enumeration, adaptive
# quadrature and the 2L x 2L Majorana layout of the XY block, no shared code
# with the library under test.

from __future__ import annotations

import math

import mpmath
import numpy as np
from hypothesis import strategies as st
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


def xy_coefficients(gamma: float, h: float, n_grid: int = 1 << 18) -> np.ndarray:
    """Real parts of the Fourier coefficients g_l of phi = w/|w|,
    w = cos t - i gamma sin t - h/2, by an FFT on a fixed grid of n_grid
    points: g_l at index l % n_grid."""
    t = 2.0 * math.pi * np.arange(n_grid) / n_grid
    w = np.cos(t) - 1j * gamma * np.sin(t) - h / 2.0
    return np.fft.fft(w / np.abs(w)).real / n_grid


def majorana_matrix(gamma: float, h: float, L: int, n_grid: int = 1 << 16) -> np.ndarray:
    """The real antisymmetric 2L x 2L Majorana matrix B_L of an XY block.

    B_L has 2x2 blocks [[0, g_{i-j}], [-g_{j-i}, 0]], with g_l from
    xy_coefficients on n_grid points.  The nu-spectrum is the nonnegative
    half of the eigenvalues of the Hermitian i B_L.
    """
    g = xy_coefficients(gamma, h, n_grid)
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


def elliptic_modulus_mp(gamma: float, h: float) -> tuple[float, float, float]:
    """(k, k', tau0) of the point (gamma, h) at 40 digits: k^2 and k'^2 by
    phase case from q = (h/2)^2 + gamma^2 - 1 and r = 1 - (h/2)^2, formed
    exactly from the double inputs, and tau0 = K(k')/K(k)."""
    with mpmath.workdps(40):
        g, h2 = mpmath.mpf(gamma), mpmath.mpf(h) / 2
        q, r = h2 ** 2 + g ** 2 - 1, 1 - h2 ** 2
        if r < 0:
            k2, kp2 = g ** 2 / q, -r / q
        elif q > 0:
            k2, kp2 = q / g ** 2, r / g ** 2
        else:
            k2, kp2 = -q / r, g ** 2 / r
        return (float(mpmath.sqrt(k2)), float(mpmath.sqrt(kp2)),
                float(mpmath.ellipk(kp2) / mpmath.ellipk(k2)))


def log_gap(got: complex, want) -> float:
    """|got - want| between two logs of one complex number, the imaginary
    parts (phases) compared modulo 2 pi."""
    d = complex(got) - complex(want)
    return abs(complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi))


def xx_char_det_log_mp(lam: complex, h: float, L: int) -> complex:
    """log of the large-L XX characteristic determinant at 40 digits,

    (2 - 2 cos 2kF)^{-beta^2} [G(1+beta) G(1-beta)]^2 e^{L V0} L^{-2 beta^2},

    kF = arccos(|h|/2), beta = Log((lambda+1)/(lambda-1)) / (2 pi i) and
    V0 = Log(lambda+1) - 2 i kF beta, from the double inputs taken exactly.
    The imaginary part is a phase, defined up to a multiple of 2 pi."""
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        kf = mpmath.acos(abs(mpmath.mpf(h)) / 2)
        beta = mpmath.log((lam + 1) / (lam - 1)) / (2j * mpmath.pi)
        v0 = mpmath.log(lam + 1) - 2j * kf * beta
        logd = (
            -beta ** 2 * mpmath.log(2 - 2 * mpmath.cos(2 * kf))
            + 2 * mpmath.log(mpmath.barnesg(1 + beta))
            + 2 * mpmath.log(mpmath.barnesg(1 - beta))
            + L * v0
            - 2 * beta ** 2 * mpmath.log(L)
        )
        return complex(logd)


# Universal constant in the XX entropy asymptote, derived independently of
# the integral representation (via the digamma-function series for the
# same quantity) and frozen here to full double precision.
UPSILON1_REFERENCE = 0.495017908135137050


def _log_approach(lo: float, hi: float):
    """Distances 10^-u with u uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** -u)


def plane(h2_depth: float, gamma_depth: float):
    """Hypothesis strategy of (gamma, h) points for the sweeps over the plane.

    The whole plane gamma in [0.02, 2], h in [0, 4] (less the band
    |h - 2| <= 10^-h2_depth), plus log-spaced approach to each boundary:
    h -> 2 from both sides (10^-1..10^-h2_depth), gamma -> 0 at h = 1
    (10^-1..10^-gamma_depth), the circle h^2 = 4(1 - gamma^2) from both
    sides (10^-1..10^-7), the Ising line gamma = 1 from both sides
    (10^-1..10^-7) and h -> 0 on it (10^-1..10^-3).
    """
    return st.one_of(
        st.tuples(
            st.floats(0.02, 2.0),
            st.floats(0.0, 4.0).filter(lambda h: abs(h - 2.0) > 10.0 ** -h2_depth),
        ),
        st.tuples(st.floats(0.05, 1.5), st.sampled_from((-1.0, 1.0)), _log_approach(1, h2_depth)).map(
            lambda t: (t[0], 2.0 + t[1] * t[2])
        ),
        st.tuples(_log_approach(1, gamma_depth), st.just(1.0)),
        st.tuples(st.floats(0.1, 0.95), st.sampled_from((-1.0, 1.0)), _log_approach(1, 7)).map(
            lambda t: (t[0], 2.0 * math.sqrt(1.0 - t[0] ** 2) + t[1] * t[2])
        ),
        st.tuples(st.sampled_from((-1.0, 1.0)), _log_approach(1, 7), st.floats(0.0, 1.9)).map(
            lambda t: (1.0 + t[0] * t[1], t[2])
        ),
        st.tuples(st.just(1.0), _log_approach(1, 3)),
    )
