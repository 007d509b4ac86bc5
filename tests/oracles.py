# Independent reference implementations used to check the package.  These
# are deliberately slow and simple: brute-force enumeration, adaptive
# quadrature, a plain FFT of samples, the index gather of a Toeplitz block
# and the 2L x 2L Majorana layout of the XY block, with no code shared with
# the library under test.  The exceptions are xx_entropy_contour,
# which takes the library's Fisher-Hartwig asymptote as given and checks
# the step from that determinant to the entropy, and doubling_required_nmax,
# which searches over a predicate the caller builds from the library's
# zeta tail bound, so that it checks the search and not the bound.

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


def renyi_sum_mp(nus: np.ndarray, alpha: float) -> float:
    """(1/(1-a)) sum ln(((1+nu)/2)^a + ((1-nu)/2)^a) over the given doubles,
    at 50 digits, where no power underflows."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        s = mpmath.fsum(
            mpmath.log(((1 + mpmath.mpf(nu)) / 2) ** a + ((1 - mpmath.mpf(nu)) / 2) ** a)
            for nu in np.asarray(nus, dtype=float)
        )
        return float(s / (1 - a))


def quad_fourier_coeff(symbol, k: int) -> complex:
    """(1/2 pi) int_0^{2 pi} symbol(t) e^{-ikt} dt by adaptive quadrature."""
    re, _ = quad(lambda t: (symbol(t) * np.exp(-1j * k * t)).real, 0.0, 2.0 * math.pi,
                 limit=400, epsabs=1e-13)
    im, _ = quad(lambda t: (symbol(t) * np.exp(-1j * k * t)).imag, 0.0, 2.0 * math.pi,
                 limit=400, epsabs=1e-13)
    return complex(re, im) / (2.0 * math.pi)


def fft_coeffs(symbol, n: int, size: int = 1 << 12) -> np.ndarray:
    """Fourier coefficients c_k, |k| <= n, of symbol by a plain FFT of `size`
    equispaced samples, as a two-sided array: c_k at index n+k."""
    c = np.fft.fft([symbol(2.0 * math.pi * j / size) for j in range(size)]) / size
    return c[np.arange(-n, n + 1) % size]


def toeplitz_gather(c: np.ndarray, L: int, zero: int = 0) -> np.ndarray:
    """The L x L Toeplitz matrix T[i, j] = c_{i-j} as an owned array, by an
    index gather with c_l read at index (zero + l) mod c.size: zero = 0 for
    a periodic vector (c_l at index l mod n), and zero = n for a two-sided
    one (length 2n+1, c_k at index n+k)."""
    idx = np.arange(L)
    return c[(zero + idx[:, None] - idx[None, :]) % c.size]


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


def _moduli_squared_mp(gamma: float, h: float):
    """(k^2, k'^2, sigma) of the point (gamma, h) at the working precision:
    by phase case from q = (h/2)^2 + gamma^2 - 1 and r = 1 - (h/2)^2,
    formed exactly from the double inputs; sigma = 0 for h > 2."""
    g, h2 = mpmath.mpf(gamma), mpmath.mpf(h) / 2
    q, r = h2 ** 2 + g ** 2 - 1, 1 - h2 ** 2
    if r < 0:
        return g ** 2 / q, -r / q, 0
    if q > 0:
        return q / g ** 2, r / g ** 2, 1
    return -q / r, g ** 2 / r, 1


def elliptic_modulus_mp(gamma: float, h: float) -> tuple[float, float, float]:
    """(k, k', tau0) of the point (gamma, h) at 40 digits, with
    tau0 = K(k')/K(k)."""
    with mpmath.workdps(40):
        k2, kp2, _ = _moduli_squared_mp(gamma, h)
        return (float(mpmath.sqrt(k2)), float(mpmath.sqrt(kp2)),
                float(mpmath.ellipk(kp2) / mpmath.ellipk(k2)))


def ln_lambda0_mp(gamma: float, h: float) -> float:
    """ln lambda_0, the log of the top of the limit density-matrix ladder at
    (gamma, h), at 60 digits: pi tau0/12 + ln(k k'/4)/6 for sigma = 0 and
    -pi tau0/6 + ln(k'/(4k^2))/6 for sigma = 1, summed as written."""
    with mpmath.workdps(60):
        k2, kp2, sigma = _moduli_squared_mp(gamma, h)
        tau0 = mpmath.ellipk(kp2) / mpmath.ellipk(k2)
        if sigma == 0:
            return float(mpmath.pi * tau0 / 12 + mpmath.log(k2 * kp2 / 16) / 12)
        return float(-mpmath.pi * tau0 / 6 + mpmath.log(kp2 / (16 * k2 ** 2)) / 12)


def renyi_limit_mp(gamma: float, h: float, alpha: float) -> float:
    """The block-limit Renyi entropy of order alpha at (gamma, h), at 60
    digits, summed over the nu-ladder |nu| = tanh x, x = (m + (1 - sigma)/2)
    pi tau0, m in Z: (1/(1 - a)) sum ln(p^a + q^a), p, q = (1 +- |nu|)/2.
    Each term is log1p(t^a) - a log1p(t), t = q/p = e^{-2x}, so nothing
    cancels as k -> 0; the sum stops once the terms have fallen by 1e-61."""
    with mpmath.workdps(60):
        k2, kp2, sigma = _moduli_squared_mp(gamma, h)
        tau0 = mpmath.ellipk(kp2) / mpmath.ellipk(k2)
        a = mpmath.mpf(alpha)
        total = (1 - a) * mpmath.log(2) if sigma == 1 else mpmath.mpf(0)
        j = sigma
        while 2 * min(a, 1) * (j - sigma) * mpmath.pi * tau0 < 140:
            t = mpmath.exp(-2 * (j + mpmath.mpf(1 - sigma) / 2) * mpmath.pi * tau0)
            total += 2 * (mpmath.log1p(t ** a) - a * mpmath.log1p(t))  # rungs m and -m - 1 + sigma
            j += 1
        return float(total / (1 - a))


def ladder_entropy_mp(tau0: float, sigma: int) -> float:
    """The block-limit von Neumann entropy on the ladder of tau0, at 40
    digits: sum_{m in Z} -(p ln p + q ln q) over the nodes
    x = (m + (1 - sigma)/2) pi tau0, with q = 1/(1 + e^{2|x|}) carried
    directly (never 1 - tanh) and ln p = log1p(-q); the sum stops once a
    term falls below 1e-45 of it."""
    with mpmath.workdps(40):
        total, j = mpmath.mpf(0), 0
        while True:
            x = (j + mpmath.mpf(1 - sigma) / 2) * mpmath.pi * tau0
            q = 1 / (1 + mpmath.exp(2 * x))
            term = -(1 - q) * mpmath.log1p(-q) - q * mpmath.log(q)
            total += term if x == 0 else 2 * term  # the nodes +-x
            if term < mpmath.mpf(10) ** -45 * total:
                return float(total)
            j += 1


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


def xy_block_det_log_mp(lam: complex, tau0: float, sigma: int, L: int) -> complex:
    """log of the large-L XY block determinant at 40 digits,

    theta3(beta + sigma tau/2) theta3(beta - sigma tau/2) / theta3(sigma tau/2)^2
    (1 - lambda^2)^L,

    tau = i tau0, beta = Log((lambda+1)/(lambda-1)) / (2 pi i), from the
    double inputs taken exactly.  The imaginary part is a phase, defined up
    to a multiple of 2 pi."""
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        q = mpmath.exp(-mpmath.pi * mpmath.mpf(tau0))
        beta = mpmath.log((lam + 1) / (lam - 1)) / (2j * mpmath.pi)
        off = sigma * 1j * mpmath.mpf(tau0) / 2

        def log_theta3(s):
            return mpmath.log(mpmath.jtheta(3, mpmath.pi * s, q))

        logd = (
            log_theta3(beta + off) + log_theta3(beta - off) - 2 * log_theta3(off)
            + L * mpmath.log(1 - lam ** 2)
        )
        return complex(logd)


def xx_entropy_contour(h: float, L: int) -> complex:
    """Large-L XX block entropy from the Fisher-Hartwig asymptote of
    D_L(lambda) = det(lambda - T_L), by the paper's contour integral
    S = (1/2 pi i) oint e(1, lambda) d ln D_L(lambda) around the cut [-1, 1].

    Collapsed onto the cut and integrated by parts (e(1, +-1) = 0), it is
    S = -(1/2 pi i) int_{-1}^{1} e'(x) J(x) dx, with J = ln D(x - i0) - ln D(x + i0)
    the jump of ln D_L across the cut.  At x = tanh(pi y), e'(x) = -pi y,
    dx = pi sech^2(pi y) dy, and beta = Log((x+1)/(x-1)) / (2 pi i) is
    -1/2 - i y above the cut and 1/2 - i y below it; beta = +-(1/2 - 1e-15) - i y
    keeps |Re beta_j - Re beta_k| below 1, as fisher_hartwig_asymptotic asks.
    ln D_L is its two-jump case on the constant symbol e^0: the dropped
    L V_0 term jumps by a constant, which integrates to 0 against e'.  The
    y-integral is Gauss-Legendre on 22 panels x 20 nodes over |y| <= 5.5,
    where |beta| stays inside log_barnes_g's disc; the cut tails beyond
    are left out.  The result should be real: its imaginary part is
    returned too, as a check.
    """
    from xyent import FHSingularity, SmoothSymbolFactorization, fisher_hartwig_asymptotic

    kf = math.acos(abs(h) / 2.0)
    f = SmoothSymbolFactorization.constant(0.0)

    def log_d(beta: complex) -> complex:
        jumps = [FHSingularity(kf, 0.0, -beta), FHSingularity(2.0 * math.pi - kf, 0.0, beta)]
        v = fisher_hartwig_asymptotic(f, jumps, L)
        return complex(v.log_abs, v.phase)

    x, w = np.polynomial.legendre.leggauss(20)
    mid = np.linspace(-5.25, 5.25, 22)  # panels of width 1/2
    y = (mid[:, None] + 0.25 * x).ravel()
    half = 0.5 - 1e-15
    jump = np.array([log_d(half - 1j * t) - log_d(-half - 1j * t) for t in y])
    de = -math.pi * y * math.pi / np.cosh(math.pi * y) ** 2  # e'(x) dx/dy
    return -complex(np.sum(np.tile(0.25 * w, mid.size) * de * jump)) / (2j * math.pi)


# Universal constant in the XX entropy asymptote, derived independently of
# the integral representation (via the digamma-function series for the
# same quantity) and frozen here to full double precision.
UPSILON1_REFERENCE = 0.495017908135137050


def sums_converged(rho: float, L: int) -> bool:
    """Whether a block of length L, whose symbol's coefficients decay like
    rho^|l| (rho from chain._branch_rho), is converged for sums over its
    spectrum: rho^(2L) <= 1e-17.  It guards S, the Renyi entropies and the
    block determinants, which meet their limits like rho^(2L): the two
    edges split each pair of modes by about rho^L, and that first-order
    splitting cancels in every symmetric function of the spectrum.  A single
    mode or eigenvalue converges only like rho^L (ROADMAP item 14), so a
    per-mode comparison needs its own criterion."""
    return rho ** (2 * L) <= 1e-17


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


def dp_partition_counts(kind: str, nmax: int) -> list[int]:
    """Counts of partitions of 0..nmax into distinct ("Distinct") or
    distinct odd ("DistinctOdd") parts by the 0/1 knapsack recurrence."""
    counts = [1] + [0] * nmax
    for part in range(1, nmax + 1, 2 if kind == "DistinctOdd" else 1):
        for s in range(nmax, part - 1, -1):
            counts[s] += counts[s - part]
    return counts


def convolved_multiplicities(sigma: int, nmax: int) -> list[int]:
    """Ladder multiplicities as the pair convolution of the knapsack counts,
    doubled for sigma = 1."""
    p = dp_partition_counts("Distinct" if sigma == 1 else "DistinctOdd", nmax)
    return [(1 + sigma) * sum(p[l] * p[n - l] for l in range(n + 1)) for n in range(nmax + 1)]


def doubling_required_nmax(clears, budget: int) -> int | None:
    """Least nmax >= 1 below `budget` for which the monotone predicate
    `clears` holds, by doubling from 1 and then bisecting; None if even
    budget - 1 does not clear."""
    hi = 1
    while not clears(hi):
        if hi == budget - 1:
            return None
        hi = min(2 * hi, budget - 1)
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clears(mid):
            hi = mid
        else:
            lo = mid
    return hi
