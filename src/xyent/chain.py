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
#     al., PRL 90 227902 (2003)).  nu_spectrum takes them from one symmetric
#     eigensolve of the Hankel matrix G J up to L = _DENSE_MAX_L, and from
#     the block's two edges beyond (_edge_nus); build_correlation_matrix
#     takes the g_l from one inverse real FFT of phi.
#   * XX (gamma = 0): real symmetric Toeplitz L x L matrix with closed-form
#     entries; its signed eigenvalues are kept (entropies are even in nu and
#     the signed values feed the characteristic-determinant oracle).
#   * Every route returns a NuSpectrum: the nontrivial modes with their
#     delta = 1 - nu^2, and the counts of trivial ones at exactly +-1.
#   * A block is stored only as its coefficients; dense solves read it as a
#     strided view of them (_toeplitz_view), and only entries copies it.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryError, DomainError, ResolutionError, SpectrumRangeError, _count, _real
from .special import EllipticModulus

__all__ = [
    "ModelParams",
    "PhaseCase",
    "CASE_1A",
    "CASE_1B",
    "CASE_2",
    "CorrelationMatrix",
    "NuSpectrum",
    "classify_case",
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

# XY blocks up to this length take the dense eigensolve of G J; longer ones
# the edge route (_edge_nus).  Paired timings of nu_spectrum on both routes
# (one BLAS thread, best of 10 calls, the 54 points bench/workloads.py draws
# for exact_xy at seeds 1-3): the edge route's time over the dense fill plus
# eigensolve was, in the median over the points, 1.30 at L = 100, 1.06 at
# L = 110, 1.05 at L = 120, 0.96 at L = 128 and 0.63 at L = 160.
_DENSE_MAX_L = 128

# The edge route stops once no residual diagonal of I - G G^T exceeds
# _EDGE_TOL, and refuses a factor of more than _EDGE_RANK_BUDGET columns
# (the most seen is 58, at (1e-4, 1.0), L = 3000, on the 746,496-point grid
# that L + 2K = 739,828 asks for).
# Its FFT columns carry rounding of about 1e-17: stopping at 1e-17 or 1e-18
# instead adds pivots on that noise and moves S by up to 3e-14, while
# stopping at 1e-15 drops genuine edge modes worth up to -1.1e-13 of S
# ((0.5, 1.9) and (0.05, 1.5), L = 800-1600, against the limit).
_EDGE_TOL = 1e-16
_EDGE_RANK_BUDGET = 128
# The edge identity I - G G^T = B B^T holds only for a unimodular symbol; a
# coefficient vector whose circulant symbol is off |phi| = 1 by more than
# this is refused (the builder's grids are off by at most 2.7e-15, on
# grids of 64 to 746,496 points).
_UNIMODULAR_TOL = 1e-13

# An XY nu >= 1 - _SNAP_EPS sqrt(L) is a trivial mode and is set to 1.0.
# Rounding in the eigensolve of G J spreads the trivial cluster |nu| ~ 1 by
# up to 16 eps at L = 100, 51 eps at L = 800 and 88 eps at L = 2400, about
# 1.8 sqrt(L) eps, and a mode left at nu = 1 - d adds
# e(1, nu) ~ (d/2)(1 + ln(2/d)) to S, 3.9e-14 at d = 10 eps.  4 sqrt(L) eps
# covers the spread twice over; 6 sqrt(L) eps already snaps a genuine mode
# at 1 - 230 eps ((0.6, 2.5), L = 1600: S off by -1.7e-12).  A genuine nu
# inside the band is lost, costing up to t (1 + ln(2/t)), t = 4 sqrt(L) eps,
# per +-pair of ladder modes; up to _DENSE_MAX_L the band is at most 45 eps
# wide (the pair of (0.5, 1.0), at 1 - 92 eps, would enter it at L = 529).
_SNAP_EPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ModelParams:
    """Anisotropy gamma >= 0 and field h >= 0 of the chain."""

    gamma: float
    h: float

    def __post_init__(self) -> None:
        _real("gamma", self.gamma, 0.0)
        _real("h", self.h, 0.0)


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
class CorrelationMatrix:
    """Finite-block correlation matrix: the real L x L Toeplitz block
    T_ij = c_{i-j}, held as its coefficients, c_l at index l mod n of a
    vector of n >= 2L - 1 of them.  The block itself is copied out only on
    demand, as entries.

    symmetric is True for the XX block (from build_xx_matrix), whose signed
    eigenvalues are its nu-spectrum; otherwise the block is the XY G, whose
    singular values are (see nu_spectrum).
    """

    coefficients: np.ndarray = field(repr=False)
    L: int
    symmetric: bool = False

    def __post_init__(self) -> None:
        c, L = self.coefficients, _count("block length L", self.L, 1)
        if c.ndim != 1 or c.size < 2 * L - 1 or not np.isfinite(c).all():
            raise DomainError(f"a block of length L = {L} needs a vector of at least 2L - 1 "
                              f"finite coefficients, got shape {c.shape}")

    def _view(self) -> np.ndarray:
        """The block, a read-only view of the 2L - 1 coefficients it holds."""
        c, L = self.coefficients, self.L
        return _toeplitz_view(np.concatenate((c[c.size - L + 1:], c[:L])))

    @property
    def entries(self) -> np.ndarray:
        """The L x L block, an owned and writable copy, made anew on each call."""
        return self._view().copy()


@dataclass(frozen=True)
class NuSpectrum:
    """nu-spectrum of a block as its routes resolve it: the nontrivial modes,
    descending (XY ones in [0, 1], XX ones signed, since the entropies are
    even in nu), with the delta = 1 - nu^2 their route computed, each in
    (0, 1], so a mode whose nu rounds to 1.0 still counts; and n_plus and
    n_minus, the counts of trivial modes at exactly +1 and -1.  A non-finite
    value, a |nu| or delta beyond 1 + 1e-8, a delta <= 0, modes out of order,
    arrays of unequal length or a bad count raise SpectrumRangeError.
    """

    modes: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    n_plus: int = 0
    n_minus: int = 0

    def __post_init__(self) -> None:
        for name in ("modes", "delta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        try:
            _count("n_plus", self.n_plus, 0)
            _count("n_minus", self.n_minus, 0)
        except DomainError as exc:
            raise SpectrumRangeError(f"a nu-spectrum's trivial-mode counts: {exc}") from None
        m, d = self.modes, self.delta
        ok = m.ndim == 1 and m.shape == d.shape
        if ok and m.size:  # written so that a NaN fails it; descending, so m's ends bound it
            ok = (bool((m[1:] <= m[:-1]).all()) and m[0] <= 1.0 + 1e-8 and m[-1] >= -1.0 - 1e-8
                  and d.min() > 0.0 and d.max() <= 1.0 + 1e-8)
        if not ok:
            raise SpectrumRangeError(
                f"a nu-spectrum needs descending modes, |nu| <= 1 + 1e-8 and a delta in "
                f"(0, 1 + 1e-8] each: modes {m.shape} in [{np.min(m, initial=0.0):.3e}, "
                f"{np.max(m, initial=0.0):.3e}], delta {d.shape} in [{np.min(d, initial=1.0):.3e}, "
                f"{np.max(d, initial=1.0):.3e}]")

    @classmethod
    def from_nus(cls, nus) -> "NuSpectrum":
        """The spectrum of a whole ladder of L values, in any order.  Values
        beyond +-1 by more than 1e-8 indicate a failed solve and are refused;
        the rest at or beyond +-1 are counted as trivial modes."""
        x = np.sort(np.asarray(nus, dtype=float))  # ascending, any NaN last
        if x.size and not (x[0] >= -1.0 - 1e-8 and x[-1] <= 1.0 + 1e-8):
            raise SpectrumRangeError(f"|nu| > 1 beyond tolerance: range [{x[0]:.3e}, {x[-1]:.3e}]")
        n_minus = int(np.searchsorted(x, -1.0, side="right"))
        n_plus = x.size - int(np.searchsorted(x, 1.0, side="left"))
        m = x[n_minus: x.size - n_plus][::-1]
        return cls(m, (1.0 - m) * (1.0 + m), n_plus, n_minus)

    @functools.cached_property
    def nus(self) -> np.ndarray:
        """The whole ladder of L values, descending, read-only, built on first use."""
        out = np.ones(len(self))
        out[self.n_plus: out.size - self.n_minus] = self.modes
        out[out.size - self.n_minus:] = -1.0
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _halves(self) -> tuple[np.ndarray, np.ndarray]:
        """(q, ln p) of each mode, q = (1 - |nu|)/2 formed as delta/(2(1 + |nu|)),
        so it keeps its digits as |nu| -> 1, and p = 1 - q = (1 + |nu|)/2."""
        q = self.delta / (2.0 * (1.0 + np.abs(self.modes)))
        return q, np.log1p(-q)

    def __len__(self) -> int:
        return self.modes.size + self.n_plus + self.n_minus


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
    """Branch points lambda1, lambda2 of the symbol, with their reciprocals
    the four endpoints of its cuts; the pair is picked by the sign of
    h^2 - 4(1-gamma^2) alone, so points on that circle are covered.
    Real pair (cases 1a, 2): lambda1 = (h - sqrt(h^2 - 4(1-gamma^2))) / (2(1+gamma))
    and lambda2 = 2(1+gamma) / (h + sqrt(h^2 - 4(1-gamma^2))), which equals
    ((1+gamma)/(1-gamma)) lambda1 but stays finite on the Ising line gamma = 1,
    where lambda1 = 0.  Complex pair (case 1b): lambda2 = 1/conj(lambda1) and
    lambda1 = (h - i sqrt(4(1-gamma^2) - h^2)) / (2(1+gamma)).
    """
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
    return EllipticModulus(k, kprime)


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


def _toeplitz_view(v: np.ndarray) -> np.ndarray:
    """L x L Toeplitz matrix T[i, j] = c_{i-j} as a read-only strided view,
    no copy, of v = (c_{1-L}, ..., c_0, ..., c_{L-1}), whose length gives L.
    The windows of v form the Hankel matrix v[i + j] = (T J)[i, j], J the
    exchange matrix; so T is their row reversal, transposed."""
    return sliding_window_view(v, (v.size + 1) // 2)[::-1].T


def _smooth_size(m: int) -> int:
    """Least even n = 2^a 3^b 5^c >= m: a grid length the FFT splits into
    radix-2, -3 and -5 passes, never longer than the least power of two."""
    best = 1 << max(1, (m - 1).bit_length())
    odd = 1
    while 2 * odd < best:  # part = 3^b 5^c, each taken once while it can win
        part = odd
        while 2 * part < best:
            best = min(best, 2 * part << (-(-m // (2 * part)) - 1).bit_length())
            part *= 5
        odd *= 3
    return best


def build_correlation_matrix(p: ModelParams, L: int) -> CorrelationMatrix:
    """Real Toeplitz block G_ij = g_{i-j} of an XY block of length L.

    The coefficients g_l come from one FFT of the smooth symbol.  They decay
    like rho^|l|, rho the largest modulus of a branch point inside the unit
    circle, so within K = ceil(16 ln 10 / ln(1/rho)) steps they lose 16
    digits.  The grid has n points, the least even n = 2^a 3^b 5^c with
    n >= max(64, 2L, L + 2K): the nearest alias of an entry with |l| < L
    then lies n - L + 1 >= 2K + 1 steps out, and n >= 2L leaves the 2L - 1
    coefficients a CorrelationMatrix needs.  The g_l are real and
    phi(-theta) = conj(phi(theta)), so phi is sampled at the n/2 + 1 points
    0 <= theta <= pi and the g_l are the inverse real FFT of conj(phi).
    Certificate: the computed |g_l| on M <= |l| <= n - M, M = max(L, K),
    beyond both the block and K, must be at most 1e-12, or ResolutionError
    is raised; so is a grid over MAX_QUAD_POINTS, before any FFT.  The XX
    line gamma = 0 has a piecewise constant symbol; its block comes from
    build_xx_matrix.
    """
    L = _count("block length L", L, 1)
    if p.gamma == 0.0:
        raise BoundaryError("gamma = 0 is the XX line; use build_xx_matrix(h, L)")
    scale = max(1.0, p.h)
    if abs(p.h - 2.0) <= _BOUNDARY_TOL * scale:
        raise BoundaryError("on the critical manifold h = 2")

    rho = _branch_rho(p.gamma, p.h)
    decay = -math.log(rho) if rho > 0.0 else math.inf
    K = math.ceil(_DECAY_LOG / decay) if decay > 0.0 else math.inf
    need = max(2 * L, L + 2 * K)
    if need > MAX_QUAD_POINTS:
        raise ResolutionError(
            f"coefficients decay like rho^|l| with rho = {rho!r}: L = {L} needs a grid of "
            f"{need} points, over MAX_QUAD_POINTS = {MAX_QUAD_POINTS}; (gamma, h) = "
            f"({p.gamma}, {p.h}) is too close to criticality"
        )
    n = _smooth_size(max(64, need))
    thetas = 2.0 * math.pi * np.arange(n // 2 + 1) / n
    w = np.cos(thetas) - 1j * p.gamma * np.sin(thetas) - p.h / 2.0
    g = np.fft.irfft(np.conj(w / np.abs(w)), n)  # g[l % n] = (1/2pi) int e^{-il theta} phi
    M = max(L, K)
    tail = np.max(np.abs(g[M: n - M + 1]))
    if tail > _TAIL_TOL:
        raise ResolutionError(
            f"symbol coefficients {tail:.3e} at M <= |l| <= n - M, M = max(L, K) = {M}, "
            f"exceed {_TAIL_TOL} on the {n}-point grid sized from rho = {rho!r}: "
            f"(gamma, h) = ({p.gamma}, {p.h})"
        )
    return CorrelationMatrix(coefficients=g, L=L)


def build_xx_matrix(h: float, L: int) -> CorrelationMatrix:
    """Symmetric Toeplitz correlation matrix of an XX block (gamma = 0,
    |h| < 2), from the closed-form coefficients."""
    h = _real("XX field h", h, -2.0, 2.0, "()")
    c = _xx_coefficients(h, _count("block length L", L, 1) - 1)
    return CorrelationMatrix(coefficients=np.concatenate((c, c[:0:-1])), L=L, symmetric=True)


def _edge_nus(c: CorrelationMatrix) -> NuSpectrum:
    """nu-spectrum of an XY block from its two edges; no L x L array is
    formed, and the trivial modes are counted, not stored.

    The n coefficients are the first column of an n x n circulant C, whose
    symbol is chat = fft(coefficients); G is its leading L x L block and
    B = C[:L, L:] the rest of those rows.  With |chat| = 1, C is orthogonal
    and I - G G^T = B B^T: Widom's finite-section identity
    T(ab) = T(a) T(b) + H(a) H(b~) (Boettcher and Silbermann, 1999) on the
    circulant.  Row i of B holds the coefficients beyond either edge of the
    block, c_m for m = i+1 .. n-L+i, so B B^T is the sum of the Gram
    matrices of the two Hankel tails, and its numerical rank r counts the
    nontrivial edge modes (Its, Jin and Korepin, J. Phys. A 38, 2975
    (2005)).  Its eigenvalues are delta = 1 - nu^2.

    A Cholesky factor B B^T ~ F^T F (F of r x L) with diagonal pivoting
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 428 (2012))
    needs the diagonal, window sums of c_m^2 added from the middle of the
    grid, where the terms are least, and r columns B (B^T e_p), one FFT
    correlation each.  It stops once no residual diagonal exceeds
    _EDGE_TOL.  delta are the squared singular values of F, read from the
    r x r triangle R of a QR of F^T (F F^T = R^T R), so no r x L SVD is
    taken.  Where delta <= 1/2, nu = sqrt(1 - delta); the rest, the zero
    mode among them, take nu from the singular values of G^T U, U their
    eigenvectors of F^T F (F^T y / s, y a left singular vector of R^T,
    s > 0.7) and G^T U a circulant product, since sqrt(1 - delta) keeps
    only half the digits of a small nu.  The r modes keep their delta; the
    L - r trivial ones are counted as n_plus.
    """
    coef, L = c.coefficients, c.L
    n = coef.size
    chat = np.fft.rfft(coef)
    off = float(np.max(np.abs(np.abs(chat) - 1.0)))
    if not off <= _UNIMODULAR_TOL:
        raise SpectrumRangeError(
            f"XY symbol off the unit circle by {off:.3e}, over {_UNIMODULAR_TOL}: the "
            f"edge identity I - G G^T = B B^T fails for L = {L}"
        )
    # d_i = |B_i|^2: the window of c_m^2 above i + 1 up to the middle h, plus
    # the one from h + 1 up to n - L + i
    sq = coef * coef
    h = n // 2
    below = np.append(np.cumsum(sq[h:0:-1])[::-1], 0.0)  # sum over m = j+1 .. h
    above = np.insert(np.cumsum(sq[h + 1:]), 0, 0.0)  # sum over m = h+1 .. h+j
    d = below[:L] + above[n - L - h: n - h]
    F = np.empty((16, L))  # rows: the factor's columns; doubled as needed
    w = np.zeros(n)
    r = 0
    while True:
        p = int(np.argmax(d))
        if d[p] <= _EDGE_TOL:
            break
        if r == _EDGE_RANK_BUDGET:
            raise ResolutionError(
                f"edge factor of I - G G^T reached r = {r} columns, its budget "
                f"_EDGE_RANK_BUDGET = {_EDGE_RANK_BUDGET}, with a residual diagonal "
                f"{d[p]:.3e} over {_EDGE_TOL}: L = {L}, grid n = {n}"
            )
        if r == F.shape[0]:
            F = np.concatenate((F, np.empty_like(F)))
        w[L:] = coef[n + p - L: p: -1]  # row p of B: c_{(p - k) mod n}, k = L .. n-1
        col = np.fft.irfft(chat * np.fft.rfft(w), n)[:L]  # (C w)[:L] = B B^T e_p
        col -= F[:r, p] @ F[:r]
        F[r] = col / math.sqrt(d[p])
        d -= F[r] * F[r]
        d[p] = 0.0
        r += 1
    if not r:
        return NuSpectrum(np.empty(0), np.empty(0), n_plus=L)
    y, s, _ = np.linalg.svd(np.linalg.qr(F[:r].T, mode="r").T)
    delta = s * s
    small = int(np.count_nonzero(delta > 0.5))
    modes = np.empty(r)  # ascending, as delta descends
    modes[small:] = np.sqrt(1.0 - delta[small:])
    if small:
        v = np.zeros((small, n))
        v[:, :L] = (y[:, :small].T @ F[:r]) / s[:small, None]  # s > 0.7 here
        gtu = np.fft.irfft(np.conj(chat) * np.fft.rfft(v), n)[:, :L]  # (C^T v)[:L] = G^T u
        modes[:small] = np.linalg.svd(gtu, compute_uv=False)[::-1]
    order = np.argsort(modes, kind="stable")[::-1]
    return NuSpectrum(modes[order], delta[order], n_plus=L - r)


def nu_spectrum(c: CorrelationMatrix) -> NuSpectrum:
    """Extract the nu-spectrum.

    XY: the L singular values of G, which are the nonnegative eigenvalues of
    i B_L.  Up to L = _DENSE_MAX_L they are |eig(G J)|, from one symmetric
    eigensolve of the Hankel matrix G J (the view of G, columns reversed),
    with every nu in [1 - 4 sqrt(L) eps, 1) set to exactly 1.0 (the trivial
    modes, whose rounding spreads by up to about 1.8 sqrt(L) eps).  Longer
    blocks take them from the block's edges (_edge_nus), which needs a
    unimodular symbol, as build_correlation_matrix's always is.
    XX: the signed eigenvalues of the view of the symmetric block.
    Both dense solves hand their whole ladder to NuSpectrum.from_nus, which
    refuses a value beyond +-1 by more than 1e-8 (a failed solve).
    """
    if c.symmetric:
        return NuSpectrum.from_nus(np.linalg.eigvalsh(c._view()))
    if c.L > _DENSE_MAX_L:
        return _edge_nus(c)
    nus = np.abs(np.linalg.eigvalsh(c._view()[:, ::-1]))
    nus[(nus >= 1.0 - _SNAP_EPS * math.sqrt(c.L)) & (nus < 1.0)] = 1.0
    return NuSpectrum.from_nus(nus)
