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
#     al., PRL 90 227902 (2003)).  nu_spectrum takes them from the block's
#     two edges at every L (_edge_nus), whose pivot columns and G^T U
#     product are direct correlations on small blocks and FFT correlations
#     on large ones (_DIRECT_COLUMN_MAX); it forms r modes, and the L - r
#     trivial ones are counted, never built;
#     build_correlation_matrix takes the g_l from one inverse real FFT of phi,
#     on a grid read from a table of even 5-smooth sizes (_SMOOTH_SIZES).
#   * XX (gamma = 0): real symmetric Toeplitz L x L matrix with closed-form
#     coefficients; its signed eigenvalues are kept (entropies are even in nu and
#     the signed values feed the characteristic-determinant oracle).
#   * The coefficients alone pick the route: an even vector (c_l = c_{-l})
#     takes the eigensolve, any other the edge route; no flag can choose it.
#   * Either route's values reach one assembly (_assemble) and a NuSpectrum:
#     the nontrivial modes, whence delta = 1 - nu^2, and trivial counts at +-1.
#   * A block is stored only as its coefficients; dense solves read it as a
#     strided view of them (_toeplitz_view), and nothing copies it out.

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BoundaryError, DomainError, ResolutionError, SpectrumRangeError, _array, _count,
                     _real)
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

# The edge route stops once no residual diagonal of I - G G^T exceeds
# _EDGE_TOL, and refuses a factor of more than _EDGE_RANK_BUDGET columns
# (the most seen is 58, at (1e-4, 1.0), L = 3000, on the 746,496-point grid
# that L + 2K = 739,828 asks for).
# Stopping at 1e-17 or 1e-18 instead adds pivots on the FFT columns'
# rounding and moves S by up to 3e-14, while stopping at 1e-15 drops
# genuine edge modes worth up to -1.1e-13 of S ((0.5, 1.9) and (0.05, 1.5),
# L = 800-1600, against the limit).  The two column forms have different
# floors: at the pivots taken on the benchmark's blocks, against long-double
# columns, an FFT column was off by up to 2.4e-16 at its entries below 1e-8
# (its rounding is absolute, about eps times its largest entry) and a direct
# column by at most 5.1e-22 (its rounding is relative to each entry's own
# products).
_EDGE_TOL = 1e-16
_EDGE_RANK_BUDGET = 128
# A pivot column is one direct correlation, L (n - L) multiply-adds in one
# call, while L (n - L) is at most _DIRECT_COLUMN_MAX, and one FFT pair on
# the n-point grid above it.  Timed per column with one BLAS thread, the
# direct form took 0.1-0.25 of the FFT pair's time up to L (n - L) = 27,200;
# near 2^17 it took 0.8-0.9 on grids of n about 2L, where FFTs are
# cheapest, and 0.15-0.2 on grids of 3750-7500 points; from 1.6e5 to 2.0e5
# on n about 2L it took 0.8-1.6.
_DIRECT_COLUMN_MAX = 2 ** 17
# The edge identity I - G G^T = B B^T holds only for a unimodular symbol; a
# coefficient vector whose circulant symbol is off |phi| = 1 by more than
# this is refused (the builder's grids are off by at most 2.7e-15, on
# grids of 64 to 746,496 points).
_UNIMODULAR_TOL = 1e-13


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

    label '1a': 4(1-gamma^2) < h^2 < 4;  '1b': h^2 < 4(1-gamma^2);
    '2': h > 2; any other raises DomainError.  It sets sigma = 1 in cases
    1a/1b, 0 in case 2.
    """

    label: str

    def __post_init__(self) -> None:
        if self.label not in ("1a", "1b", "2"):
            raise DomainError(f"phase case label must be '1a', '1b' or '2', got {self.label!r}")
        object.__setattr__(self, "sigma", int(self.label != "2"))


CASE_1A = PhaseCase("1a")
CASE_1B = PhaseCase("1b")
CASE_2 = PhaseCase("2")


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Finite-block correlation matrix: the real L x L Toeplitz block
    T_ij = c_{i-j}, held as its coefficients, c_l at index l mod n of a
    vector of n >= 2L - 1 finite reals; the XX eigensolve reads the block
    as a view of them.

    symmetric is derived: True when the vector is even, c_l = c_{-l} (as
    every build_xx_matrix vector is), and then the signed eigenvalues are
    the block's nu-spectrum; otherwise the block is an XY G, whose singular
    values are (see nu_spectrum).  An even G would be symmetric, with
    singular values its |eigenvalues|, so it reads the same on either route.
    """

    coefficients: np.ndarray = field(repr=False)
    L: int

    def __post_init__(self) -> None:
        c, L = _array("coefficients", self.coefficients), _count("block length L", self.L, 1)
        if c.size < 2 * L - 1:
            raise DomainError(f"a block of length L = {L} needs at least 2L - 1 coefficients, "
                              f"got {c.size}")
        object.__setattr__(self, "coefficients", c)
        # an XY vector already differs at c_1, before the whole comparison
        even = c.size == 1 or (c[1] == c[-1] and (c[1:] == c[:0:-1]).all())
        object.__setattr__(self, "symmetric", bool(even))

    def _view(self) -> np.ndarray:
        """The block, a read-only view of the 2L - 1 coefficients it holds."""
        c, L = self.coefficients, self.L
        return _toeplitz_view(np.concatenate((c[c.size - L + 1:], c[:L])))


@dataclass(frozen=True, eq=False)
class NuSpectrum:
    """nu-spectrum of a block: the nontrivial modes, descending, each with
    |nu| < 1 (XY ones in [0, 1), XX ones signed, since the entropies are even
    in nu); and n_plus and n_minus, the counts of trivial modes at exactly +1
    and -1.  delta = (1 - nu)(1 + nu) = 1 - nu^2 of each mode is derived from
    it, so a mode whose nu rounds to 1.0 is trivial.  Modes that errors._array
    refuses (not a 1-D array of finite reals), a |nu| >= 1, modes out of
    order, or a bad count raise SpectrumRangeError, the kind a failed solve
    raises.
    """

    modes: np.ndarray = field(repr=False)
    n_plus: int = 0
    n_minus: int = 0

    def __post_init__(self) -> None:
        try:
            m = _array("modes", self.modes)
            _count("n_plus", self.n_plus, 0)
            _count("n_minus", self.n_minus, 0)
        except DomainError as exc:
            raise SpectrumRangeError(f"a nu-spectrum's {exc}") from None
        object.__setattr__(self, "modes", m)
        # descending, so the ends bound every mode
        if m.size and not ((m[1:] <= m[:-1]).all() and m[0] < 1.0 and m[-1] > -1.0):
            raise SpectrumRangeError(
                f"a nu-spectrum needs descending modes with |nu| < 1: {m.size} modes in "
                f"[{m.min():.3e}, {m.max():.3e}]")
        object.__setattr__(self, "delta", (1.0 - m) * (1.0 + m))

    @classmethod
    def from_nus(cls, nus) -> "NuSpectrum":
        """The spectrum of a whole ladder of L values, in any order, by the
        rule a solve's values meet (_assemble); values that errors._array
        refuses raise SpectrumRangeError too."""
        try:
            x = _array("values", nus)
        except DomainError as exc:
            raise SpectrumRangeError(f"a nu-spectrum's {exc}") from None
        return _assemble(x, 0)

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


def _assemble(values: np.ndarray, unformed: int) -> NuSpectrum:
    """The NuSpectrum of a solve's values, in any order, plus unformed
    trivial modes at +1 that it never formed: the one place where a failed
    solve (a value beyond +-1 by more than 1e-8: SpectrumRangeError) and a
    trivial mode (the rest at or beyond +-1, counted) are decided."""
    x = np.sort(values)  # ascending
    if x.size and not (x[0] >= -1.0 - 1e-8 and x[-1] <= 1.0 + 1e-8):
        raise SpectrumRangeError(f"|nu| > 1 beyond tolerance: range [{x[0]:.3e}, {x[-1]:.3e}]")
    n_minus = int(np.searchsorted(x, -1.0, side="right"))
    top = int(np.searchsorted(x, 1.0, side="left"))
    return NuSpectrum(x[n_minus:top][::-1], x.size - top + unformed, n_minus)


# -----------------------------------------------------------------------------
# Phase classification and elliptic data
# -----------------------------------------------------------------------------
def _refuse_h2(h: float) -> None:
    """BoundaryError on the critical manifold h = 2, within relative
    tolerance _BOUNDARY_TOL (relative to max(1, h))."""
    if abs(h - 2.0) <= _BOUNDARY_TOL * max(1.0, h):
        raise BoundaryError("on the critical manifold h = 2")


def _discriminants(gamma: float, h: float) -> tuple[float, float]:
    """(q, r) = ((h/2)^2 + gamma^2 - 1, (1 - h/2)(1 + h/2)), zero on the circle
    h^2 = 4(1 - gamma^2) and at h = 2; q is summed from exact squares."""
    a, da = _exact_square(h / 2.0)
    b, db = _exact_square(gamma)
    s = a + b
    ds = (a - (s - (s - a))) + (b - (s - a))  # s + ds = a + b exactly
    return ((s - 1.0) + ds) + (da + db), (1.0 - h / 2.0) * (1.0 + h / 2.0)


def _classify(p: ModelParams) -> tuple[PhaseCase, float, float]:
    """classify_case's case with the (q, r) of _discriminants it read."""
    if p.gamma == 0.0:
        raise BoundaryError("gamma = 0 is the XX line; no XY phase case is defined there")
    _refuse_h2(p.h)
    q, r = _discriminants(p.gamma, p.h)
    # q = (h - c)(h + c)/4 with c = 2 sqrt(1 - gamma^2): to first order the
    # band |h - c| <= _BOUNDARY_TOL max(1, h)
    if abs(q) <= _BOUNDARY_TOL * max(1.0, p.h) * p.h / 2.0:
        raise BoundaryError("on the critical manifold h^2 = 4(1 - gamma^2)")
    return (CASE_2 if r < 0.0 else CASE_1A if q > 0.0 else CASE_1B), q, r


def classify_case(p: ModelParams) -> PhaseCase:
    """Assign the phase case from the signs of q = (h/2)^2 + gamma^2 - 1 and
    r = 1 - (h/2)^2 ('2' where r < 0, else '1a' where q > 0, else '1b'),
    refusing h = 2 and the circle h^2 = 4(1-gamma^2) within relative
    tolerance 1e-12; gamma = 0 (the XX line) has no XY phase case."""
    return _classify(p)[0]


def _branch_pair(gamma: float, h: float) -> tuple[complex, complex]:
    """Branch points lambda1, lambda2 of the symbol, with their reciprocals
    the four endpoints of its cuts; the pair is picked by the sign of
    q = (h/2)^2 + gamma^2 - 1 alone, so points on that circle are covered.
    Real pair (cases 1a, 2): lambda1 = (h - 2 sqrt(q)) / (2(1+gamma))
    and lambda2 = 2(1+gamma) / (h + 2 sqrt(q)), which equals
    ((1+gamma)/(1-gamma)) lambda1 but stays finite on the Ising line gamma = 1,
    where lambda1 = 0.  Complex pair (case 1b): lambda2 = 1/conj(lambda1) and
    lambda1 = (h - 2i sqrt(-q)) / (2(1+gamma)).
    """
    q = _discriminants(gamma, h)[0]
    if q >= 0.0:
        disc = 2.0 * math.sqrt(q)
        lam1 = complex((h - disc) / (2.0 * (1.0 + gamma)))
        # h = disc = 0 only at (1, 0), where lambda2 has moved out to infinity
        lam2 = complex(2.0 * (1.0 + gamma) / (h + disc) if h + disc > 0.0 else math.inf)
    else:
        lam1 = (h - 2j * math.sqrt(-q)) / (2.0 * (1.0 + gamma))
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
    Ising line; q is classify_case's (_discriminants), which keeps its
    digits near the circle.  A k that still rounds to 1 raises DomainError.
    """
    return _modulus(p.gamma, *_classify(p))


def _modulus(g: float, case: PhaseCase, q: float, r: float) -> EllipticModulus:
    """modulus_k at anisotropy g, from what _classify returned there."""
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


def _even_smooth_sizes(top: int) -> list[int]:
    """Every even n = 2^a 3^b 5^c <= top, ascending."""
    sizes = []
    five = 2
    while five <= top:
        three = five
        while three <= top:
            two = three
            while two <= top:
                sizes.append(two)
                two *= 2
            three *= 3
        five *= 5
    return sorted(sizes)


# _smooth_size's table: every size a grid of need <= MAX_QUAD_POINTS can take
_SMOOTH_SIZES = _even_smooth_sizes(2 * MAX_QUAD_POINTS)


def _smooth_size(m: int) -> int:
    """Least even n = 2^a 3^b 5^c >= m, for m <= 2 MAX_QUAD_POINTS: a grid
    length the FFT splits into radix-2, -3 and -5 passes, never longer than
    the least power of two."""
    return _SMOOTH_SIZES[bisect.bisect_left(_SMOOTH_SIZES, m)]


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
    _refuse_h2(p.h)

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
    return CorrelationMatrix(coefficients=np.concatenate((c, c[:0:-1])), L=L)


def _edge_nus(c: CorrelationMatrix) -> np.ndarray:
    """The r nontrivial edge modes of an XY block, from its two edges; no
    L x L array is formed, and the L - r trivial modes are not formed.

    The n coefficients are the first column of an n x n circulant C, whose
    symbol is chat = fft(coefficients); G is its leading L x L block and
    B = C[:L, L:] the rest of those rows.  With |chat| = 1, C is orthogonal
    and I - G G^T = B B^T: Widom's finite-section identity
    T(ab) = T(a) T(b) + H(a) H(b~) (Boettcher and Silbermann, 1999) on the
    circulant.  Row i of B holds the coefficients beyond either edge of the
    block, c_m for m = i+1 .. n-L+i, so B B^T is the sum of the Gram
    matrices of the two Hankel tails, and its numerical rank r counts the
    nontrivial edge modes (Its, Jin and Korepin, J. Phys. A 38, 2975
    (2005)).  Its eigenvalues are 1 - nu^2.

    A Cholesky factor B B^T ~ F^T F (F of r x L) with diagonal pivoting
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 428 (2012))
    needs the diagonal, window sums of c_m^2 added from the middle of the
    grid, where the terms are least, and r columns B B^T e_p.  Row i of B
    is c_{i+1} .. c_{n-L+i} reversed, so while L (n - L) is at most
    _DIRECT_COLUMN_MAX a column is one direct correlation of c_1 .. c_{n-1}
    with row p, and above it one FFT correlation on the grid; neither
    forms B.  It stops once no residual diagonal exceeds _EDGE_TOL.  The
    squared singular values s^2 of F, read from the r x r triangle R of a
    QR of F^T (F F^T = R^T R), are 1 - nu^2, so no r x L SVD is taken.
    Where s^2 <= 1/2, nu = sqrt(1 - s^2); the rest, the zero mode among
    them, take nu from the singular values of G^T U, U their eigenvectors
    of F^T F (F^T y / s, y a left singular vector of R^T, s > 0.7), since
    sqrt(1 - s^2) keeps only half the digits of a small nu.  Below the
    crossover each G^T u is one direct correlation of the block's 2L - 1
    coefficients with u, above it one FFT correlation on the grid.  The r
    modes are returned unsorted, and no ladder of L values is formed.
    """
    coef, L = c.coefficients, c.L
    n = coef.size
    chat = np.fft.rfft(coef)
    mod = np.abs(chat)
    off = float(max(mod.max() - 1.0, 1.0 - mod.min()))  # max |(|chat| - 1)|
    if not off <= _UNIMODULAR_TOL:
        raise SpectrumRangeError(
            f"XY symbol off the unit circle by {off:.3e}, over {_UNIMODULAR_TOL}: the "
            f"edge identity I - G G^T = B B^T fails for L = {L}"
        )
    # d_i = |B_i|^2: the window of c_m^2 above i + 1 up to the middle h, plus
    # the one from h + 1 up to n - L + i
    sq = coef * coef
    h = n // 2
    below = np.cumsum(sq[h:0:-1])[::-1]  # sum over m = j+1 .. h
    above = np.concatenate(((0.0,), np.cumsum(sq[h + 1:])))  # sum over m = h+1 .. h+j
    d = below[:L] + above[n - L - h: n - h]
    F = np.empty((_EDGE_RANK_BUDGET, L))  # rows: the factor's columns
    w = np.zeros(n)
    tail, width = coef[1:], n - L
    direct = L * width <= _DIRECT_COLUMN_MAX
    r = 0
    while True:
        p = d.argmax()
        dp = d[p]
        if dp <= _EDGE_TOL:
            break
        if r == _EDGE_RANK_BUDGET:
            raise ResolutionError(
                f"edge factor of I - G G^T reached r = {r} columns, its budget "
                f"_EDGE_RANK_BUDGET = {_EDGE_RANK_BUDGET}, with a residual diagonal "
                f"{dp:.3e} over {_EDGE_TOL}: L = {L}, grid n = {n}"
            )
        f = F[r]
        if direct:  # (B B^T)_ip = sum_k c_{i+1+k} c_{p+1+k}, k = 0 .. n-L-1
            f[:] = np.correlate(tail, tail[p: p + width], "valid")
        else:
            w[L:] = coef[n + p - L: p: -1]  # row p of B: c_{(p - k) mod n}, k = L .. n-1
            f[:] = np.fft.irfft(chat * np.fft.rfft(w), n)[:L]  # (C w)[:L] = B B^T e_p
        if r:
            f -= F[:r, p] @ F[:r]
        f *= 1.0 / math.sqrt(dp)
        d -= f * f
        d[p] = 0.0
        r += 1
    modes = np.empty(r)
    if r:
        y, s, _ = np.linalg.svd(np.linalg.qr(F[:r].T, mode="r").T)
        small = int(np.count_nonzero(s * s > 0.5))
        modes[small:] = np.sqrt(1.0 - s[small:] * s[small:])
        if small:
            u = (y[:, :small].T @ F[:r]) / s[:small, None]  # s > 0.7 here
            if direct:  # (G^T u)_i = sum_j c_{j-i} u_j, entry L - 1 - i of a correlation
                band = np.concatenate((coef[n - L + 1:], coef[:L]))  # c_{1-L} .. c_{L-1}
                gtu = np.array([np.correlate(band, row, "valid")[::-1] for row in u])
            else:
                v = np.zeros((small, n))
                v[:, :L] = u
                gtu = np.fft.irfft(np.conj(chat) * np.fft.rfft(v), n)[:, :L]  # (C^T v)[:L] = G^T u
            modes[:small] = np.linalg.svd(gtu, compute_uv=False)
    return modes


def nu_spectrum(c: CorrelationMatrix) -> NuSpectrum:
    """Extract the nu-spectrum, by the block's kind (CorrelationMatrix.symmetric).

    XY: the L singular values of G, which are the nonnegative eigenvalues of
    i B_L, from the block's edges (_edge_nus), which needs a unimodular
    symbol, as build_correlation_matrix's always is: r modes, and L - r
    trivial ones it never forms.
    XX (an even vector): the L signed eigenvalues of the view of the
    symmetric block.  Either route's values go to _assemble.
    """
    values = np.linalg.eigvalsh(c._view()) if c.symmetric else _edge_nus(c)
    return _assemble(values, c.L - values.size)
