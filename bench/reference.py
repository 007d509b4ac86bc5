"""Independent references for the benchmark's correctness checks.

Nothing here imports xyent.  Limit quantities are evaluated in mpmath at
high precision from formulas written out afresh (cancellation-free forms of
k and k', the nu-ladder sums, the q-products, mpmath's Barnes G, theta and
elliptic K); finite blocks are rebuilt with plain numpy from the symbol or
from the closed-form XX coefficients.  Reference values are computed at run
time from the generated inputs; nothing is stored.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

DPS = 40
LN2 = math.log(2.0)


# -----------------------------------------------------------------------------
# Phase, modulus and the limit nu-ladder
# -----------------------------------------------------------------------------
def phase_case(gamma: float, h: float) -> tuple[str, int]:
    """('1a' | '1b' | '2', sigma) for an off-critical point with gamma > 0."""
    with mp.workdps(DPS):
        g, hh = mp.mpf(gamma), mp.mpf(h)
        if hh > 2:
            return "2", 0
        # h > 2 sqrt(1 - g^2)  <=>  h^2/4 + g^2 - 1 > 0 (or g >= 1)
        return ("1a", 1) if (hh / 2) ** 2 + g * g - 1 > 0 else ("1b", 1)


def branch_rho(gamma: float, h: float) -> float:
    """Largest modulus among the symbol's branch points inside the unit
    circle; finite-block corrections decay like rho^(2L)."""
    a = h * h - 4.0 * (1.0 - gamma * gamma)
    if a < 0.0:  # phase 1b: complex pair with |lambda|^2 = (1-gamma)/(1+gamma)
        return math.sqrt((1.0 - gamma) / (1.0 + gamma))
    d = math.sqrt(a)
    small, large = (h - d) / (2.0 * (1.0 + gamma)), (h + d) / (2.0 * (1.0 + gamma))
    return max(small, large if h < 2.0 else 1.0 / large)


def modulus(gamma: float, h: float) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(k, k', tau0) at DPS digits.  k'^2 comes from its own closed form in
    each case, so neither k nor k' is formed by subtraction near 0 or 1."""
    label, _ = phase_case(gamma, h)
    with mp.workdps(DPS):
        g, hh = mp.mpf(gamma), mp.mpf(h)
        a = (hh / 2) ** 2
        q = a + g * g - 1
        if label == "1a":
            k2, kp2 = q / (g * g), (1 - a) / (g * g)
        elif label == "1b":
            k2, kp2 = -q / (1 - a), g * g / (1 - a)
        else:
            k2, kp2 = g * g / q, (a - 1) / q
        tau0 = mp.ellipk(kp2) / mp.ellipk(k2)
        return mp.sqrt(k2), mp.sqrt(kp2), tau0


def _ladder(tau0, sigma: int):
    """x_m >= 0 with |nu_m| = tanh(x_m) over the two-sided limit ladder
    nu_m = tanh((m + (1 - sigma)/2) pi tau0), m in Z, down to e^{-2x} < 1e-45.
    Rungs m and -m - (1 - sigma) share |nu|; for sigma = 1 the rung at
    zero is single."""
    shift = mp.mpf(1 - sigma) / 2
    xs = [mp.mpf(0)] if sigma == 1 else []
    j = sigma
    while True:
        x = (j + shift) * mp.pi * tau0
        if 2 * x > 105:
            return xs
        xs += [x, x]
        j += 1


def _halves(x):
    """((1 + tanh x)/2, (1 - tanh x)/2) without cancellation."""
    t = mp.exp(-2 * x)
    return 1 / (1 + t), t / (1 + t)


class LimitReference:
    """mpmath limit values at one off-critical (gamma, h)."""

    def __init__(self, gamma: float, h: float):
        self.label, self.sigma = phase_case(gamma, h)
        self.k, self.kprime, self.tau0 = modulus(gamma, h)
        with mp.workdps(DPS):
            self._xs = _ladder(self.tau0, self.sigma)

    def vn(self) -> float:
        """von Neumann limit: sum over the ladder of e(1, nu_m)."""
        with mp.workdps(DPS):
            s = mp.mpf(0)
            for x in self._xs:
                p, q = _halves(x)
                s -= p * mp.log(p) + q * mp.log(q)
            return float(s)

    def renyi(self, alpha: float) -> float:
        """Renyi limit from the ladder, (1/(1-a)) sum ln[p^a + q^a]."""
        with mp.workdps(DPS):
            a = mp.mpf(alpha)
            s = mp.fsum(mp.log(p ** a + q ** a) for p, q in map(_halves, self._xs))
            return float(s / (1 - a))

    def renyi_qproduct(self, alpha: float) -> float:
        """Renyi limit from the q-product at nome e^{-alpha pi tau0}."""
        with mp.workdps(DPS):
            a, k, kp, tau0 = mp.mpf(alpha), self.k, self.kprime, self.tau0
            q = mp.exp(-a * mp.pi * tau0)
            if self.sigma == 0:
                lead = a / (1 - a) * (mp.pi * tau0 / 12 + mp.log(k * kp / 4) / 6)
                prod = mp.nsum(lambda n: mp.log(1 + q ** (2 * n + 1)), [0, mp.inf])
                return float(lead + 2 * prod / (1 - a))
            lead = a / (1 - a) * (-mp.pi * tau0 / 6 + mp.log(kp / (4 * k * k)) / 6)
            prod = mp.nsum(lambda n: mp.log(1 + q ** (2 * n)), [1, mp.inf])
            return float(lead + (2 * prod + mp.log(2)) / (1 - a))

    def density_ladder(self) -> tuple[float, float]:
        """(ln lambda_0, ratio) of the limit density-matrix spectrum: the top
        eigenvalue takes (1 + |nu|)/2 from every rung, and the ratio is the
        cheapest single flip, (1 - nu)/(1 + nu) at the smallest nonzero nu."""
        with mp.workdps(DPS):
            log_top = mp.fsum(mp.log(_halves(x)[0]) for x in self._xs)
            xmin = min(x for x in self._xs if x > 0)
            return float(log_top), float(mp.exp(-2 * xmin))


def multiplicities(sigma: int, nmax: int) -> list[int]:
    """Coefficients of 2 prod_{j>=1} (1+x^j)^2 (sigma = 1) or
    prod_{j odd} (1+x^j)^2 (sigma = 0), by polynomial products in exact
    integers."""
    poly = [1] + [0] * nmax
    for j in range(1, nmax + 1, 1 if sigma == 1 else 2):
        for _ in range(2):
            for n in range(nmax, j - 1, -1):
                poly[n] += poly[n - j]
    return [2 * c for c in poly] if sigma == 1 else poly


# -----------------------------------------------------------------------------
# XX line
# -----------------------------------------------------------------------------
def _upsilon_integrand(t):
    # the three terms each blow up like t^-3 at t -> 0; carry enough digits
    # to absorb the cancellation
    extra = int(3 * max(0.0, -float(mp.log10(t)))) + 10 if t < 1 else 0
    with mp.workdps(mp.mp.dps + extra):
        t = mp.mpf(t)
        sh = mp.sinh(t / 2)
        val = mp.exp(-t) / (3 * t) + 1 / (t * sh * sh) - mp.cosh(t / 2) / (2 * sh ** 3)
    return +val


_UPSILON1: list[float] = []


def upsilon1() -> float:
    """Upsilon1 = -int_0^inf [e^-t/(3t) + 1/(t sinh^2(t/2)) - cosh(t/2)/(2 sinh^3(t/2))] dt."""
    if not _UPSILON1:
        with mp.workdps(30):
            _UPSILON1.append(float(-mp.quad(_upsilon_integrand, [0, 1, 10, mp.inf])))
    return _UPSILON1[0]


def xx_coefficients(h: float, n: int) -> np.ndarray:
    """c_0 = 2 kF/pi - 1, c_l = 2 sin(kF l)/(pi l) for l = 0..n-1."""
    kf = math.acos(h / 2.0)
    c = np.empty(n)
    c[0] = 2.0 * kf / math.pi - 1.0
    ls = np.arange(1, n, dtype=float)
    c[1:] = 2.0 * np.sin(kf * ls) / (math.pi * ls)
    return c


def xx_matrix(h: float, L: int) -> np.ndarray:
    c = xx_coefficients(h, L)
    i = np.arange(L)
    return c[np.abs(i[:, None] - i[None, :])]


def xx_entropy_asymptotic(h: float, L: int) -> float:
    return (
        math.log(L) / 3.0 + math.log1p(-(h / 2.0) ** 2) / 6.0 + LN2 / 3.0 + upsilon1()
    )


def xx_char_det_asymptotic(lam: complex, h: float, L: int) -> complex:
    """log D_L(lambda) ~ -beta^2 ln(2 - 2 cos 2kF) + 2 ln[G(1+beta) G(1-beta)]
    + L V_0 - 2 beta^2 ln L, in mpmath (log of the complex value)."""
    with mp.workdps(30):
        lam = mp.mpc(lam)
        kf = mp.acos(mp.mpf(h) / 2)
        beta = mp.log((lam + 1) / (lam - 1)) / (2j * mp.pi)
        v0 = mp.log(lam + 1) - kf / mp.pi * mp.log((lam + 1) / (lam - 1))
        logd = (
            -beta * beta * mp.log(2 - 2 * mp.cos(2 * kf))
            + 2 * mp.log(mp.barnesg(1 + beta) * mp.barnesg(1 - beta))
            + L * v0
            - 2 * beta * beta * mp.log(L)
        )
        return complex(logd)


def logdet(m: np.ndarray) -> complex:
    """ln det m (principal phase) by LU."""
    sign, ld = np.linalg.slogdet(m)
    return complex(ld, cmath.phase(complex(sign)))


# -----------------------------------------------------------------------------
# XY finite blocks
# -----------------------------------------------------------------------------
def xy_coefficients(gamma: float, h: float, L: int) -> np.ndarray:
    """g_l = (1/2 pi) int e^{-il theta} w/|w| d theta, w = cos - i gamma sin - h/2,
    for l = -(L-1)..L-1 (g_l at index l + L - 1), by the trapezoid rule on a
    grid 16 times finer than the program's default."""
    n = 1 << max(16, (64 * L - 1).bit_length())
    th = 2.0 * np.pi * np.arange(n) / n
    w = np.cos(th) - 1j * gamma * np.sin(th) - h / 2.0
    g = np.fft.fft(w / np.abs(w)) / n
    ls = np.arange(-(L - 1), L)
    return g[ls % n].real


def xy_nus(gamma: float, h: float, L: int) -> np.ndarray:
    """The nu-spectrum as the singular values of the real L x L block
    G_ij = g_{i-j} (descending); the spectrum of the 2L x 2L Majorana matrix
    is +-i times these."""
    g = xy_coefficients(gamma, h, L)
    i = np.arange(L)
    G = g[(i[:, None] - i[None, :]) + L - 1]
    return np.linalg.svd(G, compute_uv=False)


def halves(nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """((1 + |nu|)/2, (1 - |nu|)/2), with |nu| clipped to 1 (singular values
    can exceed it by rounding)."""
    nus = np.minimum(np.abs(np.asarray(nus, dtype=float)), 1.0)
    return (1.0 + nus) / 2.0, (1.0 - nus) / 2.0


def vn_entropy(nus: np.ndarray) -> float:
    p, q = halves(nus)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -(np.where(p > 0, p * np.log(p), 0.0) + np.where(q > 0, q * np.log(q), 0.0))
    return float(math.fsum(terms))


def renyi_entropy(nus: np.ndarray, alpha: float) -> float:
    p, q = halves(nus)
    return float(math.fsum(np.log(p ** alpha + q ** alpha)) / (1.0 - alpha))


def top_eigenvalues(nus: np.ndarray, count: int, modes: int = 16) -> np.ndarray:
    """Largest `count` eigenvalues of the reduced density matrix, by full
    enumeration of the 2^m sign choices over the m cheapest-to-flip modes
    (all modes when L <= m).  Raises if a mode left out could reach the
    top `count`."""
    p, q = halves(nus)
    with np.errstate(divide="ignore"):
        cost = np.log(q) - np.log(p)  # <= 0; ln of the flip factor
    order = np.argsort(-cost)
    free, fixed = order[:modes], order[modes:]
    logs = np.array([float(np.sum(np.log(p)))])
    for c in cost[free]:
        logs = np.concatenate([logs, logs + c])
    logs = np.sort(logs)[::-1][:count]
    if fixed.size and logs[-1] <= logs[0] + cost[fixed[0]]:
        raise ValueError("top-eigenvalue enumeration needs more modes")
    return np.exp(logs)


def szego_log(v: dict[int, complex], L: int) -> complex:
    """Strong Szego limit ln det T_L = L V_0 + sum_{k>=1} k V_k V_{-k},
    exact for the trigonometric-polynomial log-symbol v."""
    return L * complex(v.get(0, 0.0)) + sum(
        k * complex(v[k]) * complex(v.get(-k, 0.0)) for k in v if k > 0
    )


def xy_block_det_asymptotic(lam: complex, tau0, sigma: int, L: int) -> complex:
    """ln of theta3(beta + sigma tau/2) theta3(beta - sigma tau/2) / theta3(sigma tau/2)^2
    * (1 - lambda^2)^L at tau = i tau0."""
    with mp.workdps(30):
        lam = mp.mpc(lam)
        beta = mp.log((lam + 1) / (lam - 1)) / (2j * mp.pi)
        off = sigma * 1j * mp.mpf(tau0) / 2
        q = mp.exp(-mp.pi * mp.mpf(tau0))
        th = lambda s: mp.jtheta(3, mp.pi * s, q)
        pref = th(beta + off) * th(beta - off) / th(off) ** 2
        return complex(mp.log(pref) + L * mp.log(1 - lam * lam))
