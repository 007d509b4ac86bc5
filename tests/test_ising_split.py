import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xyent import (
    ModelParams,
    SpectralParameter,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    modulus_k,
    nu_spectrum,
    renyi_exact,
    renyi_limit_modular,
    renyi_limit_qproduct,
    upsilon1,
    vn_entropy_closed,
    vn_entropy_exact,
    vn_entropy_limit_integral,
    vn_entropy_limit_series,
    xy_block_det_exact,
)

# At h = 0 the XY chain splits into two transverse-field Ising chains on
# alternate sites (Igloi and Juhasz, EPL 81, 57003 (2008)): a block of 2L
# sites is a block of L on each, at h1 = 2(1 - gamma)/(1 + gamma) < 2 and
# h2 = 2(1 + gamma)/(1 - gamma) > 2, so the nu-spectrum of the 2L block is
# the union of the two L blocks' and every sum over it splits.  The
# identity maps case 1b onto cases 1a and 2, so it checks the case
# classification and the moduli of all three cases against each other.
#
# Bounds, pinned from measurement: over 56,000 draws of gamma in
# [0.05, 0.95] (a fifth at or next to its ends) and L in [1, 150], lambda
# at least 0.1 from the cut, the worst |nu| gap was 1.8e-15; S 8.0e-15,
# Renyi 2 2.4e-15 and Renyi 3 2.1e-15 of max(1, S); log|D| 6.0 and arg D
# 4.4 eps per factor of the 2L-factor product.  Over 40,000 gamma the limit
# series read 8.4e-16, the integral 2.0e-14 (its rounding, up to 3e-14)
# and the closed form 1.3e-15 of max(1, S); over 80,000 draws with alpha in
# [1.05, 10], both Renyi limit forms 2.3 eps alpha/(alpha - 1) of
# max(1, |S|), the 1/(1 - alpha) of their frame amplifying the rounding.
_EPS = np.finfo(float).eps
_NU_TOL, _S_TOL, _RENYI_TOL, _DET_TOL = 2.5e-15, 1e-14, 3e-15, 8.0 * _EPS
_VN_LIMIT_TOLS = {"series": 1.2e-15, "integral": 3e-14, "closed": 1.8e-15}
_RENYI_LIMIT_TOL = 3.0 * _EPS

_GAMMA = st.floats(0.05, 0.95)


def _split(gamma: float) -> tuple[ModelParams, ModelParams, ModelParams]:
    """The h = 0 point and its two Ising chains."""
    return (ModelParams(gamma, 0.0), ModelParams(1.0, 2.0 * (1.0 - gamma) / (1.0 + gamma)),
            ModelParams(1.0, 2.0 * (1.0 + gamma) / (1.0 - gamma)))


def _cut_distance(lam: complex) -> float:
    return abs(complex(lam.real - max(-1.0, min(1.0, lam.real)), lam.imag))


_OFF_CUT = st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).filter(
    lambda z: abs(z) <= 5.0 and _cut_distance(z) >= 0.1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma=_GAMMA, L=st.integers(1, 150), lam=_OFF_CUT)
def test_h0_block_is_two_ising_blocks(gamma, L, lam):
    whole, low, high = _split(gamma)
    spec = nu_spectrum(build_correlation_matrix(whole, 2 * L))
    parts = [nu_spectrum(build_correlation_matrix(p, L)) for p in (low, high)]
    union = np.sort(np.concatenate([part.nus for part in parts]))[::-1]
    assert np.max(np.abs(spec.nus - union)) <= _NU_TOL
    s = vn_entropy_exact(spec).value
    assert abs(s - sum(vn_entropy_exact(part).value for part in parts)) <= _S_TOL * max(1.0, s)
    for alpha in (2.0, 3.0):
        r = renyi_exact(spec, alpha).value
        assert abs(r - sum(renyi_exact(part, alpha).value for part in parts)) <= _RENYI_TOL * max(1.0, r)
    # D_2L(lambda) = D_L(lambda; 1, h1) D_L(lambda; 1, h2), (-1)^(2L) = ((-1)^L)^2
    sp = SpectralParameter(lam)
    d, d1, d2 = (xy_block_det_exact(x, sp) for x in (spec, *parts))
    assert abs(d.log_abs - d1.log_abs - d2.log_abs) <= _DET_TOL * 2 * L
    turn = (d.phase - d1.phase - d2.phase + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(turn) <= _DET_TOL * 2 * L


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma=_GAMMA, alpha=st.floats(1.05, 10.0))
def test_h0_limits_are_two_ising_limits(gamma, alpha):
    points = _split(gamma)
    cases = [classify_case(p) for p in points]
    assert [c.label for c in cases] == ["1b", "1a", "2"]
    moduli = [modulus_k(p) for p in points]
    forms = {
        "series": lambda e, case: vn_entropy_limit_series(e, case.sigma),
        "integral": lambda e, case: vn_entropy_limit_integral(e, case.sigma),
        "closed": vn_entropy_closed,
        "qproduct": lambda e, case: renyi_limit_qproduct(alpha, e, case),
        "modular": lambda e, case: renyi_limit_modular(alpha, e, case),
    }
    for name, form in forms.items():
        s, s1, s2 = (form(e, case).value for e, case in zip(moduli, cases))
        tol = _VN_LIMIT_TOLS.get(name, _RENYI_LIMIT_TOL * alpha / (alpha - 1.0))
        assert abs(s - s1 - s2) <= tol * max(1.0, abs(s))


def test_critical_ising_is_half_the_xx_block():
    # gamma -> 0 takes both chains to the critical point (1, 2), which every
    # routine refuses: its block of L is half the XX block of 2L at h = 0,
    # S_XX(2L)/2 = (1/6) ln L + (ln 2)/3 + Upsilon1/2 + d.  Measured d L^2:
    # -2.0885e-3 at L = 16, -2.0837e-3 at 64 and -2.0832e-3 at 256, near
    # -1/480; -2.173e-3 at L = 4
    for L in (16, 64, 256):
        s = vn_entropy_exact(nu_spectrum(build_xx_matrix(0.0, 2 * L))).value / 2.0
        d = s - (math.log(L) / 6.0 + math.log(2.0) / 3.0 + upsilon1() / 2.0)
        assert -2.1e-3 <= d * L * L <= -2.08e-3
