import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import iv

from xyent import (
    CutError,
    DomainError,
    FHSingularity,
    ModelParams,
    ProximityError,
    ResolutionError,
    ScaledValue,
    SmoothSymbolFactorization,
    SpectralParameter,
    XyentError,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    fisher_hartwig_asymptotic,
    modulus_k,
    nu_spectrum,
    szego_asymptotic,
    toeplitz_det_exact,
    xx_char_det_asymptotic,
    xx_char_det_exact,
    xy_block_det_asymptotic,
    xy_block_det_exact,
)
from xyent.chain import _branch_rho, _toeplitz_view
from oracles import (
    fft_coeffs,
    log_gap,
    majorana_matrix,
    plane,
    quad_fourier_coeff,
    toeplitz_gather,
    xx_char_det_log_mp,
    xy_block_det_log_mp,
)


def pure_root_coeffs(a: float, n: int) -> np.ndarray:
    """Exact Fourier coefficients of |2 sin(theta/2)|^{2a}:
    c_k = (-1)^k Gamma(1+2a) / (Gamma(1+a+k) Gamma(1+a-k))."""
    out = np.zeros(2 * n + 1, dtype=complex)
    for k in range(-n, n + 1):
        out[n + k] = (
            (-1) ** k
            * math.gamma(1 + 2 * a)
            / (math.gamma(1 + a + k) * math.gamma(1 + a - k))
        )
    return out


def _scaled_gap(got: ScaledValue, want: complex) -> float:
    """log_gap of a ScaledValue from the log want, relative to max(1, |want|)."""
    return log_gap(complex(got.log_abs, got.phase), want) / max(1.0, abs(want))


# A symbol that is NaN at the few samples within 0.05 of theta = 1
_NAN_NEAR_1 = lambda t: math.nan if abs(t - 1.0) < 0.05 else 2.0

class TestScaledValue:
    def test_value_round_trip(self):
        v = ScaledValue(math.log(2.5), 0.3)
        assert v.value == pytest.approx(cmath.rect(2.5, 0.3), rel=1e-14, abs=0)

    def test_zero_and_overflow(self):
        assert ScaledValue(-math.inf, 0.0).value == 0.0
        # between 709 and ln(float max) = 709.78 the value is representable,
        # its phase kept; beyond double range it is refused, not inf
        assert ScaledValue(709.5, 0.3).value == pytest.approx(
            cmath.rect(math.exp(709.5), 0.3), rel=1e-14, abs=0)
        for log_abs in (800.0, 1000.0):
            with pytest.raises(DomainError, match="beyond double range"):
                ScaledValue(log_abs, 0.3).value

    def test_ratio(self):
        a = ScaledValue(500.0, 0.2)
        b = ScaledValue(500.0, 0.1)
        assert a.ratio(b) == pytest.approx(cmath.exp(0.1j), rel=1e-14, abs=0)
        with pytest.raises(DomainError, match="beyond double range"):
            ScaledValue(800.0, 0.0).ratio(ScaledValue(0.0, 0.0))


class TestSpectralParameter:
    @pytest.mark.parametrize("lam", [0.5, -1.0, 1.0, 0.999, 0.0])
    def test_cut_rejected(self, lam):
        with pytest.raises(CutError):
            SpectralParameter(lam)

    @pytest.mark.parametrize("lam", [1.000001, -1.2, 2.0 + 0.5j, 0.5j])
    def test_off_cut_accepted(self, lam):
        SpectralParameter(lam)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, complex(2.0, math.inf),
                                     complex(math.nan, 1.0)])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(DomainError, match="lambda must be a finite complex number"):
            SpectralParameter(lam)

    def test_beta_value(self):
        b = SpectralParameter(3.0).beta
        assert b == pytest.approx(-1j * math.log(2.0) / (2.0 * math.pi), rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [1e5, 1e5 + 1e5j, 1e10, 1e15, -1e15 + 3.0j])
    def test_beta_large_lambda(self, lam):
        # the log of the quotient (lambda+1)/(lambda-1) = 1 + O(1/lambda)
        # rounded to double loses about log10|lambda| digits (3.8e-12, 8.3e-8
        # and 8.0e-4 relative at 1e5, 1e10 and 1e15); taken as log1p of
        # z = 2/(lambda - 1) it was within 2.1e-16 at each of these (pytest's
        # approx would add its absolute 1e-12, past every beta here)
        with mpmath.workdps(40):
            x = mpmath.mpc(lam)
            want = complex(mpmath.log((x + 1) / (x - 1)) / (2j * mpmath.pi))
        assert abs(SpectralParameter(lam).beta - want) <= 2.5e-16 * abs(want)

    @pytest.mark.parametrize("lam", [2.0, -3.0 + 0.1j, 0.2 + 0.9j, 1.0 + 1e-6j])
    def test_beta_strip(self, lam):
        assert abs(SpectralParameter(lam).beta.real) < 0.5


class TestFourierCoeffs:
    # the log-symbol coefficients SmoothSymbolFactorization.from_symbol takes
    # by one FFT of its samples
    def test_bessel_symbol(self):
        # log exp(e^{a cos t}) = e^{a cos t}, whose coefficients are I_k(a).
        # An FFT gives them to absolute accuracy, a fraction of eps times
        # the largest, I_0 = 1.13: the worst error was 4.6e-17, at k = 1,
        # and I_5 = 4.5e-5 was off by 1.2e-17 (2.7e-13 relative)
        a = 0.7
        f = SmoothSymbolFactorization.from_symbol(lambda t: math.exp(math.exp(a * math.cos(t))), 16)
        for k in (-3, 0, 1, 5):
            assert abs(f.Vk[16 + k] - iv(k, a)) <= 1e-16

    def test_matches_quadrature(self):
        # the log-coefficients fall to 3.8e-11 at n = 24, so the smooth-tail
        # guard needs n = 32 before |V_n| drops under its threshold
        sym = lambda t: 1.0 / (2.0 + math.cos(t)) + 0.3j * math.sin(t)
        f = SmoothSymbolFactorization.from_symbol(sym, 32)
        for k in (-2, 0, 3):
            want = quad_fourier_coeff(lambda t: cmath.log(sym(t)), k)
            assert f.Vk[32 + k] == pytest.approx(want, abs=1e-13)

    def test_resolution_guard(self):
        rough = lambda t: 2.0 + abs(2.0 * math.sin(t / 2.0)) ** 0.6
        with pytest.raises(ResolutionError):
            SmoothSymbolFactorization.from_symbol(rough, 32)

    def test_nan_sample_refused(self):
        # a NaN or an infinite sample is refused before the transform, which
        # would turn either into NaN coefficients
        for sym in (_NAN_NEAR_1, lambda t: math.inf if abs(t - 1.0) < 0.05 else 2.0):
            with pytest.raises(DomainError, match="not finite"):
                SmoothSymbolFactorization.from_symbol(sym, 8)


class TestToeplitzDet:
    def test_two_by_two(self):
        c = np.array([0.5j, 2.0, 0.25], dtype=complex)  # c_{-1}, c_0, c_1
        got = toeplitz_det_exact(c, 2).value
        want = 2.0 * 2.0 - 0.25 * 0.5j
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_matrix_layout(self):
        # the strided view every dense solve reads holds T[j, k] = c_{j-k}
        t = _toeplitz_view(np.array([3.0, 1.0, 2.0]))
        assert t[0, 1] == 3.0  # c_{-1}
        assert t[1, 0] == 2.0  # c_{+1}

    @pytest.mark.parametrize("imag", [None, 0.0, 1.0])
    @pytest.mark.parametrize("L", [1, 2, 7, 256])
    def test_reads_the_view_bitwise(self, imag, L):
        # the LU of the strided view is the LU of the owned matrix, bitwise;
        # real coefficients, also when held as complex, take the real solve
        rng = np.random.default_rng(L)
        c = rng.standard_normal(2 * L + 5)
        c[L + 2] += 3.0 * math.sqrt(L)
        if imag is not None:
            c = c + 1j * imag * rng.standard_normal(c.size)
        t = toeplitz_gather(c, L, zero=c.size // 2)
        sign, logdet = np.linalg.slogdet(t if imag else t.real)
        got = toeplitz_det_exact(c, L)
        assert got == ScaledValue(float(logdet), float(cmath.phase(complex(sign))))

    def test_singular_warns(self):
        c = np.zeros(3, dtype=complex)
        with pytest.warns(UserWarning):
            v = toeplitz_det_exact(c, 2)
        assert v.log_abs == -math.inf

    def test_size_validation(self):
        with pytest.raises(DomainError):
            toeplitz_det_exact(np.ones(3, dtype=complex), 5)
        with pytest.raises(DomainError, match="odd length"):
            toeplitz_det_exact(np.ones(4, dtype=complex), 2)


class TestSzego:
    def test_factorization_coefficients(self):
        a = 0.9
        f = SmoothSymbolFactorization.from_symbol(lambda t: cmath.exp(a * math.cos(t)), n=24)
        assert f.V0 == pytest.approx(0.0, abs=1e-13)
        assert f.Vk[24 + 1] == pytest.approx(a / 2.0, rel=1e-12, abs=0)
        assert f.Vk[24 - 1] == pytest.approx(a / 2.0, rel=1e-12, abs=0)
        assert f.log_b_plus(0.3 + 0.1j) == pytest.approx((a / 2.0) * (0.3 + 0.1j), rel=1e-12, abs=0)

    def test_limit_matches_exact_det(self):
        a = 0.7
        sym = lambda t: cmath.exp(a * math.cos(t))
        f = SmoothSymbolFactorization.from_symbol(sym, n=32)
        c = fft_coeffs(sym, 40)
        ex = toeplitz_det_exact(c, 32)
        asym = szego_asymptotic(f, 32)
        assert abs(asym.ratio(ex) - 1.0) < 1e-12

    def test_index_rejected(self):
        with pytest.raises(DomainError):
            SmoothSymbolFactorization.from_symbol(lambda t: cmath.exp(1j * t) * (2.0 + math.cos(t)), n=16)

    def test_vanishing_rejected(self):
        with pytest.raises(DomainError):
            SmoothSymbolFactorization.from_symbol(lambda t: math.cos(t), n=16)

    def test_nan_symbol_rejected(self):
        # used to raise ValueError from round(nan)
        with pytest.raises(DomainError):
            SmoothSymbolFactorization.from_symbol(_NAN_NEAR_1, n=8)

    def test_slow_tail_rejected(self):
        with pytest.raises(ResolutionError):
            SmoothSymbolFactorization.from_symbol(lambda t: 1.0 - 0.99 * cmath.exp(1j * t), n=32)

    def test_constant(self):
        f = SmoothSymbolFactorization.constant(0.4 + 0.2j)
        v = szego_asymptotic(f, 10)
        assert v.log_abs == pytest.approx(4.0, rel=1e-14, abs=0)
        assert v.phase == pytest.approx(2.0, rel=1e-14, abs=0)


class TestFisherHartwig:
    def test_pure_root_converges_to_exact(self):
        a = 0.3
        f = SmoothSymbolFactorization.constant(0.0)
        sing = [FHSingularity(0.0, a, 0.0)]
        errs = []
        for L in (8, 16, 32, 64):
            ex = toeplitz_det_exact(pure_root_coeffs(a, L), L)
            fh = fisher_hartwig_asymptotic(f, sing, L)
            errs.append(abs(fh.ratio(ex) - 1.0))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.02

    def test_empty_singularities_is_szego(self):
        f = SmoothSymbolFactorization.from_symbol(lambda t: cmath.exp(0.5 * math.cos(t)), n=24)
        assert fisher_hartwig_asymptotic(f, [], 12) == szego_asymptotic(f, 12)

    def test_degenerate_singularity_is_inert(self):
        f = SmoothSymbolFactorization.constant(0.1)
        plain = fisher_hartwig_asymptotic(f, [], 9)
        padded = fisher_hartwig_asymptotic(f, [FHSingularity(0.0, 0.0, 0.0)], 9)
        assert padded.log_abs == pytest.approx(plain.log_abs, abs=1e-14)

    def test_two_jumps_beyond_unit_beta(self):
        # lambda = 1.001 gives |beta| = 1.21: both Barnes arguments leave the
        # unit disc, and the expansion must still meet the mpmath form
        s, kf, L = SpectralParameter(1.001), math.acos(0.35), 64
        assert abs(s.beta) > 1.2
        lam = complex(s.lam)
        v0 = cmath.log(lam + 1.0) - (kf / math.pi) * cmath.log((lam + 1.0) / (lam - 1.0))
        jumps = [FHSingularity(kf, 0.0, -s.beta), FHSingularity(2.0 * math.pi - kf, 0.0, s.beta)]
        fh = fisher_hartwig_asymptotic(SmoothSymbolFactorization.constant(v0), jumps, L)
        assert _scaled_gap(fh, xx_char_det_log_mp(lam, 0.7, L)) < 1e-12

    def test_condition_validation(self):
        f = SmoothSymbolFactorization.constant(0.0)
        with pytest.raises(DomainError):
            FHSingularity(0.0, -0.6, 0.0)  # Re alpha <= -1/2
        for alpha, beta in ((math.inf, 0.0), (complex(0.0, math.nan), 0.0), (0.0, math.nan),
                            (0.0, complex(math.inf, 0.0))):
            with pytest.raises(DomainError):
                FHSingularity(0.0, alpha, beta)  # a NaN beta used to pass
        with pytest.raises(DomainError):
            fisher_hartwig_asymptotic(
                f, [FHSingularity(0.0, 0.0, 0.6), FHSingularity(1.0, 0.0, -0.6)], 8
            )  # |Re beta_j - Re beta_k| >= 1
        with pytest.raises(DomainError):
            fisher_hartwig_asymptotic(f, [FHSingularity(0.0, 0.2, 1.2)], 8)  # alpha - beta = -1
        with pytest.raises(DomainError):
            fisher_hartwig_asymptotic(
                f, [FHSingularity(1.0, 0.1, 0.0), FHSingularity(1.0, 0.1, 0.0)], 8
            )  # coincident angles
        with pytest.raises(DomainError, match="beyond double range"):
            # L V_0 = 1e309: the log-determinant itself overflows
            fisher_hartwig_asymptotic(SmoothSymbolFactorization.constant(1e308), [], 10)


class TestXXDet:
    def test_asymptotic_approaches_exact(self):
        s = SpectralParameter(3.0)
        errs = []
        for L in (16, 32, 64):
            nus = nu_spectrum(build_xx_matrix(0.0, L))
            ex = xx_char_det_exact(nus, s)
            asym = xx_char_det_asymptotic(s, 0.0, L)
            errs.append(abs(asym.ratio(ex) - 1.0))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-4

    def test_exact_det_equals_dense_toeplitz(self):
        s = SpectralParameter(2.0 + 1.0j)
        h = 1.0
        L = 12
        c = build_xx_matrix(h, L)
        via_nus = xx_char_det_exact(nu_spectrum(c), s)
        sign, logdet = np.linalg.slogdet(s.lam * np.eye(L) - toeplitz_gather(c.coefficients, L))
        via_det = ScaledValue(float(logdet), float(cmath.phase(sign)))
        assert abs(via_det.ratio(via_nus) - 1.0) < 1e-10

    def test_field_validation(self):
        with pytest.raises(DomainError):
            xx_char_det_asymptotic(SpectralParameter(3.0), 2.5, 10)

    @pytest.mark.parametrize("h", [0.0, 0.7, 1.6])
    @pytest.mark.parametrize("lam", [
        2.0, 0.5 + 0.6j, -1.5, -0.4 + 0.8j, 1.001, 1.0 + 1e-6, -1.0 - 1e-8, 0.3 + 1e-4j,
    ])
    def test_asymptotic_against_mpmath(self, lam, h):
        s = SpectralParameter(lam)
        for L in (1, 100, 2048):
            got = xx_char_det_asymptotic(s, h, L)
            assert _scaled_gap(got, xx_char_det_log_mp(lam, h, L)) < 1e-12


class TestXYDet:
    def setup_method(self):
        self.p = ModelParams(0.5, 1.0)
        self.case = classify_case(self.p)
        self.e = modulus_k(self.p)

    def test_asymptotic_matches_exact(self):
        s = SpectralParameter(2.0)
        nus = nu_spectrum(build_correlation_matrix(self.p, 40))
        ex = xy_block_det_exact(nus, s)
        asym = xy_block_det_asymptotic(s, self.e, self.case, 40)
        assert abs(asym.ratio(ex) - 1.0) < 1e-6

    def test_exact_det_equals_dense_majorana(self):
        # (-1)^L prod (lam^2 - nu^2) against det(lam - i B_L) of the 2L x 2L matrix
        s = SpectralParameter(2.0 + 1.0j)
        L = 12
        via_nus = xy_block_det_exact(nu_spectrum(build_correlation_matrix(self.p, L)), s)
        m = s.lam * np.eye(2 * L) - 1j * majorana_matrix(self.p.gamma, self.p.h, L)
        sign, logdet = np.linalg.slogdet(m)
        via_det = ScaledValue(float(logdet), float(cmath.phase(sign)) + math.pi * (L % 2))
        assert abs(via_det.ratio(via_nus) - 1.0) < 1e-10

    def test_exact_sign(self):
        s = SpectralParameter(2.0)
        nus = nu_spectrum(build_correlation_matrix(self.p, 5))
        v = xy_block_det_exact(nus, s)
        # odd L: (-1)^L prod(lam^2 - nu^2) < 0 for real lam > 1
        assert math.cos(v.phase) == pytest.approx(-1.0, abs=1e-12)

    def test_proximity_guard(self):
        # real lambda just above 1 sits within 1e-3 of the saturating ladder;
        # at (0.3, 1.0) thousands of ladder zeros lie that close to it
        for g, h in ((0.5, 1.0), (0.3, 1.0)):
            p = ModelParams(g, h)
            e, case = modulus_k(p), classify_case(p)
            with pytest.raises(ProximityError):
                xy_block_det_asymptotic(SpectralParameter(1.0005), e, case, 20)
            # ... and can be forced through with a smaller threshold
            xy_block_det_asymptotic(SpectralParameter(1.0005), e, case, 20, proximity_tol=1e-9)
            # an interior zero lambda_1 = tanh((1 + (1-sigma)/2) pi tau0) is guarded too
            node = math.tanh((1.0 + (1 - case.sigma) / 2.0) * math.pi * e.tau0)
            with pytest.raises(ProximityError):
                xy_block_det_asymptotic(SpectralParameter(complex(node + 5e-4, 1e-9)), e, case, 20)

    def test_even_in_lambda(self):
        # beta(-lambda) = -beta(lambda) and theta3 is even, so the prefactor,
        # and with it the asymptote, is unchanged under lambda -> -lambda
        for lam in (2.0 + 1.0j, 0.4 + 0.3j):
            lhs = xy_block_det_asymptotic(SpectralParameter(lam), self.e, self.case, 20)
            rhs = xy_block_det_asymptotic(SpectralParameter(-lam), self.e, self.case, 20)
            assert log_gap(complex(lhs.log_abs, lhs.phase), complex(rhs.log_abs, rhs.phase)) < 1e-12

    @pytest.mark.parametrize("lam", [1.0 + 1e-14, complex(1.0, 1e-14), 1.0 + 1e-12])
    def test_asymptote_near_one_against_mpmath(self, lam):
        # at (1e-3, 1.0) each theta3 factor of the prefactor at lambda ~ 1 is
        # beyond double range while ln P is not; 1 - lambda^2 near lambda = 1
        # keeps its digits only as (1 - lambda)(1 + lambda)
        p = ModelParams(1e-3, 1.0)
        e, case = modulus_k(p), classify_case(p)
        got = xy_block_det_asymptotic(SpectralParameter(lam), e, case, 40, proximity_tol=1e-20)
        want = xy_block_det_log_mp(lam, e.tau0, case.sigma, 40)
        assert log_gap(complex(got.log_abs, got.phase), want) < 1e-12


def _cut_distance(lam: complex) -> float:
    """Distance of lambda from the cut [-1, 1]."""
    return abs(complex(lam.real - max(-1.0, min(1.0, lam.real)), lam.imag))


# lambda with |lambda| <= 5, at least 0.1 from the cut, so at least that far
# from every prefactor zero; nearer the cut the rounding floor grows too
# (200 L eps at 1e-3 from it)
_OFF_CUT = st.one_of(
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1.1, 5.0)).map(lambda t: complex(t[0] * t[1])),
    st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).filter(
        lambda z: abs(z) <= 5.0 and _cut_distance(z) >= 0.1),
)
# The XY determinant meets its asymptote like rho^(2L), as S does (ROADMAP
# item 14): each pair of modes sits about rho^L either side of a zero of the
# prefactor, which moves the product by about rho^(2L)/(lambda^2 -
# lambda_m^2)^2, so the gap is bounded by C rho^(2L)/d^2, d the distance
# of lambda from the cut (at most 1), plus a floor of a few eps per factor
# of the product.  L is drawn from where rho^(2L) <= 1e-2: at (0.03125, 0),
# L = 1, rho^2 = 0.94, the ratio is 3.9.  Over 48,000 draws of these
# strategies the worst C was 0.9996 and the worst floor 5.1 L eps; without
# the 1/d^2 the constant reached 25 at d = 0.1 and 5.3 at (0.853, 1.043),
# lambda = 0.273 - 0.333i, where it holds from L = 2 to 12.
_DET_C, _DET_FLOOR = 1.0, 6.0 * np.finfo(float).eps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(point=plane(h2_depth=2, gamma_depth=2), lam=_OFF_CUT, data=st.data())
def test_xy_det_meets_asymptote_over_plane(point, lam, data):
    rho = _branch_rho(*point)
    assume(0.0 < rho < 1.0)  # 1 on a critical manifold, 0 at (1, 0) on the circle
    least = math.ceil(math.log(1e-2) / (2.0 * math.log(rho)))
    assume(least <= 400)
    L = data.draw(st.integers(least, 400))
    p, s = ModelParams(*point), SpectralParameter(lam)
    try:
        case, e, c = classify_case(p), modulus_k(p), build_correlation_matrix(p, L)
    except XyentError:  # a critical manifold, or k rounding to 1
        return
    ratio = xy_block_det_asymptotic(s, e, case, L).ratio(xy_block_det_exact(nu_spectrum(c), s))
    bound = _DET_C * rho ** (2 * L) / min(1.0, _cut_distance(lam)) ** 2 + _DET_FLOOR * L
    assert abs(ratio - 1.0) <= bound


@pytest.mark.parametrize("lam", [1e155, complex(1e200, 1e200), complex(1e308, 1e308)])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_determinants_past_the_square_of_lambda(gamma, lam):
    # past about |lambda| = 1e154, (lambda - 1)(lambda + 1) overflows, and
    # near |lambda| = 1e308 so does the quotient (lambda + 1)/(lambda - 1):
    # the determinants read NaN there, or refused a valid lambda.  |D_L| is
    # |lambda|^(2L) (XY) or |lambda|^L (XX) to within 1/|lambda|^2
    s, L = SpectralParameter(lam), 10
    if gamma:
        p = ModelParams(gamma, 1.0)
        ex = xy_block_det_exact(nu_spectrum(build_correlation_matrix(p, L)), s)
        asym = xy_block_det_asymptotic(s, modulus_k(p), classify_case(p), L)
    else:
        ex = xx_char_det_exact(nu_spectrum(build_xx_matrix(1.0, L)), s)
        asym = xx_char_det_asymptotic(s, 1.0, L)
    want = (2 if gamma else 1) * L * math.log(abs(lam))
    assert ex.log_abs == pytest.approx(want, rel=1e-15, abs=0)
    assert asym.log_abs == pytest.approx(want, rel=1e-15, abs=0)
    assert abs(cmath.exp(1j * (asym.phase - ex.phase)) - 1.0) < 1e-12
