import cmath
import math

import numpy as np
import pytest
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
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    fisher_hartwig_asymptotic,
    fourier_coeffs,
    modulus_k,
    nu_spectrum,
    szego_asymptotic,
    toeplitz_det_exact,
    toeplitz_matrix,
    xx_char_det_asymptotic,
    xx_char_det_exact,
    xy_block_det_asymptotic,
    xy_block_det_exact,
    xy_widom_prefactor,
)
from oracles import log_gap, majorana_matrix, quad_fourier_coeff, xx_char_det_log_mp


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


class TestScaledValue:
    def test_value_round_trip(self):
        v = ScaledValue(math.log(2.5), 0.3)
        assert v.value == pytest.approx(cmath.rect(2.5, 0.3), rel=1e-14)

    def test_zero_and_overflow(self):
        assert ScaledValue(-math.inf, 0.0).value == 0.0
        assert abs(ScaledValue(1000.0, 0.0).value) == math.inf

    def test_ratio(self):
        a = ScaledValue(500.0, 0.2)
        b = ScaledValue(500.0, 0.1)
        assert a.ratio(b) == pytest.approx(cmath.exp(0.1j), rel=1e-14)


class TestSpectralParameter:
    @pytest.mark.parametrize("lam", [0.5, -1.0, 1.0, 0.999, 0.0])
    def test_cut_rejected(self, lam):
        with pytest.raises(CutError):
            SpectralParameter(lam)

    @pytest.mark.parametrize("lam", [1.000001, -1.2, 2.0 + 0.5j, 0.5j])
    def test_off_cut_accepted(self, lam):
        SpectralParameter(lam)

    def test_beta_value(self):
        b = SpectralParameter(3.0).beta
        assert b == pytest.approx(-1j * math.log(2.0) / (2.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("lam", [2.0, -3.0 + 0.1j, 0.2 + 0.9j, 1.0 + 1e-6j])
    def test_beta_strip(self, lam):
        assert abs(SpectralParameter(lam).beta.real) < 0.5


class TestFourierCoeffs:
    def test_bessel_symbol(self):
        a = 0.7
        c = fourier_coeffs(lambda t: cmath.exp(a * math.cos(t)), 16)
        for k in (-3, 0, 1, 5):
            assert c[16 + k] == pytest.approx(iv(k, a), rel=1e-13)

    def test_matches_quadrature(self):
        # coefficients decay like (2 - sqrt(3))^|k|, so the smooth-tail guard
        # needs n = 24 before |c_n| drops under its threshold
        sym = lambda t: 1.0 / (2.0 + math.cos(t)) + 0.3j * math.sin(t)
        c = fourier_coeffs(sym, 24)
        for k in (-2, 0, 3):
            assert c[24 + k] == pytest.approx(quad_fourier_coeff(sym, k), abs=1e-11)

    def test_resolution_guard(self):
        rough = lambda t: abs(2.0 * math.sin(t / 2.0)) ** 0.6
        with pytest.raises(ResolutionError):
            fourier_coeffs(rough, 32)


class TestToeplitzDet:
    def test_two_by_two(self):
        c = np.array([0.5j, 2.0, 0.25], dtype=complex)  # c_{-1}, c_0, c_1
        got = toeplitz_det_exact(c, 2).value
        want = 2.0 * 2.0 - 0.25 * 0.5j
        assert got == pytest.approx(want, rel=1e-14)

    def test_matrix_layout(self):
        c = np.array([3.0, 1.0, 2.0], dtype=complex)
        t = toeplitz_matrix(c, 2)
        assert t[0, 1] == 3.0  # c_{-1}
        assert t[1, 0] == 2.0  # c_{+1}

    def test_singular_warns(self):
        c = np.zeros(3, dtype=complex)
        with pytest.warns(UserWarning):
            v = toeplitz_det_exact(c, 2)
        assert v.log_abs == -math.inf

    def test_size_validation(self):
        with pytest.raises(DomainError):
            toeplitz_det_exact(np.ones(3, dtype=complex), 5)


class TestSzego:
    def test_factorization_coefficients(self):
        a = 0.9
        f = SmoothSymbolFactorization.from_symbol(lambda t: cmath.exp(a * math.cos(t)), n=24)
        assert f.V0 == pytest.approx(0.0, abs=1e-13)
        assert f.Vk[24 + 1] == pytest.approx(a / 2.0, rel=1e-12)
        assert f.Vk[24 - 1] == pytest.approx(a / 2.0, rel=1e-12)
        assert f.log_b_plus(0.3 + 0.1j) == pytest.approx((a / 2.0) * (0.3 + 0.1j), rel=1e-12)

    def test_limit_matches_exact_det(self):
        a = 0.7
        sym = lambda t: cmath.exp(a * math.cos(t))
        f = SmoothSymbolFactorization.from_symbol(sym, n=32)
        c = fourier_coeffs(sym, 40)
        ex = toeplitz_det_exact(c, 32)
        asym = szego_asymptotic(f, 32)
        assert abs(asym.ratio(ex) - 1.0) < 1e-12

    def test_index_rejected(self):
        with pytest.raises(DomainError):
            SmoothSymbolFactorization.from_symbol(lambda t: cmath.exp(1j * t) * (2.0 + math.cos(t)), n=16)

    def test_vanishing_rejected(self):
        with pytest.raises(DomainError):
            SmoothSymbolFactorization.from_symbol(lambda t: math.cos(t), n=16)

    def test_slow_tail_rejected(self):
        with pytest.raises(ResolutionError):
            SmoothSymbolFactorization.from_symbol(lambda t: 1.0 - 0.99 * cmath.exp(1j * t), n=32)

    def test_constant(self):
        f = SmoothSymbolFactorization.constant(0.4 + 0.2j)
        v = szego_asymptotic(f, 10)
        assert v.log_abs == pytest.approx(4.0, rel=1e-14)
        assert v.phase == pytest.approx(2.0, rel=1e-14)


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
        sign, logdet = np.linalg.slogdet(s.lam * np.eye(L) - c.entries)
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

    def test_prefactor_at_symmetric_point(self):
        # prefactor(beta) with beta -> -beta is unchanged (theta3 is even)
        b = 0.2 + 0.1j
        lhs = xy_widom_prefactor(b, self.e, self.case)
        rhs = xy_widom_prefactor(-b, self.e, self.case)
        assert lhs == pytest.approx(rhs, rel=1e-12)
