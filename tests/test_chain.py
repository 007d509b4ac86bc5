import math

import numpy as np
import pytest

from xyent import (
    BoundaryError,
    CorrelationMatrix,
    DomainError,
    ModelParams,
    ResolutionError,
    SpectrumRangeError,
    branch_points,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    complete_elliptic_K,
    modulus_k,
    nu_spectrum,
)
from oracles import majorana_matrix, quad_fourier_coeff


class TestModelParams:
    def test_validation(self):
        ModelParams(0.0, 0.0)
        with pytest.raises(DomainError):
            ModelParams(-0.1, 1.0)
        with pytest.raises(DomainError):
            ModelParams(0.5, -1.0)
        with pytest.raises(DomainError):
            ModelParams(math.nan, 1.0)


class TestClassify:
    @pytest.mark.parametrize(
        "g,h,label,sigma",
        [
            (0.5, 1.0, "1b", 1),
            (0.3, 0.5, "1b", 1),
            (1.0, 1.0, "1a", 1),
            (0.9, 1.8, "1a", 1),
            (1.0, 3.0, "2", 0),
            (0.7, 2.5, "2", 0),
        ],
    )
    def test_cases(self, g, h, label, sigma):
        c = classify_case(ModelParams(g, h))
        assert c.label == label
        assert c.sigma == sigma

    def test_boundaries_rejected(self):
        with pytest.raises(BoundaryError):
            classify_case(ModelParams(0.5, 2.0))
        # h^2 = 4 (1 - gamma^2) exactly
        with pytest.raises(BoundaryError):
            classify_case(ModelParams(0.6, 1.6))
        with pytest.raises(DomainError):
            classify_case(ModelParams(0.0, 1.0))


class TestBranchPoints:
    @pytest.mark.parametrize("g,h", [(1.0, 1.0), (0.9, 1.8), (1.0, 3.0), (0.7, 2.5)])
    def test_real_cases_solve_quadratics(self, g, h):
        bp = branch_points(ModelParams(g, h))
        l1, l2 = bp.lambda1, bp.lambda2
        # lambda1 solves (1+g) x^2 - h x + (1-g) = 0; lambda2 the reflected one
        assert abs((1 + g) * l1 * l1 - h * l1 + (1 - g)) < 1e-12
        assert abs((1 - g) * l2 * l2 - h * l2 + (1 + g)) < 1e-12

    @pytest.mark.parametrize("g,h", [(1.0, 1.0), (0.9, 1.8), (1.0, 3.0), (0.7, 2.5)])
    def test_real_case_labels(self, g, h):
        bp = branch_points(ModelParams(g, h))
        labels = [bp.lambda_a, bp.lambda_b, bp.lambda_c, bp.lambda_d]
        reals = [x.real for x in labels]
        assert all(abs(x.imag) < 1e-14 for x in labels)
        assert reals == sorted(reals)
        if g == 1.0:
            # Ising line: outermost pair degenerates to {0, inf}
            assert bp.lambda_a == 0.0 and math.isinf(bp.lambda_d.real)
        else:
            assert bp.lambda_a.real * bp.lambda_d.real == pytest.approx(1.0, rel=1e-12)
        assert bp.lambda_b.real * bp.lambda_c.real == pytest.approx(1.0, rel=1e-12)

    def test_complex_case_conjugation(self):
        bp = branch_points(ModelParams(0.5, 1.0))
        assert bp.lambda_b == pytest.approx(bp.lambda_a.conjugate(), rel=1e-14)
        assert bp.lambda_d == pytest.approx(bp.lambda_c.conjugate(), rel=1e-14)
        assert abs(bp.lambda_a) < 1.0 < abs(bp.lambda_c)
        assert bp.lambda_c == pytest.approx(1.0 / bp.lambda_a, rel=1e-12)

    def test_ising_line_degenerates_cleanly(self):
        # gamma = 1 collapses lambda1 to the origin; the stable second form
        # keeps lambda2 finite and the reciprocal label goes to infinity
        bp = branch_points(ModelParams(1.0, 3.0))
        assert bp.lambda1 == 0.0
        assert bp.lambda2 == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert math.isinf(bp.lambda_d.real)
        assert bp.lambda_b.real * bp.lambda_c.real == pytest.approx(1.0, rel=1e-12)


class TestModulus:
    def test_case_1b_value(self):
        # (1 - (h/2)^2 - g^2) / (1 - (h/2)^2) = 2/3 at g = 0.5, h = 1
        e = modulus_k(ModelParams(0.5, 1.0))
        assert e.k == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)

    def test_case_1a_value(self):
        e = modulus_k(ModelParams(1.0, 1.0))
        assert e.k == pytest.approx(0.5, rel=1e-14)

    def test_case_2_value(self):
        # gamma / sqrt((h/2)^2 + gamma^2 - 1) = 1 / sqrt(9/4) at g = 1, h = 3
        e = modulus_k(ModelParams(1.0, 3.0))
        assert e.k == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_tau0_consistency(self):
        e = modulus_k(ModelParams(0.7, 2.5))
        want = complete_elliptic_K(e.kprime) / complete_elliptic_K(e.k)
        assert e.tau0 == pytest.approx(want, rel=1e-13)


class TestCorrelationMatrix:
    def test_entries_match_quadrature(self):
        p = ModelParams(0.5, 1.0)
        c = build_correlation_matrix(p, 6)

        def phi(t):
            w = math.cos(t) - p.h / 2.0 - 1j * p.gamma * math.sin(t)
            return w / abs(w)

        for l in (-3, -1, 0, 2):
            want = quad_fourier_coeff(phi, l)
            # G[i, j] = g_{i-j}
            got = c.entries[3 + l, 3]
            assert got == pytest.approx(want.real, abs=1e-10)
            assert abs(want.imag) < 1e-10

    def test_real_toeplitz_block(self):
        c = build_correlation_matrix(ModelParams(0.5, 1.0), 5)
        assert c.entries.shape == (5, 5) and c.L == 5
        assert c.entries.dtype == np.float64
        assert not c.symmetric
        assert np.array_equal(c.entries[1:, 1:], c.entries[:-1, :-1])
        with pytest.raises(DomainError):
            CorrelationMatrix(entries=np.zeros((2, 3)))

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            build_correlation_matrix(ModelParams(0.5, 2.0), 4)

    def test_slow_decay_flagged(self):
        # nearly-critical symbol: correlations decay too slowly for the
        # largest grid, which must be reported rather than truncated
        with pytest.raises(ResolutionError, match="MAX_QUAD_POINTS"):
            build_correlation_matrix(ModelParams(1e-7, 1.0), 4)

    def test_gamma_zero_matches_xx(self):
        # the XX line has its own block; the XY builder sends callers there
        with pytest.raises(BoundaryError, match="build_xx_matrix"):
            build_correlation_matrix(ModelParams(0.0, 0.5), 6)


class TestXXMatrix:
    def test_entries(self):
        h = 1.0
        m = build_xx_matrix(h, 4)
        kf = math.acos(h / 2.0)
        assert m.entries[0, 0] == pytest.approx(2.0 * kf / math.pi - 1.0, rel=1e-14)
        assert m.entries[0, 2] == pytest.approx(2.0 * math.sin(2.0 * kf) / (2.0 * math.pi), rel=1e-14)
        assert np.allclose(m.entries, m.entries.T)

    def test_field_range(self):
        with pytest.raises(DomainError):
            build_xx_matrix(2.0, 4)


class TestNuSpectrum:
    def test_xy_descending_in_range(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(1.0, 3.0), 10))
        assert len(nus) == 10
        assert np.all(np.diff(nus.nus) <= 0)
        assert np.all(nus.nus >= 0.0)
        assert np.all(nus.nus <= 1.0)

    def test_xx_signed_descending(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 8))
        assert np.all(np.diff(nus.nus) <= 0)
        assert nus.nus.min() < 0 < nus.nus.max()

    def test_out_of_range_flagged(self):
        bad = CorrelationMatrix(entries=np.array([[2.0]]), symmetric=True)
        with pytest.raises(SpectrumRangeError):
            nu_spectrum(bad)
        with pytest.raises(SpectrumRangeError):
            nu_spectrum(CorrelationMatrix(entries=np.array([[2.0]])))

    @pytest.mark.parametrize(
        "g,h,L",
        [
            (0.5, 1.0, 1),
            (0.9, 1.8, 40),
            (0.5, 1.0, 40),
            (0.7, 2.5, 40),
            (0.02, 0.6, 200),
            # the starting grid of 4096 points leaves a tail of ~4e-10 here
            (0.5, 1.99, 50),
        ],
    )
    def test_matches_majorana_oracle(self, g, h, L):
        # singular values of G against the nonnegative eigenvalues of i B_L
        nus = nu_spectrum(build_correlation_matrix(ModelParams(g, h), L))
        want = np.linalg.eigvalsh(1j * majorana_matrix(g, h, L))[L:][::-1]
        assert np.max(np.abs(nus.nus - want)) < 1e-13
