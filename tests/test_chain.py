import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    toeplitz_matrix,
)
from xyent.chain import _xx_coefficients
from oracles import majorana_matrix, quad_fourier_coeff, xy_coefficients


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


def _counting_fft(monkeypatch):
    """Route np.fft.fft through a spy; returns the list of its outputs."""
    outputs = []
    fft = np.fft.fft

    def spy(a, *args, **kwargs):
        outputs.append(fft(a, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(np.fft, "fft", spy)
    return outputs


class TestGridRule:
    @pytest.mark.parametrize(
        "g,h,L,n",
        [
            (1.0, 3.0, 12, 256),
            (0.5, 1.0, 100, 512),
            (0.02, 0.6, 800, 8192),
            (0.5, 1.99, 50, 8192),
            # on the circle h^2 = 4(1 - gamma^2): a valid block
            (0.6, 1.6, 40, 256),
            # gamma = 1, h = 0: phi = e^{-i theta}, no branch point in reach
            (1.0, 0.0, 10, 64),
        ],
    )
    def test_one_fft_sized_from_rho(self, monkeypatch, g, h, L, n):
        outputs = _counting_fft(monkeypatch)
        build_correlation_matrix(ModelParams(g, h), L)
        assert [len(o) for o in outputs] == [n]

    def test_refused_before_any_fft(self, monkeypatch):
        # rho = 1 - 1e-7 asks for a grid of about 7e8 points
        outputs = _counting_fft(monkeypatch)
        with pytest.raises(ResolutionError, match="MAX_QUAD_POINTS") as err:
            build_correlation_matrix(ModelParams(1e-7, 1.0), 4)
        assert "rho = 0.99999" in str(err.value)
        assert outputs == []

    def test_certificate_refuses_unresolved_tail(self, monkeypatch):
        # a grid the rule cannot certify: the coefficients are scrambled,
        # so the tail band is far above 1e-12 and the block is refused
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: fft(a)[::-1] + 1e-9)
        with pytest.raises(ResolutionError, match="exceed 1e-12"):
            build_correlation_matrix(ModelParams(0.5, 1.0), 10)


class TestToeplitzFill:
    @pytest.mark.parametrize("L", [1, 2, 7, 300])
    def test_xx_equals_index_gather(self, L):
        c = _xx_coefficients(0.7, L - 1)
        idx = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
        assert np.array_equal(build_xx_matrix(0.7, L).entries, c[idx])

    @pytest.mark.parametrize("L", [1, 2, 7, 300])
    def test_xy_equals_index_gather(self, monkeypatch, L):
        outputs = _counting_fft(monkeypatch)
        got = build_correlation_matrix(ModelParams(0.9, 1.8), L).entries
        n = len(outputs[0])
        g = outputs[0] / n
        idx = np.arange(L)
        assert np.array_equal(got, g[(idx[:, None] - idx[None, :]) % n].real)

    @pytest.mark.parametrize("L,n", [(1, 0), (1, 3), (5, 4), (6, 9)])
    def test_toeplitz_matrix_equals_index_gather(self, L, n):
        rng = np.random.default_rng(L + n)
        coeffs = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        idx = np.arange(L)
        want = coeffs[n + (idx[:, None] - idx[None, :])]
        got = toeplitz_matrix(coeffs, L)
        assert got.dtype == np.complex128 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def _log_approach(lo: float, hi: float):
    """Distances 10^-u with u uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** -u)


# The whole plane away from h = 2, plus log-spaced approach to h = 2 from
# both sides (10^-1..10^-3), gamma -> 0 at h = 1 (10^-1..10^-3), the circle
# h^2 = 4(1 - gamma^2) from both sides (10^-1..10^-7) and the Ising line
# gamma = 1 from both sides (10^-1..10^-7) and at h -> 0 (10^-1..10^-3).
# At these depths K stays under 1.5e5, so on the 2^18-point oracle grid
# every alias of an entry the block uses lies more than K steps out.
_PLANE = st.one_of(
    st.tuples(st.floats(0.02, 2.0), st.floats(0.0, 4.0).filter(lambda h: abs(h - 2.0) > 1e-3)),
    st.tuples(st.floats(0.05, 1.5), st.sampled_from((-1.0, 1.0)), _log_approach(1, 3)).map(
        lambda t: (t[0], 2.0 + t[1] * t[2])
    ),
    st.tuples(_log_approach(1, 3), st.just(1.0)),
    st.tuples(st.floats(0.1, 0.95), st.sampled_from((-1.0, 1.0)), _log_approach(1, 7)).map(
        lambda t: (t[0], 2.0 * math.sqrt(1.0 - t[0] ** 2) + t[1] * t[2])
    ),
    st.tuples(st.sampled_from((-1.0, 1.0)), _log_approach(1, 7), st.floats(0.0, 1.9)).map(
        lambda t: (1.0 + t[0] * t[1], t[2])
    ),
    st.tuples(st.just(1.0), _log_approach(1, 3)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_PLANE, st.integers(1, 400))
def test_entries_match_oracle_over_plane(point, L):
    # either the block matches a 2^18-point grid, or the rule refuses it
    try:
        p = ModelParams(*point)
    except DomainError:
        return
    try:
        got = build_correlation_matrix(p, L).entries
    except ResolutionError:
        return
    g = xy_coefficients(p.gamma, p.h)
    idx = np.arange(L)
    want = g[(idx[:, None] - idx[None, :]) % g.size]
    assert np.max(np.abs(got - want)) <= 1e-14


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
            # slow decay near h = 2: rho = 0.990, an 8192-point grid
            (0.5, 1.99, 50),
        ],
    )
    def test_matches_majorana_oracle(self, g, h, L):
        # singular values of G against the nonnegative eigenvalues of i B_L
        nus = nu_spectrum(build_correlation_matrix(ModelParams(g, h), L))
        want = np.linalg.eigvalsh(1j * majorana_matrix(g, h, L))[L:][::-1]
        assert np.max(np.abs(nus.nus - want)) < 1e-13
