import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xyent import (
    BoundaryError,
    CorrelationMatrix,
    DomainError,
    ModelParams,
    NuSpectrum,
    ResolutionError,
    SpectralParameter,
    SpectrumRangeError,
    XyentError,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    complete_elliptic_K,
    finite_l_eigenvalues,
    modulus_k,
    nu_spectrum,
    renyi_exact,
    renyi_limit_qproduct,
    vn_entropy_exact,
    vn_entropy_limit_series,
    xx_char_det_exact,
    xy_block_det_exact,
)
from xyent import chain
from xyent.chain import _xx_coefficients
from oracles import (
    brute_density_probs,
    elliptic_modulus_mp,
    majorana_matrix,
    plane,
    quad_fourier_coeff,
    sums_converged,
    toeplitz_gather,
    xy_coefficients,
)


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

    @pytest.mark.parametrize("g,h", [(1.5, 0.0), (1.2, 1e-300)])
    def test_past_the_circle_at_h_zero(self, g, h):
        # for gamma > 1, q = (h/2)^2 + gamma^2 - 1 > 0 at every h, h = 0
        # included: case 1a with k = sqrt(gamma^2 - 1)/gamma, and an exact
        # block at L = 200 meets the limit
        p = ModelParams(g, h)
        assert classify_case(p).label == "1a"
        e = modulus_k(p)
        assert e.k == pytest.approx(math.sqrt(g * g - 1.0) / g, rel=1e-15, abs=0)
        s = vn_entropy_exact(nu_spectrum(build_correlation_matrix(p, 200))).value
        assert abs(s - vn_entropy_limit_series(e, 1).value) <= 1e-14

    def test_boundaries_rejected(self):
        with pytest.raises(BoundaryError):
            classify_case(ModelParams(0.5, 2.0))
        # h^2 = 4 (1 - gamma^2) exactly, at h = 1.6 and at h = 0, where k = 0
        for g, h in ((0.6, 1.6), (1.0, 0.0)):
            with pytest.raises(BoundaryError):
                classify_case(ModelParams(g, h))
        with pytest.raises(DomainError):
            classify_case(ModelParams(0.0, 1.0))


class TestBranchPoints:
    @pytest.mark.parametrize("g,h", [(1.0, 1.0), (0.9, 1.8), (1.0, 3.0), (0.7, 2.5)])
    def test_real_cases_solve_quadratics(self, g, h):
        l1, l2 = chain._branch_pair(g, h)
        # lambda1 solves (1+g) x^2 - h x + (1-g) = 0; lambda2 the reflected one
        assert abs((1 + g) * l1 * l1 - h * l1 + (1 - g)) < 1e-12
        assert abs((1 - g) * l2 * l2 - h * l2 + (1 + g)) < 1e-12

    @pytest.mark.parametrize("g,h", [(1.0, 1.0), (0.9, 1.8), (1.0, 3.0), (0.7, 2.5)])
    def test_real_case_labels(self, g, h):
        # the cut endpoints lambda1, lambda2 and their reciprocals are real;
        # lambda1 lies inside the unit circle, and lambda2 inside it in
        # case 2, outside it in case 1a
        l1, l2 = chain._branch_pair(g, h)
        assert abs(l1.imag) < 1e-14 and abs(l2.imag) < 1e-14
        assert 0.0 <= l1.real < 1.0
        assert (l2.real < 1.0) == (h > 2.0)
        if g == 1.0:
            assert l1 == 0.0  # Ising line: the pair lambda1, 1/lambda1 is {0, inf}
        else:
            assert l2.real == pytest.approx((1 + g) / (1 - g) * l1.real, rel=1e-12, abs=0)

    def test_complex_case_conjugation(self):
        l1, l2 = chain._branch_pair(0.5, 1.0)
        assert abs(l1.imag) > 0.1
        assert abs(l1) < 1.0 < abs(l2)
        assert l2 == pytest.approx(1.0 / l1.conjugate(), rel=1e-14, abs=0)

    def test_ising_line_degenerates_cleanly(self):
        # gamma = 1 collapses lambda1 to the origin; the stable second form
        # keeps lambda2 finite
        l1, l2 = chain._branch_pair(1.0, 3.0)
        assert l1 == 0.0
        assert l2 == pytest.approx(2.0 / 3.0, rel=1e-15, abs=0)


class TestModulus:
    def test_case_1b_value(self):
        # (1 - (h/2)^2 - g^2) / (1 - (h/2)^2) = 2/3 at g = 0.5, h = 1
        e = modulus_k(ModelParams(0.5, 1.0))
        assert e.k == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14, abs=0)

    def test_case_1a_value(self):
        e = modulus_k(ModelParams(1.0, 1.0))
        assert e.k == pytest.approx(0.5, rel=1e-14, abs=0)

    def test_case_2_value(self):
        # gamma / sqrt((h/2)^2 + gamma^2 - 1) = 1 / sqrt(9/4) at g = 1, h = 3
        e = modulus_k(ModelParams(1.0, 3.0))
        assert e.k == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0)

    def test_tau0_consistency(self):
        e = modulus_k(ModelParams(0.7, 2.5))
        want = complete_elliptic_K(e.kprime) / complete_elliptic_K(e.k)
        assert e.tau0 == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "g,h",
        [(10.0 ** (-j / 2.0), 1.0) for j in range(1, 15)]
        + [(1.0, 10.0 ** (-j / 2.0)) for j in range(1, 24)]
        + [(0.6, 1.6 + s * 10.0 ** (-j / 2.0)) for j in range(2, 15) for s in (-1.0, 1.0)],
    )
    def test_against_mpmath_on_approaches(self, g, h):
        # gamma -> 0 at h = 1 (k -> 1), h -> 0 on the Ising line (k -> 0)
        # and the circle h^2 = 4(1 - gamma^2) from both sides (q -> 0):
        # k, k' and tau0 keep their digits all the way
        e = modulus_k(ModelParams(g, h))
        k, kprime, tau0 = elliptic_modulus_mp(g, h)
        assert e.k == pytest.approx(k, rel=1e-13, abs=0)
        assert e.kprime == pytest.approx(kprime, rel=1e-13, abs=0)
        assert e.tau0 == pytest.approx(tau0, rel=1e-13, abs=0)

    def test_k_rounding_to_one_refused(self):
        # k = 1 - 6.7e-19 rounds to 1: a typed error, never a value
        with pytest.raises(DomainError, match="modulus k"):
            modulus_k(ModelParams(1e-9, 1.0))


class TestCorrelationMatrix:
    def test_entries_match_quadrature(self):
        p = ModelParams(0.5, 1.0)
        c = build_correlation_matrix(p, 6)

        def phi(t):
            w = math.cos(t) - p.h / 2.0 - 1j * p.gamma * math.sin(t)
            return w / abs(w)

        block = toeplitz_gather(c.coefficients, 6)
        for l in (-3, -1, 0, 2):
            want = quad_fourier_coeff(phi, l)
            # G[i, j] = g_{i-j}
            got = block[3 + l, 3]
            assert got == pytest.approx(want.real, abs=1e-10)
            assert abs(want.imag) < 1e-10

    def test_real_toeplitz_block(self):
        # the block's view is the Toeplitz block of the coefficients
        c = build_correlation_matrix(ModelParams(0.5, 1.0), 5)
        block = c._view()
        assert block.shape == (5, 5) and c.L == 5
        assert block.dtype == np.float64
        assert not c.symmetric
        assert np.array_equal(block, toeplitz_gather(c.coefficients, 5))
        with pytest.raises(DomainError):
            CorrelationMatrix(coefficients=np.zeros(4), L=3)  # needs 2L - 1 = 5

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


def _counting_irfft(monkeypatch):
    """Route np.fft.irfft through a spy; returns the list of its outputs."""
    outputs = []
    irfft = np.fft.irfft

    def spy(a, *args, **kwargs):
        outputs.append(irfft(a, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(np.fft, "irfft", spy)
    return outputs


def _edge_ranks(monkeypatch):
    """Route np.linalg.qr through a spy; returns the list of the edge
    factor ranks r it was handed (F^T is L x r)."""
    ranks = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        ranks.append(a.shape[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return ranks


def _even_smooth_sizes(top):
    """Every even 2^a 3^b 5^c up to top, ascending."""
    sizes = [2]
    for f in (2, 3, 5):
        for s in list(sizes):
            s *= f
            while s <= top:
                sizes.append(s)
                s *= f
    return np.array(sorted(sizes))


_GRID_SIZES = _even_smooth_sizes(4 * chain.MAX_QUAD_POINTS)


class TestGridRule:
    @pytest.mark.parametrize(
        "g,h,L,n",
        [
            (1.0, 3.0, 12, 200),
            (0.5, 1.0, 100, 240),
            (0.02, 0.6, 800, 4500),
            (0.5, 1.99, 50, 7500),
            # on the circle h^2 = 4(1 - gamma^2): a valid block
            (0.6, 1.6, 40, 150),
            # gamma = 1, h = 0: phi = e^{-i theta}, no branch point in reach
            (1.0, 0.0, 10, 64),
        ],
    )
    def test_one_fft_sized_from_rho(self, monkeypatch, g, h, L, n):
        outputs = _counting_irfft(monkeypatch)
        build_correlation_matrix(ModelParams(g, h), L)
        assert [len(o) for o in outputs] == [n]

    def test_smooth_size_is_least_even_5_smooth(self):
        # every m up to 2^16 and around MAX_QUAD_POINTS: the least even
        # 2^a 3^b 5^c >= m, never more than the least power of two >= m
        top = chain.MAX_QUAD_POINTS
        ms = list(range(1, 2 ** 16 + 1)) + list(range(top - 64, top + 65))
        want = _GRID_SIZES[np.searchsorted(_GRID_SIZES, ms)]
        got = np.array([chain._smooth_size(m) for m in ms])
        assert np.array_equal(got, want)
        assert np.all(got <= [1 << max(1, (m - 1).bit_length()) for m in ms])

    def test_refused_before_any_fft(self, monkeypatch):
        # rho = 1 - 1e-7 asks for a grid of about 7e8 points
        outputs = _counting_irfft(monkeypatch)
        with pytest.raises(ResolutionError, match="MAX_QUAD_POINTS") as err:
            build_correlation_matrix(ModelParams(1e-7, 1.0), 4)
        assert "rho = 0.99999" in str(err.value)
        assert outputs == []

    def test_certificate_refuses_unresolved_tail(self, monkeypatch):
        # a grid the rule cannot certify: the coefficients are scrambled,
        # so the tail band is far above 1e-12 and the block is refused
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n)[::-1] + 1e-9)
        with pytest.raises(ResolutionError, match="exceed 1e-12"):
            build_correlation_matrix(ModelParams(0.5, 1.0), 10)


class TestToeplitzFill:
    @pytest.mark.parametrize("L", [1, 2, 7, 300])
    def test_xx_equals_index_gather(self, L):
        c = _xx_coefficients(0.7, L - 1)
        idx = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
        got = build_xx_matrix(0.7, L)._view()
        assert np.array_equal(got, c[idx])
        assert not got.flags.writeable

    @pytest.mark.parametrize("L", [1, 2, 7, 128, 129, 256])
    def test_xx_nus_read_the_view(self, L):
        # eigvalsh of the strided view is eigvalsh of the filled block, bitwise
        c = build_xx_matrix(0.7, L)
        want = np.clip(np.linalg.eigvalsh(toeplitz_gather(c.coefficients, L))[::-1], -1.0, 1.0)
        assert np.array_equal(nu_spectrum(c).nus, want)

    @pytest.mark.parametrize("L", [1, 2, 7, 300])
    def test_xy_equals_index_gather(self, monkeypatch, L):
        outputs = _counting_irfft(monkeypatch)
        got = build_correlation_matrix(ModelParams(0.9, 1.8), L)._view()
        g = outputs[0]
        idx = np.arange(L)
        assert np.array_equal(got, g[(idx[:, None] - idx[None, :]) % g.size])
        assert not got.flags.writeable


# At these depths K stays under 1.5e5, so on the 2^18-point oracle grid
# every alias of an entry the block uses lies more than K steps out.
_PLANE = plane(h2_depth=3, gamma_depth=3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_PLANE, st.integers(1, 400))
def test_entries_match_oracle_over_plane(point, L):
    # either the block matches a 2^18-point grid, or the rule refuses it
    try:
        p = ModelParams(*point)
    except DomainError:
        return
    try:
        c = build_correlation_matrix(p, L)
    except ResolutionError:
        return
    got = toeplitz_gather(c.coefficients, L)
    g = xy_coefficients(p.gamma, p.h)
    idx = np.arange(L)
    want = g[(idx[:, None] - idx[None, :]) % g.size]
    assert np.max(np.abs(got - want)) <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_PLANE, st.integers(1, 20000))
def test_grid_rule_over_plane(point, L):
    # the grid is the least even 5-smooth n >= max(64, 2L, L + 2K); the
    # nearest alias of a block entry, n - L + 1 steps out, lies beyond 2K,
    # and the certificate band M <= |l| <= n - M, M = max(L, K), holds at
    # least l = n/2
    try:
        p = ModelParams(*point)
    except DomainError:
        return
    rho = chain._branch_rho(p.gamma, p.h)
    K = math.ceil(chain._DECAY_LOG / -math.log(rho)) if rho > 0.0 else 0
    need = max(64, 2 * L, L + 2 * K)
    if need > chain.MAX_QUAD_POINTS:
        with pytest.raises(ResolutionError, match="MAX_QUAD_POINTS"):
            build_correlation_matrix(p, L)
        return
    n = build_correlation_matrix(p, L).coefficients.size
    assert n == _GRID_SIZES[np.searchsorted(_GRID_SIZES, need)]
    assert n - L + 1 >= 2 * K + 1
    assert n - max(L, K) >= max(L, K)


class TestXXMatrix:
    def test_entries(self):
        h = 1.0
        m = toeplitz_gather(build_xx_matrix(h, 4).coefficients, 4)
        kf = math.acos(h / 2.0)
        assert m[0, 0] == pytest.approx(2.0 * kf / math.pi - 1.0, rel=1e-14, abs=0)
        assert m[0, 2] == pytest.approx(2.0 * math.sin(2.0 * kf) / (2.0 * math.pi), rel=1e-14, abs=0)
        assert np.allclose(m, m.T)

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
        # [2.0] is even, so it takes the symmetric solve, whose eigenvalue 2
        # is beyond +-1
        with pytest.raises(SpectrumRangeError):
            nu_spectrum(CorrelationMatrix(coefficients=np.array([2.0]), L=1))
        # the edge route: a symbol off the unit circle, whose block is not
        # an XY block, is refused rather than read as 1 - nu^2
        good = build_correlation_matrix(ModelParams(0.5, 1.0), 400)
        for scale in (2.0, 0.5):
            scaled = CorrelationMatrix(coefficients=scale * good.coefficients, L=400)
            with pytest.raises(SpectrumRangeError, match="off the unit circle"):
                nu_spectrum(scaled)

    def test_edge_rank_budget(self, monkeypatch):
        # a factor that needs more columns than the budget is refused, and
        # the message names the rank reached
        monkeypatch.setattr(chain, "_EDGE_RANK_BUDGET", 4)
        with pytest.raises(ResolutionError, match="r = 4 columns"):
            nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 400))

    @pytest.mark.parametrize(
        "g,h,L",
        [
            (0.5, 1.0, 1),
            (0.9, 1.8, 40),
            (0.5, 1.0, 40),
            (0.7, 2.5, 40),
            (0.02, 0.6, 200),
            # slow decay near h = 2: rho = 0.990, a 7500-point grid
            (0.5, 1.99, 50),
        ],
    )
    def test_matches_majorana_oracle(self, g, h, L):
        # singular values of G against the nonnegative eigenvalues of i B_L
        nus = nu_spectrum(build_correlation_matrix(ModelParams(g, h), L))
        want = np.linalg.eigvalsh(1j * majorana_matrix(g, h, L))[L:][::-1]
        assert np.max(np.abs(nus.nus - want)) < 1e-13

    @pytest.mark.parametrize(
        "g,h,L",
        [(0.5, 1.5, 400), (0.5, 1.5, 800), (0.6, 2.5, 400), (0.6, 2.5, 800), (0.5, 1.0, 800),
         (0.5, 1.9, 800), (0.5, 1.0, 100), (0.9, 1.8, 400)],
    )
    def test_converged_block_meets_limit(self, g, h, L):
        # converged blocks (rho^(2L) far below 1e-16): the edge route leaves
        # the trivial modes at exactly 1 and keeps the genuine ones, among
        # them (0.5, 1.0)'s ladder pair at 1 - 92 eps, worth 6.9e-13 of S at
        # L = 100; the SVD of G was off by 4.6e-13 to 2.0e-12 here.  At
        # (0.5, 1.9) an edge factor stopped at 1e-15 instead of 1e-16 drops
        # modes worth -1.1e-13
        p = ModelParams(g, h)
        lim = vn_entropy_limit_series(modulus_k(p), classify_case(p).sigma).value
        s = vn_entropy_exact(nu_spectrum(build_correlation_matrix(p, L))).value
        assert abs(s - lim) <= 1e-13

    @pytest.mark.parametrize("L", [40, 100, 400, 800])
    @pytest.mark.parametrize("g,h", [(0.5, 1.0), (0.9, 1.8)])
    def test_zero_mode_matches_svd(self, g, h, L):
        # the smallest nu, near 0, comes from G^T U, not from
        # sqrt(1 - delta), which would keep only half its digits
        c = build_correlation_matrix(ModelParams(g, h), L)
        nus = nu_spectrum(c).nus
        least = np.linalg.svd(toeplitz_gather(c.coefficients, L), compute_uv=False)[-1]
        assert abs(nus[-1] - least) <= 10 * np.finfo(float).eps

    def test_near_critical_block_scales(self):
        # (0.5, 1.999), L = 12800: K = 36805 and an 87,480-point grid; the
        # edge route never forms the 1.3 GB block
        p = ModelParams(0.5, 1.999)
        L = 12800
        tracemalloc.start()
        try:
            nus = nu_spectrum(build_correlation_matrix(p, L))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * L * L / 20
        lim = vn_entropy_limit_series(modulus_k(p), classify_case(p).sigma).value
        assert abs(vn_entropy_exact(nus).value - lim) <= 2e-12

    @pytest.mark.parametrize(
        "g,h,L,s_tol",
        [
            # L (n - L) = 1,656, 14,000 and 27,200: direct columns by default
            (0.5, 1.0, 12, 1e-15),
            (0.5, 1.0, 100, 1e-15),
            (0.9, 1.8, 40, 1e-15),
            # 160,000, 372,500 (a 7500-point grid) and 737,600: FFT columns
            (0.5, 1.0, 400, 1e-15),
            (0.5, 1.99, 50, 1e-15),
            # S = 1.75 from 37 pivots: the FFT form reads -8.9e-15 and the
            # direct one +1.3e-15 off a 40-digit S of the same coefficients
            (0.02, 0.6, 200, 2e-14),
        ],
    )
    def test_column_forms_agree(self, monkeypatch, g, h, L, s_tol):
        # every block read with direct columns and with FFT columns, the
        # G^T U product of the small nu taking the same form as the pivot
        # columns: the same rank, nu within 1.0e-15 (3.3e-16 seen) and the
        # same S
        c = build_correlation_matrix(ModelParams(g, h), L)
        ranks = _edge_ranks(monkeypatch)
        spectra = []
        for cap in (2 ** 62, 0):
            monkeypatch.setattr(chain, "_DIRECT_COLUMN_MAX", cap)
            spectra.append(nu_spectrum(c))
        direct, fft = spectra
        assert ranks[0] == ranks[1]
        assert np.max(np.abs(direct.nus - fft.nus)) <= 1e-15
        assert abs(vn_entropy_exact(direct).value - vn_entropy_exact(fft).value) <= s_tol

    @pytest.mark.parametrize("g,h,L,direct", [(0.5, 1.0, 100, True), (0.9, 1.8, 40, True),
                                              (0.5, 1.0, 400, False), (0.5, 1.99, 50, False)])
    def test_columns_routed_by_block_size(self, monkeypatch, g, h, L, direct):
        # below the crossover neither a pivot nor G^T U takes an FFT pair,
        # so no irfft runs at all.  Above it each of the r pivots takes
        # one, and G^T U at most one 2-D irfft
        c = build_correlation_matrix(ModelParams(g, h), L)
        n = c.coefficients.size
        assert (L * (n - L) <= chain._DIRECT_COLUMN_MAX) == direct
        ranks = _edge_ranks(monkeypatch)
        outputs = _counting_irfft(monkeypatch)
        nu_spectrum(c)
        pivots = sum(o.ndim == 1 for o in outputs)
        if direct:
            assert outputs == []
        else:
            assert pivots == ranks[0] and len(outputs) - pivots <= 1

    @pytest.mark.parametrize("L", [100, 400])
    def test_edge_modes_keep_failed_solve_guard(self, monkeypatch, L):
        # the edge route's r modes reach NuSpectrum without from_nus, under
        # its rule: a singular value of G^T U at 1 + 1e-7 is a failed solve,
        # and a factor singular value s = 1e-9, whose sqrt(1 - s^2) rounds
        # to 1.0, is a trivial mode, counted in n_plus.  L = 100 takes
        # direct columns, L = 400 FFT ones
        c = build_correlation_matrix(ModelParams(0.5, 1.0), L)
        base = nu_spectrum(c)
        assert base.modes[0] < 1.0 and base.modes[-1] < 0.7  # a mode from G^T U
        svd = np.linalg.svd

        def gtu_over_one(a, compute_uv=True, **kwargs):
            out = svd(a, compute_uv=compute_uv, **kwargs)
            return out if compute_uv else np.concatenate(([1.0 + 1e-7], out[1:]))

        def factor_near_zero(a, compute_uv=True, **kwargs):
            out = svd(a, compute_uv=compute_uv, **kwargs)
            return (out[0], np.concatenate((out[1][:-1], [1e-9])), out[2]) if compute_uv else out

        monkeypatch.setattr(np.linalg, "svd", gtu_over_one)
        with pytest.raises(SpectrumRangeError, match="beyond tolerance"):
            nu_spectrum(c)
        monkeypatch.setattr(np.linalg, "svd", factor_near_zero)
        spec = nu_spectrum(c)
        assert (len(spec), spec.n_plus, spec.n_minus) == (L, base.n_plus + 1, 0)
        assert np.array_equal(spec.modes, base.modes[1:])

    def test_direct_columns_form_no_tail(self):
        # (0.02, 0.6), L = 35, on a 3750-point grid: L (n - L) just under
        # the crossover, and no L x (n - L) array (1.04 MB) is formed
        c = build_correlation_matrix(ModelParams(0.02, 0.6), 35)
        L, n = c.L, c.coefficients.size
        assert 0.99 * chain._DIRECT_COLUMN_MAX < L * (n - L) <= chain._DIRECT_COLUMN_MAX
        nu_spectrum(c)  # first-call costs outside the trace
        tracemalloc.start()
        try:
            nu_spectrum(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * L * (n - L)

    @pytest.mark.parametrize("L", [12, 129, 256, 1600])
    @pytest.mark.parametrize("g,h", [(0.9, 1.8), (0.5, 1.0)])
    def test_edge_route_assembles_its_ladder(self, g, h, L):
        # the edge route holds its r modes below 1 and counts the L - r
        # trivial ones; its ladder is those 1.0s, then the modes
        spec = nu_spectrum(build_correlation_matrix(ModelParams(g, h), L))
        r = spec.modes.size
        assert (spec.n_plus, spec.n_minus, len(spec)) == (L - r, 0, L)
        assert np.all((0.0 <= spec.modes) & (spec.modes < 1.0))
        assert np.array_equal(spec.nus, np.concatenate((np.ones(L - r), spec.modes)))
        assert np.all(np.diff(spec.nus) <= 0.0)

    @pytest.mark.parametrize("g,h,L", [(0.5, 1.0, 800), (0.01, 1.0, 1600)])
    def test_edge_entropy_is_its_delta_sum(self, g, h, L):
        # S from the spectrum's own delta, each mode's e(1, sqrt(1 - delta))
        # summed at 30 digits, within 1e-15 of max(1, S); (0.01, 1.0), with
        # S = 1.95, has three modes with delta > 1/2, whose nu come from
        # G^T U
        spec = nu_spectrum(build_correlation_matrix(ModelParams(g, h), L))
        with mpmath.workdps(30):
            want = 0
            for d in spec.delta:
                nu = mpmath.sqrt(1 - mpmath.mpf(float(d)))
                p, q = (1 + nu) / 2, (1 - nu) / 2
                want -= p * mpmath.log(p) + q * mpmath.log(q)
        assert abs(vn_entropy_exact(spec).value - float(want)) <= 1e-15 * max(1.0, float(want))

    def test_from_nus_counts_and_clamps(self):
        spec = NuSpectrum.from_nus(np.array([0.5, 1.0 + 1e-9, -1.0 - 1e-9, 1.0, -0.25]))
        assert (spec.n_plus, spec.n_minus, len(spec)) == (2, 1, 5)
        assert np.array_equal(spec.modes, [0.5, -0.25])
        assert np.array_equal(spec.delta, [0.75, 0.9375])
        assert np.array_equal(spec.nus, [1.0, 1.0, 0.5, -0.25, -1.0])

    @pytest.mark.parametrize(
        "nus", [[math.nan, 0.5], [0.5, -math.inf], [1.5, 0.5], [0.2, -1.0 - 1e-7]]
    )
    def test_from_nus_refuses(self, nus):
        # a NaN used to drop out of the entropy sums, and a 1.5 gave a
        # finite XY determinant
        with pytest.raises(SpectrumRangeError):
            NuSpectrum.from_nus(np.array(nus))

    @pytest.mark.parametrize(
        "modes,counts",
        [
            ([math.nan, 0.5], (0, 0)),
            ([math.inf], (0, 0)),
            ([1.5, 0.5], (0, 0)),
            ([1.0, 0.5], (0, 0)),  # a mode at |nu| = 1 is trivial: counted, not held
            ([0.2, 0.5], (0, 0)),  # modes must descend
            ([[0.5]], (0, 0)),
            ([0.5], (-1, 0)),
            ([0.5], (0, -1)),
            ([0.5, -1.0], (0, 0)),
        ],
    )
    def test_constructor_refuses(self, modes, counts):
        with pytest.raises(SpectrumRangeError):
            NuSpectrum(np.array(modes), *counts)

    def test_delta_derived_from_modes(self):
        spec = NuSpectrum(np.array([1.0 - 2.0 ** -52, 0.5, -0.25]), 2, 1)
        assert np.array_equal(spec.delta, [(2.0 ** -52) * (2.0 - 2.0 ** -52), 0.75, 0.9375])
        assert spec.delta.min() > 0.0


# Per range of block lengths: the lengths drawn, and the bounds on the
# spread of S and of Renyi 2 along a level set of k, pinned tight.  The
# worst spreads were 9.1e-15 and 6.7e-16 over 600 draws at L = 200 and 400,
# and 1.78e-14 and 1.22e-15 over 6000 draws at L = 40-128.
_LEVEL_RANGES = {
    "long": (st.sampled_from((200, 400)), 1.5e-14, 1.5e-15),
    "short": (st.integers(40, 128), 2e-14, 1.5e-15),
}


@pytest.mark.parametrize("span", sorted(_LEVEL_RANGES))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.floats(0.2, 0.95), hs=st.lists(st.floats(0.0, 1.9), min_size=3, max_size=3),
       data=st.data())
def test_level_set_of_k(span, k, hs, data):
    # in case 1b, gamma = sqrt((1 - k^2)(1 - h^2/4)) holds k fixed as h moves,
    # and the block-length limit depends on k alone, so exact S at a
    # converged L (rho^(2L) <= 1e-17) is the same at three such points of
    # different symbols; no limit code enters
    lengths, s_tol, r_tol = _LEVEL_RANGES[span]
    L = data.draw(lengths)
    points = [(math.sqrt((1.0 - k * k) * (1.0 - h * h / 4.0)), h) for h in hs]
    assume(all(sums_converged(chain._branch_rho(g, h), L) for g, h in points))
    nus = [nu_spectrum(build_correlation_matrix(ModelParams(g, h), L)) for g, h in points]
    s = [vn_entropy_exact(n).value for n in nus]
    r = [renyi_exact(n, 2.0).value for n in nus]
    assert max(s) - min(s) <= s_tol
    assert max(r) - min(r) <= r_tol


# Per range of block lengths: the lengths drawn, and the bounds on
# |S - limit| and on the Renyi 2 and 3 gaps at converged blocks
# (rho^(2L) <= 1e-17) over the plane, pinned here.  The worst gaps were
# 9.5e-14 and 6.4e-15 over 6500 random draws at L = 129-800, and 1.54e-14
# and 1.22e-15 over 13000 at L = 20-128.  The worst is the edge route's
# stop at _EDGE_TOL = 1e-16, which drops genuine edge modes near
# criticality: S - limit is -9.5e-14 at (0.649, 2.037), L = 697, and
# -6.2e-15 when the route stops at 1e-17 instead.
_LIMIT_RANGES = {
    "long": (129, 800, 9.6e-14, 6.5e-15),
    "short": (20, 128, 2e-14, 1.5e-15),
}


@pytest.mark.parametrize("span", sorted(_LIMIT_RANGES))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(0.01, 1.6), h=st.floats(0.0, 3.0), data=st.data())
def test_converged_blocks_meet_limit_over_plane(span, gamma, h, data):
    # exact S, Renyi 2 and Renyi 3 at a block converged for sums, against
    # the limit forms; L is drawn from the least length sums_converged
    # admits, solved for here, up
    lo, hi, s_tol, r_tol = _LIMIT_RANGES[span]
    rho = chain._branch_rho(gamma, h)
    # rho is 1 on a critical manifold, and 0 only at (1, 0), which lies on the
    # circle h^2 = 4(1 - gamma^2) (a BoundaryError)
    assume(0.0 < rho < 1.0)
    least = math.ceil(17.0 * math.log(10.0) / (-2.0 * math.log(rho)))
    assume(least <= hi)
    L = data.draw(st.integers(max(lo, least), hi))
    assume(sums_converged(rho, L))
    p = ModelParams(gamma, h)
    case, e = classify_case(p), modulus_k(p)
    nus = nu_spectrum(build_correlation_matrix(p, L))
    assert abs(vn_entropy_exact(nus).value - vn_entropy_limit_series(e, case.sigma).value) <= s_tol
    for alpha in (2.0, 3.0):
        gap = renyi_exact(nus, alpha).value - renyi_limit_qproduct(alpha, e, case).value
        assert abs(gap) <= r_tol


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_PLANE, st.sampled_from((1, 2, 3, 17, 64, 129, 200, 400, 800)))
def test_xy_nus_match_svd_over_plane(point, L):
    # the edge route against the singular values of G, taken as the upper
    # half of the eigenvalues of the symmetric [[0, G], [G^T, 0]]: within
    # 2.4 sqrt(L) eps of a 34-digit SVD over 40 blocks at L = 3-64, where
    # LAPACK's SVD was up to 10.6 sqrt(L) eps off (at (1.0, 1.0), L = 17,
    # it put a trivial mode at 1 - 44 eps).  The edge route snaps nothing;
    # it was within 2.9 sqrt(L) eps of this reference over 150 draws at
    # L = 129-800, and within 3.1 sqrt(L) eps over 1000 draws at L = 1-800
    try:
        c = build_correlation_matrix(ModelParams(*point), L)
    except XyentError:
        return
    nus = nu_spectrum(c).nus
    assert nus.shape == (L,)
    assert np.all(np.diff(nus) <= 0.0)
    dilation = np.zeros((2 * L, 2 * L))
    block = toeplitz_gather(c.coefficients, L)
    dilation[:L, L:] = block
    dilation[L:, :L] = block.T
    want = np.linalg.eigvalsh(dilation)[L:][::-1]
    assert np.max(np.abs(nus - want)) <= 8.0 * math.sqrt(L) * np.finfo(float).eps


@st.composite
def _ladders(draw):
    """A ladder of L values in [-1, 1]: runs at +1 and -1, and the rest
    uniform, or within 1e-16 to 1e-1 of +-1, in random order."""
    L = draw(st.integers(1, 300))
    n_plus = draw(st.integers(0, L))
    n_minus = draw(st.integers(0, L - n_plus))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(-1.0, 1.0, L - n_plus - n_minus)
    near = rng.random(x.size) < 0.3
    x[near] = np.sign(x[near]) * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0, np.count_nonzero(near)))
    x = np.concatenate((np.ones(n_plus), x, -np.ones(n_minus)))
    rng.shuffle(x)
    return x


def _log_close(got, want: complex, tol: float) -> bool:
    # a (log_abs, phase) pair against a complex log, the phase mod 2 pi
    err = max(abs(got.log_abs - want.real),
              abs((got.phase - want.imag + math.pi) % (2.0 * math.pi) - math.pi))
    return err <= tol * max(1.0, abs(want))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ladders(), st.complex_numbers(max_magnitude=3.0).filter(lambda z: abs(z.imag) >= 0.05))
def test_from_nus_over_ladders(x, lam):
    # every reader of the spectrum against its direct formula over the
    # ladder x, with p, q = (1 +- x)/2
    spec = NuSpectrum.from_nus(x)
    assert np.array_equal(spec.nus, np.sort(x)[::-1]) and len(spec) == x.size
    p, q = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    inner = np.abs(x) < 1.0
    s = -np.sum(p[inner] * np.log(p[inner]) + q[inner] * np.log(q[inner]))
    assert abs(vn_entropy_exact(spec).value - s) <= 1e-13
    for a in (0.5, 2.0, 3.0):
        want = np.sum(np.log(p ** a + q ** a)) / (1.0 - a)
        assert abs(renyi_exact(spec, a).value - want) <= 1e-13 * max(1.0, abs(want))
    s_lam = SpectralParameter(lam)
    assert _log_close(xx_char_det_exact(spec, s_lam), complex(np.sum(np.log(lam - x))), 1e-13)
    want = complex(np.sum(np.log(lam * lam - x * x))) + 1j * math.pi * x.size
    assert _log_close(xy_block_det_exact(spec, s_lam), want, 1e-13)
    # the top 16 eigenvalues only flip the 16 cheapest modes, those of least |x|
    ax = np.sort(np.abs(x[inner]))
    top = np.sort(brute_density_probs(ax[:16]))[::-1][:16] * np.prod((1.0 + ax[16:]) / 2.0)
    top = np.concatenate((top, np.zeros(16 - top.size)))
    got = finite_l_eigenvalues(spec, 16)
    assert np.max(np.abs(got - top)) <= 1e-13 * top[0]
