import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xyent import (
    CASE_1B,
    CASE_2,
    ConvergenceError,
    DomainError,
    ModelParams,
    NuSpectrum,
    build_correlation_matrix,
    classify_case,
    density_spectrum,
    finite_l_eigenvalues,
    modulus_k,
    multiplicities,
    multiplicity_asymptotic,
    nu_spectrum,
    renyi_limit_modular,
    renyi_limit_qproduct,
    required_nmax,
    vn_entropy_closed,
    vn_entropy_limit_integral,
    vn_entropy_limit_series,
    XyentError,
    zeta_function,
)
from xyent import EllipticModulus, special, spectrum
from oracles import (
    brute_density_probs,
    brute_partition_count,
    convolved_multiplicities,
    doubling_required_nmax,
    dp_partition_counts,
    ln_lambda0_mp,
    plane,
)

# nmax at which the packed product is checked against the knapsack oracle
PACKED_NMAX = [*range(81), 500, 1000, 2000]


class TestPartitions:
    # the partition counts enter only through the multiplicities, the pair
    # sums (1 + sigma) sum_l p(l) p(n - l)
    @pytest.mark.parametrize("kind", ["Distinct", "DistinctOdd"])
    def test_against_enumeration(self, kind):
        sigma = int(kind == "Distinct")
        p = [brute_partition_count(kind, n) for n in range(31)]
        want = [(1 + sigma) * sum(p[l] * p[n - l] for l in range(n + 1)) for n in range(31)]
        assert multiplicities(CASE_1B if sigma else CASE_2, 30) == want

    def test_known_values(self):
        # distinct odd partitions of 0..4: 1, 1, 0, 1, 1 (4 = 3 + 1), so
        # m_4 = 1 + 1 + 0 + 1 + 1 pairs
        assert multiplicities(CASE_2, 4) == [1, 2, 1, 2, 4]
        # distinct partitions of 0..3: 1, 1, 1, 2 (3 and 2 + 1), each pair doubled
        assert multiplicities(CASE_1B, 3) == [2, 4, 6, 12]

    def test_exact_integers(self):
        m = multiplicities(CASE_1B, 400)[400]
        assert isinstance(m, int)
        assert m == 67937091427596141060  # exact: 66 bits, which no float holds

    def test_validation(self):
        for nmax in (-1, 2.5):
            with pytest.raises(DomainError):
                multiplicities(CASE_1B, nmax)


@functools.lru_cache(maxsize=None)
def _oracle_counts(sigma: int) -> tuple[list[int], list[int]]:
    # (partition counts, multiplicities) to PACKED_NMAX's largest; each
    # entry is independent of the truncation, so smaller nmax read a prefix
    kind = "Distinct" if sigma == 1 else "DistinctOdd"
    return dp_partition_counts(kind, PACKED_NMAX[-1]), convolved_multiplicities(sigma, PACKED_NMAX[-1])


class TestPackedProduct:
    @pytest.mark.parametrize("case", [CASE_2, CASE_1B], ids=["sigma0", "sigma1"])
    def test_equals_knapsack_and_convolution(self, case):
        mults = _oracle_counts(case.sigma)[1]
        for nmax in PACKED_NMAX:
            assert multiplicities(case, nmax) == mults[:nmax + 1], nmax

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_slot_wider_than_every_coefficient(self, sigma):
        # the pair sums m_n / (1 + sigma) are the largest integers a slot holds
        counts, mults = _oracle_counts(sigma)
        for nmax in PACKED_NMAX:
            pairs = max(m // (1 + sigma) for m in mults[:nmax + 1])
            assert pairs >= max(counts[:nmax + 1])
            assert spectrum._slot_bits(nmax, sigma) > pairs.bit_length(), nmax

    def test_faster_than_knapsack(self):
        # one packed product against the O(nmax^2) loops, identical
        # integers; work counted as interpreted line events, not timed, so
        # a loaded machine cannot flip it: O(nmax) for the packed product,
        # O(nmax^2) for the knapsack and its convolution
        def line_events(f):
            events = [0]

            def tracer(frame, event, arg):
                events[0] += event == "line"
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                out = f()
            finally:
                sys.settrace(previous)
            return events[0], out

        packed, mults = line_events(lambda: multiplicities(CASE_1B, 1000))
        loops, want = line_events(lambda: convolved_multiplicities(1, 1000))
        assert mults == want
        assert packed * 4 <= loops


class TestMultiplicities:
    def test_first_values_sigma0(self):
        assert multiplicities(CASE_2, 6) == [1, 2, 1, 2, 4, 4, 5]

    def test_first_values_sigma1(self):
        # doubled convolution of distinct-part counts
        assert multiplicities(CASE_1B, 5) == [2, 4, 6, 12, 18, 28]

    def test_asymptotic_ratio_improves(self):
        mm = multiplicities(CASE_2, 400)
        r100 = mm[100] / multiplicity_asymptotic(100)
        r400 = mm[400] / multiplicity_asymptotic(400)
        assert abs(r400 - 1.0) < abs(r100 - 1.0)

    def test_envelope_constant(self):
        # the tail validator assumes m_n <= 2 e^{E(n)}; check on both kinds
        for case, scale in ((CASE_2, 1.0), (CASE_1B, 2.0)):
            mm = multiplicities(case, 500)
            for n in range(1, 501):
                env = 2.0 * math.exp(math.pi * math.sqrt(scale * n / 3.0))
                assert mm[n] <= env

    def test_validation(self):
        with pytest.raises(DomainError):
            multiplicity_asymptotic(0)


class TestDensitySpectrum:
    def test_trace_normalized(self):
        for g, h in ((0.5, 1.0), (1.0, 3.0)):
            spec = density_spectrum(ModelParams(g, h), nmax=64)
            assert zeta_function(spec, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_ratio_consistency(self):
        spec = density_spectrum(ModelParams(1.0, 3.0), nmax=8)
        assert spec.lambdas[1] / spec.lambdas[0] == pytest.approx(spec.ratio, rel=1e-12, abs=0)
        assert spec.loglambdas[3] == pytest.approx(math.log(spec.lambdas[3]), rel=1e-12, abs=0)

    def test_largest_eigenvalue_values(self):
        p = ModelParams(1.0, 3.0)
        e = modulus_k(p)
        spec = density_spectrum(p, nmax=4)
        want = math.exp(math.pi * e.tau0 / 12.0) * (e.k * e.kprime / 4.0) ** (1.0 / 6.0)
        assert spec.lambdas[0] == pytest.approx(want, rel=1e-12, abs=0)

    def test_sigma1_ladder_spacing(self):
        p = ModelParams(0.5, 1.0)
        e = modulus_k(p)
        spec = density_spectrum(p, nmax=4)
        assert spec.ratio == pytest.approx(math.exp(-2.0 * math.pi * e.tau0), rel=1e-12, abs=0)

    def test_critical_rejected(self):
        with pytest.raises(DomainError):
            density_spectrum(ModelParams(0.0, 1.0))
        with pytest.raises(DomainError):
            density_spectrum(ModelParams(0.5, 2.0))


# The plane and its boundary approaches, and case 2 out to h = 2 + 10^6,
# where k -> 0 and ln lambda_0 is what is left of pi tau0/12 + ln(k k'/4)/6.
_LADDER_TOPS = st.one_of(
    plane(h2_depth=9, gamma_depth=7),
    st.tuples(st.floats(1e-3, 2.0), st.floats(0.3, 6.0).map(lambda u: 2.0 + 10.0 ** u)),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_LADDER_TOPS)
@example((0.001, 1e6))  # k = 2e-9, ln lambda_0 = -5.0e-19
def test_ln_lambda0_matches_mpmath_over_plane(point):
    # within 4.4e-16 of 60-digit mpmath relative to max(1, |ln lambda_0|),
    # and never above 0, so lambda_0 never rounds above 1 (the worst over
    # 782 points was 2.2e-16; the two-term form at every tau0 reaches 1.3e-15)
    try:
        got = density_spectrum(ModelParams(*point), 1).loglambdas[0]
    except XyentError:
        return
    want = ln_lambda0_mp(*point)
    assert got <= 0.0
    assert abs(got - want) <= 4.4e-16 * max(1.0, abs(want))


def test_ladder_nome_summed_once_per_modulus(monkeypatch):
    # a limit point's calls as the bench makes them, at tau0 = 1.05: every
    # reader of ln lambda_0 or ln k^2 takes the nome sum at e^{-pi tau0} from
    # its modulus, summed once each for the point's modulus and the one
    # density_spectrum builds; the modular form sums its own nome, at
    # alpha tau0 or its inverse, once per order
    sums = []
    nome_log_sum = special._nome_log_sum
    monkeypatch.setattr(special, "_nome_log_sum", lambda q: sums.append(q) or nome_log_sum(q))
    p = ModelParams(1.0, 3.0)
    case, e = classify_case(p), modulus_k(p)
    assert e.tau0 >= 1.0
    vn_entropy_limit_series(e, case.sigma)
    vn_entropy_limit_integral(e, case.sigma)
    vn_entropy_closed(e, case)
    alphas = (0.5, 2.0, 3.0, 10.0)
    for a in alphas:
        renyi_limit_qproduct(a, e, case)
        renyi_limit_modular(a, e, case)
    spec = density_spectrum(p, required_nmax(e, case, 1.0))
    zeta_function(spec, 1.0)
    zeta_function(spec, 2.0)
    q0 = math.exp(-math.pi * e.tau0)
    assert sums.count(q0) == 2
    assert sorted(q for q in sums if q != q0) == sorted(
        math.exp(-math.pi * max(a * e.tau0, 1.0 / (a * e.tau0))) for a in alphas)


class TestZeta:
    def test_matches_renyi(self):
        for g, h in ((0.5, 1.0), (1.0, 3.0)):
            p = ModelParams(g, h)
            c = classify_case(p)
            e = modulus_k(p)
            spec = density_spectrum(p, nmax=96)
            for a in (0.5, 2.0, 3.0):
                want = math.exp((1.0 - a) * renyi_limit_qproduct(a, e, c).value)
                assert zeta_function(spec, a) == pytest.approx(want, abs=1e-10)

    def test_entropy_from_zeta_derivative_sign(self):
        # zeta is decreasing in alpha for a normalized spectrum
        spec = density_spectrum(ModelParams(1.0, 3.0), nmax=64)
        assert zeta_function(spec, 2.0) > zeta_function(spec, 3.0)

    def test_tail_guard_small_alpha(self):
        spec = density_spectrum(ModelParams(1.0, 3.0), nmax=64)
        with pytest.raises(ConvergenceError):
            zeta_function(spec, 0.05)

    def test_required_nmax_budget(self):
        # alpha = 5e-4 needs nmax near 2e6, past the search budget
        p = ModelParams(1.0, 3.0)
        with pytest.raises(ConvergenceError, match=r"budget of 10\^6") as err:
            required_nmax(modulus_k(p), classify_case(p), 5e-4)
        assert "alpha = 0.0005" in str(err.value)

    def test_required_nmax_refuses_in_few_bounds(self, monkeypatch):
        # the search needs O(log nmax) tail bounds, not one per nmax
        calls = []
        bound = spectrum._tail_bound
        monkeypatch.setattr(spectrum, "_tail_bound", lambda *a: calls.append(a) or bound(*a))
        p = ModelParams(1.0, 3.0)
        with pytest.raises(ConvergenceError, match=r"budget of 10\^6"):
            required_nmax(modulus_k(p), classify_case(p), 5e-4)
        assert len(calls) <= 25

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("g,h", [(1.0, 3.0), (0.5, 1.0), (0.9, 1.8), (0.2, 0.3), (1.5, 2.2)])
    def test_required_nmax_equals_linear_scan(self, g, h, j):
        # alpha = 10^(-j/4): the least nmax the scan over 1, 2, ... finds
        p = ModelParams(g, h)
        e, case, alpha = modulus_k(p), classify_case(p), 10.0 ** (-j / 4.0)
        loglam0, c = spectrum._ladder_params(e, case.sigma)
        tol = spectrum._ZETA_TAIL_TOL * math.exp(alpha * loglam0)
        want = next(n for n in range(1, 10 ** 6)
                    if spectrum._tail_bound(loglam0, c, alpha, case.sigma, n + 1) <= tol)
        assert required_nmax(e, case, alpha) == want

    def test_required_nmax_clears_guard(self):
        p = ModelParams(1.0, 3.0)
        c = classify_case(p)
        e = modulus_k(p)
        n = required_nmax(e, c, 0.5)
        spec = density_spectrum(p, nmax=n)
        zeta_function(spec, 0.5)  # does not raise

    def test_order_validation(self):
        spec = density_spectrum(ModelParams(1.0, 3.0), nmax=16)
        with pytest.raises(DomainError):
            zeta_function(spec, 0.0)


def _modulus_at(tau0: float) -> EllipticModulus:
    # k and k' from the theta constants at q = e^{-pi tau0}, at 30 digits,
    # whose own tau0 is tau0 to rounding; k is kept below 1 where it would
    # round there
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.pi * tau0)
        t2, t3, t4 = (mpmath.jtheta(j, 0, q) for j in (2, 3, 4))
        k, kprime = float((t2 / t3) ** 2), float((t4 / t3) ** 2)
    return EllipticModulus(min(k, math.nextafter(1.0, 0.0)), kprime)


class TestRequiredNmaxSearch:
    def test_equals_doubling_search(self, monkeypatch):
        # the closed-form start and its local check give the least nmax the
        # doubling-then-bisection search finds, in O(log nmax) tail bounds
        calls = []
        bound = spectrum._tail_bound
        monkeypatch.setattr(spectrum, "_tail_bound", lambda *a: calls.append(a) or bound(*a))
        worst = 0
        for tau0 in np.geomspace(0.05, 20.0, 41):
            e = _modulus_at(float(tau0))
            for case in (CASE_2, CASE_1B):
                loglam0, c = spectrum._ladder_params(e, case.sigma)
                for alpha in (0.3, 0.5, 1.0, 2.0, 10.0):
                    tol = spectrum._ZETA_TAIL_TOL * math.exp(alpha * loglam0)
                    want = doubling_required_nmax(
                        lambda n: bound(loglam0, c, alpha, case.sigma, n + 1) <= tol,
                        spectrum._NMAX_BUDGET)
                    calls.clear()
                    got = required_nmax(e, case, alpha)
                    assert got == want, (float(tau0), case.sigma, alpha)
                    assert len(calls) <= 2 * math.ceil(math.log2(got + 1)) + 2
                    worst = max(worst, len(calls))
        assert worst >= 3  # some starts do miss the boundary and gallop

    @pytest.mark.parametrize("boundary", [0, 1, 2, 3, 9, 10, 11, 999, 12345, 10 ** 6 - 1])
    def test_finds_any_boundary(self, monkeypatch, boundary):
        # with a step for the tail bound, the search returns the step's
        # place from its closed-form start (nmax 10 here) above it (galloping
        # down), at it, or below it
        e = _modulus_at(1.0)
        monkeypatch.setattr(spectrum, "_tail_bound",
                            lambda *a: 0.0 if a[-1] - 1 >= boundary else math.inf)
        assert required_nmax(e, CASE_2, 1.0) == max(boundary, 1)

    @pytest.mark.parametrize("alpha", [56.2, 100.0])
    def test_lambda0_cancels_where_its_power_underflows(self, alpha):
        # alpha ln lambda_0 < -745 (tau0 = 0.0157): lambda_0^alpha is 0.0 in
        # double, yet the truncation is the one its tail needs (a test scaled
        # by that power passed every nmax, and returned 1), and zeta_function
        # on that ladder passes its own tail bound.  The reference divides
        # lambda_0^alpha out of the bound and of the tolerance alike
        e = EllipticModulus(math.nextafter(1.0, 0.0), 1e-43)
        loglam0, c = spectrum._ladder_params(e, 0)
        assert alpha * loglam0 < -745.2
        want = doubling_required_nmax(
            lambda n: spectrum._tail_bound(0.0, c, alpha, 0, n + 1) <= spectrum._ZETA_TAIL_TOL,
            spectrum._NMAX_BUDGET)
        n = required_nmax(e, CASE_2, alpha)
        assert n == want > 1
        spec = spectrum.DensitySpectrum(e, 0, n)
        assert spec.truncation == n and spec.loglambdas[0] == loglam0
        assert zeta_function(spec, alpha) == 0.0

    def test_never_zero(self):
        # a ladder whose bound clears already at nmax = 0 still gets one rung
        # past the top
        e = _modulus_at(20.0)
        loglam0, c = spectrum._ladder_params(e, 1)
        assert spectrum._tail_bound(loglam0, c, 10.0, 1, 1) <= (
            spectrum._ZETA_TAIL_TOL * math.exp(10.0 * loglam0))
        assert required_nmax(e, CASE_1B, 10.0) == 1


class TestFiniteLEigenvalues:
    def test_against_brute_force(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 6))
        got = finite_l_eigenvalues(nus, 12)
        want = np.sort(brute_density_probs(nus.nus))[::-1][:12]
        assert np.allclose(got, want, rtol=1e-12)

    def test_descending(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(1.0, 3.0), 12))
        got = finite_l_eigenvalues(nus, 20)
        assert np.all(np.diff(got) <= 1e-18)

    def test_exact_one_modes_change_nothing(self):
        # a mode with |nu| = 1 has factors 1 and 0: appending such modes
        # leaves the top of the spectrum where it was
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.9, 1.8), 40))
        padded = NuSpectrum.from_nus(np.concatenate((np.ones(300), nus.nus, -np.ones(5))))
        got = finite_l_eigenvalues(padded, 16)
        assert np.allclose(got, finite_l_eigenvalues(nus, 16), rtol=4e-15, atol=0.0)

    def test_count_exceeding_subsets_pads(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 3))
        got = finite_l_eigenvalues(nus, 20)
        assert got.size == 20
        assert got[8:].max() == 0.0  # only 2^3 genuine values

    def test_validation(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 3))
        with pytest.raises(DomainError):
            finite_l_eigenvalues(nus, 0)
