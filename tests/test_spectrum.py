import math

import numpy as np
import pytest

from xyent import (
    CASE_1B,
    CASE_2,
    ConvergenceError,
    DomainError,
    ModelParams,
    build_correlation_matrix,
    classify_case,
    density_spectrum,
    finite_l_eigenvalues,
    modulus_k,
    multiplicities,
    multiplicity_asymptotic,
    nu_spectrum,
    partition_counts,
    renyi_limit_qproduct,
    required_nmax,
    vn_entropy_limit_series,
    zeta_function,
)
from oracles import brute_density_probs, brute_partition_count


class TestPartitions:
    @pytest.mark.parametrize("kind", ["Distinct", "DistinctOdd"])
    def test_against_enumeration(self, kind):
        counts = partition_counts(kind, 30)
        for n in range(31):
            assert counts[n] == brute_partition_count(kind, n)

    def test_known_values(self):
        # distinct partitions of 6: 6, 5+1, 4+2, 3+2+1
        assert partition_counts("Distinct", 6)[6] == 4
        # distinct odd partitions of 8: 7+1, 5+3
        assert partition_counts("DistinctOdd", 8)[8] == 2

    def test_exact_integers(self):
        c = partition_counts("Distinct", 400)[400]
        assert isinstance(c, int)
        assert c == 11962163400706  # exact, no float rounding anywhere

    def test_validation(self):
        with pytest.raises(DomainError):
            partition_counts("odd", 5)
        with pytest.raises(DomainError):
            partition_counts("Distinct", -1)


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
        assert spec.lambdas[1] / spec.lambdas[0] == pytest.approx(spec.ratio, rel=1e-12)
        assert spec.loglambdas[3] == pytest.approx(math.log(spec.lambdas[3]), rel=1e-12)

    def test_largest_eigenvalue_values(self):
        p = ModelParams(1.0, 3.0)
        e = modulus_k(p)
        spec = density_spectrum(p, nmax=4)
        want = math.exp(math.pi * e.tau0 / 12.0) * (e.k * e.kprime / 4.0) ** (1.0 / 6.0)
        assert spec.lambdas[0] == pytest.approx(want, rel=1e-12)

    def test_sigma1_ladder_spacing(self):
        p = ModelParams(0.5, 1.0)
        e = modulus_k(p)
        spec = density_spectrum(p, nmax=4)
        assert spec.ratio == pytest.approx(math.exp(-2.0 * math.pi * e.tau0), rel=1e-12)

    def test_critical_rejected(self):
        with pytest.raises(DomainError):
            density_spectrum(ModelParams(0.0, 1.0))
        with pytest.raises(DomainError):
            density_spectrum(ModelParams(0.5, 2.0))


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

    def test_count_exceeding_subsets_pads(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 3))
        got = finite_l_eigenvalues(nus, 20)
        assert got.size == 20
        assert got[8:].max() == 0.0  # only 2^3 genuine values

    def test_validation(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 3))
        with pytest.raises(DomainError):
            finite_l_eigenvalues(nus, 0)
