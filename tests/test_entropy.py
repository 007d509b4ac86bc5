import math

import numpy as np
import pytest
from hypothesis import given, settings

import xyent.entropy as entropy_mod
from xyent import (
    CASE_1A,
    CASE_2,
    ConvergenceError,
    DomainError,
    EllipticModulus,
    ModelParams,
    RegimeError,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    critical_entropy_approx,
    e_func,
    modulus_k,
    nu_spectrum,
    renyi_exact,
    renyi_limit_modular,
    renyi_limit_qproduct,
    theta_zero_ladder,
    upsilon1,
    vn_entropy_closed,
    vn_entropy_exact,
    vn_entropy_limit_integral,
    vn_entropy_limit_series,
    xx_entropy_asymptotic,
    XyentError,
)
from oracles import (
    UPSILON1_REFERENCE,
    brute_renyi_entropy,
    brute_vn_entropy,
    elliptic_modulus_mp,
    plane,
)


class TestEFunc:
    def test_endpoints(self):
        assert e_func(1.0, 1.0) == 0.0
        assert e_func(1.0, -1.0) == 0.0
        assert e_func(1.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_interior_value(self):
        want = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert e_func(1.0, 0.5) == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            e_func(0.5, 0.9)


class TestExactEntropies:
    def test_single_site_xx(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 1))
        assert vn_entropy_exact(nus).value == pytest.approx(math.log(2.0), abs=1e-12)
        assert renyi_exact(nus, 2.0).value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_against_brute_force(self):
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 6))
        assert vn_entropy_exact(nus).value == pytest.approx(brute_vn_entropy(nus.nus), abs=1e-13)
        for a in (0.5, 2.0, 3.0):
            assert renyi_exact(nus, a).value == pytest.approx(
                brute_renyi_entropy(nus.nus, a), abs=1e-12
            )

    def test_renyi_order_validation(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 2))
        with pytest.raises(DomainError):
            renyi_exact(nus, 1.0)
        with pytest.raises(DomainError):
            renyi_exact(nus, -0.5)

    def test_method_tags(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 2))
        assert vn_entropy_exact(nus).method == "ExactFiniteL"
        assert renyi_exact(nus, 2.0).method == "ExactFiniteL"
        assert renyi_exact(nus, 2.0).params["alpha"] == 2.0


class TestXXAsymptote:
    def test_upsilon1_reference(self):
        assert upsilon1() == pytest.approx(UPSILON1_REFERENCE, abs=5e-15)

    def test_value_structure(self):
        s100 = xx_entropy_asymptotic(0.0, 100).value
        want = math.log(100.0) / 3.0 + math.log(2.0) / 3.0 + upsilon1()
        assert s100 == pytest.approx(want, rel=1e-15)

    def test_field_dependence(self):
        # the h-dependent term is (1/6) ln(1 - (h/2)^2)
        d = xx_entropy_asymptotic(1.0, 64).value - xx_entropy_asymptotic(0.0, 64).value
        assert d == pytest.approx(math.log(0.75) / 6.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            xx_entropy_asymptotic(2.0, 64)
        with pytest.raises(DomainError):
            xx_entropy_asymptotic(0.0, 1)


class TestLadder:
    def test_values(self):
        e = modulus_k(ModelParams(0.5, 1.0))
        lad = theta_zero_ladder(e, 1, 4)
        assert lad.values[0] == 0.0
        for m in range(5):
            assert lad.values[m] == pytest.approx(math.tanh(m * math.pi * e.tau0), rel=1e-14)
        assert np.all(np.diff(lad.values) > 0)

    def test_half_offsets(self):
        e = modulus_k(ModelParams(1.0, 3.0))
        lad = theta_zero_ladder(e, 0, 3)
        assert lad.values[0] == pytest.approx(math.tanh(math.pi * e.tau0 / 2.0), rel=1e-14)

    def test_validation(self):
        e = modulus_k(ModelParams(0.5, 1.0))
        with pytest.raises(DomainError):
            theta_zero_ladder(e, 2, 3)


class TestLimitForms:
    @pytest.mark.parametrize("g,h", [(0.5, 1.0), (1.0, 3.0)])
    def test_three_forms_agree(self, g, h):
        p = ModelParams(g, h)
        c = classify_case(p)
        e = modulus_k(p)
        s1 = vn_entropy_limit_series(e, c.sigma).value
        s2 = vn_entropy_limit_integral(e, c.sigma).value
        s3 = vn_entropy_closed(e, c).value
        assert s1 == pytest.approx(s2, abs=1e-10)
        assert s1 == pytest.approx(s3, abs=1e-10)

    def test_integral_rules_disagree(self, monkeypatch):
        # at step 1 and 0.5 the midpoint rules differ by ~e^{-pi}: the
        # certificate must refuse rather than return the finer value
        monkeypatch.setattr(entropy_mod, "_INTEGRAL_STEP", 1.0)
        e = modulus_k(ModelParams(0.5, 1.0))
        with pytest.raises(ConvergenceError, match="midpoint rules"):
            vn_entropy_limit_integral(e, 1)

    def test_integral_term_budget(self):
        # tau0 = 1e-6 needs ~3500 theta terms per node; no modulus from
        # tau0_from_modulus gets there, a hand-built one must be refused
        e = EllipticModulus(k=0.6, kprime=0.8, tau0=1e-6)
        with pytest.raises(ConvergenceError, match="budget"):
            vn_entropy_limit_integral(e, 1)

    def test_series_term_budget(self):
        # tau0 = 1e-7 puts about 6e7 ladder nodes below tanh argument 20;
        # the refusal names the modulus and the budget it ran out of
        e = EllipticModulus(k=0.6, kprime=0.8, tau0=1e-7)
        with pytest.raises(ConvergenceError, match="tau0 = 1.000e-07") as err:
            vn_entropy_limit_series(e, 1)
        assert "_SERIES_BUDGET = 100000" in str(err.value)

    def test_methods(self):
        e = modulus_k(ModelParams(0.5, 1.0))
        assert vn_entropy_limit_series(e, 1).method == "LimitSeries"
        assert vn_entropy_limit_integral(e, 1).method == "LimitIntegral"
        assert vn_entropy_closed(e, CASE_1A).method == "ClosedFormElliptic"

    def test_finite_l_converges_to_limit(self):
        p = ModelParams(1.0, 3.0)
        c = classify_case(p)
        e = modulus_k(p)
        lim = vn_entropy_limit_series(e, c.sigma).value
        diffs = [
            abs(vn_entropy_exact(nu_spectrum(build_correlation_matrix(p, L))).value - lim)
            for L in (5, 10, 20)
        ]
        assert diffs[2] < diffs[1] < diffs[0]
        assert diffs[2] < 1e-8


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plane(h2_depth=9, gamma_depth=7))
def test_limit_forms_agree_over_plane(point):
    # only the model, its phase case and its modulus may refuse a point,
    # with a typed error; past them tau0 matches 40-digit K(k')/K(k), the
    # integral and closed forms match the series, and the modular Renyi
    # form the q-product form, at every order
    try:
        p = ModelParams(*point)
        c = classify_case(p)
        e = modulus_k(p)
    except XyentError:
        return
    tau0 = elliptic_modulus_mp(*point)[2]
    assert abs(e.tau0 - tau0) <= 1e-13 * tau0
    s_ser = vn_entropy_limit_series(e, c.sigma).value
    assert vn_entropy_limit_integral(e, c.sigma).value == pytest.approx(s_ser, abs=1e-11)
    assert vn_entropy_closed(e, c).value == pytest.approx(s_ser, abs=1e-11)
    for alpha in (0.5, 2.0, 3.0, 10.0):
        qp = renyi_limit_qproduct(alpha, e, c).value
        md = renyi_limit_modular(alpha, e, c).value
        assert abs(md - qp) <= 1e-10 * max(1.0, abs(qp))


class TestRenyiLimits:
    @pytest.mark.parametrize("g,h", [(0.5, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 7.5])
    def test_two_forms_agree(self, g, h, alpha):
        p = ModelParams(g, h)
        c = classify_case(p)
        e = modulus_k(p)
        qp = renyi_limit_qproduct(alpha, e, c).value
        md = renyi_limit_modular(alpha, e, c).value
        assert qp == pytest.approx(md, abs=1e-12)

    def test_large_alpha_stable(self):
        p = ModelParams(1.0, 3.0)
        c = classify_case(p)
        e = modulus_k(p)
        v = renyi_limit_qproduct(200.0, e, c).value
        assert math.isfinite(v)
        # alpha -> inf limit is -ln lambda_0 here (single largest eigenvalue)
        from xyent import density_spectrum

        lam0 = density_spectrum(p, 4).lambdas[0]
        assert v == pytest.approx(-math.log(lam0) * 200.0 / 199.0, rel=1e-6)

    def test_qproduct_term_budget(self):
        # alpha tau0 = 8.5e-10 leaves every factor ln(1 + q_a^m) near ln 2
        p = ModelParams(0.5, 1.0)
        e = modulus_k(p)
        with pytest.raises(ConvergenceError, match=r"alpha \* tau0 = 8\.546e-10") as err:
            renyi_limit_qproduct(1e-9, e, classify_case(p))
        assert "_SERIES_BUDGET = 100000" in str(err.value)

    def test_order_validation(self):
        e = modulus_k(ModelParams(0.5, 1.0))
        c = classify_case(ModelParams(0.5, 1.0))
        for bad in (1.0, 0.0, -2.0):
            with pytest.raises(DomainError):
                renyi_limit_qproduct(bad, e, c)
            with pytest.raises(DomainError):
                renyi_limit_modular(bad, e, c)


class TestCriticalApprox:
    def test_near_h2(self):
        r = critical_entropy_approx(ModelParams(1.0, 1.95))
        want = -math.log(0.05) / 6.0 + math.log(4.0) / 3.0
        assert r.value == pytest.approx(want, rel=1e-14)
        assert r.method == "CriticalApprox"

    def test_near_gamma0(self):
        r = critical_entropy_approx(ModelParams(0.02, 1.0))
        want = -math.log(0.02) / 3.0 + math.log(3.0) / 6.0 + math.log(2.0) / 3.0
        assert r.value == pytest.approx(want, rel=1e-14)

    def test_overlap_prefers_h2_branch(self):
        # both windows apply at (0.05, 1.95); the h -> 2 form wins
        r = critical_entropy_approx(ModelParams(0.05, 1.95))
        want = -math.log(0.05) / 6.0 + math.log(4.0 * 0.05) / 3.0
        assert r.value == pytest.approx(want, rel=1e-14)

    def test_window_edge_included(self):
        # h = 1.9 sits exactly on the window edge and must evaluate
        r = critical_entropy_approx(ModelParams(1.0, 1.9))
        assert r.value == pytest.approx(-math.log(0.1) / 6.0 + math.log(4.0) / 3.0, rel=1e-12)

    def test_gap_to_closed_form_shrinks(self):
        gaps = []
        for h in (1.9, 1.99, 1.999):
            p = ModelParams(1.0, h)
            closed = vn_entropy_closed(modulus_k(p), classify_case(p)).value
            gaps.append(abs(closed - critical_entropy_approx(p).value))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_outside_windows(self):
        with pytest.raises(RegimeError):
            critical_entropy_approx(ModelParams(0.5, 1.0))
        with pytest.raises(RegimeError):
            critical_entropy_approx(ModelParams(0.0, 1.0))
