import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xyent.entropy as entropy_mod
import xyent.special as special_mod
from xyent import (
    CASE_1A,
    CASE_1B,
    CASE_2,
    ConvergenceError,
    DomainError,
    EllipticModulus,
    ModelParams,
    NuSpectrum,
    RegimeError,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    critical_entropy_approx,
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
from xyent.special import _log_lambda_imag
from oracles import (
    UPSILON1_REFERENCE,
    brute_renyi_entropy,
    brute_vn_entropy,
    elliptic_modulus_mp,
    ladder_entropy_mp,
    plane,
    renyi_limit_mp,
    renyi_sum_mp,
    xx_entropy_contour,
)
from test_spectrum import _LADDER_TOPS, _modulus_at


class TestExactEntropies:
    def test_single_site_xx(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 1))
        assert vn_entropy_exact(nus).value == pytest.approx(math.log(2.0), abs=1e-12)
        assert renyi_exact(nus, 2.0).value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_against_brute_force(self):
        # and an all-trivial spectrum, whose entropies are +0.0: a sum of no
        # terms, negated or divided by 1 - alpha < 0, must not read -0.0
        for nus in (nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 6)),
                    NuSpectrum.from_nus(np.ones(12))):
            values = [vn_entropy_exact(nus).value]
            assert values[0] == pytest.approx(brute_vn_entropy(nus.nus), abs=1e-13)
            for a in (0.5, 2.0, 3.0):
                values.append(renyi_exact(nus, a).value)
                assert values[-1] == pytest.approx(brute_renyi_entropy(nus.nus, a), abs=1e-12)
            assert all(math.copysign(1.0, v) > 0.0 for v in values), values

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 1e3, 1100.0, 1e4, 1e6])
    def test_renyi_against_mpmath(self, alpha):
        # at (0.5, 1.0) a mode sits near nu = 0, so past alpha ~ 1075 both
        # powers p^a and q^a underflow, and their sum must not be taken
        nus = nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 40))
        want = renyi_sum_mp(nus.nus, alpha)
        assert abs(renyi_exact(nus, alpha).value - want) <= 1e-13 * abs(want)

    def test_renyi_order_validation(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 2))
        with pytest.raises(DomainError):
            renyi_exact(nus, 1.0)
        with pytest.raises(DomainError):
            renyi_exact(nus, -0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite real > 0"):
                renyi_exact(nus, bad)

    def test_method_tags(self):
        nus = nu_spectrum(build_xx_matrix(0.0, 2))
        assert vn_entropy_exact(nus).method == "ExactFiniteL"
        assert renyi_exact(nus, 2.0).method == "ExactFiniteL"
        assert renyi_exact(nus, 2.0).params["alpha"] == 2.0


def _upsilon1_integrand(t):
    # the three terms each diverge like t^-3 at t -> 0: carry 3|log10 t| + 10
    # extra digits below t = 1 to absorb the cancellation
    extra = int(3 * max(0.0, -float(mpmath.log10(t)))) + 10 if t < 1 else 0
    with mpmath.workdps(mpmath.mp.dps + extra):
        t = mpmath.mpf(t)
        sh = mpmath.sinh(t / 2)
        val = mpmath.exp(-t) / (3 * t) + 1 / (t * sh * sh) - mpmath.cosh(t / 2) / (2 * sh ** 3)
    return +val


class TestXXAsymptote:
    def test_upsilon1_reference(self):
        assert upsilon1() == pytest.approx(UPSILON1_REFERENCE, abs=5e-15)

    def test_upsilon1_is_the_rounded_quadrature(self):
        # bitwise the correctly rounded double of a 40-digit quadrature of
        # the defining integral
        with mpmath.workdps(40):
            want = -mpmath.quad(_upsilon1_integrand, [0, 1, 10, mpmath.inf])
            assert abs(want - mpmath.mpf("0.49501790813513705019")) < 1e-20
        assert upsilon1() == float(want)

    def test_value_structure(self):
        s100 = xx_entropy_asymptotic(0.0, 100).value
        want = math.log(100.0) / 3.0 + math.log(2.0) / 3.0 + upsilon1()
        assert s100 == pytest.approx(want, rel=1e-15, abs=0)

    def test_field_dependence(self):
        # the h-dependent term is (1/6) ln(1 - (h/2)^2)
        d = xx_entropy_asymptotic(1.0, 64).value - xx_entropy_asymptotic(0.0, 64).value
        assert d == pytest.approx(math.log(0.75) / 6.0, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            xx_entropy_asymptotic(2.0, 64)
        with pytest.raises(DomainError):
            xx_entropy_asymptotic(0.0, 1)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1.6), st.floats(math.log(64.0), math.log(1e6)).map(lambda u: round(math.exp(u))))
def test_contour_over_fisher_hartwig_meets_xx_asymptote(h, L):
    # the paper's step from determinant to entropy: the contour integral of
    # e(1, lambda) d ln D_L over the Fisher-Hartwig asymptote (Barnes G out
    # to |beta| = 5.52) against the closed form; the cut tails |y| > 5.5
    # that the oracle leaves out are worth about 1e-12 to 4e-12 here
    s = xx_entropy_contour(h, L)
    assert abs(s.imag) <= 1e-11
    assert abs(s.real - xx_entropy_asymptotic(h, L).value) <= 1e-11


class TestLadder:
    def test_values(self):
        e = modulus_k(ModelParams(0.5, 1.0))
        lad = theta_zero_ladder(e, 1, 4)
        assert lad.values[0] == 0.0
        for m in range(5):
            assert lad.values[m] == pytest.approx(math.tanh(m * math.pi * e.tau0), rel=1e-14, abs=0)
        assert np.all(np.diff(lad.values) > 0)

    def test_half_offsets(self):
        e = modulus_k(ModelParams(1.0, 3.0))
        lad = theta_zero_ladder(e, 0, 3)
        assert lad.values[0] == pytest.approx(math.tanh(math.pi * e.tau0 / 2.0), rel=1e-14, abs=0)

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

    def test_integral_term_budget(self, monkeypatch):
        # no modulus gets tau0 below 0.0021, where the theta terms of the
        # 301 nodes stay within the budget; an injected budget of 200 runs
        # out on the same path at (0.5, 1.0), which needs 3 terms a node
        monkeypatch.setattr(special_mod, "_TERM_BUDGET", 200)
        e = modulus_k(ModelParams(0.5, 1.0))
        with pytest.raises(ConvergenceError, match="budget") as err:
            vn_entropy_limit_integral(e, 1)
        assert "_TERM_BUDGET = 200" in str(err.value)

    def test_series_term_budget(self, monkeypatch):
        # (0.5, 1.0) sums 9 ladder nodes; with an injected budget of 3 the
        # refusal names the modulus and the budget it ran out of
        monkeypatch.setattr(entropy_mod, "_SERIES_BUDGET", 3)
        e = modulus_k(ModelParams(0.5, 1.0))
        with pytest.raises(ConvergenceError, match=f"tau0 = {e.tau0:.3e}") as err:
            vn_entropy_limit_series(e, 1)
        assert "_SERIES_BUDGET = 3" in str(err.value)

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
@given(st.floats(math.log(0.08), math.log(30.0)), st.sampled_from((0, 1)))
def test_series_matches_mpmath_ladder_sum(log_tau0, sigma):
    # against a 40-digit ladder sum at the modulus' own tau0, relative to
    # the sum and to 1 + 2 x_0, the amplification of pi tau0's rounding in
    # e^{-2 x_0} of the first node x_0 = (1 - sigma) pi tau0/2.  The worst
    # over 11000 draws of each sigma was 4.1e-16 (sigma = 1, tau0 = 0.12).
    # A series that stops at an absolute 1e-16, or reads its nodes from
    # tanh, which rounds to 1 from x = 19.1 on, is off by 7e-15 at
    # sigma = 1 and all of S at sigma = 0 from tau0 = 12.1 on
    e = _modulus_at(math.exp(log_tau0))
    want = ladder_entropy_mp(e.tau0, sigma)
    got = vn_entropy_limit_series(e, sigma).value
    assert abs(got - want) <= 4.5e-16 * (1.0 + (1 - sigma) * math.pi * e.tau0) * want


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


# Bounds of the Landen sweep, about twice the worst gap over 300 draws of
# tau0, relative to max(1, |S|): series 1.4e-15, integral 1.6e-14, closed
# 2.1e-15, modular 2.9e-15 and q-product 1.6e-15.
_LANDEN_TOL = {"series": 3e-15, "integral": 3.2e-14, "closed": 4.2e-15,
               "modular": 6e-15, "qproduct": 3.3e-15}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(0.2, 8.0))
def test_landen_duplication(tau0):
    # the sigma = 1 ladder at tau0/2 is the union of the sigma = 1 and
    # sigma = 0 ladders at tau0, so S_1(tau0/2) = S_1(tau0) + S_0(tau0) and
    # (1 - a) S_a adds the same way; the modulus at tau0/2 is the ascending
    # Landen k1 = 2 sqrt(k)/(1 + k), k1' = k'^2/(1 + k)^2, free of cancellation
    log_lam, log_co, _ = _log_lambda_imag(tau0)  # ln k^2 and ln k'^2 at tau0
    e = EllipticModulus(math.exp(log_lam / 2.0), math.exp(log_co / 2.0))
    k, kp = e.k, e.kprime
    half = EllipticModulus(2.0 * math.sqrt(k) / (1.0 + k), kp * kp / (1.0 + k) ** 2)
    assert half.tau0 == pytest.approx(e.tau0 / 2.0, rel=1.2e-15, abs=0)
    forms = {
        "series": lambda m, c: vn_entropy_limit_series(m, c.sigma).value,
        "integral": lambda m, c: vn_entropy_limit_integral(m, c.sigma).value,
        "closed": lambda m, c: vn_entropy_closed(m, c).value,
    }
    for a in (0.5, 2.0, 3.0):
        forms[f"modular {a}"] = lambda m, c, a=a: (1.0 - a) * renyi_limit_modular(a, m, c).value
        forms[f"qproduct {a}"] = lambda m, c, a=a: (1.0 - a) * renyi_limit_qproduct(a, m, c).value
    for name, f in forms.items():
        lhs = f(half, CASE_1B)
        gap = abs(lhs - f(e, CASE_1B) - f(e, CASE_2)) / max(1.0, abs(lhs))
        assert gap <= _LANDEN_TOL[name.split()[0]], (name, gap)


# Bound of the modular sweep: twice the worst relative gap over 1500 draws
# (823 at tau0 >= 1), 6.8e-15 at (0.001, 12522), alpha = 0.5; the q-product
# form's was 7.1e-15 there.  With the nome sum stopped at eps/64 absolute,
# N = -8q + 12q^2 - ... at q = 1.9e-9 (tau0 = 6.4, (0.348, 4043.7)) kept
# one term, and both forms were off by 6.2e-10.
_MODULAR_TOL = 1.4e-14


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_LADDER_TOPS)
@example((0.001, 1e6))  # k = 2e-9: the form read -1.5e-15 at alpha = 2, for +1.0e-18
@example((0.05, 30.0))
@example((0.5, 50.0))
@example((0.348, 4043.7))  # tau0 = 6.4: the nome sum's absolute stop left 6.2e-10
def test_modular_renyi_matches_mpmath_where_k_is_small(point):
    # at tau0 >= 1 (k^2 <= 1/2) the modular form takes ln k^2 and ln lambda
    # as nome products, so their pi tau0 terms cancel before any rounding:
    # relative to a 60-digit ladder sum it keeps its digits as k -> 0, and
    # it is never below 0
    try:
        p = ModelParams(*point)
        c = classify_case(p)
        e = modulus_k(p)
    except XyentError:
        return
    if e.tau0 < 1.0:
        return
    for alpha in (0.5, 2.0, 3.0, 10.0):
        got = renyi_limit_modular(alpha, e, c).value
        want = renyi_limit_mp(*point, alpha)
        assert got >= 0.0
        assert abs(got - want) <= _MODULAR_TOL * want, (alpha, got, want)


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
        assert v == pytest.approx(-math.log(lam0) * 200.0 / 199.0, rel=1e-6, abs=0)

    def test_qproduct_term_budget(self):
        # alpha tau0 = 8.5e-10 leaves every factor ln(1 + q_a^m) near ln 2
        p = ModelParams(0.5, 1.0)
        e = modulus_k(p)
        with pytest.raises(ConvergenceError, match=r"alpha \* tau0 = 8\.546e-10") as err:
            renyi_limit_qproduct(1e-9, e, classify_case(p))
        assert "_TERM_BUDGET = 1000000" in str(err.value)

    def test_order_validation(self):
        e = modulus_k(ModelParams(0.5, 1.0))
        c = classify_case(ModelParams(0.5, 1.0))
        for bad in (1.0, 0.0, -2.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                renyi_limit_qproduct(bad, e, c)
            with pytest.raises(DomainError):
                renyi_limit_modular(bad, e, c)


class TestCriticalApprox:
    def test_near_h2(self):
        r = critical_entropy_approx(ModelParams(1.0, 1.95))
        want = -math.log(0.05) / 6.0 + math.log(4.0) / 3.0
        assert r.value == pytest.approx(want, rel=1e-14, abs=0)
        assert r.method == "CriticalApprox"

    def test_near_gamma0(self):
        r = critical_entropy_approx(ModelParams(0.02, 1.0))
        want = -math.log(0.02) / 3.0 + math.log(3.0) / 6.0 + math.log(2.0) / 3.0
        assert r.value == pytest.approx(want, rel=1e-14, abs=0)

    def test_overlap_prefers_h2_branch(self):
        # both windows apply at (0.05, 1.95); the h -> 2 form wins
        r = critical_entropy_approx(ModelParams(0.05, 1.95))
        want = -math.log(0.05) / 6.0 + math.log(4.0 * 0.05) / 3.0
        assert r.value == pytest.approx(want, rel=1e-14, abs=0)

    def test_window_edge_included(self):
        # h = 1.9 sits exactly on the window edge and must evaluate
        r = critical_entropy_approx(ModelParams(1.0, 1.9))
        assert r.value == pytest.approx(-math.log(0.1) / 6.0 + math.log(4.0) / 3.0, rel=1e-12, abs=0)

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
