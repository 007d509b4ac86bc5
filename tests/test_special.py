import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyent import (
    ConvergenceError,
    DomainError,
    EllipticModulus,
    complete_elliptic_K,
    log_barnes_g,
    modular_lambda,
    tau0_from_modulus,
    theta,
)
from xyent import entropy, special
from oracles import log_gap, quad_elliptic_K


class TestEllipticK:
    def test_k0_is_exactly_half_pi(self):
        assert complete_elliptic_K(0.0) == math.pi / 2.0

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.8, 0.95, 0.999])
    def test_against_mpmath(self, k):
        with mpmath.workdps(30):
            ref = float(mpmath.ellipk(k * k))  # mpmath uses the parameter m = k^2
        assert complete_elliptic_K(k) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_against_quadrature(self):
        assert complete_elliptic_K(0.6) == pytest.approx(quad_elliptic_K(0.6), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [-0.1, 1.0, 1.5])
    def test_domain(self, k):
        with pytest.raises(DomainError):
            complete_elliptic_K(k)


class TestBarnesG:
    def test_special_points(self):
        assert log_barnes_g(0.0) == 0.0  # G(1) = 1
        assert log_barnes_g(1.0) == pytest.approx(0.0, abs=1e-14)  # G(2) = 1
        assert log_barnes_g(-1.0).real == -math.inf  # G(0) = 0
        assert log_barnes_g(-3.0).real == -math.inf  # G(-2) = 0

    @pytest.mark.parametrize("x", [0.5, -0.5, 0.25, 0.9, -0.99])
    def test_real_against_mpmath(self, x):
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.barnesg(1 + x)))
        assert log_barnes_g(x).real == pytest.approx(ref, abs=1e-13)
        assert abs(log_barnes_g(x).imag) < 1e-13

    @pytest.mark.parametrize("x", [0.3 + 0.4j, -0.2 + 0.7j, 0.1 - 0.9j])
    def test_complex_against_mpmath(self, x):
        got = cmath.exp(log_barnes_g(x))
        with mpmath.workdps(30):
            want = complex(mpmath.barnesg(1 + x))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [
        1.2j, -0.3 - 2.1j, 0.49 + 3.7j, -0.45 - 5.2j, 0.25 + 5.6j, -0.25 - 5.6j,
        5.62, -5.62, 3.3, -2.5, -4.5 + 1e-3j, 2.0 + 2.0j, -3.0 - 3.0j, 5.62j,
        cmath.rect(5.62, math.pi / 4), cmath.rect(5.62, 3 * math.pi / 4),
    ])
    def test_widened_against_mpmath(self, x):
        # the whole disc |x| <= 5.62, the strip |Re x| < 1/2 that spectral
        # parameters fill included, against 40-digit mpmath
        with mpmath.workdps(40):
            want = mpmath.log(mpmath.barnesg(1 + mpmath.mpc(x)))
        assert log_gap(log_barnes_g(x), want) < 1e-13 * max(1.0, abs(complex(want)))

    def test_frozen_zeta_values(self):
        # the tail polynomial's zeta(s, 33), s = 2..21, against 40-digit mpmath
        with mpmath.workdps(40):
            want = [float(mpmath.zeta(s, 33)) for s in range(2, 22)]
        assert list(special._ZETA_33) == want

    def test_dropped_tail_terms(self):
        # the terms past j = 22 of sum_j (-1)^(j-1) zeta(j-1, 33) x^j / j,
        # at the edge |x| = 5.62 of the domain
        with mpmath.workdps(40):
            x = mpmath.mpf("5.62")
            rest = mpmath.nsum(lambda j: mpmath.zeta(j - 1, 33) * x ** j / j, [23, mpmath.inf])
        assert rest < 1e-17

    def test_domain_limit(self):
        log_barnes_g(5.62)
        with pytest.raises(DomainError, match="_BARNES_MAX_ABS"):
            log_barnes_g(5.63)
        with pytest.raises(DomainError, match="_BARNES_MAX_ABS"):
            log_barnes_g(0.1 - 6.0j)
        with pytest.raises(DomainError, match="Barnes G argument x must be a finite complex"):
            log_barnes_g(complex(math.nan, 0.5))

    @pytest.mark.parametrize("beta", [0.1, 0.3j, 0.2 + 0.3j, -0.4 + 1.1j])
    def test_pair_identity(self, beta):
        lhs = log_barnes_g(beta) + log_barnes_g(-beta)
        with mpmath.workdps(30):
            want = complex(mpmath.barnesg(1 + beta) * mpmath.barnesg(1 - beta))
        assert cmath.exp(lhs) == pytest.approx(want, rel=1e-12, abs=0)

    def test_pair_matches_singletons_inside_disc(self):
        # the pair as a sum of logs, against mpmath's logs of the singletons
        beta = 0.2 - 0.35j
        lhs = log_barnes_g(beta) + log_barnes_g(-beta)
        with mpmath.workdps(30):
            rhs = complex(mpmath.log(mpmath.barnesg(1 + beta)) + mpmath.log(mpmath.barnesg(1 - beta)))
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_pair_beyond_re_beta_half(self):
        # the pair at Re beta = 1/2, which only the widened singleton serves
        beta = 0.5 + 0.1j
        lhs = log_barnes_g(beta) + log_barnes_g(-beta)
        with mpmath.workdps(30):
            want = mpmath.log(mpmath.barnesg(1 + beta) * mpmath.barnesg(1 - beta))
            assert log_gap(lhs, want) < 1e-13

    def test_pair_is_real_for_imaginary_beta(self):
        assert abs((log_barnes_g(0.25j) + log_barnes_g(-0.25j)).imag) < 1e-14


class TestTheta:
    @pytest.mark.parametrize("j", [2, 3, 4])
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.2 + 0.1j, -0.4 + 0.25j])
    def test_against_mpmath(self, j, s):
        tau = 0.8j
        q = cmath.exp(1j * math.pi * tau)
        with mpmath.workdps(30):
            want = complex(mpmath.jtheta(j, math.pi * s, q))
        got = theta(j, s, tau)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_quasi_periodicity(self):
        tau = 0.7j
        s = 0.21 + 0.05j
        lhs = theta(3, s + tau, tau)
        rhs = cmath.exp(-1j * math.pi * tau - 2j * math.pi * s) * theta(3, s, tau)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_zero_location(self):
        tau = 0.9j
        assert abs(theta(3, 0.5 + tau / 2.0, tau)) < 1e-13

    def test_far_from_real_axis(self):
        # argument with large |Im s|: the series peak moves away from n = 0
        # and naive truncation at small n would be badly wrong
        tau = 0.5j
        s = 5.0 * tau
        lhs = theta(3, s, tau)
        with mpmath.workdps(30):
            want = complex(mpmath.jtheta(3, math.pi * complex(s), cmath.exp(1j * math.pi * tau)))
        assert lhs == pytest.approx(want, rel=1e-11, abs=0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from((2, 3, 4)),
        st.floats(-1.0, 1.0),
        st.floats(-6.0, 6.0),
        st.floats(-1.0, 1.0, exclude_min=True),
        st.floats(math.log(0.05), math.log(10.0)),
    )
    def test_logs_against_mpmath(self, j, x, y, tau_re, log_tau_im):
        # off the imaginary axis in both s and tau; Re tau in (-1, 1] keeps
        # mpmath's principal q^(1/4) in theta2 equal to e^{i pi tau/4}.  ln
        # theta reaches about 2300 here, so a value beyond double range must
        # be refused and every other one match in its log.  Near a zero the
        # log is only as good as M / |theta| allows, M the sum of the terms'
        # moduli (theta_j at Re s = Re tau = 0)
        s, tau = complex(x, y), complex(tau_re, math.exp(log_tau_im))
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            want = complex(mpmath.log(mpmath.jtheta(j, mpmath.pi * mpmath.mpc(s), q)))
            log_m = float(mpmath.re(mpmath.log(mpmath.jtheta(
                2 if j == 2 else 3, 1j * mpmath.pi * y, mpmath.exp(-mpmath.pi * tau.imag)))))
        if want.real > 710.0:
            with pytest.raises(DomainError, match="beyond double range"):
                theta(j, s, tau)
        elif want.real < 709.0:
            tol = 1e-13 * max(1.0, abs(want)) + 1e-14 * math.exp(log_m - want.real)
            assert log_gap(cmath.log(theta(j, s, tau)), want) < tol

    @pytest.mark.parametrize("s", [6j, -6j + 0.3, 1e200j, complex("inf"), complex("nan")])
    def test_beyond_double_range_refused(self, s):
        # ln theta3(6i | 0.05i) is about 2260: DomainError, never an
        # OverflowError, an inf or a nan
        with pytest.raises(DomainError):
            theta(3, s, 0.05j)

    def test_kernel_real_on_imaginary_axis(self):
        # Re s = Re tau = 0 keeps the sum real, as the limit integral reads it
        logs = special._log_theta3(np.array([0.3j, -2.0j, 0.0]), 0.4j)
        assert logs.dtype == np.float64
        for got, y in zip(logs, (0.3, -2.0, 0.0)):
            want = mpmath.log(mpmath.jtheta(3, 1j * mpmath.pi * y, mpmath.exp(-0.4 * mpmath.pi)))
            assert abs(got - float(want.real)) < 1e-13 * max(1.0, abs(got))

    @pytest.mark.parametrize("tau0", [0.09, 0.5, 1.6, 5.0])
    def test_prefactor_one_pass_matches_two(self, tau0):
        # sigma = 1 reads theta3 at beta - tau/2 only, through
        # theta3(beta + tau/2) = e^{-2 pi i beta} theta3(beta - tau/2): against
        # the product of both shifted thetas, at the limit integral's nodes
        # i x and at XY determinant arguments, equal mod 2 pi i
        tau = 1j * tau0
        beta = np.concatenate((1j * np.linspace(0.05, 10.0, 40),
                               [0.1 + 0.2j, -0.3 - 1.5j, 0.45 + 3.0j, -0.2 + 0.01j]))
        logs = special._log_theta3(np.concatenate((beta + tau / 2, beta - tau / 2, [tau / 2])), tau)
        n = beta.size
        want = logs[:n] + logs[n:2 * n] - 2.0 * logs[-1]
        got = special._log_theta_prefactor(beta, tau0, 1)
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got.real - want.real) <= 2e-15 * scale)
        turns = (got.imag - want.imag) / (2.0 * math.pi)
        assert np.all(np.abs(turns - np.round(turns)) * 2.0 * math.pi <= 2e-15 * scale)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.08, 30.0), st.sampled_from((0, 1)))
    def test_prefactor_real_axis_matches_complex(self, tau0, sigma):
        # the limit integral passes its nodes as real x, read as i x: the
        # float pass equals the complex one's real part within 2 ulp at every
        # node of both midpoint rules
        x, _ = entropy._midpoint_rules(entropy._INTEGRAL_STEP, entropy._INTEGRAL_CUTOFF)
        got = special._log_theta_prefactor(x, tau0, sigma)
        want = special._log_theta_prefactor(1j * x, tau0, sigma)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want.real) <= 2.0 * np.spacing(np.abs(want.real)))

    def test_subnormal_im_tau_refused(self):
        # ln(1e17) / (pi Im tau) is infinite: refused by the budget, not by
        # an OverflowError from the term count
        with pytest.raises(ConvergenceError, match="_TERM_BUDGET"):
            theta(3, 0.0, 5e-324j)

    def test_budget_exhaustion(self, monkeypatch):
        # Im tau = 1e-12 needs millions of terms; a small injected budget
        # runs out on the same path in a few hundred
        monkeypatch.setattr(special, "_TERM_BUDGET", 200)
        with pytest.raises(ConvergenceError, match="Im tau = 1.000e-12") as err:
            theta(3, 0.0, 1e-12j)
        assert "_TERM_BUDGET = 200" in str(err.value)

    def test_bad_index(self):
        with pytest.raises(DomainError):
            theta(1, 0.0, 1j)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            theta(3, 0.1, 1.0 - 0.2j)
        with pytest.raises(DomainError):
            modular_lambda(1.0)


def _nome_log_sum_loop(q):
    """The nome sum as summed before its term count was sized up front:
    the same loop, run until its stop test or its budget."""
    log1p = math.log1p if isinstance(q, float) else (lambda z: cmath.log(1.0 + z))
    bound = special._EPS * (1.0 - abs(q)) / 64.0 * min(1.0, abs(q))
    total, qm, sign = 0.0, q, -8.0
    for _ in range(1, special._TERM_BUDGET):
        total += sign * log1p(qm)
        if abs(qm * q) <= bound:
            return total
        qm *= q
        sign = -sign
    return None


class TestModularLambda:
    def test_budget_exhaustion(self, monkeypatch):
        # |q| = e^{-pi/100} needs about 1400 terms; the injected budget is 200.
        # Off the imaginary axis, where no smaller nome is taken
        monkeypatch.setattr(special, "_TERM_BUDGET", 200)
        with pytest.raises(ConvergenceError, match=r"\|q\| = 0\.969072") as err:
            modular_lambda(0.5 + 0.01j)
        assert "_TERM_BUDGET = 200" in str(err.value)

    def test_refused_before_any_term(self, monkeypatch):
        # |q| = e^{-pi 1e-7} needs about 1.2e9 terms: refused from the count,
        # not after 10^6 complex logs
        calls = []
        log = cmath.log
        monkeypatch.setattr(cmath, "log", lambda z: calls.append(z) or log(z))
        with pytest.raises(ConvergenceError, match="_TERM_BUDGET = 1000000"):
            modular_lambda(0.5 + 1e-7j)
        assert calls == []

    @pytest.mark.parametrize("t", [0.002, 0.02, 0.05, 1.0, 50.0])
    def test_imaginary_axis_in_unit_interval(self, t):
        # lambda(i t) from the smaller nome: never above 1 near t = 0 (the
        # nome product at |q| = e^{-pi t} gave 1 + 32 eps at t = 0.05), and
        # lambda(i t) + lambda(i/t) = 1
        lam, inv = modular_lambda(1j * t), modular_lambda(1j / t)
        assert lam.imag == 0.0 and 0.0 < lam.real <= 1.0
        assert abs(lam.real + inv.real - 1.0) <= 2.0 * special._EPS

    @pytest.mark.parametrize(
        "q",
        [0.0, math.exp(-math.pi), 0.5, 0.969072, 0.999, cmath.exp(1j * math.pi * (0.3 + 1.1j)),
         cmath.exp(1j * math.pi * (-0.45 + 0.02j)), 0.99 * cmath.exp(2.0j)],
    )
    def test_sum_unchanged_by_the_count(self, q):
        # every q the count accepts gives bitwise the sum of the plain loop
        assert special._nome_log_sum(q) == _nome_log_sum_loop(q)

    @pytest.mark.parametrize("budget", [200, 1390, 1391, 1392, 1393])
    def test_count_refuses_only_what_the_loop_cannot_finish(self, monkeypatch, budget):
        # |q| = e^{-pi/100} stops at m = 1391 of the plain loop (the count
        # reads 1390.3), so it needs a budget of 1392: the count refuses no q
        # the loop would finish
        monkeypatch.setattr(special, "_TERM_BUDGET", budget)
        q = math.exp(-math.pi / 100.0)
        want = _nome_log_sum_loop(q)
        if want is None:
            with pytest.raises(ConvergenceError):
                special._nome_log_sum(q)
        else:
            assert special._nome_log_sum(q) == want

    def test_fixed_point(self):
        assert modular_lambda(1j).real == pytest.approx(0.5, abs=1e-12)

    def test_real_and_decreasing_on_imaginary_axis(self):
        vals = [modular_lambda(1j * t) for t in (0.5, 1.0, 2.0)]
        for v in vals:
            assert abs(v.imag) < 1e-13
            assert 0.0 < v.real < 1.0
        assert vals[0].real > vals[1].real > vals[2].real

    def test_against_mpmath(self):
        tau = 0.3 + 1.1j
        q = cmath.exp(1j * math.pi * tau)
        with mpmath.workdps(30):
            want = complex((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)
        assert modular_lambda(tau) == pytest.approx(want, rel=1e-12, abs=0)


    @pytest.mark.parametrize("t", [10.0 ** (j / 4.0) for j in range(-16, 17)] + [6.4],
                             ids=[str(j) for j in range(-16, 17)] + ["t6.4"])
    def test_logs_against_mpmath(self, t):
        # (ln lambda(it), ln(1 - lambda(it)), N(t)) at t = 10^(j/4), both
        # sides of t = 1, and at t = 6.4, where N = -8q + ... at q = 1.9e-9
        # was off 1.9e-9 relative by a stop at eps/64 absolute; the reference
        # reads lambda = (theta2/theta3)^4 and 1 - lambda = (theta4/theta3)^4
        # at q = e^{-pi t} (Jacobi's quartic identity), each log taken from
        # the small one, with the digits that theta4 ~ e^{-pi/(4t)} loses to
        # cancellation added to the 40, and N = ln(lambda/(16 q)) =
        # 4 (log1p(a) - log1p(b)) from the theta series with their leading 1
        # taken out, a = sum q^{n(n+1)} and b = 2 sum q^{n^2} over n >= 1
        with mpmath.workdps(40 + math.ceil(math.pi / (4.0 * t * math.log(10.0)))):
            q = mpmath.exp(-mpmath.pi * mpmath.mpf(t))
            t3 = mpmath.jtheta(3, 0, q)
            lam = (mpmath.jtheta(2, 0, q) / t3) ** 4
            co = (mpmath.jtheta(4, 0, q) / t3) ** 4
            a = b = mpmath.mpf(0)
            for n in itertools.count(1):
                a, b = a + q ** (n * (n + 1)), b + 2 * q ** (n * n)
                if q ** (n * n) < b * mpmath.mpf(10) ** -45:
                    break
            want = (
                float(mpmath.log(lam) if lam < 0.5 else mpmath.log1p(-co)),
                float(mpmath.log(co) if co < 0.5 else mpmath.log1p(-lam)),
                float(4 * (mpmath.log1p(a) - mpmath.log1p(b))),
            )
        got = special._log_lambda_imag(t)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestModulus:
    def test_round_trip(self):
        e = tau0_from_modulus(0.6)
        assert e.k == 0.6
        assert e.k ** 2 + e.kprime ** 2 == pytest.approx(1.0, abs=1e-14)
        assert e.tau0 == pytest.approx(
            complete_elliptic_K(e.kprime) / complete_elliptic_K(e.k), rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("j", range(1, 25))
    @pytest.mark.parametrize("side", ["small", "near_one"])
    def test_tau0_against_mpmath(self, j, side):
        # k = 10^(-j/2) down to 1e-12, and 1 - 10^(-j/2) up to 1 - 1e-12:
        # tau0 = K(k')/K(k) must keep its digits at both ends of (0, 1)
        k = 10.0 ** (-j / 2.0) if side == "small" else 1.0 - 10.0 ** (-j / 2.0)
        with mpmath.workdps(40):
            m = mpmath.mpf(k) ** 2
            want = float(mpmath.ellipk(1 - m) / mpmath.ellipk(m))
        assert tau0_from_modulus(k).tau0 == pytest.approx(want, rel=1e-13, abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            tau0_from_modulus(0.0)
        with pytest.raises(DomainError):
            tau0_from_modulus(1.0)
        with pytest.raises(DomainError):
            EllipticModulus(k=0.6, kprime=0.9)
