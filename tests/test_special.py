import cmath
import math

import mpmath
import numpy as np
import pytest

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
from xyent import special
from oracles import log_gap, quad_elliptic_K

mpmath.mp.dps = 30


class TestEllipticK:
    def test_k0_is_exactly_half_pi(self):
        assert complete_elliptic_K(0.0) == math.pi / 2.0

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.8, 0.95, 0.999])
    def test_against_mpmath(self, k):
        ref = float(mpmath.ellipk(k * k))  # mpmath uses the parameter m = k^2
        assert complete_elliptic_K(k) == pytest.approx(ref, rel=1e-14)

    def test_against_quadrature(self):
        assert complete_elliptic_K(0.6) == pytest.approx(quad_elliptic_K(0.6), rel=1e-12)

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
        ref = float(mpmath.log(mpmath.barnesg(1 + x)))
        assert log_barnes_g(x).real == pytest.approx(ref, abs=1e-13)
        assert abs(log_barnes_g(x).imag) < 1e-13

    @pytest.mark.parametrize("x", [0.3 + 0.4j, -0.2 + 0.7j, 0.1 - 0.9j])
    def test_complex_against_mpmath(self, x):
        got = cmath.exp(log_barnes_g(x))
        want = complex(mpmath.barnesg(1 + x))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [
        1.2j, -0.3 - 2.1j, 0.49 + 3.7j, -0.45 - 5.2j, 0.25 + 5.6j, -0.25 - 5.6j,
        5.62, -5.62, 3.3, -2.5, -4.5 + 1e-3j, 2.0 + 2.0j, -3.0 - 3.0j, 5.62j,
    ])
    def test_widened_against_mpmath(self, x):
        # the whole disc |x| <= 5.62, the strip |Re x| < 1/2 that spectral
        # parameters fill included, against 40-digit mpmath
        with mpmath.workdps(40):
            want = mpmath.log(mpmath.barnesg(1 + mpmath.mpc(x)))
        assert log_gap(log_barnes_g(x), want) < 1e-13 * max(1.0, abs(complex(want)))

    def test_domain_limit(self):
        log_barnes_g(5.62)
        with pytest.raises(DomainError, match="_BARNES_MAX_ABS"):
            log_barnes_g(5.63)
        with pytest.raises(DomainError, match="_BARNES_MAX_ABS"):
            log_barnes_g(0.1 - 6.0j)

    @pytest.mark.parametrize("beta", [0.1, 0.3j, 0.2 + 0.3j, -0.4 + 1.1j])
    def test_pair_identity(self, beta):
        lhs = log_barnes_g(beta) + log_barnes_g(-beta)
        want = complex(mpmath.barnesg(1 + beta) * mpmath.barnesg(1 - beta))
        assert cmath.exp(lhs) == pytest.approx(want, rel=1e-12)

    def test_pair_matches_singletons_inside_disc(self):
        # the pair as a sum of logs, against mpmath's logs of the singletons
        beta = 0.2 - 0.35j
        lhs = log_barnes_g(beta) + log_barnes_g(-beta)
        rhs = complex(mpmath.log(mpmath.barnesg(1 + beta)) + mpmath.log(mpmath.barnesg(1 - beta)))
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_pair_beyond_re_beta_half(self):
        # the pair at Re beta = 1/2, which only the widened singleton serves
        beta = 0.5 + 0.1j
        lhs = log_barnes_g(beta) + log_barnes_g(-beta)
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
        want = complex(mpmath.jtheta(j, math.pi * s, q))
        got = theta(j, s, tau)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_quasi_periodicity(self):
        tau = 0.7j
        s = 0.21 + 0.05j
        lhs = theta(3, s + tau, tau)
        rhs = cmath.exp(-1j * math.pi * tau - 2j * math.pi * s) * theta(3, s, tau)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_location(self):
        tau = 0.9j
        assert abs(theta(3, 0.5 + tau / 2.0, tau)) < 1e-13

    def test_far_from_real_axis(self):
        # argument with large |Im s|: the series peak moves away from n = 0
        # and naive truncation at small n would be badly wrong
        tau = 0.5j
        s = 5.0 * tau
        lhs = theta(3, s, tau)
        want = complex(mpmath.jtheta(3, math.pi * complex(s), cmath.exp(1j * math.pi * tau)))
        assert lhs == pytest.approx(want, rel=1e-11)

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


class TestModularLambda:
    def test_budget_exhaustion(self, monkeypatch):
        # |q| = e^{-pi/100} needs about 1400 terms; the injected budget is 200
        monkeypatch.setattr(special, "_TERM_BUDGET", 200)
        with pytest.raises(ConvergenceError, match=r"\|q\| = 0\.969072") as err:
            modular_lambda(0.01j)
        assert "_TERM_BUDGET = 200" in str(err.value)

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
        want = complex((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)
        assert modular_lambda(tau) == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("j", range(-16, 17))
    def test_logs_against_mpmath(self, j):
        # (ln lambda(it), ln(1 - lambda(it))) at t = 10^(j/4), both sides of
        # t = 1; the reference reads lambda = (theta2/theta3)^4 and
        # 1 - lambda = (theta4/theta3)^4 at q = e^{-pi t} (Jacobi's quartic
        # identity), each log taken from the small one, with the digits that
        # theta4 ~ e^{-pi/(4t)} loses to cancellation added to the 40
        t = 10.0 ** (j / 4.0)
        with mpmath.workdps(40 + math.ceil(math.pi / (4.0 * t * math.log(10.0)))):
            q = mpmath.exp(-mpmath.pi * mpmath.mpf(t))
            t3 = mpmath.jtheta(3, 0, q)
            lam = (mpmath.jtheta(2, 0, q) / t3) ** 4
            co = (mpmath.jtheta(4, 0, q) / t3) ** 4
            want = (
                float(mpmath.log(lam) if lam < 0.5 else mpmath.log1p(-co)),
                float(mpmath.log(co) if co < 0.5 else mpmath.log1p(-lam)),
            )
        got = special._log_lambda_imag(t)
        assert got[0] == pytest.approx(want[0], rel=1e-13)
        assert got[1] == pytest.approx(want[1], rel=1e-13)


class TestModulus:
    def test_round_trip(self):
        e = tau0_from_modulus(0.6)
        assert e.k == 0.6
        assert e.k ** 2 + e.kprime ** 2 == pytest.approx(1.0, abs=1e-14)
        assert e.tau0 == pytest.approx(
            complete_elliptic_K(e.kprime) / complete_elliptic_K(e.k), rel=1e-14
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
        assert tau0_from_modulus(k).tau0 == pytest.approx(want, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            tau0_from_modulus(0.0)
        with pytest.raises(DomainError):
            tau0_from_modulus(1.0)
        with pytest.raises(DomainError):
            EllipticModulus(k=0.6, kprime=0.9, tau0=1.0)
