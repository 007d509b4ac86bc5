import cmath
import copy
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xyent
from test_package import _public_callables
from xyent import (
    ConvergenceError,
    CorrelationMatrix,
    DensitySpectrum,
    DomainError,
    EllipticModulus,
    FHSingularity,
    ModelParams,
    NuSpectrum,
    PhaseCase,
    ScaledValue,
    SmoothSymbolFactorization,
    SpectralParameter,
    SpectrumRangeError,
    ThetaZeroLadder,
    XyentError,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    density_spectrum,
    finite_l_eigenvalues,
    log_barnes_g,
    modular_lambda,
    modulus_k,
    multiplicities,
    multiplicity_asymptotic,
    nu_spectrum,
    renyi_exact,
    renyi_limit_modular,
    renyi_limit_qproduct,
    required_nmax,
    szego_asymptotic,
    theta,
    theta_zero_ladder,
    toeplitz_det_exact,
    vn_entropy_closed,
    vn_entropy_exact,
    xx_char_det_asymptotic,
    xx_entropy_asymptotic,
    xy_block_det_asymptotic,
    zeta_function,
)
from xyent.errors import _array, _count, _real
from xyent.spectrum import _ladder_params
from oracles import fft_coeffs

# The boundary sweep: every public callable, and every public class that
# validates its fields, is called once with valid arguments, then with one
# numeric argument swapped for a bad or extreme value (an array argument has
# its middle entry swapped).  Each call either raises XyentError or returns
# a value holding no NaN and no +inf.  -inf is accepted only as the log of an
# exact zero: a ScaledValue's log_abs, or the real part of what a function
# named log_* returns.

BAD = (math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e308, 10 ** 400, -10 ** 5000)

P = ModelParams(0.5, 1.0)
CASE = classify_case(P)
E = modulus_k(P)
BLOCK = build_correlation_matrix(P, 40)
XY = nu_spectrum(BLOCK)
XX = nu_spectrum(build_xx_matrix(1.0, 40))
S = SpectralParameter(2.0)
# numpy holds at most sys.maxsize bytes, so no complex (16-byte) array has more entries
LONGEST = sys.maxsize // 16


def _symbol(t):
    return cmath.exp(0.3 * math.cos(t))


F = SmoothSymbolFactorization.from_symbol(_symbol, 32)
COEFFS = fft_coeffs(_symbol, 32)
CLS = SmoothSymbolFactorization

# One valid call per public callable, keyed as _public_callables names it; a
# method's arguments start with its class or instance.  Defaulted arguments
# are passed, so that they are swept too.
VALID = {
    "NuSpectrum.from_nus": (NuSpectrum, np.array([1.0, 0.6, 0.2, -0.3, -1.0])),
    "classify_case": (P,),
    "modulus_k": (P,),
    "build_correlation_matrix": (P, 40),
    "build_xx_matrix": (1.0, 40),
    "nu_spectrum": (BLOCK,),
    "log_barnes_g": (0.3 + 0.2j,),
    "complete_elliptic_K": (0.6,),
    "theta": (3, 0.2 + 0.1j, 1.2j),
    "modular_lambda": (1.2j,),
    "tau0_from_modulus": (0.6,),
    "ScaledValue.ratio": (ScaledValue(1.0, 0.2), ScaledValue(0.5, 0.1)),
    "SmoothSymbolFactorization.from_symbol": (CLS, _symbol, 32),
    "SmoothSymbolFactorization.constant": (CLS, 0.5 + 0.1j),
    "SmoothSymbolFactorization.log_b_plus": (F, cmath.exp(0.7j)),
    "SmoothSymbolFactorization.log_b_minus": (F, cmath.exp(0.7j)),
    "SmoothSymbolFactorization.szego_sum": (F,),
    "toeplitz_det_exact": (COEFFS, 20),
    "szego_asymptotic": (F, 20),
    "fisher_hartwig_asymptotic": (F, [FHSingularity(1.0, 0.25, 0.1j)], 20),
    "xx_char_det_asymptotic": (S, 1.0, 40),
    "xx_char_det_exact": (XX, S),
    "xy_block_det_asymptotic": (S, E, CASE, 40, 1e-3),
    "xy_block_det_exact": (XY, S),
    "vn_entropy_exact": (XY,),
    "renyi_exact": (XY, 2.0),
    "upsilon1": (),
    "xx_entropy_asymptotic": (1.0, 40),
    "theta_zero_ladder": (E, 1, 8),
    "vn_entropy_limit_series": (E, 1),
    "vn_entropy_limit_integral": (E, 1),
    "vn_entropy_closed": (E, CASE),
    "renyi_limit_qproduct": (2.0, E, CASE),
    "renyi_limit_modular": (2.0, E, CASE),
    "critical_entropy_approx": (ModelParams(0.05, 1.0),),
    "multiplicities": (CASE, 12),
    "multiplicity_asymptotic": (12,),
    "density_spectrum": (P, 16),
    "zeta_function": (density_spectrum(P, 64), 2.0),
    "required_nmax": (E, CASE, 2.0),
    "finite_l_eigenvalues": (XY, 8),
}

# One valid construction per public class with a __post_init__.
VALID_FIELDS = {
    "ModelParams": (0.5, 1.0),
    "PhaseCase": ("1a",),
    "EllipticModulus": (E.k, E.kprime),
    "DensitySpectrum": (E, 1, 16),
    "SpectralParameter": (2.0,),
    "FHSingularity": (1.0, 0.25, 0.1j),
    "SmoothSymbolFactorization": (F.Vk,),
    "CorrelationMatrix": (BLOCK.coefficients, 40),
    "NuSpectrum": (np.array([0.6, 0.2]), 3, 1),
    "ThetaZeroLadder": (E, 1, 8),
}

CALLABLES = dict(_public_callables())
CLASSES = {name: getattr(xyent, name) for name in xyent.__all__
           if isinstance(getattr(xyent, name), type) and "__post_init__" in vars(getattr(xyent, name))}


def _is_numeric(x):
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "fc" and x.size > 0
    return isinstance(x, (int, float, complex, np.number)) and not isinstance(x, (bool, np.bool_))


def _swaps(args):
    # an int beyond double range fits no float array, so only scalars take one
    return [(i, v) for i, a in enumerate(args) if _is_numeric(a) for v in BAD
            if not (isinstance(a, np.ndarray) and isinstance(v, int) and abs(v) > sys.float_info.max)]


def _swapped(args, i, v):
    args = list(args)
    if isinstance(args[i], np.ndarray):
        a = args[i].copy()
        a[a.size // 2] = v
        args[i] = a
    else:
        args[i] = v
    return args


def _unclean(x, log=False):
    """The NaN and +inf (and -inf, unless x is a log) held anywhere in x."""
    if isinstance(x, ScaledValue):
        return _unclean(x.log_abs, log=True) + _unclean(x.phase)
    if dataclasses.is_dataclass(x):  # its fields and what __post_init__ derives
        return [u for v in vars(x).values() for u in _unclean(v)]
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return [u for item in x for u in _unclean(item)]
    if isinstance(x, (complex, np.complexfloating)):
        return _unclean(x.real, log) + _unclean(x.imag)
    if isinstance(x, (float, np.floating)):
        return [x] if math.isnan(x) or x == math.inf or (x == -math.inf and not log) else []
    if isinstance(x, np.ndarray) and x.dtype.kind in "fc":
        parts = (x.real, x.imag) if x.dtype.kind == "c" else (x,)
        return [v for part in parts for v in part[~np.isfinite(part)].tolist()]
    return []


def _check(name, fn, args):
    try:
        out = fn(*args)
    except XyentError:
        return
    assert not _unclean(out, log=name.split(".")[-1].startswith("log_")), (name, args, out)


def test_every_public_callable_has_a_valid_call():
    assert set(VALID) == set(CALLABLES)
    assert set(VALID_FIELDS) == set(CLASSES)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_is_clean(name):
    out = CALLABLES[name](*VALID[name])
    assert not _unclean(out, log=name.split(".")[-1].startswith("log_"))


@pytest.mark.parametrize("name", sorted(VALID_FIELDS))
def test_valid_construction_is_clean(name):
    assert not _unclean(CLASSES[name](*VALID_FIELDS[name]))


@pytest.mark.parametrize("name", sorted(n for n in VALID if _swaps(VALID[n])))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_swapped_argument_fails_closed(name, data):
    i, v = data.draw(st.sampled_from(_swaps(VALID[name])))
    _check(name, CALLABLES[name], _swapped(VALID[name], i, v))


@pytest.mark.parametrize("name", sorted(n for n in VALID_FIELDS if _swaps(VALID_FIELDS[n])))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_swapped_field_fails_closed(name, data):
    i, v = data.draw(st.sampled_from(_swaps(VALID_FIELDS[name])))
    _check(name, CLASSES[name], _swapped(VALID_FIELDS[name], i, v))


# A point at k = 2e-9, where ln lambda_0 = -5.0e-19 is what is left of two
# terms near 3.57 that cancel; summed as written, they round to +8.9e-16.
P_TOP = ModelParams(0.001, 1e6)

# Calls that returned NaN or raised an untyped error before every public
# argument went through the validators.
_NAN_COEFFS = COEFFS.copy()
_NAN_COEFFS[COEFFS.size // 2] = math.nan
FORMER_LEAKS = {
    "xx_entropy_asymptotic(1.0, nan)": lambda: xx_entropy_asymptotic(1.0, math.nan),
    "multiplicity_asymptotic(nan)": lambda: multiplicity_asymptotic(math.nan),
    "multiplicity_asymptotic(1e308)": lambda: multiplicity_asymptotic(1e308),
    "multiplicity_asymptotic(153135)": lambda: multiplicity_asymptotic(153135),
    "build_correlation_matrix(p, 2.5)": lambda: build_correlation_matrix(P, 2.5),
    "build_xx_matrix(1.0, 2.5)": lambda: build_xx_matrix(1.0, 2.5),
    "multiplicities(case, nan)": lambda: multiplicities(CASE, math.nan),
    "density_spectrum(p, nan)": lambda: density_spectrum(P, math.nan),
    "theta_zero_ladder(e, 1, nan)": lambda: theta_zero_ladder(E, 1, math.nan),
    "finite_l_eigenvalues(nus, 2.5)": lambda: finite_l_eigenvalues(XY, 2.5),
    "toeplitz_det_exact(c, 2.5)": lambda: toeplitz_det_exact(COEFFS, 2.5),
    "toeplitz_det_exact(NaN coefficient)": lambda: toeplitz_det_exact(_NAN_COEFFS, 20),
    "szego_asymptotic(f, nan)": lambda: szego_asymptotic(F, math.nan),
    "szego_asymptotic(constant(nan), 10)": lambda: szego_asymptotic(CLS.constant(math.nan), 10),
    "xx_char_det_asymptotic(s, 1.0, nan)": lambda: xx_char_det_asymptotic(S, 1.0, math.nan),
    "xy_block_det_asymptotic(s, e, case, nan)": lambda: xy_block_det_asymptotic(S, E, CASE, math.nan),
    "zeta_function(spec, 1e308)": lambda: zeta_function(density_spectrum(P, 64), 1e308),
    "zeta_function(P_TOP, 1e308)": lambda: zeta_function(density_spectrum(P_TOP, 4), 1e308),
    "EllipticModulus(0.6, -0.8)": lambda: EllipticModulus(0.6, -0.8),
    # alpha tau0 underflows to 0 (tau0 = 0.23): a ZeroDivisionError in 1/t
    "renyi_limit_modular(5e-324, e, case)":
        lambda: renyi_limit_modular(5e-324, EllipticModulus(0.99999), CASE),
    # complex arguments: a string was stored or parsed, None raised a
    # TypeError, |x| past double range an OverflowError, and a NaN tau
    # ConvergenceError, the exit-3 kind
    'SpectralParameter("3")': lambda: SpectralParameter("3"),
    "SpectralParameter(None)": lambda: SpectralParameter(None),
    "FHSingularity(1.0, None, 0.1j)": lambda: FHSingularity(1.0, None, 0.1j),
    "FHSingularity(1.0, 0.25, None)": lambda: FHSingularity(1.0, 0.25, None),
    "constant(None)": lambda: CLS.constant(None),
    "log_b_plus(None)": lambda: F.log_b_plus(None),
    "log_b_minus(None)": lambda: F.log_b_minus(None),
    "log_b_plus(1.7e308 (1 + i))": lambda: F.log_b_plus(complex(1.7e308, 1.7e308)),
    'theta(3, "0.1", 1j)': lambda: theta(3, "0.1", 1j),
    "theta(3, None, 1j)": lambda: theta(3, None, 1j),
    "theta(3, 0.1, None)": lambda: theta(3, 0.1, None),
    'modular_lambda("1j")': lambda: modular_lambda("1j"),
    "modular_lambda(None)": lambda: modular_lambda(None),
    "modular_lambda(nan + 1j)": lambda: modular_lambda(complex(math.nan, 1.0)),
    'log_barnes_g("0.5")': lambda: log_barnes_g("0.5"),
    "log_barnes_g(None)": lambda: log_barnes_g(None),
    "log_barnes_g(1.7e308 (1 + i))": lambda: log_barnes_g(complex(1.7e308, 1.7e308)),
    # log-coefficients Vk: an even length read a shifted V0 and gave a
    # silently wrong determinant, a 2-D array raised IndexError, and a NaN
    # surfaced only as "beyond double range" in the determinant
    "CLS(Vk of length 4)": lambda: CLS(np.array([0.1, 0.2, 0.3, 0.4])),
    "CLS(3 x 3 Vk)": lambda: CLS(np.zeros((3, 3))),
    "CLS(Vk with a NaN)": lambda: CLS(np.array([0.0, math.nan, 0.0])),
    # array arguments, each read by errors._array: a string array raised
    # TypeError or ValueError, an object array TypeError, and a bool or
    # complex block was built and then failed in nu_spectrum with
    # ValueError ("argmax of an empty sequence") or TypeError
    "CorrelationMatrix(string array)": lambda: CorrelationMatrix(np.array(["1", "0", "0"]), 2),
    "toeplitz_det_exact(string array)": lambda: toeplitz_det_exact(np.array(["1", "2", "1"]), 2),
    "CLS(string array)": lambda: CLS(np.array(["0", "0.3", "0"])),
    "toeplitz_det_exact(object array)": lambda: toeplitz_det_exact(np.array([1.0, None, 1.0]), 2),
    "nu_spectrum(bool block)": lambda: nu_spectrum(CorrelationMatrix(BLOCK.coefficients > 0.0, 40)),
    "nu_spectrum(complex block)": lambda: nu_spectrum(CorrelationMatrix(BLOCK.coefficients + 0j, 40)),
    # integers too long to print or to size an array: formatting the value
    # into the refusal raised ValueError ("Exceeds the limit (4300 digits)"),
    # numpy ValueError ("Maximum allowed dimension exceeded") and the
    # asymptotes OverflowError
    "ModelParams(10**5000, 1.0)": lambda: ModelParams(10 ** 5000, 1.0),
    "SpectralParameter(10**5000)": lambda: SpectralParameter(10 ** 5000),
    "build_xx_matrix(0.5, 10**30)": lambda: build_xx_matrix(0.5, 10 ** 30),
    "finite_l_eigenvalues(nus, 10**30)": lambda: finite_l_eigenvalues(XY, 10 ** 30),
    "theta_zero_ladder(e, 1, 10**30)": lambda: theta_zero_ladder(E, 1, 10 ** 30),
    "density_spectrum(p, 10**30)": lambda: density_spectrum(P, 10 ** 30),
    "xy_block_det_asymptotic(s, e, case, 10**400)":
        lambda: xy_block_det_asymptotic(S, E, CASE, 10 ** 400),
    "xx_char_det_asymptotic(s, 1.0, 10**400)": lambda: xx_char_det_asymptotic(S, 1.0, 10 ** 400),
    # counts under sys.maxsize that no float or complex array can hold:
    # numpy ValueError ("array is too big"), and OverflowError from multiplicities
    "build_xx_matrix(0.5, 2**61)": lambda: build_xx_matrix(0.5, 2 ** 61),
    "theta_zero_ladder(e, 1, 2**61)": lambda: theta_zero_ladder(E, 1, 2 ** 61),
    "density_spectrum(p, 2**61)": lambda: density_spectrum(P, 2 ** 61),
    "finite_l_eigenvalues(nus, 2**61)": lambda: finite_l_eigenvalues(XY, 2 ** 61),
    "multiplicities(case, 2**61)": lambda: multiplicities(CASE, 2 ** 61),
}


@pytest.mark.parametrize("call", list(FORMER_LEAKS.values()), ids=list(FORMER_LEAKS))
def test_former_leak_is_typed(call):
    with pytest.raises(DomainError):
        call()


# Malformed modes or nu values are what a failed solve hands NuSpectrum, so
# they raise SpectrumRangeError (exit 3), not DomainError: a complex mode
# was kept as its real part 0.5 with only a ComplexWarning, and from_nus
# raised ValueError on a 2-D array and AxisError on a scalar
@pytest.mark.parametrize("call", [lambda: NuSpectrum(np.array([0.5 + 0.3j])),
                                  lambda: NuSpectrum(np.zeros((2, 2))),
                                  lambda: NuSpectrum(np.float64(0.5)),
                                  lambda: NuSpectrum.from_nus([0.5 + 0.9j, 1.0]),
                                  lambda: NuSpectrum.from_nus(np.zeros((2, 2))),
                                  lambda: NuSpectrum.from_nus(0.5)],
                         ids=["complex modes", "2-D modes", "scalar modes", "complex nus", "2-D nus",
                              "scalar nus"])
def test_malformed_spectrum_is_a_range_error(call):
    with pytest.raises(SpectrumRangeError, match="must be a 1-D array of finite real numbers"):
        call()


@pytest.mark.parametrize("name, refuse", [("multiplicity_asymptotic(153135)", "beyond double range"),
                                          ("zeta_function(spec, 1e308)", "beyond double range"),
                                          ("zeta_function(P_TOP, 1e308)", "beyond double range"),
                                          ("build_xx_matrix(1.0, 2.5)", "block length L"),
                                          ("theta_zero_ladder(e, 1, nan)", "ladder length M"),
                                          ("toeplitz_det_exact(object array)",
                                           "^coefficients must be a 1-D array of finite complex"),
                                          ("nu_spectrum(bool block)",
                                           "^coefficients must be a 1-D array of finite real"),
                                          ('SpectralParameter("3")', "^lambda must be a finite complex"),
                                          ("modular_lambda(nan + 1j)", "^modular parameter tau"),
                                          ("renyi_limit_modular(5e-324, e, case)", "beyond double range"),
                                          ("ModelParams(10**5000, 1.0)", "got an integer of 16610 bits$"),
                                          ("build_xx_matrix(0.5, 10**30)",
                                           rf"^block length L must be an integer in \[1, {LONGEST}\]"),
                                          ("build_xx_matrix(0.5, 2**61)",
                                           rf"^block length L must be an integer in \[1, {LONGEST}\]"),
                                          ])
def test_refusal_names_its_cause(name, refuse):
    with pytest.raises(DomainError, match=refuse):
        FORMER_LEAKS[name]()


def test_modular_lambda_reduces_its_period():
    # lambda(tau + 2) = lambda(tau): Re tau = 1e308 is a multiple of 2, so
    # this is lambda(i) = 1/2 (an untyped ValueError before the reduction)
    assert modular_lambda(1e308 + 1j) == pytest.approx(0.5, rel=1e-15, abs=0)


# Each type holds only what it cannot derive.  A derived fact passed as one
# more field could disagree with the rest, and was read as given: the
# q-product Renyi form at (0.5, 1.0), alpha = 2, read 0.0187 for 0.7118
# with sigma = 2; vn_entropy_closed 2.765 for 0.706 with tau0 = 5 at
# k = 0.6; the Szego log-determinant of e^0.3 at L = 10 read 9.0 for 3.0
# with V0 = 0.9; zeta on 4 rungs announced as 41 passed its tail bound,
# as it did on the multiplicities of the other sigma; and the XY block at
# (0.5, 1.0), L = 40, flagged symmetric, took the eigensolve and read
# S = 25.23 for 0.7527.
def test_derived_facts_follow_the_inputs():
    types = (PhaseCase, EllipticModulus, SmoothSymbolFactorization, DensitySpectrum,
             CorrelationMatrix, ThetaZeroLadder)
    assert [[f.name for f in dataclasses.fields(t)] for t in types] == [
        ["label"], ["k", "kprime"], ["Vk"], ["modulus", "sigma", "truncation"],
        ["coefficients", "L"], ["modulus", "sigma", "M"]]
    assert build_xx_matrix(1.0, 8).symmetric and not build_correlation_matrix(P, 8).symmetric
    uneven = build_xx_matrix(1.0, 8).coefficients.copy()
    uneven[2] += 1e-3  # even at c_1, not at c_2
    assert CorrelationMatrix(uneven[:1], 1).symmetric and not CorrelationMatrix(uneven, 8).symmetric
    by_hand = CorrelationMatrix(BLOCK.coefficients, 40)
    assert not by_hand.symmetric
    assert vn_entropy_exact(nu_spectrum(by_hand)).value == vn_entropy_exact(XY).value
    assert vn_entropy_exact(XY).value == pytest.approx(0.7527, abs=1e-4)
    ladder = ThetaZeroLadder(E, 1, 4)
    assert vars(ladder)["tau0"] == E.tau0
    assert ladder.values.tolist() == theta_zero_ladder(E, 1, 4).values.tolist()
    assert ladder.values[0] == 0.0 and ThetaZeroLadder(E, 0, 4).values[0] > 0.0
    with pytest.raises(DomainError, match="phase case label must be"):
        PhaseCase("zz")
    assert [PhaseCase(x).sigma for x in ("1a", "1b", "2")] == [1, 1, 0]
    assert vars(CASE)["sigma"] == 1  # a plain attribute, not a property
    assert renyi_limit_qproduct(2.0, E, PhaseCase("1a")).value == pytest.approx(0.7118, abs=1e-4)
    assert vn_entropy_closed(EllipticModulus(0.6, 0.8), PhaseCase("1a")).value == pytest.approx(
        0.706, abs=1e-3)
    f = CLS.constant(0.3)
    assert f.V0 == 0.3 and szego_asymptotic(f, 10).log_abs == pytest.approx(3.0, rel=1e-15, abs=0)
    spec = DensitySpectrum(E, CASE.sigma, 3)
    assert spec.mults == multiplicities(CASE, 3) and len(spec.loglambdas) == 4
    assert spec.loglambdas.tolist() == density_spectrum(P, 3).loglambdas.tolist()
    with pytest.raises(ConvergenceError, match="have 3"):
        zeta_function(spec, 1.0)
    for sigma, case in ((0, PhaseCase("2")), (1, PhaseCase("1b"))):
        spec = DensitySpectrum(E, sigma, 64)
        assert spec.mults == multiplicities(case, 64)
        assert zeta_function(spec, 2.0) == pytest.approx(
            sum(m * lam ** 2 for m, lam in zip(spec.mults, spec.lambdas)), rel=1e-14, abs=0)


def test_required_nmax_where_the_top_rounds_above_1():
    # ln lambda_0 keeps its value at P_TOP, and the truncation, which does not
    # depend on lambda_0, stays finite at alpha = 1e300
    case, e = classify_case(P_TOP), modulus_k(P_TOP)
    assert _ladder_params(e, case.sigma)[0] == pytest.approx(-5.00000000002e-19, rel=1e-14, abs=0)
    n = required_nmax(e, case, 1e300)
    assert type(n) is int and n >= 1


@pytest.mark.parametrize("value", [BLOCK, XY, F, theta_zero_ladder(E, 1, 8), density_spectrum(P, 16),
                                   vn_entropy_closed(E, CASE)],
                         ids=lambda x: type(x).__name__)
def test_array_holders_compare_and_hash_by_identity(value):
    # the value types with array or dict fields (EntropyResult.params)
    # compare by identity: field-wise, == would compare their arrays
    # (ValueError) and hash() hash them (TypeError)
    assert value == value
    assert value != copy.copy(value) and value != copy.deepcopy(value)
    assert isinstance(hash(value), int)


@pytest.mark.parametrize("value", [True, np.True_, 8.0, math.nan, math.inf, -math.inf, "8", 0, -1])
def test_count_refuses(value):
    with pytest.raises(DomainError, match="^n must be an integer >= 1, got "):
        _count("n", value, 1)


def test_count_accepts_python_and_numpy_integers():
    assert _count("n", 8, 1) == 8
    assert _count("n", np.int64(8), 1) == 8 and type(_count("n", np.int64(8), 1)) is int
    assert _count("sigma", 1, 0, 1) == 1
    with pytest.raises(DomainError, match=r"sigma must be an integer in \[0, 1\], got 2"):
        _count("sigma", 2, 0, 1)
    # no complex array is longer than LONGEST; a value too long to print is named by its size
    assert _count("n", LONGEST, 1) == LONGEST
    with pytest.raises(DomainError, match=rf"^n must be an integer in \[1, {LONGEST}\], got {LONGEST + 1}$"):
        _count("n", LONGEST + 1, 1)
    with pytest.raises(DomainError, match=rf"^n must be an integer in \[1, {LONGEST}\], got 1000"):
        _count("n", 10 ** 30, 1)
    with pytest.raises(DomainError, match=rf"\[1, {LONGEST}\], got an integer of 16610 bits$"):
        _count("n", 10 ** 5000, 1)


@pytest.mark.parametrize("value", [np.array([True, False]), np.array(["1", "2"]), np.array([1.0, None]),
                                   [[1.0], [2.0, 3.0]], np.float64(0.5), 0.5, np.zeros((2, 2)),
                                   [0.5, math.nan], [math.inf], np.array([0.5 + 0j]), None, "12"],
                         ids=["bool", "string", "object", "ragged", "0-D", "scalar", "2-D", "nan",
                              "inf", "complex", "None", "str"])
def test_array_refuses(value):
    with pytest.raises(DomainError, match="^x must be a 1-D array of finite real numbers, got "):
        _array("x", value)


def test_array_accepts_lists_and_numbers():
    a = np.array([0.5, -1.0])
    assert _array("x", a) is a  # no copy
    # a list is read as the array it spells (CorrelationMatrix raised
    # AttributeError on one)
    block = CorrelationMatrix([1.0], 1)
    assert isinstance(block.coefficients, np.ndarray) and len(nu_spectrum(block)) == 1
    assert NuSpectrum.from_nus([0.5, -1.0]).n_minus == 1
    assert _array("x", [1, 2]).tolist() == [1.0, 2.0] and _array("x", [1, 2]).dtype == float
    assert _array("x", [0.5 + 1j, 2], complex).tolist() == [0.5 + 1j, 2.0]
    assert _array("x", np.array([0.5]), complex).dtype == complex
    with pytest.raises(DomainError, match="^x must be a 1-D array of finite complex numbers"):
        _array("x", [complex(math.nan, 1.0)], complex)


@pytest.mark.parametrize("value, lo, hi, ends, message", [
    (math.nan, -math.inf, math.inf, "[]", "x must be a finite real, got nan"),
    (math.inf, 0.0, math.inf, "[]", "x must be a finite real >= 0, got inf"),
    (0.0, 0.0, math.inf, "()", "x must be a finite real > 0, got 0.0"),
    (1.0, 0.0, 1.0, "()", r"x must be a finite real in \(0, 1\), got 1.0"),
    (1.5, 0.0, 1.0, "[]", r"x must be a finite real in \[0, 1\], got 1.5"),
    (2.0, -math.inf, 2.0, "[)", "x must be a finite real < 2, got 2.0"),
    (10 ** 400, -math.inf, math.inf, "[]", "x must be a finite real, got 1000"),
    (1j, -math.inf, math.inf, "[]", r"x must be a finite real, got 1j"),
    ("0.5", -math.inf, math.inf, "[]", "x must be a finite real, got '0.5'"),
    pytest.param(-10 ** 5000, -math.inf, math.inf, "[]",
                 "x must be a finite real, got an integer of 16610 bits$", id="-10**5000"),
])
def test_real_refuses(value, lo, hi, ends, message):
    with pytest.raises(DomainError, match="^" + message):
        _real("x", value, lo, hi, ends)


def test_real_keeps_closed_ends_and_floats():
    assert _real("x", 0.0, 0.0, 1.0, "[)") == 0.0
    assert _real("x", 1.0, 0.0, 1.0, "(]") == 1.0
    x = np.float64(0.25)
    assert _real("x", x, 0.0, 1.0, "()") is x
    assert type(_real("x", 1, 0.0)) is float


@pytest.mark.parametrize("point", [(0.5, 1.0), (0.5, 3.0), (1.0, 1e-9), (0.9, 1.8), (0.05, 1.5)])
def test_modular_renyi_meets_its_infinite_order_limit(point):
    # past alpha max(tau0, 1) = 1e300 the modular form is its alpha -> inf
    # limit -ln lambda_0, bitwise the q-product form's value there; just
    # below, the modular form itself is within 1e-14 of it
    p = ModelParams(*point)
    case, e = classify_case(p), modulus_k(p)
    limit = -_ladder_params(e, case.sigma)[0]
    for alpha in (1e301, 1e308):
        assert renyi_limit_modular(alpha, e, case).value == limit
        assert renyi_limit_qproduct(alpha, e, case).value == limit
    assert abs(renyi_limit_modular(1e299, e, case).value - limit) <= 1e-14
    if point == (0.5, 1.0):
        assert limit == 0.7024819343704007


def test_exact_renyi_meets_its_infinite_order_limit():
    # three modes at nu = 0: alpha sum ln p leaves double range at
    # alpha = 1e308 (it read +inf); past 1e300 the value is -sum ln p = 3 ln 2
    nus = NuSpectrum.from_nus([0.0, 0.0, 0.0])
    for alpha in (1e300, 1e301, 1e308):
        assert renyi_exact(nus, alpha).value == pytest.approx(3.0 * math.log(2.0), rel=1e-15, abs=0)
    # an all-trivial spectrum is +0.0 there too, not -0.0
    assert math.copysign(1.0, renyi_exact(NuSpectrum.from_nus(np.ones(12)), 1e301).value) > 0.0
    assert renyi_exact(XY, 1e308).value == pytest.approx(renyi_exact(XY, 1e300).value, rel=1e-15, abs=0)
