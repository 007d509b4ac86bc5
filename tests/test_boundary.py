import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xyent
from test_package import _public_callables
from xyent import (
    DomainError,
    EllipticModulus,
    FHSingularity,
    ModelParams,
    NuSpectrum,
    ScaledValue,
    SmoothSymbolFactorization,
    SpectralParameter,
    XyentError,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    density_spectrum,
    e_func,
    finite_l_eigenvalues,
    fourier_coeffs,
    modulus_k,
    multiplicities,
    multiplicity_asymptotic,
    nu_spectrum,
    partition_counts,
    renyi_exact,
    renyi_limit_modular,
    renyi_limit_qproduct,
    szego_asymptotic,
    theta_zero_ladder,
    toeplitz_det_exact,
    xx_char_det_asymptotic,
    xx_entropy_asymptotic,
    xy_block_det_asymptotic,
    zeta_function,
)
from xyent.errors import _count, _real
from xyent.spectrum import _ladder_params

# The boundary sweep: every public callable, and every public class that
# validates its fields, is called once with valid arguments, then with one
# numeric argument swapped for a bad or extreme value (an array argument has
# its middle entry swapped).  Each call either raises XyentError or returns
# a value holding no NaN and no +inf.  -inf is accepted only as the log of an
# exact zero: a ScaledValue's log_abs, or the real part of what a function
# named log_* returns.

BAD = (math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e308)

P = ModelParams(0.5, 1.0)
CASE = classify_case(P)
E = modulus_k(P)
BLOCK = build_correlation_matrix(P, 40)
XY = nu_spectrum(BLOCK)
XX = nu_spectrum(build_xx_matrix(1.0, 40))
S = SpectralParameter(2.0)


def _symbol(t):
    return cmath.exp(0.3 * math.cos(t))


F = SmoothSymbolFactorization.from_symbol(_symbol, 32)
COEFFS = fourier_coeffs(_symbol, 32)
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
    "fourier_coeffs": (_symbol, 32),
    "toeplitz_det_exact": (COEFFS, 20),
    "toeplitz_matrix": (COEFFS, 20),
    "szego_asymptotic": (F, 20),
    "fisher_hartwig_asymptotic": (F, [FHSingularity(1.0, 0.25, 0.1j)], 20),
    "xx_char_det_asymptotic": (S, 1.0, 40),
    "xx_char_det_exact": (XX, S),
    "xy_block_det_asymptotic": (S, E, CASE, 40, 1e-3),
    "xy_block_det_exact": (XY, S),
    "e_func": (1.0, 0.5),
    "vn_entropy_exact": (XY,),
    "renyi_exact": (XY, 2.0),
    "xx_entropy_asymptotic": (1.0, 40),
    "theta_zero_ladder": (E, 1, 8),
    "vn_entropy_limit_series": (E, 1),
    "vn_entropy_limit_integral": (E, 1),
    "vn_entropy_closed": (E, CASE),
    "renyi_limit_qproduct": (2.0, E, CASE),
    "renyi_limit_modular": (2.0, E, CASE),
    "critical_entropy_approx": (ModelParams(0.05, 1.0),),
    "partition_counts": ("Distinct", 12),
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
    "EllipticModulus": (E.k, E.kprime, E.tau0),
    "SpectralParameter": (2.0,),
    "FHSingularity": (1.0, 0.25, 0.1j),
    "CorrelationMatrix": (BLOCK.coefficients, 40),
    "NuSpectrum": (np.array([0.6, 0.2]), np.array([0.64, 0.96]), 3, 1),
}

CALLABLES = dict(_public_callables())
CLASSES = {name: getattr(xyent, name) for name in xyent.__all__
           if isinstance(getattr(xyent, name), type) and "__post_init__" in vars(getattr(xyent, name))}


def _is_numeric(x):
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "fc" and x.size > 0
    return isinstance(x, (int, float, complex, np.number)) and not isinstance(x, (bool, np.bool_))


def _swaps(args):
    return [(i, v) for i, a in enumerate(args) if _is_numeric(a) for v in BAD]


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
    if dataclasses.is_dataclass(x):
        return [u for f in dataclasses.fields(x) for u in _unclean(getattr(x, f.name))]
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


@pytest.mark.parametrize("name", sorted(VALID_FIELDS))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_swapped_field_fails_closed(name, data):
    i, v = data.draw(st.sampled_from(_swaps(VALID_FIELDS[name])))
    _check(name, CLASSES[name], _swapped(VALID_FIELDS[name], i, v))


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
    "partition_counts(Distinct, 2.5)": lambda: partition_counts("Distinct", 2.5),
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
    "e_func(1e308, 0.5)": lambda: e_func(1e308, 0.5),
    "zeta_function(spec, 1e308)": lambda: zeta_function(density_spectrum(P, 64), 1e308),
    "EllipticModulus(0.6, 0.8, nan)": lambda: EllipticModulus(0.6, 0.8, math.nan),
    "EllipticModulus(0.6, -0.8, 1.0)": lambda: EllipticModulus(0.6, -0.8, 1.0),
}


@pytest.mark.parametrize("call", list(FORMER_LEAKS.values()), ids=list(FORMER_LEAKS))
def test_former_leak_is_typed(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("name, refuse", [("e_func(1e308, 0.5)", "beyond double range"),
                                          ("multiplicity_asymptotic(153135)", "beyond double range"),
                                          ("zeta_function(spec, 1e308)", "beyond double range"),
                                          ("build_xx_matrix(1.0, 2.5)", "block length L"),
                                          ("theta_zero_ladder(e, 1, nan)", "ladder length M"),
                                          ("EllipticModulus(0.6, 0.8, nan)", "tau0")])
def test_refusal_names_its_cause(name, refuse):
    with pytest.raises(DomainError, match=refuse):
        FORMER_LEAKS[name]()


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
        assert renyi_exact(nus, alpha).value == pytest.approx(3.0 * math.log(2.0), rel=1e-15)
    assert renyi_exact(XY, 1e308).value == pytest.approx(renyi_exact(XY, 1e300).value, rel=1e-15)
