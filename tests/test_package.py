import ast
import inspect
import pathlib

import xyent

# The package's public names: xyent.__all__ is derived from the library
# modules' own __all__ lists, and this set pins it, so a name added to or
# dropped from a module shows up here.
PUBLIC = {
    "__version__", "BoundaryError", "build_correlation_matrix", "build_xx_matrix",
    "CASE_1A", "CASE_1B", "CASE_2",
    "classify_case", "complete_elliptic_K", "ConfigError", "ConvergenceError",
    "CorrelationMatrix", "critical_entropy_approx", "CutError", "density_spectrum",
    "DensitySpectrum", "DomainError", "EllipticModulus", "EntropyResult",
    "FHSingularity", "finite_l_eigenvalues", "fisher_hartwig_asymptotic",
    "log_barnes_g", "ModelParams",
    "modular_lambda", "modulus_k", "multiplicities", "multiplicity_asymptotic",
    "nu_spectrum", "NuSpectrum", "PhaseCase", "ProximityError",
    "RegimeError", "renyi_exact", "renyi_limit_modular", "renyi_limit_qproduct",
    "required_nmax", "ResolutionError", "ScaledValue", "SmoothSymbolFactorization",
    "SpectralParameter", "SpectrumRangeError", "szego_asymptotic", "tau0_from_modulus",
    "theta", "theta_zero_ladder", "ThetaZeroLadder", "toeplitz_det_exact",
    "upsilon1", "vn_entropy_closed", "vn_entropy_exact",
    "vn_entropy_limit_integral", "vn_entropy_limit_series", "xx_char_det_asymptotic",
    "xx_char_det_exact", "xx_entropy_asymptotic", "xy_block_det_asymptotic",
    "xy_block_det_exact", "XyentError", "zeta_function",
}

# The defaulted parameters ("knobs") of every public function and public
# method, pinned the same way, so a tolerance or grid argument added to the
# API shows up here.  Dataclass constructors are not counted: their
# defaults are fields.
KNOBS = {
    "SmoothSymbolFactorization.from_symbol": ("n",),
    "density_spectrum": ("nmax",),
    "xy_block_det_asymptotic": ("proximity_tol",),
}


def _public_callables():
    for name in xyent.__all__:
        obj = getattr(xyent, name)
        if inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if isinstance(val, (classmethod, staticmethod)):
                    val = val.__func__
                if not attr.startswith("_") and inspect.isfunction(val):
                    yield f"{name}.{attr}", val
        elif inspect.isfunction(obj):
            yield name, obj


def test_public_names_pinned():
    assert len(xyent.__all__) == len(PUBLIC)
    assert set(xyent.__all__) == PUBLIC


def test_public_knobs_pinned():
    knobs = {}
    for name, fn in _public_callables():
        params = inspect.signature(fn).parameters.values()
        defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaulted:
            knobs[name] = defaulted
    assert knobs == KNOBS


def test_every_relative_approx_states_its_abs():
    # pytest.approx(x, rel=r) also accepts anything within its default
    # abs=1e-12, so a value below about 1e-6 would be checked far more
    # loosely than r says: every approx call in tests/ with a rel has an abs
    loose = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                given = {k.arg for k in node.keywords}
                if name == "approx" and (len(node.args) > 1 or "rel" in given) and "abs" not in given:
                    loose.append(f"{path.name}:{node.lineno}")
    assert not loose
