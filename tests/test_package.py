import inspect

import xyent

# The package's public names: xyent.__all__ is derived from the library
# modules' own __all__ lists, and this set pins it, so a name added to or
# dropped from a module shows up here.
PUBLIC = {
    "__version__", "BoundaryError", "branch_points", "BranchPoints",
    "build_correlation_matrix", "build_xx_matrix", "CASE_1A", "CASE_1B", "CASE_2",
    "classify_case", "complete_elliptic_K", "ConfigError", "ConvergenceError",
    "CorrelationMatrix", "critical_entropy_approx", "CutError", "density_spectrum",
    "DensitySpectrum", "DomainError", "e_func", "EllipticModulus", "EntropyResult",
    "FHSingularity", "finite_l_eigenvalues", "fisher_hartwig_asymptotic",
    "fourier_coeffs", "log_barnes_g", "ModelParams",
    "modular_lambda", "modulus_k", "multiplicities", "multiplicity_asymptotic",
    "nu_spectrum", "NuSpectrum", "partition_counts", "PhaseCase", "ProximityError",
    "RegimeError", "renyi_exact", "renyi_limit_modular", "renyi_limit_qproduct",
    "required_nmax", "ResolutionError", "ScaledValue", "SmoothSymbolFactorization",
    "SpectralParameter", "SpectrumRangeError", "szego_asymptotic", "tau0_from_modulus",
    "theta", "theta_zero_ladder", "ThetaZeroLadder", "toeplitz_det_exact",
    "toeplitz_matrix", "upsilon1", "vn_entropy_closed", "vn_entropy_exact",
    "vn_entropy_limit_integral", "vn_entropy_limit_series", "xx_char_det_asymptotic",
    "xx_char_det_exact", "xx_entropy_asymptotic", "xy_block_det_asymptotic",
    "xy_block_det_exact", "xy_widom_prefactor", "XyentError", "zeta_function",
}

# The defaulted parameters ("knobs") of every public function and public
# method, pinned the same way, so a tolerance or grid argument added to the
# API shows up here.  Dataclass constructors are not counted: their
# defaults are fields.
KNOBS = {
    "SmoothSymbolFactorization.from_symbol": ("n",),
    "density_spectrum": ("nmax",),
    "theta": ("tol",),
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
