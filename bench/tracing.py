"""Per-layer timing for the traced run.

install() wraps, at run time, the public functions of xyent's modules in
timers.  Every module attribute that is the original function is replaced,
so calls through names that one module imported from another (entropy's
`theta`, spectrum's `modulus_k`, cli's imports) are timed too.  Each layer
keeps its self time: the time inside its functions minus the time inside
any wrapped function they call.  Names that do not exist are skipped, so
the map survives functions being folded away.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> (module, function) pairs; "Class.method" names a classmethod
LAYERS = {
    "chain.build_s": [("chain", "build_correlation_matrix"), ("chain", "build_xx_matrix")],
    "chain.nu_s": [("chain", "nu_spectrum")],
    "chain.modulus_s": [("chain", "classify_case"), ("chain", "modulus_k")],
    "entropy.exact_s": [("entropy", "vn_entropy_exact"), ("entropy", "renyi_exact")],
    "entropy.series_s": [("entropy", "vn_entropy_limit_series")],
    "entropy.integral_s": [("entropy", "vn_entropy_limit_integral")],
    "entropy.closed_s": [("entropy", "vn_entropy_closed"), ("entropy", "xx_entropy_asymptotic")],
    "entropy.renyi_limit_s": [("entropy", "renyi_limit_qproduct"), ("entropy", "renyi_limit_modular")],
    "toeplitz.det_exact_s": [
        ("toeplitz", "toeplitz_det_exact"), ("toeplitz", "xx_char_det_exact"),
        ("toeplitz", "xy_block_det_exact"),
    ],
    "toeplitz.asym_s": [
        ("toeplitz", "szego_asymptotic"), ("toeplitz", "fisher_hartwig_asymptotic"),
        ("toeplitz", "xx_char_det_asymptotic"), ("toeplitz", "xy_block_det_asymptotic"),
    ],
    "toeplitz.factorize_s": [
        ("toeplitz", "SmoothSymbolFactorization.from_symbol"),
        ("toeplitz", "SmoothSymbolFactorization.constant"),
    ],
    "spectrum.density_s": [("spectrum", "density_spectrum")],
    "spectrum.zeta_s": [("spectrum", "zeta_function"), ("spectrum", "required_nmax")],
    "spectrum.finite_s": [("spectrum", "finite_l_eigenvalues")],
    "special.theta_s": [("special", "theta")],
    "special.lambda_s": [("special", "modular_lambda")],
    "special.barnes_s": [
        ("special", "log_barnes_g"), ("special", "log_barnes_g_pair"),
        ("special", "barnes_g"), ("special", "barnes_g_pair"),
    ],
    "special.elliptic_s": [("special", "complete_elliptic_K"), ("special", "tau0_from_modulus")],
}

# per-layer metrics measured around the CLI process rather than by wrapping
CLI_LAYERS = ("cli.import_s", "cli.run_s")
# call counts reported as metrics of their own
COUNTED = {"special.theta_s": "special.theta_calls"}

CHILD_TAG = "BENCH-TRACE "


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self._stack: list[float] = []  # time spent in wrapped callees, per open frame

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - self._stack.pop()
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1] += dt
        return traced

    def report(self) -> dict:
        out = dict(self.self_s)
        for layer, name in COUNTED.items():
            out[name] = self.calls[layer]
        return out


def install() -> Tracer:
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items()) if name == "xyent" or name.startswith("xyent.")]
    for layer, names in LAYERS.items():
        for modname, qual in names:
            mod = sys.modules.get("xyent." + modname)
            if mod is None:
                continue
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(layer, raw.__func__)))
                continue
            orig = getattr(mod, qual, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(layer, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
    return tracer


def child_report(stderr: str) -> dict:
    """The layer totals a traced CLI child printed as its last stderr line."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(CHILD_TAG):
            return json.loads(line[len(CHILD_TAG):])
    raise ValueError("traced CLI child printed no trace line")
