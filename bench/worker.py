"""Benchmark worker: the only process that runs xyent (or, for the cli
workload, starts it).

Protocol with run.py, one JSON document per line:
  1. the worker imports xyent, warms its lazy caches and prints
     {"ready": true, "import_s": ...}, then times the calibration kernel
     three times and prints {"kernel_s": [...]};
  2. it reads one job from stdin, {"workload", "ops", "warmup", "seconds",
     "trace"}, or end of input, on which it exits;
  3. it runs the warm-up ops once, then whole rounds of all ops until
     `seconds` have passed, printing one record per op as it goes, and ends
     with {"rss_mb", "layers"}.
Each record is [op index, start, wall seconds, output], with the start in
seconds from the first round; an op that raises gives
{"error": type, "message": text} as output.  Between ops, at least every
CALIBRATE_EVERY_S, the worker times the calibration kernel and prints
["cal", time, seconds].  Records are written out, not
kept, so the worker's peak memory does not grow with the number of rounds.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import resource
import subprocess
import sys
import time

T_IMPORT = time.perf_counter()
from xyent import chain, entropy, spectrum, toeplitz  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT
entropy.upsilon1()

import numpy as np  # noqa: E402  (already loaded by xyent)

import calibration  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATE_EVERY_S = 0.1


def _scaled(v) -> list[float]:
    return [v.log_abs, v.phase]


def _nu_range(nus) -> list[float]:
    return [float(np.min(nus.nus)), float(np.max(nus.nus))]


# -----------------------------------------------------------------------------
# Inputs that are not plain numbers, built once per op, untimed
# -----------------------------------------------------------------------------
def _symbol(v: dict[int, complex]):
    def phi(theta: float) -> complex:
        return cmath.exp(sum(c * cmath.exp(1j * k * theta) for k, c in v.items()))
    return phi


def _symbol_coefficients(v: dict[int, complex], n: int) -> np.ndarray:
    """Two-sided coefficients c_{-n..n} of exp(sum v_k e^{ik theta}) by FFT
    on a grid of at least 8n points (the symbol is entire in e^{i theta})."""
    m = 1 << max(12, (8 * n).bit_length())
    th = 2.0 * np.pi * np.arange(m) / m
    logphi = sum(c * np.exp(1j * k * th) for k, c in v.items())
    c = np.fft.fft(np.exp(logphi)) / m
    return c[np.arange(-n, n + 1) % m]


def prepare(op: dict, trace: bool) -> dict:
    kind = op["kind"]
    if kind == "xy_block":
        return {"p": chain.ModelParams(op["gamma"], op["h"]),
                "s": toeplitz.SpectralParameter(complex(*op["lam"]))}
    if kind == "xx_block":
        lam = complex(*op["lam"])
        kf = math.acos(op["h"] / 2.0)
        beta = cmath.log((lam + 1.0) / (lam - 1.0)) / (2j * math.pi)
        sings = [
            toeplitz.FHSingularity(0.0, 0.0, 0.0),
            toeplitz.FHSingularity(kf, 0.0, -beta),
            toeplitz.FHSingularity(2.0 * math.pi - kf, 0.0, beta),
        ]
        v0 = cmath.log(lam + 1.0) - kf / math.pi * cmath.log((lam + 1.0) / (lam - 1.0))
        return {"s": toeplitz.SpectralParameter(lam), "sings": sings, "v0": v0}
    if kind == "szego_det":
        v = {int(k): complex(*c) for k, c in op["logsymbol"].items()}
        return {"symbol": _symbol(v), "coeffs": _symbol_coefficients(v, op["L"] - 1)}
    if kind == "limit":
        return {"p": chain.ModelParams(op["gamma"], op["h"])}
    if kind == "cli":
        if trace:
            return {"argv": [sys.executable, os.path.join(HERE, "cli_child.py")] + op["args"], "traced": True}
        return {"argv": [sys.executable, "-m", "xyent.cli"] + op["args"], "traced": False}
    raise ValueError(f"unknown op kind {kind!r}")


# -----------------------------------------------------------------------------
# The ops: calls into xyent's public functions only
# -----------------------------------------------------------------------------
def run_xy_block(op, inp):
    nus = chain.nu_spectrum(chain.build_correlation_matrix(inp["p"], op["L"]))
    return {
        "nu": _nu_range(nus),
        "n": len(nus),
        "S": entropy.vn_entropy_exact(nus).value,
        "renyi": [entropy.renyi_exact(nus, a).value for a in op["alphas"]],
        "det": _scaled(toeplitz.xy_block_det_exact(nus, inp["s"])),
        "top": spectrum.finite_l_eigenvalues(nus, op["count"]).tolist(),
    }


def run_xx_block(op, inp):
    h, L, s = op["h"], op["L"], inp["s"]
    nus = chain.nu_spectrum(chain.build_xx_matrix(h, L))
    f = toeplitz.SmoothSymbolFactorization.constant(inp["v0"])
    return {
        "nu": _nu_range(nus),
        "n": len(nus),
        "S": entropy.vn_entropy_exact(nus).value,
        "S_asym": entropy.xx_entropy_asymptotic(h, L).value,
        "det": _scaled(toeplitz.xx_char_det_exact(nus, s)),
        "det_asym": _scaled(toeplitz.xx_char_det_asymptotic(s, h, L)),
        "fh": _scaled(toeplitz.fisher_hartwig_asymptotic(f, inp["sings"], L)),
    }


def run_szego_det(op, inp):
    f = toeplitz.SmoothSymbolFactorization.from_symbol(inp["symbol"], op["n"])
    return {
        "det": _scaled(toeplitz.toeplitz_det_exact(inp["coeffs"], op["L"])),
        "asym": _scaled(toeplitz.szego_asymptotic(f, op["L"])),
    }


def run_limit(op, inp):
    p = inp["p"]
    case = chain.classify_case(p)
    e = chain.modulus_k(p)
    out = {
        "case": case.label, "k": e.k, "kprime": e.kprime, "tau0": e.tau0,
        "series": entropy.vn_entropy_limit_series(e, case.sigma).value,
        "integral": entropy.vn_entropy_limit_integral(e, case.sigma).value,
        "closed": entropy.vn_entropy_closed(e, case).value,
        "qproduct": [], "modular": [],
    }
    for a in op["alphas"]:
        out["qproduct"].append(entropy.renyi_limit_qproduct(a, e, case).value)
        out["modular"].append(entropy.renyi_limit_modular(a, e, case).value)
    spec = spectrum.density_spectrum(p, spectrum.required_nmax(e, case, 1.0))
    out.update(
        lambda0=float(spec.lambdas[0]), ratio=spec.ratio, mults=list(spec.mults),
        zeta1=spectrum.zeta_function(spec, 1.0), zeta2=spectrum.zeta_function(spec, 2.0),
    )
    return out


def run_cli(op, inp):
    proc = subprocess.run(inp["argv"], capture_output=True, text=True)
    out = {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    if proc.returncode == 0:
        out["doc"] = json.loads(proc.stdout)
    if inp["traced"]:
        out["trace"] = tracing.child_report(proc.stderr)
    return out


RUNNERS = {
    "xy_block": run_xy_block,
    "xx_block": run_xx_block,
    "szego_det": run_szego_det,
    "limit": run_limit,
    "cli": run_cli,
}


def run_op(op, inp):
    try:
        return RUNNERS[op["kind"]](op, inp)
    except Exception as exc:  # an op that raises is a failed op, recorded
        return {"error": type(exc).__name__, "message": str(exc)[:300]}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    print(json.dumps({"ready": True, "import_s": IMPORT_S}), flush=True)
    print(json.dumps({"kernel_s": [calibration.kernel_s() for _ in range(3)]}), flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    ops = job["ops"]
    tracer = tracing.install() if job["trace"] else None
    inputs = [prepare(op, tracer is not None) for op in ops]
    for i in job["warmup"]:
        run_op(ops[i], inputs[i])
    if tracer is not None:
        tracer.reset()

    start = time.perf_counter()

    def calibrate() -> float:
        t = time.perf_counter() - start
        sys.stdout.write(json.dumps(["cal", t, calibration.kernel_s()]) + "\n")
        return time.perf_counter()

    last_cal = calibrate()
    while True:
        for i, op in enumerate(ops):
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                last_cal = calibrate()
            t0 = time.perf_counter()
            out = run_op(op, inputs[i])
            dt = time.perf_counter() - t0
            sys.stdout.write(json.dumps([i, t0 - start, dt, out]) + "\n")
        if time.perf_counter() - start >= job["seconds"]:
            break
    calibrate()
    result = {"rss_mb": peak_rss_mb(job["workload"])}
    if tracer is not None:
        result["layers"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
