"""Correctness checks of every op output against the independent references.

reference(op) computes, once per op and outside any timed region, what the
op's outputs must be; check(op, ref, out) compares one output with it.  A
comparison whose reference should agree to rounding also yields the number
of significant digits of agreement; comparisons against asymptotic forms,
quadrature or truncated sums only pass or fail.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import reference as R

LN2 = math.log(2.0)
TOL_FINITE = 1e-9   # finite-L values against the numpy rebuild
TOL_LIMIT = 1e-8    # limit values against mpmath


def _digits(err: float) -> float:
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))


def _wrap(phase: float) -> float:
    return (phase + math.pi) % (2.0 * math.pi) - math.pi


class Verdict:
    """Collects one op's comparisons; the first that fails names the failure."""

    def __init__(self) -> None:
        self.failure: str | None = None
        self.digits: list[float] = []

    def fail(self, text: str) -> None:
        if self.failure is None:
            self.failure = text

    def holds(self, name: str, cond: bool) -> None:
        if not cond:
            self.fail(f"check {name} failed")

    def close(self, name: str, got, want, tol: float, scale: float | None = None,
              digits: bool = True) -> None:
        """|got - want| / scale <= tol, scale defaulting to max(1, |want|)."""
        try:
            err = abs(float(got) - float(want)) / (scale or max(1.0, abs(float(want))))
        except (TypeError, ValueError):
            self.fail(f"check {name} failed: {got!r} is not a number")
            return
        if digits:
            self.digits.append(_digits(err))
        if not err <= tol:
            self.fail(f"check {name} failed: {got!r} vs reference {float(want)!r} "
                      f"(error {err:.2e} > {tol:.0e})")

    def relative(self, name: str, got, want, tol: float, digits: bool = True) -> None:
        self.close(name, got, want, tol, scale=abs(float(want)) or 1.0, digits=digits)

    def log_close(self, name: str, got: list[float], want: complex, tol: float,
                  digits: bool = True) -> None:
        """A (log_abs, phase) pair against a complex log, the phase mod 2 pi."""
        scale = max(1.0, abs(want))
        err = max(abs(got[0] - want.real), abs(_wrap(got[1] - want.imag))) / scale
        if digits:
            self.digits.append(_digits(err))
        if not err <= tol:
            self.fail(f"check {name} failed: ({got[0]!r}, {got[1]!r}) vs reference {want!r} "
                      f"(error {err:.2e} > {tol:.0e})")


@functools.lru_cache(maxsize=None)
def _mults(sigma: int, nmax: int) -> tuple[int, ...]:
    return tuple(R.multiplicities(sigma, nmax))


def _limit(g: float, h: float) -> dict:
    lr = R.LimitReference(g, h)
    return {"lr": lr, "vn": lr.vn()}


def _xy_finite(g: float, h: float, L: int, alphas=()) -> dict:
    nus = R.xy_nus(g, h, L)
    return {
        "nus": nus, "S": R.vn_entropy(nus),
        "renyi": [R.renyi_entropy(nus, a) for a in alphas],
    }


# -----------------------------------------------------------------------------
# References, one per op
# -----------------------------------------------------------------------------
def reference(op: dict) -> dict:
    kind = op["kind"]
    if kind == "xy_block":
        g, h, L = op["gamma"], op["h"], op["L"]
        lam = complex(*op["lam"])
        ref = _xy_finite(g, h, L, op["alphas"])
        nus = ref.pop("nus")
        ref["det"] = complex(np.sum(np.log(lam * lam - nus.astype(complex) ** 2))) + 1j * math.pi * L
        ref["top"] = R.top_eigenvalues(nus, op["count"])
        if op["converged"]:
            ref["S_inf"] = R.LimitReference(g, h).vn()
        return ref
    if kind == "xx_block":
        h, L = op["h"], op["L"]
        lam = complex(*op["lam"])
        m = R.xx_matrix(h, L)
        return {
            "S": R.vn_entropy(np.linalg.eigvalsh(m)),
            "S_asym": R.xx_entropy_asymptotic(h, L),
            "det": R.logdet(lam * np.eye(L) - m),
            "det_asym": R.xx_char_det_asymptotic(lam, h, L),
        }
    if kind == "szego_det":
        v = {int(k): complex(*c) for k, c in op["logsymbol"].items()}
        return {"det": R.szego_log(v, op["L"])}
    if kind == "limit":
        ref = _limit(op["gamma"], op["h"])
        lr = ref["lr"]
        ref["renyi"] = [lr.renyi(a) for a in op["alphas"]]
        ref["renyi_q"] = [lr.renyi_qproduct(a) for a in op["alphas"]]
        ref["log_lambda0"], ref["ratio"] = lr.density_ladder()
        ref["zeta2"] = math.exp(-lr.renyi(2.0))
        return ref
    if kind == "cli":
        return _cli_reference(op)
    raise ValueError(f"unknown op kind {kind!r}")


def _cli_reference(op: dict) -> dict:
    g, h, cmd, opts = op["gamma"], op["h"], op["command"], op["opts"]
    if cmd == "entropy" and g == 0.0:
        L = int(opts["L"])
        return {"L": L, "S": R.vn_entropy(np.linalg.eigvalsh(R.xx_matrix(h, L))),
                "S_asym": R.xx_entropy_asymptotic(h, L)}
    ref = _limit(g, h)
    if cmd == "entropy":
        start, stop, step = (int(x) for x in opts["L"].split(":"))
        ref["Ls"] = list(range(start, stop + 1, step))
        ref["S"] = [_xy_finite(g, h, L)["S"] for L in ref["Ls"]]
    elif cmd == "renyi":
        alphas = [float(a) for a in opts["alpha"].split(",")]
        ref["alphas"] = alphas
        ref["exact"] = _xy_finite(g, h, int(opts["L"]), alphas)["renyi"]
        ref["limit"] = [ref["lr"].renyi(a) for a in alphas]
        ref["limit_q"] = [ref["lr"].renyi_qproduct(a) for a in alphas]
    elif cmd == "spectrum":
        nus = R.xy_nus(g, h, int(opts["L"]))
        ref["finite"] = R.top_eigenvalues(nus, 2 ** len(nus), modes=len(nus))
        ref["log_lambda0"], ref["ratio"] = ref["lr"].density_ladder()
    elif cmd == "detcheck":
        L, lam = int(opts["L"]), float(opts["lambda"])
        nus = R.xy_nus(g, h, L)
        ref["exact"] = float(np.sum(np.log(np.abs(lam * lam - nus ** 2))))
        lr = ref["lr"]
        ref["asym"] = R.xy_block_det_asymptotic(lam, lr.tau0, lr.sigma, L).real
    return ref


# -----------------------------------------------------------------------------
# Checks, one per op output
# -----------------------------------------------------------------------------
def check(op: dict, ref: dict, out: dict) -> Verdict:
    v = Verdict()
    if "error" in out:
        v.fail(f"raised {out['error']}: {out['message']}")
        return v
    try:
        CHECKS[op["kind"]](v, op, ref, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        v.fail(f"malformed output: {type(exc).__name__}: {exc}")
    return v


def _non_increasing(v: Verdict, values: list[float], tol: float) -> None:
    """Renyi entropies at increasing orders, within the values' own tolerance
    (near k -> 0 they all sit at ln 2 and differ only by rounding)."""
    v.holds("Renyi non-increasing in alpha",
            all(a >= b - tol * max(1.0, abs(b)) for a, b in zip(values, values[1:])))


def _check_xy_block(v: Verdict, op, ref, out) -> None:
    L = op["L"]
    S, renyi = out["S"], out["renyi"]
    v.holds("0 <= nu <= 1", 0.0 <= out["nu"][0] and out["nu"][1] <= 1.0)
    v.holds("L values of nu", out["n"] == L)
    v.holds("0 <= S <= L ln 2", 0.0 <= S <= L * LN2)
    _non_increasing(v, [S, *renyi], TOL_FINITE)  # orders 1 < 2 < 3
    v.close("S vs numpy rebuild", S, ref["S"], TOL_FINITE)
    for a, got, want in zip(op["alphas"], renyi, ref["renyi"]):
        v.close(f"Renyi({a}) vs numpy rebuild", got, want, TOL_FINITE)
    v.log_close("block det vs numpy rebuild", out["det"], ref["det"], TOL_FINITE)
    # eigenvalues are compared on the scale of the largest: a small one holds a
    # factor (1 - nu)/2 with nu ~ 1, which no double-precision nu fixes
    # to better than 1e-16 absolute
    for i, (got, want) in enumerate(zip(out["top"], ref["top"])):
        v.close(f"top eigenvalue {i} vs enumeration", got, want, TOL_FINITE, scale=ref["top"][0])
    if "S_inf" in ref:
        v.close("S_L vs mpmath limit", S, ref["S_inf"], TOL_LIMIT, digits=False)


def _check_xx_block(v: Verdict, op, ref, out) -> None:
    L = op["L"]
    v.holds("|nu| <= 1", -1.0 <= out["nu"][0] and out["nu"][1] <= 1.0)
    v.holds("L values of nu", out["n"] == L)
    v.holds("0 <= S <= L ln 2", 0.0 <= out["S"] <= L * LN2)
    v.close("S vs numpy rebuild", out["S"], ref["S"], TOL_FINITE)
    v.close("XX asymptote vs mpmath Upsilon1", out["S_asym"], ref["S_asym"], TOL_FINITE)
    v.close("S_L vs XX asymptote", out["S"], ref["S_asym"], 1e-4, digits=False)
    v.log_close("char det vs dense LU", out["det"], ref["det"], TOL_FINITE)
    v.log_close("char det asymptote vs mpmath", out["det_asym"], ref["det_asym"], TOL_FINITE)
    v.log_close("Fisher-Hartwig vs mpmath", out["fh"], ref["det_asym"], TOL_FINITE)
    v.log_close("char det vs its asymptote", out["det"], ref["det_asym"], 1e-3, digits=False)


def _check_szego_det(v: Verdict, op, ref, out) -> None:
    v.log_close("dense det vs analytic Szego", out["det"], ref["det"], TOL_FINITE)
    v.log_close("Szego asymptote vs analytic", out["asym"], ref["det"], TOL_FINITE)


def _check_limit(v: Verdict, op, ref, out) -> None:
    lr = ref["lr"]
    v.holds(f"phase case {lr.label}", out["case"] == lr.label)
    v.relative("k vs mpmath", out["k"], lr.k, TOL_LIMIT)
    v.relative("k' vs mpmath", out["kprime"], lr.kprime, TOL_LIMIT)
    v.relative("tau0 vs mpmath", out["tau0"], lr.tau0, TOL_LIMIT)
    v.close("series vs mpmath ladder", out["series"], ref["vn"], TOL_LIMIT)
    v.close("closed form vs mpmath ladder", out["closed"], ref["vn"], TOL_LIMIT)
    v.close("integral vs mpmath ladder", out["integral"], ref["vn"], TOL_LIMIT, digits=False)
    for a, q, m, ladder, qprod in zip(op["alphas"], out["qproduct"], out["modular"],
                                      ref["renyi"], ref["renyi_q"]):
        v.close(f"q-product Renyi({a}) vs mpmath ladder", q, ladder, TOL_LIMIT)
        v.close(f"modular Renyi({a}) vs mpmath q-product", m, qprod, TOL_LIMIT)
    # orders 0.5 < 1 (von Neumann) < 2 < 3 < 10
    _non_increasing(v, [out["qproduct"][0], out["series"], *out["qproduct"][1:]], TOL_LIMIT)
    v.relative("lambda_0 vs mpmath ladder", out["lambda0"], math.exp(ref["log_lambda0"]), TOL_LIMIT)
    v.relative("ladder ratio vs mpmath", out["ratio"], ref["ratio"], TOL_LIMIT)
    v.holds("multiplicities vs partition products",
            tuple(out["mults"]) == _mults(lr.sigma, len(out["mults"]) - 1))
    v.close("zeta(1) = 1", out["zeta1"], 1.0, 1e-10, digits=False)
    v.relative("zeta(2) vs mpmath Renyi(2)", out["zeta2"], ref["zeta2"], TOL_LIMIT, digits=False)


def _check_cli(v: Verdict, op, ref, out) -> None:
    if out["returncode"] != 0:
        v.fail(f"exit code {out['returncode']}: {out['stderr'].strip()[-200:]}")
        return
    doc = out["doc"]
    rows, meta, cmd = doc["rows"], doc["metadata"], op["command"]
    if op["gamma"] == 0.0:
        (L, s_ex, s_asym, _), = rows
        v.holds("block length echoed", L == ref["L"])
        v.close("S vs numpy rebuild", s_ex, ref["S"], TOL_FINITE)
        v.close("XX asymptote vs mpmath Upsilon1", s_asym, ref["S_asym"], TOL_FINITE)
        return
    lr = ref["lr"]
    v.relative("metadata k vs mpmath", meta["k"], lr.k, TOL_LIMIT)
    v.relative("metadata tau0 vs mpmath", meta["tau0"], lr.tau0, TOL_LIMIT)
    if cmd == "entropy":
        v.holds("one row per L plus the limit", len(rows) == len(ref["Ls"]) + 1)
        for (L, s_ex, s_lim, _), want in zip(rows, ref["S"]):
            v.close(f"S({L}) vs numpy rebuild", s_ex, want, TOL_FINITE)
            v.close("limit vs mpmath ladder", s_lim, ref["vn"], TOL_LIMIT)
        v.close("limit row vs mpmath ladder", rows[-1][2], ref["vn"], TOL_LIMIT)
    elif cmd == "renyi":
        v.holds("one row per order", len(rows) == len(ref["alphas"]))
        for (a, s_ex, s_q, s_m), ex, lim, lim_q in zip(rows, ref["exact"], ref["limit"], ref["limit_q"]):
            v.close(f"Renyi({a}) vs numpy rebuild", s_ex, ex, TOL_FINITE)
            v.close(f"q-product Renyi({a}) vs mpmath ladder", s_q, lim, TOL_LIMIT)
            v.close(f"modular Renyi({a}) vs mpmath q-product", s_m, lim_q, TOL_LIMIT)
    elif cmd == "spectrum":
        nmax = int(op["opts"]["nmax"])
        mults = _mults(lr.sigma, nmax)
        lam0, ratio = math.exp(ref["log_lambda0"]), ref["ratio"]
        v.holds("one row per rung", len(rows) == nmax + 1)
        offset, cum = 0, 0.0
        for n, lam_n, mult, cumtrace, finite in rows:
            v.relative(f"lambda_{n} vs mpmath ladder", lam_n, lam0 * ratio ** n, TOL_LIMIT)
            v.holds(f"multiplicity {n} vs partition products", mult == mults[n])
            cum += mults[n] * lam0 * ratio ** n
            v.relative(f"cumulative trace {n}", cumtrace, cum, TOL_LIMIT, digits=False)
            if finite != "":
                v.close(f"finite eigenvalue at rung {n} vs 2^L enumeration",
                        finite, ref["finite"][offset], TOL_FINITE, scale=ref["finite"][0])
            offset += mults[n]
        v.holds("trace <= 1", rows[-1][3] <= 1.0 + 1e-12)
    elif cmd == "detcheck":
        (L, ex, asym, _), = rows
        v.close("log|det| vs numpy rebuild", ex, ref["exact"], TOL_FINITE)
        v.close("log|det| asymptote vs mpmath theta", asym, ref["asym"], TOL_LIMIT)


CHECKS = {
    "xy_block": _check_xy_block,
    "xx_block": _check_xx_block,
    "szego_det": _check_szego_det,
    "limit": _check_limit,
    "cli": _check_cli,
}
