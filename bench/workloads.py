"""Inputs of the four workloads, generated from the workload seed.

A workload is a fixed list of ops, one round; a run repeats whole rounds.
Every op is a plain JSON-able dict, so the same list reaches the worker
(which calls xyent) and the checker (which computes the references).  The
L schedule, the command mix and the approach ladders are fixed; the seed
moves the points within their regions.  The seeded regions are bounded
away from the critical lines by the independent reference (branch-point
radius, tau0).  The approach ladders toward the boundaries are the
exception: how deep each goes was chosen by running the program (see
LADDERS).
"""

from __future__ import annotations

import math
import random

import reference as R

# Exact Renyi entropies below order 1 amplify rounding in nu ~ 1 (q^alpha
# with q ~ 1e-16), so the finite-L orders are all above 1.
RENYI_EXACT = (2.0, 3.0)
RENYI_LIMIT = (0.5, 2.0, 3.0, 10.0)
TOP_COUNT = 16

# finite-size correction estimate rho^(2L) below which an exact op is also
# checked against the L -> infinity limit
CONVERGED = 1e-12


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _spectral(rng: random.Random) -> list[float]:
    """A spectral parameter off the cut [-1, 1], as [re, im]."""
    if rng.random() < 0.5:
        return [rng.choice((-1.0, 1.0)) * rng.uniform(1.2, 3.0), 0.0]
    return [rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.0)]


def _phase_point(rng: random.Random, label: str, rho_max: float = 0.85) -> tuple[float, float]:
    """(gamma, h) in phase 1a, 1b or 2 whose branch-point radius is at most
    rho_max (correlation length under 1/ln(1/rho_max) sites)."""
    while True:
        if label == "1a":
            g = rng.uniform(0.3, 1.2)
            h = rng.uniform(2.0 * math.sqrt(max(0.0, 1.0 - g * g)), 2.0)
        elif label == "1b":
            g = rng.uniform(0.2, 0.95)
            h = rng.uniform(0.0, 2.0 * math.sqrt(1.0 - g * g))
        else:
            g = rng.uniform(0.2, 1.5)
            h = rng.uniform(2.0, 4.0)
        if R.branch_rho(g, h) <= rho_max and R.phase_case(g, h)[0] == label:
            return g, h


def _safe_limit_point(rng: random.Random, rho_max: float = 1.0) -> tuple[float, float]:
    """A point of the plane where the limit forms are well conditioned:
    tau0 >= 0.5 (keeps alpha tau0 >= 1/4 for the Renyi orders used) and
    |(h/2)^2 + gamma^2 - 1| >= 1e-3 (away from the circle and the Ising
    line at h -> 0)."""
    while True:
        g, h = rng.uniform(0.02, 2.0), rng.uniform(0.0, 4.0)
        if abs((h / 2.0) ** 2 + g * g - 1.0) < 1e-3 or abs(h - 2.0) < 1e-3:
            continue
        if float(R.modulus(g, h)[2]) >= 0.5 and R.branch_rho(g, h) <= rho_max:
            return g, h


# -----------------------------------------------------------------------------
# exact_xy: one XY block per op
# -----------------------------------------------------------------------------
_EXACT_SCHEDULE = [
    (12, "1a"), (12, "2"),
    (40, "1a"), (40, "1b"), (40, "2"),
    # the median op falls among these seven, so that op_s.p50 is the median
    # of seven draws rather than a single point's time
    (100, "1a"), (100, "1b"), (100, "2"), (100, "1a"), (100, "1b"), (100, "2"), (100, "1b"),
    (200, "1a"), (200, "1b"), (200, "2"),
    (400, "xx"), (400, "xx"),
    (800, "xx"),
]


def _interleave(ops: list[dict], small) -> list[dict]:
    """The round for `ops`: every small op runs before each large one, so
    it has as many timed samples per round as there are large ops.  Each
    op gets an "id"; the positions that share one are the same op."""
    for i, op in enumerate(ops):
        op["id"] = i
    big = [op for op in ops if not small(op)]
    return [op for b in big for op in (*filter(small, ops), b)]


def exact_xy(seed: int) -> list[dict]:
    """18 blocks; those with L <= 200 run three times a round."""
    rng = _rng("exact_xy", seed)
    ops = []
    for L, label in _EXACT_SCHEDULE:
        if label == "xx":
            # small gamma near the XX line: correlation length ~ 1/gamma
            lo, hi = (0.02, 0.04) if L >= 800 else (0.04, 0.07)
            g, h = rng.uniform(lo, hi), rng.uniform(0.3, 1.6)
        else:
            g, h = _phase_point(rng, label)
        ops.append({
            "kind": "xy_block", "gamma": g, "h": h, "L": L,
            "lam": _spectral(rng), "alphas": RENYI_EXACT, "count": TOP_COUNT,
            "converged": R.branch_rho(g, h) ** (2 * L) < CONVERGED,
        })
    return _interleave(ops, lambda op: op["L"] <= 200)


# -----------------------------------------------------------------------------
# toeplitz_xx: XX blocks and smooth-symbol determinants
# -----------------------------------------------------------------------------
# (L, spectral parameter): lambda is fixed per size, because how close it
# sits to the cut sets how many digits the characteristic determinant keeps
_XX_SIZES = ((256, [2.0, 0.0]), (512, [0.5, 0.6]), (1024, [-1.5, 0.0]), (2048, [-0.4, 0.8]))
_DET_SIZES = ((64, 256), (256, 512), (512, 1024))  # (factorization order, L)


def toeplitz_xx(seed: int) -> list[dict]:
    """Seven ops; those with L <= 512 run three times a round."""
    rng = _rng("toeplitz_xx", seed)
    ops = []
    for L, lam in _XX_SIZES:
        ops.append({"kind": "xx_block", "h": rng.uniform(0.1, 1.8), "L": L, "lam": lam})
    for n, L in _DET_SIZES:
        # log-symbol: trigonometric polynomial of degree 3, |V_k| <= 0.43/|k|
        v = {0: [rng.uniform(-0.2, 0.2), rng.uniform(-0.5, 0.5)]}
        for k in (-3, -2, -1, 1, 2, 3):
            v[k] = [rng.uniform(-0.3, 0.3) / abs(k), rng.uniform(-0.3, 0.3) / abs(k)]
        ops.append({"kind": "szego_det", "n": n, "L": L, "logsymbol": {str(k): c for k, c in v.items()}})
    return _interleave(ops, lambda op: op["L"] <= 512)


# -----------------------------------------------------------------------------
# limit_plane: one (gamma, h) point per op
# -----------------------------------------------------------------------------
def _decades(lo: int, hi: int) -> list[float]:
    """10^(-j/2) for j = lo..hi: half-decade steps."""
    return [10.0 ** (-j / 2.0) for j in range(lo, hi + 1)]


# Log-spaced approaches to each boundary.  Each ladder ends at a depth chosen
# by running today's code: there every check passes with at least a 5x
# margin.  Deeper points lose digits, mostly to faults 3a and 3b;
# bench/README.md gives the first depth at which each ladder fails a check,
# and the deepest are the fault points below.
LADDERS = {
    "h->2-": [(0.5, 2.0 - d) for d in _decades(2, 6)],
    "h->2+": [(0.5, 2.0 + d) for d in _decades(2, 6)],
    "gamma->0": [(d, 1.0) for d in _decades(2, 3)],
    "circle+": [(0.6, 1.6 + d) for d in _decades(2, 14)],
    "circle-": [(0.6, 1.6 - d) for d in _decades(2, 14)],
    "ising": [(1.0, d) for d in _decades(2, 6)],
}

# Known faults, kept as ops that fail on every run until the code is mended.
FAULTS = [
    ("3a", 0.5, 2.0 - 1e-9),   # renyi_limit_modular(0.5) gives 4.396, q-product 5.527
    ("3a", 1e-7, 1.0),         # renyi_limit_modular(0.5) gives 3.34, q-product 8.68
    ("3a", 1e-4, 1.0),         # ConvergenceError: modular lambda outside (0, 1)
    ("3a", 0.5, 2.0 - 1e-8),   # ConvergenceError: modular lambda outside (0, 1)
    ("3b", 1.0, 1e-9),         # DomainError from modulus_k: k rounds to 0
    ("3b", 1e-9, 1.0),         # DomainError from modulus_k: k rounds to 1
    ("3b", 1.0, 1e-5),         # series and closed forms differ by 1.5e-6
]

PLANE_POINTS = 40


def limit_plane(seed: int) -> list[dict]:
    rng = _rng("limit_plane", seed)
    ops = []
    for _ in range(PLANE_POINTS):
        g, h = _safe_limit_point(rng)
        ops.append((g, h, "plane"))
    for name, pts in LADDERS.items():
        ops += [(g, h, name) for g, h in pts]
    ops += [(g, h, "fault " + fault) for fault, g, h in FAULTS]
    return [{"kind": "limit", "gamma": g, "h": h, "tag": tag, "alphas": RENYI_LIMIT}
            for g, h, tag in ops]


# -----------------------------------------------------------------------------
# cli: one cold `python -m xyent.cli` process per op
# -----------------------------------------------------------------------------
def cli(seed: int) -> list[dict]:
    rng = _rng("cli", seed)

    def point() -> tuple[float, float]:
        return _safe_limit_point(rng, rho_max=0.85)

    def op(command: str, g: float, h: float, **extra) -> dict:
        args = [command, "--gamma", repr(g), "--h", repr(h)]
        for key, val in extra.items():
            args += ["--" + key, val]
        return {"kind": "cli", "command": command, "gamma": g, "h": h, "opts": extra,
                "args": args + ["--format", "json"]}

    g, h = point()
    ops = [op("entropy", g, h, L="24:48:24")]
    ops.append(op("entropy", 0.0, rng.uniform(0.2, 1.8), L="64"))
    g, h = point()
    ops.append(op("renyi", g, h, L="32", alpha="2,3,10"))
    g, h = point()
    ops.append(op("spectrum", g, h, nmax="6", L="12"))
    g, h = point()
    ops.append(op("detcheck", g, h, L="40", **{"lambda": repr(rng.uniform(1.2, 3.0))}))
    return ops


WORKLOADS = {
    "exact_xy": exact_xy,
    "toeplitz_xx": toeplitz_xx,
    "limit_plane": limit_plane,
    "cli": cli,
}


def warmup_indices(workload: str, ops: list[dict]) -> list[int]:
    """Ops run once, untimed, before the first round: enough to touch every
    code path (LAPACK drivers, scipy quad, theta series, process start)."""
    if workload == "cli":
        return [0]
    if workload == "limit_plane":
        return list(range(len(ops)))
    # the small ops, which open the round, and the first large one, once each
    first = ops[0]["id"]
    return list(range(next(i for i in range(1, len(ops)) if ops[i]["id"] == first)))
