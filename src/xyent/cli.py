# cli.py
# Command-line front end.  Four commands, the first argument:
#
#   entropy   exact block entropy vs the matching large-L reference
#   renyi     exact Renyi entropy vs the two limit forms
#   spectrum  limit density-matrix ladder, multiplicities, cumulative trace
#   detcheck  exact characteristic determinant vs its asymptotic form
#
# Output is a table (csv, default) or a json document with run metadata.
# Exit codes: 0 success, 2 domain/parameter error, 3 convergence failure.

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chain import (
    ModelParams,
    build_correlation_matrix,
    build_xx_matrix,
    classify_case,
    modulus_k,
    nu_spectrum,
)
from .entropy import (
    _check_alpha,
    renyi_exact,
    renyi_limit_modular,
    renyi_limit_qproduct,
    vn_entropy_exact,
    vn_entropy_limit_series,
    xx_entropy_asymptotic,
)
from .errors import ConfigError, ConvergenceError, DomainError, _count, _real
from .spectrum import density_spectrum, finite_l_eigenvalues
from .toeplitz import (
    SpectralParameter,
    xx_char_det_asymptotic,
    xx_char_det_exact,
    xy_block_det_asymptotic,
    xy_block_det_exact,
)

__all__ = ["RunConfig", "parse_args", "run", "main"]

# Cap on how many exact finite-L eigenvalues the spectrum table will list
# alongside the ladder; multiplicities grow fast enough that deeper rungs
# would need millions of subset products for no display value.
_FINITE_CAP = 4096


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    gamma: float = 0.0
    h: float = 0.0
    Ls: tuple[int, ...] = ()
    alphas: tuple[float, ...] = ()
    nmax: int = 64
    lam: complex | None = None
    fmt: str = "csv"
    tol: float | None = None

    def __post_init__(self) -> None:
        if self.command not in _DISPATCH:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        try:
            if self.tol is not None:
                _real("tol", self.tol, 0.0, math.inf, "()")
            _count("nmax", self.nmax, 0)
            for L in self.Ls:
                _count("block length L", L, 1)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None


def _parse_range(text: str) -> tuple[int, ...]:
    """'12' -> (12,); '10:40:10' -> (10, 20, 30, 40)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (int(parts[0]),)
        if len(parts) == 3:
            start, stop, step = (int(p) for p in parts)
            if step < 1 or stop < start:
                raise ConfigError(f"bad range {text!r}: need start <= stop, step >= 1")
            return tuple(range(start, stop + 1, step))
    except ValueError:
        pass
    raise ConfigError(f"could not parse block length(s) {text!r}; use N or start:stop:step")


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"could not parse alpha list {text!r}") from None


def _parse_lambda(text: str) -> complex:
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) <= 2:
            return complex(*parts)
    except ValueError:
        pass
    raise ConfigError(f"could not parse lambda {text!r}; use 're' or 're,im'")


def parse_args(argv: list[str] | None = None) -> RunConfig:
    ap = argparse.ArgumentParser(
        prog="xyent",
        description="Entanglement entropy of a block of spins in the XY/XX chain ground state.",
    )
    ap.add_argument("command", choices=tuple(_DISPATCH))
    ap.add_argument("--gamma", type=float, default=0.0, help="anisotropy (0 = XX chain)")
    ap.add_argument("--h", type=float, default=0.0, help="transverse field")
    ap.add_argument("--L", type=str, default=None, help="block length, N or start:stop:step")
    ap.add_argument("--alpha", type=str, default=None, help="Renyi orders, comma separated")
    ap.add_argument("--nmax", type=int, default=64, help="ladder truncation")
    ap.add_argument("--lambda", dest="lam", type=str, default=None, help="lambda as 're' or 're,im'")
    ap.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    ap.add_argument("--tol", type=float, default=None, help="override tolerance/threshold")
    ns = ap.parse_args(argv)
    return RunConfig(
        command=ns.command,
        gamma=ns.gamma,
        h=ns.h,
        Ls=_parse_range(ns.L) if ns.L is not None else (),
        alphas=_parse_alphas(ns.alpha) if ns.alpha is not None else (),
        nmax=ns.nmax,
        lam=_parse_lambda(ns.lam) if ns.lam is not None else None,
        fmt=ns.fmt,
        tol=ns.tol,
    )


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _xy_point(cfg: RunConfig):
    """The model point, its phase case and its elliptic modulus."""
    p = ModelParams(cfg.gamma, cfg.h)
    return p, classify_case(p), modulus_k(p)


def _metadata(cfg: RunConfig) -> dict:
    if cfg.gamma == 0.0:
        return {"gamma": cfg.gamma, "h": cfg.h, "case": "XX", "sigma": None, "k": None, "tau0": None}
    _, case, e = _xy_point(cfg)
    return {"gamma": cfg.gamma, "h": cfg.h, "case": case.label, "sigma": case.sigma,
            "k": e.k, "tau0": e.tau0}


def _xy_nus(p: ModelParams, L: int):
    return nu_spectrum(build_correlation_matrix(p, L))


def _require_Ls(cfg: RunConfig) -> tuple[int, ...]:
    if not cfg.Ls:
        raise ConfigError(f"the {cfg.command} command needs --L")
    return cfg.Ls


def cmd_entropy(cfg: RunConfig) -> tuple[list[str], list[list]]:
    header = ["L", "S_exact", "S_asym_or_limit", "diff"]
    rows: list[list] = []
    if cfg.gamma == 0.0:
        for L in _require_Ls(cfg):
            s_ex = vn_entropy_exact(nu_spectrum(build_xx_matrix(cfg.h, L))).value
            s_ref = xx_entropy_asymptotic(cfg.h, L).value
            rows.append([L, s_ex, s_ref, s_ex - s_ref])
        return header, rows
    p, case, e = _xy_point(cfg)
    s_lim = vn_entropy_limit_series(e, case.sigma).value
    for L in _require_Ls(cfg):
        s_ex = vn_entropy_exact(_xy_nus(p, L)).value
        rows.append([L, s_ex, s_lim, s_ex - s_lim])
    rows.append(["inf", "", s_lim, ""])
    return header, rows


def cmd_renyi(cfg: RunConfig) -> tuple[list[str], list[list]]:
    if cfg.gamma == 0.0:
        raise DomainError("the renyi command compares against the XY limit forms; gamma > 0 required")
    if not cfg.alphas:
        raise ConfigError("the renyi command needs --alpha")
    for a in cfg.alphas:
        _check_alpha(a)
    p, case, e = _xy_point(cfg)
    L = _require_Ls(cfg)[-1]
    nus = _xy_nus(p, L)
    rows = [[a, renyi_exact(nus, a).value, renyi_limit_qproduct(a, e, case).value,
             renyi_limit_modular(a, e, case).value] for a in cfg.alphas]
    return ["alpha", "S_exact", "S_qproduct", "S_modular"], rows


def cmd_spectrum(cfg: RunConfig) -> tuple[list[str], list[list]]:
    if cfg.gamma == 0.0:
        raise DomainError("the spectrum command needs the XY ladder; gamma > 0 required")
    p = ModelParams(cfg.gamma, cfg.h)
    spec = density_spectrum(p, cfg.nmax)
    finite: np.ndarray | None = None
    if cfg.Ls:
        offsets = list(itertools.accumulate(spec.mults, initial=0))  # rung n starts at offsets[n]
        finite = finite_l_eigenvalues(_xy_nus(p, cfg.Ls[-1]), min(offsets[-1], _FINITE_CAP))
    header = ["n", "lambda_n", "multiplicity", "cumtrace"]
    if finite is not None:
        header.append(f"finite_L{cfg.Ls[-1]}")
    rows: list[list] = []
    cum = 0.0
    for n in range(cfg.nmax + 1):
        cum += spec.mults[n] * spec.lambdas[n]
        row = [n, spec.lambdas[n], spec.mults[n], cum]
        if finite is not None:
            row.append(finite[offsets[n]] if offsets[n] < finite.size else "")
        rows.append(row)
    return header, rows


def cmd_detcheck(cfg: RunConfig) -> tuple[list[str], list[list]]:
    if cfg.lam is None:
        raise ConfigError("the detcheck command needs --lambda")
    s = SpectralParameter(cfg.lam)
    header = ["L", "log_abs_exact", "log_abs_asym", "ratio_minus_1"]
    rows: list[list] = []
    if cfg.gamma == 0.0:
        for L in _require_Ls(cfg):
            ex = xx_char_det_exact(nu_spectrum(build_xx_matrix(cfg.h, L)), s)
            asym = xx_char_det_asymptotic(s, cfg.h, L)
            rows.append([L, ex.log_abs, asym.log_abs, abs(asym.ratio(ex) - 1.0)])
        return header, rows
    p, case, e = _xy_point(cfg)
    prox = cfg.tol if cfg.tol is not None else 1e-3
    for L in _require_Ls(cfg):
        ex = xy_block_det_exact(_xy_nus(p, L), s)
        asym = xy_block_det_asymptotic(s, e, case, L, proximity_tol=prox)
        rows.append([L, ex.log_abs, asym.log_abs, abs(asym.ratio(ex) - 1.0)])
    return header, rows


_DISPATCH = {
    "entropy": cmd_entropy,
    "renyi": cmd_renyi,
    "spectrum": cmd_spectrum,
    "detcheck": cmd_detcheck,
}


def run(cfg: RunConfig) -> str:
    """Execute one command, returning the rendered table."""
    header, rows = _DISPATCH[cfg.command](cfg)
    if cfg.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(x) for x in row) for row in rows)
        return "\n".join(lines) + "\n"
    doc = {
        "command": cfg.command,
        "metadata": _metadata(cfg),
        "columns": header,
        "rows": [
            [x if isinstance(x, (str, int)) else float(x) for x in row] for row in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_args(argv)
        sys.stdout.write(run(cfg))
        return 0
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3


if __name__ == "__main__":
    raise SystemExit(main())
