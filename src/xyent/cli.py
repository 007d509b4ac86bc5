# cli.py
# Command-line front end: four commands, entropy, renyi, spectrum and
# detcheck.  One table, _COMMANDS, pairs each with its handler and the
# options that handler reads; parse_args builds one subparser per entry, each
# with --gamma, --h and --format besides, and reads each value through its
# option's reader.  A bad value, a missing option or an option the command
# does not read is a ConfigError: one "error:" line, exit 2.
# Output is a table (csv, default) or a json document with run metadata.
# Exit codes: 0 success, 2 domain/parameter error, 3 convergence failure.

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

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

__all__ = ["parse_args", "run", "main"]

# Cap on how many exact finite-L eigenvalues the spectrum table will list
# alongside the ladder; multiplicities grow fast enough that deeper rungs
# would need millions of subset products for no display value.
_FINITE_CAP = 4096


class _Parser(argparse.ArgumentParser):
    """argparse whose own refusals (no command or an unknown one, a missing
    option or one the command does not read) raise ConfigError for main."""

    def error(self, message: str):
        raise ConfigError(message)


def _checked(check, name: str, convert, *bounds):
    """A reader of one number: convert(text), or text itself if that fails,
    checked by check (_count or _real) as name within bounds."""
    def read(text):
        try:
            value = convert(text)
        except ValueError:
            value = text
        try:
            return check(name, value, *bounds)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
    return read


def _parse_range(text: str) -> tuple[int, ...]:
    """--L as block sizes: '12' -> (12,); '10:40:10' -> (10, 20, 30, 40)."""
    parts = text.split(":")
    try:
        start, stop, step = map(int, parts) if len(parts) == 3 else (int(text), int(text), 1)
    except ValueError:
        raise ConfigError(f"could not parse block length(s) {text!r}; use N or start:stop:step") from None
    if step < 1 or stop < start:
        raise ConfigError(f"bad range {text!r}: need start <= stop, step >= 1")
    return tuple(map(_checked(_count, "block length L", int, 1), range(start, stop + 1, step)))


def _one_size(command: str):
    """The --L reader of a command that reads one block: one size, never a range."""
    def read(text: str) -> int:
        Ls = _parse_range(text)
        if len(Ls) > 1:
            raise ConfigError(f"the {command} command takes one block size, got {len(Ls)} "
                              f"from --L ({Ls[0]} to {Ls[-1]})")
        return Ls[0]
    return read


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


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command and the options it reads, from argv (sys.argv[1:] if None)."""
    common = _Parser(add_help=False)
    common.add_argument("--gamma", type=float, default=0.0, help="anisotropy (0 = XX chain)")
    common.add_argument("--h", type=float, default=0.0, help="transverse field")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    ap = _Parser(prog="xyent",
                 description="Entanglement entropy of a block of spins in the XY/XX chain ground state.")
    commands = ap.add_subparsers(dest="command", required=True)
    for name, (handler, options) in _COMMANDS.items():
        sub = commands.add_parser(name, parents=[common], help=handler.__doc__,
                                  description=handler.__doc__)
        for flag, kwargs in options.items():
            sub.add_argument(flag, **kwargs)
    return ap.parse_args(argv)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _xy_point(cfg: argparse.Namespace):
    """The model point, its phase case and its elliptic modulus."""
    p = ModelParams(cfg.gamma, cfg.h)
    return p, classify_case(p), modulus_k(p)


def _metadata(cfg: argparse.Namespace) -> dict:
    if cfg.gamma == 0.0:
        return {"gamma": cfg.gamma, "h": cfg.h, "case": "XX", "sigma": None, "k": None, "tau0": None}
    _, case, e = _xy_point(cfg)
    return {"gamma": cfg.gamma, "h": cfg.h, "case": case.label, "sigma": case.sigma,
            "k": e.k, "tau0": e.tau0}


def _xy_nus(p: ModelParams, L: int):
    return nu_spectrum(build_correlation_matrix(p, L))


def cmd_entropy(cfg: argparse.Namespace) -> tuple[list[str], list[list]]:
    """exact block entropy vs the large-L asymptote (XX) or limit (XY)"""
    header = ["L", "S_exact", "S_asym_or_limit", "diff"]
    rows: list[list] = []
    if cfg.gamma == 0.0:
        for L in cfg.Ls:
            s_ex = vn_entropy_exact(nu_spectrum(build_xx_matrix(cfg.h, L))).value
            s_ref = xx_entropy_asymptotic(cfg.h, L).value
            rows.append([L, s_ex, s_ref, s_ex - s_ref])
        return header, rows
    p, case, e = _xy_point(cfg)
    s_lim = vn_entropy_limit_series(e, case.sigma).value
    for L in cfg.Ls:
        s_ex = vn_entropy_exact(_xy_nus(p, L)).value
        rows.append([L, s_ex, s_lim, s_ex - s_lim])
    rows.append(["inf", "", s_lim, ""])
    return header, rows


def cmd_renyi(cfg: argparse.Namespace) -> tuple[list[str], list[list]]:
    """exact Renyi entropy of one block vs the two limit forms"""
    if cfg.gamma == 0.0:
        raise DomainError("the renyi command compares against the XY limit forms; gamma > 0 required")
    for a in cfg.alphas:
        _check_alpha(a)
    p, case, e = _xy_point(cfg)
    nus = _xy_nus(p, cfg.L)
    rows = [[a, renyi_exact(nus, a).value, renyi_limit_qproduct(a, e, case).value,
             renyi_limit_modular(a, e, case).value] for a in cfg.alphas]
    return ["alpha", "S_exact", "S_qproduct", "S_modular"], rows


def cmd_spectrum(cfg: argparse.Namespace) -> tuple[list[str], list[list]]:
    """limit density-matrix ladder, multiplicities, cumulative trace"""
    if cfg.gamma == 0.0:
        raise DomainError("the spectrum command needs the XY ladder; gamma > 0 required")
    p = ModelParams(cfg.gamma, cfg.h)
    spec = density_spectrum(p, cfg.nmax)
    finite: np.ndarray | None = None
    header = ["n", "lambda_n", "multiplicity", "cumtrace"]
    if cfg.L is not None:
        offsets = list(itertools.accumulate(spec.mults, initial=0))  # rung n starts at offsets[n]
        finite = finite_l_eigenvalues(_xy_nus(p, cfg.L), min(offsets[-1], _FINITE_CAP))
        header.append(f"finite_L{cfg.L}")
    rows: list[list] = []
    cum = 0.0
    for n in range(cfg.nmax + 1):
        cum += spec.mults[n] * spec.lambdas[n]
        row = [n, spec.lambdas[n], spec.mults[n], cum]
        if finite is not None:
            row.append(finite[offsets[n]] if offsets[n] < finite.size else "")
        rows.append(row)
    return header, rows


def cmd_detcheck(cfg: argparse.Namespace) -> tuple[list[str], list[list]]:
    """exact characteristic determinant vs its asymptotic form"""
    s = SpectralParameter(cfg.lam)
    header = ["L", "log_abs_exact", "log_abs_asym", "ratio_minus_1"]
    rows: list[list] = []
    tol = {"proximity_tol": cfg.tol} if "tol" in cfg else {}  # set only if --tol is given
    if cfg.gamma == 0.0:
        if tol:
            raise ConfigError("--tol is the XY asymptote's proximity_tol; the XX asymptote "
                              "(gamma = 0) has no proximity guard")
        for L in cfg.Ls:
            ex = xx_char_det_exact(nu_spectrum(build_xx_matrix(cfg.h, L)), s)
            asym = xx_char_det_asymptotic(s, cfg.h, L)
            rows.append([L, ex.log_abs, asym.log_abs, abs(asym.ratio(ex) - 1.0)])
        return header, rows
    p, case, e = _xy_point(cfg)
    for L in cfg.Ls:
        ex = xy_block_det_exact(_xy_nus(p, L), s)
        asym = xy_block_det_asymptotic(s, e, case, L, **tol)
        rows.append([L, ex.log_abs, asym.log_abs, abs(asym.ratio(ex) - 1.0)])
    return header, rows


_COMMANDS = {
    "entropy": (cmd_entropy, {
        "--L": dict(dest="Ls", type=_parse_range, required=True, help="sizes N or start:stop:step")}),
    "renyi": (cmd_renyi, {
        "--L": dict(type=_one_size("renyi"), required=True, help="block length"),
        "--alpha": dict(dest="alphas", type=_parse_alphas, required=True, help="Renyi orders a,b,...")}),
    "spectrum": (cmd_spectrum, {
        "--nmax": dict(type=_checked(_count, "nmax", int, 0), default=64, help="ladder truncation"),
        "--L": dict(type=_one_size("spectrum"), help="block length of an exact finite-L column")}),
    "detcheck": (cmd_detcheck, {
        "--L": dict(dest="Ls", type=_parse_range, required=True, help="sizes N or start:stop:step"),
        "--lambda": dict(dest="lam", type=_parse_lambda, required=True, help="re or re,im"),
        "--tol": dict(type=_checked(_real, "tol", float, 0.0, math.inf, "()"), default=argparse.SUPPRESS,
                      help="xy_block_det_asymptotic's proximity_tol; gamma > 0 only")}),
}


def run(cfg: argparse.Namespace) -> str:
    """Execute one parsed command, returning the rendered table."""
    header, rows = _COMMANDS[cfg.command][0](cfg)
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
        sys.stdout.write(run(parse_args(argv)))
        return 0
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3


if __name__ == "__main__":
    raise SystemExit(main())
