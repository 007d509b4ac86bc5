import json
import math
import os
import subprocess
import sys

import pytest

import xyent
from xyent import ConfigError
from xyent.cli import RunConfig, main, parse_args


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_range_forms(self):
        cfg = parse_args(["entropy", "--gamma", "0.5", "--h", "1", "--L", "10:40:10"])
        assert cfg.Ls == (10, 20, 30, 40)
        cfg = parse_args(["entropy", "--L", "12"])
        assert cfg.Ls == (12,)

    def test_alpha_list(self):
        cfg = parse_args(["renyi", "--gamma", "0.5", "--h", "1", "--L", "10", "--alpha", "0.5,2,3"])
        assert cfg.alphas == (0.5, 2.0, 3.0)

    def test_lambda_forms(self):
        assert parse_args(["detcheck", "--lambda", "3"]).lam == 3.0 + 0.0j
        assert parse_args(["detcheck", "--lambda", "2,0.5"]).lam == 2.0 + 0.5j

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            parse_args(["entropy", "--L", "10:5:1"])
        with pytest.raises(ConfigError):
            parse_args(["entropy", "--L", "abc"])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(command="nope")
        with pytest.raises(ConfigError):
            RunConfig(command="entropy", fmt="xml")
        with pytest.raises(ConfigError):
            RunConfig(command="entropy", tol=-1.0)
        # only commands with a handler are admitted
        with pytest.raises(ConfigError):
            RunConfig(command="sweep")


class TestEntropyCommand:
    def test_xx_table(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--h", "0", "--L", "20:40:20")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "L,S_exact,S_asym_or_limit,diff"
        assert len(lines) == 3
        assert lines[1].startswith("20,")

    def test_xy_appends_limit_row(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--gamma", "0.5", "--h", "1", "--L", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1].startswith("inf,")

    def test_deterministic_output(self, capsys):
        args = ("entropy", "--gamma", "0.5", "--h", "1", "--L", "8")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_near_critical_grid(self, capsys):
        # h = 1.99: slow coefficient decay, a 7500-point Fourier grid at L = 50
        code, out, err = run_cli(capsys, "entropy", "--gamma", "0.5", "--h", "1.99", "--L", "50")
        assert code == 0
        assert math.isfinite(float(out.strip().split("\n")[1].split(",")[1]))

    def test_json_metadata(self, capsys):
        code, out, err = run_cli(
            capsys, "entropy", "--gamma", "0.5", "--h", "1", "--L", "8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["case"] == "1b"
        assert doc["metadata"]["sigma"] == 1
        assert 0.0 < doc["metadata"]["k"] < 1.0
        assert doc["metadata"]["tau0"] > 0.0

    def test_json_xx_metadata_null(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--h", "0", "--L", "8", "--format", "json")
        doc = json.loads(out)
        assert doc["metadata"]["case"] == "XX"
        assert doc["metadata"]["sigma"] is None
        assert doc["metadata"]["k"] is None

    def test_missing_L(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--h", "0")
        assert code == 2
        assert "--L" in err


class TestRenyiCommand:
    def test_table(self, capsys):
        code, out, err = run_cli(
            capsys, "renyi", "--gamma", "1", "--h", "3", "--L", "20", "--alpha", "0.5,2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,S_exact,S_qproduct,S_modular"
        assert len(lines) == 3

    def test_large_order_strict_json(self, capsys):
        # alpha = 1e4 at (0.5, 1.0): every power of the mode near nu = 0
        # underflows, and the value must still be a finite JSON number
        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        code, out, err = run_cli(
            capsys, "renyi", "--gamma", "0.5", "--h", "1.0", "--L", "40", "--alpha", "1e4",
            "--format", "json",
        )
        assert code == 0 and err == ""
        row = json.loads(out, parse_constant=refuse)["rows"][0]
        assert all(math.isfinite(v) for v in row)

    def test_alpha_one_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "renyi", "--gamma", "0.5", "--h", "1", "--L", "10", "--alpha", "1"
        )
        assert code == 2
        assert "alpha = 1" in err

    def test_gamma_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "renyi", "--h", "0", "--L", "10", "--alpha", "2")
        assert code == 2


class TestSpectrumCommand:
    def test_ladder_table(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--gamma", "1", "--h", "3", "--nmax", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,lambda_n,multiplicity,cumtrace"
        assert len(lines) == 6
        assert lines[1].split(",")[2] == "1"

    def test_finite_column(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--gamma", "1", "--h", "3", "--nmax", "3", "--L", "30"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith(",finite_L30")
        first = lines[1].split(",")
        # ladder head and finite-L head agree to displayed precision
        assert abs(float(first[1]) - float(first[4])) < 1e-8

    def test_gamma_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--h", "0")
        assert code == 2


class TestDetcheckCommand:
    def test_xx_path(self, capsys):
        code, out, err = run_cli(capsys, "detcheck", "--h", "0", "--L", "16:32:16", "--lambda", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "L,log_abs_exact,log_abs_asym,ratio_minus_1"
        assert float(lines[2].split(",")[3]) < 1e-4

    def test_xy_path(self, capsys):
        code, out, err = run_cli(
            capsys, "detcheck", "--gamma", "0.5", "--h", "1", "--L", "40", "--lambda", "2"
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[3]) < 1e-6

    def test_cut_lambda_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "detcheck", "--gamma", "0.5", "--h", "1", "--L", "10", "--lambda", "0.5"
        )
        assert code == 2
        assert "cut" in err

    def test_proximity_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "detcheck", "--gamma", "0.5", "--h", "1", "--L", "10", "--lambda", "1.0005"
        )
        assert code == 2

    def test_missing_lambda(self, capsys):
        code, out, err = run_cli(capsys, "detcheck", "--h", "0", "--L", "10")
        assert code == 2

    @pytest.mark.parametrize("lam", ["1.00000000000001", "1.00000000000001,1e-14"])
    def test_theta_factors_beyond_double_range(self, capsys, lam):
        # at (1e-3, 1.0) each theta3 factor of the prefactor at lambda ~ 1
        # overflows a double; the asymptote stays finite and the JSON strict
        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        base = ["detcheck", "--gamma", "1e-3", "--h", "1.0", "--L", "40", "--lambda", lam,
                "--tol", "1e-20"]
        code, out, err = run_cli(capsys, *base)
        assert code == 0
        assert math.isfinite(float(out.strip().split("\n")[1].split(",")[2]))
        code, out, err = run_cli(capsys, *base, "--format", "json")
        assert code == 0
        row = json.loads(out, parse_constant=refuse)["rows"][0]
        assert all(math.isfinite(v) for v in row)

    def test_ratio_beyond_double_range_exits_2(self, capsys):
        # at (1e-4, 1.0), L = 12 the asymptote at lambda = 1 + 2e-15 is
        # e^693 over the exact determinant: a typed refusal, not an
        # OverflowError
        code, out, err = run_cli(
            capsys, "detcheck", "--gamma", "1e-4", "--h", "1.0", "--L", "12",
            "--lambda", "1.000000000000002", "--tol", "1e-20",
        )
        assert code == 2
        assert "beyond double range" in err


class TestExitCodes:
    def test_boundary_is_2(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--gamma", "0.5", "--h", "2", "--L", "10")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        "renyi --gamma 0.5 --h 1.0 --L 20 --alpha inf --format json",
        "detcheck --gamma 0.5 --h 1.0 --L 8 --lambda inf",
        "detcheck --gamma 0 --h 0 --L 8 --lambda nan",
        "detcheck --gamma 0 --h 0 --L 8 --lambda 2,inf",
    ])
    def test_non_finite_order_or_lambda_is_2(self, capsys, argv):
        # refused before any NaN reaches the table or round(nan) a traceback
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("argv", [
        "entropy --gamma 0 --h nan --L 10",  # h
        "entropy --gamma nan --h 1 --L 10",  # gamma
        "entropy --gamma 0.5 --h 1 --L 0",  # L
        "entropy --gamma 1e-9 --h 1 --L 10",  # k rounds to 1
        "spectrum --gamma 1 --h 3 --nmax -1",  # nmax
        "renyi --gamma 0.5 --h 1 --L 10 --alpha nan",  # alpha
        "detcheck --gamma 0.5 --h 1 --L 10 --lambda nan",  # lambda
        "detcheck --gamma 0.5 --h 1 --L 10 --lambda 2 --tol nan",  # tol
    ])
    def test_bad_argument_is_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_resolution_failure_is_3(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--gamma", "1e-7", "--h", "1", "--L", "8")
        assert code == 3


def test_import_leaves_scipy_unloaded():
    # scipy costs most of a cold start, and the library needs none of it:
    # neither the import, nor an XY nu-spectrum on the dense route (L = 40)
    # or the edge route (L = 400), nor Barnes G (through both Fisher-Hartwig
    # forms) may load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(xyent.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, xyent.cli\n"
        "from xyent import ModelParams, build_correlation_matrix, nu_spectrum\n"
        "nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 40))\n"
        "nu_spectrum(build_correlation_matrix(ModelParams(0.5, 1.0), 400))\n"
        "from xyent import (FHSingularity, SmoothSymbolFactorization, SpectralParameter,\n"
        "                   fisher_hartwig_asymptotic, xx_char_det_asymptotic)\n"
        "xx_char_det_asymptotic(SpectralParameter(2.0), 1.0, 64)\n"
        "fisher_hartwig_asymptotic(SmoothSymbolFactorization.constant(0.0),\n"
        "                          [FHSingularity(1.0, 0.25, 0.1j)], 64)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
