import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from msfcev import calibrate as cal
from msfcev import pricing, verify
from msfcev.cli import main

PRICE_ARGS = ["price", "--model", "msfcev", "--sigma", "0.3", "--alpha", "1",
              "--hurst", "0.7", "--beta", "1", "--gamma", "1",
              "--rate", "0.05", "--spot", "100", "--strike", "100",
              "--maturity", "0.25"]
SAMPLE_CHAIN = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                            "data", "sample_chain.csv"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_prints_single_number(self, capsys):
        code, out, err = run(capsys, PRICE_ARGS)
        assert code == 0
        assert err == ""
        value = float(out.strip())
        expected = pricing.call_price(
            pricing.ModelSpec.make("msfcev", sigma=0.3, alpha=1.0, hurst=0.7),
            pricing.MarketEnv(rate=0.05, spot=100.0), 0.25, 100.0)
        assert value == pytest.approx(expected, rel=1e-10)
        assert 0.0 < value < 100.0

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, PRICE_ARGS + ["--json"])
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"price"}
        assert data["price"] == pytest.approx(float(run(capsys, PRICE_ARGS)[1]),
                                              rel=1e-10)

    def test_domain_gate_exit_one(self, capsys):
        argv = [a if a != "0.7" else "0.4" for a in PRICE_ARGS]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--sigma", "--rate", "--maturity"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_input_exit_one(self, capsys, flag, bad):
        argv = list(PRICE_ARGS)
        argv[argv.index(flag) + 1] = bad
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,sigma,needle", [
        ("cev", "1e200", "sigma"), ("msfbs", "1e200", "sigma"),
        ("cev", "1e-200", "effective variance 0.0 at maturity 1.0")])
    def test_extreme_sigma_exit_one(self, capsys, model, sigma, needle):
        # sigma 1e200 squares past float64 (a bare OverflowError before), and
        # at 1e-200 Phi underflows to 0 (a divide-by-zero warning before)
        code, out, err = run(capsys, [
            "price", "--model", model, "--sigma", sigma, "--alpha", "1", "--rate",
            "0.05", "--spot", "100", "--strike", "100", "--maturity", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and needle in err
        assert len(err.strip().splitlines()) == 1

    def test_byte_identical_runs(self, capsys):
        a = run(capsys, PRICE_ARGS)[1]
        b = run(capsys, PRICE_ARGS)[1]
        assert a == b


class TestCurve:
    ARGS = ["curve", "--model", "msfcev", "--sigma", "0.3", "--alpha", "1",
            "--hurst", "0.7", "--rate", "0.05", "--spot", "100",
            "--strike", "100", "--maturity", "0.25",
            "--alphas", "0.5,1.0", "--hursts", "0.7,0.9"]

    def test_csv_shape_and_ordering(self, capsys):
        code, out, err = run(capsys, self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,hurst,driver,price"
        assert len(lines) == 1 + 2 * 2 * 2
        rows = [line.split(",") for line in lines[1:]]
        keys = [(float(r[0]), float(r[1]), r[2]) for r in rows]
        assert keys == sorted(keys)

    def test_subfractional_below_fractional(self, capsys):
        _, out, _ = run(capsys, self.ARGS)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        prices = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        for alpha in ("0.5", "1"):
            for h in ("0.7", "0.9"):
                assert prices[(alpha, h, "msfcev")] < prices[(alpha, h, "mfcev")]


class TestDensity:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, [
            "density", "--model", "msfcev", "--sigma", "0.3", "--alpha", "1.5",
            "--hurst", "0.7", "--rate", "0.05", "--spot", "100",
            "--maturity", "0.25", "--points", "50"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "S_T,density"
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
        assert data.shape == (50, 2)
        assert np.all(data[:, 1] >= 0.0)

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_fewer_than_two_points_exit_one(self, capsys, points):
        # -1 ended in numpy's ValueError, 0 printed a bare header and exited 0
        code, out, err = run(capsys, [
            "density", "--model", "msfcev", "--sigma", "0.3", "--alpha", "1.5",
            "--hurst", "0.7", "--rate", "0.05", "--spot", "100",
            "--maturity", "0.25", "--points", points])
        assert (code, out) == (1, "")
        assert err == f"error: --points must be at least 2, got {points}\n"


class TestNearAlphaTwo:
    # the Bessel factor has no float64 evaluation at this point
    POINT = ["--model", "cev", "--sigma", "1.5", "--alpha", "1.999999",
             "--rate", "0.05", "--spot", "100", "--maturity", "20"]

    @pytest.mark.parametrize("command", [["price", "--strike", "100"],
                                         ["density"]])
    def test_nan_exits_one_with_empty_stdout(self, capsys, command):
        code, out, err = run(capsys, command[:1] + self.POINT + command[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: cev ") and "NaN" in err
        assert len(err.strip().splitlines()) == 1


class TestSimulate:
    ARGS = ["simulate", "--times", "0,0.5,1", "--hurst", "0.7",
            "--n-paths", "4", "--seed", "11"]

    def test_csv_and_determinism(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == "t_0,t_1,t_2"
        assert len(out.strip().splitlines()) == 5
        again = run(capsys, self.ARGS)[1]
        assert again == out

    def test_seed_required(self, capsys):
        code = main(["simulate", "--times", "0,1", "--hurst", "0.7",
                     "--n-paths", "4"])
        capsys.readouterr()
        assert code == 2  # argparse usage error

    def test_bad_times_exit_one(self, capsys):
        code, _, err = run(capsys, ["simulate", "--times", "0;1", "--hurst",
                                    "0.7", "--n-paths", "4", "--seed", "1"])
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("times", ["0,nan", "0,1,inf"])
    def test_non_finite_time_exit_one(self, capsys, times):
        # 0,nan printed rows of nan and exited 0
        code, out, err = run(capsys, ["simulate", "--times", times, "--hurst",
                                      "0.75", "--n-paths", "2", "--seed", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("error: times must be finite and >= 0, got ")


VERIFY_ARGS = ["verify", "--model", "msfcev", "--sigma", "0.3", "--alpha", "1.2",
               "--hurst", "0.75", "--rate", "0.05", "--spot", "100",
               "--strike", "105", "--maturity", "0.5", "--seed", "3"]


class TestVerifyCommand:
    def test_pass_table(self, capsys):
        code, out, _ = run(capsys, VERIFY_ARGS)
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
        assert "phi_closed_vs_quadrature_rel" in out

    def test_table_prints_the_applied_tolerances(self, capsys):
        code, out, _ = run(capsys, VERIFY_ARGS)
        checks = verify.run_checks(
            pricing.ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75),
            pricing.MarketEnv(rate=0.05, spot=100.0), 0.5, 105.0, seed=3,
            mc_paths=200_000)
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == [c.name for c in checks]
        assert [float(r[2]) for r in rows] == [c.tol for c in checks]
        assert code == 0

    def test_lost_martingale_mass_exits_two(self, capsys, monkeypatch):
        real = verify.quadrature_price

        def half_mass(model, env, maturity, strike):
            if strike == 0.0:
                return 0.5 * env.spot
            return real(model, env, maturity, strike)

        monkeypatch.setattr(verify, "quadrature_price", half_mass)
        code, out, _ = run(capsys, VERIFY_ARGS)
        assert code == 2
        failed = [line.split()[0] for line in out.splitlines()
                  if line.endswith("FAIL")]
        assert failed == ["martingale_rel_gap"]

    def test_json_rows(self, capsys):
        code, out, err = run(capsys, VERIFY_ARGS + ["--json"])
        checks = verify.run_checks(
            pricing.ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75),
            pricing.MarketEnv(rate=0.05, spot=100.0), 0.5, 105.0, seed=3,
            mc_paths=200_000)
        assert (code, err) == (0, "")
        assert json.loads(out) == [
            {"name": c.name, "value": c.value, "tol": c.tol, "passed": True}
            for c in checks]

    def test_json_failed_row_exits_two(self, capsys, monkeypatch):
        real = verify.quadrature_price

        def half_mass(model, env, maturity, strike):
            if strike == 0.0:
                return 0.5 * env.spot
            return real(model, env, maturity, strike)

        monkeypatch.setattr(verify, "quadrature_price", half_mass)
        code, out, _ = run(capsys, VERIFY_ARGS + ["--json"])
        rows = json.loads(out)
        assert code == 2
        assert [r["name"] for r in rows if not r["passed"]] == ["martingale_rel_gap"]
        assert next(r["value"] for r in rows
                    if r["name"] == "martingale_rel_gap") == 0.5

    def test_json_nan_value_is_null(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_checks", lambda *a, **k: [
            verify.Check("nan_row", math.nan, 1.0),
            verify.Check("ok_row", 0.0, 1.0)])
        code, out, _ = run(capsys, VERIFY_ARGS + ["--json"])
        assert code == 2
        assert json.loads(out) == [
            {"name": "nan_row", "value": None, "tol": 1.0, "passed": False},
            {"name": "ok_row", "value": 0.0, "tol": 1.0, "passed": True}]

    def test_fpe_at_bs_point_noted_on_stderr(self, capsys):
        args = ["verify", "--model", "msfbs", "--sigma", "0.3", "--hurst",
                "0.75", "--rate", "0.05", "--spot", "100", "--strike", "100",
                "--maturity", "1", "--seed", "3", "--mc-paths", "20000"]
        code, out, err = run(capsys, args)
        code_fpe, out_fpe, err_fpe = run(capsys, args + ["--with-fpe"])
        assert (code_fpe, out_fpe) == (code, out)
        assert err == ""
        assert err_fpe == ("note: fpe_l1_distance not available for msfbs; "
                           "skipped\n")

    def test_mc_at_mixed_cev_point_noted_on_stderr(self, capsys):
        code, out, err = run(capsys, VERIFY_ARGS + ["--with-mc"])
        assert code == 0
        assert "euler_mc_z_score" not in out
        assert err == ("note: euler_mc_z_score not available for msfcev; "
                       "skipped\n")


class TestColdStart:
    @staticmethod
    def loaded_by_cli_import(*modules, argv=None, imports=()):
        """The ``modules`` that a fresh interpreter has after ``import msfcev.cli``
        and the ``imports``, and, if ``argv`` is given, a successful
        ``msfcev.cli.main(argv)``; printed on the last line, after any output
        of the command."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        run_main = f"assert msfcev.cli.main({argv!r}) == 0; " if argv else ""
        code = (f"import sys, msfcev.cli{''.join(', ' + m for m in imports)}; "
                f"{run_main}"
                f"print(*[m for m in {modules!r} if m in sys.modules])")
        return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True,
                              check=True).stdout.splitlines()[-1].split()

    def test_cli_import_leaves_scipy_stats_out(self):
        assert self.loaded_by_cli_import("scipy.stats") == []

    def test_cli_import_leaves_calibrate_out(self):
        # the commands that fit import calibrate when they run
        assert self.loaded_by_cli_import("msfcev.calibrate", "scipy.optimize") == []

    def test_fit_and_oracle_modules_leave_scipy_optimize_out(self):
        # fits run their own trust-region solver and H search, and the oracles
        # import scipy.integrate, which loads scipy.optimize, only to use it
        assert self.loaded_by_cli_import(
            "scipy.optimize", "scipy.integrate",
            imports=("msfcev.calibrate", "msfcev.verify")) == []

    def test_density_command_leaves_oracles_out(self):
        # writing a density CSV needs neither the oracles nor scipy.integrate
        argv = ["density", "--model", "msfcev", "--sigma", "0.3", "--alpha", "1.2",
                "--hurst", "0.75", "--rate", "0.05", "--spot", "100",
                "--maturity", "0.5", "--points", "5", "--out", os.devnull]
        assert self.loaded_by_cli_import("msfcev.verify", "scipy.integrate",
                                         argv=argv) == []

    def test_calibrate_command_leaves_scipy_stats_out(self):
        # a fit draws its random starts from numpy, without scipy.stats
        argv = ["calibrate", "--input", SAMPLE_CHAIN, "--model", "msfcev",
                "--seed", "42", "--out", os.devnull]
        assert self.loaded_by_cli_import("scipy.stats", argv=argv) == []

    def test_calibrate_command_leaves_scipy_optimize_out(self):
        # the trust-region solver runs on numpy's SVD, without scipy.linalg
        argv = ["calibrate", "--input", SAMPLE_CHAIN, "--model", "msfcev",
                "--seed", "42", "--out", os.devnull]
        assert self.loaded_by_cli_import("scipy.optimize", "scipy.linalg",
                                         argv=argv) == []

    def test_bs_family_verify_leaves_scipy_integrate_out(self):
        # Phi's quadrature, the one user of scipy.integrate, is CEV-only, and
        # only the forward equation's tridiagonal solves load scipy.linalg
        argv = ["verify", "--model", "msfbs", "--sigma", "0.2", "--hurst", "0.75",
                "--rate", "0.05", "--spot", "100", "--strike", "105",
                "--maturity", "0.5", "--seed", "3"]
        assert self.loaded_by_cli_import("scipy.integrate", "scipy.optimize",
                                         "scipy.linalg", argv=argv) == []

    def test_oracle_module_leaves_scipy_linalg_out(self):
        # solve_fpe imports LAPACK's gtsv when it runs
        assert self.loaded_by_cli_import("scipy.linalg",
                                         imports=("msfcev.verify",)) == []

    def test_compare_command_leaves_scipy_stats_out(self):
        argv = ["compare", "--input", SAMPLE_CHAIN,
                "--models", "bs,mfbs,msfbs,cev,mfcev,msfcev", "--seed", "42",
                "--out", os.devnull]
        assert self.loaded_by_cli_import("scipy.stats", "scipy.linalg",
                                         argv=argv) == []


class TestCalibrateCommand:
    def test_json_report_and_exit_zero(self, capsys, tmp_path, small_chain):
        path = tmp_path / "chain.csv"
        cal.write_chain_csv(small_chain, str(path))
        code, out, _ = run(capsys, [
            "calibrate", "--input", str(path), "--model", "cev",
            "--seed", "5", "--starts", "2", "--maxiter", "60"])
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "joint"
        assert "joint" in data["fitted"]
        assert data["total_mse"] >= 0.0

    def test_nan_mid_exit_one_with_row(self, capsys, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("quote_date,spot,rate,strike,maturity_years,mid_price\n"
                        "2024-01-02,100,0.05,100,0.5,3.85\n"
                        "2024-01-02,100,0.05,105,0.5,nan\n", encoding="utf-8")
        code, out, err = run(capsys, [
            "calibrate", "--input", str(path), "--model", "cev", "--seed", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: row 3: mid_price must be finite")

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, [
            "calibrate", "--input", "/nonexistent.csv", "--model", "cev",
            "--seed", "1"])
        assert code == 1
        assert err.startswith("error: ")

    def test_negative_seed_exit_one(self, capsys):
        code, out, err = run(capsys, [
            "calibrate", "--input", SAMPLE_CHAIN, "--model", "msfbs",
            "--seed", "-1"])
        assert (code, out) == (1, "")
        assert err == "error: seed must be an unsigned 64-bit integer\n"

    def test_zero_maxiter_exit_one(self, capsys):
        # ended in scipy's ValueError traceback from least_squares
        code, out, err = run(capsys, [
            "calibrate", "--input", SAMPLE_CHAIN, "--model", "cev",
            "--seed", "1", "--maxiter", "0"])
        assert (code, out) == (1, "")
        assert err == "error: maxiter must be at least 1\n"


class TestCompareCommand:
    def test_table(self, capsys, tmp_path, small_chain):
        path = tmp_path / "chain.csv"
        cal.write_chain_csv(small_chain, str(path))
        code, out, _ = run(capsys, [
            "compare", "--input", str(path), "--models", "bs,cev",
            "--seed", "5", "--starts", "2", "--maxiter", "60"])
        assert code == 0
        rows = json.loads(out)
        assert [r["model"] for r in rows] == ["bs", "cev"]
        assert all(not r["failed"] for r in rows)

    def test_negative_seed_exit_one(self, capsys):
        code, out, err = run(capsys, [
            "compare", "--input", SAMPLE_CHAIN, "--models", "bs,cev",
            "--seed", "-1"])
        assert (code, out) == (1, "")
        assert err == "error: seed must be an unsigned 64-bit integer\n"
