import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from jcm_entropy import DomainError, SimulationConfig, emit, run_sweep
from jcm_entropy.cli import main
from jcm_entropy.sweep import BASE_COLUMNS, ORACLE_COLUMNS

BASE_HEADER = "t,sx,sy,sz,eta,xi,gamma,wehrl_closed,wehrl_series,gamma_norm,wehrl_norm"


@pytest.fixture(scope="module")
def small_sweep():
    cfg = SimulationConfig(alpha_mag=2.0, t_end=5.0, t_steps=20)
    return run_sweep(cfg)


class TestRunSweep:
    def test_vacuum_orbit(self):
        cfg = SimulationConfig(alpha_mag=0.0, t_start=0.0, t_end=math.pi, t_steps=3)
        res = run_sweep(cfg)
        t = res.data["t"]
        assert t.tolist() == pytest.approx([0.0, math.pi / 2, math.pi])
        assert res.data["eta"] == pytest.approx(np.abs(np.cos(2 * t)), abs=1e-12)

    def test_row_count_and_ordering(self, small_sweep):
        assert all(column.shape == (20,) for column in small_sweep.data.values())
        ts = small_sweep.data["t"].tolist()
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)

    def test_rows_within_bounds(self, small_sweep):
        d = small_sweep.data
        assert np.all((0.0 <= d["xi"]) & (d["xi"] <= 0.5))
        assert np.all((0.0 <= d["gamma"]) & (d["gamma"] <= math.log(2) + 1e-12))
        assert np.all(np.abs(d["wehrl_closed"] - d["wehrl_series"]) < 1e-9)
        assert d["eta"] ** 2 == pytest.approx(
            d["sx"] ** 2 + d["sy"] ** 2 + d["sz"] ** 2, abs=1e-12)

    def test_oracle_column(self):
        cfg = SimulationConfig(alpha_mag=1.0, t_end=2.0, t_steps=4,
                               quad_theta_order=128, quad_phi_order=256)
        res = run_sweep(cfg, with_oracle=True)
        assert res.columns == ORACLE_COLUMNS
        spread = np.abs(res.data["wehrl_quadrature"] - res.data["wehrl_closed"])
        assert np.all(spread < 1e-8)

    def test_degenerate_grid(self):
        cfg = SimulationConfig(alpha_mag=1.0, t_start=3.0, t_end=3.0, t_steps=1)
        res = run_sweep(cfg)
        assert all(column.shape == (1,) for column in res.data.values())
        assert res.data["t"][0] == 3.0


class TestEmit:
    def test_csv_header_contract(self, small_sweep, tmp_path):
        out = tmp_path / "sweep.csv"
        emit(small_sweep, format="csv", path=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == BASE_HEADER
        assert len(lines) == 1 + small_sweep.data["t"].size

    def test_csv_round_trip(self, small_sweep, tmp_path):
        out = tmp_path / "sweep.csv"
        emit(small_sweep, format="csv", path=str(out))
        lines = out.read_text().splitlines()[1:]
        for k, line in enumerate(lines):
            values = [float(v) for v in line.split(",")]
            for value, col in zip(values, BASE_COLUMNS):
                assert value == small_sweep.data[col][k]  # bitwise at 17 sig digits

    def test_structured_carries_config(self, small_sweep, tmp_path):
        out = tmp_path / "sweep.json"
        emit(small_sweep, format="structured", path=str(out))
        payload = json.loads(out.read_text())
        assert payload["config"]["alpha_mag"] == 2.0
        assert payload["columns"] == list(BASE_COLUMNS)
        assert payload["rows"][0][0] == small_sweep.data["t"][0]
        assert len(payload["rows"]) == small_sweep.data["t"].size

    def test_bad_destination(self, small_sweep, tmp_path):
        with pytest.raises(OSError):
            emit(small_sweep, format="csv", path=str(tmp_path / "no" / "dir.csv"))

    def test_unknown_format(self, small_sweep):
        with pytest.raises(ValueError):
            emit(small_sweep, format="yaml")


class TestMain:
    ARGS = ["--alpha-mag", "2", "--t-end", "5", "--t-steps", "10"]

    def test_success_to_stdout(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == BASE_HEADER

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--output", str(a)]) == 0
        assert main(self.ARGS + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_series_tol_flag_reaches_series_column(self, tmp_path):
        a, b = tmp_path / "default.csv", tmp_path / "loose.csv"
        assert main(self.ARGS + ["--output", str(a)]) == 0
        assert main(self.ARGS + ["--series-tol", "1e-4", "--output", str(b)]) == 0
        tight = np.loadtxt(a, delimiter=",", skiprows=1)
        loose = np.loadtxt(b, delimiter=",", skiprows=1)
        series = BASE_COLUMNS.index("wehrl_series")
        assert np.any(tight[:, series] != loose[:, series])
        others = [k for k in range(len(BASE_COLUMNS)) if k != series]
        assert np.array_equal(tight[:, others], loose[:, others])

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--t-end", "5"])
        assert exc.value.code == 2

    def test_invalid_config_exits_2(self, capsys):
        assert main(["--alpha-mag", "-3"]) == 2
        assert "argument error" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle", [[], ["--with-oracle"]])
    @pytest.mark.parametrize("flag,value,message", [
        ("--quad-theta", "1", "theta_order must be >= 2, got 1"),
        ("--quad-phi", "2", "phi_order must be >= 4, got 2"),
        ("--quad-phi", "3", "phi_order must be >= 4, got 3")])
    def test_invalid_quadrature_order_exits_2(self, flag, value, message, oracle, capsys):
        # refused as an argument, whether or not the oracle runs
        assert main(["--alpha-mag", "1", flag, value] + oracle) == 2
        assert f"argument error: {message}" in capsys.readouterr().err

    def test_domain_violation_exits_1(self, monkeypatch, capsys):
        def boom(config, with_oracle=False):
            raise DomainError("at T = 1.0: synthetic violation")
        monkeypatch.setattr("jcm_entropy.cli.run_sweep", boom)
        assert main(self.ARGS) == 1
        assert "synthetic violation" in capsys.readouterr().err

    def test_phase_overflow_exits_1(self, capsys):
        # T * sqrt(n+1) overflows at T = 5e307: refused, not passed on as NaN
        assert main(["--alpha-mag", "2", "--t-end", "1e308", "--t-steps", "3"]) == 1
        assert ("at T = 5e+307: Rabi phase T*sqrt(n+1) overflows"
                in capsys.readouterr().err)

    def test_phase_without_digits_exits_1(self, capsys):
        # T*sqrt(n+1) >= 2**53: every digit of the phase is lost, not just
        # the ones the direct route's stated error allows
        args = ["--alpha-mag", "7", "--t-start", "1e300", "--t-end", "1e301",
                "--t-steps", "3"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("at T = 1e+300: Rabi phase T*sqrt(n+1) = 1.1832159566199233e+301 "
                "for T = 1e+300, n = 139 has an ulp of 2.379227053564453e+285"
                in captured.err)

    def test_large_alpha(self, tmp_path):
        # |alpha| >= 39 underflowed exp(-|alpha|^2/2) in the old recurrence
        out = tmp_path / "a45.csv"
        assert main(["--alpha-mag", "45", "--t-end", "300", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3001 and lines[1].startswith("0,0,0,1,1,0,")

    def test_structured_format_flag(self, capsys):
        assert main(self.ARGS + ["--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["t_steps"] == 10

    def test_defaults_are_the_config_defaults(self, capsys):
        assert main(["--alpha-mag", "0.5", "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"] == asdict(SimulationConfig(alpha_mag=0.5))


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: importing it would cost the CLI most
    # of its start-up time, and no library route needs it, the triple sum
    # included.  numpy.fft is loaded by the spectral route of
    # reduced_density when it runs, not on import.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, jcm_entropy as j, jcm_entropy.cli; "
            "fft = sorted(m for m in sys.modules if m.startswith('numpy.fft')); "
            "j.wehrl_entropy_triple_sum(j.BlochVector(0.3, 0.2, 0.5, 0.6164414), 20); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')), fft)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[] []"
