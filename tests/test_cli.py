import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jcm_entropy import DomainError, SimulationConfig, emit, run_sweep
from jcm_entropy.cli import build_parser, entry, main
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

    def test_failed_write_leaves_what_was_written(self, tmp_path):
        # the text is rendered before the file is opened, but a write that
        # fails partway leaves the bytes written so far: here the file-size
        # limit cuts the file after the header, 20 rows and part of a row
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        args = ["--alpha-mag", "7", "--t-steps", "3000"]
        assert main([*args, "--output", str(full)]) == 0
        proc = _python("-c", textwrap.dedent(f"""
            import resource, signal, sys
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE,
                               (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
            from jcm_entropy.cli import main
            sys.exit(main({[*args, "--output", str(cut)]!r}))"""))
        assert proc.returncode == 1
        assert proc.stderr.decode() == (f"jcm-entropy: cannot write sweep output to "
                                        f"{str(cut)!r}: [Errno 27] File too large\n")
        text = cut.read_bytes()
        assert len(text) == 4096 and text == full.read_bytes()[:4096]
        assert text.count(b"\n") == 21 and text.startswith(BASE_HEADER.encode() + b"\n")

    def test_unknown_format(self, small_sweep):
        with pytest.raises(ValueError):
            emit(small_sweep, format="yaml")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_is_named(self):
        # a failed write to stdout names its destination, as one to a path does
        with open("/dev/full", "wb") as full:
            proc = _python("-m", "jcm_entropy.cli", "--alpha-mag", "7", "--t-steps", "300",
                           stdout=full)
        assert proc.returncode == 1
        assert proc.stderr.decode() == ("jcm-entropy: cannot write sweep output to stdout: "
                                        "[Errno 28] No space left on device\n")

    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    def test_buffered_stdout_failure_is_named(self, sink):
        # with PYTHONUNBUFFERED unset, 5 rows stay in stdout's buffer: they
        # were flushed at exit only, which failed with "Exception ignored"
        # and exit status 120
        stdout, error = _failing_stdout(sink)
        with stdout:
            proc = _python("-m", "jcm_entropy.cli", "--alpha-mag", "7", "--t-steps", "5",
                           stdout=stdout, buffered=True)
        assert proc.returncode == 1
        assert proc.stderr.decode() == ("jcm-entropy: cannot write sweep output to stdout: "
                                        f"{error}\n")

    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    def test_buffered_help_failure_is_named(self, sink):
        # argparse leaves the help text in stdout's buffer and exits from
        # inside main(): it was flushed at exit only, which exited 120
        stdout, error = _failing_stdout(sink)
        with stdout:
            proc = _python("-m", "jcm_entropy.cli", "--help", stdout=stdout, buffered=True)
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"jcm-entropy: cannot write to stdout: {error}\n"

    def test_buffered_help_to_a_pipe(self):
        proc = _python("-m", "jcm_entropy.cli", "--help", buffered=True)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.startswith(b"usage: jcm-entropy")

    def test_closed_stdout_is_named(self, small_sweep, monkeypatch):
        # Python's stdout is None where fd 1 was closed (">&-")
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(OSError) as exc:
            emit(small_sweep)
        assert str(exc.value) == ("cannot write sweep output to stdout: "
                                  "[Errno 9] Bad file descriptor")

    def test_failed_stdout_write_is_named(self, small_sweep, monkeypatch):
        # both ways to stdout: its binary buffer, and a text stdout with none
        def raiser(exc):
            def fail(*args):
                raise exc
            return fail

        broken_pipe = SimpleNamespace(flush=lambda: None, buffer=SimpleNamespace(
            writelines=raiser(BrokenPipeError(32, "Broken pipe"))))
        no_buffer = io.StringIO()
        no_buffer.write = raiser(OSError(5, "Input/output error"))
        for stdout, error in [(broken_pipe, "[Errno 32] Broken pipe"),
                              (no_buffer, "[Errno 5] Input/output error")]:
            monkeypatch.setattr(sys, "stdout", stdout)
            with pytest.raises(OSError) as exc:
                emit(small_sweep)
            assert str(exc.value) == f"cannot write sweep output to stdout: {error}"


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

    @pytest.mark.parametrize("message,reported", [
        ("Unable to allocate 13.4 GiB for an array", "Unable to allocate 13.4 GiB for an array"),
        ("", "out of memory")])
    def test_out_of_memory_exits_1(self, monkeypatch, capsys, message, reported):
        # a basis of about 20|alpha| floats is 13.4 GiB at ALPHA_MAX: numpy's
        # allocation failure is reported, not raised as a traceback
        def boom(config, with_oracle=False):
            raise MemoryError(message)
        monkeypatch.setattr("jcm_entropy.cli.run_sweep", boom)
        assert main(self.ARGS) == 1
        assert capsys.readouterr().err == f"jcm-entropy: {reported}\n"

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

    @pytest.mark.parametrize("args,message", [
        (["--alpha-mag", "1e8"], "alpha_mag must lie in [0, 9e+07], where photon "
                                 "numbers stay below 2**53, got 100000000.0"),
        (["--alpha-mag", "1e155"], "alpha_mag must lie in [0, 9e+07], where photon "
                                   "numbers stay below 2**53, got 1e+155"),
        (["--alpha-mag", "2", "--t-start=-1e308", "--t-end=1e308", "--t-steps", "3"],
         "t_end - t_start must be finite and >= 0, got inf"),
        *((["--alpha-mag", "7", "--t-steps", steps], "t_steps must be <= 2**53, where "
          f"np.linspace's float indices stay exact, got {steps}")
          for steps in ("99999999999999999999", "9223372036854775807"))],
        ids=["alpha-1e8", "alpha-1e155", "span-overflow", "steps-1e20", "steps-2**63-1"])
    def test_unrepresentable_inputs_exit_2(self, args, message, capsys):
        # 1e155 crashed with an OverflowError traceback from |alpha|**2, the
        # span 2e308 overflowed numpy into NaN times and two warnings, and
        # the two t_steps crashed inside np.linspace (ValueError, IndexError)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"jcm-entropy: argument error: {message}\n"

    @pytest.mark.parametrize("flag", ["--alpha-phase", "--t-start", "--t-end"])
    @pytest.mark.parametrize("value", ["-1e-3", "-2E1"])
    def test_negative_values_in_exponent_notation(self, flag, value, capsys):
        # argparse took these for options ("expected one argument"), so a t
        # the CSV prints, such as -1.0000000000000001e-05, could not be passed
        args = ["--alpha-mag", "2", "--t-start", "-30", "--t-steps", "3", flag, value,
                "--format", "structured"]
        assert main(args) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config[flag[2:].replace("-", "_")] == float(value)

    def test_negative_infinity_is_refused_as_a_value(self, capsys):
        assert main(["--alpha-mag", "2", "--alpha-phase", "-inf"]) == 2
        assert capsys.readouterr().err == \
            "jcm-entropy: argument error: alpha_phase must be finite, got -inf\n"

    @pytest.mark.parametrize("alpha_mag", ["1e-300", "5e-324"])
    def test_alpha_squared_underflow(self, alpha_mag, tmp_path):
        # |alpha|^2 underflows to 0: a ZeroDivisionError traceback before
        tiny, vacuum = tmp_path / "tiny.csv", tmp_path / "vacuum.csv"
        args = ["--t-end", "5", "--t-steps", "4", "--output"]
        assert main(["--alpha-mag", alpha_mag, *args, str(tiny)]) == 0
        assert main(["--alpha-mag", "0", *args, str(vacuum)]) == 0
        got = np.loadtxt(tiny, delimiter=",", skiprows=1)
        want = np.loadtxt(vacuum, delimiter=",", skiprows=1)
        assert got.shape == want.shape == (4, len(BASE_COLUMNS))
        assert np.abs(got - want).max() <= 1e-299

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

    def test_help_quotes_the_config_defaults(self, capsys):
        # every flag has a help line, and each default one quotes is the one
        # SimulationConfig declares, or the parser's own for --format
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        options = " ".join(capsys.readouterr().out.split()).split(" options: ")[1]
        helps = dict(re.findall(r"(--[a-z-]+)(?: [A-Z_]+| \{[a-z,]+\})? (.*?)(?= --|$)",
                                options))
        actions = {a.option_strings[-1]: a for a in build_parser()._actions}
        assert sorted(helps) == sorted(actions) and all(helps.values())
        quoted = {actions[flag].dest: m[1] for flag, text in helps.items()
                  if (m := re.search(r"\bdefault (\S+?)\)", text))}
        declared = {f.name: repr(f.default) for f in fields(SimulationConfig)
                    if f.default is not MISSING}
        assert quoted == {**declared, "format": "csv"}


def _failing_stdout(sink):
    """A binary file that every write fails on, and the error it gives:
    /dev/full, or a pipe whose read end is closed."""
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return open("/dev/full", "wb"), "[Errno 28] No space left on device"
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "wb"), "[Errno 32] Broken pipe"


def _python(*args, stdout=subprocess.PIPE, buffered=False):
    """``python *args`` in a fresh interpreter, with this tree's ``src`` on
    the path; stderr is captured, and stdout too unless it is given.  With
    ``buffered`` set, PYTHONUNBUFFERED is left out of its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE)


def _loaded(code):
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    out = _python("-c", f"import sys; {code}print(' '.join(sys.modules))")
    assert out.returncode == 0, out.stderr.decode()
    return set(out.stdout.decode().split())


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the one runtime dependency: importing the CLI, and running the
    # oracle quadrature, may add to what a bare interpreter loads (site hooks
    # included) only stdlib, numpy and jcm_entropy modules, so no scipy,
    # which would cost the CLI most of its start-up time.  numpy.fft is loaded
    # by the spectral route of reduced_density when it runs, not on import.
    bare = _loaded("")
    added = _loaded("import jcm_entropy as j, jcm_entropy.cli; "
                    "j.wehrl_entropy_quadrature(j.BlochVector(0.3, 0.2, 0.5, 0.6164414), "
                    "j.SphereQuadrature(8, 8)); ")
    allowed = set(sys.stdlib_module_names) | {"numpy", "jcm_entropy"}
    assert sorted(m for m in added - bare if m.split(".")[0] not in allowed) == []
    assert sorted(m for m in added if m.startswith("numpy.fft")) == []


@pytest.mark.parametrize("extra", [["--with-oracle", "--format", "structured"], []],
                         ids=["oracle-json", "csv"])
def test_cli_run_leaves_numpy_ma_and_polynomial_unloaded(extra, tmp_path):
    # a one-shot run pays for every module it loads: numpy.ma (np.unique
    # loads it) and numpy.polynomial (leggauss) are on no path of main(),
    # and json is on the structured output's path alone
    args = ["--alpha-mag", "7", "--t-end", "30", "--t-steps", "200", *extra,
            "--output", str(tmp_path / "out")]
    added = _loaded(f"from jcm_entropy.cli import main; assert main({args!r}) == 0; ")
    packages = {".".join(m.split(".")[:2]) for m in added}
    assert sorted(packages & {"numpy.ma", "numpy.polynomial"}) == []
    assert ("json" in added) == ("structured" in extra)


class TestEntry:
    ARGS = ["--alpha-mag", "2", "--t-end", "5", "--t-steps", "10"]

    def test_module_run_writes_what_main_writes(self, capsys):
        proc = _python("-m", "jcm_entropy.cli", *self.ARGS)
        assert proc.returncode == 0
        assert main(self.ARGS) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_module_run_exit_codes(self):
        bad = _python("-m", "jcm_entropy.cli", "--alpha-mag", "two")
        assert bad.returncode == 2
        assert b"--alpha-mag: invalid float value" in bad.stderr
        domain = _python("-m", "jcm_entropy.cli", "--alpha-mag", "7", "--t-start", "1e300",
                         "--t-end", "1e301", "--t-steps", "3")
        assert domain.returncode == 1
        assert domain.stdout == b""
        assert domain.stderr.startswith(b"jcm-entropy: at T = 1e+300: Rabi phase")

    def test_entry_freezes_the_import_heap(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["jcm-entropy", *self.ARGS])
        try:
            with pytest.raises(SystemExit) as exc:
                entry()
            assert exc.value.code == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert capsys.readouterr().out.splitlines()[0] == BASE_HEADER
