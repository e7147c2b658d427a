"""run_sweep's array evaluation against the per-point composition of the
library's functions, its error contract and its working memory."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from jcm_entropy import (
    AtomicDensityMatrix,
    DomainError,
    SimulationConfig,
    SweepResult,
    SphereQuadrature,
    bloch_vector,
    coherent_amplitudes,
    emit,
    entropy_record,
    reduced_density,
    run_sweep,
    wehrl_entropy_quadrature,
)
from jcm_entropy import dynamics, husimi
from jcm_entropy.cli import main
from jcm_entropy.dynamics import CHUNK_ELEMENTS
from jcm_entropy.husimi import QUAD_ELEMENTS
from jcm_entropy.sweep import BASE_COLUMNS, ORACLE_COLUMNS, _on_grid

# columns that go through the same float operations in both orders
EXACT = ("t", "sx", "sy", "sz", "eta", "xi", "wehrl_series")


def pointwise_sweep(config, with_oracle=False):
    """One grid point at a time, as the sweep was composed before it took arrays."""
    amps = coherent_amplitudes(config.alpha_mag, config.alpha_phase,
                               config.fock_tail_tol)
    quad = SphereQuadrature(config.quad_theta_order, config.quad_phi_order)
    columns = ORACLE_COLUMNS if with_oracle else BASE_COLUMNS
    rows = []
    for t in np.linspace(config.t_start, config.t_end, config.t_steps).tolist():
        b = bloch_vector(reduced_density(amps, t))
        values = {"t": t, **vars(b), **entropy_record(b.eta, config.series_tol)}
        if with_oracle:
            values["wehrl_quadrature"] = wehrl_entropy_quadrature(b, quad)
        rows.append([values[name] for name in columns])
    return {name: np.array(col) for name, col in zip(columns, zip(*rows))}


def assert_matches_pointwise(config, with_oracle=False):
    result = run_sweep(config, with_oracle=with_oracle)
    expected = pointwise_sweep(config, with_oracle)
    assert tuple(result.data) == result.columns == tuple(expected)
    for name, want in expected.items():
        got = result.data[name]
        assert got.dtype == np.float64 and got.shape == (config.t_steps,)
        if name in EXACT:
            assert np.array_equal(got, want), name
        else:
            ulps = np.abs(got - want) / np.spacing(np.maximum(abs(got), abs(want)))
            assert np.all(ulps <= 4), (name, float(ulps.max()))
    return result


class TestPointwiseParity:
    def test_alpha30_partial_last_chunk(self):
        chunk = CHUNK_ELEMENTS // coherent_amplitudes(30.0, 0.0, 1e-12).coefficients.size
        config = SimulationConfig(alpha_mag=30.0, alpha_phase=0.4, t_start=3.0,
                                  t_end=33.0, t_steps=100)
        assert 1 < chunk < 100 and 100 % chunk
        assert_matches_pointwise(config)

    def test_single_point(self):
        config = SimulationConfig(alpha_mag=2.0, t_start=1.5, t_end=1.5, t_steps=1)
        result = assert_matches_pointwise(config)
        assert result.data["t"].tolist() == [1.5]

    def test_with_oracle(self):
        config = SimulationConfig(alpha_mag=3.0, alpha_phase=-1.0, t_end=20.0,
                                  t_steps=7, quad_theta_order=16, quad_phi_order=32)
        assert_matches_pointwise(config, with_oracle=True)


class TestColumnarResult:
    def test_oracle_columns_insert_quadrature_after_series(self):
        assert ORACLE_COLUMNS == ("t", "sx", "sy", "sz", "eta", "xi", "gamma",
                                  "wehrl_closed", "wehrl_series", "wehrl_quadrature",
                                  "gamma_norm", "wehrl_norm")

    def test_one_kernel_call_per_sweep(self, monkeypatch):
        calls = []
        real = dynamics.reduced_density
        monkeypatch.setattr(dynamics, "reduced_density",
                            lambda amps, T: calls.append(np.size(T)) or real(amps, T))
        run_sweep(SimulationConfig(alpha_mag=30.0, t_end=30.0, t_steps=100))
        assert calls == [100]

    def test_one_quadrature_call_per_sweep(self, monkeypatch):
        calls = []
        real = husimi.wehrl_entropy_quadrature
        monkeypatch.setattr(husimi, "wehrl_entropy_quadrature",
                            lambda b, quad: calls.append(np.size(b.sz)) or real(b, quad))
        run_sweep(SimulationConfig(alpha_mag=3.0, t_end=10.0, t_steps=50,
                                   quad_theta_order=16, quad_phi_order=32),
                  with_oracle=True)
        assert calls == [50]

    def test_closed_form_near_pure_start(self):
        # at T = 5e-5, 1 - eta is about 1e-8, where the closed form used to
        # snap to its eta = 1 limit, 2.5e-9 off the series
        result = run_sweep(SimulationConfig(alpha_mag=7.0, t_start=5e-5, t_end=1e-3,
                                            t_steps=50))
        assert np.all(1.0 - result.data["eta"] < 1e-5)
        spread = np.abs(result.data["wehrl_closed"] - result.data["wehrl_series"])
        assert spread.max() <= 1e-10

    def test_structured_bytes_match_json_dumps(self, capsys):
        # the row text comes from the C encoder, re-indented
        config = SimulationConfig(alpha_mag=2.0, t_end=5.0, t_steps=3)
        special = [-0.0, 5e-324, float("nan"), float("inf"), -float("inf"), 0.1, 1e300]
        data = {name: np.array([special[(i + k) % len(special)] for k in range(3)])
                for i, name in enumerate(BASE_COLUMNS)}
        result = SweepResult(config=config, data=data)
        payload = {"config": dataclasses.asdict(config), "columns": list(BASE_COLUMNS),
                   "rows": [[float(data[name][k]) for name in BASE_COLUMNS]
                            for k in range(3)]}
        expected = json.dumps(payload, indent=2) + "\n"
        for value in ("-0.0", "5e-324", "NaN", "Infinity", "-Infinity"):
            assert value in expected
        emit(result, format="structured")
        assert capsys.readouterr().out == expected


class TestErrorContract:
    T_START = 0.25

    @pytest.fixture
    def norm_defect(self, monkeypatch):
        """Amplitudes with norm 1.001^2: every grid point breaks the trace."""
        def scaled(alpha_mag, alpha_phase, fock_tail_tol):
            amps = coherent_amplitudes(alpha_mag, alpha_phase, fock_tail_tol)
            return dataclasses.replace(amps, weights=amps.weights * 1.001)
        monkeypatch.setattr(dynamics, "coherent_amplitudes", scaled)

    def test_names_first_grid_point(self, norm_defect):
        config = SimulationConfig(alpha_mag=2.0, t_start=self.T_START, t_end=5.0,
                                  t_steps=500)
        with pytest.raises(DomainError, match=r"^at T = 0\.25: trace violation"):
            run_sweep(config)

    def test_cli_exits_1(self, norm_defect, capsys):
        args = ["--alpha-mag", "2", "--t-start", str(self.T_START), "--t-end", "5",
                "--t-steps", "500"]
        assert main(args) == 1
        assert "at T = 0.25: trace violation" in capsys.readouterr().err

    def test_names_first_failing_point_inside_a_later_chunk(self, monkeypatch):
        real = dynamics.reduced_density

        def leaky(amps, T):
            rho = real(amps, T)
            # the trace breaks from T = 2 on only
            excess = np.where(np.asarray(T) >= 2.0, 1e-9, 0.0)
            return AtomicDensityMatrix(rho.rho_ee + excess, rho.rho_gg, rho.rho_eg)

        monkeypatch.setattr(dynamics, "reduced_density", leaky)
        config = SimulationConfig(alpha_mag=2.0, t_end=5.0, t_steps=501)
        t = np.linspace(0.0, 5.0, 501)
        index = np.flatnonzero(t >= 2.0)[0]
        step = CHUNK_ELEMENTS // coherent_amplitudes(2.0, 0.0, 1e-12).coefficients.size
        assert index > step and index % step  # inside a chunk, not the first one
        message = f"at T = {t[index].item()!r}: trace violation"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run_sweep(config)

    def test_last_point_fault_found_by_halving(self, monkeypatch):
        real = dynamics.reduced_density
        t = np.linspace(0.0, 5.0, 1000)
        calls = []

        def leaky(amps, T):
            calls.append(np.size(T))
            rho = real(amps, T)
            excess = np.where(np.asarray(T) == t[-1], 1e-9, 0.0)
            return AtomicDensityMatrix(rho.rho_ee + excess, rho.rho_gg, rho.rho_eg)

        monkeypatch.setattr(dynamics, "reduced_density", leaky)
        message = f"at T = {t[-1].item()!r}: trace violation"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run_sweep(SimulationConfig(alpha_mag=2.0, t_end=5.0, t_steps=t.size))
        assert len(calls) <= 2 * math.ceil(math.log2(t.size)) + 2
        assert sum(calls) <= 2 * t.size + len(calls)

    def test_fault_of_no_single_point_reraised(self):
        t = np.linspace(0.0, 1.0, 9)

        def stage(T):
            if T.size > 3:
                raise DomainError("too many points")
            return T

        with pytest.raises(DomainError, match="^too many points$"):
            _on_grid(t, stage)

    @pytest.fixture
    def outside_ball(self, monkeypatch):
        """Bloch components stretched by 1.5 from grid point 70 on (of 101).

        eta is left as it is, so only the quadrature sees the fault.  The
        stretch is keyed on T, since the search for the failing point
        re-runs the stages on sub-ranges of the grid.
        """
        real_density, real_bloch = dynamics.reduced_density, dynamics.bloch_vector
        first_bad = np.linspace(0.0, 1.0, 101)[70]
        times = []

        def recorded(amps, T):
            times.append(np.asarray(T))
            return real_density(amps, T)

        def stretched(rho):
            b = real_bloch(rho)
            scale = np.where(times[-1] >= first_bad, 1.5, 1.0)
            return dataclasses.replace(b, sx=b.sx * scale, sy=b.sy * scale,
                                       sz=b.sz * scale)

        monkeypatch.setattr(dynamics, "reduced_density", recorded)
        monkeypatch.setattr(dynamics, "bloch_vector", stretched)
        return first_bad.item()

    def test_negative_q_names_first_t_in_a_later_block(self, outside_ball):
        rows = QUAD_ELEMENTS // (16 * 32)
        assert 70 > rows and 70 % rows  # inside a block, not the first one
        config = SimulationConfig(alpha_mag=7.0, t_end=1.0, t_steps=101,
                                  quad_theta_order=16, quad_phi_order=32)
        message = f"at T = {outside_ball!r}: negative Q density"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run_sweep(config, with_oracle=True)

    def test_negative_q_cli_exits_1(self, outside_ball, capsys):
        args = ["--alpha-mag", "7", "--t-end", "1", "--t-steps", "101", "--with-oracle",
                "--quad-theta", "16", "--quad-phi", "32"]
        assert main(args) == 1
        assert f"at T = {outside_ball!r}: negative Q density" in capsys.readouterr().err


def working_memory(config, with_oracle=False):
    """Peak traced memory of a sweep less the float64 columns it must hold."""
    tracemalloc.start()
    try:
        result = run_sweep(config, with_oracle=with_oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = sum(column.nbytes for column in result.data.values())
    assert payload == len(result.columns) * 8 * config.t_steps
    return peak - payload


@pytest.mark.parametrize("alpha_mag,t_steps", [(7.0, 4000), (30.0, 16000), (200.0, 200000)])
def test_working_memory_is_bounded(alpha_mag, t_steps):
    # 1.3, 1.3 and 1.6 MiB, the three on the spectral route, whose blocks
    # and the sweep's runs of points hold 4096 times; a sweep holding one
    # object per row peaked at 7.1 MiB at (30, 16000), 5.7 MiB above its
    # 1.3 MiB of values, and one holding whole-grid temporaries at 5 MiB at
    # (200, 200000)
    config = SimulationConfig(alpha_mag=alpha_mag, t_end=30.0, t_steps=t_steps)
    assert working_memory(config) <= 2 * 2 ** 20


def test_oracle_working_memory_is_bounded():
    # a block's Q and Q ln Q are 512 KiB together, whatever the grid length
    config = SimulationConfig(alpha_mag=7.0, t_end=30.0, t_steps=2000)
    assert working_memory(config, with_oracle=True) <= 2 * 2 ** 20
