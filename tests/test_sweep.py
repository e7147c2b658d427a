"""run_sweep's array evaluation against the per-point composition of the
library's functions, its error contract and its working memory."""

import dataclasses
import json
import re
import threading
import tracemalloc

import numpy as np
import pytest

from jcm_entropy import (
    AtomicDensityMatrix,
    DomainError,
    PrecisionLossError,
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
from jcm_entropy import dynamics, entropies, husimi, sweep
from jcm_entropy.cli import main
from jcm_entropy.dynamics import CHUNK_ELEMENTS
from jcm_entropy.husimi import QUAD_ELEMENTS
from jcm_entropy.sweep import BASE_COLUMNS, ORACLE_COLUMNS

# columns that go through the same float operations in both orders
EXACT = ("t", "sx", "sy", "sz", "eta", "xi", "wehrl_series")


def pointwise_sweep(config, with_oracle=False, blochs=None):
    """One grid point at a time, as the sweep was composed before it took
    arrays; from the Bloch vectors ``blochs`` where given, else from scalar
    reduced_density calls."""
    amps = coherent_amplitudes(config.alpha_mag, config.alpha_phase,
                               config.fock_tail_tol)
    quad = SphereQuadrature(config.quad_theta_order, config.quad_phi_order)
    columns = ORACLE_COLUMNS if with_oracle else BASE_COLUMNS
    times = np.linspace(config.t_start, config.t_end, config.t_steps).tolist()
    if blochs is None:
        blochs = [bloch_vector(reduced_density(amps, t)) for t in times]
    rows = []
    for t, b in zip(times, blochs):
        values = {"t": t, **vars(b), **entropy_record(b.eta, config.series_tol)}
        if with_oracle:
            values["wehrl_quadrature"] = wehrl_entropy_quadrature(b, quad)
        rows.append([values[name] for name in columns])
    return {name: np.array(col) for name, col in zip(columns, zip(*rows))}


def assert_matches_pointwise(config, with_oracle=False, spectral=False):
    """A sweep against its per-point composition.  A ``spectral`` sweep's
    Bloch columns are within twice SPECTRAL_TOL of the scalar calls' (a
    component is twice an entry), and its other columns are then those
    composed from its own Bloch vectors."""
    result = run_sweep(config, with_oracle=with_oracle)
    expected = pointwise_sweep(config, with_oracle)
    if spectral:
        bloch = [result.data[name] for name in ("sx", "sy", "sz", "eta")]
        for name, got in zip(("sx", "sy", "sz", "eta"), bloch):
            spread = np.abs(got - expected[name]).max()
            assert spread <= 2 * dynamics.SPECTRAL_TOL, (name, spread)
        blochs = [dynamics.BlochVector(*row) for row in zip(*(b.tolist() for b in bloch))]
        expected = pointwise_sweep(config, with_oracle, blochs)
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
        # the direct route's chunks of 12 times on a non-uniform array, the
        # last one partial: each time's entries are a scalar call's
        amps = coherent_amplitudes(30.0, 0.4, 1e-12)
        chunk = CHUNK_ELEMENTS // amps.weights.size
        T = np.geomspace(3.0, 33.0, 100)
        assert 1 < chunk < 100 and 100 % chunk
        rho = reduced_density(amps, T)
        for i, t in enumerate(T.tolist()):
            one = reduced_density(amps, t)
            assert (rho.rho_ee[i], rho.rho_gg[i], rho.rho_eg[i]) == \
                (one.rho_ee, one.rho_gg, one.rho_eg)

    def test_short_small_basis_grid_takes_the_spectral_route(self, monkeypatch):
        calls = []
        real = dynamics._spectral_sums
        monkeypatch.setattr(dynamics, "_spectral_sums",
                            lambda *args: calls.append(args[-2].size) or real(*args))
        config = SimulationConfig(alpha_mag=3.0, alpha_phase=0.4, t_end=20.0, t_steps=300)
        assert_matches_pointwise(config, spectral=True)
        assert calls == [300]

    def test_single_point(self):
        config = SimulationConfig(alpha_mag=2.0, t_start=1.5, t_end=1.5, t_steps=1)
        result = assert_matches_pointwise(config)
        assert result.data["t"].tolist() == [1.5]

    def test_with_oracle(self):
        config = SimulationConfig(alpha_mag=3.0, alpha_phase=-1.0, t_end=20.0,
                                  t_steps=7, quad_theta_order=16, quad_phi_order=32)
        assert_matches_pointwise(config, with_oracle=True, spectral=True)


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
        # a sweep's runs are the spectral route's blocks, each summed on its
        # own
        direct = []
        real_direct = dynamics._direct_sums
        monkeypatch.setattr(dynamics, "_direct_sums",
                            lambda *args: direct.append(args[-1].size) or real_direct(*args))
        calls.clear()
        run_sweep(SimulationConfig(alpha_mag=30.0, t_end=30.0,
                                   t_steps=2 * sweep.RUN_POINTS + 1))
        assert calls == [2731, 2731, 2731]
        assert direct == []

    @pytest.mark.parametrize("t_start, t_end, t_steps", [(-1.0, 1.0, 20000),
                                                         (0.0, 60.0, 8193)])
    def test_each_run_is_a_linspace_of_its_own_ends(self, monkeypatch, t_start, t_end,
                                                    t_steps):
        # a run cut from a longer linspace grid is rounded at the scale of the
        # grid's ends, not its own: its points are recomputed from its ends,
        # which stay the grid's, and are what reduced_density is handed
        runs = []
        real = dynamics.reduced_density
        monkeypatch.setattr(dynamics, "reduced_density",
                            lambda amps, T: runs.append(T.copy()) or real(amps, T))
        t = run_sweep(SimulationConfig(alpha_mag=2.0, t_start=t_start, t_end=t_end,
                                       t_steps=t_steps)).data["t"]
        grid = np.linspace(t_start, t_end, t_steps)
        assert len(runs) > 1 and sum(map(len, runs)) == t_steps
        lo = 0
        for T in runs:
            hi = lo + T.size
            assert np.array_equal(t[lo:hi], T)
            assert np.array_equal(T, np.linspace(T[0], T[-1], T.size))
            assert np.array_equal(t[[lo, hi - 1]], grid[[lo, hi - 1]])
            lo = hi

    def test_one_quadrature_call_per_sweep(self, monkeypatch):
        calls = []
        real = husimi.wehrl_entropy_quadrature
        monkeypatch.setattr(husimi, "wehrl_entropy_quadrature",
                            lambda b, quad: calls.append(np.size(b.sz)) or real(b, quad))
        run_sweep(SimulationConfig(alpha_mag=3.0, t_end=10.0, t_steps=50,
                                   quad_theta_order=16, quad_phi_order=32),
                  with_oracle=True)
        assert calls == [50]

    # the layers that perfbench/run.py times by replacing these module
    # attributes; a sweep that calls one by another name hides its time
    @pytest.mark.parametrize("layer", [
        "dynamics.coherent_amplitudes", "dynamics.reduced_density", "dynamics.bloch_vector",
        "entropies.entropy_record", "entropies.wehrl_entropy_series",
        "entropies.wehrl_entropy_closed", "entropies.von_neumann_entropy",
        "husimi.SphereQuadrature", "husimi.wehrl_entropy_quadrature",
        "sweep.run_sweep", "sweep.emit"])
    def test_oracle_sweep_looks_up_each_traced_layer(self, monkeypatch, tmp_path, layer):
        module_name, name = layer.split(".")
        module = {"dynamics": dynamics, "entropies": entropies, "husimi": husimi,
                  "sweep": sweep}[module_name]
        real, calls = getattr(module, name), []

        def traced(*args, **kwargs):
            calls.append((args, real(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(module, name, traced)
        config = SimulationConfig(alpha_mag=7.0, t_end=1.0, t_steps=50,
                                  quad_theta_order=16, quad_phi_order=32)
        sweep.emit(sweep.run_sweep(config, with_oracle=True), format="structured",
                   path=str(tmp_path / "sweep.json"))
        assert len(calls) == 1  # one run of 50 points
        # what the benchmark's counters read from the traced calls
        args, result = calls[0]
        if layer == "dynamics.coherent_amplitudes":
            assert result.n_max > result.n_min
        elif layer == "dynamics.reduced_density":
            assert len(args[0].coefficients) == args[0].n_max - args[0].n_min + 1
        elif layer == "husimi.wehrl_entropy_quadrature":
            assert (args[1].theta_order, args[1].phi_order) == (16, 32)

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


class TestRouteAgreement:
    """A sweep's Wehrl columns agree within the sum of their routes' stated
    errors, on the benchmark's shapes: the premise of a gate in the sweep."""

    @pytest.mark.parametrize("alpha_mag,t_start,t_end,t_steps,with_oracle", [
        (7.0, 0.0, 30.0, 4000, False), (30.0, 3.0, 33.0, 4000, False),
        (7.0, 0.0, 30.0, 2000, True)])
    def test_spreads_within_the_stated_errors(self, alpha_mag, t_start, t_end, t_steps,
                                              with_oracle):
        data = run_sweep(SimulationConfig(alpha_mag=alpha_mag, t_start=t_start, t_end=t_end,
                                          t_steps=t_steps), with_oracle=with_oracle).data
        closed = data["wehrl_closed"]
        assert np.max(np.abs(closed - data["wehrl_series"])) <= \
            entropies.WEHRL_CLOSED_ERROR + entropies.SERIES_ERROR
        if with_oracle:
            below = data["eta"] <= husimi.QUAD_ETA_SPLIT
            assert below.any() and not below.all()
            bound = np.where(below, husimi.QUAD_ERROR, husimi.QUAD_ERROR_NEAR_PURE)
            assert np.all(np.abs(data["wehrl_quadrature"] - closed)
                          <= bound + entropies.WEHRL_CLOSED_ERROR)


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

    @pytest.mark.parametrize("leak,check", [
        # the trace, or the positive semidefiniteness, breaks from T = 2 on only
        (lambda rho, excess: (rho.rho_ee + 1e-9 * excess, rho.rho_gg, rho.rho_eg),
         "trace violation"),
        (lambda rho, excess: (rho.rho_ee, rho.rho_gg, rho.rho_eg + 0.6 * excess),
         "density matrix is not positive semidefinite")], ids=["trace", "psd"])
    def test_names_first_failing_point_inside_a_later_chunk(self, monkeypatch, leak, check):
        real = dynamics.reduced_density
        runs = []

        def leaky(amps, T, **kw):
            runs.append(T.copy())
            excess = np.where(np.asarray(T) >= 2.0, 1.0, 0.0)
            return AtomicDensityMatrix(*leak(real(amps, T, **kw), excess))

        monkeypatch.setattr(dynamics, "reduced_density", leaky)
        # three runs of 2731 points, each a spectral block: T = 2 lies
        # inside the second run, not at its first point
        config = SimulationConfig(alpha_mag=30.0, t_end=5.0,
                                  t_steps=2 * sweep.RUN_POINTS + 1)
        with pytest.raises(DomainError) as raised:
            run_sweep(config)
        assert len(runs) == 2
        index = np.flatnonzero(runs[1] >= 2.0)[0]
        assert 0 < index and runs[0][-1] < 2.0
        message = f"at T = {runs[1][index].item()!r}: {check}"
        assert str(raised.value).startswith(message), str(raised.value)

    def test_names_the_sweeps_own_failing_point(self):
        # the sweep's own eta first fails the Wehrl series at index 104; a
        # one-point run of index 6 takes the direct route, whose eta there
        # fails where the sweep's settles, and must not be named
        config = SimulationConfig(alpha_mag=7.0, t_start=2.0, t_end=30.0, t_steps=2000,
                                  series_tol=6e-16)
        with pytest.raises(PrecisionLossError) as raised:
            run_sweep(config)
        message = str(raised.value)
        assert message.startswith("at T = 3.456728364182091:"), message
        assert message.endswith("at eta = 0.2457739797141691"), message

    def test_each_stage_runs_once_per_run(self, monkeypatch):
        # the last stage fails at the last point, which ends the second of
        # two runs of 2048 and 2049 points: every stage runs once in each
        # run, the failing run included
        t = np.linspace(0.0, 0.7, sweep.RUN_POINTS + 1)
        real_density, real_bloch = dynamics.reduced_density, dynamics.bloch_vector
        real_record, real_quadrature = entropies.entropy_record, husimi.wehrl_entropy_quadrature
        calls, times = [], []

        def density(amps, T, **kw):
            calls.append("reduced_density")
            times.append(T)
            return real_density(amps, T, **kw)

        def stretched(rho):  # outside the ball at the last point, eta as it was
            calls.append("bloch_vector")
            b = real_bloch(rho)
            scale = np.where(times[-1] == t[-1], 1.5, 1.0)
            return dataclasses.replace(b, sx=b.sx * scale, sy=b.sy * scale,
                                       sz=b.sz * scale)

        def record(eta, series_tol):
            calls.append("entropy_record")
            return real_record(eta, series_tol)

        def quadrature(b, quad):
            calls.append("wehrl_entropy_quadrature")
            return real_quadrature(b, quad)

        monkeypatch.setattr(dynamics, "reduced_density", density)
        monkeypatch.setattr(dynamics, "bloch_vector", stretched)
        monkeypatch.setattr(entropies, "entropy_record", record)
        monkeypatch.setattr(husimi, "wehrl_entropy_quadrature", quadrature)
        config = SimulationConfig(alpha_mag=7.0, t_end=0.7, t_steps=t.size,
                                  quad_theta_order=16, quad_phi_order=32)
        message = f"at T = {t[-1].item()!r}: negative Q density"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run_sweep(config, with_oracle=True)
        assert calls == 2 * ["reduced_density", "bloch_vector", "entropy_record",
                             "wehrl_entropy_quadrature"]

    @pytest.fixture
    def outside_ball(self, monkeypatch):
        """Bloch components stretched by 1.5 from grid point 70 on (of 101).

        eta is left as it is, so only the quadrature sees the fault.  The
        stretch is keyed on T, each run of the sweep passing its own times.
        """
        real_density, real_bloch = dynamics.reduced_density, dynamics.bloch_vector
        first_bad = np.linspace(0.0, 1.0, 101)[70]
        times = []

        def recorded(amps, T, **kw):
            times.append(np.asarray(T))
            return real_density(amps, T, **kw)

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

    def test_negative_q_names_first_t_in_the_second_share(self, outside_ball,
                                                          started_threads):
        # at 64x128 the 101 points are 26 blocks of 4, and the second of two
        # shares starts at point 52
        rows = QUAD_ELEMENTS // (64 * 128)
        assert 70 >= 26 // 2 * rows
        before = threading.active_count()
        config = SimulationConfig(alpha_mag=7.0, t_end=1.0, t_steps=101)
        message = f"at T = {outside_ball!r}: negative Q density"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run_sweep(config, with_oracle=True)
        assert started_threads
        assert threading.active_count() == before

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
    # 1.1, 1.1 and 1.5 MiB, the three on the spectral route, whose blocks
    # and the sweep's runs of points hold 4096 times; a sweep holding one
    # object per row peaked at 7.1 MiB at (30, 16000), 5.7 MiB above its
    # 1.3 MiB of values, and one holding whole-grid temporaries at 5 MiB at
    # (200, 200000)
    config = SimulationConfig(alpha_mag=alpha_mag, t_end=30.0, t_steps=t_steps)
    assert working_memory(config) <= 2 * 2 ** 20


@pytest.mark.parametrize("alpha_mag,t_start,t_end,t_steps,runs", [
    (200.0, 3.0, 30.0, 1, [1]), (30.0, 3.0, 3.0, 20000, [4000] * 5)],
    ids=["one-point", "zero-step"])
def test_direct_route_working_memory_is_bounded(monkeypatch, alpha_mag, t_start, t_end,
                                                t_steps, runs):
    # 0.31 and 0.69 MiB: a one-point sweep, and one of zero step, take the
    # direct sums, CHUNK_ELEMENTS phases at a time
    direct = []
    real_direct = dynamics._direct_sums
    monkeypatch.setattr(dynamics, "_direct_sums",
                        lambda *args: direct.append(args[-1].size) or real_direct(*args))
    config = SimulationConfig(alpha_mag=alpha_mag, t_start=t_start, t_end=t_end,
                              t_steps=t_steps)
    assert working_memory(config) <= 2 * 2 ** 20
    assert direct == runs


def test_oracle_working_memory_is_bounded():
    # a block's Q and Q ln Q are 512 KiB together, whatever the grid length
    config = SimulationConfig(alpha_mag=7.0, t_end=30.0, t_steps=2000)
    assert working_memory(config, with_oracle=True) <= 2 * 2 ** 20


def test_oracle_working_memory_is_bounded_at_any_core_count(started_threads):
    # each share's Q and Q ln Q are 512 KiB together; at most two shares
    # run, however many cores the host has, since the call's size alone
    # sets the split
    config = SimulationConfig(alpha_mag=7.0, t_end=30.0, t_steps=2000)
    assert working_memory(config, with_oracle=True) <= 2 * 2 ** 20
    assert len(started_threads) == 1
    wehrl_entropy_quadrature(dynamics.BlochVector(0.1, 0.2, 0.3, None),
                             SphereQuadrature(64, 128))
    assert len(started_threads) == 1  # a one-block call starts none
