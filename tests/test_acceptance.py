"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from jcm_entropy import (
    LN2,
    LN4PI,
    WEHRL_MIN,
    BlochVector,
    SimulationConfig,
    SphereQuadrature,
    coherent_amplitudes,
    bloch_vector,
    reduced_density,
    run_sweep,
    von_neumann_entropy,
    wehrl_entropy_closed,
    wehrl_entropy_quadrature,
    wehrl_entropy_series,
)
from oracles import q_normalization, trig_power_integral, wehrl_entropy_triple_sum


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def bloch(sx, sy, sz):
    return BlochVector(sx, sy, sz, math.sqrt(sx * sx + sy * sy + sz * sz))


@pytest.fixture(scope="module")
def fig_sweep():
    start = time.perf_counter()
    result = run_sweep(SimulationConfig(alpha_mag=7.0, alpha_phase=0.0,
                                        t_start=0.0, t_end=30.0, t_steps=3000))
    return result, time.perf_counter() - start


def test_criterion_1_wehrl_lower_bound_constant():
    start = time.perf_counter()
    series_const = sum(1.0 / (2 * n * (2 * n - 1) * (2 * n + 1))
                       for n in range(1, 200001))
    w1 = wehrl_entropy_series(1.0)
    elapsed = time.perf_counter() - start
    ok = (abs(series_const - (LN2 - 0.5)) < 1e-9
          and abs(series_const - 0.1931471806) < 1e-9
          and abs(w1 - 2.337877) < 1e-6
          and abs(w1 - 2.3379) < 5e-5
          and elapsed < 1.0)
    report("criterion 1: Wehrl lower-bound constant ln2 - 1/2 and W(1)", ok)


def test_criterion_2_upper_bounds():
    grid = np.linspace(0.0, 1.0, 1000)
    wehrl = np.array([wehrl_entropy_closed(float(e)) for e in grid])
    gamma = np.array([von_neumann_entropy(float(e)) for e in grid])
    ok = (np.all(wehrl <= LN4PI + 1e-12)
          and np.all(gamma <= LN2 + 1e-12)
          and abs(wehrl[0] - LN4PI) < 1e-10
          and abs(gamma[0] - LN2) < 1e-10)
    report("criterion 2: upper bounds ln(4pi) and ln 2, attained as eta -> 0", ok)


def test_criterion_3_four_route_agreement():
    start = time.perf_counter()
    quad = SphereQuadrature(128, 256)
    worst = 0.0
    for eta in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
        b = bloch(0.36 * eta, 0.48 * eta, 0.8 * eta)
        values = [wehrl_entropy_closed(eta),
                  wehrl_entropy_series(eta),
                  wehrl_entropy_triple_sum(b, 200),
                  wehrl_entropy_quadrature(b, quad)]
        worst = max(worst, max(values) - min(values))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(f"criterion 3: four Wehrl routes pairwise within 1e-8 "
           f"(worst spread {worst:.2e})", ok)


def test_criterion_4a_initial_row(fig_sweep):
    result, elapsed = fig_sweep
    d = result.data
    ok = (abs(d["eta"][0] - 1.0) < 1e-10
          and d["xi"][0] < 1e-10
          and d["gamma"][0] < 1e-9
          and abs(d["wehrl_closed"][0] - WEHRL_MIN) < 1e-6
          and elapsed < 5.0)
    report("criterion 4a: sweep row 0 is the pure product state", ok)


def test_criterion_4b_pairwise_concordance(fig_sweep):
    result, _ = fig_sweep
    # the sign of each measure's change from one row to the next
    xi, gamma, wehrl = (np.sign(c[:-1] - c[1:]) for c in (
        result.data[name] for name in ("xi", "gamma", "wehrl_closed")))
    ok = bool(np.all((xi == gamma) & (gamma == wehrl)))
    report("criterion 4b: xi, gamma, Wehrl concordant on adjacent rows", ok)


def test_criterion_4c_collapse_entanglement(fig_sweep):
    # Collapse-region entanglement, as the joint atom-field evolution gives
    # it (tests/test_dynamics.py::TestJointEvolutionOracle, which matches
    # reduced_density to 1e-12 and asserts both laws below on its own values):
    # near-maximal entanglement just after the collapse time T_c = sqrt(2)
    # (Eberly, Narozhny & Sanchez-Mondragon 1980), then on T in [5, 15] the
    # Gea-Banacloche attractor eta = |sin(T/(2|alpha|))|, i.e.
    # xi = cos^2(T/(2|alpha|))/2 <= 0.44, so xi stays below 0.49 there.  The
    # 1e-2 bound is about twice the oracle's worst residual against the law
    # on that window (5.4e-3 at T = 15).
    result, _ = fig_sweep
    two_alpha = 2.0 * result.config.alpha_mag
    t, xi = result.data["t"], result.data["xi"]
    onset = xi[(math.sqrt(2.0) <= t) & (t <= 5.0)].max()
    window = (5.0 <= t) & (t <= 15.0)
    worst = np.abs(xi[window] - 0.5 * np.cos(t[window] / two_alpha) ** 2).max()
    peak = xi[window].max()
    ok = onset > 0.49 and worst < 1e-2 and peak < 0.49
    report(f"criterion 4c: xi peak {onset:.4f} > 0.49 on T in [sqrt(2), 5]; "
           f"on T in [5, 15] xi within 1e-2 of cos^2(T/{two_alpha:g})/2 "
           f"(worst {worst:.1e}) and peak {peak:.4f} < 0.49", ok)


def test_criterion_4d_attractor_purity_rise(fig_sweep):
    result, _ = fig_sweep
    t, eta = result.data["t"], result.data["eta"]
    window = eta[(20.0 <= t) & (t <= 24.0)]
    collapse_mean = np.mean(eta[(5.0 <= t) & (t <= 15.0)])
    ok = max(window) > collapse_mean
    report(f"criterion 4d: eta peak {max(window):.4f} in T in [20, 24] "
           f"exceeds collapse mean {collapse_mean:.4f}", ok)


def test_criterion_5_series_identities():
    ok = True
    for eta in (0.1, 0.5, 0.9):
        q = eta * eta
        sums = [0.0, 0.0, 0.0]
        power = 1.0
        for n in range(1, 10 ** 6):
            power *= q
            terms = (power / (2 * n * (2 * n - 1)),
                     power / (2 * n - 1),
                     power / (2 * n + 1))
            sums = [s + t for s, t in zip(sums, terms)]
            if max(terms) < 1e-15 * max(sums):
                break
        log_ratio = math.log((1.0 + eta) / (1.0 - eta))
        expected = (0.5 * math.log(1.0 - q) + 0.5 * eta * log_ratio,
                    0.5 * eta * log_ratio,
                    -1.0 + 0.5 * log_ratio / eta)
        ok = ok and all(abs(s - e) < 1e-9 for s, e in zip(sums, expected))
    report("criterion 5: logarithmic/arctanh series identities at "
           "eta in {0.1, 0.5, 0.9}", ok)


def test_criterion_6_q_normalization():
    quad = SphereQuadrature(64, 128)
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        worst = max(worst, abs(q_normalization(bloch(*v), quad) - 1.0))
    ok = worst < 1e-12
    report(f"criterion 6: Q normalization within 1e-12 for 100 random "
           f"Bloch vectors (worst {worst:.2e})", ok)


def test_criterion_7_trig_integral_identity():
    ok = True
    for c1, c2 in [(1.0, 1.0), (0.6, -0.8)]:
        x = 2.0 * math.pi * np.arange(4096) / 4096
        f = c1 * np.sin(x) + c2 * np.cos(x)
        for k in range(21):
            numeric = float(np.sum(f ** k)) * 2.0 * math.pi / 4096
            ok = ok and abs(trig_power_integral(c1, c2, k) - numeric) < 1e-10
    report("criterion 7: closed trig power integral matches composite "
           "quadrature for k <= 20", ok)


def test_criterion_8_vacuum_closed_orbit():
    amps = coherent_amplitudes(0.0, 0.0, 1e-12)
    worst = 0.0
    for t in np.linspace(0.0, 3.0 * math.pi, 100):
        eta = bloch_vector(reduced_density(amps, float(t))).eta
        worst = max(worst, abs(eta - abs(math.cos(2.0 * float(t)))))
    ok = worst < 1e-12
    report(f"criterion 8: vacuum-field eta(T) = |cos 2T| (worst dev "
           f"{worst:.2e})", ok)
