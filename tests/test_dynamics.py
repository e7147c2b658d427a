import cmath
import math
import re
import tracemalloc
import types

import mpmath
import numpy as np
import pytest

from jcm_entropy import (
    AtomicDensityMatrix,
    BlochVector,
    DomainError,
    SimulationConfig,
    SphereQuadrature,
    bloch_vector,
    coherent_amplitudes,
    reduced_density,
    run_sweep,
)
from jcm_entropy import dynamics
from jcm_entropy.dynamics import SPECTRAL_MIN_TIMES, SPECTRAL_TOL
from oracles import trig_power_integral, wehrl_entropy_triple_sum


def poisson_log_weights(alpha_mag, n):
    """Independent Poisson profile ln |C_n|^2, no recurrence involved."""
    return (2 * n * math.log(alpha_mag) - alpha_mag ** 2
            - np.array([math.lgamma(k + 1) for k in n]))


def brute_force_density(alpha_mag, alpha_phase, T, n_max):
    """Direct summation of the reduced-density sums at fixed high truncation.

    Oracle: builds the full joint state vector and traces out the field,
    never touching the recurrence or the library's sum ordering.
    """
    n = np.arange(n_max + 1)
    C = np.exp(0.5 * poisson_log_weights(alpha_mag, n)) * np.exp(1j * alpha_phase * n)
    amp_e = np.zeros(n_max + 2, complex)
    amp_g = np.zeros(n_max + 2, complex)
    amp_e[: n_max + 1] = C * np.cos(T * np.sqrt(n + 1))
    amp_g[1:] = -1j * C * np.sin(T * np.sqrt(n + 1))
    return (float(np.vdot(amp_e, amp_e).real),
            float(np.vdot(amp_g, amp_g).real),
            complex(np.vdot(amp_g, amp_e)))


def joint_evolution_density(alpha_mag, alpha_phase, T, n_max):
    """Reduced atomic state from the Hamiltonian: its eigenbasis, partial trace.

    Oracle: evolves |e> (x) |alpha> on the atom (x) Fock space with
    exp(-i T H), H = sigma+ a + sigma- a^dag, from the eigenpairs of the real
    symmetric H that ``np.linalg.eigh`` finds, and traces out the field, so no
    Rabi frequency sqrt(n+1) is written down anywhere.  Fock states run to
    n_max + 1 photons; the truncated H still couples |e,n> only with
    |g,n+1>, so the evolution of a state supported on n <= n_max is exact.
    Returns the 2x2 density matrix in the (e, g) basis.
    """
    dim = n_max + 2
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]])
    H = np.kron(sigma_plus, a) + np.kron(sigma_plus.T, a.T)
    n = np.arange(n_max + 1)
    field = np.zeros(dim, complex)
    field[: n_max + 1] = np.exp(0.5 * poisson_log_weights(alpha_mag, n)
                                + 1j * alpha_phase * n)
    lam, V = np.linalg.eigh(H)
    psi = V @ (np.exp(-1j * T * lam) * (V.T @ np.kron([1.0, 0.0], field)))
    psi = psi.reshape(2, dim)
    return psi @ psi.conj().T


def pauli_expectations(rho):
    """(sx, sy, sz) as Tr(rho sigma) in the (e, g) basis."""
    sigmas = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    return tuple(float(np.trace(rho @ s).real) for s in sigmas)


def linear_entropy_of(rho):
    return float(1.0 - np.trace(rho @ rho).real)


def attractor_xi(T, alpha_mag):
    """xi = (1 - eta^2)/2 under the attractor law eta = |sin(T/(2|alpha|))|."""
    return 0.5 * math.cos(T / (2.0 * alpha_mag)) ** 2


ORACLE_TIMES = (1.9, 5.0, 10.0, 15.0, 22.0)


@pytest.fixture(scope="module")
def oracle_alpha7():
    # the Poisson tail past n = 160 is below 1e-35 at |alpha| = 7
    return {T: joint_evolution_density(7.0, 0.0, T, 160) for T in ORACLE_TIMES}


class TestJointEvolutionOracle:
    """reduced_density/bloch_vector against the joint atom-field evolution."""

    @staticmethod
    def assert_matches(oracle, amps, T):
        rho = reduced_density(amps, T)
        assert abs(rho.rho_ee - oracle[0, 0].real) < 1e-12
        assert abs(rho.rho_gg - oracle[1, 1].real) < 1e-12
        assert abs(rho.rho_eg - oracle[0, 1]) < 1e-12
        b = bloch_vector(rho)
        sx, sy, sz = pauli_expectations(oracle)
        assert abs(b.sx - sx) < 1e-12
        # bloch_vector reports sy = 2 Im rho_eg = -Tr(rho sigma_y): its frame
        # is the Pauli one reflected in y, which no entropy can see
        assert abs(b.sy + sy) < 1e-12
        assert abs(b.sz - sz) < 1e-12
        assert abs(b.eta - math.sqrt(sx * sx + sy * sy + sz * sz)) < 1e-12

    @pytest.mark.parametrize("T", ORACLE_TIMES)
    def test_alpha7(self, oracle_alpha7, T):
        amps = coherent_amplitudes(7.0, 0.0, 1e-12)
        self.assert_matches(oracle_alpha7[T], amps, T)

    def test_with_phase(self):
        oracle = joint_evolution_density(3.0, -2.2, 3.7, 60)
        # at phase 0 the coherence is imaginary; the phase turns it off that axis
        assert abs(oracle[0, 1].real) > 0.05
        self.assert_matches(oracle, coherent_amplitudes(3.0, -2.2, 1e-12), 3.7)

    def test_collapse_onset_and_attractor_law(self, oracle_alpha7):
        # Grounds acceptance criterion 4c.  Just after the collapse time
        # T_c = sqrt(2) the atom is near-maximally entangled; on T in [5, 15]
        # xi follows the attractor law, with residual 6.6e-4, 2.6e-3 and
        # 5.4e-3 at T = 5, 10, 15 (the largest on that window is at T = 15).
        assert linear_entropy_of(oracle_alpha7[1.9]) > 0.49
        for T in (5.0, 10.0, 15.0):
            xi = linear_entropy_of(oracle_alpha7[T])
            assert abs(xi - attractor_xi(T, 7.0)) < 1e-2
            assert xi < 0.49


def mp_poisson(alpha_mag, n):
    """p_n = exp(-|alpha|^2) |alpha|^(2n) / n! in mpmath at the working precision."""
    a2 = mpmath.mpf(alpha_mag) ** 2
    return mpmath.exp(n * mpmath.log(a2) - a2 - mpmath.loggamma(n + 1))


class TestCoherentAmplitudes:
    @pytest.mark.parametrize("alpha_mag", [1e8, 1e155])
    def test_refuses_photon_numbers_beyond_exact_floats(self, alpha_mag):
        # from |alpha| ~ 9.5e7 the window reaches n = 2**53, where photon
        # numbers stop being exact floats; 1e155 raised an OverflowError from
        # |alpha|**2.  Both are refused before any basis is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^alpha_mag must lie in \[0, 9e\+07\]"):
                coherent_amplitudes(alpha_mag, 0.0, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16
        SimulationConfig(alpha_mag=dynamics.ALPHA_MAX)  # the limit itself is taken

    @pytest.mark.parametrize("alpha_mag,theta", [(7.0, 6.2), (30.0, 6.2),
                                                 (38.0, 0.4), (60.0, 6.2)])
    def test_populations_and_coherences_against_mpmath(self, alpha_mag, theta):
        # the kernel's inputs p_n = |C_n|^2 and q_n = |C_{n+1}||C_n| e^{i theta}
        amps = coherent_amplitudes(alpha_mag, theta, 1e-12)
        w = amps.weights
        p = w * w
        q = (w[1:] * w[:-1]) * cmath.exp(1j * theta)
        with mpmath.workdps(50):
            p_ref = [mp_poisson(alpha_mag, n) for n in range(amps.n_min, amps.n_max + 1)]
            phase = mpmath.expj(theta)
            p_err = max(abs(mpmath.mpf(x) - y) for x, y in zip(p.tolist(), p_ref))
            q_err = max(abs(mpmath.mpc(x) - mpmath.sqrt(y0 * y1) * phase)
                        for x, y0, y1 in zip(q.tolist(), p_ref, p_ref[1:]))
        assert p_err < 1e-16 and q_err < 1e-16

    @pytest.mark.parametrize("alpha_mag", [0.3, 7.0, 123.4, 1e4, 1e6, 1e7, 9e7])
    def test_log_poisson_bound_against_mpmath(self, alpha_mag):
        # the window's tail bounds rest on Stirling's leading term for ln p_n
        # out to about 38 standard deviations: above ln p_n by Stirling's
        # error, less than 1/(12n), up to rounding.  2n ln|alpha| - |alpha|^2
        # - ln n! summed as it stands is 83 off there at 9e7, from terms near 3e17
        mean = alpha_mag ** 2
        mode = math.floor(mean)
        ns = sorted({max(0, mode + round(k * alpha_mag)) for k in range(-38, 39)})
        with mpmath.workdps(50):
            a2 = mpmath.mpf(alpha_mag) ** 2
            for n in ns:
                excess = dynamics._log_poisson_bound(n, mean) - (
                    n * mpmath.log(a2) - a2 - mpmath.loggamma(n + 1))
                assert -1e-6 <= excess <= (1 / (12 * n) if n else 0.0) + 1e-6, n
        assert dynamics._log_poisson_bound(0, mean) == -mean

    def test_window_alpha30(self):
        amps = coherent_amplitudes(30.0, 0.0, 1e-12)
        # floor(900 - 300 - 20) .. ceil(900 + 300 + 20)
        assert (amps.n_min, amps.n_max, amps.weights.size) == (580, 1220, 641)
        assert amps.coefficients.size == 641

    def test_default_window_is_the_floor_rule(self):
        # at these tolerances the 10|alpha| + 20 floor decides every window and
        # the tail bound never widens one, so its precision reaches no output
        # (|alpha| = 0 keeps the vacuum alone, as test_vacuum checks)
        for tol in (1e-12, 1e-21):
            for a in np.logspace(-3, math.log10(3e4), 200).tolist():
                amps = coherent_amplitudes(a, 0.0, tol)
                floor_rule = (max(0, math.floor(a * a - 10 * a - 20)),
                              math.ceil(a * a + 10 * a + 20))
                assert (amps.n_min, amps.n_max) == floor_rule, (tol, a)

    @pytest.mark.parametrize("alpha_mag,tol", [(0.3, 1e-12), (0.3, 1e-300), (7.0, 1e-12),
                                               (30.0, 1e-12), (30.0, 1e-40), (12.0, 1e-200)])
    def test_stated_tail_mass(self, alpha_mag, tol):
        amps = coherent_amplitudes(alpha_mag, 0.0, tol)
        assert 0.0 < amps.tail_mass <= tol
        assert amps.n_max >= math.ceil(alpha_mag ** 2 + 10 * alpha_mag + 20)
        assert amps.n_min <= max(0, math.floor(alpha_mag ** 2 - 10 * alpha_mag - 20))
        with mpmath.workdps(50):
            dropped = mpmath.fsum(mp_poisson(alpha_mag, n) for n in range(amps.n_min))
            n, term = amps.n_max + 1, mpmath.mpf(1)
            while term > tol * 1e-20:
                term = mp_poisson(alpha_mag, n)
                dropped += term
                n += 1
        # Stirling's error, dropped from the bound on ln p_n, costs under 1%
        assert dropped <= amps.tail_mass <= 1.02 * dropped

    def test_normalizing_builds_no_list_of_all_the_weights(self):
        # math.fsum over one list of the squares, a Python float per weight,
        # peaked at 7 times the weights' bytes: about 94 GiB at ALPHA_MAX.
        # Over a memoryview of the squares, the same exactly rounded sum keeps
        # the bits.
        alpha_mag = 1e4
        tracemalloc.start()
        try:
            amps = coherent_amplitudes(alpha_mag, 0.0, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w = amps.weights
        assert peak <= 4 * w.nbytes
        n = np.arange(amps.n_min, amps.n_max + 1.0)
        k = math.floor(alpha_mag ** 2) - amps.n_min
        raw = np.ones(n.size)
        raw[k + 1:] = np.cumprod(alpha_mag / np.sqrt(n[k + 1:]))
        raw[:k] = np.cumprod(np.sqrt(n[k:0:-1]) / alpha_mag)[::-1]
        np.testing.assert_array_equal(w, raw / math.sqrt(math.fsum((raw * raw).tolist())))

    @pytest.mark.parametrize("alpha_mag,tol", [(1000.0, 1e-40), (1e4, 1e-12)])
    def test_float32_alpha_is_taken_as_its_double(self, alpha_mag, tol):
        # a float32 |alpha| kept the window arithmetic in float32 (numpy 2
        # promotion): n_min 986388 for 986387 here, and at 1e4 the window
        # 99899984..100100016 for 99899980..100100020
        single = np.float32(alpha_mag)
        amps = coherent_amplitudes(single, 0.0, tol)
        ref = coherent_amplitudes(float(single), 0.0, tol)
        assert (amps.n_min, amps.n_max, amps.tail_mass.hex()) == \
            (ref.n_min, ref.n_max, ref.tail_mass.hex())
        assert type(amps.tail_mass) is float and type(amps.phase) is float
        assert amps.weights.tobytes() == ref.weights.tobytes()

    def test_vacuum(self):
        amps = coherent_amplitudes(0.0, 0.0, 1e-12)
        assert amps.n_max == 0
        assert amps.coefficients[0] == 1.0 + 0.0j

    def test_alpha_squared_underflow(self):
        # |alpha|^2 is 0 below about 1.5e-162: ln(n/|alpha|^2) in the tail
        # bound raised a ZeroDivisionError
        amps = coherent_amplitudes(1e-300, 0.4, 1e-12)
        assert (amps.n_min, amps.weights[0], amps.weights[1]) == (0, 1.0, 1e-300)
        assert np.all(amps.weights[2:] == 0.0)
        assert 0.0 <= amps.tail_mass <= 1e-12

    def test_alpha7_norm_and_mean_photon_number(self):
        amps = coherent_amplitudes(7.0, 0.0, 1e-12)
        n = np.arange(amps.n_max + 1)
        p = np.abs(amps.coefficients) ** 2
        assert 1.0 - 1e-12 <= p.sum() <= 1.0 + 1e-15
        assert abs(float(n @ p) - 49.0) < 1e-8

    def test_single_term_phase(self):
        amps = coherent_amplitudes(1.0, math.pi / 2, 1e-12)
        expected = 1j * math.exp(-0.5)
        assert abs(amps.coefficients[1] - expected) < 1e-15

    def test_poisson_profile(self):
        amps = coherent_amplitudes(3.0, 1.1, 1e-12)
        n = np.arange(amps.n_max + 1)
        expected = np.exp(poisson_log_weights(3.0, n))
        np.testing.assert_allclose(np.abs(amps.coefficients) ** 2, expected,
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_alpha(self, bad):
        with pytest.raises(DomainError):
            coherent_amplitudes(bad, 0.0, 1e-12)

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-3, float("nan")])
    def test_rejects_bad_tail_tol(self, tol):
        with pytest.raises(DomainError):
            coherent_amplitudes(1.0, 0.0, tol)


class TestReducedDensity:
    def test_initial_state_is_pure_excited(self):
        amps = coherent_amplitudes(5.0, 0.3, 1e-12)
        rho = reduced_density(amps, 0.0)
        assert rho.rho_ee == pytest.approx(1.0, abs=1e-14)
        assert rho.rho_gg == pytest.approx(0.0, abs=1e-14)
        assert rho.rho_eg == 0

    def test_vacuum_quarter_period(self):
        amps = coherent_amplitudes(0.0, 0.0, 1e-12)
        rho = reduced_density(amps, math.pi / 2)
        assert rho.rho_ee == pytest.approx(0.0, abs=1e-15)
        assert rho.rho_gg == pytest.approx(1.0, abs=1e-15)
        assert rho.rho_eg == 0

    def test_against_brute_force_alpha7(self):
        # direct summation at fixed N = 200 as the independent oracle
        ree, rgg, reg = brute_force_density(7.0, 0.0, 10.0, 200)
        amps = coherent_amplitudes(7.0, 0.0, 1e-12)
        rho = reduced_density(amps, 10.0)
        assert rho.rho_ee == pytest.approx(ree, abs=1e-12)
        assert rho.rho_gg == pytest.approx(rgg, abs=1e-12)
        assert abs(rho.rho_eg - reg) < 1e-12

    def test_against_brute_force_with_phase(self):
        ree, rgg, reg = brute_force_density(2.0, 0.8, 3.7, 200)
        amps = coherent_amplitudes(2.0, 0.8, 1e-12)
        rho = reduced_density(amps, 3.7)
        assert rho.rho_ee == pytest.approx(ree, abs=1e-12)
        assert abs(rho.rho_eg - reg) < 1e-12

    def test_trace_condition_on_grid(self):
        amps = coherent_amplitudes(4.0, 0.0, 1e-12)
        for t in np.linspace(0.0, 25.0, 200):
            rho = reduced_density(amps, float(t))
            assert abs(rho.rho_ee + rho.rho_gg - 1.0) < 1e-12

    def test_truncation_insensitivity(self):
        # pushing N_max further changes rho by less than the tail tolerance
        loose = coherent_amplitudes(6.0, 0.0, 1e-8)
        tight = coherent_amplitudes(6.0, 0.0, 1e-15)
        assert tight.n_max >= loose.n_max
        for t in (1.0, 10.0, 20.0):
            a = reduced_density(loose, t)
            b = reduced_density(tight, t)
            assert abs(a.rho_ee - b.rho_ee) < 1e-8
            assert abs(a.rho_eg - b.rho_eg) < 1e-8

    @pytest.mark.parametrize("T", [0.5, 3.0, 45.0 * math.pi, 90.0 * math.pi])
    def test_alpha45_against_brute_force(self, T):
        # the window 1555..2495 against the full basis 0..n_max
        amps = coherent_amplitudes(45.0, 0.7, 1e-12)
        assert amps.n_min > 0
        ree, rgg, reg = brute_force_density(45.0, 0.7, T, amps.n_max)
        rho = reduced_density(amps, T)
        assert abs(rho.rho_ee - ree) < 1e-12
        assert abs(rho.rho_gg - rgg) < 1e-12
        assert abs(rho.rho_eg - reg) < 1e-12

    def test_rejects_phase_overflow(self):
        # T * sqrt(n_max + 1) is inf: cos and sin would give NaN
        amps = coherent_amplitudes(2.0, 0.0, 1e-12)
        with pytest.raises(DomainError, match=r"Rabi phase T\*sqrt\(n\+1\) overflows "
                                              r"for T = 5e\+307, n = 44"):
            reduced_density(amps, np.array([0.0, 5e307, 1e308]))

    def test_rejects_phase_without_digits(self):
        # from T*sqrt(n_max+1) = 2**53 on, a phase's ulp is 2 radians
        amps = coherent_amplitudes(7.0, 0.0, 1e-12)
        below, above = phase_digit_limit(amps)
        rho = reduced_density(amps, below)
        assert math.isfinite(rho.rho_ee) and cmath.isfinite(rho.rho_eg)
        message = (f"Rabi phase T*sqrt(n+1) = 9007199254740992.0 for T = {above!r}, "
                   f"n = {amps.n_max} has an ulp of 2.0")
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            reduced_density(amps, above)
        with pytest.raises(DomainError, match=r"has an ulp of 2\.0"):
            reduced_density(amps, np.array([0.0, -above]))

    def test_rejects_nonfinite_time(self):
        amps = coherent_amplitudes(1.0, 0.0, 1e-12)
        with pytest.raises(DomainError):
            reduced_density(amps, float("nan"))
        with pytest.raises(DomainError, match="T must be finite, got inf"):
            reduced_density(amps, np.array([0.0, float("inf")]))

    def test_time_array_matches_scalar_calls(self):
        amps = coherent_amplitudes(7.0, 0.9, 1e-12)
        T = np.linspace(0.0, 45.0, 37)
        rho = reduced_density(amps, T)
        b = bloch_vector(rho)
        for i, t in enumerate(T.tolist()):
            rho_t = reduced_density(amps, t)
            assert type(rho_t.rho_ee) is float and type(rho_t.rho_eg) is complex
            assert (rho.rho_ee[i], rho.rho_gg[i], rho.rho_eg[i]) == \
                (rho_t.rho_ee, rho_t.rho_gg, rho_t.rho_eg)
            b_t = bloch_vector(rho_t)
            assert (b.sx[i], b.sy[i], b.sz[i], b.eta[i]) == \
                (b_t.sx, b_t.sy, b_t.sz, b_t.eta)

    def test_float32_times_are_taken_as_doubles(self):
        amps = coherent_amplitudes(7.0, 0.9, 1e-12)
        T = np.linspace(0.0, 45.0, 37, dtype=np.float32)
        got, want = reduced_density(amps, T), reduced_density(amps, T.astype(float))
        for name in ("rho_ee", "rho_gg", "rho_eg"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def phase_digit_limit(amps):
    """The largest T with T*sqrt(n_max+1) below 2**53, and the next float."""
    root = math.sqrt(amps.n_max + 1)
    T = 2.0 ** 53 / root
    while T * root >= 2.0 ** 53:
        T = math.nextafter(T, 0.0)
    above = math.nextafter(T, math.inf)
    assert above * root >= 2.0 ** 53
    return T, above


def pointwise_density(amps, T):
    """rho_ee, rho_gg and rho_eg by one scalar reduced_density call a time:
    the direct sums, whatever the grid."""
    rows = [reduced_density(amps, t) for t in np.asarray(T).tolist()]
    return tuple(np.array([getattr(r, name) for r in rows])
                 for name in ("rho_ee", "rho_gg", "rho_eg"))


def direct_density(amps, T):
    """rho_ee, rho_gg and rho_eg with the spectral route switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "SPECTRAL_MIN_TIMES", math.inf)
        rho = reduced_density(amps, T)
    return rho.rho_ee, rho.rho_gg, rho.rho_eg


def mp_density(amps, T, roots):
    """rho_ee, rho_gg and rho_eg at the float T in 40-digit mpmath, from the
    library's float weights and the square roots ``roots`` of n_min+1..n_max+1."""
    with mpmath.workdps(40):
        t = mpmath.mpf(T)
        w = [mpmath.mpf(x) for x in amps.weights.tolist()]
        cs = [mpmath.cos_sin(t * r) for r in roots]
        ee = mpmath.fsum(x * x * c * c for x, (c, _) in zip(w, cs))
        gg = mpmath.fsum(x * x * s * s for x, (_, s) in zip(w, cs))
        coh = mpmath.fsum(w1 * w0 * c1 * s0
                          for w1, w0, (c1, _), (_, s0) in zip(w[1:], w, cs[1:], cs))
        return ee, gg, 1j * mpmath.expj(amps.phase) * coh


def revival_grid(alpha_mag, revivals, t_steps):
    """T in [0, revivals * T_r], T_r = 2 pi |alpha| the revival time."""
    return np.linspace(0.0, revivals * 2.0 * math.pi * alpha_mag, t_steps)


@pytest.fixture(scope="module")
def revivals_alpha1000():
    """|alpha| = 1000 out to three revivals, 1000 times: one spectral block
    from T = 0, where it gives the exact initial state."""
    amps = coherent_amplitudes(1000.0, 0.7, 1e-12)
    T = revival_grid(1000.0, 3.0, 1000)
    with mpmath.workdps(40):
        roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
    return amps, T, roots, reduced_density(amps, T)


class TestSpectralRoute:
    """reduced_density's spectral route on uniform grids, against the direct
    sums (its oracle) and 40-digit mpmath."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        """The grid lengths the spectral route is run on."""
        calls = []
        real = dynamics._spectral_sums

        def counted(*args):
            calls.append(args[-2].size)
            return real(*args)

        monkeypatch.setattr(dynamics, "_spectral_sums", counted)
        return calls

    @staticmethod
    def assert_within_tol(rho, j, ref):
        """Each entry at T[j] matches mpmath's ``ref`` within SPECTRAL_TOL."""
        ee, gg, eg = ref
        assert abs(rho.rho_ee[j] - ee) <= SPECTRAL_TOL
        assert abs(rho.rho_gg[j] - gg) <= SPECTRAL_TOL
        assert abs(rho.rho_eg[j] - eg) <= SPECTRAL_TOL

    @pytest.mark.parametrize("alpha_mag", [30.0, 300.0])
    def test_against_mpmath(self, alpha_mag, spectral_calls):
        amps = coherent_amplitudes(alpha_mag, 0.7, 1e-12)
        T = revival_grid(alpha_mag, 3.0, 1000)
        rho = reduced_density(amps, T)
        assert spectral_calls == [T.size]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in (250, 600, 999):  # 0.75, 1.8 and 3 revival times
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    def test_against_mpmath_past_a_sweeps_run(self, spectral_calls):
        # 12000 times, three sweep runs long, as one block
        amps = coherent_amplitudes(300.0, 0.7, 1e-12)
        T = revival_grid(300.0, 3.0, 12000)
        rho = reduced_density(amps, T)
        assert spectral_calls == [T.size]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in (4095, 4096, 4097, T.size // 2, T.size - 1):
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    @pytest.mark.parametrize("alpha_mag, t_start, t_end, t_steps", [
        (300.0, 0.0, 3.0 * 2.0 * math.pi * 300.0, 12000),  # three revival times
        (30.0, 1e6, 1e6 + 300.0, 12000),
        (30.0, 1e6, 1e6 + 30.0, 4097),  # one point past a run
    ], ids=["revivals-a300", "long-times-a30", "one-past-a-run-a30"])
    def test_sweeps_against_mpmath_past_their_first_run(self, alpha_mag, t_start, t_end,
                                                         t_steps):
        # each of run_sweep's runs is a block of its own, which starts past
        # T = 0 from the second on: a Bloch component is twice an entry
        config = SimulationConfig(alpha_mag=alpha_mag, alpha_phase=0.7,
                                  t_start=t_start, t_end=t_end, t_steps=t_steps)
        result = run_sweep(config)
        amps = coherent_amplitudes(alpha_mag, 0.7, config.fock_tail_tol)
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        T = result.data["t"]
        for j in (0, 4095, 4096, 4097, 8191, 8192, T.size // 2, T.size - 1):
            if j >= T.size:
                continue
            ee, gg, eg = mp_density(amps, T[j], roots)
            for name, exact in (("sx", 2 * eg.real), ("sy", 2 * eg.imag), ("sz", ee - gg)):
                assert abs(result.data[name][j] - exact) <= 2 * SPECTRAL_TOL, (name, j)

    def test_against_mpmath_on_a_long_grid(self, spectral_calls):
        # 100000 times: mode indices reach 50000, and each multiplies the
        # rounding of the nodes (2.2e-13 off with each node in one double)
        amps = coherent_amplitudes(30.0, 0.7, 1e-12)
        T = np.linspace(0.0, 2000.0, 100000)
        rho = reduced_density(amps, T)
        assert spectral_calls == [T.size]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in np.linspace(1, T.size - 1, 9).astype(int).tolist():
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    def test_against_mpmath_at_long_times(self, spectral_calls):
        # T near 1e6, T*sqrt(n_max+1) = 3.5e7: a grid time is off the
        # uniform grid by up to about 1e-10, which the sums follow
        amps = coherent_amplitudes(30.0, 0.7, 1e-12)
        T = np.linspace(1e6, 1e6 + 300.0, 1000)
        rho = reduced_density(amps, T)
        assert spectral_calls == [T.size]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in (0, 1, 333, 998, 999):
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    def test_against_mpmath_at_the_stated_phase_edge(self, spectral_calls):
        # T*sqrt(n_max+1) about 9.8e8, just under the 1e9 that SPECTRAL_TOL
        # is stated up to
        amps = coherent_amplitudes(30.0, 0.7, 1e-12)
        T = np.linspace(2.8e7, 2.8e7 + 30.0, 4000)
        assert 9.7e8 < T[-1] * math.sqrt(amps.n_max + 1) < 1e9
        rho = reduced_density(amps, T)
        assert spectral_calls == [T.size]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in (0, T.size // 2, T.size - 1):
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    def test_every_run_of_a_sweep_from_below_zero_is_spectral(self, spectral_calls):
        # a run cut from linspace(-1, 1, 20000) is rounded at the scale of
        # the grid's ends, 1, not its own: the run next to T = 0 is spectral
        # as the np.linspace of its own ends that run_sweep makes it
        config = SimulationConfig(alpha_mag=30.0, alpha_phase=0.7, t_start=-1.0,
                                  t_end=1.0, t_steps=20000)
        result = run_sweep(config)
        assert spectral_calls == 5 * [4000]
        amps = coherent_amplitudes(30.0, 0.7, config.fock_tail_tol)
        ee, gg, eg = direct_density(amps, result.data["t"])
        # a Bloch component is twice an entry
        for name, direct in (("sx", 2 * eg.real), ("sy", 2 * eg.imag), ("sz", ee - gg)):
            assert np.abs(result.data[name] - direct).max() <= 2 * SPECTRAL_TOL, name

    def test_against_mpmath_at_a_grids_ends(self, spectral_calls):
        # the collapse-a30 grid starts past T = 0: its first and last times,
        # where the coherence's r_{n+1} - r_n frequencies are furthest off
        amps = coherent_amplitudes(30.0, 0.7, 1e-12)
        T = np.linspace(3.0, 33.0, 4000)
        rho = reduced_density(amps, T)
        assert spectral_calls == [T.size]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in (0, 1, 2, T.size // 2, T.size - 3, T.size - 2, T.size - 1):
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    @pytest.mark.parametrize("alpha_mag, t_start, t_end, t_steps", [
        (3.0, 1e4, 1e4 + 20.0, 300),
        (7.0, 1e5, 1e5 + 30.0, 500),
    ], ids=["a3-near-1e4", "a7-near-1e5"])
    def test_short_small_basis_grids_at_long_times(self, alpha_mag, t_start, t_end,
                                                   t_steps, spectral_calls):
        # a few hundred times on 60 and 140 terms: the direct sums drift
        # there, 7.1e-13 and 1.2e-11 off, so such grids are spectral too
        config = SimulationConfig(alpha_mag=alpha_mag, alpha_phase=0.7, t_start=t_start,
                                  t_end=t_end, t_steps=t_steps)
        amps = coherent_amplitudes(alpha_mag, 0.7, config.fock_tail_tol)
        T = np.linspace(t_start, t_end, t_steps)
        rho = reduced_density(amps, T)
        assert spectral_calls == [t_steps]
        spectral_calls.clear()
        result = run_sweep(config)
        assert spectral_calls == [t_steps]
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
        for j in (0, 1, T.size // 2, T.size - 2, T.size - 1):
            ee, gg, eg = mp_density(amps, T[j], roots)
            self.assert_within_tol(rho, j, (ee, gg, eg))
            # a Bloch component is twice an entry
            for name, exact in (("sx", 2 * eg.real), ("sy", 2 * eg.imag), ("sz", ee - gg)):
                assert abs(result.data[name][j] - exact) <= 2 * SPECTRAL_TOL, (name, j)

    def test_two_transforms(self, monkeypatch, spectral_calls):
        # one inverse FFT for the population inversion, one for the coherence,
        # each taken a row at a time: its value row and its rate row
        transforms = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            transforms.append(args)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)  # imported at call time
        reduced_density(coherent_amplitudes(30.0, 0.7, 1e-12), np.linspace(3.0, 33.0, 4000))
        assert spectral_calls == [4000]
        assert [args[0].ndim for args in transforms] == [1, 1, 1, 1]

    def test_takes_no_direct_sums(self, monkeypatch, spectral_calls):
        # the direct route is the spectral route's oracle, not a part of it
        calls = []
        direct = dynamics._direct_sums
        monkeypatch.setattr(dynamics, "_direct_sums",
                            lambda *args: calls.append(args[-1].size) or direct(*args))
        reduced_density(coherent_amplitudes(30.0, 0.7, 1e-12), np.linspace(3.0, 33.0, 4000))
        assert spectral_calls == [4000]
        assert calls == []

    def test_against_mpmath_alpha1000(self, revivals_alpha1000):
        amps, T, roots, rho = revivals_alpha1000
        for j in (250, 999):
            self.assert_within_tol(rho, j, mp_density(amps, T[j], roots))

    def test_spread_from_direct_is_the_direct_routes_error(self, revivals_alpha1000):
        # The direct sums round each phase T*sqrt(n+1), about 1.9e7 rad at
        # T = 3 T_r: the two routes differ by some 4e-11 on this grid, and at
        # the worst point the spectral value is the one close to mpmath.
        amps, T, roots, rho = revivals_alpha1000
        direct = direct_density(amps, T)
        for name, direct_values in zip(("rho_ee", "rho_eg"), direct[::2]):
            spread = np.abs(getattr(rho, name) - direct_values)
            j = int(spread.argmax())
            assert spread[j] > 1e-11
            exact = mp_density(amps, T[j], roots)[0 if name == "rho_ee" else 2]
            spectral_err = abs(getattr(rho, name)[j] - exact)
            assert spectral_err <= SPECTRAL_TOL < abs(direct_values[j] - exact)

    @pytest.mark.parametrize("alpha_mag", [7.0, 30.0, 60.0])
    def test_about_the_crossover(self, alpha_mag, spectral_calls):
        # the grid length alone sets the route, whatever the basis size
        amps = coherent_amplitudes(alpha_mag, 0.3, 1e-12)
        first = SPECTRAL_MIN_TIMES
        below = np.linspace(3.0, 33.0, first - 1)
        rho = reduced_density(amps, below)
        assert spectral_calls == []
        for got, want in zip((rho.rho_ee, rho.rho_gg, rho.rho_eg),
                             pointwise_density(amps, below)):
            assert np.array_equal(got, want)
        above = np.linspace(3.0, 33.0, first)
        rho = reduced_density(amps, above)
        assert spectral_calls == [first]
        for got, want in zip((rho.rho_ee, rho.rho_gg, rho.rho_eg),
                             pointwise_density(amps, above)):
            assert np.abs(got - want).max() <= SPECTRAL_TOL

    def test_anchors_equal_the_direct_route(self, spectral_calls):
        # a grid longer than a sweep's run is one block, with one anchor
        amps = coherent_amplitudes(30.0, 0.4, 1e-12)
        T = np.linspace(0.0, 200.0, 10000)
        rho = reduced_density(amps, T)
        assert spectral_calls == [10000]
        want = pointwise_density(amps, T[:1])
        for got, expected in zip((rho.rho_ee, rho.rho_gg, rho.rho_eg), want):
            assert np.array_equal(got[:1], expected)
        # T = 0 is the anchor: the initial state is the direct route's
        assert (rho.rho_gg[0], rho.rho_eg[0]) == (0.0, 0.0)
        b, b0 = bloch_vector(rho), bloch_vector(reduced_density(amps, 0.0))
        assert (b.sx[0], b.sy[0], b.sz[0], b.eta[0]) == (b0.sx, b0.sy, b0.sz, b0.eta)

    def test_runs_of_a_grid_and_reversed_grids(self, spectral_calls):
        amps = coherent_amplitudes(30.0, -1.1, 1e-12)
        full = np.linspace(0.0, 100.0, 5000)
        for T in (full[777:2777], full[::-1]):
            rho = reduced_density(amps, T)
            for got, want in zip((rho.rho_ee, rho.rho_gg, rho.rho_eg),
                                 direct_density(amps, T)):
                assert np.abs(got - want).max() <= SPECTRAL_TOL
        assert spectral_calls == [2000, 5000]

    @pytest.mark.parametrize("T", [
        np.full(1000, 3.0),                     # t_start == t_end
        np.array([3.0, 33.0]),                  # two points
        np.geomspace(1.0, 100.0, 1000),         # not uniform
        np.linspace(3.0, 33.0, 1000) + np.where(np.arange(1000) == 500, 1e-9, 0.0),
    ], ids=["constant", "two-points", "geometric", "one-point-moved"])
    def test_degenerate_grids_take_the_direct_route(self, T, spectral_calls):
        amps = coherent_amplitudes(30.0, 0.0, 1e-12)
        assert T.size >= SPECTRAL_MIN_TIMES or T.size == 2
        rho = reduced_density(amps, T)
        assert spectral_calls == []
        for got, want in zip((rho.rho_ee, rho.rho_gg, rho.rho_eg), pointwise_density(amps, T)):
            assert np.array_equal(got, want)

    def test_phase_digit_limit_on_a_grid(self, spectral_calls):
        # refused on every route, so that whether a T is accepted does not
        # depend on the grid it arrives in
        amps = coherent_amplitudes(7.0, 0.0, 1e-12)
        below, above = phase_digit_limit(amps)
        rho = reduced_density(amps, np.linspace(below - 999.0, below, 1000))
        assert spectral_calls == [1000]
        assert np.all(np.isfinite(rho.rho_ee)) and np.all(np.isfinite(rho.rho_eg))
        with pytest.raises(DomainError, match=f"for T = {re.escape(repr(above))}, "
                                              r"n = 139 has an ulp of 2\.0"):
            reduced_density(amps, np.linspace(above - 999.0, above, 1000))

    def test_sweep_with_equal_ends_takes_the_direct_route(self, spectral_calls):
        result = run_sweep(SimulationConfig(alpha_mag=30.0, t_start=3.0, t_end=3.0,
                                            t_steps=500))
        assert spectral_calls == []
        assert np.all(result.data["sz"] == result.data["sz"][0])


class TestAttractorPurity:
    """Near half the revival time T_r = 2 pi |alpha| the atom passes through
    Gea-Banacloche's attractor state, pure up to O(1/|alpha|^2) (PRL 65, 3385
    (1990)): (1 - max eta)|alpha|^2 tends to a constant as |alpha| grows."""

    @staticmethod
    def purity_near_attractor(alpha_mag):
        """(library eta, 40-digit eta) at the library's largest eta on T_r/2 +-
        8 sqrt|alpha| (4001 points) and at its two neighbours."""
        amps = coherent_amplitudes(alpha_mag, 0.0, 1e-12)
        half = math.pi * alpha_mag
        T = np.linspace(half - 8.0 * math.sqrt(alpha_mag), half + 8.0 * math.sqrt(alpha_mag),
                        4001)
        eta = bloch_vector(reduced_density(amps, T)).eta
        j = int(eta.argmax())
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(n) for n in range(amps.n_min + 1, amps.n_max + 2)]
            refs = []
            for i in (j - 1, j, j + 1):
                ee, gg, eg = mp_density(amps, T[i], roots)
                refs.append(mpmath.sqrt(4 * abs(eg) ** 2 + (ee - gg) ** 2))
        return eta[j - 1:j + 2], refs

    def test_attractor_purity_law(self):
        # the reference reads 0.43353 at |alpha| = 30 (T = 94.226) and 0.43345
        # at 60 (T = 188.496), 8e-5 apart; the library is within 5e-14 of it
        scaled = []
        for alpha_mag in (30.0, 60.0):
            eta, refs = self.purity_near_attractor(alpha_mag)
            for x, ref in zip(eta.tolist(), refs):
                assert abs(x - ref) <= 1e-12
            scaled.append(float((1 - max(refs)) * alpha_mag ** 2))
        assert abs(scaled[0] - scaled[1]) <= 2e-4


class TestBlochVector:
    def test_pure_excited(self):
        b = bloch_vector(AtomicDensityMatrix(1.0, 0.0, 0j))
        assert (b.sx, b.sy, b.sz) == (0.0, 0.0, 1.0)
        assert b.eta == 1.0

    def test_maximally_mixed(self):
        b = bloch_vector(AtomicDensityMatrix(0.5, 0.5, 0j))
        assert (b.sx, b.sy, b.sz) == (0.0, 0.0, 0.0)
        assert b.eta == 0.0

    def test_generic_arithmetic(self):
        b = bloch_vector(AtomicDensityMatrix(0.75, 0.25, (1 + 1j) / 8))
        assert b.sx == pytest.approx(0.25, abs=1e-15)
        assert b.sy == pytest.approx(0.25, abs=1e-15)
        assert b.sz == pytest.approx(0.5, abs=1e-15)
        assert b.eta == pytest.approx(math.sqrt(6) / 4, abs=1e-15)

    def test_eta_identity(self):
        amps = coherent_amplitudes(7.0, 0.0, 1e-12)
        for t in np.linspace(0.0, 30.0, 50):
            b = bloch_vector(reduced_density(amps, float(t)))
            assert b.eta ** 2 == pytest.approx(
                b.sx ** 2 + b.sy ** 2 + b.sz ** 2, abs=1e-12)
            assert b.eta <= 1.0 + 1e-12

    def test_initial_radius_is_one(self):
        for mag, phase in [(0.0, 0.0), (1.0, 0.5), (7.0, 0.0), (3.2, -2.0)]:
            amps = coherent_amplitudes(mag, phase, 1e-12)
            b = bloch_vector(reduced_density(amps, 0.0))
            assert b.eta == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_rabi_orbit(self):
        amps = coherent_amplitudes(0.0, 0.0, 1e-12)
        for t in np.linspace(0.0, 2 * math.pi, 40):
            b = bloch_vector(reduced_density(amps, float(t)))
            assert b.sx == 0.0 and b.sy == 0.0
            assert b.sz == pytest.approx(math.cos(2 * t), abs=1e-12)

    def test_unphysical_density_rejected(self):
        with pytest.raises(DomainError):
            AtomicDensityMatrix(0.9, 0.1, 0.5 + 0j)  # positivity broken
        with pytest.raises(DomainError):
            AtomicDensityMatrix(0.9, 0.2, 0j)  # trace broken
        nan = float("nan")
        with pytest.raises(DomainError, match="trace violation"):
            AtomicDensityMatrix(nan, 0.5, 0j)
        with pytest.raises(DomainError, match="not positive semidefinite"):
            AtomicDensityMatrix(0.5, 0.5, complex(nan, 0.0))
        # the first offending entry, named with its index
        with pytest.raises(DomainError, match=re.escape(
                "semidefinite: rho_ee*rho_gg - |rho_eg|^2 = -0.15999999999999998")) as raised:
            AtomicDensityMatrix(np.array([0.5, 0.9, 0.9]), np.array([0.5, 0.1, 0.1]),
                                np.array([0j, 0.5, 0.6]))
        assert raised.value.index == 1
        with pytest.raises(DomainError, match="Bloch radius nan"):
            bloch_vector(types.SimpleNamespace(rho_ee=0.5, rho_gg=0.5,
                                               rho_eg=complex(nan, 0.0)))


class TestSimulationConfig:
    @pytest.mark.parametrize("call,name,value", [
        (lambda v: SimulationConfig(alpha_mag=1.0, t_steps=v), "t_steps", 10.0),
        (lambda v: SimulationConfig(alpha_mag=1.0, quad_theta_order=v), "theta_order", 4.5),
        (lambda v: SimulationConfig(alpha_mag=1.0, quad_phi_order=v), "phi_order", 8.0),
        (lambda v: SphereQuadrature(v, 8), "theta_order", 4.5),
        (lambda v: wehrl_entropy_triple_sum(BlochVector(0, 0, 0.5, 0.5), v), "n_terms", 2.5),
        (lambda v: trig_power_integral(1.0, 0.0, v), "k", 2.5)])
    def test_counts_must_be_integers(self, call, name, value):
        # these passed the checks and failed later in numpy with a TypeError
        with pytest.raises(DomainError, match=rf"^{name} must be an integer, got {value}$"):
            call(value)
        call(np.int64(value))  # a numpy integer is accepted

    def test_defaults_valid(self):
        cfg = SimulationConfig(alpha_mag=7.0)
        assert cfg.t_steps == 3000

    @pytest.mark.parametrize("kwargs", [
        dict(alpha_mag=-1.0),
        dict(alpha_mag=1.0, t_steps=0),
        dict(alpha_mag=1.0, t_start=2.0, t_end=1.0),
        dict(alpha_mag=1.0, fock_tail_tol=1.5),
        dict(alpha_mag=1.0, series_tol=0.0),
        dict(alpha_mag=float("inf")),
        dict(alpha_mag=1.0, t_steps=2 ** 53 + 1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("alpha_mag", -1.0), ("alpha_mag", float("nan")), ("alpha_mag", float("inf")),
        ("alpha_mag", 1e8), ("alpha_mag", 1e155),
        ("alpha_phase", float("inf")),
        ("fock_tail_tol", 0.0), ("fock_tail_tol", 1.0), ("fock_tail_tol", float("nan")),
        ("fock_tail_tol", 5e-324),
        ("quad_theta_order", 1), ("quad_phi_order", 3)])
    def test_checked_in_one_place(self, name, value):
        # the config and the routine that takes the input give the same error
        kwargs = {"alpha_mag": 1.0, "alpha_phase": 0.0, "fock_tail_tol": 1e-12,
                  "quad_theta_order": 64, "quad_phi_order": 128, name: value}
        with pytest.raises(DomainError) as from_config:
            SimulationConfig(**kwargs)
        with pytest.raises(DomainError) as from_routine:
            if name.startswith("quad_"):
                SphereQuadrature(kwargs["quad_theta_order"], kwargs["quad_phi_order"])
            else:
                coherent_amplitudes(kwargs["alpha_mag"], kwargs["alpha_phase"],
                                    kwargs["fock_tail_tol"])
        assert str(from_config.value) == str(from_routine.value)
        assert str(from_config.value).startswith(name.removeprefix("quad_"))
