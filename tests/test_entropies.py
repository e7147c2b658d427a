import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcm_entropy import (
    LN2,
    LN4PI,
    WEHRL_MIN,
    BlochVector,
    DomainError,
    PrecisionLossError,
    SimulationConfig,
    entropy_record,
    linear_entropy,
    normalized_entropies,
    von_neumann_entropy,
    von_neumann_series,
    wehrl_entropy_closed,
    wehrl_entropy_series,
)
from jcm_entropy.cli import main
from jcm_entropy.entropies import SERIES_ERROR, WEHRL_CLOSED_ERROR
from oracles import wehrl_entropy_triple_sum


def mp_references(eta):
    """(von Neumann, Wehrl) entropies at ``eta`` to 50 digits, as floats."""
    with mpmath.workdps(50):
        e = mpmath.mpf(eta)
        if e == 1:
            return 0.0, float(mpmath.log(2 * mpmath.pi) + 0.5)
        mu = (1 + e) / 2, (1 - e) / 2
        gamma = -sum(m * mpmath.log(m) for m in mu)
        wehrl = mpmath.log(4 * mpmath.pi)
        if e:
            wehrl += 0.5 - mpmath.log(1 - e * e) / 2 - (1 + e * e) * mpmath.atanh(e) / (2 * e)
        return float(gamma), float(wehrl)


def bloch_from_components(sx, sy, sz):
    return BlochVector(sx, sy, sz, math.sqrt(sx * sx + sy * sy + sz * sz))


def random_bloch_vectors(count, max_radius, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, max_radius) / np.linalg.norm(v)
        out.append(bloch_from_components(*v))
    return out


class TestLinearEntropy:
    def test_pure(self):
        assert linear_entropy(1.0) == 0.0

    def test_maximally_mixed(self):
        assert linear_entropy(0.0) == 0.5

    def test_matches_trace_form(self):
        # oracle: 1 - Tr rho^2 for rho_ee = 0.8, rho_eg = 0 -> eta = 0.6
        purity = 0.8 ** 2 + 0.2 ** 2
        assert linear_entropy(0.6) == pytest.approx(1.0 - purity, abs=1e-15)
        assert linear_entropy(0.6) == pytest.approx(0.32, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            linear_entropy(1.1)
        with pytest.raises(DomainError):
            linear_entropy(-0.1)


class TestVonNeumann:
    def test_pure(self):
        assert von_neumann_entropy(1.0) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(0.0) == pytest.approx(LN2, abs=1e-15)

    def test_against_series_oracle(self):
        assert von_neumann_entropy(0.5) == pytest.approx(0.5623, abs=1e-4)
        assert von_neumann_entropy(0.5) == pytest.approx(
            von_neumann_series(0.5), abs=1e-12)

    def test_series_near_one(self):
        assert von_neumann_series(0.99) == pytest.approx(
            von_neumann_entropy(0.99), abs=1e-10)

    def test_series_refuses_endpoint(self):
        # refused while the series was summed term by term; its integral
        # form takes eta = 1 like any other point
        assert abs(von_neumann_series(1.0)) <= SERIES_ERROR

    def test_series_empty_sum(self):
        assert von_neumann_series(0.0) == pytest.approx(LN2, abs=1e-15)


class TestWehrl:
    def test_series_empty_sum(self):
        assert wehrl_entropy_series(0.0) == pytest.approx(LN4PI, abs=1e-15)

    def test_upper_limit(self):
        assert wehrl_entropy_closed(0.0) == pytest.approx(LN4PI, abs=1e-15)
        assert LN4PI == pytest.approx(2.531024, abs=1e-6)

    def test_lower_bound_constant(self):
        # the series at eta = 1 sums to ln(4pi) - (ln 2 - 1/2)
        assert wehrl_entropy_series(1.0) == pytest.approx(WEHRL_MIN, abs=1e-10)
        assert wehrl_entropy_closed(1.0) == WEHRL_MIN
        assert WEHRL_MIN == pytest.approx(2.337877, abs=1e-6)

    def test_routes_agree_midpoint(self):
        assert wehrl_entropy_closed(0.5) == pytest.approx(
            wehrl_entropy_series(0.5), abs=1e-12)

    def test_route_agreement_grid(self):
        for eta in np.arange(0.01, 1.0, 0.01):
            eta = float(eta)
            assert abs(wehrl_entropy_closed(eta)
                       - wehrl_entropy_series(eta)) < 1e-10
            assert abs(von_neumann_entropy(eta)
                       - von_neumann_series(eta)) < 1e-10
        assert abs(wehrl_entropy_closed(1.0) - wehrl_entropy_series(1.0)) < 1e-10

    def test_closed_form_near_one_against_mpmath(self):
        # 1 - eta*eta cancels here; the old snap to WEHRL_MIN below
        # 1 - eta = 1e-8 was off by up to 4.8e-9
        eta = 1.0 - np.logspace(-15, math.log10(0.3), 200)
        got = wehrl_entropy_closed(eta)
        with mpmath.workdps(50):
            for e, w in zip(eta.tolist(), got.tolist()):
                e = mpmath.mpf(e)
                ref = (0.5 + mpmath.log(4 * mpmath.pi) - mpmath.log(1 - e * e) / 2
                       + (e + 1 / e) / 4 * mpmath.log((1 - e) / (1 + e)))
                assert abs(w - ref) <= 1e-14, float(1 - e)

    def test_closed_form_on_whole_domain_against_mpmath(self):
        # subnormal eta to 1 - 1e-16: 1/eta must not be formed, and the
        # cancellation near eta = 1e-3 must not be amplified
        rng = np.random.default_rng(8)
        eta = np.concatenate([[0.0, 5e-324, 1e-310], np.logspace(-300, 0, 2000),
                              1.0 - np.logspace(-16, -0.3, 2000),
                              rng.uniform(0.0, 1.0, 2000), [1.0]])
        got = wehrl_entropy_closed(eta)
        with mpmath.workdps(50):
            ln4pi = mpmath.log(4 * mpmath.pi)
            for e, w in zip(eta.tolist(), got.tolist()):
                e = mpmath.mpf(e)
                if e == 0:
                    ref = ln4pi
                elif e == 1:
                    ref = mpmath.log(2 * mpmath.pi) + 0.5
                else:
                    ref = (0.5 + ln4pi - mpmath.log(1 - e * e) / 2
                           - (1 + e * e) * mpmath.atanh(e) / (2 * e))
                assert abs(w - ref) <= WEHRL_CLOSED_ERROR, float(e)

    def test_closed_form_against_series_at_small_eta(self):
        # both routes are evaluated independently at every eta
        for eta in (1e-6, 1e-4, 9e-4, 1.1e-3, 2e-3):
            assert abs(wehrl_entropy_closed(eta)
                       - wehrl_entropy_series(eta)) < 1e-12

    def test_series_on_whole_domain_against_mpmath(self):
        # 1 - eta down to 1e-16, both ends and subnormal eta; the term-by-term
        # sums were 3.9e-11 off at eta = 1 and refused or capped von Neumann
        # beyond about 1 - 1.8e-6
        rng = np.random.default_rng(9)
        eta = np.concatenate([[0.0, 5e-324, 1e-310, 1e-3], np.logspace(-300, 0, 1000),
                              1.0 - np.logspace(-16, -0.3, 1500),
                              rng.uniform(0.0, 1.0, 1500), [1.0]])
        want = np.array([mp_references(e) for e in eta.tolist()])
        assert np.all(np.abs(von_neumann_series(eta) - want[:, 0]) <= SERIES_ERROR)
        assert np.all(np.abs(wehrl_entropy_series(eta) - want[:, 1]) <= SERIES_ERROR)

    def test_domain(self):
        with pytest.raises(DomainError):
            wehrl_entropy_closed(1.0 + 1e-6)
        with pytest.raises(DomainError):
            wehrl_entropy_series(-0.5)


class TestWehrlTripleSum:
    def test_polar_vector_matches_series_termwise(self):
        # only the r = 0 terms survive: identical to the eta-series truncation
        for n_terms in (1, 2, 5, 50):
            partial = sum(1.0 / (2 * n * (2 * n - 1) * (2 * n + 1))
                          for n in range(1, n_terms + 1))
            got = wehrl_entropy_triple_sum(bloch_from_components(0, 0, 1), n_terms)
            assert got == pytest.approx(LN4PI - partial, abs=1e-13)

    def test_rotational_symmetry(self):
        w_x = wehrl_entropy_triple_sum(bloch_from_components(0.7, 0, 0), 200)
        w_z = wehrl_entropy_triple_sum(bloch_from_components(0, 0, 0.7), 200)
        ref = wehrl_entropy_series(0.7)
        assert abs(w_x - w_z) < 1e-9
        assert abs(w_x - ref) < 1e-9

    def test_pythagorean_radius(self):
        got = wehrl_entropy_triple_sum(bloch_from_components(0.3, 0.4, 0.0), 200)
        assert got == pytest.approx(wehrl_entropy_series(0.5), abs=1e-9)

    def test_random_vectors_match_series(self):
        # radius capped at 0.95: beyond ~0.97 the n_terms = 200 truncation
        # itself exceeds 1e-9, so the comparison would measure truncation
        for b in random_bloch_vectors(100, 0.95, seed=20240819):
            got = wehrl_entropy_triple_sum(b, 200)
            assert got == pytest.approx(wehrl_entropy_series(b.eta), abs=1e-9)

    def test_component_permutations_and_sign_flips(self):
        base = (0.2, -0.5, 0.6)
        ref = wehrl_entropy_triple_sum(bloch_from_components(*base), 150)
        for perm in itertools.permutations(base):
            for signs in itertools.product((-1, 1), repeat=3):
                v = tuple(s * c for s, c in zip(signs, perm))
                got = wehrl_entropy_triple_sum(bloch_from_components(*v), 150)
                assert got == pytest.approx(ref, abs=1e-11)

    def test_precision_guard(self):
        outside = BlochVector(3.0, 0.0, 3.0, 1.0)  # lies about its radius
        with pytest.raises(PrecisionLossError):
            wehrl_entropy_triple_sum(outside, 200)

    def test_rejects_bad_terms(self):
        with pytest.raises(DomainError):
            wehrl_entropy_triple_sum(bloch_from_components(0, 0, 0.5), 0)


class TestMonotonicityAndBounds:
    def test_strictly_decreasing_in_eta(self):
        grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        xi = [linear_entropy(float(e)) for e in grid]
        gamma = [von_neumann_entropy(float(e)) for e in grid]
        wehrl = [wehrl_entropy_closed(float(e)) for e in grid]
        for seq in (xi, gamma, wehrl):
            diffs = np.diff(seq)
            assert np.all(diffs < 0.0)

    def test_bounds_on_grid(self):
        for eta in np.linspace(0.0, 1.0, 500):
            eta = float(eta)
            assert 0.0 <= linear_entropy(eta) <= 0.5
            assert 0.0 <= von_neumann_entropy(eta) <= LN2 + 1e-12
            assert WEHRL_MIN - 1e-9 <= wehrl_entropy_closed(eta) <= LN4PI + 1e-9

    def test_pairwise_concordance(self):
        # any eta ordering induces the same ordering of all three entropies
        rng = np.random.default_rng(7)
        etas = rng.uniform(0.0, 1.0, 50)
        for e1, e2 in itertools.combinations(etas, 2):
            signs = {math.copysign(1.0, f(float(e1)) - f(float(e2)))
                     for f in (linear_entropy, von_neumann_entropy,
                               wehrl_entropy_closed)}
            assert len(signs) == 1

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_record_consistency(self, eta):
        rec = entropy_record(eta)
        assert abs(rec["wehrl_closed"] - rec["wehrl_series"]) < 1e-9
        assert 0.0 <= rec["xi"] <= 0.5
        assert 0.0 <= rec["gamma"] <= LN2 + 1e-12
        assert -1e-12 <= rec["gamma_norm"] <= 1.0 + 1e-12
        assert -1e-9 <= rec["wehrl_norm"] <= 1.0 + 1e-9


class TestSeriesIdentities:
    @staticmethod
    def adaptive_sum(eta, coefficient, tol=1e-15):
        q = eta * eta
        power, acc = 1.0, 0.0
        for n in range(1, 10 ** 6):
            power *= q
            term = power * coefficient(n)
            acc += term
            if term < tol * acc:
                return acc
        raise AssertionError("series did not converge")

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
    def test_log_identity_even(self, eta):
        lhs = self.adaptive_sum(eta, lambda n: 1.0 / (2 * n * (2 * n - 1)))
        rhs = (0.5 * math.log(1.0 - eta * eta)
               + 0.5 * eta * math.log((1.0 + eta) / (1.0 - eta)))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
    def test_arctanh_identities(self, eta):
        atanh_log = 0.5 * math.log((1.0 + eta) / (1.0 - eta))
        lhs1 = self.adaptive_sum(eta, lambda n: 1.0 / (2 * n - 1))
        assert lhs1 == pytest.approx(eta * atanh_log, abs=1e-9)
        lhs2 = self.adaptive_sum(eta, lambda n: 1.0 / (2 * n + 1))
        assert lhs2 == pytest.approx(-1.0 + atanh_log / eta, abs=1e-9)

    def test_identities_at_fixed_truncation(self):
        # 60 terms at eta = 0.5 already land within 1e-9
        eta = 0.5
        s = sum(eta ** (2 * n) / (2 * n * (2 * n - 1)) for n in range(1, 61))
        rhs = (0.5 * math.log(1 - eta * eta)
               + 0.5 * eta * math.log((1 + eta) / (1 - eta)))
        assert s == pytest.approx(rhs, abs=1e-9)

    def test_partial_fraction_exact(self):
        for n in range(1, 51):
            lhs = Fraction(1, 2 * n * (2 * n - 1) * (2 * n + 1))
            rhs = (Fraction(1, 2 * n * (2 * n - 1))
                   - Fraction(1, 2 * (2 * n - 1))
                   + Fraction(1, 2 * (2 * n + 1)))
            assert lhs == rhs


class TestSeriesTolerance:
    """series_tol is checked once, by one helper, wherever it is taken."""

    BAD = [float("inf"), float("nan"), 0.0, -1e-14, 1.0, 5.0]

    @pytest.mark.parametrize("tol", BAD)
    @pytest.mark.parametrize("route", [von_neumann_series, wehrl_entropy_series,
                                       entropy_record])
    def test_rejected_by_every_route(self, route, tol):
        with pytest.raises(DomainError, match=r"series_tol must lie in \(0, 1\)"):
            route(0.5, series_tol=tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_rejected_by_config(self, tol):
        with pytest.raises(DomainError, match=r"series_tol must lie in \(0, 1\)"):
            SimulationConfig(alpha_mag=1.0, series_tol=tol)

    def test_reaches_the_series_column_only(self):
        eta = np.array([0.3, 0.7, 0.99])
        loose, tight = entropy_record(eta, series_tol=1e-3), entropy_record(eta)
        assert np.all(loose["wehrl_series"] != tight["wehrl_series"])
        assert np.all(np.abs(loose["wehrl_series"] - tight["wehrl_series"]) < 1e-3)
        for name in tight.keys() - {"wehrl_series"}:
            assert np.array_equal(loose[name], tight[name])

    @pytest.mark.parametrize("route,eta,tol", [
        (von_neumann_series, [np.nextafter(1.0 - 1e-8, 0.0)], 1e-14),
        (von_neumann_series, [1.0 - 1e-8, np.nextafter(1.0 - 1e-8, 1.0)], 1e-14),
        (von_neumann_series, [1.0 - 1e-12], 1e-14),
        (wehrl_entropy_series, [1.0], 1e-19)])
    def test_term_cap_raises(self, route, eta, tol):
        # the term-by-term sums raised at all four: von_neumann_series hit
        # its 10**6-term cap near 1 (and had stopped there in silence, 2.3e-7
        # off at 1 - 1e-8).  The integral settles at those points now; a
        # series_tol below rounding still raises, naming the first point
        # that cannot settle: at 1e-19 that is 0.5 already.
        etas = np.array([0.5] + eta)
        if route is von_neumann_series:
            want = [mp_references(e)[0] for e in etas.tolist()]
            assert np.all(np.abs(route(etas, series_tol=tol) - want) <= SERIES_ERROR)
            return
        with pytest.raises(PrecisionLossError) as exc:
            route(etas, series_tol=tol)
        assert str(exc.value) == ("series has not met series_tol = 1e-19 after 6 "
                                  "halvings of the step at eta = 0.5")
        with pytest.raises(PrecisionLossError, match=r"at eta = 1\.0$"):
            route(np.array(eta), series_tol=tol)

    def test_term_cap_exits_1(self, capsys):
        # the T = 0 row has eta = 1, where 1e-19 is below rounding; the error
        # names the grid point
        assert main(["--alpha-mag", "2", "--t-steps", "5", "--series-tol", "1e-19"]) == 1
        assert ("jcm-entropy: at T = 0.0: series has not met series_tol = 1e-19 "
                "after 6 halvings of the step at eta = 1.0" in capsys.readouterr().err)

    def test_infinite_tolerance_no_longer_stops_after_one_term(self):
        # series_tol = inf used to stop after the first term: 2.4893576
        # against the closed form's 2.4882326 at eta = 0.5
        assert abs(wehrl_entropy_series(0.5) - wehrl_entropy_closed(0.5)) < 1e-15
        with pytest.raises(DomainError):
            wehrl_entropy_series(0.5, series_tol=float("inf"))


class TestNormalized:
    def test_endpoints(self):
        assert normalized_entropies(LN2, LN4PI) == pytest.approx((1.0, 0.0))
        g, w = normalized_entropies(0.0, WEHRL_MIN)
        assert g == 0.0
        assert w == pytest.approx(1.0, abs=1e-15)

    def test_pure_and_mixed_ends_are_exact(self):
        # with the span as ln 2 - 1/2, one ulp off ln(4pi) - WEHRL_MIN, every
        # sweep's T = 0 row read wehrl_norm = 1.0000000000000007
        rec = entropy_record(np.array([1.0, 0.0]))
        assert rec["wehrl_norm"].tolist() == [1.0, 0.0]
        assert rec["gamma_norm"].tolist() == [0.0, 1.0]

    def test_midpoint_arithmetic(self):
        gamma = von_neumann_entropy(0.5)
        wehrl = wehrl_entropy_closed(0.5)
        g_norm, w_norm = normalized_entropies(gamma, wehrl)
        assert g_norm == pytest.approx(gamma / LN2, abs=1e-15)
        assert w_norm == pytest.approx((LN4PI - wehrl) / (LN2 - 0.5), abs=1e-15)


def loop_series(eta, denom, tol=1e-14):
    """The series summed term by term in Python, the oracle of the library's sums;
    it stops at the first term below max(tol * sum, 1e-300)."""
    q = eta * eta
    power, acc = 1.0, 0.0
    for n in range(1, 10 ** 6 + 1):
        power *= q
        term = power / denom(n)
        acc += term
        if term < max(tol * acc, 1e-300):
            break
    return acc


class TestArrayPath:
    """Each function on an array against the same function point by point."""

    ETAS = [0.0, 5e-324, 1e-310, np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0),
            np.nextafter(1.0 - 1e-8, 0.0), 1.0 - 1e-8, np.nextafter(1.0 - 1e-8, 1.0),
            1.0]
    EXACT = (linear_entropy, von_neumann_series, wehrl_entropy_series)
    ULP4 = (von_neumann_entropy, wehrl_entropy_closed)

    @staticmethod
    def per_point(f, etas):
        values = [f(float(e)) for e in etas]
        assert all(type(v) is float for v in values)
        return np.array(values)

    @pytest.mark.parametrize("f", EXACT + ULP4, ids=lambda f: f.__name__)
    def test_matches_scalar_calls(self, f):
        got = f(np.array(self.ETAS))
        want = self.per_point(f, self.ETAS)
        assert isinstance(got, np.ndarray) and got.shape == (len(self.ETAS),)
        if f in self.EXACT:
            assert np.array_equal(got, want)
        else:
            ulps = np.abs(got - want) / np.spacing(np.maximum(abs(got), abs(want)))
            assert np.all(ulps <= 4)

    def test_closed_form_ends_inside_an_array(self):
        # the ulp bound above does not pin them: the ends are exact constants
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = wehrl_entropy_closed(np.array([0.0, 5e-324, 0.5, 1 - 2**-53, 1.0]))
        assert w[0] == LN4PI and w[-1] == WEHRL_MIN
        assert np.all(np.isfinite(w))

    def test_record_and_normalized(self):
        etas = np.array(self.ETAS)
        rec = entropy_record(etas)
        assert list(rec) == ["xi", "gamma", "wehrl_closed", "wehrl_series",
                             "gamma_norm", "wehrl_norm"]
        for i, eta in enumerate(self.ETAS):
            point = entropy_record(float(eta))
            assert list(point) == list(rec)
            for name, value in point.items():
                assert type(value) is float
                got = rec[name][i]
                assert abs(got - value) <= 4 * np.spacing(max(abs(got), abs(value)))
        g, w = normalized_entropies(rec["gamma"], rec["wehrl_closed"])
        assert np.array_equal(g, rec["gamma_norm"])
        assert np.array_equal(w, rec["wehrl_norm"])

    def test_float32_eta_is_taken_as_its_double(self):
        etas = np.array(self.ETAS, dtype=np.float32)
        got, want = entropy_record(etas), entropy_record(etas.astype(float))
        for name, value in want.items():
            assert got[name].tobytes() == value.tobytes(), name

    def test_zero_d_array_gives_float(self):
        assert type(wehrl_entropy_closed(np.float64(0.5))) is float
        assert type(linear_entropy(np.array(0.5))) is float

    def test_series_is_the_term_by_term_sum(self):
        # The loop leaves the tail after its last term unsummed: 3.88e-11
        # (about 1/(16 N^2) after N = 4e4 terms) for the Wehrl series at
        # eta = 1, and at most 1.26e-11 for the von Neumann series below
        # 1 - 1e-5, where it meets its tolerance within 10**6 terms.  The
        # library's sums agree with it to that tail.
        tail = 4e-11
        rng = np.random.default_rng(5)
        etas = np.concatenate([[0.0, 1e-3, 0.5, 0.9, 0.999, 1.0 - 1e-8, 1.0],
                               rng.uniform(0.0, 1.0, 40), 1.0 - rng.uniform(0, 1e-3, 5)])
        w_denom = lambda n: 2 * n * (2 * n - 1) * (2 * n + 1)  # noqa: E731
        want = [LN4PI - loop_series(float(e), w_denom) for e in etas]
        assert np.all(np.abs(wehrl_entropy_series(etas) - want) <= tail)
        inner = etas[etas < 1.0 - 1e-5]
        v_denom = lambda n: 2 * n * (2 * n - 1)  # noqa: E731
        want = [LN2 - loop_series(float(e), v_denom) for e in inner]
        assert np.all(np.abs(von_neumann_series(inner) - want) <= tail)

    def test_first_offending_value_named(self):
        with pytest.raises(DomainError, match=r"eta = 1\.5 outside"):
            wehrl_entropy_closed(np.array([0.5, 1.5, -1.0]))
        with pytest.raises(DomainError, match="eta must be finite, got nan"):
            linear_entropy(np.array([0.5, np.nan]))
