import inspect
import math
import sys
import threading
import types

import mpmath
import numpy as np
import pytest

from jcm_entropy import (
    BlochVector,
    DomainError,
    SphereQuadrature,
    wehrl_entropy_closed,
    wehrl_entropy_quadrature,
)
from jcm_entropy import entropies, husimi
from jcm_entropy.entropies import _xlogx
from jcm_entropy.errors import _refuse
from jcm_entropy.husimi import QUAD_ELEMENTS, QUAD_ERROR, QUAD_ERROR_NEAR_PURE, QUAD_ETA_SPLIT
from oracles import atomic_q, q_normalization, trig_power_integral

FOUR_PI = 4.0 * math.pi


def bloch(sx, sy, sz):
    return BlochVector(sx, sy, sz, math.sqrt(sx * sx + sy * sy + sz * sz))


def composite_trig_integral(c1, c2, k, points=4096):
    """Periodic-rule quadrature of (c1 sin x + c2 cos x)^k, the dumb way."""
    x = 2.0 * math.pi * np.arange(points) / points
    return float(np.sum((c1 * np.sin(x) + c2 * np.cos(x)) ** k)) * 2.0 * math.pi / points


class TestQuadratureConstruction:
    def test_weights_cover_solid_angle(self):
        for orders in [(2, 4), (16, 32), (64, 128)]:
            quad = SphereQuadrature(*orders)
            nodes = orders[0] * orders[1]
            assert quad.basis.shape == (4, nodes) and quad.weights.shape == (nodes,)
            assert float(np.sum(quad.weights)) == pytest.approx(FOUR_PI, abs=1e-12)

    def test_rule_equals_and_hashes_as_its_orders(self):
        assert SphereQuadrature(16, 32) == SphereQuadrature(16, 32)
        assert SphereQuadrature(16, 32) != SphereQuadrature(16, 64)
        assert hash(SphereQuadrature(16, 32)) == hash(SphereQuadrature(16, 32))
        rules = {SphereQuadrature(16, 32), SphereQuadrature(16, 32), SphereQuadrature(32, 16)}
        assert sorted((r.theta_order, r.phi_order) for r in rules) == [(16, 32), (32, 16)]

    def test_order_floors(self):
        with pytest.raises(DomainError):
            SphereQuadrature(1, 16)
        with pytest.raises(DomainError):
            SphereQuadrature(16, 3)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("order", [2, 3, 16, 64, 128, 256])
    def test_against_mpmath(self, order):
        # the rule, and numpy's leggauss as a cross-check, against 40-digit
        # mpmath nodes and weights; leggauss's weights are up to 2.1e-11 off
        # from order 64 on, so only the in-house rule meets 1e-12
        x, w = husimi._gauss_legendre(order)
        with mpmath.workdps(40):
            nodes, weights = zip(*sorted(zip(*mpmath.gauss_quadrature(order, "legendre"))))

            def weight_error(got):
                return max(float(abs((mpmath.mpf(a) - b) / b))
                           for a, b in zip(got.tolist(), weights))

            node_error = max(float(abs(mpmath.mpf(a) - b)) for a, b in zip(x.tolist(), nodes))
            assert node_error <= 2e-16
            assert weight_error(w) <= 1e-12
            assert weight_error(np.polynomial.legendre.leggauss(order)[1]) <= 3e-11
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert not (x.flags.writeable or w.flags.writeable)


class TestAtomicQ:
    def test_maximally_mixed_is_flat(self):
        b = bloch(0, 0, 0)
        for theta, phi in [(0.0, 0.0), (1.0, 2.0), (math.pi, 3.0)]:
            assert atomic_q(b, theta, phi) == pytest.approx(1.0 / FOUR_PI, abs=1e-15)

    def test_pure_excited_poles(self):
        b = bloch(0, 0, 1)
        assert atomic_q(b, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
        assert atomic_q(b, math.pi, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_overlap_form(self):
        # for |e> the density is cos^2(theta/2)/(2 pi)
        b = bloch(0, 0, 1)
        for theta in np.linspace(0.0, math.pi, 9):
            expected = math.cos(theta / 2) ** 2 / (2.0 * math.pi)
            assert atomic_q(b, float(theta), 0.0) == pytest.approx(expected, abs=1e-15)

    def test_nonnegative_inside_ball(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            assert atomic_q(bloch(*v), theta, phi) >= 0.0

    def test_angle_domain(self):
        b = bloch(0, 0, 0.5)
        with pytest.raises(DomainError):
            atomic_q(b, -0.1, 0.0)
        with pytest.raises(DomainError):
            atomic_q(b, 1.0, 7.0)


class TestNormalization:
    def test_flat_density(self):
        assert q_normalization(bloch(0, 0, 0), SphereQuadrature(8, 8)) == \
            pytest.approx(1.0, abs=1e-14)

    def test_pure_excited(self):
        assert q_normalization(bloch(0, 0, 1), SphereQuadrature(16, 16)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_generic_vector(self):
        assert q_normalization(bloch(0.3, 0.4, 0.5), SphereQuadrature(32, 32)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_random_vectors(self):
        quad = SphereQuadrature(32, 32)
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            assert abs(q_normalization(bloch(*v), quad) - 1.0) < 1e-12


class TestWehrlQuadrature:
    def test_maximally_mixed(self):
        got = wehrl_entropy_quadrature(bloch(0, 0, 0), SphereQuadrature(16, 16))
        assert got == pytest.approx(math.log(FOUR_PI), abs=1e-13)

    def test_pure_state_limit(self):
        got = wehrl_entropy_quadrature(bloch(0, 0, 1), SphereQuadrature(128, 256))
        assert got == pytest.approx(math.log(2 * math.pi) + 0.5, abs=1e-8)

    def test_against_closed_form(self):
        got = wehrl_entropy_quadrature(bloch(0.73, 0, 0), SphereQuadrature(128, 256))
        assert got == pytest.approx(wehrl_entropy_closed(0.73), abs=1e-8)

    def test_float32_components_are_taken_as_doubles(self):
        single = np.float32([0.3, -0.2, 0.5])
        quad = SphereQuadrature(16, 32)
        got = wehrl_entropy_quadrature(bloch(*single), quad)
        want = wehrl_entropy_quadrature(bloch(*single.tolist()), quad)
        assert type(got) is float and got == want

    def test_oracle_equivalence_grid(self):
        quad = SphereQuadrature(128, 256)
        for eta in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
            got = wehrl_entropy_quadrature(bloch(0.0, 0.6 * eta, 0.8 * eta), quad)
            assert abs(got - wehrl_entropy_closed(eta)) < 1e-8

    @pytest.mark.parametrize("eta,bound", [
        (0.0, QUAD_ERROR), (0.5, QUAD_ERROR), (QUAD_ETA_SPLIT, QUAD_ERROR),
        (0.999, QUAD_ERROR_NEAR_PURE), (1.0, QUAD_ERROR_NEAR_PURE)])
    def test_stated_tolerance_at_default_orders(self, eta, bound):
        # the bound the husimi docstring states at the default 64x128 nodes,
        # over +z, -z, x and 200 random directions
        v = np.random.default_rng(20240819).normal(size=(3, 200))
        v = np.hstack([np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0]]).T,
                       v / np.linalg.norm(v, axis=0)])
        got = wehrl_entropy_quadrature(BlochVector(*(eta * v), None), SphereQuadrature(64, 128))
        assert np.max(np.abs(got - wehrl_entropy_closed(eta))) < bound

    def test_convergence_under_doubling(self):
        coarse = SphereQuadrature(64, 128)
        fine = SphereQuadrature(128, 256)
        for eta in (0.3, 0.7, 0.99):
            b = bloch(0.0, 0.0, eta)
            assert abs(wehrl_entropy_quadrature(b, coarse)
                       - wehrl_entropy_quadrature(b, fine)) < 1e-9
        b = bloch(0.0, 0.0, 1.0)
        assert abs(wehrl_entropy_quadrature(b, coarse)
                   - wehrl_entropy_quadrature(b, fine)) < 1e-7

    def test_negative_q_reported(self):
        with pytest.raises(DomainError):
            wehrl_entropy_quadrature(BlochVector(0, 0, 1.5, 1.5),
                                     SphereQuadrature(16, 16))


def masked_quadrature(b, quad):
    """The oracle node by node as a formula: Q = (1 + beta)/(4 pi), then
    -sum w Q ln Q with Q clamped at 0 and 0 ln 0 = 0, summed over phi per
    theta and then against the Gauss-Legendre weights."""
    mu, w = husimi._gauss_legendre(quad.theta_order)
    mu = mu[:, None]
    phi = phi_grid(quad)[None, :]
    beta = b.sz * mu + (b.sx * np.cos(phi) + b.sy * np.sin(phi)) * np.sqrt(1.0 - mu ** 2)
    q = np.maximum((1.0 + beta) / FOUR_PI, 0.0)
    return float(w @ np.sum(-_xlogx(q), axis=1)) * (2.0 * math.pi / quad.phi_order)


def phi_grid(quad):
    """The rule's uniform phi grid, as ``SphereQuadrature`` builds it."""
    return 2.0 * math.pi * np.arange(quad.phi_order) / quad.phi_order


def random_components(count, seed, max_radius=1.0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(3, count))
    return v * rng.uniform(0.0, max_radius, count) / np.linalg.norm(v, axis=0)


class TestArrayQuadrature:
    # 4 and 64 points a block, and 3, 5, 6 and 7, counts a flat product of a
    # block with the weights rounds differently from a lone point
    @pytest.mark.parametrize("orders,count", [((64, 128), 11), ((16, 32), 150),
                                              ((91, 120), 11), ((80, 80), 11),
                                              ((73, 74), 11), ((68, 68), 11)])
    def test_array_matches_scalar_calls_bit_for_bit(self, orders, count):
        quad = SphereQuadrature(*orders)
        rows = QUAD_ELEMENTS // (orders[0] * orders[1])
        assert 1 < rows < count and count % rows  # several blocks, a partial last
        sx, sy, sz = random_components(count, seed=5)
        sx[0], sy[0], sz[0] = 0.0, 0.0, 1.0
        arrays = BlochVector(sx, sy, sz, np.sqrt(sx * sx + sy * sy + sz * sz))
        got = wehrl_entropy_quadrature(arrays, quad)
        assert got.dtype == np.float64 and got.shape == (count,)
        for i in range(count):
            one = wehrl_entropy_quadrature(bloch(sx[i].item(), sy[i].item(), sz[i].item()),
                                           quad)
            assert type(one) is float and one == got[i], i

    def test_empty_array_gives_empty_array(self):
        empty = np.empty(0)
        got = wehrl_entropy_quadrature(BlochVector(empty, empty, empty, None),
                                       SphereQuadrature(64, 128))
        assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("orders", [(64, 128), (16, 32)])
    @pytest.mark.parametrize("whole", [True, False])
    def test_whole_and_partial_blocks_match_scalar_calls(self, orders, whole):
        # two whole blocks take no padding; a count below one block is
        # padded as a lone point is
        quad = SphereQuadrature(*orders)
        rows = QUAD_ELEMENTS // (orders[0] * orders[1])
        count = 2 * rows if whole else rows - 1
        sx, sy, sz = random_components(count, seed=9)
        got = wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), quad)
        assert got.shape == (count,)
        for i in range(count):
            one = wehrl_entropy_quadrature(bloch(sx[i].item(), sy[i].item(), sz[i].item()),
                                           quad)
            assert one == got[i], i

    def test_near_unit_vectors_match_node_formula(self):
        # Q nears 0 at the node antipodal to the vector, where the rounding
        # of Q as a product matters most
        quad = SphereQuadrature(64, 128)
        rng = np.random.default_rng(4)
        v = rng.normal(size=(3, 24))
        gap = np.append(rng.uniform(0.0, 1e-12, 20), [0.0] * 4)  # 1 - eta
        v *= (1.0 - gap) / np.linalg.norm(v, axis=0)
        got = wehrl_entropy_quadrature(BlochVector(*v, None), quad)
        for i, b in enumerate(map(lambda c: bloch(*c), v.T.tolist())):
            want = masked_quadrature(b, quad)
            assert abs(got[i] - want) <= 4 * np.spacing(want), i

    def test_matches_node_formula(self):
        quad = SphereQuadrature(32, 64)
        for b in map(lambda v: bloch(*v), random_components(20, seed=8).T.tolist()):
            want = masked_quadrature(b, quad)
            assert abs(wehrl_entropy_quadrature(b, quad) - want) <= 4 * np.spacing(want)

    def test_unit_vector_antipodal_to_a_node(self, monkeypatch):
        # Q is 0 at that node up to rounding, so some of these blocks take
        # the checked pass, the only caller of _refuse, with its clamped,
        # masked Q ln Q; taken as one array of 17 blocks, some do so in the
        # second share, on its own thread
        masked = []
        monkeypatch.setattr(husimi, "_refuse", lambda *args: masked.append(
            threading.current_thread()) or _refuse(*args))
        quad = SphereQuadrature(64, 128)
        mu_nodes, phis = husimi._gauss_legendre(64)[0], phi_grid(quad)
        vectors, values = [], []
        for i in range(0, 64, 3):
            mu = mu_nodes[i].item()
            for j in (0, 32, 45):
                s = math.sqrt(1.0 - mu * mu)
                phi = phis[j].item()
                b = BlochVector(-s * math.cos(phi), -s * math.sin(phi), -mu, 1.0)
                got = wehrl_entropy_quadrature(b, quad)
                want = masked_quadrature(b, quad)
                assert math.isfinite(got)
                assert abs(got - want) <= 4 * np.spacing(want), (i, j)
                vectors.append((b.sx, b.sy, b.sz))
                values.append(got)
        assert masked
        masked.clear()
        got = wehrl_entropy_quadrature(BlochVector(*np.array(vectors).T, None), quad)
        assert got.tolist() == values
        assert threading.current_thread() in masked
        assert any(t is not threading.current_thread() for t in masked)

    @pytest.mark.parametrize("excess, refused", [(1e-13, False), (1e-10, True)],
                             ids=["accepted", "refused"])
    def test_q_floor_at_its_edge(self, excess, refused):
        # radius 1 + excess antipodal to node (10, 5), whose Q is about
        # -excess/(4 pi): -8e-15 is taken as 0, -8e-12 is below Q_FLOOR
        # (-1e-12), the vector outside the ball
        quad = SphereQuadrature(64, 128)
        mu = husimi._gauss_legendre(64)[0][10].item()
        phi = phi_grid(quad)[5].item()
        r, s = 1.0 + excess, math.sqrt(1.0 - mu * mu)
        b = BlochVector(-r * s * math.cos(phi), -r * s * math.sin(phi), -r * mu, None)
        if refused:
            with pytest.raises(DomainError, match="^negative Q density"):
                wehrl_entropy_quadrature(b, quad)
        else:
            got = wehrl_entropy_quadrature(b, quad)
            assert abs(got - wehrl_entropy_closed(1.0)) <= QUAD_ERROR_NEAR_PURE

    def test_negative_q_named_in_a_later_block(self):
        quad = SphereQuadrature(64, 128)
        sx, sy, sz = random_components(10, seed=2, max_radius=0.9)
        sz[6] = 1.5
        with pytest.raises(DomainError, match="negative Q density"):
            wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), quad)


class TestIndependence:
    def test_takes_no_radius_and_no_entropies_function(self, monkeypatch):
        # components alone, with no eta, and every function of entropies
        # raising wherever the package holds it: 17 points, two shares, a
        # NaN point's block and a unit vector antipodal to a node taking the
        # checked pass
        quad = SphereQuadrature(64, 128)
        mu = husimi._gauss_legendre(64)[0][5].item()
        sx, sy, sz = random_components(17, seed=7)
        sx[3], sy[3], sz[3] = -math.sqrt(1.0 - mu * mu), 0.0, -mu
        sz[14] = math.nan
        want = wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), quad)
        one = wehrl_entropy_quadrature(bloch(0.1, 0.2, 0.3), quad)

        def raising(*args, **kwargs):
            raise AssertionError("an entropies function was called")

        for module in [m for name, m in sys.modules.items()
                       if name == "jcm_entropy" or name.startswith("jcm_entropy.")]:
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == entropies.__name__:
                    monkeypatch.setattr(module, name, raising)
        with pytest.raises(AssertionError):  # the stubs are in place
            wehrl_entropy_closed(0.5)
        got = wehrl_entropy_quadrature(types.SimpleNamespace(sx=sx, sy=sy, sz=sz), quad)
        assert got.tobytes() == want.tobytes()
        assert wehrl_entropy_quadrature(types.SimpleNamespace(sx=0.1, sy=0.2, sz=0.3),
                                        quad) == one


class TestWorkers:
    """A call of four blocks or more is split over two threads, and a call
    of one to three blocks runs on the calling thread, whatever the host."""

    # 4, 64, 3, 5, 6, 7 and 4096 points a block; at 4096, every 64th point
    # from the last back is checked against its scalar call
    @pytest.mark.parametrize("orders,count", [((64, 128), 17), ((16, 32), 273),
                                              ((91, 120), 14), ((80, 80), 22),
                                              ((73, 74), 26), ((68, 68), 30),
                                              ((2, 4), 4 * 4096 + 1)])
    def test_worker_count_does_not_change_values(self, orders, count, started_threads):
        quad = SphereQuadrature(*orders)
        rows = QUAD_ELEMENTS // (orders[0] * orders[1])
        assert count // rows >= 4 and count % rows  # four whole blocks, a partial last
        sx, sy, sz = random_components(count, seed=6)
        # one share each: calls of at most three blocks
        alone = np.concatenate([
            wehrl_entropy_quadrature(BlochVector(sx[lo:lo + 3 * rows], sy[lo:lo + 3 * rows],
                                                 sz[lo:lo + 3 * rows], None), quad)
            for lo in range(0, count, 3 * rows)])
        assert not started_threads  # one to three blocks start none
        split = wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), quad)
        assert len(started_threads) == 1
        assert split.tobytes() == alone.tobytes()
        for i in range(count - 1, -1, -max(1, rows // 64)):
            one = wehrl_entropy_quadrature(bloch(sx[i].item(), sy[i].item(), sz[i].item()),
                                           quad)
            assert one == split[i], i

    def test_outside_ball_in_the_second_share(self, started_threads):
        quad = SphereQuadrature(64, 128)
        sx, sy, sz = random_components(40, seed=2, max_radius=0.9)
        sz[30] = 1.5  # 10 blocks of 4 points; the second share holds 20 to 39
        with pytest.raises(DomainError) as alone:  # one share each: three blocks
            for lo in range(0, 40, 12):
                wehrl_entropy_quadrature(BlochVector(sx[lo:lo + 12], sy[lo:lo + 12],
                                                     sz[lo:lo + 12], None), quad)
        assert not started_threads
        before = threading.active_count()
        with pytest.raises(DomainError) as split:
            wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), quad)
        assert len(started_threads) == 1
        assert threading.active_count() == before
        assert str(split.value) == str(alone.value)

    def test_index_counts_from_the_first_point_of_the_call(self, started_threads):
        # 10 blocks of 4 points; point 30 lies inside the block 28 to 31, the
        # third of the second share, which holds 20 to 39
        quad = SphereQuadrature(64, 128)
        sx, sy, sz = random_components(40, seed=2, max_radius=0.9)
        sz[[30, 33, 37]] = 1.5
        with pytest.raises(DomainError) as raised:
            wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), quad)
        assert len(started_threads) == 1
        assert raised.value.index == 30

    @pytest.mark.parametrize("bad,first_share", [([30], False), ([5, 30], True)])
    def test_first_error_in_grid_order_is_raised(self, monkeypatch, started_threads,
                                                 bad, first_share):
        def failing(bad, message):  # like the real check, it names a row of the block
            raise DomainError(threading.current_thread().name, index=0)

        monkeypatch.setattr(husimi, "_refuse", failing)
        sx, sy, sz = random_components(40, seed=2, max_radius=0.9)
        sz[bad] = 1.5  # its block takes the checked path
        with pytest.raises(DomainError) as raised:
            wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None),
                                     SphereQuadrature(64, 128))
        (worker,) = started_threads
        caller = threading.current_thread()
        assert str(raised.value) == (caller if first_share else worker).name

    def test_second_share_fails_while_it_sets_up(self, monkeypatch, started_threads):
        # its buffers are allocated inside its error capture, so the caller
        # raises the error and the thread is joined
        real = np.empty

        def empty(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("second share")
            return real(*args, **kwargs)

        sx, sy, sz = random_components(40, seed=2, max_radius=0.9)
        before = threading.active_count()
        monkeypatch.setattr(husimi.np, "empty", empty)
        with pytest.raises(MemoryError):
            wehrl_entropy_quadrature(BlochVector(sx, sy, sz, None), SphereQuadrature(64, 128))
        assert len(started_threads) == 1
        assert threading.active_count() == before


def outcome(f, b, quad):
    """``f(b, quad)``, or the text of the DomainError it raises."""
    try:
        return f(b, quad)
    except DomainError as exc:
        return str(exc)


class TestNonFinitePoints:
    """NaN, infinite, huge and zero points give in an array call what they
    give in a scalar call, with no warning (the suite makes warnings errors)."""

    def test_nan_hides_no_outside_ball_point_of_its_block(self):
        quad = SphereQuadrature(64, 128)
        alone = outcome(wehrl_entropy_quadrature, bloch(0.0, 0.0, 1.5), quad)
        assert alone.startswith("negative Q density")
        block = BlochVector(np.zeros(4), np.zeros(4), np.array([math.nan, 1.5, 0.2, 0.3]), None)
        with pytest.raises(DomainError) as raised:
            wehrl_entropy_quadrature(block, quad)
        assert str(raised.value) == alone

    @pytest.mark.parametrize("f", [wehrl_entropy_quadrature])
    def test_each_point_takes_its_scalar_outcome(self, f):
        # 17 points (five blocks of 4 at 64x128, split 8 + 9 into two
        # shares), one special point in the first or the second share, alone
        # in its block or beside a NaN point
        quad = SphereQuadrature(64, 128)
        specials = [[0.0, 0.0, 0.0]]
        for value in (math.nan, math.inf, -math.inf, 1e308, -1e308):
            for axis in range(3):
                specials.append([0.0, 0.0, 0.0])
                specials[-1][axis] = value
        base = random_components(17, seed=12).T.tolist()
        singles = {}
        for c in base + specials + [[math.nan] * 3]:
            singles[tuple(c)] = outcome(f, BlochVector(*c, None), quad)
        raised = 0
        for special in specials:
            for at in (1, 13):
                for beside_nan in (False, True):
                    points = list(base)
                    points[at] = special
                    if beside_nan:
                        points[at ^ 1] = [math.nan] * 3
                    want = [singles[tuple(c)] for c in points]
                    errors = [w for w in want if isinstance(w, str)]
                    got = outcome(f, BlochVector(*np.array(points).T, None), quad)
                    if errors:
                        raised += 1
                        assert got == errors[0], (special, at, beside_nan)
                    else:
                        assert got.tobytes() == np.array(want).tobytes(), (special, at)
        assert raised == 4 * 12


class TestTrigPowerIntegral:
    def test_odd_k_vanishes(self):
        assert trig_power_integral(1.0, 1.0, 3) == 0.0

    def test_sin_squared(self):
        assert trig_power_integral(1.0, 0.0, 2) == pytest.approx(math.pi, abs=1e-14)
        assert trig_power_integral(1.0, 0.0, 2) == pytest.approx(
            composite_trig_integral(1.0, 0.0, 2), abs=1e-12)

    def test_constant(self):
        assert trig_power_integral(0.0, 0.0, 0) == pytest.approx(
            2.0 * math.pi, abs=1e-15)

    def test_rejects_negative_power(self):
        with pytest.raises(DomainError):
            trig_power_integral(1.0, 1.0, -1)

    @pytest.mark.parametrize("c1,c2", [(1.0, 1.0), (0.5, -0.3), (2.0, 2.0),
                                       (-1.7, 0.9), (0.0, 2.0)])
    def test_matches_composite_rule(self, c1, c2):
        # tolerance scaled by the integrand magnitude: at k = 20 with
        # |c| = 2 the integral is ~1e9 and doubles carry ~1e-16 relative
        for k in range(21):
            expected = composite_trig_integral(c1, c2, k)
            scale = max(1.0, (c1 * c1 + c2 * c2) ** (k / 2))
            assert abs(trig_power_integral(c1, c2, k) - expected) < 1e-10 * scale
