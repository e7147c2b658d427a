"""Husimi Q-function on the sphere and the Wehrl entropy's two oracle routes.

For a qubit the Q-function against spin coherent states
|theta, phi> = cos(theta/2)|e> + sin(theta/2) e^{i phi}|g>
is simply (1 + beta)/(4 pi) with beta the projection of the Bloch vector
onto the direction (theta, phi).  Integrating -Q ln Q over the sphere by
direct quadrature gives the Wehrl entropy with no reference to the closed
form or the series, which is what makes it a usable oracle.

Quadrature: Gauss-Legendre in mu = cos(theta) (absorbing the sin(theta)
measure) tensored with a uniform periodic rule in phi.

``wehrl_entropy_quadrature`` and ``q_normalization`` take a Bloch vector
with scalar or 1-D array fields.  Points are taken ``QUAD_ELEMENTS`` nodes
at a time (4 points at 64x128), and each point's value is that of a scalar
call, bit for bit.  The node geometry (sin theta, cos phi, sin phi) is
built once per :class:`SphereQuadrature`, but the oracle stays independent
of the other routes: Q is evaluated from (sx, sy, sz) at every node for
every point, with no use of rotational symmetry, of eta, or of the closed
form or the series.  ``wehrl_entropy_triple_sum``, the other oracle,
integrates term by term the expansion whose azimuthal integrals
``trig_power_integral`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BlochVector, _check_count, _check_quad_orders, _item
from .entropies import LN4PI, _check_eta, _xlogx
from .errors import DomainError, PrecisionLossError

FOUR_PI = 4.0 * math.pi
Q_FLOOR = -1e-12  # Q below this at a node: the Bloch vector is outside the ball
_TERM_MAGNITUDE_LIMIT = 1e15

# Quadrature nodes per block of points.  It bounds each block's temporaries
# (Q and Q ln Q, 256 KiB each); a point whose nodes exceed this is still
# taken whole.
QUAD_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class SphereQuadrature:
    theta_order: int
    phi_order: int
    mu_nodes: np.ndarray = field(init=False, repr=False)
    mu_weights: np.ndarray = field(init=False, repr=False)
    phi_nodes: np.ndarray = field(init=False, repr=False)
    phi_weight: float = field(init=False, repr=False)
    sin_theta_4pi: np.ndarray = field(init=False, repr=False)  # sin(theta_i)/(4 pi)
    cos_phi: np.ndarray = field(init=False, repr=False)
    sin_phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_quad_orders(self.theta_order, self.phi_order)
        mu, w = np.polynomial.legendre.leggauss(self.theta_order)
        phi = 2.0 * math.pi * np.arange(self.phi_order) / self.phi_order
        for name, value in (("mu_nodes", mu), ("mu_weights", w), ("phi_nodes", phi),
                            ("phi_weight", 2.0 * math.pi / self.phi_order),
                            ("sin_theta_4pi", np.sqrt(1.0 - mu ** 2) / FOUR_PI),
                            ("cos_phi", np.cos(phi)), ("sin_phi", np.sin(phi))):
            object.__setattr__(self, name, value)

    @property
    def total_weight(self) -> float:
        # must equal the full solid angle 4 pi
        return float(np.sum(self.mu_weights)) * self.phi_weight * self.phi_order


def atomic_q(bloch: BlochVector, theta: float, phi: float) -> float:
    """Husimi Q density (1 + beta)/(4 pi) at a single sphere point."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta = {theta!r} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"phi = {phi!r} outside [0, 2*pi)")
    beta = (bloch.sz * math.cos(theta)
            + (bloch.sx * math.cos(phi) + bloch.sy * math.sin(phi)) * math.sin(theta))
    return (1.0 + beta) / FOUR_PI


def _integrate(bloch: BlochVector, quad: SphereQuadrature, integrand):
    """The quadrature sum of ``integrand(Q)`` over the sphere, per point.

    Q at node (theta_i, phi_j) is built as
    (sx cos phi_j + sy sin phi_j) sin(theta_i)/(4 pi) + (sz mu_i + 1)/(4 pi),
    a block of points at a time as a (points, theta, phi) array.
    """
    sx, sy, sz = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                       for c in (bloch.sx, bloch.sy, bloch.sz)))
    shape = sz.shape
    sx, sy, sz = (c.reshape(-1) for c in (sx, sy, sz))
    weights = quad.mu_weights * quad.phi_weight
    out = np.empty(sz.size)
    rows = max(1, min(sz.size, QUAD_ELEMENTS // (quad.theta_order * quad.phi_order)))
    for lo in range(0, sz.size, rows):
        hi = lo + rows
        ring = (np.multiply.outer(sx[lo:hi], quad.cos_phi)
                + np.multiply.outer(sy[lo:hi], quad.sin_phi))
        q = ring[:, None, :] * quad.sin_theta_4pi[:, None]
        q += ((np.multiply.outer(sz[lo:hi], quad.mu_nodes) + 1.0) / FOUR_PI)[:, :, None]
        per_theta = np.add.reduce(integrand(q), axis=-1)
        per_theta *= weights
        out[lo:hi] = np.add.reduce(per_theta, axis=-1)
    return out.reshape(shape)


def _q_log_q(q: np.ndarray) -> np.ndarray:
    """Q ln Q; a block with a node at or below 0 is checked against Q_FLOOR,
    clamped and given 0 ln 0 = 0."""
    low = q.min()
    if low > 0.0:
        out = np.log(q)
        out *= q
        return out
    if low < Q_FLOOR:
        raise DomainError("negative Q density at a node: Bloch vector outside "
                          "the unit ball")
    return _xlogx(np.maximum(q, 0.0))


def wehrl_entropy_quadrature(bloch: BlochVector, quad: SphereQuadrature):
    """Wehrl entropy -integral Q ln Q by direct spherical quadrature.

    The Bloch components are scalars or equal-length 1-D arrays; a scalar
    Bloch vector gives a Python float.
    """
    return _item(-_integrate(bloch, quad, _q_log_q))


def q_normalization(bloch: BlochVector, quad: SphereQuadrature):
    """Quadrature integral of Q over the sphere, per point; should be 1."""
    return _item(_integrate(bloch, quad, lambda q: q))


def trig_power_integral(c1: float, c2: float, k: int) -> float:
    """integral_0^{2 pi} (c1 sin x + c2 cos x)^k dx.

    Zero for odd k; for k = 2m equals 2 pi (2m)!/(4^m m!^2) (c1^2+c2^2)^m,
    with the central-binomial ratio built as a product of (2j-1)/(2j)
    factors rather than through factorials.
    """
    _check_count("k", k, 0)
    if k % 2 == 1:
        return 0.0
    m = k // 2
    ratio = 1.0
    for j in range(1, m + 1):
        ratio *= (2 * j - 1) / (2 * j)
    return 2.0 * math.pi * ratio * (c1 * c1 + c2 * c2) ** m


def _gammaln(x: np.ndarray) -> np.ndarray:
    """ln Gamma(x) elementwise by ``math.lgamma``, once per distinct argument."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([math.lgamma(v) for v in values.tolist()])[inverse]


def wehrl_entropy_triple_sum(bloch: BlochVector, n_terms: int) -> float:
    """Atomic Wehrl entropy from the raw sum over Bloch-vector components.

    The underlying expansion is a triple sum over (n, r, s) in which the
    alternating s-sum encodes the polar integral
    integral_0^1 t^{2(n-r)} (1-t^2)^r dt.  Summing it term by term loses
    all precision once sz^2 and sx^2+sy^2 are both appreciable (individual
    terms exceed 1e15 near n ~ 85), so that inner sum is carried out by
    exact cancellation to its beta-function value and the remaining (n, r)
    terms, all positive, are accumulated in log space.
    """
    _check_count("n_terms", n_terms, 1)
    _check_eta(bloch.eta)
    u = bloch.sz * bloch.sz
    v = bloch.sx * bloch.sx + bloch.sy * bloch.sy

    n = np.concatenate([np.full(k + 1, k) for k in range(1, n_terms + 1)])
    r = np.concatenate([np.arange(k + 1) for k in range(1, n_terms + 1)])

    # 0^0 = 1 here: a zero component only kills terms with a positive power
    if u > 0.0:
        pow_u = (n - r) * math.log(u)
    else:
        pow_u = np.where(n - r > 0, -np.inf, 0.0)
    if v > 0.0:
        pow_v = r * math.log(v)
    else:
        pow_v = np.where(r > 0, -np.inf, 0.0)

    log_terms = (_gammaln(2 * n + 1) + _gammaln(n - r + 0.5) + pow_u + pow_v
                 - np.log(2.0 * n * (2.0 * n - 1.0))
                 - _gammaln(2 * (n - r) + 1) - _gammaln(r + 1.0)
                 - r * math.log(4.0) - math.log(2.0) - _gammaln(n + 1.5))

    if np.any(log_terms > math.log(_TERM_MAGNITUDE_LIMIT)):
        raise PrecisionLossError(
            "triple-sum partial term exceeds 1e15; input Bloch vector is "
            "outside the unit ball")
    return LN4PI - float(np.sum(np.exp(log_terms)))
