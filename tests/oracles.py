"""Oracles that only the tests use: the Husimi Q density at one point, the
quadrature integral of Q, the closed azimuthal power integral and the raw
component triple sum for the atomic Wehrl entropy.

None of them is on a path of the library; the tests check the library's
routes, and the quadrature rule of ``SphereQuadrature``, against them.
"""

import math

import numpy as np

from jcm_entropy import LN4PI, BlochVector, DomainError, PrecisionLossError, SphereQuadrature
from jcm_entropy.errors import _check_count
from jcm_entropy.entropies import _check_eta
from jcm_entropy.husimi import FOUR_PI

_TERM_MAGNITUDE_LIMIT = 1e15


def atomic_q(bloch: BlochVector, theta: float, phi: float) -> float:
    """Husimi Q density (1 + beta)/(4 pi) at a single sphere point."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta = {theta!r} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"phi = {phi!r} outside [0, 2*pi)")
    beta = (bloch.sz * math.cos(theta)
            + (bloch.sx * math.cos(phi) + bloch.sy * math.sin(phi)) * math.sin(theta))
    return (1.0 + beta) / FOUR_PI


def q_normalization(bloch: BlochVector, quad: SphereQuadrature) -> float:
    """Quadrature integral of Q over the sphere; should be 1.

    Q at every node is [1, sz, sx, sy] @ ``quad.basis``, weighted by the
    node weights ``quad.weights``.
    """
    q = np.array([1.0, bloch.sz, bloch.sx, bloch.sy]) @ quad.basis
    return float(q @ quad.weights)


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
