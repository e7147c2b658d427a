"""Husimi Q-function on the sphere and the brute-force Wehrl entropy oracle.

For a qubit the Q-function against spin coherent states
|theta, phi> = cos(theta/2)|e> + sin(theta/2) e^{i phi}|g>
is simply (1 + beta)/(4 pi) with beta the projection of the Bloch vector
onto the direction (theta, phi).  Integrating -Q ln Q over the sphere by
direct quadrature gives the Wehrl entropy with no reference to the closed
form or the series, which is what makes it a usable oracle.

Quadrature: Gauss-Legendre in mu = cos(theta) (absorbing the sin(theta)
measure) tensored with a uniform periodic rule in phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BlochVector
from .entropies import _xlogx
from .errors import DomainError

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class SphereQuadrature:
    theta_order: int
    phi_order: int
    mu_nodes: np.ndarray = field(init=False, repr=False)
    mu_weights: np.ndarray = field(init=False, repr=False)
    phi_nodes: np.ndarray = field(init=False, repr=False)
    phi_weight: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.theta_order < 2:
            raise DomainError("theta_order must be >= 2")
        if self.phi_order < 4:
            raise DomainError("phi_order must be >= 4")
        mu, w = np.polynomial.legendre.leggauss(self.theta_order)
        object.__setattr__(self, "mu_nodes", mu)
        object.__setattr__(self, "mu_weights", w)
        object.__setattr__(self, "phi_nodes",
                           2.0 * math.pi * np.arange(self.phi_order) / self.phi_order)
        object.__setattr__(self, "phi_weight", 2.0 * math.pi / self.phi_order)

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


def _q_on_nodes(bloch: BlochVector, quad: SphereQuadrature) -> np.ndarray:
    mu = quad.mu_nodes[:, None]
    sin_theta = np.sqrt(1.0 - quad.mu_nodes ** 2)[:, None]
    phi = quad.phi_nodes[None, :]
    beta = (bloch.sz * mu
            + (bloch.sx * np.cos(phi) + bloch.sy * np.sin(phi)) * sin_theta)
    return (1.0 + beta) / FOUR_PI


def wehrl_entropy_quadrature(bloch: BlochVector, quad: SphereQuadrature) -> float:
    """Wehrl entropy -integral Q ln Q by direct spherical quadrature."""
    q = _q_on_nodes(bloch, quad)
    if np.min(q) < -1e-12:
        raise DomainError("negative Q density at a node: Bloch vector outside "
                          "the unit ball")
    integrand = -_xlogx(np.maximum(q, 0.0))
    return float(quad.mu_weights @ np.sum(integrand, axis=1)) * quad.phi_weight


def q_normalization(bloch: BlochVector, quad: SphereQuadrature) -> float:
    """Quadrature integral of Q over the sphere; should be 1."""
    q = _q_on_nodes(bloch, quad)
    return float(quad.mu_weights @ np.sum(q, axis=1)) * quad.phi_weight


def trig_power_integral(c1: float, c2: float, k: int) -> float:
    """integral_0^{2 pi} (c1 sin x + c2 cos x)^k dx.

    Zero for odd k; for k = 2m equals 2 pi (2m)!/(4^m m!^2) (c1^2+c2^2)^m,
    with the central-binomial ratio built as a product of (2j-1)/(2j)
    factors rather than through factorials.
    """
    if k < 0:
        raise DomainError("k must be a nonnegative integer")
    if k % 2 == 1:
        return 0.0
    m = k // 2
    ratio = 1.0
    for j in range(1, m + 1):
        ratio *= (2 * j - 1) / (2 * j)
    return 2.0 * math.pi * ratio * (c1 * c1 + c2 * c2) ** m
