"""Resonant Jaynes-Cummings dynamics for a coherent field and an excited atom.

Everything is expressed in the scaled time T = t * lambda (coupling-scaled,
dimensionless).  The atom starts in |e>, the field in a coherent state
alpha = |alpha| exp(i*theta); the reduced atomic state is then fully
described by its 2x2 density matrix, equivalently by the Bloch vector.

``reduced_density`` and ``bloch_vector`` take a scalar T or a 1-D array of
times; array fields then hold one value per time, scalar ones are Python
numbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TRACE_TOL = 1e-12
ETA_TOL = 1e-9


def _item(value):
    """A 0-d result as a Python scalar; arrays pass through unchanged."""
    return value if np.ndim(value) else np.asarray(value).item()


def _first(values, bad):
    """The first of ``values`` where ``bad`` holds, as a Python scalar."""
    return np.asarray(values)[bad][0].item()


def _require_finite(name: str, value) -> None:
    bad = ~np.isfinite(value)
    if np.any(bad):
        raise DomainError(f"{name} must be finite, got {_first(value, bad)!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters for a time sweep: initial field, grid, numeric policies."""

    alpha_mag: float
    alpha_phase: float = 0.0
    t_start: float = 0.0
    t_end: float = 30.0
    t_steps: int = 3000
    fock_tail_tol: float = 1e-12
    series_tol: float = 1e-14
    quad_theta_order: int = 64
    quad_phi_order: int = 128

    def __post_init__(self):
        for name in ("alpha_mag", "alpha_phase", "t_start", "t_end",
                     "fock_tail_tol", "series_tol"):
            _require_finite(name, getattr(self, name))
        if self.alpha_mag < 0:
            raise DomainError("alpha_mag must be nonnegative")
        if self.t_steps < 1:
            raise DomainError("t_steps must be a positive integer")
        if self.t_end < self.t_start:
            raise DomainError("t_end must not precede t_start")
        for name in ("fock_tail_tol", "series_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {tol!r}")
        if self.quad_theta_order < 1 or self.quad_phi_order < 1:
            raise DomainError("quadrature orders must be positive integers")


@dataclass(frozen=True)
class FockAmplitudes:
    """Truncated coherent-state coefficients C_0..C_{n_max}."""

    coefficients: np.ndarray  # complex, length n_max + 1
    n_max: int

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))


@dataclass(frozen=True)
class AtomicDensityMatrix:
    """Reduced 2x2 atomic state (rho_ee, rho_gg, coherence rho_eg = <e|rho|g>).

    Fields are scalars or equal-length arrays; every entry is checked.
    """

    rho_ee: float | np.ndarray
    rho_gg: float | np.ndarray
    rho_eg: complex | np.ndarray

    def __post_init__(self):
        trace = self.rho_ee + self.rho_gg
        bad = np.abs(trace - 1.0) > TRACE_TOL
        if np.any(bad):
            raise DomainError(f"trace violation: rho_ee + rho_gg = {_first(trace, bad)!r}")
        if np.any(self.rho_ee * self.rho_gg - np.abs(self.rho_eg) ** 2 < -TRACE_TOL):
            raise DomainError("density matrix is not positive semidefinite")


@dataclass(frozen=True)
class BlochVector:
    """Bloch components and their Euclidean norm eta (scalars or arrays).

    The frame is the Pauli one reflected in y: sx = 2 Re rho_eg = <sigma_x>,
    sy = 2 Im rho_eg = -<sigma_y>, sz = rho_ee - rho_gg = <sigma_z>, with
    sigma_y = [[0, -i], [i, 0]] in the (e, g) basis.  No entropy depends on
    the sign of sy.
    """

    sx: float | np.ndarray
    sy: float | np.ndarray
    sz: float | np.ndarray
    eta: float | np.ndarray


def coherent_amplitudes(alpha_mag: float, alpha_phase: float,
                        fock_tail_tol: float) -> FockAmplitudes:
    """Coherent-state Fock coefficients C_n = alpha^n exp(-|alpha|^2/2)/sqrt(n!).

    Built by the stable recurrence C_{n+1} = C_n * alpha / sqrt(n+1) and
    truncated once the residual Poisson tail mass drops below
    ``fock_tail_tol``.  A hard floor n_max >= ceil(|alpha|^2 + 10|alpha| + 20)
    keeps the tail far below plotting resolution on collapse/revival sweeps.
    """
    _require_finite("alpha_mag", alpha_mag)
    _require_finite("alpha_phase", alpha_phase)
    _require_finite("fock_tail_tol", fock_tail_tol)
    if alpha_mag < 0:
        raise DomainError("alpha_mag must be nonnegative")
    if not 0.0 < fock_tail_tol < 1.0:
        raise DomainError("fock_tail_tol must lie in (0, 1)")

    if alpha_mag == 0.0:
        return FockAmplitudes(np.array([1.0 + 0.0j]), 0)

    alpha = alpha_mag * cmath.exp(1j * alpha_phase)
    floor = math.ceil(alpha_mag ** 2 + 10.0 * alpha_mag + 20.0)

    coeffs = [cmath.exp(-0.5 * alpha_mag ** 2)]
    mass = abs(coeffs[0]) ** 2
    n = 0
    while n < floor or 1.0 - mass >= fock_tail_tol:
        coeffs.append(coeffs[-1] * alpha / math.sqrt(n + 1))
        n += 1
        mass += abs(coeffs[-1]) ** 2
        if n > 100 * floor:  # unreachable for sane tolerances
            raise DomainError("Fock truncation failed to converge")
    return FockAmplitudes(np.asarray(coeffs, dtype=complex), n)


def reduced_density(amps: FockAmplitudes, T) -> AtomicDensityMatrix:
    """Reduced atomic density matrix of the resonant model at scaled time T.

    T is a scalar or a 1-D array; the work is one row of len(C) Rabi phases
    per time, so callers bound memory by the length of T they pass.
    """
    T = np.asarray(T, dtype=float)
    _require_finite("T", T)
    C = amps.coefficients
    n = np.arange(C.size)
    # cosines/sines of the Rabi phases T*sqrt(n+1), one row per time.  The
    # products keep the order (w*c)*s and (p*c)*c of the one-time formula, so
    # each row is bit-identical to a scalar call; buffers are reused so that
    # the working set stays near 32 bytes per phase.
    s = np.multiply.outer(T, np.sqrt(n + 1.0))
    c = np.cos(s)
    np.sin(s, out=s)
    # coherence: i * sum_n C_{n+1} C_n^* cos(T sqrt(n+2)) sin(T sqrt(n+1))
    coh = C[1:] * np.conj(C[:-1]) * c[..., 1:]
    coh *= s[..., :-1]
    rho_eg = 1j * coh.sum(axis=-1)
    del coh
    p = np.abs(C) ** 2
    work = p * c
    work *= c
    rho_ee = work.sum(axis=-1)
    np.multiply(p, s, out=c)
    c *= s
    rho_gg = c.sum(axis=-1)
    return AtomicDensityMatrix(_item(rho_ee), _item(rho_gg), _item(rho_eg))


def bloch_vector(rho: AtomicDensityMatrix) -> BlochVector:
    """Bloch components (frame as in :class:`BlochVector`) and Bloch radius.

    sx = 2 Re rho_eg, sy = 2 Im rho_eg = -<sigma_y>, sz = rho_ee - rho_gg.
    """
    sz = rho.rho_ee - rho.rho_gg
    sx = 2.0 * rho.rho_eg.real
    sy = 2.0 * rho.rho_eg.imag
    eta = np.sqrt(sx * sx + sy * sy + sz * sz)
    bad = eta > 1.0 + ETA_TOL
    if np.any(bad):
        raise DomainError(
            f"Bloch radius {_first(eta, bad)!r} exceeds 1: invalid density matrix")
    eta = np.minimum(eta, 1.0)  # within tolerance of the sphere: clamp
    return BlochVector(_item(sx), _item(sy), _item(sz), _item(eta))
