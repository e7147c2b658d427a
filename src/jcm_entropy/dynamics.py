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
    """Coherent-state amplitudes C_n = |C_n| exp(i*theta*n) on n_min..n_max.

    The weights |C_n| are real and renormalized to unit norm; ``tail_mass``
    bounds the Poisson mass of the photon numbers outside the window.
    """

    weights: np.ndarray  # |C_n| for n = n_min..n_max
    n_min: int
    n_max: int
    phase: float  # theta, the phase of alpha
    tail_mass: float

    @property
    def coefficients(self) -> np.ndarray:
        """The complex C_n for n = n_min..n_max."""
        n = np.arange(self.n_min, self.n_max + 1)
        return self.weights * np.exp(1j * self.phase * n)

    @property
    def norm_squared(self) -> float:
        return math.fsum((self.weights * self.weights).tolist())


@dataclass(frozen=True)
class AtomicDensityMatrix:
    """Reduced 2x2 atomic state (rho_ee, rho_gg, coherence rho_eg = <e|rho|g>).

    Fields are scalars or equal-length arrays; every entry is checked.
    """

    rho_ee: float | np.ndarray
    rho_gg: float | np.ndarray
    rho_eg: complex | np.ndarray

    def __post_init__(self):
        # the comparisons are negated so that a NaN fails them
        trace = self.rho_ee + self.rho_gg
        bad = ~(np.abs(trace - 1.0) <= TRACE_TOL)
        if np.any(bad):
            raise DomainError(f"trace violation: rho_ee + rho_gg = {_first(trace, bad)!r}")
        if not np.all(self.rho_ee * self.rho_gg - np.abs(self.rho_eg) ** 2 >= -TRACE_TOL):
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


def _log_poisson(n: int, alpha_mag: float) -> float:
    """ln p_n of the Poisson weight p_n = exp(-|alpha|^2) |alpha|^(2n) / n!."""
    return 2.0 * n * math.log(alpha_mag) - alpha_mag ** 2 - math.lgamma(n + 1.0)


def coherent_amplitudes(alpha_mag: float, alpha_phase: float,
                        fock_tail_tol: float) -> FockAmplitudes:
    """Coherent-state Fock amplitudes C_n = alpha^n exp(-|alpha|^2/2)/sqrt(n!).

    Only photon numbers in a window about |alpha|^2 are kept:
    n_max = ceil(|alpha|^2 + 10|alpha| + 20) and
    n_min = max(0, floor(|alpha|^2 - 10|alpha| - 20)), each widened until the
    Poisson mass dropped beyond it, bounded by a geometric series, stays
    below ``fock_tail_tol`` (the mass above n_max first, then the two
    together).  The weights |C_n| are built by the ratio recurrence outward
    from the mode floor(|alpha|^2), starting from 1 there, and then
    renormalized, so nothing underflows at large |alpha|.
    """
    _require_finite("alpha_mag", alpha_mag)
    _require_finite("alpha_phase", alpha_phase)
    _require_finite("fock_tail_tol", fock_tail_tol)
    if alpha_mag < 0:
        raise DomainError("alpha_mag must be nonnegative")
    if not 0.0 < fock_tail_tol < 1.0:
        raise DomainError("fock_tail_tol must lie in (0, 1)")

    if alpha_mag == 0.0:
        return FockAmplitudes(np.ones(1), 0, 0, alpha_phase, 0.0)

    mean = alpha_mag ** 2

    def upper(n):  # ln of a bound on sum_{k > n} p_k, for n + 2 > mean
        return _log_poisson(n + 1, alpha_mag) - math.log1p(-mean / (n + 2))

    def lower(n):  # ln of a bound on sum_{k < n} p_k, for n - 1 < mean
        return _log_poisson(n - 1, alpha_mag) - math.log1p(-(n - 1) / mean)

    n_max = math.ceil(mean + 10.0 * alpha_mag + 20.0)
    while upper(n_max) >= math.log(fock_tail_tol):
        n_max += 1
    tail_mass = math.exp(upper(n_max))
    room = math.log(fock_tail_tol - tail_mass)
    n_min = max(0, math.floor(mean - 10.0 * alpha_mag - 20.0))
    while n_min > 0 and lower(n_min) >= room:
        n_min -= 1
    if n_min > 0:
        tail_mass += math.exp(lower(n_min))

    n = np.arange(n_min, n_max + 1.0)
    k = math.floor(mean) - n_min  # index of the mode
    weights = np.ones(n.size)
    # |C_{n+1}| = |C_n| |alpha|/sqrt(n+1) above the mode, the inverse below
    weights[k + 1:] = np.cumprod(alpha_mag / np.sqrt(n[k + 1:]))
    weights[:k] = np.cumprod(np.sqrt(n[k:0:-1]) / alpha_mag)[::-1]
    weights /= math.sqrt(math.fsum((weights * weights).tolist()))
    return FockAmplitudes(weights, n_min, n_max, alpha_phase, tail_mass)


# Rabi phases per block of times in reduced_density.  Its three buffers
# (24 bytes a phase, 192 KiB) are allocated once per call, so its working
# memory grows neither with the grid length nor with the number of blocks.
CHUNK_ELEMENTS = 2 ** 13


def reduced_density(amps: FockAmplitudes, T) -> AtomicDensityMatrix:
    """Reduced atomic density matrix of the resonant model at scaled time T.

    T is a scalar or a 1-D array.  With p_n = |C_n|^2 and
    |q_n| = |C_{n+1}||C_n|, and the Rabi phase T*sqrt(n+1) of photon number n:
    rho_ee = sum p_n cos^2, rho_gg = sum p_n sin^2 and
    rho_eg = i exp(i*theta) sum |q_n| cos(T sqrt(n+2)) sin(T sqrt(n+1)).
    Times are taken ``CHUNK_ELEMENTS`` phases at a time, into buffers
    allocated once per call; each time's sums are those of a scalar call,
    bit for bit.
    """
    T = np.asarray(T, dtype=float)
    _require_finite("T", T)
    w = amps.weights
    root = np.sqrt(np.arange(amps.n_min + 1.0, amps.n_max + 2.0))  # sqrt(n+1)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(T * root[-1])
    if np.any(bad):
        raise DomainError(f"Rabi phase T*sqrt(n+1) overflows for T = {_first(T, bad)!r}, "
                          f"n = {amps.n_max}")
    p = w * w
    q = w[1:] * w[:-1]
    times = T.reshape(-1)
    rho_ee, rho_gg, coh = (np.empty(times.size) for _ in range(3))
    rows = max(1, min(times.size, CHUNK_ELEMENTS // w.size))
    s, c, work = (np.empty((rows, w.size)) for _ in range(3))
    for lo in range(0, times.size, rows):
        hi = min(lo + rows, times.size)
        sk, ck, wk = s[:hi - lo], c[:hi - lo], work[:hi - lo]
        np.multiply.outer(times[lo:hi], root, out=sk)
        np.cos(sk, out=ck)
        np.sin(sk, out=sk)
        # products in the order (q*c)*s and (p*c)*c of the one-time formula
        pair = wk[:, 1:]
        np.multiply(q, ck[:, 1:], out=pair)
        pair *= sk[:, :-1]
        np.add.reduce(pair, axis=-1, out=coh[lo:hi])
        np.multiply(p, ck, out=wk)
        wk *= ck
        np.add.reduce(wk, axis=-1, out=rho_ee[lo:hi])
        np.multiply(p, sk, out=wk)
        wk *= sk
        np.add.reduce(wk, axis=-1, out=rho_gg[lo:hi])
    rho_eg = 1j * cmath.exp(1j * amps.phase) * coh
    return AtomicDensityMatrix(*(_item(x.reshape(T.shape))
                                 for x in (rho_ee, rho_gg, rho_eg)))


def bloch_vector(rho: AtomicDensityMatrix) -> BlochVector:
    """Bloch components (frame as in :class:`BlochVector`) and Bloch radius.

    sx = 2 Re rho_eg, sy = 2 Im rho_eg = -<sigma_y>, sz = rho_ee - rho_gg.
    """
    sz = rho.rho_ee - rho.rho_gg
    sx = 2.0 * rho.rho_eg.real
    sy = 2.0 * rho.rho_eg.imag
    eta = np.sqrt(sx * sx + sy * sy + sz * sz)
    bad = ~(eta <= 1.0 + ETA_TOL)  # NaN included
    if np.any(bad):
        raise DomainError(
            f"Bloch radius {_first(eta, bad)!r} is not within 1: invalid density matrix")
    eta = np.minimum(eta, 1.0)  # within tolerance of the sphere: clamp
    return BlochVector(_item(sx), _item(sy), _item(sz), _item(eta))
