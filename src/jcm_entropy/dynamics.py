"""Resonant Jaynes-Cummings dynamics for a coherent field and an excited atom.

Everything is expressed in the scaled time T = t * lambda (coupling-scaled,
dimensionless).  The atom starts in |e>, the field in a coherent state
alpha = |alpha| exp(i*theta); the reduced atomic state is then fully
described by its 2x2 density matrix, equivalently by the Bloch vector.

``reduced_density`` and ``bloch_vector`` take a scalar T or a 1-D array of
times; array fields then hold one value per time, scalar ones are Python
numbers.  On a uniform grid of two or more times ``reduced_density`` sums
the Rabi terms spectrally, by type-1 nonuniform FFTs (Gaussian gridding,
Greengard & Lee, SIAM Rev. 46, 443 (2004)); every other input takes the
direct sums.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from ._exact import _TWO_PI_LO, two_prod, two_sum
from .entropies import ETA_TOL, SERIES_TOL
from .errors import (DomainError, _check_count, _check_quad_orders, _check_tolerance,
                     _item, _refuse, _require_finite)

TRACE_TOL = 1e-12
# |alpha| up to this keeps the photon-number window (within |alpha|^2 + 40|alpha|
# for every fock_tail_tol) below 2**53, so that photon numbers are exact floats.
ALPHA_MAX = 9e7


def _check_coherent_inputs(alpha_mag, alpha_phase, fock_tail_tol) -> None:
    """|alpha| finite and in [0, ALPHA_MAX], its phase finite, fock_tail_tol
    in [the least normal double, 1): the bound on the dropped mass can round
    to a subnormal tolerance itself, which leaves the lower tail no room."""
    _require_finite("alpha_mag", alpha_mag)
    _require_finite("alpha_phase", alpha_phase)
    if not 0.0 <= alpha_mag <= ALPHA_MAX:
        raise DomainError(f"alpha_mag must lie in [0, {ALPHA_MAX:g}], where photon "
                          f"numbers stay below 2**53, got {alpha_mag!r}")
    if not sys.float_info.min <= fock_tail_tol < 1.0:
        raise DomainError(f"fock_tail_tol must be a normal double in "
                          f"[{sys.float_info.min!r}, 1), got {fock_tail_tol!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters for a time sweep: initial field, grid, numeric policies."""

    alpha_mag: float
    alpha_phase: float = 0.0
    t_start: float = 0.0
    t_end: float = 30.0
    t_steps: int = 3000
    fock_tail_tol: float = 1e-12
    series_tol: float = SERIES_TOL
    quad_theta_order: int = 64
    quad_phi_order: int = 128

    def __post_init__(self):
        _check_coherent_inputs(self.alpha_mag, self.alpha_phase, self.fock_tail_tol)
        for name in ("t_start", "t_end"):
            _require_finite(name, getattr(self, name))
        _check_count("t_steps", self.t_steps, 1)
        if self.t_steps > 2 ** 53:
            raise DomainError(f"t_steps must be <= 2**53, where np.linspace's float "
                              f"indices stay exact, got {self.t_steps!r}")
        span = float(self.t_end) - float(self.t_start)  # overflows to inf, silently
        if not 0.0 <= span < math.inf:
            raise DomainError(f"t_end - t_start must be finite and >= 0, got {span!r}")
        _check_tolerance("series_tol", self.series_tol)
        _check_quad_orders(self.quad_theta_order, self.quad_phi_order)
        for f in fields(self):  # as Python numbers, which json.dumps takes
            kind = int if f.type == "int" else float
            object.__setattr__(self, f.name, kind(getattr(self, f.name)))


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
        _refuse(~(np.abs(trace - 1.0) <= TRACE_TOL),
                lambda x: f"trace violation: rho_ee + rho_gg = {x!r}", trace)
        det = self.rho_ee * self.rho_gg - np.abs(self.rho_eg) ** 2
        _refuse(~(det >= -TRACE_TOL), lambda x: "density matrix is not positive "
                f"semidefinite: rho_ee*rho_gg - |rho_eg|^2 = {x!r}", det)


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


def _log_poisson_bound(n: int, mean: float) -> float:
    """An upper bound on ln p_n, p_n = exp(-mean) mean^n / n!, within 1/(12n).

    Stirling's leading term d - n ln(1 + d/mean) - ln(2 pi n)/2, d = n - mean,
    is ln p_n + s_n, with Stirling's error s_n in (1/(12n+1), 1/(12n)).  d is
    exact near the mode (Sterbenz), so no term of the size of mean cancels.
    The tail bounds stay rigorous through rounding: up to |alpha| = 1e4 the
    s_n dropped (8e-10 or more at the window's edges) exceeds the rounding
    (5e-11 or less); above, the geometric factor's slack (about mean/d^2,
    7e-4 or more within 38 standard deviations) exceeds it (6e-7 or less at
    9e7).  ln p_0 = -mean exactly; for n >= 1 it is -inf if mean underflows.
    """
    if n == 0:
        return -mean
    if not mean:
        return -math.inf
    d = n - mean
    return d - n * math.log1p(d / mean) - 0.5 * math.log(2.0 * math.pi * n)


def coherent_amplitudes(alpha_mag: float, alpha_phase: float,
                        fock_tail_tol: float) -> FockAmplitudes:
    """Coherent-state Fock amplitudes C_n = alpha^n exp(-|alpha|^2/2)/sqrt(n!).

    Only photon numbers in a window about |alpha|^2 are kept:
    n_max = ceil(|alpha|^2 + 10|alpha| + 20) and
    n_min = max(0, floor(|alpha|^2 - 10|alpha| - 20)), each widened until a
    bound on the Poisson mass dropped beyond it stays below ``fock_tail_tol``
    (the mass above n_max first, then the two together): a geometric series
    from the edge term, whose ln p_n ``_log_poisson_bound`` bounds.  For a
    tolerance of 1e-21 or more the floor alone sets the window.  The weights
    |C_n| are built by the ratio recurrence outward from the mode
    floor(|alpha|^2), starting from 1 there, and then renormalized by an
    exactly rounded fsum, so nothing underflows at large |alpha|.  The three
    inputs are taken as Python floats (a float32 |alpha| as its double).
    """
    _check_coherent_inputs(alpha_mag, alpha_phase, fock_tail_tol)
    alpha_mag, alpha_phase, fock_tail_tol = (
        float(alpha_mag), float(alpha_phase), float(fock_tail_tol))
    if alpha_mag == 0.0:
        return FockAmplitudes(np.ones(1), 0, 0, alpha_phase, 0.0)

    mean = alpha_mag ** 2

    def upper(n):  # ln of a bound on sum_{k > n} p_k, for n + 2 > mean
        return _log_poisson_bound(n + 1, mean) - math.log1p(-mean / (n + 2))

    def lower(n):  # ln of a bound on sum_{k < n} p_k, for n - 1 < mean
        return _log_poisson_bound(n - 1, mean) - math.log1p(-(n - 1) / mean)

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
    weights /= math.sqrt(math.fsum(memoryview(np.square(weights))))
    return FockAmplitudes(weights, n_min, n_max, alpha_phase, tail_mass)


# Rabi phases per block of times in the direct sums.  It bounds each
# block's temporaries (phases, cosines, sines and products, 64 KiB each),
# so the working memory does not grow with the grid length.
CHUNK_ELEMENTS = 2 ** 13

# The spectral route of reduced_density, taken on every uniform grid of two
# or more times, for a basis of more than one term (every |alpha| > 0 keeps
# at least 21).  It sums the grid as one block, each entry within
# SPECTRAL_TOL of the exact sums at every time; a grid starting at T = 0
# gets the exact initial state.
SPECTRAL_TOL = 1e-13
_GRID_ULPS = 4           # most |T[j] - (T[0] + j*h)|, in ulps of T's larger |end|
_PHASE_LIMIT = 2.0 ** 53  # ulp(phase) >= 2 radians from here; far below two_prod's overflow
_HALF_WIDTH = 16         # Gaussian half-width, in cells of the 2x grid
_SPREAD_ELEMENTS = 2 ** 12  # kernel values spread at once


def _direct_sums(p, q, root, times):
    """rho_ee, rho_gg and the real coherence sum at each of ``times``.

    Times are taken ``CHUNK_ELEMENTS`` phases at a time; each time's sums
    are those of a one-time call, bit for bit.
    """
    rho_ee, rho_gg, coh = (np.empty(times.size) for _ in range(3))
    rows = max(1, min(times.size, CHUNK_ELEMENTS // root.size))
    for lo in range(0, times.size, rows):
        phase = np.multiply.outer(times[lo:lo + rows], root)
        c, s = np.cos(phase), np.sin(phase)
        # products in the order (q*c)*s and (p*c)*c of the one-time formula
        coh[lo:lo + rows] = np.add.reduce(q * c[:, 1:] * s[:, :-1], axis=-1)
        rho_ee[lo:lo + rows] = np.add.reduce(p * c * c, axis=-1)
        rho_gg[lo:lo + rows] = np.add.reduce(p * s * s, axis=-1)
    return rho_ee, rho_gg, coh


def _spectral_sums(p, q, n1, root, T, h):
    """The sums of ``_direct_sums`` on the uniform grid T of step h.

    With r_n = sqrt(n+1), rho_ee - rho_gg = sum p_n cos(2 T r_n) and
    coh = 1/2 sum q_n [sin(T (r_n + r_{n+1})) - sin(T (r_{n+1} - r_n))]: two
    transforms, the population inversion and the coherence, whose two sine
    bands are one band of coefficients q_n and -q_n.  Each sums
    c_n exp(i w_n T) over the grid at times t_k = centre + k h as one type-1
    nonuniform FFT: each term is spread with a Gaussian onto a twice
    oversampled grid (``np.bincount``), the grid is inverse-transformed and
    the Gaussian divided out.  The frequencies are formed in double-double
    and the phases w_n * centre and the nodes w_n h / (2 pi) mod 1 by exact
    products, so no phase carries the rounding of a large product.  A grid
    time differs from its t_k by a skew of a few ulps, which each sum
    follows to first order, its rate sum_n i w_n c_n exp(i w_n t_k) being a
    second row of the same transform.  A grid starting at T = 0 is shifted
    there to the exact initial state, bit for bit the direct route's.
    """
    from numpy.fft import ifft  # loaded only when this route runs

    modes = T.size + T.size % 2
    cells = 2 * modes
    tau = math.pi * _HALF_WIDTH / (3.0 * modes * modes)
    beta = 0.75 * math.pi / _HALF_WIDTH  # (2 pi / cells)^2 / (4 tau)
    k = np.arange(T.size) - modes // 2  # the mode of each time
    deconv = math.sqrt(math.pi / tau) * np.exp(tau * k * k)
    bins = k % cells
    offsets = np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)  # cells about a node's own
    piece = _SPREAD_ELEMENTS // offsets.size
    grid = np.empty((2, cells), complex)

    step = h / (2.0 * math.pi)
    prod, err = two_prod(step, 2.0 * math.pi)
    step_lo = ((h - prod) - err - step * _TWO_PI_LO) / (2.0 * math.pi)
    prod, err = two_prod(root, root)
    root_lo = ((n1 - prod) - err) / (2.0 * root)  # sqrt(n+1) - root
    pair, pair_lo = two_sum(root[:-1], root[1:])
    plus = (q, pair, pair_lo + root_lo[:-1] + root_lo[1:])
    minus = (-q, root[1:] - root[:-1], root_lo[1:] - root_lo[:-1])
    bands = [(p, 2.0 * root, 2.0 * root_lo), tuple(map(np.concatenate, zip(plus, minus)))]
    del prod, err, root_lo, pair, pair_lo, plus, minus

    centre = T[0] + (modes // 2) * h  # the time of mode 0
    # skew = T - (centre + k h), exact to rounding
    diff, diff_err = two_sum(T, -centre)
    kh, kh_err = two_prod(k.astype(float), h)
    skew = (diff - kh) + (diff_err - kh_err)

    sums = []  # sum_n c_n exp(i w_n T) at the grid's times, per band
    for c, w, w_lo in bands:
        # the nodes node + node_lo: the phase advance (w + w_lo) h / (2 pi)
        # mod 1 of each frequency over one grid step, in cells of the fine
        # grid, in [-cells/2, cells/2], carried in double-double so that mode
        # indices up to half a long grid multiply no rounding of it
        prod, err = two_prod(w, step)
        node, node_lo = two_prod(prod - np.rint(prod), cells)
        node_lo += (err + w * step_lo + w_lo * step) * cells
        grid.fill(0.0)
        for s in range(0, w.size, piece):
            e = s + piece
            prod, err = two_prod(w[s:e], centre)
            a = c[s:e] * np.exp(1j * prod) * (1.0 + 1j * (err + w_lo[s:e] * centre))
            cell = np.floor(node[s:e])
            frac = (node[s:e] - cell) + node_lo[s:e]
            kernel = np.exp(-beta * (offsets - frac[:, None]) ** 2)
            index = ((cell.astype(np.intp)[:, None] + offsets) % cells).ravel()
            # the sum, and its rate
            for row, x in zip(grid, (a, a * w[s:e])):
                row.real += np.bincount(index, (x.real[:, None] * kernel).ravel(), cells)
                row.imag += np.bincount(index, (x.imag[:, None] * kernel).ravel(), cells)
        for row in grid:  # one row a call: a batched call faults in a buffer
            ifft(row, out=row)
        value, rate = grid[:, bins]
        value *= deconv
        rate *= deconv
        value += 1j * skew * rate  # first order in the skew
        sums.append(value)

    total = np.add.reduce(p)
    inversion = sums[0].real  # rho_ee - rho_gg
    sine = sums[1].imag
    if T[0] == 0.0:  # the exact initial state: total - inversion[0] is exact
        inversion += total - inversion[0]
        sine -= sine[0]
    return 0.5 * (total + inversion), 0.5 * (total - inversion), 0.5 * sine


def reduced_density(amps: FockAmplitudes, T) -> AtomicDensityMatrix:
    """Reduced atomic density matrix of the resonant model at scaled time T.

    T is a scalar or a 1-D array.  With p_n = |C_n|^2 and
    |q_n| = |C_{n+1}||C_n|, and the Rabi phase T*sqrt(n+1) of photon number n:
    rho_ee = sum p_n cos^2, rho_gg = sum p_n sin^2 and
    rho_eg = i exp(i*theta) sum |q_n| cos(T sqrt(n+2)) sin(T sqrt(n+1)).

    Direct route: the sums term by term, each time's value that of a scalar
    call, bit for bit.  It rounds each Rabi phase, with an error of about
    ulp(T*sqrt(n_max+1)) per term (at large |alpha| the rounding of
    sqrt(n+1) adds about as much), so its sums drift from the exact ones as
    T grows: by up to 4e-11 at |alpha| = 1000, T = 3 revival times.

    Spectral route (``_spectral_sums``), taken on every uniform 1-D grid
    of two or more times with a nonzero step, on a basis of more than one
    term: each T[j] within ``_GRID_ULPS`` ulps (of T's larger |end|) of
    T[0] + j*h, as in every ``np.linspace`` output and so in every run of
    ``run_sweep`` of two or more points.  It forms every phase and node
    exactly, so each entry lies within ``SPECTRAL_TOL`` of the exact sums
    at any grid length while T*sqrt(n_max+1) stays below 1e9.  Phases from
    1e9 up to the 2**53 refusal are accepted with no stated tolerance: at
    |alpha| = 30 an entry was 6.1e-10 off at phase 3.5e11 (the worst of one
    4000-time grid, a sample, not a bound) and 5.6e-3 off at 3.5e15, the
    second-order remainders of the first-order phase and skew corrections.
    A grid starting at T = 0 gets there the exact initial state, the direct
    route's bits.  It sums the grid as one block by two transforms, the
    population inversion and the coherence, with working memory of about
    200 B a time.  Scalars, one time, non-uniform or multi-dimensional
    arrays, grids with equal ends and the vacuum take the direct route.

    A T at which T*sqrt(n_max+1) overflows, or reaches 2**53, where the
    phase's ulp is 2 radians and the direct sums keep no digit, is refused
    with a DomainError on either route, whatever grid it arrives in.
    """
    T = np.asarray(T, dtype=float)
    _require_finite("T", T)
    w = amps.weights
    n1 = np.arange(amps.n_min + 1.0, amps.n_max + 2.0)
    root = np.sqrt(n1)
    with np.errstate(over="ignore"):
        phase = np.abs(T) * root[-1]
    _refuse(~np.isfinite(phase), lambda t: "Rabi phase T*sqrt(n+1) overflows for "
            f"T = {t!r}, n = {amps.n_max}", T)
    _refuse(phase >= _PHASE_LIMIT, lambda worst, t: (
        f"Rabi phase T*sqrt(n+1) = {worst!r} for T = {t!r}, "
        f"n = {amps.n_max} has an ulp of {math.ulp(worst)!r}: its cosine and sine "
        f"keep no digit (refused from 2**53 on)"), phase, T)
    p = w * w
    q = w[1:] * w[:-1]
    h = None
    if w.size > 1 and T.size > 1 and T.ndim == 1:
        step = (T[-1] - T[0]) / (T.size - 1)
        off = np.abs(T - (T[0] + step * np.arange(T.size))).max()
        if step != 0.0 and off <= _GRID_ULPS * np.spacing(max(abs(T[0]), abs(T[-1]))):
            h = step
    if h is None:
        rho_ee, rho_gg, coh = _direct_sums(p, q, root, T.reshape(-1))
    else:
        rho_ee, rho_gg, coh = _spectral_sums(p, q, n1, root, T, h)
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
    _refuse(~(eta <= 1.0 + ETA_TOL),  # NaN included
            lambda x: f"Bloch radius {x!r} is not within 1: invalid density matrix", eta)
    eta = np.minimum(eta, 1.0)  # within tolerance of the sphere: clamp
    return BlochVector(_item(sx), _item(sy), _item(sz), _item(eta))
