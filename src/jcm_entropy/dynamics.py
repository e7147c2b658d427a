"""Resonant Jaynes-Cummings dynamics for a coherent field and an excited atom.

Everything is expressed in the scaled time T = t * lambda (coupling-scaled,
dimensionless).  The atom starts in |e>, the field in a coherent state
alpha = |alpha| exp(i*theta); the reduced atomic state is then fully
described by its 2x2 density matrix, equivalently by the Bloch vector.

``reduced_density`` and ``bloch_vector`` take a scalar T or a 1-D array of
times; array fields then hold one value per time, scalar ones are Python
numbers.  On a long uniform grid ``reduced_density`` sums the Rabi terms
spectrally, by type-1 nonuniform FFTs (Gaussian gridding, Greengard & Lee,
SIAM Rev. 46, 443 (2004)); every other input takes the direct sums.
"""

from __future__ import annotations

import cmath
import math
import operator
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


def _check_tolerance(name: str, tol) -> None:
    """A relative tolerance must lie in (0, 1); NaN and inf do not."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {tol!r}")


def _check_coherent_inputs(alpha_mag, alpha_phase, fock_tail_tol) -> None:
    """|alpha| finite and nonnegative, its phase finite, fock_tail_tol in (0, 1)."""
    _require_finite("alpha_mag", alpha_mag)
    _require_finite("alpha_phase", alpha_phase)
    if alpha_mag < 0:
        raise DomainError("alpha_mag must be nonnegative")
    _check_tolerance("fock_tail_tol", fock_tail_tol)


def _check_count(name: str, value, least: int) -> None:
    """An integer (a numpy one too) of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")


def _check_quad_orders(theta_order, phi_order) -> None:
    """The oracle quadrature needs at least 2 nodes in cos(theta) and 4 in phi."""
    _check_count("theta_order", theta_order, 2)
    _check_count("phi_order", phi_order, 4)


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
        _check_coherent_inputs(self.alpha_mag, self.alpha_phase, self.fock_tail_tol)
        for name in ("t_start", "t_end"):
            _require_finite(name, getattr(self, name))
        _check_count("t_steps", self.t_steps, 1)
        if self.t_end < self.t_start:
            raise DomainError("t_end must not precede t_start")
        _check_tolerance("series_tol", self.series_tol)
        _check_quad_orders(self.quad_theta_order, self.quad_phi_order)


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
    _check_coherent_inputs(alpha_mag, alpha_phase, fock_tail_tol)
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


# Rabi phases per block of times in the direct sums.  It bounds each
# block's temporaries (phases, cosines, sines and products, 64 KiB each),
# so the working memory does not grow with the grid length.
CHUNK_ELEMENTS = 2 ** 13

# The spectral route of reduced_density.  It is taken on a uniform grid of
# at least SPECTRAL_MIN_TIMES times and SPECTRAL_MIN_PHASES Rabi phases
# (times x basis terms), where it measured faster than the direct sums, and
# for a basis of more than one term (every |alpha| > 0 keeps at least 21).
# It works through the grid SPECTRAL_BLOCK times at a time.  SPECTRAL_TOL
# bounds, against the exact sums, how far each of rho_ee, rho_gg and rho_eg
# moves from its value at the block anchor.
SPECTRAL_MIN_TIMES = 2 ** 7
SPECTRAL_MIN_PHASES = 2 ** 17
SPECTRAL_BLOCK = 2 ** 12
SPECTRAL_TOL = 1e-13
_GRID_ULPS = 4           # a uniform grid lies within this of T[0] + j*h
# a phase's ulp is 2 radians or more from here on; the limit also keeps the
# spectral route's exact products far below their overflow at about 1.3e300
_PHASE_LIMIT = 2.0 ** 53
_HALF_WIDTH = 16         # Gaussian half-width, in cells of the 2x grid
_SPREAD_ELEMENTS = 2 ** 12  # kernel values spread at once
_SPLITTER = 2.0 ** 27 + 1.0
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)


def _split(a):
    """a = hi + lo exactly, hi holding at most 26 significant bits (Dekker)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_sum(a, b):
    """a + b = s + e exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """a * b = p + e exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


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


def _grid_step(T: np.ndarray):
    """The step h of a uniform grid T[j] = T[0] + j*h, h nonzero, or None.

    ``np.linspace`` output and any run of its points lie within a few ulps
    of such a grid; ``_GRID_ULPS`` ulps of the larger end are allowed.
    """
    if T.ndim != 1 or T.size < 3:
        return None
    h = (T[-1] - T[0]) / (T.size - 1)
    if h == 0.0:
        return None
    reach = max(abs(T[0]), abs(T[-1]))
    off = np.abs(T - (T[0] + h * np.arange(T.size)))
    return h if off.max() <= _GRID_ULPS * np.spacing(reach) else None


def _nodes(w, w_lo, step, step_lo, cells):
    """NUFFT nodes of the frequencies w + w_lo (double-double).

    A node is the phase advance of a frequency over one grid step,
    (w + w_lo) h / (2 pi) mod 1 with h / (2 pi) = step + step_lo, here in
    cells of the fine grid, in [-cells/2, cells/2].
    """
    prod, err = _two_prod(w, step)
    return ((prod - np.rint(prod)) + (err + w * step_lo + w_lo * step)) * cells


def _spectral_sums(p, q, n1, root, T, h):
    """The sums of ``_direct_sums`` on the uniform grid T of step h.

    With r_n = sqrt(n+1), rho_ee - rho_gg = sum p_n cos(2 T r_n) and
    coh = 1/2 sum q_n [sin(T (r_n + r_{n+1})) - sin(T (r_{n+1} - r_n))]: three
    sums sum c_n exp(i w_n T), each summed over a block of times t_k =
    centre + k h as a type-1 nonuniform FFT: each term is spread with a
    Gaussian onto a twice oversampled grid (``np.bincount``), the grid is
    inverse-transformed and the Gaussian divided out.  The frequencies are
    formed in double-double and the phases w_n * centre and the nodes
    w_n h / (2 pi) mod 1 by exact products, so no phase carries the
    rounding of a large product.  A grid time differs from its t_k by a
    skew of a few ulps, which each sum follows to first order: a second
    transform gives its rate sum_n i w_n c_n exp(i w_n t_k), with the
    mid-band w_n taken out of the weights to keep them small.  A block is
    anchored at its first time: there the direct sums are taken, and
    elsewhere in the block those values plus the spectral change since the
    anchor, which is 0 at the anchor itself.
    """
    from numpy.fft import ifft  # loaded only when this route runs

    blocks = -(-T.size // SPECTRAL_BLOCK)
    size = -(-T.size // blocks)  # times a block, fewer in the last
    modes = size + size % 2
    cells = 2 * modes
    tau = math.pi * _HALF_WIDTH / (3.0 * modes * modes)
    beta = 0.75 * math.pi / _HALF_WIDTH  # (2 pi / cells)^2 / (4 tau)
    k = np.arange(size) - modes // 2  # the mode of each time of a block
    deconv = math.sqrt(math.pi / tau) * np.exp(tau * k * k)
    bins = k % cells
    offsets = np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)  # cells about a node's own
    piece = _SPREAD_ELEMENTS // offsets.size
    grid = np.empty((2, cells), complex)

    step = h / (2.0 * math.pi)
    prod, err = _two_prod(step, 2.0 * math.pi)
    step_lo = ((h - prod) - err - step * _TWO_PI_LO) / (2.0 * math.pi)
    prod, err = _two_prod(root, root)
    root_lo = ((n1 - prod) - err) / (2.0 * root)  # sqrt(n+1) - root
    pair, pair_lo = _two_sum(root[:-1], root[1:])
    bands = [(p, 2.0 * root, 2.0 * root_lo),
             (q, pair, pair_lo + root_lo[:-1] + root_lo[1:]),
             (q, root[1:] - root[:-1], root_lo[1:] - root_lo[:-1])]
    bands = [(c, w, w_lo, _nodes(w, w_lo, step, step_lo, cells)) for c, w, w_lo in bands]
    del prod, err, root_lo, pair, pair_lo

    def band_sum(band, centre, skew):
        """sum_n c_n exp(i w_n T) at the block's times."""
        c, w, w_lo, node = band
        mid = w[w.size // 2]
        grid.fill(0.0)
        for s in range(0, w.size, piece):
            e = s + piece
            prod, err = _two_prod(w[s:e], centre)
            a = c[s:e] * np.exp(1j * prod) * (1.0 + 1j * (err + w_lo[s:e] * centre))
            cell = np.floor(node[s:e])
            kernel = np.exp(-beta * (offsets - (node[s:e] - cell)[:, None]) ** 2)
            index = ((cell.astype(np.intp)[:, None] + offsets) % cells).ravel()
            # the sum, and its rate less mid-band times it
            for row, x in zip(grid, (a, a * (w[s:e] - mid))):
                row.real += np.bincount(index, (x.real[:, None] * kernel).ravel(), cells)
                row.imag += np.bincount(index, (x.imag[:, None] * kernel).ravel(), cells)
        ifft(grid, axis=-1, out=grid)
        value, rate = grid[:, bins[:skew.size]]
        value *= deconv[:skew.size]
        rate *= deconv[:skew.size]
        value += 1j * skew * (mid * value + rate)  # first order in the skew
        return value

    rho_ee, rho_gg, coh = (np.empty(T.size) for _ in range(3))
    anchor_ee, anchor_gg, anchor_coh = _direct_sums(p, q, root, T[::size])
    for b, lo in enumerate(range(0, T.size, size)):
        times = T[lo:lo + size]
        centre = times[0] + (modes // 2) * h  # the time of mode 0
        # skew = times - (centre + k h), exact to rounding
        diff, diff_err = _two_sum(times, -centre)
        kh, kh_err = _two_prod(k[:times.size].astype(float), h)
        skew = (diff - kh) + (diff_err - kh_err)
        change = band_sum(bands[0], centre, skew).real  # of rho_ee - rho_gg
        change -= change[0]
        sine = band_sum(bands[1], centre, skew).imag
        sine -= band_sum(bands[2], centre, skew).imag
        sine -= sine[0]
        rho_ee[lo:lo + size] = anchor_ee[b] + 0.5 * change
        rho_gg[lo:lo + size] = anchor_gg[b] - 0.5 * change
        coh[lo:lo + size] = anchor_coh[b] + 0.5 * sine
    return rho_ee, rho_gg, coh


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

    Spectral route (``_spectral_sums``), taken when T is a uniform 1-D grid
    with a nonzero step (``np.linspace`` output or a run of its points) of
    at least ``SPECTRAL_MIN_TIMES`` times and ``SPECTRAL_MIN_PHASES`` phases
    T.size * basis.  It forms every phase exactly, so from each block
    anchor (one every ``SPECTRAL_BLOCK`` times or fewer, the first time
    included) each entry changes to within ``SPECTRAL_TOL`` of the exact
    sums' change, while T*sqrt(n_max+1) stays below 1e9; at the anchors it
    equals the direct route.  A scalar, a non-uniform array or
    a short grid takes the direct route.

    A T at which T*sqrt(n_max+1) overflows, or reaches 2**53, where the
    phase's ulp is 2 radians and the direct sums (the spectral route's
    anchors included) keep no digit, is refused with a DomainError.
    """
    T = np.asarray(T, dtype=float)
    _require_finite("T", T)
    w = amps.weights
    n1 = np.arange(amps.n_min + 1.0, amps.n_max + 2.0)
    root = np.sqrt(n1)
    with np.errstate(over="ignore"):
        phase = np.abs(T) * root[-1]
    bad = ~np.isfinite(phase)
    if np.any(bad):
        raise DomainError(f"Rabi phase T*sqrt(n+1) overflows for T = {_first(T, bad)!r}, "
                          f"n = {amps.n_max}")
    bad = phase >= _PHASE_LIMIT
    if np.any(bad):
        worst = _first(phase, bad)
        raise DomainError(
            f"Rabi phase T*sqrt(n+1) = {worst!r} for T = {_first(T, bad)!r}, "
            f"n = {amps.n_max} has an ulp of {math.ulp(worst)!r}: its cosine and sine "
            f"keep no digit (refused from 2**53 on)")
    p = w * w
    q = w[1:] * w[:-1]
    h = None
    if (w.size > 1 and T.size >= SPECTRAL_MIN_TIMES
            and T.size * w.size >= SPECTRAL_MIN_PHASES):
        h = _grid_step(T)
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
    bad = ~(eta <= 1.0 + ETA_TOL)  # NaN included
    if np.any(bad):
        raise DomainError(
            f"Bloch radius {_first(eta, bad)!r} is not within 1: invalid density matrix")
    eta = np.minimum(eta, 1.0)  # within tolerance of the sphere: clamp
    return BlochVector(_item(sx), _item(sy), _item(sz), _item(eta))
