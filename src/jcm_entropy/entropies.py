"""Entanglement entropies of the atomic qubit as functions of the Bloch radius.

Three measures are provided, the last two each by a closed form and an
independent power series, summed as one Beta integral (the Wehrl entropy's
quadrature oracle is in ``husimi``):

* linear entropy        xi    = (1 - eta^2)/2,            range [0, 1/2]
* von Neumann entropy   gamma = -sum mu log mu,           range [0, ln 2]
* atomic Wehrl entropy  W_a,                              range [ln(2pi)+1/2, ln(4pi)]

All of them depend on the Bloch vector only through its length eta, which
is what makes cross-route checking possible.  The closed forms call no
series and the series no logarithm, so the routes are independent at every eta.
On all of [0, 1], against 50-digit values, the Wehrl closed form is within
``WEHRL_CLOSED_ERROR`` (5e-15) and both series within ``SERIES_ERROR`` (2e-15).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dynamics import ETA_TOL, SERIES_TOL
from .errors import PrecisionLossError, _check_tolerance, _item, _refuse, _require_finite

LN2 = math.log(2.0)
LN4PI = math.log(4.0 * math.pi)
WEHRL_MIN = math.log(2.0 * math.pi) + 0.5       # value at eta = 1
WEHRL_SPAN = LN4PI - WEHRL_MIN                   # ln 2 - 1/2 to 4 ulps
WEHRL_CLOSED_ERROR = 5e-15  # stated error of wehrl_entropy_closed
SERIES_ERROR = 2e-15        # stated error of both series at series_tol <= SERIES_TOL

# The tanh-sinh rule of _sum_series: nodes x = j*h on |x| <= _X_MAX, where the
# weight ds/dx is below 1e-15, with h = 1, 1/2, ... halved up to _HALVINGS times.
_X_MAX = 3.2
_HALVINGS = 6


def _check_eta(eta) -> np.ndarray:
    """eta as a float64 array (0-d for a scalar), checked and clamped to 1."""
    eta = np.array(eta, dtype=float)
    _require_finite("eta", eta)
    _refuse((eta < 0.0) | (eta > 1.0 + ETA_TOL),
            lambda x: f"eta = {x!r} outside [0, 1]", eta)
    return np.minimum(eta, 1.0, out=eta)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 ln 0 = 0."""
    return x * np.log(x, out=np.zeros_like(x), where=x > 0.0)


def linear_entropy(eta):
    """Linear entropy (1 - eta^2)/2; 0 for pure, 1/2 for maximally mixed."""
    eta = _check_eta(eta)
    return _item(0.5 * (1.0 - eta * eta))


def von_neumann_entropy(eta):
    """von Neumann entropy from the eigenvalues (1 +- eta)/2, in nats."""
    eta = _check_eta(eta)
    return _item(0.0 - _xlogx(0.5 * (1.0 + eta)) - _xlogx(0.5 * (1.0 - eta)))


@functools.cache
def _level(power: int, k: int) -> tuple:
    """(1 - t^2, (1-t)^power ds/dx) at the nodes x = j/2**k that the k-th
    halving adds: every j for k = 0, the odd j after.  s = 1 - t is taken
    straight from s = 1/(1 + exp(-pi sinh x)), so neither end cancels."""
    m = math.floor(_X_MAX * 2 ** k)
    j = np.arange(-m, m + 1)
    x = j[(j % 2 == 1) | (k == 0)] * 2.0 ** -k
    e = np.exp(-math.pi * np.sinh(x))
    s = 1.0 / (1.0 + e)
    w = s ** power * (math.pi * np.cosh(x) * s * (e / (1.0 + e)))
    return tuple(zip((s * (2.0 - s)).tolist(), w.tolist()))


def _sum_series(eta, power: int, series_tol: float) -> np.ndarray:
    """sum_{n>=1} eta^{2n} B(2n-1, power+1) for each eta, by its integral.

    As B(2n-1, p+1) = int_0^1 t^{2n-2} (1-t)^p dt, the sum is eta^2 times
    int_0^1 (1-t)^p / ((1-eta)(1+eta) + eta^2 (1-t^2)) dt, where nothing
    cancels, up to eta = 1.  The tanh-sinh rule (Takahasi & Mori, Publ. RIMS
    9, 721 (1974)) sums it node by node, so temporaries stay the size of
    ``eta``.  Each point keeps the value of the first halving of h that moves
    it by at most ``series_tol`` of itself; a point that has not settled
    after ``_HALVINGS`` halvings raises PrecisionLossError, naming the first
    such eta.  The only operations on eta are + * /, so each point gets the
    bits of a one-point call, and no logarithm, artanh or closed form enters.
    """
    _check_tolerance("series_tol", series_tol)
    eta = _check_eta(eta)
    q = (eta * eta).ravel()
    c = ((1.0 - eta) * (1.0 + eta)).ravel()
    out, idx, acc = np.empty_like(q), np.arange(q.size), np.zeros(q.size)
    last = np.inf  # no point settles on the first level
    for k in range(_HALVINGS + 1):
        for a, w in _level(power, k):
            acc += w / (c + q * a)
        value = acc * 2.0 ** -k
        done = np.abs(value - last) <= series_tol * value
        out[idx[done]] = q[done] * value[done]
        idx, q, c, acc, last = (v[~done] for v in (idx, q, c, acc, value))
        if not idx.size:
            return out.reshape(eta.shape)
    i = int(idx[0])
    raise PrecisionLossError(
        f"series has not met series_tol = {series_tol!r} after {_HALVINGS} "
        f"halvings of the step at eta = {eta.flat[i].item()!r}", index=i)


def von_neumann_series(eta, series_tol: float = SERIES_TOL):
    """von Neumann entropy ln 2 - sum eta^{2n}/(2n(2n-1)) on all of [0, 1], the
    independent cross-check of :func:`von_neumann_entropy`; 1/(2n(2n-1)) = B(2n-1, 2)."""
    return _item(LN2 - _sum_series(eta, 1, series_tol))


def wehrl_entropy_series(eta, series_tol: float = SERIES_TOL):
    """Atomic Wehrl entropy ln(4pi) - sum eta^{2n}/(2n(2n-1)(2n+1)) on all of
    [0, 1]; 1/(2n(2n-1)(2n+1)) = B(2n-1, 3)/2."""
    return _item(LN4PI - 0.5 * _sum_series(eta, 2, series_tol))


def wehrl_entropy_closed(eta):
    """Atomic Wehrl entropy in closed form.

    W(eta) = 1/2 + ln(4pi) - ln[(1-eta)(1+eta)]/2 - (1 + eta^2) artanh(eta)/(2 eta)

    One expression for 0 < eta < 1, with the exact ends W(0) = ln(4pi) and
    W(1) = ln(2pi) + 1/2.  ``np.arctanh`` is good to rounding and
    artanh(eta)/eta stays near 1 as eta -> 0, so nothing is amplified by
    1/eta there, not even for subnormal eta; 1 - eta is exact near eta = 1.
    The error stays within ``WEHRL_CLOSED_ERROR`` (5e-15) on all of [0, 1].
    """
    e = _check_eta(eta)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0, inf - inf at the ends
        w = (0.5 + LN4PI) - 0.5 * (np.log((1.0 - e) * (1.0 + e))
                                   + (1.0 + e * e) * (np.arctanh(e) / e))
    return _item(np.where(e == 0.0, LN4PI, np.where(e == 1.0, WEHRL_MIN, w)))


def normalized_entropies(gamma, wehrl):
    """Rescaled measures: gamma/ln 2 and (ln(4pi) - W)/(ln 2 - 1/2).

    Exact constants are used; their popular roundings 0.693 and 0.19315
    would shift the endpoints off 0 and 1 by about 1e-4.  The Wehrl span is
    formed from the two rounded ends ln(4pi) and ln(2pi) + 1/2, so each end
    normalizes to exactly 0 or 1.
    """
    return _item(gamma / LN2), _item((LN4PI - wehrl) / WEHRL_SPAN)


def entropy_record(eta, series_tol: float = SERIES_TOL) -> dict:
    """Every measure (both Wehrl routes) at one eta or a grid of them.

    The six entropy columns of a sweep, keyed by column name; each has the
    shape of ``eta``, and a scalar ``eta`` gives Python floats.
    """
    gamma = von_neumann_entropy(eta)
    w_closed = wehrl_entropy_closed(eta)
    gamma_norm, wehrl_norm = normalized_entropies(gamma, w_closed)
    return {"xi": linear_entropy(eta), "gamma": gamma, "wehrl_closed": w_closed,
            "wehrl_series": wehrl_entropy_series(eta, series_tol),
            "gamma_norm": gamma_norm, "wehrl_norm": wehrl_norm}
