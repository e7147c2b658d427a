"""Entanglement entropies of the atomic qubit as functions of the Bloch radius.

Three measures are provided, the last two each by a closed form and an
independent power series (the Wehrl oracle routes are in ``husimi``):

* linear entropy        xi    = (1 - eta^2)/2,            range [0, 1/2]
* von Neumann entropy   gamma = -sum mu log mu,           range [0, ln 2]
* atomic Wehrl entropy  W_a,                              range [ln(2pi)+1/2, ln(4pi)]

All of them depend on the Bloch vector only through its length eta, which
is what makes cross-route checking possible.  The closed forms call no
series, so the two routes are independent at every eta.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import ETA_TOL, _check_tolerance, _first, _item
from .errors import DomainError

LN2 = math.log(2.0)
LN4PI = math.log(4.0 * math.pi)
WEHRL_MIN = math.log(2.0 * math.pi) + 0.5       # value at eta = 1
WEHRL_SPAN = LN2 - 0.5                           # ln(4pi) - WEHRL_MIN

_MAX_TERMS = 10 ** 6
_BLOCK_ELEMENTS = 2 ** 13   # series terms held at once
_FIRST_BLOCK = 8            # terms per point in a batch's first block
_TERM_FLOOR = 1e-300


def _check_eta(eta) -> np.ndarray:
    """eta as a float64 array (0-d for a scalar), checked and clamped to 1."""
    eta = np.array(eta, dtype=float)
    bad = ~np.isfinite(eta)
    if bad.any():
        raise DomainError(f"eta must be finite, got {_first(eta, bad)!r}")
    bad = (eta < 0.0) | (eta > 1.0 + ETA_TOL)
    if bad.any():
        raise DomainError(f"eta = {_first(eta, bad)!r} outside [0, 1]")
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


def _sum_series(eta: np.ndarray, denom, series_tol: float) -> np.ndarray:
    """Sum eta^{2n} / denom(n) for each eta, with a relative-term stopping rule.

    Each sum stops at the first n where term < max(series_tol * partial sum,
    1e-300).  Terms are made a block at a time, powers by
    ``np.multiply.accumulate`` and partial sums by ``np.add.accumulate``,
    which keep the order of a term-by-term loop, so every sum is the one that
    loop gives, bit for bit.  Points leave the batch once they stop; blocks
    double in length within ``_BLOCK_ELEMENTS`` terms.  ``series_tol`` is
    checked by the public routes.
    """
    q = (eta * eta).ravel()
    out = np.empty_like(q)
    batch = _BLOCK_ELEMENTS // _FIRST_BLOCK
    for lo in range(0, q.size, batch):
        idx = np.arange(lo, min(lo + batch, q.size))
        power = np.ones(idx.size)
        acc = np.zeros(idx.size)
        n0, length = 1, _FIRST_BLOCK
        while idx.size:
            length = min(length, _BLOCK_ELEMENTS // idx.size, _MAX_TERMS + 1 - n0)
            powers = np.repeat(q[idx, None], length, axis=1)
            powers[:, 0] *= power
            np.multiply.accumulate(powers, axis=1, out=powers)
            terms = powers / denom(np.arange(n0, n0 + length, dtype=float))
            sums = terms.copy()
            sums[:, 0] += acc
            np.add.accumulate(sums, axis=1, out=sums)
            stop = terms < np.maximum(series_tol * sums, _TERM_FLOOR)
            hit = stop.any(axis=1)
            out[idx[hit]] = sums[hit, stop[hit].argmax(axis=1)]
            idx, power, acc = idx[~hit], powers[~hit, -1], sums[~hit, -1]
            n0 += length
            if n0 > _MAX_TERMS:
                out[idx] = acc
                break
            length *= 2
    return out.reshape(eta.shape)


def von_neumann_series(eta, series_tol: float = 1e-14):
    """von Neumann entropy by its series ln 2 - sum eta^{2n}/(2n(2n-1)).

    Serves as the independent cross-check of :func:`von_neumann_entropy`.
    The series converges too slowly at eta = 1, where the closed form is
    exact anyway, so that endpoint is refused.
    """
    _check_tolerance("series_tol", series_tol)
    eta = _check_eta(eta)
    if np.any(eta >= 1.0):
        raise DomainError("von_neumann_series: eta = 1 is out of domain, "
                          "use von_neumann_entropy")
    return _item(LN2 - _sum_series(eta, lambda n: 2 * n * (2 * n - 1), series_tol))


def wehrl_entropy_series(eta, series_tol: float = 1e-14):
    """Atomic Wehrl entropy ln(4pi) - sum eta^{2n}/(2n(2n-1)(2n+1)).

    Terms fall off like n^-3, so the series converges on the whole closed
    interval [0, 1].
    """
    _check_tolerance("series_tol", series_tol)
    eta = _check_eta(eta)
    return _item(LN4PI - _sum_series(
        eta, lambda n: 2 * n * (2 * n - 1) * (2 * n + 1), series_tol))


def wehrl_entropy_closed(eta):
    """Atomic Wehrl entropy in closed form.

    W(eta) = 1/2 + ln(4pi) - ln[(1-eta)(1+eta)]/2 - (1 + eta^2) artanh(eta)/(2 eta)

    One expression for 0 < eta < 1, with the exact ends W(0) = ln(4pi) and
    W(1) = ln(2pi) + 1/2.  ``np.arctanh`` is good to rounding and
    artanh(eta)/eta stays near 1 as eta -> 0, so nothing is amplified by
    1/eta there, not even for subnormal eta; 1 - eta is exact near eta = 1.
    The error stays within a few 1e-15 on all of [0, 1].
    """
    eta = _check_eta(eta)
    out = np.where(eta == 0.0, LN4PI, WEHRL_MIN)
    inner = (eta > 0.0) & (eta < 1.0)
    e = eta[inner]
    out[inner] = (0.5 + LN4PI) - 0.5 * (np.log((1.0 - e) * (1.0 + e))
                                        + (1.0 + e * e) * (np.arctanh(e) / e))
    return _item(out)


def normalized_entropies(gamma, wehrl):
    """Rescaled measures: gamma/ln 2 and (ln(4pi) - W)/(ln 2 - 1/2).

    Exact constants are used; their popular roundings 0.693 and 0.19315
    would shift the endpoints off 0 and 1 by about 1e-4.
    """
    return _item(gamma / LN2), _item((LN4PI - wehrl) / WEHRL_SPAN)


def entropy_record(eta, series_tol: float = 1e-14) -> dict:
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
