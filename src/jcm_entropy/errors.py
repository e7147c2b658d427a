"""Exception types shared across the package, and the input checks that raise them."""

import operator

import numpy as np


class _Located:
    """``index``: the flat position, in the raising call's array input, of
    the first entry that fails the check, or None where the check has no
    such entry (a bad tolerance or count).  ``sweep.run_sweep`` names by it
    the first failing T of the first check to fail, in the first run that
    fails; no stage is re-run, so every value named is the sweep's own."""

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class DomainError(_Located, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PrecisionLossError(_Located, ArithmeticError):
    """A route cannot reach its accuracy.  The library raises it where a Wehrl
    series does not settle to ``series_tol``; the test oracles raise it too."""


def _item(value):
    """A 0-d result as a Python scalar; arrays pass through unchanged."""
    return value if np.ndim(value) else np.asarray(value).item()


def _refuse(bad, message, *values) -> None:
    """Where ``bad`` holds anywhere, raise ``DomainError(message(*entries))``
    with ``index`` i, the flat position of the first such entry, and
    ``entries`` those of ``values`` at i, as Python scalars."""
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DomainError(message(*(np.asarray(v).flat[i].item() for v in values)),
                          index=i)


def _require_finite(name: str, value) -> None:
    _refuse(~np.isfinite(value), lambda x: f"{name} must be finite, got {x!r}", value)


def _check_tolerance(name: str, tol) -> None:
    """A relative tolerance must lie in (0, 1); NaN and inf do not."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {tol!r}")


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
