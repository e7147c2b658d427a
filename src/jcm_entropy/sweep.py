"""Time sweeps over the scaled-time grid and machine-readable output."""

from __future__ import annotations

import errno
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import dynamics, entropies, husimi
from .errors import DomainError, PrecisionLossError

BASE_COLUMNS = ("t", "sx", "sy", "sz", "eta", "xi", "gamma",
                "wehrl_closed", "wehrl_series", "gamma_norm", "wehrl_norm")
_AFTER_SERIES = BASE_COLUMNS.index("wehrl_series") + 1
ORACLE_COLUMNS = (BASE_COLUMNS[:_AFTER_SERIES] + ("wehrl_quadrature",)
                  + BASE_COLUMNS[_AFTER_SERIES:])
# Most grid points in a run of a sweep.  A run's temporaries, the spectral
# route's included (about 200 B a time), grow with this, not with the grid.
RUN_POINTS = 2 ** 12


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as one float64 array per output column, keyed in column order."""

    config: dynamics.SimulationConfig
    data: dict[str, np.ndarray]

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.data)


def run_sweep(config: dynamics.SimulationConfig,
              with_oracle: bool = False) -> SweepResult:
    """Evaluate the full entropy record on an evenly spaced time grid.

    The Fock amplitudes are built once.  The grid is then cut into the
    fewest runs of at most ``RUN_POINTS`` points, whose lengths differ by at
    most one, so temporaries grow with that, not the grid; for each run the
    Bloch vector, the entropies and, when ``with_oracle`` is set, the slow
    spherical quadrature are each computed at once, into columns allocated
    for the whole grid.  Each run's points are ``np.linspace`` of its own
    ends, so each run with unequal ends takes the spectral route: ``t`` is
    ``np.linspace(t_start, t_end, t_steps)`` on a sweep of one run, and
    inside the runs of a longer one moves off it by up to 3 ulps of its
    larger |end| (the worst of 20000 random grids; 1 on most).

    No stage runs twice.  A DomainError or PrecisionLossError is raised
    again, as an error of its type, as ``at T = <t>: <its message>``: <t>
    is the grid point at its ``index``, the first failing entry of the
    first check to fail, in the first run that fails.  Every value named
    is the sweep's own.
    """
    amps = dynamics.coherent_amplitudes(
        config.alpha_mag, config.alpha_phase, config.fock_tail_tol)
    quad = None
    if with_oracle:
        quad = husimi.SphereQuadrature(config.quad_theta_order,
                                       config.quad_phi_order)

    t = np.linspace(config.t_start, config.t_end, config.t_steps)
    columns = ORACLE_COLUMNS if with_oracle else BASE_COLUMNS
    data = {"t": t, **{name: np.empty(t.size) for name in columns[1:]}}
    runs = -(-t.size // RUN_POINTS)
    for k in range(runs):
        lo, hi = k * t.size // runs, (k + 1) * t.size // runs
        t[lo:hi] = np.linspace(t[lo], t[hi - 1], hi - lo)  # uniform on its own ends
        try:
            b = dynamics.bloch_vector(dynamics.reduced_density(amps, t[lo:hi]))
            values = {**vars(b), **entropies.entropy_record(b.eta, config.series_tol)}
            if with_oracle:
                values["wehrl_quadrature"] = husimi.wehrl_entropy_quadrature(b, quad)
        except (DomainError, PrecisionLossError) as exc:
            raise type(exc)(f"at T = {t[lo + exc.index].item()!r}: {exc}") from exc
        for name in columns[1:]:
            data[name][lo:hi] = values[name]
        del b, values  # before the next run of points is computed
    return SweepResult(config=config, data=data)


def _render_csv(result: SweepResult) -> list[bytes]:
    """The CSV text as bytes: the header, then the rows block by block,
    each value ``"%.17g" % x`` byte for byte."""
    from . import _g17  # loaded only when a sweep is rendered: not on import

    header = (",".join(result.columns) + "\n").encode()
    return [header, *_g17.render(list(result.data.values()), ",", "\n")]


def _render_structured(result: SweepResult) -> list[bytes]:
    """``json.dumps(payload, indent=2) + "\\n"`` for the payload of config,
    columns and rows, byte for byte, as bytes.

    The head is ``json.dumps`` of the payload with no rows.  The rows, the
    bulk of the text, are rendered block by block, each value as
    ``json.dumps`` gives a float, followed by ``;`` within a row and ``|``
    at its end, bytes that no float's text holds; each block's ends are
    then replaced by the indented separators, and the last row's by the
    payload's closing lines.
    """
    import json  # loaded only when a sweep is rendered as JSON

    from . import _g17

    value_sep, row_sep = b",\n      ", b"\n    ],\n    [\n      "
    head = json.dumps({"config": asdict(result.config), "columns": list(result.columns),
                       "rows": []}, indent=2) + "\n"
    blocks = [block.replace(b";", value_sep).replace(b"|", row_sep)
              for block in _g17.render(list(result.data.values()), ";", "|", shortest=True)]
    if not blocks:
        return [head.encode()]
    blocks[-1] = blocks[-1][:-len(row_sep)] + b"\n    ]\n  ]\n}\n"
    return [head[:-4].encode() + b"\n    [\n      ", *blocks]


def emit(result: SweepResult, format: str = "csv", path: str | None = None) -> None:
    """Write a sweep as CSV or structured JSON, to a path or stdout.

    The text is rendered before any byte is written, so only a render failure
    leaves nothing written; a failed write leaves what it wrote and raises
    OSError naming the path or stdout.  Parts go as bytes to the file or to
    ``sys.stdout.buffer``, flushed before this returns, or as text to a
    stdout with no buffer; a closed stdout fails as a closed fd does.
    """
    if format == "csv":
        parts = _render_csv(result)
    elif format == "structured":
        parts = _render_structured(result)
    else:
        raise ValueError(f"unknown format {format!r}")

    try:
        if path is not None:
            with open(path, "wb") as fh:
                fh.writelines(parts)
        elif sys.stdout is None:  # Python's stdout where fd 1 was closed
            raise OSError(errno.EBADF, "Bad file descriptor")
        elif (buffer := getattr(sys.stdout, "buffer", None)) is not None:
            sys.stdout.flush()
            buffer.writelines(parts)
            buffer.flush()  # so that a failure is this write's, not the exit's
        else:
            sys.stdout.writelines(part.decode() for part in parts)
    except OSError as exc:
        dest = "stdout" if path is None else repr(path)
        raise OSError(f"cannot write sweep output to {dest}: {exc}") from exc
