"""Output checker for the benchmark, with a frozen copy of the seed physics.

Every measured run's output goes through :func:`check_output`.  It checks
the output contract (exact header and column order, row count, the ``t``
grid, ``.17g`` formatting for CSV, ``config``/``columns``/``rows`` for
JSON), the identities every row must satisfy, and the values at sampled T
against formulas copied from the library as it stood when the benchmark
was defined.  Those formulas are pinned by ``seed_reference.json``, values
written by that library, so a later change to ``src/`` is compared with
the physics it started from.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

BASE_COLUMNS = ("t", "sx", "sy", "sz", "eta", "xi", "gamma",
                "wehrl_closed", "wehrl_series", "gamma_norm", "wehrl_norm")
ORACLE_COLUMNS = ("t", "sx", "sy", "sz", "eta", "xi", "gamma",
                  "wehrl_closed", "wehrl_series", "wehrl_quadrature",
                  "gamma_norm", "wehrl_norm")

LN2 = math.log(2.0)
LN4PI = math.log(4.0 * math.pi)
WEHRL_MIN = math.log(2.0 * math.pi) + 0.5
WEHRL_SPAN = LN2 - 0.5

# Tolerances.  Identities hold to rounding, so 1e-12 admits any reordering
# of the arithmetic.  The seed's closed and series Wehrl routes differ by up
# to 3.9e-11 (series stopping rule near eta = 1); its 64x128 quadrature is
# off by up to 2.9e-8 at eta = 1.  Against the frozen reference, 1e-10 on
# the Bloch vector and 1e-8 on the entropies admit last-ulp refactors and
# the known near-eta = 1 corrections (about 5e-9) but no change of physics.
IDENTITY_TOL = 1e-12
T_GRID_RTOL = 1e-12
ROUTE_TOL = 1e-9
QUADRATURE_TOL = 1e-7
BLOCH_REF_TOL = 1e-10
ENTROPY_REF_TOL = 1e-8
REFERENCE_SAMPLES = 16

_SEED_REFERENCE = Path(__file__).with_name("seed_reference.json")


# --- frozen seed formulas -------------------------------------------------

def fock_amplitudes(alpha_mag: float, alpha_phase: float,
                    tail_tol: float = 1e-12) -> np.ndarray:
    """Coherent-state coefficients by the seed's recurrence and truncation."""
    if alpha_mag == 0.0:
        return np.array([1.0 + 0.0j])
    alpha = alpha_mag * cmath.exp(1j * alpha_phase)
    floor = math.ceil(alpha_mag ** 2 + 10.0 * alpha_mag + 20.0)
    coeffs = [cmath.exp(-0.5 * alpha_mag ** 2)]
    mass = abs(coeffs[0]) ** 2
    n = 0
    while n < floor or 1.0 - mass >= tail_tol:
        coeffs.append(coeffs[-1] * alpha / math.sqrt(n + 1))
        n += 1
        mass += abs(coeffs[-1]) ** 2
    return np.asarray(coeffs, dtype=complex)


def bloch(coeffs: np.ndarray, T: np.ndarray) -> dict[str, np.ndarray]:
    """Bloch components and radius at each scaled time in ``T``."""
    n = np.arange(coeffs.size)
    phase = np.outer(T, np.sqrt(n + 1.0))
    c, s = np.cos(phase), np.sin(phase)
    p = np.abs(coeffs) ** 2
    rho_ee = np.sum(p * c * c, axis=1)
    rho_gg = np.sum(p * s * s, axis=1)
    rho_eg = 1j * np.sum(coeffs[1:] * np.conj(coeffs[:-1]) * c[:, 1:] * s[:, :-1],
                         axis=1)
    sx, sy, sz = 2.0 * rho_eg.real, 2.0 * rho_eg.imag, rho_ee - rho_gg
    eta = np.minimum(np.sqrt(sx * sx + sy * sy + sz * sz), 1.0)
    return {"sx": sx, "sy": sy, "sz": sz, "eta": eta}


def von_neumann(eta: float) -> float:
    out = 0.0
    for mu in (0.5 * (1.0 + eta), 0.5 * (1.0 - eta)):
        if mu > 0.0:
            out -= mu * math.log(mu)
    return out


def wehrl_series(eta: float, tol: float = 1e-14) -> float:
    q, power, acc = eta * eta, 1.0, 0.0
    for n in range(1, 10 ** 6 + 1):
        power *= q
        term = power / (2 * n * (2 * n - 1) * (2 * n + 1))
        acc += term
        if term < max(tol * acc, 1e-300):
            break
    return LN4PI - acc


def wehrl_closed(eta: float) -> float:
    if eta < 1e-3:
        return wehrl_series(eta)
    if 1.0 - eta < 1e-8:
        return WEHRL_MIN
    return (0.5 + LN4PI - 0.5 * math.log(1.0 - eta * eta)
            + 0.25 * (eta + 1.0 / eta) * math.log((1.0 - eta) / (1.0 + eta)))


def reference_values(alpha_mag: float, alpha_phase: float,
                     T: np.ndarray) -> dict[str, np.ndarray]:
    """Seed values of the Bloch vector, gamma and closed Wehrl at ``T``."""
    out = bloch(fock_amplitudes(alpha_mag, alpha_phase), np.asarray(T, float))
    out["gamma"] = np.array([von_neumann(e) for e in out["eta"]])
    out["wehrl_closed"] = np.array([wehrl_closed(e) for e in out["eta"]])
    return out


def verify_reference() -> list[str]:
    """Problems if the frozen formulas no longer reproduce the seed's values."""
    data = json.loads(_SEED_REFERENCE.read_text())
    problems = []
    for case in data["cases"]:
        got = reference_values(case["alpha_mag"], data["alpha_phase"], case["t"])
        for key in ("sx", "sy", "sz", "eta", "gamma", "wehrl_closed"):
            err = np.max(np.abs(got[key] - np.asarray(case[key])))
            if not err <= 1e-13:
                problems.append(f"frozen reference drifts from the seed on "
                                f"{key} at |alpha| = {case['alpha_mag']}: {err:.3g}")
    return problems


# --- output checker -------------------------------------------------------

def _parse_csv(text: str, columns: tuple[str, ...]) -> tuple[list[str], np.ndarray | None]:
    if not text.endswith("\n"):
        return ["CSV output does not end with a newline"], None
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(columns):
        return [f"CSV header {lines[0][:200]!r} != {','.join(columns)!r}"], None
    fields = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(fields):
        if len(row) != len(columns):
            return [f"CSV row {i} has {len(row)} fields, expected {len(columns)}"], None
    try:
        table = np.array(fields, dtype=float).reshape(len(fields), len(columns))
    except ValueError as exc:
        return [f"CSV field is not a number: {exc}"], None
    for i, row in enumerate(fields):
        for text_value, value in zip(row, table[i]):
            if format(value, ".17g") != text_value:
                return [f"CSV row {i}: {text_value!r} is not .17g formatted"], None
    return [], table


def _parse_json(text: str, columns: tuple[str, ...],
                spec: dict) -> tuple[list[str], np.ndarray | None]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"structured output is not JSON: {exc}"], None
    if not isinstance(payload, dict) or set(payload) != {"config", "columns", "rows"}:
        return ["structured output must hold exactly config, columns, rows"], None
    if payload["columns"] != list(columns):
        return [f"JSON columns {payload['columns']!r} != {list(columns)!r}"], None
    config = payload["config"]
    for key in ("alpha_mag", "alpha_phase", "t_start", "t_end", "t_steps"):
        if not isinstance(config, dict) or config.get(key) != spec[key]:
            return [f"JSON config {key} does not echo the requested {spec[key]!r}"], None
    rows = payload["rows"]
    if not all(isinstance(r, list) and len(r) == len(columns) for r in rows):
        return ["JSON rows must be lists with one value per column"], None
    if any(type(v) is not float for r in rows for v in r):
        return ["JSON row values must all be floats"], None
    return [], np.array(rows, dtype=float).reshape(len(rows), len(columns))


def check_output(text: str, spec: dict) -> tuple[list[str], dict[str, np.ndarray]]:
    """Check one sweep output; return (problems, columns by name).

    ``spec`` holds the run's ``alpha_mag``, ``alpha_phase``, ``t_start``,
    ``t_end``, ``t_steps``, ``with_oracle`` and ``format``.  An empty
    problem list means the output is correct.
    """
    columns = ORACLE_COLUMNS if spec["with_oracle"] else BASE_COLUMNS
    if spec["format"] == "csv":
        problems, table = _parse_csv(text, columns)
    else:
        problems, table = _parse_json(text, columns, spec)
    if table is None:
        return problems, {}
    col = {name: table[:, i] for i, name in enumerate(columns)}

    steps = spec["t_steps"]
    if table.shape[0] != steps:
        return [f"{table.shape[0]} rows, expected {steps}"], col
    grid = np.linspace(spec["t_start"], spec["t_end"], steps)

    def require(label: str, err: np.ndarray, tol, rows=None) -> None:
        bad = ~(np.abs(err) <= tol)  # NaN counts as bad
        if np.any(bad):
            i = int(np.argmax(bad))
            row = i if rows is None else int(rows[i])
            problems.append(f"{label}: off by {float(err[i])!r} at row {row} "
                            f"(T = {float(col['t'][row])!r})")

    require("t grid", col["t"] - grid, T_GRID_RTOL * np.maximum(1.0, np.abs(grid)))
    norm = np.sqrt(col["sx"] ** 2 + col["sy"] ** 2 + col["sz"] ** 2)
    require("eta = |(sx, sy, sz)|", col["eta"] - np.minimum(norm, 1.0), IDENTITY_TOL)
    require("xi = (1 - eta^2)/2", col["xi"] - 0.5 * (1.0 - col["eta"] ** 2),
            IDENTITY_TOL)
    require("gamma_norm = gamma/ln 2", col["gamma_norm"] - col["gamma"] / LN2,
            IDENTITY_TOL)
    require("wehrl_norm from wehrl_closed",
            col["wehrl_norm"] - (LN4PI - col["wehrl_closed"]) / WEHRL_SPAN,
            IDENTITY_TOL)
    require("wehrl_closed vs wehrl_series",
            col["wehrl_closed"] - col["wehrl_series"], ROUTE_TOL)
    if spec["with_oracle"]:
        require("wehrl_quadrature vs wehrl_closed",
                col["wehrl_quadrature"] - col["wehrl_closed"], QUADRATURE_TOL)

    idx = np.unique(np.linspace(0, steps - 1, REFERENCE_SAMPLES).round().astype(int))
    ref = reference_values(spec["alpha_mag"], spec["alpha_phase"], col["t"][idx])
    for key in ("sx", "sy", "sz", "eta"):
        require(f"{key} vs seed reference", col[key][idx] - ref[key], BLOCH_REF_TOL, idx)
    for key in ("gamma", "wehrl_closed"):
        require(f"{key} vs seed reference", col[key][idx] - ref[key], ENTROPY_REF_TOL,
                idx)
    return problems, col


def corrupt(text: str, spec: dict) -> str:
    """Return ``text`` with the Bloch radius of a middle row moved by 1e-6."""
    def nudge(eta: float) -> float:
        return eta - 1e-6 if eta > 0.5 else eta + 1e-6

    if spec["format"] == "csv":
        lines = text.split("\n")
        i = len(lines) // 2
        fields = lines[i].split(",")
        fields[4] = format(nudge(float(fields[4])), ".17g")
        lines[i] = ",".join(fields)
        return "\n".join(lines)
    payload = json.loads(text)
    row = payload["rows"][len(payload["rows"]) // 2]
    row[4] = nudge(row[4])
    return json.dumps(payload, indent=2) + "\n"
