"""Entanglement entropies of the resonant Jaynes-Cummings model.

Linear, von Neumann and atomic Wehrl entropy of the reduced atomic qubit,
each computable by independent routes (closed form and power series, and
for the Wehrl entropy spherical quadrature too) that are cross-checked in
the test suite.  Everything depends on the Bloch radius alone.
"""

from .dynamics import (
    AtomicDensityMatrix,
    BlochVector,
    FockAmplitudes,
    SimulationConfig,
    bloch_vector,
    coherent_amplitudes,
    reduced_density,
)
from .entropies import (
    LN2,
    LN4PI,
    WEHRL_MIN,
    WEHRL_SPAN,
    entropy_record,
    linear_entropy,
    normalized_entropies,
    von_neumann_entropy,
    von_neumann_series,
    wehrl_entropy_closed,
    wehrl_entropy_series,
)
from .errors import DomainError, PrecisionLossError
from .husimi import SphereQuadrature, wehrl_entropy_quadrature
from .sweep import SweepResult, emit, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AtomicDensityMatrix", "BlochVector", "FockAmplitudes", "SimulationConfig",
    "bloch_vector", "coherent_amplitudes", "reduced_density",
    "entropy_record", "linear_entropy", "normalized_entropies",
    "von_neumann_entropy", "von_neumann_series", "wehrl_entropy_closed",
    "wehrl_entropy_series",
    "LN2", "LN4PI", "WEHRL_MIN", "WEHRL_SPAN",
    "SphereQuadrature", "wehrl_entropy_quadrature",
    "SweepResult", "emit", "run_sweep",
    "DomainError", "PrecisionLossError",
]
