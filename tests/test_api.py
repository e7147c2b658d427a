import ast
from pathlib import Path

import jcm_entropy

PUBLIC = {
    "AtomicDensityMatrix", "BlochVector", "FockAmplitudes", "SimulationConfig",
    "bloch_vector", "coherent_amplitudes", "reduced_density",
    "entropy_record", "linear_entropy", "normalized_entropies",
    "von_neumann_entropy", "von_neumann_series", "wehrl_entropy_closed",
    "wehrl_entropy_series",
    "LN2", "LN4PI", "WEHRL_MIN", "WEHRL_SPAN",
    "SphereQuadrature", "wehrl_entropy_quadrature",
    "SweepResult", "emit", "run_sweep",
    "DomainError", "PrecisionLossError",
}


def test_public_names():
    # the library's surface: the test-only oracles live in tests/oracles.py
    assert len(PUBLIC) == 25
    assert sorted(jcm_entropy.__all__) == sorted(PUBLIC)
    for name in jcm_entropy.__all__:
        assert getattr(jcm_entropy, name) is not None, name


def test_no_module_imports_a_private_name_of_dynamics():
    # the input checks live in errors and the exact arithmetic in _exact, so
    # that no module reaches into dynamics for them
    offenders = []
    for path in sorted(Path(jcm_entropy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "dynamics")
                    or (node.level == 0 and node.module == "jcm_entropy.dynamics")):
                offenders += [f"{path.name}: {a.name}" for a in node.names
                              if a.name.startswith("_")]
    assert offenders == []
