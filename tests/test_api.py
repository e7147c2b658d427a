import ast
import re
from pathlib import Path

import jcm_entropy
from jcm_entropy import entropies, husimi

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


def test_entropies_does_not_import_dynamics():
    # the entropies depend on eta alone: their tolerances live beside them,
    # and dynamics imports those from entropies, never the other way
    path = Path(entropies.__file__)
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):  # the dotted name of each imported name
            base = "." * node.level + (node.module + "." if node.module else "")
            names = [base + a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        offenders += [n for n in names if re.fullmatch(r"(\.|jcm_entropy\.)dynamics(\..*)?", n)]
    assert offenders == []


def test_docs_quote_each_stated_error_from_its_constant():
    # README and the docstrings name each route's stated error bound beside
    # its figure; the figure quoted must be the constant's value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for module, docs, names in [
            (entropies, (entropies.__doc__, entropies.wehrl_entropy_closed.__doc__),
             ("WEHRL_CLOSED_ERROR", "SERIES_ERROR")),
            (husimi, (husimi.__doc__,), ("QUAD_ERROR", "QUAD_ETA_SPLIT", "QUAD_ERROR_NEAR_PURE"))]:
        for name in names:
            quoted = [q for text in (readme, *docs)
                      for q in re.findall(rf"\b{name}`+\s+\(([^)]*)\)", text)]
            assert len(quoted) >= 2 and {float(q) for q in quoted} == {getattr(module, name)}, name
