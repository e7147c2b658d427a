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


# Each module's imports from the package.  The oracle routes import no route
# they check: husimi takes only errors.  dynamics takes SERIES_TOL from
# entropies for SimulationConfig's default and ETA_TOL for bloch_vector's
# radius refusal, so moving SimulationConfig out of dynamics alone leaves
# that edge.
# Underscore names come only from errors and _exact.
MODULE_GRAPH = {
    "__init__": {"dynamics", "entropies", "errors", "husimi", "sweep"},
    "_exact": set(),
    "_g17": {"_exact"},
    "cli": {"dynamics", "errors", "sweep"},
    "dynamics": {"_exact", "entropies", "errors"},
    "entropies": {"errors"},
    "errors": set(),
    "husimi": {"errors"},
    "sweep": {"_g17", "dynamics", "entropies", "errors", "husimi"},
}
PRIVATE_FROM = {"errors", "_exact"}


def package_imports(path: Path, modules: set) -> list:
    """(module, name) for each import from the package anywhere in the
    module at ``path``; ``name`` is None where a whole module is imported."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # level 1 is the package
            module = ".".join(filter(None, ["jcm_entropy" if node.level else "", node.module]))
            found = [(module, a.name) for a in node.names]
        else:
            continue
        for module, name in found:
            parts = module.split(".")
            if parts[0] != "jcm_entropy":
                continue
            if len(parts) > 1:
                pairs.append((parts[1], name))
            else:
                pairs.append((name, None) if name in modules else ("__init__", name))
    return pairs


def test_module_graph():
    # every module's imports from the package are the ones listed, no more
    # and no fewer, and no underscore name comes from elsewhere
    paths = sorted(Path(jcm_entropy.__file__).parent.glob("*.py"))
    modules = {p.stem for p in paths}
    assert modules == set(MODULE_GRAPH)
    wrong, private = {}, []
    for path in paths:
        pairs = package_imports(path, modules)
        edges = {m for m, _ in pairs}
        if edges != MODULE_GRAPH[path.stem]:
            wrong[path.stem] = sorted(edges ^ MODULE_GRAPH[path.stem])
        private += [f"{path.stem}: {m}.{n}" for m, n in pairs
                    if n and n.startswith("_") and m not in PRIVATE_FROM]
    assert wrong == {}
    assert private == []


def test_no_module_imports_a_private_name_of_dynamics():
    # the input checks live in errors and the exact arithmetic in _exact, so
    # that no module reaches into dynamics for them
    paths = sorted(Path(jcm_entropy.__file__).parent.glob("*.py"))
    modules = {p.stem for p in paths}
    offenders = [f"{path.stem}: {n}" for path in paths
                 for m, n in package_imports(path, modules)
                 if m == "dynamics" and n and n.startswith("_")]
    assert offenders == []


def test_entropies_does_not_import_dynamics():
    # the entropies depend on eta alone: their tolerances live beside them,
    # and dynamics imports those from entropies, never the other way
    path = Path(entropies.__file__)
    modules = {p.stem for p in path.parent.glob("*.py")}
    assert [m for m, _ in package_imports(path, modules) if m == "dynamics"] == []


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
