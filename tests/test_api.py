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
