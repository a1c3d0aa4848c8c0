"""The index-based generator builders against their reference forms in ``oracles``."""
import numpy as np
import pytest

from clams.effective import build_effective_generator
from clams.liouvillian import build_generator, cascaded_lambda_graph
from conftest import chain_params, random_graph, rb85_graph
from oracles import closure_effective_generator, kron_generator

AGREEMENT = 1e-15  # times the Frobenius norm of the reference generator


def assert_agrees(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= AGREEMENT * np.linalg.norm(want)


def test_criterion_09_graphs_match_kron_oracle():
    rng = np.random.default_rng(2026)  # the draw sequence of criterion 09
    for _ in range(200):
        g = random_graph(rng)
        d = g.n_states
        rng.normal(size=(d, d)), rng.normal(size=(d, d))
        assert_agrees(build_generator(g).matrix, kron_generator(g))


@pytest.mark.parametrize("n_levels", range(3, 23, 2))
def test_chains_match_kron_oracle(n_levels):
    rng = np.random.default_rng(n_levels)
    p = chain_params(n_levels, 0.3, 1.0, 1e-3, detunings=tuple(rng.normal(size=n_levels - 1)))
    g = cascaded_lambda_graph(p)
    assert_agrees(build_generator(g).matrix, kron_generator(g))


def test_rb85_model_matches_kron_oracle():
    g = rb85_graph()
    assert g.n_states == 16
    assert_agrees(build_generator(g).matrix, kron_generator(g))


@pytest.mark.parametrize("n_levels", range(3, 23, 2))
def test_reduced_generators_match_closure_oracle(n_levels):
    rng = np.random.default_rng(100 + n_levels)
    j_hop, gp = 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-2, 0)
    detunings = tuple(rng.normal(size=n_levels - 1))
    got = build_effective_generator(n_levels, j_hop, gp, detunings).matrix
    assert_agrees(got, closure_effective_generator(n_levels, j_hop, gp, detunings))
