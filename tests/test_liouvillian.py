import numpy as np
import pytest
import scipy.linalg as sla

from clams.effective import closed_form_coherences
from clams.liouvillian import (
    CouplingGraph,
    DegenerateSteadyStateError,
    DensityMatrix,
    build_generator,
    cascaded_lambda_graph,
    propagate,
    steady_state,
    steady_states,
)
from conftest import chain_params, hermitian_random, random_graph


def pure_decay_graph(gamma=1.0):
    return CouplingGraph(
        n_states=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        population_decays=((1, 0, gamma),),
    )


def diag_coords(d):
    return np.arange(d) * (d + 1)


def test_pure_decay_steady_state():
    rho = steady_state(build_generator(pure_decay_graph()))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_pure_decay_exponential():
    gamma = 0.8
    gen = build_generator(pure_decay_graph(gamma))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    for t in (0.3, 1.0, 3.0):
        rho_t = propagate(gen, rho0, t, tol=1e-10)
        assert rho_t.matrix[1, 1].real == pytest.approx(np.exp(-gamma * t), abs=1e-7)


def test_propagate_zero_time_is_identity():
    gen = build_generator(pure_decay_graph())
    rho0 = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert propagate(gen, rho0, 0.0) is rho0


def test_trace_functional_is_left_null_vector():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_graph(rng)
        gen = build_generator(g)
        scale = max(1.0, np.abs(gen.matrix).max())
        row_sum = gen.matrix[diag_coords(g.n_states), :].sum(axis=0)
        assert np.abs(row_sum).max() < 1e-12 * scale


def test_generator_preserves_hermiticity():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = random_graph(rng)
        gen = build_generator(g)
        rho = hermitian_random(rng, g.n_states)
        drho = (gen.matrix @ rho.reshape(-1, order="F")).reshape((g.n_states,) * 2, order="F")
        assert np.abs(drho - drho.conj().T).max() < 1e-12 * max(1.0, np.abs(drho).max())


def test_dissipator_feeds_populations_only():
    # with H = 0 the population block and coherence block are fully decoupled
    rng = np.random.default_rng(23)
    g = random_graph(rng, d=5)
    g0 = CouplingGraph(5, np.zeros((5, 5), dtype=complex), g.population_decays)
    gen = build_generator(g0)
    dc = diag_coords(5)
    coh = np.setdiff1d(np.arange(25), dc)
    assert np.abs(gen.matrix[np.ix_(dc, coh)]).max() == 0.0
    assert np.abs(gen.matrix[np.ix_(coh, dc)]).max() == 0.0


def test_steady_state_invariants_random():
    rng = np.random.default_rng(24)
    for _ in range(20):
        g = random_graph(rng)
        rho = steady_state(build_generator(g))
        rho.validate()  # hermitian, unit trace, positive within tolerance


def test_resonant_three_level_populations():
    p = chain_params(3, rabi=1e-3, gamma=1.0, gamma_prime=1e-6)
    rho = steady_state(build_generator(cascaded_lambda_graph(p)))
    assert rho.matrix[0, 0].real == pytest.approx(0.5, abs=1e-5)
    assert rho.matrix[2, 2].real == pytest.approx(0.5, abs=1e-5)
    assert rho.matrix[1, 1].real < 1e-5


def test_three_level_coherence_matches_reduced_limit():
    # j_hop = gamma_prime: the ground coherence approaches -1/3 as rabi/gamma -> 0
    p = chain_params(3, rabi=1e-3, gamma=1.0, gamma_prime=1e-6)
    rho = steady_state(build_generator(cascaded_lambda_graph(p)))
    assert abs(rho.matrix[0, 2] - (-1.0 / 3.0)) < 0.01 / 3.0


def test_five_level_ground_populations():
    p = chain_params(5, rabi=1e-3, gamma=1.0, gamma_prime=1e-6)
    rho = steady_state(build_generator(cascaded_lambda_graph(p)))
    for i in (0, 2, 4):
        assert rho.matrix[i, i].real == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_seven_level_coherence_symmetries():
    # reflection symmetry of the chain: (1,3) <-> (5,7) and (1,5) <-> (3,7).
    # The interior pair (3,5) damps at 2*gamma_prime instead of 3*gamma_prime/2,
    # so its coherence sits at 3/4 of the edge-pair value for j_hop << gamma_prime.
    p = chain_params(7, rabi=1e-4, gamma=1.0, gamma_prime=1e-4)  # j_hop/gamma_prime = 1e-4
    rho = steady_state(build_generator(cascaded_lambda_graph(p))).matrix
    r13, r35, r57 = rho[0, 2], rho[2, 4], rho[4, 6]
    r15, r37 = rho[0, 4], rho[2, 6]
    assert abs(r13 - r57) < 1e-6 * abs(r13)
    assert abs(r15 - r37) < 1e-6 * abs(r15)
    assert r35.real / r13.real == pytest.approx(0.75, rel=1e-3)


def test_full_chain_approaches_closed_form():
    gamma = 1.0
    rabi = 1e-3
    j_hop = rabi**2 / gamma
    gp = j_hop
    for d_rel in (-4.0, 0.0, 4.0):
        delta = d_rel * gp
        p = chain_params(3, rabi, gamma, gp, detunings=(delta, 0.0))
        rho = steady_state(build_generator(cascaded_lambda_graph(p)))
        want = closed_form_coherences(3, j_hop, gp, delta).coherences[(1, 3)]
        assert abs(rho.matrix[0, 2] - want) < 1e-4 * abs(want)


def test_degenerate_null_space_is_an_error():
    # two disconnected two-level blocks, each internally mixing: one steady
    # state per block, so the total weight split between them is free
    h = np.zeros((4, 4), dtype=complex)
    g = CouplingGraph(
        4, h, ((1, 0, 1.0), (0, 1, 0.5), (3, 2, 1.0), (2, 3, 0.5))
    )
    with pytest.raises(DegenerateSteadyStateError) as err:
        steady_state(build_generator(g))
    assert err.value.null_dim == 2


def test_stack_with_disconnected_generator_reports_its_null_dim():
    rng = np.random.default_rng(27)
    connected = build_generator(random_graph(rng, d=4))
    chans = ((1, 0, 1.0), (0, 1, 0.5), (3, 2, 1.0), (2, 3, 0.5))
    disconnected = build_generator(CouplingGraph(4, np.zeros((4, 4), dtype=complex), chans))
    with pytest.raises(DegenerateSteadyStateError) as single:
        steady_state(disconnected)
    with pytest.raises(DegenerateSteadyStateError) as stacked:
        steady_states(np.stack([connected.matrix, disconnected.matrix, connected.matrix]))
    assert stacked.value.null_dim == single.value.null_dim == 2


def test_steady_state_independent_of_time_unit():
    # every rate in units of 10**k: the residual test is relative to ||L||
    base = dict(
        rabi=0.05, gamma=1.0, gamma_prime=1e-3, detunings=(0.01, 0.0, -0.02, 0.005, 0.0, 0.003)
    )
    want = steady_state(build_generator(cascaded_lambda_graph(chain_params(7, **base)))).matrix
    for k in range(-8, 9):
        s = 10.0**k
        p = chain_params(
            7, base["rabi"] * s, base["gamma"] * s, base["gamma_prime"] * s,
            detunings=tuple(x * s for x in base["detunings"]), delta_omega_s=s,
        )
        rho = steady_state(build_generator(cascaded_lambda_graph(p))).matrix
        assert np.abs(rho - want).max() <= 1e-12, k


def test_uniqueness_gap_of_test_graphs():
    rng = np.random.default_rng(25)
    for _ in range(10):
        g = random_graph(rng)
        lio = build_generator(g).matrix
        s = sla.svdvals(lio)
        assert s[-2] > 1e-8 * s[0]


def test_propagate_reaches_steady_state():
    rng = np.random.default_rng(26)
    for _ in range(5):
        g = random_graph(rng)
        gen = build_generator(g)
        rho_ss = steady_state(gen)
        evals = np.linalg.eigvals(gen.matrix)
        gap = -max(ev.real for ev in evals if abs(ev) > 1e-10 * np.abs(evals).max())
        rho0 = DensityMatrix(np.eye(g.n_states, dtype=complex) / g.n_states)
        rho_t = propagate(gen, rho0, 30.0 / gap, tol=1e-9)
        assert np.abs(rho_t.matrix - rho_ss.matrix).max() < 1e-6


def test_graph_validation():
    h_ok = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        CouplingGraph(2, np.array([[0, 1j], [1j, 0]]), ())
    with pytest.raises(ValueError, match="negative"):
        CouplingGraph(2, h_ok, ((1, 0, -0.1),))
    with pytest.raises(ValueError, match="differ"):
        CouplingGraph(2, h_ok, ((1, 1, 0.1),))
    with pytest.raises(ValueError, match="out of range"):
        CouplingGraph(2, h_ok, ((2, 0, 0.1),))


def test_propagate_rejects_negative_time():
    gen = build_generator(pure_decay_graph())
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        propagate(gen, rho0, -1.0)


def test_density_matrix_validate_rejects_bad_states():
    good = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    good.validate()
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)).validate()
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.5, 0.6]).astype(complex)).validate()
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.2, -0.2]).astype(complex)).validate()


def test_generator_matrix_dim():
    gen = build_generator(pure_decay_graph())
    assert gen.dim == 4
    assert gen.matrix.shape == (4, 4)


def test_vec_roundtrip_column_stacking():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    rho = DensityMatrix(m)
    v = rho.vec()
    assert v[1] == m[1, 0]  # column-major: second entry walks down the first column
    assert np.array_equal(DensityMatrix.from_vec(v, 3).matrix, m)
