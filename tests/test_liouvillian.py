import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from clams import liouvillian
from clams.effective import closed_form_coherences
from clams.liouvillian import (
    CouplingGraph,
    DegenerateSteadyStateError,
    DensityMatrix,
    GeneratorMatrix,
    PropagationError,
    SteadyStateError,
    _coherence_levels,
    affine_steady_states,
    build_generator,
    cascaded_lambda_graph,
    propagate,
    steady_state,
    steady_states,
)
from clams.units import mhz_to_angular
from conftest import chain_params, hermitian_random, random_graph
from oracles import lsoda_propagate


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


def test_affine_family_reports_the_null_dim_of_its_disconnected_member():
    # base: the disconnected two-block generator; slope: decays that join the
    # blocks.  Only the member at x = 0, in the middle of one chunk, is
    # degenerate, and its null space must be diagnosed on L, not on the
    # bordered system that the solve overwrote row 0 of.
    h = np.zeros((4, 4), dtype=complex)
    blocks = ((1, 0, 1.0), (0, 1, 0.5), (3, 2, 1.0), (2, 3, 0.5))
    base = build_generator(CouplingGraph(4, h, blocks))
    slope = build_generator(CouplingGraph(4, h, ((1, 2, 1.0), (2, 1, 1.0))))
    with pytest.raises(DegenerateSteadyStateError) as err:
        affine_steady_states(base.matrix, slope.matrix, [0.5, 2.0, 0.0, 1.0])
    assert err.value.null_dim == 2


def test_residual_over_the_bound_is_a_steady_state_error(monkeypatch):
    # the README steady chain; with no residual allowed, its unique null vector fails
    monkeypatch.setattr(liouvillian, "RESIDUAL_RTOL", 0.0)
    params = chain_params(5, mhz_to_angular(15.2), mhz_to_angular(1900.0), mhz_to_angular(0.2))

    def at(rabi):
        return build_generator(cascaded_lambda_graph(replace(params, rabi=rabi))).matrix

    base = at(0.0)
    for solve in (lambda: steady_state(GeneratorMatrix(5, at(params.rabi))),
                  lambda: affine_steady_states(base, at(1.0) - base, [params.rabi])):
        with pytest.raises(SteadyStateError, match="steady-state residual .* exceeds") as err:
            solve()
        assert type(err.value) is SteadyStateError


def ring_blocks_with_hamiltonian():
    # two disconnected two-level blocks with a Hamiltonian: the LU is only nearly
    # singular, so the solve returns a state and the residual check reaches the diagnosis
    h = np.kron(np.eye(2), hermitian_random(np.random.default_rng(0), 2))
    chans = ((1, 0, 1.0), (0, 1, 0.5), (3, 2, 1.0), (2, 3, 0.5))
    return build_generator(CouplingGraph(4, h, chans)).matrix


@pytest.mark.parametrize("lio, null_dim", [(ring_blocks_with_hamiltonian(), 2),
                                           (np.zeros((4, 4), dtype=complex), 4)],
                         ids=["two-blocks", "zero"])
def test_diagnosis_reports_the_null_dim(monkeypatch, lio, null_dim):
    monkeypatch.setattr(liouvillian, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(DegenerateSteadyStateError) as err:
        steady_states(lio[None])
    assert err.value.null_dim == null_dim


def test_steady_states_leaves_the_stack_unchanged():
    rng = np.random.default_rng(29)
    stack = np.stack([build_generator(random_graph(rng, d=5)).matrix for _ in range(3)])
    before = stack.copy()
    stack.flags.writeable = False  # a caller's array is read, never written
    steady_states(stack)
    assert np.array_equal(stack, before)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stack_with_non_finite_generator_raises():
    # generator of a 1 -> 0 decay at infinite rate; its residual is NaN
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 3] = np.inf  # rho_00 fed from rho_11
    bad[1, 1] = bad[2, 2] = bad[3, 3] = -np.inf
    connected = build_generator(random_graph(np.random.default_rng(28), d=2)).matrix
    for stack in (bad[None], np.stack([connected, bad])):
        with pytest.raises(SteadyStateError, match="non-finite"):
            steady_states(stack)


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


@pytest.mark.parametrize("n_levels", [13, 21])
def test_graded_steady_state_independent_of_time_unit(n_levels):
    # the same for chains that block elimination over coherence orders solves
    base = dict(rabi=0.05, gamma=1.0, gamma_prime=1e-3,
                detunings=tuple(0.01 * np.cos(np.arange(1, n_levels))))

    def solve(s):
        p = chain_params(
            n_levels, base["rabi"] * s, base["gamma"] * s, base["gamma_prime"] * s,
            detunings=tuple(x * s for x in base["detunings"]), delta_omega_s=s,
        )
        lio = build_generator(cascaded_lambda_graph(p)).matrix
        assert _coherence_levels(lio) is not None
        return steady_state(GeneratorMatrix(n_levels, lio)).matrix

    want = solve(1.0)
    for k in range(-8, 9):
        assert np.abs(solve(10.0**k) - want).max() <= 1e-12, k


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


def test_propagate_stiff_readme_chain():
    # README N=5 point: gamma / gamma_prime = 9500, stiffness ratio ~1.2e4
    p = chain_params(
        5, mhz_to_angular(15.2), mhz_to_angular(1900.0), mhz_to_angular(0.2)
    )
    gen = build_generator(cascaded_lambda_graph(p))
    evals = np.linalg.eigvals(gen.matrix)
    decay = -evals.real[np.abs(evals) > 1e-10 * np.abs(evals).max()]
    assert decay.max() / decay.min() > 1e4
    rho0 = DensityMatrix(np.diag([1.0, 0, 0, 0, 0]).astype(complex))
    rho_t = propagate(gen, rho0, 30.0 / decay.min(), tol=1e-9)
    assert np.abs(rho_t.matrix - steady_state(gen).matrix).max() < 1e-6


def test_propagate_stiff_readme_chain_matches_the_scipy_exponential():
    # at 30 over the slowest decay ||L t||_1 asks for 18 squarings; the norms of
    # the powers of L t allow 17, and each squaring fewer rounds less
    p = chain_params(
        5, mhz_to_angular(15.2), mhz_to_angular(1900.0), mhz_to_angular(0.2)
    )
    gen = build_generator(cascaded_lambda_graph(p))
    evals = np.linalg.eigvals(gen.matrix)
    t = 30.0 / -evals.real[np.abs(evals) > 1e-10 * np.abs(evals).max()].max()
    rho0 = DensityMatrix(np.diag([1.0, 0, 0, 0, 0]).astype(complex))
    exact = DensityMatrix.from_vec(sla.expm(gen.matrix * t) @ rho0.vec(), 5).matrix
    assert np.abs(propagate(gen, rho0, t).matrix - exact).max() < 1e-12


def test_propagate_failures_raise():
    gen = build_generator(pure_decay_graph())
    nan_gen = GeneratorMatrix(2, np.full((4, 4), np.nan, dtype=complex))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failure is an exception, not a warning
        with pytest.raises(PropagationError, match="integration failed"):
            propagate(gen, rho0, 1.0, tol=1e-300)
        with pytest.raises(PropagationError, match="non-finite"):
            propagate(nan_gen, rho0, 1.0)


def test_propagate_overflowing_time_raises():
    gen = build_generator(pure_decay_graph())
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the typed error
        with pytest.raises(PropagationError, match="non-finite"):
            propagate(gen, rho0, 1e308)


def propagation_cases():
    """(name, generator, start state, time): criterion 09's draw, from the maximally
    mixed state to 30/gap, and the README chains N = 5, 7, 13 from level 1 to 30
    over their slowest decay rate."""
    rng = np.random.default_rng(2026)  # the draw sequence of criterion 09
    for k in range(60):
        g = random_graph(rng)
        d = g.n_states
        rng.normal(size=(d, d)), rng.normal(size=(d, d))
        gen = build_generator(g)
        evals = np.linalg.eigvals(gen.matrix)
        gap = -max(ev.real for ev in evals if abs(ev) > 1e-10 * np.abs(evals).max())
        yield f"graph {k}", gen, DensityMatrix(np.eye(d, dtype=complex) / d), 30.0 / gap
    for n in (5, 7, 13):
        p = chain_params(n, mhz_to_angular(15.2), mhz_to_angular(1900.0), mhz_to_angular(0.2))
        gen = build_generator(cascaded_lambda_graph(p))
        evals = np.linalg.eigvals(gen.matrix)
        decay = -evals.real[np.abs(evals) > 1e-10 * np.abs(evals).max()]
        rho0 = DensityMatrix(np.diag([1.0] + [0.0] * (n - 1)).astype(complex))
        yield f"N={n} chain", gen, rho0, 30.0 / decay.min()


def rounding_bound(gen, t):
    """1e-12 plus eps ||L t||_1, the scale of the rounding that s squarings of
    exp(L t / 2^s) accumulate: about 1e-13 on criterion-09 graphs, and 1.6e-10 to
    7.9e-10 on the stiff README chains, where the measured error is up to 2e-11."""
    return 1e-12 + np.finfo(float).eps * np.abs(gen.matrix).sum(axis=0).max() * t


def test_propagate_matches_lsoda_and_the_scipy_exponential():
    for name, gen, rho0, t in propagation_cases():
        got = propagate(gen, rho0, t, tol=1e-9).matrix
        lsoda = lsoda_propagate(gen, rho0, t, tol=1e-9).matrix
        assert np.abs(got - lsoda).max() < 1e-9, name
        exact = DensityMatrix.from_vec(sla.expm(gen.matrix * t) @ rho0.vec(), gen.n_states)
        assert np.abs(got - exact.matrix).max() < rounding_bound(gen, t), name
        if name == "N=13 chain":
            assert np.abs(got - steady_state(gen).matrix).max() < 1e-6


def test_propagate_composes_over_time():
    for name, gen, rho0, t in propagation_cases():
        whole = propagate(gen, rho0, t).matrix
        in_two_steps = propagate(gen, propagate(gen, rho0, 0.3 * t), 0.7 * t).matrix
        assert np.abs(whole - in_two_steps).max() < rounding_bound(gen, t), name


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            CouplingGraph(2, np.array([[0.0, bad], [bad, 0.0]]), ())
        with pytest.raises(ValueError, match="finite"):
            CouplingGraph(2, h_ok, ((1, 0, bad),))


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
