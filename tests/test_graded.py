"""Block elimination over coherence orders against the dense bordered solve it replaced
for generators with two or more coherence orders beyond 0, and against the same
bordered solve in 40-digit arithmetic."""
import re
from math import isqrt

import numpy as np
import pytest

import clams.liouvillian
from clams import rb85
from clams.effective import build_effective_generator
from clams.level_system import SystemParams, ground_indices, raman_detunings
from clams.liouvillian import (
    CouplingGraph,
    DegenerateSteadyStateError,
    SteadyStateError,
    _coherence_levels,
    affine_steady_states,
    build_generator,
    cascaded_lambda_graph,
    steady_states,
)
from clams.spectrum import peak_weights, weight_ratios
from clams.units import mhz_to_angular
from conftest import chain_params, random_graph
from oracles import dense_bordered_steady_states, mpmath_bordered_steady_state

GRADED_RTOL = 1e-12


def dense(stack):
    """The dense bordered solve of a copy of ``stack`` (one generator or a stack)."""
    return dense_bordered_steady_states(np.array(stack, dtype=complex, ndmin=3))


def no_dense_solve(solve, on_call=None):
    """A spy on the block solve ``solve`` that fails when it is called with one block,
    which is the dense LU, and otherwise hands ``on_call`` its arguments first."""
    def spy(block, grading, matvec, fro, lio=None):
        if grading.far is None:
            raise AssertionError("the dense solve ran")
        if on_call is not None:
            on_call(grading, fro)
        return solve(block, grading, matvec, fro, lio)

    return spy


def graded(lio):
    """Steady state of one generator by block elimination alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clams.liouvillian, "_graded_states",
                   no_dense_solve(clams.liouvillian._graded_states))
        return steady_states(lio[None])[0]


def readme_chain(n_levels, detunings=None):
    return chain_params(n_levels, mhz_to_angular(15.2), mhz_to_angular(1900.0),
                        mhz_to_angular(0.2), detunings)


def rb85_generator(offset_branch="sigma+", line_detuning_mhz=0.0):
    """The rb85 subcommand's model at its default settings."""
    gamma = mhz_to_angular(rb85.DEFAULT_GAMMA_MHZ)
    dws = mhz_to_angular(rb85.DEFAULT_SPLITTING_MHZ)
    rabi = rb85.DEFAULT_RABI_FRACTION * gamma
    drives = tuple(
        rb85.DriveField(branch, rabi, mhz_to_angular(line_detuning_mhz),
                        dws if branch == offset_branch else 0.0)
        for branch in ("sigma+", "pi")
    )
    graph = rb85.build_full_model(rb85.ZeemanManifold(rb85.F_GROUND, dws),
                                  rb85.ZeemanManifold(rb85.F_EXCITED, dws), drives, gamma,
                                  mhz_to_angular(rb85.DEFAULT_GAMMA_PRIME_MHZ))
    return build_generator(graph).matrix


def truncated13_generator():
    gamma = mhz_to_angular(rb85.DEFAULT_GAMMA_MHZ)
    params = SystemParams(13, rb85.DEFAULT_RABI_FRACTION * gamma, gamma,
                          mhz_to_angular(rb85.DEFAULT_GAMMA_PRIME_MHZ), (0.0,) * 12,
                          mhz_to_angular(rb85.DEFAULT_SPLITTING_MHZ))
    return build_generator(rb85.build_truncated_13(params)).matrix


def tridiagonal_graph(rng, d, split=None) -> CouplingGraph:
    """Random tight-binding H (cut in two at ``split``) with a decay ring and
    arbitrary extra decays between any two states."""
    h = np.diag(rng.normal(size=d)).astype(complex)
    hop = rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
    if split is not None:
        hop[split - 1] = 0.0  # two components joined only by decays
    h += np.diag(hop, 1) + np.diag(hop.conj(), -1)
    chans = [(i, (i + 1) % d, float(rng.uniform(0.5, 2.0))) for i in range(d)]
    for _ in range(d):
        src, tgt = rng.choice(d, size=2, replace=False)
        chans.append((int(src), int(tgt), float(rng.uniform(0.5, 2.0))))
    return CouplingGraph(d, h, tuple(chans))


def assert_close(got, want, ground):
    """Ground blocks within GRADED_RTOL of the largest entry, and each peak weight
    within GRADED_RTOL of itself."""
    g, w = got[np.ix_(ground, ground)], want[np.ix_(ground, ground)]
    assert np.abs(g - w).max() <= GRADED_RTOL * np.abs(w).max()
    pg, pw = peak_weights(g), peak_weights(w)
    assert (np.abs(pg - pw) <= GRADED_RTOL * np.abs(pw)).all(), np.abs(pg / pw - 1).max()


@pytest.mark.parametrize("n_levels", range(3, 22, 2))
def test_chains_with_random_detunings_match_the_dense_solve(n_levels):
    rng = np.random.default_rng(n_levels)
    p = readme_chain(n_levels, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, n_levels - 1))))
    lio = build_generator(cascaded_lambda_graph(p)).matrix
    assert_close(graded(lio), dense(lio)[0], ground_indices(n_levels))


@pytest.mark.parametrize("n_levels", range(5, 22, 2))
def test_reduced_models_match_the_dense_solve(n_levels):
    """Reduced models of 3 or more ground states have two or more orders beyond 0."""
    rng = np.random.default_rng(100 + n_levels)
    p = readme_chain(n_levels, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, n_levels - 1))))
    lio = build_effective_generator(n_levels, p.hopping_rate, p.gamma_prime, p.detunings).matrix
    assert_close(graded(lio), dense(lio)[0], np.arange(p.n_ground))


@pytest.mark.parametrize("rabi_over_gamma", [1e-4, 1.9e-4, 1e-2])
@pytest.mark.parametrize("n_levels", [3, 5, 7, 9])
def test_far_harmonics_match_the_40_digit_solve(n_levels, rabi_over_gamma):
    """Every height ratio of a chain at the CLI's default rates, and the fundamental
    weight of N = 3, within 1e-14 of the same bordered system solved in 40 digits.
    The dense LU's normwise error leaves the far harmonics 3e-13 to 8e-13 off at
    Omega/Gamma = 1.9e-4, where the weights span 30 decades at N = 9."""
    pytest.importorskip("mpmath")
    gamma = mhz_to_angular(rb85.DEFAULT_GAMMA_MHZ)
    p = chain_params(n_levels, rabi_over_gamma * gamma, gamma,
                     mhz_to_angular(rb85.DEFAULT_GAMMA_PRIME_MHZ),
                     delta_omega_s=mhz_to_angular(rb85.DEFAULT_SPLITTING_MHZ))
    lio = build_generator(cascaded_lambda_graph(p)).matrix
    ground = np.ix_(ground_indices(n_levels), ground_indices(n_levels))
    got = weight_ratios(peak_weights(steady_states(lio[None])[0][ground]))
    want = weight_ratios(peak_weights(mpmath_bordered_steady_state(lio)[ground]))
    checked = slice(None) if n_levels == 3 else slice(1, None)
    assert np.abs(got[checked] / want[checked] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("model", ["readme", "pi-branch", "truncated-13"])
def test_rb85_models_match_the_dense_solve(model):
    lio = {
        "readme": rb85_generator,
        "pi-branch": lambda: rb85_generator("pi", 3.0),
        "truncated-13": truncated13_generator,
    }[model]()
    ground = np.arange(rb85.N_GROUND) if model != "truncated-13" else ground_indices(13)
    assert_close(graded(lio), dense(lio)[0], ground)


def test_tridiagonal_hamiltonians_with_arbitrary_decays_match_the_dense_solve():
    rng = np.random.default_rng(41)
    for d in (10, 11, 12, 14):
        lio = build_generator(tridiagonal_graph(rng, d)).matrix
        assert_close(graded(lio), dense(lio)[0], np.arange(d))


def test_two_component_graph_matches_the_dense_solve():
    lio = build_generator(tridiagonal_graph(np.random.default_rng(42), 12, split=5)).matrix
    assert len(_coherence_levels(lio).rows) == 7  # the longer chain, 7 states, sets the outermost order 6
    assert_close(graded(lio), dense(lio)[0], np.arange(12))


def test_single_block_inputs_keep_the_dense_bits():
    """Generators with at most one coherence order beyond 0 keep the dense LU, bit for
    bit: the 200 criterion-09 graphs, whose dense H joins every pair of states (each
    component of the state graph is a clique), two of them side by side, reduced
    models of 2 ground states, and undriven chains, whose states are all order 0."""
    rng = np.random.default_rng(2026)  # the draw sequence of criterion 09
    graphs = []
    for _ in range(200):
        graphs.append(random_graph(rng))
        rng.normal(size=(graphs[-1].n_states,) * 2), rng.normal(size=(graphs[-1].n_states,) * 2)
    gens = [build_generator(g).matrix for g in graphs]
    a, b = graphs[0], graphs[1]
    h = np.zeros((a.n_states + b.n_states,) * 2, dtype=complex)
    h[: a.n_states, : a.n_states], h[a.n_states :, a.n_states :] = a.hamiltonian, b.hamiltonian
    decays = a.population_decays + tuple((s + a.n_states, t + a.n_states, r)
                                         for s, t, r in b.population_decays)
    gens.append(build_generator(CouplingGraph(len(h), h, ((0, a.n_states, 1.0), *decays))).matrix)
    rng = np.random.default_rng(43)
    for n in (3, 5, 7, 13):
        p = readme_chain(n, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, n - 1))))
        if n == 3:
            gens.append(build_effective_generator(n, p.hopping_rate, p.gamma_prime, p.detunings).matrix)
        gens.append(build_generator(cascaded_lambda_graph(chain_params(
            n, 0.0, p.gamma, p.gamma_prime, p.detunings))).matrix)
    for lio in gens:
        assert _coherence_levels(lio) is None
        assert np.array_equal(steady_states(lio[None]), dense(lio))


def beyond_order_0(lio):
    """(d, d) mask of the entries rho_ab of coherence order other than 0: those placed
    after the orders 0 (as many as the rows of the last row block) by the grading."""
    grading = _coherence_levels(lio)
    d = isqrt(lio.shape[0])
    return (grading.unsort >= grading.rows[-1][2]).reshape(d, d).T  # vec index i + j*d


@pytest.mark.parametrize("model", ["chain", "rb85", "pi-branch", "reduced"])
def test_graded_states_are_hermitian_beyond_order_0_bit_for_bit(model):
    """The solution of order -q is written as the conjugate of that of +q: rho_ba is
    conj(rho_ab) bit for bit wherever phi(a) != phi(b)."""
    rng = np.random.default_rng(44)
    p = readme_chain(13, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, 12))))
    lio = {
        "chain": lambda: build_generator(cascaded_lambda_graph(p)).matrix,
        "rb85": rb85_generator,
        "pi-branch": lambda: rb85_generator("pi", 3.0),
        "reduced": lambda: build_effective_generator(13, p.hopping_rate, p.gamma_prime,
                                                     p.detunings).matrix,
    }[model]()
    beyond, rho = beyond_order_0(lio), graded(lio)
    assert beyond.any() and not beyond.all()
    assert np.array_equal(rho.T[beyond], rho.conj()[beyond])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("change", [1e-14, 1e-9, 1e-3, 1.0])
def test_generator_that_does_not_preserve_hermiticity_takes_the_dense_solve(change):
    """One entry of order -q changed alone, by a relative ``change``, so that L does
    not map Hermitian matrices to Hermitian ones: block elimination reads only side
    +q and would return the mirror of a state of another L.  The grading check
    rejects it, so the single and the affine solve give the dense solve's bits or
    raise its error."""
    base, slope, xs = detuning_family(13)
    grading = _coherence_levels(base)
    minus = np.flatnonzero(grading.unsort >= (base.shape[0] + grading.rows[-1][2]) // 2)
    for entry in ((minus[0], minus[0]), (minus[-1], minus[-1]), (minus[3], minus[3])):
        changed = base.copy()
        changed[entry] += change * changed[entry]
        assert _coherence_levels(changed) is None
        xs_few = xs[::8]
        for solve, args, stack in (
            (steady_states, (changed[None],), changed[None]),
            (affine_steady_states, (changed, slope, xs_few), changed + xs_few[:, None, None] * slope),
        ):
            try:
                want = dense(stack)
            except (SteadyStateError, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    solve(*args)
            else:
                assert np.array_equal(solve(*args), want)


def detuning_family(n_levels=13):
    """base and slope of the README chain's generator against the two-photon detuning."""
    def at(delta):
        p = readme_chain(n_levels, raman_detunings(n_levels, delta))
        return build_generator(cascaded_lambda_graph(p)).matrix

    base = at(0.0)
    return base, at(1.0) - base, mhz_to_angular(np.linspace(-2.0, 2.0, 41))


def test_affine_chunks_give_the_same_bits(monkeypatch):
    base, slope, xs = detuning_family()
    chunks = []

    def count(grading, fro):
        chunks.append((len(fro), 16 * grading.band.size))

    monkeypatch.setattr(clams.liouvillian, "_graded_states",
                        no_dense_solve(clams.liouvillian._graded_states, count))
    monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", 2**40)
    whole = affine_steady_states(base, slope, xs)
    assert [k for k, _ in chunks] == [41]
    per_point = chunks[0][1]  # bytes of the band of one generator
    monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", 3 * per_point)
    chunks.clear()
    chunked = affine_steady_states(base, slope, xs)
    assert [k for k, _ in chunks] == [3] * 13 + [2]
    assert np.array_equal(chunked, whole)
    assert np.array_equal(whole, steady_states(base + xs[:, None, None] * slope))
    assert np.abs(whole - dense(base + xs[:, None, None] * slope)).max() <= GRADED_RTOL


def raised(solve, *args):
    with pytest.raises(SteadyStateError) as err:
        solve(*args)
    return type(err.value), str(err.value), getattr(err.value, "null_dim", None)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_member_of_a_graded_stack_raises_the_dense_error():
    base, slope, xs = detuning_family()
    stack = base + xs[:3, None, None] * slope
    stack[1, 5, 5] = stack[1, 65, 65] = np.inf  # on the diagonal at rho_50 and its mirror
    # rho_05 (vec indices 5 and 65), so the stack still grades
    assert _coherence_levels(stack) is not None
    error = raised(dense, stack)
    assert "non-finite" in error[1]
    assert raised(steady_states, stack) == error
    base = base.copy()
    base[5, 5] = base[65, 65] = np.inf
    assert raised(affine_steady_states, base, slope, xs[:3]) == error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the norms
def test_overflowing_norm_raises_on_every_path():
    """Finite entries whose ||L||_F overflows: a single solve, a stack and a sweep all
    raise OverflowError, where finite / inf made the residual 0 and passed any state."""
    def chain(rabi):
        return build_generator(cascaded_lambda_graph(chain_params(5, rabi, 1.0, 0.1))).matrix

    base, ok = chain(0.0), chain(1.0)
    for solve, args in ((steady_states, (chain(1e160)[None],)),
                        (steady_states, (np.stack([ok, chain(1e160)]),)),
                        (affine_steady_states, (base, ok - base, [1.0, 1e160]))):
        with pytest.raises(OverflowError, match="overflows a float"):
            solve(*args)


def disconnected_family():
    """base: two disconnected 2-level blocks (null space of dimension 2); slope:
    decays that join them, so only the member at x = 0 is degenerate."""
    h = np.zeros((4, 4), dtype=complex)
    base = build_generator(CouplingGraph(4, h, ((1, 0, 1.0), (0, 1, 0.5), (3, 2, 1.0), (2, 3, 0.5))))
    slope = build_generator(CouplingGraph(4, h, ((1, 2, 1.0), (2, 1, 1.0))))
    return base.matrix, slope.matrix


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("at", [0, 1, 2])
def test_first_failing_member_raises_the_dense_error(at):
    """A failing member first, in the middle or last of a stack and of a sweep: the
    stacked and the affine solve raise the error of the dense solve, member split
    included.  The non-finite member of the README 13-level family is one with inf on
    the diagonal at rho_50 and rho_05, which keeps the stack graded, or the point
    x = inf of the sweep; the degenerate member of the 4-level family is its point
    x = 0.  With both of these in one sweep, the first of them raises."""
    base, slope, xs = detuning_family()
    stack = base + xs[:3, None, None] * slope
    stack[at, 5, 5] = stack[at, 65, 65] = np.inf
    assert _coherence_levels(stack) is not None
    error = raised(dense, stack)
    assert "non-finite" in error[1]
    assert raised(steady_states, stack) == error
    cases = [(base, slope, np.insert(xs[:2], at, np.inf), (SteadyStateError, None)),
             (*disconnected_family(), np.insert([0.5, 2.0], at, 0.0), (DegenerateSteadyStateError, 2)),
             (*disconnected_family(), np.insert([0.0, 2.0], at, np.inf),  # two failing members
              (SteadyStateError, None) if at == 0 else (DegenerateSteadyStateError, 2))]
    for base, slope, xs, (kind, null_dim) in cases:
        stack = base + xs[:, None, None] * slope
        error = raised(dense, stack)
        assert (error[0], error[2]) == (kind, null_dim)
        assert raised(steady_states, stack) == error
        assert raised(affine_steady_states, base, slope, xs) == error


def test_singular_block_solve_falls_back_to_the_dense_bits(monkeypatch):
    base, slope, xs = detuning_family()
    stack = base + xs[:, None, None] * slope
    want = dense(stack)
    real = np.linalg.solve

    def solve(a, b):
        if a.shape[-1] < base.shape[0]:  # a block, not a whole generator
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    assert np.array_equal(steady_states(stack), want)
    assert np.array_equal(affine_steady_states(base, slope, xs), want)


def test_entries_joining_orders_two_apart_take_the_dense_solve():
    """A Hermiticity-preserving pair of coherence-to-coherence entries, rho_01 <- rho_43
    and its conjugate, joins orders -1 and +1 of the README chain: the grading check
    rejects it, and the single and the affine solve are the dense one, bit for bit."""
    base, slope, xs = detuning_family(13)
    assert _coherence_levels(base) is not None
    d, alpha = 13, 1e-3 * readme_chain(13).gamma_prime * (1.0 + 1.0j)
    base[0 + 1 * d, 4 + 3 * d] = alpha  # the vec index of rho_ij is i + j*d
    base[1 + 0 * d, 3 + 4 * d] = np.conj(alpha)
    assert _coherence_levels(base) is None
    assert np.array_equal(steady_states(base[None]), dense(base))
    xs = xs[::8]
    assert np.array_equal(affine_steady_states(base, slope, xs),
                          dense(base + xs[:, None, None] * slope))
