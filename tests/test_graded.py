"""Block elimination over coherence orders against the dense bordered solve it replaced
for generators of GRADED_MIN_STATES or more states."""
import numpy as np
import pytest

import clams.liouvillian
from clams import rb85
from clams.effective import build_effective_generator
from clams.level_system import SystemParams, ground_indices, raman_detunings
from clams.liouvillian import (
    GRADED_MIN_STATES,
    CouplingGraph,
    SteadyStateError,
    _coherence_levels,
    _pairs,
    affine_steady_states,
    build_generator,
    cascaded_lambda_graph,
    steady_states,
)
from clams.spectrum import peak_weights
from clams.units import mhz_to_angular
from conftest import chain_params, random_graph
from oracles import dense_bordered_steady_states

GRADED_RTOL = 1e-12


def dense(stack):
    """The dense bordered solve of a copy of ``stack`` (one generator or a stack)."""
    return dense_bordered_steady_states(np.array(stack, dtype=complex, ndmin=3))


def no_dense_solve(*_args):
    raise AssertionError("the dense solve ran")


def graded(lio):
    """Steady state of one generator by block elimination alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clams.liouvillian, "_solve_stack", no_dense_solve)
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


@pytest.mark.parametrize("n_levels", range(9, 22, 2))
def test_chains_with_random_detunings_match_the_dense_solve(n_levels):
    rng = np.random.default_rng(n_levels)
    p = readme_chain(n_levels, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, n_levels - 1))))
    lio = build_generator(cascaded_lambda_graph(p)).matrix
    got = graded(lio) if n_levels >= GRADED_MIN_STATES else steady_states(lio[None])[0]
    assert_close(got, dense(lio)[0], ground_indices(n_levels))


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
    levels = _coherence_levels(lio)
    assert len(levels) == 7  # the longer chain, 7 states, sets the outermost order 6
    assert_close(graded(lio), dense(lio)[0], np.arange(12))


def test_single_block_inputs_keep_the_dense_bits():
    rng = np.random.default_rng(2026)  # the draw sequence of criterion 09
    gens = []
    for _ in range(200):
        g = random_graph(rng)
        rng.normal(size=(g.n_states,) * 2), rng.normal(size=(g.n_states,) * 2)
        gens.append(build_generator(g).matrix)
    rng = np.random.default_rng(43)
    for n in (3, 5, 7):
        p = readme_chain(n, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, n - 1))))
        gens.append(build_generator(cascaded_lambda_graph(p)).matrix)
    for n in range(3, 2 * GRADED_MIN_STATES - 2, 2):  # reduced models of up to 9 states
        p = readme_chain(n, tuple(mhz_to_angular(rng.uniform(-1.0, 1.0, n - 1))))
        gens.append(build_effective_generator(n, p.hopping_rate, p.gamma_prime, p.detunings).matrix)
    for lio in gens:
        assert _coherence_levels(lio) is None
        assert np.array_equal(steady_states(lio[None]), dense(lio))


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
    real = clams.liouvillian._graded_states

    def spy(block, levels, matvec, fro):
        chunks.append((len(fro), sum(block(q, r)[0].nbytes for q, r in _pairs(levels))))
        return real(block, levels, matvec, fro)

    monkeypatch.setattr(clams.liouvillian, "_graded_states", spy)
    monkeypatch.setattr(clams.liouvillian, "_dense_affine", no_dense_solve)
    monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", 2**40)
    whole = affine_steady_states(base, slope, xs)
    assert [k for k, _ in chunks] == [41]
    per_point = chunks[0][1]  # bytes of the blocks of one generator
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
    stack[1, 5, 5] = np.inf  # on the diagonal, so the stack still grades
    assert _coherence_levels(stack) is not None
    error = raised(dense, stack)
    assert "non-finite" in error[1]
    assert raised(steady_states, stack) == error
    base = base.copy()
    base[5, 5] = np.inf
    assert raised(affine_steady_states, base, slope, xs[:3]) == error


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
