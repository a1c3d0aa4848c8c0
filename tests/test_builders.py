"""The index-based generator builders against their reference forms in ``oracles``, the
patterns they record, and the values alone that a graded build holds."""
import tracemalloc

import numpy as np
import pytest

from clams import cli, liouvillian, rb85
from clams.cli import write_complex_matrix_csv
from clams.effective import build_effective_generator
from clams.liouvillian import (
    GeneratorMatrix,
    affine_steady_states,
    build_generator,
    cascaded_lambda_graph,
    steady_state,
)
from clams.units import mhz_to_angular
from conftest import chain_params, coherence_levels, each_steady_state, generators, random_graph, rb85_graph
from oracles import closure_effective_generator, dense_effective_generator, dense_generator, kron_generator

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


def chain_generators(build=build_generator):
    """Chains N = 3..21, undriven and driven, at zero and at random detunings."""
    rng = np.random.default_rng(7)
    for n in range(3, 22, 2):
        for rabi in (0.0, 0.3):
            for detunings in (None, tuple(rng.normal(size=n - 1))):
                yield build(cascaded_lambda_graph(chain_params(n, rabi, 1.0, 1e-3, detunings)))


def rb85_generators(build=build_generator):
    """The rb85 command's model at its defaults and on the pi branch 3 MHz off the line."""
    gamma, dws = mhz_to_angular(rb85.DEFAULT_GAMMA_MHZ), mhz_to_angular(rb85.DEFAULT_SPLITTING_MHZ)
    for branch, line_detuning_mhz in (("sigma+", 0.0), ("pi", 3.0)):
        yield build(rb85.build_full_model(
            rb85.DEFAULT_RABI_FRACTION * gamma, gamma, mhz_to_angular(rb85.DEFAULT_GAMMA_PRIME_MHZ),
            splitting=dws, excited_splitting=dws, delta_omega_s=dws,
            line_detuning=mhz_to_angular(line_detuning_mhz), offset_branch=branch))


def reduced_generators(build=build_effective_generator):
    """Reduced models N = 3..13, without and with hopping, at zero and at random detunings."""
    rng = np.random.default_rng(8)
    for n in range(3, 14, 2):
        for j_hop in (0.0, 0.02):
            for detunings in (None, tuple(rng.normal(size=n - 1))):
                yield build(n, j_hop, 0.1, detunings)


def criterion_09_generators(build=build_generator):
    rng = np.random.default_rng(2026)  # the draw sequence of criterion 09
    for _ in range(200):
        g = random_graph(rng)
        rng.normal(size=(g.n_states,) * 2), rng.normal(size=(g.n_states,) * 2)
        yield build(g)


FAMILIES = {"chains": chain_generators, "rb85": rb85_generators, "reduced": reduced_generators,
            "criterion-09": criterion_09_generators}
# each family's dense reference build: the index builders as they wrote every entry
ORACLES = {"chains": dense_generator, "rb85": dense_generator, "reduced": dense_effective_generator,
           "criterion-09": dense_generator}


def outside(gen) -> np.ndarray:
    """Mask of the flat entries of ``gen.matrix`` outside its pattern."""
    mask = np.ones(gen.matrix.size, dtype=bool)
    mask[gen.pattern] = False
    return mask


@pytest.mark.parametrize("family", FAMILIES)
def test_every_entry_outside_the_builders_pattern_is_plus_zero(family):
    for gen in FAMILIES[family]():
        assert gen.structure is not None
        assert (np.diff(gen.pattern) > 0).all() and gen.pattern[-1] < gen.matrix.size
        assert not gen.matrix.ravel()[outside(gen)].view(np.int64).any()  # +0.0 in both parts


@pytest.mark.parametrize("family", FAMILIES)
def test_solve_over_the_builders_pattern_has_the_bits_of_the_raw_array(family):
    # the same matrix given without its structure: its pattern comes from a scan
    for gen in FAMILIES[family]():
        raw = GeneratorMatrix(gen.n_states, gen.matrix.copy())
        assert raw.structure is None and np.isin(raw.pattern, gen.pattern).all()
        assert np.array_equal(steady_state(gen).matrix, steady_state(raw).matrix)


@pytest.mark.parametrize("family", ["chains", "rb85", "reduced"])
def test_graded_solve_sweep_and_dump_read_only_the_pattern(tmp_path, family):
    # NaN planted at every entry outside the pattern changes nothing that is read through
    # it: a graded single solve, the sweep from that generator to twice it (both planted)
    # and the generator dump
    graded = [gen for gen in FAMILIES[family]() if coherence_levels(gen.matrix) is not None]
    assert graded
    for gen in graded:
        poisoned = gen.matrix.copy()
        poisoned.ravel()[outside(gen)] = np.nan
        planted = GeneratorMatrix(gen.n_states, poisoned, structure=gen.structure)
        assert np.array_equal(steady_state(planted).matrix, steady_state(gen).matrix)
        xs = [0.5, 1.0]
        doubled = GeneratorMatrix(gen.n_states, 2 * poisoned, structure=gen.structure)
        assert np.array_equal(affine_steady_states(planted, doubled, xs),
                              affine_steady_states(*generators(gen.matrix, 2 * gen.matrix), xs))
        write_complex_matrix_csv(tmp_path / "got.csv", planted, "0")
        write_complex_matrix_csv(tmp_path / "want.csv", gen.matrix, "0")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


@pytest.mark.parametrize("family", FAMILIES)
def test_values_and_matrix_have_the_bits_of_the_dense_build(family):
    # the values at the pattern are the matrix's there, and the matrix (made from the values
    # when the build is graded) is the dense build's, bit for bit
    for gen, want in zip(FAMILIES[family](), FAMILIES[family](ORACLES[family]), strict=True):
        assert np.array_equal(bits(gen.values), bits(gen.matrix.ravel()[gen.pattern]))
        assert np.array_equal(bits(gen.matrix), bits(want))


@pytest.mark.parametrize("family", ["chains", "rb85", "reduced"])
def test_sweep_of_two_builds_has_the_bits_of_the_dense_family(materialized, family):
    # the family from base = L(0) to top = L(1), its slope formed from their values at the
    # union of their patterns, solves to the steady states of the dense L0 + x (L1 - L0)
    # bit for bit, without making either dense; the points lie between the two builds,
    # where the pattern of each member is that union
    gens = list(FAMILIES[family]())
    pairs = [(base, top) for base, top in zip(gens, gens[1:]) if top.n_states == base.n_states]
    assert pairs
    xs = np.array([0.25, 0.5, 0.75])
    for base, top in pairs:
        got = affine_steady_states(base, top, xs)
        assert materialized == []
        want = each_steady_state(base.matrix + xs[:, None, None] * (top.matrix - base.matrix))
        assert np.array_equal(bits(got), bits(want))
        materialized.clear()


@pytest.mark.parametrize("family", ["chains", "rb85"])
def test_builders_pattern_holds_only_the_nonzeros(family):
    # the pattern is the entries written, not padded: as many as the nonzeros of L
    sizes = {}
    for gen in FAMILIES[family]():
        assert gen.pattern.size == np.count_nonzero(gen.matrix)
        sizes[gen.n_states] = gen.pattern.size
    assert family != "chains" or sizes[21] == 2161


def test_raw_generator_is_scanned_once():
    gen = build_generator(cascaded_lambda_graph(chain_params(5, 0.3, 1.0, 1e-3)))
    raw = GeneratorMatrix(gen.n_states, gen.matrix.copy())
    assert raw.pattern is raw.pattern and raw.values is raw.values
    assert np.array_equal(raw.pattern, gen.pattern) and np.array_equal(bits(raw.values), bits(gen.values))


@pytest.mark.parametrize("family", ["chains", "rb85", "reduced"])
def test_hand_built_pattern_solves_to_the_builders_bits(family):
    # values at a pattern given as a plain int64 array, not a view of bytes: the
    # generator keeps a view of its own bytes, which key the solver's plan
    for gen in FAMILIES[family]():
        hand = GeneratorMatrix(gen.n_states, values=gen.values, pattern=np.array(gen.pattern))
        assert np.array_equal(bits(steady_state(hand).matrix), bits(steady_state(gen).matrix))


def test_graded_build_holds_only_its_values():
    gen = build_generator(cascaded_lambda_graph(chain_params(21, 0.3, 1.0, 1e-3)))
    assert "matrix" not in vars(gen) and gen.values.shape == gen.pattern.shape == (2161,)
    assert gen.matrix is gen.matrix  # made once, on first read


@pytest.fixture
def materialized(monkeypatch):
    """The generators whose dense matrix is made from their values, while the fixture lives."""
    made, make = [], GeneratorMatrix.matrix

    class Spy:  # a non-data descriptor, as the cached property is
        def __get__(self, gen, owner=None):
            made.append(gen)
            return make.__get__(gen, owner)

    monkeypatch.setattr(GeneratorMatrix, "matrix", Spy())
    return made


@pytest.mark.parametrize("argv", [["steady", "--n-levels", "21", "--dump-generator"],
                                  ["rb85", "--with-truncated-13", "--format", "both"]])
def test_models_commands_make_no_dense_generator(tmp_path, materialized, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert materialized == []
    assert peak < 16 * 21**4  # the bytes of the N = 21 chain's dense L


@pytest.mark.parametrize("argv", [
    ["sweep-detuning", "--n-levels", "21", "--start-mhz", "-2", "--stop-mhz", "2", "--count", "41"],
    ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-4", "--omega-max", "5e-2", "--count", "201",
     "--gamma-prime-mhz", "0.02"]], ids=["detuning21", "rabi7"])
def test_sweeps_make_no_dense_generator(tmp_path, materialized, argv):
    # each family is solved from its builders' values: neither the chain's L (of order 441 at
    # N = 21) nor the reduced model's is made dense
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert materialized == []


def test_criterion_09_graphs_compute_no_places():
    # each graph's H is dense: one block, built dense, with no pattern or places computed
    misses = liouvillian._places.cache_info().misses
    for gen in criterion_09_generators():
        assert "matrix" in vars(gen)
        steady_state(gen)
    assert liouvillian._places.cache_info().misses == misses
