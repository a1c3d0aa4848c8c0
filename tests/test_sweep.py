"""Batched sweeps against per-point steady states."""
import platform
import threading
import tracemalloc
import warnings
from dataclasses import replace
from math import isqrt

import numpy as np
import pytest

import clams.liouvillian
from clams.cli import main
from clams.effective import build_effective_generator, effective_steady_state
from clams.level_system import SystemParams, ground_indices, raman_detunings, rotating_diagonal
from clams.liouvillian import (
    RESIDUAL_RTOL,
    CouplingGraph,
    GeneratorMatrix,
    SteadyStateError,
    affine_steady_states,
    build_generator,
    cascaded_lambda_graph,
    steady_state,
)
from clams.rb85 import (
    DEFAULT_GAMMA_MHZ,
    DEFAULT_GAMMA_PRIME_MHZ,
    DEFAULT_RABI_FRACTION,
    DEFAULT_SPLITTING_MHZ,
)
from clams.spectrum import coherence_peaks, height_ratios
from clams.units import mhz_to_angular
from conftest import (coherence_levels, each_steady_state, generators, hermitian_random, members, random_graph,
                      run_python)
from oracles import dense_bordered_steady_states

SWEEP_RTOL = 1e-12


def default_params(n_levels, gamma_prime_mhz=DEFAULT_GAMMA_PRIME_MHZ):
    """The CLI's defaults."""
    return SystemParams(
        n_levels=n_levels,
        rabi=mhz_to_angular(DEFAULT_RABI_FRACTION * DEFAULT_GAMMA_MHZ),
        gamma=mhz_to_angular(DEFAULT_GAMMA_MHZ),
        gamma_prime=mhz_to_angular(gamma_prime_mhz),
        detunings=(0.0,) * (n_levels - 1),
        delta_omega_s=mhz_to_angular(DEFAULT_SPLITTING_MHZ),
    )


def per_point_harmonics(p: SystemParams) -> tuple[list[float], list[float]]:
    """[w1, h21, h31, ...] of the full chain and of the reduced model, one solve each."""
    gidx = ground_indices(p.n_levels)
    full = steady_state(build_generator(cascaded_lambda_graph(p))).matrix[np.ix_(gidx, gidx)]
    eff = effective_steady_state(
        build_effective_generator(p.n_levels, p.hopping_rate, p.gamma_prime, p.detunings)
    ).matrix
    out = []
    for rho in (full, eff):
        peaks = coherence_peaks(rho, p.delta_omega_s)
        ratios = height_ratios(peaks)
        out.append([peaks.fundamental_weight] + [ratios.ratio(n) for n in range(2, p.n_ground)])
    return out[0], out[1]


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def assert_close(got: str, want: float) -> None:
    assert abs(float(got) - want) <= SWEEP_RTOL * abs(want)


@pytest.mark.parametrize("n_levels", [5, 13])
def test_readme_detuning_sweep_matches_per_point(tmp_path, n_levels):
    argv = ["sweep-detuning", "--n-levels", str(n_levels), "--start-mhz", "-2", "--stop-mhz", "2",
            "--count", "41", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_rows(tmp_path / "sweep_detuning.csv")
    assert len(rows) == 41
    base = default_params(n_levels)
    for row in rows:
        delta = mhz_to_angular(float(row[0]))
        p = SystemParams(n_levels, base.rabi, base.gamma, base.gamma_prime,
                         raman_detunings(n_levels, delta), base.delta_omega_s)
        full, eff = per_point_harmonics(p)
        assert_close(row[1], full[0])
        assert_close(row[2], eff[0])
        for k in range(1, len(full)):
            assert_close(row[1 + 2 * k], full[k])
            assert_close(row[2 + 2 * k], eff[k])


def test_readme_rabi_sweep_matches_per_point(tmp_path):
    argv = ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-4", "--omega-max", "5e-2",
            "--count", "201", "--gamma-prime-mhz", "0.02", "--parallel", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_rows(tmp_path / "sweep_rabi.csv")
    assert len(rows) == 201
    base = default_params(7, gamma_prime_mhz=0.02)
    for row in rows:
        assert row[-1] == "ok"
        p = SystemParams(7, float(row[0]) * base.gamma, base.gamma, base.gamma_prime,
                         base.detunings, base.delta_omega_s)
        assert_close(row[1], p.hopping_rate / p.gamma_prime)
        full, eff = per_point_harmonics(p)
        for k in range(1, len(full)):
            assert_close(row[2 * k], full[k])
            assert_close(row[2 * k + 1], eff[k])


def spy_chunks(monkeypatch) -> list[tuple[int, int]]:
    """(points, bytes of one L's band) of each chunk handed to the block solve, in order."""
    chunks = []
    solve = clams.liouvillian._graded_states

    def spy(block, grading, matvec, fro):
        chunks.append((len(fro), 16 * grading.band.size))
        return solve(block, grading, matvec, fro)

    monkeypatch.setattr(clams.liouvillian, "_graded_states", spy)
    return chunks


def test_partial_last_chunk_gives_same_rows(tmp_path, monkeypatch):
    argv = ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-3", "--omega-max", "5e-2",
            "--count", "11"]
    chunks = spy_chunks(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    assert [k for k, _ in chunks] == [11, 11]  # the chain, then the reduced model
    chain_band = chunks[0][1]
    monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", 3 * chain_band)
    chunks.clear()
    assert main([*argv, "--out", str(tmp_path / "chunked")]) == 0
    assert [k for k, _ in chunks] == [3, 3, 3, 2, 11]  # the reduced band is 70 entries
    one = (tmp_path / "one" / "sweep_rabi.csv").read_bytes()
    assert (tmp_path / "chunked" / "sweep_rabi.csv").read_bytes() == one


def run_warning_free(argv, out):
    """Rows of the one CSV that ``argv`` writes to ``out``; a warning would fail the command."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 0
    return read_rows(out / f"{argv[0].replace('-', '_')}.csv")


def test_undriven_detuning_sweep_writes_nan_ratios(tmp_path):
    argv = ["sweep-detuning", "--n-levels", "5", "--rabi-mhz", "0", "--start-mhz", "-1",
            "--stop-mhz", "1", "--count", "5"]
    header, rows = run_warning_free(argv, tmp_path)
    assert header == ["delta_mhz", "w1_full", "w1_eff", "h21_full", "h21_eff"]
    assert [row[1:] for row in rows] == [["0", "0", "nan", "nan"]] * 5


def test_underflowing_fundamental_is_flagged(tmp_path):
    # every point is driven, but below about 1e-50 of gamma the fundamental weight
    # underflows to 0: those points are flagged, and the others solve as usual
    argv = ["sweep-rabi", "--n-levels", "5", "--omega-min", "1e-200", "--omega-max", "1e-2",
            "--count", "5"]
    _, rows = run_warning_free(argv, tmp_path)
    assert [row[-1] for row in rows] == ["zero-fundamental"] * 3 + ["ok"] * 2
    assert all(row[2:4] == ["nan", "nan"] for row in rows[:3])
    assert float(rows[2][1]) > 0.0 and float(rows[4][2]) > 0.0


def test_zero_start_grid_gives_the_same_bytes_in_any_chunking(tmp_path, monkeypatch):
    # the undriven first point is solved with the others, all 41 in one chunk, or the
    # chain's in chunks of three or of one point (the reduced model's, whose band is 70
    # entries to the chain's 364, in chunks of 15 or 5), and its row is flagged NaN
    argv = ["sweep-rabi", "--n-levels", "7", "--omega-min", "0", "--omega-max", "0.05",
            "--count", "41", "--spacing", "linear"]
    chunks = spy_chunks(monkeypatch)
    outputs = []
    for per_chunk, sizes in ((None, [41, 41]), (3, [3] * 13 + [2] + [15, 15, 11]),
                             (1, [1] * 41 + [5] * 8 + [1])):
        if per_chunk is not None:
            monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", per_chunk * chain_band)
        chunks.clear()
        run_warning_free(argv, tmp_path / str(per_chunk))
        chain_band = chunks[0][1]
        assert [k for k, _ in chunks] == sizes, per_chunk
        outputs.append((tmp_path / str(per_chunk) / "sweep_rabi.csv").read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    _, rows = read_rows(tmp_path / "None" / "sweep_rabi.csv")
    assert rows[0] == ["0", "0", *["nan"] * 4, "zero-fundamental"]
    assert all(row[-1] == "ok" for row in rows[1:])


def readme_families():
    """(base, top, xs), the two builds L(0) and L(1) and the points, of sweeps like the
    README commands: the N = 5 and N = 7 chains against the two-photon detuning, and the
    reduced N = 7 and N = 13 models against the hopping rate on the grid of the README
    drive sweep."""
    for n in (5, 7):
        p = default_params(n)
        base = build_generator(cascaded_lambda_graph(p)).matrix  # zero detuning
        moved = replace(p, detunings=raman_detunings(n, 1.0))
        top = build_generator(cascaded_lambda_graph(moved)).matrix
        yield base, top, mhz_to_angular(np.linspace(-2.0, 2.0, 41))
    for n in (7, 13):
        p = default_params(n, gamma_prime_mhz=0.02)
        base = build_effective_generator(n, 0.0, p.gamma_prime, p.detunings).matrix
        top = build_effective_generator(n, 1.0, p.gamma_prime, p.detunings).matrix
        rabis = np.logspace(-4.0, np.log10(5e-2), 201) * p.gamma
        yield base, top, rabis**2 / p.gamma


@pytest.mark.parametrize("per_chunk", [None, 3])
def test_affine_states_equal_the_stacked_solve(monkeypatch, per_chunk):
    # L(x) = base + x (top - base) is a random graph whose Hamiltonian moves along a random
    # Hermitian direction, or a README sweep; solved chunk by chunk, it must give
    # the bits of one solve of the whole stack, and those of the dense bordered solve
    # where that is one block (the random graphs), else its numbers within SWEEP_RTOL
    rng = np.random.default_rng(33)
    families = []
    for size in (1, 2, 3, 5, 7, 8, 10, 11):  # with 3 per chunk, most end in a partial one
        graph = random_graph(rng)
        h1 = hermitian_random(rng, graph.n_states)
        base = build_generator(graph).matrix
        families.append((base, base + build_generator(CouplingGraph(len(h1), h1, ())).matrix, rng.uniform(-2.0, 2.0, size=size)))
    for base, top, xs in [*families, *readme_families()]:
        if per_chunk is not None:
            monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", per_chunk * 16 * base.size)
        got = affine_steady_states(*generators(base, top), xs)
        stack = members(base, top, xs)
        assert np.array_equal(got, each_steady_state(stack))
        want = dense_bordered_steady_states(stack)
        if coherence_levels(base, top) is None:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= SWEEP_RTOL * np.abs(want).max()


def chain_families():
    """(base, top, xs) of the full chain of the README sweeps, as the CLI builds it:
    sweep-detuning at N = 5 and N = 13 over 41 points, sweep-rabi at N = 7 over 201."""
    for n in (5, 13):
        p = default_params(n)
        base = build_generator(cascaded_lambda_graph(p)).matrix  # zero detuning
        moved = replace(p, detunings=raman_detunings(n, 1.0))
        top = build_generator(cascaded_lambda_graph(moved)).matrix
        yield base, top, mhz_to_angular(np.linspace(-2.0, 2.0, 41))
    p = default_params(7, gamma_prime_mhz=0.02)
    base = build_generator(cascaded_lambda_graph(replace(p, rabi=0.0))).matrix
    top = build_generator(cascaded_lambda_graph(replace(p, rabi=1.0))).matrix
    yield base, top, np.logspace(-4.0, np.log10(5e-2), 201) * p.gamma


def checked_calls(monkeypatch, corrupt=None):
    """The (v, matvec, fro) of every check of a solution, v as it came, in a list that
    fills as the solves run; ``corrupt(v, matvec, fro)``, if given, may change v in place
    before its check."""
    calls, check = [], clams.liouvillian._checked

    def spy(v, matvec, fro):
        calls.append((v.copy(), matvec, fro.copy()))
        if corrupt is not None:
            corrupt(v, matvec, fro)
        return check(v, matvec, fro)

    monkeypatch.setattr(clams.liouvillian, "_checked", spy)
    return calls


def mirrored(v, a, delta):
    """v (k, d^2) plus delta at vec index a and conj(delta) at its mirror P a."""
    d = isqrt(v.shape[1])
    out = v.copy()
    out[:, a] += delta
    out[:, a % d * d + a // d] += np.conj(delta)
    return out


def dense_norms(stack, w):
    """||L w|| and ||L||_F of each member, from the dense L."""
    return (np.linalg.norm(np.einsum("kij,kj->ki", stack, w), axis=1),
            np.linalg.norm(stack, axis=(1, 2)))


@pytest.mark.parametrize("family", range(5), ids=["chain5", "chain13", "rabi7", "reduced7",
                                                  "reduced13"])
def test_graded_residual_from_the_plus_q_rows_equals_the_dense_one(monkeypatch, family):
    # v perturbed at its largest entry of an order +q and at its mirror, at its largest
    # order-0 entry and at the mirror of that, or both: the residual of the rows of orders
    # 0 and +q, weighted, is the dense ||L v||, and ||L||_F the dense one, per point
    base, top, xs = [*chain_families(), *list(readme_families())[2:]][family]
    grading = coherence_levels(base, top)
    assert grading is not None
    calls = checked_calls(monkeypatch)
    affine_steady_states(*generators(base, top), xs)
    done = 0
    for v, matvec, fro in calls:
        stack = members(base, top, xs[done : done + len(v)])
        done += len(v)
        big = np.abs(v).max(axis=0)
        at = {q: np.flatnonzero(grading.order == q)[big[grading.order == q].argmax()]
              for q in (0, 1, int(grading.order.max()))}
        delta = 1e-3 * (1.0 + 0.5j) * big.max()
        for w in (mirrored(v, at[1], delta), mirrored(v, at[max(at)], delta),
                  mirrored(v, at[0], delta), mirrored(mirrored(v, at[0], delta), at[1], delta)):
            want, want_fro = dense_norms(stack, w)
            assert np.abs(np.linalg.norm(matvec(w), axis=1) / want - 1.0).max() <= 1e-10
            assert np.abs(fro / want_fro - 1.0).max() <= 1e-10
    assert done == len(xs)


@pytest.mark.parametrize("checks_corrupted", [1, None], ids=["first", "every"])
def test_corrupted_plus_q_solution_fails_the_graded_check(monkeypatch, checks_corrupted):
    # a +q entry of the solution and its mirror moved by the same small amount: the state
    # stays Hermitian with unit trace, so only the residual of the rows 0 and +q sees it.
    # Corrupted once, each point of the chunk has failed its own check and takes one dense LU,
    # not its graded solve again; every time, the solve raises
    base, top, xs = next(chain_families())
    clean = affine_steady_states(*generators(base, top), xs)
    grading = coherence_levels(base, top)
    plus1 = np.flatnonzero(grading.order == 1)[0]

    def corrupt(v, matvec, fro):
        if checks_corrupted is None or len(calls) <= checks_corrupted:
            v[:] = mirrored(v, plus1, 1e-3j)
            residual = np.linalg.norm(matvec(v), axis=1) / (fro * np.linalg.norm(v, axis=1))
            assert (residual > RESIDUAL_RTOL).all()

    calls = checked_calls(monkeypatch, corrupt)
    if checks_corrupted is None:
        with pytest.raises(SteadyStateError, match="residual"):
            affine_steady_states(*generators(base, top), xs)
    else:
        got = affine_steady_states(*generators(base, top), xs)
        assert np.array_equal(got, dense_bordered_steady_states(members(base, top, xs)))
        assert np.abs(got - clean).max() <= SWEEP_RTOL * np.abs(clean).max()
        assert len(calls) == 1 + len(xs)  # the graded chunk's check, then each point's dense LU


def trapping_family():
    """(base, top, xs) of the N = 13 chain with excited decays only (each excited level
    to both neighbours at 10 rad/us), 1 rad/us drives, against the two-photon detuning
    on 41 points through 0.  Without ground relaxation, two-photon resonance is coherent
    population trapping: there block elimination meets an exactly singular outer block."""
    def at(delta):
        h = np.diag(rotating_diagonal(13, raman_detunings(13, delta))) + np.eye(13, k=1) + np.eye(13, k=-1)
        return build_generator(CouplingGraph(13, h, tuple(
            (e, g, 10.0) for e in range(1, 13, 2) for g in (e - 1, e + 1)))).matrix

    return at(0.0), at(1.0), np.linspace(-1.0, 1.0, 41)


def test_failing_point_has_the_bits_of_its_own_solve_in_any_chunking(monkeypatch):
    # the resonant point fails the chunk's graded solve: it alone takes the dense LU, and
    # every point, solved whole, 3 or 1 per chunk, has the bits of its own steady_state
    base, top, xs = trapping_family()
    band = coherence_levels(base, top).band.size
    lone = np.stack([steady_state(GeneratorMatrix(13, base + x * (top - base))).matrix for x in xs])
    solve, dense = clams.liouvillian._graded_states, []

    def spy(block, grading, matvec, fro):
        if grading.far is None:  # one block: the dense LU
            dense.append(len(fro))
        return solve(block, grading, matvec, fro)

    monkeypatch.setattr(clams.liouvillian, "_graded_states", spy)
    for per_chunk in (None, 3, 1):
        with monkeypatch.context() as patch:
            if per_chunk is not None:
                patch.setattr(clams.liouvillian, "STACK_BYTES", per_chunk * 16 * band)
            dense.clear()
            got = affine_steady_states(*generators(base, top), xs)
        assert np.array_equal(got, lone), per_chunk
        assert dense == [1], per_chunk  # one dense LU, of one point


def test_failing_point_costs_one_dense_generator():
    # the traced peak of the sweep through resonance exceeds that of the sweep without
    # its resonant point by at most 8 dense L (16 d^4 bytes each), however many points
    # share the failing chunk
    base, top, xs = trapping_family()

    def peak(points):
        affine_steady_states(*generators(base, top), points)  # the cached plans, once
        tracemalloc.start()
        try:
            affine_steady_states(*generators(base, top), points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    resonant = np.flatnonzero(xs == 0.0)
    assert resonant.size == 1
    assert peak(xs) <= peak(np.delete(xs, resonant)) + 8 * base.nbytes


def one_block_family():
    """(base, top, xs) of a random 5-state graph whose Hamiltonian moves along a random
    Hermitian direction: a family of one block."""
    rng = np.random.default_rng(5)
    graph = random_graph(rng, d=5)
    h1 = hermitian_random(rng, graph.n_states)
    base = build_generator(graph).matrix
    return base, base + build_generator(CouplingGraph(len(h1), h1, ())).matrix, rng.uniform(-2, 2, 7)


def test_one_block_family_checks_every_row(monkeypatch):
    base, top, xs = one_block_family()
    rng = np.random.default_rng(6)
    assert coherence_levels(base, top) is None
    calls = checked_calls(monkeypatch)
    affine_steady_states(*generators(base, top), xs)
    ((v, matvec, fro),) = calls
    stack = members(base, top, xs)
    w = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
    got = matvec(w)
    assert got.shape == v.shape  # one entry per row of L
    want = np.einsum("kij,kj->ki", stack, w)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(fro / dense_norms(stack, w)[1] - 1.0).max() <= 1e-13


def in_new_thread(solve):
    """``solve()`` run in a thread of its own."""
    out = []
    thread = threading.Thread(target=lambda: out.append(solve()))
    thread.start()
    thread.join()
    (result,) = out
    return result


def recording_checks(monkeypatch, times=1):
    """Make every check form its L v ``times`` times first.  Returns ``run(solve)``, which
    gives ``solve()`` and the L v of the checks it ran, in the thread that runs it."""
    check, seen = clams.liouvillian._checked, threading.local()

    def spy(v, matvec, fro):
        seen.products.extend(matvec(v) for _ in range(times))
        return check(v, matvec, fro)

    def run(solve):
        seen.products = []
        return solve(), seen.products

    monkeypatch.setattr(clams.liouvillian, "_checked", spy)
    return run


def assert_same_solves(got, want):
    """The states and the L v of every check of two ``run`` results have the same bits.
    The states alone would not show a bad gather: a check that fails is re-solved."""
    assert np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1]) and all(map(np.array_equal, got[1], want[1]))


@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
@pytest.mark.parametrize("family", ["detuning13", "one-block"])
def test_reused_gather_buffer_leaves_no_trace(monkeypatch, family, chunked):
    # the family solved first in its thread, then after a family whose gather is larger
    # (the README N = 7 Rabi sweep) and after one whose gather is smaller (two points of
    # the N = 5 detuning sweep), in a thread each: the same bits, whatever heap the other
    # family left behind
    (base5, top5, xs5), detuning13, rabi7 = chain_families()
    base, top, xs = detuning13 if family == "detuning13" else one_block_family()
    grading = coherence_levels(base, top)
    assert (grading is None) == (family == "one-block")
    run = recording_checks(monkeypatch)

    def solve():
        with monkeypatch.context() as patch:
            if chunked:  # 3 points per chunk: 3 bands (one block: 3 generators)
                band = base.size if grading is None else grading.band.size
                patch.setattr(clams.liouvillian, "STACK_BYTES", 3 * 16 * band)
            return affine_steady_states(*generators(base, top), xs)

    first = in_new_thread(lambda: run(solve))
    for before in (rabi7, (base5, top5, xs5[:2])):
        got = in_new_thread(lambda: (run(lambda: affine_steady_states(*generators(*before[:2]), before[2])), run(solve))[1])
        assert_same_solves(got, first)


def test_threads_keep_their_own_gather_buffers(monkeypatch):
    # two threads solve the README N = 13 detuning and N = 7 Rabi families 8 times each,
    # every check forming L v 30 times to widen the window in which the other thread
    # runs: the bits of the serial solves, as L v would not have if one thread gathered
    # into memory from which the other was multiplying and summing
    run = recording_checks(monkeypatch, times=30)
    solves = [lambda f=family: [affine_steady_states(*generators(*f[:2]), f[2]) for _ in range(8)]
              for family in list(chain_families())[1:]]
    serial = [run(solve) for solve in solves]
    results = [None, None]
    threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, run(solves[i])))
               for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for got, want in zip(results, serial):
        assert_same_solves(got, want)


# Each run prints the minor page faults it made; the argv is the command's.
_REPEATED_SWEEP = """if True:
    import resource, sys
    from clams.cli import main
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(sys.argv[1:]) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is stated for glibc")
def test_repeated_sweeps_fault_no_fresh_pages(tmp_path):
    # the README N = 7 Rabi sweep run five times alone in a fresh interpreter: once the heap
    # policy has let the heap keep a sweep's chunks, a run takes them from there, not from fresh
    # mmap pages, and faults in at most a few pages (CPython's own object arenas)
    argv = ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-4", "--omega-max", "5e-2",
            "--count", "201", "--gamma-prime-mhz", "0.02", "--out", str(tmp_path)]
    faults = [int(n) for n in run_python(_REPEATED_SWEEP, *argv, blas_threads=1).split()]
    assert len(faults) == 5 and max(faults[2:]) < 50, faults


@pytest.mark.parametrize("argv", [
    ["sweep-detuning", "--n-levels", "5", "--start-mhz", "-2", "--stop-mhz", "2", "--count", "41"],
    ["sweep-detuning", "--n-levels", "13", "--start-mhz", "-2", "--stop-mhz", "2", "--count", "41"],
    ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-4", "--omega-max", "5e-2", "--count", "201",
     "--gamma-prime-mhz", "0.02", "--parallel", "2"],
    ["sweep-rabi", "--n-levels", "7", "--spacing", "linear", "--omega-min", "0", "--omega-max", "0",
     "--count", "3"],
], ids=["detuning5", "detuning13", "rabi7", "rabi7-undriven"])
def test_sweeps_raise_no_warning(tmp_path, capsys, argv):
    # the benchmark's sweep shapes, an all-undriven grid, and, in the detuning sweeps, the
    # point x = 0 of both families: no RuntimeWarning (invalid value, overflow) from the
    # norms of L, the row weights or the peak weights, which run_warning_free makes an error
    _, rows = run_warning_free(argv, tmp_path)
    assert capsys.readouterr().err == ""
    if argv[0] == "sweep-detuning":
        assert rows[20][0] == "0"
