"""Rate-based master-equation generator, steady-state solver, and exact propagator.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum over channels r * D[|t><s|] rho,

with D[c] rho = c rho c^+ - (c^+ c rho + rho c^+ c) / 2.  Population-transfer
channels |t><s| feed rho_tt from rho_ss and damp every coherence rho_ab at half
the sum of the total outflow rates of a and b; they never create coherence.

Vectorization is column-stacking throughout: vec(rho)[i + j*d] = rho[i, j], so
vec(A rho B) = (B^T kron A) vec(rho).  Every index map in this module derives
from that single convention.

:func:`build_generator` assembles L: dense where H joins states in cliques alone, else its values
at its pattern, the entries it writes, from index places cached per structure.  :func:`steady_state`
solves one L, :func:`affine_steady_states` a family from its two builds (slope formed once at their
union), read only at the one cached plan of its pattern (:func:`_plan`); heap: ``STACK_BYTES``.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, frexp, inf, isfinite, isqrt
from operator import iadd, imul

import numpy as np

from .level_system import SystemParams, build_rotating_hamiltonian

__all__ = [
    "CouplingGraph",
    "GeneratorMatrix",
    "DensityMatrix",
    "DegenerateSteadyStateError",
    "SteadyStateError",
    "PropagationError",
    "affine_steady_states",
    "build_generator",
    "cascaded_lambda_graph",
    "steady_state",
    "propagate",
]

# Solver tolerances: ~100x machine epsilon times the d <= 16 matrix scale.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
RESIDUAL_RTOL = 1e-10  # relative to ||L|| ||v||
NULLSPACE_RTOL = 1e-10
# Degree-13 Pade coefficients of exp, and the 1-norm up to which that approximant
# is accurate to double precision (Higham 2005, table 2.3).
_PADE_13 = [factorial(26 - k) * factorial(13) / (factorial(26) * factorial(13 - k) * factorial(k))
            for k in range(14)]
_THETA_13 = 5.371920351148152

# A sweep builds and solves its points in chunks of at most this many bytes of
# the blocks it eliminates (one block: the whole generator), or of the nonzeros its
# residual check gathers; the solves work on one member at a time.
STACK_BYTES = 2 * 1024**2
# The heap policy: glibc maps each block over its dynamic mmap threshold (128 KiB at first) afresh,
# its pages faulting in, and freeing one raises the threshold to its size (the heap's trim threshold
# to twice that).  Freeing one untouched block of 2 STACK_BYTES here keeps sweeps' chunks in the heap.
np.empty(2 * STACK_BYTES, dtype=np.uint8)


class SteadyStateError(RuntimeError):
    """Steady-state solve failed (residual above tolerance)."""


class DegenerateSteadyStateError(SteadyStateError):
    """The generator has more than one steady state (disconnected graph or input bug)."""

    def __init__(self, null_dim: int):
        self.null_dim = null_dim
        super().__init__(
            f"generator null space has estimated dimension {null_dim}; "
            "the steady state is not unique"
        )


class PropagationError(RuntimeError):
    """Time propagation failed to meet the requested tolerance."""


@dataclass(frozen=True)
class CouplingGraph:
    """Level graph: Hermitian Hamiltonian plus population-decay channels.

    ``population_decays`` holds (source_state, target_state, rate) triples with
    0-based state indices; each is an incoherent population transfer channel.
    """

    n_states: int
    hamiltonian: np.ndarray
    population_decays: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.shape != (self.n_states, self.n_states):
            raise ValueError(f"hamiltonian must be {self.n_states}x{self.n_states}")
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian entries must be finite")
        scale = max(1.0, float(np.abs(h).max()))
        if np.abs(h - h.conj().T).max() > HERMITICITY_ATOL * scale:
            raise ValueError("hamiltonian must be Hermitian")
        object.__setattr__(self, "hamiltonian", h)
        chans = []
        for src, tgt, rate in self.population_decays:
            if not (0 <= src < self.n_states and 0 <= tgt < self.n_states):
                raise ValueError(f"decay channel ({src}, {tgt}) out of range")
            if src == tgt:
                raise ValueError("decay channel source and target must differ")
            if rate < 0:
                raise ValueError(f"negative decay rate {rate}")
            if not isfinite(rate):
                raise ValueError(f"decay rate {rate} must be finite")
            chans.append((int(src), int(tgt), float(rate)))
        object.__setattr__(self, "population_decays", tuple(chans))


class GeneratorMatrix:
    """Linear generator L on column-stacked density matrices: dvec(rho)/dt = L vec(rho), given
    dense (``matrix``, n^2 x n^2; its pattern is one scan's, kept with its values) or as its
    ``values`` at its ``pattern`` alone (sorted flat indices, an int64 view of their own bytes), which
    ``matrix`` scatters into +0.0 on first read and keeps.  The builders set ``structure``, the
    key of the pattern they write, in place of ``pattern``."""

    def __init__(self, n_states: int, matrix=None, *, structure: tuple | None = None, values=None,
                 pattern: np.ndarray | None = None):
        if matrix is None and (values is None or structure is None and pattern is None):
            raise ValueError("a generator needs its matrix, or its values and their pattern")
        if matrix is not None and np.shape(matrix) != (n_states**2,) * 2:
            raise ValueError(f"the generator of {n_states} states must be {n_states**2}x{n_states**2}")
        self.n_states, self.structure = n_states, structure
        if pattern is not None:  # a view of its own bytes, which key the solver's plan
            pattern = np.frombuffer(np.asarray(pattern, dtype=np.int64).tobytes(), np.int64)
        self.__dict__.update((k, v) for k, v in (("matrix", matrix), ("values", values), ("pattern", pattern))
                             if v is not None)

    @cached_property
    def matrix(self) -> np.ndarray:
        lio = np.zeros(self.n_states**4, dtype=complex)
        lio[self.pattern] = self.values
        return lio.reshape((self.n_states**2,) * 2)

    @cached_property
    def pattern(self) -> np.ndarray:
        """Sorted flat indices outside which ``matrix`` is +0.0: its builder's, else one scan's."""
        return np.frombuffer(_places(*self.structure)[0] if self.structure else _scan(self.matrix), np.int64)

    @cached_property
    def values(self) -> np.ndarray:  # L at its pattern
        return np.asarray(self.matrix, dtype=complex).ravel()[self.pattern]

    def values_at(self, pattern: np.ndarray) -> np.ndarray:
        """L at ``pattern``, sorted flat indices that hold its own: its values, +0.0 elsewhere."""
        out = np.zeros(pattern.size, dtype=complex)
        out[pattern.searchsorted(self.pattern)] = self.values
        return out


@dataclass(frozen=True)
class DensityMatrix:
    """Complex d x d state; Hermitian, unit trace, positive within tolerance."""

    matrix: np.ndarray

    def validate(self, herm_atol: float = HERMITICITY_ATOL, trace_atol: float = TRACE_ATOL,
                 eig_floor: float = EIGENVALUE_FLOOR) -> "DensityMatrix":
        m = self.matrix
        if np.abs(m - m.conj().T).max() > herm_atol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m) - 1.0) > trace_atol:
            raise ValueError(f"trace {np.trace(m)} deviates from 1 beyond tolerance")
        lam_min = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if not (lam_min >= eig_floor):  # a NaN lambda_min fails
            raise ValueError(f"minimum eigenvalue {lam_min:.3e} below floor {eig_floor:.0e}")
        return self

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))

    def vec(self) -> np.ndarray:
        return self.matrix.reshape(self.n_states**2, order="F")

    @classmethod
    def from_vec(cls, v: np.ndarray, n_states: int) -> "DensityMatrix":
        return cls(np.asarray(v, dtype=complex).reshape((n_states, n_states), order="F"))


def build_generator(graph: CouplingGraph) -> GeneratorMatrix:
    """Assemble the d^2 x d^2 generator of the coherent + population-decay dynamics."""
    src, tgt, rate = np.zeros((3, 0), dtype=np.int64)
    if graph.population_decays:
        src, tgt, rate = map(np.array, zip(*graph.population_decays))
    outflow = np.bincount(src, weights=rate, minlength=graph.n_states)
    return _assemble(graph.hamiltonian, graph.hamiltonian, src, tgt, rate,
                     0.5 * (outflow[:, None] + outflow[None, :]).ravel())


def _assemble(left, right, src, tgt, rate, damping, coherent=True, cls=GeneratorMatrix, **kw):
    """The ``cls`` of rho -> -i (left rho - rho right) (in the rows of coherences alone unless
    ``coherent``), plus the transfers at ``rate`` from population src to tgt, minus ``damping``
    (vec order) on the diagonal: dense if left joins states in cliques alone, else its values at
    its pattern from the places cached per structure, by the dense build's float operations."""
    d = len(left)
    structure = ((left != 0).tobytes(), d, np.array([src, tgt], dtype=np.int64).tobytes(), coherent)
    if dense := _cliques(*structure[:2]):
        values, dp, idx = np.zeros((d * d, d * d), dtype=complex), np.diag_indices(d * d), np.arange(d)
        l4 = values.reshape(d, d, d, d)  # l4[j, i, l, k] = L[i + j*d, k + l*d]
        l4[idx, :, idx, :] -= 1j * left  # left[i, k] rho[k, j]
        l4[:, idx, :, idx] += 1j * right.T  # rho[i, l] right[l, j]
        tp = (tgt * (d + 1), src * (d + 1))
        if not coherent:
            values[idx * (d + 1), :] = 0.0
    else:
        _, lp, rp, tp, dp = _places(*structure)
        values = 0 - 1j * np.append(left, 0)[lp]  # 0 where left or right has no part
        values += 1j * np.append(right.T, 0)[rp]
    np.add.at(values, tp, rate)
    values[dp] -= damping
    return cls(d, values if dense else None, values=None if dense else values, structure=structure, **kw)


def cascaded_lambda_graph(params: SystemParams) -> CouplingGraph:
    """Adjacent-decay model of the N-level chain.

    Each excited level decays to both neighbouring ground levels at ``gamma``
    per channel (total outflow 2*gamma), and each ground level relaxes to the
    ground neighbours two levels away at ``gamma_prime`` per existing channel
    (edge levels have a single channel).  Excited levels carry no
    ``gamma_prime`` channels.
    """
    n = params.n_levels
    chans: list[tuple[int, int, float]] = []
    for i in range(n):  # 0-based index, level label m = i + 1
        if (i + 1) % 2 == 0:  # excited
            chans.append((i, i - 1, params.gamma))
            chans.append((i, i + 1, params.gamma))
        else:  # ground
            if i - 2 >= 0:
                chans.append((i, i - 2, params.gamma_prime))
            if i + 2 < n:
                chans.append((i, i + 2, params.gamma_prime))
    return CouplingGraph(n, build_rotating_hamiltonian(params), tuple(chans))


def _null_dimension(lio: np.ndarray) -> int:
    """Numerical null-space dimension; a non-finite generator has none to diagnose."""
    if not np.isfinite(lio).all():
        raise SteadyStateError("generator has non-finite entries")
    s = np.linalg.svd(lio, compute_uv=False)
    if s[0] == 0.0:
        return lio.shape[0]
    return int(np.sum(s < NULLSPACE_RTOL * s[0]))


def steady_state(gen: GeneratorMatrix) -> DensityMatrix:
    """Unique trace-one null vector of the generator.

    One row of L is replaced by the trace functional and the square system is solved by
    block elimination over the coherence orders +q of the :func:`_plan` of its pattern
    (-q being their mirror), reading only its values there; else, or if that fails, as
    one block, one dense LU.  The solution is checked against L: a relative residual over
    ``RESIDUAL_RTOL`` (or a singular solve) triggers a null space diagnosis, and a null
    dimension other than one is a degeneracy rather than a silent pick."""
    dense = lambda i=0: _dense_lu(np.ascontiguousarray(gen.matrix, dtype=complex))
    if gen.structure and _cliques(*gen.structure[:2]):  # built dense, as one block
        return DensityMatrix(dense())
    plan, (at,) = _graded_plan(gen.pattern.base, gen.n_states, gen.values[None])  # .base: the key bytes
    if plan.far is None:
        return DensityMatrix(dense())
    band, lnz = at[:, plan.band], at[:, plan.nz] * plan.weight  # the weighted rows 0 and +q
    matvec = lambda v: np.add.reduceat(imul(v.take(plan.cols, 1, mode="clip"), lnz), plan.heads, axis=1)
    solve = lambda lo, hi: _graded_states(lambda a, b: band[:, a:b], plan, matvec, _frobenius(at))
    return DensityMatrix(_bisected(0, 1, solve, dense)[0])


def _dense_lu(lio: np.ndarray) -> np.ndarray:
    """Steady state (d, d) of one L (contiguous, complex) by one dense LU, or its failure raised."""
    lio, n = lio[None], len(lio)
    try:
        rho, ok = _graded_states(lambda a, b: lio.reshape(1, -1).copy(), _one_block(n), *_dense(lio))
    except np.linalg.LinAlgError:  # singular: a NaN state, which fails
        rho, ok = np.full((1, isqrt(n), isqrt(n)), np.nan + 0j), [False]
    if not ok[0]:
        _raise_failure(lio, rho)
    return rho[0]


def _bisected(lo: int, hi: int, solve, dense) -> np.ndarray:
    """States of members lo..hi-1 by ``solve(lo, hi)``, or by halves if it raises LinAlgError;
    a member failing its own solve (alone, or its check) takes ``dense(i)``, not that again."""
    try:
        rho, ok = solve(lo, hi)
    except np.linalg.LinAlgError:
        mid = (lo + hi) // 2
        return dense(lo)[None] if hi - lo == 1 else np.concatenate(
            (_bisected(lo, mid, solve, dense), _bisected(mid, hi, solve, dense)))
    for i in np.flatnonzero(~ok):
        rho[i] = dense(lo + i)
    return rho


def _dense(lio: np.ndarray):
    """``matvec`` and ``fro`` of :func:`_checked` for a contiguous stack ``lio`` of L."""
    return (lambda v: (lio @ v[..., None])[..., 0]), _frobenius(lio)


_Plan = namedtuple("_Plan", "far band rows trace mirror unsort order mirrored nz cols heads weight")


@lru_cache(maxsize=None)
def _one_block(n: int) -> _Plan:
    """The plan of generators of order n as one block, each L whole, without a pattern."""
    return _Plan(None, None, [(0, n * n, n, n, 0, n)], slice(0, n, isqrt(n) + 1), None, None,
                 np.zeros(n, dtype=np.int8), *[None] * 5)


def _scan(*gens: np.ndarray) -> bytes:
    """The pattern of the entries that are not +0.0 in raw generators (L or stacks) ``gens``."""
    return _distinct([np.flatnonzero(np.ascontiguousarray(g, dtype=complex).view(np.int64) != 0) // 2
                      % g.shape[-1] ** 2 for g in gens])  # the parts that are not +0.0, as entries


def _distinct(flat) -> bytes:
    """The pattern of flat indices ``flat`` (arrays); np.unique would import numpy.ma."""
    flat = np.sort(np.hstack(flat).astype(np.int64))
    return flat[np.diff(flat, prepend=-1) > 0].tobytes()


@lru_cache(maxsize=16)
def _cliques(hamiltonian: bytes, d: int) -> bool:
    """Whether the state graph joined where ``hamiltonian`` (d x d) marks H[a, b] or H[b, a]
    has cliques for components: then its generators are one block."""
    adj = np.frombuffer(hamiltonian, dtype=bool).reshape(d, d)
    adj = adj | adj.T | np.eye(d, dtype=bool)
    return bool((adj @ adj == adj).all())


@lru_cache(maxsize=16)
def _places(hamiltonian: bytes, d: int, pairs: bytes, coherent: bool):
    """The pattern that the builders write for their ``structure``: the diagonal, the left- and
    right-multiplication entries of each H[a, b] or H[b, a] marked in ``hamiltonian`` (in the
    rows of coherences alone unless ``coherent``) and the transfers ``pairs`` (src, tgt); then
    for :func:`_assemble`, the place of each entry's part in the flat left and right.T (d^2 if
    none), and the places in the pattern of the transfers and of the diagonal."""
    n = d * d
    a, b = np.nonzero(np.frombuffer(hamiltonian, dtype=bool).reshape(d, d))
    a, b = np.concatenate((a, b)), np.concatenate((b, a))
    m = np.arange(d)[:, None]
    hams = np.stack(((a + m * d) * n + b + m * d,  # -i H[a, b] rho[b, m]
                     (m + b * d) * n + m + a * d))  # i rho[m, a] H[a, b]
    reads = np.broadcast_to(np.stack((a * d + b, b * d + a))[:, None], hams.shape)
    kept = (hams // n % (d + 1) > 0) | coherent  # a population's vec index: a multiple of d + 1
    src, tgt = np.frombuffer(pairs, dtype=np.int64).reshape(2, -1) * (d + 1)
    p = np.frombuffer(key := _distinct([hams[kept], tgt * n + src, np.arange(n) * (n + 1)]), np.int64)
    places = np.full((2, p.size), n)
    for side in (0, 1):
        places[side, p.searchsorted(hams[side][kept[side]])] = reads[side][kept[side]]
    return key, *places, p.searchsorted(tgt * n + src), p.searchsorted(np.arange(n) * (n + 1))


def _bfs_levels(nbrs: list[list[int]], root: int) -> list[int]:
    """Breadth-first level of each state from ``root``; -1 outside its component."""
    level, frontier, depth = [-1] * len(nbrs), {root}, 0
    while frontier:
        for a in frontier:
            level[a] = depth
        frontier, depth = {b for a in frontier for b in nbrs[a] if level[b] < 0}, depth + 1
    return level


def _graded_plan(pattern: bytes, d: int, *values: np.ndarray):
    """The :func:`_plan` of ``pattern`` for generators with ``values`` there ((k, size) each),
    and those with a 0 appended; one block unless each is 0 at ``far`` and L_PaPb = conj(L_ab)."""
    plan = _plan(pattern, d)
    at = [np.concatenate((v, np.zeros((len(v), 1))), axis=1) for v in values]
    if plan.far is not None and all(not v[:, plan.far].any()
                                    and np.array_equal(v[:, plan.mirrored], v[:, :-1].conj()) for v in at):
        return plan, at
    return _plan(pattern, d, False), at


@lru_cache(maxsize=16)
def _plan(pattern: bytes, d: int, graded: bool = True) -> _Plan:
    """How generators of order n = d^2 that are +0.0 outside ``pattern`` (sorted flat int64
    indices, as bytes) are solved: over the coherence orders c = phi(a) - phi(b), phi the
    breadth-first level from a pseudo-peripheral state (George & Liu) in the graph of the
    pattern's left- and right-multiplication entries, if ``graded`` and a component is no
    clique; else as one block.  Populations are order 0.  ``rows``: the (start, stop, rows,
    columns, first column of q, of q+1) in the band of the row block of each order q = top,
    ..., 0 in the columns of orders q-1..q+1; ``trace``, ``mirror``: the populations and (P a,
    P b) in order 0; ``unsort``: the places of the vec indices in [0, +1.., +top, -1..,
    -top]; ``order``: theirs.  Places in the pattern (its size where absent) of: the entries
    joining orders over 1 apart (``far``); the band (``band``; of L for one block); each
    entry's mirror (``mirrored``); the rows 0 and +q (``nz``, with ``cols``, ``heads`` where
    each row starts and ``weight``, sqrt 2 in +q)."""
    p, n = np.frombuffer(pattern, dtype=np.int64), d * d
    rows, cols = np.divmod(p, n)

    def find(idx):  # the place of each flat index in the pattern, p.size where absent
        pos = p.searchsorted(idx)
        return np.where(np.append(p, -1)[pos] == idx, pos, p.size)

    adj = np.zeros((d, d), dtype=bool)
    adj[rows[rows // d == cols // d] % d, cols[rows // d == cols // d] % d] = True  # H[i, k] rho[k, j]
    adj[cols[rows % d == cols % d] // d, rows[rows % d == cols % d] // d] = True  # rho[i, l] H[l, j]
    adj |= adj.T
    if not graded or _cliques(adj.tobytes(), d):
        order = np.zeros(n, dtype=np.int8)
        plan = _one_block(n)._replace(band=find(np.arange(n * n)))
    else:
        adj |= np.eye(d, dtype=bool)
        nbrs = [[b for b, joined in enumerate(row) if joined] for row in adj.tolist()]  # a among them
        phi = [-1] * d
        for start in range(d):
            if phi[start] >= 0:
                continue
            level = _bfs_levels(nbrs, start)
            while True:  # restart from a farthest state of least degree while the depth grows
                depth = max(level)
                far = _bfs_levels(nbrs, min((a for a in range(d) if level[a] == depth),
                                            key=lambda a: len(nbrs[a])))
                if max(far) <= depth:
                    break
                level = far
            phi = [max(a, b) for a, b in zip(phi, level)]
        phi = np.array(phi, dtype=np.int8 if d <= 64 else np.int32)  # int8 differences: small
        order = np.subtract.outer(phi, phi).ravel(order="F")  # of vec index i + j*d
        top = int(order.max())
        sizes = np.bincount(order[order >= 0])
        idx = np.argsort(order, kind="stable")[n - sizes.sum() :]  # orders 0, +1, ..., +top
        at = [0, *np.cumsum([0, *sizes, 0]).tolist()]  # at[q + 1]: where order q starts in idx
        blocks, band, stop = [], [], 0
        for q in range(top, -1, -1):
            lo, mid, end, hi = at[q : q + 4]  # orders q-1 (none for q = 0), q, q+1 (none for top)
            band.append((idx[mid:end, None] * n + idx[lo:hi]).ravel())
            blocks.append((stop, stop + band[-1].size, end - mid, hi - lo, mid - lo, end - lo))
            stop += band[-1].size
        swap = np.arange(n) % d * d + np.arange(n) // d  # P: the vec index of rho_ba
        band, zero = np.concatenate(band), idx[: sizes[0]]
        trace, mirror = zero.searchsorted(np.arange(0, n, d + 1)), zero.searchsorted(swap[zero])
        unsort = np.argsort(np.concatenate((idx, swap[idx[sizes[0] :]])))
        plan = _Plan(np.flatnonzero(np.abs(order[rows] - order[cols]) > 1), find(band), blocks, trace,
                     (mirror[:, None] * zero.size + mirror).ravel(), unsort, order,
                     find(swap[rows] * n + swap[cols]), None, None, None, None)
    nz = np.flatnonzero(order[rows] >= 0)
    return plan._replace(nz=nz, cols=cols[nz], heads=np.flatnonzero(np.diff(rows[nz], prepend=-1)),
                         weight=np.sqrt(np.sign(order[rows[nz]]) + 1.0))


def _graded_states(block, grading: _Plan, matvec, fro: np.ndarray):
    """Steady states of a stack of L from the band of its ``grading`` (with
    :func:`_one_block`, one dense LU of each L), ``block(start, stop)`` an array
    (k, stop - start) of each L's band that may be overwritten, and the mask of the
    members that pass :func:`_checked` (given ``matvec`` and ``fro``).  A singular
    solve raises LinAlgError, which numpy raises for the whole stack.

    Block elimination (the matrix continued fraction; Risken, The Fokker-Planck
    Equation, ch. 9) inward from the outermost order, on the side +q only:
    S_q = L_qq - L_q,q+1 X_q+1 and X_q = S_q^-1 L_q,q-1.  L preserves Hermiticity,
    L_PaPb = conj(L_ab) with P the swap rho_ab <-> rho_ba, so the blocks and X_-q of
    side -q are the conjugates of those of +q (X_-1 with its columns mirrored), and
    S_0 = L_00 - T - conj(T[P][:, P]) with T = L_0,+1 X_+1.  Bordered with the trace
    functional in its row 0 (vec index 0), it gives v_0; then v_q = -X_q v_q-1 and
    v_-q = conj(v_q).  The outer orders hold only coherences: where each decays,
    the Hermitian part of their blocks is the damping -(G_a + G_b)/2 < 0, Schur
    complements keep that sign, and no S_q is singular."""
    k, x = len(fro), []  # x: X_top, ..., X_1
    for start, stop, m, width, c1, c2 in grading.rows:  # orders top, ..., 0
        r = block(start, stop).reshape(k, m, width)
        s = r[..., c1:c2]
        if x:
            t = r[..., c2:] @ x[-1]  # L_q,q+1 X_q+1
            s -= t  # in place: less heap growth in a sweep
        if c1:
            x.append(np.linalg.solve(s, r[..., :c1]))
    if x:
        s -= t.reshape(k, -1)[:, grading.mirror].reshape(s.shape).conj()
    s[:, 0, :] = 0.0
    s[:, 0, grading.trace] = 1.0  # trace functional
    v = [np.linalg.solve(s, np.eye(s.shape[1], 1, dtype=complex))]
    for xq in reversed(x):
        v.append(-(xq @ v[-1]))
    if not x:  # one block: v_0 is in vec order
        return _checked(v[0][..., 0], matvec, fro)
    x.clear()  # not needed by the check: less heap growth in a sweep
    plus = np.concatenate(v, axis=1)[..., 0]
    vec = np.concatenate((plus, plus[:, s.shape[1] :].conj()), axis=1)
    return _checked(vec.take(grading.unsort, axis=1), matvec, fro)


def _frobenius(lio: np.ndarray) -> np.ndarray:
    """||L||_F (||v||) of each member of a contiguous complex stack, without a conjugate copy."""
    parts = lio.reshape(len(lio), -1).view(float)
    return np.sqrt((parts[:, None, :] @ parts[:, :, None])[:, 0, 0])


def _checked(v: np.ndarray, matvec, fro: np.ndarray):
    """Density matrices of the solutions ``v`` (k, d^2) of k generators, and the mask
    of those that pass the checks against each L itself: the :func:`_residual` against
    ``RESIDUAL_RTOL``, then hermiticity, unit trace and the eigenvalue floor.
    ``matvec(v)`` is L v and ``fro`` ||L||_F, per member.  A non-finite solution
    fails, and its state reads NaN."""
    k, n = v.shape
    d = isqrt(n)
    finite = np.isfinite(v).all(axis=1)
    v[~finite] = 0.0
    residual = _residual(v, matvec, fro)
    rho = v.reshape(k, d, d).transpose(0, 2, 1)  # column stacking
    rho_h = v.reshape(k, d, d).conj()
    ok = finite & (residual <= RESIDUAL_RTOL)
    ok &= np.abs(rho - rho_h).max(axis=(1, 2)) <= HERMITICITY_ATOL
    ok &= np.abs(v[:, :: d + 1].sum(axis=1) - 1.0) <= TRACE_ATOL
    herm = 0.5 * (rho + rho_h)
    try:  # herm - (floor / 2) I all positive definite: every lambda_min clears the (negative) floor
        if not np.isfinite(np.linalg.cholesky(herm - EIGENVALUE_FLOOR / 2 * np.eye(d))).all():
            raise np.linalg.LinAlgError  # a factor of NaN or inf certifies nothing
    except np.linalg.LinAlgError:
        ok &= np.linalg.eigvalsh(herm).min(axis=1) >= EIGENVALUE_FLOOR
    rho[~finite] = np.nan
    return rho, ok


def _residual(v: np.ndarray, matvec, fro: np.ndarray) -> np.ndarray:
    """||L v|| / (||L||_F ||v||) per member of a finite ``v``: time-unit free, 0 for L = 0
    (which every vector solves), and NaN where ||L||_F overflows, so that it fails."""
    scale = fro * _frobenius(v)
    residual = _frobenius(matvec(v))
    np.divide(residual, scale, out=residual, where=scale > 0)
    residual[~np.isfinite(fro)] = np.nan  # x / inf would read 0: it fails instead
    return residual


def _raise_failure(lio: np.ndarray, rho: np.ndarray) -> None:
    """Raise the typed error of the L in ``lio`` (1, d^2, d^2) whose one-block solve
    ``rho`` failed :func:`_checked`: OverflowError if ||L||_F overflows with finite
    entries; a null space diagnosis if rho is NaN (as a singular solve leaves it) or
    its residual is over the bound; else the ValueError of DensityMatrix.validate."""
    matvec, fro = _dense(lio)
    if not isfinite(fro[0]) and np.isfinite(lio).all():
        raise OverflowError("generator scale ||L||_F overflows a float "
                            f"(largest |entry| {np.abs(lio).max():.3g})")
    finite = not np.isnan(rho).any()
    residual = _residual(rho.transpose(0, 2, 1).reshape(1, -1), matvec, fro)[0] if finite else np.nan
    if not residual <= RESIDUAL_RTOL:  # true for a NaN residual too
        null_dim = _null_dimension(lio[0])
        if null_dim != 1 or not finite:
            raise DegenerateSteadyStateError(null_dim)
        raise SteadyStateError(f"steady-state residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e}")
    DensityMatrix(rho[0]).validate()


def affine_steady_states(base: GeneratorMatrix, top: GeneratorMatrix, xs) -> np.ndarray:
    """Steady states, shape (len(xs), d, d), of the generators base + x * slope of a family
    given as its two builds, base = L(0) and top = L(1).

    The slope is formed once, at the union of their patterns (+0.0 where one has no value):
    the bits of the dense L(1) - L(0).  Then the method of :func:`steady_state`, in chunks of
    at most ``STACK_BYTES`` of blocks, each x * slope_block + base_block: the dense entries'
    bits; the heap keeps the chunks between sweeps, by the policy stated at ``STACK_BYTES``.
    The residual L v is taken in the rows of orders 0 and, weighted by sqrt 2, +q: the
    rows -q are their conjugates but for the rounding of v_0, which the hermiticity check
    bounds.  ||L||_F^2 = ||A||^2 + 2 x Re<A, B> + x^2 ||B||^2 (A = base, B = slope).  A
    chunk that numpy finds singular is solved in halves; a point failing alone or by its
    check takes one dense LU of base + x * slope, made from those values, in point order:
    its bits do not depend on its chunk, and it is the one dense L a sweep makes.
    """
    xs, d = np.asarray(xs, dtype=float), base.n_states
    at = np.frombuffer(key := _distinct([base.pattern, top.pattern]), np.int64)
    base_at = base.values_at(at)
    slope_at = top.values_at(at) - base_at
    plan, (pa, pb) = _graded_plan(key, d, base_at[None], slope_at[None])  # each with a 0 appended
    base_band, slope_band = pa[0, plan.band], pb[0, plan.band]
    base_nz, slope_nz = pa[0, plan.nz] * plan.weight, pb[0, plan.nz] * plan.weight
    aa, ab, bb = np.vdot(pa, pa).real, np.vdot(pa, pb).real, np.vdot(pb, pb).real
    per = max(1, min(xs.size, STACK_BYTES // (16 * max(plan.band.size, plan.nz.size))))
    out = np.empty((xs.size, d, d), dtype=complex)
    for start in range(0, xs.size, per):
        chunk = xs[start : start + per, None]

        def solve(lo, hi, chunk=chunk):  # the band and the entries of each L: the bits of base + x * slope
            x = chunk[lo:hi]
            lnz = iadd(x * slope_nz, base_nz)
            return _graded_states(
                lambda a, b: iadd(x * slope_band[a:b], base_band[a:b]), plan,
                lambda v: np.add.reduceat(imul(v.take(plan.cols, 1, mode="clip"), lnz), plan.heads, axis=1),
                np.sqrt(np.maximum(aa + x[:, 0] * (2.0 * ab + x[:, 0] * bb), 0.0)))

        out[start : start + per] = _bisected(0, len(chunk), solve, lambda i, chunk=chunk: _dense_lu(
            GeneratorMatrix(d, values=base_at + chunk[i, 0] * slope_at, pattern=at).matrix))
    return out


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max())


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): the degree-13 Pade approximant of A = a / 2^s, squared s times (Higham,
    SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  s starts where ||A||_1 <= theta_13
    and drops by each squaring that keeps max(||A^4||_1^(1/4), ||A^6||_1^(1/6)) at or
    below theta_13, which bounds the approximant's error as well (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009), Thm 4.2 with p = 2).  The powers
    already formed are kept, and the exact powers of two go into the coefficients."""
    s = max(0, frexp(_norm1(a) / _THETA_13)[1])  # 2^s > ||a||_1 / theta
    a = a / 2.0**s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eta = _norm1(a4) ** 0.25 if s else inf
    if 2.0 * eta <= _THETA_13:  # only then can a squaring go, so only then is a6 read
        eta = max(eta, _norm1(a6) ** (1 / 6))
    drop = 0
    while drop < s and 2.0 ** (drop + 1) * eta <= _THETA_13:
        drop += 1
    s -= drop
    b = [bk * 2.0 ** (k * drop) for k, bk in enumerate(_PADE_13)]  # b_k (2^drop A)^k
    eye = np.eye(len(a))
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def propagate(gen: GeneratorMatrix, rho0: DensityMatrix, t: float, tol: float = 1e-9) -> DensityMatrix:
    """vec(rho(t)) = exp(L t) vec(rho0): the validation path for the steady-state
    solver, independent of its LU solve.  L does not depend on time, so the
    propagator is one matrix exponential (:func:`_expm`), exact up to rounding of
    order eps ||L t||_1.  ``tol`` bounds the checks on the result: trace drift and the
    bounds of ``DensityMatrix.validate`` are widened to 10 tol; a state failing them, or a
    ``tol`` below 100 eps (not met in double precision), raises PropagationError."""
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    if rho0.n_states != gen.n_states:
        raise ValueError("state dimension does not match the generator")
    if t == 0:
        return rho0
    if tol < 100.0 * np.finfo(float).eps:
        raise PropagationError(f"integration failed: tol {tol:.1e} is below 100 eps")
    norm = _norm1(gen.matrix) * float(t)  # overflows to inf, silently
    if not isfinite(norm):
        raise PropagationError(f"||L t||_1 = {norm} is non-finite")
    rho = DensityMatrix.from_vec(_expm(gen.matrix * t) @ rho0.vec(), gen.n_states)
    if not np.isfinite(rho.matrix).all():
        raise PropagationError("propagation produced non-finite values")
    drift = abs(complex(np.trace(rho.matrix)) - 1.0)
    if drift > 10.0 * tol:
        raise PropagationError(f"trace drift {drift:.3e} exceeds 10*tol")
    try:
        return rho.validate(herm_atol=max(HERMITICITY_ATOL, 10.0 * tol), trace_atol=10.0 * tol,
                            eig_floor=min(EIGENVALUE_FLOOR, -10.0 * tol))
    except ValueError as exc:  # a state that fails its checks is a failed propagation
        raise PropagationError(str(exc)) from None


def __getattr__(name: str):
    # PEP 562 hook that exists only for the benchmark tracer, which looks up and
    # wraps ``solve_ivp`` here; nothing in clams calls it.  scipy is imported on
    # first access, so importing this module does not load it.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
