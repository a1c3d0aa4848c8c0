"""Rate-based master-equation generator, steady-state solver, and exact propagator.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum over channels r * D[|t><s|] rho,

with D[c] rho = c rho c^+ - (c^+ c rho + rho c^+ c) / 2.  Population-transfer
channels |t><s| feed rho_tt from rho_ss and damp every coherence rho_ab at half
the sum of the total outflow rates of a and b; they never create coherence.

Vectorization is column-stacking throughout: vec(rho)[i + j*d] = rho[i, j], so
vec(A rho B) = (B^T kron A) vec(rho).  Every index map in this module derives
from that single convention.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
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
    "hamiltonian_superoperator",
    "steady_state",
    "steady_states",
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
# the blocks it eliminates (one block: the whole generator); the solves work on
# one member at a time.
STACK_BYTES = 2 * 1024**2


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
            if not np.isfinite(rate):
                raise ValueError(f"decay rate {rate} must be finite")
            chans.append((int(src), int(tgt), float(rate)))
        object.__setattr__(self, "population_decays", tuple(chans))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Linear generator L on column-stacked density matrices: dvec(rho)/dt = L vec(rho)."""

    n_states: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_states**2


@dataclass(frozen=True)
class DensityMatrix:
    """Complex d x d state; Hermitian, unit trace, positive within tolerance."""

    matrix: np.ndarray

    def validate(
        self,
        herm_atol: float = HERMITICITY_ATOL,
        trace_atol: float = TRACE_ATOL,
        eig_floor: float = EIGENVALUE_FLOOR,
    ) -> "DensityMatrix":
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


def hamiltonian_superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """d^2 x d^2 matrix of rho -> -i (left rho - rho right), written from indices."""
    d = left.shape[0]
    lio = np.zeros((d * d, d * d), dtype=complex)
    l4 = lio.reshape(d, d, d, d)  # l4[j, i, l, k] = L[i + j*d, k + l*d]
    idx = np.arange(d)
    l4[idx, :, idx, :] -= 1j * left  # left[i, k] rho[k, j]
    l4[:, idx, :, idx] += 1j * right.T  # rho[i, l] right[l, j]
    return lio


def build_generator(graph: CouplingGraph) -> GeneratorMatrix:
    """Assemble the d^2 x d^2 generator of the coherent + population-decay dynamics."""
    d = graph.n_states
    lio = hamiltonian_superoperator(graph.hamiltonian, graph.hamiltonian)
    if graph.population_decays:
        src, tgt, rate = map(np.array, zip(*graph.population_decays))
        np.add.at(lio, (tgt * (d + 1), src * (d + 1)), rate)
        outflow = np.bincount(src, weights=rate, minlength=d)
        lio[np.diag_indices(d * d)] -= 0.5 * (outflow[:, None] + outflow[None, :]).ravel()
    return GeneratorMatrix(n_states=d, matrix=lio)


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
    return CouplingGraph(
        n_states=n,
        hamiltonian=build_rotating_hamiltonian(params),
        population_decays=tuple(chans),
    )


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

    One row of L is replaced by the trace functional and the square system is
    solved directly by block elimination over coherence orders: over the orders
    +q of :func:`_coherence_levels`, -q being their mirror, where it finds two or
    more beyond 0, else, or if that solve fails, over one block, which is one dense
    LU.  The solution is then verified against the unmodified L.  A relative
    residual above ``RESIDUAL_RTOL`` (or a singular solve) triggers a null space
    diagnosis, and a null dimension other than one is reported as a degeneracy
    rather than silently picking a state.
    """
    return DensityMatrix(steady_states(gen.matrix[None])[0])


def steady_states(stack: np.ndarray) -> np.ndarray:
    """Steady states, shape (k, d, d), of a stack of k generators of order d^2.

    The method of :func:`steady_state`, batched over the stack; the first member
    that fails a check raises its typed error.
    """
    lio = np.ascontiguousarray(stack, dtype=complex)
    matvec, fro = lambda v: (lio @ v[..., None])[..., 0], _frobenius(lio)
    flat, grading = lio.reshape(len(lio), -1), _coherence_levels(lio)
    band = None if grading is None else flat[:, grading.band]
    rho = None if band is None else _graded_states(lambda a, b: band[:, a:b], grading, matvec, fro)
    if rho is None:
        rho = _graded_states(lambda a, b: flat.copy(), _one_block(lio.shape[-1]), matvec, fro, lio)
    if rho is None:  # one block is singular for the whole stack: find the member
        rho = np.concatenate([steady_states(member[None]) for member in lio])
    return rho


_Grading = namedtuple("_Grading", "far band mirrored rows trace mirror unsort order")


@lru_cache(maxsize=None)
def _one_block(n: int) -> _Grading:
    """The grading of generators of order n as one block: each L whole, in vec order."""
    return _Grading(None, slice(None), None, [(0, n * n, n, n, 0, n)], slice(0, n, isqrt(n) + 1),
                    None, None, None)


def _bfs_levels(nbrs: list[list[int]], root: int) -> list[int]:
    """Breadth-first level of each state from ``root``; -1 outside its component."""
    level, frontier, depth = [-1] * len(nbrs), {root}, 0
    while frontier:
        for a in frontier:
            level[a] = depth
        frontier, depth = {b for a in frontier for b in nbrs[a] if level[b] < 0}, depth + 1
    return level


def _coherence_levels(*gens: np.ndarray) -> _Grading | None:
    """The :func:`_grading` into coherence orders c = phi(a) - phi(b) of generators
    with the nonzeros of ``gens`` (generators or stacks), or None for one block.
    phi is the breadth-first level of a state in the graph that joins two states
    when L has a left- or right-multiplication entry between them (d^3 entries of
    L).  The orders are kept if there are two or more beyond 0, every nonzero of L
    joins orders at most 1 apart (L is block-tridiagonal in them), and L preserves
    Hermiticity exactly on them.  Populations, and so the trace row, are order 0."""
    n = gens[0].shape[-1]
    d = isqrt(n)
    adj = False
    for g in gens:
        g5 = g.reshape(-1, d, d, d, d)  # g5[m, j, i, l, k]: entry L[i + j*d, k + l*d] of member m
        adj = adj | g5.diagonal(0, 1, 3).any(axis=(0, 3)) | g5.diagonal(0, 2, 4).any(axis=(0, 3))
    grading = _grading((adj | adj.T).tobytes(), d)  # j = l: H[i, k]; i = k: H[l, j]
    flat = [g.reshape(-1, n * n) for g in gens]
    if grading is None or any((np.packbits(f != 0, axis=-1) & grading.far).any() for f in flat):
        return None
    mirrored = all(np.array_equal(f[:, grading.mirrored], f[:, grading.band].conj()) for f in flat)
    return grading if mirrored else None


@lru_cache(maxsize=16)
def _grading(adjacency: bytes, d: int) -> _Grading | None:
    """Block elimination over the coherence orders 0, ..., +top of the state graph
    ``adjacency`` (d x d booleans), or None if each component is a clique (top <= 1).
    phi is searched from a pseudo-peripheral state of each component (George & Liu).
    ``far`` marks the entries of L joining orders more than 1 apart, bit-packed;
    ``band`` the flat indices into L of the row block of each order q = top, ..., 0
    in the columns of orders q-1, q and q+1, each at ``rows`` (start, stop, rows,
    columns, first column of order q, first of q+1); ``mirrored`` their (P a, P b);
    ``trace`` the order-0 places of the populations; ``mirror`` (P a, P b) in the
    flat order-0 block; ``unsort`` the places of the vec indices in [0, +1.., +top,
    -1.., -top]; ``order`` the coherence order of each vec index."""
    adj = np.frombuffer(adjacency, dtype=bool).reshape(d, d) | np.eye(d, dtype=bool)
    if (adj @ adj == adj).all():
        return None
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
    n, top = d * d, int(order.max())
    sizes = np.bincount(order[order >= 0])
    idx = np.argsort(order, kind="stable")[n - sizes.sum() :]  # orders 0, +1, ..., +top
    at = [0, *np.cumsum([0, *sizes, 0]).tolist()]  # at[q + 1]: where order q starts in idx
    rows, band, stop = [], [], 0
    for q in range(top, -1, -1):
        lo, mid, end, hi = at[q : q + 4]  # orders q-1 (none for q = 0), q, q+1 (none for top)
        band.append((idx[mid:end, None] * n + idx[lo:hi]).ravel())
        rows.append((stop, stop + band[-1].size, end - mid, hi - lo, mid - lo, end - lo))
        stop += band[-1].size
    swap = np.arange(n) % d * d + np.arange(n) // d  # P: the vec index of rho_ba
    band, zero = np.concatenate(band), idx[: sizes[0]]
    mirror = zero.searchsorted(swap[zero])
    return _Grading(np.packbits(np.abs(order[:, None] - order[None, :]) > 1), band,
                    swap[band // n] * n + swap[band % n], rows,
                    zero.searchsorted(np.arange(0, n, d + 1)),
                    (mirror[:, None] * zero.size + mirror).ravel(),
                    np.argsort(np.concatenate((idx, swap[idx[sizes[0] :]]))), order)


def _graded_states(block, grading: _Grading, matvec, fro: np.ndarray, lio: np.ndarray | None = None):
    """Steady states of a stack of L from the band of its ``grading`` (with
    :func:`_one_block`, one dense LU of each L), ``block(start, stop)`` an array
    (k, stop - start) of each L's band that may be overwritten.  They are checked
    by :func:`_checked` (given ``matvec``, ``fro`` and ``lio``).  Without the
    stack ``lio`` of L, a failing member or a singular solve gives None, for the
    caller to re-solve.  With it, a failing member raises its typed error, and so
    does a singular solve of one L; one of several gives None, to be split.

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
    try:
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
    except np.linalg.LinAlgError:
        if lio is None or len(lio) > 1:
            return None
        raise DegenerateSteadyStateError(_null_dimension(lio[0])) from None
    for xq in reversed(x):
        v.append(-(xq @ v[-1]))
    if not x:  # one block: v_0 is in vec order
        return _checked(v[0][..., 0], matvec, fro, lio)
    x.clear()  # not needed by the check: less heap growth in a sweep
    plus = np.concatenate(v, axis=1)[..., 0]
    vec = np.concatenate((plus, plus[:, s.shape[1] :].conj()), axis=1)
    return _checked(vec.take(grading.unsort, axis=1), matvec, fro, lio)


def _frobenius(lio: np.ndarray) -> np.ndarray:
    """||L||_F (||v||) of each member of a contiguous complex stack, without a conjugate copy."""
    parts = lio.reshape(len(lio), -1).view(float)
    return np.sqrt((parts[:, None, :] @ parts[:, :, None])[:, 0, 0])


def _checked(v: np.ndarray, matvec, fro: np.ndarray, lio: np.ndarray | None = None):
    """Density matrices of the solutions ``v`` (k, d^2) of k generators, checked
    against each L itself: the residual ||L v|| / (||L||_F ||v||) (time-unit free,
    and 0 for L = 0, which every vector solves) against ``RESIDUAL_RTOL``, then
    hermiticity, unit trace and the eigenvalue floor.  ``matvec(v)`` is L v and
    ``fro`` ||L||_F, per member; a member whose ||L||_F overflows fails.  Given the
    stack ``lio`` of L, the first member that fails raises its typed error (an
    OverflowError if the entries of L are finite but ||L||_F overflows); without
    it, any failure returns None."""
    k, n = v.shape
    d = isqrt(n)
    finite = np.isfinite(v).all(axis=1)
    v[~finite] = 0.0
    scale = fro * _frobenius(v)
    residual = _frobenius(matvec(v))
    np.divide(residual, scale, out=residual, where=scale > 0)
    residual[~np.isfinite(fro)] = np.nan  # x / inf would read 0: it fails instead
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
    if lio is None and not ok.all():
        return None
    for i in np.flatnonzero(~ok):
        if not isfinite(fro[i]) and np.isfinite(lio[i]).all():
            raise OverflowError("generator scale ||L||_F overflows a float "
                                f"(largest |entry| {np.abs(lio[i]).max():.3g})")
        if not (finite[i] and residual[i] <= RESIDUAL_RTOL):  # true for a NaN residual too
            null_dim = _null_dimension(lio[i])
            if null_dim != 1 or not finite[i]:
                raise DegenerateSteadyStateError(null_dim)
            raise SteadyStateError(
                f"steady-state residual {residual[i]:.3e} exceeds {RESIDUAL_RTOL:.0e}"
            )
        DensityMatrix(rho[i]).validate()
    return rho


def affine_steady_states(base: np.ndarray, slope: np.ndarray, xs) -> np.ndarray:
    """Steady states, shape (len(xs), d, d), of the generators base + x * slope.

    The method of :func:`steady_state` over the coherence orders that
    ``(base != 0) | (slope != 0)`` grades L into, else over one block, in chunks of
    at most ``STACK_BYTES`` of blocks.  Each block is built as x * slope_block +
    base_block, which has the bits of the dense entries.  The residual L v is taken
    from the nonzeros of L, graded in the rows of the orders 0 and, weighted by
    sqrt 2, +q alone: the rows -q are their conjugates but for the rounding of v_0,
    which the hermiticity check bounds.  ||L||_F^2 = ||A||^2 + 2 x Re<A, B> + x^2
    ||B||^2 (A = base, B = slope).  A chunk that fails is re-solved by
    :func:`steady_states`, which raises the typed error.  So the memory of a sweep
    does not grow with its points.
    """
    xs = np.asarray(xs, dtype=float)
    base, slope = np.asarray(base, dtype=complex), np.asarray(slope, dtype=complex)
    n = base.shape[0]
    grading = _coherence_levels(base, slope) or _one_block(n)
    slope_band, base_band = slope.ravel()[grading.band], base.ravel()[grading.band]
    weight = np.sqrt(np.ones(n) if grading.order is None else np.sign(grading.order) + 1.0)  # per row
    nonzero = np.flatnonzero(((base != 0) | (slope != 0)) & (weight[:, None] > 0))
    slope_nz, base_nz = (m.ravel()[nonzero] * weight[nonzero // n] for m in (slope, base))
    cols, heads = nonzero % n, np.flatnonzero(np.diff(nonzero // n, prepend=-1))  # row starts
    aa, ab, bb = (np.vdot(p, q).real for p, q in ((base, base), (base, slope), (slope, slope)))
    per = max(1, min(xs.size, STACK_BYTES // (16 * slope_band.size)))
    out = np.empty((xs.size, *(isqrt(n),) * 2), dtype=complex)
    for start in range(0, xs.size, per):
        x = xs[start : start + per, None]
        lnz = iadd(x * slope_nz, base_nz)
        rho = _graded_states(  # the band and the nonzeros of each L: the bits of base + x * slope
            lambda a, b: iadd(x * slope_band[a:b], base_band[a:b]), grading,
            lambda v: np.add.reduceat(imul(v[:, cols], lnz), heads, axis=1),
            np.sqrt(np.maximum(aa + x[:, 0] * (2.0 * ab + x[:, 0] * bb), 0.0)),
        )
        out[start : start + per] = steady_states(base + x[..., None] * slope) if rho is None else rho
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
    bounds of ``DensityMatrix.validate`` are widened to 10 tol.  A ``tol`` below
    100 eps cannot be met in double precision and raises."""
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
    return rho.validate(
        herm_atol=max(HERMITICITY_ATOL, 10.0 * tol),
        trace_atol=10.0 * tol,
        eig_floor=min(EIGENVALUE_FLOOR, -10.0 * tol),
    )


def __getattr__(name: str):
    # PEP 562 hook that exists only for the benchmark tracer, which looks up and
    # wraps ``solve_ivp`` here; nothing in clams calls it.  scipy is imported on
    # first access, so importing this module does not load it.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
