"""Rate-based master-equation generator, steady-state solver, and propagator.

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

import warnings
from dataclasses import dataclass
from math import isqrt

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp

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

# Batched solves take generator stacks of at most this many bytes; the LU
# working copies make the peak memory a small multiple of it.
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
        if lam_min < eig_floor:
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
    s = sla.svdvals(lio)
    if s[0] == 0.0:
        return lio.shape[0]
    return int(np.sum(s < NULLSPACE_RTOL * s[0]))


def _relative_residual(lio: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Backward error ||L v|| / (||L||_F ||v||) of null vectors, per generator of a stack;
    independent of the time unit, and 0 for L = 0, which every vector solves."""
    lv = np.linalg.norm((lio @ v[..., None])[..., 0], axis=-1)
    scale = np.linalg.norm(lio, axis=(-2, -1)) * np.linalg.norm(v, axis=-1)
    return np.divide(lv, scale, out=np.zeros_like(lv), where=scale > 0)


def steady_state(gen: GeneratorMatrix) -> DensityMatrix:
    """Unique trace-one null vector of the generator.

    One row of L is replaced by the trace functional and the square system is
    solved by dense LU; the solution is then verified against the unmodified L.
    A relative residual above ``RESIDUAL_RTOL`` (or a singular solve) triggers
    a null space diagnosis, and a null dimension other than one is reported as
    a degeneracy rather than silently picking a state.
    """
    return DensityMatrix(steady_states(gen.matrix[None])[0])


def steady_states(stack: np.ndarray) -> np.ndarray:
    """Steady states, shape (k, d, d), of a stack of k generators of order d^2.

    The method of :func:`steady_state` with one batched LU call for the whole
    stack; the first member that fails a check raises its typed error.
    """
    k, n, _ = stack.shape
    d = isqrt(n)
    bordered = stack.copy()
    bordered[:, 0, :] = 0.0
    bordered[:, 0, np.arange(d) * (d + 1)] = 1.0  # trace functional
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[0] = 1.0
    try:
        v = np.linalg.solve(bordered, rhs)[..., 0]
    except np.linalg.LinAlgError:  # raised for the whole stack: find the member
        if k == 1:
            raise DegenerateSteadyStateError(_null_dimension(stack[0])) from None
        return np.concatenate([steady_states(lio[None]) for lio in stack])
    finite = np.isfinite(v).all(axis=1)
    v[~finite] = 0.0
    residual = _relative_residual(stack, v)
    rho = v.reshape(k, d, d).transpose(0, 2, 1)  # column stacking
    rho_h = rho.conj().transpose(0, 2, 1)
    ok = finite & (residual <= RESIDUAL_RTOL)
    ok &= np.abs(rho - rho_h).max(axis=(1, 2)) <= HERMITICITY_ATOL
    ok &= np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0) <= TRACE_ATOL
    ok &= np.linalg.eigvalsh(0.5 * (rho + rho_h)).min(axis=1) >= EIGENVALUE_FLOOR
    for i in np.flatnonzero(~ok):
        if not finite[i]:
            raise DegenerateSteadyStateError(_null_dimension(stack[i]))
        if residual[i] > RESIDUAL_RTOL:
            null_dim = _null_dimension(stack[i])
            if null_dim != 1:
                raise DegenerateSteadyStateError(null_dim)
            raise SteadyStateError(
                f"steady-state residual {residual[i]:.3e} exceeds {RESIDUAL_RTOL:.0e}"
            )
        DensityMatrix(rho[i]).validate()
    return rho


def affine_steady_states(base: np.ndarray, slope: np.ndarray, xs) -> np.ndarray:
    """Steady states, shape (len(xs), d, d), of the generators base + x * slope.

    The stack is built and solved at most ``STACK_BYTES`` at a time, so the
    memory of a sweep does not grow with its number of points.
    """
    xs = np.asarray(xs, dtype=float)
    n = base.shape[0]
    d = isqrt(n)
    per = max(1, STACK_BYTES // (16 * n * n))
    out = np.empty((xs.size, d, d), dtype=complex)
    for start in range(0, xs.size, per):
        out[start : start + per] = steady_states(base + xs[start : start + per, None, None] * slope)
    return out


def propagate(gen: GeneratorMatrix, rho0: DensityMatrix, t: float, tol: float = 1e-9) -> DensityMatrix:
    """Integrate drho/dt = L rho for a time ``t`` with local error <= ``tol``.

    Validation path for the steady-state solver.  The complex linear system is
    stacked into real and imaginary parts and integrated with an adaptive
    implicit scheme (the generator supplies the exact Jacobian), which keeps
    stiff rate hierarchies such as gamma >> gamma_prime tractable.
    """
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    if rho0.n_states != gen.n_states:
        raise ValueError("state dimension does not match the generator")
    if t == 0:
        return rho0
    lio = gen.matrix
    lr = np.block([[lio.real, -lio.imag], [lio.imag, lio.real]])
    z0 = rho0.vec()
    y0 = np.concatenate([z0.real, z0.imag])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LSODA/BDF chatter on step-size limits
        sol = solve_ivp(
            lambda _t, y: lr @ y,
            (0.0, float(t)),
            y0,
            method="BDF",
            jac=lambda _t, _y: lr,
            rtol=tol,
            atol=tol,
        )
    if not sol.success:
        raise PropagationError(f"integration failed: {sol.message}")
    n2 = gen.n_states**2
    v = sol.y[:n2, -1] + 1j * sol.y[n2:, -1]
    rho = DensityMatrix.from_vec(v, gen.n_states)
    drift = abs(complex(np.trace(rho.matrix)) - 1.0)
    if drift > 10.0 * tol:
        raise PropagationError(f"trace drift {drift:.3e} exceeds 10*tol")
    return rho.validate(
        herm_atol=max(HERMITICITY_ATOL, 10.0 * tol),
        trace_atol=10.0 * tol,
        eig_floor=min(EIGENVALUE_FLOOR, -10.0 * tol),
    )
