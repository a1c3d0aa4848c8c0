"""Reference forms that the optimised code in ``clams`` must reproduce: the direct
Kronecker-product and basis-matrix generator builders, the dense index builders
whose bits the builders keep, the dense bordered steady-state
solve and the same bordered solve in 40-digit arithmetic, the per-value table and
complex-matrix CSV writers, the per-pair peak weights, and the LSODA time integration
that ``propagate`` replaced by the exact exponential."""
from __future__ import annotations

import warnings
from math import isqrt

import numpy as np

from clams.cli import _fmt
from clams.effective import coherence_damping, hopping_matrix, population_rates
from clams.level_system import rotating_diagonal
from clams.liouvillian import (
    EIGENVALUE_FLOOR,
    HERMITICITY_ATOL,
    RESIDUAL_RTOL,
    TRACE_ATOL,
    CouplingGraph,
    DegenerateSteadyStateError,
    DensityMatrix,
    GeneratorMatrix,
    PropagationError,
    SteadyStateError,
    _null_dimension,
)
from clams.spectrum import Peak, PeakSet


def kron_generator(graph: CouplingGraph) -> np.ndarray:
    """-i (I kron H - H^T kron I) plus rate * (c kron c - (I kron P + P kron I) / 2) per channel."""
    d = graph.n_states
    h = graph.hamiltonian
    eye = np.eye(d)
    lio = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for src, tgt, rate in graph.population_decays:
        if rate == 0.0:
            continue
        c = np.zeros((d, d))
        c[tgt, src] = 1.0
        proj = np.zeros((d, d))
        proj[src, src] = 1.0  # c^+ c
        lio = lio + rate * (np.kron(c, c) - 0.5 * (np.kron(eye, proj) + np.kron(proj, eye)))
    return lio


def closure_effective_generator(n_levels, j_hop, gamma_prime, detunings=None) -> np.ndarray:
    """Reduced superoperator assembled column by column by applying the dynamics to basis matrices."""
    if detunings is None:
        detunings = (0.0,) * (n_levels - 1)
    ng = (n_levels + 1) // 2
    gdiag = rotating_diagonal(n_levels, detunings)[0::2]
    h_eff = np.diag(gdiag).astype(complex) - hopping_matrix(ng, j_hop)
    gtilde = coherence_damping(ng, j_hop)
    rates = population_rates(ng, j_hop, gamma_prime)
    outflow = rates.sum(axis=1)

    def act(rho: np.ndarray) -> np.ndarray:
        drho = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
        np.fill_diagonal(drho, 0.0)  # populations see no coherent term
        for a in range(ng):
            for b in range(ng):
                if a != b:
                    drho[a, b] -= (gtilde[a, b] + 0.5 * (outflow[a] + outflow[b])) * rho[a, b]
        for a in range(ng):
            drho[a, a] += -outflow[a] * rho[a, a] + rates[:, a] @ np.diag(rho)
        return drho

    mat = np.zeros((ng * ng, ng * ng), dtype=complex)
    for j in range(ng):
        for i in range(ng):
            basis = np.zeros((ng, ng), dtype=complex)
            basis[i, j] = 1.0
            mat[:, i + j * ng] = act(basis).reshape(ng * ng, order="F")
    return mat


def _superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """d^2 x d^2 matrix of rho -> -i (left rho - rho right), written from indices into zeros."""
    d = left.shape[0]
    lio = np.zeros((d * d, d * d), dtype=complex)
    l4 = lio.reshape(d, d, d, d)  # l4[j, i, l, k] = L[i + j*d, k + l*d]
    idx = np.arange(d)
    l4[idx, :, idx, :] -= 1j * left  # left[i, k] rho[k, j]
    l4[:, idx, :, idx] += 1j * right.T  # rho[i, l] right[l, j]
    return lio


def dense_generator(graph: CouplingGraph) -> np.ndarray:
    """``build_generator`` as a dense array, every one of its d^4 entries written."""
    d = graph.n_states
    lio = _superoperator(graph.hamiltonian, graph.hamiltonian)
    if graph.population_decays:
        src, tgt, rate = map(np.array, zip(*graph.population_decays))
        np.add.at(lio, (tgt * (d + 1), src * (d + 1)), rate)
        outflow = np.bincount(src, weights=rate, minlength=d)
        lio[np.diag_indices(d * d)] -= 0.5 * (outflow[:, None] + outflow[None, :]).ravel()
    return lio


def dense_effective_generator(n_levels, j_hop, gamma_prime, detunings=None) -> np.ndarray:
    """``build_effective_generator`` as a dense array, every one of its entries written."""
    if detunings is None:
        detunings = (0.0,) * (n_levels - 1)
    ng = (n_levels + 1) // 2
    gdiag = rotating_diagonal(n_levels, detunings)[0::2]
    h_eff = np.diag(gdiag).astype(complex) + -hopping_matrix(ng, j_hop)
    gtilde = coherence_damping(ng, j_hop)
    rates = population_rates(ng, j_hop, gamma_prime)
    outflow = rates.sum(axis=1)
    mat = _superoperator(h_eff, h_eff.conj().T)
    pop = np.arange(ng) * (ng + 1)
    mat[pop, :] = 0.0
    damping = gtilde + 0.5 * (outflow[:, None] + outflow[None, :])
    mat[np.diag_indices(ng * ng)] -= damping.ravel(order="F")
    mat[np.ix_(pop, pop)] = rates.T - np.diag(outflow)
    return mat


def dense_bordered_steady_states(lio: np.ndarray) -> np.ndarray:
    """Steady states of a contiguous complex stack of generators by one dense LU of
    order d^2 each, row 0 bordered with the trace functional in place: the library's
    solve for every size before block elimination over coherence orders, kept
    verbatim.  Pass a copy; row 0 is restored afterwards."""
    k, n, _ = lio.shape
    d = isqrt(n)
    row0 = lio[:, 0, :].copy()
    lio[:, 0, :] = 0.0
    lio[:, 0, np.arange(d) * (d + 1)] = 1.0  # trace functional
    try:
        v = np.linalg.solve(lio, np.eye(n, 1, dtype=complex))[..., 0]
    except np.linalg.LinAlgError:  # raised for the whole stack: find the member
        lio[:, 0, :] = row0
        if k == 1:
            raise DegenerateSteadyStateError(_null_dimension(lio[0])) from None
        return np.concatenate([dense_bordered_steady_states(lio[i : i + 1]) for i in range(k)])
    lio[:, 0, :] = row0
    finite = np.isfinite(v).all(axis=1)
    v[~finite] = 0.0
    parts = lio.reshape(k, -1).view(float)  # ||L||_F without a conjugate copy of L
    scale = np.sqrt((parts[:, None, :] @ parts[:, :, None])[:, 0, 0]) * np.linalg.norm(v, axis=-1)
    residual = np.linalg.norm((lio @ v[..., None])[..., 0], axis=-1)
    np.divide(residual, scale, out=residual, where=scale > 0)
    rho = v.reshape(k, d, d).transpose(0, 2, 1)  # column stacking
    rho_h = rho.conj().transpose(0, 2, 1)
    ok = finite & (residual <= RESIDUAL_RTOL)
    ok &= np.abs(rho - rho_h).max(axis=(1, 2)) <= HERMITICITY_ATOL
    ok &= np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0) <= TRACE_ATOL
    ok &= np.linalg.eigvalsh(0.5 * (rho + rho_h)).min(axis=1) >= EIGENVALUE_FLOOR
    for i in np.flatnonzero(~ok):
        if not (finite[i] and residual[i] <= RESIDUAL_RTOL):  # true for a NaN residual too
            null_dim = _null_dimension(lio[i])
            if null_dim != 1 or not finite[i]:
                raise DegenerateSteadyStateError(null_dim)
            raise SteadyStateError(
                f"steady-state residual {residual[i]:.3e} exceeds {RESIDUAL_RTOL:.0e}"
            )
        DensityMatrix(rho[i]).validate()
    return rho


def mpmath_bordered_steady_state(lio: np.ndarray, digits: int = 40) -> np.ndarray:
    """Steady state, shape (d, d), of one generator by the bordered system of
    :func:`dense_bordered_steady_states` (row 0 replaced by the trace functional),
    solved in ``digits``-digit mpmath arithmetic by Gaussian elimination with
    partial pivoting on the nonzeros of each row, and rounded to double at the end.
    The entries of L are taken exactly, so this is the solution of the same system
    to about ``digits`` digits, whatever its conditioning up to 10^(digits - 17)."""
    import mpmath

    n = lio.shape[0]
    d = isqrt(n)
    with mpmath.workdps(digits):
        rows = [{int(j): mpmath.mpc(complex(lio[i, j])) for j in np.flatnonzero(lio[i])}
                for i in range(n)]
        rows[0] = {j: mpmath.mpf(1) for j in range(0, n, d + 1)}
        rhs = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
        for c in range(n):
            p = max((r for r in range(c, n) if c in rows[r]), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p], rhs[c], rhs[p] = rows[p], rows[c], rhs[p], rhs[c]
            for r in range(c + 1, n):
                if c in rows[r]:
                    f = rows[r].pop(c) / rows[c][c]
                    for j, a in rows[c].items():
                        if j != c:
                            rows[r][j] = rows[r].get(j, 0) - f * a
                    rhs[r] -= f * rhs[c]
        x = [mpmath.mpf(0)] * n
        for c in range(n - 1, -1, -1):
            x[c] = (rhs[c] - sum(a * x[j] for j, a in rows[c].items() if j != c)) / rows[c][c]
        return np.array([complex(v) for v in x]).reshape(d, d).T  # column stacking


def per_value_csv(path, header: list[str], rows: list[list], digest: str) -> None:
    """Table CSV written by formatting every value with the table rule ``_fmt``."""
    lines = [f"# config-hash: {digest}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_bytes(("\n".join(lines) + "\n").encode())


def per_value_matrix_csv(path, matrix: np.ndarray, digest: str) -> None:
    """Complex-matrix CSV written by formatting every real and imaginary part
    with the table rule ``_fmt``, one value at a time."""
    header = [f"{part}_{j}" for j in range(matrix.shape[1]) for part in ("re", "im")]
    rows = np.ascontiguousarray(matrix, dtype=complex).view(float).tolist()
    lines = [f"# config-hash: {digest}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_bytes(("\n".join(lines) + "\n").encode())  # UTF-8 and "\n" on every platform


def per_pair_coherence_peaks(m: np.ndarray, delta_omega_s: float) -> PeakSet:
    """Peak set of a ground block taken one pair at a time: each term is the scalar
    float(abs(m[i, i+n])**2) and each weight is Python's sum of its terms."""
    ng = m.shape[0]
    labels = tuple(2 * g + 1 for g in range(ng))
    peaks = []
    for n in range(1, ng):
        contribs = tuple((labels[i], float(abs(m[i, i + n]) ** 2)) for i in range(ng - n))
        peaks.append(
            Peak(
                n=n,
                frequency=n * delta_omega_s,
                weight=float(sum(c for _, c in contribs)),
                contributors=contribs,
            )
        )
    return PeakSet(delta_omega_s=float(delta_omega_s), peaks=tuple(peaks))


# Internal step budget of one propagation; odeint's default of 500 is already
# reached by some criterion-09 graphs (up to 454 steps at tol = 1e-9).
PROPAGATE_MAX_STEPS = 100_000


def lsoda_propagate(gen: GeneratorMatrix, rho0: DensityMatrix, t: float, tol: float = 1e-9) -> DensityMatrix:
    """Integrate drho/dt = L rho for a time ``t`` with local error <= ``tol``.

    The complex linear system is stacked into real and imaginary parts and
    integrated by LSODA (compiled ODEPACK, via ``scipy.integrate.odeint``),
    which switches between non-stiff Adams and stiff BDF steps as the dynamics
    require; the generator supplies the exact Jacobian, which keeps stiff rate
    hierarchies such as gamma >> gamma_prime tractable.
    """
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    if rho0.n_states != gen.n_states:
        raise ValueError("state dimension does not match the generator")
    if t == 0:
        return rho0
    from scipy.integrate import ODEintWarning, odeint

    lio = gen.matrix
    lr = np.block([[lio.real, -lio.imag], [lio.imag, lio.real]])
    z0 = rho0.vec()
    y0 = np.concatenate([z0.real, z0.imag])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)  # odeint reports failure as a warning
        try:
            y_t = odeint(
                lambda _t, y: lr @ y,
                y0,
                [0.0, float(t)],
                Dfun=lambda _t, _y: lr,
                rtol=tol,
                atol=tol,
                mxstep=PROPAGATE_MAX_STEPS,
                tfirst=True,
            )[-1]
        except ODEintWarning as exc:
            raise PropagationError(f"integration failed: {exc}") from None
    if not np.isfinite(y_t).all():
        raise PropagationError("integration produced non-finite values")
    n2 = gen.n_states**2
    rho = DensityMatrix.from_vec(y_t[:n2] + 1j * y_t[n2:], gen.n_states)
    drift = abs(complex(np.trace(rho.matrix)) - 1.0)
    if drift > 10.0 * tol:
        raise PropagationError(f"trace drift {drift:.3e} exceeds 10*tol")
    try:
        return rho.validate(
            herm_atol=max(HERMITICITY_ATOL, 10.0 * tol),
            trace_atol=10.0 * tol,
            eig_floor=min(EIGENVALUE_FLOOR, -10.0 * tol),
        )
    except ValueError as exc:  # a state that fails its checks is a failed propagation
        raise PropagationError(str(exc)) from None
