"""Reference forms that the optimised code in ``clams`` must reproduce: the direct
Kronecker-product and basis-matrix generator builders, and the per-value
complex-matrix CSV writer."""
from __future__ import annotations

import numpy as np

from clams.cli import _fmt
from clams.effective import coherence_damping, hopping_matrix, population_rates
from clams.level_system import rotating_diagonal
from clams.liouvillian import CouplingGraph


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


def per_value_matrix_csv(path, matrix: np.ndarray, digest: str) -> None:
    """Complex-matrix CSV written by formatting every real and imaginary part
    with the table rule ``_fmt``, one value at a time."""
    header = [f"{part}_{j}" for j in range(matrix.shape[1]) for part in ("re", "im")]
    rows = np.ascontiguousarray(matrix, dtype=complex).view(float).tolist()
    lines = [f"# config-hash: {digest}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
