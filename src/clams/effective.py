"""Reduced ground-manifold dynamics with imaginary nearest-neighbour hopping.

For rabi << gamma the excited states of a cascaded-Lambda chain relax fast and
can be integrated out.  What remains is a non-Hermitian tight-binding model on
the (N+1)/2 ground states: neighbouring ground states acquire a purely
imaginary hopping amplitude of magnitude j_hop = rabi**2 / gamma, and the
density matrix obeys

    drho/dt |coherent = -i (H rho - rho H^+),   H = diag(two-photon detunings) - i * j_hop * A

applied to the off-diagonal entries only (A is the chain adjacency matrix).
Two rate structures complete the dynamics:

* coherence damping   gtilde[a, b] = (4 - edge(a) - edge(b)) * j_hop / 2,
  where edge() marks the first/last ground state, plus half the summed
  population outflow of a and b;
* a symmetric classical population block with nearest-neighbour rates
  j_hop + gamma_prime.  Populations decouple from all coherences and settle
  to the uniform distribution.

The hopping term anticommutes with the combined index-reflection/
complex-conjugation operation; :func:`anti_pt_defect` measures violations of
that property.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .level_system import SystemParams, rotating_diagonal
from .liouvillian import DensityMatrix, GeneratorMatrix, _assemble, steady_state

__all__ = [
    "EffectiveGenerator",
    "ClosedFormCoherences",
    "population_rates",
    "coherence_damping",
    "hopping_matrix",
    "build_effective_generator",
    "reduce",
    "effective_steady_state",
    "closed_form_coherences",
    "anti_pt_defect",
]

# The reduction (rabi/gamma) and the leading-order closed forms for the 7-level
# chain (hopping and detuning over gamma_prime) hold in this corner only.
VALIDITY_RATIO = 0.05


class EffectiveGenerator(GeneratorMatrix):
    """Generator of the reduced dynamics on vectorized ground density matrices
    (``n_states`` ground states), with its hopping coupling ``v_eff``."""

    def __init__(self, n_states: int, matrix: np.ndarray | None = None, *, v_eff: np.ndarray, **kw):
        super().__init__(n_states, matrix, **kw)
        self.v_eff = v_eff


def _chain_adjacency(n_ground: int) -> np.ndarray:
    return np.eye(n_ground, k=1) + np.eye(n_ground, k=-1)


def population_rates(n_ground: int, j_hop: float, gamma_prime: float) -> np.ndarray:
    """Symmetric nearest-neighbour population transfer rates j_hop + gamma_prime."""
    return (j_hop + gamma_prime) * _chain_adjacency(n_ground)


def coherence_damping(n_ground: int, j_hop: float) -> np.ndarray:
    """Extra coherence damping from the eliminated excited states.

    gtilde[a, b] = (4 - edge(a) - edge(b)) * j_hop / 2; the diagonal is unused.
    """
    edge = np.zeros(n_ground)
    edge[[0, -1]] = 1.0
    return (4.0 - edge[:, None] - edge[None, :]) * j_hop / 2.0


def hopping_matrix(n_ground: int, amplitude: float, imaginary: bool = True) -> np.ndarray:
    """Nearest-neighbour hopping block; ``imaginary=False`` builds the Hermitian mutant."""
    scale = 1j * amplitude if imaginary else amplitude
    return scale * _chain_adjacency(n_ground).astype(complex)


def _check_rates(j_hop: float, gamma_prime: float) -> None:
    if not (np.isfinite(j_hop) and j_hop >= 0):
        raise ValueError("hopping rate must be finite and >= 0")
    if not (np.isfinite(gamma_prime) and gamma_prime > 0):
        raise ValueError("gamma_prime must be finite and positive")


def build_effective_generator(n_levels: int, j_hop: float, gamma_prime: float,
                              detunings=None) -> EffectiveGenerator:
    """Assemble the reduced generator directly from the hopping scale.

    ``detunings`` follows the full-chain convention (length n_levels - 1);
    omitted means resonant driving.
    """
    if n_levels < 3 or n_levels % 2 == 0:
        raise ValueError("n_levels must be odd and >= 3")
    _check_rates(j_hop, gamma_prime)
    if detunings is None:
        detunings = (0.0,) * (n_levels - 1)
    ng = (n_levels + 1) // 2
    gdiag = rotating_diagonal(n_levels, detunings)[0::2]

    v_eff = -hopping_matrix(ng, j_hop)  # density-matrix convention: -i * j_hop * A
    h_eff = np.diag(gdiag).astype(complex) + v_eff
    rates = population_rates(ng, j_hop, gamma_prime)
    outflow = rates.sum(axis=1)

    # column-stacked superoperator: populations see no coherent term and lose their
    # outflow, each coherence rho_ab damps at gtilde[a, b] plus half the outflow of a and b
    damping = (coherence_damping(ng, j_hop) + 0.5 * (outflow[:, None] + outflow[None, :])).ravel(order="F")
    damping[np.arange(ng) * (ng + 1)] = outflow
    src, tgt = np.nonzero(rates)
    return _assemble(h_eff, h_eff.conj().T, src, tgt, rates[src, tgt], damping, False,
                     EffectiveGenerator, v_eff=v_eff)


def reduce(params: SystemParams) -> EffectiveGenerator:
    """Reduce full chain parameters to the ground-manifold generator.

    Valid for rabi << gamma; a ratio above ``VALIDITY_RATIO`` still builds the
    generator but warns that the elimination of the excited states is getting
    inaccurate.
    """
    if params.rabi / params.gamma > VALIDITY_RATIO:
        warnings.warn(
            f"rabi/gamma = {params.rabi / params.gamma:.3g} > {VALIDITY_RATIO}; "
            "the reduced description degrades at strong driving",
            stacklevel=2,
        )
    return build_effective_generator(
        params.n_levels, params.hopping_rate, params.gamma_prime, params.detunings
    )


def effective_steady_state(gen: EffectiveGenerator) -> DensityMatrix:
    """Unique trace-one steady state of the reduced dynamics."""
    return steady_state(gen)


@dataclass(frozen=True)
class ClosedFormCoherences:
    """Analytic steady-state ground coherences for chains of 3, 5, or 7 levels.

    Keys of ``coherences`` are ground level pairs (l, l') with l < l', values
    are the density-matrix elements rho[l, l'].  The 3- and 5-level results are
    exact; the 7-level ones are leading order in hopping_rate/gamma_prime and
    carry a validity flag.
    """

    n_levels: int
    hopping_rate: float
    gamma_prime: float
    delta: float
    coherences: dict
    exact: bool
    within_validity: bool

    def as_matrix(self) -> np.ndarray:
        """Hermitian ground density matrix with uniform populations and these coherences."""
        ng = (self.n_levels + 1) // 2
        rho = np.eye(ng, dtype=complex) / ng
        for (l, lp), val in self.coherences.items():
            a, b = (l - 1) // 2, (lp - 1) // 2
            rho[a, b] = val
            rho[b, a] = np.conj(val)
        return rho


def closed_form_coherences(
    n_levels: int, j_hop: float, gamma_prime: float, delta: float
) -> ClosedFormCoherences:
    """Analytic steady-state coherences at detuning pattern (delta, 0, delta, 0, ...).
    The 7-level forms' own weak-drive limits of H21 / (j/gp)^2 and H31 / (j/gp)^4 are
    49/54 and 49/27; the reduced model's are 392/369 and 784/369."""
    jh, gp, d = float(j_hop), float(gamma_prime), float(delta)
    _check_rates(jh, gp)
    if not np.isfinite(d):
        raise ValueError("delta must be finite")
    if n_levels == 3:
        c = {(1, 3): -jh / ((gp + 2 * jh) - 1j * d)}
        exact, valid = True, True
    elif n_levels == 5:
        den = 8 * jh**2 + 12 * jh * gp + 3 * gp**2 - 8j * (2 * jh + gp) * d - 4 * d**2
        c13 = -(4.0 / 3.0) * jh * (2 * jh + gp - 2j * d) / den
        c15 = (8.0 / 3.0) * jh**2 / den
        c = {(1, 3): c13, (3, 5): c13, (1, 5): c15}
        exact, valid = True, True
    elif n_levels == 7:
        c13 = -jh / (3 * gp - 2j * d)
        c15 = jh**2 * (7 * gp - 4j * d) / (
            18 * gp**3 - 45j * gp**2 * d - 34 * gp * d**2 + 8j * d**3
        )
        c17 = -2 * jh**3 * (7 * gp - 4j * d) / (
            18 * gp**4 - 99j * gp**3 * d - 169 * gp**2 * d**2 + 110j * gp * d**3 + 24 * d**4
        )
        c = {(1, 3): c13, (3, 5): c13, (5, 7): c13, (1, 5): c15, (3, 7): c15, (1, 7): c17}
        exact = False
        valid = (jh <= VALIDITY_RATIO * gp) and (abs(d) <= VALIDITY_RATIO * gp)
    else:
        raise ValueError(f"closed forms exist for n_levels in (3, 5, 7), got {n_levels}")
    return ClosedFormCoherences(
        n_levels=n_levels,
        hopping_rate=jh,
        gamma_prime=gp,
        delta=d,
        coherences=c,
        exact=exact,
        within_validity=valid,
    )


def anti_pt_defect(op) -> float:
    """Spectral norm of P conj(V) P^-1 + V, with P the index-reversal permutation.

    Zero exactly for the imaginary-hopping coupling; positive for a Hermitian
    hopping mutant.  Accepts an :class:`EffectiveGenerator` (its ``v_eff``) or
    any square matrix.
    """
    v = op.v_eff if isinstance(op, EffectiveGenerator) else np.asarray(op, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("expected a square matrix")
    p = np.fliplr(np.eye(v.shape[0]))
    defect = p @ v.conj() @ p + v
    return float(np.linalg.norm(defect, 2))
