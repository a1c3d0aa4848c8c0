"""Driven Rb-85 D2 model: F=3 ground and F'=4 excited Zeeman manifolds (16 states).

The one drive protocol: two phase-coherent tones, one sigma+ and one pi
polarized, of one Rabi coupling and one detuning from the line, one of them
delta_omega_s higher, drive the F=3 -> F'=4 transitions; `build_full_model`
takes these scalars.  Each pair of neighbouring ground Zeeman states then shares
a common excited state (g(m) --sigma+--> e(m+1) <--pi-- g(m+1)), which is the
cascaded-Lambda structure realized in the Zeeman basis.  The generic chain it is
compared with is :func:`clams.liouvillian.cascaded_lambda_graph` at 13 levels.

State ordering of the returned graph: ground m_F = -3..+3 at indices 0..6,
excited m_F = -4..+4 at indices 7..15.

Every coupling is a dipole transition F=3 -> F'=4, whose squared Clebsch-Gordan
weight w has a closed form (`cg_weight`).  A drive of Rabi coupling Omega
couples its pair with amplitude Omega*sqrt(w): under the Condon-Shortley
convention every coefficient of a j -> j+1 coupling is >= 0, so sqrt(w) is the
coefficient itself (the reduced dipole strength is absorbed into Omega).
Spontaneous decay from each excited state branches over the electric-dipole-
allowed ground states (Delta m_F = 0, +-1) at rates Gamma*w, which sum to Gamma
per excited state.  Ground-manifold relaxation connects neighbouring m_F at
gamma_prime per channel, the Zeeman-basis analog of the generic chain model.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

from .liouvillian import CouplingGraph

__all__ = [
    "F_GROUND",
    "F_EXCITED",
    "N_GROUND",
    "N_EXCITED",
    "N_STATES",
    "GROUND_M",
    "EXCITED_M",
    "cg_weight",
    "build_full_model",
    "ground_block",
    "DEFAULT_GAMMA_MHZ",
    "DEFAULT_GAMMA_PRIME_MHZ",
    "DEFAULT_SPLITTING_MHZ",
    "DEFAULT_RABI_FRACTION",
]

F_GROUND = 3
F_EXCITED = 4
N_GROUND = 2 * F_GROUND + 1
N_EXCITED = 2 * F_EXCITED + 1
N_STATES = N_GROUND + N_EXCITED
GROUND_M = tuple(range(-F_GROUND, F_GROUND + 1))
EXCITED_M = tuple(range(-F_EXCITED, F_EXCITED + 1))

# Vapor-cell operating point: excited-state linewidth, ground relaxation,
# Zeeman splitting at ~5 G, and the drive strength as a fraction of gamma.
DEFAULT_GAMMA_MHZ = 1900.0
DEFAULT_GAMMA_PRIME_MHZ = 0.2
DEFAULT_SPLITTING_MHZ = 2.34
DEFAULT_RABI_FRACTION = 8e-3


def cg_weight(f_g: int, m_g: int, q: int, f_e: int, m_e: int) -> float:
    """Squared coupling weight |<f_g m_g; 1 q | f_e m_e>|**2 of one dipole transition f -> f+1.

    Zero unless m_e = m_g + q; the weights out of each excited state sum to one
    over its allowed ground targets.  Closed form of the j -> j+1 coefficients
    (Edmonds, Angular Momentum in Quantum Mechanics, Table 2), one exact integer
    division, so each weight is the correctly rounded rational.
    """
    if q not in (-1, 0, 1):
        raise ValueError(f"polarization index q must be -1, 0, or +1, got {q}")
    if f_e != f_g + 1:
        raise ValueError(f"only dipole transitions f -> f+1 are supported, got {f_g} -> {f_e}")
    if abs(m_g) > f_g or abs(m_e) > f_e:
        raise ValueError(f"invalid quantum numbers f={f_g}, m={m_g} -> f'={f_e}, m'={m_e}")
    if m_e != m_g + q:
        return 0.0
    n = f_g
    if q == 0:
        return (n - m_g + 1) * (n + m_g + 1) / ((2 * n + 1) * (n + 1))
    return (n + q * m_g + 1) * (n + q * m_g + 2) / ((2 * n + 1) * (2 * n + 2))


def _ground_index(m: int) -> int:
    return m + F_GROUND


def _excited_index(m: int) -> int:
    return N_GROUND + m + F_EXCITED


def build_full_model(
    rabi: float,
    gamma: float,
    gamma_prime: float,
    *,
    splitting: float,
    excited_splitting: float,
    delta_omega_s: float,
    line_detuning: float = 0.0,
    offset_branch: str = "sigma+",
) -> CouplingGraph:
    """Coupling graph of the full 16-state driven system in the rotating frame.

    Both tones drive with Rabi coupling ``rabi`` and sit ``line_detuning`` off the
    line; the ``offset_branch`` tone ("sigma+" or "pi") is the higher, by delta_omega_s > 0.
    The rotating frame advances the phase of ground state m by m times the tone
    difference, making the Hamiltonian time independent:

        H[g(m), g(m)] = m * (splitting - d_rel)
        H[e(m), e(m)] = (pi-line detuning) + m * (excited_splitting - d_rel)

    with d_rel the signed sigma-minus-pi frequency difference.  All resonances
    of the multi-photon ladder line up when the splittings equal d_rel and the
    line detuning vanishes.
    """
    if gamma <= 0 or gamma_prime <= 0:
        raise ValueError("gamma and gamma_prime must be positive")
    if rabi < 0:
        raise ValueError("rabi must be >= 0")
    if offset_branch not in ("sigma+", "pi"):
        raise ValueError(f"offset_branch must be 'sigma+' or 'pi', got {offset_branch!r}")
    if delta_omega_s <= 0.0:
        raise ValueError("delta_omega_s must be positive")
    sig_offset, pi_offset = (delta_omega_s, 0.0) if offset_branch == "sigma+" else (0.0, delta_omega_s)
    d_rel = (sig_offset - line_detuning) - (pi_offset - line_detuning)
    pi_line = line_detuning - pi_offset

    h = np.zeros((N_STATES, N_STATES), dtype=complex)
    for m in GROUND_M:
        h[_ground_index(m), _ground_index(m)] = m * (splitting - d_rel)
    for m in EXCITED_M:
        h[_excited_index(m), _excited_index(m)] = pi_line + m * (excited_splitting - d_rel)
    for q in (1, 0):  # the sigma+ and pi drives
        for m_g in GROUND_M:
            amp = rabi * sqrt(cg_weight(F_GROUND, m_g, q, F_EXCITED, m_g + q))
            h[_excited_index(m_g + q), _ground_index(m_g)] += amp
            h[_ground_index(m_g), _excited_index(m_g + q)] += amp

    chans: list[tuple[int, int, float]] = []
    for m_e in EXCITED_M:
        for q in (-1, 0, 1):
            m_g = m_e - q
            if abs(m_g) > F_GROUND:
                continue
            w = cg_weight(F_GROUND, m_g, q, F_EXCITED, m_e)
            if w > 0.0:
                chans.append((_excited_index(m_e), _ground_index(m_g), gamma * w))
    for m in GROUND_M:
        for m_t in (m - 1, m + 1):
            if abs(m_t) <= F_GROUND:
                chans.append((_ground_index(m), _ground_index(m_t), gamma_prime))

    return CouplingGraph(n_states=N_STATES, hamiltonian=h, population_decays=tuple(chans))


def ground_block(rho) -> np.ndarray:
    """Ground-manifold 7x7 block of a 16-state density matrix (m_F = -3..+3 order)."""
    m = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho)
    if m.shape != (N_STATES, N_STATES):
        raise ValueError(f"expected a {N_STATES}x{N_STATES} density matrix")
    return m[:N_GROUND, :N_GROUND]
