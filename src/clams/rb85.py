"""Driven Rb-85 D2 model: F=3 ground and F'=4 excited Zeeman manifolds (16 states).

Two phase-coherent fields, one sigma+ polarized and one pi polarized and offset
from each other by delta_omega_s, drive the F=3 -> F'=4 transitions.  Each pair
of neighbouring ground Zeeman states then shares a common excited state
(g(m) --sigma+--> e(m+1) <--pi-- g(m+1)), which is the cascaded-Lambda
structure realized in the Zeeman basis.

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

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .level_system import SystemParams
from .liouvillian import CouplingGraph, cascaded_lambda_graph

__all__ = [
    "F_GROUND",
    "F_EXCITED",
    "N_GROUND",
    "N_EXCITED",
    "N_STATES",
    "GROUND_M",
    "EXCITED_M",
    "ZeemanManifold",
    "DriveField",
    "cg_weight",
    "build_full_model",
    "build_truncated_13",
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

_POLARIZATION_Q = {"sigma-": -1, "pi": 0, "sigma+": +1}


@dataclass(frozen=True)
class ZeemanManifold:
    """One hyperfine level: total angular momentum F and Zeeman splitting per m_F step."""

    f: int
    splitting: float

    def __post_init__(self) -> None:
        if self.f not in (F_GROUND, F_EXCITED):
            raise ValueError(f"f must be {F_GROUND} (ground) or {F_EXCITED} (excited)")


@dataclass(frozen=True)
class DriveField:
    """One Raman tone: polarization, Rabi coupling, detuning from the line,
    and its frequency offset relative to the shared base frequency."""

    polarization: str
    rabi: float
    detuning: float = 0.0
    frequency_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.polarization not in _POLARIZATION_Q:
            raise ValueError(f"unknown polarization {self.polarization!r}")
        if self.rabi < 0:
            raise ValueError("rabi must be >= 0")

    @property
    def q(self) -> int:
        return _POLARIZATION_Q[self.polarization]


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
    ground: ZeemanManifold,
    excited: ZeemanManifold,
    drives: tuple[DriveField, DriveField],
    gamma: float,
    gamma_prime: float,
) -> CouplingGraph:
    """Coupling graph of the full 16-state driven system in the rotating frame.

    The two drives must be one sigma+ and one pi field, and exactly one of them
    must carry a nonzero ``frequency_offset`` (the tone difference
    delta_omega_s).  The rotating frame advances the phase of ground state m by
    m times the tone difference, making the Hamiltonian time independent:

        H[g(m), g(m)] = m * (ground.splitting - d_rel)
        H[e(m), e(m)] = (pi-line detuning) + m * (excited.splitting - d_rel)

    with d_rel the signed sigma-minus-pi frequency difference.  All resonances
    of the multi-photon ladder line up when the splittings equal d_rel and the
    line detuning vanishes.
    """
    if gamma <= 0 or gamma_prime <= 0:
        raise ValueError("gamma and gamma_prime must be positive")
    if ground.f != F_GROUND or excited.f != F_EXCITED:
        raise ValueError(f"expected F={F_GROUND} ground and F'={F_EXCITED} excited manifolds")
    by_pol = {d.polarization: d for d in drives}
    if len(by_pol) != 2:
        raise ValueError("the two drives must have distinct polarizations")
    if set(by_pol) != {"sigma+", "pi"}:
        raise ValueError("this driving protocol needs one sigma+ and one pi field")
    sig, pi = by_pol["sigma+"], by_pol["pi"]
    offsets = sorted((abs(sig.frequency_offset), abs(pi.frequency_offset)))
    if offsets[0] != 0.0 or offsets[1] == 0.0:
        raise ValueError(
            "exactly one drive must carry the tone offset delta_omega_s "
            f"(got offsets {sig.frequency_offset}, {pi.frequency_offset})"
        )

    d_rel = (sig.frequency_offset - sig.detuning) - (pi.frequency_offset - pi.detuning)
    line_detuning = pi.detuning - pi.frequency_offset

    h = np.zeros((N_STATES, N_STATES), dtype=complex)
    for m in GROUND_M:
        h[_ground_index(m), _ground_index(m)] = m * (ground.splitting - d_rel)
    for m in EXCITED_M:
        h[_excited_index(m), _excited_index(m)] = line_detuning + m * (excited.splitting - d_rel)
    for drive in (sig, pi):
        for m_g in GROUND_M:
            m_e = m_g + drive.q
            if abs(m_e) > F_EXCITED:
                continue
            amp = drive.rabi * sqrt(cg_weight(F_GROUND, m_g, drive.q, F_EXCITED, m_e))
            h[_excited_index(m_e), _ground_index(m_g)] += amp
            h[_ground_index(m_g), _excited_index(m_e)] += amp

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


def build_truncated_13(params: SystemParams) -> CouplingGraph:
    """13-level cascaded-Lambda comparison chain: 7 ground + 6 excited states,
    uniform Rabi couplings, and the adjacent two-channel decay model."""
    if params.n_levels != 13:
        raise ValueError(f"the truncated comparison chain has 13 levels, got {params.n_levels}")
    return cascaded_lambda_graph(params)


def ground_block(rho) -> np.ndarray:
    """Ground-manifold 7x7 block of a 16-state density matrix (m_F = -3..+3 order)."""
    m = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho)
    if m.shape != (N_STATES, N_STATES):
        raise ValueError(f"expected a {N_STATES}x{N_STATES} density matrix")
    return m[:N_GROUND, :N_GROUND]
