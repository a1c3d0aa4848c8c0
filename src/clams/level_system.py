"""Level indexing and rotating-frame Hamiltonian of an N-level cascaded-Lambda chain.

Levels are labelled m = 1..N (N odd).  Odd m are ground states, even m are
excited states.  Two phase-coherent drive tones couple each level to its
neighbours: the tone at omega_s + delta_omega_s drives the odd-m transitions
m -> m+1 and the tone at omega_s drives the even-m ones, so every pair of
neighbouring ground states shares one common excited state (the cascaded-Lambda
structure).  In the co-rotating frame the Hamiltonian is time independent:

    H[m, m]   = sum_{k < m} (-1)**(k+1) * detunings[k]      (1-based m, empty sum = 0)
    H[m, m+1] = H[m+1, m] = rabi

where detunings[k] is the offset of the driving tone from the k -> k+1
transition frequency.  All quantities are angular frequencies in rad/us
(see :mod:`clams.units`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "parity",
    "ground_indices",
    "rotating_diagonal",
    "build_rotating_hamiltonian",
    "rotating_phase",
    "raman_detunings",
]


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one N-level cascaded-Lambda chain.

    Attributes
    ----------
    n_levels : odd integer >= 3
    rabi : drive coupling strength Omega (rad/us), shared by both tones
    gamma : excited-state population decay rate (rad/us), per decay channel
    gamma_prime : intrinsic ground-manifold relaxation rate (rad/us), per channel
    detunings : per-transition drive detunings, length n_levels - 1 (rad/us)
    delta_omega_s : frequency difference between the two drive tones (rad/us)
    """

    n_levels: int
    rabi: float
    gamma: float
    gamma_prime: float
    detunings: tuple[float, ...]
    delta_omega_s: float

    def __post_init__(self) -> None:
        if self.n_levels < 3 or self.n_levels % 2 == 0:
            raise ValueError("n_levels must be odd and >= 3")
        for name in ("rabi", "gamma", "gamma_prime", "delta_omega_s"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.gamma_prime <= 0:
            raise ValueError("gamma_prime must be positive")
        if self.rabi < 0:
            raise ValueError("rabi must be >= 0")
        if self.delta_omega_s <= 0:
            raise ValueError("delta_omega_s must be positive")
        object.__setattr__(self, "detunings", tuple(float(d) for d in self.detunings))
        if len(self.detunings) != self.n_levels - 1:
            raise ValueError(
                f"expected {self.n_levels - 1} detunings for n_levels={self.n_levels}, "
                f"got {len(self.detunings)}"
            )
        if not np.isfinite(self.detunings).all():
            raise ValueError("detunings must be finite")

    @property
    def hopping_rate(self) -> float:
        """Dissipative ground-manifold hopping scale rabi**2 / gamma (rad/us)."""
        return self.rabi**2 / self.gamma

    @property
    def n_ground(self) -> int:
        return (self.n_levels + 1) // 2


def parity(m: int) -> str:
    """'ground' for odd level labels, 'excited' for even ones."""
    if m < 1:
        raise ValueError(f"level label must be >= 1, got {m}")
    return "ground" if m % 2 == 1 else "excited"


def ground_indices(n_levels: int) -> np.ndarray:
    """0-based array indices of the ground states (levels 1, 3, ..., N)."""
    return np.arange(0, n_levels, 2)


def rotating_diagonal(n_levels: int, detunings) -> np.ndarray:
    """Rotating-frame level energies: alternating-sign partial sums of the detunings."""
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != (n_levels - 1,):
        raise ValueError(f"expected {n_levels - 1} detunings, got {detunings.shape}")
    if not np.isfinite(detunings).all():
        raise ValueError("detunings must be finite")
    signs = np.array([(-1.0) ** k for k in range(n_levels - 1)])  # +, -, +, ... for k=1..N-1
    diag = np.zeros(n_levels)
    diag[1:] = np.cumsum(signs * detunings)
    return diag


def build_rotating_hamiltonian(params: SystemParams) -> np.ndarray:
    """Time-independent rotating-frame Hamiltonian of the chain (complex N x N, Hermitian)."""
    n = params.n_levels
    h = np.diag(rotating_diagonal(n, params.detunings)).astype(complex)
    for m in range(n - 1):
        h[m, m + 1] = params.rabi
        h[m + 1, m] = params.rabi
    return h


def rotating_phase(m: int, m_prime: int, params: SystemParams, omega_s: float = 0.0) -> float:
    """Angular frequency at which the lab-frame coherence (m, m') rotates.

    Equals the difference of the frame-generator phases of the two levels.  For
    a ground pair (l, l + 2n) it is n * delta_omega_s independent of omega_s;
    mixed-parity pairs pick up the absolute tone frequency, so ``omega_s`` must
    be supplied for those to be meaningful.  Antisymmetric under m <-> m'.
    """
    n = params.n_levels
    if not (1 <= m <= n and 1 <= m_prime <= n):
        raise ValueError(f"level labels must be in 1..{n}, got ({m}, {m_prime})")

    def partial(mm: int) -> float:
        s = 0.0
        for k in range(1, mm):
            tone = omega_s + params.delta_omega_s if k % 2 == 1 else omega_s
            s += (-1.0) ** k * tone
        return s

    return partial(m) - partial(m_prime)


def raman_detunings(n_levels: int, delta: float) -> tuple[float, ...]:
    """Detuning pattern with every odd-indexed transition offset by ``delta``.

    With equal Zeeman splittings in the ground and excited manifolds all
    transitions driven by one tone share a single detuning; offsetting that
    tone by ``delta`` detunes every two-photon ground-pair resonance by the
    same ``delta``.  This is the default pattern for detuning sweeps.
    """
    return tuple(delta if k % 2 == 0 else 0.0 for k in range(n_levels - 1))

