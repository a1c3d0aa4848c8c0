"""Perturbative multi-photon transition rates between ground states of the chain.

The 2n-photon transition from level 1 to level 1+2n proceeds through the 2n-1
intermediate levels; its rate amplitude (the prefactor of the on-shell delta
function) is

    amplitude = 2*pi * rabi**(4n) / prod_{m=2}^{2n} |i*gamma_m - diag_m|**2,

where diag_m is the rotating-frame energy of intermediate level m and gamma_m
is gamma for excited (even m) and gamma_prime for ground (odd m) intermediates.
At resonant driving every diag_m vanishes and the amplitude collapses to

    2*pi * j_hop**(2n) / gamma_prime**(2n-2),        j_hop = rabi**2 / gamma,

so consecutive orders are suppressed by (j_hop / gamma_prime)**2.

Delta functions are represented as (amplitude, resonance_frequency) pairs plus
an on-shell boolean; no numerical broadening happens here.  The general
detuned product is evaluated for n <= 3 only; the resonant closed form covers
every order the chain supports.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .level_system import SystemParams, rotating_diagonal

__all__ = ["RateResult", "transition_amplitude", "rate_ratio"]

RESONANCE_RTOL = 1e-9
MAX_DETUNED_ORDER = 3


@dataclass(frozen=True)
class RateResult:
    """One multi-photon transition rate: |1> -> |1 + order>."""

    order: int  # photon order 2n
    amplitude: float
    resonance_frequency: float  # n * delta_omega_s
    resonant: bool


def transition_amplitude(params: SystemParams, n: int, mode: str = "auto") -> RateResult:
    """Rate amplitude of the 2n-photon transition from level 1 to level 1+2n.

    ``mode`` selects the evaluation route: ``"general"`` is the product over
    intermediate-level denominators (supported for n <= 3), ``"resonant"`` the
    closed form 2*pi * j_hop**(2n) / gamma_prime**(2n-2) (any order, requires
    zero detunings), and ``"auto"`` picks the general route exactly when some
    relevant detuning is nonzero.

    The transition is on shell (``resonant``) when the rotating-frame energy of
    the final level vanishes, within ``RESONANCE_RTOL`` of delta_omega_s.
    """
    n_max = (params.n_levels - 1) // 2
    if not 1 <= n <= n_max:
        raise ValueError(f"n must be in 1..{n_max} for a {params.n_levels}-level chain")
    if mode not in ("auto", "general", "resonant"):
        raise ValueError(f"unknown mode {mode!r}")

    diag = rotating_diagonal(params.n_levels, params.detunings)
    detuned = any(d != 0.0 for d in params.detunings[: 2 * n])
    if mode == "auto":
        mode = "general" if detuned else "resonant"
    if mode == "general":
        if n > MAX_DETUNED_ORDER:
            raise ValueError(
                f"general (detuned) amplitudes are supported for n <= {MAX_DETUNED_ORDER}; "
                f"got n = {n}"
            )
        denom = 1.0
        for m in range(2, 2 * n + 1):  # intermediate levels, 1-based
            gamma_m = params.gamma if m % 2 == 0 else params.gamma_prime
            denom *= abs(1j * gamma_m - diag[m - 1]) ** 2
        amplitude = 2.0 * np.pi * params.rabi ** (4 * n) / denom
    else:
        if detuned:
            raise ValueError("resonant mode requires zero detunings on the transition path")
        amplitude = (
            2.0 * np.pi * params.hopping_rate ** (2 * n) / params.gamma_prime ** (2 * n - 2)
        )

    return RateResult(
        order=2 * n,
        amplitude=float(amplitude),
        resonance_frequency=n * params.delta_omega_s,
        resonant=bool(abs(diag[2 * n]) <= RESONANCE_RTOL * params.delta_omega_s),
    )


def rate_ratio(params: SystemParams, n: int) -> float:
    """Resonant amplitude of order 2n relative to the two-photon one: (j_hop/gamma_prime)**(2n-2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (params.hopping_rate / params.gamma_prime) ** (2 * n - 2)
