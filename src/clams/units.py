"""Unit convention used throughout the package.

Every rate, Rabi coupling, detuning, and splitting is an angular frequency in
rad/us internally.  Configuration files, command-line flags, and emitted
reports use ordinary frequencies in MHz.  The conversion happens only at those
I/O boundaries, and only through the two helpers below:

    omega[rad/us] = 2*pi * f[MHz]
"""
from __future__ import annotations

import math

__all__ = ["mhz_to_angular", "angular_to_mhz"]

TWO_PI = 2.0 * math.pi


def mhz_to_angular(f_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/us."""
    return TWO_PI * f_mhz


def angular_to_mhz(omega: float) -> float:
    """Angular frequency in rad/us -> ordinary frequency in MHz."""
    return omega / TWO_PI
