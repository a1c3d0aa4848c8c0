"""Coherence power spectrum of the ground manifold: delta-peak weights and ratios.

At steady state the two-time correlator of a ground-pair lowering operator
factorizes into |rho[l, l+n]|^2, so the spectrum is a comb of delta peaks at
harmonics of the tone difference delta_omega_s.  The n-th peak collects every
ground pair n steps apart:

    weight(n) = sum_l |rho[l, l+n]|^2,    frequency = n * delta_omega_s.

Peaks are first-class data here; Lorentzian broadening exists only for plot
emission and never enters the ratio computations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liouvillian import DensityMatrix

__all__ = [
    "Peak",
    "PeakSet",
    "HeightRatios",
    "LogLinearFit",
    "coherence_peaks",
    "peak_weights",
    "height_ratios",
    "weight_ratios",
    "loglinear_fit",
    "broadened_spectrum",
    "visible_peaks",
    "DEFAULT_DISPLAY_THRESHOLD",
]

# Stand-in for the photon shot-noise floor when reporting "visible" peaks;
# purely a display cutoff, relative to the fundamental peak.
DEFAULT_DISPLAY_THRESHOLD = 1e-6

_UNDRIVEN = "fundamental peak weight is zero (undriven system)"


@dataclass(frozen=True)
class Peak:
    """One delta peak: harmonic index, frequency, weight, and per-pair contributions."""

    n: int
    frequency: float
    weight: float
    contributors: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class PeakSet:
    """All delta peaks of one steady state, indexed by harmonic n = 1..n_ground-1."""

    delta_omega_s: float
    peaks: tuple[Peak, ...]

    def weight(self, n: int) -> float:
        for p in self.peaks:
            if p.n == n:
                return p.weight
        raise KeyError(f"no harmonic n={n}")

    @property
    def fundamental_weight(self) -> float:
        return self.weight(1)


@dataclass(frozen=True)
class HeightRatios:
    """Peak weights relative to the fundamental; ratio(1) == 1 by definition."""

    fundamental_weight: float
    ratios: tuple[tuple[int, float], ...]  # (n, H_n1) for n >= 2

    def ratio(self, n: int) -> float:
        if n == 1:
            return 1.0
        for k, r in self.ratios:
            if k == n:
                return r
        raise KeyError(f"no harmonic n={n}")


def coherence_peaks(rho_ground, delta_omega_s: float, labels=None) -> PeakSet:
    """Delta-peak weights of the coherence spectrum of a ground-manifold state.

    ``rho_ground`` is the ground-block density matrix with adjacent indices one
    ground state apart.  ``labels`` names the contributors (default: odd chain
    labels 1, 3, 5, ...); zero-weight peaks are reported, suppression is the
    caller's choice.
    """
    m = rho_ground.matrix if isinstance(rho_ground, DensityMatrix) else np.asarray(rho_ground)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("rho_ground must be a square matrix")
    ng = m.shape[0]
    if labels is None:
        labels = tuple(2 * g + 1 for g in range(ng))
    elif len(labels) != ng:
        raise ValueError(f"expected {ng} labels, got {len(labels)}")
    peaks = []
    for n in range(1, ng):
        terms, weight = _harmonic(m, n)
        peaks.append(
            Peak(
                n=n,
                frequency=n * delta_omega_s,
                weight=float(weight),
                contributors=tuple(zip(labels, terms.tolist())),
            )
        )
    return PeakSet(delta_omega_s=float(delta_omega_s), peaks=tuple(peaks))


def _harmonic(m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Terms |m[..., l, l+n]|^2, bit for bit the scalar float(abs(z)**2) (np.abs(z)**2
    is not), and weight(n): their sum in index order, as Python's sum adds them."""
    z = np.diagonal(m, offset=n, axis1=-2, axis2=-1)
    terms = np.float_power(np.hypot(z.real, z.imag), 2)
    return terms, np.add.accumulate(terms, axis=-1)[..., -1]


def peak_weights(rho_ground) -> np.ndarray:
    """weight(n), n = 1..ng-1, of a ground block or a (k, ng, ng) stack: shape (..., ng-1)."""
    m = np.asarray(rho_ground)
    return np.stack([_harmonic(m, n)[1] for n in range(1, m.shape[-1])], axis=-1)


def height_ratios(peaks: PeakSet) -> HeightRatios:
    """Weights of harmonics n >= 2 relative to the fundamental."""
    fundamental = peaks.fundamental_weight
    if fundamental <= 0.0:
        raise ValueError(_UNDRIVEN)
    ratios = tuple(
        (p.n, p.weight / fundamental) for p in sorted(peaks.peaks, key=lambda p: p.n) if p.n >= 2
    )
    return HeightRatios(fundamental_weight=fundamental, ratios=ratios)


def weight_ratios(weights: np.ndarray) -> np.ndarray:
    """Rows [weight(1), H_21, H_31, ...] of stacked :func:`peak_weights`, with the
    numbers and the error of :func:`height_ratios`."""
    fundamental = weights[..., :1]
    if (fundamental <= 0.0).any():
        raise ValueError(_UNDRIVEN)
    return np.concatenate([fundamental, weights[..., 1:] / fundamental], axis=-1)


@dataclass(frozen=True)
class LogLinearFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def loglinear_fit(obj) -> LogLinearFit:
    """Least-squares fit of ln(weight_n) against the harmonic index n.

    Accepts a :class:`PeakSet` or :class:`HeightRatios`; uses every harmonic
    with strictly positive weight and requires at least three of them.
    """
    if isinstance(obj, PeakSet):
        pairs = [(p.n, p.weight) for p in obj.peaks]
    elif isinstance(obj, HeightRatios):
        pairs = [(1, obj.fundamental_weight)] + [
            (n, r * obj.fundamental_weight) for n, r in obj.ratios
        ]
    else:
        raise TypeError("expected PeakSet or HeightRatios")
    usable = [(n, w) for n, w in pairs if w > 0.0]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 nonzero peaks to fit, have {len(usable)}")
    ns = np.array([n for n, _ in usable], dtype=float)
    logw = np.log([w for _, w in usable])
    slope, intercept = np.polyfit(ns, logw, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((logw - pred) ** 2))
    ss_tot = float(np.sum((logw - logw.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LogLinearFit(
        slope=float(slope), intercept=float(intercept), r_squared=r_squared, n_points=len(usable)
    )


def broadened_spectrum(peaks: PeakSet, linewidth: float, grid) -> np.ndarray:
    """Sum of weight-scaled unit-area Lorentzians on a frequency grid (plot emission only).

    ``linewidth`` is the FWHM; each peak contributes
    weight * (linewidth/2/pi) / ((omega - omega_peak)**2 + (linewidth/2)**2),
    so an isolated peak's maximum is weight / (pi * linewidth / 2).
    """
    if linewidth <= 0:
        raise ValueError("linewidth must be positive")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("frequency grid is empty")
    half = linewidth / 2.0
    curve = np.zeros_like(grid)
    for p in peaks.peaks:
        curve += p.weight * (half / np.pi) / ((grid - p.frequency) ** 2 + half**2)
    return curve


def visible_peaks(peaks: PeakSet, rel_threshold: float = DEFAULT_DISPLAY_THRESHOLD) -> tuple[Peak, ...]:
    """Peaks at or above ``rel_threshold`` times the fundamental weight; none when the
    fundamental weight is zero (an undriven system shows no peaks)."""
    fundamental = peaks.fundamental_weight
    if fundamental <= 0.0:
        return ()
    floor = rel_threshold * fundamental
    return tuple(p for p in peaks.peaks if p.weight >= floor and p.weight > 0.0)
