"""Batched sweeps against per-point steady states."""
import numpy as np
import pytest

import clams.liouvillian
from clams.cli import main
from clams.effective import build_effective_generator, effective_steady_state
from clams.level_system import SystemParams, ground_indices, raman_detunings
from clams.liouvillian import build_generator, cascaded_lambda_graph, steady_state
from clams.rb85 import (
    DEFAULT_GAMMA_MHZ,
    DEFAULT_GAMMA_PRIME_MHZ,
    DEFAULT_RABI_FRACTION,
    DEFAULT_SPLITTING_MHZ,
)
from clams.spectrum import coherence_peaks, height_ratios
from clams.units import mhz_to_angular

SWEEP_RTOL = 1e-12


def default_params(n_levels, gamma_prime_mhz=DEFAULT_GAMMA_PRIME_MHZ):
    """The CLI's defaults."""
    return SystemParams(
        n_levels=n_levels,
        rabi=mhz_to_angular(DEFAULT_RABI_FRACTION * DEFAULT_GAMMA_MHZ),
        gamma=mhz_to_angular(DEFAULT_GAMMA_MHZ),
        gamma_prime=mhz_to_angular(gamma_prime_mhz),
        detunings=(0.0,) * (n_levels - 1),
        delta_omega_s=mhz_to_angular(DEFAULT_SPLITTING_MHZ),
    )


def per_point_harmonics(p: SystemParams) -> tuple[list[float], list[float]]:
    """[w1, h21, h31, ...] of the full chain and of the reduced model, one solve each."""
    gidx = ground_indices(p.n_levels)
    full = steady_state(build_generator(cascaded_lambda_graph(p))).matrix[np.ix_(gidx, gidx)]
    eff = effective_steady_state(
        build_effective_generator(p.n_levels, p.hopping_rate, p.gamma_prime, p.detunings)
    ).matrix
    out = []
    for rho in (full, eff):
        peaks = coherence_peaks(rho, p.delta_omega_s)
        ratios = height_ratios(peaks)
        out.append([peaks.fundamental_weight] + [ratios.ratio(n) for n in range(2, p.n_ground)])
    return out[0], out[1]


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def assert_close(got: str, want: float) -> None:
    assert abs(float(got) - want) <= SWEEP_RTOL * abs(want)


@pytest.mark.parametrize("n_levels", [5, 13])
def test_readme_detuning_sweep_matches_per_point(tmp_path, n_levels):
    argv = ["sweep-detuning", "--n-levels", str(n_levels), "--start-mhz", "-2", "--stop-mhz", "2",
            "--count", "41", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_rows(tmp_path / "sweep_detuning.csv")
    assert len(rows) == 41
    base = default_params(n_levels)
    for row in rows:
        delta = mhz_to_angular(float(row[0]))
        p = SystemParams(n_levels, base.rabi, base.gamma, base.gamma_prime,
                         raman_detunings(n_levels, delta), base.delta_omega_s)
        full, eff = per_point_harmonics(p)
        assert_close(row[1], full[0])
        assert_close(row[2], eff[0])
        for k in range(1, len(full)):
            assert_close(row[1 + 2 * k], full[k])
            assert_close(row[2 + 2 * k], eff[k])


def test_readme_rabi_sweep_matches_per_point(tmp_path):
    argv = ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-4", "--omega-max", "5e-2",
            "--count", "201", "--gamma-prime-mhz", "0.02", "--parallel", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_rows(tmp_path / "sweep_rabi.csv")
    assert len(rows) == 201
    base = default_params(7, gamma_prime_mhz=0.02)
    for row in rows:
        assert row[-1] == "ok"
        p = SystemParams(7, float(row[0]) * base.gamma, base.gamma, base.gamma_prime,
                         base.detunings, base.delta_omega_s)
        assert_close(row[1], p.hopping_rate / p.gamma_prime)
        full, eff = per_point_harmonics(p)
        for k in range(1, len(full)):
            assert_close(row[2 * k], full[k])
            assert_close(row[2 * k + 1], eff[k])


def test_partial_last_chunk_gives_same_rows(tmp_path, monkeypatch):
    argv = ["sweep-rabi", "--n-levels", "7", "--omega-min", "1e-3", "--omega-max", "5e-2",
            "--count", "11"]
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(clams.liouvillian, "STACK_BYTES", 3 * 16 * 49**2)  # N=7: 3 per stack
    assert main([*argv, "--out", str(tmp_path / "chunked")]) == 0
    one = (tmp_path / "one" / "sweep_rabi.csv").read_bytes()
    assert (tmp_path / "chunked" / "sweep_rabi.csv").read_bytes() == one
