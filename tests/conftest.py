"""Shared helpers for the test suite."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import clams
from clams.effective import build_effective_generator, effective_steady_state
from clams.level_system import SystemParams, ground_indices
from clams.liouvillian import CouplingGraph, build_generator, cascaded_lambda_graph, steady_state
from clams.rb85 import (
    DEFAULT_GAMMA_MHZ,
    DEFAULT_GAMMA_PRIME_MHZ,
    DEFAULT_RABI_FRACTION,
    DEFAULT_SPLITTING_MHZ,
    F_EXCITED,
    F_GROUND,
    DriveField,
    ZeemanManifold,
    build_full_model,
)
from clams.spectrum import coherence_peaks, height_ratios
from clams.units import mhz_to_angular


def chain_params(n_levels, rabi, gamma, gamma_prime, detunings=None, delta_omega_s=1.0):
    if detunings is None:
        detunings = (0.0,) * (n_levels - 1)
    return SystemParams(
        n_levels=n_levels,
        rabi=rabi,
        gamma=gamma,
        gamma_prime=gamma_prime,
        detunings=detunings,
        delta_omega_s=delta_omega_s,
    )


def chain_ground_state(params):
    """Full-chain steady state restricted to the ground manifold."""
    rho = steady_state(build_generator(cascaded_lambda_graph(params)))
    gidx = ground_indices(params.n_levels)
    return rho.matrix[np.ix_(gidx, gidx)]


def chain_height_ratios(params):
    peaks = coherence_peaks(chain_ground_state(params), params.delta_omega_s)
    return height_ratios(peaks)


def effective_ground_state(n_levels, j_hop, gamma_prime, detunings=None):
    gen = build_effective_generator(n_levels, j_hop, gamma_prime, detunings)
    return effective_steady_state(gen).matrix


def effective_height_ratios(n_levels, j_hop, gamma_prime, detunings=None, delta_omega_s=1.0):
    rho = effective_ground_state(n_levels, j_hop, gamma_prime, detunings)
    return height_ratios(coherence_peaks(rho, delta_omega_s))


def random_graph(rng, d=None) -> CouplingGraph:
    """Random connected coupling graph with d <= 7 states.

    A decay ring guarantees every state is reachable, extra random channels
    and a dense random Hermitian Hamiltonian make the steady state unique.
    """
    if d is None:
        d = int(rng.integers(2, 8))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    chans = [(i, (i + 1) % d, float(rng.uniform(0.5, 2.0))) for i in range(d)]
    for _ in range(int(rng.integers(0, d))):
        src, tgt = rng.choice(d, size=2, replace=False)
        chans.append((int(src), int(tgt), float(rng.uniform(0.5, 2.0))))
    return CouplingGraph(n_states=d, hamiltonian=h, population_decays=tuple(chans))


def hermitian_random(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def rb85_graph() -> CouplingGraph:
    """The 16-state Rb-85 model at the default drive, both tones 0.1 rad/us off the line."""
    gamma = mhz_to_angular(DEFAULT_GAMMA_MHZ)
    rabi = DEFAULT_RABI_FRACTION * gamma
    dws = mhz_to_angular(DEFAULT_SPLITTING_MHZ)
    return build_full_model(
        ZeemanManifold(F_GROUND, dws),
        ZeemanManifold(F_EXCITED, dws),
        (DriveField("sigma+", rabi, 0.1, dws), DriveField("pi", rabi, 0.1, 0.0)),
        gamma,
        mhz_to_angular(DEFAULT_GAMMA_PRIME_MHZ),
    )


# The BLAS/OpenMP thread variables that bench/run.py pins to one thread.  LAPACK's LU
# of a whole generator rounds differently at one and at two threads from order 121 up,
# so byte-exact outputs are only promised for one thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_python(code: str, *args: str, stdin: str = "", blas_threads: int | None = None) -> str:
    """stdout of ``python -c code *args`` in a fresh interpreter that imports this
    checkout's clams, with every BLAS thread variable set to ``blas_threads``, or
    with none of them set (the library's default) when it is None."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads)))
    env["PYTHONPATH"] = str(Path(clams.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=env,
                          capture_output=True, text=True, check=True).stdout
