import numpy as np
import pytest

from clams.level_system import (
    SystemParams,
    build_rotating_hamiltonian,
    ground_indices,
    raman_detunings,
)
from clams.units import TWO_PI, angular_to_mhz, mhz_to_angular
from conftest import chain_params


def test_diagonal_only_when_undriven():
    p = chain_params(3, rabi=0.0, gamma=1.0, gamma_prime=0.1, detunings=(0.4, -0.7))
    h = build_rotating_hamiltonian(p)
    assert np.array_equal(h, np.diag([0.0, 0.4, 0.4 - (-0.7)]).astype(complex))


def test_resonant_three_level_structure():
    p = chain_params(3, rabi=1.0, gamma=1.0, gamma_prime=0.1)
    h = build_rotating_hamiltonian(p)
    expect = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(h, expect)


def test_alternating_sign_partial_sums_five_levels():
    # hand-evaluated alternating partial sums of (0.5, 0, 0.5, 0)
    p = chain_params(5, rabi=0.0, gamma=1.0, gamma_prime=0.1, detunings=(0.5, 0.0, 0.5, 0.0))
    h = build_rotating_hamiltonian(p)
    assert np.allclose(np.diag(h), [0.0, 0.5, 0.5, 1.0, 1.0], atol=0, rtol=0)


def test_hamiltonian_exactly_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.choice([3, 5, 7, 9, 13]))
        p = chain_params(
            n,
            rabi=float(rng.uniform(0, 5)),
            gamma=float(rng.uniform(0.1, 5)),
            gamma_prime=float(rng.uniform(0.01, 1)),
            detunings=tuple(rng.normal(size=n - 1)),
        )
        h = build_rotating_hamiltonian(p)
        assert np.array_equal(h, h.conj().T)


def test_ground_indices():
    assert list(ground_indices(7)) == [0, 2, 4, 6]


def test_hopping_rate_definition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rabi, gamma = float(rng.uniform(0, 10)), float(rng.uniform(0.1, 10))
        p = chain_params(3, rabi=rabi, gamma=gamma, gamma_prime=0.1)
        assert p.hopping_rate == rabi**2 / gamma


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n_levels=4), "odd"),
        (dict(n_levels=1), "odd"),
        (dict(gamma=0.0), "gamma"),
        (dict(gamma_prime=-1.0), "gamma_prime"),
        (dict(rabi=-0.5), "rabi"),
        (dict(delta_omega_s=0.0), "delta_omega_s"),
        (dict(rabi=float("nan")), "rabi"),
        (dict(gamma=float("nan")), "gamma"),
        (dict(gamma=float("inf")), "gamma"),
        (dict(gamma_prime=float("nan")), "gamma_prime"),
        (dict(delta_omega_s=float("nan")), "delta_omega_s"),
        (dict(detunings=(float("nan"),) * 4), "detunings"),
        (dict(detunings=(0.0, float("-inf"), 0.0, 0.0)), "detunings"),
    ],
)
def test_invalid_params_rejected(kwargs, match):
    base = dict(
        n_levels=5, rabi=1.0, gamma=1.0, gamma_prime=0.1, detunings=(0.0,) * 4, delta_omega_s=1.0
    )
    base.update(kwargs)
    if "n_levels" in kwargs:
        base["detunings"] = (0.0,) * (kwargs["n_levels"] - 1)
    with pytest.raises(ValueError, match=match):
        SystemParams(**base)


def test_detunings_length_checked():
    with pytest.raises(ValueError, match="detunings"):
        chain_params(5, rabi=1.0, gamma=1.0, gamma_prime=0.1, detunings=(0.0, 0.0))


def test_raman_pattern():
    assert raman_detunings(7, 0.3) == (0.3, 0.0, 0.3, 0.0, 0.3, 0.0)


def test_unit_conversions():
    assert mhz_to_angular(1.0) == pytest.approx(TWO_PI)
    assert angular_to_mhz(mhz_to_angular(2.34)) == pytest.approx(2.34, rel=1e-15)

