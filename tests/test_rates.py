import numpy as np
import pytest

from clams.rates import rate_ratio, transition_amplitude
from conftest import chain_params, effective_height_ratios

TWO_PI = 2 * np.pi


def test_two_photon_resonant_amplitude():
    p = chain_params(7, rabi=0.02, gamma=1.3, gamma_prime=1e-4)
    res = transition_amplitude(p, 1)
    assert res.amplitude == pytest.approx(TWO_PI * p.hopping_rate**2, rel=1e-14)
    assert res.order == 2
    assert res.resonant


def test_four_photon_resonant_amplitude():
    p = chain_params(7, rabi=0.02, gamma=1.3, gamma_prime=1e-4)
    res = transition_amplitude(p, 2)
    assert res.amplitude == pytest.approx(
        TWO_PI * (p.hopping_rate**2 / p.gamma_prime) ** 2, rel=1e-14
    )
    assert res.resonance_frequency == pytest.approx(2 * p.delta_omega_s)


def test_general_route_two_photon_example():
    # unit drive and unit excited linewidth, first transition on resonance: 2*pi
    p = chain_params(3, rabi=1.0, gamma=1.0, gamma_prime=0.5, detunings=(0.0, 0.7))
    res = transition_amplitude(p, 1, mode="general")
    assert res.amplitude == pytest.approx(TWO_PI, rel=1e-14)


def test_general_route_reduces_to_resonant():
    p = chain_params(7, rabi=0.05, gamma=2.0, gamma_prime=3e-3)
    for n in (1, 2, 3):
        general = transition_amplitude(p, n, mode="general").amplitude
        resonant = transition_amplitude(p, n, mode="resonant").amplitude
        assert abs(general - resonant) <= 1e-12 * resonant


def test_detuning_lowers_the_amplitude():
    p0 = chain_params(5, rabi=0.05, gamma=1.0, gamma_prime=1e-3)
    p1 = chain_params(5, rabi=0.05, gamma=1.0, gamma_prime=1e-3, detunings=(0.5, 0.0, 0.5, 0.0))
    a0 = transition_amplitude(p0, 1).amplitude
    a1 = transition_amplitude(p1, 1).amplitude
    assert a1 < a0
    assert a1 == pytest.approx(TWO_PI * p1.rabi**4 / (1.0 + 0.5**2), rel=1e-12)


def test_ratio_examples():
    p = chain_params(5, rabi=1.0, gamma=1.0, gamma_prime=10.0)  # j_hop / gp = 0.1
    assert rate_ratio(p, 1) == 1.0
    assert rate_ratio(p, 2) == pytest.approx(0.01, rel=1e-14)
    p = chain_params(7, rabi=1.0, gamma=1.0, gamma_prime=2.0)  # j_hop / gp = 0.5
    assert rate_ratio(p, 3) == 0.0625


def test_amplitude_ratios_match_rate_ratio():
    p = chain_params(9, rabi=0.03, gamma=1.7, gamma_prime=4e-4)
    a1 = transition_amplitude(p, 1).amplitude
    for n in (2, 3, 4):
        ratio = transition_amplitude(p, n).amplitude / a1
        assert ratio == pytest.approx(rate_ratio(p, n), rel=1e-12)
    assert rate_ratio(p, 3) / rate_ratio(p, 2) == pytest.approx(
        (p.hopping_rate / p.gamma_prime) ** 2, rel=1e-14
    )


def test_height_ratio_scaling_shares_the_rate_exponent():
    # H_{n,1} ~ (j/gp)^(2n-2): same exponent as the rate-amplitude ratios.
    # Slopes measured below j/gp = 1e-3 where subleading terms are negligible.
    gp = 1.0
    js = np.logspace(-4, -3, 7)
    h = {2: [], 3: []}
    for j in js:
        ratios = effective_height_ratios(7, j, gp)
        h[2].append(ratios.ratio(2))
        h[3].append(ratios.ratio(3))
    for n in (2, 3):
        slope = np.polyfit(np.log(js), np.log(h[n]), 1)[0]
        assert slope == pytest.approx(2 * n - 2, abs=0.02)


def test_resonance_flag():
    p = chain_params(7, rabi=0.01, gamma=1.0, gamma_prime=1e-4, detunings=(0.3,) + (0.0,) * 5)
    assert not transition_amplitude(p, 1).resonant  # final level shifted by 0.3


def test_order_and_mode_errors():
    p = chain_params(13, rabi=0.01, gamma=1.0, gamma_prime=1e-4, detunings=(0.1,) + (0.0,) * 11)
    with pytest.raises(ValueError, match="n <= 3"):
        transition_amplitude(p, 4)
    with pytest.raises(ValueError, match="resonant mode"):
        transition_amplitude(p, 1, mode="resonant")
    with pytest.raises(ValueError, match="n must be in"):
        transition_amplitude(p, 7)
    with pytest.raises(ValueError, match="mode"):
        transition_amplitude(p, 1, mode="bogus")
    resonant = chain_params(13, rabi=0.01, gamma=1.0, gamma_prime=1e-4)
    assert transition_amplitude(resonant, 6).order == 12
