import json

import numpy as np
import pytest

from clams.cli import main
from clams.level_system import SystemParams, ground_indices
from clams.liouvillian import build_generator, cascaded_lambda_graph, steady_state
from clams.rb85 import (
    DEFAULT_GAMMA_MHZ,
    DEFAULT_RABI_FRACTION,
    EXCITED_M,
    F_EXCITED,
    F_GROUND,
    GROUND_M,
    N_GROUND,
    N_STATES,
    build_full_model,
    cg_weight,
    ground_block,
)
from clams.spectrum import coherence_peaks
from clams.units import angular_to_mhz, mhz_to_angular


def default_model(rabi_fraction=DEFAULT_RABI_FRACTION, line_detuning=0.0, offset_on="sigma+",
                  splitting=None):
    gamma = mhz_to_angular(DEFAULT_GAMMA_MHZ)
    gamma_prime = mhz_to_angular(0.2)
    dws = mhz_to_angular(2.34)
    if splitting is None:
        splitting = dws
    graph = build_full_model(rabi_fraction * gamma, gamma, gamma_prime, splitting=splitting,
                             excited_splitting=splitting, delta_omega_s=dws,
                             line_detuning=line_detuning, offset_branch=offset_on)
    return graph, dws


def test_stretched_transition_weight_is_one():
    assert cg_weight(F_GROUND, 3, +1, F_EXCITED, 4) == 1.0


def test_delta_m_beyond_one_vanishes():
    for m_g in GROUND_M:
        for m_e in EXCITED_M:
            if abs(m_e - m_g) > 1:
                assert all(
                    cg_weight(F_GROUND, m_g, q, F_EXCITED, m_e) == 0.0 for q in (-1, 0, 1)
                )


def test_branching_completeness():
    for m_e in EXCITED_M:
        total = sum(
            cg_weight(F_GROUND, m_g, m_e - m_g, F_EXCITED, m_e)
            for m_g in GROUND_M
            if abs(m_e - m_g) <= 1
        )
        assert abs(total - 1.0) <= 1e-12


def test_cg_invalid_quantum_numbers():
    with pytest.raises(ValueError):
        cg_weight(F_GROUND, 4, 0, F_EXCITED, 4)
    with pytest.raises(ValueError):
        cg_weight(F_GROUND, 0, 2, F_EXCITED, 2)
    with pytest.raises(ValueError, match="only dipole transitions f -> f[+]1"):
        cg_weight(F_GROUND, 0, 0, F_GROUND, 0)


def test_dipole_weights_match_the_exact_clebsch_gordan_coefficients():
    """Every allowed F=3 -> F'=4 weight is the correctly rounded square of sympy's exact
    coefficient, and every drive amplitude is within 1 ulp of Omega times the coefficient."""
    cg = pytest.importorskip("sympy.physics.quantum.cg").CG
    exact = {(m_g, q): cg(F_GROUND, m_g, 1, q, F_EXCITED, m_g + q).doit()
             for m_g in GROUND_M for q in (-1, 0, 1)}
    assert len(exact) == 21
    for (m_g, q), c in exact.items():
        assert cg_weight(F_GROUND, m_g, q, F_EXCITED, m_g + q) == float(c**2), (m_g, q)
    graph, _ = default_model()
    rabi = DEFAULT_RABI_FRACTION * mhz_to_angular(DEFAULT_GAMMA_MHZ)
    for m_g in GROUND_M:
        for q in (0, 1):  # the pi and sigma+ drives
            amp = graph.hamiltonian[N_GROUND + m_g + q + F_EXCITED, m_g + F_GROUND]
            want = rabi * float(exact[m_g, q])
            assert amp.imag == 0.0 and abs(amp.real - want) <= np.spacing(want), (m_g, q)


def test_graph_respects_selection_rules():
    graph, _ = default_model()
    h = graph.hamiltonian
    for gi, m_g in enumerate(GROUND_M):
        for ei, m_e in enumerate(EXCITED_M):
            coupling = h[N_GROUND + ei, gi]
            if m_e - m_g not in (0, +1):  # only pi and sigma+ drives present
                assert coupling == 0.0
    for src, tgt, _rate in graph.population_decays:
        if src >= N_GROUND:  # spontaneous decay channel
            m_e = EXCITED_M[src - N_GROUND]
            m_g = GROUND_M[tgt]
            assert abs(m_e - m_g) <= 1


def test_branching_rates_sum_to_gamma():
    graph, _ = default_model()
    gamma = mhz_to_angular(DEFAULT_GAMMA_MHZ)
    for ei in range(N_GROUND, N_STATES):
        total = sum(rate for src, _tgt, rate in graph.population_decays if src == ei)
        assert total == pytest.approx(gamma, rel=1e-12)


def test_drives_off_gives_uniform_ground():
    graph, dws = default_model(rabi_fraction=0.0)
    rho = steady_state(build_generator(graph))
    pops = rho.populations
    assert np.allclose(pops[:N_GROUND], 1.0 / N_GROUND, atol=1e-10)
    assert np.allclose(pops[N_GROUND:], 0.0, atol=1e-12)


def test_hopping_scale_at_operating_point():
    gamma = mhz_to_angular(DEFAULT_GAMMA_MHZ)
    rabi = DEFAULT_RABI_FRACTION * gamma
    j_hop_khz = 1e3 * angular_to_mhz(rabi**2 / gamma)
    assert j_hop_khz == pytest.approx(121.6, rel=1e-12)


def test_full_model_steady_state_is_valid():
    graph, dws = default_model()
    rho = steady_state(build_generator(graph))
    rho.validate()
    peaks = coherence_peaks(ground_block(rho), dws, labels=GROUND_M)
    assert [p.n for p in peaks.peaks] == list(range(1, 7))
    weights = [p.weight for p in peaks.peaks]
    assert all(np.diff(weights) < 0)  # monotonically decreasing harmonics


def test_offset_branch_swap_is_equivalent_at_resonance():
    # moving the tone offset to the pi branch while flipping the Zeeman ladder
    # (and keeping both tones on their resonances) yields the same rotating
    # frame problem, hence identical peak weights
    dws = mhz_to_angular(2.34)
    graph_a, _ = default_model()
    gamma = mhz_to_angular(DEFAULT_GAMMA_MHZ)
    rabi = DEFAULT_RABI_FRACTION * gamma
    graph_b = build_full_model(rabi, gamma, mhz_to_angular(0.2), splitting=-dws,
                               excited_splitting=-dws, delta_omega_s=dws, line_detuning=dws,
                               offset_branch="pi")
    assert np.allclose(graph_a.hamiltonian, graph_b.hamiltonian, atol=1e-12)
    rho_a = steady_state(build_generator(graph_a))
    rho_b = steady_state(build_generator(graph_b))
    peaks_a = coherence_peaks(ground_block(rho_a), dws)
    peaks_b = coherence_peaks(ground_block(rho_b), dws)
    for pa, pb in zip(peaks_a.peaks, peaks_b.peaks):
        assert pa.weight == pytest.approx(pb.weight, rel=1e-12, abs=1e-300)


def test_drive_validation():
    gamma = mhz_to_angular(DEFAULT_GAMMA_MHZ)
    dws = mhz_to_angular(2.34)
    manifolds = dict(splitting=dws, excited_splitting=dws)
    with pytest.raises(ValueError, match="offset_branch"):
        build_full_model(1.0, gamma, 1.0, **manifolds, delta_omega_s=dws, offset_branch="sigma-")
    for dws_bad in (0.0, -dws):  # offset_branch, not the sign, says which tone is higher
        with pytest.raises(ValueError, match="delta_omega_s must be positive"):
            build_full_model(1.0, gamma, 1.0, **manifolds, delta_omega_s=dws_bad)
    with pytest.raises(ValueError, match="rabi"):
        build_full_model(-1.0, gamma, 1.0, **manifolds, delta_omega_s=dws)
    with pytest.raises(ValueError, match="gamma"):
        build_full_model(1.0, gamma, 0.0, **manifolds, delta_omega_s=dws)


def test_truncated_13_matches_generic_chain(tmp_path):
    """The rb85 command's comparison chain is the generic 13-level chain at its drive,
    decay rates and tone offset, resonant, whatever its splittings and line detuning."""
    argv = ["rb85", "--with-truncated-13", "--format", "json", "--rabi-mhz", "12",
            "--gamma-mhz", "1700", "--gamma-prime-mhz", "0.3", "--delta-omega-s-mhz", "2.5",
            "--splitting-mhz", "2.3", "--line-detuning-mhz", "1.5", "--out", str(tmp_path)]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "rb85_truncated13_peaks.json").read_text())
    dws = mhz_to_angular(2.5)
    params = SystemParams(13, mhz_to_angular(12.0), mhz_to_angular(1700.0),
                          mhz_to_angular(0.3), (0.0,) * 12, dws)
    rho = steady_state(build_generator(cascaded_lambda_graph(params))).matrix
    gidx = ground_indices(13)
    peaks = coherence_peaks(rho[np.ix_(gidx, gidx)], dws)
    assert [p["weight"] for p in payload["peaks"]] == [p.weight for p in peaks.peaks]
    assert payload["delta_omega_s_mhz"] == angular_to_mhz(dws)


def test_truncated_13_uniform_ground_populations():
    params = SystemParams(
        n_levels=13,
        rabi=1e-5,
        gamma=1.0,
        gamma_prime=1e-10,
        detunings=(0.0,) * 12,
        delta_omega_s=1.0,
    )
    rho = steady_state(build_generator(cascaded_lambda_graph(params)))
    pops = rho.populations[0::2]
    assert np.allclose(pops, 1.0 / 7.0, atol=1e-8)


def test_ground_block_shape_and_error():
    graph, _ = default_model()
    rho = steady_state(build_generator(graph))
    assert ground_block(rho).shape == (N_GROUND, N_GROUND)
    with pytest.raises(ValueError):
        ground_block(np.eye(4))

