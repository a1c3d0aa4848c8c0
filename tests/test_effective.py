import numpy as np
import pytest

from clams.effective import (
    EffectiveGenerator,
    anti_pt_defect,
    build_effective_generator,
    closed_form_coherences,
    coherence_damping,
    effective_steady_state,
    hopping_matrix,
    population_rates,
    reduce,
)
from clams.level_system import raman_detunings
from clams.liouvillian import GeneratorMatrix, steady_state
from clams.spectrum import coherence_peaks, height_ratios
from conftest import (
    chain_height_ratios,
    chain_params,
    effective_ground_state,
    effective_height_ratios,
)


def ground_pair_index(l, lp):
    return (l - 1) // 2, (lp - 1) // 2


@pytest.mark.parametrize("gamma_prime", [1.0, 0.126])
def test_reduced_seven_level_weak_drive_ratios_are_the_series_limits(gamma_prime):
    # the exact series in j of the reduced N = 7 model: H21 -> (392/369)(j/gp)^2 and
    # H31 -> (784/369)(j/gp)^4, not the closed form's 49/54 and 49/27, whose middle
    # coherence rho_35 is the edge pairs' -j/(3 gp) where the model's is -j/(4 gp)
    ratio = 1e-6
    peaks = coherence_peaks(effective_ground_state(7, ratio * gamma_prime, gamma_prime), 1.0)
    assert abs(peaks.ratio(2) / ratio**2 / (392 / 369) - 1.0) <= 1e-5
    assert abs(peaks.ratio(3) / ratio**4 / (784 / 369) - 1.0) <= 1e-5


@pytest.mark.parametrize("n_levels", [3, 5])
def test_steady_state_matches_closed_forms(n_levels):
    gp = 1.0
    for j_rel in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        for d_rel in (-10.0, -1.0, 0.0, 0.3, 10.0):
            rho = effective_ground_state(
                n_levels, j_rel * gp, gp, raman_detunings(n_levels, d_rel * gp)
            )
            cf = closed_form_coherences(n_levels, j_rel * gp, gp, d_rel * gp)
            for (l, lp), want in cf.coherences.items():
                got = rho[ground_pair_index(l, lp)]
                assert abs(got - want) <= 1e-10 * abs(want)


def test_coherence_damping_values():
    j = 0.7
    gt3 = coherence_damping(2, j)
    assert gt3[0, 1] == pytest.approx(j)  # two-state ground manifold: edge-edge
    gt5 = coherence_damping(3, j)
    assert gt5[0, 2] == pytest.approx(j)          # pair (1, 5): both edges
    assert gt5[0, 1] == pytest.approx(1.5 * j)    # pair (1, 3): edge-interior
    gt7 = coherence_damping(4, j)
    assert gt7[1, 2] == pytest.approx(2.0 * j)    # pair (3, 5): interior-interior
    distinct = np.unique(gt7[~np.eye(4, dtype=bool)])
    assert distinct == pytest.approx([j, 1.5 * j, 2.0 * j])


def test_population_rates_structure():
    rates = population_rates(4, 0.3, 0.1)
    assert np.allclose(rates, rates.T)
    for a in range(4):
        for b in range(4):
            expect = 0.4 if abs(a - b) == 1 else 0.0
            assert rates[a, b] == pytest.approx(expect)


def test_populations_decouple_from_coherences():
    gen = build_effective_generator(7, 0.4, 0.2, raman_detunings(7, 0.3))
    ng = gen.n_states
    diag_coords = np.arange(ng) * (ng + 1)
    coh_coords = np.setdiff1d(np.arange(ng * ng), diag_coords)
    assert np.abs(gen.matrix[np.ix_(diag_coords, coh_coords)]).max() == 0.0


def test_zero_drive_leaves_pure_ground_relaxation():
    gen = build_effective_generator(5, 0.0, 0.25)
    assert np.abs(gen.v_eff).max() == 0.0
    ng = gen.n_states
    pop = np.arange(ng) * (ng + 1)
    coh = np.setdiff1d(np.arange(ng * ng), pop)
    # populations hop at gamma_prime = 0.25 alone; each coherence rho_ab only damps, at
    # half the outflow of a and b (no hopping, no extra damping, no coupling to populations)
    rates = 0.25 * (np.eye(ng, k=1) + np.eye(ng, k=-1))
    outflow = rates.sum(axis=0)
    expect = np.zeros((ng * ng, ng * ng), dtype=complex)
    expect[np.ix_(pop, pop)] = rates - np.diag(outflow)
    a, b = coh % ng, coh // ng  # column stacking: index a + ng * b holds rho_ab
    expect[coh, coh] = -0.5 * (outflow[a] + outflow[b])
    assert gen.matrix[pop[0], pop[1]] == 0.25
    assert np.array_equal(gen.matrix, expect)


def test_effective_generator_is_a_generator_matrix():
    gen = build_effective_generator(7, 0.4, 0.2, raman_detunings(7, 0.3))
    assert isinstance(gen, GeneratorMatrix) and isinstance(gen, EffectiveGenerator)
    assert gen.n_states == 4 and gen.matrix.shape == (16, 16)
    assert np.array_equal(steady_state(gen).matrix, effective_steady_state(gen).matrix)


def test_reduce_matches_direct_builder_and_warns():
    p = chain_params(5, rabi=1e-3, gamma=1.0, gamma_prime=1e-6, detunings=raman_detunings(5, 2e-6))
    gen = reduce(p)
    direct = build_effective_generator(5, p.hopping_rate, p.gamma_prime, p.detunings)
    assert np.array_equal(gen.matrix, direct.matrix)

    strong = chain_params(5, rabi=0.2, gamma=1.0, gamma_prime=1e-6)
    with pytest.warns(UserWarning, match="rabi/gamma"):
        reduce(strong)


def test_uniform_populations():
    for n_levels in (3, 5, 7, 13):
        rho = effective_ground_state(n_levels, 0.7, 0.3, raman_detunings(n_levels, 0.2))
        ng = (n_levels + 1) // 2
        assert np.allclose(np.diag(rho).real, 1.0 / ng, atol=1e-12)


def test_closed_form_spot_values():
    # equal hopping and relaxation, resonant: the two-state coherence is -1/3
    cf = closed_form_coherences(3, 1.0, 1.0, 0.0)
    assert cf.coherences[(1, 3)] == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert cf.exact and cf.within_validity

    # weak hopping: nearest-neighbour coherence -4 j / (9 gp)
    j, gp = 1e-6, 1.0
    cf5 = closed_form_coherences(5, j, gp, 0.0)
    assert cf5.coherences[(1, 3)] == pytest.approx(-4 * j / (9 * gp), rel=1e-5)
    assert cf5.coherences[(1, 5)] == pytest.approx(8 * j**2 / (9 * gp**2), rel=1e-5)

    # 7-level leading order at resonance
    cf7 = closed_form_coherences(7, j, gp, 0.0)
    assert cf7.coherences[(1, 3)] == pytest.approx(-j / (3 * gp), rel=1e-12)
    assert cf7.coherences[(1, 5)] == pytest.approx(7 * j**2 / (18 * gp**2), rel=1e-12)
    assert cf7.coherences[(1, 7)] == pytest.approx(-7 * j**3 / (9 * gp**3), rel=1e-12)
    assert not cf7.exact


def test_closed_form_validity_flag():
    assert closed_form_coherences(7, 0.01, 1.0, 0.0).within_validity
    assert not closed_form_coherences(7, 0.2, 1.0, 0.0).within_validity
    assert not closed_form_coherences(7, 0.01, 1.0, 0.5).within_validity
    with pytest.raises(ValueError):
        closed_form_coherences(9, 0.1, 1.0, 0.0)


@pytest.mark.parametrize(
    "args",
    [
        (5, -0.1, 1.0, 0.0),
        (5, float("nan"), 1.0, 0.0),
        (5, float("inf"), 1.0, 0.0),
        (7, 0.1, 0.0, 0.0),
        (3, 0.0, 0.0, 0.0),
        (5, 0.1, -1.0, 0.0),
        (5, 0.1, float("nan"), 0.0),
        (5, 0.1, float("inf"), 0.0),
        (5, 0.1, 1.0, float("nan")),
        (7, 0.1, 1.0, float("-inf")),
    ],
)
def test_closed_form_rejects_invalid_rates(args):
    with pytest.raises(ValueError):
        closed_form_coherences(*args)


def test_closed_form_without_hopping_has_no_coherence():
    for n_levels in (3, 5, 7):
        cf = closed_form_coherences(n_levels, 0.0, 1.0, 0.3)
        assert all(c == 0 for c in cf.coherences.values())


def test_closed_form_matrix():
    cf = closed_form_coherences(5, 0.3, 1.0, 0.2)
    m = cf.as_matrix()
    assert np.allclose(m, m.conj().T)
    assert np.trace(m).real == pytest.approx(1.0)
    assert m[0, 1] == cf.coherences[(1, 3)]


def test_n7_power_law_scaling():
    # |rho[1, 1+2n]| ~ (j/gp)^n; slopes measured on the decade below 1e-3
    # where subleading corrections stay under the 0.01 tolerance
    gp = 1.0
    js = np.logspace(-4, -3, 7)
    mags = {1: [], 2: [], 3: []}
    for j in js:
        rho = effective_ground_state(7, j, gp)
        for n in (1, 2, 3):
            mags[n].append(abs(rho[0, n]))
    for n in (1, 2, 3):
        slope = np.polyfit(np.log(js), np.log(mags[n]), 1)[0]
        assert slope == pytest.approx(n, abs=0.01)


def test_n7_seven_level_saturation():
    rho = effective_ground_state(7, 1e3, 1.0)
    assert abs(abs(rho[0, 1]) - 0.25) < 0.01 * 0.25
    assert abs(abs(rho[0, 3]) - 0.25) < 0.01 * 0.25


def test_n5_saturation():
    rho = effective_ground_state(5, 1e3, 1.0)
    assert abs(abs(rho[0, 1]) - 1.0 / 3.0) < 0.01 / 3.0
    assert abs(abs(rho[0, 2]) - 1.0 / 3.0) < 0.01 / 3.0


@pytest.mark.parametrize("n_levels", [5, 7])
def test_full_model_agreement_weak_drive(n_levels):
    # rabi/gamma = 1e-2: reduced-model height ratios within 5% of the full chain
    gamma = 1.0
    rabi = 1e-2
    j_hop = rabi**2 / gamma
    for gp_rel, d_rel in ((1.0, 0.0), (1.0, 2.0), (10.0, 0.0)):
        gp = gp_rel * j_hop
        dets = raman_detunings(n_levels, d_rel * gp)
        full = chain_height_ratios(chain_params(n_levels, rabi, gamma, gp, dets))
        eff = effective_height_ratios(n_levels, j_hop, gp, dets)
        for n in range(2, (n_levels + 1) // 2):
            assert full.ratio(n) == pytest.approx(eff.ratio(n), rel=0.05)


def test_anti_pt_symmetry():
    for n_levels in (3, 5, 7, 13):
        gen = build_effective_generator(n_levels, 0.8, 1.0)
        assert anti_pt_defect(gen) <= 1e-14
    assert anti_pt_defect(hopping_matrix(4, 0.0)) == 0.0


def test_anti_pt_hermitian_mutant():
    # real hopping breaks the symmetry; for two states the defect is exactly 2 j
    j = 0.8
    assert anti_pt_defect(hopping_matrix(2, j, imaginary=False)) == pytest.approx(2 * j)
    assert anti_pt_defect(hopping_matrix(4, j, imaginary=False)) > j


def test_builder_validation():
    with pytest.raises(ValueError, match="odd"):
        build_effective_generator(4, 0.1, 1.0)
    with pytest.raises(ValueError, match="hopping"):
        build_effective_generator(5, -0.1, 1.0)
    with pytest.raises(ValueError, match="gamma_prime"):
        build_effective_generator(5, 0.1, 0.0)
    with pytest.raises(ValueError, match="hopping"):
        build_effective_generator(5, float("nan"), 0.1)
    with pytest.raises(ValueError, match="hopping"):
        build_effective_generator(5, float("inf"), 0.1)
    with pytest.raises(ValueError, match="gamma_prime"):
        build_effective_generator(5, 0.1, float("nan"))
    with pytest.raises(ValueError, match="detunings"):
        build_effective_generator(5, 0.1, 1.0, (0.0, float("nan"), 0.0, 0.0))


def test_effective_ratios_equal_closed_form_ratios_n5():
    j, gp = 0.37, 1.0
    for d_rel in (-3.0, 0.0, 3.0):
        delta = d_rel * gp
        eff = effective_height_ratios(5, j, gp, raman_detunings(5, delta))
        want = 2 * j**2 / ((gp + 2 * j) ** 2 + 4 * delta**2)
        assert eff.ratio(2) == pytest.approx(want, rel=1e-10)


def test_effective_steady_state_is_valid_density_matrix():
    gen = build_effective_generator(7, 0.7, 0.2, raman_detunings(7, 0.1))
    effective_steady_state(gen).validate()


def test_n5_equal_rates_spot_value():
    # j_hop = gamma_prime = 1, resonant: rho[1,5] = (8/3) / (8 + 12 + 3) = 8/69
    rho = effective_ground_state(5, 1.0, 1.0)
    assert rho[0, 2].real == pytest.approx(8.0 / 69.0, rel=1e-12)
    assert abs(rho[0, 2].imag) < 1e-14
    cf = closed_form_coherences(5, 1.0, 1.0, 0.0)
    assert cf.coherences[(1, 5)] == pytest.approx(8.0 / 69.0, rel=1e-14)
