import numpy as np
import pytest

from clams.spectrum import (
    PeakSet,
    coherence_peaks,
    height_ratios,
    loglinear_fit,
    peak_weights,
    visible_peaks,
    weight_ratios,
)
from conftest import effective_ground_state, effective_height_ratios, hermitian_random
from oracles import per_pair_coherence_peaks


def test_diagonal_state_has_no_peaks():
    peaks = coherence_peaks(np.eye(4) / 4.0, 1.0)
    assert all(p.weight == 0.0 for p in peaks.peaks)
    assert [p.n for p in peaks.peaks] == [1, 2, 3]


def test_three_level_single_peak_weight():
    j, gp = 0.4, 1.0
    rho = effective_ground_state(3, j, gp)
    peaks = coherence_peaks(rho, 2.5)
    assert len(peaks.peaks) == 1
    assert peaks.peaks[0].frequency == pytest.approx(2.5)
    assert peaks.peaks[0].weight == pytest.approx(j**2 / (gp + 2 * j) ** 2, rel=1e-12)


def test_five_level_contributor_structure():
    rho = effective_ground_state(5, 0.3, 1.0)
    peaks = coherence_peaks(rho, 1.0)
    fundamental = peaks.peaks[0]
    harmonic = peaks.peaks[1]
    assert [label for label, _ in fundamental.contributors] == [1, 3]
    assert [label for label, _ in harmonic.contributors] == [1]


def test_weights_equal_contributor_sums():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        rho = hermitian_random(rng, d)
        peaks = coherence_peaks(rho, 1.0)
        for p in peaks.peaks:
            assert abs(p.weight - sum(c for _, c in p.contributors)) <= 1e-14 * max(1.0, p.weight)


def ground_blocks(rng, ng, k):
    """k random Hermitian blocks whose upper-triangle parts are often exact zeros,
    -0.0, subnormals, or values whose squares underflow or overflow."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, -3e-170, 1e155, 1e200])
    upper = np.stack([hermitian_random(rng, ng) for _ in range(k)])
    parts = upper.view(float)
    planted = rng.random(parts.shape) < 0.3
    parts[planted] = rng.choice(special, size=int(planted.sum()))
    upper = np.triu(upper, 1)
    diag = np.eye(ng) * rng.uniform(0.0, 1.0, size=(k, 1, ng))
    return upper + upper.conj().transpose(0, 2, 1) + diag


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf / inf
@pytest.mark.parametrize("ng", range(2, 12))
def test_stacked_weights_match_the_per_pair_oracle(ng):
    rng = np.random.default_rng(40 + ng)
    blocks = ground_blocks(rng, ng, 12)
    weights = peak_weights(blocks)
    assert weights.shape == (12, ng - 1)
    driven = weights[:, 0] > 0.0
    rows = iter(weight_ratios(weights[driven]))
    for block, w, is_driven in zip(blocks, weights, driven):
        want = per_pair_coherence_peaks(block, 0.7)
        got = coherence_peaks(block, 0.7)
        want_weights = bits([p.weight for p in want.peaks])
        assert got == want
        assert np.array_equal(bits([p.weight for p in got.peaks]), want_weights)
        assert np.array_equal(bits(w), want_weights)
        if is_driven:
            ratios = height_ratios(want)
            expected = [ratios.fundamental_weight, *(r for _, r in ratios.ratios)]
            assert np.array_equal(bits(next(rows)), bits(expected))


def test_stack_with_zero_fundamental_raises_the_height_ratio_error():
    rng = np.random.default_rng(52)
    stack = np.stack([hermitian_random(rng, 4), np.eye(4) / 4.0, hermitian_random(rng, 4)])
    with pytest.raises(ValueError) as single:
        height_ratios(coherence_peaks(stack[1], 1.0))
    with pytest.raises(ValueError) as stacked:
        weight_ratios(peak_weights(stack))
    assert str(stacked.value) == str(single.value)


def test_harmonics_have_no_gaps():
    rho = effective_ground_state(13, 0.2, 1.0)
    peaks = coherence_peaks(rho, 1.0)
    assert [p.n for p in peaks.peaks] == list(range(1, 7))
    assert all(p.frequency == pytest.approx(p.n * 1.0) for p in peaks.peaks)


def test_height_ratio_definition_and_error():
    rho = effective_ground_state(5, 0.3, 1.0)
    peaks = coherence_peaks(rho, 1.0)
    ratios = height_ratios(peaks)
    assert ratios.ratio(1) == 1.0
    assert ratios.ratio(2) == pytest.approx(peaks.weight(2) / peaks.weight(1), rel=1e-15)

    silent = coherence_peaks(np.eye(3) / 3.0, 1.0)
    with pytest.raises(ValueError, match="undriven"):
        height_ratios(silent)


def test_h21_lorentzian_in_detuning():
    # five-level chain: H21 = 2 j^2 / ((gp + 2j)^2 + 4 delta^2), exact
    from clams.level_system import raman_detunings

    j, gp = 0.608, 1.0
    for d_rel in np.linspace(-10, 10, 21):
        delta = d_rel * gp
        ratios = effective_height_ratios(5, j, gp, raman_detunings(5, delta))
        want = 2 * j**2 / ((gp + 2 * j) ** 2 + 4 * delta**2)
        assert abs(ratios.ratio(2) - want) <= 1e-8 * want


def test_h21_small_hopping_limit():
    j, gp = 1e-4, 1.0
    ratios = effective_height_ratios(5, j, gp)
    assert ratios.ratio(2) == pytest.approx(2 * j**2 / gp**2, rel=1e-3)


def test_ratios_nonincreasing_at_resonance():
    for j_rel in (1e-3, 1e-2, 0.1, 1.0):
        ratios = effective_height_ratios(7, j_rel, 1.0)
        assert 1.0 >= ratios.ratio(2) >= ratios.ratio(3) > 0


def test_saturation_of_ratios_at_large_drive():
    # both ratios approach constants; the residual fall-off is ~2 gp / j_hop,
    # so the 1e3 -> 1e4 step moves them by less than 2e-3 absolute
    r3 = effective_height_ratios(7, 1e3, 1.0)
    r4 = effective_height_ratios(7, 1e4, 1.0)
    assert abs(r3.ratio(2) - r4.ratio(2)) < 2e-3
    assert abs(r3.ratio(3) - r4.ratio(3)) < 2e-3
    assert r4.ratio(2) == pytest.approx(2.0 / 3.0, abs=2e-3)
    assert r4.ratio(3) == pytest.approx(1.0 / 3.0, abs=2e-3)


def test_loglinear_fit_exact_geometric():
    from clams.spectrum import Peak

    a, r = 0.7, 0.05
    peaks = PeakSet(
        delta_omega_s=1.0,
        peaks=tuple(
            Peak(n=n, frequency=float(n), weight=a * r**n, contributors=((1, a * r**n),))
            for n in range(1, 6)
        ),
    )
    fit = loglinear_fit(peaks)
    assert fit.slope == pytest.approx(np.log(r), rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_loglinear_fit_seven_level_slope():
    j, gp = 1e-3, 1.0
    rho = effective_ground_state(7, j, gp)
    fit = loglinear_fit(coherence_peaks(rho, 1.0))
    # weights fall ~ (j/gp)^(2n - 2): slope ~ 2 ln(j/gp) up to an O(1) constant
    assert fit.slope == pytest.approx(2 * np.log(j / gp), abs=1.5)
    assert fit.n_points == 3


def test_loglinear_fit_needs_three_points():
    rho = effective_ground_state(5, 0.3, 1.0)  # only two harmonics
    with pytest.raises(ValueError, match="at least 3"):
        loglinear_fit(coherence_peaks(rho, 1.0))
    with pytest.raises(TypeError):
        loglinear_fit([1.0, 2.0])


def test_visible_peaks_threshold():
    rho = effective_ground_state(7, 1e-2, 1.0)
    peaks = coherence_peaks(rho, 1.0)
    assert [p.n for p in visible_peaks(peaks, 1e-3)] == [1]
    assert [p.n for p in visible_peaks(peaks, 1e-5)] == [1, 2]
    assert [p.n for p in visible_peaks(peaks, 1e-12)] == [1, 2, 3]


def test_zero_fundamental_shows_no_peaks():
    rho = np.eye(3, dtype=complex) / 3.0
    rho[0, 2] = rho[2, 0] = 0.1  # an n = 2 coherence without any n = 1 coherence
    peaks = coherence_peaks(rho, 1.0)
    assert peaks.fundamental_weight == 0.0 and peaks.weight(2) > 0.0
    for threshold in (1e-6, 0.0):
        assert visible_peaks(peaks, threshold) == ()


def test_coherence_peaks_dimension_errors():
    with pytest.raises(ValueError, match="square"):
        coherence_peaks(np.zeros((3, 4)), 1.0)
    with pytest.raises(ValueError, match="labels"):
        coherence_peaks(np.eye(3) / 3.0, 1.0, labels=(1, 3))
