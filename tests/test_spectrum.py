import numpy as np
import pytest
from scipy.integrate import quad

from qrevival import (ConvergenceError, WellConfig, barker, closed_form_norm,
                      eigenfunction_value, orthonormality_matrix,
                      solve_spectrum, transcendental_residual)


@pytest.fixture(scope="module")
def well12():
    return solve_spectrum(WellConfig(epsilon=12.0))


@pytest.mark.parametrize("epsilon, count", [
    (12.0, 8), (15.0, 10), (30.0, 20), (100.0, 64),
])
def test_bound_state_counts(epsilon, count):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    assert len(states) == count
    assert WellConfig(epsilon=epsilon).predicted_state_count == count


@pytest.mark.parametrize("epsilon", [0.5, 12.0, 100.0, 2500.0])
def test_levels_agree_with_the_arrays(epsilon):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    n = len(states)
    assert n == int(np.floor(2.0 * epsilon / np.pi)) + 1
    for i in sorted({0, n // 2, n - 1, -1, -n}):
        level, j = states[i], i % n
        assert level.index == j + 1
        assert level.parity == ("even" if states.even[j] else "odd")
        assert (level.alpha, level.beta, level.norm) == \
            (states.alpha[j], states.beta[j], states.norm[j])
        assert level.energy == states.energy[j]
        assert level.weakly_bound == states.weakly_bound[j]
    assert [level.alpha for level in states] == states.alpha.tolist()
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            states[bad]


def test_unit_strength_well_binds_single_even_state():
    states = solve_spectrum(WellConfig(epsilon=1.0))
    assert len(states) == 1
    assert states[0].parity == "even"


def test_roots_against_high_precision_bisection(well12):
    # independent oracle: 50-digit bisection on the raw tan/cot forms
    import mpmath
    mpmath.mp.dps = 50
    eps = mpmath.mpf(12)

    def residual(a, parity):
        b = mpmath.sqrt(eps ** 2 - a ** 2)
        if parity == "even":
            return a * mpmath.tan(a) - b
        return a * mpmath.cot(a) + b

    for state in well12:
        k = (state.index - 1) // 2
        if state.parity == "even":
            lo, hi = k * mpmath.pi + mpmath.mpf("1e-30"), k * mpmath.pi + mpmath.pi / 2
        else:
            lo, hi = k * mpmath.pi + mpmath.pi / 2, (k + 1) * mpmath.pi
        hi = min(hi, eps)
        flo = residual(lo, state.parity)
        for _ in range(220):
            mid = (lo + hi) / 2
            fm = residual(mid, state.parity)
            if mpmath.sign(fm) == mpmath.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        oracle = float((lo + hi) / 2)
        assert abs(state.alpha - oracle) < 1e-12
    assert np.abs(transcendental_residual(well12.alpha, well12.beta,
                                          well12.even)).max() < 1e-10


def test_interlacing_and_parity_alternation(well12):
    alphas = [s.alpha for s in well12]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert [s.parity for s in well12] == ["even", "odd"] * 4


def test_alpha_beta_circle(well12):
    for s in well12:
        assert np.isclose(s.alpha ** 2 + s.beta ** 2, 144.0, rtol=1e-12)


def test_normalization_against_quad_oracle(well12):
    for state in well12:
        xmax = 0.5 + 30.0 / state.beta
        val, _ = quad(lambda x, s=state: eigenfunction_value(s, x) ** 2,
                      -xmax, xmax, points=(-0.5, 0.5), epsabs=1e-12, limit=300)
        assert abs(val - 1.0) < 1e-8


def test_numerical_norm_confirms_closed_form(well12):
    # the closed-form constant is exact at a true root; record the gap
    gaps = [abs(s.norm - closed_form_norm(s)) / s.norm for s in well12]
    assert max(gaps) < 1e-10


def test_gram_matrix_is_identity(well12):
    gram = orthonormality_matrix(well12)
    assert np.abs(gram - np.eye(len(well12))).max() < 1e-8


def test_opposite_parity_overlaps_are_exact_zeros(well12):
    gram = orthonormality_matrix(well12)
    for i, si in enumerate(well12):
        for k, sk in enumerate(well12):
            if si.parity != sk.parity:
                assert gram[i, k] == 0.0


def test_eigenfunction_continuity_at_the_walls(well12):
    for state in well12:
        for edge in (-0.5, 0.5):
            inside = eigenfunction_value(state, edge)
            outside = eigenfunction_value(state, edge + np.copysign(1e-12, edge))
            assert abs(inside - outside) < 1e-9


def test_odd_states_vanish_at_center(well12):
    for state in well12:
        if state.parity == "odd":
            assert eigenfunction_value(state, 0.0) == 0.0


def test_exponential_decay_outside(well12):
    state = well12[0]
    near, far = eigenfunction_value(state, 0.7), eigenfunction_value(state, 1.2)
    assert abs(far) < abs(near) * np.exp(-2.0 * state.beta * 0.49)


def test_even_state_edge_value_matches_decay_formula(well12):
    state = well12[0]
    assert np.isclose(eigenfunction_value(state, 0.5),
                      state.norm * np.cos(state.alpha), rtol=1e-13)


def test_barker_tabulated_values():
    approx = barker(WellConfig(epsilon=12.0))
    assert np.isclose(approx.approx_revival_time, (13.0 / 12.0) ** 2, rtol=1e-15)
    assert round(approx.approx_revival_time, 3) == 1.174
    assert np.isclose(barker(WellConfig(epsilon=30.0)).approx_revival_time,
                      (31.0 / 30.0) ** 2, rtol=1e-15)
    assert abs(barker(WellConfig(epsilon=30.0)).approx_revival_time - 1.06778) < 1e-5


def test_barker_infinite_depth_limit():
    assert abs(barker(WellConfig(epsilon=1e12)).approx_revival_time - 1.0) < 1e-11


def test_barker_identity_and_monotonicity():
    eps_grid = [0.7, 3.0, 12.0, 30.0, 100.0, 1e4]
    times = []
    for eps in eps_grid:
        approx = barker(WellConfig(epsilon=eps))
        assert approx.approx_revival_time == approx.effective_length_ratio ** 2
        assert approx.approx_revival_time > 1.0
        times.append(approx.approx_revival_time)
    assert all(a > b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("bad", [0.0, -3.0, np.nan, np.inf])
def test_rejects_invalid_strength(bad):
    with pytest.raises(ValueError):
        WellConfig(epsilon=bad)


def test_weakly_bound_flag_for_vanishing_well():
    states = solve_spectrum(WellConfig(epsilon=1e-4))
    assert len(states) == 1
    assert states[0].weakly_bound
    assert states[0].beta < 1e-6


def test_threshold_degenerate_strength_raises():
    with pytest.raises(ConvergenceError):
        solve_spectrum(WellConfig(epsilon=np.pi / 2 + 1e-13))


def test_count_tracks_strength_formula():
    for eps in (0.5, 2.0, 7.7, 48.0, 333.0):
        states = solve_spectrum(WellConfig(epsilon=eps))
        assert abs(len(states) - (2.0 * eps / np.pi + 1.0)) < 1.0


def test_eigenfunction_rejects_nonfinite_positions(well12):
    with pytest.raises(ValueError):
        eigenfunction_value(well12[0], np.inf)


def test_orthonormality_requires_states():
    with pytest.raises(ValueError):
        orthonormality_matrix([])


def test_phase_rate_convention(well12):
    state = well12[0]
    assert np.isclose(well12.rates[0], 8.0 * state.alpha ** 2 / np.pi, rtol=1e-15)
    assert state.energy == state.alpha ** 2
