import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qrevival import (ConvergenceError, Spectrum, WellConfig, barker,
                      solve_spectrum, transcendental_residual)
from qrevival.spectrum import (_NEWTON_CAP, _THRESHOLD_GAP, _solve_roots,
                               edge_values, eigenfunction_rows)


def closed_form_norm(beta):
    """Textbook normalization constant; cross-check for the numerical norm."""
    return np.sqrt(2.0 / (1.0 + 1.0 / beta))


def level_values(states, i, x):
    """Level ``i``'s normalized eigenfunction at the positions ``x``."""
    level = slice(i, i + 1)
    return eigenfunction_rows(states.alpha[level], states.beta[level],
                              states.even[level], states.norm[level],
                              np.asarray(x, dtype=float))[0]


def mp_beta(epsilon, n):
    """Level n's ``beta`` at 40 digits, from the law in its ``beta`` form."""
    with mpmath.workdps(40):
        eps = mpmath.mpf(epsilon)

        def law(beta):
            alpha = mpmath.sqrt(eps ** 2 - beta ** 2)
            return 2 * alpha - 2 * mpmath.atan2(beta, alpha) - (n - 1) * mpmath.pi

        return mpmath.findroot(law, (mpmath.mpf(0), eps), solver="illinois")


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
    assert n == int(np.floor(2.0 * epsilon / np.pi)) + 1 and states
    for name in ("alpha", "beta", "even", "norm", "energy", "rates", "weakly_bound"):
        assert getattr(states, name).shape == (n,)
    assert np.array_equal(states.even, np.arange(n) % 2 == 0)
    assert np.array_equal(states.weakly_bound, states.beta < 1e-6)
    # each energy keeps the bits of a Python float squared by pow()
    assert states.energy.tolist() == [a ** 2 for a in states.alpha.tolist()]
    assert not hasattr(Spectrum, "__getitem__")


def test_unit_strength_well_binds_single_even_state():
    states = solve_spectrum(WellConfig(epsilon=1.0))
    assert len(states) == 1
    assert states.even[0]


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

    for i, alpha in enumerate(well12.alpha):
        k, parity = i // 2, "even" if well12.even[i] else "odd"
        if parity == "even":
            lo, hi = k * mpmath.pi + mpmath.mpf("1e-30"), k * mpmath.pi + mpmath.pi / 2
        else:
            lo, hi = k * mpmath.pi + mpmath.pi / 2, (k + 1) * mpmath.pi
        hi = min(hi, eps)
        flo = residual(lo, parity)
        for _ in range(220):
            mid = (lo + hi) / 2
            fm = residual(mid, parity)
            if mpmath.sign(fm) == mpmath.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        oracle = float((lo + hi) / 2)
        assert abs(alpha - oracle) < 1e-12
    assert np.abs(transcendental_residual(well12.alpha, well12.beta,
                                          well12.even)).max() < 1e-10


def test_interlacing_and_parity_alternation(well12):
    assert np.all(np.diff(well12.alpha) > 0)
    assert well12.even.tolist() == [True, False] * 4


def test_alpha_beta_circle(well12):
    assert np.allclose(well12.alpha ** 2 + well12.beta ** 2, 144.0, rtol=1e-12, atol=0)


def test_normalization_against_quad_oracle(well12):
    for i, beta in enumerate(well12.beta):
        xmax = 0.5 + 30.0 / beta
        val, _ = quad(lambda x, i=i: level_values(well12, i, [x])[0] ** 2,
                      -xmax, xmax, points=(-0.5, 0.5), epsabs=1e-12, limit=300)
        assert abs(val - 1.0) < 1e-8


def test_numerical_norm_confirms_closed_form(well12):
    # the closed-form constant is exact at a true root; record the gap
    gaps = np.abs(well12.norm - closed_form_norm(well12.beta)) / well12.norm
    assert gaps.max() < 1e-10


def test_gram_matrix_is_identity(well12, gram_matrix):
    gram = gram_matrix(well12)
    assert np.abs(gram - np.eye(len(well12))).max() < 1e-8


def test_opposite_parity_overlaps_are_exact_zeros(well12, gram_matrix):
    gram = gram_matrix(well12)
    opposite = well12.even[:, None] != well12.even[None, :]
    assert opposite.sum() == 32
    assert np.all(gram[opposite] == 0.0)


def test_eigenfunction_continuity_at_the_walls(well12):
    for i in range(len(well12)):
        for edge in (-0.5, 0.5):
            inside, outside = level_values(
                well12, i, [edge, edge + np.copysign(1e-12, edge)])
            assert abs(inside - outside) < 1e-9


def test_odd_states_vanish_at_center(well12):
    for i in np.flatnonzero(~well12.even):
        assert level_values(well12, i, [0.0])[0] == 0.0


def test_exponential_decay_outside(well12):
    near, far = level_values(well12, 0, [0.7, 1.2])
    assert abs(far) < abs(near) * np.exp(-2.0 * well12.beta[0] * 0.49)


def test_even_state_edge_value_matches_decay_formula(well12):
    assert np.isclose(level_values(well12, 0, [0.5])[0],
                      well12.norm[0] * np.cos(well12.alpha[0]), rtol=1e-13)


def test_barker_tabulated_values():
    approx = barker(WellConfig(epsilon=12.0))
    assert np.isclose(approx, (13.0 / 12.0) ** 2, rtol=1e-15)
    assert round(approx, 3) == 1.174
    assert np.isclose(barker(WellConfig(epsilon=30.0)), (31.0 / 30.0) ** 2, rtol=1e-15)
    assert abs(barker(WellConfig(epsilon=30.0)) - 1.06778) < 1e-5


def test_barker_infinite_depth_limit():
    assert abs(barker(WellConfig(epsilon=1e12)) - 1.0) < 1e-11
    assert barker(WellConfig(epsilon=math.inf)) == 1.0


def test_box_spectrum_is_closed_form_and_orthonormal(gram_matrix):
    box = solve_spectrum(WellConfig(epsilon=math.inf))
    n = np.arange(1, len(box) + 1)
    assert len(box) == 512 == WellConfig(epsilon=math.inf).predicted_state_count
    with mpmath.workdps(30):
        error = [float(abs(mpmath.mpf(float(a)) - k * mpmath.pi / 2))
                 for k, a in zip(n.tolist(), box.alpha)]
    assert np.all(np.array(error) <= np.spacing(box.alpha))
    assert np.all(box.beta == math.inf)
    assert np.array_equal(box.even, n % 2 == 1)
    assert np.abs(box.rates / (2.0 * math.pi * n ** 2) - 1.0).max() < 1e-15
    gram = gram_matrix(box)
    assert np.abs(gram - np.eye(len(box))).max() < 1e-13


def test_barker_identity_and_monotonicity():
    eps_grid = [0.7, 3.0, 12.0, 30.0, 100.0, 1e4]
    times = []
    for eps in eps_grid:
        approx = barker(WellConfig(epsilon=eps))
        # the square of the effective length ratio, bit for bit
        assert approx == (1.0 + 1.0 / eps) ** 2
        assert approx > 1.0
        times.append(approx)
    assert all(a > b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("bad", [0.0, -3.0, np.nan, -np.inf, 1e-160])
def test_rejects_invalid_strength(bad):
    with pytest.raises(ValueError):
        WellConfig(epsilon=bad)


@pytest.mark.parametrize("epsilon", [1647100.0, 1e9, 1e308])
def test_a_well_past_the_level_cap_is_refused_before_any_array(epsilon):
    # WellConfig takes the strength, as barker needs no levels; solving it
    # is refused on floats before its count is an int or any array exists
    config = WellConfig(epsilon=epsilon)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than MAX_LEVELS = 1048576$"):
            solve_spectrum(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def test_weakly_bound_flag_for_vanishing_well():
    states = solve_spectrum(WellConfig(epsilon=1e-4))
    assert len(states) == 1
    assert states.weakly_bound[0]
    assert states.beta[0] < 1e-6


@pytest.mark.parametrize("epsilon", [1e-20, 1e-100])
def test_vanishing_well_keeps_its_one_level(epsilon):
    # alpha tan alpha = beta with alpha ~ epsilon puts beta at epsilon^2
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    assert len(states) == 1
    assert abs(states.beta[0] / epsilon ** 2 - 1) < 1e-12


def test_threshold_degenerate_strength_raises():
    with pytest.raises(ConvergenceError):
        solve_spectrum(WellConfig(epsilon=np.pi / 2 + 1e-13))


# (k, delta) for epsilon = k pi / 2 (1 + delta), just above the threshold where
# level k + 1 binds: 2 pi, 5 pi / 2, 7 pi / 2 and 8 pi, then k = 3..9 and 16, 17
NEAR_THRESHOLD = list(dict.fromkeys(
    [(4, 1e-10), (5, 1e-7), (7, 1e-9), (16, 1e-8)]
    + [(k, 1e-7) for k in range(3, 10)] + [(16, 1e-8), (17, 1e-8)]))


@pytest.mark.parametrize("k, delta", NEAR_THRESHOLD)
def test_level_just_above_a_threshold(k, delta):
    epsilon = k * np.pi / 2 * (1 + delta)
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    assert len(states) == int(np.floor(2.0 * epsilon / np.pi)) + 1 == k + 1
    assert abs(states.beta[-1] / float(mp_beta(epsilon, k + 1)) - 1) < 1e-5


def test_top_beta_near_a_threshold_keeps_twelve_digits():
    # 1e-4 above 3 pi / 2; table1's retry pins in test_cli and test_revival
    # rest on this level
    epsilon = 4.712860219282728
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    assert abs(states.beta[-1] / float(mp_beta(epsilon, 4)) - 1) < 1e-12


def two_branch_roots(eps):
    """The Newton solve with one arctangent and one quotient per branch,
    each evaluated over every level: the reference that the one-branch
    iteration of ``_solve_roots`` must reproduce bit for bit."""
    count = WellConfig(eps).predicted_state_count
    gap = eps - (count - 1) * (np.pi / 2.0)
    if gap <= _THRESHOLD_GAP * eps:
        return ConvergenceError
    n = np.arange(1, count + 1)
    alpha_hi = (n * (np.pi / 2.0)) / (1.0 + 1.0 / eps)
    deep = alpha_hi <= eps / np.sqrt(2.0)
    beta_hi = eps * np.sqrt((2.0 * eps - (n - 1) * np.pi)
                            * (2.0 * eps + (n + 1) * np.pi)) / (2.0 * eps + np.pi)
    beta_hi[-1] = min(beta_hi[-1], eps * np.tan(gap))
    x = np.where(deep, alpha_hi, beta_hi)
    for _ in range(_NEWTON_CAP):
        other = np.sqrt((eps - x) * (eps + x))
        alpha, beta = np.where(deep, x, other), np.where(deep, other, x)
        law = np.where(deep, 2.0 * alpha + 2.0 * np.arctan2(alpha, beta) - n * np.pi,
                       2.0 * alpha - 2.0 * np.arctan2(beta, alpha) - (n - 1) * np.pi)
        slope = np.where(deep, 2.0 + 2.0 / beta, -2.0 * (beta + 1.0) / alpha)
        step = x - law / slope
        falls = step < x
        if not falls.any():
            return alpha, beta, n % 2 == 1
        x = np.where(falls, step, x)
    return ConvergenceError


def test_one_branch_newton_gives_the_bits_of_the_two_branch_solve():
    # log-spread strengths, then strengths from just past the refusal band
    # to 1e-2 above the first 120 thresholds and as far below them
    near = [k * np.pi / 2 * (1 + sign * delta) for k in range(1, 121) for sign in (1, -1)
            for delta in (3e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)]
    strengths = np.concatenate([np.geomspace(1e-3, 3e3, 600), near])
    for eps in map(float, strengths):
        expected = two_branch_roots(eps)
        if expected is ConvergenceError:
            with pytest.raises(ConvergenceError):
                _solve_roots(WellConfig(eps))
        else:
            roots = _solve_roots(WellConfig(eps))
            assert all(np.array_equal(a, b) for a, b in zip(roots, expected)), eps


STRENGTHS = st.one_of(
    st.floats(-3.0, 4.0).map(lambda p: 10.0 ** p),
    st.builds(lambda k, d: k * np.pi / 2 * (1 + 10.0 ** d),
              st.integers(1, 6366), st.floats(-10.0, -3.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(STRENGTHS)
def test_spectrum_properties_over_the_domain(epsilon):
    # solve_spectrum applies its residual acceptance to every root, so
    # returning at all means each root passed it
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    alpha, beta = states.alpha, states.beta
    n = np.arange(1, len(states) + 1)
    rounding = 8.0 * np.finfo(float).eps
    assert len(states) == int(np.floor(2.0 * epsilon / np.pi)) + 1
    assert np.all(np.abs(alpha ** 2 + beta ** 2 - epsilon ** 2) <= rounding * epsilon ** 2)
    assert np.all(((n - 1) * np.pi / 2 < alpha) & (alpha < n * np.pi / 2))
    assert np.array_equal(states.even, n % 2 == 1)
    # 2 alpha = n pi - 2 arcsin(alpha / epsilon), with the arcsin taken as
    # atan2 so that the check itself stays well conditioned
    law = 2.0 * alpha + 2.0 * np.arctan2(alpha, beta) - n * np.pi
    assert np.all(np.abs(law) <= rounding * n * np.pi)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(STRENGTHS)
def test_eigenfunctions_and_slopes_are_continuous_at_the_walls(epsilon):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    alpha, beta, even, norm = states.alpha, states.beta, states.even, states.norm
    rounding = np.finfo(float).eps
    # the last point inside each wall and the first outside it
    outer = np.nextafter(0.5, 1.0)
    rows = eigenfunction_rows(alpha, beta, even, norm,
                              np.array([-outer, -0.5, 0.5, outer]))
    # across one ulp the outside branch decays by exp(-2 beta ulp)
    jump = norm * (2.0 * beta * (outer - 0.5) + 4.0 * rounding)
    assert np.all(np.abs(rows[:, 1] - rows[:, 0]) <= jump)
    assert np.all(np.abs(rows[:, 2] - rows[:, 3]) <= jump)
    # d/dx at x = 1/2: of cos(2 alpha x) or sin(2 alpha x) inside, of the
    # decaying exponential, -2 beta psi(1/2), outside
    inside = 2.0 * alpha * np.where(even, -np.sin(alpha), np.cos(alpha))
    outside = -2.0 * beta * edge_values(alpha, even)
    n = np.arange(1, len(states) + 1)
    assert np.all(np.abs(inside - outside) <= 32.0 * rounding * n * epsilon)


def test_count_tracks_strength_formula():
    for eps in (0.5, 2.0, 7.7, 48.0, 333.0):
        states = solve_spectrum(WellConfig(epsilon=eps))
        assert abs(len(states) - (2.0 * eps / np.pi + 1.0)) < 1.0


def test_phase_rate_convention(well12):
    alpha = float(well12.alpha[0])
    assert np.isclose(well12.rates[0], 8.0 * alpha ** 2 / np.pi, rtol=1e-15)
    assert well12.energy[0] == alpha ** 2
