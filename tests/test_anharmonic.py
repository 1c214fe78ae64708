import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from qrevival import anharmonic
from qrevival import (CutoffTooSmallError, FockWeights, autocorrelation,
                      coherent_weights, hermite_log, oscillator_phase_rates,
                      oscillator_timescales, squeezed_weights)


def test_hermite_log_matches_scipy():
    for x in (-2.5, -0.3, 0.7, 1.9, 4.0):
        logs, signs = hermite_log(25, x)
        ours = signs * np.exp(logs)
        ref = np.array([eval_hermite(k, x) for k in range(26)])
        assert np.abs(ours - ref).max() / np.abs(ref).max() < 1e-12


def test_hermite_log_odd_orders_vanish_at_origin():
    logs, signs = hermite_log(20, 0.0)
    assert np.all(signs[1::2] == 0.0)
    assert np.all(np.isneginf(logs[1::2]))
    # even orders at the origin alternate sign: 1, -2, 12, -120, ...
    assert np.array_equal(signs[0:8:2], [1.0, -1.0, 1.0, -1.0])


def test_hermite_log_stays_finite_at_high_order():
    logs, signs = hermite_log(600, 1.3)
    assert np.isfinite(logs[-1])
    assert signs[-1] in (-1.0, 1.0)


# --- coherent ------------------------------------------------------------


def test_vacuum_amplitude_gives_ground_state_only():
    fock = coherent_weights(0.0)
    assert fock.weights[0] == 1.0
    assert fock.weights[1:].max() == 0.0
    assert fock.mean_n == 0.0


def test_coherent_weights_normalized_and_poissonian():
    fock = coherent_weights(2.0)
    assert abs(fock.weights.sum() - 1.0) < 1e-14
    assert abs(fock.mean_n - 4.0) < 1e-9
    n = np.arange(8)
    ref = np.exp(-4.0) * 4.0 ** n / np.array([math.factorial(k) for k in n])
    assert np.abs(fock.weights[:8] - ref).max() < 1e-12


def test_coherent_accepts_complex_amplitude():
    fock = coherent_weights(1.0 + 1.0j)
    assert abs(fock.mean_n - 2.0) < 1e-10


def test_large_amplitude_stays_in_log_space():
    fock = coherent_weights(8.0)  # mean 64; naive factorials would overflow
    assert abs(fock.weights.sum() - 1.0) < 1e-12
    assert abs(fock.mean_n - 64.0) < 1e-7


def ranges_from(first):
    """The ranges that double from ``first`` levels to the cap."""
    ranges = [first]
    while ranges[-1] < anharmonic.FOCK_CUTOFF_CAP:
        ranges.append(min(2 * ranges[-1], anharmonic.FOCK_CUTOFF_CAP))
    return ranges


# Every weight of every range underflows below the mean of alpha = 300,
# which is refused before any range; s = 100, alpha = 30 runs to the cap.
REFUSALS = {(1.0, 300.0): ("no mass", False), (100.0, 30.0): ("not exhausted", True)}


@pytest.mark.parametrize("s, alpha, cutoff", [
    (1.0, 300.0, 10), (1.0, 2.0, 2048), (3.0, 1.0, 100), (100.0, 30.0, 2048),
    (1.0, 300.0, 64), (1.0, 2.0, 64), (3.0, 1.0, 64), (100.0, 30.0, 64),
])
def test_a_cutoff_computes_at_most_the_cap(monkeypatch, s, alpha, cutoff):
    # the ranges double from the first, 64 unless set here, to the cap,
    # whatever the mean, unless no range could hold any mass; a state that
    # runs out stops at its first range
    sizes = []
    log_factorials = anharmonic._log_factorials

    def counted(n_raw):
        sizes.append(n_raw)
        return log_factorials(n_raw)

    monkeypatch.setattr(anharmonic, "_log_factorials", counted)
    monkeypatch.setattr(anharmonic, "_FIRST_RANGE", cutoff)
    refusal, ranges = REFUSALS.get((s, alpha), (None, None))
    if refusal is None:
        squeezed_weights(s, alpha)
        assert sizes == [cutoff]
    else:
        with pytest.raises(ValueError, match=refusal):
            squeezed_weights(s, alpha)
        assert sizes == (ranges_from(cutoff) if ranges else [])
    assert ranges_from(64) == [64, 128, 256, 512, 1024, 2048]


def counted_ranges(monkeypatch):
    """The ranges the constructors go on to compute, as they compute them."""
    sizes = []
    log_factorials = anharmonic._log_factorials

    def counted(n_raw):
        sizes.append(n_raw)
        return log_factorials(n_raw)

    monkeypatch.setattr(anharmonic, "_log_factorials", counted)
    return sizes


@pytest.mark.parametrize("s, alpha", [
    (1.0, 66.0), (1.0, -300.0), (1.0, 1e100), (1.0, 1e200), (1.0, 1.7e308),
    (1.0, 1e200j), (2.0, 1e200), (1e308, 1e308),
])
def test_a_hopeless_displacement_is_refused_before_any_range(monkeypatch, s, alpha):
    # 1e200 squared overflows, where ``alpha ** 2`` used to raise
    sizes = counted_ranges(monkeypatch)
    with pytest.raises(ValueError, match="^weight distribution has no mass$"):
        squeezed_weights(s, alpha)
    assert sizes == []


def outcome(weights):
    try:
        return weights().weights.tobytes()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_early_refusal_gives_the_full_ranges_answer():
    # Stirling's bound refuses from a mean of about 4329; every weight of the
    # cap's range underflows from about 4316, and up to there the refusal is
    # "not exhausted"
    for alpha in np.arange(44.0, 70.0, 0.5):
        assert outcome(lambda: coherent_weights(alpha)) == outcome(
            lambda: full_range_weights(1.0, alpha)), alpha


# --- squeezed ------------------------------------------------------------


def squeezed_vacuum_reference(s, n_max):
    # direct construction of the squeezed-vacuum number distribution
    r = 0.5 * math.log(s)
    t, c = math.tanh(r), math.cosh(r)
    w = np.zeros(n_max + 1)
    for m in range(n_max // 2 + 1):
        w[2 * m] = (math.factorial(2 * m)
                    / (2 ** (2 * m) * math.factorial(m) ** 2)
                    * t ** (2 * m) / c)
    return w


def test_squeezed_vacuum_matches_direct_distribution():
    fock = squeezed_weights(10.0, 0.0)
    ref = squeezed_vacuum_reference(10.0, len(fock.weights) - 1)
    ref /= ref.sum()
    assert np.abs(fock.weights - ref).max() < 1e-12


def test_squeezed_vacuum_mean_occupation():
    fock = squeezed_weights(10.0, 0.0)
    r = 0.5 * math.log(10.0)
    assert abs(fock.mean_n - math.sinh(r) ** 2) < 1e-7


def test_squeezed_vacuum_has_even_support_only():
    fock = squeezed_weights(10.0, 0.0)
    assert fock.weights[1::2].max() == 0.0
    assert abs(fock.weights.sum() - 1.0) < 1e-12


def test_displaced_squeezed_state_is_normalized():
    fock = squeezed_weights(10.0, 1.0)
    assert abs(fock.weights.sum() - 1.0) < 1e-12
    assert fock.weights[1::2].max() > 0.0  # displacement populates odd levels


def test_unit_squeeze_dispatches_to_coherent():
    fock = squeezed_weights(1.0, 2.0)
    assert abs(fock.mean_n - 4.0) < 1e-9
    assert fock.source.startswith("coherent")


def test_squeeze_below_unity_is_rejected():
    with pytest.raises(ValueError):
        squeezed_weights(0.5, 0.0)


# --- the computed range --------------------------------------------------


def full_range_weights(s, alpha):
    """Weights computed over every level up to the cap, then truncated.

    Whatever range it is asked for, ``raw`` gives all of them, so the check
    sees the levels past the range the constructors stop at."""
    n_raw = anharmonic.FOCK_CUTOFF_CAP
    n = np.arange(n_raw + 1)
    log_factorials = np.array([math.lgamma(k + 1) for k in n])
    if s == 1.0:
        mean = alpha ** 2
        raw = np.exp(-mean + n * math.log(mean) - log_factorials) if mean else n == 0
        source = f"coherent(alpha={alpha})"
    else:
        t = (s - 1.0) / (s + 1.0)
        x_h = s * math.sqrt(2.0) * alpha / math.sqrt(s * s - 1.0)
        h_logs, h_signs = hermite_log(n_raw, x_h)
        prefactor = math.log(2.0 * math.sqrt(s) / (s + 1.0)) \
            - 2.0 * s * alpha * alpha / (s + 1.0)
        logs = prefactor + n * math.log(t) - n * math.log(2.0) \
            - log_factorials + 2.0 * h_logs
        raw = np.where(h_signs == 0.0, 0.0, np.exp(logs))
        source = f"squeezed(s={s}, alpha={alpha})"
    raw = np.asarray(raw, dtype=float)
    return anharmonic._levels(lambda n_raw: raw, source)


RANGE_STATES = ([(1.0, a) for a in (0.0, 0.1, 8.0, 40.0)]
                + [(s, a) for s in (1.5, 11.0, 100.0) for a in (0.0, 0.5, 5.0, 40.0)])


@pytest.mark.parametrize("s, alpha", RANGE_STATES)
def test_weights_match_the_full_range_bit_for_bit(s, alpha):
    # The constructors stop at the first range of 64, 128, ... levels whose
    # last four weights run out; the levels past it must change no bit.  At
    # alpha = 40 every weight of the first range underflows to zero.
    try:
        expected = full_range_weights(s, alpha)
    except CutoffTooSmallError:
        with pytest.raises(CutoffTooSmallError):
            squeezed_weights(s, alpha)
        return
    fock = squeezed_weights(s, alpha)
    assert fock.weights.tobytes() == expected.weights.tobytes()
    assert fock.mean_n == expected.mean_n
    assert fock.source == expected.source


@pytest.mark.parametrize("cutoff", [40, 300, 2048])
@pytest.mark.parametrize("s, alpha", RANGE_STATES)
def test_cutoff_weights_match_the_full_range_bit_for_bit(monkeypatch, s, alpha, cutoff):
    # ranges that double from another first range, even one at the cap,
    # must keep the same bits as the ones that start from 64
    monkeypatch.setattr(anharmonic, "_FIRST_RANGE", cutoff)
    try:
        expected = full_range_weights(s, alpha)
    except CutoffTooSmallError:
        with pytest.raises(CutoffTooSmallError):
            squeezed_weights(s, alpha)
        return
    fock = squeezed_weights(s, alpha)
    assert fock.weights.tobytes() == expected.weights.tobytes()
    assert fock.mean_n == expected.mean_n


# --- dynamics -------------------------------------------------------------


def test_quadratic_limit_revives_at_unit_time():
    fock = squeezed_weights(10.0, 0.0)
    rates = oscillator_phase_rates(fock.n, 0.0)
    series = autocorrelation(fock.weights, rates, np.array([0.0, 1.0]))
    assert abs(series.values[1] - series.values[0]) < 1e-12
    assert abs(series.values[1] - 1.0) < 1e-12


def test_small_nonlinearity_is_a_small_perturbation():
    fock = squeezed_weights(10.0, 0.0)
    taus = np.arange(0, 2001, dtype=float) * 1e-3
    base = autocorrelation(fock.weights, oscillator_phase_rates(fock.n, 0.0),
                           taus).values
    bent = autocorrelation(fock.weights, oscillator_phase_rates(fock.n, 1e-6),
                           taus).values
    assert np.abs(base - bent).max() < 1e-2


def test_even_support_keeps_autocorrelation_away_from_zero():
    fock = squeezed_weights(10.0, 0.0)
    taus = np.arange(0, 1001, dtype=float) * 1e-3
    rates = oscillator_phase_rates(fock.n, 0.002)
    series = autocorrelation(fock.weights, rates, taus)
    assert series.values.min() > 0.05


def test_displaced_state_decorrelates_within_a_cycle():
    matched = coherent_weights(math.sqrt(2.025))  # same mean occupation
    taus = np.arange(0, 1001, dtype=float) * 1e-3
    rates = oscillator_phase_rates(matched.n, 0.002)
    series = autocorrelation(matched.weights, rates, taus)
    assert series.values.min() < 0.05
    wide = coherent_weights(2.0)
    rates = oscillator_phase_rates(wide.n, 0.002)
    series = autocorrelation(wide.weights, rates, taus)
    assert series.values.min() < 0.05


def test_long_horizon_landmark_and_positivity():
    # squeezed vacuum at beta = 1/500: the envelope near tau = 500 recovers
    # the full starting level, and the series never touches zero on the way
    fock = squeezed_weights(10.0, 0.0)
    rates = oscillator_phase_rates(fock.n, 0.002)
    far = autocorrelation(fock.weights, rates, np.arange(495000, 505001, 5) * 1e-3)
    near = autocorrelation(fock.weights, rates, np.arange(0, 5001, 5) * 1e-3)
    assert far.values.max() >= 0.95 * near.values.max()

    sweep = autocorrelation(fock.weights, rates, np.arange(0, 120001) * 5e-3)
    assert sweep.values.min() > 0.0


def test_phase_conjugation_symmetry():
    fock = squeezed_weights(10.0, 0.0)
    taus = np.arange(1, 500, dtype=float) * 1e-3
    rates = oscillator_phase_rates(fock.n, 0.002)
    fwd = autocorrelation(fock.weights, rates, taus).values
    bwd = autocorrelation(fock.weights, rates, -taus[::-1]).values
    assert np.array_equal(fwd, bwd[::-1])


# --- timescales ------------------------------------------------------------


def stencil_timescales(weights, beta):
    """Oracle: revival and superrevival times from central differences of
    the phase rates at the level nearest the mean occupation, kept two
    levels inside the basis.  Exact for a cubic spectrum up to rounding;
    a difference within rounding of zero gives an infinite time."""
    w = np.asarray(weights)
    n = np.arange(len(w))
    c = int(np.clip(round(float((n * w).sum() / w.sum())), 2, len(w) - 3))
    e = oscillator_phase_rates(np.arange(c - 2, c + 3), beta)
    d2 = e[3] - 2.0 * e[2] + e[1]
    d3 = 0.5 * (e[4] - 2.0 * e[3] + 2.0 * e[1] - e[0])
    rounding = 64.0 * np.finfo(float).eps * np.abs(e).max()

    def period(diff, order):
        scale = abs(diff) / math.factorial(order)
        return float(2.0 * np.pi / scale) if scale > rounding else math.inf

    return period(d2, 2), period(d3, 3), c


def test_timescales_closed_form_matches_difference_route():
    fock = squeezed_weights(10.0, 0.0)
    scales = oscillator_timescales(fock, 0.002)
    t_rv, t_sr, c = stencil_timescales(fock.weights, 0.002)
    assert scales.n_center == c == 2
    assert scales.superrevival_time == 500.0
    assert scales.revival_time == 1.0 / (1.0 + 3.0 * 2 * 0.002)
    assert abs(scales.classical_time - 1.0 / 4.024) < 1e-15
    assert abs(t_sr - scales.superrevival_time) / scales.superrevival_time < 1e-10
    assert abs(t_rv - scales.revival_time) / scales.revival_time < 1e-10


def test_timescales_at_integer_mean_occupation():
    fock = coherent_weights(2.0)  # mean 4
    scales = oscillator_timescales(fock, 0.01)
    t_rv, _, c = stencil_timescales(fock.weights, 0.01)
    assert scales.n_center == c == 4
    assert abs(scales.revival_time - 1.0 / 1.12) < 1e-12
    assert abs(t_rv - scales.revival_time) < 1e-12
    assert abs(scales.superrevival_time - 100.0) < 1e-12
    assert abs(scales.classical_time - 1.0 / 8.48) < 1e-15


def test_low_occupation_centres_two_levels_in():
    # nbar < 1.5 rounds below 2; the centre stays at 2, like the stencil's
    for fock in (coherent_weights(0.0), coherent_weights(1.0),
                 squeezed_weights(3.0, 0.0)):
        assert fock.mean_n < 1.5
        assert oscillator_timescales(fock, 0.002).n_center == 2


def test_zero_nonlinearity_gives_infinite_superrevival():
    fock = coherent_weights(2.0)
    scales = oscillator_timescales(fock, 0.0)
    assert abs(scales.revival_time - 1.0) < 1e-12
    assert scales.superrevival_time == math.inf
    assert stencil_timescales(fock.weights, 0.0)[1] == math.inf


@pytest.mark.parametrize("beta, infinite", [
    (-1.0 / 6.0, "revival_time"),     # 1 + 3 c beta = 0 at c = 2
    (-1.0 / 3.0, "classical_time"),   # 2 c + 3 beta c^2 = 0 at c = 2
])
def test_a_vanishing_rate_gives_an_infinite_time(beta, infinite):
    fock = coherent_weights(math.sqrt(2.0))
    scales = oscillator_timescales(fock, beta)
    assert scales.n_center == 2
    assert getattr(scales, infinite) == math.inf
    times = [scales.classical_time, scales.revival_time, scales.superrevival_time]
    assert sum(math.isinf(t) for t in times) == 1
    assert scales.superrevival_time == 1.0 / abs(beta)
    assert all(t > 0 for t in times)


def test_negative_nonlinearity_gives_positive_times():
    scales = oscillator_timescales(coherent_weights(math.sqrt(2.0)), -0.5)
    assert (scales.classical_time, scales.revival_time, scales.superrevival_time) \
        == (1.0 / 2.0, 1.0 / 2.0, 2.0)


def test_too_few_levels_are_refused():
    fock = FockWeights(weights=np.array([1.0, 0.0, 0.0, 0.0]), mean_n=0.0,
                       source="four levels")
    with pytest.raises(ValueError, match="five levels"):
        oscillator_timescales(fock, 0.002)


STATES = st.one_of(
    st.floats(0.0, 3.0).map(coherent_weights),
    st.floats(1.0, 20.0).map(lambda s: squeezed_weights(s, 0.0)))
BETAS = st.one_of(st.just(0.0), st.sampled_from([-1.0 / 6.0, -1.0 / 3.0]),
                  st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(STATES, BETAS)
def test_closed_forms_match_the_stencil_over_states(fock, beta):
    scales = oscillator_timescales(fock, beta)
    t_rv, t_sr, c = stencil_timescales(fock.weights, beta)
    assert scales.n_center == c
    # the stencil's second difference loses digits as 1 + 3 c beta -> 0
    curvature = 1.0 + 3.0 * c * beta
    assume(curvature == 0.0 or abs(curvature) > 1e-3)
    for closed, stencil in ((scales.revival_time, t_rv),
                            (scales.superrevival_time, t_sr)):
        if math.isfinite(closed) and math.isfinite(stencil):
            assert abs(closed - stencil) <= 1e-10 * closed
        else:
            assert closed == stencil == math.inf


def test_phase_rate_convention():
    rates = oscillator_phase_rates(np.array([0, 1, 2]), 0.5)
    assert np.allclose(rates, [0.0,
                               2.0 * np.pi * 1.5,
                               2.0 * np.pi * (4.0 + 0.5 * 8.0)], rtol=1e-15)
