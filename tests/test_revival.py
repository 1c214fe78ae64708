import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival import (AmbiguousWindowError, AutocorrSeries, EdgePeakError,
                      GaussianSpec, HorizonTooShortError, WellConfig,
                      autocorrelation, barker, coherent_weights,
                      detect_revival, detection_grid,
                      load_scenario, oscillator_phase_rates,
                      oscillator_timescales, principal_revival, project,
                      revival, scan_superrevival, solve_spectrum,
                      squeezed_weights, table1_report)

PAPER_PACKET = GaussianSpec(x0=0.2, sigma=0.1)


def well_inputs(epsilon, packet):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decomp = project(packet, states)
    weights = np.abs(decomp.coefficients) ** 2
    return weights, states.rates, decomp


def mp_peak(weights, rates, tau0):
    """Root of ``d|A|^2/dtau`` near ``tau0`` and ``|A|^2`` there, at 40 digits."""
    with mpmath.workdps(40):
        levels = [(mpmath.mpf(float(x)), mpmath.mpf(float(r)))
                  for x, r in zip(weights, rates) if x > 0]

        def amplitudes(t):
            terms = [x * mpmath.expj(-r * t) for x, r in levels]
            derivative = [-1j * r * term for (_, r), term in zip(levels, terms)]
            return mpmath.fsum(terms), mpmath.fsum(derivative)

        def slope(t):  # half of d|A|^2/dtau
            a, a1 = amplitudes(t)
            return mpmath.re(mpmath.conj(a) * a1)

        root = mpmath.findroot(slope, mpmath.mpf(float(tau0)))
        return root, abs(amplitudes(root)[0]) ** 2


@pytest.fixture(scope="module")
def box_state():
    """The paper packet in the box, the well at epsilon = inf."""
    states = solve_spectrum(WellConfig(epsilon=math.inf))
    return SimpleNamespace(weights=project(PAPER_PACKET, states).weights,
                           rates=states.rates)


# --- series ------------------------------------------------------------


def test_autocorr_at_zero_is_total_weight_squared():
    w = np.array([0.5, 0.3, 0.1])
    series = autocorrelation(w, np.array([1.0, 4.0, 9.0]), np.array([0.0]))
    assert abs(series.values[0] - w.sum() ** 2) < 1e-15


def test_single_weight_gives_flat_series():
    taus = np.linspace(0.0, 3.0, 100)
    series = autocorrelation([0.7], [5.0], taus)
    assert np.ptp(series.values) < 1e-15


def test_a_single_carried_level_is_refused_before_any_grid():
    # at a prediction of 1e6 the detection window alone would hold 6e9 samples
    with pytest.raises(ValueError, match="fewer than two levels carry weight"):
        principal_revival(np.array([0.7, 0.0]), np.array([1.0, 4.0]), 1e6)


@pytest.mark.parametrize("predicted", [math.inf, math.nan, 0.0, -0.5])
def test_a_prediction_not_finite_and_positive_is_refused(predicted):
    # an oscillator whose 1 + 3 n beta vanishes predicts an infinite revival
    with pytest.raises(ValueError, match="not finite and positive"):
        principal_revival(np.array([0.5, 0.5]), np.array([1.0, 4.0]), predicted)


def test_box_spectrum_revives_at_unit_time(box_state):
    w = box_state.weights / box_state.weights.sum()
    series = autocorrelation(w, box_state.rates, np.array([1.0]))
    assert abs(series.values[0] - 1.0) < 1e-12


def test_autocorr_validates_inputs():
    with pytest.raises(ValueError):
        autocorrelation([0.5, -0.1], [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        autocorrelation([0.5], [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        AutocorrSeries(tau=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))


def test_time_reversal_symmetry_is_exact():
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = np.arange(1, 400, dtype=float) * 1e-3
    fwd = autocorrelation(w, rates, taus).values
    bwd = autocorrelation(w, rates, -taus[::-1]).values[::-1]
    assert np.array_equal(fwd, bwd)


def test_box_series_is_periodic(box_state):
    taus = np.arange(0, 1000, dtype=float) * 1e-3
    a = autocorrelation(box_state.weights, box_state.rates, taus).values
    b = autocorrelation(box_state.weights, box_state.rates, taus + 1.0).values
    assert np.abs(a - b).max() < 1e-12


def test_finite_well_breaks_the_box_symmetry(box_state):
    deltas = np.arange(1, 500, dtype=float) * 1e-4

    def reflect(weights, rates, center):
        up = autocorrelation(weights, rates, center + deltas).values
        down = autocorrelation(weights, rates, (center - deltas)[::-1]).values
        return np.abs(up - down[::-1]).max()

    assert reflect(box_state.weights, box_state.rates, 1.0) < 1e-12

    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    assert reflect(w, rates, 1.1864599470705903) > 1e-3


def test_centered_packet_never_fully_decorrelates():
    w, rates, _ = well_inputs(12.0, GaussianSpec(x0=0.0, sigma=0.1))
    taus = np.arange(0, 20001, dtype=float) * 1e-4
    series = autocorrelation(w, rates, taus)
    assert series.values.min() > 0.0


def test_offcenter_packet_reaches_near_zero():
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = np.arange(0, 12001, dtype=float) * 1e-4
    series = autocorrelation(w, rates, taus)
    assert series.values.min() < 0.01


def test_box_partial_revivals_at_thirds(box_state):
    taus = np.arange(0, 10001, dtype=float) * 1e-4
    vals = autocorrelation(box_state.weights, box_state.rates, taus).values
    for target in (1.0 / 3.0, 2.0 / 3.0):
        m = (taus > target - 0.05) & (taus < target + 0.05)
        sub = vals[m]
        peaks = np.flatnonzero((sub[1:-1] > sub[:-2]) & (sub[1:-1] > sub[2:])) + 1
        best = peaks[np.argmax(sub[peaks])]
        assert abs(taus[m][best] - target) < 0.01
        assert sub[best] > 0.5


# --- block-factored kernel ---------------------------------------------

LONG = revival._CHUNK + 1  # longer than one chunk of the direct sum


def direct_series(weights, rates, taus):
    """``|sum_n w_n exp(-i theta_n tau)|^2`` as one sum per sample."""
    w = np.asarray(weights, dtype=float)
    th = np.asarray(rates, dtype=float)[w > 0]
    w = w[w > 0]
    out = np.empty(len(taus))
    for start in range(0, len(taus), 8192):
        t = taus[start:start + 8192]
        out[start:start + 8192] = np.abs(np.exp(-1j * np.outer(t, th)) @ w) ** 2
    return out


@pytest.fixture()
def blocked_calls(monkeypatch):
    """Sample counts of the calls that reach the blocked kernel."""
    calls = []
    kernel = revival._blocked_amplitudes

    def spy(*args):
        calls.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(revival, "_blocked_amplitudes", spy)
    return calls


@pytest.mark.parametrize("first", [0, 12345])
def test_blocked_kernel_keeps_the_exact_invariants(first, blocked_calls):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = np.arange(first, first + LONG + 99, dtype=float) * 1e-3
    fwd = autocorrelation(w, rates, taus).values
    assert blocked_calls == [len(taus)]
    bwd = autocorrelation(w, rates, -taus[::-1]).values[::-1]
    assert np.array_equal(fwd, bwd)
    assert np.array_equal(autocorrelation(w, rates, taus).values, fwd)
    for power in (-3, 5):
        scaled = autocorrelation(np.ldexp(w, power), rates, taus).values
        assert np.array_equal(scaled, np.ldexp(fwd, 2 * power))


def fig5_scan():
    osc = load_scenario("fig5").oscillator
    fock = squeezed_weights(osc.squeeze, osc.alpha)
    taus = np.arange(600001, dtype=float) * 1e-3
    return fock.weights, oscillator_phase_rates(fock.n, osc.beta), taus


def well_scan_horizon_100():
    w, rates, _ = well_inputs(100.0, PAPER_PACKET)
    return w, rates, np.arange(100001, dtype=float) * 1e-3


@pytest.mark.parametrize("scan", [fig5_scan, well_scan_horizon_100])
def test_blocked_kernel_matches_the_direct_sum(scan, blocked_calls):
    w, rates, taus = scan()
    series = autocorrelation(w, rates, taus)
    assert blocked_calls == [len(taus)]
    # The direct sum is pointwise, so a spread subset of samples suffices.
    picks = np.append(np.arange(0, len(taus), 29), len(taus) - 1)
    gap = np.abs(series.values[picks] - direct_series(w, rates, taus[picks]))
    assert gap.max() < 1e-9


@pytest.mark.parametrize("count", [3, 6001, revival._CHUNK])
def test_blocked_kernel_takes_every_uniform_grid(count, blocked_calls):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = np.arange(count, dtype=float) * 1e-3
    values = autocorrelation(w, rates, taus).values
    assert blocked_calls == [count]
    assert np.abs(values - direct_series(w, rates, taus)).max() < 1e-12


@pytest.mark.parametrize("count", [3, revival._CHUNK, LONG, 600001, 4000001])
def test_blocked_runs_tile_the_grid_in_whole_rows(count):
    block = int(np.sqrt(count))
    runs = list(revival._blocked_amplitudes(np.array([1.0, 0.5]), np.array([1.0, 7.0]),
                                            0.0, 1e-3, count))
    starts = [j0 for j0, _ in runs]
    ends = [j0 + len(amps) for j0, amps in runs]
    assert starts[0] == 0 and ends[-1] == count and starts[1:] == ends[:-1]
    assert all(j0 % block == 0 for j0 in starts)
    # no run is a lone row, which numpy would sum by GEMV in another order
    assert all(len(amps) <= revival._CHUNK for _, amps in runs)
    if len(runs) > 1:
        assert all(len(amps) > block for _, amps in runs)


def test_long_grids_cap_the_block_width():
    # 2e8 samples would give B = 14142; the cap keeps the N x B tail small.
    w, rates = np.array([0.6, 0.4]), np.array([1.0, 7.0])
    count, step = 200_000_000, 1e-3
    assert revival._MAX_BLOCK == 2048 < math.isqrt(count)
    runs = revival._blocked_amplitudes(w, rates, 0.0, step, count)
    (j0, first), (j1, second) = next(runs), next(runs)
    runs.close()
    assert j0 == 0 and j1 == len(first)
    # balanced runs of whole 2048-sample rows, at most _CHUNK samples each
    assert len(first) % 2048 == 0 and len(second) % 2048 == 0
    assert revival._CHUNK - 2 * 2048 < len(first) <= revival._CHUNK
    taus = np.arange(len(first) + len(second)) * step
    direct = np.exp(-1j * np.outer(taus, rates)) @ w
    assert np.abs(np.concatenate([first, second]) - direct).max() < 1e-12


@pytest.mark.parametrize("chunk", [500, 700, 1000, revival._CHUNK])
def test_blocked_runs_give_the_bits_of_the_whole_product(chunk, monkeypatch):
    # 90,007 samples: B = 300 columns and 301 rows.  A _CHUNK of 500 or 700
    # holds fewer than three rows, so runs of two or three rows replace it.
    # The whole product is built in one piece from the kernel's own tables.
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    count, step = 90007, 1e-3
    block = math.isqrt(count)
    b = np.arange(-(-count // block))
    a = b // block
    lead = revival._phase_table(rates, block * step, block)[b - a * block]
    lead *= np.exp(-1j * np.outer((a * (block * block)) * step, rates))
    lead *= w
    whole = (lead @ revival._phase_table(rates, step, block).T).ravel()[:count]
    monkeypatch.setattr(revival, "_CHUNK", chunk)
    runs = list(revival._blocked_amplitudes(w, rates, 0.0, step, count))
    assert len(runs) > 1
    assert all(2 * block <= len(amps) <= max(chunk, 3 * block) for _, amps in runs[:-1])
    assert len(runs[-1][1]) > block
    assert np.array_equal(np.concatenate([amps for _, amps in runs]), whole)


def test_phase_table_rows_are_products_of_direct_powers():
    rates = np.array([0.0, 1.0, 2.0 * np.pi * 512 ** 2, 7.3e3])
    step = 1e-3
    table = revival._phase_table(rates, step, 37)
    phases = np.outer(np.arange(37) * step, rates)
    # each of the six factors rounds its phase and its value once
    bound = 4 * np.finfo(float).eps * (6 + phases)
    assert np.all(np.abs(table - np.exp(-1j * phases)) <= bound)
    # row 21 = 1 + 4 + 16 multiplies the direct powers in ascending order
    powers = [np.exp(-1j * (rates * (2 ** k * step))) for k in (0, 2, 4)]
    assert np.array_equal(table[21], (powers[0] * powers[1]) * powers[2])
    # a row depends on its index alone, not on the length of the table
    assert np.array_equal(revival._phase_table(rates, step, 20), table[:20])


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(levels=st.integers(2, 600),
       count=st.integers(revival._CHUNK + 1, 2 * revival._CHUNK).filter(
           lambda c: math.isqrt(c) ** 2 != c),
       first=st.integers(1, 10 ** 5),
       step=st.sampled_from([1e-4, 1e-3]),
       top_rate=st.floats(1.0, 2e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_kernel_properties(levels, count, first, step, top_rate, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(levels)
    w /= w.sum()
    rates = rng.uniform(0.0, top_rate, levels)
    taus = (first + np.arange(count)) * step
    assert revival._uniform_progression(taus) is not None
    fwd = autocorrelation(w, rates, taus).values
    # a spread subset, with both ends, against the pointwise direct sum
    picks = np.append(np.arange(0, count, 97), count - 1)
    assert np.abs(fwd[picks] - direct_series(w, rates, taus[picks])).max() < 1e-9
    for chunk in (500, 4096):
        with mock.patch.object(revival, "_CHUNK", chunk):
            assert np.array_equal(autocorrelation(w, rates, taus).values, fwd)
    assert np.array_equal(autocorrelation(w, rates, -taus[::-1]).values[::-1], fwd)
    for power in (-3, 5):
        scaled = autocorrelation(np.ldexp(w, power), rates, taus).values
        assert np.array_equal(scaled, np.ldexp(fwd, 2 * power))


def test_other_grids_take_the_direct_path(blocked_calls):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    uniform = np.arange(LONG, dtype=float) * 1e-3
    nudged = uniform.copy()
    nudged[LONG // 2] += 1e-9
    grids = {
        "nudged": nudged,
        "jittered": np.sort(np.random.default_rng(5).uniform(0.0, 65.0, LONG)),
        "geometric": np.geomspace(1e-3, 65.0, LONG),
        "both signs": uniform - uniform[LONG // 2],
    }
    for name, taus in grids.items():
        values = autocorrelation(w, rates, taus).values
        assert np.abs(values - direct_series(w, rates, taus)).max() < 1e-12, name
    assert blocked_calls == []


# --- carried levels -------------------------------------------------------


@pytest.mark.parametrize("weights, rates", [
    ([np.nan, 0.5, 0.5], [0.0, 1.0, 2.0]),
    ([0.5, 0.5, 0.5], [0.0, np.nan, 2.0]),
    ([np.inf, 0.5, 0.5], [0.0, 1.0, 2.0]),
    ([0.5, 0.5, 0.5], [0.0, np.inf, 2.0]),
], ids=["nan weight", "nan rate", "inf weight", "inf rate"])
def test_non_finite_levels_are_refused(weights, rates):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            autocorrelation(weights, rates, np.arange(3, dtype=float))
        with pytest.raises(ValueError, match="finite"):
            principal_revival(weights, rates, 1.0)
        with pytest.raises(ValueError, match="finite"):
            scan_superrevival(weights, rates, 10.0, 1.0)


def test_a_weight_sum_that_overflows_is_refused():
    with pytest.raises(ValueError, match="finite"):
        autocorrelation([1e308, 1e308], [0.0, 1.0], [0.0])


def test_the_cut_bounds_the_dropped_mass_not_each_level():
    # Each light level lies below 2**-60 of the total, but all of them
    # together do not: a per-level floor would drop every one.
    w = np.concatenate([[1.0], np.full(10000, 2.0 ** -70)])
    rates = np.arange(len(w), dtype=float)
    kept, kept_rates = revival._carried_levels(w, rates)
    dropped = (len(w) - len(kept)) * 2.0 ** -70  # exact, unlike w.sum() - kept.sum()
    assert dropped <= 2.0 ** -60 * w.sum()
    assert len(w) - len(kept) == 1024
    # a stable sort breaks the ties by index, and the kept levels keep their order
    assert np.array_equal(kept_rates, np.concatenate([[0.0], rates[1025:]]))


DEEP_EPSILON = 2499.9708473394153
DEEP_PACKET = GaussianSpec(x0=0.07346226767883567, sigma=0.05183994186461294)


def nonzero_levels(weights, rates):
    """The levels of nonzero weight, all of them carried: no cut."""
    w = np.asarray(weights, dtype=float)
    th = np.asarray(rates, dtype=float)
    return w[w > 0], th[w > 0]


@pytest.fixture(scope="module")
def deep_well():
    w, rates, _ = well_inputs(DEEP_EPSILON, DEEP_PACKET)
    predicted = barker(WellConfig(epsilon=DEEP_EPSILON)).approx_revival_time
    return w, rates, predicted


def test_a_packet_clear_of_the_walls_carries_few_levels(deep_well):
    w, rates, _ = deep_well
    kept, _ = revival._carried_levels(w, rates)
    assert len(w) == 1592
    assert len(kept) <= 64
    assert w.sum() - kept.sum() <= 2.0 ** -60 * w.sum()


def test_the_cut_series_matches_the_sum_over_every_level(deep_well):
    w, rates, predicted = deep_well
    lo, hi = (scale * predicted for scale in revival.DEFAULT_WINDOW)
    taus = detection_grid(lo, hi, revival.DETECTION_MAX_STEP)
    series = autocorrelation(w, rates, taus)
    assert len(series.weights) <= 64
    full = np.concatenate([direct_series(w, rates, taus[i:i + 500])
                           for i in range(0, len(taus), 500)])
    assert np.abs(series.values - full).max() < 1e-12


def test_the_cut_leaves_the_detected_revival_in_place(deep_well, monkeypatch):
    w, rates, predicted = deep_well
    cut = principal_revival(w, rates, predicted)
    monkeypatch.setattr(revival, "_carried_levels", nonzero_levels)
    uncut = principal_revival(w, rates, predicted)
    assert abs(cut[0] - uncut[0]) < 1e-12
    assert abs(cut[1] - uncut[1]) < 1e-12


def test_the_cut_keeps_the_exact_invariants(deep_well):
    w, rates, predicted = deep_well
    kept, kept_rates = revival._carried_levels(w, rates)
    base = principal_revival(w, rates, predicted)
    for power in (-3, 5):
        scaled, scaled_rates = revival._carried_levels(np.ldexp(w, power), rates)
        assert np.array_equal(scaled, np.ldexp(kept, power))
        assert np.array_equal(scaled_rates, kept_rates)
        detected, height = principal_revival(np.ldexp(w, power), rates, predicted)
        assert detected == base[0]
        assert height == np.ldexp(base[1], 2 * power)
    taus = np.arange(1, 3000, dtype=float) * 1e-3
    fwd = autocorrelation(w, rates, taus).values
    bwd = autocorrelation(w, rates, -taus[::-1]).values[::-1]
    assert np.array_equal(fwd, bwd)


# --- revival detection --------------------------------------------------


@pytest.mark.parametrize("epsilon, window, expected, tol", [
    (12.0, (1.0, 1.4), 1.185, 0.006),
    (30.0, (1.0, 1.2), 1.068, 0.005),
    (100.0, (0.95, 1.1), 1.020, 0.003),
])
def test_detected_revivals_match_reference_values(epsilon, window, expected, tol):
    w, rates, _ = well_inputs(epsilon, PAPER_PACKET)
    taus = detection_grid(window[0], window[1], 1e-4)
    series = autocorrelation(w, rates, taus)
    tau_star, height = detect_revival(series, window)
    assert abs(tau_star - expected) < tol
    assert 0.9 < height <= 1.0 + 1e-9


def test_box_revival_detected_exactly_on_grid(box_state):
    w = box_state.weights / box_state.weights.sum()
    taus = detection_grid(0.9, 1.1, 1e-4)
    series = autocorrelation(w, box_state.rates, taus)
    tau_star, height = detect_revival(series, (0.9, 1.1))
    assert tau_star == 1.0
    assert abs(height - 1.0) < 1e-9


def test_weight_rescaling_leaves_peak_bit_identical():
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = detection_grid(1.0, 1.4, 1e-4)
    base = detect_revival(autocorrelation(w, rates, taus), (1.0, 1.4))
    # powers of two rescale float weights exactly
    scaled = detect_revival(autocorrelation(4.0 * w, rates, taus), (1.0, 1.4))
    assert scaled[0] == base[0]
    assert scaled[1] == 16.0 * base[1]
    # arbitrary positive factors keep the argmax and agree to rounding
    odd_scale = detect_revival(autocorrelation(3.0 * w, rates, taus), (1.0, 1.4))
    assert abs(odd_scale[0] - base[0]) < 1e-12


# --- peak refinement ------------------------------------------------------

# Peaks so lopsided on the 1e-4 grid that the parabola through the grid
# triple misses their maximum by about 3e-5.  From the squeezed state's
# vertex the first Newton step overshoots the grid step around the peak;
# the later steps come back and converge inside it.
LOPSIDED = [
    ("coherent", 5.823313895990627, 0.0019011406844106464, 0.84409543, 0.379035),
    ("squeezed", 11.054816503286249, 0.0026246719160104987, 0.98313441, 0.829061),
]


def oscillator_inputs(kind, value, beta):
    fock = coherent_weights(value) if kind == "coherent" else \
        squeezed_weights(value, 0.0)
    rates = oscillator_phase_rates(fock.n, beta)
    return fock.weights, rates, oscillator_timescales(fock, beta).revival_time


def parabolic_vertex(series, window):
    """Vertex of the parabola through the grid peak and its neighbours."""
    i0, i1 = np.searchsorted(series.tau, window)
    taus, vals = series.tau[i0:i1 + 1], series.values[i0:i1 + 1]
    p = int(np.argmax(vals))
    y0, y1, y2 = vals[p - 1:p + 2]
    return taus[p] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (taus[p + 1] - taus[p])


@pytest.mark.parametrize("kind, value, beta, expected, height", LOPSIDED)
def test_newton_lands_on_the_maximum_of_lopsided_peaks(kind, value, beta,
                                                       expected, height):
    w, rates, predicted = oscillator_inputs(kind, value, beta)
    tau_star, peak = principal_revival(w, rates, predicted)
    root, mp_height = mp_peak(w, rates, tau_star)
    assert abs(tau_star - float(root)) < 1e-12
    assert abs(peak - float(mp_height)) < 1e-12
    assert abs(tau_star - expected) < 1e-8
    assert abs(peak - height) < 1e-6


@pytest.mark.parametrize("kind, value, beta, expected, height", LOPSIDED)
def test_series_without_levels_keeps_the_parabola(kind, value, beta,
                                                  expected, height):
    w, rates, _ = oscillator_inputs(kind, value, beta)
    window = (expected - 0.01, expected + 0.01)
    series = autocorrelation(w, rates, detection_grid(*window, 1e-4))
    bare = AutocorrSeries(tau=series.tau, values=series.values)
    vertex = parabolic_vertex(series, window)
    assert abs(detect_revival(bare, window)[0] - vertex) < 1e-15
    assert abs(vertex - expected) > 1e-5
    assert abs(detect_revival(series, window)[0] - expected) < 1e-8


def well_revival_inputs(epsilon):
    w, rates, _ = well_inputs(epsilon, PAPER_PACKET)
    return w, rates, barker(WellConfig(epsilon=epsilon)).approx_revival_time


def test_parabolic_vertex_of_a_mirrored_series_is_mirrored():
    taus = detection_grid(1.0, 1.0004, 1e-4)
    window = (taus[0], taus[-1])
    rng = np.random.default_rng(3)
    for _ in range(1000):
        values = np.array([0.5, *rng.uniform(0.998, 1.0, 1), 1.0,
                           *rng.uniform(0.998, 1.0, 1), 0.5])
        fwd = detect_revival(AutocorrSeries(tau=taus, values=values), window)
        bwd = detect_revival(AutocorrSeries(tau=-taus[::-1], values=values[::-1]),
                             (-window[1], -window[0]))
        assert bwd == (-fwd[0], fwd[1])


@pytest.mark.parametrize("inputs", [
    lambda: oscillator_inputs(*LOPSIDED[0][:3]),
    lambda: well_revival_inputs(12.0),
], ids=["lopsided coherent", "well 12"])
def test_refinement_keeps_the_exact_invariants(inputs, blocked_calls):
    w, rates, predicted = inputs()
    tau_star = principal_revival(w, rates, predicted)[0]
    taus = detection_grid(tau_star - 0.01, tau_star + 0.01, 1e-4)
    window = (taus[0], taus[-1])
    blocked_calls.clear()
    base = detect_revival(autocorrelation(w, rates, taus), window)
    mirrored = detect_revival(autocorrelation(w, rates, -taus[::-1]),
                              (-window[1], -window[0]))
    assert mirrored == (-base[0], base[1])
    for power in (-3, 5):
        scaled = detect_revival(autocorrelation(np.ldexp(w, power), rates, taus),
                                window)
        assert scaled == (base[0], np.ldexp(base[1], 2 * power))
    assert blocked_calls == [len(taus)] * 4


@pytest.mark.parametrize("taus", [
    detection_grid(-0.01, 0.01, 1e-4),
    (np.arange(-100, 100) + 0.5) * 1e-4,
], ids=["sample at 0", "samples straddling 0"])
def test_peak_at_time_zero_stays_at_zero(taus):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    tau_star, height = detect_revival(autocorrelation(w, rates, taus),
                                      (-0.005, 0.005))
    assert abs(tau_star) < 1e-12
    assert abs(height - w.sum() ** 2) < 1e-12


# |A|^2 = 1.25 + cos(rate * tau) turns over about once per 1e-4 grid step,
# so the grid sees only its slow alias and the peak is not resolved: Newton
# from the parabolic vertex meets a convex point or converges to a maximum
# more than one grid step from the grid peak.
@pytest.mark.parametrize("rate", [63224.8, 63252.5],
                         ids=["convex vertex", "maximum outside the bracket"])
def test_unresolved_peak_keeps_the_parabola(rate):
    window = (1.0, 1.01)
    series = autocorrelation([1.0, 0.5], [0.0, rate], detection_grid(*window, 1e-4))
    bare = AutocorrSeries(tau=series.tau, values=series.values)
    assert detect_revival(series, window) == detect_revival(bare, window)


def test_newton_that_does_not_converge_keeps_the_parabola(monkeypatch):
    kind, value, beta, expected, _ = LOPSIDED[0]
    w, rates, _ = oscillator_inputs(kind, value, beta)
    window = (expected - 0.01, expected + 0.01)
    series = autocorrelation(w, rates, detection_grid(*window, 1e-4))
    bare = AutocorrSeries(tau=series.tau, values=series.values)
    monkeypatch.setattr(revival, "_NEWTON_STEPS", 1)
    assert detect_revival(series, window) == detect_revival(bare, window)


def test_ambiguous_window_is_refused():
    taus = detection_grid(1.0, 1.02, 1e-4)
    bump = lambda c: np.exp(-((taus - c) / 2e-3) ** 2)
    series = AutocorrSeries(tau=taus, values=0.9 * bump(1.005) + 0.899 * bump(1.015))
    with pytest.raises(AmbiguousWindowError):
        detect_revival(series, (1.0, 1.02))


def test_detection_grid_bounds_its_size_before_building_it():
    assert detection_grid(0.0, 1e-4, 1e-4).tolist() == [0.0, 1e-4]
    with pytest.raises(ValueError, match="too narrow"):
        detection_grid(0.5, 0.5, 1.0)
    # counted on the float bounds, so no integer conversion can overflow
    for hi, step, count in ((1.0, 1.0 / revival.MAX_SAMPLES, revival.MAX_SAMPLES + 1),
                            (1.0, 5e-324, "inf"), (np.nan, 1e-4, "nan")):
        with pytest.raises(ValueError, match=f"hold {count} samples"):
            detection_grid(0.0, hi, step)


def test_detection_rejects_coarse_grids():
    taus = np.arange(0, 200, dtype=float) * 1e-2
    series = AutocorrSeries(tau=taus, values=np.ones_like(taus))
    with pytest.raises(ValueError):
        detect_revival(series, (0.5, 1.5))


def test_detection_requires_coverage():
    taus = detection_grid(0.0, 0.5, 1e-4)
    series = AutocorrSeries(tau=taus, values=np.ones_like(taus))
    with pytest.raises(ValueError):
        detect_revival(series, (0.4, 0.9))


# --- superrevival detection ---------------------------------------------


def envelope_scan(epsilon, horizon):
    w, rates, _ = well_inputs(epsilon, GaussianSpec(x0=0.0, sigma=0.1))
    period = barker(WellConfig(epsilon=epsilon)).approx_revival_time
    return w, rates, horizon, period


def test_superrevival_regression_values():
    tau12 = scan_superrevival(*envelope_scan(12.0, 40.0))
    assert tau12 == pytest.approx(5.738, abs=2e-3)

    tau15 = scan_superrevival(*envelope_scan(15.0, 60.0))
    assert tau15 == pytest.approx(10.110, abs=2e-3)

    assert tau15 > tau12


def test_box_envelope_never_dips(box_state):
    assert scan_superrevival(box_state.weights, box_state.rates, 8.0, 1.0) is None


def test_short_horizon_is_distinguished_from_absence():
    with pytest.raises(HorizonTooShortError):
        scan_superrevival(*envelope_scan(12.0, 4.0))


def mask_envelope(tau, values, period, n_cycles):
    """The per-cycle envelope by one argmax over each cycle's samples.

    On a sorted series the mask of a cycle is one slice, found by
    searchsorted.
    """
    cycle = np.floor((tau - tau[0]) / period).astype(int)
    heights = np.full(n_cycles, -np.inf)
    peak_taus = np.zeros(n_cycles)
    bounds = np.searchsorted(cycle, np.arange(n_cycles + 1))
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo < hi:
            i = lo + int(np.argmax(values[lo:hi]))
            heights[k], peak_taus[k] = values[i], tau[i]
    return heights, peak_taus


def mask_superrevival(series, period, threshold=0.95):
    """Superrevival time from :func:`mask_envelope` (None if no dip)."""
    n_cycles = int(np.floor((series.tau[-1] - series.tau[0]) / period))
    heights, peak_taus = mask_envelope(series.tau, series.values, period, n_cycles)
    dipped = heights < threshold * heights.max()
    if not dipped.any():
        return None
    first_dip = int(np.argmax(dipped))
    recovered = np.flatnonzero((np.arange(n_cycles) > first_dip)
                               & (heights >= threshold * heights.max()))
    return float(peak_taus[recovered[0]]) if len(recovered) else HorizonTooShortError


# --- streamed superrevival scan -------------------------------------------

SCAN_STEP = revival.ENVELOPE_STEP


def scan_grid(horizon):
    """The grid ``scan_superrevival`` streams, built in full."""
    last = int(np.floor(horizon / SCAN_STEP + 1e-9))
    return np.arange(last + 1, dtype=float) * SCAN_STEP


def oscillator_scan_inputs(beta, squeeze=None, alpha=0.0):
    fock = coherent_weights(alpha) if squeeze is None else squeezed_weights(squeeze, alpha)
    period = oscillator_timescales(fock, beta).revival_time
    return fock.weights, oscillator_phase_rates(fock.n, beta), period, 600.0


def fig5_scan_inputs():
    return oscillator_scan_inputs(0.002, squeeze=10.0)


def fig2_scan_inputs():
    w, rates, _ = well_inputs(12.0, GaussianSpec(x0=0.0, sigma=0.1))
    return w, rates, barker(WellConfig(epsilon=12.0)).approx_revival_time, 40.0


def squeezed_scan_inputs():  # a squeezed vacuum of the superrevival_scan bench
    return oscillator_scan_inputs(0.001893939393939394, squeeze=5.455408877250766)


def coherent_scan_inputs():  # a coherent state of the superrevival_scan bench
    return oscillator_scan_inputs(0.0027548209366391185, alpha=4.54412780286066)


def materialised_envelope(w, rates, period, horizon):
    series = autocorrelation(w, rates, scan_grid(horizon))
    n_cycles = int(np.floor((series.tau[-1] - series.tau[0]) / period))
    return series, mask_envelope(series.tau, series.values, period, n_cycles)


def streamed_envelope(w, rates, horizon, period):
    """``|A(0)|^2`` and the envelope the scan folds, taken to the horizon."""
    heads, heights, peak_taus = zip(*revival._envelope_cycles(w, rates, horizon,
                                                              period))
    assert len(set(heads)) == 1
    return heads[0], np.array(heights), np.array(peak_taus)


@pytest.mark.parametrize("inputs", [fig5_scan_inputs, fig2_scan_inputs,
                                    squeezed_scan_inputs, coherent_scan_inputs])
def test_streamed_scan_matches_the_materialised_path(inputs):
    w, rates, period, horizon = inputs()
    series, (heights, peak_taus) = materialised_envelope(w, rates, period, horizon)
    head, streamed_heights, streamed_taus = streamed_envelope(w, rates, horizon, period)
    assert head == series.values[0]
    assert np.array_equal(streamed_heights, heights)
    assert np.array_equal(streamed_taus, peak_taus)
    expected = mask_superrevival(series, period)
    assert expected is not None
    assert scan_superrevival(w, rates, horizon, period) == expected


def test_streamed_scan_folds_across_short_runs(monkeypatch):
    # 10,501 samples: B = 102 does not divide the count, and runs of two or
    # three rows end inside every revival cycle.
    w, rates, period, _ = fig2_scan_inputs()
    horizon = 10.5
    reference, _ = materialised_envelope(w, rates, period, horizon)
    monkeypatch.setattr(revival, "_CHUNK", 400)
    runs = list(revival._blocked_amplitudes(reference.weights, reference.rates, 0.0,
                                            SCAN_STEP, len(reference.tau)))
    assert len(runs) > 10 and all(0 < len(a) <= 400 for _, a in runs)
    series, (heights, peak_taus) = materialised_envelope(w, rates, period, horizon)
    assert np.allclose(series.values, reference.values, rtol=0, atol=1e-12)
    _, streamed_heights, streamed_taus = streamed_envelope(w, rates, horizon, period)
    assert np.array_equal(streamed_heights, heights)
    assert np.array_equal(streamed_taus, peak_taus)
    assert scan_superrevival(w, rates, horizon, period) == \
        mask_superrevival(series, period)


def test_fold_keeps_the_first_maximum_across_run_edges(monkeypatch):
    rng = np.random.default_rng(22)
    for _ in range(40):
        count = int(rng.integers(200, 3000))
        # amplitudes 0..3 square exactly, and their few levels make ties common
        amps = rng.integers(0, 4, count).astype(complex)
        edges = np.unique(np.r_[0, rng.integers(1, count, 12), count])

        def kernel(w, th, start, step, n):
            assert n == count
            for lo, hi in zip(edges[:-1], edges[1:]):
                yield int(lo), amps[lo:hi]

        monkeypatch.setattr(revival, "_blocked_amplitudes", kernel)
        period = rng.uniform(4.0, 60.0) * SCAN_STEP
        tau = np.arange(count, dtype=float) * SCAN_STEP
        n_cycles = int(np.floor(tau[-1] / period))
        whole = mask_envelope(tau, np.abs(amps) ** 2, period, n_cycles)
        head, heights, peak_taus = streamed_envelope([1.0], [0.0], tau[-1], period)
        assert head == abs(amps[0]) ** 2
        assert np.array_equal(heights, whole[0])
        assert np.array_equal(peak_taus, whole[1])


@pytest.mark.parametrize("period", [0.004, 0.007, 0.01, 0.1, 1.0 / 3.0,
                                    1.0201258688090753])
def test_cycle_starts_match_the_floor_of_every_sample(period):
    last = 600000
    n_cycles = int(np.floor(last * SCAN_STEP / period))
    starts = [revival._cycle_start(k, period) for k in range(n_cycles + 1)]
    cycle = np.floor(np.arange(last + 1, dtype=float) * SCAN_STEP / period)
    expected = np.searchsorted(cycle, np.arange(n_cycles + 1))
    assert np.array_equal(starts, expected)
    assert starts[-1] <= last


def test_cycle_starts_correct_the_estimate_both_ways():
    period, n_cycles = 0.007, 85714
    k = np.arange(n_cycles + 1)
    estimate = np.ceil(k * period / SCAN_STEP).astype(np.int64)
    miss = estimate - [revival._cycle_start(int(j), period) for j in k]
    assert miss.min() == -1 and miss.max() == 1


def outcome(fn):
    try:
        return fn()
    except (ValueError, HorizonTooShortError) as exc:
        return type(exc)


@pytest.mark.parametrize("case", ["none", "short", "zero period", "negative period",
                                  "period under four steps", "one cycle"])
def test_streamed_scan_matches_detection_on_every_path(case, box_state):
    w, rates, period, horizon = {
        "none": (box_state.weights, box_state.rates, 1.0, 8.0),
        "short": fig2_scan_inputs()[:3] + (4.0,),
        "zero period": fig2_scan_inputs()[:2] + (0.0, 4.0),
        "negative period": fig2_scan_inputs()[:2] + (-1.0, 4.0),
        "period under four steps": fig2_scan_inputs()[:2] + (3.5 * SCAN_STEP, 4.0),
        "one cycle": fig2_scan_inputs()[:3] + (1.9,),
    }[case]
    expected = {"none": None, "short": HorizonTooShortError}.get(case, ValueError)
    if expected is not ValueError:
        series = autocorrelation(w, rates, scan_grid(horizon))
        assert mask_superrevival(series, period) == expected
    assert outcome(lambda: scan_superrevival(w, rates, horizon, period)) == expected


def test_streamed_scan_rejects_a_non_finite_horizon():
    w, rates, period, _ = fig2_scan_inputs()
    for bad_horizon in (np.inf, np.nan):
        with pytest.raises(ValueError):
            scan_superrevival(w, rates, bad_horizon, period)


def test_streamed_scan_holds_one_run_in_memory():
    w, rates, _ = well_inputs(30.0, PAPER_PACKET)
    period = barker(WellConfig(epsilon=30.0)).approx_revival_time
    tracemalloc.start()
    try:
        detected = scan_superrevival(w, rates, 4000.0, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert detected == 201.472  # 4,000,001 samples
    assert peak < 16 * 2 ** 20


def test_long_horizon_scan_holds_no_per_cycle_arrays():
    # 852,000 whole cycles fit in the horizon, but the recovery comes in
    # the 13th: nothing is held per cycle that has not been sampled
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    period = barker(WellConfig(epsilon=12.0)).approx_revival_time
    tracemalloc.start()
    try:
        detected = scan_superrevival(w, rates, 1e6, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert detected == 14.891
    assert peak < 16 * 2 ** 20


@pytest.fixture()
def consumed_runs(monkeypatch):
    """``[count, runs taken, end of the last run taken]`` per kernel call."""
    calls = []
    kernel = revival._blocked_amplitudes

    def spy(*args):
        call = [args[-1], 0, 0]
        calls.append(call)
        for j0, amps in kernel(*args):
            call[1:] = call[1] + 1, j0 + len(amps)
            yield j0, amps

    monkeypatch.setattr(revival, "_blocked_amplitudes", spy)
    return calls


def test_full_horizon_scan_holds_one_run_in_memory(consumed_runs):
    w, rates, _ = well_inputs(100.0, PAPER_PACKET)
    period = barker(WellConfig(epsilon=100.0)).approx_revival_time
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooShortError):
            scan_superrevival(w, rates, 4000.0, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(count, taken, end)] = consumed_runs
    assert count == end == 4000001 and taken > 1  # the whole grid
    assert peak < 16 * 2 ** 20


def test_scan_stops_with_the_run_that_completes_the_recovery(consumed_runs):
    w, rates, period, horizon = fig5_scan_inputs()
    assert scan_superrevival(w, rates, horizon, period) == 31.372
    list(revival._blocked_amplitudes(w, rates, 0.0, SCAN_STEP, 600001))  # all runs
    [(count, taken, end), (_, every, _)] = consumed_runs
    assert count == 600001 and taken == 1 < every
    assert 31372 < end < count


@pytest.mark.parametrize("case", ["none", "short"])
def test_scan_without_a_recovery_takes_every_run(case, box_state, consumed_runs,
                                                 monkeypatch):
    monkeypatch.setattr(revival, "_CHUNK", 400)
    w, rates, period, horizon = {
        "none": (box_state.weights, box_state.rates, 1.0, 8.0),
        "short": fig2_scan_inputs()[:3] + (4.0,),
    }[case]
    expected = {"none": None, "short": HorizonTooShortError}[case]
    assert outcome(lambda: scan_superrevival(w, rates, horizon, period)) == expected
    [(count, taken, end)] = consumed_runs
    assert end == count and taken > 10


# --- comparison report ----------------------------------------------------


def test_table1_retries_an_ambiguous_window():
    # Both default-window peaks (near 1.508 and 2.009) lie within 1 %; the
    # narrow retry window keeps the one nearest the prediction.
    eps = 4.712860219282728
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (report,) = table1_report(PAPER_PACKET, [eps])
    w, rates, _ = well_inputs(eps, PAPER_PACKET)
    predicted = barker(WellConfig(epsilon=eps)).approx_revival_time
    with pytest.raises(AmbiguousWindowError):
        lo, hi = 0.9 * predicted, 1.5 * predicted
        detect_revival(autocorrelation(w, rates, detection_grid(lo, hi, 1e-4)),
                       (lo, hi))
    assert report.detected_revival == principal_revival(w, rates, predicted)[0]
    # The maximum of |A|^2 there is 1.508184648792057229... (40 digits); the
    # parabola through the grid triple put it at 1.5081846466397775.  The
    # top level's beta behind it matches mpmath to 1e-12 (test_spectrum.py).
    assert report.detected_revival == 1.5081846487920572
    root, peak = mp_peak(w, rates, report.detected_revival)
    assert abs(report.detected_revival - float(root)) < 1e-12
    assert abs(report.peak_height_at_revival - float(peak)) < 1e-12


def test_window_edge_peak_is_refused():
    w, rates, _ = well_inputs(4.712628857664328,
                              GaussianSpec(x0=-0.15839646014543776,
                                           sigma=0.08053085345697969))
    predicted = barker(WellConfig(epsilon=4.712628857664328)).approx_revival_time
    with pytest.raises(EdgePeakError, match="edge"):
        principal_revival(w, rates, predicted)


@pytest.fixture(scope="module")
def reports():
    return table1_report(PAPER_PACKET, [12.0, 30.0, 100.0])


def test_report_prediction_column_is_closed_form(reports):
    for r in reports:
        exact = (1.0 + 1.0 / r.epsilon) ** 2
        assert abs(r.barker_predicted - exact) < 1e-12


def test_report_errors_shrink_with_depth(reports):
    errors = [r.percent_error for r in reports]
    assert errors[0] > errors[1] > errors[2]


def test_report_detected_times_drop_toward_unity(reports):
    detected = [r.detected_revival for r in reports]
    assert detected[0] > detected[1] > detected[2] > 1.0


def test_report_percent_error_definition(reports):
    r = reports[0]
    manual = 100.0 * abs(r.detected_revival - r.barker_predicted) / r.detected_revival
    assert abs(r.percent_error - manual) < 1e-12


def test_report_carries_scan_metadata(reports):
    for r in reports:
        assert r.completeness >= 0.999
