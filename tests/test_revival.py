import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival import (AmbiguousWindowError, AutocorrSeries, EdgePeakError,
                      GaussianSpec, HorizonTooShortError, WellConfig,
                      autocorrelation, barker, coherent_weights,
                      detect_revival, detection_grid,
                      load_scenario, oscillator_phase_rates,
                      oscillator_timescales, principal_revival, project,
                      revival, scan_superrevival, solve_spectrum,
                      squeezed_weights)
from qrevival.cli import main

PAPER_PACKET = GaussianSpec(x0=0.2, sigma=0.1)


def well_inputs(epsilon, packet):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decomp = project(packet, states)
    weights = np.abs(decomp.coefficients) ** 2
    return weights, states.rates, decomp


def table1_rows(epsilons):
    """The rows of ``table1 --format json`` for these strengths and
    ``PAPER_PACKET``."""
    result = CliRunner().invoke(main, [
        "table1", "--x0", repr(PAPER_PACKET.x0), "--sigma", repr(PAPER_PACKET.sigma),
        "--epsilons", ",".join(map(repr, epsilons)), "--format", "json"])
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


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

LONG = revival._CHUNK + 1  # longer than one run of the kernel


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


def kernel_runs(w, rates, start, step, count, **kwargs):
    """The runs of the blocked kernel over the grid ``start + j*step``, each
    copied out of the buffers that the kernel writes the next run into."""
    tables = revival._BlockTables(np.asarray(rates, dtype=float), start, step, count)
    for j, amps in revival._blocked_amplitudes(np.asarray(w, dtype=float), tables, **kwargs):
        yield j, amps.copy()


@pytest.mark.parametrize("first", [0, 12345])
def test_blocked_kernel_keeps_the_exact_invariants(first):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = np.arange(first, first + LONG + 99, dtype=float) * 1e-3
    fwd = autocorrelation(w, rates, taus).values
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
def test_blocked_kernel_matches_the_direct_sum(scan):
    w, rates, taus = scan()
    series = autocorrelation(w, rates, taus)
    # The direct sum is pointwise, so a spread subset of samples suffices.
    picks = np.append(np.arange(0, len(taus), 29), len(taus) - 1)
    gap = np.abs(series.values[picks] - direct_series(w, rates, taus[picks]))
    assert gap.max() < 1e-9


def test_grids_past_the_block_cap_match_the_direct_sum_and_mirror():
    # more than _MAX_BLOCK**2 samples: the block width is capped, and the
    # lead rows take several heads exp(-i th a*B*B*step)
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    count = 3 * revival._MAX_BLOCK ** 2 + 1234
    assert math.isqrt(count) > revival._MAX_BLOCK
    taus = np.arange(count, dtype=float) * 1e-5
    fwd = autocorrelation(w, rates, taus).values
    assert np.abs(fwd - direct_series(w, rates, taus)).max() < 1e-12
    assert np.array_equal(autocorrelation(w, rates, -taus[::-1]).values[::-1], fwd)


@pytest.mark.parametrize("count", [1, 2, 3, 6001, revival._CHUNK])
def test_blocked_kernel_takes_every_uniform_grid(count):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    taus = np.arange(count, dtype=float) * 1e-3
    values = autocorrelation(w, rates, taus).values
    assert np.abs(values - direct_series(w, rates, taus)).max() < 1e-12


@pytest.mark.parametrize("count", [3, revival._CHUNK, LONG, 600001, 4000001])
def test_blocked_runs_tile_the_grid_in_whole_rows(count):
    block = min(math.isqrt(count), revival._MAX_BLOCK)
    runs = list(kernel_runs([1.0, 0.5], [1.0, 7.0], 0.0, 1e-3, count))
    starts = [j0 for j0, _ in runs]
    ends = [j0 + len(amps) for j0, amps in runs]
    assert starts[0] == 0 and ends[-1] == count and starts[1:] == ends[:-1]
    assert all(j0 % block == 0 for j0 in starts)
    # no run is a lone row, which numpy would sum by GEMV in another order,
    # and every run but the last, partial one holds _MIN_RUN samples or more
    assert all(len(amps) <= revival._CHUNK for _, amps in runs)
    if len(runs) > 1:
        assert all(len(amps) > block for _, amps in runs)
        assert all(len(amps) >= revival._MIN_RUN for _, amps in runs[:-1])


def test_long_grids_cap_the_block_width():
    # 2e8 samples would give B = 14142; the cap keeps the N x B tables small.
    w, rates = np.array([0.6, 0.4]), np.array([1.0, 7.0])
    count, step = 200_000_000, 1e-3
    block = revival._MAX_BLOCK
    assert block < math.isqrt(count)
    runs = kernel_runs(w, rates, 0.0, step, count)
    (j0, first), (j1, second) = next(runs), next(runs)
    runs.close()
    assert j0 == 0 and j1 == len(first)
    # balanced runs of whole B-sample rows, at most _CHUNK samples each
    assert len(first) % block == 0 and len(second) % block == 0
    assert revival._CHUNK - 2 * block < len(first) <= revival._CHUNK
    taus = np.arange(len(first) + len(second)) * step
    direct = np.exp(-1j * np.outer(taus, rates)) @ w
    assert np.abs(np.concatenate([first, second]) - direct).max() < 1e-12


@pytest.mark.parametrize("chunk", [500, 700, 1000, revival._CHUNK])
def test_blocked_runs_give_the_bits_of_the_whole_product(chunk, monkeypatch):
    # 90,007 samples: B = _MAX_BLOCK = 256 columns and 352 rows, and the
    # lead rows past the first 256 take a second head.  A _CHUNK of 500 or
    # 700 holds no more rows than the floor of ceil(_MIN_RUN / B) = 2, so
    # runs of two or three rows take its place.  The whole product is built
    # in one piece from the kernel's own tables.
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    count, step = 90007, 1e-3
    block = revival._MAX_BLOCK
    assert block < math.isqrt(count)
    b = np.arange(-(-count // block))
    a = b // block
    tables = revival._BlockTables(rates, 0.0, step, count)
    lead = tables.lead[b - a * block]
    lead *= np.exp(-1j * np.outer((a * (block * block)) * step, rates))
    lead *= w
    whole = (lead @ tables.tail.T).ravel()[:count]
    monkeypatch.setattr(revival, "_CHUNK", chunk)
    runs = list(kernel_runs(w, rates, 0.0, step, count))
    assert len(runs) > 1
    least = -(-revival._MIN_RUN // block)
    assert all(least * block <= len(amps) <= max(chunk, (2 * least - 1) * block)
               for _, amps in runs[:-1])
    assert len(runs[-1][1]) > block
    assert np.array_equal(np.concatenate([amps for _, amps in runs]), whole)
    # any sample range: one sample, one row, rows' edges, the last partial row
    for first, end in [(0, 1), (45123, 45124), (count - 1, count), (150 * block, 151 * block),
                       (block - 1, block + 1), (block * block, count), (12345, 67890),
                       (0, count)]:
        runs = list(kernel_runs(w, rates, 0.0, step, count, samples=(first, end)))
        starts = [j for j, _ in runs]
        ends = [j + len(amps) for j, amps in runs]
        assert starts[0] == first and ends[-1] == end and starts[1:] == ends[:-1]
        assert np.array_equal(np.concatenate([amps for _, amps in runs]), whole[first:end])


def test_phase_table_rows_are_products_of_direct_powers():
    rates = np.array([0.0, 1.0, 2.0 * np.pi * 512 ** 2, 7.3e3])
    # a grid of 37**2 samples has a tail of 37 rows, and as many lead steps
    # of 37 grid steps each
    tables = revival._BlockTables(rates, 0.0, 1e-3, 37 ** 2)
    for table, step in ((tables.tail, 1e-3), (tables.lead, 37 * 1e-3)):
        phases = np.outer(np.arange(37) * step, rates)
        # each of the six factors rounds its phase and its value once
        bound = 4 * np.finfo(float).eps * (6 + phases)
        assert np.all(np.abs(table - np.exp(-1j * phases)) <= bound)
        # row 21 = 1 + 4 + 16 multiplies the direct powers in ascending order
        powers = [np.exp(-1j * (rates * (2 ** k * step))) for k in (0, 2, 4)]
        assert np.array_equal(table[21], (powers[0] * powers[1]) * powers[2])
        # a row depends on its index alone, not on the length of the table
        assert np.array_equal(revival._phase_table(rates, step, 20), table[:20])


def found_example_inputs():
    """137 levels over 32,769 samples, B = 181: with 2 OpenBLAS threads,
    runs of two rows once summed these in another order than one run."""
    rng = np.random.default_rng(0)
    w = rng.random(137)
    w /= w.sum()
    return w, rng.uniform(0.0, 1.0, 137), (1 + np.arange(32769)) * 1e-4


@pytest.mark.parametrize("chunk", [500, 32768])
def test_short_runs_over_many_levels_give_the_bits_of_one_run(chunk, monkeypatch):
    w, rates, taus = found_example_inputs()
    assert len(list(kernel_runs(w, rates, taus[0], 1e-4, len(taus)))) == 1
    whole = autocorrelation(w, rates, taus).values
    monkeypatch.setattr(revival, "_CHUNK", chunk)
    assert len(list(kernel_runs(w, rates, taus[0], 1e-4, len(taus)))) > 1
    assert np.array_equal(autocorrelation(w, rates, taus).values, whole)


@pytest.mark.parametrize("levels, block", [(137, 181), (137, 77), (300, 16)])
def test_products_of_the_least_run_give_the_bits_of_a_taller_one(levels, block):
    # A run's product as the kernel takes it, of the fewest rows a run may
    # hold, against the same rows of a product of _CHUNK samples.
    rng = np.random.default_rng(levels * block)
    least = -(-revival._MIN_RUN // block)
    height = revival._CHUNK // block
    lead = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, (height, levels))) / levels
    tail = revival._phase_table(rng.uniform(0.0, 1e3, levels), 1e-3, block).T
    whole = np.matmul(lead, tail)
    leads, products = np.empty((least, levels), dtype=complex), np.empty((least, block),
                                                                        dtype=complex)
    for row in (0, height // 2, height - least):
        leads[...] = lead[row:row + least]
        run = np.matmul(leads, tail, out=products)
        assert np.array_equal(run, whole[row:row + least])


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
    assert revival._uniform_progression(taus)[::2] == (taus[0], False)
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


def test_other_grids_are_refused_before_any_kernel_run(monkeypatch):
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    uniform = np.arange(LONG, dtype=float) * 1e-3
    nudged = uniform.copy()
    nudged[LONG // 2] += 1e-9
    grids = {
        "nudged": nudged,
        "jittered": np.sort(np.random.default_rng(5).uniform(0.0, 65.0, LONG)),
        "geometric": np.geomspace(1e-3, 65.0, LONG),
        "both signs": uniform - uniform[LONG // 2],
        "empty": np.empty(0),
    }

    def kernel(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(revival, "_blocked_amplitudes", kernel)
    for taus in grids.values():
        with pytest.raises(ValueError, match="grid"):
            autocorrelation(w, rates, taus)


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
    predicted = barker(WellConfig(epsilon=DEEP_EPSILON))
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
    return w, rates, barker(WellConfig(epsilon=epsilon))


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
def test_refinement_keeps_the_exact_invariants(inputs):
    w, rates, predicted = inputs()
    tau_star = principal_revival(w, rates, predicted)[0]
    taus = detection_grid(tau_star - 0.01, tau_star + 0.01, 1e-4)
    window = (taus[0], taus[-1])
    base = detect_revival(autocorrelation(w, rates, taus), window)
    mirrored = detect_revival(autocorrelation(w, rates, -taus[::-1]),
                              (-window[1], -window[0]))
    assert mirrored == (-base[0], base[1])
    for power in (-3, 5):
        scaled = detect_revival(autocorrelation(np.ldexp(w, power), rates, taus),
                                window)
        assert scaled == (base[0], np.ldexp(base[1], 2 * power))


@pytest.mark.parametrize("taus", [
    detection_grid(-0.01, 0.01, 1e-4),
    (np.arange(-100, 100) + 0.5) * 1e-4,
], ids=["sample at 0", "samples straddling 0"])
def test_peak_at_time_zero_stays_at_zero(taus):
    # autocorrelation refuses a grid that straddles zero, so the series is
    # built by hand; it carries its levels, so Newton refines the peak
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    series = AutocorrSeries(tau=taus, values=direct_series(w, rates, taus),
                            weights=w, rates=rates)
    tau_star, height = detect_revival(series, (-0.005, 0.005))
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
    period = barker(WellConfig(epsilon=epsilon))
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
    return w, rates, barker(WellConfig(epsilon=12.0)), 40.0


def squeezed_scan_inputs():  # a squeezed vacuum of the superrevival_scan bench
    return oscillator_scan_inputs(0.001893939393939394, squeeze=5.455408877250766)


def coherent_scan_inputs():  # a coherent state of the superrevival_scan bench
    return oscillator_scan_inputs(0.0027548209366391185, alpha=4.54412780286066)


def materialised_envelope(w, rates, period, horizon):
    taus = scan_grid(horizon)
    # the scan runs the kernel at SCAN_STEP, autocorrelation at the step it
    # infers from the grid: the same here
    assert revival._uniform_progression(taus)[1] == SCAN_STEP
    series = autocorrelation(w, rates, taus)
    n_cycles = int(np.floor((series.tau[-1] - series.tau[0]) / period))
    return series, mask_envelope(series.tau, series.values, period, n_cycles)


def unit_scale(w):
    """The power of two by which the scan scales the carried weights ``w``."""
    return -math.frexp(np.sum(w))[1]


def screened_envelope(w, rates, horizon, period):
    """The screen's heights of every whole cycle, in the scan's unit-weight
    scale, and the margin that bounds their error."""
    w, rates = revival._carried_levels(w, rates)
    w = np.ldexp(w, unit_scale(w))
    count = len(scan_grid(horizon))
    n_cycles = int(np.floor((count - 1) * SCAN_STEP / period))
    tables = revival._BlockTables(rates, 0.0, SCAN_STEP, count)
    runs = list(revival._screened_heights(w, tables, period, n_cycles))
    assert [k for k, _ in runs] == np.cumsum([0] + [len(h) for _, h in runs[:-1]]).tolist()
    return np.concatenate([h for _, h in runs]), revival._screen_margin(len(rates))


def assert_screen_bounds_the_envelope(w, rates, period, horizon, series, heights):
    screened, margin = screened_envelope(w, rates, horizon, period)
    reference = np.ldexp(heights, 2 * unit_scale(series.weights))
    assert len(screened) == len(heights)
    assert np.max(np.abs(screened - reference)) <= margin


@pytest.mark.parametrize("inputs", [fig5_scan_inputs, fig2_scan_inputs,
                                    squeezed_scan_inputs, coherent_scan_inputs])
def test_streamed_scan_matches_the_materialised_path(inputs):
    w, rates, period, horizon = inputs()
    series, (heights, _) = materialised_envelope(w, rates, period, horizon)
    assert_screen_bounds_the_envelope(w, rates, period, horizon, series, heights)
    expected = mask_superrevival(series, period)
    assert expected is not None
    assert scan_superrevival(w, rates, horizon, period) == expected


def test_streamed_scan_folds_across_short_runs(monkeypatch):
    # 10,501 samples: B = 102 does not divide the count, and runs of two or
    # three rows end inside every revival cycle.
    w, rates, period, _ = fig2_scan_inputs()
    horizon = 10.5
    reference, _ = materialised_envelope(w, rates, period, horizon)
    # fig2's few levels give every run the bits of one at any height
    monkeypatch.setattr(revival, "_CHUNK", 400)
    monkeypatch.setattr(revival, "_MIN_RUN", 200)
    runs = list(kernel_runs(reference.weights, reference.rates, 0.0, SCAN_STEP,
                            len(reference.tau)))
    assert len(runs) > 10 and all(0 < len(a) <= 400 for _, a in runs)
    series, (heights, _) = materialised_envelope(w, rates, period, horizon)
    assert np.allclose(series.values, reference.values, rtol=0, atol=1e-12)
    assert_screen_bounds_the_envelope(w, rates, period, horizon, series, heights)
    assert scan_superrevival(w, rates, horizon, period) == \
        mask_superrevival(series, period)


def fake_kernel(amps, edges):
    """A kernel that yields the ``samples`` of ``amps`` in pieces cut at
    ``edges``, in the precision asked for."""
    def kernel(w, tables, samples=None, dtype=complex):
        assert tables.count == len(amps)
        lo, hi = samples or (0, len(amps))
        cuts = np.unique(np.clip(np.r_[lo, edges, hi], lo, hi))
        for a, b in zip(cuts[:-1], cuts[1:]):
            yield int(a), amps[a:b].astype(dtype)
    return kernel


def test_fold_keeps_the_first_maximum_across_run_edges(monkeypatch):
    rng = np.random.default_rng(22)
    for _ in range(40):
        count = int(rng.integers(200, 3000))
        # amplitudes 0..3 square exactly, and their few levels make ties common
        amps = rng.integers(0, 4, count).astype(complex)
        edges = rng.integers(1, count, 12)
        monkeypatch.setattr(revival, "_blocked_amplitudes", fake_kernel(amps, edges))
        period = rng.uniform(4.0, 60.0) * SCAN_STEP
        tau = np.arange(count, dtype=float) * SCAN_STEP
        n_cycles = int(np.floor(tau[-1] / period))
        heights, peak_taus = mask_envelope(tau, np.abs(amps) ** 2, period, n_cycles)
        tables = SimpleNamespace(block=math.isqrt(count), count=count, start=0.0,
                                 step=SCAN_STEP)
        screened = np.concatenate([h for _, h in revival._screened_heights(
            None, tables, period, n_cycles)])
        assert np.array_equal(screened, heights)
        starts = revival._cycle_starts(0, n_cycles + 1, period)
        for k in range(n_cycles):
            assert revival._float64_peak(None, tables, starts[k],
                                         starts[k + 1]) == (heights[k], peak_taus[k])


@pytest.mark.parametrize("period", [0.004, 0.007, 0.01, 0.1, 1.0 / 3.0,
                                    1.0201258688090753])
def test_cycle_starts_match_the_floor_of_every_sample(period):
    last = 600000
    n_cycles = int(np.floor(last * SCAN_STEP / period))
    starts = revival._cycle_starts(0, n_cycles + 1, period)
    cycle = np.floor(np.arange(last + 1, dtype=float) * SCAN_STEP / period)
    expected = np.searchsorted(cycle, np.arange(n_cycles + 1))
    assert np.array_equal(starts, expected)
    assert starts[-1] <= last


def test_cycle_starts_correct_the_estimate_both_ways():
    period, n_cycles = 0.007, 85714
    k = np.arange(n_cycles + 1)
    estimate = np.ceil(k * period / SCAN_STEP).astype(np.int64)
    miss = estimate - revival._cycle_starts(0, n_cycles + 1, period)
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
    period = barker(WellConfig(epsilon=30.0))
    tracemalloc.start()
    try:
        detected = scan_superrevival(w, rates, 4000.0, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert detected == 201.472  # 4,000,001 samples
    assert peak < 16 * 2 ** 20


def test_scan_memory_follows_its_levels_not_its_horizon():
    # a coherent state of the superrevival_scan bench: 83 levels carried
    # over 600,001 samples, scanned to the end
    w, rates, period, horizon = oscillator_scan_inputs(1.0 / 450, alpha=5.8)
    levels = len(revival._carried_levels(w, rates)[0])
    count = len(scan_grid(horizon))
    block = min(math.isqrt(count), revival._MAX_BLOCK)
    width = max(revival._CHUNK // block, 2 * -(-revival._MIN_RUN // block) - 1)
    # the complex128 tail and lead tables and the complex64 tail, then one
    # run's complex128 lead, complex64 cast and complex64 product; a tenth
    # more for the float64 recomputes beside it and their temporaries
    tables = block * levels * (16 + 16 + 8)
    run = width * levels * (16 + 8) + width * block * 8
    tracemalloc.start()
    try:
        detected = scan_superrevival(w, rates, horizon, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (levels, count, detected) == (83, 600001, 450.0)
    assert peak < (tables + run) * 11 // 10


def test_long_horizon_scan_holds_no_per_cycle_arrays():
    # 852,000 whole cycles fit in the horizon, but the recovery comes in
    # the 13th: nothing is held per cycle that has not been sampled
    w, rates, _ = well_inputs(12.0, PAPER_PACKET)
    period = barker(WellConfig(epsilon=12.0))
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
    """``[count, runs taken, end of the last run taken, dtype, samples]``
    per kernel call."""
    calls = []
    kernel = revival._blocked_amplitudes

    def spy(*args, **kwargs):
        call = [args[1].count, 0, 0, kwargs.get("dtype", complex), kwargs.get("samples")]
        calls.append(call)
        for j0, amps in kernel(*args, **kwargs):
            call[1:3] = call[1] + 1, j0 + len(amps)
            yield j0, amps

    monkeypatch.setattr(revival, "_blocked_amplitudes", spy)
    return calls


def screen_calls(calls):
    return [call for call in calls if call[3] is np.complex64]


def float64_samples(calls):
    """Sample ranges of the scan's float64 products: the head's, then one
    per cycle recomputed."""
    return [tuple(map(int, call[4])) for call in calls
            if call[3] is complex and call[4] is not None]


def test_full_horizon_scan_holds_one_run_in_memory(consumed_runs):
    w, rates, _ = well_inputs(100.0, PAPER_PACKET)
    period = barker(WellConfig(epsilon=100.0))
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooShortError):
            scan_superrevival(w, rates, 4000.0, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(count, taken, end, _, samples)] = screen_calls(consumed_runs)
    # the grid holds 4,000,001 samples; its last whole cycle ends at 3,999,813
    n_cycles = int(4000.0 // period)
    assert count == 4000001 and taken > 1
    assert samples == (0, end) and end == revival._cycle_starts(n_cycles, n_cycles + 1,
                                                                period)[0] == 3999813
    assert float64_samples(consumed_runs)[0] == (0, 1)
    assert peak < 16 * 2 ** 20


def test_scan_stops_with_the_run_that_completes_the_recovery(consumed_runs):
    w, rates, period, horizon = fig5_scan_inputs()
    assert scan_superrevival(w, rates, horizon, period) == 31.372
    [(count, taken, end, _, _)] = screen_calls(consumed_runs)
    every = len(list(kernel_runs(w, rates, 0.0, SCAN_STEP, 600001)))
    assert count == 600001 and taken == 1 < every
    assert 31372 < end < count
    # the head, then the recovering cycle's own samples
    (head, recovery) = float64_samples(consumed_runs)
    cycle = int(31.372 // period)
    assert head == (0, 1)
    assert recovery == tuple(revival._cycle_starts(cycle, cycle + 2, period))
    assert recovery[0] <= 31372 < recovery[1]


@pytest.mark.parametrize("case", ["none", "short"])
def test_scan_without_a_recovery_takes_every_run(case, box_state, consumed_runs,
                                                 monkeypatch):
    monkeypatch.setattr(revival, "_CHUNK", 400)
    monkeypatch.setattr(revival, "_MIN_RUN", 200)
    w, rates, period, horizon = {
        "none": (box_state.weights, box_state.rates, 1.0, 8.0),
        "short": fig2_scan_inputs()[:3] + (4.0,),
    }[case]
    expected = {"none": None, "short": HorizonTooShortError}[case]
    assert outcome(lambda: scan_superrevival(w, rates, horizon, period)) == expected
    [(count, taken, end, _, samples)] = screen_calls(consumed_runs)
    # every sample up to the end of the last whole cycle, and none past it
    n_cycles = int((count - 1) * SCAN_STEP // period)
    assert end == revival._cycle_starts(n_cycles, n_cycles + 1, period)[0] <= count
    every = len(list(kernel_runs([1.0], [0.0], 0.0, SCAN_STEP, count, samples=(0, end))))
    assert samples == (0, end) and taken == every >= 10


# --- single-precision screen ----------------------------------------------


def box_scan_inputs(box_state):
    return box_state.weights, box_state.rates, 1.0, 8.0


def deep_well_scan_inputs():  # every one of the 6,367 levels carries weight
    w, rates, _ = well_inputs(1e4, PAPER_PACKET)
    return w, rates, barker(WellConfig(epsilon=1e4)), 10.0


@pytest.mark.parametrize("inputs", [fig5_scan_inputs, fig2_scan_inputs, "box",
                                    coherent_scan_inputs, squeezed_scan_inputs,
                                    deep_well_scan_inputs])
def test_screen_stays_within_its_margin_at_every_sample(inputs, box_state):
    w, rates, _, horizon = box_scan_inputs(box_state) if inputs == "box" else inputs()
    w, rates = revival._carried_levels(w, rates)
    w = np.ldexp(w, unit_scale(w))
    taus = scan_grid(horizon)
    exact = autocorrelation(w, rates, taus).values
    screen = np.empty(len(taus), dtype=np.float32)
    for j0, amps in kernel_runs(w, rates, 0.0, SCAN_STEP, len(taus), dtype=np.complex64):
        screen[j0:j0 + len(amps)] = np.square(amps.real) + np.square(amps.imag)
    margin = revival._screen_margin(len(rates))
    assert np.max(np.abs(screen - exact)) <= margin
    # the margin, about (6 + 4 sqrt(2) N) 2**-24, holds the unit roundoff's
    # growth with the level count and no more
    assert margin < (7 + 6 * len(rates)) * 2.0 ** -24


def derived_screen_margin(levels):
    """The bound that ``_screen_margin``'s closed form must dominate, for
    an array of level counts below ``2**20``: ``d * (2S + d)`` plus the
    squaring's error ``e * (S + d)**2``, summed over the float32 screen and
    the float64 kernel, widened by ``2**-20`` of itself and by ``2**-50``."""
    s = 1.0 + 2.0 ** -30

    def bound(u, square):
        gamma = 2 * levels * u / (1.0 - 2 * levels * u)
        d = (2 * u + u * u + math.sqrt(2.0) * gamma * (1.0 + u) ** 2) * s
        return d * (2 * s + d) + square * (s + d) ** 2

    u32, u64 = 2.0 ** -24, 2.0 ** -53
    screen = bound(u32, 2 * u32 / (1.0 - 2 * u32)) + bound(u64, 64 * u64)
    return screen * (1.0 + 2.0 ** -20) + 2.0 ** -50


def test_screen_margin_dominates_its_derivation():
    levels = np.arange(1, 2 ** 20)
    margin = np.fromiter(map(revival._screen_margin, levels.tolist()), float, len(levels))
    derived = derived_screen_margin(levels.astype(float))
    assert np.all(margin >= derived)
    # by under 1 % up to 6,400 levels, so the float64 recomputes stay as rare
    assert np.all(margin[:6400] < 1.01 * derived[:6400])
    assert revival._screen_margin(2 ** 20) == math.inf


def test_a_cycle_the_screen_cannot_decide_is_recomputed(consumed_runs, monkeypatch):
    w, rates, period, horizon = fig2_scan_inputs()
    series, (heights, _) = materialised_envelope(w, rates, period, horizon)
    first_dip = int(np.argmax(heights < 0.95 * heights.max()))
    # a level at the dip's exact height, well inside the margin
    threshold = heights[first_dip] / heights.max()
    monkeypatch.setattr(revival, "SUPERREVIVAL_THRESHOLD", threshold)
    detected = outcome(lambda: scan_superrevival(w, rates, horizon, period))
    assert detected == mask_superrevival(series, period, threshold)
    # the head, the cycle at the level and the recovering cycle after it
    head, *cycles, recovery = float64_samples(consumed_runs)
    dip = tuple(revival._cycle_starts(first_dip, first_dip + 2, period))
    assert head == (0, 1) and recovery[0] >= dip[1]
    assert dip in cycles


@pytest.mark.parametrize("inputs", [fig2_scan_inputs, coherent_scan_inputs, "box",
                                    "short"])
def test_power_of_two_weight_scalings_scan_alike(inputs, box_state):
    w, rates, period, horizon = {
        "box": lambda: box_scan_inputs(box_state),
        "short": lambda: fig2_scan_inputs()[:3] + (4.0,),
    }.get(inputs, inputs)()
    expected = outcome(lambda: scan_superrevival(w, rates, horizon, period))
    for power in (-200, 200):
        scaled = np.ldexp(w, power)
        assert outcome(lambda: scan_superrevival(scaled, rates, horizon, period)) == \
            expected


@pytest.mark.parametrize("m, alpha", [(363, 4.54412780286066), (418, 5.845121808057226),
                                      (500, 4.5)])
def test_coherent_states_superrevive_at_their_exact_recurrence(m, alpha):
    # At beta = 1/m the phase 2 pi (n^2 + n^3/m) is a multiple of 2 pi for
    # every n at tau = m, and already at m/2 when m is odd: n^2 (m + n) / 2
    # is then an integer.  The envelope recovers there, on the grid.
    w, rates, period, horizon = oscillator_scan_inputs(1.0 / m, alpha=alpha)
    recurrence = Fraction(m, 2) if m % 2 else Fraction(m)
    n = coherent_weights(alpha).n
    assert all((k * k * recurrence * (m + k) / m).denominator == 1 for k in n.tolist())
    assert recurrence < horizon
    assert scan_superrevival(w, rates, horizon, period) == float(recurrence)


# --- comparison report ----------------------------------------------------


def test_table1_retries_an_ambiguous_window():
    # Both default-window peaks (near 1.508 and 2.009) lie within 1 %; the
    # narrow retry window keeps the one nearest the prediction.
    eps = 4.712860219282728
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (report,) = table1_rows([eps])
    w, rates, _ = well_inputs(eps, PAPER_PACKET)
    predicted = barker(WellConfig(epsilon=eps))
    with pytest.raises(AmbiguousWindowError):
        lo, hi = 0.9 * predicted, 1.5 * predicted
        detect_revival(autocorrelation(w, rates, detection_grid(lo, hi, 1e-4)),
                       (lo, hi))
    assert report["detected"] == principal_revival(w, rates, predicted)[0]
    # The maximum of |A|^2 there is 1.508184648792057229... (40 digits); the
    # parabola through the grid triple put it at 1.5081846466397775.  The
    # top level's beta behind it matches mpmath to 1e-12 (test_spectrum.py).
    assert report["detected"] == 1.5081846487920572
    root, peak = mp_peak(w, rates, report["detected"])
    assert abs(report["detected"] - float(root)) < 1e-12
    assert abs(report["peak_height"] - float(peak)) < 1e-12


def test_window_edge_peak_is_refused():
    w, rates, _ = well_inputs(4.712628857664328,
                              GaussianSpec(x0=-0.15839646014543776,
                                           sigma=0.08053085345697969))
    predicted = barker(WellConfig(epsilon=4.712628857664328))
    with pytest.raises(EdgePeakError, match="edge"):
        principal_revival(w, rates, predicted)


@pytest.fixture(scope="module")
def reports():
    return table1_rows([12.0, 30.0, 100.0])


def test_report_prediction_column_is_closed_form(reports):
    for r in reports:
        exact = (1.0 + 1.0 / r["epsilon"]) ** 2
        assert abs(r["barker"] - exact) < 1e-12


def test_report_errors_shrink_with_depth(reports):
    errors = [r["percent_error"] for r in reports]
    assert errors[0] > errors[1] > errors[2]


def test_report_detected_times_drop_toward_unity(reports):
    detected = [r["detected"] for r in reports]
    assert detected[0] > detected[1] > detected[2] > 1.0


def test_report_percent_error_definition(reports):
    r = reports[0]
    manual = 100.0 * abs(r["detected"] - r["barker"]) / r["detected"]
    assert abs(r["percent_error"] - manual) < 1e-12


def test_report_carries_scan_metadata(reports):
    for r in reports:
        assert r["completeness"] >= 0.999
