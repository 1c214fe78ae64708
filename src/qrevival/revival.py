"""Autocorrelation series, revival/superrevival detection, timescales.

The squared autocorrelation of a state with weights ``w_n`` and phase rates
``theta_n`` is ``|sum_n w_n exp(-i theta_n tau)|^2``, a pure function of the
weights and the spectrum.  The same machinery therefore serves the finite
well (``theta = 8 alpha^2 / pi``), the box (``theta = 2 pi n^2``) and the
cubic-nonlinear oscillator (``theta = 2 pi n^2 + 2 pi beta n^3``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousWindowError, EdgePeakError, HorizonTooShortError
from .spectrum import WellConfig, barker, phase_rates, solve_spectrum
from .wavepacket import GaussianSpec, project

_CHUNK = 65536
DETECTION_MAX_STEP = 1e-4
AMBIGUITY_BAND = 0.01
SUPERREVIVAL_THRESHOLD = 0.95
DEFAULT_WINDOW = (0.9, 1.5)
RETRY_WINDOW = (0.95, 1.05)


@dataclass(frozen=True)
class AutocorrSeries:
    """Sampled ``|A(tau)|^2`` over a strictly increasing scaled-time grid."""

    tau: np.ndarray
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if len(self.tau) != len(self.values):
            raise ValueError("grid and values must align")
        if len(self.tau) > 1 and not np.all(np.diff(self.tau) > 0):
            raise ValueError("time grid must be strictly increasing")


@dataclass(frozen=True)
class TimescaleHierarchy:
    """Characteristic times from local derivatives of the level spacing."""

    t_classical: float
    t_revival: float
    t_superrevival: float
    nbar: float
    n_center: int
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class RevivalReport:
    """Detected revival of one scenario against its closed-form prediction."""

    epsilon: float
    detected_revival: float
    barker_predicted: float
    percent_error: float
    peak_height_at_revival: float
    completeness: float
    grid_step: float
    refine_tol: float


def autocorrelation(weights, rates, tau_grid, provenance: str = "") -> AutocorrSeries:
    """Squared autocorrelation for nonnegative weights and phase rates.

    Grids of more than ``_CHUNK`` samples whose ``|tau|`` form one uniform
    progression take the block-factored kernel; every other grid is summed
    directly, ``_CHUNK`` samples at a time.
    """
    w = np.asarray(weights, dtype=float)
    th = np.asarray(rates, dtype=float)
    if w.shape != th.shape:
        raise ValueError("weights and phase rates must align")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    taus = np.asarray(tau_grid, dtype=float)
    carry = w > 0  # zero weights contribute exactly nothing
    w, th = w[carry], th[carry]
    progression = _uniform_progression(taus) if len(taus) > _CHUNK else None
    if progression is not None:
        start, step, descending = progression
        out = np.abs(_blocked_amplitudes(w, th, start, step, len(taus))) ** 2
        if descending:
            out = out[::-1].copy()
    else:
        out = np.empty(len(taus))
        for start in range(0, len(taus), _CHUNK):
            t = taus[start:start + _CHUNK]
            amps = np.exp(-1j * np.outer(t, th)) @ w
            out[start:start + _CHUNK] = np.abs(amps) ** 2
    return AutocorrSeries(tau=taus.copy(), values=out, provenance=provenance)


def _uniform_progression(taus):
    """``(a_0, step, descending)`` when ``|taus|`` is ``a_0 + j*step`` for
    ``j = 0, 1, ...`` in ascending order to within rounding, else None.

    ``descending`` says the caller's grid runs through that progression
    backwards, as a grid of negative times does.
    """
    a = np.abs(taus)
    descending = bool(a[-1] < a[0])
    if descending:
        a = a[::-1]
    step = (a[-1] - a[0]) / (len(a) - 1)
    if not step > 0:
        return None
    # Grids built as k*step or by linspace sit within an ulp of the line.
    drift = np.max(np.abs(a - (a[0] + np.arange(len(a)) * step)))
    if not drift <= 4.0 * np.finfo(float).eps * a[-1]:
        return None
    return float(a[0]), float(step), descending


def _blocked_amplitudes(w, th, start, step, count):
    """``A`` at ``start + j*step``, ``j < count``, as one complex GEMM.

    With ``B = floor(sqrt(count))`` and ``j = b*B + r``, the phase factors
    into ``exp(-i th (start + b*B*step))`` and ``exp(-i th r*step)``, so
    ``N*(B + count/B)`` exponentials replace ``N*count``.  The time of every
    sample is a function of ``j`` alone, and the weights enter one GEMM
    operand linearly, so mirrored grids and power-of-two weight scalings
    give bit-identical and exactly scaled series.
    """
    block = math.isqrt(count)
    rows = -(-count // block)
    heads = start + (np.arange(rows) * block) * step
    lead = w * np.exp(-1j * np.outer(heads, th))
    tail = np.exp(-1j * np.outer(th, np.arange(block) * step))
    return (lead @ tail).ravel()[:count]


def _local_maxima(values):
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    return np.flatnonzero(interior) + 1


def _window_bounds(tau, window):
    """Slice bounds of the samples of ``tau`` inside ``window``."""
    lo, hi = window
    i0, i1 = np.searchsorted(tau, [lo, hi + 1e-15])
    return int(i0), int(i1)


def detect_revival(series: AutocorrSeries, window, refine_tol: float = 1e-9):
    """Location and height of the principal peak inside ``window``.

    The grid peak is refined by parabolic interpolation through the peak
    triple; the triple is normalized by the peak value first, so rescaling
    every weight by a constant cannot move the result.  A window holding two
    distinct local maxima within ``AMBIGUITY_BAND`` of each other is refused
    rather than silently resolved.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"empty window {window}")
    if series.tau[0] > lo + DETECTION_MAX_STEP or \
            series.tau[-1] < hi - DETECTION_MAX_STEP:
        raise ValueError("window is not covered by the sampled range")
    i0, i1 = _window_bounds(series.tau, window)
    taus = series.tau[i0:i1]
    vals = series.values[i0:i1]
    if len(taus) < 3:
        raise ValueError("window contains fewer than three samples")
    step = np.max(np.diff(taus))
    if step > DETECTION_MAX_STEP * (1.0 + 1e-9):
        raise ValueError(
            f"grid step {step:.2e} in window exceeds {DETECTION_MAX_STEP:.0e}")

    peak = int(np.argmax(vals))
    maxima = _local_maxima(vals)
    rivals = maxima[vals[maxima] >= (1.0 - AMBIGUITY_BAND) * vals[peak]]
    if len(rivals) > 1:
        locs = [float(taus[i]) for i in rivals]
        raise AmbiguousWindowError(
            f"window {window} holds {len(rivals)} near-equal peaks at {locs}")

    if peak == 0 or peak == len(vals) - 1:
        return float(taus[peak]), float(vals[peak])

    y0, y1, y2 = vals[peak - 1] / vals[peak], 1.0, vals[peak + 1] / vals[peak]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0:
        offset = 0.0
        height = float(vals[peak])
    else:
        offset = 0.5 * (y0 - y2) / denom
        offset = float(np.clip(offset, -1.0, 1.0))
        height = float(vals[peak] * (y1 - 0.125 * (y0 - y2) ** 2 / denom))
    dt = taus[peak + 1] - taus[peak] if offset >= 0 else taus[peak] - taus[peak - 1]
    return float(taus[peak] + offset * dt), height


def _cycle_envelope(tau, values, period, n_cycles):
    """Peak height and its time in each of ``n_cycles`` consecutive cycles.

    Cycle ``k`` holds the samples with ``floor((tau - tau[0]) / period) == k``;
    a cycle without samples has height ``-inf`` and time 0.  That index never
    decreases along a sorted grid, so each cycle is one contiguous slice and
    its first maximum is found in one pass over the series.
    """
    cycle = np.floor((tau - tau[0]) / period).astype(int)
    bounds = np.searchsorted(cycle, np.arange(n_cycles + 1))
    heights = np.full(n_cycles, -np.inf)
    peak_taus = np.zeros(n_cycles)
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            i = lo + int(np.argmax(values[lo:hi]))
            heights[k] = values[i]
            peak_taus[k] = tau[i]
    return heights, peak_taus


def detect_superrevival(series: AutocorrSeries, revival_period: float,
                        threshold: float = SUPERREVIVAL_THRESHOLD):
    """First time the per-cycle peak envelope recovers after a collapse.

    The series is partitioned into consecutive revival cycles of length
    ``revival_period``; the envelope is the peak height per cycle.  Returns
    the peak time of the first cycle that re-attains ``threshold`` of the
    envelope's global maximum after at least one full cycle below it.
    Returns ``None`` when the envelope never dips (no superrevival within
    the sampled horizon is distinguishable from none existing); raises
    :class:`HorizonTooShortError` when a dip is seen but the recovery is not.
    """
    if not revival_period > 0:
        raise ValueError(f"revival period must be positive, got {revival_period}")
    t0 = series.tau[0]
    span = series.tau[-1] - t0
    if len(series.tau) > 1 and revival_period < 4.0 * np.max(np.diff(series.tau)):
        raise ValueError("revival period must cover several grid steps")
    n_cycles = int(np.floor(span / revival_period))
    if n_cycles < 2:
        raise ValueError("series must span at least two revival cycles")
    heights, peak_taus = _cycle_envelope(series.tau, series.values,
                                         revival_period, n_cycles)

    global_max = heights.max()
    dipped = heights < threshold * global_max
    if not dipped.any():
        return None
    first_dip = int(np.argmax(dipped))
    recovered = np.flatnonzero((np.arange(n_cycles) > first_dip)
                               & (heights >= threshold * global_max))
    if len(recovered) == 0:
        raise HorizonTooShortError(
            f"envelope dips below {threshold:.0%} at cycle {first_dip} but "
            f"never recovers within the sampled horizon")
    return float(peak_taus[recovered[0]])


def timescales(weights, energies, indices=None) -> TimescaleHierarchy:
    """Hierarchy of times from central differences of ``E(n)``.

    ``energies`` must sit on consecutive integer indices.  Differences are
    taken at the integer nearest the weight-averaged index, shifted inward
    when the third difference's five-point span would leave the spectrum.
    Timescales follow ``2 pi / (|d^k E| / k!)``; a vanishing difference maps
    to an infinite timescale rather than a division error.
    """
    w = np.asarray(weights, dtype=float)
    e = np.asarray(energies, dtype=float)
    if w.shape != e.shape:
        raise ValueError("weights and energies must align")
    n = np.arange(len(e)) if indices is None else np.asarray(indices)
    if len(n) != len(e) or (len(n) > 1 and not np.all(np.diff(n) == 1)):
        raise ValueError("energies must sit on consecutive integer indices")
    if len(e) < 5:
        raise ValueError("need at least five consecutive levels around nbar")
    if w.sum() <= 0:
        raise ValueError("weights must carry positive total mass")

    nbar = float((n * w).sum() / w.sum())
    center = int(np.clip(round(nbar), n[0] + 2, n[-1] - 2))
    i = int(center - n[0])
    d1 = 0.5 * (e[i + 1] - e[i - 1])
    d2 = e[i + 1] - 2.0 * e[i] + e[i - 1]
    d3 = 0.5 * (e[i + 2] - 2.0 * e[i + 1] + 2.0 * e[i - 1] - e[i - 2])

    def timescale(value, factorial):
        scale = abs(value) / factorial
        return float(2.0 * np.pi / scale) if scale > 1e-14 else np.inf

    return TimescaleHierarchy(
        t_classical=timescale(d1, 1.0),
        t_revival=timescale(d2, 2.0),
        t_superrevival=timescale(d3, 6.0),
        nbar=nbar,
        n_center=center,
        d1=float(d1), d2=float(d2), d3=float(d3),
    )


def detection_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Grid of exact integer multiples of ``step`` covering ``[lo, hi]``."""
    k0 = int(np.ceil(lo / step - 1e-9))
    k1 = int(np.floor(hi / step + 1e-9))
    if k1 < k0 + 2:
        raise ValueError("window too narrow for the requested step")
    return np.arange(k0, k1 + 1, dtype=float) * step


def principal_revival(weights, rates, predicted: float,
                      grid_step: float = DETECTION_MAX_STEP,
                      provenance: str = ""):
    """Principal revival near ``predicted`` as ``(time, height)``.

    ``|A|^2`` is sampled on ``DEFAULT_WINDOW`` times the prediction.  Packets
    with near-equal recurrences spaced a fraction of the revival period apart
    make that window ambiguous; it is then retried once on ``RETRY_WINDOW``,
    tight enough to isolate the peak nearest the prediction.  A window whose
    highest sample is its first or last holds no interior peak to refine, and
    is refused with :class:`EdgePeakError`.
    """
    try:
        return _window_revival(weights, rates, predicted, DEFAULT_WINDOW,
                               grid_step, provenance)
    except AmbiguousWindowError:
        return _window_revival(weights, rates, predicted, RETRY_WINDOW,
                               grid_step, provenance)


def _window_revival(weights, rates, predicted, scale, grid_step, provenance):
    window = (scale[0] * predicted, scale[1] * predicted)
    taus = detection_grid(window[0], window[1], grid_step)
    series = autocorrelation(weights, rates, taus, provenance=provenance)
    detected, height = detect_revival(series, window)
    i0, i1 = _window_bounds(series.tau, window)
    peak = i0 + int(np.argmax(series.values[i0:i1]))
    if peak in (i0, i1 - 1):
        raise EdgePeakError(
            f"window ({window[0]:.6g}, {window[1]:.6g}) peaks at its edge "
            f"sample {float(series.tau[peak])!r}; its maximum lies outside "
            f"the window")
    return detected, height


def table1_report(packet: GaussianSpec, epsilons,
                  grid_step: float = DETECTION_MAX_STEP,
                  refine_tol: float = 1e-9) -> list[RevivalReport]:
    """End-to-end revival comparison for a list of well strengths.

    For each strength: solve the spectrum, project the packet, find the
    principal revival around the effective-length prediction and report the
    percentage discrepancy.  Completeness warnings from the projection
    propagate to the caller.
    """
    reports = []
    for eps in epsilons:
        config = WellConfig(epsilon=float(eps))
        states = solve_spectrum(config)
        decomp = project(packet, states)
        weights = np.abs(decomp.coefficients) ** 2
        rates = phase_rates(states)
        predicted = barker(config).approx_revival_time
        detected, height = principal_revival(
            weights, rates, predicted, grid_step,
            provenance=f"well(epsilon={eps})")
        reports.append(RevivalReport(
            epsilon=float(eps),
            detected_revival=detected,
            barker_predicted=predicted,
            percent_error=100.0 * abs(detected - predicted) / detected,
            peak_height_at_revival=height,
            completeness=decomp.completeness,
            grid_step=grid_step,
            refine_tol=refine_tol,
        ))
    return reports
