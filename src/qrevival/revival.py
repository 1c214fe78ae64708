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
from .spectrum import WellConfig, barker, solve_spectrum
from .wavepacket import GaussianSpec, project

_CHUNK = 65536
DETECTION_MAX_STEP = 1e-4
REFINE_TOL = 1e-9
_NEWTON_STEPS = 20
AMBIGUITY_BAND = 0.01
SUPERREVIVAL_THRESHOLD = 0.95
ENVELOPE_STEP = 1e-3
DEFAULT_WINDOW = (0.9, 1.5)
RETRY_WINDOW = (0.95, 1.05)


@dataclass(frozen=True)
class AutocorrSeries:
    """Sampled ``|A(tau)|^2`` over a strictly increasing scaled-time grid.

    A series from :func:`autocorrelation` also carries the weights and phase
    rates of its levels, so ``A`` and its derivatives can be evaluated off
    the grid; a series built from samples alone has neither.
    """

    tau: np.ndarray
    values: np.ndarray
    provenance: str = ""
    weights: np.ndarray | None = None
    rates: np.ndarray | None = None

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


def _carried_levels(weights, rates):
    """Validated weights and phase rates of the levels of nonzero weight."""
    w = np.asarray(weights, dtype=float)
    th = np.asarray(rates, dtype=float)
    if w.shape != th.shape:
        raise ValueError("weights and phase rates must align")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    carry = w > 0  # zero weights contribute exactly nothing
    return w[carry], th[carry]


def autocorrelation(weights, rates, tau_grid, provenance: str = "") -> AutocorrSeries:
    """Squared autocorrelation for nonnegative weights and phase rates.

    Grids whose ``|tau|`` form one uniform progression take the
    block-factored kernel; every other grid is summed directly, ``_CHUNK``
    samples at a time.  The series carries the levels of nonzero weight.
    """
    w, th = _carried_levels(weights, rates)
    taus = np.asarray(tau_grid, dtype=float)
    progression = _uniform_progression(taus) if len(taus) > 1 else None
    out = np.empty(len(taus))
    if progression is not None:
        start, step, descending = progression
        for j0, amps in _blocked_amplitudes(w, th, start, step, len(taus)):
            out[j0:j0 + len(amps)] = np.abs(amps) ** 2
        if descending:
            out = out[::-1].copy()
    else:
        for start in range(0, len(taus), _CHUNK):
            t = taus[start:start + _CHUNK]
            amps = np.exp(-1j * np.outer(t, th)) @ w
            out[start:start + _CHUNK] = np.abs(amps) ** 2
    return AutocorrSeries(tau=taus.copy(), values=out, provenance=provenance,
                          weights=w, rates=th)


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
    """``A`` at ``start + j*step``, ``j < count``, by one factored GEMM.

    With ``B = floor(sqrt(count))`` and ``j = b*B + r``, the phase factors
    into ``exp(-i th (start + b*B*step))`` and ``exp(-i th r*step)``, so
    ``N*(B + count/B)`` exponentials replace ``N*count``.  The product is
    taken in balanced runs of whole rows, yielded as ``(j0, amps)`` with
    ``amps`` holding ``A`` from ``j0`` on, so no caller need hold more than
    one run.  A run holds at most ``_CHUNK`` samples, or two or three rows
    when fewer than three fit, and it is never a single row of a longer
    product: numpy sends a one-row product to GEMV, which sums in another
    order, while longer runs give the bits of the whole product.  The time
    of every sample is a function of ``j`` alone, and the weights enter one
    GEMM operand linearly, so mirrored grids and power-of-two weight
    scalings give bit-identical and exactly scaled series.
    """
    block = math.isqrt(count)
    rows = -(-count // block)
    runs = max(1, min(-(-rows // max(1, _CHUNK // block)), rows // 2))
    tail = np.exp(-1j * np.outer(th, np.arange(block) * step))
    for k in range(runs):
        b0, b1 = k * rows // runs, (k + 1) * rows // runs
        heads = start + (np.arange(b0, b1) * block) * step
        lead = w * np.exp(-1j * np.outer(heads, th))
        j0 = b0 * block
        yield j0, (lead @ tail).ravel()[:count - j0]


def _local_maxima(values):
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    return np.flatnonzero(interior) + 1


def _window_bounds(tau, window):
    """Slice bounds of the samples of ``tau`` inside ``window``."""
    lo, hi = window
    i0, i1 = np.searchsorted(tau, [lo, hi + 1e-15])
    return int(i0), int(i1)


def detect_revival(series: AutocorrSeries, window):
    """Location and height of the principal peak inside ``window``.

    The grid peak is refined by parabolic interpolation through the peak
    triple; the triple is normalized by the peak value first, so rescaling
    every weight by a constant cannot move the result.  When the series
    carries its levels, Newton steps on ``d|A|^2/dtau`` then polish that
    vertex until a step is shorter than ``REFINE_TOL``, and the height is
    ``|A|^2`` there; if they do not converge within one grid step of the
    grid peak, the parabolic vertex stands.  A window holding two distinct
    local maxima within ``AMBIGUITY_BAND`` of each other is refused rather
    than silently resolved.
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

    y0, y2 = vals[peak - 1] / vals[peak], vals[peak + 1] / vals[peak]
    # (y0 + y2) is symmetric in the pair, so a mirrored grid mirrors the vertex
    denom = (y0 + y2) - 2.0
    if denom == 0:
        offset = 0.0
        height = float(vals[peak])
    else:
        offset = 0.5 * (y0 - y2) / denom
        offset = float(np.clip(offset, -1.0, 1.0))
        height = float(vals[peak] * (1.0 - 0.125 * (y0 - y2) ** 2 / denom))
    dt = taus[peak + 1] - taus[peak] if offset >= 0 else taus[peak] - taus[peak - 1]
    vertex = float(taus[peak] + offset * dt)
    if series.weights is None:
        return vertex, height
    # |A|^2 is even in time, so refine on |tau| and restore the sign.
    sign = math.copysign(1.0, taus[peak])
    near, far = sorted((abs(float(taus[peak - 1])), abs(float(taus[peak + 1]))))
    if taus[peak - 1] < 0.0 < taus[peak + 1]:
        near = 0.0
    refined = _newton_peak(series.weights, series.rates, abs(vertex), (near, far))
    if refined is None:
        return vertex, height
    return sign * refined[0], refined[1]


def _newton_peak(w, th, tau, bounds):
    """Maximum of ``|A|^2`` near ``tau`` and ``|A|^2`` there.

    With ``f = Re(A* A')``, Newton steps ``-f / (|A'|^2 + Re(A* A''))``
    move ``tau`` until a step is shorter than ``REFINE_TOL``.  Returns None,
    leaving the peak unrefined, when the curvature is not negative along the
    way, ``_NEWTON_STEPS`` steps do not converge, or the point reached lies
    outside ``bounds``: the grid then does not resolve the peak.  ``A``,
    ``A'`` and ``A''`` are linear in the weights, so a power-of-two rescaling
    of the weights leaves every step bit-identical.
    """
    for _ in range(_NEWTON_STEPS):
        terms = w * np.exp(-1j * th * tau)
        a = terms.sum()
        # A' = -i s1 and A'' = -s2
        s1 = (th * terms).sum()
        s2 = (th * th * terms).sum()
        slope = (a.conjugate() * s1).imag
        curvature = s1.real ** 2 + s1.imag ** 2 - (a.conjugate() * s2).real
        if not curvature < 0:
            return None
        move = -slope / curvature
        tau = tau + move
        if abs(move) < REFINE_TOL:
            break
    else:
        return None
    lo, hi = bounds
    if not lo <= tau <= hi:
        return None
    a = (w * np.exp(-1j * th * tau)).sum()
    return float(tau), float(a.real ** 2 + a.imag ** 2)


def _fold_cycles(heights, peak_taus, tau, values, t0, period):
    """Fold one sorted run of samples into the per-cycle envelope in place.

    Sample ``i`` belongs to cycle ``floor((tau[i] - t0) / period)``; cycles
    past ``len(heights)`` are dropped.  That index never decreases along the
    run, so each cycle is one contiguous segment, and a cycle takes the
    segment's first maximum only when it is strictly higher than what the
    cycle holds.  Folding consecutive runs thus keeps a cycle's first
    maximum across run edges.
    """
    cycle = np.floor((tau - t0) / period).astype(int)
    n = int(np.searchsorted(cycle, len(heights)))
    if n == 0:
        return
    cycle, tau, values = cycle[:n], tau[:n], values[:n]
    starts = np.flatnonzero(np.diff(cycle, prepend=cycle[0] - 1))
    best = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == np.repeat(best, np.diff(starts, append=n)))
    first = hits[np.searchsorted(hits, starts)]
    keys = cycle[starts]
    higher = best > heights[keys]
    heights[keys[higher]] = best[higher]
    peak_taus[keys[higher]] = tau[first[higher]]


def _cycle_envelope(tau, values, period, n_cycles):
    """Peak height and its time in each of ``n_cycles`` consecutive cycles.

    Cycle ``k`` holds the samples with ``floor((tau - tau[0]) / period) == k``;
    a cycle without samples has height ``-inf`` and time 0.  The series is
    one fold (:func:`_fold_cycles`), so each cycle keeps its first maximum.
    """
    heights = np.full(n_cycles, -np.inf)
    peak_taus = np.zeros(n_cycles)
    _fold_cycles(heights, peak_taus, tau, values, tau[0], period)
    return heights, peak_taus


def _cycle_count(span, period, step):
    """Whole revival cycles in ``span``, refusing periods the grid can't resolve."""
    if not period > 0:
        raise ValueError(f"revival period must be positive, got {period}")
    if period < 4.0 * step:
        raise ValueError("revival period must cover several grid steps")
    n_cycles = int(np.floor(span / period))
    if n_cycles < 2:
        raise ValueError("series must span at least two revival cycles")
    return n_cycles


def detect_superrevival(series: AutocorrSeries, revival_period: float):
    """First time the per-cycle peak envelope recovers after a collapse.

    The series is partitioned into consecutive revival cycles of length
    ``revival_period``; the envelope is the peak height per cycle.  Returns
    the peak time of the first cycle that re-attains
    ``SUPERREVIVAL_THRESHOLD`` of the envelope's global maximum after at
    least one full cycle below it.
    Returns ``None`` when the envelope never dips (no superrevival within
    the sampled horizon is distinguishable from none existing); raises
    :class:`HorizonTooShortError` when a dip is seen but the recovery is not.
    :func:`scan_superrevival` gives the same answer on a uniform grid
    without materialising the series.
    """
    tau = series.tau
    step = np.max(np.diff(tau)) if len(tau) > 1 else 0.0
    n_cycles = _cycle_count(tau[-1] - tau[0], revival_period, step)
    heights, peak_taus = _cycle_envelope(tau, series.values,
                                         revival_period, n_cycles)
    return _first_recovery(heights, peak_taus)


def scan_superrevival(weights, rates, horizon: float, revival_period: float):
    """:func:`detect_superrevival` over the grid ``j*ENVELOPE_STEP``, streamed.

    The grid runs to ``j = floor(horizon/ENVELOPE_STEP + 1e-9)``.  The blocked
    kernel's runs are folded into the envelope as they are computed, so
    memory stays at one run plus one entry per cycle however long the
    horizon.  Sample times, cycles and amplitudes are those of
    ``detect_superrevival(autocorrelation(weights, rates, grid), ...)`` bit
    for bit, and so are the result and the errors.
    """
    if not math.isfinite(horizon):
        raise ValueError(f"scan horizon must be finite, got {horizon}")
    w, th = _carried_levels(weights, rates)
    last = int(math.floor(horizon / ENVELOPE_STEP + 1e-9))
    n_cycles = _cycle_count(float(last) * ENVELOPE_STEP, revival_period,
                            ENVELOPE_STEP)
    heights, peak_taus = _scan_envelope(w, th, last, revival_period, n_cycles)
    return _first_recovery(heights, peak_taus)


def _scan_envelope(w, th, last, period, n_cycles):
    """Per-cycle envelope of ``|A|^2`` at ``j*ENVELOPE_STEP``, ``j <= last``."""
    heights = np.full(n_cycles, -np.inf)
    peak_taus = np.zeros(n_cycles)
    # the spacing autocorrelation infers from this grid's end points
    spacing = (float(last) * ENVELOPE_STEP) / last
    for j0, amps in _blocked_amplitudes(w, th, 0.0, spacing, last + 1):
        tau = np.arange(j0, j0 + len(amps), dtype=float) * ENVELOPE_STEP
        _fold_cycles(heights, peak_taus, tau, np.abs(amps) ** 2, 0.0, period)
    return heights, peak_taus


def _first_recovery(heights, peak_taus):
    """Peak time of the first cycle back at ``SUPERREVIVAL_THRESHOLD`` of the
    envelope's maximum after a dip; None without a dip, and
    :class:`HorizonTooShortError` for a dip without a recovery."""
    level = SUPERREVIVAL_THRESHOLD * heights.max()
    dipped = heights < level
    if not dipped.any():
        return None
    first_dip = int(np.argmax(dipped))
    recovered = np.flatnonzero(heights[first_dip + 1:] >= level)
    if len(recovered) == 0:
        raise HorizonTooShortError(
            f"envelope dips below {SUPERREVIVAL_THRESHOLD:.0%} at cycle "
            f"{first_dip} but never recovers within the sampled horizon")
    return float(peak_taus[first_dip + 1 + recovered[0]])


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


def principal_revival(weights, rates, predicted: float, provenance: str = ""):
    """Principal revival near ``predicted`` as ``(time, height)``.

    ``|A|^2`` is sampled every ``DETECTION_MAX_STEP`` on ``DEFAULT_WINDOW``
    times the prediction.  Packets with near-equal recurrences spaced a
    fraction of the revival period apart make that window ambiguous; it is
    then retried once on ``RETRY_WINDOW``, tight enough to isolate the peak
    nearest the prediction.  A window whose highest sample is its first or
    last holds no interior peak to refine, and is refused with
    :class:`EdgePeakError`.
    """
    try:
        return _window_revival(weights, rates, predicted, DEFAULT_WINDOW,
                               provenance)
    except AmbiguousWindowError:
        return _window_revival(weights, rates, predicted, RETRY_WINDOW,
                               provenance)


def _window_revival(weights, rates, predicted, scale, provenance):
    window = (scale[0] * predicted, scale[1] * predicted)
    taus = detection_grid(window[0], window[1], DETECTION_MAX_STEP)
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


def table1_report(packet: GaussianSpec, epsilons) -> list[RevivalReport]:
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
        predicted = barker(config).approx_revival_time
        detected, height = principal_revival(
            decomp.weights, states.rates, predicted,
            provenance=f"well(epsilon={eps})")
        reports.append(RevivalReport(
            epsilon=float(eps),
            detected_revival=detected,
            barker_predicted=predicted,
            percent_error=100.0 * abs(detected - predicted) / detected,
            peak_height_at_revival=height,
            completeness=decomp.completeness,
            grid_step=DETECTION_MAX_STEP,
            refine_tol=REFINE_TOL,
        ))
    return reports
