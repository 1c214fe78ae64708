"""Autocorrelation series and revival/superrevival detection.

The squared autocorrelation of a state with weights ``w_n`` and phase rates
``theta_n`` is ``|sum_n w_n exp(-i theta_n tau)|^2``, a pure function of the
weights and the spectrum.  The same machinery therefore serves the finite
well (``theta = 8 alpha^2 / pi``), its ``epsilon = inf`` limit the box
(where that is ``2 pi n^2``) and the cubic-nonlinear oscillator (``theta =
2 pi n^2 + 2 pi beta n^3``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousWindowError, EdgePeakError, HorizonTooShortError
from .spectrum import WellConfig, barker, solve_spectrum
from .wavepacket import GaussianSpec, project

_CHUNK = 65536
# Widest block of the factored kernel: its N x B tail stays in cache.
_MAX_BLOCK = 2048
DETECTION_MAX_STEP = 1e-4
REFINE_TOL = 1e-9
_NEWTON_STEPS = 20
AMBIGUITY_BAND = 0.01
SUPERREVIVAL_THRESHOLD = 0.95
ENVELOPE_STEP = 1e-3
# Most scan steps: below 2**53 each float(j) * ENVELOPE_STEP has an exact index j.
MAX_SCAN_STEPS = 2 ** 53
# Largest grid detection_grid builds, refused before allocation.
MAX_SAMPLES = 10 ** 7
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
class RevivalReport:
    """Detected revival of one scenario against its closed-form prediction."""

    epsilon: float
    detected_revival: float
    barker_predicted: float
    percent_error: float
    peak_height_at_revival: float
    completeness: float


def _carried_levels(weights, rates):
    """Validated weights and phase rates of the levels that carry weight.

    The lightest levels, taken in ascending order of weight, are dropped
    while their combined weight stays at most ``2**-60 * sum(w)``; zero
    weights always go.  They move ``A`` by at most that mass, so ``|A|^2``
    by at most ``2**-59 * sum(w)**2``, below the kernel's own rounding.  The
    cut does not depend on time, and a power-of-two scaling of the weights
    scales its bound exactly, so both drop the same levels.  The kept levels
    stay in their original order.
    """
    w = np.asarray(weights, dtype=float)
    th = np.asarray(rates, dtype=float)
    if w.shape != th.shape:
        raise ValueError("weights and phase rates must align")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not (math.isfinite(total) and np.all(np.isfinite(th))):
        raise ValueError("weights, their sum and phase rates must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    order = np.argsort(w, kind="stable")
    light = np.searchsorted(np.cumsum(w[order]), math.ldexp(total, -60), side="right")
    carry = np.ones(len(w), dtype=bool)
    carry[order[:light]] = False
    return w[carry], th[carry]


def autocorrelation(weights, rates, tau_grid, provenance: str = "") -> AutocorrSeries:
    """Squared autocorrelation for nonnegative weights and phase rates.

    Grids whose ``|tau|`` form one uniform progression take the
    block-factored kernel; every other grid is summed directly, ``_CHUNK``
    samples at a time.  The series carries the levels that carry weight
    (:func:`_carried_levels`).
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


def _phase_table(th, step, size):
    """``exp(-i th r*step)`` for ``r < size``, as a ``size x N`` array.

    Row ``r`` is the product, in ascending order, of the direct
    exponentials ``exp(-i th 2**k*step)`` at the powers of two in ``r``, so
    the table costs ``N*ceil(log2 size)`` exponentials and ``N*size``
    complex multiplies, and each row is a function of ``r`` alone.
    """
    table = np.empty((size, len(th)), dtype=complex)
    table[0] = 1.0
    width = 1
    while width < size:
        more = min(width, size - width)
        power = np.exp(-1j * (th * (width * step)))
        np.multiply(table[:more], power, out=table[width:width + more])
        width *= 2
    return table


def _blocked_amplitudes(w, th, start, step, count):
    """``A`` at ``start + j*step``, ``j < count``, by one factored GEMM.

    With ``B = min(floor(sqrt(count)), _MAX_BLOCK)`` and ``j = b*B + r``,
    the phase factors into a lead ``exp(-i th (start + b*B*step))`` and a
    tail ``exp(-i th r*step)``.  The tail is one :func:`_phase_table`; with
    ``b = a*B + s`` the lead is row ``s`` of the table at step ``B*step``
    times ``exp(-i th (start + a*B*B*step))``.  Each factor is then a
    product of at most ``ceil(log2 B) + 1`` direct exponentials, so it errs
    by at most that many exponentials' and complex multiplies' roundings, a
    few ulps each, besides the ``th*tau*eps`` of its rounded phase, which a
    direct exponential shares.  A call takes about
    ``N*(2*ceil(log2 B) + count/B**2 + runs)`` exponentials in place of
    ``N*count``.  The product is taken in balanced runs of whole rows,
    yielded as ``(j0, amps)`` with ``amps`` holding ``A`` from ``j0`` on, so
    no caller need hold more than one run.  A run holds at most ``_CHUNK``
    samples, or two or three rows when fewer than three fit, and it is
    never a single row of a longer product: numpy sends a one-row product
    to GEMV, which sums in another order, while longer runs give the bits
    of the whole product.  The cap on ``B`` keeps the tail operand in cache
    on long grids, at the price of more, shorter rows.  Every factor of
    sample ``j`` is a function of ``j`` alone, and the weights enter one
    GEMM operand linearly, so mirrored grids and power-of-two weight
    scalings give bit-identical and exactly scaled series.
    """
    block = min(math.isqrt(count), _MAX_BLOCK)
    rows = -(-count // block)
    runs = max(1, min(-(-rows // max(1, _CHUNK // block)), rows // 2))
    tail = _phase_table(th, step, block).T
    block_steps = _phase_table(th, block * step, block)
    for k in range(runs):
        b0, b1 = k * rows // runs, (k + 1) * rows // runs
        lead = np.empty((b1 - b0, len(th)), dtype=complex)
        for a in range(b0 // block, (b1 - 1) // block + 1):
            lo, hi = max(b0, a * block), min(b1, (a + 1) * block)
            head = np.exp(-1j * (th * (start + (a * block * block) * step)))
            np.multiply(block_steps[lo - a * block:hi - a * block], head,
                        out=lead[lo - b0:hi - b0])
        lead *= w
        j0 = b0 * block
        yield j0, (lead @ tail).ravel()[:count - j0]


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
    maxima = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
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


def scan_superrevival(weights, rates, horizon: float, revival_period: float):
    """First time the per-cycle peak envelope recovers after a collapse.

    The envelope is the highest ``|A|^2`` of each whole revival cycle on the
    grid ``j*ENVELOPE_STEP`` up to ``horizon`` (:func:`_envelope_cycles`).
    Its level is ``SUPERREVIVAL_THRESHOLD`` of the first sample,
    ``|A(0)|^2``, which bounds every sample up to rounding since ``|A| <=
    sum(w)``.  Returns the peak time of the first cycle at or above the
    level after a cycle below it, once the run completing that cycle is
    folded.  Returns ``None`` when no cycle dips and raises
    :class:`HorizonTooShortError` when one dips but none recovers; both
    verdicts scan the whole horizon.
    """
    first_dip = None
    for k, (head, height, peak_tau) in enumerate(
            _envelope_cycles(weights, rates, horizon, revival_period)):
        if first_dip is None:
            if height < SUPERREVIVAL_THRESHOLD * head:
                first_dip = k
        elif height >= SUPERREVIVAL_THRESHOLD * head:
            return peak_tau
    if first_dip is None:
        return None
    raise HorizonTooShortError(
        f"envelope dips below {SUPERREVIVAL_THRESHOLD:.0%} at cycle "
        f"{first_dip} but never recovers within the sampled horizon")


def _envelope_cycles(weights, rates, horizon, period):
    """Fold ``|A|^2`` at ``j*ENVELOPE_STEP``, ``j <= floor(horizon /
    ENVELOPE_STEP + 1e-9)``, into the peak height and its time per whole
    cycle ``_cycle_start(k):_cycle_start(k + 1)``, run by run.

    A cycle takes one argmax per run slice, kept only when strictly higher,
    so one spanning a run edge keeps its first maximum.  Each cycle is
    yielded as ``(|A(0)|^2, height, peak_tau)`` as soon as the run that
    completes it is folded, so the scan holds one kernel run and the
    current cycle however long the horizon.  Its samples are those of
    ``autocorrelation(weights, rates, grid)`` bit for bit.
    """
    if not math.isfinite(horizon):
        raise ValueError(f"scan horizon must be finite, got {horizon}")
    steps = horizon / ENVELOPE_STEP
    if not steps < MAX_SCAN_STEPS:
        raise ValueError(f"horizon {horizon} would take {steps + 1:.0f} scan samples, "
                         f"more than 2**53 = {MAX_SCAN_STEPS}; lower the horizon")
    w, th = _carried_levels(weights, rates)
    last = int(math.floor(steps + 1e-9))
    if not period >= 4.0 * ENVELOPE_STEP:
        raise ValueError(f"revival period {period} must cover several grid steps")
    n_cycles = int(math.floor(float(last) * ENVELOPE_STEP / period))
    if n_cycles < 2:
        raise ValueError("series must span at least two revival cycles")
    # the spacing autocorrelation infers from this grid's end points
    spacing = (float(last) * ENVELOPE_STEP) / last
    # cycle k's unfolded samples are lo:hi
    k, lo, hi = 0, 0, _cycle_start(1, period)
    height, peak_tau = -math.inf, 0.0
    for j0, amps in _blocked_amplitudes(w, th, 0.0, spacing, last + 1):
        values = np.abs(amps) ** 2
        if j0 == 0:
            head = values[0]
        j1 = j0 + len(values)
        # samples past the last whole cycle are drawn but join no cycle
        while k < n_cycles and lo < j1:
            i = lo - j0 + int(np.argmax(values[lo - j0:min(hi, j1) - j0]))
            if values[i] > height:
                height, peak_tau = values[i], float(j0 + i) * ENVELOPE_STEP
            if hi > j1:
                lo = j1
                break
            yield head, height, peak_tau
            k, lo, hi = k + 1, hi, _cycle_start(k + 2, period)
            height = -math.inf


def _cycle_start(k, period):
    """Least ``j`` with ``floor((float(j) * ENVELOPE_STEP) / period) >= k``.

    The estimate ``ceil(k * period / ENVELOPE_STEP)`` can miss it by
    rounding; unit steps against that exact expression, which never
    decreases in ``j``, put it right.
    """
    j = math.ceil(k * period / ENVELOPE_STEP)
    while math.floor(j * ENVELOPE_STEP / period) < k:
        j += 1
    while j > 0 and math.floor((j - 1) * ENVELOPE_STEP / period) >= k:
        j -= 1
    return j


def detection_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Grid of exact integer multiples of ``step`` covering ``[lo, hi]``.

    Its size is checked on the float bounds, before any integer conversion
    or allocation: a grid of fewer than two or more than ``MAX_SAMPLES``
    samples is refused.
    """
    k0 = np.ceil(lo / step - 1e-9)
    k1 = np.floor(hi / step + 1e-9)
    samples = k1 - k0 + 1.0
    if not samples <= MAX_SAMPLES:
        raise ValueError(f"the grid would hold {samples:.0f} samples, more than "
                         f"{MAX_SAMPLES}; widen the step or narrow the range")
    if samples < 2:
        raise ValueError("window too narrow for the requested step")
    return np.arange(int(k0), int(k1) + 1, dtype=float) * step


def principal_revival(weights, rates, predicted: float, provenance: str = ""):
    """Principal revival near ``predicted`` as ``(time, height)``.

    ``|A|^2`` is sampled every ``DETECTION_MAX_STEP`` on ``DEFAULT_WINDOW``
    times the prediction.  Packets with near-equal recurrences spaced a
    fraction of the revival period apart make that window ambiguous; it is
    then retried once on ``RETRY_WINDOW``, tight enough to isolate the peak
    nearest the prediction.  A window whose highest sample is its first or
    last holds no interior peak to refine, and is refused with
    :class:`EdgePeakError`.  Fewer than two levels that carry weight make
    ``|A|^2`` constant to within rounding, and are refused with
    ``ValueError`` before any grid, and so is a prediction that is not
    finite and positive, or one whose window would exceed ``MAX_SAMPLES``
    (:func:`detection_grid`).
    """
    if not (math.isfinite(predicted) and predicted > 0.0):
        raise ValueError(f"predicted revival time {predicted} is not finite and "
                         "positive; infinite means no curvature in the spectrum there")
    if len(_carried_levels(weights, rates)[0]) < 2:
        raise ValueError("|A|^2 is constant: fewer than two levels carry weight")
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
        ))
    return reports
