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

# Most samples in one run of the kernel's product.
_CHUNK = 65536
# Fewest samples in one run: threaded BLAS may sum shorter products otherwise.
_MIN_RUN = 512
# Widest block of the factored kernel: its N x B tables stay in cache.
_MAX_BLOCK = 256
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

    The grid's ``|tau|`` must form one uniform progression
    (:func:`_uniform_progression`), which the block-factored kernel samples.
    The series carries the levels that carry weight (:func:`_carried_levels`).
    """
    w, th = _carried_levels(weights, rates)
    taus = np.asarray(tau_grid, dtype=float)
    start, step, descending = _uniform_progression(taus)
    out = np.empty(len(taus))
    for j0, amps in _blocked_amplitudes(w, _BlockTables(th, start, step, len(taus))):
        out[j0:j0 + len(amps)] = np.abs(amps) ** 2
    if descending:
        out = out[::-1].copy()
    return AutocorrSeries(tau=taus.copy(), values=out, provenance=provenance,
                          weights=w, rates=th)


def _uniform_progression(taus):
    """``(a_0, step, descending)`` with ``|taus|`` equal to ``a_0 + j*step``
    for ``j = 0, 1, ...`` in ascending order to within rounding.

    ``descending`` says the caller's grid runs through that progression
    backwards, as a grid of negative times does.  A grid of one sample is
    the progression of step 1.  An empty grid, and one whose ``|tau|`` is
    no such progression, such as a grid that straddles zero, is refused
    with ``ValueError``.
    """
    if len(taus) == 0:
        raise ValueError("the time grid is empty")
    a = np.abs(taus)
    if len(a) == 1:
        return float(a[0]), 1.0, False
    descending = bool(a[-1] < a[0])
    if descending:
        a = a[::-1]
    step = (a[-1] - a[0]) / (len(a) - 1)
    if step > 0:
        # Grids built as k*step or by linspace sit within an ulp of the line.
        drift = np.max(np.abs(a - (a[0] + np.arange(len(a)) * step)))
        if drift <= 4.0 * np.finfo(float).eps * a[-1]:
            return float(a[0]), float(step), descending
    raise ValueError("|tau| of the time grid must form one uniform progression")


def _phase_table(th, step, size):
    """The table ``exp(-i th r*step)``, one row per ``r < size``.

    Row ``r`` is row ``r - 2**k`` times ``exp(-i th 2**k*step)``, ``2**k``
    the highest power of two in ``r``: the product, in ascending order, of
    the direct exponentials at the powers of two in ``r``.  The table so
    costs ``N*ceil(log2 size)`` exponentials and ``N*size`` complex
    multiplies, and each row is a function of ``r`` alone.
    """
    table = np.empty((size, len(th)), dtype=complex)
    table[0] = 1.0
    width = 1
    while width < size:
        power = np.exp(-1j * (th * (width * step)))
        np.multiply(table[:min(width, size - width)], power, out=table[width:2 * width])
        width *= 2
    return table


class _BlockTables:
    """The grid ``start + j*step``, ``j < count``, of phase rates ``th``
    that :func:`_blocked_amplitudes` samples, with its block width ``B`` and
    the two phase tables (:func:`_phase_table`) that the products taken
    over it share: the tail ``exp(-i th r*step)`` and the lead steps
    ``exp(-i th s*B*step)``, for ``r, s < B``.
    """

    def __init__(self, th, start, step, count):
        self.th, self.start, self.step, self.count = th, start, step, count
        self.block = min(math.isqrt(count), _MAX_BLOCK)
        self.tail = _phase_table(th, step, self.block)
        self.lead = _phase_table(th, self.block * step, self.block)


def _blocked_amplitudes(w, tables, samples=None, dtype=complex):
    """``A`` at ``start + j*step``, ``first <= j < end``, on the grid
    ``tables`` (:class:`_BlockTables`) of ``count`` samples, by one factored
    GEMM.

    With ``B = min(floor(sqrt(count)), _MAX_BLOCK)`` and ``j = b*B + r``,
    the phase factors into a lead ``exp(-i th (start + b*B*step))`` and a
    tail ``exp(-i th r*step)``, row ``r`` of the tail table; with ``b = a*B +
    s`` the lead is row ``s`` of the lead-step table times ``exp(-i th (start
    + a*B*B*step))``.  Each factor is then a product of at most ``ceil(log2
    B) + 1`` direct exponentials, so it errs by at most that many
    exponentials' and complex multiplies' roundings, a few ulps each,
    besides the ``th*tau*eps`` of its rounded phase, which a direct
    exponential shares.  A grid takes about ``N*(2*ceil(log2 B) +
    count/B**2 + runs)`` exponentials in place of ``N*count``.  The product
    is taken over the rows that hold the samples ``samples = (first, end)``,
    the whole grid by default, in balanced runs of whole rows, so no caller
    need hold more than one run.  A run holds at least ``ceil(_MIN_RUN /
    B)`` rows, or the whole grid when it has fewer, and a shorter range is
    widened to that; above the floor it holds at most ``_CHUNK`` samples.
    The floor gives every run the bits of the whole product: numpy sends a
    one-row product to GEMV, and threaded OpenBLAS sends products of fewer
    than about 512 samples over more than 128 levels down another path, and
    both sum in another order.  Each run is yielded as ``(j, amps)`` with
    ``amps`` holding ``A`` from ``j`` on; together they tile exactly
    ``first:end``.  The call allocates its lead, cast and product buffers
    once, for its widest run, and every run is written into them: ``amps``
    is a view that the caller may overwrite and that stays valid only until
    the next run is drawn.  The cap on ``B`` keeps the phase tables and the
    tail operand in cache on long grids, at the price of more, shorter
    rows.  Every factor of sample ``j`` is a function of ``j`` alone, and
    the weights enter one GEMM operand linearly, so mirrored grids and
    power-of-two weight scalings give bit-identical and exactly scaled
    series.  ``dtype`` complex64 casts both factors, built in float64 as
    always, before the product.
    """
    th, start, step, count = tables.th, tables.start, tables.step, tables.count
    block = tables.block
    first, end = samples or (0, count)
    rows = -(-count // block)
    least = min(-(-_MIN_RUN // block), rows)
    b_lo, b_hi = first // block, -(-end // block)
    if b_hi - b_lo < least:
        b_lo = min(b_lo, rows - least)
        b_hi = b_lo + least
    span = b_hi - b_lo
    runs = min(-(-span // max(least, _CHUNK // block)), span // least)
    tail = tables.tail.T.astype(dtype, copy=False)
    # one set of buffers, as wide as the widest run, that each run overwrites
    width = -(-span // runs)
    leads = np.empty((width, len(th)), dtype=complex)
    casts = leads if leads.dtype == dtype else np.empty((width, len(th)), dtype=dtype)
    products = np.empty((width, block), dtype=dtype)
    for k in range(runs):
        b0, b1 = b_lo + k * span // runs, b_lo + (k + 1) * span // runs
        lead = leads[:b1 - b0]
        for a in range(b0 // block, (b1 - 1) // block + 1):
            lo, hi = max(b0, a * block), min(b1, (a + 1) * block)
            head = np.exp(-1j * (th * (start + (a * block * block) * step)))
            np.multiply(tables.lead[lo - a * block:hi - a * block], head,
                        out=lead[lo - b0:hi - b0])
        lead *= w
        cast = casts[:b1 - b0]
        if casts is not leads:
            np.copyto(cast, lead)
        amps = np.matmul(cast, tail, out=products[:b1 - b0]).ravel()
        j0, j = b0 * block, max(first, b0 * block)
        yield j, amps[j - j0:min(end, b1 * block) - j0]


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
    grid ``j*ENVELOPE_STEP``, ``j <= floor(horizon / ENVELOPE_STEP + 1e-9)``,
    where cycle ``k`` holds the samples with ``floor(j*ENVELOPE_STEP /
    period) == k`` (:func:`_cycle_starts`).  Its level is
    ``SUPERREVIVAL_THRESHOLD`` of the first sample, ``|A(0)|^2``, which
    bounds every sample up to rounding since ``|A| <= sum(w)``.  Returns the
    time of the first maximum of the first cycle at or above the level after
    a cycle below it, once the run completing that cycle is screened.
    Returns ``None`` when no cycle dips and raises
    :class:`HorizonTooShortError` when one dips but none recovers; both
    verdicts scan the whole horizon.

    Every verdict and time is the one the float64 kernel gives, but most
    cycles are decided in single precision.  The weights are scaled by the
    power of two that puts ``sum(w)`` in ``[0.5, 1)``; that is exact, so
    power-of-two scalings of the weights scan alike.  The screen
    (:func:`_screened_heights`) casts the very float64 factors the float64
    kernel multiplies to complex64, so the two series differ by rounding
    alone, by at most ``_screen_margin(N)`` at any sample, and so do the
    heights of any cycle.  A cycle whose screened height lies further than
    that from the level is decided by it.  The others, and the recovering
    cycle, whose first maximum gives the time, are recomputed in float64
    from their own samples of the same product, as is ``|A(0)|^2``: every
    float64 value has the bits of the whole product, which are those of
    ``autocorrelation`` on the grid whenever it infers ``ENVELOPE_STEP`` as
    the grid's step.  The scan holds one kernel run and one cycle's maximum
    however long the horizon, and samples nothing past the last whole cycle.
    """
    period = revival_period
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
    w = np.ldexp(w, -math.frexp(w.sum())[1])
    tables = _BlockTables(th, 0.0, ENVELOPE_STEP, last + 1)

    def cycle_peak(cycle):
        return _float64_peak(w, tables, *_cycle_starts(cycle, cycle + 2, period))

    level = SUPERREVIVAL_THRESHOLD * _float64_peak(w, tables, 0, 1)[0]
    margin = _screen_margin(len(th))
    first_dip = None
    for k, heights in _screened_heights(w, tables, period, n_cycles):
        if first_dip is None:
            for i in np.flatnonzero(heights < level + margin):
                if heights[i] < level - margin or cycle_peak(k + i)[0] < level:
                    first_dip = k + int(i)
                    break
        if first_dip is not None:
            for i in np.flatnonzero(heights >= level - margin):
                if k + i > first_dip:
                    height, peak_tau = cycle_peak(k + i)
                    if height >= level:
                        return peak_tau
    if first_dip is None:
        return None
    raise HorizonTooShortError(
        f"envelope dips below {SUPERREVIVAL_THRESHOLD:.0%} at cycle "
        f"{first_dip} but never recovers within the sampled horizon")


def _float64_peak(w, tables, lo, hi):
    """Float64 maximum of ``|A|^2`` over samples ``lo:hi`` of the grid
    ``tables`` and the time of the first sample that reaches it.  A later
    run's sample of the same height does not move the peak."""
    height, peak = -math.inf, lo
    for j, amps in _blocked_amplitudes(w, tables, samples=(lo, hi)):
        values = np.abs(amps) ** 2
        i = int(np.argmax(values))
        if values[i] > height:
            height, peak = values[i], j + i
    return height, tables.start + float(peak) * tables.step


def _screen_margin(levels):
    """Bound on ``|V32 - V64|`` at any sample of the screen over ``levels``
    levels whose weights sum to less than one.

    ``V64`` is ``np.abs(a)**2`` of the float64 kernel's product and ``V32``
    the sum of the squared parts of the same product taken in complex64.
    The float64 factors, lead times weight ``L_n`` and tail ``T_n``, are
    products of a few dozen unit exponentials and complex multiplies, so
    ``S = sum |L_n T_n| < 1 + 2**-30`` bounds ``|A|``.  In a precision of
    unit roundoff ``u``, casting moves each factor by at most ``u`` of
    itself, and the GEMM sums ``2N`` real products into each part of ``A``
    in any order, with or without fused multiply-adds, so ``A`` errs by at
    most ``d = (2u + u**2 + sqrt(2) * gamma_2N * (1 + u)**2) * S``,
    ``gamma_k = k*u / (1 - k*u)``, and ``|A|^2`` by ``d * (2S + d)`` plus
    its squaring's ``gamma_2 * (S + d)**2``.  Summed over float32 and
    float64 (whose squares may err by ``64u``), widened by ``2**-20`` of
    itself and by ``2**-50`` for the rounding of ``level +- margin`` and
    float32 underflow, that is about ``(6 + 4*sqrt(2)*N) * 2**-24``.  The
    margin is the closed form ``(6 + 5.7*N) / (1 - N*2**-21) * 2**-24``,
    which exceeds it at every ``N`` below ``2**20``, by 0.4-0.9 % up to
    6,400 levels.  It does not depend on ``tau``, since both series share
    every factor and so every rounding of the phase.  From ``2**20`` levels
    on it is infinite and every cycle is recomputed.
    """
    if not levels < 2 ** 20:
        return math.inf
    return (6 + 5.7 * levels) / (1 - levels * 2.0 ** -21) * 2.0 ** -24


def _screened_heights(w, tables, period, n_cycles):
    """Complex64 heights of whole cycles of the scan grid ``tables``, run
    by run, as ``(k, heights)``: float64 maxima of ``|A|^2`` over cycles
    ``k, k + 1, ...``, those the run completes.

    A run folds into per-cycle maxima by one ``np.maximum.reduceat`` over
    the cycle starts inside it; the cycle it leaves open carries its maximum
    into the next run.  ``|A|^2`` is the sum of the squared parts, rounded
    three times in float32 and written over the run.  The runs end with the
    last whole cycle.
    """
    k, carried = 0, -math.inf
    end = int(_cycle_starts(n_cycles, n_cycles + 1, period)[0])
    for j0, amps in _blocked_amplitudes(w, tables, samples=(0, end), dtype=np.complex64):
        done = math.floor(float(j0 + len(amps)) * ENVELOPE_STEP / period)
        # cycles k..done-1 end in this run, at these offsets
        ends = _cycle_starts(k + 1, done + 1, period) - j0
        parts = amps.view(np.float32)
        np.square(parts, out=parts)
        values = np.add(parts[0::2], parts[1::2], out=parts[0::2])
        maxima = np.maximum.reduceat(values, np.r_[0, ends[ends < len(amps)]]).astype(float)
        maxima[0] = max(maxima[0], carried)
        carried = maxima[done - k] if len(maxima) > done - k else -math.inf
        if done > k:
            yield k, maxima[:done - k]
        k = done


def _cycle_starts(k0, k1, period):
    """First samples of cycles ``k0:k1``: for each ``k`` the least ``j`` with
    ``floor((float(j) * ENVELOPE_STEP) / period) >= k``.

    The estimate ``ceil(k * period / ENVELOPE_STEP)`` can miss it by
    rounding; unit steps against that exact expression, which never
    decreases in ``j``, put it right.
    """
    k = np.arange(k0, k1)
    j = np.ceil(k * period / ENVELOPE_STEP).astype(np.int64)
    while (low := np.floor(j * ENVELOPE_STEP / period) < k).any():
        j += low
    while (high := (j > 0) & (np.floor((j - 1) * ENVELOPE_STEP / period) >= k)).any():
        j -= high
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


def principal_revival(weights, rates, predicted: float):
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
        return _window_revival(weights, rates, predicted, DEFAULT_WINDOW)
    except AmbiguousWindowError:
        return _window_revival(weights, rates, predicted, RETRY_WINDOW)


def _window_revival(weights, rates, predicted, scale):
    window = (scale[0] * predicted, scale[1] * predicted)
    taus = detection_grid(window[0], window[1], DETECTION_MAX_STEP)
    series = autocorrelation(weights, rates, taus)
    detected, height = detect_revival(series, window)
    i0, i1 = _window_bounds(series.tau, window)
    peak = i0 + int(np.argmax(series.values[i0:i1]))
    if peak in (i0, i1 - 1):
        raise EdgePeakError(
            f"window ({window[0]:.6g}, {window[1]:.6g}) peaks at its edge "
            f"sample {float(series.tau[peak])!r}; its maximum lies outside "
            f"the window")
    return detected, height

