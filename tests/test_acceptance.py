"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as the suite executes.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln

from qrevival import (BUILTIN_SCENARIOS, CompletenessWarning, GaussianSpec,
                      WellConfig, autocorrelation, barker, detect_revival,
                      detection_grid, orthonormality_matrix,
                      oscillator_phase_rates, oscillator_timescales,
                      project, scan_superrevival, solve_spectrum,
                      squeezed_weights)
from qrevival.cli import main
from qrevival.wavepacket import COMPLETENESS_FLOOR

PAPER_PACKET = GaussianSpec(x0=0.2, sigma=0.1)
CENTERED_PACKET = GaussianSpec(x0=0.0, sigma=0.1)
ENVELOPE_STEP = 1e-3


def verdict(label, ok, detail):
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def recording_warnings(fn, *args):
    """Call ``fn`` and report whether it issued a CompletenessWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, any(issubclass(w.category, CompletenessWarning) for w in caught)


def well_projection(epsilon, packet):
    """Spectrum, projection, and whether the projection warned."""
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    decomp, warned = recording_warnings(project, packet, states)
    return states, decomp, warned


def well_pipeline(epsilon, packet):
    states, decomp, _ = well_projection(epsilon, packet)
    return states, decomp, np.abs(decomp.coefficients) ** 2, states.rates


def _gaussian(packet):
    return lambda x: math.exp(-(x - packet.x0) ** 2 / (2.0 * packet.sigma ** 2))


def well_completeness_oracle(epsilon, packet):
    """Bound-state completeness from brentq roots and QUADPACK overlaps.

    Roots come from Brent's method on the pole-free even/odd equations,
    level norms from the closed-form interior and tail integrals, and the
    overlaps from ``scipy.integrate.quad``: the oscillatory-weight rule
    inside the well, the semi-infinite rule on each exponential tail.
    """
    gauss = _gaussian(packet)
    packet_norm2 = packet.sigma * math.sqrt(math.pi)

    def decay(a):
        return math.sqrt(max(epsilon ** 2 - a * a, 0.0))

    total = 0.0
    for j in range(int(2.0 * epsilon / math.pi) + 1):
        even = j % 2 == 0
        sign, profile, weight = (1.0, math.cos, "cos") if even else (-1.0, math.sin, "sin")

        def matching(a):
            if even:
                return decay(a) * math.cos(a) - a * math.sin(a)
            return a * math.cos(a) + decay(a) * math.sin(a)

        alpha = brentq(matching, j * math.pi / 2.0,
                       min((j + 1) * math.pi / 2.0, epsilon), xtol=1e-15)
        beta = decay(alpha)
        edge = profile(alpha)
        level_norm2 = 0.5 + sign * math.sin(2.0 * alpha) / (4.0 * alpha) \
            + edge ** 2 / (2.0 * beta)
        inside = quad(gauss, -0.5, 0.5, weight=weight, wvar=2.0 * alpha,
                      epsabs=1e-14, epsrel=1e-12)[0]

        def tail(side):
            return quad(lambda u: gauss(side * (0.5 + u)) * math.exp(-2.0 * beta * u),
                        0.0, np.inf, epsabs=1e-14, epsrel=1e-12)[0]

        overlap = inside + edge * (tail(1.0) + sign * tail(-1.0))
        total += overlap ** 2 / (level_norm2 * packet_norm2)
    return total


def box_completeness_oracle(packet, n_modes):
    """Norm captured by the first ``n_modes`` box modes, by QUADPACK."""
    gauss = _gaussian(packet)
    packet_norm2 = quad(lambda x: gauss(x) ** 2, -0.5, 0.5,
                        epsabs=1e-14, epsrel=1e-12)[0]
    captured = sum(
        quad(gauss, -0.5, 0.5, weight="cos" if n % 2 else "sin", wvar=n * math.pi,
             epsabs=1e-14, epsrel=1e-12)[0] ** 2
        for n in range(1, n_modes + 1))
    return 2.0 * captured / packet_norm2


def squeezed_vacuum_mass(s, n_max):
    """Closed-form squeezed-vacuum weight on the levels ``0..n_max``.

    ``P(2m) = (2m)! / (2^m m!)^2 * tanh(r)^(2m) / cosh(r)`` with
    ``s = exp(2r)``; odd levels carry nothing.
    """
    r = 0.5 * math.log(s)
    m = np.arange(n_max // 2 + 1)
    logs = gammaln(2 * m + 1) - 2.0 * gammaln(m + 1) - m * math.log(4.0) \
        + 2.0 * m * math.log(math.tanh(r)) - math.log(math.cosh(r))
    return float(np.exp(logs).sum())


def envelope_series(weights, rates, horizon):
    taus = np.arange(0, int(horizon / ENVELOPE_STEP) + 1, dtype=float) * ENVELOPE_STEP
    return autocorrelation(weights, rates, taus)


@pytest.fixture(scope="module")
def table1():
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["table1", "--x0", repr(PAPER_PACKET.x0),
                                       "--sigma", repr(PAPER_PACKET.sigma),
                                       "--epsilons", "12,30,100", "--format", "json"])
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout), time.perf_counter() - start


@pytest.fixture(scope="module")
def fig5_scan():
    fock = squeezed_weights(10.0, 0.0)
    rates = oscillator_phase_rates(fock.n, 0.002)
    series = envelope_series(fock.weights, rates, 600.0)
    return fock, series


def test_criterion_1_revival_time_table(table1):
    reports, elapsed = table1
    refs = [1.185, 1.068, 1.020]
    paper_errors = [0.9, 0.09, 0.0039]
    problems = []
    for r, ref, perr in zip(reports, refs, paper_errors):
        if abs(r["detected"] - ref) / ref > 0.006:
            problems.append(f"detected {r['detected']:.5f} != {ref} at 0.6%")
        exact = (1.0 + 1.0 / r["epsilon"]) ** 2
        if abs(r["barker"] - exact) / exact > 1e-12:
            problems.append(f"prediction column off at eps={r['epsilon']}")
        if not (perr / 3.0 <= r["percent_error"] <= perr * 3.0):
            problems.append(f"error {r['percent_error']:.4f}% outside 3x of {perr}% "
                            f"at eps={r['epsilon']}")
    errs = [r["percent_error"] for r in reports]
    if not errs[0] > errs[1] > errs[2]:
        problems.append(f"errors not monotone: {errs}")
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    detail = (f"detected {[round(r['detected'], 5) for r in reports]}, "
              f"errors {[round(e, 4) for e in errs]}%, runtime {elapsed:.2f}s")
    verdict("1 (revival-time table)", not problems, detail + "; " + "; ".join(problems))


def test_criterion_2_bound_state_counts():
    expected = {12.0: 8, 15.0: 10, 30.0: 20, 100.0: 64}
    got = {eps: len(solve_spectrum(WellConfig(epsilon=eps))) for eps in expected}
    verdict("2 (bound-state counts)", got == expected, f"{got}")


def test_criterion_3_box_parity_theorems():
    problems = []

    box = solve_spectrum(WellConfig(epsilon=math.inf))
    n = np.arange(1, len(box) + 1)
    even_weights = project(CENTERED_PACKET, box).weights
    for k in range(1, 9):
        amp = np.sum(even_weights * np.exp(-2j * np.pi * n ** 2 * (k / 8.0)))
        if abs(amp) ** 2 <= 1.0 - 1e-9:
            problems.append(f"even packet |A({k}/8)|^2 = {abs(amp)**2:.12f}")

    narrow = project(GaussianSpec(x0=0.2, sigma=0.06), box).weights
    # the odd-parity part sits on the sine modes, even n; renormalised
    odd_weights = np.where(n % 2 == 0, narrow, 0.0)
    odd_weights = odd_weights / odd_weights.sum()
    for k in range(1, 9):
        amp = np.sum(odd_weights * np.exp(-2j * np.pi * n ** 2 * (k / 4.0)))
        if abs(amp) ** 2 <= 1.0 - 1e-9:
            problems.append(f"odd packet |A({k}/4)|^2 = {abs(amp)**2:.12f}")

    amp = np.sum(narrow * np.exp(-2j * np.pi * n ** 2))
    if abs(amp) ** 2 <= 1.0 - 1e-9:
        problems.append(f"arbitrary packet |A(1)|^2 = {abs(amp)**2:.12f}")

    taus = np.arange(0, 8001, dtype=float) * 1e-4
    vals = autocorrelation(project(PAPER_PACKET, box).weights, box.rates, taus).values
    for target in (1.0 / 3.0, 2.0 / 3.0):
        m = (taus > target - 0.05) & (taus < target + 0.05)
        sub = vals[m]
        peaks = np.flatnonzero((sub[1:-1] > sub[:-2]) & (sub[1:-1] > sub[2:])) + 1
        if len(peaks) == 0 or abs(taus[m][peaks[np.argmax(sub[peaks])]] - target) > 0.01:
            problems.append(f"no partial revival near {target:.3f}")

    verdict("3 (box parity theorems)", not problems,
            "recurrences at k/8, k/4, 1 and partial revivals at thirds"
            + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_4_oscillator_superrevival(fig5_scan):
    fock, series = fig5_scan
    problems = []

    # The closed forms against central differences of the phase rates at
    # the same level, exact for a cubic spectrum up to rounding.
    scales = oscillator_timescales(fock, 0.002)
    rates = oscillator_phase_rates(fock.n, 0.002)
    e = rates[scales.n_center - 2:scales.n_center + 3]
    stencil_rv = 4.0 * np.pi / abs(e[3] - 2.0 * e[2] + e[1])
    stencil_sr = 12.0 * np.pi / abs(0.5 * (e[4] - 2.0 * e[3] + 2.0 * e[1] - e[0]))
    rel_rv = abs(stencil_rv - scales.revival_time) / scales.revival_time
    rel_sr = abs(stencil_sr - scales.superrevival_time) / scales.superrevival_time
    if rel_rv > 1e-10 or rel_sr > 1e-10:
        problems.append(f"timescale routes disagree: {rel_rv:.2e}, {rel_sr:.2e}")

    # The squeezed vacuum populates only n = g m.  On that sub-lattice the
    # state's own revival and superrevival times are t_rv / g^2 and
    # t_sr / g^3: it recurs exactly at every k t_sr / g^3, so its series is
    # mirror-symmetric about t_sr / (2 g^3).  Half a state revival to either
    # side of that point (31.25 +- 1/8 for g = 2) the level phases are the
    # integers m^2 (m + 1) / 2 up to a small cubic detuning: a fractional
    # superrevival, which the envelope detector must find first.
    g = int(np.gcd.reduce(np.diff(np.flatnonzero(fock.weights))))
    state_revival = scales.revival_time / g ** 2
    state_superrevival = scales.superrevival_time / g ** 3
    recurrences = state_superrevival * np.arange(1, g ** 3 + 1)
    recurrence_dev = np.abs(
        autocorrelation(fock.weights, rates, recurrences).values - 1.0).max()
    if recurrence_dev > 1e-12:
        problems.append(f"|A(k t_sr/{g ** 3})|^2 deviates from 1 by {recurrence_dev:.2e}")

    expected = 0.5 * state_superrevival
    detected = scan_superrevival(fock.weights, rates, 600.0, scales.revival_time)
    level0 = series.values[0]
    if detected is None:
        problems.append("envelope never dips within the horizon")
    else:
        height = series.values[int(round(detected / ENVELOPE_STEP))]
        if abs(detected - expected) > state_revival:
            problems.append(
                f"first envelope recovery at tau = {detected} (height {height:.4f}), "
                f"not within {state_revival:.4f} of t_sr/(2 g^3) = {expected}")
        elif height < 0.95 * level0:
            problems.append(f"recovery height {height:.4f} below 0.95 of start")

    verdict("4 (oscillator superrevival)", not problems,
            f"closed-form vs in-test difference timescales agree to "
            f"{max(rel_rv, rel_sr):.1e}; "
            f"support step g = {g}, |A|^2 = 1 to {recurrence_dev:.1e} at "
            f"k * {state_superrevival}"
            + ("; " + "; ".join(problems) if problems else
               f"; first superrevival at {detected}"))


def test_criterion_5_property_suite():
    problems = []

    projections = {(12.0, packet): well_projection(12.0, packet)
                   for packet in (PAPER_PACKET, CENTERED_PACKET)}
    states12, decomp12, _ = projections[12.0, PAPER_PACKET]
    w12 = np.abs(decomp12.coefficients) ** 2
    rates12 = states12.rates

    gram_dev = np.abs(orthonormality_matrix(states12) - np.eye(len(states12))).max()
    if gram_dev > 1e-8:
        problems.append(f"overlap matrix deviates by {gram_dev:.2e}")

    phases = np.exp(-1j * rates12 * 0.83)
    unit_dev = abs(np.sum(np.abs(decomp12.coefficients * phases) ** 2)
                   - decomp12.completeness)
    if unit_dev > 1e-12:
        problems.append(f"evolution is not unitary: {unit_dev:.2e}")

    _, decomp_even, _ = projections[12.0, CENTERED_PACKET]
    odd_amp = np.abs(decomp_even.coefficients[~states12.even]).max()
    if odd_amp > 1e-12:
        problems.append(f"parity selection broken: {odd_amp:.2e}")

    # Completeness per built-in scenario: the projected norm must match an
    # independent oracle, never exceed one, and be warned about exactly when
    # it falls below the floor (the centered packet in the strength-12 well
    # leaks into the continuum and does).
    completeness = {}
    for name, cfg in BUILTIN_SCENARIOS.items():
        if cfg.oscillator is not None:
            osc = cfg.oscillator
            if osc.kind != "squeezed" or osc.alpha != 0.0:
                problems.append(f"{name}: no closed-form mass for {osc}")
                continue
            kept = len(squeezed_weights(osc.squeeze, osc.alpha).weights) - 1
            completeness[name] = squeezed_vacuum_mass(osc.squeeze, kept)
            if completeness[name] < 1.0 - 1e-10:
                problems.append(f"{name}: kept levels hold only {completeness[name]!r}")
            continue
        key = (cfg.epsilon, cfg.packet)
        if key not in projections:
            projections[key] = well_projection(*key)
        _, decomp, warned = projections[key]
        value = decomp.completeness
        if math.isinf(cfg.epsilon):
            kept = int(np.flatnonzero(decomp.coefficients)[-1]) + 1
            oracle = box_completeness_oracle(cfg.packet, kept)
        else:
            oracle = well_completeness_oracle(cfg.epsilon, cfg.packet)
        completeness[name] = value
        if abs(value - oracle) > 1e-10:
            problems.append(f"{name}: completeness {value!r} vs oracle {oracle!r}")
        if value > 1.0 + 1e-12:
            problems.append(f"{name}: completeness {value!r} exceeds 1")
        if warned != (value < COMPLETENESS_FLOOR):
            problems.append(f"{name}: completeness {value!r} "
                            f"{'warned' if warned else 'not warned'} "
                            f"against floor {COMPLETENESS_FLOOR}")

    taus = np.arange(1, 2000, dtype=float) * 1e-3
    fwd = autocorrelation(w12, rates12, taus).values
    bwd = autocorrelation(w12, rates12, -taus[::-1]).values
    if not np.array_equal(fwd, bwd[::-1]):
        problems.append("series is not even in time")

    window = (1.0, 1.4)
    grid = detection_grid(*window, 1e-4)
    base = detect_revival(autocorrelation(w12, rates12, grid), window)
    scaled = detect_revival(autocorrelation(4.0 * w12, rates12, grid), window)
    if scaled[0] != base[0]:
        problems.append("peak location moved under weight rescaling")

    _, _, w_big, rates_big = well_pipeline(1e4, PAPER_PACKET)
    predicted = barker(WellConfig(1e4))
    win = (0.9 * predicted, 1.5 * predicted)
    series = autocorrelation(w_big, rates_big, detection_grid(*win, 1e-4))
    detected_big, _ = detect_revival(series, win)
    if abs(detected_big - 1.0) >= 3e-4:
        problems.append(f"eps=1e4 revival at {detected_big:.6f}, not within 3e-4 of 1")

    verdict("5 (property suite)", not problems,
            f"gram {gram_dev:.1e}, unitarity {unit_dev:.1e}, parity {odd_amp:.1e}, "
            f"completeness {({k: round(v, 7) for k, v in completeness.items()})}, "
            f"eps=1e4 detected {detected_big:.6f}"
            + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_6_finite_well_superrevivals():
    problems = []
    found = {}
    for eps, horizon, expected in ((12.0, 40.0, 5.738), (15.0, 60.0, 10.110)):
        _, _, w, rates = well_pipeline(eps, CENTERED_PACKET)
        period = barker(WellConfig(epsilon=eps))
        tau_sr = scan_superrevival(w, rates, horizon, period)
        found[eps] = tau_sr
        if tau_sr is None:
            problems.append(f"no envelope recovery for eps={eps}")
        elif abs(tau_sr - expected) > 2.0 * ENVELOPE_STEP:
            problems.append(
                f"eps={eps} recovery at {tau_sr} vs fixture {expected} "
                f"(+- 2 grid steps)")
    if found[15.0] is not None and found[12.0] is not None \
            and not found[15.0] > found[12.0]:
        problems.append("superrevival must come later in the deeper well")
    verdict("6 (finite-well superrevivals)", not problems, f"{found}")
