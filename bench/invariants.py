"""Exact invariants the program must keep, checked once per run.

* ``A(-tau)`` mirrors ``A(tau)`` bit for bit;
* scaling the weights by a power of two leaves the time from
  ``detect_revival`` bit-identical;
* a repeated command gives byte-identical output.

The first two drive the program's ``autocorrelation`` and ``detect_revival``
with oracle weights and rates of one state of the workload; the third
re-runs the round's command with the largest output.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import checks


def _detect(revival, series, window):
    """Detected time, or the refusal's message (which lists the peak times)."""
    try:
        return revival.detect_revival(series, window)[0]
    except revival.AmbiguousWindowError as exc:
        return str(exc)


def mirror_and_scaling(weights, rates, predicted, step=1e-4, label=""):
    """Problems with time-evenness and power-of-two scaling on one state."""
    from qrevival import revival

    problems = []
    window = (0.95 * predicted, 1.05 * predicted)
    k0, k1 = math.ceil(window[0] / step - 1e-9), math.floor(window[1] / step + 1e-9)
    taus = np.arange(k0, k1 + 1, dtype=float) * step
    forward = revival.autocorrelation(weights, rates, taus)
    backward = revival.autocorrelation(weights, rates, -taus[::-1])
    if not np.array_equal(forward.values, backward.values[::-1]):
        problems.append(f"{label}: A(-tau) does not mirror A(tau) bit for bit")
    base = _detect(revival, forward, window)
    for power in (-3, 5):
        scaled = revival.autocorrelation(np.ldexp(weights, power), rates, taus)
        if _detect(revival, scaled, window) != base:
            problems.append(f"{label}: weights scaled by 2^{power} moved the revival")
    return problems


def check(workload, ops, first, digests, invoke):
    """Problems with the invariants on this run's round."""
    if workload == "cli_figures":
        sizes = {i: len(first[i][1]) for i in digests}
        largest = max(sizes, key=sizes.get)
        code, out, _ = invoke(ops[largest].args)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digests[largest]:
            return [f"{ops[largest].label}: repeated command gave different output"]
        return []
    op = min(ops, key=lambda o: (o.params.get("epsilon", 0.0), o.params.get("beta", 0.0)))
    system = checks.system_of(op)
    weights, rates, _ = checks.reference_state(system)
    predicted, _ = checks.curvature_spread(weights, rates)
    return mirror_and_scaling(weights, rates, predicted, label=op.label)
