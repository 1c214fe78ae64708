"""Seeded inputs of the three workloads.

A workload is one *round*: a fixed list of CLI commands generated from the
seed.  A run repeats the round whole until its time is up, so every run of a
seed issues the same commands in the same proportions, and the per-layer
counts of one round repeat exactly.  The program receives only the argument
lists built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOADS = ("depth_sweep", "superrevival_scan", "cli_figures")

# Parameters of the built-in scenarios, as the figures define them.  The
# checks read them from here, not from the program; the self-test compares
# this table with the program's own.
SCENARIOS = {
    "fig1a": {"well": 12.0, "x0": 0.2, "sigma": 0.1, "tau_max": 1.5, "tau_step": 1e-4},
    "fig1b": {"well": 30.0, "x0": 0.2, "sigma": 0.1, "tau_max": 1.3, "tau_step": 1e-4},
    "fig1c": {"well": 100.0, "x0": 0.2, "sigma": 0.1, "tau_max": 1.2, "tau_step": 1e-4},
    "fig2": {"well": 12.0, "x0": 0.0, "sigma": 0.1, "tau_max": 8.0, "tau_step": 1e-3},
    "fig3": {"well": 15.0, "x0": 0.0, "sigma": 0.1, "tau_max": 12.0, "tau_step": 1e-3},
    "fig4": {"well": 12.0, "x0": 0.2, "sigma": 0.1, "tau_max": 8.0, "tau_step": 1e-3},
    "fig5": {"beta": 0.002, "squeeze": 10.0, "alpha": 0.0, "tau_max": 5.0,
             "tau_step": 1e-4},
    "infinite": {"well": math.inf, "x0": 0.2, "sigma": 0.1, "tau_max": 1.5,
                 "tau_step": 1e-4},
}


@dataclass(frozen=True)
class Op:
    """One command: its argument list and what the checks need to know."""

    kind: str
    args: tuple
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _num(x: float) -> str:
    return repr(float(x))


def _packet(rng, eps):
    """Gaussian packet that stays clear of the walls, with its width held
    within 10 %, since the projection's panel count and reach follow it.

    In wells of fewer than 64 levels the packet's three-sigma reach stays
    0.05 inside the wall.  In deeper wells it is narrower and its edge value
    at the wall is below 1e-8 of its peak (6.2 sigma), so the levels above
    its wavenumber content carry no weight and the oracle may leave them out.
    """
    if eps < 100.0:
        sigma = rng.uniform(0.07, 0.08)
        x_max = min(0.2, 0.45 - 3.0 * sigma)
    else:
        sigma = rng.uniform(0.05, 0.055)
        x_max = min(0.2, 0.5 - 6.2 * sigma)
    x0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, x_max)
    return float(x0), float(sigma)


def _well_op(eps, x0, sigma):
    args = ("revivals", "--epsilon", _num(eps), "--x0", _num(x0), "--sigma", _num(sigma))
    return Op("revivals", args, {"epsilon": eps, "x0": x0, "sigma": sigma})


# Ladder wells: log-spread strengths, each jittered within +-1 %, placed
# midway between two parity thresholds (2 eps / pi = k + 0.45..0.55).  The
# projection's tail region grows as 1/beta of the top level, which is set by
# how far eps sits above the last threshold; pinning that distance keeps each
# slot's cost steady across seeds.  Near-threshold wells: eps = k pi/2
# (1 + D/k^2) with the offset jittered within +-3 %.
LADDER = (10.0, 2500.0, 10)
THRESHOLD_SLOTS = ((5, 5e-4), (12, 1e-3), (24, 2e-3))
TINY_LADDER = (10.0, 40.0, 3)
TINY_THRESHOLD_SLOTS = ((10, 1e-2),)


def depth_sweep(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    lo, hi, count = TINY_LADDER if tiny else LADDER
    ops = []
    for i in range(count):
        base = lo * (hi / lo) ** (i / (count - 1)) * math.exp(rng.uniform(-0.01, 0.01))
        level = round(2.0 * base / math.pi - 0.5) + rng.uniform(0.45, 0.55)
        eps = level * math.pi / 2.0
        ops.append(_well_op(eps, *_packet(rng, eps)))
    for k, scale in (TINY_THRESHOLD_SLOTS if tiny else THRESHOLD_SLOTS):
        delta = scale / (k * k) * math.exp(rng.uniform(-0.03, 0.03))
        eps = k * math.pi / 2.0 * (1.0 + delta)
        ops.append(_well_op(eps, *_packet(rng, eps)))
    rng.shuffle(ops)
    return ops


# (kind, centre of the squeeze or amplitude, range of 1/beta): 1/beta is an
# integer, so an exact recurrence (at 1/beta for coherent states, 1/(4 beta)
# for squeezed vacua) falls on the 1e-3 envelope grid inside the 600-unit
# default horizon.
OSCILLATOR_SLOTS = (("squeezed", 5.5, (300, 1000)), ("squeezed", 11.0, (300, 1000)),
                    ("coherent", 4.5, (150, 560)), ("coherent", 5.8, (150, 560)))
TINY_OSCILLATOR_SLOTS = (("coherent", 2.0, (20, 30)),)
# About one state in ten puts two peaks within 1 % of each other in both of
# the command's revival windows, and the command exits 4.  About one in a
# thousand has a revival peak so lopsided on the 1e-4 grid that the command's
# parabolic refinement misses its maximum by more than a quarter step.  The
# oracle's |A|^2 screens each draw, and a draw is made again unless the window
# that decides holds one highest peak, clear of the 1 % band, whose parabolic
# vertex is a maximum.  Both faults are in CHANGES.md.


def _revival_window_is_clear(kind, value, beta):
    w = oracle.squeezed_vacuum_weights(value) if kind == "squeezed" else \
        oracle.poisson_weights(value)
    # the command's stencil level stays two levels clear of n = 0
    centre = max(2, round(float((np.arange(len(w)) * w).sum())))
    predicted = 1.0 / (1.0 + 3.0 * centre * beta)
    rates = oracle.oscillator_rates(len(w), beta)
    peak = oracle.oscillator_revival(w, rates, predicted)
    if peak is None:
        return False
    vertex = oracle.parabolic_vertex(w, rates, peak, 1e-4)
    return oracle.is_maximum(w, rates, vertex, 1e-4)[0]


def superrevival_scan(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for kind, centre, (m_lo, m_hi) in (TINY_OSCILLATOR_SLOTS if tiny else OSCILLATOR_SLOTS):
        while True:
            value = centre * math.exp(rng.uniform(-0.01, 0.01))
            m = int(rng.integers(m_lo, m_hi + 1))
            if _revival_window_is_clear(kind, value, 1.0 / m):
                break
        beta = 1.0 / m
        flag = "--squeeze" if kind == "squeezed" else "--alpha"
        args = ["revivals", "--beta", _num(beta), flag, _num(value), "--superrevival"]
        if tiny:
            args += ["--horizon", _num(1.5 * m)]
        params = {"beta": beta, "kind": kind, "squeeze": value if kind == "squeezed" else None,
                  "alpha": value if kind == "coherent" else 0.0}
        ops.append(Op("revivals", tuple(args), params))
    rng.shuffle(ops)
    return ops


def _snapshot_taus(rng, n=3):
    return ",".join(_num(round(t, 4)) for t in rng.uniform(0.0, 1.5, n))


def cli_figures(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 3])

    def op(kind, *args, **params):
        return Op(kind, tuple(str(a) for a in (kind,) + args), params)

    if tiny:
        ops = [op("spectrum", "--epsilon", 12, epsilon=12.0, fmt="csv"),
               op("table1", "--epsilons", "12", epsilons=(12.0,), fmt="csv"),
               op("autocorr", "--scenario", "fig2", "--tau-max", 2, "--reference",
                  scenario="fig2", tau_max=2.0, reference=True, fmt="csv"),
               op("oscillator", "--beta", 0.002, "--squeeze", 10, beta=0.002, squeeze=10.0,
                  alpha=0.0, fmt="json")]
    else:
        ops = [op("spectrum", "--epsilon", 12, epsilon=12.0, fmt="csv"),
               op("spectrum", "--epsilon", 15, "--format", "json", epsilon=15.0, fmt="json"),
               op("spectrum", "--epsilon", 30, "--format", "json", epsilon=30.0, fmt="json"),
               op("spectrum", "--epsilon", 100, epsilon=100.0, fmt="csv"),
               op("table1", epsilons=(12.0, 30.0, 100.0), fmt="csv"),
               op("table1", "--format", "json", epsilons=(12.0, 30.0, 100.0), fmt="json"),
               op("oscillator", "--beta", 0.002, "--squeeze", 10, beta=0.002, squeeze=10.0,
                  alpha=0.0, fmt="json"),
               op("oscillator", "--beta", 0.002, "--squeeze", 10, "--format", "csv",
                  beta=0.002, squeeze=10.0, alpha=0.0, fmt="csv")]
        for name, reference, fmt in (("fig1a", False, "csv"), ("fig1a", True, "csv"),
                                     ("fig1b", True, "csv"), ("fig1c", False, "json"),
                                     ("fig2", True, "csv"), ("fig3", True, "json"),
                                     ("fig4", False, "csv"), ("fig5", False, "csv"),
                                     ("infinite", False, "csv")):
            extra = (("--reference",) if reference else ()) + (("--format", fmt) if fmt != "csv" else ())
            ops.append(op("autocorr", "--scenario", name, *extra, scenario=name,
                          reference=reference, fmt=fmt))
        for name, fmt in (("fig1a", "csv"), ("fig1c", "csv"), ("fig2", "json")):
            taus = _snapshot_taus(rng)
            extra = ("--format", fmt) if fmt != "csv" else ()
            ops.append(op("snapshot", "--scenario", name, "--tau", taus, "--grid", 512, *extra,
                          scenario=name, taus=taus, grid=512, fmt=fmt))
        # fig1b is left out: its 40-unit horizon ends before the envelope
        # recovers, so the command exits 4 on every run (see CHANGES.md).
        for name in ("fig1a", "fig1c", "fig2", "fig3", "fig4", "infinite"):
            ops.append(op("revivals", "--scenario", name, "--superrevival", scenario=name))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    return {"depth_sweep": depth_sweep, "superrevival_scan": superrevival_scan,
            "cli_figures": cli_figures}[workload](seed, tiny)
