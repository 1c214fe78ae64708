"""Correctness checks of the program's outputs.

Each ``check_*`` function takes one operation and the text the command
printed and returns a list of problems (empty when the output is correct).
Outputs are compared with :mod:`oracle`, which is computed apart from the
program, or with properties the method must have; never with a stored copy.
The tolerances are argued in README.md ("Correctness checks").
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle
from workloads import SCENARIOS, Op

SUPERREVIVAL_THRESHOLD = 0.95   # detector's recovery share of |A(0)|^2
WELL_RESIDUAL = 1e-9            # |tan/cot residual| a printed level may carry
ROOT_TOL = 1e-12                # |alpha - alpha_oracle| / max(1, alpha)
COMPLETENESS_TOL = 1e-10        # program vs oracle completeness
SERIES_TOL = 1e-8               # |A|^2 (at most 1) against the oracle
SNAPSHOT_MASS_TOL = 1e-5        # trapezoid mass of 512 grid points vs completeness
CURVATURE_SPREAD_VALID = 0.02   # expansions of the revival time hold below this


# --- systems -----------------------------------------------------------------


def system_of(op: Op) -> dict:
    """Physical system an operation drives, from its parameters or scenario."""
    p = op.params
    if "scenario" in p:
        return dict(SCENARIOS[p["scenario"]])
    if "epsilon" in p:
        return {"well": p["epsilon"], "x0": p["x0"], "sigma": p["sigma"]}
    return {"beta": p["beta"], "squeeze": p.get("squeeze"), "alpha": p.get("alpha", 0.0)}


def reference_state(system: dict, quadratic: bool = False):
    """Oracle ``(weights, rates, completeness)``; ``quadratic`` gives the
    dashed-line counterpart (the box for wells, beta = 0 for oscillators)."""
    if "well" in system:
        if quadratic or math.isinf(system["well"]):
            c, n = oracle.box_projection(system["x0"], system["sigma"])
            w = c * c
            return w, oracle.box_rates(n), float(w.sum())
        c, alpha, _, _ = oracle.well_projection(system["well"], system["x0"], system["sigma"])
        w = c * c
        return w, oracle.phase_rates(alpha), float(w.sum())
    if system.get("squeeze") is not None:
        if system.get("alpha", 0.0) != 0.0:
            raise ValueError("the oracle covers squeezed vacua only")
        w = oracle.squeezed_vacuum_weights(system["squeeze"])
    else:
        w = oracle.poisson_weights(system["alpha"])
    beta = 0.0 if quadratic else system["beta"]
    return w, oracle.oscillator_rates(len(w), beta), 1.0


def curvature_spread(weights, rates):
    """Second difference of the rates at the packet's mean level, and the
    relative change of that curvature across the packet.

    ``spread = |d3| (dn + |nbar - c|) / |d2|`` with ``dn`` the packet's
    level spread: to first order the local revival time ``4 pi / |d2|``
    varies by this share over the levels the packet occupies.
    """
    w = np.asarray(weights)
    n = np.arange(len(w))
    nbar = float((n * w).sum() / w.sum())
    c = int(np.clip(round(nbar), 1, len(w) - 3))
    d2 = rates[c + 1] - 2.0 * rates[c] + rates[c - 1]
    d3 = rates[c + 2] - 3.0 * rates[c + 1] + 3.0 * rates[c] - rates[c - 1]
    dn = math.sqrt(float((w * (n - nbar) ** 2).sum() / w.sum()))
    return 4.0 * math.pi / abs(d2), abs(d3) * (dn + abs(nbar - c)) / abs(d2)


# --- parsing -----------------------------------------------------------------


def _csv(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _close(a, b, rel=4.0 * np.finfo(float).eps):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- revival reports (revivals, table1) --------------------------------------


def check_revival(report: dict, system: dict, expect_superrevival: bool = False) -> list:
    """One detected revival against the oracle series of its system."""
    bad = []
    w, rates, c_ref = reference_state(system)
    c = report["completeness"]
    t = report["detected_revival"]
    height = report["peak_height_at_revival"]
    step = report["grid_step"]
    if not c <= 1.0 + 1e-12:
        bad.append(f"completeness {c!r} exceeds 1")
    if abs(c - c_ref) > COMPLETENESS_TOL:
        bad.append(f"completeness {c!r} differs from the oracle's {c_ref!r}")
    if not height <= c * c * (1.0 + 1e-12):
        bad.append(f"peak height {height!r} exceeds completeness^2 {c * c!r}")

    f0 = oracle.intensity(w, rates, t)[0]
    peaks, f1, f2 = oracle.is_maximum(w, rates, t, step)
    if not peaks:
        bad.append(f"revival {t!r} is not a maximum of |A|^2: slope {f1:.3e}, "
                   f"curvature {f2:.3e}")
    # A parabola through the three samples nearest the peak misses the peak
    # height by less than |A|^2 changes over half a grid step.
    if abs(height - f0) > 0.125 * abs(f2) * step * step + 1e-12:
        bad.append(f"peak height {height!r} differs from |A|^2 = {f0!r} there")

    predicted = report.get("barker_predicted")
    if "well" not in system:
        # closed form at the stencil level, which stays two levels clear of n = 0
        w_n = np.asarray(w)
        centre = max(2, round(float((np.arange(len(w_n)) * w_n).sum() / w_n.sum())))
        expected = 1.0 / (1.0 + 3.0 * centre * system["beta"])
    elif math.isinf(system["well"]):
        expected = 1.0
    else:
        expected = (1.0 + 1.0 / system["well"]) ** 2
    if predicted is not None and not _close(predicted, expected, 1e-12):
        bad.append(f"predicted revival {predicted!r}, expected {expected!r}")

    if "well" not in system:
        # Squeezed vacua occupy even levels only and revive every quarter
        # period, so the window may hold more than one revival; the oracle
        # replays the command's windows on its own |A|^2.
        t_oracle = oracle.oscillator_revival(w, rates, expected)
        if t_oracle is None:
            bad.append(f"the oracle's |A|^2 gives no clear revival around {expected!r}")
        elif abs(t - t_oracle) > step:
            bad.append(f"revival {t!r} is not the highest peak of |A|^2 in the "
                       f"command's window, at {t_oracle!r}")
    else:
        t_curv, spread = curvature_spread(w, rates)
        if spread <= CURVATURE_SPREAD_VALID:
            slack = 3.0 * spread * t_curv + 0.5 * step
            if abs(t - t_curv) > slack:
                bad.append(f"revival {t!r} is {abs(t - t_curv):.3e} from the "
                           f"level-curvature time {t_curv!r} (allowed {slack:.3e})")
            if abs(t - expected) > abs(t_curv - expected) + slack:
                bad.append(f"revival {t!r} is {abs(t - expected):.3e} from (1+1/eps)^2")
        elif not 0.9 * expected - step <= t <= 1.5 * expected + step:
            bad.append(f"revival {t!r} outside the scanned window around {expected!r}")

    if report.get("superrevival_scanned"):
        sr = report["detected_superrevival"]
        if sr is None:
            if expect_superrevival:
                bad.append("no superrevival detected")
        else:
            level = oracle.intensity(w, rates, sr)[0]
            if level < SUPERREVIVAL_THRESHOLD * c_ref * c_ref * (1.0 - 1e-9):
                bad.append(f"superrevival {sr!r}: |A|^2 = {level:.6f} is below "
                           f"{SUPERREVIVAL_THRESHOLD} of |A(0)|^2 = {c_ref * c_ref:.6f}")
    return bad


def check_revivals(op: Op, text: str) -> list:
    report = json.loads(text)
    system = system_of(op)
    bad = check_revival(report, system, expect_superrevival="beta" in system)
    if "well" in system and not math.isinf(system["well"]):
        if report["scenario"]["well"]["epsilon"] != system["well"]:
            bad.append("report names another well")
    return bad


def check_table1(op: Op, text: str) -> list:
    if op.params["fmt"] == "json":
        rows = json.loads(text)
    else:
        header, body = _csv(text)
        rows = [dict(zip(header, map(float, r))) for r in body]
    bad = []
    if [r["epsilon"] for r in rows] != list(op.params["epsilons"]):
        bad.append("table1 rows do not follow the requested strengths")
    for r in rows:
        report = {"completeness": r["completeness"], "detected_revival": r["detected"],
                  "barker_predicted": r["barker"], "peak_height_at_revival": r["peak_height"],
                  "grid_step": r.get("grid_step", 1e-4)}
        bad += check_revival(report, {"well": r["epsilon"], "x0": 0.2, "sigma": 0.1})
        t, b = r["detected"], r["barker"]
        if not _close(r["percent_error"], 100.0 * abs(t - b) / t, 1e-12):
            bad.append(f"percent error {r['percent_error']!r} is not |t - b|/t")
    return bad


# --- spectrum ------------------------------------------------------------------


def check_spectrum(op: Op, text: str) -> list:
    eps = op.params["epsilon"]
    bad = []
    if op.params["fmt"] == "json":
        payload = json.loads(text)
        rows = payload["states"]
        if payload["predicted_count"] != oracle.level_count(eps):
            bad.append("predicted count differs from floor(2 eps/pi) + 1")
    else:
        header, body = _csv(text)
        if header != ["n", "parity", "alpha", "beta", "energy", "residual"]:
            return [f"unexpected header {header}"]
        rows = [{"n": int(r[0]), "parity": r[1], "alpha": float(r[2]), "beta": float(r[3]),
                 "energy": float(r[4]), "residual": float(r[5])} for r in body]
    alpha, beta, even = oracle.well_levels(eps)
    if len(rows) != oracle.level_count(eps):
        return bad + [f"{len(rows)} levels, expected floor(2 eps/pi) + 1 = "
                      f"{oracle.level_count(eps)}"]
    norms = oracle.level_norms(alpha, beta, even)
    for j, r in enumerate(rows):
        a = r["alpha"]
        if r["n"] != j + 1 or r["parity"] != ("even" if even[j] else "odd"):
            bad.append(f"level {j + 1} labelled {r['n']} {r['parity']}")
        if abs(a - alpha[j]) > ROOT_TOL * max(1.0, a):
            bad.append(f"level {j + 1}: alpha {a!r} vs brentq {alpha[j]!r}")
        if abs(r["beta"] - math.sqrt(max(eps * eps - a * a, 0.0))) > ROOT_TOL * eps:
            bad.append(f"level {j + 1}: beta {r['beta']!r} is not sqrt(eps^2 - alpha^2)")
        if not _close(r["energy"], a * a):
            bad.append(f"level {j + 1}: energy {r['energy']!r} is not alpha^2")
        if not abs(r["residual"]) <= WELL_RESIDUAL:
            bad.append(f"level {j + 1}: residual {r['residual']!r}")
        if "norm" in r and not _close(r["norm"], norms[j], 1e-9):
            bad.append(f"level {j + 1}: norm {r['norm']!r} vs closed form {norms[j]!r}")
    return bad


# --- autocorrelation series ----------------------------------------------------


def check_autocorr(op: Op, text: str) -> list:
    system = system_of(op)
    tau_max = op.params.get("tau_max", system["tau_max"])
    step = system["tau_step"]
    reference = op.params.get("reference", False)
    if op.params["fmt"] == "json":
        payload = json.loads(text)
        tau = np.array(payload["tau"])
        values = np.array(payload["autocorr"])
        ref = np.array(payload["reference"]) if "reference" in payload else None
    else:
        header, body = _csv(text)
        cols = np.array(body, dtype=float).T
        tau, values = cols[0], cols[1]
        ref = cols[2] if len(header) == 3 else None
    bad = []
    n_steps = int(math.floor(tau_max / step + 1e-9))
    if len(tau) != n_steps + 1 or not np.array_equal(tau, np.arange(n_steps + 1) * step):
        return [f"time grid is not 0..{tau_max} in steps of {step}"]
    if (ref is not None) != reference:
        bad.append("reference column present/absent contrary to the request")

    w, rates, c_ref = reference_state(system)
    pick = np.unique(np.linspace(0, n_steps, 257).astype(int))
    expect = oracle.intensity(w, rates, tau[pick])[0]
    worst = np.max(np.abs(values[pick] - expect))
    if worst > SERIES_TOL:
        bad.append(f"|A|^2 differs from the oracle by {worst:.3e}")
    if abs(values[0] - c_ref * c_ref) > COMPLETENESS_TOL:
        bad.append(f"|A(0)|^2 = {values[0]!r}, completeness^2 is {c_ref * c_ref!r}")
    if not np.all(values <= values[0] * (1.0 + 1e-12)):
        bad.append("|A|^2 exceeds |A(0)|^2")
    if ref is not None:
        period = int(round(1.0 / step))
        drift = np.max(np.abs(ref[period:] - ref[:-period])) if len(ref) > period else 0.0
        if drift > SERIES_TOL:
            bad.append(f"reference column is not 1-periodic (drift {drift:.3e})")
        wq, rq, _ = reference_state(system, quadratic=True)
        worst = np.max(np.abs(ref[pick] - oracle.intensity(wq, rq, tau[pick])[0]))
        if worst > SERIES_TOL:
            bad.append(f"reference column differs from the oracle by {worst:.3e}")
    return bad


# --- snapshots -----------------------------------------------------------------


def check_snapshot(op: Op, text: str) -> list:
    system = system_of(op)
    taus = [float(t) for t in op.params["taus"].split(",")]
    grid = np.linspace(-1.25, 1.25, op.params["grid"])
    if op.params["fmt"] == "json":
        shots = [(s["tau"], np.array(s["xbar"]), np.array(s["density"]))
                 for s in json.loads(text)["snapshots"]]
    else:
        shots = []
        for block in text.split("# tau = ")[1:]:
            lines = block.strip().splitlines()
            data = np.array([ln.split(",") for ln in lines[2:]], dtype=float)
            shots.append((float(lines[0]), data[:, 0], data[:, 1]))
    if [s[0] for s in shots] != taus:
        return [f"snapshot times {[s[0] for s in shots]} differ from {taus}"]
    c, alpha, beta, even = oracle.well_projection(system["well"], system["x0"], system["sigma"])
    rows = oracle.well_wavefunction(alpha, beta, even, grid)
    completeness = float((c * c).sum())
    bad = []
    for tau, x, density in shots:
        if not np.array_equal(x, grid):
            bad.append(f"tau {tau}: position grid is not linspace(-1.25, 1.25, {len(grid)})")
            continue
        if np.any(density < 0):
            bad.append(f"tau {tau}: negative density")
        mass = np.trapezoid(density, x)
        if abs(mass - completeness) > SNAPSHOT_MASS_TOL:
            bad.append(f"tau {tau}: density integrates to {mass!r}, completeness "
                       f"{completeness!r}")
        psi = (c * np.exp(-1j * oracle.phase_rates(alpha) * tau)) @ rows
        worst = np.max(np.abs(density - np.abs(psi) ** 2))
        if worst > SERIES_TOL * max(1.0, density.max()):
            bad.append(f"tau {tau}: density differs from the oracle by {worst:.3e}")
    return bad


# --- oscillator ------------------------------------------------------------------


def check_oscillator(op: Op, text: str) -> list:
    p = op.params
    system = {"beta": p["beta"], "squeeze": p.get("squeeze"), "alpha": p.get("alpha", 0.0)}
    ref_w, _, _ = reference_state(system)
    bad = []
    if p["fmt"] == "json":
        payload = json.loads(text)
        w = np.array(payload["weights"])
        scales = payload["timescales"]
        nc = scales["n_center"]
        if not _close(scales["superrevival_closed_form"], 1.0 / p["beta"]):
            bad.append("superrevival time is not 1/beta")
        if not _close(scales["revival_closed_form"], 1.0 / (1.0 + 3.0 * nc * p["beta"])):
            bad.append("revival time is not 1/(1 + 3 n beta)")
        for key in ("revival", "superrevival"):
            if not _close(scales[f"t_{key}"], scales[f"{key}_closed_form"], 1e-6):
                bad.append(f"finite-difference {key} time disagrees with its closed form")
        nbar = float((np.arange(len(ref_w)) * ref_w).sum())
        if abs(payload["mean_n"] - nbar) > 1e-9 * max(1.0, nbar):
            bad.append(f"mean occupation {payload['mean_n']!r} vs {nbar!r}")
    else:
        header, body = _csv(text)
        data = np.array(body, dtype=float)
        if header != ["n", "weight"] or not np.array_equal(data[:, 0], np.arange(len(data))):
            return [f"unexpected weight table header {header}"]
        w = data[:, 1]
    m = min(len(w), len(ref_w))
    if abs(w.sum() - 1.0) > 1e-12:
        bad.append(f"weights sum to {w.sum()!r}")
    if np.max(np.abs(w[:m] - ref_w[:m])) > 1e-11 or ref_w[m:].sum() > 1e-10:
        bad.append("weights differ from the closed-form distribution")
    return bad


CHECKS = {"revivals": check_revivals, "table1": check_table1, "spectrum": check_spectrum,
          "autocorr": check_autocorr, "snapshot": check_snapshot,
          "oscillator": check_oscillator}


def check(op: Op, text: str) -> list:
    """Problems with one command's output; an unparsable output is one problem."""
    try:
        return CHECKS[op.kind](op, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output could not be read: {type(exc).__name__}: {exc}"]
