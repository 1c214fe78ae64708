"""Tests of the benchmark itself: each correctness check rejects a perturbed
output, and every workload runs end to end at a tiny size.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import invariants
import oracle
import run
import workloads
from workloads import Op

CLI = run.import_program()
INVOKE = run.Invoker(CLI.main)


def output(op: Op) -> str:
    code, out, err = INVOKE(op.args)
    assert code == 0, err
    return out


def well_op(eps=30.0, x0=0.1, sigma=0.08):
    return workloads._well_op(eps, x0, sigma)


def figure_op(kind, *args, **params):
    return Op(kind, (kind,) + tuple(str(a) for a in args), params)


OSCILLATOR = Op("revivals", ("revivals", "--beta", repr(1 / 40), "--alpha", "2.0",
                             "--superrevival", "--horizon", "60.0"),
                {"beta": 1 / 40, "kind": "coherent", "squeeze": None, "alpha": 2.0})


def test_scenario_table_matches_program():
    from qrevival import BUILTIN_SCENARIOS
    for name, ours in workloads.SCENARIOS.items():
        theirs = BUILTIN_SCENARIOS[name].to_dict()
        assert ours["tau_max"] == theirs["tau_max"] and ours["tau_step"] == theirs["tau_step"]
        if "well" in ours:
            assert ours["well"] == theirs["well"]["epsilon"]
            assert (ours["x0"], ours["sigma"]) == (theirs["packet"]["x0"],
                                                  theirs["packet"]["sigma"])
        else:
            osc = theirs["oscillator"]
            assert (ours["beta"], ours["squeeze"], ours["alpha"]) == \
                (osc["beta"], osc["squeeze"], osc["alpha"])


@pytest.mark.parametrize("op", [well_op(), well_op(4 * math.pi / 2 * (1 + 3e-5)), OSCILLATOR],
                         ids=["well", "near-threshold", "oscillator"])
def test_revival_checks_accept_then_reject_perturbations(op):
    text = output(op)
    assert checks.check(op, text) == []
    report = json.loads(text)

    def rejected(**change):
        return checks.check(op, json.dumps(dict(report, **change)))

    step = report["grid_step"]
    assert rejected(detected_revival=report["detected_revival"] + step)
    assert rejected(detected_revival=report["detected_revival"] - step)
    assert rejected(peak_height_at_revival=report["peak_height_at_revival"] * (1 + 1e-3))
    assert rejected(barker_predicted=report["barker_predicted"] * (1 + 1e-9))
    if "epsilon" in op.params:
        assert rejected(completeness=1.0 + 1e-9)
        assert rejected(completeness=report["completeness"] - 1e-9)
    else:
        assert rejected(detected_superrevival=report["detected_superrevival"] + 0.25)
        assert rejected(detected_superrevival=None)


def test_completeness_above_one_is_rejected_even_when_the_oracle_agrees():
    report = {"completeness": 1.0 + 1e-11, "detected_revival": 1.0,
              "peak_height_at_revival": 1.0, "grid_step": 1e-4}
    problems = checks.check_revival(report, {"well": math.inf, "x0": 0.0, "sigma": 0.05})
    assert any("exceeds 1" in p for p in problems)


def test_spectrum_checks():
    for op in (figure_op("spectrum", "--epsilon", 12, epsilon=12.0, fmt="csv"),
               figure_op("spectrum", "--epsilon", 15, "--format", "json", epsilon=15.0,
                         fmt="json")):
        text = output(op)
        assert checks.check(op, text) == []
        lines = text.splitlines()
        assert checks.check(op, "\n".join(lines[:-1]) + "\n")      # a level missing
        if op.params["fmt"] == "csv":
            head, row = lines[:2], lines[2].split(",")
            row[2] = repr(float(row[2]) * (1 + 1e-10))
            assert checks.check(op, "\n".join(head + [",".join(row)] + lines[3:]))
        else:
            payload = json.loads(text)
            payload["states"][3]["norm"] *= 1 + 1e-8
            assert checks.check(op, json.dumps(payload))


def test_autocorr_checks():
    op = figure_op("autocorr", "--scenario", "fig2", "--tau-max", 2, "--reference",
                   scenario="fig2", tau_max=2.0, reference=True, fmt="csv")
    text = output(op)
    assert checks.check(op, text) == []
    header, *rows = text.splitlines()

    def with_row(k, column, factor):
        cells = rows[k].split(",")
        cells[column] = repr(float(cells[column]) * factor)
        return "\n".join([header] + rows[:k] + [",".join(cells)] + rows[k + 1:]) + "\n"

    assert checks.check(op, with_row(0, 1, 1 + 1e-6))       # |A(0)|^2 off completeness^2
    assert checks.check(op, with_row(1500, 2, 1 + 1e-4))    # reference not 1-periodic
    assert checks.check(op, with_row(len(rows) - 1, 1, 1 + 1e-5))   # series off the oracle
    assert checks.check(op, "\n".join([header] + rows[:-1]) + "\n")  # grid cut short


def test_snapshot_checks():
    op = figure_op("snapshot", "--scenario", "fig1a", "--tau", "0.0,0.59", "--grid", 512,
                   scenario="fig1a", taus="0.0,0.59", grid=512, fmt="csv")
    text = output(op)
    assert checks.check(op, text) == []
    lines = text.splitlines()
    x, d = lines[300].split(",")
    assert checks.check(op, text.replace(lines[300], f"{x},{-float(d)!r}"))
    scaled = [ln if ln.startswith(("#", "x")) else
              f"{ln.split(',')[0]},{float(ln.split(',')[1]) * (1 + 1e-4)!r}" for ln in lines]
    assert checks.check(op, "\n".join(scaled) + "\n")


def test_table1_and_oscillator_checks():
    op = figure_op("table1", "--epsilons", "12,30", "--format", "json", epsilons=(12.0, 30.0),
                   fmt="json")
    text = output(op)
    assert checks.check(op, text) == []
    rows = json.loads(text)
    rows[1]["detected"] += 1e-4
    assert checks.check(op, json.dumps(rows))

    op = figure_op("oscillator", "--beta", 0.002, "--squeeze", 10, beta=0.002,
                   squeeze=10.0, alpha=0.0, fmt="json")
    text = output(op)
    assert checks.check(op, text) == []
    payload = json.loads(text)
    payload["weights"][2] += 1e-9
    payload["weights"][4] -= 1e-9
    assert checks.check(op, json.dumps(payload))


def test_unreadable_output_is_a_problem():
    assert checks.check(well_op(), "not json")


def test_one_flipped_byte_in_a_repeat_is_caught():
    op = figure_op("spectrum", "--epsilon", 12, epsilon=12.0, fmt="csv")
    text = output(op)
    flipped = bytearray(text.encode())
    flipped[100] ^= 0x01
    records = [(0, 0.1, 0, hashlib.sha256(text.encode()).hexdigest(), len(text)),
               (0, 0.1, 0, hashlib.sha256(bytes(flipped)).hexdigest(), len(text))]
    problems, _ = run.repeat_problems([op], records)
    assert problems
    assert run.repeat_problems([op], records[:1] * 2)[0] == []


def test_invariants_hold_and_catch_broken_kernels(monkeypatch):
    w, rates, _ = checks.reference_state({"well": 30.0, "x0": 0.1, "sigma": 0.08})
    predicted, _ = checks.curvature_spread(w, rates)
    assert invariants.mirror_and_scaling(w, rates, predicted) == []

    from qrevival import revival
    honest = revival.autocorrelation

    def lopsided(weights, rates, taus, provenance=""):
        series = honest(weights, rates, taus, provenance)
        return revival.AutocorrSeries(series.tau, series.values * (1 + 1e-15 * np.sign(taus)))

    monkeypatch.setattr(revival, "autocorrelation", lopsided)
    assert invariants.mirror_and_scaling(w, rates, predicted)

    def rounding(weights, rates, taus, provenance=""):
        series = honest(weights, rates, taus, provenance)
        scale = float(np.sum(weights))
        return revival.AutocorrSeries(series.tau, series.values + 1e-3 * scale * series.tau)

    monkeypatch.setattr(revival, "autocorrelation", rounding)
    assert invariants.mirror_and_scaling(w, rates, predicted)


def test_oracle_screen_keeps_only_clear_revival_windows():
    for seed in range(1, 4):
        for op in workloads.superrevival_scan(seed):
            p = op.params
            value = p["squeeze"] if p["kind"] == "squeezed" else p["alpha"]
            assert workloads._revival_window_is_clear(p["kind"], value, p["beta"])


def test_oracle_screen_drops_a_revival_the_parabola_misses():
    # the command reports 0.84412, 0.28 grid steps past the maximum at 0.84410
    assert not workloads._revival_window_is_clear("coherent", 5.823313895990627,
                                                  0.0019011406844106464)


def test_squeezed_vacuum_revival_is_the_highest_peak_of_its_window():
    # Even levels only: the window (0.9, 1.5) x 0.982 holds the revivals near
    # 0.99 and 1.23, and the higher one, at 1.23, is the one reported.
    beta, squeeze = 0.0029940119760479044, 5.5423894809037835
    op = Op("revivals", ("revivals", "--beta", repr(beta), "--squeeze", repr(squeeze)),
            {"beta": beta, "kind": "squeezed", "squeeze": squeeze, "alpha": 0.0})
    text = output(op)
    report = json.loads(text)
    assert abs(report["detected_revival"] - 1.2334) < 1e-4
    assert checks.check(op, text) == []
    w, rates, _ = checks.reference_state(checks.system_of(op))
    lower = oracle.parabolic_vertex(w, rates, 0.9894, 1e-4)
    height = float(oracle.intensity(w, rates, lower)[0])
    assert checks.check(op, json.dumps(dict(report, detected_revival=lower,
                                            peak_height_at_revival=height)))


def bench(*args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_completes_at_a_tiny_size(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--trace", trace, "--tiny",
                 cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] is not None for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = bench("--workload", "depth_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
