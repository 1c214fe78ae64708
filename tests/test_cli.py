import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import qrevival
from qrevival import (BUILTIN_SCENARIOS, ScenarioConfig, WellConfig,
                      autocorrelation, coherent_weights, load_scenario, project,
                      snapshot, solve_spectrum, squeezed_weights)
from qrevival import cli, revival
from qrevival.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def rows(csv_text):
    lines = [ln for ln in csv_text.strip().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# --- scenarios ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_scenario_json_round_trip(name):
    cfg = BUILTIN_SCENARIOS[name]
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "custom.json"
    cfg = BUILTIN_SCENARIOS["fig1a"]
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert load_scenario(str(path)) == cfg


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError):
        load_scenario("fig99")


# A malformed scenario file: its content, and what the error line must name
# besides the file.
_FIG1A = BUILTIN_SCENARIOS["fig1a"].to_dict()
_FIG5 = BUILTIN_SCENARIOS["fig5"].to_dict()
MALFORMED = {
    "tau_max=null": (dict(_FIG1A, tau_max=None), "cannot read 'tau_max' from None"),
    "top-level list": ([_FIG1A], "the top level must be a JSON object"),
    "packet.x0=left": (dict(_FIG1A, packet={"x0": "left", "sigma": 0.1}),
                       "cannot read 'packet.x0' from 'left'"),
    "well=12.0": (dict(_FIG1A, well=12.0), "'well' must be an object, got 12.0"),
    # float(True) is 1.0, which would run as sigma = 1
    "packet.sigma=true": (dict(_FIG1A, packet={"x0": 0.2, "sigma": True}),
                          "cannot read 'packet.sigma' from True"),
    # the echo would name a squeeze that the coherent state never ran with
    "coherent with squeeze": (
        dict(_FIG5, oscillator=dict(_FIG5["oscillator"], kind="coherent", alpha=2.0)),
        "coherent state takes no squeeze parameter, got 10.0"),
}


@pytest.mark.parametrize("case", ["tau_max", "packet.sigma", "oscillator.kind",
                                  "directory", "out", *MALFORMED])
def test_file_and_schema_errors_exit_2(runner, tmp_path, case):
    scenario = tmp_path / "scenario.json"
    args = ["revivals", "--scenario", str(scenario)]
    if case == "directory":
        scenario.mkdir()
        named = str(scenario)
    elif case == "out":
        named = str(tmp_path / "missing" / "out.csv")
        args = ["spectrum", "--epsilon", "12", "--out", named]
    else:
        if case in MALFORMED:
            data, named = MALFORMED[case]
        else:
            *block, key = case.split(".")
            data = BUILTIN_SCENARIOS["fig5" if key == "kind" else "fig1a"].to_dict()
            del (data[block[0]] if block else data)[key]
            named = f"the key {case!r} is missing"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        named = f"scenario file {str(scenario)!r}: {named}"
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and named in result.stderr


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(name="bad", tau_max=1.0, tau_step=1e-4, horizon=10.0)
    data = BUILTIN_SCENARIOS["fig1a"].to_dict()
    data["tau_step"] = -1.0
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(data)
    for horizon in (float("inf"), float("nan")):
        data = dict(BUILTIN_SCENARIOS["fig1a"].to_dict(), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be finite"):
            ScenarioConfig.from_dict(data)


# --- spectrum command -------------------------------------------------------


def test_spectrum_row_count_and_residuals(runner):
    result = runner.invoke(main, ["spectrum", "--epsilon", "12"])
    assert result.exit_code == 0
    header, body = rows(result.stdout)
    assert header == ["n", "parity", "alpha", "beta", "energy", "residual"]
    assert len(body) == 8
    assert all(abs(float(r[5])) < 1e-10 for r in body)


def test_spectrum_single_even_state(runner):
    result = runner.invoke(main, ["spectrum", "--epsilon", "1"])
    _, body = rows(result.stdout)
    assert len(body) == 1
    assert body[0][1] == "even"


def test_spectrum_just_above_a_threshold(runner):
    # 2 pi (1 + 1e-10): the fifth level has only just bound, with beta ~ 4e-9
    result = runner.invoke(main, ["spectrum", "--epsilon", "6.283185307807905"])
    assert result.exit_code == 0
    _, body = rows(result.stdout)
    assert len(body) == 5
    assert 0.0 < float(body[-1][3]) < 1e-8


def test_spectrum_rejects_bad_strength(runner):
    result = runner.invoke(main, ["spectrum", "--epsilon", "-4"])
    assert result.exit_code == 2
    assert "error" in result.stderr


@pytest.mark.parametrize("args", [["spectrum", "--epsilon", "-4"],
                                  ["table1", "--epsilons", "-4"],
                                  ["revivals", "--epsilon", "-4"],
                                  ["autocorr", "--epsilon", "-4"]])
def test_a_bad_strength_gets_one_message(runner, args):
    # WellConfig alone checks a strength, wherever it comes from
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == \
        "error: well strength must be at least 1.5e-154 or inf, got -4.0\n"


@pytest.mark.parametrize("command", [["spectrum", "--epsilon", "{}"],
                                     ["revivals", "--epsilon", "{}"],
                                     ["autocorr", "--epsilon", "{}"],
                                     ["table1", "--epsilons", "12,{}"],
                                     ["snapshot", "--tau", "0", "--epsilon", "{}"]])
@pytest.mark.parametrize("epsilon, levels", [("1e308", "6.366198e+307"),
                                             ("1e9", "6.366198e+08"),
                                             ("1647100", "1048577")])
def test_a_well_past_the_level_cap_is_refused(runner, command, epsilon, levels):
    # 1e308 used to overflow int() and 1e9 to allocate 636,619,773 levels;
    # (2**20 - 1) pi / 2 is the strongest that solves
    result = runner.invoke(main, [arg.format(epsilon) for arg in command])
    assert result.exit_code == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr == (f"error: a well of strength {float(epsilon)} binds about "
                             f"{levels} levels, more than MAX_LEVELS = 1048576\n")


@pytest.mark.parametrize("args", [["spectrum", "--epsilon"], ["table1", "--epsilons"]])
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_refuse_a_strength_that_is_not_finite(runner, args, value, fmt):
    # the box is a spectrum, but its table would print inf and NaN residuals
    result = runner.invoke(main, [*args, value, "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "must be finite" in result.stderr


def test_spectrum_json_payload(runner):
    result = runner.invoke(main, ["spectrum", "--epsilon", "15",
                                  "--format", "json"])
    payload = json.loads(result.stdout)
    assert payload["predicted_count"] == 10
    assert len(payload["states"]) == 10


# --- autocorr command --------------------------------------------------------


def test_autocorr_starts_at_squared_completeness(runner):
    result = runner.invoke(main, ["autocorr", "--scenario", "fig1a"])
    assert result.exit_code == 0
    header, body = rows(result.stdout)
    assert header == ["tau", "autocorr"]
    assert float(body[0][0]) == 0.0
    assert abs(float(body[0][1]) - 1.0) < 1e-3


def test_autocorr_output_is_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        result = runner.invoke(main, ["autocorr", "--scenario", "fig1b",
                                      "--tau-max", "0.05", "--out", str(path)])
        assert result.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_autocorr_reference_column(runner):
    result = runner.invoke(main, ["autocorr", "--scenario", "fig1a",
                                  "--tau-max", "0.02", "--reference"])
    header, body = rows(result.stdout)
    assert header == ["tau", "autocorr", "reference"]
    assert abs(float(body[0][2]) - 1.0) < 1e-6


def test_autocorr_csv_prints_every_value_at_sixteen_digits(runner):
    args = ["autocorr", "--scenario", "fig2", "--reference"]
    csv_text = runner.invoke(main, args).stdout
    payload = json.loads(runner.invoke(main, [*args, "--format", "json"]).stdout)
    lines = ["tau,autocorr,reference"]
    for t, v, r in zip(payload["tau"], payload["autocorr"], payload["reference"]):
        lines.append(f"{t:.16e},{v:.16e},{r:.16e}")
    assert len(lines) == 8002
    assert csv_text == "\n".join(lines) + "\n"


def test_autocorr_centered_scenario_warns_but_succeeds(runner):
    result = runner.invoke(main, ["autocorr", "--scenario", "fig2",
                                  "--tau-max", "0.1"])
    assert result.exit_code == 0
    _, body = rows(result.stdout)
    assert min(float(r[1]) for r in body) > 0.0


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("option", ["--tau-max", "--tau-step"])
def test_autocorr_refuses_a_non_finite_grid(runner, option, value):
    result = runner.invoke(main, ["autocorr", "--scenario", "fig1a", option, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{option[2:].replace('-', '_')} must be finite" in result.stderr


def test_autocorr_refuses_an_oversized_grid_before_building_it(runner):
    # 5e12 samples would need 36 TiB; the refusal names the count
    result = runner.invoke(main, ["autocorr", "--epsilon", "12", "--tau-max", "5",
                                  "--tau-step", "1e-12"])
    assert result.exit_code == 2
    assert "5000000000001 samples" in result.stderr
    assert result.stdout == ""
    result = runner.invoke(main, ["autocorr", "--epsilon", "12", "--tau-max", "5",
                                  "--tau-step", "5e-324"])
    assert result.exit_code == 2
    assert "inf samples" in result.stderr


def test_autocorr_grid_limit_counts_samples(runner):
    # tau_max / tau_step = MAX_SAMPLES means MAX_SAMPLES + 1 samples
    result = runner.invoke(main, ["autocorr", "--epsilon", "12", "--tau-max", "1",
                                  "--tau-step", repr(1.0 / revival.MAX_SAMPLES)])
    assert result.exit_code == 2
    assert f"{revival.MAX_SAMPLES + 1} samples" in result.stderr


def test_autocorr_keeps_a_two_sample_grid(runner):
    result = runner.invoke(main, ["autocorr", "--epsilon", "12", "--tau-max", "1e-4",
                                  "--tau-step", "1e-4"])
    assert result.exit_code == 0
    header, *rows = result.stdout.splitlines()
    assert header == "tau,autocorr" and len(rows) == 2


def test_autocorr_flag_conflicts(runner):
    result = runner.invoke(main, ["autocorr", "--epsilon", "12",
                                  "--beta", "0.002"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["autocorr"])
    assert result.exit_code == 2


def test_autocorr_oscillator_flags(runner):
    result = runner.invoke(main, ["autocorr", "--beta", "0.002",
                                  "--squeeze", "10", "--tau-max", "0.01"])
    assert result.exit_code == 0
    _, body = rows(result.stdout)
    assert abs(float(body[0][1]) - 1.0) < 1e-12


def test_scenario_parameter_overrides(runner):
    result = runner.invoke(main, ["autocorr", "--scenario", "fig1a",
                                  "--sigma", "0.12", "--tau-max", "0.01",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["scenario"]["packet"]["sigma"] == 0.12
    assert payload["scenario"]["well"]["epsilon"] == 12.0

    result = runner.invoke(main, ["autocorr", "--scenario", "fig5",
                                  "--epsilon", "12"])
    assert result.exit_code == 2


def test_all_builtin_scenarios_run_quickly(runner, tmp_path):
    import time
    for name in sorted(BUILTIN_SCENARIOS):
        out = tmp_path / f"{name}.csv"
        start = time.perf_counter()
        result = runner.invoke(main, ["autocorr", "--scenario", name,
                                      "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, name
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        assert out.stat().st_size > 0


# --- table1 command -----------------------------------------------------------


def test_table1_reference_rows(runner):
    result = runner.invoke(main, ["table1"])
    assert result.exit_code == 0
    header, body = rows(result.stdout)
    assert [r[0].split(".")[0] for r in body] == ["1", "3", "1"]  # 12, 30, 100
    detected = [float(r[1]) for r in body]
    barker = [float(r[2]) for r in body]
    assert abs(detected[0] - 1.185) < 0.006
    assert abs(barker[1] - 1.06778) < 1e-5
    errors = [float(r[3]) for r in body]
    assert errors[0] > errors[1] > errors[2]


def test_table1_json(runner):
    result = runner.invoke(main, ["table1", "--epsilons", "12",
                                  "--format", "json"])
    payload = json.loads(result.stdout)
    assert len(payload) == 1
    assert abs(payload[0]["barker"] - (13.0 / 12.0) ** 2) < 1e-12


def test_table1_json_rows_repeat_no_constants(runner):
    # one key per number: the detection constants are not repeated per row
    result = runner.invoke(main, ["table1", "--format", "json"])
    assert result.exit_code == 0
    for row in json.loads(result.stdout):
        assert "grid_step" not in row and "refine_tol" not in row


def test_table1_reports_the_revivals_time_after_a_retry(runner):
    eps = "4.712860219282728"
    table = runner.invoke(main, ["table1", "--epsilons", eps, "--format", "json"])
    assert table.exit_code == 0
    single = runner.invoke(main, ["revivals", "--epsilon", eps])
    assert single.exit_code == 0
    detected = json.loads(single.stdout)["detected_revival"]
    # the maximum of |A|^2, 1.508184648792057229... at 40 digits (checked
    # against mpmath in test_revival.py)
    assert json.loads(table.stdout)[0]["detected"] == detected == 1.5081846487920572


@pytest.mark.parametrize("eps", [12.0, 30.0, 100.0, 4.712860219282728])
def test_table1_rows_are_the_revivals_reports(runner, eps):
    # 4.712860219282728 takes the retry window (test_revival.py)
    single = runner.invoke(main, ["revivals", "--epsilon", repr(eps),
                                  "--x0", "0.2", "--sigma", "0.1"])
    assert single.exit_code == 0
    r = json.loads(single.stdout)
    expected = [eps, r["detected_revival"], r["barker_predicted"], r["percent_error"],
                r["peak_height_at_revival"], r["completeness"]]
    table = runner.invoke(main, ["table1", "--epsilons", repr(eps), "--format", "json"])
    (row,) = json.loads(table.stdout)
    assert [row[key] for key in ("epsilon", "detected", "barker", "percent_error",
                                 "peak_height", "completeness")] == expected
    csv = runner.invoke(main, ["table1", "--epsilons", repr(eps)])
    _, (values,) = rows(csv.stdout)
    # %.16e round-trips every double
    assert [float(value) for value in values] == expected


@pytest.mark.parametrize("epsilons", ["", " , "])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table1_refuses_an_empty_strength_list(runner, epsilons, fmt):
    result = runner.invoke(main, ["table1", "--epsilons", epsilons, "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "no well strengths given" in result.stderr


def test_a_completeness_warning_is_one_plain_stderr_line(runner):
    # Table 1's retried near-threshold well leaks 27 % of the packet into
    # the continuum; the warning names neither a source file nor a line
    result = runner.invoke(main, ["table1", "--epsilons", "4.712860219282728"])
    assert result.exit_code == 0
    assert result.stderr == \
        "warning: bound states capture only 0.730282 of the initial state\n"
    _, (values,) = rows(result.stdout)
    assert float(values[-1]) == pytest.approx(0.730282, abs=5e-7)


# --- revivals command -----------------------------------------------------------


@pytest.mark.parametrize("args, redirect, start", [
    (["spectrum", "--epsilon", "12"], contextlib.redirect_stdout, "n,parity,alpha"),
    (["revivals", "--scenario", "fig1a", "--horizon", "1"], contextlib.redirect_stderr,
     "error: horizon must be at least 2"),
])
def test_in_process_runs_release_their_streams(args, redirect, start):
    # a caller running many commands in one process swaps in fresh streams
    # for each; none may stay alive, with its text, after the command
    buf = io.StringIO()
    alive = weakref.ref(buf)
    with redirect(buf), contextlib.suppress(SystemExit):
        main.main(args=args, standalone_mode=False)
    assert buf.getvalue().startswith(start)
    del buf
    gc.collect()
    assert alive() is None


def test_revivals_loads_no_scipy():
    # scipy is a test oracle only: importing it would add to the start-up
    # time and memory of every command
    code = ("import sys\n"
            "from qrevival.cli import main\n"
            "try:\n"
            "    main(['revivals', '--epsilon', '12'])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(qrevival.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "detected_revival" in done.stdout


def test_revivals_fig1a(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "fig1a"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert abs(payload["detected_revival"] - 1.1865) < 0.001
    assert payload["detected_superrevival"] is None
    assert payload["superrevival_scanned"] is False


def test_revivals_box_reference_has_no_superrevival(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "infinite",
                                  "--horizon", "8", "--superrevival"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert abs(payload["detected_revival"] - 1.0) < 1e-12
    assert payload["detected_superrevival"] is None
    assert payload["superrevival_scanned"] is True


def test_revivals_finite_well_superrevival(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "fig2",
                                  "--superrevival"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["detected_superrevival"] == pytest.approx(5.738, abs=2e-3)


def test_revivals_long_horizon_finds_the_fig1b_recovery(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "fig1b",
                                  "--superrevival", "--horizon", "4000"])
    assert result.exit_code == 0
    tau = json.loads(result.stdout)["detected_superrevival"]
    assert tau == 201.472
    cfg = load_scenario("fig1b")
    states = qrevival.solve_spectrum(qrevival.WellConfig(cfg.epsilon))
    weights = np.abs(qrevival.project(cfg.packet, states).coefficients) ** 2
    rates = states.rates
    recovered = abs(np.sum(weights * np.exp(-1j * rates * tau))) ** 2
    assert recovered >= 0.95 * weights.sum() ** 2


def test_revivals_horizon_validation(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "fig2",
                                  "--horizon", "1"])
    assert result.exit_code == 2


def test_revivals_infinite_scan_horizon_is_a_validation_error(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "fig2",
                                  "--horizon", "inf", "--superrevival"])
    assert result.exit_code == 2


@pytest.mark.parametrize("horizon", ["1e308", "1e13"])
def test_revivals_refuses_a_scan_past_exact_indices(runner, horizon):
    # horizon / ENVELOPE_STEP must stay below 2**53; a horizon just below
    # that would really scan, so only refusals are tested
    result = runner.invoke(main, ["revivals", "--scenario", "fig1a",
                                  "--superrevival", "--horizon", horizon])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "scan samples, more than 2**53" in result.stderr


@pytest.mark.parametrize("superrevival", [[], ["--superrevival"]])
@pytest.mark.parametrize("horizon", ["nan", "inf", "-inf"])
def test_revivals_refuses_nonfinite_horizon(runner, horizon, superrevival):
    # NaN and Infinity are not JSON, so such a horizon cannot be echoed back
    result = runner.invoke(main, ["revivals", "--scenario", "fig2",
                                  "--horizon", horizon, *superrevival])
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ["--beta", "0.002", "--alpha", "2", "--x0", "0.3"],
    ["--beta", "0.002", "--alpha", "2", "--sigma", "0.05"],
    ["--epsilon", "12", "--squeeze", "3"],
    ["--epsilon", "12", "--alpha", "2"],
    ["--scenario", "fig5", "--x0", "0.1"],
    ["--scenario", "fig1a", "--beta", "0.002"],
])
def test_revivals_refuses_options_of_the_other_system(runner, args):
    result = runner.invoke(main, ["revivals", *args])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_revivals_short_horizon_exit_code(runner):
    result = runner.invoke(main, ["revivals", "--scenario", "fig2",
                                  "--horizon", "4", "--superrevival"])
    assert result.exit_code == 4


@pytest.mark.parametrize("args", [
    ["--epsilon", "1e-3"],  # a 6e9-sample window before the refusal
    ["--epsilon", "1.0"],
    ["--epsilon", "1.5e-154"],
    ["--beta", "0.002", "--alpha", "0"],
])
def test_revivals_refuses_a_state_on_one_level(runner, args):
    result = runner.invoke(main, ["revivals", *args, "--superrevival"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "fewer than two levels carry weight" in result.stderr


def test_revivals_window_edge_exit_code(runner):
    result = runner.invoke(main, ["revivals", "--epsilon", "4.712628857664328",
                                  "--x0", "-0.15839646014543776",
                                  "--sigma", "0.08053085345697969"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "peaks at its edge sample" in result.stderr


@pytest.mark.parametrize("args, code", [
    (["revivals", "--epsilon", "12", "--sigma", "1e-160"], 0),
    (["revivals", "--scenario", "infinite", "--sigma", "1e-160"], 0),
    (["revivals", "--scenario", "infinite", "--sigma", "1e-300"], 4),
    (["revivals", "--epsilon", "1e4", "--sigma", "1e-300"], 4),
    (["autocorr", "--epsilon", "12", "--sigma", "1e-300", "--tau-max", "0.01"], 0),
    (["snapshot", "--epsilon", "12", "--sigma", "1e-300", "--tau", "0.5"], 0),
    (["revivals", "--epsilon", "12", "--sigma", "1e-310"], 2),
])
def test_narrow_packets_exit_cleanly(runner, args, code):
    # a packet far narrower than its distance to the walls captures next to
    # nothing, which is warned about, and leaves nothing to detect; no
    # overflow may escape as a crash or a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exit_code == code, result.stderr
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code:
        assert result.stdout == ""
        assert "error: " in result.stderr


# --- snapshot command ------------------------------------------------------------


def test_snapshot_density_peaks_at_packet_center(runner):
    result = runner.invoke(main, ["snapshot", "--scenario", "fig1a",
                                  "--tau", "0", "--grid", "251"])
    assert result.exit_code == 0
    header, body = rows(result.stdout)
    xs = np.array([float(r[0]) for r in body])
    dens = np.array([float(r[1]) for r in body])
    assert abs(xs[np.argmax(dens)] - 0.2) < 0.02


def test_snapshot_centered_scenario_density_is_even(runner):
    result = runner.invoke(main, ["snapshot", "--scenario", "fig2",
                                  "--tau", "0,0.3", "--grid", "200"])
    assert result.exit_code == 0
    sections = result.stdout.split("# tau = ")[1:]
    assert len(sections) == 2
    for section in sections:
        _, body = rows("\n".join(section.splitlines()[1:]))
        dens = np.array([float(r[1]) for r in body])
        assert np.abs(dens - dens[::-1]).max() < 1e-10


def test_snapshot_splits_at_half_revival(runner):
    result = runner.invoke(main, ["snapshot", "--scenario", "fig1a",
                                  "--tau", "0.59323", "--grid", "600"])
    _, body = rows(result.stdout.split("# tau = ")[1].split("\n", 1)[1])
    dens = np.array([float(r[1]) for r in body])
    peaks = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])) + 1
    # the reflected main hump plus genuine low replicas; discard numeric dust
    tall = [p for p in peaks if dens[p] > 1e-3 * dens.max()]
    assert len(tall) >= 2


def test_snapshot_grid_floor(runner):
    result = runner.invoke(main, ["snapshot", "--scenario", "fig1a",
                                  "--tau", "0", "--grid", "8"])
    assert result.exit_code == 2


def test_snapshot_refuses_an_oversized_grid(runner):
    result = runner.invoke(main, ["snapshot", "--epsilon", "12", "--tau", "0.1",
                                  "--grid", "1000000000"])
    assert result.exit_code == 2
    assert "got 1000000000" in result.stderr
    assert result.stdout == ""


def test_snapshot_rejects_oscillator_scenarios(runner):
    result = runner.invoke(main, ["snapshot", "--scenario", "fig5",
                                  "--tau", "0"])
    assert result.exit_code == 2


@pytest.mark.parametrize("taus", ["inf", "nan", "0.5,-inf", "0.5,1e308"])
def test_snapshot_refuses_non_finite_times(runner, taus):
    # 1e308 is finite, but its phases overflow
    result = runner.invoke(main, ["snapshot", "--scenario", "fig1a", "--tau", taus,
                                  "--grid", "32", "--format", "json"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: times must be finite, and so must their phases\n"


@pytest.mark.parametrize("tau, code", [("1e3", 0), ("1e9", 2), ("-1e15", 2)])
def test_snapshot_refuses_times_past_its_phase_rounding_bound(runner, tau, code):
    # at epsilon 100 the density at 1e9 differs from that at the next double
    # by 1.3e-5 of its peak
    result = runner.invoke(main, ["snapshot", "--epsilon", "100", "--tau", f"0,{tau}",
                                  "--grid", "32"])
    assert result.exit_code == code
    if code:
        assert result.stdout == ""
        assert result.stderr.startswith("error: |tau| = ")
        assert "more than 2**33" in result.stderr and result.stderr.count("\n") == 1


def test_snapshot_refuses_more_values_than_the_sample_budget(runner):
    # 11 times at a 10**6-point grid would print 11 million densities
    result = runner.invoke(main, ["snapshot", "--epsilon", "12", "--grid", "1000000",
                                  "--tau", ",".join(["0"] * 11)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: 11 times at 1000000 grid points would hold "
                             "11000000 values, more than 10000000\n")


def test_snapshot_prints_a_time_alone_as_among_others(runner):
    # the tau = 0.5 block of a two-time run, and a negative time's density
    alone = runner.invoke(main, ["snapshot", "--epsilon", "100", "--tau", "0.5"]).stdout
    both = runner.invoke(main, ["snapshot", "--epsilon", "100", "--tau", "0,0.5"]).stdout
    back = runner.invoke(main, ["snapshot", "--epsilon", "100", "--tau", "-0.5"]).stdout
    assert "# tau = " + both.split("# tau = ")[2] == alone
    assert back.split("\n", 1)[1] == alone.split("\n", 1)[1]
    assert back.split("\n", 1)[0] == "# tau = -5.0000000000000000e-01"


# --- options -----------------------------------------------------------------------

COMMAND_OPTIONS = {
    "spectrum": ["--epsilon", "--format", "--out"],
    "autocorr": ["--scenario", "--epsilon", "--x0", "--sigma", "--beta", "--alpha",
                 "--squeeze", "--tau-max", "--tau-step", "--reference", "--format",
                 "--out"],
    "table1": ["--x0", "--sigma", "--epsilons", "--format", "--out"],
    "revivals": ["--scenario", "--epsilon", "--x0", "--sigma", "--beta", "--alpha",
                 "--squeeze", "--horizon", "--superrevival", "--out"],
    "snapshot": ["--scenario", "--epsilon", "--x0", "--sigma", "--tau", "--grid",
                 "--format", "--out"],
    "oscillator": ["--beta", "--alpha", "--squeeze", "--format", "--out"],
}
FORMATS = {"oscillator": ("json", ["csv", "json"])}


@pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
def test_command_options(name):
    # shared option decorators must neither add nor drop an option
    assert sorted(main.commands) == sorted(COMMAND_OPTIONS)
    params = main.commands[name].params
    assert [opt for p in params for opt in p.opts] == COMMAND_OPTIONS[name]
    if name == "revivals":
        return
    fmt = next(p for p in params if p.name == "fmt")
    assert (fmt.default, list(fmt.type.choices)) == \
        FORMATS.get(name, ("csv", ["csv", "json"]))


def test_revivals_prints_json_only(runner):
    result = runner.invoke(main, ["revivals", "--epsilon", "12", "--format", "json"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error: No such option '--format'" in result.stderr


# --- oscillator command ------------------------------------------------------------


def test_oscillator_json_timescales(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0.002",
                                  "--squeeze", "10"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    scales = payload["timescales"]
    assert sorted(scales) == ["n_center", "revival_closed_form",
                              "superrevival_closed_form", "t_classical",
                              "t_revival", "t_superrevival"]
    assert scales["superrevival_closed_form"] == scales["t_superrevival"] == 500.0
    assert scales["t_revival"] == scales["revival_closed_form"]
    assert abs(payload["mean_n"] - 2.025) < 1e-6
    # central differences of the phase rates at n_center, exact for a cubic
    c = scales["n_center"]
    e = qrevival.oscillator_phase_rates(np.arange(c - 2, c + 3), 0.002)
    stencil_rv = 4.0 * np.pi / abs(e[3] - 2.0 * e[2] + e[1])
    stencil_sr = 12.0 * np.pi / abs(0.5 * (e[4] - 2.0 * e[3] + 2.0 * e[1] - e[0]))
    assert abs(stencil_rv - scales["t_revival"]) < 1e-10 * scales["t_revival"]
    assert abs(stencil_sr - scales["t_superrevival"]) < 1e-10 * 500.0
    assert abs(scales["t_classical"] - 1.0 / (2.0 * c + 3.0 * 0.002 * c * c)) < 1e-15


def test_oscillator_csv_weights(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0", "--alpha", "2",
                                  "--format", "csv"])
    header, body = rows(result.stdout)
    assert header == ["n", "weight"]
    total = sum(float(r[1]) for r in body)
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("args", [
    ["--beta", "nan"],
    ["--beta", "inf"],
    ["--beta", "0.002", "--alpha", "nan"],
    ["--beta", "0.002", "--alpha", "-inf"],
    ["--beta", "0.002", "--squeeze", "inf"],
    ["--beta", "0.002", "--squeeze", "nan"],
])
def test_oscillator_refuses_non_finite_parameters(runner, args):
    result = runner.invoke(main, ["oscillator", *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "must be finite" in result.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oscillator_refuses_a_state_with_no_mass(runner, fmt):
    # every weight of every range up to the cap underflows below this mean
    result = runner.invoke(main, ["oscillator", "--beta", "0.002", "--alpha", "300",
                                  "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: weight distribution has no mass\n"


@pytest.mark.parametrize("args", [
    ["oscillator", "--beta", "0.002", "--alpha", "1e200"],
    ["revivals", "--beta", "0.002", "--alpha", "1e200"],
    ["oscillator", "--beta", "0.002", "--alpha", "-1e100", "--format", "csv"],
    ["revivals", "--beta", "0.002", "--alpha", "1e308", "--squeeze", "2"],
])
def test_a_hopeless_displacement_has_no_mass(runner, args):
    # alpha = 1e200 used to raise OverflowError at its square
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: weight distribution has no mass\n"


@pytest.mark.parametrize("beta", ["1e308", "-3.4e297"])
def test_a_beta_whose_rates_overflow_is_refused(runner, beta):
    result = runner.invoke(main, ["revivals", "--beta", beta, "--alpha", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: beta must be at most 3.3")


def test_oscillator_takes_no_cutoff(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0.002", "--cutoff", "10"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error: No such option '--cutoff'" in result.stderr


def test_oscillator_zero_beta_reports_no_superrevival_scale(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0", "--alpha", "2"])
    payload = json.loads(result.stdout)
    assert payload["timescales"]["superrevival_closed_form"] is None


# At alpha = sqrt(2) the centre level is 2, where beta = -1/6 cancels
# 1 + 3 n beta and beta = -1/3 cancels 2 n + 3 beta n^2.  The latter's
# revival window (0.9, 1.5) ends on its exact recurrence at t_sr / 2 = 1.5.
# Near -1/6 the revival time is finite but about 2.5e4, and its window
# would hold 1.5e8 samples.
CANCELLING = [("-0.16666666666666666", ["revival_closed_form", "t_revival"], 2,
               "not finite and positive"),
              ("-0.3333333333333333", ["t_classical"], 4, "peaks at its edge"),
              ("-0.16666", [], 2, "150000000 samples")]


@pytest.mark.parametrize("beta, nulls, code, message", CANCELLING)
def test_cancelling_beta_prints_null_times(runner, beta, nulls, code, message):
    alpha = repr(math.sqrt(2.0))
    result = runner.invoke(main, ["oscillator", "--beta", beta, "--alpha", alpha])
    assert result.exit_code == 0
    scales = json.loads(result.stdout, parse_constant=_refuse_constant)["timescales"]
    assert scales["n_center"] == 2
    assert sorted(k for k, v in scales.items() if v is None) == sorted(nulls)
    assert all(v > 0 for v in scales.values() if v is not None)
    revivals = runner.invoke(main, ["revivals", "--beta", beta, "--alpha", alpha])
    assert (revivals.exit_code, revivals.stdout) == (code, "")
    assert message in revivals.stderr


# --- strict JSON -------------------------------------------------------------------


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def _scenario_runs(name):
    """Each JSON-emitting command on one built-in scenario, as
    ``(args, expected exit code)``."""
    cfg = BUILTIN_SCENARIOS[name]
    runs = [
        (["autocorr", "--scenario", name, "--tau-max", "0.05", "--reference",
          "--format", "json"], 0),
        (["revivals", "--scenario", name, "--superrevival"], 0),
    ]
    finite_well = cfg.epsilon is not None and np.isfinite(cfg.epsilon)
    runs.append((["snapshot", "--scenario", name, "--tau", "0,0.5", "--grid", "32",
                  "--format", "json"], 0 if finite_well else 2))
    if finite_well:
        runs.append((["spectrum", "--epsilon", repr(cfg.epsilon), "--format", "json"],
                     0))
        runs.append((["table1", "--x0", repr(cfg.packet.x0), "--sigma",
                      repr(cfg.packet.sigma), "--epsilons", repr(cfg.epsilon),
                      "--format", "json"], 0))
    if cfg.oscillator is not None:
        osc = cfg.oscillator
        runs.append((["oscillator", "--beta", repr(osc.beta), "--alpha", repr(osc.alpha),
                      "--squeeze", repr(osc.squeeze)], 0))
    return runs


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_json_output_is_strict_json(runner, name):
    # NaN and Infinity are not JSON; a command either prints JSON or nothing
    for args, code in _scenario_runs(name):
        result = runner.invoke(main, args)
        assert result.exit_code == code, (args, result.stderr)
        if code == 0:
            text = result.stdout
            # what json.dumps prints for the payload the text encodes
            canonical = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert_same_text(text, canonical)
            json.loads(text, parse_constant=_refuse_constant)
        else:
            assert result.stdout == "", args


_OVERRIDES = {"--tau-max": "tau_max", "--tau-step": "tau_step", "--horizon": "horizon"}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_json_echo_rebuilds_the_scenario_that_ran(runner, name):
    cfg = BUILTIN_SCENARIOS[name]
    runs = [["autocorr", "--scenario", name, "--format", "json", "--tau-max", "0.01"],
            ["autocorr", "--scenario", name, "--format", "json", "--tau-max", "0.01",
             "--tau-step", "0.002"],
            ["revivals", "--scenario", name],
            ["revivals", "--scenario", name, "--horizon", "30.5"]]
    if cfg.epsilon is not None and np.isfinite(cfg.epsilon):
        runs.append(["snapshot", "--scenario", name, "--tau", "0.5", "--grid", "32",
                     "--format", "json"])
    for args in runs:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.stderr)
        echo = json.loads(result.stdout)["scenario"]
        overrides = {_OVERRIDES[flag]: float(value)
                     for flag, value in zip(args, args[1:]) if flag in _OVERRIDES}
        assert ScenarioConfig.from_dict(echo) == replace(cfg, **overrides), args


# --- CSV byte identity -------------------------------------------------------------
# Each command's CSV as it was built before the vectorised formatter: every
# float through Python's "{:.16e}", one row at a time.  The commands must
# still print exactly these bytes.


def _fmt(value):
    return f"{value:.16e}"


def assert_same_text(ours, expected):
    """Equal text, or a failure naming the first line that differs."""
    if ours != expected:
        lines = zip(ours.splitlines(), expected.splitlines())
        first = next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b), None)
        counts = ours.count("\n"), expected.count("\n")
        pytest.fail(f"first differing line (index, printed, expected): {first}; "
                    f"{counts[0]} against {counts[1]} lines")


def _oracle_autocorr(name):
    """The ``autocorr --reference`` text of a scenario and, from the same
    rows, the text without the reference column."""
    cfg = cli._resolve_scenario(name)
    weights, rates = cli._system(cfg)[:2]
    n_steps = int(math.floor(cfg.tau_max / cfg.tau_step + 1e-9))
    taus = np.arange(0, n_steps + 1, dtype=float) * cfg.tau_step
    series = autocorrelation(weights, rates, taus)
    ref_w, ref_rates = cli._system(cfg, reference=True)[:2]
    columns = [series.tau.tolist(), series.values.tolist(),
               autocorrelation(ref_w, ref_rates, taus).values.tolist()]
    lines = list(map("{:.16e},{:.16e},{:.16e}".format, *columns))
    with_ref = "\n".join(["tau,autocorr,reference", *lines]) + "\n"
    without = "\n".join(["tau,autocorr", *(ln.rsplit(",", 1)[0] for ln in lines)])
    return with_ref, without + "\n"


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_autocorr_csv_bytes_match_python_formatting(runner, name):
    # fig2's bound states capture only 0.998962 of its packet, a physical fact
    captured = (pytest.warns(qrevival.CompletenessWarning, match="0.998962")
                if name == "fig2" else contextlib.nullcontext())
    with captured:
        with_ref, without = _oracle_autocorr(name)
    for extra, expected in (([], without), (["--reference"], with_ref)):
        result = runner.invoke(main, ["autocorr", "--scenario", name, *extra])
        assert result.exit_code == 0, result.stderr
        assert_same_text(result.stdout, expected)


@pytest.mark.parametrize("epsilon", ["0.5", "12", "1e4"])
def test_spectrum_csv_bytes_match_python_formatting(runner, epsilon):
    # one level, then residuals of either sign; 6,367 rows at 1e4
    states = solve_spectrum(WellConfig(epsilon=float(epsilon)))
    n = range(1, len(states) + 1)
    parity = ["even" if even else "odd" for even in states.even.tolist()]
    row = "{},{},{:.16e},{:.16e},{:.16e},{:.16e}".format
    lines = map(row, n, parity, states.alpha, states.beta, states.energy,
                states.residuals)
    expected = "\n".join(["n,parity,alpha,beta,energy,residual", *lines]) + "\n"
    result = runner.invoke(main, ["spectrum", "--epsilon", epsilon])
    assert_same_text(result.stdout, expected)


def test_snapshot_csv_bytes_match_python_formatting(runner):
    cfg = BUILTIN_SCENARIOS["fig1a"]
    states = solve_spectrum(WellConfig(cfg.epsilon))
    decomp = project(cfg.packet, states)
    grid = np.linspace(-1.25, 1.25, 512)
    lines = []
    taus = (0.0, 0.59, -0.3)
    for t, dens in zip(taus, snapshot(decomp, states, taus, grid)):
        lines.append(f"# tau = {_fmt(t)}")
        lines.append("xbar,density")
        lines.extend(f"{_fmt(x)},{_fmt(d)}" for x, d in zip(grid, dens))
    result = runner.invoke(main, ["snapshot", "--scenario", "fig1a", "--tau",
                                  "0,0.59,-0.3", "--grid", "512"])
    assert_same_text(result.stdout, "\n".join(lines) + "\n")


@pytest.mark.parametrize("args", [["--beta", "0.002", "--squeeze", "10"],
                                  ["--beta", "0.01", "--alpha", "3"]])
def test_oscillator_csv_bytes_match_python_formatting(runner, args):
    squeeze = float(args[3]) if args[2] == "--squeeze" else None
    fock = (coherent_weights(float(args[3])) if squeeze is None
            else squeezed_weights(squeeze, 0.0))
    lines = ["n,weight"]
    lines.extend(f"{n},{_fmt(w)}" for n, w in zip(fock.n, fock.weights))
    result = runner.invoke(main, ["oscillator", *args, "--format", "csv"])
    assert_same_text(result.stdout, "\n".join(lines) + "\n")


def test_table1_csv_bytes_match_python_formatting(runner):
    lines = ["epsilon,detected,barker,percent_error,peak_height,completeness"]
    for eps in (12.0, 30.0, 100.0):
        # the default packet of both commands is x0 = 0.2, sigma = 0.1
        r = json.loads(runner.invoke(main, ["revivals", "--epsilon", repr(eps)]).stdout)
        lines.append(",".join(_fmt(value) for value in (
            eps, r["detected_revival"], r["barker_predicted"], r["percent_error"],
            r["peak_height_at_revival"], r["completeness"])))
    result = runner.invoke(main, ["table1"])
    assert_same_text(result.stdout, "\n".join(lines) + "\n")


# --- JSON byte identity ------------------------------------------------------------
# The JSON writer encodes arrays on their own; it must still print exactly what
# json.dumps(..., indent=2, sort_keys=True) prints for the payload.  Every
# command's output is also checked to be its own canonical form, on every
# built-in scenario, in test_json_output_is_strict_json.


def _spectrum_rows():
    result = CliRunner().invoke(main, ["spectrum", "--epsilon", "12", "--format", "json"])
    return json.loads(result.stdout)["states"]


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


@pytest.mark.parametrize("payload", [
    {"empty": np.array([]), "one": np.array([0.25]), "count": 0},
    {"values": np.array([0.5, np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, 1e22])},
    {"n": np.arange(4), "even": np.array([True, False]), "grid": np.zeros((2, 2))},
    {"states": _spectrum_rows()},
    {"states": _spectrum_rows(), "alpha": np.linspace(0.0, 1.0, 5)},
    [{"tau": 0.5, "xbar": np.linspace(-1.25, 1.25, 3), "density": np.ones(3)}, []],
    {"name": "Schr\u00f6dinger \u03c8 \"\\\n", "tau": np.arange(3.0), "none": None},
    np.array([1.5, -2.0]),
    # arrays three levels deep, inside lists of dicts
    {"runs": [{"snapshots": [{"tau": 0.5, "density": np.ones(2)}, {}],
               "grid": np.arange(2.0)}, [np.zeros(1), [np.linspace(0.0, 1.0, 3)]]]},
    # an array next to "" values, a user string like a control chunk, an empty key
    {"a": np.arange(2.0), "b": "", "": "\u00001", "c": ["", np.ones(1), ""]},
    [np.arange(2.0), "", "\u00001"],
    # json.dumps quotes a key that is not a string, beside an array too
    {1: np.arange(2.0), 2.5: "x", 3: {True: np.ones(1)}},
])
def test_json_writer_prints_the_bytes_of_json_dumps(payload):
    expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert cli._json_dump(payload) == expected


def test_json_writer_refuses_what_it_cannot_print_as_json_dumps_would():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        cli._json_dump({"levels": {1, 2}, "tau": np.arange(2.0)})
