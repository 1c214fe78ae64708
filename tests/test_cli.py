import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import qrevival
from qrevival import BUILTIN_SCENARIOS, ScenarioConfig, load_scenario
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
    assert ScenarioConfig.from_json(cfg.to_json()) == cfg


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "custom.json"
    cfg = BUILTIN_SCENARIOS["fig1a"]
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert load_scenario(str(path)) == cfg


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError):
        load_scenario("fig99")


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(name="bad", tau_max=1.0, tau_step=1e-4, horizon=10.0)
    data = BUILTIN_SCENARIOS["fig1a"].to_dict()
    data["tau_step"] = -1.0
    with pytest.raises(ValueError):
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


def test_spectrum_rejects_bad_strength(runner):
    result = runner.invoke(main, ["spectrum", "--epsilon", "-4"])
    assert result.exit_code == 2
    assert "error" in result.stderr


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


def test_table1_reports_the_revivals_time_after_a_retry(runner):
    eps = "4.712860219282728"
    table = runner.invoke(main, ["table1", "--epsilons", eps, "--format", "json"])
    assert table.exit_code == 0
    single = runner.invoke(main, ["revivals", "--epsilon", eps])
    assert single.exit_code == 0
    detected = json.loads(single.stdout)["detected_revival"]
    # the maximum of |A|^2, 1.508184648792237993... at 40 digits (checked
    # against mpmath in test_revival.py)
    assert json.loads(table.stdout)[0]["detected"] == detected == 1.508184648792238


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


def test_revivals_window_edge_exit_code(runner):
    result = runner.invoke(main, ["revivals", "--epsilon", "4.712628857664328",
                                  "--x0", "-0.15839646014543776",
                                  "--sigma", "0.08053085345697969"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "peaks at its edge sample" in result.stderr


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


def test_snapshot_rejects_oscillator_scenarios(runner):
    result = runner.invoke(main, ["snapshot", "--scenario", "fig5",
                                  "--tau", "0"])
    assert result.exit_code == 2


# --- options -----------------------------------------------------------------------

COMMAND_OPTIONS = {
    "spectrum": ["--epsilon", "--format", "--out"],
    "autocorr": ["--scenario", "--epsilon", "--x0", "--sigma", "--beta", "--alpha",
                 "--squeeze", "--tau-max", "--tau-step", "--reference", "--format",
                 "--out"],
    "table1": ["--x0", "--sigma", "--epsilons", "--format", "--out"],
    "revivals": ["--scenario", "--epsilon", "--x0", "--sigma", "--beta", "--alpha",
                 "--squeeze", "--horizon", "--superrevival", "--format", "--out"],
    "snapshot": ["--scenario", "--epsilon", "--x0", "--sigma", "--tau", "--grid",
                 "--format", "--out"],
    "oscillator": ["--beta", "--alpha", "--squeeze", "--cutoff", "--format", "--out"],
}
FORMATS = {"revivals": ("json", ["json"]), "oscillator": ("json", ["csv", "json"])}


@pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
def test_command_options(name):
    # shared option decorators must neither add nor drop an option
    assert sorted(main.commands) == sorted(COMMAND_OPTIONS)
    params = main.commands[name].params
    assert [opt for p in params for opt in p.opts] == COMMAND_OPTIONS[name]
    fmt = next(p for p in params if p.name == "fmt")
    assert (fmt.default, list(fmt.type.choices)) == \
        FORMATS.get(name, ("csv", ["csv", "json"]))


# --- oscillator command ------------------------------------------------------------


def test_oscillator_json_timescales(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0.002",
                                  "--squeeze", "10"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    scales = payload["timescales"]
    assert abs(scales["superrevival_closed_form"] - 500.0) < 1e-12
    assert abs(scales["t_superrevival"] - 500.0) < 1e-7
    assert abs(payload["mean_n"] - 2.025) < 1e-6


def test_oscillator_csv_weights(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0", "--alpha", "2",
                                  "--format", "csv"])
    header, body = rows(result.stdout)
    assert header == ["n", "weight"]
    total = sum(float(r[1]) for r in body)
    assert abs(total - 1.0) < 1e-12


def test_oscillator_zero_beta_reports_no_superrevival_scale(runner):
    result = runner.invoke(main, ["oscillator", "--beta", "0", "--alpha", "2"])
    payload = json.loads(result.stdout)
    assert payload["timescales"]["superrevival_closed_form"] is None
