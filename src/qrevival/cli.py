"""Command-line front end.

Emits deterministic CSV or JSON for every bundled scenario.  Numbers are
printed with 17 significant digits so repeated runs diff clean.  Exit codes:
0 success, 2 validation error, 3 numerical non-convergence, 4 detection
ambiguity, a window-edge peak or an exhausted scan horizon.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from .anharmonic import (coherent_weights, oscillator_phase_rates,
                         oscillator_timescales, squeezed_weights)
from .csvtext import csv_rows
from .errors import (AmbiguousWindowError, ConvergenceError,
                     CutoffTooSmallError, EdgePeakError, HorizonTooShortError)
from .revival import (DETECTION_MAX_STEP, ENVELOPE_STEP, REFINE_TOL,
                      autocorrelation, detection_grid, principal_revival,
                      scan_superrevival, table1_report)
from .scenarios import (OscillatorSystem, ScenarioConfig, load_scenario,
                        require_finite)
from .spectrum import WellConfig, barker, solve_spectrum
from .wavepacket import GaussianSpec, project, snapshot

# Ad-hoc systems override these: --epsilon the well's strength, --beta the
# oscillator's nonlinearity.
_CUSTOM_WELL = ScenarioConfig(name="custom", tau_max=1.5, tau_step=1e-4,
                              horizon=40.0, epsilon=math.inf,
                              packet=GaussianSpec(x0=0.2, sigma=0.1))
_CUSTOM_OSCILLATOR = ScenarioConfig(
    name="custom", tau_max=5.0, tau_step=1e-4, horizon=600.0,
    oscillator=OscillatorSystem(beta=0.0, kind="coherent", alpha=0.0))

# Largest `snapshot` grid, refused before allocation.
MAX_GRID = 10 ** 6


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        # Not click.echo: it caches the stream it writes to, keyed weakly by
        # the stream but holding it strongly, so a caller that swaps in a
        # fresh sys.stdout or sys.stderr per in-process command would keep
        # every stream alive with its text.
        sys.stdout.write(text)
        sys.stdout.flush()


def _json_dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, each
    numpy array in ``payload`` standing for its ``tolist()``.

    ``indent`` sends every value through the pure-Python encoder.  A flat
    numeric array is instead encoded whole by the C encoder and re-indented,
    one array at a time; parts of ``payload`` that hold no array go to
    ``json.dumps`` unchanged.
    """
    return _json_text(payload, "\n") + "\n"


def _json_text(value, newline):
    """The indented JSON of ``value``, every line break in it written as
    ``newline``; objects that hold arrays need string keys."""
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind in "biuf" and len(value):
            inner = newline + "  "
            # no number's JSON holds ", ", so it separates the items alone
            items = json.dumps(value.tolist())[1:-1].replace(", ", "," + inner)
            return "[" + inner + items + newline + "]"
        value = value.tolist()
    try:
        return json.dumps(value, indent=2, sort_keys=True,
                          default=_refuse_array).replace("\n", newline)
    except _HoldsArray:
        pass
    inner = newline + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("an object holding arrays needs string keys")
        items = [inner + json.dumps(key) + ": " + _json_text(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + ",".join(items) + newline + "}"
    items = [inner + _json_text(item, inner) for item in value]
    return "[" + ",".join(items) + newline + "]"


class _HoldsArray(Exception):
    """``json.dumps`` met a numpy array."""


def _refuse_array(value):
    if isinstance(value, np.ndarray):
        raise _HoldsArray
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.Abort):
            raise
        except (AmbiguousWindowError, EdgePeakError, HorizonTooShortError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(4)
        except ConvergenceError as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(3)
        except (ValueError, CutoffTooSmallError, TypeError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(2)
    return wrapper


def output_options(default="csv", formats=("csv", "json")):
    """``--format`` and ``--out``, which every command takes."""
    def decorate(fn):
        fn = click.option("--out", type=click.Path(), default=None)(fn)
        return click.option("--format", "fmt", type=click.Choice(formats),
                            default=default)(fn)
    return decorate


def system_options(oscillator=True):
    """``--scenario`` and the overrides of its system: the well and packet
    options, and with ``oscillator`` the oscillator options too."""
    names = ["--epsilon", "--x0", "--sigma"]
    if oscillator:
        names += ["--beta", "--alpha", "--squeeze"]

    def decorate(fn):
        for name in reversed(names):
            fn = click.option(name, type=float, default=None)(fn)
        return click.option("--scenario", type=str, default=None,
                            help="Built-in name or JSON scenario file.")(fn)
    return decorate


def _resolve_scenario(scenario, epsilon=None, x0=None, sigma=None, beta=None,
                      alpha=None, squeeze=None, tau_max=None,
                      tau_step=None) -> ScenarioConfig:
    """The named scenario, or the ad-hoc well or oscillator, with the given
    overrides; overriding a block the scenario lacks is refused."""
    if scenario:
        data = load_scenario(scenario).to_dict()
    elif (epsilon is None) == (beta is None):
        raise ValueError("give either --scenario, or exactly one of "
                         "--epsilon (well) / --beta (oscillator)")
    else:
        data = (_CUSTOM_WELL if beta is None else _CUSTOM_OSCILLATOR).to_dict()
    overrides = {
        "well": {"epsilon": epsilon},
        "packet": {"x0": x0, "sigma": sigma},
        "oscillator": {"beta": beta, "alpha": alpha, "squeeze": squeeze,
                       "kind": None if squeeze is None else "squeezed"},
    }
    for block, values in overrides.items():
        given = {key: value for key, value in values.items() if value is not None}
        if given:
            if block not in data:
                raise ValueError(f"{data['name']!r} has no {block} to override")
            data[block].update(given)
    for key, value in (("tau_max", tau_max), ("tau_step", tau_step)):
        if value is not None:
            data[key] = value
    return ScenarioConfig.from_dict(data)


def _fock_for(cfg: ScenarioConfig):
    """Number-basis weights of an oscillator scenario; None for a well.

    Built once per command and passed to each helper that needs them.
    """
    osc = cfg.oscillator
    if osc is None:
        return None
    if osc.kind == "coherent":
        return coherent_weights(osc.alpha)
    return squeezed_weights(osc.squeeze, osc.alpha)


def _series_inputs(cfg: ScenarioConfig, fock):
    """Weights, phase rates and completeness for a scenario's system."""
    if cfg.epsilon is not None:
        return _well_inputs(cfg.epsilon, cfg.packet)
    return fock.weights, oscillator_phase_rates(fock.n, cfg.oscillator.beta), 1.0


def _reference_inputs(cfg: ScenarioConfig, fock):
    """Dashed-line counterpart: the box for wells, the quadratic-spectrum
    oscillator for oscillator scenarios."""
    if cfg.epsilon is not None:
        return _well_inputs(math.inf, cfg.packet)[:2]
    return fock.weights, oscillator_phase_rates(fock.n, 0.0)


def _well_inputs(epsilon, packet):
    states = solve_spectrum(WellConfig(epsilon))
    decomp = project(packet, states)
    return decomp.weights, states.rates, decomp.completeness


def _revival_prediction(cfg: ScenarioConfig, fock) -> float:
    if cfg.epsilon is not None:
        return barker(WellConfig(cfg.epsilon)).approx_revival_time
    return oscillator_timescales(fock, cfg.oscillator.beta).revival_time


@click.group()
def main():
    """Spectra, wavepacket revivals and superrevival scans."""


@main.command("spectrum")
@click.option("--epsilon", type=float, required=True, help="Well strength.")
@output_options()
@cli_errors
def cmd_spectrum(epsilon, fmt, out):
    """Bound-state table for a well of the given strength."""
    # the box's table would print inf and NaN residuals
    require_finite(epsilon=epsilon)
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    n = range(1, len(states) + 1)
    parity = ["even" if even else "odd" for even in states.even.tolist()]
    residual = states.residuals
    if fmt == "csv":
        body = csv_rows([states.alpha, states.beta, states.energy, residual],
                        lead=[f"{i},{p}" for i, p in zip(n, parity)])
        _emit("n,parity,alpha,beta,energy,residual\n" + body, out)
    else:
        keys = ("n", "parity", "alpha", "beta", "energy", "norm",
                "weakly_bound", "residual")
        columns = [n, parity] + [a.tolist() for a in (
            states.alpha, states.beta, states.energy, states.norm,
            states.weakly_bound, residual)]
        payload = {
            "epsilon": epsilon,
            "predicted_count": WellConfig(epsilon=epsilon).predicted_state_count,
            "states": [dict(zip(keys, level)) for level in zip(*columns)],
        }
        _emit(_json_dump(payload), out)


@main.command("autocorr")
@system_options()
@click.option("--tau-max", type=float, default=None)
@click.option("--tau-step", type=float, default=None)
@click.option("--reference", is_flag=True, default=False,
              help="Add the dashed-line counterpart as a third column.")
@output_options()
@cli_errors
def cmd_autocorr(tau_max, tau_step, reference, fmt, out, **system):
    """Squared autocorrelation series over the scenario's time grid."""
    cfg = _resolve_scenario(tau_max=tau_max, tau_step=tau_step, **system)
    taus = detection_grid(0.0, cfg.tau_max, cfg.tau_step)
    fock = _fock_for(cfg)
    weights, rates, _completeness = _series_inputs(cfg, fock)
    series = autocorrelation(weights, rates, taus, provenance=cfg.name)
    ref_values = None
    if reference:
        ref_w, ref_rates = _reference_inputs(cfg, fock)
        ref_values = autocorrelation(ref_w, ref_rates, taus).values

    if fmt == "csv":
        columns = [series.tau, series.values]
        header = "tau,autocorr"
        if ref_values is not None:
            columns.append(ref_values)
            header += ",reference"
        _emit(header + "\n" + csv_rows(columns), out)
    else:
        payload = {"scenario": cfg.to_dict(), "tau": series.tau,
                   "autocorr": series.values}
        if ref_values is not None:
            payload["reference"] = ref_values
        _emit(_json_dump(payload), out)


@main.command("table1")
@click.option("--x0", type=float, default=0.2, show_default=True)
@click.option("--sigma", type=float, default=0.1, show_default=True)
@click.option("--epsilons", type=str, default="12,30,100", show_default=True)
@output_options()
@cli_errors
def cmd_table1(x0, sigma, epsilons, fmt, out):
    """Detected vs predicted revival times across well strengths."""
    eps_list = [float(tok) for tok in epsilons.split(",") if tok.strip()]
    if not eps_list:
        raise ValueError("no well strengths given")
    for eps in eps_list:
        require_finite(epsilon=eps)
    packet = GaussianSpec(x0=x0, sigma=sigma)
    reports = table1_report(packet, eps_list)
    if fmt == "csv":
        columns = [[getattr(r, key) for r in reports] for key in (
            "epsilon", "detected_revival", "barker_predicted", "percent_error",
            "peak_height_at_revival", "completeness")]
        _emit("epsilon,detected,barker,percent_error,peak_height,completeness\n"
              + csv_rows(columns), out)
    else:
        payload = [
            {"epsilon": r.epsilon, "detected": r.detected_revival,
             "barker": r.barker_predicted, "percent_error": r.percent_error,
             "peak_height": r.peak_height_at_revival,
             "completeness": r.completeness, "grid_step": DETECTION_MAX_STEP,
             "refine_tol": REFINE_TOL}
            for r in reports
        ]
        _emit(_json_dump(payload), out)


@main.command("revivals")
@system_options()
@click.option("--horizon", type=float, default=None,
              help="Scan horizon; defaults to the scenario's.")
@click.option("--superrevival", is_flag=True, default=False,
              help="Also scan the peak envelope for a recovery.")
@output_options("json", ("json",))
@cli_errors
def cmd_revivals(horizon, superrevival, fmt, out, **system):
    """Detect the principal revival (and optionally the first superrevival)."""
    cfg = _resolve_scenario(**system)
    horizon = cfg.horizon if horizon is None else horizon
    if not (math.isfinite(horizon) and horizon >= 2.0):
        raise ValueError(f"horizon must be at least 2 and finite, got {horizon}")
    fock = _fock_for(cfg)
    weights, rates, completeness = _series_inputs(cfg, fock)
    predicted = _revival_prediction(cfg, fock)
    detected, height = principal_revival(weights, rates, predicted,
                                         provenance=cfg.name)

    super_tau = None
    if superrevival:
        super_tau = scan_superrevival(weights, rates, horizon, predicted)

    payload = {
        "scenario": cfg.to_dict(),
        "detected_revival": detected,
        "barker_predicted": predicted,
        "percent_error": 100.0 * abs(detected - predicted) / detected,
        "peak_height_at_revival": height,
        "detected_superrevival": super_tau,
        "completeness": completeness,
        "horizon": horizon,
        "grid_step": DETECTION_MAX_STEP,
        "envelope_step": ENVELOPE_STEP,
        "superrevival_scanned": bool(superrevival),
    }
    _emit(_json_dump(payload), out)


@main.command("snapshot")
@system_options(oscillator=False)
@click.option("--tau", "tau_list", type=str, required=True,
              help="Comma-separated scaled times.")
@click.option("--grid", "grid_n", type=int, default=256, show_default=True)
@output_options()
@cli_errors
def cmd_snapshot(tau_list, grid_n, fmt, out, **system):
    """Probability density on a position grid at the requested times."""
    if not 32 <= grid_n <= MAX_GRID:
        raise ValueError(f"grid must have 32 to {MAX_GRID} points, got {grid_n}")
    cfg = _resolve_scenario(**system)
    if cfg.epsilon is None or math.isinf(cfg.epsilon):
        raise ValueError("snapshot requires a finite-well scenario")
    taus = [float(tok) for tok in tau_list.split(",") if tok.strip()]
    if not taus:
        raise ValueError("no times given")
    for t in taus:
        require_finite(tau=t)
    states = solve_spectrum(WellConfig(cfg.epsilon))
    decomp = project(cfg.packet, states)
    grid = np.linspace(-1.25, 1.25, grid_n)

    if fmt == "csv":
        text = []
        for t, label in zip(taus, csv_rows([taus]).splitlines()):
            dens = snapshot(decomp, states, t, grid)
            text += [f"# tau = {label}\nxbar,density\n", csv_rows([grid, dens])]
        _emit("".join(text), out)
    else:
        payload = {"scenario": cfg.to_dict(), "snapshots": [
            {"tau": t, "xbar": grid, "density": snapshot(decomp, states, t, grid)}
            for t in taus
        ]}
        _emit(_json_dump(payload), out)


@main.command("oscillator")
@click.option("--beta", type=float, required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--squeeze", type=float, default=None,
              help="Squeeze parameter; omit for a coherent state.")
@click.option("--cutoff", type=int, default=None)
@output_options("json")
@cli_errors
def cmd_oscillator(beta, alpha, squeeze, cutoff, fmt, out):
    """Number-basis weights and recurrence timescales."""
    require_finite(beta=beta, alpha=alpha, squeeze=squeeze)
    if squeeze is None:
        fock = coherent_weights(alpha, cutoff)
    else:
        fock = squeezed_weights(squeeze, alpha, cutoff)
    scales = oscillator_timescales(fock, beta)
    if fmt == "csv":
        _emit("n,weight\n" + csv_rows([fock.weights], lead=fock.n), out)
    else:
        revival = _json_safe(scales.revival_time)
        superrevival = _json_safe(scales.superrevival_time)
        payload = {
            "beta": beta,
            "source": fock.source,
            "mean_n": fock.mean_n,
            "weights": fock.weights,
            "timescales": {
                "revival_closed_form": revival,
                "superrevival_closed_form": superrevival,
                "t_classical": _json_safe(scales.classical_time),
                "t_revival": revival,
                "t_superrevival": superrevival,
                "nbar": fock.mean_n,
                "n_center": scales.n_center,
            },
        }
        _emit(_json_dump(payload), out)


def _json_safe(value):
    return value if math.isfinite(value) else None


if __name__ == "__main__":
    main()
