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
from .errors import (AmbiguousWindowError, ConvergenceError,
                     CutoffTooSmallError, EdgePeakError, HorizonTooShortError)
from .revival import (DETECTION_MAX_STEP, ENVELOPE_STEP, autocorrelation,
                      principal_revival, scan_superrevival, table1_report)
from .scenarios import OscillatorSystem, ScenarioConfig, load_scenario
from .spectrum import WellConfig, barker, solve_spectrum
from .wavepacket import GaussianSpec, infinite_project, project, snapshot

# Ad-hoc systems override these: --epsilon the well's strength, --beta the
# oscillator's nonlinearity.
_CUSTOM_WELL = ScenarioConfig(name="custom", tau_max=1.5, tau_step=1e-4,
                              horizon=40.0, epsilon=math.inf,
                              packet=GaussianSpec(x0=0.2, sigma=0.1))
_CUSTOM_OSCILLATOR = ScenarioConfig(
    name="custom", tau_max=5.0, tau_step=1e-4, horizon=600.0,
    oscillator=OscillatorSystem(beta=0.0, kind="coherent", alpha=0.0))


def _fmt(value) -> str:
    return f"{value:.16e}"


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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        if math.isinf(cfg.epsilon):
            state = infinite_project(cfg.packet)
            return state.weights, state.rates, state.completeness
        states = solve_spectrum(WellConfig(cfg.epsilon))
        decomp = project(cfg.packet, states)
        return decomp.weights, states.rates, decomp.completeness
    return fock.weights, oscillator_phase_rates(fock.n, cfg.oscillator.beta), 1.0


def _reference_inputs(cfg: ScenarioConfig, fock):
    """Dashed-line counterpart: the box for wells, the quadratic-spectrum
    oscillator for oscillator scenarios."""
    if cfg.epsilon is not None:
        state = infinite_project(cfg.packet)
        return state.weights, state.rates
    return fock.weights, oscillator_phase_rates(fock.n, 0.0)


def _revival_prediction(cfg: ScenarioConfig, fock) -> float:
    if cfg.epsilon is not None:
        if math.isinf(cfg.epsilon):
            return 1.0
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
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    n = range(1, len(states) + 1)
    parity = ["even" if even else "odd" for even in states.even.tolist()]
    residual = states.residuals
    if fmt == "csv":
        row = "{},{},{:.16e},{:.16e},{:.16e},{:.16e}".format
        lines = map(row, n, parity, states.alpha, states.beta, states.energy,
                    residual)
        _emit("\n".join(["n,parity,alpha,beta,energy,residual", *lines]) + "\n",
              out)
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
    fock = _fock_for(cfg)
    weights, rates, _completeness = _series_inputs(cfg, fock)
    n_steps = int(math.floor(cfg.tau_max / cfg.tau_step + 1e-9))
    taus = np.arange(0, n_steps + 1, dtype=float) * cfg.tau_step
    series = autocorrelation(weights, rates, taus, provenance=cfg.name)
    ref_values = None
    if reference:
        ref_w, ref_rates = _reference_inputs(cfg, fock)
        ref_values = autocorrelation(ref_w, ref_rates, taus).values

    if fmt == "csv":
        columns = [series.tau.tolist(), series.values.tolist()]
        header = "tau,autocorr"
        if ref_values is not None:
            columns.append(ref_values.tolist())
            header += ",reference"
        row = ",".join(["{:.16e}"] * len(columns)).format
        _emit("\n".join([header, *map(row, *columns)]) + "\n", out)
    else:
        payload = {"scenario": cfg.to_dict(), "tau": list(series.tau),
                   "autocorr": list(series.values)}
        if ref_values is not None:
            payload["reference"] = list(ref_values)
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
    packet = GaussianSpec(x0=x0, sigma=sigma)
    reports = table1_report(packet, eps_list)
    if fmt == "csv":
        lines = ["epsilon,detected,barker,percent_error,peak_height,completeness"]
        for r in reports:
            lines.append(
                f"{_fmt(r.epsilon)},{_fmt(r.detected_revival)},"
                f"{_fmt(r.barker_predicted)},{_fmt(r.percent_error)},"
                f"{_fmt(r.peak_height_at_revival)},{_fmt(r.completeness)}")
        _emit("\n".join(lines) + "\n", out)
    else:
        payload = [
            {"epsilon": r.epsilon, "detected": r.detected_revival,
             "barker": r.barker_predicted, "percent_error": r.percent_error,
             "peak_height": r.peak_height_at_revival,
             "completeness": r.completeness, "grid_step": r.grid_step,
             "refine_tol": r.refine_tol}
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
    if grid_n < 32:
        raise ValueError(f"grid must have at least 32 points, got {grid_n}")
    cfg = _resolve_scenario(**system)
    if cfg.epsilon is None or math.isinf(cfg.epsilon):
        raise ValueError("snapshot requires a finite-well scenario")
    taus = [float(tok) for tok in tau_list.split(",") if tok.strip()]
    if not taus:
        raise ValueError("no times given")
    states = solve_spectrum(WellConfig(cfg.epsilon))
    decomp = project(cfg.packet, states)
    grid = np.linspace(-1.25, 1.25, grid_n)

    if fmt == "csv":
        lines = []
        for t in taus:
            dens = snapshot(decomp, states, t, grid)
            lines.append(f"# tau = {_fmt(t)}")
            lines.append("xbar,density")
            lines.extend(f"{_fmt(x)},{_fmt(d)}" for x, d in zip(grid, dens))
        _emit("\n".join(lines) + "\n", out)
    else:
        payload = {"scenario": cfg.to_dict(), "snapshots": [
            {"tau": t, "xbar": list(grid),
             "density": list(snapshot(decomp, states, t, grid))}
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
    if squeeze is None:
        fock = coherent_weights(alpha, cutoff)
    else:
        fock = squeezed_weights(squeeze, alpha, cutoff)
    scales = oscillator_timescales(fock, beta)
    if fmt == "csv":
        lines = ["n,weight"]
        lines.extend(f"{n},{_fmt(w)}" for n, w in zip(fock.n, fock.weights))
        _emit("\n".join(lines) + "\n", out)
    else:
        h = scales.hierarchy
        payload = {
            "beta": beta,
            "source": fock.source,
            "mean_n": fock.mean_n,
            "weights": list(fock.weights),
            "timescales": {
                "revival_closed_form": scales.revival_time,
                "superrevival_closed_form": _json_safe(scales.superrevival_time),
                "t_classical": _json_safe(h.t_classical),
                "t_revival": _json_safe(h.t_revival),
                "t_superrevival": _json_safe(h.t_superrevival),
                "nbar": h.nbar,
                "n_center": h.n_center,
            },
        }
        _emit(_json_dump(payload), out)


def _json_safe(value):
    return value if math.isfinite(value) else None


if __name__ == "__main__":
    main()
