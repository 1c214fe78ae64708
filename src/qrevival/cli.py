"""Command-line front end.

Emits deterministic CSV or JSON for every bundled scenario.  CSV prints each
float as ``%.16e``, JSON as Python's shortest ``repr``, so repeated runs diff
clean.  Exit codes: 0 success, 2 validation or file error, 3 numerical
non-convergence, 4 detection ambiguity, a window-edge peak or an exhausted
scan horizon.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings

import click
import numpy as np

from .anharmonic import (coherent_weights, oscillator_phase_rates,
                         oscillator_timescales, squeezed_weights)
from .csvtext import csv_rows, json_floats
from .errors import (AmbiguousWindowError, CompletenessWarning, ConvergenceError,
                     EdgePeakError, HorizonTooShortError)
from .revival import (DETECTION_MAX_STEP, ENVELOPE_STEP, autocorrelation,
                      detection_grid, principal_revival, scan_superrevival)
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

    One pass of the pure-Python encoder, which ``indent`` selects.  It calls
    ``park`` for an array just before it yields that value's chunk: ``park``
    prints a flat, non-empty float64 array whole with ``json_floats``, one
    level below the current line, and returns ``""``, whose chunk that text
    then replaces.
    """
    chunks, parked = [], []

    def park(value):
        if not isinstance(value, np.ndarray):
            return json.JSONEncoder().default(value)
        if value.ndim != 1 or value.dtype != np.float64 or not len(value):
            return value.tolist()
        # the newline chunk that opened this line ends in its indentation
        line = next((c for c in reversed(chunks) if "\n" in c), "\n")
        outer = line[line.rindex("\n"):]
        inner = outer + "  "
        text = "[" + inner + json_floats(value, "," + inner) + outer + "]"
        parked.append((len(chunks), text))
        return ""

    # extend appends each chunk as the encoder yields it, so park sees the
    # ones before it; like json.dumps' own join, it loops in C
    chunks.extend(json.JSONEncoder(indent=2, sort_keys=True,
                                   default=park).iterencode(payload))
    for at, text in parked:
        chunks[at] = text
    chunks.append("\n")
    text = "".join(chunks)
    del chunks[:], parked[:]  # json's closures hold park in a cycle until a collection
    return text


def cli_errors(fn):
    """Typed errors as ``error: <message>`` and an exit code, and
    completeness warnings as ``warning: <message>``, both on stderr."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        show = warnings.showwarning

        def show_warning(message, category, *rest):
            if issubclass(category, CompletenessWarning):
                sys.stderr.write(f"warning: {message}\n")
            else:
                show(message, category, *rest)

        try:
            with warnings.catch_warnings():
                warnings.showwarning = show_warning
                return fn(*args, **kwargs)
        except (click.ClickException, click.Abort):
            raise
        except (AmbiguousWindowError, EdgePeakError, HorizonTooShortError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(4)
        except ConvergenceError as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(3)
        except (ValueError, TypeError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(2)
    return wrapper


out_option = click.option("--out", type=click.Path(), default=None)


def output_options(default="csv"):
    """``--format`` and ``--out``, which every command but ``revivals``
    takes; ``revivals`` prints JSON only."""
    def decorate(fn):
        return click.option("--format", "fmt", type=click.Choice(("csv", "json")),
                            default=default)(out_option(fn))
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
                      tau_step=None, horizon=None) -> ScenarioConfig:
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
    for key, value in (("tau_max", tau_max), ("tau_step", tau_step),
                       ("horizon", horizon)):
        if value is not None:
            data[key] = value
    return ScenarioConfig.from_dict(data)


def _echo(cfg: ScenarioConfig) -> dict:
    """The scenario as it ran, in strict JSON: the box's strength as null,
    which ``ScenarioConfig.from_dict`` reads back as ``inf``."""
    data = cfg.to_dict()
    if cfg.epsilon is not None and math.isinf(cfg.epsilon):
        data["well"]["epsilon"] = None
    return data


def _system(cfg: ScenarioConfig, reference=False):
    """Weights, phase rates, completeness and predicted revival time of the
    scenario's system; with ``reference``, of its dashed-line counterpart:
    the box for a well, ``beta = 0`` for an oscillator."""
    osc = cfg.oscillator
    if osc is None:
        return _well(math.inf if reference else cfg.epsilon, cfg.packet)
    fock = _fock(osc)
    beta = 0.0 if reference else osc.beta
    return (fock.weights, oscillator_phase_rates(fock.n, beta), 1.0,
            oscillator_timescales(fock, beta).revival_time)


def _fock(osc: OscillatorSystem):
    """The number-basis weights of the oscillator's initial state."""
    if osc.kind == "coherent":
        return coherent_weights(osc.alpha)
    return squeezed_weights(osc.squeeze, osc.alpha)


def _well(epsilon, packet):
    """``_system`` of a well of strength ``epsilon`` holding ``packet``."""
    well = WellConfig(epsilon)
    states = solve_spectrum(well)
    decomp = project(packet, states)
    return decomp.weights, states.rates, decomp.completeness, barker(well)


def _revival_report(weights, rates, predicted) -> dict:
    """The principal revival near ``predicted``, against that prediction."""
    detected, height = principal_revival(weights, rates, predicted)
    return {
        "detected_revival": detected,
        "barker_predicted": predicted,
        "percent_error": 100.0 * abs(detected - predicted) / detected,
        "peak_height_at_revival": height,
    }


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
    weights, rates = _system(cfg)[:2]
    series = autocorrelation(weights, rates, taus)
    columns = {"tau": series.tau, "autocorr": series.values}
    if reference:
        weights, rates = _system(cfg, reference=True)[:2]
        columns["reference"] = autocorrelation(weights, rates, taus).values
    if fmt == "csv":
        _emit(",".join(columns) + "\n" + csv_rows(list(columns.values())), out)
    else:
        _emit(_json_dump({"scenario": _echo(cfg), **columns}), out)


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
    rows = []
    for eps in eps_list:
        weights, rates, completeness, predicted = _well(eps, packet)
        report = _revival_report(weights, rates, predicted)
        rows.append({"epsilon": eps, "detected": report["detected_revival"],
                     "barker": report["barker_predicted"],
                     "percent_error": report["percent_error"],
                     "peak_height": report["peak_height_at_revival"],
                     "completeness": completeness})
    if fmt == "csv":
        columns = [[row[key] for row in rows] for key in rows[0]]
        _emit(",".join(rows[0]) + "\n" + csv_rows(columns), out)
    else:
        _emit(_json_dump(rows), out)


@main.command("revivals")
@system_options()
@click.option("--horizon", type=float, default=None,
              help="Scan horizon; defaults to the scenario's.")
@click.option("--superrevival", is_flag=True, default=False,
              help="Also scan the peak envelope for a recovery.")
@out_option
@cli_errors
def cmd_revivals(horizon, superrevival, out, **system):
    """Detect the principal revival (and optionally the first superrevival)."""
    cfg = _resolve_scenario(horizon=horizon, **system)
    if not cfg.horizon >= 2.0:
        raise ValueError(f"horizon must be at least 2, got {cfg.horizon}")
    weights, rates, completeness, predicted = _system(cfg)
    report = _revival_report(weights, rates, predicted)

    super_tau = None
    if superrevival:
        super_tau = scan_superrevival(weights, rates, cfg.horizon, predicted)

    payload = {
        "scenario": _echo(cfg),
        **report,
        "detected_superrevival": super_tau,
        "completeness": completeness,
        "horizon": cfg.horizon,
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
    taus = np.array([float(tok) for tok in tau_list.split(",") if tok.strip()])
    if not len(taus):
        raise ValueError("no times given")
    states = solve_spectrum(WellConfig(cfg.epsilon))
    decomp = project(cfg.packet, states)
    grid = np.linspace(-1.25, 1.25, grid_n)
    densities = snapshot(decomp, states, taus, grid)

    if fmt == "csv":
        text = []
        for label, dens in zip(csv_rows([taus]).splitlines(), densities):
            text += [f"# tau = {label}\nxbar,density\n", csv_rows([grid, dens])]
        _emit("".join(text), out)
    else:
        payload = {"scenario": _echo(cfg), "snapshots": [
            {"tau": t, "xbar": grid, "density": dens}
            for t, dens in zip(taus.tolist(), densities)
        ]}
        _emit(_json_dump(payload), out)


@main.command("oscillator")
@click.option("--beta", type=float, required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--squeeze", type=float, default=None,
              help="Squeeze parameter; omit for a coherent state.")
@output_options("json")
@cli_errors
def cmd_oscillator(beta, alpha, squeeze, fmt, out):
    """Number-basis weights and recurrence timescales."""
    kind = "coherent" if squeeze is None else "squeezed"
    fock = _fock(OscillatorSystem(beta=beta, kind=kind, alpha=alpha, squeeze=squeeze))
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
                "n_center": scales.n_center,
            },
        }
        _emit(_json_dump(payload), out)


def _json_safe(value):
    return value if math.isfinite(value) else None


if __name__ == "__main__":
    main()
