"""Named parameter sets and their JSON round-trip.

Each scenario pins one system (a well of strength ``epsilon``, with ``inf``,
``null`` in strict JSON, selecting the infinitely deep reference well, or
the nonlinear oscillator with a chosen initial state), a packet where
applicable, and the default output grid and scan horizon.  The built-ins
cover the bundled reference curves and are compiled in so no external files
are needed to reproduce them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .anharmonic import FOCK_CUTOFF_CAP
from .spectrum import WellConfig
from .wavepacket import GaussianSpec


# Largest |beta| whose phase rate 2 pi beta n^3 stays finite up to the cap.
MAX_BETA = np.finfo(float).max / (2.0 * math.pi * FOCK_CUTOFF_CAP ** 3)


def require_finite(**values):
    """Refuse the first given value that is not finite, naming it."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class OscillatorSystem:
    beta: float
    kind: str            # "coherent" | "squeezed"
    alpha: float
    squeeze: float | None = None

    def __post_init__(self):
        require_finite(beta=self.beta, alpha=self.alpha, squeeze=self.squeeze)
        if abs(self.beta) > MAX_BETA:
            raise ValueError(f"beta must be at most {MAX_BETA:.4g} in magnitude, "
                             f"got {self.beta}")
        if self.kind not in ("coherent", "squeezed"):
            raise ValueError(f"unknown oscillator state kind {self.kind!r}")
        if self.kind == "squeezed" and self.squeeze is None:
            raise ValueError("squeezed state needs a squeeze parameter")
        if self.kind == "coherent" and self.squeeze is not None:
            raise ValueError(f"coherent state takes no squeeze parameter, "
                             f"got {self.squeeze}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    tau_max: float
    tau_step: float
    horizon: float
    epsilon: float | None = None
    oscillator: OscillatorSystem | None = None
    packet: GaussianSpec | None = None

    def __post_init__(self):
        require_finite(tau_max=self.tau_max, tau_step=self.tau_step,
                       horizon=self.horizon)
        if (self.epsilon is None) == (self.oscillator is None):
            raise ValueError("scenario must define exactly one system block")
        if self.epsilon is not None:
            WellConfig(self.epsilon)
            if self.packet is None:
                raise ValueError("well scenarios need a packet block")
        if not (self.tau_step > 0):
            raise ValueError(f"tau step must be positive, got {self.tau_step}")
        if self.tau_max < self.tau_step:
            raise ValueError("tau range is empty")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "tau_max": self.tau_max,
            "tau_step": self.tau_step,
            "horizon": self.horizon,
        }
        if self.epsilon is not None:
            out["well"] = {"epsilon": self.epsilon}
        if self.oscillator is not None:
            osc = {"beta": self.oscillator.beta, "kind": self.oscillator.kind,
                   "alpha": self.oscillator.alpha}
            if self.oscillator.squeeze is not None:
                osc["squeeze"] = self.oscillator.squeeze
            out["oscillator"] = osc
        if self.packet is not None:
            out["packet"] = {"x0": self.packet.x0, "sigma": self.packet.sigma}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """The scenario ``to_dict`` wrote; a missing key or a value that
        cannot be read is refused, naming its dotted path."""
        epsilon = None
        if "well" in data:
            # strict JSON has no infinity: it writes the box's strength as null
            epsilon = _field(data, "well.epsilon",
                             lambda value: math.inf if value is None else float(value))
        osc = None
        if "oscillator" in data:
            osc = OscillatorSystem(
                beta=_field(data, "oscillator.beta"),
                kind=_field(data, "oscillator.kind", str),
                alpha=_field(data, "oscillator.alpha", default=0.0),
                squeeze=_field(data, "oscillator.squeeze", default=None),
            )
        packet = None
        if "packet" in data:
            packet = GaussianSpec(x0=_field(data, "packet.x0"),
                                  sigma=_field(data, "packet.sigma"))
        return cls(
            name=_field(data, "name", str),
            tau_max=_field(data, "tau_max"),
            tau_step=_field(data, "tau_step"),
            horizon=_field(data, "horizon"),
            epsilon=epsilon, oscillator=osc, packet=packet,
        )


def _field(data: dict, path: str, read=float, default=...):
    """``read`` of the value at the dotted ``path`` in ``data``, or
    ``default``, if given, where its key is missing; refusals name the path.
    A JSON boolean is refused: ``float(True)`` would read it as 1."""
    *blocks, key = path.split(".")
    for block in blocks:
        data = data[block]
        if not isinstance(data, dict):
            raise ValueError(f"{block!r} must be an object, got {data!r}")
    if key not in data:
        if default is ...:
            raise ValueError(f"the key {path!r} is missing")
        return default
    value = data[key]
    if not isinstance(value, bool):
        try:
            return read(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"cannot read {path!r} from {value!r}")


def _well_scenario(name, epsilon, x0, tau_max, tau_step, horizon, sigma=0.1):
    return ScenarioConfig(
        name=name, tau_max=tau_max, tau_step=tau_step, horizon=horizon,
        epsilon=epsilon, packet=GaussianSpec(x0=x0, sigma=sigma))


BUILTIN_SCENARIOS = {
    "fig1a": _well_scenario("fig1a", 12.0, 0.2, 1.5, 1e-4, 40.0),
    # past this strength's superrevival time, about 4.8e3; the envelope
    # first recovers near 201
    "fig1b": _well_scenario("fig1b", 30.0, 0.2, 1.3, 1e-4, 5000.0),
    "fig1c": _well_scenario("fig1c", 100.0, 0.2, 1.2, 1e-4, 40.0),
    "fig2": _well_scenario("fig2", 12.0, 0.0, 8.0, 1e-3, 40.0),
    "fig3": _well_scenario("fig3", 15.0, 0.0, 12.0, 1e-3, 60.0),
    "fig4": _well_scenario("fig4", 12.0, 0.2, 8.0, 1e-3, 60.0),
    "fig5": ScenarioConfig(
        name="fig5", tau_max=5.0, tau_step=1e-4, horizon=600.0,
        oscillator=OscillatorSystem(beta=0.002, kind="squeezed",
                                    alpha=0.0, squeeze=10.0)),
    "infinite": _well_scenario("infinite", math.inf, 0.2, 1.5, 1e-4, 40.0),
}


def load_scenario(ref: str) -> ScenarioConfig:
    """Resolve a scenario reference: built-in name first, then a JSON path."""
    if ref in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[ref]
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        names = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(
            f"unknown scenario {ref!r}: not a built-in ({names}) "
            f"and no such file") from None
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("the top level must be a JSON object")
        return ScenarioConfig.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"scenario file {ref!r}: {exc}") from None
