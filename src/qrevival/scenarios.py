"""Named parameter sets and their JSON round-trip.

Each scenario pins one system (a well of strength ``epsilon``, with ``inf``
selecting the infinitely deep reference well, or the nonlinear oscillator
with a chosen initial state), a packet where applicable, and the default
output grid and scan horizon.  The built-ins cover the bundled reference
curves and are compiled in so no external files are needed to reproduce
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .wavepacket import GaussianSpec


@dataclass(frozen=True)
class OscillatorSystem:
    beta: float
    kind: str            # "coherent" | "squeezed"
    alpha: float
    squeeze: float | None = None

    def __post_init__(self):
        if self.kind not in ("coherent", "squeezed"):
            raise ValueError(f"unknown oscillator state kind {self.kind!r}")
        if self.kind == "squeezed" and self.squeeze is None:
            raise ValueError("squeezed state needs a squeeze parameter")


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
        if (self.epsilon is None) == (self.oscillator is None):
            raise ValueError("scenario must define exactly one system block")
        if self.epsilon is not None:
            if not self.epsilon > 0:
                raise ValueError(f"epsilon must be positive, got {self.epsilon}")
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
        epsilon = None
        if "well" in data:
            epsilon = float(data["well"]["epsilon"])
        osc = None
        if "oscillator" in data:
            block = data["oscillator"]
            osc = OscillatorSystem(
                beta=float(block["beta"]),
                kind=str(block["kind"]),
                alpha=float(block.get("alpha", 0.0)),
                squeeze=(float(block["squeeze"]) if "squeeze" in block else None),
            )
        packet = None
        if "packet" in data:
            packet = GaussianSpec(x0=float(data["packet"]["x0"]),
                                  sigma=float(data["packet"]["sigma"]))
        return cls(
            name=str(data["name"]),
            tau_max=float(data["tau_max"]),
            tau_step=float(data["tau_step"]),
            horizon=float(data["horizon"]),
            epsilon=epsilon, oscillator=osc, packet=packet,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


def _well_scenario(name, epsilon, x0, tau_max, tau_step, horizon, sigma=0.1):
    return ScenarioConfig(
        name=name, tau_max=tau_max, tau_step=tau_step, horizon=horizon,
        epsilon=epsilon, packet=GaussianSpec(x0=x0, sigma=sigma))


BUILTIN_SCENARIOS = {
    "fig1a": _well_scenario("fig1a", 12.0, 0.2, 1.5, 1e-4, 40.0),
    "fig1b": _well_scenario("fig1b", 30.0, 0.2, 1.3, 1e-4, 40.0),
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
            return ScenarioConfig.from_json(fh.read())
    except FileNotFoundError:
        names = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(
            f"unknown scenario {ref!r}: not a built-in ({names}) "
            f"and no such file") from None
