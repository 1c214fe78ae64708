"""Cubic-nonlinear oscillator: number-basis weights and recurrence times.

The Hamiltonian is quadratic plus cubic in the number operator, so level
``n`` carries energy ``mu1 n^2 + mu2 n^3``.  With time measured in units of
the quadratic recurrence period, the phase rate of level ``n`` is ``2 pi n^2
+ 2 pi beta n^3`` where ``beta = mu2 / mu1`` is the single nonlinearity
parameter.  Initial states are described purely by their number-basis
weights: Poissonian for a coherent amplitude, and the displaced-squeezed
distribution (built from Hermite polynomials evaluated in log space) for a
squeezed state with real displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError
from .revival import AutocorrSeries, TimescaleHierarchy, autocorrelation, timescales

FOCK_CUTOFF_CAP = 2048
_TAIL_MASS = 1e-10
# The automatic truncation grows a little past the acceptance threshold so
# that weighted moments (not just the total mass) stay accurate.
_TAIL_MASS_AUTO = 1e-12


@dataclass(frozen=True)
class FockWeights:
    """Normalized number-basis weights ``|c_n|^2`` for ``n = 0..cutoff``."""

    weights: np.ndarray
    mean_n: float
    source: str

    @property
    def n(self) -> np.ndarray:
        return np.arange(len(self.weights))


@dataclass(frozen=True)
class OscillatorTimescales:
    """Closed-form recurrence times next to the finite-difference hierarchy.

    The closed forms are evaluated at the same integer level as the
    difference stencil so the two routes are comparable term by term; the
    raw weight-averaged level sits in ``hierarchy.nbar``.
    """

    revival_time: float
    superrevival_time: float
    hierarchy: TimescaleHierarchy


def hermite_log(n_max: int, x: float):
    """Physicists' Hermite values at ``x`` as (log magnitude, sign) pairs.

    The three-term recurrence is carried in log space, which keeps high
    orders representable; exact zeros (odd order at the origin) come out
    with sign 0 and log magnitude ``-inf``.
    """
    logs = np.full(n_max + 1, -np.inf)
    signs = np.zeros(n_max + 1)
    logs[0], signs[0] = 0.0, 1.0
    if n_max >= 1 and x != 0.0:
        logs[1], signs[1] = math.log(abs(2.0 * x)), math.copysign(1.0, x)
    for k in range(1, n_max):
        scale = max(logs[k], logs[k - 1])
        if scale == -np.inf:
            continue
        combo = 2.0 * x * signs[k] * math.exp(logs[k] - scale) \
            - 2.0 * k * signs[k - 1] * math.exp(logs[k - 1] - scale)
        if combo == 0.0:
            logs[k + 1], signs[k + 1] = -np.inf, 0.0
        else:
            logs[k + 1] = scale + math.log(abs(combo))
            signs[k + 1] = math.copysign(1.0, combo)
    return logs, signs


def _finalize(raw: np.ndarray, cutoff, source: str) -> FockWeights:
    """Truncate raw weights, guarding the mass left outside the kept modes."""
    total = raw.sum()
    if total <= 0:
        raise ValueError("weight distribution has no mass")
    # The raw range must itself exhaust the distribution before truncation
    # fidelity can be judged; the max dodges structural parity zeros.
    if raw[-4:].max() > 1e-13 * total:
        raise CutoffTooSmallError(
            "weight distribution is not exhausted within the computed range")
    if cutoff is not None:
        kept = raw[:cutoff + 1]
        tail = 1.0 - kept.sum() / total
        if tail > _TAIL_MASS:
            raise CutoffTooSmallError(
                f"cutoff {cutoff} leaves weight {tail:.2e} outside the basis")
    else:
        cumulative = np.cumsum(raw) / total
        reached = np.flatnonzero(cumulative >= 1.0 - _TAIL_MASS_AUTO)
        end = int(reached[0]) if len(reached) else len(raw) - 1
        end = max(end, 4)
        end += end % 2  # even cutoff by convention
        end = min(end, FOCK_CUTOFF_CAP)
        kept = raw[:end + 1]
    w = kept / kept.sum()
    return FockWeights(weights=w, mean_n=float((np.arange(len(w)) * w).sum()),
                       source=source)


def coherent_weights(alpha: complex, cutoff: int | None = None) -> FockWeights:
    """Poissonian weights of a coherent amplitude, computed in log space."""
    mean = abs(alpha) ** 2
    n_raw = FOCK_CUTOFF_CAP if cutoff is None else max(cutoff, int(10 * (1 + mean)))
    n = np.arange(n_raw + 1)
    if mean == 0:
        raw = np.zeros(n_raw + 1)
        raw[0] = 1.0
    else:
        logs = -mean + n * math.log(mean) - np.array(
            [math.lgamma(k + 1) for k in n])
        raw = np.exp(logs)
    return _finalize(raw, cutoff, source=f"coherent(alpha={alpha})")


def squeezed_weights(s: float, alpha: float,
                     cutoff: int | None = None) -> FockWeights:
    """Number-basis weights of a squeezed state with real displacement.

    ``s`` is the intensity-like squeeze parameter, mapped to the squeeze
    rapidity by ``s = exp(2r)`` so ``s = 1`` is the coherent limit (handled
    by dispatch) and ``(s-1)/(s+1) = tanh r``.  The displaced distribution is
    renormalized explicitly over the kept modes; for zero displacement the
    odd weights vanish identically.
    """
    if not (np.isfinite(s) and s >= 1.0):
        raise ValueError(f"squeeze parameter must satisfy s >= 1, got {s}")
    if not np.isfinite(alpha):
        raise ValueError(f"displacement must be finite, got {alpha}")
    if s == 1.0:
        return coherent_weights(alpha, cutoff)

    r = 0.5 * math.log(s)
    t = (s - 1.0) / (s + 1.0)  # tanh r
    x_h = s * math.sqrt(2.0) * alpha / math.sqrt(s * s - 1.0)
    n_raw = FOCK_CUTOFF_CAP if cutoff is None else max(
        cutoff, int(10 * (1 + math.sinh(r) ** 2 + alpha * alpha)))
    n = np.arange(n_raw + 1)

    h_logs, h_signs = hermite_log(n_raw, x_h)
    prefactor = math.log(2.0 * math.sqrt(s) / (s + 1.0)) \
        - 2.0 * s * alpha * alpha / (s + 1.0)
    logs = prefactor + n * math.log(t) - n * math.log(2.0) \
        - np.array([math.lgamma(k + 1) for k in n]) + 2.0 * h_logs
    raw = np.where(h_signs == 0.0, 0.0, np.exp(logs))
    return _finalize(raw, cutoff, source=f"squeezed(s={s}, alpha={alpha})")


def oscillator_phase_rates(n, beta: float) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return 2.0 * np.pi * n ** 2 + 2.0 * np.pi * beta * n ** 3


def oscillator_autocorr(weights: FockWeights, beta: float,
                        tau_grid) -> AutocorrSeries:
    """Squared autocorrelation of the evolving number-basis state."""
    rates = oscillator_phase_rates(weights.n, beta)
    return autocorrelation(weights.weights, rates, tau_grid,
                           provenance=f"oscillator(beta={beta})")


def oscillator_timescales(weights: FockWeights, beta: float) -> OscillatorTimescales:
    """Closed-form recurrence times alongside the finite-difference route.

    In units of the quadratic recurrence period the closed forms are
    ``t_rv = 1 / (1 + 3 n beta)`` at the stencil level ``n`` and ``t_sr = 1 /
    beta``; since the spectrum is polynomial the finite differences agree
    with these exactly (to rounding).
    """
    rates = oscillator_phase_rates(weights.n, beta)
    hierarchy = timescales(weights.weights, rates)
    revival_closed = 1.0 / (1.0 + 3.0 * hierarchy.n_center * beta)
    superrevival_closed = np.inf if beta == 0 else 1.0 / abs(beta)
    return OscillatorTimescales(
        revival_time=float(revival_closed),
        superrevival_time=float(superrevival_closed),
        hierarchy=hierarchy,
    )
