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

FOCK_CUTOFF_CAP = 2048
# The kept levels leave out at most this much of the weight, little enough
# that weighted moments (not just the total mass) stay accurate.
_TAIL_MASS_AUTO = 1e-12
_FIRST_RANGE = 64
_RUN_OUT = 2.0 ** -60
# exp(-x) underflows to zero for x above this.
_UNDERFLOW = 746.0


@dataclass(frozen=True)
class FockWeights:
    """Normalized number-basis weights ``|c_n|^2`` of the levels a state has,
    ``n = 0..len(weights) - 1``."""

    weights: np.ndarray
    mean_n: float
    source: str

    @property
    def n(self) -> np.ndarray:
        return np.arange(len(self.weights))


@dataclass(frozen=True)
class OscillatorTimescales:
    """Recurrence times at the level ``n_center``; a vanishing rate gives inf."""

    classical_time: float
    revival_time: float
    superrevival_time: float
    n_center: int


def hermite_log(n_max: int, x: float):
    """Physicists' Hermite values at ``x`` as (log magnitude, sign) pairs.

    The three-term recurrence is carried in log space, which keeps high
    orders representable; exact zeros (odd order at the origin) come out
    with sign 0 and log magnitude ``-inf``.
    """
    x = float(x)
    logs = [-math.inf] * (n_max + 1)
    signs = [0.0] * (n_max + 1)
    logs[0], signs[0] = 0.0, 1.0
    if n_max >= 1 and x != 0.0:
        logs[1], signs[1] = math.log(abs(2.0 * x)), math.copysign(1.0, x)
    for k in range(1, n_max):
        scale = max(logs[k], logs[k - 1])
        if scale == -math.inf:
            continue
        combo = 2.0 * x * signs[k] * math.exp(logs[k] - scale) \
            - 2.0 * k * signs[k - 1] * math.exp(logs[k - 1] - scale)
        if combo == 0.0:
            logs[k + 1], signs[k + 1] = -math.inf, 0.0
        else:
            logs[k + 1] = scale + math.log(abs(combo))
            signs[k + 1] = math.copysign(1.0, combo)
    return np.array(logs), np.array(signs)


def _log_factorials(n_raw: int) -> np.ndarray:
    """``log(n!)`` for ``n = 0..n_raw``."""
    return np.array([math.lgamma(k) for k in range(1, n_raw + 2)])


def _levels(raw, source: str) -> FockWeights:
    """The weights of the levels a state has, from ``raw(n_raw)``, its
    unnormalized weights of levels ``0..n_raw``.

    The ranges double from ``_FIRST_RANGE`` to ``FOCK_CUTOFF_CAP``; a range
    is enough once its sum is positive and its last four weights are at most
    ``_RUN_OUT`` of it, so the levels past it could not move the sum (a range
    whose weights all underflow, below a large mean, is not enough).  The
    kept levels end at the first holding all but ``_TAIL_MASS_AUTO`` of that
    sum, on an even level of at least 4; each range ends on an even level.
    """
    n_raw = _FIRST_RANGE
    weights = raw(n_raw)
    while n_raw < FOCK_CUTOFF_CAP:
        total = weights.sum()
        if total > 0 and weights[-4:].max() <= _RUN_OUT * total:
            break
        n_raw = min(2 * n_raw, FOCK_CUTOFF_CAP)
        weights = raw(n_raw)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weight distribution has no mass")
    # The range must itself exhaust the distribution before truncation
    # fidelity can be judged; the max dodges structural parity zeros.
    if weights[-4:].max() > 1e-13 * total:
        raise CutoffTooSmallError(
            "weight distribution is not exhausted within the computed range")
    cumulative = np.cumsum(weights) / total
    reached = np.flatnonzero(cumulative >= 1.0 - _TAIL_MASS_AUTO)
    end = int(reached[0]) if len(reached) else len(weights) - 1
    end = max(end, 4)
    end += end % 2  # even last level by convention
    kept = weights[:end + 1]
    w = kept / kept.sum()
    return FockWeights(weights=w, mean_n=float((np.arange(len(w)) * w).sum()),
                       source=source)


def coherent_weights(alpha: complex) -> FockWeights:
    """Poissonian weights of a coherent amplitude, computed in log space.

    A mean occupation above ``FOCK_CUTOFF_CAP`` puts the range's largest
    weight at the cap, below ``exp(-cap (x - 1 - log x))`` for ``x = mean /
    cap`` (Stirling).  Where that bound underflows, no range has any mass,
    and the state is refused before one is computed.
    """
    a = float(abs(alpha))
    x = a * a / FOCK_CUTOFF_CAP  # inf past 1.3e154, where ``a ** 2`` raises
    if x > 1.0:
        log_x = 2.0 * math.log(a) - math.log(FOCK_CUTOFF_CAP)
        if FOCK_CUTOFF_CAP * (x - 1.0 - log_x) > _UNDERFLOW:
            raise ValueError("weight distribution has no mass")
    mean = abs(alpha) ** 2

    def raw(n_raw):
        if mean == 0:
            weights = np.zeros(n_raw + 1)
            weights[0] = 1.0
            return weights
        n = np.arange(n_raw + 1)
        return np.exp(-mean + n * math.log(mean) - _log_factorials(n_raw))

    return _levels(raw, source=f"coherent(alpha={alpha})")


def squeezed_weights(s: float, alpha: float) -> FockWeights:
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
        return coherent_weights(alpha)

    t = (s - 1.0) / (s + 1.0)  # tanh r
    x_h = s * math.sqrt(2.0) * alpha / math.sqrt(s * s - 1.0)
    prefactor = math.log(2.0 * math.sqrt(s) / (s + 1.0)) \
        - 2.0 * s * alpha * alpha / (s + 1.0)
    if prefactor == -math.inf:  # 2 s alpha^2 overflows: every weight is 0
        raise ValueError("weight distribution has no mass")

    def raw(n_raw):
        n = np.arange(n_raw + 1)
        h_logs, h_signs = hermite_log(n_raw, x_h)
        logs = prefactor + n * math.log(t) - n * math.log(2.0) \
            - _log_factorials(n_raw) + 2.0 * h_logs
        return np.where(h_signs == 0.0, 0.0, np.exp(logs))

    return _levels(raw, source=f"squeezed(s={s}, alpha={alpha})")


def oscillator_phase_rates(n, beta: float) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return 2.0 * np.pi * n ** 2 + 2.0 * np.pi * beta * n ** 3


def oscillator_timescales(weights: FockWeights, beta: float) -> OscillatorTimescales:
    """Closed-form recurrence times at ``c = n_center``.

    In units of the quadratic recurrence period the phase is ``2 pi (n^2 +
    beta n^3)``, so ``2 pi / |d^k theta/dn^k / k!|`` gives ``t_cl = 1 / |2c
    + 3 beta c^2|``, ``t_rv = 1 / |1 + 3 c beta|`` and ``t_sr = 1 / |beta|``
    (Averbukh & Perelman, Phys. Lett. A 139, 449, 1989).  ``c`` is the level
    nearest the mean occupation, kept two levels inside the weights' range.
    """
    if len(weights.weights) < 5:
        raise ValueError("need at least five levels")
    c = int(np.clip(round(weights.mean_n), 2, len(weights.weights) - 3))
    return OscillatorTimescales(
        classical_time=_period(2.0 * c + 3.0 * beta * c * c),
        revival_time=_period(1.0 + 3.0 * c * beta),
        superrevival_time=_period(beta),
        n_center=c,
    )


def _period(rate: float) -> float:
    """``1 / |rate|``, infinite where the rate vanishes."""
    return 1.0 / abs(rate) if rate != 0.0 else math.inf
