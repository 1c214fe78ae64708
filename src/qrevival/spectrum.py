"""Bound states of a symmetric square well of finite depth.

Everything is dimensionless.  Positions are measured in units of the well
length (``xbar = x / L``, well interior ``|xbar| <= 1/2``) and the single
parameter ``epsilon`` fixes the depth.  Each bound state is labeled by the
root ``alpha`` of a transcendental equation, with ``beta = sqrt(epsilon^2 -
alpha^2)`` the decay rate in the forbidden region.  Energies are reported as
``alpha^2``; when states are evolved, the time unit is the revival period of
the infinitely deep well, so a state accumulates phase ``exp(-8i alpha^2 tau
/ pi)`` over scaled time ``tau``.

Parity alternates along the spectrum.  Even states obey ``alpha tan alpha =
beta`` and live in ``[k pi, k pi + pi/2)``; odd states obey ``alpha cot alpha
= -beta`` and live in ``(k pi + pi/2, (k+1) pi]``.  Root finding uses the
pole-free rearrangements ``beta cos a - a sin a`` and ``a cos a + beta sin
a``, which change sign across each bracket, so bisection cannot fail.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

RESIDUAL_TOL = 1e-12
_WEAK_BINDING_BETA = 1e-6
_BISECTION_CAP = 200
_NEWTON_POLISH_STEPS = 3


@dataclass(frozen=True)
class WellConfig:
    """Dimensionless strength of the well; all other scales are absorbed."""

    epsilon: float

    def __post_init__(self):
        eps = self.epsilon
        if not (np.isfinite(eps) and eps > 0):
            raise ValueError(f"well strength must be finite and positive, got {eps}")

    @property
    def predicted_state_count(self) -> int:
        return int(np.floor(2.0 * self.epsilon / np.pi)) + 1


@dataclass(frozen=True)
class BoundState:
    """One bound level: 1-based index, parity, root pair and normalization."""

    index: int
    parity: str
    alpha: float
    beta: float
    norm: float
    weakly_bound: bool = False

    @property
    def energy(self) -> float:
        return self.alpha ** 2


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Every bound level of one well as arrays, ordered by increasing energy.

    ``even`` is the parity mask.  ``spectrum[i]`` is level ``i`` as a
    :class:`BoundState`, for callers that need a single level.
    """

    alpha: np.ndarray
    beta: np.ndarray
    even: np.ndarray
    norm: np.ndarray

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i) -> BoundState:
        i = range(len(self))[operator.index(i)]  # IndexError when out of range
        return BoundState(index=i + 1, parity="even" if self.even[i] else "odd",
                          alpha=float(self.alpha[i]), beta=float(self.beta[i]),
                          norm=float(self.norm[i]),
                          weakly_bound=bool(self.weakly_bound[i]))

    @property
    def rates(self) -> np.ndarray:
        """Phase accumulated per unit scaled time, ``8 alpha^2 / pi``."""
        return 8.0 * self.energy / np.pi

    @property
    def energy(self) -> np.ndarray:
        # C pow(), as ``BoundState.energy`` squares: ``** 2`` on an array
        # multiplies, which can round the other way.
        return np.float_power(self.alpha, 2)

    @property
    def weakly_bound(self) -> np.ndarray:
        return self.beta < _WEAK_BINDING_BETA

    @property
    def residuals(self) -> np.ndarray:
        return transcendental_residual(self.alpha, self.beta, self.even)


@dataclass(frozen=True)
class BarkerApproximation:
    """First-order mapping of the finite well onto a longer infinite well."""

    effective_length_ratio: float
    approx_energy_scale: float
    approx_revival_time: float


def barker(config: WellConfig) -> BarkerApproximation:
    """Closed-form effective-length ratios for a well of strength epsilon."""
    ratio = 1.0 + 1.0 / config.epsilon
    scale = (config.epsilon / (1.0 + config.epsilon)) ** 2
    return BarkerApproximation(
        effective_length_ratio=ratio,
        approx_energy_scale=scale,
        approx_revival_time=ratio ** 2,
    )


def transcendental_residual(alpha, beta, even):
    """Residual of the defining equation, in its textbook tan/cot form."""
    tangent = np.tan(alpha)
    return np.where(even, alpha * tangent - beta, alpha / tangent + beta)


def _bracket_functions(eps, even_mask):
    def f(a):
        b = np.sqrt(np.maximum(eps * eps - a * a, 0.0))
        return np.where(even_mask,
                        b * np.cos(a) - a * np.sin(a),
                        a * np.cos(a) + b * np.sin(a))
    return f


def _derivative(eps, even_mask, a):
    b = np.sqrt(np.maximum(eps * eps - a * a, 1e-300))
    d_even = -(a / b) * np.cos(a) - b * np.sin(a) - np.sin(a) - a * np.cos(a)
    d_odd = np.cos(a) - a * np.sin(a) - (a / b) * np.sin(a) + b * np.cos(a)
    return np.where(even_mask, d_even, d_odd)


def _solve_roots(eps: float):
    count = int(np.floor(2.0 * eps / np.pi)) + 1
    j = np.arange(count)
    lo = j * (np.pi / 2.0)
    hi = np.minimum((j + 1) * (np.pi / 2.0), eps * (1.0 - 1e-12))
    even_mask = (j % 2 == 0)

    if np.any(hi <= lo):
        raise ConvergenceError(
            f"root bracket collapsed for epsilon={eps}: the strength sits "
            f"within rounding distance of a parity threshold")

    f = _bracket_functions(eps, even_mask)
    fa = f(lo)
    fb = f(hi)
    if np.any(fa * fb > 0):
        bad = int(np.argmax(fa * fb > 0))
        raise ConvergenceError(
            f"no sign change in root bracket {bad} for epsilon={eps}")

    a, b = lo.copy(), hi.copy()
    for _ in range(_BISECTION_CAP):
        mid = 0.5 * (a + b)
        fm = f(mid)
        go_left = fa * fm <= 0
        b = np.where(go_left, mid, b)
        a = np.where(go_left, a, mid)
        fa = np.where(go_left, fa, fm)
        if np.all((b - a) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, b)):
            break
    root = 0.5 * (a + b)

    # Newton polish on the pole-free form; skip steps that would leave the
    # bracket or divide by a vanishing derivative (nearly unbound roots).
    for _ in range(_NEWTON_POLISH_STEPS):
        beta_now = np.sqrt(np.maximum(eps * eps - root * root, 0.0))
        deriv = _derivative(eps, even_mask, root)
        safe = (np.abs(deriv) > 0) & (beta_now > 1e-8)
        step = np.where(safe, f(root) / np.where(safe, deriv, 1.0), 0.0)
        cand = root - step
        ok = (cand > lo) & (cand < hi)
        root = np.where(safe & ok, cand, root)

    beta = np.sqrt(np.maximum(eps * eps - root * root, 0.0))
    return root, beta, even_mask


def edge_values(alpha, even):
    """Unnormalized profile at the wall ``xbar = 1/2``: ``cos`` or ``sin``."""
    return np.where(even, np.cos(alpha), np.sin(alpha))


def profile_overlaps(a1, b1, a2, b2, even):
    """Overlap integrals of unnormalized same-parity level profiles.

    Inside the well, product-to-sum turns ``cos cos`` and ``sin sin`` into a
    difference- and a sum-frequency cosine whose integrals are sinc terms of
    opposite relative sign; outside, the product of two decaying branches is
    a pure exponential.  Arguments broadcast elementwise.
    """
    sign = np.where(even, 1.0, -1.0)
    interior = 0.5 * (np.sinc((a1 - a2) / np.pi) + sign * np.sinc((a1 + a2) / np.pi))
    return interior + edge_values(a1, even) * edge_values(a2, even) / (b1 + b2)


def solve_spectrum(config: WellConfig) -> Spectrum:
    """All bound states of the well, ordered by increasing energy.

    Each accepted root satisfies the defining transcendental equation to
    ``RESIDUAL_TOL``, or to the precision achievable in double arithmetic
    for very strong wells (the residual's condition number grows like
    ``epsilon^2 / alpha``).
    """
    root, beta, even_mask = _solve_roots(config.epsilon)

    # Residual acceptance accounts for the conditioning of the tan/cot form.
    residual = transcendental_residual(root, beta, even_mask)
    tangent = np.tan(root)
    slope = np.where(even_mask, np.abs(tangent), np.abs(1.0 / tangent))
    cond = slope + root * (1.0 + slope ** 2) + root / np.maximum(beta, 1e-30)
    achievable = 64.0 * np.finfo(float).eps * cond * np.maximum(1.0, root)
    bad = np.abs(residual) > np.maximum(RESIDUAL_TOL, achievable)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"root {i + 1} did not converge: residual {residual[i]:.3e}")

    norms = 1.0 / np.sqrt(profile_overlaps(root, beta, root, beta, even_mask))
    return Spectrum(alpha=root, beta=beta, even=even_mask, norm=norms)


def closed_form_norm(state: BoundState) -> float:
    """Textbook normalization constant; cross-check for the numerical norm."""
    return np.sqrt(2.0 / (1.0 + 1.0 / state.beta))


def eigenfunction_value(state: BoundState, xbar):
    """Evaluate the normalized eigenfunction at scaled positions."""
    x = np.asarray(xbar, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    row = eigenfunction_rows(np.array([state.alpha]), np.array([state.beta]),
                             np.array([state.parity == "even"]),
                             np.array([state.norm]), x.ravel())[0]
    return float(row[0]) if x.ndim == 0 else row.reshape(x.shape)


def eigenfunction_rows(alpha, beta, even, norm, x):
    """Normalized eigenfunctions of the given levels at positions ``x``.

    One row per level.  Piecewise: trigonometric inside the well,
    exponentially decaying outside.  The outside branch is written as
    ``exp(-2 beta (|x| - 1/2))`` and evaluated outside only, so deep wells
    do not overflow.
    """
    inside = np.abs(x) <= 0.5
    x_in, x_out = x[inside], x[~inside]
    a, e = alpha[:, None], even[:, None]
    out = np.empty((len(alpha), len(x)))
    out[:, inside] = np.where(e, np.cos(2.0 * a * x_in), np.sin(2.0 * a * x_in))
    decay = np.exp(-2.0 * beta[:, None] * (np.abs(x_out) - 0.5))
    out[:, ~inside] = np.where(e, np.cos(a), np.sign(x_out) * np.sin(a)) * decay
    out *= norm[:, None]
    return out


def orthonormality_matrix(states: Spectrum) -> np.ndarray:
    """Gram matrix of overlaps between the given states.

    Opposite-parity entries vanish identically by symmetry of the integrand
    and are returned as exact zeros.  Same-parity entries come from the
    closed-form overlap of the computed roots, whose off-diagonal terms
    cancel only at true roots, so the matrix still checks the spectrum.
    """
    if not states:
        raise ValueError("need at least one state")
    alpha, beta, even, norm = states.alpha, states.beta, states.even, states.norm
    same = even[:, None] == even[None, :]
    overlaps = profile_overlaps(alpha[:, None], beta[:, None], alpha[None, :],
                                beta[None, :], even[:, None])
    return np.where(same, norm[:, None] * norm[None, :] * overlaps, 0.0)
