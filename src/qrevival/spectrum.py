"""Bound states of a symmetric square well of finite depth.

Everything is dimensionless.  Positions are measured in units of the well
length (``xbar = x / L``, well interior ``|xbar| <= 1/2``) and the single
parameter ``epsilon`` fixes the depth.  Each bound state is labeled by the
root ``alpha`` of a transcendental equation, with ``beta = sqrt(epsilon^2 -
alpha^2)`` the decay rate in the forbidden region.  Energies are reported as
``alpha^2``; when states are evolved, the time unit is the revival period of
the infinitely deep well, so a state accumulates phase ``exp(-8i alpha^2 tau
/ pi)`` over scaled time ``tau``.

Parity alternates along the spectrum: even states obey ``alpha tan alpha =
beta``, odd ones ``alpha cot alpha = -beta``.  Both are one quantization law,
``2 alpha = n pi - 2 arcsin(alpha / epsilon)`` for level n = 1..N with N =
floor(2 epsilon / pi) + 1, whose left side minus right side increases with
``alpha``.  Each level is solved by Newton in whichever unknown is well
conditioned for it: ``alpha`` for deep levels, ``beta`` for shallow ones,
so the small ``beta`` of a level that has only just bound comes out with a
relative error of about ``eps * epsilon / (epsilon - k pi / 2)`` (``eps``
the rounding unit).  The one refusal is a strength at most ``1e4`` rounding
units of ``epsilon`` above a threshold ``k pi / 2``, where that top ``beta``
would carry fewer than about four correct digits.

``epsilon = inf`` is the infinitely deep well, the box, where the law gives
``alpha = n pi / 2`` and ``beta = inf`` in closed form; its spectrum holds the
first ``BOX_LEVELS`` levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

RESIDUAL_TOL = 1e-12
_WEAK_BINDING_BETA = 1e-6
_NEWTON_CAP = 16
# Refuse a strength whose distance above the last threshold is this many
# rounding units of epsilon or fewer: the top beta would keep under ~4 digits.
_THRESHOLD_GAP = 1e4 * np.finfo(float).eps
# Levels of the box (epsilon = inf), which has infinitely many.
BOX_LEVELS = 512
# Most levels solve_spectrum solves, refused before it allocates them;
# epsilon = 1e6 binds 636,620.
MAX_LEVELS = 2 ** 20


@dataclass(frozen=True)
class WellConfig:
    """Dimensionless strength of the well; all other scales are absorbed."""

    epsilon: float

    def __post_init__(self):
        eps = self.epsilon
        # the weakest level's beta is about epsilon^2, which must not underflow
        if not (eps > 0 and eps * eps >= np.finfo(float).tiny):
            raise ValueError(f"well strength must be at least 1.5e-154 or inf, "
                             f"got {eps}")

    @property
    def predicted_state_count(self) -> int:
        if math.isinf(self.epsilon):
            return BOX_LEVELS
        return int(np.floor(2.0 * self.epsilon / np.pi)) + 1


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Every bound level of one well as arrays, ordered by increasing energy.

    ``even`` is the parity mask; level ``n`` is entry ``n - 1`` of each array.
    """

    alpha: np.ndarray
    beta: np.ndarray
    even: np.ndarray
    norm: np.ndarray

    def __len__(self) -> int:
        return len(self.alpha)

    @property
    def rates(self) -> np.ndarray:
        """Phase accumulated per unit scaled time, ``8 alpha^2 / pi``."""
        return 8.0 * self.energy / np.pi

    @property
    def energy(self) -> np.ndarray:
        # C pow(), which Python's ``float ** 2`` also calls: ``** 2`` on an
        # array multiplies, which can round the other way.  The printed
        # energies and rates keep pow()'s bits.
        return np.float_power(self.alpha, 2)

    @property
    def weakly_bound(self) -> np.ndarray:
        return self.beta < _WEAK_BINDING_BETA

    @property
    def residuals(self) -> np.ndarray:
        return transcendental_residual(self.alpha, self.beta, self.even)


def barker(config: WellConfig) -> float:
    """Barker's revival time ``(1 + 1/epsilon)^2``: the box's, scaled by
    the square of the well's effective length ratio ``1 + 1/epsilon``."""
    return (1.0 + 1.0 / config.epsilon) ** 2


def transcendental_residual(alpha, beta, even):
    """Residual of the defining equation, in its textbook tan/cot form."""
    return _residual(alpha, beta, even, np.tan(alpha))


def _residual(alpha, beta, even, tangent):
    """:func:`transcendental_residual` given ``tangent = tan(alpha)``."""
    return np.where(even, alpha * tangent - beta, alpha / tangent + beta)


def _solve_roots(config: WellConfig):
    """Roots of ``2 alpha = n pi - 2 arcsin(alpha / epsilon)`` for n = 1..N.

    Deep levels solve ``g(alpha) = 2 alpha + 2 arcsin(alpha / eps) - n pi``,
    convex and increasing, from Barker's upper bound on ``alpha``.  Shallow
    ones solve ``h(beta) = 2 alpha - 2 atan2(beta, alpha) - (n - 1) pi``,
    concave and decreasing, from an upper bound on ``beta``.  Either way
    Newton falls monotonically onto the root, so iteration stops once no
    iterate falls any further.  ``arcsin(alpha / eps)`` is evaluated as
    ``atan2(alpha, beta)``, which is defined for every level.  With ``x``
    the unknown and ``other`` the remaining one of ``alpha`` and ``beta``,
    both laws take ``t = atan2(x, other)``, so a step takes one arctangent
    and one quotient by ``other`` for every level.
    """
    eps = config.epsilon
    # on floats, before the count is an int or any array exists
    levels = eps / (np.pi / 2.0) + 1.0
    if levels > MAX_LEVELS:
        raise ValueError(f"a well of strength {eps} binds about {levels:.7g} "
                         f"levels, more than MAX_LEVELS = {MAX_LEVELS}")
    count = config.predicted_state_count
    gap = eps - (count - 1) * (np.pi / 2.0)
    if gap <= _THRESHOLD_GAP * eps:
        raise ConvergenceError(
            f"epsilon={eps} sits within rounding distance of the threshold "
            f"where level {count} binds")
    n = np.arange(1, count + 1)
    alpha_hi = (n * (np.pi / 2.0)) / (1.0 + 1.0 / eps)
    deep = alpha_hi <= eps / np.sqrt(2.0)
    # upper bound on beta: its value at the lower bound on alpha, (n pi / 2) /
    # (1 + pi / (2 eps)), factored so that only the distance above the
    # threshold cancels
    beta_hi = eps * np.sqrt((2.0 * eps - (n - 1) * np.pi)
                            * (2.0 * eps + (n + 1) * np.pi)) / (2.0 * eps + np.pi)
    # beta_N = alpha_N tan(alpha_N - (N - 1) pi / 2) < eps tan(gap): a start
    # within rounding of the root just above a threshold
    beta_hi[-1] = min(beta_hi[-1], eps * np.tan(gap))
    x = np.where(deep, alpha_hi, beta_hi)
    # with t = atan2(x, other): law = (2 alpha + sign*t) - offset and slope =
    # num / other + base, num = 2 for deep levels and -2 (x + 1) for shallow
    sign = np.where(deep, 2.0, -2.0)
    offset = np.where(deep, n * np.pi, (n - 1) * np.pi)
    base = np.where(deep, 2.0, 0.0)
    for _ in range(_NEWTON_CAP):
        other = np.sqrt((eps - x) * (eps + x))
        alpha = np.where(deep, x, other)
        law = (2.0 * alpha + sign * np.arctan2(x, other)) - offset
        slope = np.where(deep, 2.0, -2.0 * (x + 1.0)) / other + base
        step = x - law / slope
        falls = step < x
        if not falls.any():
            return alpha, np.where(deep, other, x), n % 2 == 1
        x = np.where(falls, step, x)
    raise ConvergenceError(
        f"Newton did not settle within {_NEWTON_CAP} steps for epsilon={eps}")


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
    ``epsilon^2 / alpha``).  The box's levels are closed forms.  A strength
    that binds more than ``MAX_LEVELS`` levels is refused with ``ValueError``.
    """
    if math.isinf(config.epsilon):
        n = np.arange(1, BOX_LEVELS + 1)
        return Spectrum(alpha=0.5 * np.pi * n, beta=np.full(BOX_LEVELS, np.inf),
                        even=n % 2 == 1, norm=np.full(BOX_LEVELS, math.sqrt(2.0)))
    root, beta, even_mask = _solve_roots(config)

    # Residual acceptance accounts for the conditioning of the tan/cot form.
    tangent = np.tan(root)
    residual = _residual(root, beta, even_mask, tangent)
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
