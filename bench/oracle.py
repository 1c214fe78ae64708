"""Reference computations made apart from the program.

Nothing here imports ``qrevival``.  Levels come from Brent's method on the
pole-free matching conditions, level norms from their closed-form interior
and tail integrals, packet overlaps from QUADPACK (``scipy.integrate.quad``),
box-mode overlaps from a fixed Gauss-Legendre rule, and oscillator weights
from their closed forms.  The checks compare the program's outputs with
these values.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

# Levels above this many inverse packet widths of wavenumber carry weight
# below exp(-(2 * 7)^2 / 2) ~ 1e-43 of the packet and are left out of the
# sums ...
_ALPHA_CUT_SIGMAS = 7.0
# ... which holds only for packets whose value at the walls is below this
# share of their peak; other packets are projected on every level.
_WALL_EDGE = 1e-8


def level_count(epsilon: float) -> int:
    return int(math.floor(2.0 * epsilon / math.pi)) + 1


def _matching(epsilon: float, even: bool):
    def f(a):
        b = math.sqrt(max(epsilon * epsilon - a * a, 0.0))
        if even:
            return b * math.cos(a) - a * math.sin(a)
        return a * math.cos(a) + b * math.sin(a)
    return f


def _lgamma(x):
    return np.array([math.lgamma(v) for v in np.asarray(x, dtype=float)])


@lru_cache(maxsize=256)
def well_levels(epsilon: float, alpha_max: float = math.inf):
    """Roots ``alpha`` of the lowest levels with ``alpha <= alpha_max``.

    Returns ``(alpha, beta, even)`` arrays.  Level ``j`` (0-based) lies in
    ``[j pi/2, (j+1) pi/2]`` and has even parity for even ``j``.
    """
    from scipy.optimize import brentq   # scipy loads only where wells are checked

    alphas, evens = [], []
    for j in range(level_count(epsilon)):
        lo = j * math.pi / 2.0
        if lo > alpha_max:
            break
        hi = min((j + 1) * math.pi / 2.0, epsilon)
        even = j % 2 == 0
        f = _matching(epsilon, even)
        alphas.append(brentq(f, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps,
                             maxiter=200))
        evens.append(even)
    alpha = np.array(alphas)
    beta = np.sqrt(np.maximum(epsilon * epsilon - alpha * alpha, 0.0))
    return alpha, beta, np.array(evens)


def level_norms(alpha, beta, even):
    """Closed-form normalization of ``cos(2 alpha x)`` / ``sin(2 alpha x)``
    inside the well joined to ``exp(-2 beta (|x| - 1/2))`` outside."""
    sign = np.where(even, 1.0, -1.0)
    interior = 0.5 + sign * np.sin(2.0 * alpha) / (4.0 * alpha)
    edge = np.where(even, np.cos(alpha), np.sin(alpha))
    return 1.0 / np.sqrt(interior + edge * edge / (2.0 * beta))


def phase_rates(alpha):
    return 8.0 * np.asarray(alpha) ** 2 / math.pi


@lru_cache(maxsize=256)
def well_projection(epsilon: float, x0: float, sigma: float):
    """Overlaps of the normalized Gaussian packet with the bound levels.

    Returns ``(coefficients, alpha, beta, even)``, truncated where the
    packet's wavenumber content is exhausted.  The completeness is the sum
    of the squared coefficients.
    """
    wall = math.exp(-(0.5 - abs(x0)) ** 2 / (2.0 * sigma * sigma))
    # The eigenfunctions' second derivative jumps at the walls, so overlaps
    # decay only algebraically, in proportion to the packet's value there.
    cut = _ALPHA_CUT_SIGMAS / sigma if wall < _WALL_EDGE else math.inf
    alpha, beta, even = well_levels(epsilon, cut)
    norms = level_norms(alpha, beta, even)
    from scipy.integrate import IntegrationWarning

    def gauss(x):
        return math.exp(-(x - x0) ** 2 / (2.0 * sigma * sigma))

    packet_norm = math.sqrt(sigma * math.sqrt(math.pi))
    coeffs = np.empty(len(alpha))
    with warnings.catch_warnings():
        # QUADPACK flags roundoff on levels whose overlap is ~1e-16; the
        # value is still exact to that level.
        warnings.simplefilter("ignore", IntegrationWarning)
        for j in range(len(alpha)):
            coeffs[j] = _overlap(gauss, x0, sigma, alpha[j], beta[j], even[j], norms[j])
    return coeffs / packet_norm, alpha, beta, even


def _overlap(gauss, x0, sigma, a, b, ev, norm):
    """Overlap of the unnormalized packet with one normalized level."""
    from scipy.integrate import quad

    reach = (x0 + 15.0 * sigma, -x0 + 15.0 * sigma)
    inside = quad(gauss, -0.5, 0.5, weight="cos" if ev else "sin",
                  wvar=2.0 * a, limit=400, epsabs=1e-15, epsrel=1e-12)[0]
    edge = math.cos(a) if ev else math.sin(a)
    tails = 0.0
    for side, end in ((1.0, reach[0]), (-1.0, reach[1])):
        if end <= 0.5:
            continue
        orient = 1.0 if ev else side
        tails += orient * edge * quad(
            lambda u: gauss(side * (0.5 + u)) * math.exp(-2.0 * b * u),
            0.0, end - 0.5, limit=200, epsabs=1e-15, epsrel=1e-12)[0]
    return norm * (inside + tails)


def well_wavefunction(alpha, beta, even, x):
    """Rows of normalized eigenfunction values on positions ``x``."""
    x = np.asarray(x, dtype=float)
    norms = level_norms(alpha, beta, even)
    inside = np.abs(x) <= 0.5
    phase = np.outer(2.0 * alpha, x)
    rows = np.where(even[:, None], np.cos(phase), np.sin(phase))
    edge = np.where(even, np.cos(alpha), np.sin(alpha))[:, None]
    decay = np.exp(-2.0 * np.outer(beta, np.maximum(np.abs(x) - 0.5, 0.0)))
    orient = np.where(even[:, None], 1.0, np.sign(x)[None, :])
    rows = np.where(inside[None, :], rows, edge * decay * orient)
    return rows * norms[:, None]


@lru_cache(maxsize=64)
def box_projection(x0: float, sigma: float, n_max: int = 512):
    """Box-mode coefficients of the packet, normalized over the box.

    Modes are ``sqrt(2) cos(n pi x)`` for odd ``n`` and ``sqrt(2) sin(n pi
    x)`` for even ``n``; the overlaps use a 4096-node Gauss-Legendre rule,
    exact to rounding for modes up to ``n_max`` against a smooth packet.
    """
    nodes, wts = np.polynomial.legendre.leggauss(4096)
    x, w = 0.5 * nodes, 0.5 * wts
    g = np.exp(-(x - x0) ** 2 / (2.0 * sigma * sigma))
    g /= math.sqrt(np.sum(w * g * g))
    n = np.arange(1, n_max + 1)
    phase = np.outer(n, math.pi * x)
    modes = math.sqrt(2.0) * np.where((n % 2 == 1)[:, None], np.cos(phase),
                                      np.sin(phase))
    return modes @ (w * g), n


def box_rates(n):
    return 2.0 * math.pi * np.asarray(n, dtype=float) ** 2


def poisson_weights(alpha: float, tail: float = 1e-20):
    """Coherent-state weights ``e^{-m} m^n / n!`` with ``m = alpha^2``."""
    mean = alpha * alpha
    n = np.arange(int(mean + 20.0 * math.sqrt(mean) + 40.0))
    w = np.exp(-mean + n * math.log(mean) - _lgamma(n + 1))
    keep = np.flatnonzero(w > tail * w.max())
    return w[: keep[-1] + 1]


def squeezed_vacuum_weights(s: float, tail: float = 1e-20):
    """Squeezed-vacuum weights ``P(2m) = C(2m, m) t^2m / (4^m cosh r)``
    with ``t = tanh r = (s - 1)/(s + 1)`` and ``cosh r = (s + 1)/(2 sqrt s)``."""
    t = (s - 1.0) / (s + 1.0)
    m = np.arange(512)
    log_p = (_lgamma(2 * m + 1) - 2.0 * _lgamma(m + 1) - 2.0 * m * math.log(2.0)
             + 2.0 * m * math.log(t) + math.log(2.0 * math.sqrt(s) / (s + 1.0)))
    p = np.exp(log_p)
    keep = np.flatnonzero(p > tail * p.max())
    w = np.zeros(2 * (keep[-1] + 1) - 1)
    w[0::2] = p[: keep[-1] + 1]
    return w


def oscillator_rates(n_levels: int, beta: float):
    n = np.arange(n_levels, dtype=float)
    return 2.0 * math.pi * n * n + 2.0 * math.pi * beta * n ** 3


# The ``revivals`` command looks for the revival in the first window, in
# units of its prediction, and when that window holds two peaks within 1 % of
# each other, again in the second; a second tie exits 4.
REVIVAL_WINDOWS = ((0.9, 1.5), (0.95, 1.05))
# Ratios of the second-highest to the highest peak that the command's 1 %
# test, made on its own samples, could decide either way.
TIE_BAND = (0.98, 0.995)


def _highest_peak(weights, rates, lo, hi, step=1e-4):
    """Time of the highest interior peak of ``|A|^2`` on the grid ``k step``
    in ``[lo, hi]`` and the second-highest peak over it, or None when the
    highest value sits on the window's edge."""
    k = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1)
    taus = k * step
    # exp(-i r k step) = exp(-i r (k0 + a B) step) exp(-i r b step): a matrix
    # product of two blocks of about sqrt(len(k)) phases per level stands for
    # len(k) of them, which keeps the screen's cost nearly independent of how
    # many draws it makes.
    block = math.isqrt(len(k)) + 1
    starts = (k[0] + np.arange(0, len(k), block)) * step
    coarse = np.exp(-1j * np.multiply.outer(starts, rates)) * weights
    fine = np.exp(-1j * np.multiply.outer(np.arange(block) * step, rates))
    amp = (coarse @ fine.T).ravel()[: len(k)]
    values = amp.real ** 2 + amp.imag ** 2
    inner = values[1:-1]
    at = np.flatnonzero((inner > values[:-2]) & (inner > values[2:])) + 1
    if len(at) == 0 or values[at].max() < values.max():
        return None
    peaks = np.sort(values[at])
    ratio = peaks[-2] / peaks[-1] if len(peaks) > 1 else 0.0
    return float(taus[at[np.argmax(values[at])]]), ratio


def oscillator_revival(weights, rates, predicted):
    """Grid time of the revival that the command's windows select around
    ``predicted``, or None when its choice could go either way."""
    carried = np.asarray(weights) > 1e-16
    w, th = np.asarray(weights)[carried], np.asarray(rates)[carried]
    for lo, hi in REVIVAL_WINDOWS:
        peak = _highest_peak(w, th, lo * predicted, hi * predicted)
        if peak is None or TIE_BAND[0] <= peak[1] <= TIE_BAND[1]:
            return None
        if peak[1] < TIE_BAND[0]:
            return peak[0]
    return None


def amplitude(weights, rates, tau):
    """``A(tau)`` and its first two derivatives in ``tau``."""
    w = np.asarray(weights, dtype=float)
    th = np.asarray(rates, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(tau, dtype=float), th))
    a0 = phases @ w
    a1 = phases @ (-1j * th * w)
    a2 = phases @ (-(th * th) * w)
    return a0, a1, a2


def intensity(weights, rates, tau):
    """``|A(tau)|^2`` with its first and second derivatives."""
    a0, a1, a2 = amplitude(weights, rates, tau)
    f0 = np.abs(a0) ** 2
    f1 = 2.0 * np.real(np.conj(a0) * a1)
    f2 = 2.0 * (np.abs(a1) ** 2 + np.real(np.conj(a0) * a2))
    return f0, f1, f2


# A time is taken for a maximum of |A|^2 when the slope there is at most this
# share of the curvature times the grid step, which puts the maximum within
# this share of a step.
STATIONARY_SHARE = 0.25


def is_maximum(weights, rates, tau, step):
    """Whether ``|A|^2`` peaks within ``STATIONARY_SHARE`` grid steps of
    ``tau``, with the slope and curvature there."""
    _, f1, f2 = intensity(weights, rates, tau)
    return bool(f2 < 0 and abs(f1) <= STATIONARY_SHARE * abs(f2) * step), f1, f2


def parabolic_vertex(weights, rates, tau, step):
    """Vertex of the parabola through ``|A|^2`` at ``tau`` and one step on
    either side, as a detector refines its grid peak."""
    y0, y1, y2 = intensity(weights, rates, tau + step * np.array([-1.0, 0.0, 1.0]))[0]
    return tau + 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2) * step
