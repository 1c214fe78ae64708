"""Initial states, their expansion over bound states, and time evolution.

A Gaussian packet is projected onto a bound-state set by closed-form overlap
integrals.  Evolution is diagonal: coefficient ``n`` picks up ``exp(-i *
rate_n * tau)`` where ``rate_n`` is the state's phase rate in scaled time.
The infinitely deep well is the spectrum at ``epsilon = inf``: the basis
``sqrt(2) cos(n pi x)`` for odd ``n`` and ``sqrt(2) sin(n pi x)`` for even
``n``, whose phase law is exactly quadratic, ``exp(-2 pi i n^2 tau)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CompletenessWarning
from .revival import MAX_SAMPLES
from .spectrum import Spectrum, edge_values, eigenfunction_rows

COMPLETENESS_FLOOR = 0.999
_SNAPSHOT_BLOCK = 65536
_BOX_TRUNCATION = 1e-10
# Largest weighted phase |tau| * sum |c_n| rate_n a snapshot evolves to.
MAX_PHASE = 2.0 ** 33


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean-momentum Gaussian, ``exp(-(x - x0)^2 / (2 sigma^2))``."""

    x0: float
    sigma: float

    def __post_init__(self):
        # subnormal: inf wall distances in its units; past 1e100: (sigma alpha)^2 overflows
        if not np.finfo(float).tiny <= self.sigma <= 1e100:
            raise ValueError(f"sigma must be at least 2.2e-308 and at most 1e100, "
                             f"got {self.sigma}")
        if not (np.isfinite(self.x0) and abs(self.x0) < 0.5):
            raise ValueError(f"packet must start inside the well, got x0={self.x0}")

    def amplitude(self, x):
        return np.exp(-((x - self.x0) ** 2) / (2.0 * self.sigma ** 2))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Expansion coefficients over the levels of a spectrum."""

    coefficients: np.ndarray
    completeness: float

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


def _weideman_coefficients():
    # Weideman, SIAM J. Numer. Anal. 31, 1497 (1994): w(z) is expanded in
    # powers of (L + iz) / (L - iz); the coefficients are one FFT of
    # exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta / 2).
    n_terms = 64
    m = 2 * n_terms
    scale = math.sqrt(n_terms / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, a[n_terms:0:-1]


_WEIDEMAN_L, _WEIDEMAN_COEFFS = _weideman_coefficients()


def faddeeva(z):
    """Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)`` for ``Im z >= 0``.

    Weideman's rational approximation with 64 terms; relative error about
    1e-14 across the closed upper half plane.
    """
    den = _WEIDEMAN_L - 1j * np.asarray(z, dtype=complex)
    ratio = (2.0 * _WEIDEMAN_L - den) / den
    poly = np.zeros_like(ratio)
    for coeff in _WEIDEMAN_COEFFS:
        poly *= ratio
        poly += coeff
    # where den**2 overflows, w(z) is 1 / (sqrt(pi) den) to rounding
    with np.errstate(over="ignore"):
        return 2.0 * poly / den ** 2 + (1.0 / math.sqrt(math.pi)) / den


def _gaussian_transforms(spec: GaussianSpec, alpha, beta=None):
    """Overlaps of the packet ``g`` with the levels' profiles, by one pass
    of :func:`faddeeva` over every wall term.

    The first result is ``integral of g(x) exp(2i alpha x)`` over the well.
    Completing the square leaves one error function at each wall; each is
    written as ``exp(-u^2) w(+-c + iu)`` with ``u >= 0`` the wall's distance
    in units of ``sqrt(2) sigma`` and ``c = sqrt(2) alpha sigma``, which
    cannot overflow however deep the level or narrow the packet.  The real
    part is the overlap with ``cos(2 alpha x)``, the imaginary part the
    overlap with ``sin(2 alpha x)``.

    Given ``beta``, the second and third results are the tails beyond the
    right and left walls, ``integral of g(x) exp(-2 beta (|x| - 1/2))``,
    each ``sigma sqrt(pi/2) exp(-u^2) erfcx(u + sqrt(2) beta sigma)``, where
    ``erfcx(v) = w(iv)``.
    """
    s = math.sqrt(2.0) * spec.sigma
    c = s * alpha
    u_right = (0.5 - spec.x0) / s
    u_left = (0.5 + spec.x0) / s
    args = [c + 1j * u_right, -c + 1j * u_left]
    if beta is not None:
        args += [1j * (u_right + s * beta), 1j * (u_left + s * beta)]
    w_right, w_left, *w_tails = np.split(faddeeva(np.concatenate(args)), len(args))
    # C pow(), as Python's ``float ** 2`` calls, but overflowing to inf for
    # a packet far narrower than its distance to a wall
    with np.errstate(over="ignore"):
        right = np.exp(1j * alpha - np.float_power(u_right, 2)) * w_right
        left = np.exp(-1j * alpha - np.float_power(u_left, 2)) * w_left
    centre = 2.0 * np.exp(2j * alpha * spec.x0 - c * c)
    scale = spec.sigma * math.sqrt(0.5 * math.pi)
    inside = scale * (centre - left - right)
    tails = [scale * math.exp(-u * u) * w_tail.real
             for u, w_tail in zip((u_right, u_left), w_tails)]
    return inside, *tails


def project(initial, states: Spectrum) -> SpectralDecomposition:
    """Overlap coefficients of an initial state with each bound state.

    ``initial`` is a :class:`GaussianSpec`; the coefficients of this real
    state are real.  A :class:`CompletenessWarning` is issued when the
    captured weight falls below ``COMPLETENESS_FLOOR``, which signals that
    the packet leaks into unbound levels and results are outside the
    method's domain of validity.

    The box (``beta = inf``) differs in four ways.  Its levels have no wall
    tails, whose transforms would be NaN.  The packet is normalized over the
    interior, where the box basis is complete.  It has no unbound levels, so
    its warning places the missing weight above its top level, as for a
    packet too narrow for ``BOX_LEVELS`` modes.  Its coefficients past the
    first level at which the captured weight reaches ``1 - 1e-10`` are set
    to zero: the weights of a smooth packet fall off only algebraically, so
    the autocorrelation's own cut would keep hundreds of them.
    """
    if not states:
        raise ValueError("need at least one bound state")
    if not isinstance(initial, GaussianSpec):
        raise TypeError(f"unsupported initial state {type(initial).__name__}")
    alpha, beta, even = states.alpha, states.beta, states.even
    box = math.isinf(beta[0])
    if box:
        (inside,) = _gaussian_transforms(initial, alpha)
        x0, sigma = initial.x0, initial.sigma
        interior = 0.5 * math.sqrt(math.pi) * sigma * (
            math.erf((0.5 - x0) / sigma) + math.erf((0.5 + x0) / sigma))
        coeffs = states.norm * np.where(even, inside.real, inside.imag) / math.sqrt(interior)
        reached = np.flatnonzero(np.cumsum(coeffs ** 2) >= 1.0 - _BOX_TRUNCATION)
        if reached.size:
            coeffs[reached[0] + 1:] = 0.0
    else:
        edge = edge_values(alpha, even)
        inside, right, left = _gaussian_transforms(initial, alpha, beta)
        overlaps = np.where(even, inside.real + edge * (right + left),
                            inside.imag + edge * (right - left))
        coeffs = states.norm * overlaps / math.sqrt(initial.sigma * math.sqrt(math.pi))

    completeness = float(np.sum(coeffs ** 2))
    if completeness < COMPLETENESS_FLOOR:
        if box:
            message = (f"the box's first {len(states)} levels capture only "
                       f"{completeness:.6f} of the initial state; the rest lies "
                       f"in the levels above them")
        else:
            message = f"bound states capture only {completeness:.6f} of the initial state"
        warnings.warn(message, CompletenessWarning, stacklevel=2)
    return SpectralDecomposition(coefficients=coeffs, completeness=completeness)


def snapshot(decomp: SpectralDecomposition, states: Spectrum, taus,
             grid) -> np.ndarray:
    """Probability density on the sorted position grid, one row per time.

    The profiles of a block of grid points, about ``_SNAPSHOT_BLOCK`` values
    or one point of every level, are built once and multiplied by each
    time's real and imaginary parts of ``c_n exp(-i rate_n tau)`` in a real
    product of its own.  Sizes past ``MAX_SAMPLES`` are refused before any
    table is built, and so are times whose largest phase ``|tau| *
    max(rate)`` overflows, or whose weighted phase ``|tau| * sum_n |c_n|
    rate_n`` exceeds ``MAX_PHASE`` = ``2**33``.  Each phase ``rate_n * tau``
    is rounded by at most ``2**-53`` of itself, so below that bound
    ``psi(x)`` moves by at most ``2**-20 * max_n |u_n(x)|`` and the density
    by about twice that times ``|psi(x)|``.  Past it the density no longer
    tells ``tau`` from its neighbouring doubles: at ``epsilon = 100`` it
    differs from theirs by 1.3e-5 of its peak at ``tau = 1e9``.
    """
    taus, grid = np.asarray(taus, dtype=float), np.asarray(grid, dtype=float)
    if taus.ndim != 1 or grid.ndim != 1:
        raise ValueError("times and grid must be 1-d arrays")
    for count, what in ((len(grid), "grid points"), (len(states), "levels")):
        if len(taus) * count > MAX_SAMPLES:
            raise ValueError(f"{len(taus)} times at {count} {what} would hold "
                             f"{len(taus) * count} values, more than {MAX_SAMPLES}")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be finite and sorted")
    tau_max = float(np.abs(taus).max(initial=0.0))
    if not math.isfinite(tau_max * float(states.rates.max())):  # so is every phase
        raise ValueError("times must be finite, and so must their phases")
    weighted = tau_max * float(np.abs(decomp.coefficients) @ states.rates)
    if weighted > MAX_PHASE:
        raise ValueError(f"|tau| = {tau_max!r} takes the weighted phase |tau| sum |c_n| "
                         f"rate_n to {weighted:.3g}, more than 2**33 = {MAX_PHASE:.3g}: its "
                         "rounding could move psi by more than 2**-20")
    c = decomp.coefficients * np.exp(-1j * np.multiply.outer(taus, states.rates))
    parts = np.stack([c.real, c.imag], axis=1)
    density = np.empty((len(taus), len(grid)))
    points = max(1, _SNAPSHOT_BLOCK // len(states))
    for lo in range(0, len(grid), points):
        rows = eigenfunction_rows(states.alpha, states.beta, states.even,
                                  states.norm, grid[lo:lo + points])
        psi = parts @ rows  # matmul loops over the stacked times
        density[:, lo:lo + points] = psi[:, 0] ** 2 + psi[:, 1] ** 2
    return density
