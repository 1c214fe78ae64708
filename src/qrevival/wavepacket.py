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
from .spectrum import Spectrum, edge_values, eigenfunction_rows

COMPLETENESS_FLOOR = 0.999
_SNAPSHOT_BLOCK = 65536
_BOX_TRUNCATION = 1e-10


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean-momentum Gaussian, ``exp(-(x - x0)^2 / (2 sigma^2))``."""

    x0: float
    sigma: float

    def __post_init__(self):
        # a subnormal width leaves the wall distances in its units infinite
        if not (np.isfinite(self.sigma) and self.sigma >= np.finfo(float).tiny):
            raise ValueError(f"sigma must be positive and at least 2.2e-308, "
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

    The box (``beta = inf``) differs in three ways.  Its levels have no wall
    tails, whose transforms would be NaN.  The packet is normalized over the
    interior, where the box basis is complete.  Its coefficients past the
    first level at which the captured weight reaches ``1 - 1e-10`` are set
    to zero: the weights of a smooth packet fall off only algebraically, so
    the autocorrelation's own cut would keep hundreds of them.
    """
    if not states:
        raise ValueError("need at least one bound state")
    if not isinstance(initial, GaussianSpec):
        raise TypeError(f"unsupported initial state {type(initial).__name__}")
    alpha, beta, even = states.alpha, states.beta, states.even
    if math.isinf(beta[0]):
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
        warnings.warn(
            f"bound states capture only {completeness:.6f} of the initial state",
            CompletenessWarning, stacklevel=2)
    return SpectralDecomposition(coefficients=coeffs.astype(complex),
                                 completeness=completeness)


def evolve(decomp: SpectralDecomposition, states: Spectrum, tau: float) -> np.ndarray:
    """Coefficients after scaled time ``tau``; magnitudes are preserved."""
    return decomp.coefficients * np.exp(-1j * states.rates * tau)


def snapshot(decomp: SpectralDecomposition, states: Spectrum, tau: float,
             grid) -> np.ndarray:
    """Probability density on the given sorted position grid at time ``tau``.

    The levels' terms are summed in level order, a block of levels at a
    time, so memory stays at about ``_SNAPSHOT_BLOCK`` values, or one level
    on a longer grid, however many levels there are.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a finite 1-d array")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted")
    c = evolve(decomp, states, tau)
    psi = np.zeros(len(grid), dtype=complex)
    rows = max(1, _SNAPSHOT_BLOCK // max(1, len(grid)))
    for lo in range(0, len(states), rows):
        part = slice(lo, lo + rows)
        terms = c[part, None] * eigenfunction_rows(
            states.alpha[part], states.beta[part], states.even[part],
            states.norm[part], grid)
        terms[0] += psi
        # a sum over the slow axis adds the rows one after another
        psi = terms.sum(axis=0)
    return np.abs(psi) ** 2
