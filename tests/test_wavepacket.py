import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec
from scipy.optimize import brentq
from scipy.special import wofz

from qrevival import (CompletenessWarning, GaussianSpec, SpectralDecomposition,
                      Spectrum, WellConfig, evolve, orthonormality_matrix,
                      project, snapshot, solve_spectrum)
from qrevival.spectrum import edge_values, eigenfunction_rows
from qrevival.wavepacket import faddeeva

PAPER_PACKET = GaussianSpec(x0=0.2, sigma=0.1)
CENTERED_PACKET = GaussianSpec(x0=0.0, sigma=0.1)
ORACLE_PACKETS = [(0.2, 0.1), (0.0, 0.1), (0.297, 0.129), (-0.15, 0.05),
                  (0.45, 0.02)]
# The oracles ask QUADPACK for near machine precision, where it reports
# roundoff; each test bounds the oracle's difference from the program.
quiet_quad = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def quad_coefficients(packet, alphas, betas):
    """Normalized overlaps of ``packet`` with the levels ``(alpha, beta)``.

    Levels alternate even/odd from the ground state.  The interior uses
    QUADPACK's oscillatory-weight rule, level by level; each exponential
    tail is one adaptive integral over all levels at once.  Level norms
    come from the elementary integrals of ``cos^2``/``sin^2`` and the tails.
    """
    def gauss(x):
        return math.exp(-(x - packet.x0) ** 2 / (2.0 * packet.sigma ** 2))

    alphas, betas = np.asarray(alphas), np.asarray(betas)
    even = np.arange(len(alphas)) % 2 == 0
    sign = np.where(even, 1.0, -1.0)
    edge = np.where(even, np.cos(alphas), np.sin(alphas))
    inside = np.array([
        quad(gauss, -0.5, 0.5, weight="cos" if ev else "sin", wvar=2.0 * alpha,
             epsabs=1e-15, epsrel=1e-13, limit=400)[0]
        for alpha, ev in zip(alphas, even)])

    def tail(side):
        return quad_vec(lambda u: gauss(side * (0.5 + u)) * np.exp(-2.0 * betas * u),
                        0.0, np.inf, epsabs=1e-16, epsrel=1e-14, norm="max")[0]

    level_norm2 = 0.5 + sign * np.sin(2.0 * alphas) / (4.0 * alphas) \
        + edge ** 2 / (2.0 * betas)
    overlap = inside + edge * (tail(1.0) + sign * tail(-1.0))
    return overlap / np.sqrt(level_norm2 * packet.sigma * math.sqrt(math.pi))


def brentq_levels(epsilon):
    """Roots ``(alpha, beta)`` by Brent's method on the pole-free equations."""
    def decay(a):
        return math.sqrt(max(epsilon ** 2 - a * a, 0.0))

    alphas = []
    for j in range(int(2.0 * epsilon / math.pi) + 1):
        if j % 2 == 0:
            def matching(a):
                return decay(a) * math.cos(a) - a * math.sin(a)
        else:
            def matching(a):
                return a * math.cos(a) + decay(a) * math.sin(a)
        alphas.append(brentq(matching, j * math.pi / 2.0,
                             min((j + 1) * math.pi / 2.0, epsilon), xtol=1e-15))
    return alphas, [decay(a) for a in alphas]


@pytest.fixture(scope="module")
def well12():
    return solve_spectrum(WellConfig(epsilon=12.0))


@pytest.fixture(scope="module")
def decomp12(well12):
    return project(PAPER_PACKET, well12)


def test_projection_completeness(decomp12):
    assert decomp12.completeness >= 0.999
    assert decomp12.completeness <= 1.0 + 1e-9


@quiet_quad
@pytest.mark.parametrize("epsilon", [12.0, 15.0, 30.0, 100.0, 1000.0])
@pytest.mark.parametrize("x0, sigma", ORACLE_PACKETS)
def test_coefficients_match_quad_oracle(epsilon, x0, sigma):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    packet = GaussianSpec(x0=x0, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompletenessWarning)
        ours = project(packet, states).coefficients.real
    oracle = quad_coefficients(packet, states.alpha, states.beta)
    assert np.abs(ours - oracle).max() <= 1e-13


@quiet_quad
def test_near_threshold_completeness_matches_quad_oracle():
    # the top level is bound by beta ~ 2e-5, so its tail reaches ~2e4 well
    # lengths; the closed forms carry no cut-off that could clip it
    epsilon = 1.5 * np.pi * (1.0 + 1e-6)
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompletenessWarning)
        decomp = project(PAPER_PACKET, states)
    alphas, betas = brentq_levels(epsilon)
    oracle = float(np.sum(quad_coefficients(PAPER_PACKET, alphas, betas) ** 2))
    assert abs(decomp.completeness - oracle) <= 1e-10


def test_coefficients_real_for_real_packet(decomp12):
    assert np.abs(decomp12.coefficients.imag).max() == 0.0


def test_centered_packet_kills_odd_states(well12):
    with pytest.warns(CompletenessWarning):
        decomp = project(CENTERED_PACKET, well12)
    assert np.abs(decomp.coefficients[~well12.even]).max() < 1e-12


def test_centered_packet_leakage_warns(well12):
    # this well captures slightly less than the warning floor of the
    # centered packet, which makes the warning path reachable
    with pytest.warns(CompletenessWarning):
        decomp = project(CENTERED_PACKET, well12)
    assert 0.99 < decomp.completeness < 0.999


def eigenstate_decomposition(states, k):
    """Level ``k`` expanded over ``states``: row ``k`` of the Gram matrix."""
    row = orthonormality_matrix(states)[k]
    return SpectralDecomposition(coefficients=row.astype(complex),
                                 completeness=float(np.sum(row ** 2)))


def test_eigenstate_projects_to_kronecker_delta(well12):
    decomp = eigenstate_decomposition(well12, 2)
    expected = np.zeros(len(well12))
    expected[2] = 1.0
    assert np.abs(np.abs(decomp.coefficients) - expected).max() < 1e-8


def test_evolution_at_zero_time_is_identity(decomp12, well12):
    c = evolve(decomp12, well12, 0.0)
    assert np.array_equal(c, decomp12.coefficients)


@pytest.mark.parametrize("tau", [0.1, 0.77, 5.3, -2.1])
def test_evolution_is_unitary(decomp12, well12, tau):
    c = evolve(decomp12, well12, tau)
    assert abs(np.sum(np.abs(c) ** 2) - decomp12.completeness) < 1e-12


def test_stationary_state_overlap_stays_unity(well12):
    decomp = eigenstate_decomposition(well12, 3)
    for tau in (0.3, 1.7, 9.2):
        c = evolve(decomp, well12, tau)
        overlap = np.vdot(decomp.coefficients, c)
        assert abs(abs(overlap) - decomp.completeness) < 1e-10


def test_snapshot_reproduces_initial_density(decomp12, well12):
    grid = np.linspace(-1.25, 1.25, 2001)
    dens = snapshot(decomp12, well12, 0.0, grid)
    norm = np.sqrt(np.sqrt(np.pi) * PAPER_PACKET.sigma)
    truth = (PAPER_PACKET.amplitude(grid) / norm) ** 2
    # truncated-state density differs in L1 by at most 2 sqrt(m) + m where
    # m is the weight missing from the bound-state basis
    missing = 1.0 - decomp12.completeness
    l1 = np.trapezoid(np.abs(dens - truth), grid)
    assert l1 <= 2.0 * np.sqrt(missing) + missing


def test_snapshot_parity_conservation(well12):
    with pytest.warns(CompletenessWarning):
        decomp = project(CENTERED_PACKET, well12)
    grid = np.linspace(-1.2, 1.2, 801)
    for tau in (0.0, 0.21, 0.5):
        dens = snapshot(decomp, well12, tau, grid)
        assert np.abs(dens - dens[::-1]).max() < 1e-10


def test_snapshot_at_revival_is_closer_than_midcycle(decomp12, well12):
    detected = 1.1864599470705903  # principal revival of this packet
    grid = np.linspace(-1.25, 1.25, 2001)
    dens0 = snapshot(decomp12, well12, 0.0, grid)
    at_revival = snapshot(decomp12, well12, detected, grid)
    midcycle = snapshot(decomp12, well12, 0.5, grid)
    l2 = lambda a: np.sqrt(np.trapezoid((a - dens0) ** 2, grid))
    assert l2(at_revival) < l2(midcycle)


@pytest.mark.parametrize("epsilon", [12.0, 100.0, 2500.0])
def test_snapshot_sums_the_levels_in_order(epsilon):
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    decomp = project(PAPER_PACKET, states)
    grid = np.linspace(-1.25, 1.25, 512)
    c = evolve(decomp, states, 0.37)
    psi = np.zeros(len(grid), dtype=complex)
    for k in range(len(states)):
        level = slice(k, k + 1)
        psi += c[k] * eigenfunction_rows(states.alpha[level], states.beta[level],
                                         states.even[level], states.norm[level],
                                         grid)[0]
    assert np.array_equal(snapshot(decomp, states, 0.37, grid), np.abs(psi) ** 2)


def test_snapshot_validates_grid(decomp12, well12):
    with pytest.raises(ValueError):
        snapshot(decomp12, well12, 0.0, np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        snapshot(decomp12, well12, 0.0, np.array([0.0, np.inf]))


def test_project_requires_states():
    with pytest.raises(ValueError):
        project(PAPER_PACKET, [])


def test_project_rejects_unknown_initial(well12):
    with pytest.raises(TypeError):
        project(np.zeros(4), well12)


@pytest.mark.parametrize("x0, sigma", [(0.0, 0.0), (0.0, -1.0), (0.6, 0.1),
                                       (np.nan, 0.1)])
def test_gaussian_spec_validation(x0, sigma):
    with pytest.raises(ValueError):
        GaussianSpec(x0=x0, sigma=sigma)


# --- box reference -----------------------------------------------------

BOX = solve_spectrum(WellConfig(epsilon=math.inf))
BOX_N = np.arange(1, len(BOX) + 1)


def kept_levels(decomp):
    """Levels up to the last one the box truncation left nonzero."""
    return int(np.flatnonzero(decomp.coefficients)[-1]) + 1


def test_box_centered_packet_uses_cosines_only():
    decomp = project(CENTERED_PACKET, BOX)
    sin_modes = np.abs(decomp.coefficients[1::2])
    assert sin_modes.max() < 1e-12


def test_box_completeness_for_centered_packet():
    decomp = project(CENTERED_PACKET, BOX)
    assert decomp.completeness >= 1.0 - 1e-10


@quiet_quad
@pytest.mark.parametrize("x0, sigma", ORACLE_PACKETS + [(0.2, 0.06)])
def test_box_coefficients_match_quad_oracle(x0, sigma):
    packet = GaussianSpec(x0=x0, sigma=sigma)
    decomp = project(packet, BOX)
    ours = decomp.coefficients.real[:kept_levels(decomp)]

    def gauss(x):
        return math.exp(-(x - x0) ** 2 / (2.0 * sigma ** 2))

    box_norm2 = quad(lambda x: gauss(x) ** 2, -0.5, 0.5, epsabs=1e-15, epsrel=1e-13)[0]
    oracle = np.array([
        quad(gauss, -0.5, 0.5, weight="cos" if n % 2 else "sin", wvar=n * math.pi,
             epsabs=1e-15, epsrel=1e-13, limit=400)[0]
        for n in range(1, len(ours) + 1)]) * math.sqrt(2.0 / box_norm2)
    assert np.abs(ours - oracle).max() <= 1e-13


def test_box_keeps_the_fewest_modes_that_reach_the_target():
    for packet in (CENTERED_PACKET, GaussianSpec(x0=-0.15, sigma=0.05)):
        decomp = project(packet, BOX)
        weights = decomp.weights
        kept = kept_levels(decomp)
        assert kept < len(BOX)
        assert not weights[kept:].any()
        assert weights.sum() >= 1.0 - 1e-10 > weights[:kept - 1].sum()


PACKET_STRENGTHS = st.one_of(st.floats(-2.0, 4.0).map(lambda p: 10.0 ** p),
                            st.just(math.inf))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(PACKET_STRENGTHS, st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
       st.floats(-3.0, 0.0).map(lambda p: 10.0 ** p))
def test_projection_properties_over_the_domain(epsilon, x0, sigma):
    # wells and the box alike: bound states never capture more than the
    # packet, and a centred packet has no overlap with an odd level
    states = solve_spectrum(WellConfig(epsilon=epsilon))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompletenessWarning)
        decomp = project(GaussianSpec(x0=x0, sigma=sigma), states)
        centred = project(GaussianSpec(x0=0.0, sigma=sigma), states)
    assert decomp.completeness <= 1.0 + 1e-12
    assert centred.completeness <= 1.0 + 1e-12
    assert not centred.coefficients[~states.even].any()


def test_faddeeva_matches_scipy_wofz():
    re = np.concatenate([-np.logspace(-6, 5, 221), [0.0], np.logspace(-6, 6, 241)])
    im = np.concatenate([[0.0], np.logspace(-6, math.log10(50.0), 121)])
    z = re[:, None] + 1j * im[None, :]
    axis = 1j * np.concatenate([[0.0], np.logspace(-6, 7, 261)])
    for points in (z, axis):
        ref = wofz(points)
        assert (np.abs(faddeeva(points) - ref) / np.abs(ref)).max() <= 5e-14


def test_box_truncation_is_converged():
    # the levels kept do not depend on how many the box spectrum offers
    few = Spectrum(alpha=BOX.alpha[:64], beta=BOX.beta[:64], even=BOX.even[:64],
                   norm=BOX.norm[:64])
    a = project(CENTERED_PACKET, few)
    b = project(CENTERED_PACKET, BOX)
    assert kept_levels(a) == kept_levels(b) < 64
    assert np.abs(a.coefficients - b.coefficients[:64]).max() < 1e-12


def test_even_packet_recurs_every_eighth_period():
    w = project(CENTERED_PACKET, BOX).weights
    amp = np.sum(w * np.exp(-2j * np.pi * BOX_N ** 2 / 8.0))
    # the recurrence carries a fixed global phase of -pi/4
    assert abs(amp - np.exp(-1j * np.pi / 4.0) * w.sum()) < 1e-12


def test_odd_packet_recurs_every_quarter_period():
    base = project(GaussianSpec(x0=0.2, sigma=0.06), BOX)
    # the odd-parity part sits on the sine modes, even n
    w = np.where(BOX_N % 2 == 0, base.weights, 0.0)
    w = w / w.sum()
    amp = np.sum(w * np.exp(-2j * np.pi * BOX_N ** 2 / 4.0))
    assert abs(amp - w.sum()) < 1e-12


def test_deep_well_matches_box_coefficients():
    states = solve_spectrum(WellConfig(epsilon=1000.0))
    decomp = project(CENTERED_PACKET, states)
    box = project(CENTERED_PACKET, BOX)
    n = kept_levels(box)
    diff = np.abs(decomp.coefficients[:n].real - box.coefficients[:n].real)
    assert diff.max() < 1e-3


def four_pass_overlaps(spec, alpha, beta):
    """The interior transform and both tails, one ``faddeeva`` call per wall
    term: the route the single-pass projection replaced."""
    s = math.sqrt(2.0) * spec.sigma
    c = s * alpha
    u_right = (0.5 - spec.x0) / s
    u_left = (0.5 + spec.x0) / s
    right = np.exp(1j * alpha - u_right ** 2) * faddeeva(c + 1j * u_right)
    left = np.exp(-1j * alpha - u_left ** 2) * faddeeva(-c + 1j * u_left)
    centre = 2.0 * np.exp(2j * alpha * spec.x0 - c * c)
    inside = spec.sigma * math.sqrt(0.5 * math.pi) * (centre - left - right)

    def tail(wall_gap):
        u = wall_gap / s
        return spec.sigma * math.sqrt(0.5 * math.pi) * math.exp(-u * u) \
            * faddeeva(1j * (u + s * beta)).real

    return inside, tail(0.5 - spec.x0), tail(0.5 + spec.x0)


def four_pass_project(spec, states):
    edge = edge_values(states.alpha, states.even)
    inside, right, left = four_pass_overlaps(spec, states.alpha, states.beta)
    overlaps = np.where(states.even, inside.real + edge * (right + left),
                        inside.imag + edge * (right - left))
    coeffs = states.norm * overlaps / math.sqrt(spec.sigma * math.sqrt(math.pi))
    return coeffs, float(np.sum(coeffs ** 2))


def four_pass_box(spec):
    inside = four_pass_overlaps(spec, BOX.alpha, 0.0)[0]
    box_norm2 = 0.5 * math.sqrt(math.pi) * spec.sigma * (
        math.erf((0.5 - spec.x0) / spec.sigma) + math.erf((0.5 + spec.x0) / spec.sigma))
    return math.sqrt(2.0) * np.where(BOX.even, inside.real, inside.imag) / math.sqrt(box_norm2)


def seeded_projection_cases():
    rng = np.random.default_rng(13)
    epsilons = [2.0 * math.pi * (1.0 + 1e-10), 1e4, 12.0] + list(
        np.exp(rng.uniform(math.log(2.0), math.log(1e4), 20)))
    return [(float(eps), float(rng.uniform(-0.45, 0.45)), float(rng.uniform(0.01, 0.3)))
            for eps in epsilons]


@pytest.mark.filterwarnings("ignore::qrevival.CompletenessWarning")
def test_one_faddeeva_pass_gives_the_bits_of_four():
    for epsilon, x0, sigma in seeded_projection_cases():
        spec = GaussianSpec(x0=x0, sigma=sigma)
        states = solve_spectrum(WellConfig(epsilon=epsilon))
        decomp = project(spec, states)
        coeffs, completeness = four_pass_project(spec, states)
        assert np.array_equal(decomp.coefficients, coeffs.astype(complex)), epsilon
        assert decomp.completeness == completeness, epsilon
        box = project(spec, BOX)
        kept = kept_levels(box)
        assert np.array_equal(box.coefficients[:kept], four_pass_box(spec)[:kept])
        assert not box.coefficients[kept:].any()
