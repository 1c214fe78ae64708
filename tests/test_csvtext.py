"""The vectorised printers against Python, byte for byte: CSV against
``"{:.16e}"`` and JSON against ``json.dumps``."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival import BUILTIN_SCENARIOS, csvtext
from qrevival.csvtext import csv_rows, json_floats
from qrevival.revival import detection_grid


def python_rows(columns, lead=None):
    """The oracle: every value through Python's own formatter."""
    row = ",".join(["{:.16e}"] * len(columns)).format
    lines = map(row, *[np.asarray(c, dtype=float).tolist() for c in columns])
    if lead is not None:
        lines = (f"{s},{line}" for s, line in zip(lead, lines))
    return "".join(line + "\n" for line in lines)


def assert_same_text(ours, expected):
    """Equal text, or a failure naming the first row that differs (a diff of
    the whole text would take minutes)."""
    if ours != expected:
        rows = zip(ours.splitlines(), expected.splitlines())
        first = next(((i, a, b) for i, (a, b) in enumerate(rows) if a != b), None)
        counts = ours.count("\n"), expected.count("\n")
        pytest.fail(f"first differing row (index, ours, Python's): {first}; "
                    f"{counts[0]} against {counts[1]} rows")


def assert_matches_python(values):
    values = np.asarray(values, dtype=float)
    assert_same_text(csv_rows([values]), python_rows([values]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_every_double_prints_as_python_prints_it(values):
    # st.floats() draws NaN, both infinities, subnormals and -0.0 as well
    assert_matches_python(values)


def test_a_million_doubles_across_every_exponent():
    # Uniform bit patterns give every binary exponent the same share, the
    # non-finite and subnormal ones included; four columns cross the row
    # blocks.
    bits = np.random.default_rng(20261019).integers(
        0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    values = bits.view(np.float64).reshape(-1, 4)
    columns = list(values.T)
    assert len(values) > csvtext._BLOCK // 4
    assert_same_text(csv_rows(columns), python_rows(columns))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([10.0 ** k for k in range(-323, 309)])
    near = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    near = np.concatenate(near)
    assert_matches_python(np.concatenate([near, -near]))


def exact_ties():
    """Doubles whose exact decimal value has 18 significant digits, the
    last a 5: ``M / 2**r`` with ``M`` odd and ``M * 5**r`` of 18 digits.
    Any such tie has ``2 <= r <= 25``, so these cover every binade that
    holds one."""
    rng = np.random.default_rng(7)
    ties = []
    for r in range(2, 26):
        lo = -(-10 ** 17 // 5 ** r)
        hi = min((10 ** 18 - 1) // 5 ** r, 2 ** 53 - 1)
        for m in rng.integers(lo, hi, size=20).tolist():
            m |= 1
            x = float(Fraction(m, 2 ** r))
            digits = Fraction(x) * 10 ** r
            assert digits.denominator == 1 and len(str(digits.numerator)) == 18
            assert digits.numerator % 10 == 5
            ties.append(x)
    return np.array(ties)


def test_exact_decimal_ties_round_half_even():
    ties = exact_ties()
    # The neighbours of a tie land inside the guard band too.
    assert_matches_python(np.concatenate([
        ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))


def test_values_that_round_up_to_the_next_power():
    # 10**k rounded to a double lies within half an ulp of it.  When it lies
    # below, and closer than 5e-18 relative, its 17 digits carry to 10**k.
    carries = []
    for k in range(-307, 309):
        x = float(10 ** k) if k >= 0 else 1 / 10 ** -k
        if Fraction(x) < Fraction(10) ** k and \
                "{:.16e}".format(x) == f"1.0000000000000000e{k:+03d}":
            carries.append(x)
    assert len(carries) >= 10
    assert_matches_python(carries + [-c for c in carries])


def test_extremes_of_the_normal_range_and_zeros():
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    assert_matches_python([tiny, -tiny, huge, -huge, 5e-324, 0.0, -0.0,
                           math.nan, math.inf, -math.inf,
                           10.0 ** -csvtext.MAX_EXP, 10.0 ** csvtext.MAX_EXP])


def test_lead_text_and_columns_make_each_row():
    x = np.array([0.5, -2.0, 1e-300])
    y = np.array([math.inf, 3.25, -0.0])
    lead = ["1,even", "2,odd", "3,even"]
    assert_same_text(csv_rows([x, y], lead=lead), python_rows([x, y], lead=lead))
    assert csv_rows([x, y], lead=lead).splitlines()[1] == \
        "2,odd,-2.0000000000000000e+00,3.2500000000000000e+00"


def test_no_rows_make_no_text():
    assert csv_rows([np.empty(0), np.empty(0)]) == ""


@pytest.mark.parametrize("values", [[math.nan, 0.0], [math.inf, -math.inf],
                                    [5e-324, 1e-320], [1e308, -0.0]])
def test_masked_lanes_do_not_warn(values):
    # pytest turns RuntimeWarning into an error, so this also checks that
    # log10 and the integer casts never see a masked lane.
    assert_matches_python(values)
    assert_json_matches_python(values)


# --- JSON ----------------------------------------------------------------------


def assert_json_matches_python(values):
    """``json_floats`` against ``json.dumps`` of the list, naming the first
    value that differs."""
    values = np.asarray(values, dtype=float)
    ours = "[" + json_floats(values, ", ") + "]"
    expected = json.dumps(values.tolist())
    if ours != expected:
        pairs = zip(ours[1:-1].split(", "), expected[1:-1].split(", "))
        first = next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)
        pytest.fail(f"first differing value (index, ours, Python's): {first}")


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.floats(), max_size=20))
def test_every_double_prints_as_json_dumps_prints_it(values):
    assert_json_matches_python(values)


def test_json_across_every_exponent():
    # Uniform bit patterns, as for CSV; 50,000 values cross the blocks and
    # keep the call near 0.15 s.
    bits = np.random.default_rng(20261020).integers(
        0, 2 ** 64, size=50_000, dtype=np.uint64)
    assert len(bits) > csvtext._BLOCK
    assert_json_matches_python(bits.view(np.float64))


def test_json_every_layout():
    # For each decimal exponent of a normal double and each digit count, the
    # double nearest a random decimal with that many digits: positional from
    # 1e-4 to below 1e16, exponent notation with two and three digits
    # elsewhere, either sign.
    rng = np.random.default_rng(11)
    values = []
    for p in range(1, 18):
        digits = rng.integers(10 ** (p - 1), 10 ** p, size=615)
        for e, d in zip(range(-307, 308), digits.tolist()):
            values.append(float(f"{d}e{e - p + 1}"))
    values = np.array(values)
    assert_json_matches_python(np.concatenate([values, -values]))


def test_json_near_each_boundary():
    tiny = np.finfo(float).tiny
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([10.0 ** k for k in range(-323, 309)])
    edges = np.array([5e-324, tiny, 1e16, 9999999999999998.0, 1e-4, 1e-5,
                      1e22, 1e23, 10.0 ** -csvtext.MAX_EXP, 10.0 ** csvtext.MAX_EXP,
                      0.0, -0.0, math.nan, math.inf, -math.inf])
    ties = exact_ties()
    near = np.concatenate([powers_of_two, powers_of_ten, edges, ties])
    near = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])
    assert_json_matches_python(np.concatenate([near, -near]))


def test_json_grids_the_cli_prints():
    grids = [np.linspace(-1.25, 1.25, n) for n in (32, 256, 512, 1001)]
    for cfg in BUILTIN_SCENARIOS.values():
        grids.append(detection_grid(0.0, cfg.tau_max, cfg.tau_step))
    assert_json_matches_python(np.concatenate(grids))


def test_json_separator_joins_the_items():
    assert json_floats(np.array([0.5, -2.0, 1e-7]), ",\n  ") == "0.5,\n  -2.0,\n  1e-07"
    assert json_floats(np.empty(0), ", ") == ""
