"""The vectorised CSV formatter against Python's ``"{:.16e}"``, byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival import csvtext
from qrevival.csvtext import csv_rows


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
