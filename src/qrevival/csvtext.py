"""CSV rows of float64 columns, each value printed as ``"{:.16e}"`` prints it.

``csv_rows`` builds the text in numpy, a block of rows at a time, and calls
Python's formatter only for the few values its fast path cannot decide.
"""

from __future__ import annotations

import functools

import numpy as np

# Fractions of D within GUARD of one half fall back to Python; the fast
# path's error on D is below 1e-14.
GUARD = 1e-9
# The fast path covers 10**-MAX_EXP <= |x| < 10**MAX_EXP, and zero.
MAX_EXP = 270
# Bytes per value: sign, digit, '.', 16 digits, 'e', exponent sign, three
# exponent digits (the first NUL below 100), then ',' or '\n'.  NULs are
# removed once per block.
_FIELD = 25
# Values per block of rows.
_BLOCK = 1 << 13
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_K0 = MAX_EXP - 14  # the table holds 10**k for -_K0 <= k <= MAX_EXP + 17


@functools.cache
def _powers_of_ten():
    """``(hi, lo)`` arrays with ``hi + lo = 10**k`` for ``k >= -_K0`` at index
    ``k + _K0``: ``hi`` is ``10**k`` correctly rounded and ``lo`` the
    remainder correctly rounded, so the pair is within ``2**-106`` of
    ``10**k`` relative.  Built from Python ints on first use.
    """
    hi, lo = [], []
    for k in range(-_K0, MAX_EXP + 18):
        p = 10 ** abs(k)
        if k >= 0:
            h = float(p)
            r = float(p - int(h))
        else:
            h = 1 / p  # int true division is correctly rounded
            num, den = h.as_integer_ratio()
            r = (den - num * p) / (den * p)
        hi.append(h)
        lo.append(r)
    return np.array(hi), np.array(lo)


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _scaled(a, k):
    """``a * 10**k`` as a double-double ``hi + lo``, ``|lo| <= ulp(hi)/2``.

    Dekker's two-product gives ``a * hi_k`` exactly (numpy has no fma);
    ``a * lo_k`` adds the rest to within about ``2**-105`` of the product.
    """
    table_hi, table_lo = _powers_of_ten()
    p_hi, p_lo = table_hi[k + _K0], table_lo[k + _K0]
    prod = a * p_hi
    a1, a2 = _split(a)
    b1, b2 = _split(p_hi)
    err = ((a1 * b1 - prod) + a1 * b2 + a2 * b1) + a2 * b2 + a * p_lo
    hi = prod + err
    return hi, err - (hi - prod)


def _digits(x):
    """Decimal significand ``D`` (17 digits, int64), exponent ``E`` and the
    lanes Python must format, for the values of the 1-d ``x``.

    ``D`` is ``|x| * 10**(16 - E)`` rounded to the nearest integer, with
    ``E`` chosen so that ``10**16 <= D < 10**17``.  The double-double value
    of ``|x| * 10**(16 - E)`` is within about 1e-14 of the exact product
    (relative error ``2**-104`` or so, on ``D < 10**17``), so rounding it
    is exact whenever the fraction is more than ``GUARD`` from one half.
    Ties (exact or within the guard), non-finite values, subnormals and
    values outside the ``MAX_EXP`` range fall back to Python.  Zeros are
    exact, with ``D = E = 0``.
    """
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 10.0 ** -MAX_EXP) & (a < 10.0 ** MAX_EXP)
    # Masked lanes carry 1.0, so nothing warns on log10 or the casts.
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - e)
    # log10 can miss the exponent by one next to a power of ten.
    step = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        hi[fix], lo[fix] = _scaled(a[fix], 16 - e[fix])
    # hi >= 1e16 > 2**53 is an integer and |lo| <= 8.
    whole = np.floor(lo)
    frac = lo - whole
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    # The range test cannot fire while log10 errs by less than a decade; it
    # keeps the text exact on a numpy build whose log10 does worse.
    slow = (~(fast | zero) | (np.abs(frac - 0.5) <= GUARD)
            | (d < 10 ** 16) | (d >= 10 ** 17))
    d[zero] = 0
    e[zero] = 0
    return d, e, slow


def _fields(x):
    """``(rows, cols, _FIELD)`` bytes of the values of ``x``, each row's
    last separator a newline."""
    d, e, slow = (v.reshape(x.shape) for v in _digits(x.ravel()))
    out = np.zeros(x.shape + (_FIELD,), dtype=np.uint8)
    out[..., 0] = np.where(np.signbit(x), ord("-"), 0)
    # Two uint32 halves of 8 and 9 digits; the high half's ninth is a 0.
    halves = np.stack([d // 10 ** 9, d % 10 ** 9], axis=-1).astype(np.uint32)
    digits = np.empty(halves.shape + (9,), dtype=np.uint8)
    for i in range(8, -1, -1):
        halves, digits[..., i] = np.divmod(halves, np.uint32(10))
    digits = digits.reshape(x.shape + (18,))
    out[..., 1] = digits[..., 1] + ord("0")
    out[..., 2] = ord(".")
    out[..., 3:19] = digits[..., 2:] + ord("0")
    out[..., 19] = ord("e")
    out[..., 20] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    out[..., 21] = np.where(e >= 100, e // 100 + ord("0"), 0)
    out[..., 22] = e // 10 % 10 + ord("0")
    out[..., 23] = e % 10 + ord("0")
    out[..., 24] = ord(",")
    out[:, -1, 24] = ord("\n")
    if slow.any():
        text = np.array(["{:.16e}".format(v) for v in x[slow].tolist()],
                        dtype=f"S{_FIELD - 1}")
        out[slow, :_FIELD - 1] = text.view(np.uint8).reshape(len(text), -1)
    return out


def csv_rows(columns, lead=None) -> str:
    """One line per row: ``lead[i]`` and a comma when ``lead`` is given, then
    the float64 ``columns`` at row ``i``, comma-separated, as
    ``"{:.16e}"`` prints them.

    Byte-identical to Python's formatter for every double, NaN, infinity,
    subnormal and signed zero included.
    """
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    if lead is not None:
        lead = np.array([f"{s}," for s in lead], dtype=np.bytes_)
    rows = max(1, _BLOCK // values.shape[1])
    pieces = []
    for start in range(0, len(values), rows):
        block = _fields(values[start:start + rows])
        block = block.reshape(len(block), -1)
        if lead is not None:
            text = lead[start:start + rows]
            block = np.concatenate(
                [text.view(np.uint8).reshape(len(text), -1), block], axis=1)
        pieces.append(block.tobytes().replace(b"\0", b"").decode("ascii"))
    return "".join(pieces)
