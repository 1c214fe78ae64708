"""Decimal text of float64 values, built in numpy: CSV as ``"{:.16e}"``
prints each value and JSON as ``json.dumps`` does (``float.__repr__``).

Both printers share one core, the double-double ``|x| * 10**(16 - E)`` with
``E`` chosen so that it lies in ``[10**16, 10**17)``.  ``csv_rows`` rounds
it to 17 digits; ``json_floats`` finds the fewest digits that read back as
``x``, the search of Gay's ``dtoa`` and of Ryu (Adams, PLDI 2018).  Each
calls Python only for the few values the core cannot decide.
"""

from __future__ import annotations

import functools
import json

import numpy as np

# Fractions within GUARD of a rounding boundary fall back to Python; the
# core's error on 10**16 <= |x| * 10**(16 - E) < 10**17 is below 1e-14.
GUARD = 1e-9
# The fast path covers 10**-MAX_EXP <= |x| < 10**MAX_EXP, and zero.
MAX_EXP = 270
# CSV bytes per value: sign, digit, '.', 16 digits, 'e', exponent sign, three
# exponent digits (the first NUL below 100), then ',' or '\n'.  NULs are
# removed once per block.
_FIELD = 25
# Values per block.
_BLOCK = 1 << 13
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_K0 = MAX_EXP - 14  # the table holds 10**k for -_K0 <= k <= MAX_EXP + 17
# JSON text is at most 24 bytes: '-', 17 digits, '.', 'e-' and 3 digits.
_JSON_WIDTH = 24
# Forms of JSON text: positional for -4 <= E < 16 (form E + 4), then
# exponent notation with two digits and with three.
_FORMS = 22
_LE32 = np.dtype("<u4")


@functools.cache
def _powers_of_ten():
    """``(hi, lo, hi_high, hi_low)`` arrays with ``hi + lo = 10**k`` for
    ``k >= -_K0`` at index ``k + _K0``: ``hi`` is ``10**k`` correctly
    rounded and ``lo`` the remainder correctly rounded, so the pair is within
    ``2**-106`` of ``10**k`` relative.  ``hi_high + hi_low`` is Veltkamp's
    split of ``hi``.  Built from Python ints on first use.
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
    hi = np.array(hi)
    return (hi, np.array(lo), *_split(hi))


@functools.cache
def _digit_quads():
    """Little-endian ``uint32`` words holding the four ASCII digits of
    ``0..9999``, most significant byte first in memory."""
    j = np.arange(10 ** 4)
    chars = np.stack([j // 1000, j // 100 % 10, j // 10 % 10, j % 10], axis=1)
    return (chars + ord("0")).astype(np.uint8).view(_LE32).ravel()


@functools.cache
def _zero_counts():
    """The zeros that end each of ``0..9999`` written as four digits."""
    j = np.arange(10 ** 4)
    return sum((j % 10 ** k == 0).astype(np.int8) for k in (1, 2, 3, 4))


@functools.cache
def _exponent_words():
    """Little-endian ``uint32`` words for ``-MAX_EXP - 1 <= E <= MAX_EXP + 1``
    at index ``E + MAX_EXP + 1``: the exponent's sign and three digits, the
    first NUL below 100."""
    e = np.arange(-MAX_EXP - 1, MAX_EXP + 2)
    m = np.abs(e)
    chars = np.stack([np.where(e < 0, ord("-"), ord("+")),
                      np.where(m >= 100, m // 100 + ord("0"), 0),
                      m // 10 % 10 + ord("0"), m % 10 + ord("0")], axis=1)
    return chars.astype(np.uint8).view(_LE32).ravel()


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _scaled(a, k):
    """``a * 10**k`` as a double-double ``hi + lo``, ``|lo| <= ulp(hi)/2``.

    Dekker's two-product gives ``a * hi_k`` exactly (numpy has no fma);
    ``a * lo_k`` adds the rest to within about ``2**-105`` of the product.
    """
    table_hi, table_lo, table_hi1, table_hi2 = _powers_of_ten()
    i = k + _K0
    p_hi = table_hi[i]
    prod = a * p_hi
    a1, a2 = _split(a)
    b1, b2 = table_hi1[i], table_hi2[i]
    err = ((a1 * b1 - prod) + a1 * b2 + a2 * b1) + a2 * b2 + a * table_lo[i]
    hi = prod + err
    return hi, err - (hi - prod)


def _decimal(x):
    """The shared core for the 1-d ``x``: ``(a, whole, frac, e, fast)``.

    ``whole + frac`` (``int64`` and ``frac`` in ``[0, 1)``) is ``a * 10**(16
    - e)`` with ``10**16 <= whole < 10**17``, to within about 1e-14, where
    ``a = |x|`` on the ``fast`` lanes, those with ``10**-MAX_EXP <= |x| <
    10**MAX_EXP``.  The other lanes carry ``a = 1.0`` (so nothing warns on
    log10 or the casts) and must be printed by Python.
    """
    a = np.abs(x)
    fast = (a >= 10.0 ** -MAX_EXP) & (a < 10.0 ** MAX_EXP)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _parts(a, e)
    # log10 can miss the exponent by one next to a power of ten.
    step = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        whole[fix], frac[fix] = _parts(a[fix], e[fix])
    # The range test cannot fire while log10 errs by less than a decade; it
    # keeps the text exact on a numpy build whose log10 does worse.
    fast &= (whole >= 10 ** 16) & (whole < 10 ** 17)
    return a, whole, frac, e, fast


def _parts(a, e):
    """Integer part (int64) and fraction of ``a * 10**(16 - e)``."""
    hi, lo = _scaled(a, 16 - e)
    # hi >= 1e16 > 2**53 is an integer and |lo| <= 8.
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor


def _quads(y):
    """``(n, 4)`` ``uint32`` groups of four decimal digits of ``y < 10**16``,
    most significant first."""
    high, low = np.divmod(y, 10 ** 8)
    quads = np.empty((len(y), 4), dtype=np.uint32)
    quads[:, 0], quads[:, 1] = np.divmod(high.astype(np.uint32), np.uint32(10 ** 4))
    quads[:, 2], quads[:, 3] = np.divmod(low.astype(np.uint32), np.uint32(10 ** 4))
    return quads


# --- CSV -------------------------------------------------------------------


def _digits(x):
    """Decimal significand ``D`` (17 digits, int64), exponent ``E`` and the
    lanes Python must format, for the values of the 1-d ``x``.

    ``D`` is ``|x| * 10**(16 - E)`` rounded to the nearest integer, so
    rounding is exact whenever the fraction is more than ``GUARD`` from one
    half.  Ties (exact or within the guard), non-finite values, subnormals
    and values outside the ``MAX_EXP`` range fall back to Python.  Zeros are
    exact, with ``D = E = 0``.
    """
    _, d, frac, e, fast = _decimal(x)
    d += frac > 0.5
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    zero = x == 0
    slow = ~(fast | zero) | (np.abs(frac - 0.5) <= GUARD)
    d[zero] = 0
    e[zero] = 0
    return d, e, slow


def _fields(x):
    """``(rows, cols, _FIELD)`` bytes of the values of ``x``, each row's
    last separator a newline."""
    values = x.ravel()
    d, e, slow = _digits(values)
    out = np.empty(x.shape + (_FIELD,), dtype=np.uint8)
    flat = out.reshape(-1, _FIELD)
    flat[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    flat[:, 1] = d // 10 ** 16 + ord("0")
    flat[:, 2] = ord(".")
    flat[:, 3:19] = _digit_quads()[_quads(d % 10 ** 16)].view(np.uint8)
    flat[:, 19] = ord("e")
    flat[:, 20:24] = _exponent_words()[e + MAX_EXP + 1].view(np.uint8).reshape(-1, 4)
    out[..., -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    slow = slow.reshape(x.shape)
    if slow.any():
        text = np.array(["{:.16e}".format(v) for v in x[slow].tolist()],
                        dtype=f"S{_FIELD - 1}")
        out[slow, :-1] = text.view(np.uint8).reshape(len(text), -1)
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


# --- JSON ------------------------------------------------------------------


def _shortest(x):
    """Shortest round-trip digits of the 1-d ``x``: ``(D, E, slow)``.

    ``D`` (17 digits, int64) is the digits of ``x``'s repr followed by zeros,
    and ``E`` is the decimal exponent of the first.  The doubles nearest
    ``|x|`` lie ``h`` units of ``D``'s last digit away, so every integer
    strictly inside ``v - h .. v + h``, ``v = |x| * 10**(16 - E)``, reads
    back as ``x``.  ``D`` is the multiple of the largest power of ten in that
    range that lies nearest ``v``, so it ends in as many zeros as the repr
    saves digits.  Interval ends and halfway points within ``GUARD``, powers
    of two (whose lower neighbour is nearer) and the lanes outside the core's
    range are left to Python.  Zeros are exact, with ``D = E = 0``.
    """
    a, whole, frac, e, fast = _decimal(x)
    # spacing(a) / 2 is a power of two: the product is 10**(16 - e) to within
    # a rounding, scaled exactly.
    h = np.spacing(a) * 0.5 * _powers_of_ten()[0][16 - e + _K0]
    below, above = frac - h, frac + h
    low = np.floor(below)
    high = np.ceil(above)
    slow = (~fast | (a.view(np.uint64) << np.uint64(12) == 0)
            | (below - low <= GUARD) | (low + 1 - below <= GUARD)
            | (above - high + 1 <= GUARD) | (high - above <= GUARD))
    # The integers inside, last - width to last, number 1 to 23 (0.55 < h <
    # 11.2), so a multiple of 10**k is among them exactly when last % 10**k
    # <= width.  A multiple of 100 among them is the only one.
    last = whole + high.astype(np.int64) - 1
    width = (high - low).astype(np.int64) - 2
    tail = last % 100
    short = tail > width
    # Otherwise v rounds to a multiple of 10 when one is in range, else to
    # an integer.
    ten = short & (tail % 10 <= width)
    unit = np.where(ten, 10, 1)
    r = np.where(ten, whole % 10, 0)
    excess = (2 * r - unit).astype(np.float64) + 2.0 * frac
    slow |= short & (np.abs(excess) <= 2.0 * GUARD)
    d = np.where(short, whole - r + unit * (excess > 0), last - tail)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    # A zero lane carries a = 1.0, a power of two; with D = E = 0 the layout
    # prints "0.0", and "-0.0" with the sign.
    zero = x == 0
    slow &= ~zero
    d[zero] = 0
    e[zero] = 0
    return d, e, slow


@functools.cache
def _json_layouts():
    """``(2 * _FORMS * 17, _JSON_WIDTH)`` byte indices into the 32-byte
    source row that ``_json_block`` builds, one row per (sign, form, digit
    count), NUL-padded."""
    # The source row: trailing digits at 0..15, the first digit at 16, then
    # NUL, '.', '-', the exponent word (sign, hundreds, tens, units), 'e'
    # and '0'.
    digit = [16] + list(range(16))
    nul, point, minus = 17, 18, 19
    sign, hundreds, tens, units, e, zero = 20, 21, 22, 23, 24, 25
    rows = []
    for negative in (False, True):
        for form in range(_FORMS):
            for p in range(1, 18):
                row = [minus] if negative else []
                digits = digit[:p]
                if form < 20:
                    exponent = form - 4
                    if exponent < 0:
                        row += [zero, point] + [zero] * (-exponent - 1) + digits
                    else:
                        whole = exponent + 1
                        row += (digits[:whole] + [zero] * (whole - p) + [point]
                                + (digits[whole:] or [zero]))
                else:
                    row += digits[:1] + ([point] + digits[1:] if p > 1 else [])
                    row += [e, sign] + ([hundreds] if form == 21 else []) + [tens, units]
                rows.append(row + [nul] * (_JSON_WIDTH - len(row)))
    return np.array(rows, dtype=np.intp)


def _json_block(x):
    """The JSON text of each value of the 1-d ``x``, as a list of bytes."""
    d, e, slow = _shortest(x)
    n = len(x)
    quads = _quads(d % 10 ** 16)
    # the digit count: 17 less the zeros that end d
    zeros = _zero_counts()[quads]
    p = 17 - zeros[:, 3]
    for i in (2, 1, 0):
        p -= np.where(p == 4 * i + 5, zeros[:, i], 0)
    source = np.empty((n, 8), dtype=_LE32)
    source[:, :4] = _digit_quads()[quads]
    source[:, 4] = d // 10 ** 16 + (ord("0") + (ord(".") << 16) + (ord("-") << 24))
    source[:, 5] = _exponent_words()[e + MAX_EXP + 1]
    source[:, 6] = ord("e") + (ord("0") << 8)
    source[:, 7] = 0
    form = np.where((e >= -4) & (e < 16), e + 4, np.where(np.abs(e) >= 100, 21, 20))
    key = (np.signbit(x) * _FORMS + form) * 17 + p - 1
    index = _json_layouts()[key]
    index += np.arange(0, 32 * n, 32)[:, None]
    text = source.view(np.uint8).ravel()[index]
    items = text.view(f"S{_JSON_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(slow).tolist():
        items[i] = json.dumps(float(x[i])).encode("ascii")
    return items


def json_floats(values, separator: str) -> str:
    """The float64 ``values`` as ``json.dumps`` prints each, joined by
    ``separator``: ``"[" + json_floats(x, ", ") + "]"`` is
    ``json.dumps(x.tolist())``.

    Byte-identical to Python for every double, NaN, infinity, subnormal and
    signed zero included.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    items = []
    for start in range(0, len(x), _BLOCK):
        items += _json_block(x[start:start + _BLOCK])
    return separator.encode().join(items).decode()
