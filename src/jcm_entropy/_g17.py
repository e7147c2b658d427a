"""A table of float64 columns as text by array code, one block of whole
rows at a time (``render``), each value byte for byte as ``"%.17g" % v``
(for CSV) or, with ``shortest``, as ``float.__repr__(v)`` with JSON's
``NaN``/``Infinity``/``-Infinity`` (the text ``json.dumps`` gives a float).

Each value ``v`` with ``1e-200 <= |v| < 1e200`` is scaled to
``x = |v| * 10**(16 - k)``, ``k = floor(log10 |v|)``, in double-double
arithmetic: ``10**s`` is held as an unevaluated sum ``hi + lo`` and
``|v| * hi`` is formed exactly (Dekker 1971), so ``x`` in [1e16, 1e17) is
off the exact product by less than 2**-46.  The decimal of ``n`` significant
digits nearest ``v`` is ``x`` rounded to a multiple of ``10**(17 - n)``.
``%.17g`` takes n = 17, the nearest integer.  ``repr`` takes the first of
n = 15, 16, 17 whose decimal reads back as ``v``: the shortest such string
(Steele & White 1990, Gay 1990), since any shorter one, padded with zeros,
is the 15-digit candidate.  A candidate reads back as ``v`` when it is off
``x`` by less than half an ulp of ``v`` in the same units,
``spacing(|v|)/2 * 10**(16 - k)``, between 0.55 and 11.1, so 17 digits
always do.

A value goes through ``%`` or ``repr`` one at a time when its array text
could be wrong: it lies outside the range, is nan or inf, or a candidate
that decides its text lies within ``_TIE_MARGIN`` of a rounding tie (half
to even, or too close to tell) or of the half-ulp bound; for ``repr`` also
an exact power of two, whose rounding interval is asymmetric.  Zeros are
formatted as arrays.

Fixed notation holds for -4 <= X < 17 (``%g``) or -4 <= X < 16 (``repr``),
X the decimal exponent of the rounded value, and ``d.ddde+XX`` (at least
two exponent digits) otherwise; trailing zeros are dropped, and a bare
point with them for ``%g``, while ``repr`` ends an integral fixed value in
``.0``.  A block's text is written into fixed fields, one row of bytes per
field and a column per value: the sign; a ``0.000`` prefix, of which fixed
notation with X < 0 takes ``0.`` and -X - 1 zeros; the 17 digits with the
point after digit X, or after the first in exponent notation; ``e``, the
exponent's sign and three exponent digits; the end byte.  A byte the value
does not use is NUL: the digits past the significant ones, but for the
zeros of an integer part and ``repr``'s ``0`` after it, a point with no digit
after it, and the hundreds digit of an exponent below 100.  The fields are
transposed, value after value, and the NULs dropped.
"""

from __future__ import annotations

import functools

import numpy as np

from ._exact import two_prod

BLOCK = 2 ** 12        # values rendered at once; temporaries grow with this
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_TIE_MARGIN = 1e-9     # in units of the 17th digit: far above the scaling's 2**-46
_S_MIN, _S_MAX = -185, 218  # s = 16 - k, k = floor(log10|v|) +- 1: one to spare
_DIGITS = 17
_JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Rows of a block's text fields: the sign in row 0, then from these rows
# the "0.000" prefix, the 17 digits and their point, "e" with the
# exponent's sign and three digits, and the end byte.
_PREFIX, _BODY, _EXP, _END = 1, 6, 24, 29
_WIDTH = _END + 1


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """``10**s = hi + lo`` for s in [_S_MIN, _S_MAX], each part correctly
    rounded, from Python ints (their true division rounds correctly)."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            exact = 10 ** s
            h = float(exact)
            l = float(exact - int(h))
        else:
            den = 10 ** -s
            h = 1 / den
            num, pow2 = h.as_integer_ratio()
            l = (pow2 - num * den) / (pow2 * den)
        hi.append(h)
        lo.append(l)
    return np.array(hi), np.array(lo)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - k)`` as ``p + r``: p the rounded product, r the rest
    to about 2**-104 of the product."""
    hi, lo = _powers()
    s = 16 - _S_MIN - k
    p, e = two_prod(a, hi[s])
    return p, e + a * lo[s]


def _decimal(v: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The significant digits of each |v| as an int64 of 17 digits (those
    ``%.17g`` or, if ``shortest``, ``repr`` prints, zero-padded), its decimal
    exponent X, and where ``%`` or ``repr`` must format the value instead.
    Zeros and those values get digits 0 and exponent 0."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, k)
    # log10 may be one off near a power of ten; the exact test is on p + r
    low = (p < 1e16) | ((p == 1e16) & (r < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0.0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += high[off].astype(np.int64) - low[off]
        p[off], r[off] = _scaled(a[off], k[off])
    whole = p.astype(np.int64)  # p >= 2**53 is an integer
    slow = ~fast & (v != 0.0)
    # candidates as (unit, whole mod unit), the unit in 17th digits: 17
    # digits for %g, the first of 15, 16 and 17 that reads back for repr
    levels = [(1, 0.0)]
    if shortest:
        mantissa, exponent = np.frexp(a)
        half_ulp = np.ldexp(_powers()[0][16 - _S_MIN - k], exponent - 54)
        slow |= fast & (mantissa == 0.5)  # a power of two: asymmetric interval
        rest = (whole % 100).astype(np.float64)
        levels = [(100, rest), (10, rest - 10 * np.floor(rest * 0.1))] + levels
    offset = np.zeros_like(r)  # the step of the chosen candidate
    settled = np.zeros(v.shape, dtype=bool)
    for unit, below in levels:
        # whole + step: x = whole + r rounded to a multiple of unit, off x by d
        n = np.floor((below + r) * (1.0 / unit) + 0.5)
        step = unit * n - below
        d = np.abs(r - step)
        if unit == 1:  # off by at most 0.5 < half_ulp: always reads back
            ok = True
            unsure = np.abs(d - 0.5) <= _TIE_MARGIN
        else:
            ok = d < half_ulp - _TIE_MARGIN
            unsure = ((np.abs(d - half_ulp) <= _TIE_MARGIN)
                      | ok & (np.abs(d - 0.5 * unit) <= _TIE_MARGIN))
        slow |= unsure & ~settled
        offset = np.where(settled, offset, step)
        settled |= ok
    digits = whole + offset.astype(np.int64)
    carry = digits >= 10 ** _DIGITS  # rounded up to 10**17
    digits[carry] = 10 ** (_DIGITS - 1)
    k += carry
    skip = ~fast | slow
    digits[skip] = 0
    k[skip] = 0
    return digits, k, slow


def _render_block(v: np.ndarray, end: np.ndarray, shortest: bool) -> bytes:
    digits, k, slow = _decimal(v, shortest)
    # the digits, from the last, nine and eight at a time in one uint32
    # pair, into rows 1 .. 17 of `digit`; rows 0 and 18 stay NUL
    digit = np.zeros((_DIGITS + 2, v.size), dtype=np.uint8)
    pair = np.empty((2, v.size), dtype=np.uint32)
    pair[1] = digits // 10 ** 9
    pair[0] = digits - pair[1].astype(np.int64) * 10 ** 9
    for j in range(9):
        rest = pair // 10
        pair -= rest * 10
        digit[_DIGITS - j] = pair[0]
        if j < 8:
            digit[8 - j] = pair[1]
        pair = rest
    rows = np.arange(_DIGITS + 1, dtype=np.uint8)[:, None]
    nonzero_at = (digit[1:-1] != 0).view(np.uint8)
    nonzero_at *= rows[1:]
    kept = np.maximum(nonzero_at.max(axis=0), 1)  # significant digits; 1 for 0

    k = k.astype(np.int16)
    fixed = (k >= -4) & (k < (16 if shortest else 17))
    whole = fixed & (k >= 0)  # an integer part of k + 1 digits, zeros kept
    # digits shown, and how many precede the point (17: no point here)
    shown = np.maximum(kept, (k + 1 + shortest) * whole).astype(np.uint8)
    before = np.where(whole, k + 1, np.where(fixed, _DIGITS, 1)).astype(np.uint8)
    digit[1:-1] += ord("0")
    digit[1:-1] *= rows[:-1] < shown

    out = np.empty((_WIDTH, v.size), dtype=np.uint8)
    out[0] = np.signbit(v) * np.uint8(ord("-"))
    prefix = ((1 - k) * (fixed & (k < 0))).astype(np.uint8)  # "0." and -k - 1 zeros
    np.multiply(np.frombuffer(b"0.000", dtype=np.uint8)[:, None], rows[:5] < prefix,
                out=out[_PREFIX:_BODY])
    body = out[_BODY:_EXP]
    np.multiply(digit[1:], rows < before, out=body)  # digit c at column c ..
    body += digit[:-1] * (rows > before)  # .. or at c + 1, past the point
    body += (rows == before) * (np.uint8(ord(".")) * (before < shown))
    sci = (~fixed).view(np.uint8)
    e = np.abs(k)
    out[_EXP] = sci * np.uint8(ord("e"))
    out[_EXP + 1] = sci * np.where(k < 0, ord("-"), ord("+")).astype(np.uint8)
    out[_EXP + 2] = (e // 100 + ord("0")) * (sci & (e >= 100))
    out[_EXP + 3] = (e // 10 % 10 + ord("0")) * sci
    out[_EXP + 4] = (e % 10 + ord("0")) * sci
    out[_END] = end
    specials = _JSON_SPECIALS if shortest else {}  # %g's nan and inf stay as they are
    for i in np.flatnonzero(slow).tolist():  # by Python's own formatting
        x = v[i].item()
        text = float.__repr__(x) if shortest else "%.17g" % x
        text = specials.get(text, text).encode() + bytes([end[i]])
        out[:, i] = 0
        out[:len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return out.T.tobytes().translate(None, b"\0")


def render(columns, sep: str, end: str, shortest: bool = False):
    """The rows of ``columns`` (equal-length float64 arrays) as ASCII text,
    each value followed by ``sep`` and each row's last by ``end``, its text
    ``"%.17g" % v`` or, if ``shortest``, that of ``float.__repr__`` with
    nan and the infinities spelled ``NaN``, ``Infinity`` and ``-Infinity``.
    Yields one block of whole rows at a time: at most BLOCK values, or one
    row where a row is wider; nothing for a table with no rows."""
    ends = np.full(len(columns), ord(sep), dtype=np.uint8)
    ends[-1] = ord(end)
    rows = max(1, BLOCK // len(columns))
    for lo in range(0, len(columns[0]), rows):
        block = np.stack([column[lo:lo + rows] for column in columns], axis=1,
                         dtype=np.float64)
        yield _render_block(block.reshape(-1), np.tile(ends, len(block)), shortest)
