"""Float64 arrays as text by array code, byte for byte in two formats:
``"%.17g" % v`` (``render``, for CSV) and ``float.__repr__(v)`` with
JSON's ``NaN``/``Infinity``/``-Infinity`` (``render_repr``, the text
``json.dumps`` gives a float).

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
``.0``.  Each layout, set by the notation, X or the exponent's width, the
count of significant digits and the sign, has one template per format: the
rows of a block's source bytes (digits, exponent digits, signs, constants)
that its text takes, in order.  A value's text is gathered by its layout's
template, and the NUL padding dropped.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import _two_prod

BLOCK = 2 ** 12        # values rendered at once; temporaries grow with this
_WIDTH = 26            # bytes per value: at most 24 characters, the end, a NUL
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_TIE_MARGIN = 1e-9     # in units of the 17th digit: far above the scaling's 2**-46
_S_MIN, _S_MAX = -185, 218  # s = 16 - k, k = floor(log10|v|) +- 1: one to spare
_DIGITS = 17
_JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Source rows of a block, one entry per value: the 17 digits, the three
# exponent digits (zero-padded), the exponent's sign, the byte that ends
# the value, and then constant characters.
_EXP = _DIGITS
_EXP_SIGN, _END, _MINUS, _POINT, _E, _ZERO, _NUL = range(_EXP + 3, _EXP + 10)
_CONSTANTS = b"-.e0\0"
_SOURCES = _NUL + 1
# Layout slots: fixed notation for X = -4 .. 16 (repr stops at 15), then
# exponent notation with two and three exponent digits.
_FIXED_SLOTS = 21
_SLOTS = _FIXED_SLOTS + 2


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


def _template(slot: int, digits: int, shortest: bool) -> list[int]:
    """Source rows of one unsigned layout and the value's end, NUL-padded
    to _WIDTH - 1 (a sign takes the last byte)."""
    d = list(range(digits))
    if slot < _FIXED_SLOTS:
        x = slot - 4
        if x >= 0:  # the integer part keeps its zeros
            fraction = d[x + 1:] or ([_ZERO] if shortest else [])
            body = list(range(x + 1)) + ([_POINT] + fraction if fraction else [])
        else:
            body = [_ZERO, _POINT] + [_ZERO] * (-x - 1) + d
    else:
        exp_digits = 2 + (slot - _FIXED_SLOTS)
        body = (d[:1] + ([_POINT] + d[1:] if digits > 1 else [])
                + [_E, _EXP_SIGN] + list(range(_EXP + 3 - exp_digits, _EXP + 3)))
    return body + [_END] + [_NUL] * (_WIDTH - 2 - len(body))


@functools.cache
def _templates(shortest: bool) -> np.ndarray:
    """Every layout's template as offsets into a block's flattened source
    rows, indexed by the layout key ``(slot * 17 + digits - 1) * 2 + negative``."""
    unsigned = np.array([_template(slot, digits, shortest) for slot in range(_SLOTS)
                         for digits in range(1, _DIGITS + 1)], dtype=np.intp)
    table = np.empty((unsigned.shape[0], 2, _WIDTH), dtype=np.intp)
    table[:, 0, :-1] = unsigned
    table[:, 0, -1] = _NUL
    table[:, 1, 0] = _MINUS
    table[:, 1, 1:] = unsigned
    return table.reshape(-1, _WIDTH) * BLOCK


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - k)`` as ``p + r``: p the rounded product, r the rest
    to about 2**-104 of the product."""
    hi, lo = _powers()
    s = 16 - _S_MIN - k
    p, e = _two_prod(a, hi[s])
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


def _fallback(x: float, shortest: bool) -> str:
    """One value's text by Python's own formatting."""
    if shortest:
        text = float.__repr__(x)
        return _JSON_SPECIALS.get(text, text)
    return "%.17g" % x


def _render_block(v: np.ndarray, end: np.ndarray, shortest: bool) -> bytes:
    digits, k, slow = _decimal(v, shortest)
    buffer = np.empty((_SOURCES, BLOCK), dtype=np.uint8)
    src = buffer[:, :v.size]
    # the digits from the last, nine and eight at a time in one uint32 pair
    pair = np.empty((2, v.size), dtype=np.uint32)
    pair[1] = digits // 10 ** 9
    pair[0] = digits - pair[1].astype(np.int64) * 10 ** 9
    for j in range(9):
        rest = pair // 10
        pair -= rest * 10
        src[_DIGITS - 1 - j] = pair[0]
        if j < 8:
            src[7 - j] = pair[1]
        pair = rest
    nonzero_at = (src[:_DIGITS] != 0).view(np.uint8)
    nonzero_at *= np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]
    kept = np.maximum(nonzero_at.max(axis=0), 1)  # significant digits; 1 for 0
    src[:_DIGITS] += ord("0")
    e = np.abs(k).astype(np.uint16)
    src[_EXP] = e // 100
    src[_EXP + 1] = e // 10 % 10
    src[_EXP + 2] = e % 10
    src[_EXP:_EXP + 3] += ord("0")
    src[_EXP_SIGN] = np.where(k < 0, ord("-"), ord("+"))
    src[_END] = end
    src[_MINUS:] = np.frombuffer(_CONSTANTS, dtype=np.uint8)[:, None]

    fixed = (k >= -4) & (k < (16 if shortest else 17))
    slot = np.where(fixed, k + 4, _FIXED_SLOTS + (e >= 100))
    key = (slot * _DIGITS + kept - 1) * 2 + np.signbit(v)
    index = np.take(_templates(shortest), key, axis=0)
    index += np.arange(v.size)[:, None]
    out = np.take(buffer.reshape(-1), index)
    for i in np.flatnonzero(slow).tolist():
        text = _fallback(v[i].item(), shortest).encode() + bytes([end[i]])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out[out != 0].tobytes()


def _render(values: np.ndarray, ends, shortest: bool) -> bytes:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    end = np.broadcast_to(np.asarray(ends, dtype=np.uint8), np.shape(values)).reshape(-1)
    return b"".join(_render_block(v[lo:lo + BLOCK], end[lo:lo + BLOCK], shortest)
                    for lo in range(0, v.size, BLOCK))


def render(values: np.ndarray, ends) -> bytes:
    """``"%.17g" % v`` for each of ``values`` (float64, in C order), each
    followed by its byte of ``ends`` (an int or an array broadcast against
    ``values``), as one ASCII text, rendered BLOCK values at a time."""
    return _render(values, ends, False)


def render_repr(values: np.ndarray, ends) -> bytes:
    """As ``render``, with each value's text that of ``float.__repr__``,
    nan and the infinities spelled ``NaN``, ``Infinity`` and ``-Infinity``:
    the text ``json.dumps`` gives a float."""
    return _render(values, ends, True)
