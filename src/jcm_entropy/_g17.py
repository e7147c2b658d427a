"""``"%.17g" % v`` for a float64 array as array code, byte for byte.

Each value ``v`` with ``1e-200 <= |v| < 1e200`` is scaled to
``x = |v| * 10**(16 - k)``, ``k = floor(log10 |v|)``, in double-double
arithmetic: ``10**s`` is held as an unevaluated sum ``hi + lo`` and
``|v| * hi`` is formed exactly (Dekker 1971), so ``x`` in [1e16, 1e17) is
off the exact product by less than 2**-46.  Its 17 significant digits are
``x`` rounded to the nearest integer, which is the correctly rounded
decimal that ``%`` gives, unless ``x`` lies within ``_TIE_MARGIN`` of a
half-integer (an exact tie, rounded half to even by ``%``, or too close to
tell).  Those values, values outside the range, nan and inf go through
``%`` one at a time; zeros are formatted as arrays.

The text then follows the ``%g`` rules: with X the decimal exponent of the
rounded value, fixed notation for -4 <= X < 17 and ``d.ddde+XX`` (at least
two exponent digits) otherwise, trailing zeros and a bare point dropped.
Each layout, set by the notation, X or the exponent's width, the count of
significant digits and the sign, has one template: the rows of a block's
source bytes (digits, exponent digits, signs, constants) that its text
takes, in order.  A value's text is gathered by its layout's template, and
the NUL padding dropped.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import _two_prod

BLOCK = 2 ** 12        # values rendered at once; temporaries grow with this
_WIDTH = 26            # bytes per value: at most 24 characters, the end, a NUL
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_TIE_MARGIN = 1e-9     # of a half-integer: far above the scaling's 2**-46
_S_MIN, _S_MAX = -185, 218  # s = 16 - k, k = floor(log10|v|) +- 1: one to spare
_DIGITS = 17

# Source rows of a block, one entry per value: the 17 digits, the three
# exponent digits (zero-padded), the exponent's sign, the byte that ends
# the value, and then constant characters.
_EXP = _DIGITS
_EXP_SIGN, _END, _MINUS, _POINT, _E, _ZERO, _NUL = range(_EXP + 3, _EXP + 10)
_CONSTANTS = b"-.e0\0"
_SOURCES = _NUL + 1
# Layout slots: fixed notation for X = -4 .. 16, then exponent notation with
# two and three exponent digits.
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


def _template(slot: int, digits: int) -> list[int]:
    """Source rows of one unsigned layout and the value's end, NUL-padded
    to _WIDTH - 1 (a sign takes the last byte)."""
    d = list(range(digits))
    if slot < _FIXED_SLOTS:
        x = slot - 4
        if x >= 0:  # the integer part keeps its zeros
            body = list(range(x + 1)) + ([_POINT] + d[x + 1:] if digits > x + 1 else [])
        else:
            body = [_ZERO, _POINT] + [_ZERO] * (-x - 1) + d
    else:
        exp_digits = 2 + (slot - _FIXED_SLOTS)
        body = (d[:1] + ([_POINT] + d[1:] if digits > 1 else [])
                + [_E, _EXP_SIGN] + list(range(_EXP + 3 - exp_digits, _EXP + 3)))
    return body + [_END] + [_NUL] * (_WIDTH - 2 - len(body))


@functools.cache
def _templates() -> np.ndarray:
    """Every layout's template as offsets into a block's flattened source
    rows, indexed by the layout key ``(slot * 17 + digits - 1) * 2 + negative``."""
    unsigned = np.array([_template(slot, digits) for slot in range(_SLOTS)
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


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each |v| as an int64, its decimal
    exponent X, and where ``%`` must format the value instead.  Zeros and
    those values get digits 0 and exponent 0."""
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
    whole = np.floor(r)
    frac = r - whole
    slow = ~fast & (v != 0.0) | (np.abs(frac - 0.5) <= _TIE_MARGIN)
    digits = p.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64)
    carry = digits >= 10 ** _DIGITS  # rounded up to 10**17
    digits[carry] = 10 ** (_DIGITS - 1)
    k += carry
    skip = ~fast | slow
    digits[skip] = 0
    k[skip] = 0
    return digits, k, slow


def _render_block(v: np.ndarray, end: np.ndarray) -> bytes:
    digits, k, slow = _decimal(v)
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

    slot = np.where((k >= -4) & (k < _DIGITS), k + 4, _FIXED_SLOTS + (e >= 100))
    key = (slot * _DIGITS + kept - 1) * 2 + np.signbit(v)
    index = np.take(_templates(), key, axis=0)
    index += np.arange(v.size)[:, None]
    out = np.take(buffer.reshape(-1), index)
    for i in np.flatnonzero(slow).tolist():
        text = ("%.17g" % v[i].item()).encode() + bytes([end[i]])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out[out != 0].tobytes()


def render(values: np.ndarray, ends) -> bytes:
    """``"%.17g" % v`` for each of ``values`` (float64, in C order), each
    followed by its byte of ``ends`` (an int or an array broadcast against
    ``values``), as one ASCII text, rendered BLOCK values at a time."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    end = np.broadcast_to(np.asarray(ends, dtype=np.uint8), np.shape(values)).reshape(-1)
    return b"".join(_render_block(v[lo:lo + BLOCK], end[lo:lo + BLOCK])
                    for lo in range(0, v.size, BLOCK))
