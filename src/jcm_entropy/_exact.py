"""Error-free transforms.  two_sum is exact unless a + b overflows; two_prod for finite
a * b, |a|, |b| < 2**996 (splitter overflow) and |a * b| >= 2**-968 (error underflow)."""

_SPLITTER = 2.0 ** 27 + 1.0
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)


def split(a):
    """a = hi + lo exactly, hi holding at most 26 significant bits (Dekker)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_sum(a, b):
    """a + b = s + e exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def two_prod(a, b):
    """a * b = p + e exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
