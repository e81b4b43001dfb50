"""Python's float ``repr`` for a whole block of float64 values, with numpy.

``repr_block(values)`` returns a uint8 character matrix with one row per
value: the row with its zero bytes dropped is exactly ``repr(float(v))``.
The zero bytes are padding.  They may sit inside a row, between the
integer digits, the point and the fraction, and the CSV writers drop them
from a whole block of lines with one boolean compress.

The digits follow Grisu (Loitsch, PLDI 2010): a fast exact generator that
hands the rare inputs it cannot decide to a slow exact path, here ``repr``
itself.  The fast domain is 1 <= x < 1e8 with a mantissa that is
not a power of two (those have an asymmetric rounding interval); there
``repr`` prints fixed notation with at most 17 significant digits.  It
ends at 1e8, where eight integer digits fill two 4-digit groups; the runs'
tables hold nothing negative and nothing above about 1.02e6 (heater power).

With E = floor(log10 x), X = x*10**(16-E) lies in [1e16, 1e17), and
Dekker's exact product (Numer. Math. 18, 1971) gives X = p + lo in
doubles.  The candidates with 15, 16 and 17 digits are the multiples of
100, 10 and 1 nearest to X.  The first that lies strictly within the
scaled half-ulp h of x is ``repr``: the rounding interval is at most 22
wide, so it holds at most one multiple of 100, and any shorter string that
round-trips is that multiple (DBL_DIG = 15).  Rounding ties, distances
within 1e-9*h of h and results that leave [1e16, 1e17) go to ``repr``.
"""

from __future__ import annotations

import numpy as np

# 10**k is an exact double for k <= 22; Veltkamp halves for Dekker's product.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLITTER = 2.0 ** 27 + 1.0
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_STEPS = np.array([[100.0], [10.0], [1.0]])  # 15-, 16- and 17-digit candidates


def _cell_table() -> np.ndarray:
    """Four-byte text cells as uint32: each 4-digit group in four styles
    (all digits; leading zeros blank; trailing zeros blank; trailing zeros
    blank but the first digit kept), then a point."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
    after_lead = digits > 0   # row c: some digit 0..c is nonzero
    before_trail = digits > 0  # row c: some digit c..3 is nonzero
    for c in (1, 2, 3):
        after_lead[c] |= after_lead[c - 1]
        before_trail[3 - c] |= before_trail[4 - c]
    full = digits + np.uint8(ord("0"))
    trail = full * before_trail
    keep = trail.copy()
    keep[0] = full[0]
    point = np.array([[ord(".")], [0], [0], [0]], np.uint8)
    cells = np.concatenate([full, full * after_lead, trail, keep, point], axis=1)
    return np.ascontiguousarray(cells.T).view(np.uint32).ravel()


_CELLS = _cell_table()
_LEAD, _TRAIL, _KEEP = 10_000, 20_000, 30_000  # style offsets; all digits is 0
_BLANK, _POINT = _LEAD, 40_000  # _LEAD + 0 is four blanks


def repr_block(values) -> np.ndarray:
    """Character matrix of repr(float(v)) for each of values, one row each."""
    v = np.asarray(values, dtype=np.float64).ravel()
    fast = (v >= 1.0) & (v < 1e8)
    a = np.where(fast, v, 1.5)  # in the domain; those rows are replaced below
    e10 = np.floor(np.log10(a))  # may be one off; _shortest catches that
    hi, low, decided = _shortest(a, e10)
    fast &= decided
    hi[~fast], low[~fast] = 1e8, 0.0  # keep the cell indices in range
    quads = _fixed_point_quads(hi, low, e10)
    del a, hi, low, e10

    # One index per 4-byte cell, position-major: integer quads, point,
    # fraction quads.  Quads blank in every row are left out.
    zero = quads == 0.0
    frac_blank = zero[:2:-1]  # row c: quads 5-c..5 are zero
    for c in (1, 2):
        frac_blank[c] &= frac_blank[c - 1]
    quads[0] += _LEAD
    quads[1] += zero[0] * float(_LEAD)
    quads[5] += _TRAIL
    quads[4:2:-1] += frac_blank[:2] * float(_TRAIL)
    quads[2] += frac_blank[2] * float(_KEEP)
    first = int(zero[0].all())
    last = 6 - int(frac_blank.all(axis=1).sum())
    parts = [quads[first:2], np.full((1, v.size), _POINT), quads[2:last]]
    slow = np.flatnonzero(~fast)
    texts = [repr(x) for x in v[slow].tolist()]
    # a fallback text may need more cells than the fast rows use
    missing = -(-max(map(len, texts), default=0) // 4) - sum(map(len, parts))
    parts.append(np.full((max(0, missing), v.size), _BLANK))
    index = np.concatenate(parts, dtype=np.intp, casting="unsafe")
    chars = np.ascontiguousarray(_CELLS[index].T).view(np.uint8)
    if texts:
        padded = np.array(texts, dtype=f"S{chars.shape[1]}")
        chars[slow] = padded.view(np.uint8).reshape(len(texts), -1)
    return chars


def _shortest(a, e10):
    """Digits of repr(a) as D = hi*1e8 + low, padded to 17 digits, and
    the rows where the fast path decided them."""
    ulp = np.spacing(a)
    decided = a != ulp * 2.0 ** 52  # a power of two: asymmetric interval
    k = (16.0 - e10).astype(np.intp)
    scale = _POW10[k]
    p = a * scale
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    lo = a_lo * s_lo - (((p - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    h = ulp * scale * 0.5
    del ulp, k, t, a_hi, a_lo, s_hi, s_lo, scale

    # p is an even integer below 2**57; both halves are exact doubles.  The
    # quotient may round up, leaving low slightly negative until the carry.
    hi = np.floor(p / 1e8)
    low = p - hi * 1e8
    rem = low - np.floor(low / _STEPS) * _STEPS    # p mod 100, mod 10, mod 1
    off = rem + lo                                 # X less a multiple of each step
    near = np.floor(off / _STEPS + 0.5) * _STEPS
    dist = np.abs(off - near)
    decided &= (np.abs(dist - h) > 1e-9 * h).all(axis=0)
    decided &= (np.abs(dist - 0.5 * _STEPS) > 1e-6).all(axis=0)
    within = dist < h  # h > 0.55, so the 17-digit candidate always is
    near -= rem
    low += np.where(within[0], near[0], np.where(within[1], near[1], near[2]))
    carry = np.floor(low / 1e8)
    hi += carry
    low -= carry * 1e8
    decided &= (hi >= 1e8) & (hi < 1e9)
    return hi, low, decided


def _fixed_point_quads(hi, low, e10):
    """D*10**e10 as a 24-digit fixed-point number (8 integer and 16
    fraction digits) in six 4-digit groups, shape (6, n)."""
    lead = np.floor(hi / 1e8)
    limbs = np.stack([lead, hi - lead * 1e8, low])  # 8-digit limbs of D
    limbs *= _POW10[e10.astype(np.intp)]
    for i in (2, 1):
        carry = np.floor(limbs[i] / 1e8)
        limbs[i] -= carry * 1e8
        limbs[i - 1] += carry
    quads = np.empty((6, hi.size))
    np.floor(limbs / 1e4, out=quads[0::2])
    np.subtract(limbs, quads[0::2] * 1e4, out=quads[1::2])
    return quads
