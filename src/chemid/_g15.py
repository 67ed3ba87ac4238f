"""``"%.15g" % v`` for arrays of doubles, byte for byte, with numpy.

``format_into`` writes each value of a 1-D array into a NUL-padded
32-byte field; deleting the NULs leaves Python's text.  The 15
significant digits of a finite value with decimal exponent e in
``EXPONENTS`` come from an error-free product with a double-double
10^(14 - e) (Dekker's product), e from ``log10`` mended where it is one
off.  C's %g rules then lay them out: fixed notation for e in -4..14,
d.ddde±XX otherwise, trailing zeros dropped, and "0" or "-0" for zero.
Python formats the rest: inf, nan, exponents outside ``EXPONENTS`` and
values within ``TIE`` of a rounding tie, exact ties included (Python
rounds them half to even).
"""

from __future__ import annotations

import functools

import numpy as np

#: Decimal exponents formatted here; Python formats the others.
EXPONENTS = (-280, 280)

#: Distance from a rounding tie, in units of the 15th digit, within which
#: Python formats the value.  The scaled value here is off by about 2e-16.
TIE = 1e-9

#: Veltkamp's splitter 2^27 + 1: x s - (x s - x) holds the upper 26 bits of x.
_SPLIT = 134217729.0


def format_into(values: np.ndarray, out: np.ndarray) -> int:
    """Write ``"%.15g" % v`` of each of the 1-D ``values`` into its row of ``out``.

    ``out`` is a C-ordered (len(values), 32) uint8 array.  A row holds its
    text with NULs around and inside it: the sign and any "0.", "0.0" ...
    end at byte 8, the digits and point start there, an exponent at byte
    24.  Returns how many values Python formatted.
    """
    _, texts, _, _, masks = _tables()
    D, i, python = _rounded(values)
    right, kept = _digits(D)
    left = ((right[0] >> 8) | (right[1] << 56), right[1] >> 8)
    lead, tail, point = texts.take(2 * i + np.signbit(values), axis=1)
    mask = masks.take(point.astype(np.intp) + kept, axis=1)
    words = out.view(np.uint64)
    words[:, 0], words[:, 3] = lead, tail
    for w in (0, 1):
        words[:, 1 + w] = (left[w] & mask[w]) | (right[w] & mask[2 + w]) | mask[4 + w]
    rows = np.flatnonzero(python)
    if rows.size:
        text = ["%.15g" % v for v in values[rows].tolist()]
        out[rows] = np.array(text, dtype="S32").view(np.uint8).reshape(-1, 32)
    return rows.size


def _rounded(values: np.ndarray) -> tuple:
    """(D, i, python): each value's 15 digits as a float 10^14 <= D < 10^15 (0 for
    zero), the ``_tables`` column i of its exponent, and which values Python formats."""
    powers = _tables()[0]
    a = np.abs(values)
    with np.errstate(divide="ignore"):  # log10(0) = -inf
        e = np.floor(np.log10(a))
    fast = (e >= EXPONENTS[0]) & (e <= EXPONENTS[1])
    slow = not fast.all()
    if slow:  # zeros and what Python formats go through as 1e0
        e[~fast], a[~fast] = 0.0, 1.0
    i = (e - (EXPONENTS[0] - 1)).astype(np.intp)
    p, r = _scaled(a, i, powers)
    redo = np.flatnonzero((p < 1e14) | (p >= 1e15))  # mostly where log10 was one off
    if redo.size:
        i[redo] += _shift(p[redo], r[redo])
        p[redo], r[redo] = _scaled(a[redo], i[redo], powers)
    whole = np.floor(p)
    frac = (p - whole) + r
    D = whole + (frac > 0.5)  # the digits, 10^14 <= D <= 10^15
    python = np.abs(frac - 0.5) < TIE
    python[redo] |= _shift(p[redo], r[redo]) != 0
    if slow:
        zero = values == 0.0
        python |= ~(fast | zero)
        D[zero] = 0.0
    if (D == 1e15).any():  # rounded up to the next power of ten
        i += D == 1e15
        D[D == 1e15] = 1e14
    return D, i, python


def _shift(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The step of the exponent (-1, 0 or 1) that brings p + r into [10^14, 10^15).

    p + r just below 10^15 stays: it rounds to 10^15, whose carry
    ``_rounded`` makes; so does p = 10^14 with r < 0, whose digits
    round alike at either exponent since |r| < 0.02 there.
    """
    return np.where(p < 1e14, -1, (p > 1e15) | ((p == 1e15) & (r >= 0)))


def _digits(D: np.ndarray) -> tuple:
    """Each D's text: a 0 and its 15 digits in two little-endian uint64 words,
    and how many digits are left without trailing zeros (-1 for D = 0)."""
    _, _, digits, lengths, _ = _tables()
    groups = np.empty((4, len(D)))  # four digits each, the first with a leading 0
    np.floor(D / 1e8, out=groups[1])
    np.subtract(D, groups[1] * 1e8, out=groups[3])
    np.floor(groups[1::2] / 1e4, out=groups[0::2])
    groups[1::2] -= groups[0::2] * 1e4
    groups = groups.astype(np.intp)
    kept = np.maximum.reduce(lengths.take(groups) + np.array([[-1], [3], [7], [11]], np.int8))
    chars = digits.take(groups.T).view(np.uint64)  # (N, 2): groups 0-1 and 2-3
    return (chars[:, 0], chars[:, 1]), np.maximum(kept, -1)


def used_columns(fields: np.ndarray) -> slice:
    """The columns of (rows, 32) ``fields`` that hold a byte of some row's text."""
    words = fields.view(np.uint64)  # one reduction per word: ~5x faster than over rows
    used = np.array([np.bitwise_or.reduce(words[:, k]) for k in range(4)]).view(np.uint8)
    used = np.flatnonzero(used)
    return slice(used[0], used[-1] + 1)


def _scaled(a: np.ndarray, i: np.ndarray, powers: np.ndarray) -> tuple:
    """(p, r): p + r = a 10^(14 - e) within about 2e-16, e the exponent of ``powers`` column i.

    p = a hi rounded and r its exact error (Dekker's product) plus a lo.
    """
    hi, head, tail, lo = powers.take(i, axis=1)
    p = a * hi
    a_head = a * _SPLIT
    a_head -= a_head - a
    a_tail = a - a_head
    return p, ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail + a * lo


@functools.cache
def _tables() -> tuple:
    """The lookup tables, built once, with integer arithmetic where it must be exact.

    - powers (4, exponent): 10^(14 - e) as hi + lo, hi rounded and lo the
      rounded rest, and hi's two 26-bit halves, for e from one below
      ``EXPONENTS`` to one above;
    - texts (3, 2 exponent + sign): the sign and any "0.00" right-aligned
      in a uint64, the exponent text ("e-05") left-aligned in one, and
      17 p + 1 for p digits before the point (16: none);
    - digits, lengths (10^4): the 4 ASCII digits of 0..9999 in a uint32,
      and how many are left without trailing zeros (-99 for 0000);
    - masks (6, 17 p + 1 + kept digits): per 8-byte half of the 16 bytes
      from byte 8, which take the digit at their place, which the one
      before, and the point.
    """
    e = np.arange(EXPONENTS[0] - 1, EXPONENTS[1] + 2)
    powers = []
    for k in (14 - e).tolist():  # 10^k = num / den, and lo = num / den - p / q
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        p, q = (num / den).as_integer_ratio()
        powers.append((p / q, (num * q - p * den) / (den * q)))
    hi, lo = np.array(powers).T
    head = hi * _SPLIT
    head -= head - hi
    lead = ["0." + "0" * (-k - 1) if -4 <= k < 0 else "" for k in e.tolist()]
    tail = ["" if -4 <= k < 15 else "e%+03d" % k for k in e.tolist()]
    point = 17 * np.where((e >= -4) & (e < 15), np.where(e < 0, 16, e + 1), 1) + 1
    texts = np.vstack([
        np.array([[(s + t).rjust(8, "\0") for t in lead for s in ("", "-")],
                  [t for t in tail for _ in "+-"]], dtype="S8").view(np.uint64),
        np.repeat(point, 2).astype(np.uint64),
    ])
    d = np.arange(10)
    digits = sum(np.ix_(*[(48 + d).astype(np.uint32) << 8 * k for k in range(4)])).ravel()
    lengths = functools.reduce(np.maximum, np.ix_(*[(d > 0) * np.int8(k) for k in range(1, 5)]))
    lengths = lengths.ravel()
    lengths[0] = -99
    col, p, kept = np.arange(16), np.arange(17)[:, None, None], np.arange(-1, 16)[:, None]
    keep = col < np.where(p == 16, kept, np.where(kept > p, kept + 1, p))
    masks = np.stack([255 * (col < p), 255 * (col > p), 46 * (col == p)]).astype(np.uint8) * keep
    masks = masks.reshape(3, -1, 16).view(np.uint64).transpose(0, 2, 1).reshape(6, -1)
    return np.stack([hi, head, hi - head, lo]), texts, digits, lengths, masks
