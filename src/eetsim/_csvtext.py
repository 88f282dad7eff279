"""CSV text of float tables, byte for byte what ``np.savetxt`` writes with
``fmt="%.17g"``, ``delimiter=","`` and ``newline="\\r\\n"``.

Each float is printed as ``b"%.17g" % x``, Python's correctly rounded
17 digits, which name the double exactly.  A chunk of values is formatted at
once: its 17 digits come from a double-double scaling (Dekker, Numer. Math.
18, 224 (1971)), its bytes are laid into one 48-byte row per value from six
8-byte words, each four digits taking one word of a 10 000-entry table, and a
boolean compaction keeps the bytes of each value's layout.  A value this
cannot round exactly goes through Python's own ``%.17g``.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_CHUNK = 2048  # values per chunk; its rows and keep masks take about 200 kB
_LOW, _HIGH = 1e-260, 1e280  # the scaling neither overflows nor underflows here
_K0 = 16 - 281  # the table's 10**k, k >= _K0, scale exponents e = 16 - k from -262 to 281
# A value's row, word by word: "-0.000d." holds the sign, the "0.000" of fixed
# notation with e < 0 and the first digit; four "d.d.d.d." words hold digits
# 1-16, each digit followed by a point slot; "e", the exponent's sign and three
# digits, the separator and the row end.  So column 0 is the sign, 1-5 "0.000",
# 6 + 2j digit j, 7 + 2j its point slot (the last, 39, is never kept), 40-44
# the exponent, 45 "," and 46-47 CRLF.
_SCI, _SCI3 = 21, 22  # layouts 0-20 are fixed notation with e = layout - 4


@functools.cache
def _tables():
    """The formatter's tables, built on first use.

    - ``powers``: rows hi, hi's two 26-bit halves and lo of each 10**k, from k = _K0;
    - the 8-byte words ``lead`` ("-0.000d." for a first digit d) and
      ``groups`` ("d.d.d.d." for the four digits of g, at g);
    - ``group_kept``: the digits kept up to g's last non-zero digit at group
      position i (1 for g = 0), at 10000 i + g;
    - at e + 324, each exponent e's word ``exponents`` ("e", sign, three
      digits, ",", "\\r", "\\n") and its ``layouts``;
    - ``masks``: the bytes kept, at ((layout * 17 + kept - 1) * 2 + negative) * 2 + row end.
    """
    powers = []
    for k in range(_K0, 16 + 263):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:  # int / int rounds correctly
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        split = 134217729.0 * hi  # Dekker's split of hi into two 26-bit halves
        hi_hi = split - (split - hi)
        powers.append((hi, hi_hi, hi - hi_hi, lo))

    exponents = range(-324, 309)
    layouts = [e + 4 if -4 <= e < 17 else _SCI if abs(e) < 100 else _SCI3 for e in exponents]
    digit = np.arange(10, dtype=np.uint8)
    groups = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)  # g's word, at g's four digits
    last = np.zeros((10, 10, 10, 10), np.uint8)  # where g's last non-zero digit is, from 1 (0 for g = 0)
    for j in range(4):
        shape = (10,) + (1,) * (3 - j)
        groups[..., 2 * j] = (digit + ord("0")).reshape(shape)
        np.maximum(last, ((digit != 0) * np.uint8(j + 1)).reshape(shape), out=last)
    last = last.ravel()
    group_kept = np.where(last, last + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 1)

    masks = np.zeros((23, 17, 2, 2, 48), bool)
    for layout in range(23):
        e = layout - 4 if layout < _SCI else 0  # the digit the point follows
        for kept in range(1, 18):
            row = masks[layout, kept - 1, 0, 0]
            row[6:7 + 2 * max(e, kept - 1):2] = True  # the digits, zeros up to the point included
            row[7 + 2 * e] = 0 <= e < kept - 1  # the point, where digits follow it
            if e < 0:
                row[1:2 - e] = True  # "0." and the zeros of fixed notation
            row[40:45] = layout >= _SCI
            row[42] = layout == _SCI3
    masks[:] = masks[:, :, :1, :1]
    masks[:, :, 1, :, 0] = True  # the sign
    masks[:, :, :, 0, 45] = True
    masks[:, :, :, 1, 46:] = True
    return SimpleNamespace(
        powers=np.array(powers).T.copy(),
        lead=np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64),
        groups=groups.view(np.uint64).ravel(),
        group_kept=group_kept.ravel(),
        exponents=np.frombuffer(b"".join(b"e%c%03d,\r\n" % (b"-+"[e >= 0], abs(e)) for e in exponents), np.uint64),
        layouts=np.array(layouts),
        masks=masks.reshape(-1, 48),
    )


def _scaled(a, k, powers):
    """a * 10**k as a double-double (s, t), s = fl(s + t)."""
    hi, hi_hi, hi_lo, lo = np.take(powers, k, axis=1)
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p = a * hi
    err = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    s = p + err
    return s, err - (s - p)


def _decimal(x, powers):
    """(n, e, fallback): |x| rounded to n * 10**(e - 16), 10**16 <= n < 10**17 (n = e = 0 at zero).

    ``fallback`` marks the values this cannot round exactly: those outside
    [_LOW, _HIGH), and those whose 18th digit may be a tie.
    """
    a = np.abs(x)
    zero = a == 0
    fallback = ~(zero | ((a >= _LOW) & (a < _HIGH)))
    a[zero | fallback] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, 16 - e - _K0, powers)
    for step in range(2):  # the decimal exponent from log10 can be one off
        below = (s < 1e16) | ((s == 1e16) & (t < 0))
        above = (s > 1e17) | ((s == 1e17) & (t >= 0))
        moved = np.flatnonzero(below | above)
        if not moved.size:
            break
        if step:
            fallback[moved] = True
            break
        e[moved] += above[moved].astype(np.int64) - below[moved]
        s[moved], t[moved] = _scaled(a[moved], 16 - e[moved] - _K0, powers)
    whole = np.floor(t)
    frac = t - whole  # the fraction of s + t, known to far better than 1e-6
    fallback |= np.abs(frac - 0.5) < 1e-6  # maybe a decimal tie: rounding it needs the exact value
    n = s.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[zero] = 0
    e[zero] = 0
    return n, e, fallback


def _rows(n, e, tables):
    """The (n.size, 6) word rows of 17-digit integers n and exponents e, and how many digits to keep.

    Every array operation here pairs equal shapes or an array and a scalar:
    numpy gives a broadcast operation iteration buffers of 8192 elements per operand.
    """
    # for the first 9 digits, then the last 8: h // 10**8 (0 for the last 8), h // 10**4 and h
    quotients = np.empty((2, 3, n.size), np.int64)
    np.floor_divide(n, 10 ** 8, out=quotients[0, 2])
    np.subtract(n, 10 ** 8 * quotients[0, 2], out=quotients[1, 2])
    np.floor_divide(quotients[:, 2], 10 ** 4, out=quotients[:, 1])
    np.floor_divide(quotients[0, 1], 10 ** 4, out=quotients[0, 0])
    quotients[1, 0] = 0
    groups = (quotients[:, 1:] - 10 ** 4 * quotients[:, :2]).reshape(4, -1)  # digits 1-4, 5-8, 9-12, 13-16
    rows = np.empty((n.size, 6), np.uint64)
    rows[:, 0] = np.take(tables.lead, quotients[0, 0])
    rows[:, 1:5] = np.take(tables.groups, groups).T
    rows[:, 5] = np.take(tables.exponents, e + 324)
    for position in range(1, 4):
        groups[position] += 10000 * position
    return rows, np.take(tables.group_kept, groups).max(axis=0)


def _format_chunk(x, ends):
    """The bytes of ``b"%.17g" % v`` for each value of x, each followed by "," or "\\r\\n" where ends.

    They come as two arrays, one per half of the values: np.compress makes an
    index array eight times the size of what it keeps.
    """
    tables = _tables()
    n, e, fallback = _decimal(x, tables.powers)
    rows, kept = _rows(n, e, tables)
    layout = np.take(tables.layouts, e + 324)
    keep = np.take(tables.masks, ((layout * 17 + kept - 1) * 2 + np.signbit(x)) * 2 + ends, axis=0)
    text = rows.view(np.uint8)
    for i in np.flatnonzero(fallback):
        printed = b"%.17g" % float(x[i])
        keep[i, :45] = False
        keep[i, :len(printed)] = True
        text[i, :len(printed)] = np.frombuffer(printed, np.uint8)
    half = x.size // 2
    return [np.compress(keep[part].ravel(), text[part].ravel()) for part in (slice(half), slice(half, None))]


def write_rows(table, fh) -> None:
    """Write each row of a 2-D float table to the binary file fh: its values' ``%.17g``, joined by "," and ended by CRLF.

    The values go out _CHUNK at a time, so a chunk may end inside a row.
    """
    values = table.reshape(-1)
    for start in range(0, values.size, _CHUNK):
        chunk = values[start:start + _CHUNK]
        fh.writelines(_format_chunk(chunk, np.arange(start + 1, start + 1 + chunk.size) % table.shape[1] == 0))
