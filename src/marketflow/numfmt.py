"""Exact `%` formatting of numeric columns with numpy.

`formatted` gives, for each entry of an array, the bytes that `fmt % v`
gives, except that every infinity is `inf`, as columns of uint32 words,
with no row matrix of its own; `joined` writes such columns side by side
into one row matrix per call and turns its rows into text. The writers
in `io` and `svg` format and join whole columns with them, with no
Python call per value.
"""

from __future__ import annotations

import functools
import re

import numpy as np


def words(texts, width: int = 1) -> np.ndarray:
    """Each bytes object of `texts` as a row of uint32 words, padded
    with zero bytes to the longest of them, or to `width` words."""
    width = max([width] + [-(-len(text) // 4) for text in texts])
    return np.array(texts, dtype=f"S{4 * width}").view(np.uint32).reshape(-1, width)


@functools.cache
def _group_words():
    """Two tables of 4-byte words for a group of four decimal digits
    n < 10**4: entry n holds its digits with leading zeros; entry
    n + 10**4, for a group with no digit above it, holds each leading
    zero as a zero byte. In the table for the last group, the ones digit
    stays, so that 0 is "0". Built on first use, not on import."""
    n = np.arange(10**4)[:, None]
    place = np.array([1000, 100, 10, 1])
    digits = (n // place % 10 + ord("0")).astype(np.uint8)
    units = np.where((n < place) & (place > 1), 0, digits).astype(np.uint8)
    leading = units.copy()
    leading[0] = 0
    return tuple(np.concatenate((digits, lead)).view(np.uint32).ravel()
                 for lead in (leading, units))


_MINUS = words([b"-"])[0, 0]
# The formats `formatted` takes: one `%.Nf` conversion with literal
# text after it
_CONVERSION = re.compile(r"%\.(\d)f([^%]*)")


def _tail_words(places: int, suffix: bytes) -> list:
    """What follows the integer digits (the point, the `places` digits
    of the fraction f, then the suffix) as 4-byte words: for each word,
    (divisor, count, table), so that the word is
    `table[f // divisor % count]`."""
    text = (b"." + b"0" * places if places else b"") + suffix
    tail = []
    for start in range(0, len(text), 4):
        chunk = range(start, min(start + 4, len(text)))
        last = max((j for j in chunk if 1 <= j <= places), default=0)
        count = 10 ** sum(1 <= j <= places for j in chunk)
        i = np.arange(count)[:, None]
        table = np.zeros((count, 4), dtype=np.uint8)
        for byte, j in enumerate(chunk):
            table[:, byte:byte + 1] = (i // 10 ** (last - j) % 10 + ord("0")
                                       if 1 <= j <= places else text[j])
        tail.append((10 ** (places - last), count, table.view(np.uint32).ravel()))
    return tail


@functools.lru_cache(maxsize=16)
def _layout(fmt: str):
    """(places N, suffix, `_tail_words`) of a format `formatted` takes;
    `ValueError` for any other."""
    match = _CONVERSION.fullmatch(fmt)
    if match is None:
        raise ValueError(f"format {fmt!r} is not one %.Nf, then text")
    places, suffix = int(match[1]), match[2].encode()
    return places, suffix, _tail_words(places, suffix)


def _product_error(a, b, p):
    """`a * b - p` exactly, where p is the rounded product of a and b:
    Dekker's two-product on Veltkamp's halves, exact when nothing
    overflows or underflows."""
    def halves(x):  # Veltkamp's split of a double into two 26-bit halves
        c = (2.0**27 + 1) * x
        hi = c - (c - x)
        return hi, x - hi

    (a_hi, a_lo), (b_hi, b_lo) = halves(a), halves(b)
    return a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _integer_words(n) -> list:
    """The decimal digits of the non-negative integers n, without
    leading zeros, as columns of words, most significant first: one
    word per four digits of the largest."""
    mid, low = _group_words()
    columns = []
    above = 0  # n // 10**(4 * (g + 1)): the digits above group g
    for g in range(-(-len(str(n.max(initial=0))) // 4) - 1, -1, -1):
        high = n // 10 ** (4 * g)
        # the group's digits, high % 10**4, as a subtraction (numpy's
        # integer `%` is several times slower than `//`), looked up in the
        # table's second half, without leading zeros, where no digit
        # stands above the group
        table = low if g == 0 else mid
        columns.append(table[high - above * 10**4 + (above == 0) * 10**4])
        above = high
    return columns


def formatted(values, fmt: str) -> list:
    """`fmt % v` for each entry v of a 1-D array, except that every
    infinity is `inf`, as a list of word columns: each a 1-D array of
    uint32 words, one per entry, or one word that every entry shares.
    An entry's text is the non-zero bytes of its words, column after
    column, each in memory order; `joined` turns the columns into text.

    `fmt` is one `%.Nf` conversion with literal text after it, as every
    writer's format is; any other raises `ValueError`. An integer column
    in [0, 2**52) is its digits and, where N > 0, a point and N zeros,
    with no float arithmetic: every such integer is an exact double.
    Elsewhere, where `|v| * 10**N < 2**52`, the digits are numpy
    arithmetic:
    - the exact binary value is rounded half to even, as CPython's
      correctly rounded `%` does. Let p be the rounded product
      `|v| * 10**N`. Below 2**52 every n + 1/2 is a double, and rounding
      is monotonic, so the exact product lies on p's side of each
      n + 1/2 that p is not. Only where p is one does the sign of the
      product's exact error (`_product_error`) settle the tie;
    - the sign comes from the sign bit, so -0.0 and a negative value
      that rounds to zero keep their "-".

    NaN, and every value past the bound, go through `%` one value at a
    time, and their texts are written into every column, with columns
    of zero words added where a text is the wider. A column whose
    values are all within the bound skips the masks that set the others
    apart.
    """
    values = np.asarray(values)
    places, suffix, tail = _layout(fmt)
    if values.dtype.kind in "iu" and 0 <= values.min(initial=0) \
            and values.max(initial=0) < 2**52:
        # no fraction: each tail word is its digits' zeros, or the suffix
        return (_integer_words(values.astype(np.int64, copy=False))
                + [table[0] for _, _, table in tail])
    x = values.astype(np.float64, copy=False)
    mag = np.abs(x)
    unit = 10**places
    scale = float(unit)
    named = big = None  # the infinities, and the values `%` formats
    # rounding is monotonic, so the largest product bounds them all; a
    # NaN compares false
    if float(mag.max(initial=0.0)) * scale < 2.0**52:
        p = mag * scale
    else:
        # Values past the bound, NaN and the infinities take no part in
        # the arithmetic: it would warn on them, under `-W error` too.
        small = mag < 2.0**52
        mag[~small] = 0.0
        p = mag * scale
        small &= p < 2.0**52
        p[~small] = 0.0
        named = np.isinf(x)
        big = ~(small | named)
    k = p.astype(np.int64)  # floor(p)
    frac = p - k
    ties = np.flatnonzero(frac == 0.5)
    k += frac > 0.5
    if len(ties):
        error = _product_error(mag[ties], scale, p[ties])
        k[ties] += (error > 0.0) | (error == 0.0) & (k[ties] % 2 == 1)
    minus = np.signbit(x) if named is None else np.signbit(x) & ~named
    whole = k // unit
    part = k - whole * unit

    columns = [np.where(minus, _MINUS, 0)] if minus.any() else []
    body = len(columns)
    columns += _integer_words(whole)
    above = 0  # part // (divisor * count): the digits before the word's
    for divisor, count, table in tail:
        if count == 1:  # no digit: a word of the suffix
            columns.append(table[0])
            continue
        high = part // divisor
        columns.append(table[high - above * count])  # high % count
        above = high

    if named is not None and named.any():  # each column after the sign spells inf
        for j, word in enumerate(words([b"inf" + suffix], len(columns) - body)[0], body):
            columns[j] = np.where(named, word, columns[j])
    if big is not None and big.any():
        texts = words([(fmt % v).encode() for v in values[big].tolist()], len(columns))
        columns += [0] * (texts.shape[1] - len(columns))
        for j, text in enumerate(texts.T):
            column = np.empty(len(x), np.uint32)
            column[:] = columns[j]
            column[big] = text
            columns[j] = column
    return columns


def joined(columns: list) -> bytes:
    """The texts of word columns (such as `formatted`'s, or the columns
    of a `words` matrix) set side by side, row after row: the bytes of
    their words without the zero bytes. The (rows x words) matrix is
    allocated once and each column written into it; `columns` is emptied
    once the matrix is filled, and the matrix is dropped once its bytes
    are copied, so at most two copies of the text are held at once."""
    (n,) = np.broadcast_shapes(*map(np.shape, columns))
    rows = np.empty((n, len(columns)), np.uint32)
    for j in range(len(columns)):  # no loop variable keeps a column alive
        rows[:, j] = columns[j]
    columns.clear()
    text = rows.tobytes()
    del rows
    return text.translate(None, b"\0")
