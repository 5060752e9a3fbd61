"""Exact `%` formatting of numeric columns with numpy.

`formatted` gives, for each entry of an array, the bytes that `fmt % v`
gives, except that every infinity is `inf`, as columns of uint32 words,
with no row matrix of its own; `joined` writes such columns side by side
into one row matrix per call and turns its rows into text. The writers
in `io` and `svg` format and join whole columns with them, with no
Python call per value.

One rule settles each float v under `%.Nf`, with p = |v| * 10**N: the
digit tables where p < 2**52 and p is off a tie (some n + 1/2), shared
`inf` words for the infinities, and `%` for the rest.
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
    Elsewhere one mask settles each value. Let p be `|v| * 10**N`
    rounded to a double:
    - where p < 2**52 and p is not some n + 1/2, the digits are those of
      p rounded to the nearest integer, looked up in the tables. Below
      2**52 every n + 1/2 is a double, and rounding is monotonic, so the
      exact product lies on p's side of each n + 1/2 that p is not: it
      rounds to the same integer, as CPython's correctly rounded `%`
      does. The sign comes from the sign bit, so -0.0 and a negative
      value that rounds to zero keep their "-";
    - every infinity is `inf`, one word per column that they share;
    - the rest (NaN, values past the bound, and the ties, whose exact
      product may lie on either side of p) go through `%` one value at
      a time, and their texts are written into every column, with
      columns of zero words added where a text is the wider.
    """
    values = np.asarray(values)
    places, suffix, tail = _layout(fmt)
    if values.dtype.kind in "iu" and 0 <= values.min(initial=0) \
            and values.max(initial=0) < 2**52:
        # no fraction: each tail word is its digits' zeros, or the suffix
        return (_integer_words(values.astype(np.int64, copy=False))
                + [table[0] for _, _, table in tail])
    x = values.astype(np.float64, copy=False)
    unit = 10**places
    # the arithmetic would warn on NaN, on the infinities and on products
    # past the bound, under `-W error` too; a NaN compares false
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.abs(x)
        p *= unit
        inside = p < 2.0**52
    outside = ~inside
    p[outside] = 0.0  # their digits are not used, and the cast would warn
    nearest = np.rint(p)
    k = nearest.astype(np.int64)
    named = np.isinf(x)
    rest = outside ^ named  # the values `%` formats: every infinity is outside
    nearest -= p
    rest |= np.abs(nearest) == 0.5  # and the ties
    minus = np.signbit(x)
    whole = k // unit
    part = k - whole * unit

    columns = [np.where(minus, _MINUS, 0)] if minus.any() else []
    columns += _integer_words(whole)
    above = 0  # part // (divisor * count): the digits before the word's
    for divisor, count, table in tail:
        if count == 1:  # no digit: a word of the suffix
            columns.append(table[0])
            continue
        high = part // divisor
        columns.append(table[high - above * count])  # high % count
        above = high

    if named.any():  # every column spells inf, the sign's too
        for j, word in enumerate(words([b"inf" + suffix], len(columns))[0]):
            columns[j] = np.where(named, word, columns[j])
    if rest.any():
        texts = words([(fmt % v).encode() for v in values[rest].tolist()], len(columns))
        columns += [0] * (texts.shape[1] - len(columns))
        for j, text in enumerate(texts.T):
            column = np.empty(len(x), np.uint32)
            column[:] = columns[j]
            column[rest] = text
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
