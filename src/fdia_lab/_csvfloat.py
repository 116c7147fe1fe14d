"""The float kernel of simloop.write_csv: the bytes "%.17g" % v writes, for whole arrays.

write_csv imports this module on its first array write, so importing the
package compiles none of it and builds none of its tables.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# For finite x with E = floor(log10|x|) in [-11, 16], the 17 significant digits
# are rint(z), z = |x| * 10**(16 - E), with z in [1e16, 1e17]. Every 10**k with
# k <= 27 is exact in a 64-bit significand (5**27 < 2**64), so z is one rounded
# long double product, off by at most 1e17 * 2**-64 < 0.0055; a z at least
# 0.006 from a rounding tie therefore rounds to the true digits, half to even
# as "%.17g" does. log10 only seeds E: a z outside [1e16, 1e17] moves E by one
# and is recomputed, and a rint(z) of 1e17 is 1e16 one exponent up. So no byte
# depends on how numpy computes log10. Every other nonzero value, and every one
# when long double has no 64-bit significand, takes "%.17g" % v.
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
_E_LO, _E_HI = -11, 16
_BLOCK_ROWS = 256
_GATHER = 1024  # values per layout gather
_WIDTH = 25  # cell bytes: the widest "%.17g" text (24) and its separator

# Each value gets 28 source bytes, written as seven 4-byte words: NUL, NUL,
# NUL, digit 0; digits 1-16; ".0-e"; exponent sign, exponent digits, separator.
# A cell gathers its value's source bytes through the layout of its exponent,
# count of significant digits and sign, padded with NUL, which is then dropped.
_DIGIT0, _DOT, _ZERO, _MINUS, _EXP, _SEP = 3, 20, 21, 22, 23, 27


def _words(*rows: bytes) -> np.ndarray:
    """Rows of four bytes as 4-byte words, in the machine's byte order."""
    return np.frombuffer(b"".join(rows), np.uint32)


class _Tables(NamedTuple):
    pow10: np.ndarray  # 10**0..10**27 as long doubles
    digits4: np.ndarray  # per 4-digit group, its digits as one word
    trailing4: np.ndarray  # per 4-digit group, its count of trailing zeros
    exponents: np.ndarray  # per exponent -11..17, its "e±XX" word
    lead: np.ndarray  # per lead digit, its word
    punct_seps: np.ndarray  # the ".0-e" word, then the "," and "\n" words
    layouts: np.ndarray  # per (exponent, significant digits, sign), a cell's source bytes


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on its first use."""
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint8).reshape(100, 2)
    digits = np.hstack([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))])
    ends = np.hstack([digits[:, ::-1], np.ones((10000, 1), np.uint8)])
    x = range(_E_LO, _E_HI + 2)  # a rounded exponent is at most E + 1
    layouts = b"".join(_layout(k, nd, neg) for k in x for nd in range(1, 18) for neg in (0, 1))
    return _Tables(
        pow10=np.concatenate([[1], np.cumprod(np.full(27, 10, dtype=np.longdouble))]),
        digits4=_words(digits.tobytes()),
        trailing4=np.argmax(ends != ord("0"), axis=1).astype(np.uint8),
        exponents=_words(*(b"%s%02d\0" % (b"-" if k < 0 else b"+", abs(k)) for k in x)),
        lead=_words(*(b"\0\0\0%d" % d for d in range(10))),
        punct_seps=_words(b".0-e", b"\0\0\0,", b"\0\0\0\n"),
        layouts=np.frombuffer(layouts, np.uint8).reshape(-1, _WIDTH),
    )


def _layout(x: int, nd: int, negative: int) -> bytes:
    """Source byte of each cell position for nd significant digits at exponent x.

    "%.17g" writes the digits b = "0" * lz + the significant digits, split
    after `point` of them by a "." when more follow: fixed form for exponents
    -4..16 (point x + 1 with zeros up to it, or lz = -x and point 1 below 0),
    else d.ddde±XX.
    """
    digits = list(range(_DIGIT0, _DIGIT0 + 17))
    fixed = -4 <= x < 17
    if fixed and x >= 0:
        b, point = digits[:max(nd, x + 1)], x + 1
    else:
        b, point = [_ZERO] * (-x if fixed else 0) + digits[:nd], 1
    cell = [_MINUS] * negative + b[:point] + ([_DOT] + b[point:] if len(b) > point else [])
    cell += [] if fixed else [_EXP, _EXP + 1, _EXP + 2, _EXP + 3]
    return bytes(cell + [_SEP]).ljust(_WIDTH, b"\0")


def _significands(v: np.ndarray, pow10: np.ndarray):
    """(ok, m, x): where ok, "%.17g" % v writes the 17 digits of m at exponent x.

    m and x are 0 where not ok, so that a 0 writes as "0".
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(np.abs(v)))
    ok = (e >= _E_LO) & (e <= _E_HI) & _EXTENDED
    e = np.where(ok, e, 0).astype(np.intp)
    a = np.where(ok, np.abs(v), 1.0).astype(np.longdouble)
    z = a * pow10[16 - e]
    high = z > 1e17
    redo = np.flatnonzero(high | (z < 1e16))
    if redo.size:
        e[redo] += np.where(high[redo], 1, -1)
        ok[redo] = (e[redo] >= _E_LO) & (e[redo] <= _E_HI)
        out = redo[~ok[redo]]
        e[out], a[out] = 0, 1.0
        z[redo] = a[redo] * pow10[16 - e[redo]]
        ok[redo] &= (z[redo] >= 1e16) & (z[redo] <= 1e17)
    m = z.astype(np.int64)  # floor: z >= 0
    frac = (z - m).astype(np.float64)  # z - m is exact; as a float64 at most 2**-54 off
    ok &= abs(frac - 0.5) > 0.006
    m += frac > 0.5
    top = m == 10**17
    m[top] = 10**16
    m[~ok] = 0
    return ok, m, np.where(ok, e + top, 0)


def _source(m: np.ndarray, x: np.ndarray, cols: int, tables: _Tables):
    """Each value's 28 source bytes, and its count of significant digits."""
    digits4, trailing4 = tables.digits4, tables.trailing4
    words = np.empty((m.size, 7), np.uint32)
    lead, m = np.divmod(m, 10**16)
    g1, m = np.divmod(m, 10**12)
    g2, m = np.divmod(m, 10**8)
    g3, g4 = np.divmod(m, 10**4)
    words[:, 0] = tables.lead[lead]
    words[:, 1] = digits4[g1]
    words[:, 2] = digits4[g2]
    words[:, 3] = digits4[g3]
    words[:, 4] = digits4[g4]
    words[:, 5] = tables.punct_seps[0]
    seps = tables.punct_seps[np.where(np.arange(cols) < cols - 1, 1, 2)]
    words[:, 6] = (tables.exponents[x - _E_LO].reshape(-1, cols) | seps).ravel()
    trailing = trailing4[g4]
    zeros = g4 == 0
    for g in (g3, g2, g1):
        trailing += zeros * trailing4[g]
        zeros &= g == 0
    return words.view(np.uint8), 17 - trailing


def write_array(fh, array: np.ndarray) -> None:
    """Write a 2-D float64 array's rows to a binary file in blocks of _BLOCK_ROWS rows."""
    for start in range(0, len(array), _BLOCK_ROWS):
        fh.write(_format_block(array[start:start + _BLOCK_ROWS]))


def _format_block(block: np.ndarray) -> bytes:
    """The bytes "%.17g" writes for a float64 block, "," between values, "\n" after rows."""
    tables = _tables()
    cols = block.shape[1]
    v = block.ravel()
    ok, m, x = _significands(v, tables.pow10)
    src, nd = _source(m, x, cols, tables)
    key = ((x - _E_LO) * 17 + nd - 1) * 2 + np.signbit(v)
    cells = np.empty((v.size, _WIDTH), np.uint8)
    at = np.arange(0, _GATHER * src.shape[1], src.shape[1])[:, None]
    for start in range(0, v.size, _GATHER):  # the index array stays _GATHER * _WIDTH intp
        stop = min(start + _GATHER, v.size)
        np.take(src[start:stop].ravel(), tables.layouts[key[start:stop]] + at[:stop - start],
                out=cells[start:stop])
    rest = np.flatnonzero(~ok & (v != 0))
    if rest.size:
        last = (rest % cols == cols - 1).tolist()
        text = [("%.17g\n" if end else "%.17g,") % f for f, end in zip(v[rest].tolist(), last)]
        cells[rest] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    flat = cells.ravel()
    return flat[flat != 0].tobytes()
