"""The float kernel of simloop.write_csv: the bytes "%.17g" % v writes, for whole arrays.

For finite x with E = floor(log10|x|) in [-38, 16], the 17 significant
digits are rint(z), z = |x| * 10**(16 - E), with z in [1e16, 1e17).

Every 10**k with k <= 27 is exact in a 64-bit significand (5**27 < 2**64),
and a long double product rounds with a relative error of at most
u = 2**-64. So:

- for E >= -11 (16 - E <= 27), z is one rounded product, off by at most
  1e17 * u < 0.0055;
- for E < -11, z is |x| * 10**27 rounded, then times the exact
  10**(16 - E - 27) rounded: z*(1 + d1)(1 + d2) with |d1|, |d2| <= u, off by
  at most 1e17 * (2u + u**2) < 0.0109.

The fraction z - floor(z) is exact in long double (z < 2**57) and at most
2**-54 off as a float64. A z more than 0.006 (one product) or 0.012 (two)
from a rounding tie therefore rounds to the true digits, half to even as
"%.17g" does. log10 only seeds E: a floor(z) outside [1e16, 1e17) moves E by
one and is recomputed once, and a rint(z) of 1e17 is 1e16 one exponent up.
So no byte depends on how numpy computes log10. Every other nonzero value,
and every one when long double has no 64-bit significand, takes
"%.17g" % v: in a trace that leaves only the values near a tie.

write_array formats about _BLOCK values at a time, whole rows, so a narrow
table pays the fixed cost of a block as rarely as a wide one. write_csv
imports this module on its first array write, so importing the package
compiles none of it and builds none of its tables.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_EXTENDED = np.finfo(np.longdouble).nmant >= 63
_E_LO, _E_HI = -38, 16
_EXACT = 27  # the largest k with 10**k exact in a 64-bit significand
_BLOCK = 4096  # values per block, whole rows; at least one row
_GATHER = 512  # values per layout gather
_WIDTH = 25  # cell bytes: the widest "%.17g" text (24) and its separator

# Each value gets 28 source bytes, written as seven 4-byte words: NUL, NUL,
# "-" or NUL, digit 0; digits 1-16; ".0\0e"; exponent sign, exponent digits,
# separator. A cell gathers its value's source bytes through the layout of its
# layout class and count of significant digits, padded with NUL, which is then
# dropped with the NUL sign of a positive value. The classes are each
# fixed-form exponent -4..16, and one for every scientific exponent, whose
# "e±XX" is a source word.
_SIGN, _DIGIT0, _DOT, _ZERO, _EXP, _SEP = 2, 3, 20, 21, 23, 27
_FIXED_LO, _FIXED_HI = -4, 16


def _words(*rows: bytes) -> np.ndarray:
    """Rows of four bytes as 4-byte words, in the machine's byte order."""
    return np.frombuffer(b"".join(rows), np.uint32)


class _Tables(NamedTuple):
    high: np.ndarray  # per k = 16 - E, the exact long double 10**min(k, 27)
    low: np.ndarray  # per k, the exact long double 10**max(k - 27, 0)
    guard: np.ndarray  # per k, the distance from a tie that proves the digits
    digits4: np.ndarray  # per 4-digit group, its digits as one word
    trailing4: np.ndarray  # per 4-digit group, its count of trailing zeros
    exponents: np.ndarray  # per exponent -38..17, its "e±XX" word
    lead: np.ndarray  # per lead digit, its word; then each with a "-" sign
    punct_seps: np.ndarray  # the ".0\0e" word, then the "," and "\n" words
    classes: np.ndarray  # per exponent -38..17, 17 * its layout class - 1
    layouts: np.ndarray  # per (layout class, significant digits), a cell's source bytes


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on its first use."""
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint8).reshape(100, 2)
    digits = np.hstack([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))])
    ends = np.hstack([digits[:, ::-1], np.ones((10000, 1), np.uint8)])
    x = range(_E_LO, _E_HI + 2)  # a rounded exponent is at most E + 1
    classes = range(_FIXED_LO - 1, _FIXED_HI + 1)  # the scientific class, then fixed
    layouts = b"".join(_layout(k, nd) for k in classes for nd in range(1, 18))
    pow10 = np.concatenate([[1], np.cumprod(np.full(_EXACT, 10, dtype=np.longdouble))])
    k = np.arange(17 - _E_LO)
    return _Tables(
        high=pow10[np.minimum(k, _EXACT)],
        low=pow10[np.maximum(k - _EXACT, 0)],
        guard=np.where(k <= _EXACT, 0.006, 0.012),
        digits4=_words(digits.tobytes()),
        trailing4=np.argmax(ends != ord("0"), axis=1).astype(np.uint8),
        exponents=_words(*(b"%s%02d\0" % (b"-" if k < 0 else b"+", abs(k)) for k in x)),
        lead=_words(*(b"\0\0%s%d" % (sign, d) for sign in (b"\0", b"-") for d in range(10))),
        punct_seps=_words(b".0\0e", b"\0\0\0,", b"\0\0\0\n"),
        classes=np.array([17 * (k - _FIXED_LO + 1 if _FIXED_LO <= k <= _FIXED_HI else 0) - 1
                          for k in x]),
        layouts=np.frombuffer(layouts, np.uint8).reshape(-1, _WIDTH).astype(np.intp),
    )


def _layout(x: int, nd: int) -> bytes:
    """Source byte of each cell position for nd significant digits at exponent x.

    "%.17g" writes the digits b = "0" * lz + the significant digits, split
    after `point` of them by a "." when more follow: fixed form for exponents
    -4..16 (point x + 1 with zeros up to it, or lz = -x and point 1 below 0),
    else d.ddde±XX.
    """
    digits = list(range(_DIGIT0, _DIGIT0 + 17))
    fixed = _FIXED_LO <= x <= _FIXED_HI
    if fixed and x >= 0:
        b, point = digits[:max(nd, x + 1)], x + 1
    else:
        b, point = [_ZERO] * (-x if fixed else 0) + digits[:nd], 1
    cell = [_SIGN] + b[:point] + ([_DOT] + b[point:] if len(b) > point else [])
    cell += [] if fixed else [_EXP, _EXP + 1, _EXP + 2, _EXP + 3]
    return bytes(cell + [_SEP]).ljust(_WIDTH, b"\0")


def _digits(a: np.ndarray, k: np.ndarray, tables: _Tables):
    """floor(z) and the float64 fraction of z = a * 10**k, one or two rounded products."""
    z = a * tables.high[k] * tables.low[k]
    m = z.astype(np.int64)  # floor: z >= 0
    return m, (z - m).astype(np.float64)  # z - m is exact; as a float64 at most 2**-54 off


def _significands(v: np.ndarray, tables: _Tables):
    """(ok, m, x): where ok, "%.17g" % v writes the 17 digits of m at exponent x.

    m and x are 0 where not ok, so that a 0 writes as "0".
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= _E_LO) & (e <= _E_HI) & _EXTENDED
    k = np.where(ok, 16 - e, 16).astype(np.intp)  # z = a * 10**k
    a = np.where(ok, a, 1.0).astype(np.longdouble)
    m, frac = _digits(a, k, tables)
    under = m < 10**16
    redo = np.flatnonzero(under | (m >= 10**17))
    if redo.size:
        k[redo] += np.where(under[redo], 1, -1)
        ok[redo] = (k[redo] >= 16 - _E_HI) & (k[redo] <= 16 - _E_LO)
        out = redo[~ok[redo]]
        k[out], a[out] = 16, 1.0
        m[redo], frac[redo] = _digits(a[redo], k[redo], tables)
        ok[redo] &= (m[redo] >= 10**16) & (m[redo] < 10**17)
    ok &= abs(frac - 0.5) > tables.guard[k]
    m += frac > 0.5
    top = m == 10**17
    m[top] = 10**16
    return ok, m * ok, (16 - k + top) * ok


def _source(m: np.ndarray, x: np.ndarray, negative: np.ndarray, cols: int, tables: _Tables):
    """Each value's 28 source bytes, and its count of significant digits."""
    digits4, trailing4 = tables.digits4, tables.trailing4
    words = np.empty((m.size, 7), np.uint32)
    lead = m // 10**16
    m = m - lead * 10**16
    g1 = m // 10**12
    m -= g1 * 10**12
    g2 = m // 10**8
    m -= g2 * 10**8
    g3 = m // 10**4
    g4 = m - g3 * 10**4
    words[:, 0] = tables.lead[lead + 10 * negative]
    words[:, 1] = digits4[g1]
    words[:, 2] = digits4[g2]
    words[:, 3] = digits4[g3]
    words[:, 4] = digits4[g4]
    words[:, 5] = tables.punct_seps[0]
    seps = tables.punct_seps[np.where(np.arange(cols) < cols - 1, 1, 2)]
    words[:, 6] = (tables.exponents[x - _E_LO].reshape(-1, cols) | seps).ravel()
    trailing = trailing4[g4]
    zeros = np.flatnonzero(g4 == 0)  # values whose digits so far are all zeros
    for g in (g3, g2, g1):
        trailing[zeros] += trailing4[g[zeros]]
        zeros = zeros[g[zeros] == 0]
    return words.view(np.uint8), 17 - trailing


def write_array(fh, array: np.ndarray) -> None:
    """Write a 2-D float64 array's rows to a binary file in blocks of about _BLOCK values."""
    rows = max(1, _BLOCK // max(1, array.shape[1]))
    for start in range(0, len(array), rows):
        fh.write(_format_block(array[start:start + rows]))


def _format_block(block: np.ndarray) -> bytes:
    """The bytes "%.17g" writes for a float64 block, "," between values, "\n" after rows."""
    tables = _tables()
    cols = block.shape[1]
    v = block.ravel()
    ok, m, x = _significands(v, tables)
    src, nd = _source(m, x, np.signbit(v), cols, tables)
    key = tables.classes[x - _E_LO] + nd  # (class, nd - 1)
    cells = np.empty((v.size, _WIDTH), np.uint8)
    index = np.empty((_GATHER, _WIDTH), np.intp)
    at = np.arange(0, _GATHER * src.shape[1], src.shape[1])[:, None]
    for start in range(0, v.size, _GATHER):
        stop = min(start + _GATHER, v.size)
        idx = index[:stop - start]
        # every index is in range; mode="clip" only spares take() a buffered out
        np.take(tables.layouts, key[start:stop], axis=0, out=idx, mode="clip")
        idx += at[:stop - start]
        np.take(src[start:stop].ravel(), idx, out=cells[start:stop], mode="clip")
    rest = np.flatnonzero(~ok & (v != 0))
    if rest.size:
        last = (rest % cols == cols - 1).tolist()
        text = [("%.17g\n" if end else "%.17g,") % f for f, end in zip(v[rest].tolist(), last)]
        cells[rest] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    flat = cells.ravel()
    return flat[flat != 0].tobytes()
