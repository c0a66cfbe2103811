"""Byte-exact decimal text for float64 values, rendered a whole block at a time.

`g17` renders each value with the bytes of ``format(v, ".17g")`` and `f2`
with those of ``"%.2f" % v``; `rows` renders a ``(rows, k)`` block in
row-major order into lines, and `write_csv` streams a CSV through it in
chunks of about `CHUNK_ROWS` values.

A rendered array is an ``(n, width)`` uint8 array. Row ``i`` holds the
text of value ``i`` in fixed slots (sign, ``0.000`` prefix, digits, point,
exponent) with NUL in every slot the text does not use, and its last byte
is a NUL that `rows` overwrites with the field separator. Rendered in
row-major order, a block's text reshaped to ``(rows, k width)`` already has
the row layout, so joining is one strided assignment of the separators and
one deletion of the NULs, with no Python loop per value. The slots are
filled eight bytes at a time as uint64 words, and digits are made eight at
a time in a word's byte lanes (`_swar8`).

The digits come from wide arithmetic. ``%.17g`` needs ``round(|v| 10^k)``
for the ``k`` that puts it in ``[1e16, 1e17)``; the product is formed in
float64 double-double (Dekker's exact product against a two-double table
of ``10^k``), whose error bound is stated at `_G17_WINDOW`. It needs no
extended precision, so the kernel is the same on every IEEE-754 platform.
``%.2f`` needs ``round(|v| 100)``, one float64 product within ``eps`` of
the exact value. Python rounds the exact binary value half to even; wherever the wide
result lies within its error bound of a rounding tie (or of a decade
boundary), the value goes to Python's own formatter instead, as do zeros,
infinities and NaN. Exact ties, such as ``2.0**-25`` at 17 digits or
``0.125`` at two decimals, are always among them, so the output is
byte-identical for every double.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CHUNK_ROWS", "g17", "f2", "flags", "rows", "write_csv"]

# Values rendered per chunk by `write_csv` (``CHUNK_ROWS // k`` rows of
# ``k`` columns): enough to amortise the per-call cost of the numpy passes,
# few enough that a chunk's temporaries stay a few MB however long the run.
CHUNK_ROWS = 8192

_EPS = np.finfo(np.float64).eps          # 2u, u the unit roundoff of float64
_SPLIT = float(2**27 + 1)                # Dekker's splitter for 53-bit doubles
_K_MIN, _K_MAX = -292, 340               # 10^k scales 1.8e308 .. 4.9e-324 to 17 digits
_LO17, _HI17 = 1.0e16, 1.0e17            # 17-digit integers; both exact in float64

# Error bound of the scaled value ``s = |v| 10^k < 2^57`` (see `_round17`).
# With u = eps/2: the table holds 10^k = 2^b (hi + lo) to within u^2
# relative; Dekker's product m*hi = p + err is exact; m*lo and err + m*lo
# each add at most 4u^2 relative (m in [0.5, 1), hi in [1, 2)); scaled by
# 2^(q+b) <= 2 s that is at most 16 u^2 s = 4 eps^2 s. Summing the
# fraction r = (S - floor(S)) + s_lo, |r| <= 65, rounds once more by at
# most 33 eps. The window is twice that total, about 7e-14 of a unit in
# the 17th digit.
_G17_WINDOW = 2.0 * (4.0 * _EPS * _EPS * 2.0**57 + 33.0 * _EPS)

_ASCII0 = 0x3030303030303030             # "0" in every byte lane
_MINUS, _DOT = ord("-"), ord(".")
_ALL = ~np.uint64(0)


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """Make cached tables read-only: every caller shares them."""
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """Columns ``b, hi, hi_head, hi_tail, lo`` indexed by ``k - _K_MIN``.

    ``10^k = 2^b (hi + lo)`` with ``hi`` the double nearest the mantissa in
    ``[1, 2]`` and ``lo`` the double nearest the remainder, both from exact
    integer division; ``hi_head + hi_tail`` is Dekker's split of ``hi``.
    Built on first use (a few ms), never at import.
    """
    b = np.empty(_K_MAX - _K_MIN + 1, dtype=np.int64)
    hi = np.empty(len(b))
    lo = np.empty(len(b))
    one = 1 << 52
    for row, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = num.bit_length() - den.bit_length()
        if (num << max(-shift, 0)) < (den << max(shift, 0)):
            shift -= 1
        num, den = (num << -shift, den) if shift < 0 else (num, den << shift)
        b[row] = shift
        hi[row] = num / den                                   # correctly rounded
        lo[row] = (num * one - int(hi[row] * one) * den) / (den * one)
    c = _SPLIT * hi
    head = c - (c - hi)
    return _frozen(b, hi, head, hi - head, lo)


@functools.cache
def _layout_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of the ``%.17g`` layout, built on first use.

    By decade class ``clip(e + 5, 0, 22)``: the digit ``p`` the point
    follows (17: no point, for ``0.000ddd``) and the ``0.000`` prefix
    word. By ``e + 400``: the exponent suffix word, empty where ``%g`` uses
    fixed notation (-4 <= e <= 16). By ``p * 18 + nd``, ``nd`` the digits
    up to the last nonzero one, three words each of: the mask of the
    integer digits, the mask of the fraction digits one byte on, and the
    point.
    """
    e = np.arange(-5, 18)
    fixed = (e >= -4) & (e <= 16)
    point = np.where(fixed & (e >= 0), e, np.where(fixed, 17, 0))
    prefix = np.zeros(len(e), dtype=np.uint64)
    for n_zeros in range(4):                                  # e = -1 .. -4
        prefix[4 - n_zeros] = int.from_bytes(b"\0" + b"0." + b"0" * n_zeros, "little")
    suffix = [b"" if -4 <= x <= 16 else b"e%+03d" % x for x in range(-400, 400)]
    exponent = np.frombuffer(b"".join(x.ljust(8, b"\0") for x in suffix), dtype=np.uint64)

    p, nd = np.divmod(np.arange(18 * 18)[:, None], 18)
    j = np.arange(24)
    integer = j < np.where(p == 17, nd, p + 1)
    fraction = (j >= p + 2) & (j <= nd)
    dot = (j == p + 1) & (nd > p + 1)
    layout = np.hstack([integer * np.uint8(0xFF), fraction * np.uint8(0xFF), dot * np.uint8(_DOT)])
    return _frozen(point, prefix, exponent, layout.view(np.uint64).T.copy())


def _swar8(x: np.ndarray) -> np.ndarray:
    """Eight decimal digits (values 0-9, first digit in the low byte) of
    each uint64 below 1e8, by splitting lanes: 32-bit, 16-bit, 8-bit."""
    top = x // 10000
    x = top | ((x - top * 10000) << 32)
    q = ((x * 5243) >> 19) & 0x0000007F0000007F            # lane // 100, exact below 1e4
    x = q | ((x - q * 100) << 16)
    q = ((x * 103) >> 10) & 0x000F000F000F000F              # lane // 10, exact below 100
    return q | ((x - q * 10) << 8)


def _digits17(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits 0-7, 8-15 and 16 of uint64s below 1e17, zero-padded to 17,
    as three words of byte lanes (values 0-9, not yet ASCII)."""
    lead = D // 10**16
    rest = D - lead * 10**16
    top = rest // 10**8
    hi = _swar8(top)
    lo = _swar8(rest - top * 10**8)
    return lead | (hi << 8), (hi >> 56) | (lo << 8), lo >> 56


def _byte_length(w: np.ndarray) -> np.ndarray:
    """Bytes up to and including the highest nonzero byte of each word.

    A word of digit lanes is below 10 * 2^(8 (n - 1)), far from the next
    power of two, so rounding it to float64 keeps its bit length."""
    return (np.frexp(w.astype(np.float64))[1] + 7) >> 3


def _round17(a: np.ndarray):
    """``(D, e, ok)`` with ``D = round(a 10^(16-e))`` in ``[1e16, 1e17)``.

    ``a`` must be positive and finite. ``ok`` is false wherever the
    double-double result lies within `_G17_WINDOW` of a rounding tie or of
    a decade boundary; there ``D`` is set to 1e16 and ``e`` means nothing.
    """
    b, hi, hh, hl, lo = _pow10_table()
    m, q = np.frexp(a)                                   # a = m 2^q exactly
    e = np.floor(np.log10(a)).astype(np.int64)           # the decade, maybe one off
    k = 16 - _K_MIN - e
    hi, hh, hl, lo = hi[k], hh[k], hl[k], lo[k]
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    p = m * hi
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # m*hi - p, exactly
    # 2^(q+b) with q+b in 53..57, so that S = p 2^(q+b) lies in [1e16, 1e17)
    scale = ((q + b[k] + 1023) << 52).view(np.float64)
    S = p * scale
    whole = np.floor(S)
    r = (S - whole) + (err + m * lo) * scale
    frac = r - np.floor(r)
    ok = (
        (np.abs(frac - 0.5) > _G17_WINDOW)
        & ((whole - _LO17) + r > _G17_WINDOW)
        & ((_HI17 - 1.0 - whole) - r > _G17_WINDOW)
    )
    # whole ~ 1e16 is past 2^53, so the sum is taken in integers
    D = whole.astype(np.int64) + np.rint(r).astype(np.int64)
    D[~ok] = 10**16
    return D.view(np.uint64), e, ok


def _fallback(text: np.ndarray, values: np.ndarray, todo: np.ndarray, fmt: str) -> np.ndarray:
    """Put Python's rendering ``fmt % v`` into the rows of ``values[todo]``,
    widening every row if one rendering needs more bytes."""
    idx = np.flatnonzero(todo)
    if not idx.size:
        return text
    bits, inverse = np.unique(values[idx].view(np.uint64), return_inverse=True)
    strings = [(fmt % v).encode() for v in bits.view(np.float64).tolist()]
    width = max(text.shape[1], max(len(t) for t in strings) + 1)   # keep a NUL last
    if width > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in strings), dtype=np.uint8)
    text[idx] = table.reshape(-1, width)[inverse]
    return text


def g17(col) -> np.ndarray:
    """Render a float64 column as ``format(v, ".17g")`` does, value by value.

    Four words (32 bytes) per value: sign and ``0.000`` prefix; then the
    integer digits, the point and the fraction digits (18 bytes), the
    exponent suffix and the separator slot.
    """
    v = np.ascontiguousarray(col, dtype=np.float64)
    with np.errstate(all="ignore"):
        a = np.abs(v)
        finite = np.isfinite(a) & (a > 0.0)
        a[~finite] = 1.0
        D, e, ok = _round17(a)
    ok &= finite
    d0, d1, d2 = _digits17(D)
    nd = np.maximum(_byte_length(d0), (_byte_length(d1) + 8) * (d1 != 0))
    nd = np.maximum(nd, 17 * (d2 != 0))
    point, prefix, exponent, layout = _layout_tables()
    cls = np.clip(e + 5, 0, 22)
    sel = point[cls] * 18 + nd
    d0 |= _ASCII0
    d1 |= _ASCII0
    d2 |= ord("0")
    # the fraction digits move one byte on to make room for the point
    shifted = (d0 << 8, (d1 << 8) | (d0 >> 56), (d2 << 8) | (d1 >> 56))
    out = np.empty((len(v), 4), dtype=np.uint64)
    out[:, 0] = prefix[cls] | np.signbit(v) * np.uint64(_MINUS)
    for w, digits in enumerate((d0, d1, d2)):
        out[:, w + 1] = (digits & layout[w][sel]) | (shifted[w] & layout[w + 3][sel]) | layout[w + 6][sel]
    out[:, 3] |= exponent[e + 400] << 16
    return _fallback(out.view(np.uint8), v, ~ok, "%.17g")


def f2(col) -> np.ndarray:
    """Render a float64 column as ``"%.2f" % v`` does, value by value.

    ``s = |v| 100`` is one float64 product, within ``eps s`` of the exact
    value, so its rounding is exact unless the fraction of ``s`` is within
    ``eps s`` of one half. Values that round to 1e6 or more go to Python
    too. Twelve bytes per value: sign, six integer digits, point, two
    decimals, NUL, separator slot.
    """
    v = np.ascontiguousarray(col, dtype=np.float64)
    with np.errstate(all="ignore"):
        s = np.abs(v) * 100.0
        ok = (np.abs(s - np.floor(s) - 0.5) > _EPS * s) & (s < 99999999.5)   # false for inf, nan
    s[~ok] = 0.0
    digits = _swar8(np.rint(s).astype(np.uint64))
    # integer digits 0-5 start at the first nonzero one; the units digit stays
    low = digits | (1 << 40)
    lead = (np.frexp((low & (~low + 1)).astype(np.float64))[1] - 1) & ~7
    integer = ((digits | _ASCII0) & (_ALL << lead.astype(np.uint64))) << 8
    head = (integer & 0x00FFFFFFFFFFFFFF) | np.signbit(v) * np.uint64(_MINUS) | (_DOT << 56)
    out = np.empty((len(v), 3), dtype=np.uint32)
    out[:, :2] = head.view(np.uint32).reshape(-1, 2)
    out[:, 2] = ((digits | _ASCII0) >> 48).astype(np.uint32)
    return _fallback(out.view(np.uint8), v, ~ok, "%.2f")


def flags(col) -> np.ndarray:
    """Render a column of 0/1 flags as ``"%d"``."""
    digit = (np.asarray(col) != 0).astype(np.uint8) + ord("0")
    return np.stack([digit, np.zeros_like(digit)], axis=1)


def rows(render, block: np.ndarray, end: bytes = b"\n", tail=None) -> bytes:
    """The ``(rows, k)`` float block ``block`` as text lines: each row's
    values rendered by ``render`` (`g17` or `f2`), a comma between fields,
    then, if ``tail`` is given, the row's 0/1 flag from ``tail`` (`flags`),
    and the one-byte ``end`` after each row."""
    n, k = block.shape
    text = render(block.ravel())                     # row-major: row i is values i k .. i k + k - 1
    width = text.shape[1]
    text = text.reshape(n, k * width)
    if tail is not None:
        text = np.concatenate([text, flags(tail)], axis=1)
    text[:, width - 1:k * width:width] = ord(",")
    text[:, -1] = ord(end)
    return text.tobytes().translate(None, b"\0")


def write_csv(path, header: str, columns, flag_col) -> None:
    """Write ``header`` and one ``%.17g,...,%d`` row per flag: the ``k``
    float columns that ``columns(chunk)`` returns for a slice of rows (``k``
    is the header's field count less the flag's), then the 0/1 flags,
    streamed ``CHUNK_ROWS // k`` rows at a time, each chunk stacked into one
    block for `rows`."""
    step = CHUNK_ROWS // header.count(",")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(flag_col), step):
            chunk = slice(lo, lo + step)
            fh.write(rows(g17, np.stack(columns(chunk), axis=1), tail=flag_col[chunk]))
