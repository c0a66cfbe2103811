"""Byte-exact decimal text for float64 values, rendered a whole block at a time.

`rows` renders a ``(rows, k)`` float64 block into lines through one of two
kernels, `g17` with the bytes of ``format(v, ".17g")`` per value or `f2`
with those of ``"%.2f" % v``, and `write_csv` streams a CSV through it in
chunks of about `CHUNK_ROWS` values. A kernel takes only that block and the
row buffer that `rows` gives it.

A block's text is one row buffer: a ``(rows, width)`` uint8 array over a
``bytearray``. Row ``i`` holds the ``k`` values of the block's row ``i`` in
fixed slots, 24 bytes each for `g17` and 12 for `f2`, then, for rows that
end in a 0/1 flag, an 8-byte last slot with the flag and the line end. A
slot holds its value's text at fixed places (`_layout_tables`), NUL in
every byte the text does not use, and the field separator in its last
byte; without a flag the line end replaces the separator of the last slot.
So joining a block is one deletion of the NULs, `bytearray.translate` on
the buffer, with no Python loop per value and no copy of the text. `g17`
writes its slots as three uint64 words straight into the buffer's strided
columns, and makes its digits four at a time in a word's byte lanes
(`_lane_table`).

The digits come from wide arithmetic. ``%.17g`` needs ``round(|v| 10^k)``
for the ``k`` that puts it in ``[1e16, 1e17)``; the decade comes from the
binary exponent and one threshold per binade, and the product is formed in
float64 double-double (Dekker's exact product against a two-double table
of ``10^k``), whose error bound is stated at `_G17_WINDOW`. It needs no
extended precision, so the kernel is the same on every IEEE-754 platform.
``%.2f`` needs ``round(|v| 100)``, one float64 product within ``eps`` of
the exact value. Python rounds the exact binary value half to even; wherever the wide
result lies within its error bound of a rounding tie, or rounds to a power
of ten, the value goes to Python's own formatter instead, as do zeros,
infinities, NaN and values with a three-digit exponent. Exact ties, such as
``2.0**-25`` at 17 digits or ``0.125`` at two decimals, are always among
them, so the output is byte-identical for every double. A text too long
for its slot (``-1.2345678901234567e-100`` is 24 bytes) widens every slot
of its block.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CHUNK_ROWS", "g17", "f2", "rows", "write_csv"]

# Values rendered per chunk by `write_csv` (``CHUNK_ROWS // k`` rows of
# ``k`` columns): enough to amortise the per-call cost of the numpy passes,
# few enough that a chunk's temporaries stay a few hundred KB however long
# the run.
CHUNK_ROWS = 8192

_EPS = np.finfo(np.float64).eps          # 2u, u the unit roundoff of float64
_SPLIT = float(2**27 + 1)                # Dekker's splitter for 53-bit doubles
_K_MIN, _K_MAX = -292, 340               # 10^k scales 1.8e308 .. 4.9e-324 to 17 digits
_Q_MIN, _Q_MAX = -1073, 1024             # np.frexp exponents: 5e-324 = 0.5 2^-1073
_LOG10_2 = 0.30102999566398120           # the double nearest log10(2)
_D_MIN, _D_SPAN = 10**16 + 1, 9 * 10**16 - 2   # D in [1e16 + 1, 1e17 - 1]

# Error bound of the scaled value ``s = |v| 10^k < 2^57`` (see `_round17`).
# With u = eps/2: the table holds 10^k = 2^b (hi + lo) to within u^2
# relative; Dekker's product m*hi = p + err is exact; m*lo and err + m*lo
# each add at most 4u^2 relative (m in [0.5, 1), hi in [1, 2)); scaled by
# 2^(q+b) <= 2 s that is at most 16 u^2 s = 4 eps^2 s. The low part r,
# |r| <= 65, is compared with its nearest integer exactly; 33 eps more
# allows for one rounding of a sum of that size. The window is twice that
# total, about 7e-14 of a unit in the 17th digit.
_G17_WINDOW = 2.0 * (4.0 * _EPS * _EPS * 2.0**57 + 33.0 * _EPS)

# Slot bytes per value, and of the flag slot that ends a row of `rows`.
_G17_SLOT, _F2_SLOT, _TAIL = 24, 12, 8
_ROWS = 21 * 18                          # `_layout_tables` rows of the positive values
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
    """``thr`` by binade, ``k`` and ``scale`` by row, and ``scaled`` and
    ``layout`` by ``k``, built on first use (about 10 ms), never at
    import.

    A double ``a = m 2^q`` (``m`` in ``[0.5, 1)``, by `np.frexp`) lies in
    the decade ``e0`` of ``2^(q-1)``, or in ``e0 + 1`` where ``m >=
    thr[q - _Q_MIN]``, the correctly rounded ``10^(e0+1) / 2^q`` (2 where
    the binade holds no power of ten); its row is ``2 (q - _Q_MIN)`` plus
    that bit. A value the threshold's rounding puts in the wrong decade
    gets a ``D`` outside `_round17`'s range, so it goes to Python. For the
    row's decade ``e``, ``k[row]`` is ``16 - e - _K_MIN`` and ``scale[row]``
    is ``2^(q+b)`` (NaN for a three-digit exponent), where ``10^(16-e) =
    2^b (hi + lo)`` with ``hi`` the double nearest the mantissa in ``[1,
    2]`` and ``lo`` the double nearest the remainder, both from exact
    integer division. ``scaled`` holds ``hi, hi_head, hi_tail, lo``, with
    ``hi_head + hi_tail`` Dekker's split of ``hi``. ``layout`` packs the
    decade's `_layout_tables` row for 9 digits (bytes 0-1), the fraction
    digits' shift in bits (byte 2) and the exponent suffix at its place in
    the last slot word (bytes 3-6; none where ``%g`` uses fixed notation,
    -4 <= e <= 16).
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
    scaled = np.stack([hi, head, hi - head, lo], axis=1)
    e = 16 - np.arange(_K_MIN, _K_MAX + 1)                   # the decade of each k
    suffix = [b"" if -4 <= x <= 16 or abs(x) >= 100 else b"e%+03d" % x for x in e.tolist()]
    exponent = np.frombuffer(b"".join(b"\0\0\0" + x.ljust(5, b"\0") for x in suffix), dtype=np.uint64)
    fixed = (e >= -4) & (e <= 16)
    cls = np.where(fixed, np.where(e >= 0, e, 16 - e), 0)
    shift = np.where(fixed & (e < 0), 48, 16)
    layout = exponent | (cls * 18 + 9 | shift << 16).astype(np.uint64)

    q = np.arange(_Q_MIN, _Q_MAX + 1)
    e0 = np.floor((q - 1) * _LOG10_2).astype(np.int64)       # the decade of 2^(q-1)
    thr = np.full(len(q), 2.0)                                # never reached
    for i in np.flatnonzero(np.ceil(q * _LOG10_2) - 1 > e0).tolist():   # 10^(e0+1) < 2^q
        x, e = int(q[i]), int(e0[i]) + 1
        thr[i] = (10 ** max(e, 0) << max(-x, 0)) / (10 ** max(-e, 0) << max(x, 0))   # correctly rounded
    k = np.clip(16 - np.stack([e0, e0 + 1], axis=1).ravel(), _K_MIN, _K_MAX) - _K_MIN
    with np.errstate(over="ignore"):
        scale = np.ldexp(1.0, np.clip(np.repeat(q, 2) + b[k], -1100, 1100).astype(np.intc))
    scale[np.abs(16 - _K_MIN - k) >= 100] = np.nan
    return _frozen(thr, k, scale, scaled, layout)


@functools.cache
def _layout_tables() -> np.ndarray:
    """The words of a `g17` slot, by layout row ``cls * 18 + nd``, plus
    `_ROWS` for a negative value, built on first use: ``[w]`` holds, for
    slot word ``w``, the mask of the integer digits, the mask of the
    fraction digits and the constant bytes.

    ``nd`` counts the digits up to the last nonzero one. The slot has the
    separator in byte 23. Class ``cls = p`` (0-16) has the sign in byte 0
    and puts digit ``j <= p`` at byte ``1 + j``, the point, if any digit
    follows, at ``p + 2`` and digit ``j > p`` at ``2 + j``: fixed notation
    with ``p`` the decade, and the exponent form with ``p = 0`` and its
    suffix in bytes 19-22. Class ``17 + z`` (decade ``-1 - z``) ends the
    sign, ``0.`` and ``z`` zeros at byte 5, so that the NULs before them
    run on from the previous slot's (one run fewer for the deletion), and
    puts digit ``j`` at byte ``6 + j``, all as fraction digits. The
    constant bytes carry the sign, and ASCII ``0`` under each digit, so one
    OR makes the digit lanes text.
    """
    text = np.zeros((3, 2 * _ROWS, 24), dtype=np.uint8)
    integer, fraction, const = text
    for cls in range(21):
        for nd in range(18):
            row = cls * 18 + nd
            if cls <= 16:
                integer[row, 1:cls + 2] = 0xFF
                if nd > cls + 1:
                    const[row, cls + 2] = _DOT
                    fraction[row, cls + 3:nd + 2] = 0xFF
                const[_ROWS + row, 0] = _MINUS
            else:
                z = cls - 17
                const[row, 4 - z:6] = np.frombuffer(b"0." + b"0" * z, dtype=np.uint8)
                fraction[row, 6:6 + nd] = 0xFF
                const[_ROWS + row, 3 - z] = _MINUS
    integer[_ROWS:], fraction[_ROWS:] = integer[:_ROWS], fraction[:_ROWS]
    const[_ROWS:] |= const[:_ROWS]
    const |= (integer | fraction) & ord("0")
    const[:, 23] = ord(",")
    # by slot word, rows of four words (one numpy take each): mask, mask, const, 0
    table = np.zeros((3, 2 * _ROWS, 4), dtype=np.uint64)
    table[..., :3] = text.view(np.uint64).transpose(2, 1, 0)
    return _frozen(table)[0]


@functools.cache
def _lane_table() -> np.ndarray:
    """Four decimal digits of each integer below 1e4 (values 0-9, first
    digit in the low byte) in a uint64, built on first use."""
    i = np.arange(10000, dtype=np.uint16)
    digits = np.zeros((len(i), 8), dtype=np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        digits[:, j] = i // unit % 10
    return _frozen(digits.view(np.uint64).ravel())[0]


def _digits8(x: np.ndarray) -> np.ndarray:
    """Eight decimal digits (values 0-9, first digit in the low byte) of
    each uint64 below 1e8, four at a time from `_lane_table`."""
    quads = np.empty((2, *x.shape), dtype=np.uint64)
    np.floor_divide(x, 10000, out=quads[0])
    np.subtract(x, quads[0] * 10000, out=quads[1])
    lanes = np.take(_lane_table(), quads.view(np.intp), out=quads, mode="clip")
    lanes[1] <<= 32
    return lanes[0] | lanes[1]


def _digits17(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digit 0 of uint64s below 1e17, zero-padded to 17, then digits 1-8
    and 9-16 as two words of byte lanes (values 0-9, not yet ASCII)."""
    lead = D // 10**16
    rest = lead * 10**16
    np.subtract(D, rest, out=rest)
    halves = np.empty((2, *D.shape), dtype=np.uint64)
    np.floor_divide(rest, 10**8, out=halves[0])
    np.subtract(rest, halves[0] * 10**8, out=halves[1])
    hi, lo = _digits8(halves)
    return lead, hi, lo


def _byte_length(w: np.ndarray) -> np.ndarray:
    """Bytes up to and including the highest nonzero byte of each word.

    A word of digit lanes is below 10 * 2^(8 (n - 1)), far from the next
    power of two, so rounding it to float64 keeps its bit length."""
    return (np.frexp(w.astype(np.float64))[1] + 7) >> 3


def _round17(a: np.ndarray):
    """``(D, lay, ok)`` with ``D = round(a 10^(16-e))`` in ``[1e16, 1e17)``
    for the decade ``e`` of each ``a >= 0``, and ``lay`` its `_pow10_table`
    layout row.

    ``S = p 2^(q+b)`` is an integer (``p`` has 53 bits and ``q + b >=
    53``), so ``D`` is ``S`` plus the rounded low part ``r``. ``ok`` is
    false wherever ``r`` lies within `_G17_WINDOW` of a rounding tie, or
    ``D`` is not in ``[1e16 + 1, 1e17 - 1]``: there ``D`` means nothing. A
    decade off by one, a zero, an infinity or NaN gives such a ``D``, and
    so does a value that rounds to a power of ten; a three-digit exponent
    gives a NaN scale.
    """
    thr, decades, scales, scaled, layout = _pow10_table()
    m, q = np.frexp(a)                                   # a = m 2^q exactly
    row = q.astype(np.intp)
    row -= _Q_MIN
    bit = m >= thr[row]
    row += row
    row += bit
    k = decades[row]
    hi, hh, hl, lo = np.moveaxis(np.take(scaled, k, axis=0), -1, 0)
    scale = scales[row]
    with np.errstate(all="ignore"):                      # zeros, infinities and NaN
        mh = _SPLIT * m
        mh -= mh - m
        ml = m - mh
        p = m * hi
        err = mh * hh                                    # m*hi - p, exactly
        err -= p
        t = mh * hl
        err += t
        np.multiply(ml, hh, out=t)
        err += t
        np.multiply(ml, hl, out=t)
        err += t
        r = np.multiply(m, lo, out=t)
        del hi, hh, hl, lo, mh, ml                       # the rows of the table, freed
        r += err
        r *= scale
        p *= scale
        D = p.astype(np.int64)
        rr = np.rint(r)
        D += rr.astype(np.int64)
        r -= rr
        ok = np.abs(r, out=r) < 0.5 - _G17_WINDOW
        ok &= (D - _D_MIN).view(np.uint64) <= _D_SPAN
    return D.view(np.uint64), layout[k], ok


def _fallback(text: np.ndarray, v: np.ndarray, ok: np.ndarray, fmt: str, slot: int) -> np.ndarray:
    """Put Python's rendering ``fmt % x`` into the slot of each value ``x``
    of the ``(n, k)`` block ``v`` that is not ``ok``. ``text`` holds ``k``
    slots of ``slot`` bytes at the start of each row; if one rendering
    needs more bytes, every slot widens, in a copy that is returned."""
    idx = np.flatnonzero(~ok)
    if not idx.size:
        return text
    n, k = v.shape
    bits, inverse = np.unique(v.ravel()[idx].view(np.uint64), return_inverse=True)
    strings = [(fmt % x).encode() for x in bits.view(np.float64).tolist()]
    width = max(slot, max(len(t) for t in strings) + 1)    # keep the separator last
    if width > slot:
        wide = np.zeros((n, text.shape[1] + k * (width - slot)), dtype=np.uint8)
        wide[:, :k * width].reshape(n, k, width)[:, :, :slot - 1] = text[:, :k * slot].reshape(n, k, slot)[:, :, :-1]
        wide[:, width - 1:k * width:width] = ord(",")
        wide[:, k * width:] = text[:, k * slot:]
        text, slot = wide, width
    table = np.frombuffer(b"".join(t.ljust(slot - 1, b"\0") + b"," for t in strings), dtype=np.uint8)
    text[:, :k * slot].reshape(n, k, slot)[np.divmod(idx, k)] = table.reshape(-1, slot)[inverse]
    return text


def _put(word: np.ndarray, sel: np.ndarray, w: int, integer: np.ndarray, fraction: np.ndarray, extra=None) -> None:
    """Write slot word ``w`` of layout rows ``sel`` into ``word``: the
    integer and fraction digit lanes under their masks, ``extra`` (the
    exponent suffix) and the constant bytes."""
    mask_i, mask_f, const, _ = np.moveaxis(np.take(_layout_tables()[w], sel, axis=0), -1, 0)
    integer &= mask_i
    fraction &= mask_f
    integer |= fraction
    if extra is not None:
        integer |= extra
    np.bitwise_or(integer, const, out=word)


def g17(v: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Render float64 values as ``format(v, ".17g")`` does, value by value.

    Row ``i`` of the ``(n, k)`` float64 block ``v`` goes into the first
    ``24 k`` bytes of row ``i`` of ``text``, the row buffer of `rows`.
    Returns ``text``, or a wider copy if a fallback text needs it. Three
    words (24 bytes) per value, laid out by `_layout_tables`.
    """
    # the cached tables are built together on first use, before any of the
    # block's temporaries, so that they pin no freed heap between them
    _pow10_table(), _layout_tables(), _lane_table()
    n, k = v.shape
    words = text.view(np.uint64)[:, :3 * k].reshape(n, k, 3)
    D, lay, ok = _round17(np.abs(v))
    lead, hi, lo = _digits17(D)
    del D
    # the layout row: the decade's, the digits up to the last nonzero one
    # (9 plus those of ``lo``), the sign
    sel = (lay & 0xFFFF).view(np.intp)
    sel += _byte_length(lo)
    sel += np.signbit(v) * _ROWS
    zero = np.flatnonzero(lo == 0)                       # at most 9 digits
    if zero.size:
        hi_z = hi.ravel()[zero]
        sel.ravel()[zero] += np.where(hi_z != 0, 1 + _byte_length(hi_z), lead.ravel()[zero] != 0) - 9
    # digit j at byte 1 + j as an integer digit, and at byte j plus the
    # class's shift as a fraction digit
    a = (lay >> 16) & 0xFF
    b = a + 8
    c = 56 - a
    _put(words[..., 0], sel, 0, (lead << 8) | (hi << 16), (lead << a) | (hi << b))
    _put(words[..., 1], sel, 1, (hi >> 48) | (lo << 16), (hi >> c) | (lo << b))
    _put(words[..., 2], sel, 2, lo >> 48, lo >> c, lay & 0x00FFFFFFFF000000)     # the exponent suffix
    return _fallback(text, v, ok, "%.17g", _G17_SLOT)


def f2(v: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Render float64 values as ``"%.2f" % v`` does, value by value.

    ``s = |v| 100`` is one float64 product, within ``eps s`` of the exact
    value, so its rounding is exact unless the fraction of ``s`` is within
    ``eps s`` of one half. Values that round to 1e6 or more go to Python
    too. ``v``, ``text`` and the return are as for `g17`. Twelve bytes per
    value: sign, six integer digits, point, two decimals, NUL, separator.
    """
    n, k = v.shape
    with np.errstate(all="ignore"):
        s = np.abs(v) * 100.0
        ok = (np.abs(s - np.floor(s) - 0.5) > _EPS * s) & (s < 99999999.5)   # false for inf, nan
    s[~ok] = 0.0
    digits = _digits8(np.rint(s).astype(np.uint64))
    # integer digits 0-5 start at the first nonzero one; the units digit stays
    low = digits | (1 << 40)
    lead = (np.frexp((low & (~low + 1)).astype(np.float64))[1] - 1) & ~7
    integer = ((digits | _ASCII0) & (_ALL << lead.astype(np.uint64))) << 8
    head = (integer & 0x00FFFFFFFFFFFFFF) | np.signbit(v) * np.uint64(_MINUS) | (_DOT << 56)
    words = text.view(np.uint32)[:, :3 * k].reshape(n, k, 3)
    words[..., :2] = head.view(np.uint32).reshape(n, k, 2)
    words[..., 2] = ((digits | _ASCII0) >> 48).astype(np.uint32) | (ord(",") << 24)
    return _fallback(text, v, ok, "%.2f", _F2_SLOT)


_SLOTS = {g17: _G17_SLOT, f2: _F2_SLOT}


def rows(render, block: np.ndarray, end: bytes = b"\n", tail=None) -> bytearray:
    """The ``(rows, k)`` float block ``block`` as text lines: each row's
    values rendered by ``render`` (`g17` or `f2`), a comma between fields,
    then, if ``tail`` is given, the row's 0/1 flag from ``tail``, and the
    one-byte ``end`` after each row. The values are rendered into one row
    buffer, whose NULs are then deleted once."""
    n, k = block.shape
    width = k * _SLOTS[render] + (0 if tail is None else _TAIL)
    buf = bytearray(n * width)
    text = render(block, np.frombuffer(buf, dtype=np.uint8).reshape(n, width))
    if tail is None:
        text[:, -1] = ord(end)
    else:
        text[:, -_TAIL] = np.asarray(tail) != 0
        text[:, -_TAIL] += ord("0")
        text[:, 1 - _TAIL] = ord(end)
    return (buf if text.shape[1] == width else bytearray(text)).translate(None, b"\0")


def write_csv(path, header: str, columns, flag_col) -> None:
    """Write ``header`` and one ``%.17g,...,%d`` row per flag: the ``k``
    float columns that ``columns(chunk, out)`` writes for a slice of rows
    into ``out``, a ``(rows, k)`` float64 block (``k`` is the header's
    field count less the flag's), then the 0/1 flags, streamed
    ``CHUNK_ROWS // k`` rows at a time, each chunk one row buffer of
    `rows`."""
    k = header.count(",")
    step = CHUNK_ROWS // k
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(flag_col), step):
            flags = flag_col[lo:lo + step]
            block = np.empty((len(flags), k))
            columns(slice(lo, lo + step), block)
            fh.write(rows(g17, block, tail=flags))
