"""The column formatters of `inertonsim._text` against Python's own, byte for byte."""

import math
import os
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inertonsim import _text
from inertonsim.lagrangian import ELResidualReport, write_el_csv


def rendered(render, values) -> bytes:
    return _text.rows(render, np.asarray(values, dtype=np.float64)[:, None])


def reference(fmt, values) -> bytes:
    return "".join(format(float(v), fmt) + "\n" for v in values).encode()


def ulp_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


EDGE = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1e100, 1e-100, 1.5e-200, 9.99e299,
    2.0**-25, 0.125, 2.675, 0.005, 0.015, 1.005, 0.5, 1.5, 2.5,
    1.0, 10.0, 1e16, 1e17, 1e-4, 1e-5, 9.9999999999999995e-5, 123456789012345678.0,
    4503599627370495.5, 2.0**53, 2.0**63, 1e6, 999999.995, -999999.995,
]


@pytest.mark.parametrize("render, fmt", [(_text.g17, ".17g"), (_text.f2, ".2f")])
def test_edge_cases_and_exact_ties(render, fmt):
    # 2**-25 ends in ...3125 at 17 digits; 0.125 is a tie at two decimals
    values = ulp_neighbours(EDGE + [k / 100 for k in range(-1000, 1001)])
    assert rendered(render, values) == reference(fmt, values)


@pytest.mark.parametrize("render, fmt", [(_text.g17, ".17g"), (_text.f2, ".2f")])
def test_every_decade_and_its_neighbours(render, fmt):
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = ulp_neighbours(powers + [float(f"5e{k}") for k in range(-323, 308)])
    assert rendered(render, values) == reference(fmt, values)


@pytest.mark.parametrize("render, fmt", [(_text.g17, ".17g"), (_text.f2, ".2f")])
def test_random_bit_patterns(render, fmt):
    rng = np.random.default_rng(20011)
    bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(30_000) * 10.0 ** rng.integers(-20, 20, 30_000)
    for values in (bits, scaled, rng.random(30_000) * 760.0):
        assert rendered(render, values) == reference(fmt, values)


def near_ties(bits):
    """Doubles ``v = j 2^-(k + bits)`` whose 17-digit scaled value ``v 10^k``
    lies 2^-bits above or below a rounding tie: closer than the rounding
    error of the double-double product, so only the fallback gets them right."""
    out = []
    for k in range(1, 40):
        for delta in (1, -1):
            j = (2 ** (bits - 1) + delta) * pow(5**k, -1, 2**bits) % 2**bits
            for j in range(j, 2**53, 2**bits):
                v = j / 2 ** (k + bits)                        # exact: j < 2^53
                if 10**16 <= Fraction(v) * 10**k < 10**17:
                    out.append(v)
    return out


def test_g17_near_ties_go_to_python():
    values = near_ties(48) + near_ties(50) + near_ties(52)
    assert len(values) > 40
    assert rendered(_text.g17, values) == reference(".17g", values)


def _first_multiple(a, n, lo, hi):
    """The smallest ``x >= 0`` with ``lo <= a x mod n <= hi`` (``0 <= lo <=
    hi < n``), or None. Euclid's algorithm on the modulus, as in the
    continued-fraction search for hard decimal conversions of V. Paxson, "A
    Program for Testing IEEE Decimal-Binary Conversion" (1991): when no
    multiple of ``a`` lies in ``[lo, hi]``, ``a x - n y`` lands there for the
    fewest wraps ``y``, which solve the same problem modulo ``a``."""
    if lo == 0:
        return 0
    a %= n
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _first_multiple(n % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + n * y) // a)


# 2^-45, about 2.8e-14 of a unit in the 17th digit: less than half of the
# error window that `_text._round17` states (about 7.1e-14), so the wide
# product of a value this near a tie lies within the window
NEAR = Fraction(1, 2**45)


def near_ties_in_window():
    """For each decade ``e`` and binary exponent ``q`` whose doubles ``v = m
    2^q`` (``m`` in ``[2^52, 2^53)``) fall in ``[10^e, 10^(e+1))``, the
    smallest ``m`` whose scaled value ``v 10^(16-e) = m 5^(16-e) / 2^d`` lies
    within `NEAR` below a rounding tie, and the smallest above it, but not on
    it. The residues ``m 5^(16-e) mod 2^d`` near ``2^(d-1)`` come from
    `_first_multiple`. Only where ``2^-d <= NEAR`` (``d >= 45``: ``v <
    1e-3``) does such an ``m`` exist; for ``v`` in ``[1, 2)`` the scaled
    values are multiples of ``2^-36``."""
    out = []
    for e in range(-307, 17):
        for q in range(math.floor((e - 1) * math.log2(10)) - 53, math.ceil((e + 1) * math.log2(10)) - 51):
            d = e - 16 - q
            half = math.floor(NEAR * 2**d)
            lo = max(2**52, math.ceil(Fraction(10) ** e / Fraction(2) ** q))
            hi = min(2**53, math.ceil(Fraction(10) ** (e + 1) / Fraction(2) ** q))
            if half < 1 or lo >= hi:
                continue
            n, tie, a = 2**d, 2 ** (d - 1), 5 ** (16 - e)
            start = a * lo % n
            for below, above in ((tie - half, tie - 1), (tie + 1, tie + half)):
                # a (lo + x) mod n in [below, above], split where it wraps past n
                first, last = (below - start) % n, (above - start) % n
                spans = [(first, last)] if first <= last else [(first, n - 1), (0, last)]
                hits = [x for x in (_first_multiple(a, n, *span) for span in spans) if x is not None]
                if hits and lo + min(hits) < hi:
                    out.append(math.ldexp(lo + min(hits), q))
    return out


def test_g17_sends_near_ties_within_its_window_to_python():
    values = near_ties_in_window()
    assert len(values) > 2000
    for v in values[::50]:
        e = math.floor(math.log10(v))
        scaled = Fraction(v) * Fraction(10) ** (16 - e)
        off = scaled - math.floor(scaled) - Fraction(1, 2)
        assert 10**16 <= scaled < 10**17 and 0 < abs(off) <= NEAR, v
    assert not _text._round17(np.array(values))[2].any()
    assert rendered(_text.g17, values) == reference(".17g", values)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
@example([2.0**-25, -0.0, 5e-324, 1e-310, 1.5e-300, math.nan, -math.inf])
def test_g17_matches_format(values):
    assert rendered(_text.g17, values) == reference(".17g", values)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.integers(-10**6, 10**6).map(lambda k: k / 100)),
                min_size=1, max_size=40))
@example([0.125, 2.675, 0.005, -0.005, -0.0, math.nan, math.inf, 1e300])
def test_f2_matches_percent_format(values):
    assert rendered(_text.f2, values) == reference(".2f", values)


def test_rows_joins_fields():
    block = np.array([[1.0, 3.0], [-2.5, math.nan], [0.1, 1e-7]])
    text = _text.rows(_text.g17, block, tail=np.array([0, 1, 0]))
    assert text == b"1,3,0\n-2.5,nan,1\n0.10000000000000001,9.9999999999999995e-08,0\n"
    assert _text.rows(_text.f2, block, end=b" ") == b"1.00,3.00 -2.50,nan 0.10,0.00 "
    assert _text.rows(_text.g17, block[:, :1]) == b"1\n-2.5\n0.10000000000000001\n"


def test_f2_block_whose_fallback_widens_every_row():
    # values past 1e6 and exact ties go to Python's formatter; 1e22 and -1e300
    # need more bytes than the kernel's slots, so every row of the block widens
    block = np.array([[0.125, 1.5e6], [2.675, -0.005], [1e22, 3.0], [-0.0, 999999.995], [-1e300, 0.375]])
    assert _text.f2(block.ravel()).shape[1] > _text.f2(np.zeros(1)).shape[1]
    expected = b"".join(b"%.2f,%.2f " % tuple(row) for row in block.tolist())
    assert _text.rows(_text.f2, block, end=b" ") == expected


# values a CSV block is drawn from besides hypothesis' own: zeros, infinities,
# NaN, exact ties at 17 digits and at two decimals, subnormals
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**-25, 0.125, 2.675, 5e-324, -1e-310, 1.5e-300]


@settings(deadline=None, max_examples=40)
@given(
    k=st.integers(1, 7),
    length=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),
    pool=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=7, length=(2, 1), pool=[], seed=0)
@example(k=1, length=(1, 1), pool=[], seed=1)
def test_write_csv_matches_per_value_format(k, length, pool, seed):
    # 1, step - 1, step, step + 1 and 2 step + 1 rows of k columns, with
    # step = CHUNK_ROWS // k the rows of one chunk
    chunks, extra = length
    n = chunks * (_text.CHUNK_ROWS // k) + extra
    rng = np.random.default_rng(seed)
    values = np.array(pool + _SPECIAL, dtype=np.float64)
    block = values[rng.integers(0, len(values), (n, k))]
    flag_col = rng.integers(0, 2, n).astype(np.uint8)
    header = ",".join(f"c{j}" for j in range(k)) + ",flag"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "block.csv")
        _text.write_csv(path, header, lambda rows, out: np.copyto(out, block[rows]), flag_col)
        with open(path, "rb") as fh:
            written = fh.read()
    lines = [header] + [
        ",".join(format(v, ".17g") for v in row) + f",{flag}" for row, flag in zip(block.tolist(), flag_col.tolist())
    ]
    assert written == ("\n".join(lines) + "\n").encode()


def test_write_el_csv_matches_per_row_formatter(tmp_path):
    n = 2 * _text.CHUNK_ROWS + 17                       # spans three chunks
    rng = np.random.default_rng(5)
    times = np.arange(1, n + 1) * 1.0e-3
    residuals = rng.standard_normal(n) * 10.0 ** rng.integers(-16, 3, n)
    residuals[::97] = math.nan
    residuals[5] = 0.0
    residuals[6] = -0.0
    excluded = rng.random(n) < 0.1
    report = ELResidualReport("particle", times, residuals, excluded, [], float("nan"))
    path = tmp_path / "el.csv"
    write_el_csv(report, path)
    lines = ["t,residual,excluded_flag"]
    for t, r, ex in zip(times, residuals, excluded):
        lines.append(f"{t:.17g},{r:.17g},{1 if ex else 0}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_csv_widens_the_longest_texts_across_chunks(tmp_path):
    # the longest %.17g texts: a 23-byte one fills a slot up to its separator,
    # the 24-byte ones widen every slot of the first chunk and no slot of the second
    longest = [-0.00012345678901234567, -1.2345678901234567e-100, -1.7976931348623157e308, -5e-324]
    assert [len(format(v, ".17g")) for v in longest] == [23, 24, 24, 24]
    k = 3
    step = _text.CHUNK_ROWS // k
    block = np.resize(np.array(longest), (2 * step, k))
    block[step:] = longest[0]
    flag_col = (np.arange(2 * step) % 3 == 0).astype(np.uint8)
    path = tmp_path / "longest.csv"
    _text.write_csv(path, "a,b,c,flag", lambda rows, out: np.copyto(out, block[rows]), flag_col)
    lines = ["a,b,c,flag"] + [
        ",".join(format(v, ".17g") for v in row) + f",{flag}" for row, flag in zip(block.tolist(), flag_col.tolist())
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_csv_memory_does_not_grow_with_the_run(tmp_path):
    # one chunk's values, written again for every chunk, so that only the writer's own memory is traced
    k = 6
    step = _text.CHUNK_ROWS // k
    pattern = np.random.default_rng(7).standard_normal((step, k)) * 10.0 ** np.arange(-12, 6, 3)
    path = tmp_path / "long.csv"

    def traced_peak(chunks):
        flag_col = np.zeros(chunks * step, dtype=np.uint8)   # the flags, 1 B per row, are made before tracing
        flag_col[::97] = 1
        tracemalloc.start()
        try:
            _text.write_csv(path, "a,b,c,d,e,f,flag", lambda rows, out: np.copyto(out, pattern[:len(out)]), flag_col)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)                                          # the kernel's tables, built once
    short, long = traced_peak(2), traced_peak(20)
    assert os.path.getsize(path) > 18 * 100 * step          # a writer that kept the file would hold over 2 MB more
    assert long <= short + 64 * 1024, (short, long)
