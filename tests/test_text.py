"""The column formatters of `inertonsim._text` against Python's own, byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inertonsim import _text
from inertonsim.lagrangian import ELResidualReport, write_el_csv


def rendered(render, values) -> bytes:
    return _text.rows([render(np.asarray(values, dtype=np.float64))], end=b"\n")


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
    x = np.array([1.0, -2.5, 0.1])
    y = np.array([3.0, math.nan, 1e-7])
    flags = np.array([0, 1, 0])
    text = _text.rows([_text.g17(x), _text.g17(y), _text.flags(flags)])
    assert text == b"1,3,0\n-2.5,nan,1\n0.10000000000000001,9.9999999999999995e-08,0\n"
    assert _text.rows([_text.f2(x), _text.f2(y)], end=b" ") == b"1.00,3.00 -2.50,nan 0.10,0.00 "


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
