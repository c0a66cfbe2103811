"""An ulp-level reference for the run: the exact RK4 map in `decimal`.

Between reflections one RK4 step multiplies the state ``w`` by ``R(-i pi
h)``, the degree-4 Taylor polynomial of ``exp(-i pi h)``, so a segment of
the run is ``R^j w_start``. These tests take that map at 40 digits: pi by
Machin's formula, ``R`` from its five Taylor terms at the run's own float
``h = dt/T`` (converted exactly), and its powers by repeated
multiplication. Against it, the run's samples and its table of step powers
(`dynamics._step_powers`) must hold to `BOUND` units of ``eps = 2^-52`` per
component (``|w| = 1``). A table built by repeated products, a modulus off
by a factor of two in its logarithm, or a turn angle one ulp off each break
that bound, while the registry's oracle tolerance (1e-6) would pass a fault
many orders larger. Nothing here shares code with the program's step map.

Each event time is checked against the exact crossing of the step that
holds it: the root ``s`` of ``Re(R(-i pi s) w_i) = 0``, solved by Newton in
`decimal` from the program's own start sample ``w_i``. Event location
stops at ``|x| <= EVENT_X_TOL Lam``, which places the event within
``EVENT_X_TOL T / |U|`` of the root, where ``U`` is the exact ``Im`` there;
the time ``i dt + s T`` adds a few ulp of rounding.
"""

import decimal
import math

import pytest

from inertonsim import dynamics, integrate

# 40 significant digits: the rounding of 4,000 decimal products is far below
# one eps of float64.
CONTEXT = decimal.Context(prec=40)
EPS = decimal.Decimal(2) ** -52
# The bound in eps, per component. The program's largest deviation is 2.53
# eps, at T/125. A turn angle one ulp too large reads 3.43 eps at T/1000, one
# ulp too small 4.46 at T/125, so a bound of 4 would pass the first.
BOUND = 3


def _arctan_inverse(x: int) -> decimal.Decimal:
    """``arctan(1/x)`` by its Taylor series."""
    total, power, k = decimal.Decimal(0), decimal.Decimal(1) / x, 0
    while True:
        term = power / (2 * k + 1)
        if term < decimal.Decimal(10) ** -(CONTEXT.prec + 2):
            return total
        total += -term if k % 2 else term
        power /= x * x
        k += 1


with decimal.localcontext(CONTEXT):
    PI = 16 * _arctan_inverse(5) - 4 * _arctan_inverse(239)  # Machin's formula


def _factor(s: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """``R(-i pi s) = 1 - z^2/2 + z^4/24 + i (z^3/6 - z)``, ``z = pi s``,
    as ``(re, im)``."""
    with decimal.localcontext(CONTEXT):
        z = PI * s
        z2 = z * z
        return 1 - z2 / 2 + z2 * z2 / 24, z * z2 / 6 - z


def _exact_powers(h: float, count: int) -> list[tuple[decimal.Decimal, decimal.Decimal]]:
    """``R(-i pi h)^j`` for ``j`` from 0 to ``count - 1``, as ``(re, im)``
    pairs."""
    r_re, r_im = _factor(decimal.Decimal(h))
    with decimal.localcontext(CONTEXT):
        powers = [(decimal.Decimal(1), decimal.Decimal(0))]
        for _ in range(count - 1):
            re, im = powers[-1]
            powers.append((re * r_re - im * r_im, re * r_im + im * r_re))
    return powers


def _deviation(values, start: complex, powers) -> float:
    """The largest distance, in eps, of a component of ``values`` (complex
    floats) from that of ``powers[j] * start``, for ``values[j]``."""
    a, b = decimal.Decimal(start.real), decimal.Decimal(start.imag)
    worst = decimal.Decimal(0)
    with decimal.localcontext(CONTEXT):
        for value, (re, im) in zip(values, powers):
            worst = max(worst, abs(decimal.Decimal(value.real) - (re * a - im * b)),
                        abs(decimal.Decimal(value.imag) - (re * b + im * a)))
        return float(worst / EPS)


@pytest.mark.parametrize("divisor", [125, 250, 999.5, 1000, 4000])
def test_run_and_its_step_powers_match_the_exact_rk4_map(natural, divisor, monkeypatch):
    # the natural preset over 3 T, or the first whole step past it; the
    # run's own table, recorded as `integrate` builds it
    params, _ = natural
    tables = []
    step_powers = dynamics._step_powers
    monkeypatch.setattr(dynamics, "_step_powers", lambda *args: tables.append(step_powers(*args)) or tables[-1])
    dt = params.T / divisor
    traj = integrate(params, t_end=math.ceil(3 * divisor) * dt, dt=dt)
    (table,) = tables
    h = dt / params.T
    # the first segment runs from sample 0 to the first jump; the second from
    # the program's own sample after the first reflection to the second jump
    a, b = traj.jumps[1][0], traj.jumps[2][0]
    w = traj.w.tolist()
    powers = _exact_powers(h, max(a, b - a, len(table) + 1))
    assert _deviation(table.tolist(), 1.0, powers[1:]) <= BOUND
    for lo, hi in ((0, a), (a, b)):
        assert _deviation(w[lo:hi], w[lo], powers) <= BOUND, (lo, hi)


def _exact_crossing(start: complex) -> tuple[decimal.Decimal, decimal.Decimal]:
    """The root ``s`` (in T) of ``Re(R(-i pi s) start) = 0`` that Newton
    reaches from 0, and ``U``, the ``Im`` of ``R(-i pi s) start`` there.
    The slope is ``pi (r_im a - (z^2/2 - 1) b)`` for ``start = a + ib``."""
    a, b = decimal.Decimal(start.real), decimal.Decimal(start.imag)
    s = decimal.Decimal(0)
    with decimal.localcontext(CONTEXT):
        for _ in range(20):
            r_re, r_im = _factor(s)
            z = PI * s
            step = (r_re * a - r_im * b) / (PI * (r_im * a - (z * z / 2 - 1) * b))
            s -= step
            if abs(step) <= abs(s) * decimal.Decimal(10) ** -(CONTEXT.prec - 2):
                break
        r_re, r_im = _factor(s)
        return s, r_re * b + r_im * a


@pytest.mark.parametrize("divisor", [125, 250, 999.5, 1000, 4000])
def test_event_times_match_the_exact_crossings(natural, divisor):
    # each reflection's step starts one sample before its jump, and the
    # trailing probe's at the last sample
    params, _ = natural
    dt = params.T / divisor
    traj = integrate(params, t_end=math.ceil(3 * divisor) * dt, dt=dt)
    starts = [j - 1 for j, _ in traj.jumps[1:]]
    starts += [len(traj) - 1] * (len(traj.events) - len(starts))
    assert len(traj.events) >= 3
    w = traj.w.tolist()
    for i, t_event in zip(starts, traj.events.tolist()):
        s, u = _exact_crossing(w[i])
        assert 0 <= s <= decimal.Decimal(dt / params.T)
        with decimal.localcontext(CONTEXT):
            exact = i * decimal.Decimal(dt) + s * decimal.Decimal(params.T)
            bound = decimal.Decimal(dynamics.EVENT_X_TOL * params.T) / abs(u) + 4 * decimal.Decimal(math.ulp(t_event))
            assert abs(decimal.Decimal(t_event) - exact) <= bound, (i, t_event)
