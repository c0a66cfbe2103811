"""Effective-oscillator action: cyclic increments and the wave relations.

Seen from its centre of inertia, the particle of the pair is a harmonic
oscillator with angular frequency ``omega = pi/T``, amplitude
``A = v0/omega`` and energy ``E = M v0^2 / 2`` (``M`` relativistic). Its
abbreviated action obeys the usual Hamilton-Jacobi equation, and the
action picked up over one full cycle is

    S_cycle = loop integral of p dX = E * 2T = p0 * lam = M v0^2 T.

Setting that increment equal to an action quantum ``h`` yields the wave
relations ``lam = h/(M v0)`` and ``nu = E/h = 1/(2T)`` simultaneously;
`quantize` performs exactly that step.

A caution exposed as `lab_frame_action`: integrating ``p dX`` along the
lab-frame path instead of the oscillator orbit gives ``M v0^2 T (3 - 8/pi)``,
a different number. It is provided as a diagnostic so nobody mistakes one
integral for the other.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import SystemParams

__all__ = [
    "OscillatorSpec",
    "QuantizedKinematics",
    "effective_hamiltonian",
    "shortened_action",
    "hj_residual",
    "cyclic_action",
    "lab_frame_action",
    "quantize",
]


@dataclass(frozen=True)
class OscillatorSpec:
    """Centre-of-inertia oscillator quantities.

    Satisfies ``M omega^2 A^2 / 2 = E`` by construction.
    """

    M: float          # relativistic particle mass
    omega: float      # angular frequency, pi / T
    E: float          # oscillator energy, M v0^2 / 2
    amplitude: float  # A = v0 / omega
    p_max: float      # M v0

    @classmethod
    def from_motion(cls, M: float, v0: float, T: float) -> "OscillatorSpec":
        if not (M > 0.0 and v0 > 0.0 and T > 0.0):
            raise ValueError(f"need M, v0, T > 0, got M={M}, v0={v0}, T={T}")
        return cls(M, *_oscillator(M, v0, T))

    @classmethod
    def from_params(cls, params: SystemParams) -> "OscillatorSpec":
        return cls.from_motion(params.M, params.v0, params.T)


def _oscillator(M, v0, T):
    """``omega, E, amplitude, p_max`` of `OscillatorSpec` from floats or from
    arrays of ``M, v0, T``; each is rounded alike in both."""
    omega = math.pi / T
    return omega, 0.5 * M * v0 * v0, v0 / omega, M * v0


@dataclass(frozen=True)
class QuantizedKinematics:
    """Kinematic scales implied by a unit of cyclic action.

    ``nu`` equals ``1/(2 T)`` by construction, so both wave relations
    (energy-frequency and momentum-wavelength) hold at once.
    """

    h: float          # action quantum fed in
    lambda_dB: float  # h / (M v0)
    nu: float         # M v0^2 / (2 h)
    T: float          # h / (M v0^2)
    Lambda: float     # lambda_dB * c / v0

    def to_dict(self) -> dict:
        return asdict(self)


def effective_hamiltonian(p: float, X: float, spec: OscillatorSpec) -> float:
    """Oscillator energy function ``p^2/(2M) + M omega^2 X^2 / 2``."""
    return p * p / (2.0 * spec.M) + 0.5 * spec.M * spec.omega ** 2 * X * X


def shortened_action(X: float, spec: OscillatorSpec) -> float:
    """Abbreviated action ``S1(X) = integral of p`` from 0 to X, as the exact
    antiderivative ``p_max A (r sqrt(1 - r^2) + asin r) / 2`` with ``r = X/A``.
    """
    if abs(X) >= spec.amplitude:
        raise ValueError(
            f"|X|={abs(X)} is outside the classically allowed region "
            f"(amplitude {spec.amplitude})"
        )
    r = X / spec.amplitude  # |X| < A, so the rounded |r| is at most 1
    return 0.5 * spec.p_max * spec.amplitude * (r * math.sqrt((1.0 - r) * (1.0 + r)) + math.asin(r))


# `numpy.polynomial.legendre.leggauss(8)` written out, so that importing this
# module does not load `numpy.polynomial` (see test_gauss_legendre_literals_equal_leggauss).
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


HJ_FD_STEP = 1.0e-5  # central-difference step of `hj_residual`, in units of the amplitude


def hj_residual(X, spec: OscillatorSpec):
    """Hamilton-Jacobi residual ``S1'(X)^2/(2M) + M omega^2 X^2/2 - E`` at a
    float ``X`` (a float back) or at each entry of an array (an array back).
    A spec whose fields are arrays of ``draws`` oscillators takes ``X`` of
    shape ``(draws, points)``, row ``i`` on oscillator ``i``.

    ``S1'`` is a central difference with step ``d = HJ_FD_STEP * amplitude``.
    ``S1(X+d) - S1(X-d)`` is one short integral of ``p`` over ``[X-d, X+d]``,
    a single 8-point Gauss-Legendre panel, rather than two long ones, which
    removes the cancellation that would otherwise dominate the error. Inside
    ``|X| <= 0.99 A`` the residual stays below ``1e-7 E``; approaching the
    turning point the integrand steepens and accuracy degrades gracefully
    (still below ``1e-4 E`` at ``0.999 A``). The first point with ``|X| + d
    >= A`` raises a ValueError.

    Each value has the bits of the per-point formula: every square is a
    product ``x * x``, and the 8 panel terms are summed left to right (see
    test_sampled_checks_match_per_draw_loops_bitwise).
    """
    # each field with a trailing axis, along the points of its oscillator
    M, omega, E, A = (np.asarray(v, dtype=float)[..., None] for v in (spec.M, spec.omega, spec.E, spec.amplitude))
    d = HJ_FD_STEP * A
    xs = np.atleast_1d(np.asarray(X, dtype=float))
    reach = np.abs(xs)
    refused = reach + d >= A
    if refused.any():
        first = np.argmax(refused)
        r, a = float(reach.flat[first]), float(np.broadcast_to(A, xs.shape).flat[first])
        if r >= a:
            raise ValueError(f"|X|={r} is outside the classically allowed region (A={a})")
        raise ValueError(f"|X|+HJ_FD_STEP*A = {r + HJ_FD_STEP * a} reaches the turning point; move X inward")
    mw_xi = (M * omega)[..., None] * (xs[..., None] + d[..., None] * _GL_NODES)  # (..., points, nodes)
    # max() guards the last-ulp rounding right at the turning point
    terms = _GL_WEIGHTS * np.sqrt(np.maximum((2.0 * M * E)[..., None] - mw_xi * mw_xi, 0.0))
    window = 0.0
    for k in range(len(_GL_WEIGHTS)):
        window = window + terms[..., k]
    s1_prime = 0.5 * window  # window integral / (2d)
    residual = s1_prime * s1_prime / (2.0 * M) + 0.5 * M * (omega * omega) * xs * xs - E
    return float(residual[0]) if np.ndim(X) == 0 else residual


def _composite_gauss(f, t_lo: float, t_hi, n_panels: int):
    """Composite 8-point Gauss-Legendre rule with n_panels equal panels, one
    integral per entry of an array ``t_hi`` (see
    test_composite_gauss_array_limits_match_scalar_calls_bitwise)."""
    # C order: each entry's nodes are summed in the order of a scalar call
    edges = np.ascontiguousarray(np.linspace(t_lo, t_hi, n_panels + 1, axis=-1))
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])   # (..., n_panels)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    ts = mid[..., None] + half[..., None] * _GL_NODES  # (..., n_panels, 8)
    total = np.sum(half[..., None] * _GL_WEIGHTS * f(ts), axis=(-2, -1))
    return float(total) if np.ndim(t_hi) == 0 else total


QUADRATURE_PANELS = 64  # panels of one full cycle; a multiple of 4, see `cyclic_action` and `lab_frame_action`


def cyclic_action(spec: OscillatorSpec) -> float:
    """Loop integral of ``p dX`` over one oscillator cycle.

    Parametrized as ``X = A sin(omega t)``, ``p = p_max cos(omega t)``, the
    integrand ``p_max A omega cos^2(omega t)`` is the same on each quarter
    of the cycle ``[0, 2T]``. So the loop integral is 4 times the integral
    over ``[0, T/2]``, by composite Gauss-Legendre quadrature on
    ``QUADRATURE_PANELS // 4`` panels, each as wide as a full-cycle panel.
    Equals ``E * 2T = p0 * lam = M v0^2 T`` to 1e-9 relative or better.
    """
    return float(_cyclic_actions([spec.p_max], [spec.amplitude], [spec.omega])[0])


def _cyclic_actions(p_max, amplitude, omega) -> np.ndarray:
    """`cyclic_action` of each entry of the arrays ``p_max, amplitude, omega``,
    in one array pass (see test_cyclic_actions_match_scalar_loop_integrals_bitwise)."""
    p, a, w = np.array([p_max, amplitude, omega], dtype=float)[:, :, None, None]

    def integrand(t):  # p dX/dt on the orbit at time t
        c = np.cos(w * t)
        return p * c * a * w * c

    return 4.0 * _composite_gauss(integrand, 0.0, 0.5 * math.pi / w[:, 0, 0], QUADRATURE_PANELS // 4)


def lab_frame_action(params: SystemParams) -> float:
    """Diagnostic: ``integral of p dX`` along the lab-frame path over one
    cycle ``[0, 2T]``, i.e. ``M integral of (dX/dt)^2 dt``.

    Evaluates to ``M v0^2 T (3 - 8/pi)``, which is not the cyclic action;
    the loop integral lives on the oscillator orbit, not the lab path. The
    integrand has a kink at ``t = T``, so the rule spans the whole cycle on
    ``QUADRATURE_PANELS`` panels, whose even count puts the kink on a panel
    edge.
    """

    def integrand(t):
        speed = params.v0 * (1.0 - np.abs(np.sin(np.pi * t / params.T)))
        return params.M * speed * speed

    return _composite_gauss(integrand, 0.0, 2.0 * params.T, QUADRATURE_PANELS)


def quantize(M, v0, c, h) -> QuantizedKinematics:
    """Impose a unit of cyclic action and read off the wave kinematics.

    From ``M v0^2 T = h``: wavelength ``h/(M v0)``, period ``h/(M v0^2)``,
    frequency ``M v0^2/(2h)`` and cloud amplitude ``lambda c / v0``. Takes
    floats or arrays; every entry of an array field has the bits of the
    float call on that entry, and an array call is refused if any entry is.
    """
    if not np.all(M > 0.0):
        raise ValueError(f"mass must be positive, got {M}")
    if not np.all(h > 0.0):
        raise ValueError(f"action quantum must be positive, got {h}")
    if not np.all((0.0 < v0) & (v0 < c)):
        raise ValueError(f"speeds must satisfy 0 < v0 < c, got v0={v0}, c={c}")
    lam = h / (M * v0)
    return QuantizedKinematics(
        h=h,
        lambda_dB=lam,
        nu=M * v0 * v0 / (2.0 * h),
        T=h / (M * v0 * v0),
        Lambda=lam * c / v0,
    )
