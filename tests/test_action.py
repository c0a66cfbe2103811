import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertonsim import (
    OscillatorSpec,
    cyclic_action,
    derive_kinematics,
    hj_residual,
    lab_frame_action,
    quantize,
    shortened_action,
)
from inertonsim.action import (
    _GL_NODES, _GL_WEIGHTS, HJ_FD_STEP, QUADRATURE_PANELS, _composite_gauss,
)
from inertonsim.cli import builtin_presets, resolve_config
from inertonsim.constants import LIGHT_SPEED, PLANCK


@pytest.fixture(scope="module")
def nat_spec(request):
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    return params, OscillatorSpec.from_params(params)


def test_spec_fields(nat_spec):
    params, spec = nat_spec
    assert spec.omega == pytest.approx(math.pi / params.T, rel=1e-15)
    assert spec.amplitude == pytest.approx(params.v0 / spec.omega, rel=1e-15)
    assert spec.p_max == pytest.approx(spec.M * params.v0, rel=1e-15)
    assert spec.E == pytest.approx(0.5 * spec.M * params.v0 ** 2, rel=1e-15)


def test_hamiltonian_at_turning_point(nat_spec):
    # the energy p^2/(2M) + M omega^2 X^2 / 2 at p = 0, X = A
    _, spec = nat_spec
    w, A = spec.omega, spec.amplitude
    assert 0.5 * spec.M * (w * w) * A * A == pytest.approx(spec.E, rel=1e-14)


def test_hamiltonian_at_origin(nat_spec):
    # the energy at p = p_max, X = 0
    _, spec = nat_spec
    assert spec.p_max * spec.p_max / (2.0 * spec.M) == pytest.approx(spec.E, rel=1e-14)


def test_hj_residual_midrange(nat_spec):
    _, spec = nat_spec
    assert abs(hj_residual(0.5 * spec.amplitude, spec)) <= 1e-7 * spec.E


def test_hj_residual_near_turning_point(nat_spec):
    _, spec = nat_spec
    assert abs(hj_residual(0.999 * spec.amplitude, spec)) <= 1e-4 * spec.E


def test_hj_grid(nat_spec):
    _, spec = nat_spec
    for X in np.linspace(-0.99, 0.99, 50) * spec.amplitude:
        assert abs(hj_residual(X, spec)) <= 1e-7 * spec.E


def test_hj_rejects_beyond_amplitude(nat_spec):
    _, spec = nat_spec
    with pytest.raises(ValueError):
        hj_residual(1.01 * spec.amplitude, spec)


def test_hj_residual_on_an_array_equals_each_point(nat_spec):
    _, spec = nat_spec
    grid = np.linspace(-0.99, 0.99, 50) * spec.amplitude
    values = hj_residual(grid, spec)
    assert values.shape == grid.shape
    scalar = [hj_residual(float(X), spec) for X in grid]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(_bits(values), _bits(scalar))


def test_hj_residual_refuses_the_first_array_point_at_the_turning_point(nat_spec):
    _, spec = nat_spec
    A = spec.amplitude
    d = HJ_FD_STEP * A
    near = -(A - 0.5 * d)  # inside d of the turning point, but inside the amplitude
    expected = f"|X|+HJ_FD_STEP*A = {abs(near) + d} reaches the turning point; move X inward"
    for X in (near, np.array([0.0, 0.5 * A, near, 0.3 * A, 2.0 * A])):
        with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
            hj_residual(X, spec)
    with pytest.raises(ValueError, match=re.escape(f"|X|={2.0 * A} is outside the classically allowed region")):
        hj_residual(np.array([0.0, -2.0 * A, near]), spec)


def test_shortened_action_is_odd_in_direction(nat_spec):
    _, spec = nat_spec
    up = shortened_action(0.4 * spec.amplitude, spec)
    assert up > 0.0
    assert shortened_action(0.0, spec) == pytest.approx(0.0, abs=1e-15)
    for f in (0.1, 0.4, 0.9, 0.999):
        X = f * spec.amplitude
        assert shortened_action(-X, spec) == pytest.approx(-shortened_action(X, spec), rel=1e-15)


def test_shortened_action_quarter_cycle_matches_cyclic_action():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params, _ = derive_kinematics(
            10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-2, math.log10(0.9)), 1.0,
            10.0 ** rng.uniform(-1, 1),
        )
        spec = OscillatorSpec.from_params(params)
        quarter = shortened_action((1.0 - 1.0e-12) * spec.amplitude, spec)
        assert 4.0 * quarter == pytest.approx(cyclic_action(spec), rel=1e-12)


def test_shortened_action_matches_quadrature(nat_spec):
    # reference: the composite Gauss-Legendre rule on the integrand p(xi)
    _, spec = nat_spec
    mw2, two_me = (spec.M * spec.omega) ** 2, 2.0 * spec.M * spec.E
    for f in (-0.9, -0.3, 0.25, 0.7, 0.95):
        X = f * spec.amplitude
        ref = _composite_gauss(lambda xi: np.sqrt(two_me - mw2 * xi * xi), 0.0, X, 64)
        assert shortened_action(X, spec) == pytest.approx(ref, rel=1e-12)


def test_cyclic_action_examples():
    p21, _ = derive_kinematics(2.0 * math.sqrt(1.0 - 0.09), 3.0, 10.0, 1.0)
    assert cyclic_action(OscillatorSpec.from_params(p21)) == pytest.approx(18.0, rel=1e-12)
    p11, _ = derive_kinematics(1.0 * math.sqrt(1.0 - 0.01), 1.0, 10.0, 1.0)
    assert cyclic_action(OscillatorSpec.from_params(p11)) == pytest.approx(1.0, rel=1e-12)


def test_cyclic_action_matches_ellipse_area(nat_spec):
    _, spec = nat_spec
    area = math.pi * spec.p_max * spec.amplitude
    assert cyclic_action(spec) == pytest.approx(area, rel=1e-12)


def test_action_triple_identity_randomized():
    rng = np.random.default_rng(3)
    for _ in range(100):
        M0 = 10.0 ** rng.uniform(-1, 1)
        v0 = 10.0 ** rng.uniform(-2, math.log10(0.9))
        T = 10.0 ** rng.uniform(-1, 1)
        params, kin = derive_kinematics(M0, v0, 1.0, T)
        spec = OscillatorSpec.from_params(params)
        S = cyclic_action(spec)
        e2t = kin.E * 2.0 * params.T
        plam = kin.p0 * params.lam
        assert abs(S - e2t) <= 1e-9 * abs(S)
        assert abs(S - plam) <= 1e-9 * abs(S)


def test_lab_frame_action(natural):
    params, _ = natural
    expected = params.M * params.v0 ** 2 * params.T * (3.0 - 8.0 / math.pi)
    assert lab_frame_action(params) == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------------- quantization

def test_electron_wavelength():
    q = quantize(9.1093837e-31, 1.0e6, LIGHT_SPEED, PLANCK)
    assert q.lambda_dB == pytest.approx(7.2740e-10, rel=1e-3)
    assert q.T == pytest.approx(7.2740e-16, rel=1e-3)
    assert q.Lambda == pytest.approx(2.1807e-7, rel=1e-3)


def test_frequency_identity_exact():
    q = quantize(9.1093837e-31, 1.0e6, LIGHT_SPEED, PLANCK)
    E = 0.5 * 9.1093837e-31 * 1.0e12
    assert q.nu == pytest.approx(1.0 / (2.0 * q.T), rel=1e-12)
    assert q.nu == pytest.approx(E / PLANCK, rel=1e-12)


def test_quantize_roundtrip(natural):
    params, _ = natural
    q = quantize(params.M, params.v0, params.c, PLANCK)
    spec = OscillatorSpec(
        M=params.M,
        omega=math.pi / q.T,
        E=0.5 * params.M * params.v0 ** 2,
        amplitude=params.v0 * q.T / math.pi,
        p_max=params.M * params.v0,
    )
    assert cyclic_action(spec) == pytest.approx(PLANCK, rel=1e-9)


@settings(deadline=None, max_examples=40)
@given(
    M=st.floats(min_value=1e-3, max_value=1e3),
    v0=st.floats(min_value=1e-3, max_value=1.0),
    h=st.floats(min_value=1e-3, max_value=1e3),
)
def test_quantize_identities_property(M, v0, h):
    q = quantize(M, v0, 10.0, h)
    assert q.lambda_dB == pytest.approx(h / (M * v0), rel=1e-12)
    assert q.Lambda == pytest.approx(q.lambda_dB * 10.0 / v0, rel=1e-12)
    assert M * v0 ** 2 * q.T == pytest.approx(h, rel=1e-12)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize(0.0, 1.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        quantize(1.0, 1.0, 10.0, -1.0)


def test_quantize_refuses_an_underflowing_m_v0_squared():
    # M v0 = 1e-330 underflows to 0.0, where h / (M v0) once divided by zero
    with pytest.raises(ValueError, match=re.escape("M v0^2 underflows a float (M = 1e-160, v0 = 1e-170)")):
        quantize(1e-160, 1e-170, 1.0, 2.0)
    with pytest.raises(ValueError, match="M v0\\^2 underflows a float"):  # M v0 is 1e-300, M v0^2 is 0.0
        quantize(np.array([1.0, 1e-150]), np.array([0.5, 1e-150]), 1.0, 2.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _reference_composite_gauss(f, t_lo, t_hi, n_panels):
    """The scalar rule on one 1-D grid: the reference for array limits."""
    edges = np.linspace(t_lo, t_hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * f(ts)))


def test_gauss_legendre_literals_equal_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(_bits(_GL_NODES), _bits(nodes))
    assert np.array_equal(_bits(_GL_WEIGHTS), _bits(weights))


def test_composite_gauss_array_limits_match_scalar_calls_bitwise():
    rng = np.random.default_rng(23)
    limits = np.concatenate([rng.uniform(-40.0, 40.0, 37), [0.0, 1e-300, 6.5]])

    def f(t):
        return np.sqrt(np.abs(np.sin(3.0 * t))) * np.exp(-0.01 * t * t) + t

    for n_panels in (64, 65, 200):
        batched = _composite_gauss(f, 0.25, limits, n_panels)
        assert batched.shape == limits.shape
        scalar = [_composite_gauss(f, 0.25, float(hi), n_panels) for hi in limits]
        reference = [_reference_composite_gauss(f, 0.25, float(hi), n_panels) for hi in limits]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(_bits(batched), _bits(scalar))
        assert np.array_equal(_bits(scalar), _bits(reference))


def _loop_integrand(spec):
    def integrand(t):
        c = np.cos(spec.omega * t)
        return spec.p_max * c * spec.amplitude * spec.omega * c

    return integrand


def _reference_cyclic_action(spec):
    """One quarter-cycle loop integral from float spec fields: the reference
    for `cyclic_action`."""
    quarter_cycle = 0.5 * math.pi / spec.omega
    return 4.0 * _reference_composite_gauss(_loop_integrand(spec), 0.0, quarter_cycle, QUADRATURE_PANELS // 4)


def _full_cycle_action(spec):
    """The loop integral over the whole cycle ``[0, 2T]`` on `QUADRATURE_PANELS`
    panels of the same width: the reference the quarter-cycle rule is bounded against."""
    return _reference_composite_gauss(_loop_integrand(spec), 0.0, 2.0 * math.pi / spec.omega, QUADRATURE_PANELS)


def test_cyclic_actions_match_scalar_loop_integrals_bitwise():
    rng = np.random.default_rng(29)
    motions = 10.0 ** rng.uniform(-2.0, 2.0, (133, 3))  # more than the 100 specs of either sampled check
    specs = [OscillatorSpec.from_motion(*row) for row in motions.tolist()]
    batch = OscillatorSpec.from_motion(*motions.T)
    for name, values in vars(batch).items():
        assert np.array_equal(_bits(values), _bits([getattr(s, name) for s in specs])), name
    reference = [_reference_cyclic_action(spec) for spec in specs]
    assert np.array_equal(_bits(cyclic_action(batch)), _bits(reference))
    singles = [cyclic_action(s) for s in specs]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(_bits(singles), _bits(reference))


# Largest distance, in units in the last place of the full-cycle value, between
# the quarter-cycle rule and the full-cycle rule. Both sum the same panel terms
# up to the cycle's symmetry, so they differ only in rounding: at most 4 ulps
# were seen over 20,000 random specs.
_QUARTER_RULE_ULPS = 8


def test_quarter_cycle_rule_stays_within_ulps_of_the_full_cycle_rule():
    rng = np.random.default_rng(31)
    specs = [OscillatorSpec.from_motion(*(10.0 ** rng.uniform(-3.0, 3.0, 3)).tolist()) for _ in range(1200)]
    specs += [OscillatorSpec.from_params(resolve_config(cfg)[0]) for cfg in builtin_presets().values()]
    fields = np.array([dataclasses.astuple(s) for s in specs]).T
    for quarter, spec in zip(cyclic_action(OscillatorSpec(*fields)).tolist(), specs):
        full = _full_cycle_action(spec)
        assert abs(quarter - full) <= _QUARTER_RULE_ULPS * math.ulp(full), (quarter.hex(), full.hex())
