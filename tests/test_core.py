import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from inertonsim import (
    coupling_coefficients,
    coupling_from_speeds,
    derive_kinematics,
    mass_from_deformation,
)


def test_natural_units_scales(natural):
    params, kin = natural
    assert params.lam == 1.0
    assert params.Lam == 10.0
    assert kin.nu == 0.5
    assert params.M == pytest.approx(1.0 / math.sqrt(0.99), rel=1e-15)
    assert kin.E == pytest.approx(0.5 * params.M, rel=1e-15)
    assert kin.E == pytest.approx(0.5025, rel=1e-3)


def test_relativistic_masses_at_point_six_c():
    params, _ = derive_kinematics(1.0, 0.6, 1.0, 1.0)
    assert params.M == pytest.approx(1.25, rel=1e-15)
    assert params.m == pytest.approx(0.45, rel=1e-15)
    assert params.m0 == pytest.approx(0.36, rel=1e-15)


def test_determinism_bitwise():
    a = derive_kinematics(1.3, 0.7, 2.9, 0.11)
    b = derive_kinematics(1.3, 0.7, 2.9, 0.11)
    assert a[0].to_dict() == b[0].to_dict()
    assert a[1].to_dict() == b[1].to_dict()


def test_to_dict_keys(natural):
    params, kin = natural
    d = params.to_dict()
    assert set(d) == {"M0", "m0", "v0", "c", "T", "lambda", "Lambda", "M", "m"}
    assert set(kin.to_dict()) == {"nu", "collision_rate", "E", "p0", "mean_drift"}


def test_mass_from_deformation_example():
    assert mass_from_deformation(3.0, 4.0, 2.0) == 6.0


def test_mass_from_deformation_rejects_bad_volumes():
    with pytest.raises(ValueError):
        mass_from_deformation(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        mass_from_deformation(1.0, -1.0, 2.0)


def test_coupling_from_speeds_example():
    fwd, back = coupling_from_speeds(0.6, 1.0)
    assert fwd == pytest.approx(0.6, rel=1e-15)
    assert back == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_coupling_coefficients_match_speed_form(natural):
    params, _ = natural
    from_mass = coupling_coefficients(params)
    from_speed = coupling_from_speeds(params.v0, params.c)
    assert from_mass[0] == pytest.approx(from_speed[0], rel=1e-12)
    assert from_mass[1] == pytest.approx(from_speed[1], rel=1e-12)


@given(
    v0=st.floats(min_value=1e-3, max_value=0.9),
    c_mult=st.floats(min_value=1.2, max_value=100.0),
)
def test_coupling_product_is_unity(v0, c_mult):
    fwd, back = coupling_from_speeds(v0, v0 * c_mult)
    assert fwd * back == pytest.approx(1.0, rel=1e-12)


def test_validation_rejects_superluminal():
    with pytest.raises(ValueError):
        derive_kinematics(1.0, 10.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        derive_kinematics(1.0, 11.0, 10.0, 1.0)


def test_validation_rejects_nonpositive():
    for bad in ((0.0, 1.0, 10.0, 1.0), (1.0, -1.0, 10.0, 1.0), (1.0, 1.0, 10.0, 0.0)):
        with pytest.raises(ValueError):
            derive_kinematics(*bad)


@given(
    M0=st.floats(min_value=0.1, max_value=10.0),
    v0=st.floats(min_value=0.01, max_value=0.9),
    T=st.floats(min_value=0.1, max_value=10.0),
)
def test_mass_ratio_equals_speed_ratio_squared(M0, v0, T):
    params, _ = derive_kinematics(M0, v0, 1.0, T)
    assert params.m / params.M == pytest.approx(v0 * v0, rel=1e-12)
    assert params.m0 / params.M0 == pytest.approx(v0 * v0, rel=1e-12)


@pytest.mark.parametrize("bad", [dict(M0=math.inf), dict(v0=math.nan), dict(c=math.inf), dict(T=math.nan)])
def test_validation_rejects_non_finite(bad):
    args = {"M0": 1.0, "v0": 0.5, "c": 1.0, "T": 1.0, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        derive_kinematics(**args)


def test_validation_rejects_underflowing_cloud_mass():
    with pytest.raises(ValueError, match="underflows"):
        derive_kinematics(1.0, 1e-300, 1.0, 1.0)


# Rows are (M0, v0, T). v0 = 0.36163162043859115 is one where glibc's pow gives v0 ** 2 != v0 * v0
_GOOD_DRAWS = [(1.0, 0.5, 1.0), (0.1, 0.01, 10.0), (7.3, 0.9, 0.2), (2.0, 0.999, 3.0), (1.0, 0.36163162043859115, 1.0)]


def _columns(draws):
    return [np.array(column) for column in zip(*draws)]


# An array call of derive_kinematics derives a batch of draws at once.
def test_derive_batch_equals_derive_kinematics_bitwise():
    M0, v0, T = _columns(_GOOD_DRAWS)
    params, kin = derive_kinematics(M0, v0, 1.0, T)
    for k, (M0_k, v0_k, T_k) in enumerate(_GOOD_DRAWS):
        expected = derive_kinematics(M0=M0_k, v0=v0_k, c=1.0, T=T_k)
        for batch, single in zip((params, kin), expected):
            for name, values in vars(batch).items():
                assert values[k].hex() == getattr(single, name).hex(), name


# Rows the float call refuses, one per way of refusing: a base input out of
# range, the m0 underflow, an overflowing scale, and a v0/c whose Python
# square would raise an OverflowError.
_REFUSED = {
    "M0-inf": (math.inf, 0.5, 1.0), "v0-nan": (1.0, math.nan, 1.0), "M0-negative": (-1.0, 0.5, 1.0),
    "v0-at-c": (1.0, 1.0, 1.0), "v0-negative": (1.0, -0.5, 1.0), "T-zero": (1.0, 0.5, 0.0),
    "m0-underflow": (1.0, 1e-300, 1.0), "M-overflow": (1e308, 0.9, 1.0), "nu-overflow": (1.0, 0.5, 1e-310),
    "v0-square-overflows": (1.0, 1e155, 1.0), "v0-negative-square-overflows": (1.0, -1e155, 1.0),
}


@pytest.mark.parametrize("bad", list(_REFUSED.values()), ids=list(_REFUSED))
def test_derive_batch_refuses_the_first_draw_derive_kinematics_refuses(bad):
    with pytest.raises(ValueError) as first:
        derive_kinematics(M0=bad[0], v0=bad[1], c=1.0, T=bad[2])
    M0, v0, T = _columns([_GOOD_DRAWS[0], bad, (1.0, 2.0, 1.0)])  # the last is refused too, but later
    with pytest.raises(ValueError, match="^" + re.escape(str(first.value)) + "$"):
        derive_kinematics(M0, v0, 1.0, T)


_DRAW = st.one_of(
    st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 0.9), st.floats(0.1, 10.0)),
    st.sampled_from(_GOOD_DRAWS),
    st.sampled_from(list(_REFUSED.values())),
    st.tuples(st.floats(), st.floats(), st.floats()),
)


@given(draws=st.lists(_DRAW, min_size=1, max_size=8), c=st.sampled_from([1.0, 2.5]))
@example(draws=_GOOD_DRAWS, c=1.0)
@example(draws=[_GOOD_DRAWS[4], _REFUSED["v0-square-overflows"], _REFUSED["v0-at-c"]], c=1.0)
def test_array_call_is_the_float_call_per_draw_or_its_first_refusal(draws, c):
    M0, v0, T = _columns(draws)
    singles = []
    for M0_k, v0_k, T_k in draws:
        try:
            singles.append(derive_kinematics(M0_k, v0_k, c, T_k))
        except ValueError as refusal:
            with pytest.raises(ValueError, match="^" + re.escape(str(refusal)) + "$"):
                derive_kinematics(M0, v0, c, T)
            return
    for part, batch in enumerate(derive_kinematics(M0, v0, c, T)):
        for name, values in vars(batch).items():
            assert [v.hex() for v in values.tolist()] == [getattr(s[part], name).hex() for s in singles], name
