import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inertonsim import (
    SPIN_DOWN,
    SPIN_UP,
    SpinContext,
    anticommutation_deviations,
    classify_inerton_wave,
    dirac_hamiltonian,
    dirac_matrices,
    pauli_matrices,
    spin_eigenvalue,
    spin_projection,
    total_hamiltonian,
)
from inertonsim.constants import ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR
from inertonsim.spin import _dirac_stack, _square_deviations


def _bits(a):
    """The int64 bit patterns of a float or complex array (or scalar)."""
    return np.ascontiguousarray(a).view(np.int64)


def test_eigenvalue_plug_in():
    ctx = SpinContext(channel=SPIN_UP, e=2.0, B_z=3.0, M=1.0)
    assert spin_eigenvalue(ctx) == pytest.approx(3.0 * HBAR, rel=1e-15)


def test_electron_bohr_magneton_energy():
    ctx = SpinContext(channel=SPIN_UP, e=ELEMENTARY_CHARGE, B_z=1.0, M=ELECTRON_MASS)
    assert spin_eigenvalue(ctx) == pytest.approx(9.274e-24, rel=1e-4)


def test_channel_antisymmetry_exact():
    for e, B, M in ((1.0, 1.0, 1.0), (ELEMENTARY_CHARGE, 0.37, ELECTRON_MASS)):
        up = spin_eigenvalue(SpinContext(channel=SPIN_UP, e=e, B_z=B, M=M))
        dn = spin_eigenvalue(SpinContext(channel=SPIN_DOWN, e=e, B_z=B, M=M))
        assert up + dn == 0.0


def test_channel_validation():
    with pytest.raises(ValueError):
        SpinContext(channel=0, e=1.0, B_z=1.0, M=1.0)


def test_spin_projection_half_hbar():
    assert spin_projection(SPIN_UP) == (HBAR / 2.0, 0.0, 0.0)
    assert spin_projection(SPIN_DOWN) == (-HBAR / 2.0, 0.0, 0.0)


def test_total_hamiltonian_pythagorean():
    assert total_hamiltonian(3.0, 4.0, 0.0, 1.0) == pytest.approx(5.0, rel=1e-15)


def test_total_hamiltonian_with_mass():
    val = total_hamiltonian(0.0, 0.0, 2.0, 3.0)
    assert val == pytest.approx(2.0 * 9.0, rel=1e-15)


def test_spin_eigenvalue_on_arrays_equals_each_entry():
    rng = np.random.default_rng(9)
    e, B, M = rng.normal(size=(3, 40))
    M = np.abs(M) + 0.1
    for channel in (SPIN_UP, SPIN_DOWN):
        values = spin_eigenvalue(SpinContext(channel=channel, e=e, B_z=B, M=M))
        singles = [spin_eigenvalue(SpinContext(channel=channel, e=a, B_z=b, M=m))
                   for a, b, m in zip(e.tolist(), B.tolist(), M.tolist())]
        assert all(type(v) is float for v in singles)
        assert np.array_equal(_bits(values), _bits(singles))


@pytest.mark.parametrize("bad", [0.0, -2.5, math.nan])
def test_spin_eigenvalue_refuses_the_first_nonpositive_mass_of_an_array(bad):
    message = f"mass must be positive, got {bad}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        spin_eigenvalue(SpinContext(channel=SPIN_UP, e=1.0, B_z=1.0, M=bad))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        spin_eigenvalue(SpinContext(channel=SPIN_UP, e=1.0, B_z=1.0, M=np.array([1.0, bad, 3.0, -7.0])))


def _reference_total_hamiltonian(p, pi, M0, c):
    """One energy from floats, each of ``p`` and ``pi`` a magnitude or a list
    of components whose squares are summed left to right: the reference for
    `total_hamiltonian`."""

    def sumsq(v):
        return v * v if isinstance(v, float) else sum((x * x for x in v), 0.0)

    return c * math.sqrt(sumsq(p) + sumsq(pi) + (M0 * c) * (M0 * c))


_RNG = np.random.default_rng(13)
# masses whose float ** 2 (libm pow) is not x * x, and momenta whose np.dot is
# not the left-to-right sum of squares: a float ** or a BLAS dot would show on them
# (here 10 of each; how many exist depends on the libm and the BLAS)
_POW_MASSES = [m for m in _RNG.uniform(0.1, 10.0, 40000).tolist() if m ** 2 != m * m][:10]
_DOT_MOMENTA = [
    v.tolist() for v in _RNG.normal(size=(2000, 3)) if np.dot(v, v) != v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
][:10]
_finite = st.floats(min_value=-1.0e6, max_value=1.0e6)


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(st.tuples(_finite, _finite, _finite, st.floats(min_value=0.0, max_value=1.0e3)), max_size=30),
    c=st.sampled_from([1.0, 2.5, 0.3]),
)
def test_total_hamiltonian_stack_matches_single_calls_bitwise(rows, c):
    momenta = [list(r[:3]) for r in rows] + [[0.0, 0.0, 0.0]] * len(_POW_MASSES) + _DOT_MOMENTA
    masses = [r[3] for r in rows] + _POW_MASSES + [1.0] * len(_DOT_MOMENTA)
    p, M0 = np.array(momenta).reshape(-1, 3), np.array(masses)
    intrinsic = momenta[::-1]
    for pi, pi_rows in ((0.5 * np.array(intrinsic).reshape(-1, 3), [[0.5 * x for x in v] for v in intrinsic]),
                        (0.0, [0.0] * len(masses))):  # a stack, then one magnitude for all
        energies = total_hamiltonian(p, pi, M0, c)
        assert energies.shape == M0.shape
        singles = [total_hamiltonian(*args, c) for args in zip(momenta, pi_rows, masses)]
        reference = [_reference_total_hamiltonian(*args, c) for args in zip(momenta, pi_rows, masses)]
        assert all(type(e) is float for e in singles)
        assert np.array_equal(_bits(energies), _bits(singles))
        assert np.array_equal(_bits(singles), _bits(reference))


# ------------------------------------------------------------ matrix algebra

def test_pauli_algebra():
    sx, sy, sz = pauli_matrices()
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
    assert np.allclose(sx @ sx, np.eye(2))


def test_anticommutation_identities():
    devs = anticommutation_deviations()
    assert len(devs) == 10
    assert max(devs.values()) <= 1e-12


def test_generators_traceless_hermitian():
    ax, ay, az, rho3 = dirac_matrices()
    for g in (ax, ay, az, rho3):
        assert abs(np.trace(g)) == 0.0
        assert np.array_equal(g, g.conj().T)


def test_unit_momentum_spectrum():
    op = dirac_hamiltonian(np.array([1.0, 0.0, 0.0]), 1.0, 1.0)
    eigs = np.sort(op.eigenvalues())
    root2 = math.sqrt(2.0)
    assert np.allclose(eigs, [-root2, -root2, root2, root2], atol=1e-12)


def test_square_identity_random_momenta():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        op = dirac_hamiltonian(p, rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        rel = op.square_deviation() / op.expected_branch_energy() ** 2
        assert rel <= 1e-12


def test_spectrum_double_degeneracy_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = rng.normal(size=3)
        op = dirac_hamiltonian(p, rng.uniform(0.1, 2.0), 1.0)
        eigs = np.sort(op.eigenvalues())
        E = op.expected_branch_energy()
        assert np.allclose(eigs, [-E, -E, E, E], rtol=1e-10, atol=1e-10 * E)


def test_massless_spectrum():
    op = dirac_hamiltonian(np.array([0.0, 0.0, 2.0]), 0.0, 1.0)
    eigs = np.sort(op.eigenvalues())
    assert np.allclose(eigs, [-2.0, -2.0, 2.0, 2.0], atol=1e-12)


def test_wave_classification():
    assert classify_inerton_wave(1.5) == "outgoing"
    assert classify_inerton_wave(-0.2) == "incoming"
    for no_direction in (0.0, -0.0, math.nan):
        with pytest.raises(ValueError):
            classify_inerton_wave(no_direction)


def test_dirac_matrices_are_fresh_writable_copies():
    p, M0, c = (0.3, -1.2, 0.7), 1.4, 2.0
    matrix = dirac_hamiltonian(p, M0, c).matrix
    devs = anticommutation_deviations()
    for g in dirac_matrices():
        g[...] = 7.0  # writable, and owned by the caller
    assert np.array_equal(_bits(dirac_hamiltonian(p, M0, c).matrix), _bits(matrix))
    assert anticommutation_deviations() == devs
    assert np.array_equal(dirac_matrices()[3], np.diag([1.0, 1.0, -1.0, -1.0]))


def _reference_matrix(p, M0, c):
    """One operator from float components: the reference for `_dirac_stack`."""
    ax, ay, az, rho3 = dirac_matrices()
    px, py, pz = (float(v) for v in p)
    return c * (ax * px + ay * py + az * pz) + rho3 * (M0 * c * c)


def _reference_square_deviation(op):
    """One deviation with a float ``e * e``: the reference for `_square_deviations`."""
    e = op.expected_branch_energy()
    target = e * e * np.eye(4)
    return float(np.max(np.abs(op.matrix @ op.matrix - target)))


def test_dirac_stack_matches_single_operators_bitwise():
    rng = np.random.default_rng(17)
    p = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1))
    M0 = rng.uniform(0.01, 10.0, size=300)
    # At rest and c = 1 the branch energy is M0 itself; these masses square differently
    # under float ** (libm pow) and x*x, so a float ** would show.
    masses = [m for m in rng.uniform(0.1, 10.0, 40000).tolist() if m ** 2 != m * m][:20]
    p = np.vstack([p, np.zeros((len(masses), 3))])
    M0 = np.concatenate([M0, masses])
    for c in (1.0, 2.5):
        H = _dirac_stack(p, M0, c)
        eigs, squares = np.linalg.eigvalsh(H), H @ H
        ops = [dirac_hamiltonian(pk, mk, c) for pk, mk in zip(p, M0.tolist())]
        deviations = _square_deviations(H, [op.expected_branch_energy() for op in ops])
        for k, op in enumerate(ops):
            assert np.array_equal(_bits(H[k]), _bits(op.matrix))
            assert np.array_equal(_bits(H[k]), _bits(_reference_matrix(p[k], M0[k], c)))
            assert np.array_equal(_bits(eigs[k]), _bits(op.eigenvalues()))
            assert np.array_equal(_bits(squares[k]), _bits(op.matrix @ op.matrix))
            assert _bits(deviations[k]) == _bits(_reference_square_deviation(op))
            assert _bits(op.square_deviation()) == _bits(_reference_square_deviation(op))
