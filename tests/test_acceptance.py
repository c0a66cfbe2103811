"""Acceptance gate: the ten primary criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict as
it happens; under plain pytest the lines still appear in captured output.
Each test prints its line before asserting so a failure is still announced.
"""

import math
import time

import numpy as np
import pytest

from inertonsim import (
    OscillatorSpec,
    SPIN_DOWN,
    SPIN_UP,
    SpinContext,
    anticommutation_deviations,
    cross_section_bounds,
    cyclic_action,
    derive_kinematics,
    dirac_hamiltonian,
    el_residual,
    eval_lagrangian_aggregate_shifted,
    hj_residual,
    integrate,
    oracle_errors,
    quantize,
    resonator_dimensions,
    scale_channel,
    spin_eigenvalue,
    spin_projection,
)
from inertonsim.constants import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    LIGHT_SPEED,
    PLANCK,
)
from inertonsim.dynamics import closed_form_trajectory
from inertonsim.lagrangian import cloud_residual_scale, particle_residual_scale


def verdict(n, ok, label, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{n:2d}/10] {status}  {label}: {detail}")
    return ok


def _standard_run():
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    t0 = time.perf_counter()
    traj = integrate(params, t_end=10.0, dt=1.0e-3)
    elapsed = time.perf_counter() - t0
    return params, traj, elapsed


def test_criterion_01_oracle_agreement():
    _, traj, elapsed = _standard_run()
    err = oracle_errors(traj)["max"]
    ok = err <= 1e-6 and elapsed < 1.0
    assert verdict(
        1, ok, "oracle agreement",
        f"max scaled error {err:.3e} (tol 1e-6), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_conservation():
    _, traj, _ = _standard_run()
    worst = max(abs(r) for r in traj.rows(0, len(traj), ("residual",))[0])
    n_events = len(traj.events)
    ok = worst <= 1e-8 and n_events == 10
    assert verdict(
        2, ok, "velocity-circle conservation",
        f"max residual {worst:.3e} (tol 1e-8) across {n_events} reflection events",
    )


def test_criterion_03_action_identities():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        M0 = 10.0 ** rng.uniform(-1.0, 1.0)
        v0 = 10.0 ** rng.uniform(-2.0, math.log10(0.9))
        T = 10.0 ** rng.uniform(-1.0, 1.0)
        params, kin = derive_kinematics(M0, v0, 1.0, T)
        S = cyclic_action(OscillatorSpec.from_params(params))
        e2t = kin.E * 2.0 * params.T
        plam = kin.p0 * params.lam
        worst = max(worst, abs(S - e2t) / S, abs(S - plam) / S, abs(e2t - plam) / S)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert verdict(
        3, ok, "cyclic action identities",
        f"worst pairwise relative spread {worst:.3e} over 100 triples "
        f"(tol 1e-9), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_04_quantization():
    M, v0 = 9.1093837e-31, 1.0e6
    q = quantize(M, v0, LIGHT_SPEED, PLANCK)
    E = 0.5 * M * v0 ** 2
    lam_ok = abs(q.lambda_dB - 7.274e-10) / 7.274e-10 <= 1e-3
    nu_a = abs(q.nu - 1.0 / (2.0 * q.T)) / q.nu
    nu_b = abs(q.nu - E / PLANCK) / q.nu
    ok = lam_ok and nu_a <= 1e-12 and nu_b <= 1e-12
    assert verdict(
        4, ok, "quantized wavelength and frequency",
        f"lambda {q.lambda_dB:.6e} m (7.274e-10 +- 0.1%), "
        f"nu vs 1/2T {nu_a:.1e}, nu vs E/h {nu_b:.1e} (tol 1e-12)",
    )


def test_criterion_05_el_residual():
    # drift speed well below cloud speed, where the aggregate Lagrangian's
    # variational equations hold on the closed forms; see the residual
    # discussion in the README
    params, _ = derive_kinematics(1.0, 1.0e-4, 1.0, 1.0)
    traj = closed_form_trajectory(params, t_end=2.0 * params.T)

    def L(s):
        return eval_lagrangian_aggregate_shifted(s, params)

    res_p = el_residual(L, traj, "particle").max_abs_residual / particle_residual_scale(params)
    res_c = el_residual(L, traj, "cloud").max_abs_residual / cloud_residual_scale(params)
    corrupted = el_residual(L, scale_channel(traj, "particle", 1.1), "particle")
    sens = corrupted.max_abs_residual / particle_residual_scale(params)
    ok = res_p <= 1e-5 and res_c <= 1e-5 and sens > 100.0 * res_p
    assert verdict(
        5, ok, "Euler-Lagrange residual",
        f"normalized max {res_p:.3e} (particle) / {res_c:.3e} (cloud), tol 1e-5; "
        f"corrupted trajectory rises to {sens:.3e}",
    )


def test_criterion_06_hamilton_jacobi():
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    spec = OscillatorSpec.from_params(params)
    grid = np.linspace(-0.99, 0.99, 50) * spec.amplitude
    worst = max(abs(hj_residual(X, spec)) for X in grid) / spec.E
    ok = worst <= 1e-7
    assert verdict(
        6, ok, "Hamilton-Jacobi residual",
        f"max |residual| {worst:.3e} E on 50-point grid, |X| <= 0.99 A (tol 1e-7)",
    )


def test_criterion_07_dirac_algebra_and_spectrum():
    alg = max(anticommutation_deviations().values())
    rng = np.random.default_rng(77)
    worst_sq = 0.0
    worst_spec = 0.0
    for _ in range(100):
        p = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        op = dirac_hamiltonian(p, rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        E = op.expected_branch_energy()
        worst_sq = max(worst_sq, op.square_deviation() / E ** 2)
        eigs = np.sort(op.eigenvalues())
        dev = max(abs(eigs[0] + E), abs(eigs[1] + E), abs(eigs[2] - E), abs(eigs[3] - E))
        worst_spec = max(worst_spec, dev / E)
    ok = alg <= 1e-12 and worst_sq <= 1e-12 and worst_spec <= 1e-10
    assert verdict(
        7, ok, "operator algebra and spectrum",
        f"anticommutators {alg:.1e} (tol 1e-12), H^2 deviation {worst_sq:.1e} "
        f"(tol 1e-12), branch degeneracy {worst_spec:.1e} (tol 1e-10), 100 momenta",
    )


def test_criterion_08_spin_channel():
    up = spin_eigenvalue(
        SpinContext(channel=SPIN_UP, e=ELEMENTARY_CHARGE, B_z=1.0, M=ELECTRON_MASS)
    )
    dn = spin_eigenvalue(
        SpinContext(channel=SPIN_DOWN, e=ELEMENTARY_CHARGE, B_z=1.0, M=ELECTRON_MASS)
    )
    antisym = up + dn
    mag_err = abs(up - 9.274e-24) / 9.274e-24
    s_up = spin_projection(SPIN_UP)
    s_dn = spin_projection(SPIN_DOWN)
    proj_ok = s_up == (HBAR / 2.0, 0.0, 0.0) and s_dn == (-HBAR / 2.0, 0.0, 0.0)
    ok = antisym == 0.0 and mag_err <= 1e-4 and proj_ok
    assert verdict(
        8, ok, "spin channel energies and projection",
        f"up+down = {antisym:.1e} (exact), magnitude {up:.4e} J "
        f"(9.274e-24 +- 0.01%), S_z = +-hbar/2",
    )


def test_criterion_09_observable_scales():
    geo = resonator_dimensions(6.371e6)
    ratio_err = abs(geo.ratio - math.pi / 2.0)
    v0 = LIGHT_SPEED / 100.0
    M_rel = ELECTRON_MASS / math.sqrt(1.0 - (v0 / LIGHT_SPEED) ** 2)
    q = quantize(M_rel, v0, LIGHT_SPEED, PLANCK)
    params, _ = derive_kinematics(ELECTRON_MASS, v0, LIGHT_SPEED, q.T)
    lo, hi = cross_section_bounds(params).to_cm2()
    ok = ratio_err <= 1e-15 and 1e-17 <= lo <= hi <= 1e-11
    assert verdict(
        9, ok, "derived observable scales",
        f"resonator ratio off pi/2 by {ratio_err:.1e} (tol 1e-15); "
        f"cross-section bounds [{lo:.2e}, {hi:.2e}] cm^2 inside [1e-17, 1e-11]",
    )


def test_criterion_10_convergence_order():
    params, _ = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    errors = []
    for div in (100, 200, 400, 800):
        traj = integrate(params, t_end=10.0, dt=params.T / div)
        errors.append(oracle_errors(traj)["max"])
    floor = 1e-10
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    ok = all(r >= 8.0 or errors[i + 1] <= floor for i, r in enumerate(ratios))
    assert verdict(
        10, ok, "convergence order",
        f"errors {', '.join(f'{e:.2e}' for e in errors)}; halving ratios "
        f"{', '.join(f'{r:.1f}' for r in ratios)} (need >= 8 until the 1e-10 floor)",
    )
