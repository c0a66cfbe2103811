"""Named, runnable checks bundling every cross-module invariant.

Each check measures one number and compares it against a fixed tolerance;
a report passes iff ``measured <= tolerance``. Checks draw any randomness
from a generator seeded by ``(seed, name)``, so a selection runs the same
no matter which other checks accompany it, and two runs with the same seed
and parameters agree except for wall-clock timings.

Most checks respect the supplied `SystemParams`; the ones whose tolerances
are calibrated to a specific regime pin their own configuration and say so
in their docstrings. Registry:

    oracle_agreement       integrated run vs closed form, scaled, 1e-6
    invariant_conservation first-integral residual along a run, 1e-8
    periodicity            state recurrence at even contact times, 1e-6
    convergence_order      fourth-order error decay under step halving
    el_residual_aggregate  Euler-Lagrange residual of the closed form, 1e-5
    transform_invariance   canonical vs aggregate Lagrangian, 1e-9
    action_triple_identity loop action = E*2T = p0*lam, 1e-9
    quantize_roundtrip     action quantum recovered from quantize, 1e-9
    hj_grid                Hamilton-Jacobi residual on a grid, 1e-7 of E
    dirac_algebra          anticommutators and the squared operator, 1e-12
    dirac_spectrum         doubly degenerate branch energies, 1e-10
    channel_antisymmetry   spin channel energies sum to zero, exactly
    sigma_scaling          bound ratio equals (c/v0)^2, 1e-12
    resonator_ratio        L1/L2 equals pi/2, 1e-15
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import action as action_mod
from . import dynamics, lagrangian, observables, spin
from .core import SystemParams, derive_kinematics, natural_params

__all__ = ["CheckReport", "run_checks", "registry_names", "reports_to_json_lines"]


@dataclass
class CheckReport:
    name: str
    status: str       # "pass" | "fail"
    measured: float
    tolerance: float
    runtime_s: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "runtime_s": self.runtime_s,
        }


def _sample_params(rng: np.random.Generator) -> SystemParams:
    """Draw natural-unit parameters log-uniformly: v0/c in [0.01, 0.9],
    T in [0.1, 10], M0 in [0.1, 10], with c = 1."""
    v0 = math.exp(rng.uniform(math.log(0.01), math.log(0.9)))
    T = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    M0 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    params, _ = derive_kinematics(M0=M0, v0=v0, c=1.0, T=T)
    return params


# --- individual checks ------------------------------------------------------

def _standard_run(params):
    """The ten-period run at dt = T/1000 that three checks measure."""
    return dynamics.integrate(params, t_end=10.0 * params.T, dt=params.T / 1000.0)


def _check_oracle_agreement(traj):
    return dynamics.oracle_errors(traj)["max"], 1.0e-6


def _check_invariant_conservation(traj):
    return float(np.max(np.abs(traj.invariant_residuals))), 1.0e-8


def _check_periodicity(traj):
    """State recurrence over two periods: the velocity pair and separation
    at t = 2nT + dt match the t = dt state while X advances by
    2n lam (1 - 2/pi).

    The comparison point sits one step past the period boundary because the
    cloud velocity is discontinuous exactly at 2nT: the integrated event can
    land an event-localization slack after the grid sample, which would put
    the two compared states on opposite sides of a reflection and report a
    spurious 2c mismatch. One step in, both states are unambiguous and the
    recurrence statement is unchanged.
    """
    p = traj.params
    s0 = traj.samples[1]
    worst = 0.0
    for n in range(1, 5):
        s = traj.samples[2 * n * 1000 + 1]
        drift = 2.0 * n * p.lam * (1.0 - 2.0 / math.pi)
        worst = max(
            worst,
            abs(s["dXdt"] - s0["dXdt"]) / p.v0,
            abs(s["x"] - s0["x"]) / p.Lam,
            abs(s["dxdt"] - s0["dxdt"]) / p.c,
            abs((s["X"] - s0["X"]) - drift) / p.lam,
        )
    return worst, 1.0e-6


def _check_convergence_order(params, rng):
    """Halving dt must cut the oracle error at least 8x per halving; the
    measured value is 8 / (worst observed ratio), so <= 1 passes."""
    errors = []
    for divisor in (100, 200, 400, 800):
        traj = dynamics.integrate(params, t_end=10.0 * params.T, dt=params.T / divisor)
        errors.append(dynamics.oracle_errors(traj)["max"])
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return 8.0 / min(ratios), 1.0


def _check_el_residual_aggregate(params, rng):
    """Pinned regime: the square-root Lagrangian deviates from the simple
    coupled equations at relative order (v0/c)^2, so the check runs far from
    the wave speed (v0/c = 1e-4) where that systematic sits four decades
    below the tolerance, and uses the shifted evaluator to keep finite
    differences out of cancellation. Normalization is M0 v0 pi / T.
    """
    p_ref, _ = derive_kinematics(M0=1.0, v0=1.0e-4, c=1.0, T=1.0)
    traj = dynamics.closed_form_trajectory(p_ref, t_end=2.0 * p_ref.T, n_per_period=4000)

    def L(s):
        return lagrangian.eval_lagrangian_aggregate_shifted(s, p_ref)

    report = lagrangian.el_residual(L, traj, "particle")
    return report.max_abs_residual / lagrangian.particle_residual_scale(p_ref), 1.0e-5


def _check_transform_invariance(params, rng):
    p = params
    worst = 0.0
    for _ in range(200):
        s = dict(
            t=0.0,
            X=rng.uniform(-p.lam, p.lam),
            dXdt=rng.uniform(0.0, p.v0),
            x=rng.uniform(0.0, p.Lam),
            dxdt=rng.uniform(-p.c, p.c),
        )
        try:
            la = lagrangian.eval_lagrangian_aggregate(s, p)
            lc = lagrangian.eval_lagrangian_canonical(lagrangian.kappa_transform(s, p), p)
        except ValueError:
            continue  # radicand outside the validity region; draw again
        worst = max(worst, abs(lc - la) / abs(la))
    return worst, 1.0e-9


def _check_action_triple_identity(params, rng):
    worst = 0.0
    for _ in range(100):
        p = _sample_params(rng)
        spec = action_mod.OscillatorSpec.from_params(p)
        loop = action_mod.cyclic_action(spec)
        e2t = spec.E * 2.0 * p.T
        p0lam = p.M * p.v0 * p.lam
        scale = abs(e2t)
        worst = max(
            worst,
            abs(loop - e2t) / scale,
            abs(loop - p0lam) / scale,
            abs(e2t - p0lam) / scale,
        )
    return worst, 1.0e-9


def _check_quantize_roundtrip(params, rng):
    worst = 0.0
    for _ in range(100):
        p = _sample_params(rng)
        h = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        qk = action_mod.quantize(p.M, p.v0, p.c, h)
        spec = action_mod.OscillatorSpec.from_motion(p.M, p.v0, qk.T)
        worst = max(worst, abs(action_mod.cyclic_action(spec) - h) / h)
    return worst, 1.0e-9


def _check_hj_grid(params, rng):
    worst = 0.0
    for _ in range(10):
        p = _sample_params(rng)
        spec = action_mod.OscillatorSpec.from_params(p)
        for X in np.linspace(-0.99 * spec.amplitude, 0.99 * spec.amplitude, 50):
            worst = max(worst, abs(action_mod.hj_residual(float(X), spec)) / spec.E)
    return worst, 1.0e-7


def _check_dirac_algebra(params, rng):
    worst = max(spin.anticommutation_deviations().values())
    for _ in range(100):
        p_vec = rng.normal(size=3)
        op = spin.dirac_hamiltonian(p_vec, M0=abs(rng.normal()) + 0.1, c=1.0)
        worst = max(worst, op.square_deviation())
    return worst, 1.0e-12


def _check_dirac_spectrum(params, rng):
    worst = 0.0
    for _ in range(100):
        p_vec = rng.normal(size=3)
        op = spin.dirac_hamiltonian(p_vec, M0=abs(rng.normal()) + 0.1, c=1.0)
        e = op.expected_branch_energy()
        expected = np.array([-e, -e, e, e])
        worst = max(worst, float(np.max(np.abs(op.eigenvalues() - expected)) / e))
    return worst, 1.0e-10


def _check_channel_antisymmetry(params, rng):
    worst = 0.0
    for _ in range(50):
        e, b, m = rng.normal(), rng.normal(), abs(rng.normal()) + 0.1
        up = spin.spin_eigenvalue(spin.SpinContext(channel=+1, e=e, B_z=b, M=m))
        dn = spin.spin_eigenvalue(spin.SpinContext(channel=-1, e=e, B_z=b, M=m))
        worst = max(worst, abs(up + dn))
    return worst, 0.0


def _check_sigma_scaling(params, rng):
    candidates = [params] + [_sample_params(rng) for _ in range(50)]
    worst = 0.0
    for p in candidates:
        bounds = observables.cross_section_bounds(p)
        expected = (p.c / p.v0) ** 2
        worst = max(worst, abs(bounds.upper / bounds.lower - expected) / expected)
    return worst, 1.0e-12


def _check_resonator_ratio(params, rng):
    worst = 0.0
    for _ in range(10):
        R = math.exp(rng.uniform(math.log(1.0), math.log(1.0e8)))
        geo = observables.resonator_dimensions(R)
        worst = max(worst, abs(geo.ratio - math.pi / 2.0))
    return worst, 1.0e-15


# Checks that measure the shared `_standard_run`; they take the trajectory
# instead of (params, rng).
_ON_STANDARD_RUN = frozenset({"oracle_agreement", "invariant_conservation", "periodicity"})

_REGISTRY = {
    "oracle_agreement": _check_oracle_agreement,
    "invariant_conservation": _check_invariant_conservation,
    "periodicity": _check_periodicity,
    "convergence_order": _check_convergence_order,
    "el_residual_aggregate": _check_el_residual_aggregate,
    "transform_invariance": _check_transform_invariance,
    "action_triple_identity": _check_action_triple_identity,
    "quantize_roundtrip": _check_quantize_roundtrip,
    "hj_grid": _check_hj_grid,
    "dirac_algebra": _check_dirac_algebra,
    "dirac_spectrum": _check_dirac_spectrum,
    "channel_antisymmetry": _check_channel_antisymmetry,
    "sigma_scaling": _check_sigma_scaling,
    "resonator_ratio": _check_resonator_ratio,
}


def registry_names() -> list[str]:
    return list(_REGISTRY)


def run_checks(
    selection: list[str] | None = None,
    params: SystemParams | None = None,
    seed: int = 0,
) -> list[CheckReport]:
    """Run the selected checks (all of them by default) deterministically.

    Unknown names raise a ValueError that lists the registry. Reports come
    back in registry order regardless of the selection's order. The checks
    on the standard ten-period run share one integration, paid for inside
    the first of them to run.
    """
    if params is None:
        params = natural_params()
    if selection is None:
        chosen = registry_names()
    else:
        unknown = [n for n in selection if n not in _REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown check name(s) {unknown}; registry: {registry_names()}"
            )
        chosen = [n for n in registry_names() if n in set(selection)]

    reports = []
    standard_run = None
    for name in chosen:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        started = time.perf_counter()
        if name in _ON_STANDARD_RUN:
            if standard_run is None:
                standard_run = _standard_run(params)
            measured, tolerance = _REGISTRY[name](standard_run)
        else:
            measured, tolerance = _REGISTRY[name](params, rng)
        elapsed = time.perf_counter() - started
        reports.append(
            CheckReport(
                name=name,
                status="pass" if measured <= tolerance else "fail",
                measured=float(measured),
                tolerance=float(tolerance),
                runtime_s=elapsed,
            )
        )
    return reports


def reports_to_json_lines(reports: list[CheckReport]) -> str:
    return "\n".join(json.dumps(r.to_json_dict()) for r in reports) + "\n"
