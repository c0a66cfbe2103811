"""Named, runnable checks bundling every cross-module invariant.

Each check returns its per-case values (one per draw, grid point or
component) and a fixed tolerance; `run_checks` alone turns them into a
report. ``measured`` is the largest finite value (0.0 if there is none),
``cases`` counts the values and ``non_finite`` the NaN and infinite ones;
a report passes iff it has a case, every case is finite and ``measured <=
tolerance``, so it never holds NaN. Checks draw any randomness from a
generator seeded by ``(seed, name)``, so a selection runs the same no
matter which other checks accompany it, and two runs with the same seed
and parameters agree except for wall-clock timings. The sampled checks
evaluate their draws in one array pass: one generator call draws all of a
check's cases, which then keep the bits of a loop over single draws (see
test_sampled_checks_match_per_draw_loops_bitwise).

The four integrator checks (``oracle_agreement`` to ``convergence_order``)
run at fixed fractions of ``T``, so they depend on the supplied
`SystemParams` only through ``dt/T``: every config gives them the same
dimensionless run, up to the last bits of its time axis.
``transform_invariance`` and ``sigma_scaling`` read the config; the checks
calibrated to a specific regime pin their own configuration and say so in
their docstrings, and the other sampled checks draw their own. Registry:

    oracle_agreement       run's state vs the exact state, per column, 1e-6
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
from .core import SystemParams, _square, derive_kinematics

__all__ = ["CheckReport", "run_checks", "registry_names", "reports_to_json_lines"]


@dataclass
class CheckReport:
    name: str
    status: str       # "pass" | "fail"
    measured: float
    tolerance: float
    runtime_s: float
    cases: int        # values the check returned
    non_finite: int   # of those, NaN or infinite

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# Log bounds of a sampled draw, in column order: v0/c in [0.01, 0.9], T in
# [0.1, 10] and M0 in [0.1, 10], with c = 1.
_LOG_BOUNDS = (
    (math.log(0.01), math.log(0.9)), (math.log(0.1), math.log(10.0)), (math.log(0.1), math.log(10.0)),
)
_LOG_H = (math.log(0.1), math.log(10.0))  # the action quantum of `quantize_roundtrip`


def _draw_params(rng: np.random.Generator, n: int, extra=()):
    """``n`` natural-unit parameter sets drawn log-uniformly, with any
    ``extra`` log bounds as further columns, in one generator call.

    Returns one `SystemParams` of arrays, from `derive_kinematics`, and one
    array per extra column. ``math.exp`` stays per value (see
    test_draw_params_follow_the_per_draw_stream).
    """
    lo, hi = zip(*_LOG_BOUNDS, *extra)
    logs = rng.uniform(lo, hi, size=(n, len(lo)))
    v0, T, M0, *rest = np.array([math.exp(u) for u in logs.ravel().tolist()]).reshape(n, -1).T
    return derive_kinematics(M0, v0, 1.0, T)[0], rest


# --- individual checks ------------------------------------------------------

# Steps per period of `_standard_run`; `_check_periodicity` indexes by it.
_STANDARD_STEPS = 1000


def _standard_run(params):
    """The ten-period run at dt = T/_STANDARD_STEPS that three checks measure."""
    return dynamics.integrate(params, t_end=10.0 * params.T, dt=params.T / _STANDARD_STEPS)


def _check_oracle_agreement(traj):
    errs = dynamics.oracle_errors(traj)
    return [errs[k] for k in ("X", "dXdt", "x", "dxdt")], 1.0e-6


def _check_invariant_conservation(traj):
    return np.abs(traj.rows(0, len(traj), ("residual",))[0]), 1.0e-8


def _check_periodicity(traj):
    """State recurrence over two periods, in the trajectory's units: the
    velocity pair and separation at t = 2nT + dt match the t = dt state
    while X advances by 2n lam (1 - 2/pi).

    The comparison point sits one step past the period boundary because the
    cloud velocity is discontinuous exactly at 2nT: the integrated event can
    land an event-localization slack after the grid sample, which would put
    the two compared states on opposite sides of a reflection and report a
    spurious 2c mismatch. One step in, both states are unambiguous and the
    recurrence statement is unchanged.
    """
    def state(i):
        return traj.rows(i, i + 1, dynamics.ROWS[:4])[:, 0]

    values = []
    xi1, V1, chi1, U1 = state(1)
    for n in range(1, 5):
        xi, V, chi, U = state(2 * n * _STANDARD_STEPS + 1)
        values += [abs(V - V1), abs(chi - chi1), abs(U - U1), abs((xi - xi1) - 2.0 * n * (1.0 - 2.0 / math.pi))]
    return values, 1.0e-6


def _check_convergence_order(params, rng):
    """Halving dt must cut the oracle error at least 8x per halving; each
    halving gives the value 8 / (observed ratio), so <= 1 passes."""
    errors = []
    for divisor in (100, 200, 400, 800):
        traj = dynamics.integrate(params, t_end=10.0 * params.T, dt=params.T / divisor)
        errors.append(dynamics.oracle_errors(traj)["max"])
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return [8.0 / r for r in ratios], 1.0


def _check_el_residual_aggregate(params, rng):
    """Pinned regime: the square-root Lagrangian deviates from the simple
    coupled equations at relative order (v0/c)^2, so the check runs far from
    the wave speed (v0/c = 1e-4) where that systematic sits four decades
    below the tolerance, and uses the shifted evaluator to keep finite
    differences out of cancellation. Normalization is M0 v0 pi / T.
    """
    p_ref, _ = derive_kinematics(M0=1.0, v0=1.0e-4, c=1.0, T=1.0)
    traj = dynamics.closed_form_trajectory(p_ref, t_end=2.0 * p_ref.T)

    def L(s):
        return lagrangian.eval_lagrangian_aggregate_shifted(s, p_ref)

    report = lagrangian.el_residual(L, traj, "particle")
    return [report.max_abs_residual / lagrangian.particle_residual_scale(p_ref)], 1.0e-5


def _check_transform_invariance(params, rng):
    """Canonical vs aggregate Lagrangian on 200 uniform state draws. Draws
    that either Lagrangian refuses (a negative radicand) are left out, not
    replaced, so fewer than 200 may count; with none, the check fails."""
    p = params
    draws = rng.uniform([-p.lam, 0.0, 0.0, -p.c], [p.lam, p.v0, p.Lam, p.c], size=(200, 4))
    s = dict(zip(("X", "dXdt", "x", "dxdt"), draws.T), t=np.zeros(200))
    with np.errstate(all="ignore"):  # overflowing draws give inf and NaN quietly, as floats do
        s = {k: v[lagrangian._admitted(s, p)] for k, v in s.items()}
        la = lagrangian.eval_lagrangian_aggregate(s, p)
        lc = lagrangian.eval_lagrangian_canonical(lagrangian.kappa_transform(s, p), p)
        return np.abs(lc - la) / np.abs(la), 1.0e-9


def _check_action_triple_identity(params, rng):
    draws, _ = _draw_params(rng, 100)
    spec = action_mod.OscillatorSpec.from_params(draws)
    loop = action_mod.cyclic_action(spec)
    e2t = spec.E * 2.0 * draws.T
    p0lam = draws.M * draws.v0 * draws.lam
    deviations = np.stack([np.abs(loop - e2t), np.abs(loop - p0lam), np.abs(e2t - p0lam)], axis=1)
    return (deviations / np.abs(e2t)[:, None]).ravel(), 1.0e-9


def _check_quantize_roundtrip(params, rng):
    draws, (h,) = _draw_params(rng, 100, extra=[_LOG_H])
    T = action_mod.quantize(draws.M, draws.v0, draws.c, h).T
    spec = action_mod.OscillatorSpec.from_motion(draws.M, draws.v0, T)
    return np.abs(action_mod.cyclic_action(spec) - h) / h, 1.0e-9


def _check_hj_grid(params, rng):
    draws, _ = _draw_params(rng, 10)
    spec = action_mod.OscillatorSpec.from_params(draws)
    grid = np.linspace(-0.99 * spec.amplitude, 0.99 * spec.amplitude, 50, axis=-1)  # (draws, points)
    return (np.abs(action_mod.hj_residual(grid, spec)) / spec.E[:, None]).ravel(), 1.0e-7


def _dirac_draws(rng):
    """100 operators ``c alpha.p + rho3 M0 c^2`` at c = 1, stacked, and
    their branch energies (see test_dirac_draws_follow_the_per_draw_stream)."""
    z = rng.standard_normal((100, 4))
    p, M0 = z[:, :3], np.abs(z[:, 3]) + 0.1
    return spin._dirac_stack(p, M0, 1.0), spin.total_hamiltonian(p, 0.0, M0, 1.0)


def _check_dirac_algebra(params, rng):
    H, energies = _dirac_draws(rng)
    return [*spin.anticommutation_deviations().values(), *spin._square_deviations(H, energies)], 1.0e-12


def _check_dirac_spectrum(params, rng):
    H, e = _dirac_draws(rng)
    expected = e[:, None] * np.array([-1.0, -1.0, 1.0, 1.0])
    return np.max(np.abs(np.linalg.eigvalsh(H) - expected), axis=1) / e, 1.0e-10


def _check_channel_antisymmetry(params, rng):
    e, b, m = rng.normal(size=(50, 3)).T
    up, dn = (spin.spin_eigenvalue(spin.SpinContext(channel=s, e=e, B_z=b, M=np.abs(m) + 0.1)) for s in (+1, -1))
    return np.abs(up + dn), 0.0


def _check_sigma_scaling(params, rng):
    """The config, then its 50 draws in one array call."""
    draws, _ = _draw_params(rng, 50)
    values = []
    for p in (params, draws):
        bounds = observables.cross_section_bounds(p)
        expected = _square(p.c / p.v0, "(c/v0)")
        values = np.append(values, np.abs(bounds.upper / bounds.lower - expected) / expected)
    return values, 1.0e-12


def _check_resonator_ratio(params, rng):
    # one generator call; `math.exp` per value, which numpy's `exp` does not always round alike
    radii = np.array([math.exp(u) for u in rng.uniform(math.log(1.0), math.log(1.0e8), size=10).tolist()])
    return np.abs(observables.resonator_dimensions(radii).ratio - math.pi / 2.0), 1.0e-15


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


def run_checks(params: SystemParams, selection: list[str] | None, seed: int) -> list[CheckReport]:
    """Run the selected checks (all of them if ``selection`` is None)
    deterministically on the config ``params``, each drawing from ``seed``.

    Unknown names raise a ValueError that lists the registry. Reports come
    back in registry order regardless of the selection's order. The checks
    on the standard ten-period run share one integration, paid for inside
    the first of them to run.
    """
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
            values, tolerance = _REGISTRY[name](standard_run)
        else:
            values, tolerance = _REGISTRY[name](params, rng)
        elapsed = time.perf_counter() - started
        values = np.asarray(values, dtype=float)
        finite = values[np.isfinite(values)]
        measured = float(np.max(finite, initial=0.0))
        passed = values.size > 0 and finite.size == values.size and measured <= tolerance
        reports.append(
            CheckReport(
                name=name,
                status="pass" if passed else "fail",
                measured=measured,
                tolerance=float(tolerance),
                runtime_s=elapsed,
                cases=values.size,
                non_finite=values.size - finite.size,
            )
        )
    return reports


def reports_to_json_lines(reports: list[CheckReport]) -> str:
    return "\n".join(json.dumps(vars(r), allow_nan=False) for r in reports) + "\n"
