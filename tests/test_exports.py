import importlib
import pkgutil

import pytest

import inertonsim

_MODULES = [inertonsim] + [
    importlib.import_module(f"inertonsim.{info.name}") for info in pkgutil.iter_modules(inertonsim.__path__)
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# The 57 names the package exported when it listed them by hand.
_EXPORTED_BEFORE = """
    CanonicalState CheckReport CrossSectionBounds DerivedKinematics DiracOperator DivergenceError
    ELResidualReport OscillatorSpec QuantizedKinematics ResonatorGeometry SPIN_DOWN SPIN_UP SpinContext
    SystemParams Trajectory anticommutation_deviations chi_eigenfunction classify_inerton_wave closed_form
    closed_form_trajectory coupling_coefficients coupling_from_speeds cross_section_bounds cyclic_action
    derive_kinematics dirac_hamiltonian dirac_matrices effective_hamiltonian el_residual
    eval_lagrangian_aggregate eval_lagrangian_aggregate_shifted eval_lagrangian_canonical
    eval_lagrangian_relativistic hj_residual integrate invariant_residual kappa_transform
    kappa_transform_inverse lab_frame_action mass_from_deformation natural_params oracle_errors
    pauli_matrices quantize registry_names reports_to_json_lines resonator_dimensions run_checks
    scale_channel shortened_action spin_eigenvalue spin_projection total_hamiltonian write_el_csv
    write_events_json write_trajectory_csv __version__
""".split()


def test_package_exports_each_module_all():
    from inertonsim import action, core, dynamics, lagrangian, observables, spin, verification

    modules = (core, dynamics, lagrangian, action, spin, observables, verification)
    assert inertonsim.__all__ == [name for module in modules for name in module.__all__] + ["__version__"]
    assert len(set(inertonsim.__all__)) == len(inertonsim.__all__)
    assert len(_EXPORTED_BEFORE) == 57
    assert set(inertonsim.__all__) - set(_EXPORTED_BEFORE) == {
        "SAMPLE_DTYPE", "step_count", "residual_scale"
    }
    # the canonical state became a plain mapping, like every other state, and
    # the functions that no command, check, demo or benchmark reached went
    assert set(_EXPORTED_BEFORE) - set(inertonsim.__all__) == {
        "CanonicalState", "mass_from_deformation", "coupling_coefficients", "coupling_from_speeds",
        "natural_params", "closed_form", "invariant_residual", "eval_lagrangian_relativistic",
        "kappa_transform_inverse", "effective_hamiltonian", "chi_eigenfunction",
    }
