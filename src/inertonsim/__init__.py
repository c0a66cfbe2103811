"""Deterministic simulator and verification suite for a particle coupled to
an oscillating massive cloud.

The package integrates the coupled equations of motion with reflection
events at cloud closure, checks the result against closed-form solutions
and a conserved velocity-circle invariant, evaluates Lagrangian and
action-based identities (Euler-Lagrange residuals, Hamilton-Jacobi
residuals, the cyclic action increment and the wavelength relations that
follow from quantizing it), constructs the spin-channel and 4x4 operator
algebra, and exposes everything through a scriptable CLI plus a named
registry of verification checks.
"""

__version__ = "0.1.0"

from .core import (
    AggregateState,
    DerivedKinematics,
    SystemParams,
    coupling_coefficients,
    coupling_from_speeds,
    derive_kinematics,
    mass_from_deformation,
    natural_params,
)
from .dynamics import (
    DivergenceError,
    ReflectionEvent,
    Trajectory,
    closed_form,
    closed_form_trajectory,
    integrate,
    invariant_residual,
    oracle_errors,
    write_events_json,
    write_trajectory_csv,
)
from .lagrangian import (
    CanonicalState,
    ELResidualReport,
    el_residual,
    eval_lagrangian_aggregate,
    eval_lagrangian_aggregate_shifted,
    eval_lagrangian_canonical,
    eval_lagrangian_relativistic,
    kappa_transform,
    kappa_transform_inverse,
    scale_channel,
    write_el_csv,
)
from .action import (
    OscillatorSpec,
    QuantizedKinematics,
    cyclic_action,
    effective_hamiltonian,
    hj_residual,
    lab_frame_action,
    quantize,
    shortened_action,
)
from .spin import (
    SPIN_DOWN,
    SPIN_UP,
    DiracOperator,
    SpinContext,
    anticommutation_deviations,
    chi_eigenfunction,
    classify_inerton_wave,
    dirac_hamiltonian,
    dirac_matrices,
    pauli_matrices,
    spin_eigenvalue,
    spin_projection,
    total_hamiltonian,
)
from .observables import (
    CrossSectionBounds,
    ResonatorGeometry,
    cross_section_bounds,
    resonator_dimensions,
)
from .verification import CheckReport, registry_names, reports_to_json_lines, run_checks

__all__ = [
    "AggregateState",
    "CanonicalState",
    "CheckReport",
    "CrossSectionBounds",
    "DerivedKinematics",
    "DiracOperator",
    "DivergenceError",
    "ELResidualReport",
    "OscillatorSpec",
    "QuantizedKinematics",
    "ReflectionEvent",
    "ResonatorGeometry",
    "SPIN_DOWN",
    "SPIN_UP",
    "SpinContext",
    "SystemParams",
    "Trajectory",
    "anticommutation_deviations",
    "chi_eigenfunction",
    "classify_inerton_wave",
    "closed_form",
    "closed_form_trajectory",
    "coupling_coefficients",
    "coupling_from_speeds",
    "cross_section_bounds",
    "cyclic_action",
    "derive_kinematics",
    "dirac_hamiltonian",
    "dirac_matrices",
    "effective_hamiltonian",
    "el_residual",
    "eval_lagrangian_aggregate",
    "eval_lagrangian_aggregate_shifted",
    "eval_lagrangian_canonical",
    "eval_lagrangian_relativistic",
    "hj_residual",
    "integrate",
    "invariant_residual",
    "kappa_transform",
    "kappa_transform_inverse",
    "lab_frame_action",
    "mass_from_deformation",
    "natural_params",
    "oracle_errors",
    "pauli_matrices",
    "quantize",
    "registry_names",
    "reports_to_json_lines",
    "resonator_dimensions",
    "run_checks",
    "scale_channel",
    "shortened_action",
    "spin_eigenvalue",
    "spin_projection",
    "total_hamiltonian",
    "write_el_csv",
    "write_events_json",
    "write_trajectory_csv",
    "__version__",
]
