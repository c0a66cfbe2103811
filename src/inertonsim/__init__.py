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

from .core import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .lagrangian import *  # noqa: F401,F403
from .action import *  # noqa: F401,F403
from .spin import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403
from . import action, core, dynamics, lagrangian, observables, spin, verification

# The public API is each module's own __all__, declared once, there.
__all__ = [
    *core.__all__,
    *dynamics.__all__,
    *lagrangian.__all__,
    *action.__all__,
    *spin.__all__,
    *observables.__all__,
    *verification.__all__,
    "__version__",
]
