import pytest

from inertonsim import derive_kinematics, integrate


def pytest_configure(config):
    # a numpy RuntimeWarning (overflow, invalid value) is a test failure
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture(scope="session")
def natural():
    """Natural test units: M0=1, v0=1, c=10, T=1."""
    params, kin = derive_kinematics(1.0, 1.0, 10.0, 1.0)
    return params, kin


@pytest.fixture(scope="session")
def natural_traj(natural):
    """The standard ten-period run at dt = T/1000, shared where the exact
    trajectory identity does not matter for the assertion."""
    params, _ = natural
    return integrate(params, t_end=10.0 * params.T, dt=params.T / 1000.0)
