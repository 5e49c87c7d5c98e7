import math
import warnings

import pytest
from hypothesis import settings

from zenoreg.params import DerivedParams, derive_params, reference_config

pytest_plugins = ["pytester"]

# property tests replay the same examples on every run
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Build every test's report under the default warning filters.

    A test marked ``filterwarnings("error")`` keeps that filter while its
    report is made, and when a property test fails, hypothesis's report hook
    imports its source-patching helpers; a DeprecationWarning raised by that
    import (libcst pulls in mypy_extensions' TypedDict) would become an
    error inside the hook and stop the whole run with INTERNALERROR."""
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        yield


@pytest.fixture(scope="session")
def reference_cfg():
    return reference_config()


@pytest.fixture(scope="session")
def reference_params(reference_cfg):
    return derive_params(reference_cfg)


def measurement_test_params(n: int = 5, strength: float = 1.5) -> DerivedParams:
    """Reference-like ratios with the stiffness removed for fast ensembles.

    gamma_M = 40 U keeps Omega_M/gamma_M = 0.08 < 0.1 and kappa near 0.13 U
    while allowing a full-model step ~1e-3/U; J is set from the requested
    measurement strength kappa/(2 sqrt(n) J).
    """
    gamma_m = 40.0
    omega_m = 3.2
    kappa = omega_m**2 * gamma_m / (8.0 * (1.0 + (gamma_m / 2.0) ** 2))
    j = kappa / (strength * 2.0 * math.sqrt(n))
    return DerivedParams(
        u_hz=3574.0,
        e_r_hz=3725.0,
        j_over_u=j,
        delta_over_u=1e-4,
        kappa_over_u=kappa,
        omega_m_over_u=omega_m,
        gamma_m_over_u=gamma_m,
        vc_over_u=15.5,
        s_a=6.7e-8,
    )


def free_params(u_over_j: float, delta: float = 0.0) -> DerivedParams:
    """Measurement off: only J and the trap scale matter."""
    return DerivedParams(
        u_hz=3574.0,
        e_r_hz=3725.0,
        j_over_u=1.0 / u_over_j,
        delta_over_u=delta,
        kappa_over_u=0.0,
        omega_m_over_u=0.0,
        gamma_m_over_u=0.0,
        vc_over_u=0.0,
        s_a=0.0,
    )


# Per-bond index arithmetic of the register layout (``register`` module
# docstring), kept here as the reference that ``RestrictedBasis``'s pair
# table (``s_slots``, ``pair_j``, ``pair_sign``) is checked against; |T>
# is index 0 of both layouts.


def bond_position(basis, j: int) -> int:
    """Position of bond j among the bonds in ascending order."""
    pos = j + (basis.n - 1) // 2
    if not 0 <= pos < basis.n_bonds:
        raise ValueError(f"bond label {j} out of range for n={basis.n}")
    return pos


def s_index(basis, j: int, sign: int) -> int:
    """Full-layout index of |S_j^+> (sign=+1) or |S_j^-> (sign=-1)."""
    return 1 + 4 * bond_position(basis, j) + (0 if sign > 0 else 1)


def m_index(basis, j: int, sign: int) -> int:
    """Full-layout index of |M_j^+> (sign=+1) or |M_j^-> (sign=-1)."""
    return 1 + 4 * bond_position(basis, j) + (2 if sign > 0 else 3)


def reduced_s_index(basis, j: int, sign: int) -> int:
    """Index of |S_j^+-> in the T+S (eliminated) layout."""
    return 1 + 2 * bond_position(basis, j) + (0 if sign > 0 else 1)


def grid_rows(run):
    """The grid points of a ``Propagation``, one row at a time, each a view
    that the next block overwrites."""
    return (row for _, rows in run.grid_blocks() for row in rows)
