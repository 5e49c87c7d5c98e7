import math

import pytest
from hypothesis import settings

from zenoreg.params import DerivedParams, derive_params, reference_config

# property tests replay the same examples on every run
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


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
