"""Measurement-stabilized initialization of a unit-filled atomic register.

Physical parameter derivation, restricted-basis open-system dynamics under
continuous pair measurement, closed-form fidelity laws, and an exact
Bose-Hubbard oracle for small lattices.
"""

import importlib.util
import os
import sys
from pathlib import Path

# Any of these set means the process chose its BLAS thread count itself.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _bundled_openblas(package: str) -> list[Path]:
    """The OpenBLAS files bundled with the installed top-level ``package``
    (in ``<package>.libs`` beside it, or ``<package>/.dylibs``), in name
    order; the package is found, not imported."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return []
    package_dir = Path(spec.origin).parent
    return sorted([*package_dir.parent.glob(f"{package}.libs/*openblas*"), *package_dir.glob(".dylibs/*openblas*")])


def _import_on_one_thread(module: str) -> bool:
    """Import ``module`` with the OpenBLAS bundled with its top-level
    package started on one thread, and say whether that was done.

    OpenBLAS starts a thread per processor when it loads, and an idle one
    busy-waits; ``dynamics._serial_blas`` raises numpy's count only for
    dense work above SERIAL_BLAS_DIM.  OPENBLAS_NUM_THREADS is set for the
    load alone, so child processes do not inherit it.  A process that
    imported ``module`` first, set any of _BLAS_THREAD_VARS or has no
    bundled OpenBLAS for it (MKL, a distribution's build) is left as it is.
    numpy is loaded so by the package import, and scipy's second OpenBLAS
    by the oracle's import of ``scipy.sparse.linalg``.
    """
    if module in sys.modules or any(var in os.environ for var in _BLAS_THREAD_VARS):
        return False
    if not _bundled_openblas(module.partition(".")[0]):
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module(module)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    return True


_numpy_on_one_thread = _import_on_one_thread("numpy")

from .analytics import (
    PreparationStats,
    free_evolution_fidelity,
    perturbative_ground_energy,
    preparation_stats,
    time_averaged_infidelity,
)
from .dynamics import (
    BlochSeries,
    BlochState,
    EnsembleResult,
    IntegrationError,
    ReducedDensityState,
    RMESeries,
    TrajectorySeries,
    bloch_evolution,
    collective_coupling,
    evolve,
    finite_efficiency_fidelity,
    ground_reduced_density,
    jump_ensemble,
    nonselective_fidelity_closed,
    null_trajectory,
    reduced_master_equation,
    zeno_decay_rate,
)
from .oracle import (
    FockBasis,
    build_bose_hubbard,
    double_occupancy_basis,
    double_occupancy_evolve,
    exact_evolve_fidelity,
    exact_ground_state,
    fock_basis,
)
from .params import (
    DerivedParams,
    ParameterError,
    PhysicalConfig,
    RegimeReport,
    derive_params,
    hole_leak_log,
    hole_leak_probability,
    onsite_interaction_hz,
    reference_config,
    parse_config_text,
    read_config,
    recoil_energy_hz,
    regime_check,
    trap_energy_scale_hz,
    tunneling_rate_hz,
)
from .register import (
    ModelError,
    RestrictedBasis,
    SparseOperator,
    StateVector,
    build_basis,
    build_effective_hamiltonian,
    build_eliminated_hamiltonian,
    build_free_hamiltonian,
    build_interaction_hamiltonian,
    coherence_damping_rate,
    fidelity,
    pair_state_energy,
    perturbative_ground_state,
)

__version__ = "0.1.0"
