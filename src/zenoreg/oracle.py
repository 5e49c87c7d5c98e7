"""Exact Bose-Hubbard reference for small lattices.

Brute-force Fock-space construction, diagonalization and time evolution of

    H = sum_j eps(j) n_j - J sum_j (a_j^+ a_{j+1} + h.c.) + (U/2) sum_j n_j (n_j - 1)

with eps(j) = delta j^2 and site labels centered on the trap.  Used to
validate the restricted register model and the closed-form free-evolution
fidelity.  An intermediate truncation keeping at most one doubly occupied
site (dimension N(N-1)+1 at unit filling) bridges the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _import_on_one_thread
from .dynamics import (
    DENSE_EIG_CUTOFF,
    MAX_OUTPUT_SAMPLES,
    TrajectorySeries,
    _dense_eigh,
    _propagate,
)
from .register import ModelError, SparseOperator

FULL_BASIS_CAP = 20_000
DOUBLE_OCC_CAP = 100_000


def _occupations(n_atoms: int, n_sites: int):
    """All occupation tuples summing to n_atoms, descending lexicographic."""
    if n_sites == 1:
        yield (n_atoms,)
        return
    for first in range(n_atoms, -1, -1):
        for rest in _occupations(n_atoms - first, n_sites - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation basis for N atoms on M sites."""

    n_atoms: int
    n_sites: int
    boundary: str = "open"
    restricted: bool = False  # at most one doubly occupied site, rest 0/1

    def __post_init__(self) -> None:
        if self.boundary not in ("open", "periodic"):
            raise ModelError(f"unknown boundary {self.boundary!r}")
        if self.n_atoms < 1 or self.n_sites < 1:
            raise ModelError(f"need at least one atom and one site (atoms = {self.n_atoms}, sites = {self.n_sites})")

    @cached_property
    def states(self) -> tuple:
        if self.restricted:
            return self._double_occupancy_states()
        count = math.comb(self.n_atoms + self.n_sites - 1, self.n_sites - 1)
        if count > FULL_BASIS_CAP:
            raise ModelError(
                f"Fock basis would have {count} states (cap {FULL_BASIS_CAP})"
            )
        return tuple(_occupations(self.n_atoms, self.n_sites))

    def _double_occupancy_states(self) -> tuple:
        if self.n_atoms != self.n_sites:
            raise ModelError("double-occupancy truncation assumes unit filling")
        n = self.n_atoms
        if n * (n - 1) + 1 > DOUBLE_OCC_CAP:
            raise ModelError(
                f"double-occupancy basis would have {n * (n - 1) + 1} states (cap {DOUBLE_OCC_CAP})"
            )
        states = [tuple([1] * n)]
        for pair in range(n):
            for hole in range(n):
                if hole == pair:
                    continue
                occ = [1] * n
                occ[pair] = 2
                occ[hole] = 0
                states.append(tuple(occ))
        return tuple(states)

    @cached_property
    def index(self) -> dict:
        return {occ: i for i, occ in enumerate(self.states)}

    @property
    def dimension(self) -> int:
        return len(self.states)

    @cached_property
    def site_labels(self) -> np.ndarray:
        """Site labels centered at 0 (integers when the site count is odd)."""
        return np.arange(self.n_sites, dtype=np.float64) - (self.n_sites - 1) / 2.0

    @property
    def unit_filled_index(self) -> int:
        if self.n_atoms != self.n_sites:
            raise ModelError("unit-filled state requires N = M")
        return self.index[tuple([1] * self.n_sites)]


def fock_basis(n_atoms: int, n_sites: int, boundary: str = "open") -> FockBasis:
    basis = FockBasis(n_atoms, n_sites, boundary)
    basis.states  # force the size check
    return basis


def double_occupancy_basis(n_atoms: int) -> FockBasis:
    """Unit filling plus every single pair-hole defect (any separation)."""
    basis = FockBasis(n_atoms, n_atoms, "open", restricted=True)
    basis.states
    return basis


def build_bose_hubbard(basis: FockBasis, j: float, u: float, delta: float) -> SparseOperator:
    """Sparse Bose-Hubbard Hamiltonian on the given basis.

    Hopping moves one atom between neighboring sites with amplitude
    -J sqrt(n_from) sqrt(n_to + 1); for a restricted basis only matrix
    elements between kept states are generated.  An entry that is not
    finite (an overflowing delta, U or J) is refused.
    """
    labels = basis.site_labels
    bonds = [(s, s + 1) for s in range(basis.n_sites - 1)]
    if basis.boundary == "periodic" and basis.n_sites > 1:
        bonds.append((basis.n_sites - 1, 0))

    triplets = []
    for idx, occ in enumerate(basis.states):
        onsite = 0.5 * u * sum(nj * (nj - 1) for nj in occ)
        trap = delta * float(np.dot(np.asarray(occ, dtype=np.float64), labels**2))
        if not math.isfinite(onsite + trap):
            raise ModelError(f"diagonal entry of {occ} is not finite (delta = {delta:g}, U = {u:g})")
        triplets.append((idx, idx, complex(onsite + trap)))
        for a, b in bonds:
            for src, dst in ((a, b), (b, a)):
                if occ[src] == 0:
                    continue
                moved = list(occ)
                moved[src] -= 1
                moved[dst] += 1
                target = basis.index.get(tuple(moved))
                if target is None:
                    continue
                amp = -j * math.sqrt(occ[src]) * math.sqrt(occ[dst] + 1)
                if not math.isfinite(amp):
                    raise ModelError(f"hopping entry is not finite (J = {j:g})")
                triplets.append((target, idx, complex(amp)))
    return SparseOperator.from_triplets(basis.dimension, triplets, hermitian=True)


def exact_ground_state(op: SparseOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair: dense solve for small operators (``dynamics._dense_eigh``),
    Lanczos above.

    The eigenresidual ||H v - E v|| must be below 1e-8 ||H||, otherwise a
    non-convergence error is raised.
    """
    if op.dim > FULL_BASIS_CAP:
        raise ModelError(f"dimension {op.dim} exceeds the eigensolver cap")
    if op.dim <= DENSE_EIG_CUTOFF:
        energies, vectors = _dense_eigh(op)
    else:
        # only here, to keep it out of the package import; scipy bundles a
        # second OpenBLAS, loaded by this import, on one thread as numpy's
        _import_on_one_thread("scipy.sparse.linalg")
        import scipy.sparse.linalg

        energies, vectors = scipy.sparse.linalg.eigsh(op.matrix, k=1, which="SA")
    energy, vector = float(energies[0]), vectors[:, 0]
    scale = op.frequency_bound()
    residual = float(np.linalg.norm(op.matvec(vector) - energy * vector))
    if residual > 1e-8 * max(scale, 1.0):
        raise ModelError(f"eigensolver did not converge (residual {residual:.3g})")
    return energy, vector


def exact_evolve_fidelity(
    basis: FockBasis,
    j: float,
    u: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    max_samples: int = MAX_OUTPUT_SAMPLES,
) -> TrajectorySeries:
    """Evolution from the unit-filled state within ``basis`` (N = M).

    Returns F(t) = |<unit-filled|psi(t)>|^2 on a uniform grid with the
    energy <H>; the norm is conserved (Hermitian evolution) and reported
    for drift checks.  A given ``dt`` pins RK4, the reference; without it
    the evolution is exact by one dense ``eigh`` whenever the basis fits
    ``dynamics.DENSE_EIG_CUTOFF`` (``backend`` on the result).
    """
    if basis.n_atoms != basis.n_sites:
        raise ModelError("free-evolution fidelity requires N = M")
    op = build_bose_hubbard(basis, j, u, delta)
    target = basis.unit_filled_index
    psi = np.zeros(basis.dimension)
    psi[target] = 1.0
    t, run = _propagate(op, -1j, psi, t_end, dt, max_samples)
    fid, norm, energy = np.empty(t.size), np.empty(t.size), np.empty(t.size)
    for at, rows in run.grid_blocks():
        norm[at] = np.vecdot(rows, rows).real
        fid[at] = np.abs(rows[:, target]) ** 2  # overlap with the unit-filled state
        energy[at] = op.expectations(rows) / norm[at]
    return TrajectorySeries(t=t, fidelity=fid, norm_sq=norm, energy=energy, **run.diagnostics())


def double_occupancy_evolve(
    n_atoms: int,
    j: float,
    u: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    max_samples: int = MAX_OUTPUT_SAMPLES,
) -> TrajectorySeries:
    """Evolution within the one-double-occupancy truncation (N odd)."""
    if n_atoms % 2 == 0:
        raise ModelError("double-occupancy evolution assumes an odd atom number")
    return exact_evolve_fidelity(double_occupancy_basis(n_atoms), j, u, delta, t_end, dt, max_samples)
