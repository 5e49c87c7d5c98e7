"""Restricted many-body basis and operators for the measured register.

An n-site register (n odd) holds one atom per site in the target state |T>.
The only defects kept are a single atom pair next to its hole.  For each
bond j (connecting sites j and j+1, j = -(n-1)/2 .. (n-1)/2 - 1) there are
two pair-hole orientations and, under the catalysis laser, two
photoassociated molecular states:

    |S_j^+> : pair at site j,   hole at site j+1
    |S_j^-> : pair at site j+1, hole at site j
    |M_j^+->: same defect with the pair bound into a molecule

Basis order is |T> first, then (S_j^+, S_j^-, M_j^+, M_j^-) per bond in
ascending j.  Full dimension 1 + 4(n-1).  Operators that eliminate the
molecular states act on the T+S subspace in the same order with the M
slots dropped (dimension 1 + 2(n-1)).

With the trap offset eps(j) = delta j^2 and |T> defining the zero of
energy, the pair-state energies are E(S_j^+/-) = U -/+ delta (2j+1); all
energies here are in units of U (so U = 1).  ``RestrictedBasis`` holds this
layout and spectrum as arrays over the pair states, and every operator and
state below is built from them.  Every operator is a block arrowhead, T
coupled to one tail per pair state ((S, M), or S alone), and
``_block_arrowhead`` is the one assembler of it (and of the master
equation's generator): it keeps the parts on the ``SparseOperator`` it
returns.  ``BrightSector`` is the smaller layout, one state per group of
equal-energy pair states, that the conditioned dynamics from the
perturbative ground state never leaves; ``BrightSector.restrict`` folds
those parts into its operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .params import DerivedParams

HERMITIAN_TOL = 1e-12


class ModelError(ValueError):
    """Raised for invalid basis or state construction."""


@dataclass(frozen=True)
class RestrictedBasis:
    """Index map over {|T>, |S_j^+->, |M_j^+->} for an n-site register."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3 or self.n % 2 == 0:
            raise ModelError(f"register size n must be odd and >= 3, got {self.n}")

    @property
    def dimension(self) -> int:
        return 1 + 4 * (self.n - 1)

    @property
    def reduced_dimension(self) -> int:
        """Dimension of the T+S subspace used after molecular elimination."""
        return 1 + 2 * (self.n - 1)

    @property
    def n_bonds(self) -> int:
        return self.n - 1

    @cached_property
    def bonds(self) -> np.ndarray:
        half = (self.n - 1) // 2
        return np.arange(-half, half)

    # Pair-state table, T+S order (per bond in ascending j: +, -).

    @cached_property
    def pair_j(self) -> np.ndarray:
        """Bond label j of each pair state."""
        return np.repeat(self.bonds, 2)

    @cached_property
    def pair_sign(self) -> np.ndarray:
        """Orientation of each pair state: +1 for S_j^+, -1 for S_j^-."""
        return np.tile([1, -1], self.n_bonds)

    @cached_property
    def s_slots(self) -> np.ndarray:
        """Full-layout index of each pair state; its molecule sits at s_slots + 2."""
        return 1 + 4 * np.repeat(np.arange(self.n_bonds), 2) + np.tile([0, 1], self.n_bonds)

    def pair_energies(self, delta: float) -> np.ndarray:
        """E(S_j^+-) of each pair state in units of U."""
        return pair_state_energy(self.pair_j, self.pair_sign, 1.0, delta)


def build_basis(n: int) -> RestrictedBasis:
    return RestrictedBasis(n)


def pair_state_energy(j, sign, u: float, delta: float):
    """Energy of |S_j^+-> relative to |T>: U -/+ delta (2j+1); j and sign
    may be arrays."""
    return u - sign * delta * (2 * j + 1)


@dataclass
class SparseOperator:
    """Sparse matrix in canonical coordinate form: entries sorted by
    (row, col), each (row, col) once, explicit zeros kept.

    Everything but ``matrix`` is plain numpy and gives scipy's CSR results
    bit for bit (an entry given three or more times may sum in another
    order); ``matrix``, the CSR form that the RK4 kernel and the Lanczos
    solver take, is built (and scipy.sparse imported) only on first use.
    ``from_coo`` gives complex128 values; the master equation's generator is
    float64.  ``arrowhead`` holds the parts (a0, slots, u, v, blocks) of an
    operator that ``_block_arrowhead`` assembled, else None; any other
    constructor, ``dataclasses.replace`` too, leaves it None.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    hermitian: bool = False
    arrowhead: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_coo(cls, dim: int, rows, cols, vals, hermitian: bool = False) -> "SparseOperator":
        return cls._canonical(dim, rows, cols, np.asarray(vals, dtype=np.complex128), hermitian)

    @classmethod
    def _canonical(cls, dim: int, rows, cols, vals: np.ndarray, hermitian: bool = False) -> "SparseOperator":
        """The operator with entries ``vals`` at (``rows``, ``cols``), of
        ``vals``' dtype: sorted by (row, col), so serialized operators are
        reproducible, with each run of equal (row, col) summed once."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim):
            raise ModelError("sparse entry index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        starts = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1))
        op = cls(dim, rows[starts], cols[starts], np.add.reduceat(vals, starts), hermitian)
        if hermitian and not op.is_hermitian():
            raise ModelError("operator marked hermitian is not")
        return op

    @classmethod
    def from_triplets(cls, dim: int, triplets, hermitian: bool = False) -> "SparseOperator":
        rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
        return cls.from_coo(dim, rows, cols, vals, hermitian)

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @cached_property
    def matrix(self):
        """CSR form (scipy.sparse.csr_matrix), for RK4 and ``eigsh``."""
        import scipy.sparse  # only here, to keep it out of the package import

        return scipy.sparse.csr_matrix((self.vals, (self.rows, self.cols)), shape=self.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The (complex) product with ``x``, each row summed from zero in
        column order as CSR's kernel does.  The entry products are formed
        from real parts, as there; numpy's complex multiply may round
        differently."""
        a, b = self.vals, np.asarray(x)[self.cols]
        out = np.empty(self.dim, dtype=np.complex128)
        out.real = np.bincount(self.rows, a.real * b.real - a.imag * b.imag, self.dim)
        out.imag = np.bincount(self.rows, a.real * b.imag + a.imag * b.real, self.dim)
        return out

    __matmul__ = matvec

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """Re <y|op|y> for every row y of ``states``, summed over the entries.

        The entries are gathered for a chunk of rows at a time, as many as
        keep each gather within the size of ``states``.  A gather of two or
        more rows is column-major, so each row sums entry by entry, while a
        lone row sums pairwise; so no chunk is a lone row unless ``states``
        is, and every row sums as in one gather of them all."""
        out = np.empty(len(states))
        chunk = max(2, states.size // max(self.nnz, 1))
        bounds = [*range(0, max(len(states) - 1, 1), chunk), len(states)]
        for lo, hi in zip(bounds, bounds[1:]):
            out[lo:hi] = self._gathered_expectations(states[lo:hi])
        return out

    def _gathered_expectations(self, states: np.ndarray) -> np.ndarray:
        bra = states[:, self.rows]
        np.conjugate(bra, out=bra)
        products = states[:, self.cols]
        products *= self.vals
        products *= bra
        return products.sum(axis=1).real

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] += self.vals  # onto zeros, as CSR's toarray: -0.0 reads 0.0
        return out

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        diff = SparseOperator._canonical(
            self.dim,
            np.concatenate((self.rows, self.cols)),
            np.concatenate((self.cols, self.rows)),
            np.concatenate((self.vals, -self.vals.conj())),
        )
        return bool(np.abs(diff.vals).max(initial=0.0) <= tol)

    def frequency_bound(self) -> float:
        """max |diagonal| + max off-diagonal row sum; bounds the spectrum.

        Row sums are ``np.add.reduceat`` over the rows, as scipy's CSR sum."""
        absval = np.abs(self.vals)
        on_diag = self.rows == self.cols
        diag = np.bincount(self.rows[on_diag], absval[on_diag], self.dim)
        starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        row_sums = np.zeros(self.dim)
        row_sums[self.rows[starts]] = np.add.reduceat(absval, starts)
        row_sums -= diag
        return float(diag.max(initial=0.0) + row_sums.max(initial=0.0))


@dataclass
class StateVector:
    """Complex amplitudes over a restricted basis (full or T+S layout)."""

    basis: RestrictedBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape not in ((self.basis.dimension,), (self.basis.reduced_dimension,)):
            raise ModelError(
                f"amplitude length {self.amplitudes.shape} matches neither the full "
                f"({self.basis.dimension}) nor reduced ({self.basis.reduced_dimension}) layout"
            )
        if not np.all(np.isfinite(self.amplitudes.view(np.float64))):
            raise ModelError("state amplitudes must be finite")

    @property
    def is_reduced(self) -> bool:
        return self.amplitudes.shape[0] == self.basis.reduced_dimension

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())

    def reduced(self) -> "StateVector":
        """Project onto the T+S subspace (drops molecular amplitudes)."""
        if self.is_reduced:
            return self.copy()
        return StateVector(self.basis, self.amplitudes[np.r_[0, self.basis.s_slots]])

    def expanded(self) -> "StateVector":
        """Embed a T+S state into the full layout (zero molecular amplitudes)."""
        if not self.is_reduced:
            return self.copy()
        amps = np.zeros(self.basis.dimension, dtype=np.complex128)
        amps[np.r_[0, self.basis.s_slots]] = self.amplitudes
        return StateVector(self.basis, amps)


def fidelity(psi: StateVector) -> float:
    """Conditioned target-state fidelity |c_T|^2 / ||psi||^2."""
    norm = psi.norm_sq()
    if norm <= 0.0:
        raise ModelError("fidelity undefined for a zero-norm state")
    return float(abs(psi.amplitudes[0]) ** 2 / norm)


class BrightSector:
    """T and the uniform superposition of each group of equal-energy pair
    states, with that group's molecular superposition if ``molecular``.

    A pair state's energy fixes its diagonal, its damping kappa_j and its
    molecular detuning, and T couples to every pair state by the same
    -sqrt(2) J, so a register operator maps this span into itself and
    couples T to group g by -sqrt(2) J sqrt(size_g) (the Morris-Shore
    bright/dark split).  The register's trap is symmetric about its centre,
    so at delta != 0 the groups are the mirror couples (j, +) and (-j-1, -)
    and at delta = 0 all pair states form one group.  Layout: T, the groups
    in ascending energy, then (molecular) their molecules in the same order.

    The sector is the isometry P onto this span from the full layout (a T+S
    layout is read as one with zero molecular slots): ``index`` is the
    sector state of each full-layout slot (-1: a molecule outside a sector
    without molecules), where P has the weight 1/sqrt(size), ``size`` being
    each sector state's group size (1 for T).  ``group`` is the group of
    each pair state and ``first`` the first member of each group, whose
    tail ``restrict`` keeps.
    """

    def __init__(self, basis: RestrictedBasis, delta: float, molecular: bool):
        self.basis, self.molecular = basis, molecular
        energies = basis.pair_energies(delta)
        _, self.first, self.group, size = np.unique(energies, return_index=True, return_inverse=True, return_counts=True)
        parts = range(2 if molecular else 1)
        self.dim = 1 + len(parts) * size.size
        self.size = np.concatenate([[1]] + [size for _ in parts])
        self.index = np.full(basis.dimension, -1)
        slots = np.concatenate([[0]] + [basis.s_slots + 2 * k for k in parts])
        self.index[slots] = np.concatenate([[0]] + [1 + k * size.size + self.group for k in parts])

    def restrict(self, op: SparseOperator) -> SparseOperator:
        """P^H op P, the block of the register operator ``op`` (full or T+S
        layout, from the builders' ``_block_arrowhead``) on the sector: each
        group keeps its first member's tail, coupled to T by
        size (u / sqrt(size)).  Raises ModelError for another operator, for
        tails that differ within a group and for molecular tails given to a
        sector without molecules."""
        if op.dim not in (self.basis.dimension, self.basis.reduced_dimension):
            raise ModelError(f"dimension {op.dim} is neither the full nor the T+S layout of n={self.basis.n}")
        if op.arrowhead is None:
            raise ModelError("restrict takes the operators of the register builders, which keep their arrowhead parts")
        a0, slots, u, v, blocks = op.arrowhead
        groups, width = self.first.size, slots.shape[1]
        if width > (2 if self.molecular else 1):
            raise ModelError("operator has molecular entries, outside a sector without molecules")
        if not all(np.array_equal(x, x[self.first][self.group]) for x in (u, v, blocks)):
            raise ModelError("operator differs within a group of equal-energy pair states")
        size = self.size[1 : 1 + groups, None]
        u, v = (size * (x[self.first] / np.sqrt(size)) for x in (u, v))
        slots = 1 + np.arange(groups)[:, None] + groups * np.arange(width)
        return _block_arrowhead(self.dim, a0, slots, u, v, blocks[self.first], op.hermitian)

    def project(self, state: StateVector) -> np.ndarray:
        """P^H psi: sector amplitudes of ``state``, whose pair (and molecular)
        amplitudes must be equal within each group, so each is sqrt(size)
        times the shared amplitude.  Raises ModelError for a state with a
        dark part, or with molecular amplitudes given to a sector without
        molecules."""
        inside = self.index >= 0
        amps = state.expanded().amplitudes
        if np.any(amps[~inside]):
            raise ModelError("state has molecular amplitudes, outside a sector without molecules")
        amps = amps[inside]
        shared = np.empty(self.dim, dtype=np.complex128)
        shared[self.index[inside]] = amps  # one member's amplitude per sector state
        if not np.array_equal(amps, shared[self.index[inside]]):
            raise ModelError("state differs within a group of equal-energy pair states")
        return shared * np.sqrt(self.size)

    def embed(self, amps: np.ndarray) -> StateVector:
        """P a: the state with sector amplitudes ``amps``, in the full layout
        if ``molecular``, else in the T+S layout."""
        inside = self.index >= 0
        out = np.zeros(self.basis.dimension, dtype=np.complex128)
        out[inside] = (amps / np.sqrt(self.size))[self.index[inside]]
        state = StateVector(self.basis, out)
        return state if self.molecular else state.reduced()


def _block_arrowhead(dim, a0, slots, u, v, blocks, hermitian=False) -> SparseOperator:
    """The block arrowhead with a0 at (0, 0) and, for each tail g, its b
    states at ``slots[g]`` (``slots`` is G x b), the hub's couplings
    ``u[g]`` in row 0 and ``v[g]`` in column 0, and its own b x b block
    ``blocks[g]``; ``u``, ``v`` and ``blocks`` broadcast to G x b and
    G x b x b.  Zero entries are left out, and the values take the common
    type of the parts.  The operator keeps the parts as ``arrowhead``, which
    ``BrightSector.restrict`` and the secular solver read."""
    u, v = (np.broadcast_to(x, slots.shape) for x in (u, v))
    blocks = np.broadcast_to(blocks, slots.shape + slots.shape[-1:])
    hub, square = np.zeros(slots.size, dtype=np.int64), np.broadcast_to(slots[:, :, None], blocks.shape)
    rows = np.concatenate(([0], hub, slots.ravel(), square.ravel()))
    cols = np.concatenate(([0], slots.ravel(), hub, square.transpose(0, 2, 1).ravel()))
    vals = np.concatenate(([a0], u.ravel(), v.ravel(), blocks.ravel()))
    keep = vals != 0
    op = SparseOperator._canonical(dim, rows[keep], cols[keep], vals[keep], hermitian)
    op.arrowhead = (a0, slots, u, v, blocks)
    return op


def _molecular_hamiltonian(basis: RestrictedBasis, p: DerivedParams, loss: float, hermitian: bool):
    """Full-layout Hamiltonian with -i loss/2 on every molecular diagonal."""
    s_diag = p.vc_over_u + basis.pair_energies(p.delta_over_u)
    m_diag = s_diag - 1.0 - 0.5j * loss
    half = np.full(s_diag.size, p.omega_m_over_u / 2.0)
    blocks = np.stack([s_diag, half, half, m_diag], axis=1).reshape(-1, 2, 2)  # a tail (S, M) per pair state
    hop = [-math.sqrt(2.0) * p.j_over_u, 0.0]
    return _block_arrowhead(basis.dimension, 0j, basis.s_slots[:, None] + [0, 2], hop, hop, blocks, hermitian)


def build_interaction_hamiltonian(basis: RestrictedBasis, p: DerivedParams) -> SparseOperator:
    """Rotating-frame Hamiltonian over T, S and M states (units of U).

    Diagonal: 0 for T, |V_c| + E(S_j^+-) for S, the same minus U for M.
    Off-diagonal: -sqrt(2) J between T and each S, Omega_M/2 between each
    S and its M partner.
    """
    return _molecular_hamiltonian(basis, p, 0.0, hermitian=True)


def build_effective_hamiltonian(basis: RestrictedBasis, p: DerivedParams) -> SparseOperator:
    """Non-Hermitian Hamiltonian for null-result conditioning.

    Equals the interaction Hamiltonian with -i gamma_M/2 added to every
    molecular diagonal; norm loss under this operator is the accumulated
    decay probability.
    """
    return _molecular_hamiltonian(basis, p, p.gamma_m_over_u, hermitian=False)


def build_free_hamiltonian(basis: RestrictedBasis, p: DerivedParams) -> SparseOperator:
    """Lattice Hamiltonian with the catalysis laser off (full layout).

    T and S states only: diagonal 0 and E(S_j^+-), couplings -sqrt(2) J;
    molecular rows are identically zero.
    """
    hop = -math.sqrt(2.0) * p.j_over_u
    energies = basis.pair_energies(p.delta_over_u)[:, None, None]
    return _block_arrowhead(basis.dimension, 0j, basis.s_slots[:, None], hop, hop, energies, hermitian=True)


def coherence_damping_rate(j, sign, p: DerivedParams):
    """Damping rate of the S_j^+- to T coherence after molecular elimination.

    kappa_j = (Omega_M^2 gamma_M / 8) / ((|V_c| + E(S_j^+-) - U)^2 + (gamma_M/2)^2);
    j and sign may be arrays.
    """
    e_s = pair_state_energy(j, sign, 1.0, p.delta_over_u)
    detuning = p.vc_over_u + e_s - 1.0
    return (p.omega_m_over_u**2 * p.gamma_m_over_u / 8.0) / (
        detuning**2 + (p.gamma_m_over_u / 2.0) ** 2
    )


def build_eliminated_hamiltonian(basis: RestrictedBasis, p: DerivedParams) -> SparseOperator:
    """Non-Hermitian T+S Hamiltonian with molecular states eliminated.

    Each pair state acquires the diagonal |V_c| + E(S_j^+-) - i kappa_j.
    Valid for Omega_M/gamma_M << 1; a violation warns but still builds.
    """
    if p.gamma_m_over_u > 0 and p.omega_m_over_u / p.gamma_m_over_u >= 0.1:
        warnings.warn(
            "molecular elimination outside its validity range "
            f"(Omega_M/gamma_M = {p.omega_m_over_u / p.gamma_m_over_u:.3g} >= 0.1)",
            stacklevel=2,
        )
    s_diag = (p.vc_over_u + basis.pair_energies(p.delta_over_u)).astype(np.complex128)
    s_diag.imag = -coherence_damping_rate(basis.pair_j, basis.pair_sign, p)
    hermitian = p.omega_m_over_u == 0.0 or p.gamma_m_over_u == 0.0
    hop = -math.sqrt(2.0) * p.j_over_u
    slots = np.arange(1, basis.reduced_dimension)[:, None]
    return _block_arrowhead(basis.reduced_dimension, 0j, slots, hop, hop, s_diag[:, None, None], hermitian)


def perturbative_ground_state(basis: RestrictedBasis, p: DerivedParams) -> StateVector:
    """First-order ground state of the free Hamiltonian (full layout).

    c_T = 1 and c_{S_j^+-} = sqrt(2) J / E(S_j^+-), then normalized;
    molecular amplitudes are zero.  Requires every pair-state energy to be
    positive, i.e. delta (2j+1) < U across the register.
    """
    e_s = basis.pair_energies(p.delta_over_u)
    bad = np.flatnonzero(e_s <= 0.0)
    if bad.size:
        i = bad[0]
        raise ModelError(
            f"pair-state energy E(S_{basis.pair_j[i]:+d}{'+' if basis.pair_sign[i] > 0 else '-'}) "
            f"= {e_s[i]:.3g} U is not positive; perturbation theory invalid"
        )
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[0] = 1.0
    amps[basis.s_slots] = math.sqrt(2.0) * p.j_over_u / e_s
    amps /= np.linalg.norm(amps)
    return StateVector(basis, amps)
