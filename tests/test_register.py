import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import free_params, m_index, reduced_s_index, s_index
from zenoreg.oracle import build_bose_hubbard, fock_basis
from zenoreg.register import (
    HERMITIAN_TOL,
    ModelError,
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


class TestBasis:
    @pytest.mark.parametrize("n,dim", [(3, 9), (5, 17), (501, 2001)])
    def test_dimension(self, n, dim):
        assert build_basis(n).dimension == dim

    def test_bond_labels(self):
        assert list(build_basis(5).bonds) == [-2, -1, 0, 1]

    @pytest.mark.parametrize("n", [2, 4, 1, 0])
    def test_invalid_sizes(self, n):
        with pytest.raises(ModelError):
            build_basis(n)

    def test_index_bijection(self):
        b = build_basis(7)
        seen = {0}  # |T>
        for j in b.bonds:
            for sign in (+1, -1):
                seen.add(s_index(b, int(j), sign))
                seen.add(m_index(b, int(j), sign))
        assert seen == set(range(b.dimension))

    def test_reduced_indices(self):
        b = build_basis(5)
        reduced = {0}
        for j in b.bonds:
            for sign in (+1, -1):
                reduced.add(reduced_s_index(b, int(j), sign))
        assert reduced == set(range(b.reduced_dimension))

    def test_pair_table_matches_scalar_indices(self):
        b = build_basis(7)
        energies = b.pair_energies(0.01)
        for k, (j, sign) in enumerate(zip(b.pair_j.tolist(), b.pair_sign.tolist())):
            assert reduced_s_index(b, j, sign) == k + 1
            assert b.s_slots[k] == s_index(b, j, sign)
            assert b.s_slots[k] + 2 == m_index(b, j, sign)
            assert energies[k] == pair_state_energy(j, sign, 1.0, 0.01)
        assert b.pair_j.size == b.reduced_dimension - 1


class TestPairEnergy:
    def test_homogeneous(self):
        for j in (-3, 0, 2):
            assert pair_state_energy(j, +1, 1.0, 0.0) == 1.0
            assert pair_state_energy(j, -1, 1.0, 0.0) == 1.0

    def test_center_bond(self):
        assert pair_state_energy(0, +1, 1.0, 0.01) == pytest.approx(0.99)
        assert pair_state_energy(0, -1, 1.0, 0.01) == pytest.approx(1.01)

    def test_orientation_sum(self):
        for j in range(-5, 5):
            total = pair_state_energy(j, +1, 1.0, 0.003) + pair_state_energy(j, -1, 1.0, 0.003)
            assert total == pytest.approx(2.0, rel=1e-14)


class TestInteractionHamiltonian:
    def test_decoupled_diagonal(self, reference_params):
        p = replace(reference_params, j_over_u=0.0, omega_m_over_u=0.0)
        b = build_basis(3)
        h = build_interaction_hamiltonian(b, p).to_dense()
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        assert h[0, 0] == 0.0
        for j in b.bonds:
            for sign in (+1, -1):
                e_s = pair_state_energy(int(j), sign, 1.0, p.delta_over_u)
                assert h[s_index(b, int(j), sign), s_index(b, int(j), sign)] == pytest.approx(
                    p.vc_over_u + e_s
                )
                assert h[m_index(b, int(j), sign), m_index(b, int(j), sign)] == pytest.approx(
                    p.vc_over_u + e_s - 1.0
                )

    def test_target_row_structure(self, reference_params):
        b = build_basis(7)
        h = build_interaction_hamiltonian(b, reference_params).to_dense()
        row = h[0, 1:]
        nonzero = np.nonzero(row)[0]
        assert nonzero.size == 2 * (b.n - 1)
        assert np.allclose(row[nonzero], -math.sqrt(2) * reference_params.j_over_u)

    def test_hermitian(self, reference_params):
        op = build_interaction_hamiltonian(build_basis(9), reference_params)
        assert op.hermitian and op.is_hermitian(1e-12)

    def test_two_level_ground_energy(self):
        # homogeneous decoupled limit: |T> and the symmetric pair mode form
        # a two-level system with coupling 2 sqrt(n-1) J
        n, j = 3, 0.02
        p = free_params(1.0 / j)
        p = replace(p, vc_over_u=0.0, omega_m_over_u=0.0)
        h = build_interaction_hamiltonian(build_basis(n), p).to_dense()
        evals = np.linalg.eigvalsh(h)
        g = 2.0 * math.sqrt(n - 1) * j
        expected = 0.5 * (1.0 - math.sqrt(1.0 + 4.0 * g * g))
        assert evals.min() == pytest.approx(expected, rel=1e-12)


class TestEffectiveHamiltonian:
    def test_zero_linewidth_reduces(self, reference_params):
        p = replace(reference_params, gamma_m_over_u=0.0)
        b = build_basis(5)
        h_i = build_interaction_hamiltonian(b, p).to_dense()
        h_eff = build_effective_hamiltonian(b, p).to_dense()
        assert np.allclose(h_i, h_eff)

    def test_antihermitian_part(self, reference_params):
        b = build_basis(5)
        h_eff = build_effective_hamiltonian(b, reference_params).to_dense()
        anti = (h_eff - h_eff.conj().T) / 2j
        evals = np.sort(np.linalg.eigvalsh(anti))
        # 2(n-1) molecular states at -gamma_M/2, the rest zero
        assert np.allclose(evals[: 2 * (b.n - 1)], -reference_params.gamma_m_over_u / 2)
        assert np.allclose(evals[2 * (b.n - 1) :], 0.0, atol=1e-12)

    def test_reference_linewidth(self, reference_params):
        assert reference_params.gamma_m_over_u == pytest.approx(2 * 1697, rel=0.005)


class TestFreeHamiltonian:
    def test_diagonal_when_frozen(self):
        p = free_params(1e9)
        h = build_free_hamiltonian(build_basis(5), p).to_dense()
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 2e-9

    def test_molecular_rows_zero(self, reference_params):
        b = build_basis(5)
        h = build_free_hamiltonian(b, reference_params).to_dense()
        for j in b.bonds:
            for sign in (+1, -1):
                m = m_index(b, int(j), sign)
                assert np.all(h[m, :] == 0) and np.all(h[:, m] == 0)

    def test_symmetric_mode_coupling(self):
        n, j = 9, 1e-3
        p = free_params(1.0 / j)
        b = build_basis(n)
        h = build_free_hamiltonian(b, p).to_dense()
        sym = np.zeros(b.dimension)
        for jj in b.bonds:
            for sign in (+1, -1):
                sym[s_index(b, int(jj), sign)] = 1.0
        sym /= np.linalg.norm(sym)
        coupling = np.real(h[0, :] @ sym)
        assert coupling == pytest.approx(-2.0 * math.sqrt(n - 1) * j, rel=1e-12)

    def test_target_energy_zero(self, reference_params):
        h = build_free_hamiltonian(build_basis(5), reference_params).to_dense()
        assert h[0, 0] == 0.0

    def test_reflection_invariance(self):
        # site reflection maps bond j -> -1-j and swaps orientations; the
        # matrix itself is invariant for any trap strength
        p = free_params(100.0, delta=2e-3)
        b = build_basis(7)
        h = build_free_hamiltonian(b, p).to_dense()
        perm = np.arange(b.dimension)
        for j in b.bonds:
            for sign in (+1, -1):
                perm[s_index(b, int(j), sign)] = s_index(b, int(-1 - j), -sign)
                perm[m_index(b, int(j), sign)] = m_index(b, int(-1 - j), -sign)
        assert np.allclose(h, h[np.ix_(perm, perm)], atol=1e-15)


class TestEliminatedHamiltonian:
    def test_uniform_damping_at_reference(self, reference_params):
        b = build_basis(501)
        rates = [
            coherence_damping_rate(int(j), sign, reference_params)
            for j in b.bonds
            for sign in (+1, -1)
        ]
        rates = np.array(rates)
        assert np.all(rates > 0)
        assert np.max(np.abs(rates / reference_params.kappa_over_u - 1.0)) < 1e-3

    def test_measurement_off_is_shifted_free(self, reference_params):
        p = replace(reference_params, omega_m_over_u=0.0)
        b = build_basis(5)
        h = build_eliminated_hamiltonian(b, p)
        assert h.is_hermitian(1e-12)
        dense = h.to_dense()
        assert dense[0, 0] == 0.0
        for j in b.bonds:
            for sign in (+1, -1):
                s = reduced_s_index(b, int(j), sign)
                expected = p.vc_over_u + pair_state_energy(int(j), sign, 1.0, p.delta_over_u)
                assert dense[s, s] == pytest.approx(expected)

    def test_elimination_warning(self, reference_params):
        bad = replace(reference_params, omega_m_over_u=0.5 * reference_params.gamma_m_over_u)
        with pytest.warns(UserWarning, match="elimination"):
            build_eliminated_hamiltonian(build_basis(3), bad)


class TestGroundState:
    def test_frozen_lattice(self, reference_params):
        p = replace(reference_params, j_over_u=0.0)
        psi = perturbative_ground_state(build_basis(5), p)
        assert psi.amplitudes[0] == 1.0
        assert np.all(psi.amplitudes[1:] == 0.0)

    def test_reference_fidelity(self):
        psi = perturbative_ground_state(build_basis(501), free_params(500.0))
        assert fidelity(psi) == pytest.approx(1.0 / (1.0 + 4 * 500 / 500**2), rel=1e-12)
        assert fidelity(psi) == pytest.approx(0.9921, abs=2e-4)

    def test_amplitudes_positive(self, reference_params):
        psi = perturbative_ground_state(build_basis(7), reference_params)
        s_amps = psi.amplitudes[[i for i in range(1, 17) if (i - 1) % 4 in (0, 1)]]
        assert np.all(s_amps.real > 0) and np.allclose(s_amps.imag, 0.0)

    def test_strong_trap_rejected(self):
        p = free_params(100.0, delta=0.5)  # delta (2j+1) exceeds U at the edge
        with pytest.raises(ModelError, match="not positive"):
            perturbative_ground_state(build_basis(7), p)

    @pytest.mark.parametrize(
        "n,u_over_j",
        [(5, 100.0), (11, 100.0), (5, 500.0), (11, 500.0), (21, 500.0), (41, 500.0)],
    )
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_energy_residual(self, n, u_over_j, delta):
        p = free_params(u_over_j, delta=delta)
        b = build_basis(n)
        psi = perturbative_ground_state(b, p)
        h = build_free_hamiltonian(b, p)
        e_est = -4.0 * (n - 1) * p.j_over_u**2
        residual = np.linalg.norm(h.matvec(psi.amplitudes) - e_est * psi.amplitudes)
        assert residual <= 10.0 * p.j_over_u**2


class TestFidelity:
    def test_pure_target(self):
        b = build_basis(3)
        amps = np.zeros(b.dimension, dtype=complex)
        amps[0] = 1.0
        assert fidelity(StateVector(b, amps)) == 1.0

    def test_pure_defect(self):
        b = build_basis(3)
        amps = np.zeros(b.dimension, dtype=complex)
        amps[s_index(b, 0, +1)] = 1.0
        assert fidelity(StateVector(b, amps)) == 0.0

    def test_renormalizes(self):
        b = build_basis(3)
        amps = np.zeros(b.dimension, dtype=complex)
        amps[0] = 0.6
        assert fidelity(StateVector(b, amps)) == pytest.approx(1.0, rel=1e-14)

    def test_zero_state_rejected(self):
        b = build_basis(3)
        with pytest.raises(ModelError):
            fidelity(StateVector(b, np.zeros(b.dimension, dtype=complex)))


class TestStateVector:
    def test_reduced_projection(self, reference_params):
        psi = perturbative_ground_state(build_basis(5), reference_params)
        red = psi.reduced()
        assert red.amplitudes.shape[0] == psi.basis.reduced_dimension
        assert red.norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-14)
        assert fidelity(red) == pytest.approx(fidelity(psi), rel=1e-14)

    def test_reduced_and_expanded_follow_slots(self):
        b = build_basis(7)
        rng = np.random.default_rng(0)
        full = StateVector(b, rng.standard_normal(b.dimension) + 1j * rng.standard_normal(b.dimension))
        red = StateVector(
            b, rng.standard_normal(b.reduced_dimension) + 1j * rng.standard_normal(b.reduced_dimension)
        )
        projected, embedded = full.reduced().amplitudes, red.expanded().amplitudes
        assert projected[0] == full.amplitudes[0] and embedded[0] == red.amplitudes[0]
        for j in b.bonds.tolist():
            for sign in (+1, -1):
                assert projected[reduced_s_index(b, j, sign)] == full.amplitudes[s_index(b, j, sign)]
                assert embedded[s_index(b, j, sign)] == red.amplitudes[reduced_s_index(b, j, sign)]
                assert embedded[m_index(b, j, sign)] == 0

    def test_nonfinite_rejected(self):
        b = build_basis(3)
        amps = np.zeros(b.dimension, dtype=complex)
        amps[1] = np.nan
        with pytest.raises(ModelError):
            StateVector(b, amps)


class TestSparseOperator:
    def test_hermitian_flag_verified(self):
        with pytest.raises(ModelError):
            SparseOperator.from_triplets(2, [(0, 1, 1.0 + 0j)], hermitian=True)

    def test_index_range_checked(self):
        with pytest.raises(ModelError):
            SparseOperator.from_triplets(2, [(0, 5, 1.0 + 0j)])

    def test_frequency_bound(self):
        op = SparseOperator.from_triplets(
            2, [(0, 0, 3.0 + 0j), (0, 1, 1.0 + 0j), (1, 0, 1.0 + 0j)], hermitian=True
        )
        assert op.frequency_bound() == pytest.approx(4.0)

    def test_frequency_bound_sums_duplicate_entries(self):
        rest = [(0, 1, 1.0 + 0j), (1, 0, 1.0 + 0j)]
        split = SparseOperator.from_triplets(2, [(0, 0, 3.0 + 0j), (0, 0, -1j)] + rest)
        merged = SparseOperator.from_triplets(2, [(0, 0, 3.0 - 1j)] + rest)
        assert split.frequency_bound() == merged.frequency_bound()


class TestChunkedExpectations:
    # blocks of 0 to 300 rows (a spectral grid block has at most 128), C- and
    # column-major, on a Fock operator with more than 5 entries a row
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 17, 24, 25, 128, 300])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_equal_one_gather_bit_for_bit(self, count, layout):
        op = build_bose_hubbard(fock_basis(5, 5), 0.3, 1.0, 0.01)
        assert op.nnz > 5 * op.dim
        rng = np.random.default_rng(count)
        states = rng.standard_normal((count, op.dim)) + 1j * rng.standard_normal((count, op.dim))
        states = np.asarray(states, order=layout)
        assert op._gathered_expectations(states).tobytes() == op.expectations(states).tobytes()

    def test_gathers_stay_within_the_block(self):
        op = build_bose_hubbard(fock_basis(5, 5), 0.3, 1.0, 0.01)
        states = np.ones((128, op.dim), dtype=np.complex128)
        op.expectations(states[:2])  # first-call caches
        tracemalloc.start()
        try:
            op.expectations(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two gathers of at most the block's size, numpy's 8192-entry buffer
        # for the broadcast product with the entries, and the per-row results
        assert peak <= 2 * states.nbytes + 8192 * 16 + 16_000


@st.composite
def coo_inputs(draw):
    """COO input of dim 1-40: entries drawn from a pool of (row, col) pairs,
    so some repeat, with exact zeros among the values and, half the time,
    the conjugate transposed entries appended (a Hermitian operator)."""
    dim = draw(st.integers(1, 40))
    index = st.integers(0, dim - 1)
    pool = draw(st.lists(st.tuples(index, index), min_size=1, max_size=30))
    value = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    entries = draw(st.lists(st.tuples(st.sampled_from(pool), value), max_size=80))
    rows = [r for (r, _), _ in entries]
    cols = [c for (_, c), _ in entries]
    vals = [v for _, v in entries]
    if draw(st.booleans()):
        rows, cols, vals = rows + cols, cols + rows, vals + [v.conjugate() for v in vals]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return dim, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=complex), x


def csr_frequency_bound(ref) -> float:
    absmat = abs(ref)
    diag = absmat.diagonal()
    row_sums = np.asarray(absmat.sum(axis=1)).ravel() - diag
    return float(diag.max(initial=0.0) + row_sums.max(initial=0.0))


def csr_is_hermitian(ref) -> bool:
    diff = ref - ref.conjugate().transpose()
    return diff.nnz == 0 or np.max(np.abs(diff.data)) <= HERMITIAN_TOL


def assert_matches_csr(op: SparseOperator, ref, x: np.ndarray) -> None:
    """Every numpy method of ``op`` equals the CSR computation bit for bit."""
    assert op.nnz == ref.nnz
    assert np.array_equal(op.to_dense(), ref.toarray())
    assert np.array_equal(op.matvec(x), ref.dot(x))
    assert np.array_equal(op.matvec(x.real), ref.dot(x.real))
    assert op.frequency_bound() == csr_frequency_bound(ref)
    assert op.is_hermitian() == csr_is_hermitian(ref)


class TestNumpyOperatorMatchesCSR:
    # a row whose sum rounds one way added in order, another as reduceat adds
    ROW = (4, np.zeros(3, dtype=np.int64), np.arange(1, 4), np.array([1.0, 1e-16, 1e-16], dtype=complex), np.ones(4))

    @settings(max_examples=300)
    @given(coo=coo_inputs())
    @example(coo=ROW)
    def test_random_coo(self, coo):
        dim, rows, cols, vals, x = coo
        op = SparseOperator.from_coo(dim, rows, cols, vals)
        ref = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        _, repeats = np.unique(rows * dim + cols, return_counts=True)
        if repeats.max(initial=0) > 2:
            # the summation order of three or more duplicates is unspecified
            # in scipy: compare the sums to 1e-15 of the summed magnitudes,
            # then the methods against CSR of the summed entries
            magnitude = scipy.sparse.csr_matrix((np.abs(vals), (rows, cols)), shape=(dim, dim)).toarray()
            assert op.nnz == ref.nnz
            assert np.all(np.abs(op.to_dense() - ref.toarray()) <= 1e-15 * magnitude)
            ref = scipy.sparse.csr_matrix((op.vals, (op.rows, op.cols)), shape=(dim, dim))
        assert_matches_csr(op, ref, x)
        assert op.vals.dtype == np.complex128
        assert np.array_equal(op.matrix.toarray(), ref.toarray())

    @pytest.mark.parametrize("size", [2, 3])
    def test_periodic_bose_hubbard(self, size, monkeypatch):
        # on two periodic sites both bonds join the same pair of sites, so
        # every hopping entry comes twice
        built = {}
        from_triplets = SparseOperator.from_triplets

        def spy(dim, triplets, hermitian=False):
            built["triplets"] = triplets
            return from_triplets(dim, triplets, hermitian)

        monkeypatch.setattr(SparseOperator, "from_triplets", spy)
        op = build_bose_hubbard(fock_basis(size, size, "periodic"), 0.3, 1.0, 0.01)
        rows, cols, vals = map(np.array, zip(*built["triplets"]))
        ref = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(op.dim, op.dim))
        x = np.random.default_rng(size).standard_normal((op.dim, 2)) @ np.array([1.0, 1j])
        assert_matches_csr(op, ref, x)
        assert op.hermitian and op.vals.dtype == np.complex128
        if size == 2:
            assert op.nnz < len(built["triplets"])
