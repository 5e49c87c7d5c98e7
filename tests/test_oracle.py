import math
import re

import numpy as np
import pytest

from conftest import free_params
from zenoreg.dynamics import DENSE_EIG_CUTOFF, _max_step
from zenoreg.oracle import (
    build_bose_hubbard,
    double_occupancy_basis,
    double_occupancy_evolve,
    exact_evolve_fidelity,
    exact_ground_state,
    fock_basis,
)
from zenoreg.register import ModelError, build_basis, build_free_hamiltonian, perturbative_ground_state


class TestFockBasis:
    def test_two_atoms_two_sites(self):
        basis = fock_basis(2, 2)
        assert basis.states == ((2, 0), (1, 1), (0, 2))

    def test_dimensions(self):
        assert fock_basis(5, 5).dimension == 126
        assert fock_basis(7, 7).dimension == 1716

    def test_cap_reports_count(self):
        with pytest.raises(ModelError, match="184756"):
            fock_basis(10, 11)

    def test_index_map(self):
        basis = fock_basis(3, 3)
        for i, occ in enumerate(basis.states):
            assert basis.index[occ] == i
            assert sum(occ) == 3

    def test_centered_labels(self):
        assert list(fock_basis(3, 5).site_labels) == [-2, -1, 0, 1, 2]


class TestBoseHubbardMatrix:
    def test_two_site_matrix(self):
        u, j = 5.0, 1.0
        h = build_bose_hubbard(fock_basis(2, 2), j, u, 0.0).to_dense().real
        s2 = math.sqrt(2.0)
        expected = np.array([[u, -s2 * j, 0.0], [-s2 * j, 0.0, -s2 * j], [0.0, -s2 * j, u]])
        assert np.allclose(h, expected, atol=1e-14)

    def test_frozen_diagonal(self):
        basis = fock_basis(3, 3)
        delta = 0.01
        h = build_bose_hubbard(basis, 0.0, 1.0, delta).to_dense()
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        for i, occ in enumerate(basis.states):
            onsite = 0.5 * sum(n * (n - 1) for n in occ)
            trap = delta * sum(n * lab**2 for n, lab in zip(occ, basis.site_labels))
            assert h[i, i] == pytest.approx(onsite + trap)

    def test_hermitian(self):
        op = build_bose_hubbard(fock_basis(4, 4, "periodic"), 0.02, 1.0, 1e-3)
        assert op.is_hermitian(1e-12)

    @pytest.mark.parametrize(
        "j, delta, message", [(1e308, 0.0, "hopping entry is not finite (J = 1e+308)"), (0.01, 1e308, "(delta = 1e+308")]
    )
    def test_overflowing_entry_is_refused(self, j, delta, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            build_bose_hubbard(fock_basis(3, 3), j, 1.0, delta)


class TestExactGroundState:
    def test_open_pair_analytic(self):
        u, j = 1.0, 1.0 / 500.0
        h = build_bose_hubbard(fock_basis(2, 2), j, u, 0.0)
        energy, _ = exact_ground_state(h)
        analytic = 0.5 * (u - math.sqrt(u**2 + 16.0 * j**2))
        assert energy == pytest.approx(analytic, rel=1e-8)
        assert energy == pytest.approx(-4.0 * j**2 / u, rel=1e-3)

    def test_frozen_unit_filling(self):
        basis = fock_basis(3, 3)
        delta = 0.02
        h = build_bose_hubbard(basis, 0.0, 1.0, delta)
        energy, vector = exact_ground_state(h)
        assert energy == pytest.approx(delta * sum(lab**2 for lab in basis.site_labels))
        assert abs(vector[basis.unit_filled_index]) == pytest.approx(1.0)

    def test_restricted_ground_is_variational(self):
        # the truncated-basis ground state can never undercut the true one
        for n in (3, 5):
            p = free_params(100.0)
            basis = build_basis(n)
            psi = perturbative_ground_state(basis, p)
            fock = fock_basis(n, n)
            amps = np.zeros(fock.dimension, dtype=complex)
            amps[fock.unit_filled_index] = psi.amplitudes[0]
            for pos, j in enumerate(basis.bonds):
                site = pos  # bond j connects sites pos, pos+1 left to right
                occ_plus = [1] * n
                occ_plus[site] = 2
                occ_plus[site + 1] = 0
                occ_minus = [1] * n
                occ_minus[site] = 0
                occ_minus[site + 1] = 2
                amps[fock.index[tuple(occ_plus)]] = psi.amplitudes[basis.s_index(int(j), +1)]
                amps[fock.index[tuple(occ_minus)]] = psi.amplitudes[basis.s_index(int(j), -1)]
            h = build_bose_hubbard(fock, p.j_over_u, 1.0, 0.0)
            variational = float(np.vdot(amps, h.matvec(amps)).real / np.vdot(amps, amps).real)
            exact, _ = exact_ground_state(h)
            assert exact <= variational + 1e-14

    def test_lanczos_matches_dense(self):
        # above DENSE_EIG_CUTOFF the ground state comes from eigsh
        h = build_bose_hubbard(fock_basis(7, 8), 0.01, 1.0, 1e-3)
        assert h.dim > DENSE_EIG_CUTOFF
        assert np.all(h.vals.imag == 0.0)
        energy, _ = exact_ground_state(h)
        assert abs(energy - np.linalg.eigvalsh(h.to_dense().real)[0]) <= 1e-10


class TestExactEvolution:
    def test_frozen_lattice_static(self):
        series = exact_evolve_fidelity(fock_basis(3, 3), 0.0, 1.0, 0.01, 5.0, max_samples=11)
        assert np.allclose(series.fidelity, 1.0, atol=1e-12)

    def test_norm_and_energy_conserved(self):
        basis = fock_basis(5, 5)
        series = exact_evolve_fidelity(basis, 1.0 / 200.0, 1.0, 0.0, 200.0, max_samples=101)
        assert np.max(np.abs(series.norm_sq - 1.0)) < 1e-8
        h = build_bose_hubbard(basis, 1.0 / 200.0, 1.0, 0.0)
        assert np.max(np.abs(series.energy - series.energy[0])) < 1e-8 * h.frequency_bound()

    def test_oscillation_frequency_is_u(self):
        series = exact_evolve_fidelity(fock_basis(3, 3), 0.01, 1.0, 0.0, 100.0, max_samples=2001)
        signal = 1.0 - series.fidelity
        windowed = (signal - signal.mean()) * np.hanning(signal.size)
        spectrum = np.abs(np.fft.rfft(windowed))
        freqs = 2.0 * math.pi * np.fft.rfftfreq(signal.size, d=series.t[1] - series.t[0])
        peak = int(spectrum.argmax())
        a, b, c = spectrum[peak - 1 : peak + 2]
        shift = 0.5 * (a - c) / (a - 2 * b + c)
        omega = freqs[peak] + shift * (freqs[1] - freqs[0])
        assert omega == pytest.approx(1.0, rel=0.02)

    def test_spectral_matches_rk4_reference(self):
        # N = M = 5, t = 1/J at U/J = 500: one eigh against ~1e5 pinned RK4 steps
        basis, j = fock_basis(5, 5), 1.0 / 500.0
        exact = exact_evolve_fidelity(basis, j, 1.0, 1e-3, 500.0, max_samples=2001)
        step = _max_step(build_bose_hubbard(basis, j, 1.0, 1e-3))
        rk4 = exact_evolve_fidelity(basis, j, 1.0, 1e-3, 500.0, dt=step, max_samples=2001)
        assert (exact.backend, rk4.backend) == ("eigh", "rk4")
        assert np.max(np.abs(exact.fidelity - rk4.fidelity)) <= 1e-10
        assert np.max(np.abs(exact.norm_sq - rk4.norm_sq)) <= 1e-10
        assert np.max(np.abs(exact.energy - rk4.energy)) <= 1e-10

    def test_requires_unit_filling(self):
        with pytest.raises(ModelError):
            exact_evolve_fidelity(fock_basis(3, 4), 0.01, 1.0, 0.0, 1.0)


class TestDoubleOccupancy:
    def test_dimension(self):
        assert double_occupancy_basis(5).dimension == 21
        assert double_occupancy_basis(21).dimension == 421

    def test_even_atom_number_rejected(self):
        with pytest.raises(ModelError):
            double_occupancy_evolve(4, 0.01, 1.0, 0.0, 1.0)

    def test_matches_full_fock(self):
        j = 1.0 / 500.0
        full = exact_evolve_fidelity(fock_basis(5, 5), j, 1.0, 0.0, 500.0, max_samples=1001)
        trunc = double_occupancy_evolve(5, j, 1.0, 0.0, 500.0, max_samples=1001)
        band = 1.0 - full.fidelity.min()
        assert np.max(np.abs(full.fidelity - trunc.fidelity)) <= 0.1 * band

    def test_nearest_neighbor_block_matches_register(self):
        # projecting out separations > 1 site must reproduce the restricted
        # register Hamiltonian exactly (up to the unit-filled trap offset)
        n, delta, j = 5, 2e-3, 0.01
        fock = double_occupancy_basis(n)
        h_fock = build_bose_hubbard(fock, j, 1.0, delta).to_dense()
        p = free_params(1.0 / j, delta=delta)
        basis = build_basis(n)
        h_reg = build_free_hamiltonian(basis, p).to_dense()

        offset = h_fock[fock.unit_filled_index, fock.unit_filled_index]
        fock_of_reg = {fock.unit_filled_index: 0}
        for pos, jj in enumerate(basis.bonds):
            occ_plus = [1] * n
            occ_plus[pos] = 2
            occ_plus[pos + 1] = 0
            occ_minus = [1] * n
            occ_minus[pos] = 0
            occ_minus[pos + 1] = 2
            fock_of_reg[fock.index[tuple(occ_plus)]] = basis.s_index(int(jj), +1)
            fock_of_reg[fock.index[tuple(occ_minus)]] = basis.s_index(int(jj), -1)

        for fi, ri in fock_of_reg.items():
            for fk, rk in fock_of_reg.items():
                expected = h_fock[fi, fk] - (offset if fi == fk else 0.0)
                assert abs(h_reg[ri, rk] - expected) < 1e-12

    def test_large_register_tracks_closed_form(self):
        from zenoreg.analytics import time_averaged_infidelity

        j, delta = 1.0 / 500.0, 1e-3
        series = double_occupancy_evolve(21, j, 1.0, delta, 500.0, max_samples=1001)
        avg = float(np.mean(1.0 - series.fidelity))
        assert avg == pytest.approx(time_averaged_infidelity(20, j, 1.0), rel=0.25)
