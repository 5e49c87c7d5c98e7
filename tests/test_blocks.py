"""Observables recorded a block of grid points at a time.

``Propagation.grid_blocks`` hands out the grid a block at a time: a spectral
run's rebuild blocks, or a pinned RK4 run's every stride-th point gathered
into one buffer.  These tests hold the block recording to the per-sample
rules it replaced, and a spectral ``evolve``'s read-out in the rebuild's
compressed coordinates to the full rebuild of its states.
"""

import itertools

import numpy as np
import pytest

from conftest import grid_rows, measurement_test_params
from zenoreg import dynamics
from zenoreg.dynamics import (
    EPS,
    SPECTRAL_BLOCK,
    IntegrationError,
    ReducedDensityState,
    eliminated_model_step,
    evolve,
    reduced_master_equation,
    _conditioned_problem,
    _max_step,
    _propagate,
    _rme_generator,
)
from zenoreg.register import BrightSector, build_basis, build_free_hamiltonian
from test_dynamics import blas_threads, record_threads  # noqa: F401 (a fixture)


def pinned_run(n_samples=300):
    """A pinned RK4 run of the conditioned register at n = 5 whose step is a
    third of the grid's gap, and its grid."""
    _, op, psi, step, _ = _conditioned_problem(measurement_test_params(), 5, "eliminated")
    t_end = 3.0 * step * (n_samples - 1)
    return _propagate(op, -1j, psi, t_end, step, n_samples, step)


class TestPinnedRk4Blocks:
    def test_gathers_every_stride_th_point(self):
        # 300 samples: two full blocks and one of 44 rows
        t, run = pinned_run()
        _, reference = pinned_run()
        assert run.backend == "rk4" and run.stride == 3 and t.size % SPECTRAL_BLOCK == 44
        expected = np.array([y.copy() for y in itertools.islice(reference.points, 0, None, reference.stride)])
        slices, rows = zip(*[(at, block.copy()) for at, block in run.grid_blocks()])
        assert [(at.start, at.stop) for at in slices] == [(0, 128), (128, 256), (256, 300)]
        assert np.array_equal(np.concatenate(rows), expected)

    def test_real_runs_stay_real(self):
        p = measurement_test_params(5)
        basis = build_basis(5)
        gen = _rme_generator(p, basis)
        y = np.zeros(gen.dim)
        y[0] = 1.0
        t, run = _propagate(gen, 1.0, y, 1.0, 0.5 * _max_step(gen), 150)
        assert run.backend == "rk4" and run.stride > 1
        blocks = [block.copy() for _, block in run.grid_blocks()]
        assert all(block.dtype == np.float64 for block in blocks)
        assert sum(len(block) for block in blocks) == t.size

    def test_evolve_records_what_the_per_sample_loop_did(self):
        t, reference = pinned_run()
        rows = np.array([y.copy() for y in grid_rows(reference)])
        _, op, psi, step, _ = _conditioned_problem(measurement_test_params(), 5, "eliminated")
        series = evolve(op, psi, t[-1], dt=step, max_samples=t.size)
        norm = np.array([np.vdot(y, y).real for y in rows])
        assert series.backend == "rk4"
        assert np.allclose(series.norm_sq, norm, rtol=4 * EPS, atol=0.0)
        assert np.array_equal(series.fidelity, np.abs(rows[:, 0]) ** 2 / series.norm_sq)
        assert np.array_equal(series.final_state, rows[-1])


class TestNegativityStop:
    @pytest.mark.parametrize("dt", [None, 1e-4])  # eig, and RK4 at stride 2
    def test_reports_the_first_offending_sample(self, dt):
        # a coherence that drains one pair population below -1e-6 at the
        # 153rd sample, inside the second block
        p = measurement_test_params(5)
        basis = build_basis(5)
        m = 2 * basis.n_bonds
        rho_st = np.zeros(m, dtype=np.complex128)
        rho_st[0] = -1e-3j
        rho0 = ReducedDensityState(0.0, np.zeros(m), rho_st)
        gen = _rme_generator(p, basis)
        y = np.concatenate(([0.0], rho0.rho_ss, rho_st.real, rho_st.imag))
        t, run = _propagate(gen, 1.0, y, 0.05, dt, 400, eliminated_model_step(p))
        first = next(i for i, y in enumerate(grid_rows(run)) if y[0] < -1e-6 or y[1 : 1 + m].min() < -1e-6)
        assert first > SPECTRAL_BLOCK and first % SPECTRAL_BLOCK not in (0, SPECTRAL_BLOCK - 1)
        with pytest.raises(IntegrationError, match=f"population went negative at t = {t[first]:.6g}$"):
            reduced_master_equation(p, 5, rho0, t_end=0.05, dt=dt, max_samples=400)


def free_problem(n):
    """The free Hamiltonian on the bright sector from |T> (eigh)."""

    def problem(p):
        basis = build_basis(n)
        sector = BrightSector(basis, p.delta_over_u, molecular=False)
        psi = np.zeros(sector.dim, dtype=np.complex128)
        psi[0] = 1.0
        return sector.restrict(build_free_hamiltonian(basis, p)), psi, None

    return problem


def conditioned_problem(n, model):
    def problem(p):
        _, op, psi, step, _ = _conditioned_problem(p, n, model)
        return op, psi, step

    return problem


PROJECTED = {
    "eig, n = 51": (conditioned_problem(51, "eliminated"), 30.0, "eig"),
    "eigh, free n = 51": (free_problem(51), 30.0, "eigh"),
    "default trajectory": (conditioned_problem(501, "eliminated"), 30.0, "eig"),
    "t_end 2000": (conditioned_problem(501, "eliminated"), 2000.0, "eig"),
    "full model, n = 51": (conditioned_problem(51, "full"), 30.0, "eig"),
}


class TestProjectedEvolve:
    @pytest.mark.parametrize("case", PROJECTED)
    def test_matches_the_full_rebuild(self, reference_params, monkeypatch, case):
        # c_T and ||psi||^2 read off the thin QR of the rebuild's columns,
        # and the state formed only at t_end, agree with the rebuilt states
        problem, t_end, backend = PROJECTED[case]
        op, psi, step = problem(reference_params)
        recorded, population = [], dynamics._conditioned_population
        monkeypatch.setattr(dynamics, "_conditioned_population", lambda c_t, norm: recorded.append(c_t) or population(c_t, norm))
        series = evolve(op, psi, t_end, default_dt=step)
        _, run = _propagate(op, -1j, psi, t_end, None, series.t.size, step)
        assert series.backend == run.backend == backend and run.columns.shape[1] < op.dim
        rows = np.array([y.copy() for y in grid_rows(run)])
        assert np.max(np.abs(series.norm_sq - np.vecdot(rows, rows).real)) <= 1e-13
        assert np.max(np.abs(recorded[0] - rows[:, 0])) <= 1e-13
        assert np.linalg.norm(series.final_state - rows[-1]) <= 1e-13

    def test_reads_out_on_one_thread(self, reference_params, blas_threads, monkeypatch):
        # the QR, the recording and the final state share one serial section:
        # a dense product left outside it runs on two OpenBLAS threads, and
        # the idle worker then spins for about 0.1 s of CPU time
        get, _ = blas_threads
        seen = [record_threads(monkeypatch, get, owner, name) for owner, name in [(np.linalg, "qr"), (np, "vecdot")]]
        op, psi, step = conditioned_problem(51, "eliminated")(reference_params)
        assert evolve(op, psi, 30.0, default_dt=step).backend == "eig"
        assert len(seen[0]) == 1 and len(seen[1]) > 1
        assert set(seen[0] + seen[1]) == {1} and get() == 2
