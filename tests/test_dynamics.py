import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zenoreg
from conftest import (
    eliminated_model_step,
    free_params,
    full_model_step,
    grid_rows,
    measurement_test_params,
    reduced_s_index,
)
from zenoreg import dynamics, rowblocks
from zenoreg.dynamics import (
    DENSE_EIG_CUTOFF,
    EPS,
    SPECTRAL_BLOCK,
    THRESHOLD_BLOCK,
    PURE_TARGET_BLOCH,
    BlochState,
    IntegrationError,
    ReducedDensityState,
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
    _conditioned_problem,
    _blocks,
    _compress,
    _max_step,
    _plan_grid,
    _propagate,
    _rk4,
    _rme_generator,
    _spectral,
    _threshold_draws,
)
from zenoreg.oracle import build_bose_hubbard, exact_evolve_fidelity, exact_ground_state, fock_basis
from zenoreg.register import (
    BrightSector,
    ModelError,
    SparseOperator,
    StateVector,
    _block_arrowhead,
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


def two_level(g: float) -> SparseOperator:
    return SparseOperator.from_triplets(
        2, [(0, 1, complex(g)), (1, 0, complex(g))], hermitian=True
    )


class TestEvolve:
    def test_zero_hamiltonian(self):
        op = SparseOperator.from_triplets(3, [], hermitian=True)
        psi0 = np.array([0.6, 0.8j, 0.0])
        series = evolve(op, psi0, t_end=5.0, dt=0.5, max_samples=6)
        assert np.allclose(series.fidelity, series.fidelity[0])
        assert np.allclose(series.norm_sq, 1.0)

    def test_rabi_oscillation(self):
        g = 1.0
        series = evolve(two_level(g), np.array([1.0, 0.0]), t_end=10.0, dt=0.01, max_samples=401)
        expected = np.cos(g * series.t) ** 2
        assert np.max(np.abs(series.fidelity - expected)) < 1e-6

    def test_exponential_decay(self):
        gamma = 2.0
        op = SparseOperator.from_triplets(1, [(0, 0, -0.5j * gamma)])
        series = evolve(op, np.array([1.0]), t_end=3.0, dt=0.005, max_samples=301)
        expected = np.exp(-gamma * series.t)
        assert np.max(np.abs(series.norm_sq / expected - 1.0)) < 1e-6

    def test_step_refused_with_bound(self):
        with pytest.raises(IntegrationError, match="require dt <="):
            evolve(two_level(10.0), np.array([1.0, 0.0]), t_end=1.0, dt=1.0)

    @pytest.mark.parametrize("t_end, dt", [(math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1.0, math.inf)])
    def test_nonfinite_time_refused(self, t_end, dt):
        with pytest.raises(IntegrationError, match="t_end and dt must be positive and finite"):
            evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=t_end, dt=dt)

    def test_hermitian_conservation(self):
        p = free_params(500.0, delta=1e-3)
        b = build_basis(21)
        from zenoreg.register import build_free_hamiltonian

        h = build_free_hamiltonian(b, p)
        amps = np.zeros(b.dimension, dtype=complex)
        amps[0] = 1.0
        series = evolve(h, amps, t_end=100.0, max_samples=201)
        assert np.max(np.abs(series.norm_sq - 1.0)) < 1e-8
        # energy of the evolving state stays at its initial value
        final = series.final_state  # a bare-array start: its amplitudes at t_end, a copy
        assert final.shape == amps.shape and not np.shares_memory(final, amps)
        assert abs(np.vdot(final, final).real - series.norm_sq[-1]) < 1e-12
        series2 = evolve(h, perturbative_ground_state(b, p), t_end=100.0, max_samples=101)
        psi_t = series2.final_state.amplitudes
        e_t = float(np.vdot(psi_t, h.matvec(psi_t)).real) / float(np.vdot(psi_t, psi_t).real)
        psi_0 = perturbative_ground_state(b, p).amplitudes
        e_0 = float(np.vdot(psi_0, h.matvec(psi_0)).real)
        assert abs(e_t - e_0) < 1e-8 * h.frequency_bound()

    def test_short_run_fills_the_grid(self):
        # two steps of 0.05 cover t_end; the step shrinks to give every sample
        series = evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=0.1, dt=0.05, max_samples=11)
        assert np.array_equal(series.t, np.linspace(0.0, 0.1, 11))

    def test_output_grid_capped(self):
        series = evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=1.0, dt=1e-5, max_samples=100)
        assert series.t.size == 100
        assert series.t[0] == 0.0 and series.t[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("pinned", [False, True])
    def test_final_state_is_the_last_sample(self, pinned):
        # spectral runs leave the state they start from alone, so the final
        # state is the last one the run yields, on either backend
        p = measurement_test_params()
        basis = build_basis(5)
        op = build_eliminated_hamiltonian(basis, p)
        start = perturbative_ground_state(basis, p).reduced()
        for series in (
            null_trajectory(p, 5, t_end=5.0, model="eliminated", dt=eliminated_model_step(p) if pinned else None),
            evolve(op, start, 5.0, _max_step(op) if pinned else None, 11),
        ):
            assert series.backend == ("rk4" if pinned else "eig")
            final = series.final_state.reduced().amplitudes
            assert np.vdot(final, final).real == pytest.approx(series.norm_sq[-1], rel=1e-12)
            assert abs(final[0]) ** 2 / series.norm_sq[-1] == pytest.approx(series.fidelity[-1], rel=1e-12)
            assert series.norm_sq[-1] < 0.999  # the state has moved


class TestNullTrajectory:
    def test_reference_eliminated(self, reference_params):
        series = null_trajectory(reference_params, 501, t_end=20.0, model="eliminated")
        assert series.fidelity[0] == pytest.approx(0.992, abs=2e-3)
        assert series.fidelity[-1] >= 0.999
        assert 4.0 <= series.t_sat <= 16.0
        assert np.all(np.diff(series.norm_sq) <= 1e-9)

    def test_full_matches_eliminated_small(self, reference_params):
        full = null_trajectory(reference_params, 5, t_end=1.5, model="full", max_samples=301)
        elim = null_trajectory(reference_params, 5, t_end=1.5, model="eliminated", max_samples=301)
        assert np.max(np.abs(full.fidelity - elim.fidelity)) < 1e-3

    def test_measurement_off_oscillates(self, reference_params):
        p = replace(reference_params, omega_m_over_u=0.0)
        series = null_trajectory(p, 21, t_end=50.0, model="eliminated")
        infid = 1.0 - series.fidelity
        baseline = 1.0 - series.fidelity[0]
        # the light shift detunes the pair states: the ground state sloshes
        # between the shifted and unshifted superpositions, never saturating
        assert infid.max() - infid.min() > 0.1 * baseline
        assert infid[-100:].mean() > 0.2 * baseline
        assert 0.3 * baseline < infid.mean() < 2.5 * baseline
        # Hermitian evolution once the catalysis laser is off
        assert np.max(np.abs(series.norm_sq - 1.0)) < 1e-8

    def test_auto_model_selection(self, reference_params):
        small = null_trajectory(reference_params, 5, t_end=0.05, model="auto", max_samples=11)
        assert small.final_state.amplitudes.shape[0] == build_basis(5).dimension
        large = null_trajectory(reference_params, 81, t_end=0.05, model="auto", max_samples=11)
        assert large.final_state.amplitudes.shape[0] == build_basis(81).reduced_dimension


class TestOneGrid:
    # at 101 samples every level but the full model takes fewer steps than gaps
    @pytest.mark.parametrize("max_samples", [11, 101])
    def test_every_level_returns_the_same_grid(self, reference_params, max_samples):
        t_end = 0.01
        grid = np.linspace(0.0, t_end, max_samples)
        kwargs = dict(t_end=t_end, max_samples=max_samples)
        p = reference_params
        levels = {
            "full": null_trajectory(p, 5, model="full", **kwargs),
            "eliminated": null_trajectory(p, 5, model="eliminated", **kwargs),
            "ensemble": jump_ensemble(p, 5, n_traj=16, seed=1, **kwargs),
            "master": reduced_master_equation(p, 5, **kwargs),
            "bloch": bloch_evolution(p, 5, **kwargs),
        }
        for name, series in levels.items():
            assert np.array_equal(series.t, grid), name


PINNABLE = [
    "null_trajectory eliminated",
    "null_trajectory full",
    "evolve eliminated",
    "evolve full",
    "jump_ensemble eliminated",
    "jump_ensemble full",
    "reduced_master_equation",
    "exact_evolve_fidelity",
]


def pinned_level(name: str):
    """The generator G that the level ``name`` runs at n = 5 (3 atoms for the
    oracle), and that level run to a given t_end at a given dt (None: the
    backend chooser's pick), on a grid of three samples."""
    p = measurement_test_params(5)
    level, _, model = name.partition(" ")
    if level == "reduced_master_equation":
        return _rme_generator(p, build_basis(5)), lambda t_end, dt: reduced_master_equation(p, 5, t_end=t_end, dt=dt, max_samples=3)
    if level == "exact_evolve_fidelity":
        basis = fock_basis(3, 3)
        return build_bose_hubbard(basis, 0.1, 1.0, 1e-3), lambda t_end, dt: exact_evolve_fidelity(basis, 0.1, 1.0, 1e-3, t_end, dt, 3)
    _, op, psi, _ = _conditioned_problem(p, 5, model)
    runs = {
        "null_trajectory": lambda t_end, dt: null_trajectory(p, 5, t_end, model, dt, 3),
        "evolve": lambda t_end, dt: evolve(op, psi, t_end, dt, 3),
        "jump_ensemble": lambda t_end, dt: jump_ensemble(p, 5, 8, 0, t_end, model, dt, 3),
    }
    return op, runs[level]


class TestOneStepBound:
    # every pinnable level accepts dt = _max_step(G) of the generator G it
    # runs and refuses any larger step, naming that very bound
    @pytest.mark.parametrize("name", PINNABLE)
    def test_accepts_the_bound_and_refuses_above_it(self, name):
        gen, run = pinned_level(name)
        bound = _max_step(gen)
        assert run(4 * bound, bound).backend == "rk4"
        above = bound * (1.0 + 1e-9)
        with pytest.raises(IntegrationError, match=f"require dt <= {re.escape(str(bound))}$"):
            run(4 * above, above)

    # where the spectral backend declines, above DENSE_EIG_CUTOFF or refused
    # by cond(V), an unpinned run is the RK4 run pinned at its generator's
    # own bound, bit for bit; the Bloch level takes no step, so its one
    # ``_propagate`` run is pinned there
    @pytest.mark.parametrize("decline", ["cutoff", "refused"])
    @pytest.mark.parametrize("name", PINNABLE + ["bloch_evolution"])
    def test_unpinned_rk4_at_bound(self, monkeypatch, name, decline):
        if decline == "cutoff":
            monkeypatch.setattr(dynamics, "DENSE_EIG_CUTOFF", 2)
        else:
            monkeypatch.setattr(dynamics, "_spectral", lambda *args: None)
        if name == "bloch_evolution":
            p, propagate = measurement_test_params(5), dynamics._propagate
            unpinned = bloch_evolution(p, 5, t_end=1.0, max_samples=11)

            def at_bound(op, scale, y, t_end, dt, max_samples):
                return propagate(op, scale, y, t_end, _max_step(op), max_samples)

            monkeypatch.setattr(dynamics, "_propagate", at_bound)
            pinned = bloch_evolution(p, 5, t_end=1.0, max_samples=11)
        else:
            gen, run = pinned_level(name)
            bound = _max_step(gen)
            unpinned, pinned = run(50 * bound, None), run(50 * bound, bound)
        assert unpinned.backend == pinned.backend == "rk4"
        for field, value in vars(unpinned).items():
            other = getattr(pinned, field)
            if isinstance(value, StateVector):
                value, other = value.amplitudes, other.amplitudes
            np.testing.assert_array_equal(value, other, err_msg=field)

    @pytest.mark.parametrize("t_end", [1e-310, 5e-324, np.finfo(float).tiny * (1.0 - EPS)])
    def test_unresolvable_t_end_refused(self, t_end):
        # a subnormal t_end, whose reciprocal may overflow, is refused; the
        # smallest normal one runs
        with pytest.raises(IntegrationError, match=f"t_end = {t_end:g} is too small to resolve"):
            evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=t_end)
        assert evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=np.finfo(float).tiny).backend == "eigh"


class TestJumpEnsemble:
    def test_no_decay_channel(self):
        p = replace(measurement_test_params(), omega_m_over_u=0.0, kappa_over_u=0.0)
        result = jump_ensemble(p, 5, n_traj=64, seed=11, t_end=2.0, model="full", max_samples=9)
        assert np.all(result.survival == 1.0)
        assert np.all(np.isnan(result.jump_times))

    def test_worker_count_invariance(self):
        p = measurement_test_params()
        kwargs = dict(n_traj=1100, seed=3, t_end=2.0, model="full", max_samples=6)
        one = jump_ensemble(p, 5, workers=1, **kwargs)
        four = jump_ensemble(p, 5, workers=4, **kwargs)
        assert np.array_equal(one.survival, four.survival)
        assert np.array_equal(one.cond_fidelity, four.cond_fidelity)
        assert np.array_equal(one.uncond_t_population, four.uncond_t_population)
        assert np.array_equal(one.jump_times, four.jump_times, equal_nan=True)

    def test_unraveling_matches_master_equation(self):
        p = measurement_test_params()
        n_traj = 1500
        ens = jump_ensemble(p, 5, n_traj=n_traj, seed=20, t_end=4.0, model="full", max_samples=9)
        rme = reduced_master_equation(p, 5, t_end=4.0, max_samples=9)
        sigma = np.sqrt(np.maximum(rme.trace * (1 - rme.trace), 1e-12) / n_traj)
        assert np.all(np.abs(ens.survival - rme.trace) <= 4.0 * sigma + 1e-12)
        sigma_tt = np.sqrt(np.maximum(rme.rho_tt * (1 - rme.rho_tt), 1e-12) / n_traj)
        assert np.all(np.abs(ens.uncond_t_population - rme.rho_tt) <= 4.0 * sigma_tt + 1e-12)

    def test_failure_fraction_tracks_initial_defects(self):
        p = measurement_test_params()
        ens = jump_ensemble(p, 5, n_traj=1200, seed=7, t_end=8.0, model="full", max_samples=5)
        ground = perturbative_ground_state(build_basis(5), p)
        p_fail = 1.0 - fidelity(ground)
        fraction = np.isfinite(ens.jump_times).mean()
        assert 0.5 * p_fail < fraction < 1.3 * p_fail

    def test_memory_does_not_grow_with_step_count(self):
        # 40k pinned RK4 steps: a record of the norm after every step would
        # alone take 320 kB
        p = measurement_test_params()
        kwargs = dict(n_traj=100, seed=1, model="full", dt=full_model_step(p), max_samples=501)
        jump_ensemble(p, 5, t_end=0.1, **kwargs)  # first-call imports and caches
        tracemalloc.start()
        try:
            ens = jump_ensemble(p, 5, t_end=20.0, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.backend == "rk4"
        assert peak < 100_000

    def test_memory_per_trajectory(self, reference_params):
        # At its peak the ensemble holds five arrays of one 8-byte word per
        # trajectory: the thresholds, their sort order, the sorted
        # thresholds, each trajectory's loss point, and either that sorted
        # (for the survival count) or the jump times: 40 B a trajectory.
        # Here about 1 in 10^4 trajectories is lost, so what the lost ones
        # add, and the per-sample arrays, fit in the 64 kB allowance; the
        # threshold draws' block buffers (a few MB) are freed before the
        # peak.  Sorted thresholds kept as a list of Python floats would add
        # 32 B a trajectory.
        n_traj = 200_000
        kwargs = dict(seed=0, t_end=5.0, model="full", max_samples=11)
        jump_ensemble(reference_params, 5, n_traj=100, **kwargs)  # first-call imports and caches
        tracemalloc.start()
        try:
            jump_ensemble(reference_params, 5, n_traj=n_traj, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * n_traj + 64_000

    def test_survival_nonincreasing_from_one(self):
        p = measurement_test_params()
        ens = jump_ensemble(p, 5, n_traj=300, seed=5, t_end=3.0, model="full", max_samples=13)
        assert ens.survival[0] == 1.0
        assert np.all(np.diff(ens.survival) <= 0.0)

    # 5000 samples put every second step on the grid, so jumps land on samples
    @pytest.mark.parametrize("model, max_samples", [("full", 13), ("eliminated", 5000)])
    def test_collapse_onto_conditioned_trajectory(self, model, max_samples):
        p = measurement_test_params()
        n_traj, seed = 4000, 5
        grid = dict(t_end=4.0, model=model, max_samples=max_samples)
        ens = jump_ensemble(p, 5, n_traj=n_traj, seed=seed, **grid)
        series = null_trajectory(p, 5, **grid)
        assert np.array_equal(ens.t, series.t)
        # every survivor carries the one conditioned state
        assert np.max(np.abs(ens.cond_fidelity - series.fidelity)) < 1e-12
        # trajectory i survives while its threshold, drawn from the stream
        # keyed by (seed, i), stays below the conditioned norm
        thresholds = np.array([np.random.default_rng([seed, i]).random() for i in range(n_traj)])
        below = np.array([(thresholds < nsq).mean() for nsq in series.norm_sq])
        assert np.array_equal(ens.survival, below)
        jumps = ens.jump_times
        later = np.array([(np.isnan(jumps) | (jumps > t)).mean() for t in ens.t])
        assert np.array_equal(ens.survival, later)
        assert 0 < np.isfinite(jumps).sum() < n_traj
        # failed registers contribute no target population
        assert np.max(np.abs(ens.uncond_t_population - later * series.fidelity)) < 1e-12

    @pytest.mark.parametrize("model, max_samples", [("full", 6), ("eliminated", 5000)])
    def test_pinned_collapse_onto_conditioned_trajectory(self, model, max_samples):
        # under RK4 too, every survivor carries the pinned null trajectory's state
        p = measurement_test_params()
        step = full_model_step(p) if model == "full" else eliminated_model_step(p)
        grid = dict(t_end=2.0, model=model, dt=step, max_samples=max_samples)
        ens = jump_ensemble(p, 5, n_traj=1100, seed=3, **grid)
        series = null_trajectory(p, 5, **grid)
        assert ens.backend == series.backend == "rk4"
        assert np.isfinite(ens.jump_times).any()
        alive = ens.survival > 0
        assert alive[0] and np.array_equal(ens.cond_fidelity[alive], series.fidelity[alive])

    def test_pinned_run_plans_and_integrates_once(self, monkeypatch):
        # the jumps are read off the run that also gives the samples
        calls = dict.fromkeys(["_plan_grid", "_rk4"], 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(dynamics, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(dynamics, name, counted)
        p = measurement_test_params()
        ens = jump_ensemble(p, 5, n_traj=1100, seed=3, t_end=2.0, dt=full_model_step(p), max_samples=6)
        assert ens.backend == "rk4" and np.isfinite(ens.jump_times).any()
        assert calls == {"_plan_grid": 1, "_rk4": 1}


class TestReducedMasterEquation:
    def test_static_limit(self):
        p = replace(measurement_test_params(), j_over_u=0.0, omega_m_over_u=0.0, kappa_over_u=0.0)
        series = reduced_master_equation(p, 5, t_end=5.0, max_samples=11)
        assert np.allclose(series.rho_tt, series.rho_tt[0])
        assert np.allclose(series.trace, series.trace[0])

    def test_single_state_decay(self):
        p = replace(measurement_test_params(), j_over_u=0.0)
        n_states = 2 * (5 - 1)
        rho_ss = np.zeros(n_states)
        rho_ss[0] = 1.0
        rho0 = ReducedDensityState(rho_tt=0.0, rho_ss=rho_ss, rho_st=np.zeros(n_states, complex))
        series = reduced_master_equation(p, 5, rho0=rho0, t_end=5.0, max_samples=51)
        expected = np.exp(-2.0 * p.kappa_over_u * series.t)
        assert np.max(np.abs(series.rho_ss_sum / expected - 1.0)) < 1e-8

    def test_step_refused_with_bound(self):
        with pytest.raises(IntegrationError, match="require dt <="):
            reduced_master_equation(measurement_test_params(), 5, t_end=1.0, dt=1.0)

    def test_trace_nonincreasing(self, reference_params):
        series = reduced_master_equation(reference_params, 21, t_end=10.0, max_samples=101)
        assert np.all(np.diff(series.trace) <= 1e-12)

    def test_trace_can_rise(self):
        # without the pair-pair coherences the equation is not of Lindblad
        # form, so its trace need not fall: at strong measurement it rises
        # between samples of a long run, on RK4 as on eig
        p = replace(measurement_test_params(5, 4.9), delta_over_u=0.0, vc_over_u=10.8)
        kwargs = dict(t_end=50.0, max_samples=201)
        exact = reduced_master_equation(p, 5, **kwargs)
        pinned = reduced_master_equation(p, 5, dt=eliminated_model_step(p), **kwargs)
        assert exact.backend == "eig" and pinned.backend == "rk4"
        for series in (exact, pinned):
            rise = np.diff(series.trace)
            assert rise.max() == pytest.approx(1.26e-7, rel=0.01)
            assert series.t[1 + rise.argmax()] == 18.5

    def test_reference_decay_rate(self, reference_params):
        series = reduced_master_equation(reference_params, 501, t_end=80.0, max_samples=401)
        late = series.t >= 40.0
        slope = np.polyfit(series.t[late], np.log(series.rho_tt[late]), 1)[0]
        assert -slope == pytest.approx(zeno_decay_rate(reference_params, 501), rel=0.02)
        assert -slope == pytest.approx(7.9e-6, rel=0.02)


class TestBlochSystem:
    def test_free_precession(self):
        p = replace(measurement_test_params(), j_over_u=0.0, kappa_over_u=0.0)
        series = bloch_evolution(
            p, 5, b0=BlochState(1.0, 0.0, 0.0, 1.0), t_end=2.0, max_samples=201
        )
        omega0 = 1.0 + p.vc_over_u
        assert np.max(np.abs(series.u - np.cos(omega0 * series.t))) < 1e-6
        assert np.max(np.abs(series.v + np.sin(omega0 * series.t))) < 1e-6
        assert np.allclose(series.w, 0.0, atol=1e-12)
        assert np.allclose(series.x, 1.0, atol=1e-12)

    def test_population_fixed_point(self):
        p = replace(measurement_test_params(), j_over_u=0.0)
        series = bloch_evolution(
            p, 5, b0=BlochState(0.0, 0.0, -0.7, 0.7), t_end=10.0, max_samples=51
        )
        assert np.allclose(series.w, -0.7, atol=1e-12)
        assert np.allclose(series.x, 0.7, atol=1e-12)

    def test_matches_closed_form(self, reference_params):
        series = bloch_evolution(reference_params, 501, t_end=1e4, max_samples=1001)
        closed = nonselective_fidelity_closed(reference_params, 501, 1.0, series.t)
        mask = series.t >= 5.0 / reference_params.vc_over_u
        rel = np.abs(series.rho_tt[mask] - closed[mask]) / closed[mask]
        assert rel.max() < 0.01

    def test_damped_precession_exact(self):
        p = replace(measurement_test_params(), j_over_u=0.0)
        series = bloch_evolution(
            p, 5, b0=BlochState(1.0, 0.0, 0.0, 1.0), t_end=2.0, max_samples=201
        )
        omega0, kappa = 1.0 + p.vc_over_u, p.kappa_over_u
        damping = np.exp(-kappa * series.t)
        assert np.max(np.abs(series.u - damping * np.cos(omega0 * series.t))) < 1e-12
        assert np.max(np.abs(series.v + damping * np.sin(omega0 * series.t))) < 1e-12

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_bad_time_refused(self, t_end):
        with pytest.raises(IntegrationError, match="t_end"):
            bloch_evolution(measurement_test_params(), 5, t_end=t_end)

    def test_collective_coupling_matches_register(self, reference_params):
        # same matrix element the restricted model exhibits between |T> and
        # the symmetric pair mode
        assert collective_coupling(reference_params, 9) == pytest.approx(
            2.0 * math.sqrt(8) * reference_params.j_over_u, rel=1e-14
        )

    @pytest.mark.parametrize(
        "setting",
        [
            ("criterion 4", None, 501, PURE_TARGET_BLOCH, 1e4, 2001),
            ("J = 0", dict(j_over_u=0.0), 5, BlochState(0.6, -0.3, -0.5, 0.9), 10.0, 201),
            ("J = kappa = 0", dict(j_over_u=0.0, kappa_over_u=0.0), 5, BlochState(0.6, -0.3, -0.5, 0.9), 10.0, 201),
        ],
        ids=lambda setting: setting[0],
    )
    def test_matches_per_gap_matrix_exponential(self, reference_params, setting):
        # the reference steps one scipy expm of the generator per sample gap
        import scipy.linalg

        _, changes, n, b0, t_end, max_samples = setting
        p = reference_params if changes is None else replace(measurement_test_params(), **changes)
        omega0, kappa, g = 1.0 + p.vc_over_u, p.kappa_over_u, collective_coupling(p, n)
        gen = np.array(
            [[-kappa, omega0, 0, 0], [-omega0, -kappa, -g, 0], [0, 4 * g, -kappa, -kappa], [0, 0, -kappa, -kappa]]
        )
        step = scipy.linalg.expm(gen * (t_end / (max_samples - 1)))
        ref = np.empty((max_samples, 4))
        ref[0] = [b0.u, b0.v, b0.w, b0.x]
        for i in range(1, max_samples):
            ref[i] = step @ ref[i - 1]
        series = bloch_evolution(p, n, b0=b0, t_end=t_end, max_samples=max_samples)
        assert series.backend == "eig" and series.cond_v >= 1.0
        assert np.array_equal(series.t, np.linspace(0.0, t_end, max_samples))
        got = np.stack([series.u, series.v, series.w, series.x], axis=1)
        assert np.max(np.abs(got - ref)) <= 1e-11


class TestClosedForms:
    def test_initial_value(self, reference_params):
        assert nonselective_fidelity_closed(reference_params, 501, 0.99, 0.0) == pytest.approx(0.99)

    def test_reference_rate(self, reference_params):
        assert zeno_decay_rate(reference_params, 501) == pytest.approx(7.907e-6, rel=1e-3)

    def test_zeno_suppression_monotone(self, reference_params):
        omega0 = 1.0 + reference_params.vc_over_u
        kappas = np.linspace(1.1 * omega0, 10 * omega0, 40)
        rates = [
            zeno_decay_rate(replace(reference_params, kappa_over_u=float(k)), 501) for k in kappas
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_strong_measurement_freezes(self, reference_params):
        weak = zeno_decay_rate(reference_params, 501)
        strong = zeno_decay_rate(replace(reference_params, kappa_over_u=1e6), 501)
        assert strong < 1e-2 * weak

    def test_efficiency_limits(self, reference_params):
        t = np.linspace(0.0, 100.0, 11)
        perfect = finite_efficiency_fidelity(1.0, reference_params, 501, 0.992, t)
        assert np.allclose(perfect, 1.0)
        blind = finite_efficiency_fidelity(0.0, reference_params, 501, 0.992, t)
        assert np.allclose(blind, nonselective_fidelity_closed(reference_params, 501, 0.992, t))

    def test_efficiency_ordering(self, reference_params):
        t = 200.0
        values = [
            finite_efficiency_fidelity(eta, reference_params, 501, 0.992, t)
            for eta in (1.0, 0.9, 0.8)
        ]
        assert values[0] > values[1] > values[2]

    def test_efficiency_domain(self, reference_params):
        with pytest.raises(ValueError):
            finite_efficiency_fidelity(1.2, reference_params, 501, 0.99, 1.0)


class TestGroundReducedDensity:
    def test_consistent_with_state(self, reference_params):
        basis = build_basis(7)
        rho = ground_reduced_density(basis, reference_params)
        psi = perturbative_ground_state(basis, reference_params)
        assert rho.trace() == pytest.approx(1.0, rel=1e-12)
        assert rho.rho_tt == pytest.approx(fidelity(psi), rel=1e-12)


class TestMasterEquationGenerator:
    @pytest.mark.parametrize("n", [3, 7])
    def test_matches_written_equations(self, n):
        # distinct pair energies, so a misplaced pair-state entry shows
        p = replace(measurement_test_params(n), delta_over_u=0.01)
        basis = build_basis(n)
        gen = _rme_generator(p, basis)
        m = 2 * (n - 1)
        y = np.random.default_rng(n).standard_normal(1 + 3 * m)
        rho_tt, rho_ss, rho_st = y[0], y[1 : 1 + m], y[1 + m : 1 + 2 * m] + 1j * y[1 + 2 * m :]
        s = math.sqrt(2.0) * p.j_over_u
        energy = np.empty(m)
        kappa_j = np.empty(m)
        for j in basis.bonds:
            for sign in (+1, -1):
                i = reduced_s_index(basis, int(j), sign) - 1
                energy[i] = pair_state_energy(int(j), sign, 1.0, p.delta_over_u) + p.vc_over_u
                kappa_j[i] = coherence_damping_rate(int(j), sign, p)
        d_tt = -2.0 * s * rho_st.imag.sum()
        d_ss = 2.0 * s * rho_st.imag - 2.0 * p.kappa_over_u * rho_ss
        d_st = -(1j * energy + kappa_j) * rho_st + 1j * s * (rho_tt - rho_ss)
        expected = np.concatenate(([d_tt], d_ss, d_st.real, d_st.imag))
        assert np.max(np.abs(gen @ y - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "n, delta, zeroed",
        [(5, 0.0, ()), (5, 0.01, ()), (5, 1e-4, ("j_over_u",)), (5, 1e-4, ("kappa_over_u", "omega_m_over_u")),
         (51, 1e-4, ()), (501, 0.0, ()), (501, 1e-4, ())],
    )
    def test_matches_block_assembly(self, n, delta, zeroed):
        # the same entries as the block assembly, zero entries left out alike
        p = replace(measurement_test_params(n), delta_over_u=delta, **dict.fromkeys(zeroed, 0.0))
        gen = _rme_generator(p, build_basis(n))
        ref = block_generator(p, build_basis(n))
        assert gen.vals.dtype == np.float64
        assert gen.nnz == ref.nnz
        assert np.array_equal(gen.to_dense(), ref.toarray())

    def test_pinned_rk4_run_is_the_block_assembly_run(self):
        # a given step runs RK4 on the CSR matrix of the block assembly, bit for bit
        n, t_end, samples = 21, 5.0, 21
        p = measurement_test_params(n)
        dt = eliminated_model_step(p)
        series = reduced_master_equation(p, n, t_end=t_end, dt=dt, max_samples=samples)
        basis = build_basis(n)
        rho0 = ground_reduced_density(basis, p)
        y = np.concatenate(([rho0.rho_tt], rho0.rho_ss, rho0.rho_st.real, rho0.rho_st.imag))
        max_step = _max_step(_rme_generator(p, basis))
        _, stride, h, t = _plan_grid(t_end, dt, max_step, samples)
        m = 2 * (n - 1)
        ref = np.array([(y[0], y[1 : 1 + m].sum()) for y in itertools.islice(_rk4(block_generator(p, basis), y, h, (t.size - 1) * stride), 0, None, stride)])
        assert series.backend == "rk4"
        assert np.array_equal(series.rho_tt, ref[:, 0])
        assert np.array_equal(series.rho_ss_sum, ref[:, 1])


def block_generator(p, basis):
    """The master equation's generator assembled from its 4 x 4 blocks by
    ``scipy.sparse.bmat``: the reference for ``_rme_generator``."""
    m = 2 * basis.n_bonds
    e_plus_vc = basis.pair_energies(p.delta_over_u) + p.vc_over_u
    kap_coh = coherence_damping_rate(basis.pair_j, basis.pair_sign, p)
    two_kappa = 2.0 * p.kappa_over_u
    sqrt2j = math.sqrt(2.0) * p.j_over_u
    eye, diag, ones = scipy.sparse.identity(m), scipy.sparse.diags, np.ones((m, 1))
    return scipy.sparse.bmat(
        [
            [None, None, None, -2.0 * sqrt2j * ones.T],
            [None, -two_kappa * eye, None, 2.0 * sqrt2j * eye],
            [None, None, diag(-kap_coh), diag(e_plus_vc)],
            [sqrt2j * ones, -sqrt2j * eye, diag(-e_plus_vc), diag(-kap_coh)],
        ],
        format="csr",
    )


@st.composite
def arrowheads(draw, damped: bool = True):
    """Complex-symmetric arrowhead: T couples to every S by a real amplitude,
    each S has a complex energy with non-positive imaginary part."""
    size = draw(st.integers(1, 6))
    real = st.floats(-3.0, 3.0)
    couplings = draw(st.lists(real, min_size=size, max_size=size))
    energies = draw(st.lists(real, min_size=size, max_size=size))
    damping = draw(st.lists(st.floats(0.0, 3.0), min_size=size, max_size=size)) if damped else [0.0] * size
    a0 = complex(draw(real))
    poles = np.array([complex(e, -g) for e, g in zip(energies, damping)])
    op = arrowhead(poles, couplings, a0=a0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi0 = rng.standard_normal(size + 1) + 1j * rng.standard_normal(size + 1)
    return op, psi0 / np.linalg.norm(psi0)


@pytest.mark.filterwarnings("error")  # the secular solver's divisions leak no RuntimeWarning
class TestKernelProperties:
    @settings(max_examples=40)
    @given(problem=arrowheads(), t_end=st.floats(0.1, 10.0))
    def test_conditioned_norm_nonincreasing(self, problem, t_end):
        op, psi0 = problem
        series = evolve(op, psi0, t_end=t_end)
        assert np.all(np.diff(series.norm_sq) <= 1e-14)  # rounding of ||psi||^2 only

    @settings(max_examples=40)
    @given(problem=arrowheads(), t_end=st.floats(0.1, 10.0))
    def test_conditioned_norm_nonincreasing_rk4(self, problem, t_end):
        # the property above on the RK4 kernel itself, at its largest step,
        # whichever backend the cost model picks when no step is given
        op, psi0 = problem
        series = evolve(op, psi0, t_end=t_end, dt=min(_max_step(op), t_end))
        assert series.backend == "rk4"
        assert np.all(np.diff(series.norm_sq) <= 1e-14)

    @settings(max_examples=40)
    @given(problem=st.one_of(arrowheads(), arrowheads(damped=False)), steps=st.integers(1, 2000))
    def test_spectral_matches_rk4(self, problem, steps):
        op, psi0 = problem
        if op.is_hermitian():  # Hermitian problems take eigh; the others keep their parts
            op = replace(op, hermitian=True)
        omega = op.frequency_bound() or 1.0
        dt = 0.01 / omega
        runs = {}
        for pinned in (None, dt):
            psi = psi0.astype(np.complex128)
            _, run = _propagate(op, -1j, psi, steps * dt, pinned, 11)
            runs[pinned] = (np.array([y.copy() for y in grid_rows(run)]), run)
        (exact, spectral), (ref, _) = runs[None], runs[dt]
        assume(spectral.backend != "rk4")  # cond(V) above COND_V_LIMIT
        assert spectral.backend == ("eig" if spectral.cond_v else "eigh")
        # |hG| <= h omega, and e^(hG) is a contraction, so each of RK4's
        # n <= steps + 10 steps errs by the first dropped Taylor term,
        # (h omega)^5 / 120, and the errors add; the spectral rebuild rounds
        # at cond(V) eps.  The norm and |c_T|^2 err by twice the state.
        state_tol = 2.0 * (steps + 10) * 0.01**5 / 120 + 100 * (spectral.cond_v or 1.0) * np.finfo(float).eps
        assert np.max(np.abs(exact - ref)) <= state_tol
        norm = np.sum(np.abs(exact) ** 2, axis=1)
        norm_ref = np.sum(np.abs(ref) ** 2, axis=1)
        assert np.max(np.abs(norm - norm_ref)) <= 2.0 * state_tol
        fid = np.abs(exact[:, 0]) ** 2 / norm
        fid_ref = np.abs(ref[:, 0]) ** 2 / norm_ref
        assert np.all(np.abs(fid - fid_ref) <= 4.0 * state_tol / np.minimum(norm, norm_ref))

    @settings(max_examples=40)
    @given(problem=arrowheads(damped=False), steps=st.integers(1, 2000))
    def test_hermitian_norm_conserved(self, problem, steps):
        # RK4 loses (h w)^6 / 72 of the norm per step on a mode of frequency
        # w; at the largest accepted step, h w <= 0.05, that is 2e-10, so the
        # step is a fifth of it here and the drift stays far below 1e-8
        op, psi0 = problem
        dt = 0.01 / (op.frequency_bound() or 1.0)
        series = evolve(op, psi0, t_end=steps * dt, dt=dt)
        assert np.max(np.abs(series.norm_sq - 1.0)) < 1e-8

    @settings(max_examples=40)
    @given(problem=arrowheads(damped=False), steps=st.integers(1, 2000))
    def test_hermitian_energy_conserved(self, problem, steps):
        # each mode's energy w |c|^2 drifts like its norm, by (h w)^6 / 72 a step
        op, psi = problem
        bound = op.frequency_bound() or 1.0
        dt = 0.01 / bound
        _, samples = _propagate(op, -1j, psi, steps * dt, dt, 11)
        energy = np.array([np.vdot(y, op.matvec(y)).real for y in grid_rows(samples)])
        assert np.max(np.abs(energy - energy[0])) < 1e-8 * bound

    @settings(max_examples=20)
    @given(
        n=st.sampled_from([3, 5, 7]),
        strength=st.floats(0.5, 5.0),
        delta=st.floats(0.0, 0.01),
        vc=st.floats(0.0, 20.0),
    )
    def test_master_equation_trace_nonincreasing(self, n, strength, delta, vc):
        p = replace(measurement_test_params(n, strength), delta_over_u=delta, vc_over_u=vc)
        series = reduced_master_equation(p, n, t_end=2.0, max_samples=201)
        assert np.all(np.diff(series.trace) <= 1e-12)


def thresholds_of(seed: int, n_traj: int) -> np.ndarray:
    return np.array([np.random.default_rng([seed, i]).random() for i in range(n_traj)])


def rk4_reference_ensemble(p, n: int, n_traj: int, seed: int, t_end: float, model: str, max_samples: int):
    """The RK4 jump ensemble written out with every step kept: trajectory i
    jumps at the first step whose running-minimum norm is <= r_i.
    Returns survival, cond_fidelity and jump_times."""
    _, op, psi, _ = _conditioned_problem(p, n, model)
    step = full_model_step(p) if model == "full" else eliminated_model_step(p)
    n_steps, stride, h, _ = _plan_grid(t_end, step, _max_step(op), max_samples)
    states = np.array([y.copy() for y in _rk4(op.matrix * -1j, psi, h, n_steps)])
    norms = np.array([np.vdot(y, y).real for y in states])
    first = 1 + np.searchsorted(-np.minimum.accumulate(norms[1:]), -thresholds_of(seed, n_traj))
    alive = np.array([(first > k).sum() for k in range(0, n_steps + 1, stride)])
    fid = np.abs(states[::stride, 0]) ** 2 / norms[::stride]
    return alive / n_traj, np.where(alive > 0, fid, np.nan), np.where(first <= n_steps, first * h, np.nan)


def seeds_of_words(words: int):
    """Seeds of exactly ``words`` 32-bit words: below 2**128 for words <= 4,
    and each word count as likely, which plain integers(0, 2**128 - 1) is not."""
    return st.integers(2 ** (32 * words - 32) if words > 1 else 0, 2 ** (32 * words) - 1)


class TestThresholdDraws:
    """The one-pass draws against numpy's own per-trajectory streams,
    ``default_rng([seed, i]).random()``."""

    # 2**128 - 1 fills SeedSequence's four-word pool, so the index word is
    # mixed in after it, as every word past the fourth is
    SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**200]
    SIZES = [1, THRESHOLD_BLOCK - 1, THRESHOLD_BLOCK, THRESHOLD_BLOCK + 1, 3 * THRESHOLD_BLOCK + 5]

    @staticmethod
    def streams(seed: int, indices) -> np.ndarray:
        return np.array([np.random.default_rng([seed, int(i)]).random() for i in indices])

    @pytest.mark.parametrize("n_traj", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_match_the_streams_across_blocks(self, seed, n_traj):
        draws = _threshold_draws(seed, n_traj)
        assert draws.shape == (n_traj,) and draws.dtype == np.float64
        # both sides of every block edge, the last index, and a spread between
        edges = np.arange(0, n_traj + 1, THRESHOLD_BLOCK)
        picks = np.concatenate([edges - 1, edges, np.arange(0, n_traj, 97), [n_traj - 1]])
        picks = np.unique(picks[(picks >= 0) & (picks < n_traj)])
        assert np.array_equal(draws[picks], self.streams(seed, picks))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bench_setting_matches_every_stream(self, seed):
        assert np.array_equal(_threshold_draws(seed, 8192), thresholds_of(seed, 8192))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(1, 4).flatmap(seeds_of_words), n_traj=st.integers(1, 200))
    def test_match_the_streams_for_any_seed(self, seed, n_traj):
        assert np.array_equal(_threshold_draws(seed, n_traj), self.streams(seed, range(n_traj)))

    def test_ensemble_builds_no_generator(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a numpy Generator was built")

        for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
            monkeypatch.setattr(np.random, name, refused)
        ens = jump_ensemble(measurement_test_params(), 5, n_traj=64, seed=3, t_end=2.0, max_samples=5)
        assert ens.survival[0] == 1.0


class TestEnsembleArguments:
    @staticmethod
    def refused_before_propagating(monkeypatch, **kwargs) -> str:
        def propagated(*args, **kwargs):
            raise AssertionError("the arguments were checked after propagating")

        monkeypatch.setattr(dynamics, "_conditioned_problem", propagated)
        with pytest.raises(ValueError) as refused:
            jump_ensemble(measurement_test_params(), 5, **dict(dict(n_traj=64, seed=3, t_end=2.0), **kwargs))
        return str(refused.value)

    @pytest.mark.parametrize("name", ["seed", "n_traj"])
    @pytest.mark.parametrize("value", [5.0, 2.5, np.float64(5.0), np.float32(64), "5", None])
    def test_non_integers_refused(self, monkeypatch, name, value):
        message = self.refused_before_propagating(monkeypatch, **{name: value})
        assert message == f"{name} must be an integer, got {value!r}"

    def test_more_than_one_index_word_refused(self, monkeypatch):
        message = self.refused_before_propagating(monkeypatch, n_traj=2**32 + 1)
        assert message == "n_traj must be <= 2**32, got 4294967297"

    @pytest.mark.parametrize(
        "n_traj, seed", [(np.int32(64), 1), (64, np.int64(1)), (64, np.uint64(1)), (64, True)]
    )
    def test_numpy_integers_and_bools_accepted(self, n_traj, seed):
        kwargs = dict(t_end=2.0, model="full", max_samples=5)
        ens = jump_ensemble(measurement_test_params(), 5, n_traj=n_traj, seed=seed, **kwargs)
        plain = jump_ensemble(measurement_test_params(), 5, n_traj=64, seed=1, **kwargs)
        assert type(ens.n_traj) is int and type(ens.seed) is int and ens.seed == 1
        assert np.array_equal(ens.survival, plain.survival)
        assert np.array_equal(ens.jump_times, plain.jump_times, equal_nan=True)


class TestSpectralEnsemble:
    # the bench ensemble setting at seeds 0 and 1, and criterion 5's
    SETTINGS = [(0, 8192, 5.0), (1, 8192, 5.0), (2024, 10_000, 10.0)]

    @pytest.mark.parametrize("seed, n_traj, t_end", SETTINGS)
    def test_matches_the_pinned_rk4_ensemble(self, seed, n_traj, t_end):
        p = measurement_test_params()
        kwargs = dict(n_traj=n_traj, seed=seed, t_end=t_end, model="full", max_samples=11)
        exact = jump_ensemble(p, 5, **kwargs)
        pinned = jump_ensemble(p, 5, dt=full_model_step(p), **kwargs)
        assert exact.backend == "eig" and pinned.backend == "rk4"
        assert np.array_equal(exact.survival, pinned.survival)
        lost = np.isfinite(pinned.jump_times)
        assert lost.any() and np.array_equal(np.isfinite(exact.jump_times), lost)
        # RK4 takes the first step at or past the crossing, so the exact time
        # lies within one step before it
        _, _, h, _ = _plan_grid(t_end, full_model_step(p), math.inf, 11)
        gap = pinned.jump_times[lost] - exact.jump_times[lost]
        assert np.all((gap >= 0.0) & (gap <= h))

    @pytest.mark.parametrize("seed, n_traj, t_end", SETTINGS)
    def test_jump_times_bracket_their_thresholds(self, seed, n_traj, t_end):
        # N(t*) <= r < N(t* - tol) on the exact norm curve, up to the
        # rounding of one evaluation of N
        p = measurement_test_params()
        ens = jump_ensemble(p, 5, n_traj=n_traj, seed=seed, t_end=t_end, model="full", max_samples=11)
        _, op, psi, _ = _conditioned_problem(p, 5, "full")
        _, run = _propagate(op, -1j, psi, t_end, None, 11)

        def norm(times):
            return np.concatenate([np.vecdot(b, b).real for b in run.blocks(times)])

        lost = np.isfinite(ens.jump_times)
        r, t_star = thresholds_of(seed, n_traj)[lost], ens.jump_times[lost]
        rounding = 4.0 * np.finfo(float).eps
        assert np.all(norm(t_star) <= r + rounding)
        assert np.all(r < norm(t_star - 1e-11 * t_end))
        # continuous times, not multiples of the RK4 step
        _, _, h, _ = _plan_grid(t_end, full_model_step(p), math.inf, 11)
        assert np.any(np.abs(t_star / h - np.round(t_star / h)) > 1e-3)

    @pytest.mark.parametrize("model, max_samples", [("full", 6), ("eliminated", 5000)])
    def test_pinned_step_keeps_the_rk4_ensemble(self, model, max_samples):
        p = measurement_test_params()
        kwargs = dict(n_traj=1100, seed=3, t_end=2.0, model=model, max_samples=max_samples)
        step = full_model_step(p) if model == "full" else eliminated_model_step(p)
        pinned = jump_ensemble(p, 5, dt=step, **kwargs)
        survival, cond_fidelity, jump_times = rk4_reference_ensemble(p, 5, **kwargs)
        assert np.array_equal(pinned.survival, survival)
        assert np.array_equal(pinned.cond_fidelity, cond_fidelity, equal_nan=True)
        assert np.array_equal(pinned.jump_times, jump_times, equal_nan=True)

    @pytest.mark.parametrize("n", [51, 501])
    def test_compressed_register_keeps_the_contract(self, reference_params, monkeypatch, n):
        # the eliminated register's pair poles are rebuilt from one Taylor
        # cluster; its jump times bracket their thresholds on that run's
        # exact norm curve, as above, and sit where the dense product puts
        # them to the root's conditioning, rounding of N over its slope (at
        # seed 7: at most 5.8e-11 of t* at n = 51, 1.6e-11 at n = 501)
        kwargs = dict(n_traj=20_000, seed=7, t_end=30.0, model="eliminated")
        ens = jump_ensemble(reference_params, n, **kwargs)
        _, op, psi, _ = _conditioned_problem(reference_params, n, "eliminated")
        _, run = _propagate(op, -1j, psi, 30.0, None, 501)

        def norm(times):
            return np.concatenate([np.vecdot(b, b).real for b in run.blocks(times)])

        lost = np.isfinite(ens.jump_times)
        r, t_star = _threshold_draws(7, 20_000)[lost], ens.jump_times[lost]
        assert lost.any()
        assert np.all(norm(t_star) <= r + 4.0 * EPS)
        assert np.all(r < norm(t_star - 1e-11 * 30.0))
        monkeypatch.setattr(dynamics, "_compress", lambda vecs, coef, lam, t_end: (vecs, coef, lam, None))
        dense = jump_ensemble(reference_params, n, **kwargs)
        assert np.array_equal(dense.survival, ens.survival)
        assert np.array_equal(np.isfinite(dense.jump_times), lost)
        assert np.max(np.abs(dense.jump_times[lost] - t_star)) <= 1e-10 * t_star.max()

    def test_rebuild_rounds_as_the_broadcast_products(self):
        # the block is built without broadcast ufuncs; it must round as they do
        rng = np.random.default_rng(4)
        for dim, n_times in [(9, 11), (25, 300), (126, 2)]:
            vecs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            coef = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            lam = -rng.random(dim) - 1j * rng.standard_normal(dim)
            t = np.linspace(0.0, 3.0, n_times)
            rebuilt = np.concatenate([b.copy() for b in _blocks(vecs, coef, lam, t)])
            expected = (np.exp(np.outer(t, lam)) * coef) @ vecs.T
            assert np.array_equal(rebuilt, expected)


class TestSpectralMasterEquation:
    @pytest.mark.parametrize("n, delta", [(3, 0.0), (5, 1e-4), (5, 0.0), (7, 0.01), (21, 1e-4), (21, 0.0)])
    def test_matches_the_pinned_rk4_run(self, n, delta):
        p = replace(measurement_test_params(n), delta_over_u=delta)
        kwargs = dict(t_end=10.0, max_samples=101)
        exact = reduced_master_equation(p, n, **kwargs)
        pinned = reduced_master_equation(p, n, dt=eliminated_model_step(p), **kwargs)
        assert exact.backend == "eig" and 1.0 <= exact.cond_v < 1e6
        assert pinned.backend == "rk4" and pinned.cond_v is None
        assert np.max(np.abs(exact.rho_tt - pinned.rho_tt)) <= 1e-10
        assert np.max(np.abs(exact.trace - pinned.trace)) <= 1e-10
        assert np.all(np.diff(exact.trace) <= 1e-12)

    def test_register_scale_stays_on_rk4(self, reference_params):
        # dim 3001 > DENSE_EIG_CUTOFF: the CLI's default nonselective run
        gen = _rme_generator(reference_params, build_basis(501))
        assert gen.shape[0] > DENSE_EIG_CUTOFF
        series = reduced_master_equation(reference_params, 501, t_end=0.01, max_samples=3)
        assert series.backend == "rk4"


@pytest.fixture()
def blas_threads(monkeypatch):
    """The getter and setter of numpy's OpenBLAS thread count, the count set
    to 2 for the test and put back after it.  The package is taken to have
    found numpy loaded, so above SERIAL_BLAS_DIM the count stays at 2."""
    threads = dynamics._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_threads, _ = threads
    monkeypatch.setattr(dynamics, "_numpy_on_one_thread", False)
    before = get()
    set_threads(2)
    yield get, set_threads
    set_threads(before)


def record_threads(monkeypatch, get, owner, name, block_products=False):
    """Wrap ``owner.name`` to record the BLAS thread count at each call; with
    ``block_products`` only calls whose first operand has more than one
    column (not the outer product t_k lam_j) are recorded."""
    seen, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        if not block_products or args[0].shape[-1] > 1:
            seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


class TestSerialBlas:
    def conditioned_run(self, t_end=1.0, max_samples=300):
        """The eliminated model's run at n = 5 (dim 5, ``eig``)."""
        return null_trajectory(measurement_test_params(), 5, t_end=t_end, model="eliminated", max_samples=max_samples)

    def test_dense_work_runs_on_one_thread(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        seen = {name: record_threads(monkeypatch, get, np.linalg, name) for name in ("eig", "inv")}
        products = record_threads(monkeypatch, get, np, "matmul", block_products=True)
        assert self.conditioned_run().backend == "eig"
        assert seen == {"eig": [1], "inv": [1]}
        assert len(products) == 3 and set(products) == {1}  # 300 samples, three blocks
        assert get() == 2

    def test_hermitian_runs_and_the_oracle_ground_state(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        seen = record_threads(monkeypatch, get, np.linalg, "eigh")
        assert evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=1.0, max_samples=11).backend == "eigh"
        exact_ground_state(two_level(1.0))
        assert seen == [1, 1] and get() == 2

    def test_count_untouched_above_the_cutoff(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        monkeypatch.setattr(dynamics, "SERIAL_BLAS_DIM", 4)
        seen = record_threads(monkeypatch, get, np.linalg, "eig")
        products = record_threads(monkeypatch, get, np, "matmul", block_products=True)
        self.conditioned_run()
        assert seen == [2] and set(products) == {2}

    def test_count_restored_after_an_exception(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        seen = []

        def failing(a):
            seen.append(get())
            raise RuntimeError("eig failed")

        monkeypatch.setattr(np.linalg, "eig", failing)
        with pytest.raises(RuntimeError, match="eig failed"):
            self.conditioned_run()
        assert seen == [1] and get() == 2

    def test_count_restored_between_samples_and_after_a_dropped_run(self, blas_threads):
        get, _ = blas_threads
        _, op, psi, _ = _conditioned_problem(measurement_test_params(), 5, "eliminated")
        _, run = _propagate(op, -1j, psi, 1.0, None, 1000)
        assert run.backend == "eig"
        points = grid_rows(run)
        for _ in range(SPECTRAL_BLOCK + 10):  # into the second block
            next(points)
            assert get() == 2
        del points, run
        assert get() == 2

    def test_results_do_not_depend_on_the_switch(self, blas_threads, monkeypatch, reference_params):
        # the switch changes the thread count and nothing else: the run with
        # it matches, bit for bit, a run without it on one thread throughout
        _, set_threads = blas_threads
        switched = null_trajectory(reference_params, 101, t_end=30.0)
        monkeypatch.setattr(dynamics, "_openblas_threads", lambda: None)
        set_threads(1)
        plain = null_trajectory(reference_params, 101, t_end=30.0)
        assert switched.backend == plain.backend == "eig"
        assert switched.cond_v == plain.cond_v
        assert np.array_equal(switched.norm_sq, plain.norm_sq)
        assert np.array_equal(switched.fidelity, plain.fidelity)

    def test_secular_solve_runs_on_one_thread_at_every_size(self, blas_threads, monkeypatch, reference_params):
        # matrix-vector work: one thread even above SERIAL_BLAS_DIM, where
        # the rebuild keeps its two
        get, _ = blas_threads
        monkeypatch.setattr(dynamics, "SERIAL_BLAS_DIM", 4)
        seen, original = [], dynamics._secular_roots

        def recorded(*args):
            seen.append(get())
            return original(*args)

        monkeypatch.setattr(dynamics, "_secular_roots", recorded)
        products = record_threads(monkeypatch, get, np, "matmul", block_products=True)
        series = null_trajectory(reference_params, 51, t_end=30.0, max_samples=11)
        assert series.backend == "eig" and seen == [1]
        assert set(products) == {2} and get() == 2


def fresh_interpreter(code: str, **variables) -> list[str]:
    """Run ``code`` in a new interpreter with none of the BLAS thread
    variables set but ``variables``, and return its output words."""
    if dynamics._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    env = {k: v for k, v in os.environ.items() if k not in zenoreg._BLAS_THREAD_VARS}
    src = str(Path(zenoreg.__file__).resolve().parents[1])
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


COUNTS = """
from zenoreg import dynamics
get, _, procs = dynamics._openblas_threads()
print(dynamics._numpy_on_one_thread, get(), procs())
"""


class TestOneThreadLoad:
    def test_import_loads_numpy_on_one_thread(self):
        assert fresh_interpreter(COUNTS)[:2] == ["True", "1"]

    def test_the_variable_is_gone_after_the_import(self):
        code = """
import os, subprocess, sys
import zenoreg
child = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
print("OPENBLAS_NUM_THREADS" in os.environ, subprocess.run([sys.executable, "-c", child], capture_output=True, text=True).stdout)
"""
        assert fresh_interpreter(code) == ["False", "None"]

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_chosen_count_is_kept(self, variable):
        loaded, count, procs = fresh_interpreter(COUNTS, **{variable: "2"})
        assert loaded == "False" and int(count) == min(2, int(procs))

    def test_numpy_imported_first_keeps_its_threads(self):
        loaded, count, procs = fresh_interpreter("import numpy" + COUNTS)
        assert loaded == "False" and count == procs

    def test_dense_work_above_the_cutoff_gets_every_processor(self):
        # a 5 x 5 damped chain, not an arrowhead, so LAPACK's eig runs
        code = COUNTS + """
import numpy as np
from zenoreg import SparseOperator, evolve
dynamics.SERIAL_BLAS_DIM = 4
seen, eig = [], np.linalg.eig
np.linalg.eig = lambda a: seen.append(get()) or eig(a)
rows, cols = np.arange(4), np.arange(1, 5)
op = SparseOperator.from_coo(5, [*rows, *cols, 4], [*cols, *rows, 4], [1.0] * 8 + [-0.5j])
print(evolve(op, np.eye(5)[0], t_end=1.0, max_samples=11).backend, seen, get())
"""
        loaded, count, procs, backend, seen, after = fresh_interpreter(code)
        assert (loaded, count, backend, after) == ("True", "1", "eig", "1")
        assert seen == f"[{procs}]"

    @pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
    def test_lanczos_loads_scipys_openblas_on_one_thread(self, variables):
        # above DENSE_EIG_CUTOFF the ground state is found by scipy's eigsh,
        # whose import loads the second OpenBLAS that scipy bundles
        if not zenoreg._bundled_openblas("scipy"):
            pytest.skip("scipy's bundled OpenBLAS not found")
        code = """
from zenoreg import build_bose_hubbard, dynamics, exact_ground_state, fock_basis
op = build_bose_hubbard(fock_basis(7, 8), 1.0, 10.0, 0.0)
exact_ground_state(op)
get, _, procs = dynamics._openblas_threads("scipy")
print(op.dim, get(), procs())
"""
        dim, count, procs = fresh_interpreter(code, **variables)
        assert int(dim) > dynamics.DENSE_EIG_CUTOFF
        assert int(count) == (min(2, int(procs)) if variables else 1)


class TestGridRebuild:
    @pytest.mark.parametrize("n_samples", [5000, 300, 100])  # 300: a partial last block
    @pytest.mark.parametrize("generator", ["conditioned", "master equation"])
    def test_matches_the_direct_blocks(self, reference_params, generator, n_samples):
        # the grid's phases are advanced block to block; the bisection's
        # arbitrary times take one exp an entry
        if generator == "conditioned":
            _, op, y, _ = _conditioned_problem(reference_params, 51, "eliminated")
            scale, t_end = -1j, 30.0
        else:
            p = measurement_test_params(21)
            basis = build_basis(21)
            op = _rme_generator(p, basis)
            rho = ground_reduced_density(basis, p)
            y = np.concatenate(([rho.rho_tt], rho.rho_ss, rho.rho_st.real, rho.rho_st.imag))
            scale, t_end = 1.0, 10.0
        t = np.linspace(0.0, t_end, n_samples)
        run = _spectral(op, scale, y, t)
        assert run.backend == "eig"
        rebuilt = np.array([row.copy() for row in run.points])
        direct = np.concatenate([b.copy() for b in run.blocks(t)])
        direct = direct if np.iscomplexobj(y) else direct.real
        assert rebuilt.shape == direct.shape == (n_samples, op.dim)
        # the first block is built directly, so it is exact
        first = min(SPECTRAL_BLOCK, n_samples)
        assert np.array_equal(rebuilt[:first], direct[:first])
        error = np.linalg.norm(rebuilt - direct, axis=1)
        assert np.all(error <= 1e-13 * np.linalg.norm(direct, axis=1))


@st.composite
def clustered_spectra(draw):
    """Unit eigenvectors, coefficients, eigenvalues (Re lam <= 0) and t_end:
    one to three tight clusters of 5-200 members, each within rho <= 1 of
    its mean in units of 1 / t_end, and up to five isolated modes."""
    t_end = draw(st.floats(0.1, 100.0))
    sizes = draw(st.lists(st.integers(5, 200), min_size=1, max_size=3))
    radii = draw(st.lists(st.floats(0.0, 1.0), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = [complex(-rng.uniform(0.0, 50.0), rng.uniform(-50.0, 50.0)) for _ in range(draw(st.integers(0, 5)))]
    for size, rho in zip(sizes, radii):
        offsets = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        offsets -= offsets.mean()
        offsets *= rho / np.max(np.abs(offsets))
        z += list(complex(-rng.uniform(0.0, 50.0) - rho, rng.uniform(-50.0, 50.0)) + offsets)
    dim = len(z)
    vecs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coef = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vecs / np.linalg.norm(vecs, axis=0), coef, np.array(z) / t_end, t_end


class TestCompressedRebuild:
    @settings(max_examples=30)
    @given(spectrum=clustered_spectra(), n_samples=st.integers(2, 300))
    def test_matches_the_dense_product(self, spectrum, n_samples):
        # the Taylor remainder and the rounding of terms that are each at
        # most 1 stay within a few EPS sum |coef|, on the grid and at any times
        vecs, coef, lam, t_end = spectrum
        basis, plain_coef, plain_lam, taylor = _compress(vecs, coef, lam, t_end)
        if taylor is None:
            assert basis is vecs and plain_coef is coef and plain_lam is lam
        grid = np.linspace(0.0, t_end, n_samples)
        times = np.random.default_rng(n_samples).uniform(0.0, t_end, 200)
        for t, uniform in [(grid, True), (times, False)]:
            blocks = _blocks(basis, plain_coef, plain_lam, t, uniform=uniform, taylor=taylor)
            rebuilt = np.concatenate([b.copy() for b in blocks])
            dense = (np.exp(np.outer(t, lam)) * coef) @ vecs.T
            error = np.linalg.norm(rebuilt - dense, axis=1)
            assert np.all(error <= 8.0 * EPS * np.abs(coef).sum())

    def test_default_trajectory_rebuilds_from_twelve_columns(self, reference_params, monkeypatch):
        # the 500 pair poles span 0.012 U, one cluster of 11 terms; T is the twelfth
        shapes, original = [], dynamics._compress

        def recorded(*args):
            operands = original(*args)
            shapes.append(operands[0].shape)
            return operands

        monkeypatch.setattr(dynamics, "_compress", recorded)
        series = null_trajectory(reference_params, 501, t_end=30.0)
        assert series.backend == "eig" and shapes == [(501, 12)]


def jordan_like(eta: float) -> SparseOperator:
    """[[-i, 1], [eta, -i]]: eigenvectors (1, +-sqrt(eta)), cond(V) ~ 1/sqrt(eta)."""
    return SparseOperator.from_triplets(2, [(0, 0, -1j), (0, 1, 1.0), (1, 0, complex(eta)), (1, 1, -1j)])


class TestBackendChoice:
    @pytest.mark.parametrize("n_steps", [1, 3, 5000])
    def test_unpinned_runs_below_the_cap_are_exact(self, reference_params, n_steps):
        # no cost model: a run of a few steps goes spectral as a long one does
        _, op, psi, _ = _conditioned_problem(reference_params, 5, "eliminated")
        step = eliminated_model_step(reference_params)
        assert _plan_grid(n_steps * step, step, _max_step(op), 2)[0] == n_steps
        _, run = _propagate(op, -1j, psi, n_steps * step, None, 2)
        assert run.backend == "eig"
        h = two_level(1.0)
        _, run = _propagate(h, -1j, np.array([1.0, 0.0], dtype=complex), n_steps * _max_step(h), None, 2)
        assert run.backend == "eigh"

    @pytest.mark.parametrize("imaginary", [False, True])
    def test_real_hermitian_operator_is_diagonalised_in_real_arithmetic(self, reference_params, monkeypatch, imaginary):
        # the free Hamiltonian on the bright sector at n = 51 is real; a
        # Hermitian operator with an imaginary entry stays complex
        p = reference_params
        basis = build_basis(51)
        op = BrightSector(basis, p.delta_over_u, molecular=False).restrict(build_free_hamiltonian(basis, p))
        if imaginary:
            op = replace(op, vals=op.vals * np.where(op.rows < op.cols, 1j, np.where(op.rows > op.cols, -1j, 1.0)))
            assert op.is_hermitian()
        dtypes, eigh = [], np.linalg.eigh

        def recorded(a):
            dtypes.append(a.dtype)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        psi0 = np.zeros(op.dim, dtype=np.complex128)
        psi0[0] = 1.0
        series = evolve(op, psi0, t_end=0.5 / p.j_over_u, max_samples=2001)
        assert series.backend == "eigh"
        assert dtypes == [np.complex128 if imaginary else np.float64]
        # against complex eigh of the same matrix, rebuilt sample by sample
        w, v = eigh(op.to_dense())
        psi = v @ ((v.conj().T @ psi0)[:, None] * np.exp(-1j * np.outer(w, series.t)))
        norm = np.sum(np.abs(psi) ** 2, axis=0)
        assert np.max(np.abs(series.norm_sq - norm)) <= 1e-12
        assert np.max(np.abs(series.fidelity - np.abs(psi[0]) ** 2 / norm)) <= 1e-12

    def test_given_step_pins_rk4(self, reference_params):
        series = evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=1.0, dt=0.01, max_samples=11)
        assert series.backend == "rk4" and series.cond_v is None
        unpinned = evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=1.0, max_samples=11)
        assert unpinned.backend == "eigh"
        elim = null_trajectory(reference_params, 5, t_end=1.0, model="eliminated", dt=1e-3, max_samples=11)
        assert elim.backend == "rk4"

    def test_unpinned_conditioned_run_uses_eig(self, reference_params):
        series = null_trajectory(reference_params, 5, t_end=1.0, model="full", max_samples=11)
        assert series.backend == "eig" and 1.0 <= series.cond_v < 1e3

    @pytest.mark.parametrize("eta", [0.0, 1e-20])
    def test_near_defective_generator_falls_back_to_rk4(self, eta):
        op = jordan_like(eta)
        psi0 = np.array([0.6, 0.8])
        series = evolve(op, psi0, t_end=2.0, max_samples=21)
        rk4 = evolve(op, psi0, t_end=2.0, dt=_max_step(op), max_samples=21)
        assert series.backend == "rk4"
        assert np.array_equal(series.fidelity, rk4.fidelity)
        assert np.array_equal(series.norm_sq, rk4.norm_sq)

    def test_tiny_damping_is_kept(self):
        # within the Hermitian tolerance, but over t = 1e180 the damping decays e^-2
        op = SparseOperator.from_triplets(2, [(0, 0, 0j), (1, 1, -0.5e-180j)])
        series = evolve(op, np.array([0.0, 1.0]), t_end=2e180, max_samples=5)
        assert series.backend == "eig"
        assert np.allclose(series.norm_sq, np.exp(-np.linspace(0.0, 2.0, 5)), rtol=1e-12)

    def test_phases_without_a_correct_digit_refused(self):
        # eps |lam| t_end = 2.2e-6 on an undamped mode; a mode damped at
        # rate 1 carries its phase error only while it lasts, t ~ 1
        with pytest.raises(IntegrationError, match="t_end = 1e\\+10 is too long for exact propagation"):
            evolve(two_level(1.0), np.array([1.0, 0.0]), t_end=1e10, max_samples=11)
        damped = SparseOperator.from_triplets(2, [(0, 0, 1.0 - 1.0j), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 2.0 - 1.0j)])
        assert evolve(damped, np.array([1.0, 0.0]), t_end=1e10, max_samples=11).backend == "eig"

    def test_non_normal_generator_below_the_guard(self):
        # cond(V) ~ 100, far below COND_V_LIMIT; eig runs and agrees
        op = jordan_like(1e-4)
        psi0 = np.array([0.6, 0.8])
        series = evolve(op, psi0, t_end=2.0, max_samples=21)
        rk4 = evolve(op, psi0, t_end=2.0, dt=1e-3, max_samples=21)
        assert series.backend == "eig" and 10.0 < series.cond_v < 1e3
        assert np.max(np.abs(series.norm_sq - rk4.norm_sq)) < 1e-10
        assert np.max(np.abs(series.fidelity - rk4.fidelity)) < 1e-10


def send_to_lapack(monkeypatch):
    """Decline every structured decomposition, so non-Hermitian operators
    take LAPACK's eig + inv."""
    monkeypatch.setattr(dynamics, "_secular_eig", lambda op: None)


def spectral_states(op, psi0, t):
    """The spectral run of i dpsi/dt = op psi on ``t`` and its states."""
    run = _spectral(op, -1j, np.array(psi0, dtype=np.complex128), t)
    return run, np.array([y.copy() for y in run.points])


def arrowhead(poles, row, column=None, a0=0.0):
    """Arrowhead with a0 at (0, 0), ``poles`` on the rest of the diagonal,
    ``row`` in row 0 and ``column`` (default: ``row``) in column 0,
    assembled as the register builders assemble theirs, so it keeps its
    parts for the secular solver."""
    column = row if column is None else column
    tails = np.arange(1, len(poles) + 1)[:, None]
    row, column, poles = (np.asarray(x, dtype=np.complex128) for x in (row, column, poles))
    return _block_arrowhead(len(poles) + 1, complex(a0), tails, row[:, None], column[:, None], poles[:, None, None])


def without_parts(op: SparseOperator) -> SparseOperator:
    """``op``'s entries, built from triplets, so without arrowhead parts."""
    return SparseOperator.from_triplets(op.dim, list(zip(op.rows, op.cols, op.vals)))


POLES = [1.0 - 0.1j, 1.5 - 0.2j, 2.0]
DECLINED = {
    "equal poles": lambda p: arrowhead([1.0 - 0.1j, 1.0 - 0.1j, 2.0], [0.3, 0.2, 0.1]),
    "zero coupling": lambda p: arrowhead(POLES, [0.3, 0.0, 0.1]),
    "missing coupling": lambda p: without_parts(arrowhead(POLES, [0.3, 0.0, 0.1])),
    "row 0 != column 0": lambda p: arrowhead(POLES, [0.3, 0.2, 0.1], [0.3, 0.2, 0.1 + 1e-12]),
    "full model": lambda p: _conditioned_problem(p, 5, "full")[1],
    # coupling 0.038 against a pole spacing of 2e-4
    "strong coupling": lambda p: _conditioned_problem(measurement_test_params(), 5, "eliminated")[1],
}


class TestSecularSolver:
    def test_the_arrowhead_helper_reaches_the_solver(self):
        assert dynamics._secular_eig(arrowhead(POLES, [0.3, 0.2, 0.1])) is not None

    def test_replace_drops_the_parts(self):
        op = arrowhead(POLES, [0.3, 0.2, 0.1])
        assert op.arrowhead is not None
        assert replace(op, vals=op.vals * 2.0).arrowhead is None

    @pytest.mark.parametrize("n", [3, 5, 51, 501])
    def test_matches_lapack(self, reference_params, monkeypatch, n):
        _, op, psi0, _ = _conditioned_problem(reference_params, n, "eliminated")
        assert dynamics._secular_eig(op) is not None
        t = np.linspace(0.0, 30.0, 301)
        structured, states = spectral_states(op, psi0, t)
        send_to_lapack(monkeypatch)
        dense, ref = spectral_states(op, psi0, t)
        assert structured.backend == dense.backend == "eig"
        assert structured.cond_v == pytest.approx(dense.cond_v, rel=1e-8)
        assert np.max(np.abs(states - ref)) <= 1e-13
        norm, norm_ref = (np.sum(np.abs(s) ** 2, axis=1) for s in (states, ref))
        assert np.max(np.abs(norm - norm_ref)) <= 1e-13

    def test_default_trajectory_calls_no_lapack(self, reference_params, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("eig", "inv"):
            monkeypatch.setattr(np.linalg, name, refused)
        series = null_trajectory(reference_params, 501, t_end=30.0)
        assert series.backend == "eig" and 1.0 <= series.cond_v < 10.0

    @pytest.mark.parametrize("case", DECLINED)
    def test_declined_operators_take_lapack_bit_for_bit(self, reference_params, monkeypatch, case):
        op = DECLINED[case](reference_params)
        assert dynamics._secular_eig(op) is None
        calls = record_threads(monkeypatch, lambda: None, np.linalg, "eig")  # an entry a call
        psi0 = np.arange(1.0, op.dim + 1.0) / np.linalg.norm(np.arange(1.0, op.dim + 1.0))
        t = np.linspace(0.0, 5.0, 51)
        run, states = spectral_states(op, psi0, t)
        send_to_lapack(monkeypatch)
        dense, ref = spectral_states(op, psi0, t)
        assert len(calls) == 2
        assert run.backend == dense.backend == "eig" and run.cond_v == dense.cond_v
        assert np.array_equal(states, ref)

    @pytest.mark.parametrize("n, block", [(5, 1), (5, 6), (51, 1), (51, 52), (501, 1), (501, 502)])
    def test_block_size_changes_no_bit(self, reference_params, monkeypatch, n, block):
        # one block of every row, or the shortest blocks _row_blocks makes,
        # against the default: the roots, Löwner's couplings, coef, cond(V)
        # and the rebuilt states
        _, op, psi0, _ = _conditioned_problem(reference_params, n, "eliminated")
        a0, _, u, _, tails = op.arrowhead
        c, d = u[:, 0].astype(np.complex128), tails[:, 0, 0].astype(np.complex128)
        y, t = np.array(psi0, dtype=np.complex128), np.linspace(0.0, 30.0, 301)

        def solve():
            with dynamics._serial_blas(op.dim):
                tau, chat2 = dynamics._secular_roots(a0, d, c)
                _, vecs, s = dynamics._secular_eig(op)
                coef, cond_v = dynamics._apply_inverse(vecs, s, y)
            run, states = spectral_states(op, psi0, t)
            assert run.cond_v == cond_v
            return [tau.tobytes(), chat2.tobytes(), coef.tobytes(), cond_v, states.tobytes()]

        default = solve()
        monkeypatch.setattr(rowblocks, "SECULAR_BLOCK", block)
        assert solve() == default

    @pytest.mark.parametrize(
        "source, n",
        [("secular", 5), ("secular", 51), ("secular", 501), ("lapack", 5), ("lapack", 51), ("real", 5), ("real", 51)],
    )
    def test_inverse_reads_as_the_whole_matrix(self, reference_params, source, n):
        # coef and cond(V) read V^-1 a block of rows at a time, bit for bit
        # what V^-1 @ y and the whole matrices' 1-norms give: the closed form
        # V^T / s, and LAPACK's inverse of a complex operator (the full
        # model's) and of a real one (the master equation's generator)
        if source == "secular":
            _, op, y, _ = _conditioned_problem(reference_params, n, "eliminated")
            _, vecs, given = dynamics._secular_eig(op)
            inv = vecs.T / given[:, None]
        else:
            if source == "lapack":
                _, op, y, _ = _conditioned_problem(reference_params, n, "full")
            else:
                op = _rme_generator(reference_params, build_basis(n))
                y = np.linspace(1.0, 2.0, op.dim)
            _, vecs, inv = dynamics._dense_eig(op)
            given = inv
        y = np.asarray(y, dtype=np.result_type(op.vals, y))
        with dynamics._serial_blas(op.dim):
            coef, cond_v = dynamics._apply_inverse(vecs, given, y)
            assert coef.tobytes() == (inv @ y).tobytes()
        assert cond_v == np.linalg.norm(vecs, 1) * np.linalg.norm(inv, 1)

    def test_spectral_holds_v_and_blocks(self, reference_params):
        # V is the only dim x dim array: the default trajectory's solve
        # peaks within 1.5 times V's 16 dim^2 bytes
        _, op, psi0, _ = _conditioned_problem(reference_params, 501, "eliminated")
        y, t = np.array(psi0, dtype=np.complex128), np.linspace(0.0, 30.0, 5000)
        _spectral(op, -1j, y, t)  # first-call imports and caches
        tracemalloc.start()
        try:
            run = _spectral(op, -1j, y, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.backend == "eig"
        assert peak <= 1.5 * 16 * op.dim**2

    @settings(max_examples=200)
    @given(problem=st.one_of(arrowheads(), arrowheads(damped=False)), t_end=st.floats(0.1, 10.0))
    @pytest.mark.filterwarnings("error")
    def test_arrowheads_agree_with_lapack_or_decline(self, problem, t_end):
        # both decompositions are backward stable, so the states they
        # rebuild agree to the rebuild's rounding, cond(V) eps
        op, psi0 = problem
        structured = dynamics._secular_eig(op)
        if structured is None:  # declined: LAPACK runs, as tested above
            return
        t = np.linspace(0.0, t_end, 11)
        dense = dynamics._dense_eig(op)
        exact, ref = (
            vecs @ (dynamics._apply_inverse(vecs, inv, psi0)[0][:, None] * np.exp(-1j * np.outer(w, t)))
            for w, vecs, inv in (structured, dense)
        )
        cond_v = np.linalg.norm(dense[1], 1) * np.linalg.norm(dense[2], 1)
        assert np.max(np.abs(exact - ref)) <= 100 * cond_v * np.finfo(float).eps


def unreduced_problem(p, n: int, model: str):
    """Operator and initial state of the conditioned dynamics on the whole
    layout (full, or T+S for the eliminated model), and the model's step."""
    basis = build_basis(n)
    ground = perturbative_ground_state(basis, p)
    if model == "full":
        return build_effective_hamiltonian(basis, p), ground, full_model_step(p)
    return build_eliminated_hamiltonian(basis, p), ground.reduced(), eliminated_model_step(p)


def isometry(sector: BrightSector) -> np.ndarray:
    """Columns: the sector's basis states, embedded in the whole layout."""
    eye = np.eye(sector.dim, dtype=np.complex128)
    return np.column_stack([sector.embed(e).amplitudes for e in eye])


class TestBrightSector:
    # 200 RK4 steps of the model's default size
    @pytest.mark.parametrize("model", ["eliminated", "full"])
    @pytest.mark.parametrize("n", [5, 51, 501])
    def test_reduced_run_matches_unreduced(self, reference_params, n, model):
        op, psi0, step = unreduced_problem(reference_params, n, model)
        kwargs = dict(t_end=200 * step, dt=step, max_samples=21)
        whole = evolve(op, psi0, **kwargs)
        reduced = null_trajectory(reference_params, n, model=model, **kwargs)
        assert reduced.backend == whole.backend == "rk4"
        assert np.max(np.abs(reduced.fidelity - whole.fidelity)) <= 1e-12
        assert np.max(np.abs(reduced.norm_sq - whole.norm_sq)) <= 1e-12
        # the embedded final state is the unreduced one, amplitude by amplitude
        assert reduced.final_state.amplitudes.shape == whole.final_state.amplitudes.shape
        assert np.max(np.abs(reduced.final_state.amplitudes - whole.final_state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("model", ["eliminated", "full"])
    @pytest.mark.parametrize("n", [5, 51])
    def test_sector_is_invariant(self, reference_params, n, model):
        _, reduced, psi0, sector = _conditioned_problem(reference_params, n, model)
        op, ground, _ = unreduced_problem(reference_params, n, model)
        w = isometry(sector)
        assert np.allclose(w.conj().T @ w, np.eye(sector.dim), rtol=0.0, atol=1e-15)
        h = op.to_dense()
        residual = h @ w - w @ reduced.to_dense()
        assert np.linalg.norm(residual, 2) <= 1e-12 * np.linalg.norm(h, 2)
        assert np.max(np.abs(w @ psi0 - ground.amplitudes)) <= 1e-15

    @pytest.mark.parametrize("n", [5, 501])
    def test_mirror_couples_at_nonzero_delta(self, reference_params, n):
        basis = build_basis(n)
        sector = BrightSector(basis, reference_params.delta_over_u, molecular=False)
        assert sector.dim == n
        # group members are (j, +) and (-j-1, -)
        members = [np.flatnonzero(sector.group == g) for g in range(n - 1)]
        for pair in members:
            (a, b) = pair
            assert basis.pair_j[a] + basis.pair_j[b] == -1
            assert basis.pair_sign[a] == -basis.pair_sign[b]

    @pytest.mark.parametrize("model, dim", [("eliminated", 2), ("full", 3)])
    def test_one_group_at_zero_delta(self, reference_params, model, dim):
        p = replace(reference_params, delta_over_u=0.0)
        _, op, psi0, _ = _conditioned_problem(p, 51, model)
        assert op.dim == psi0.size == dim
        whole_op, ground, step = unreduced_problem(p, 51, model)
        kwargs = dict(t_end=200 * step, dt=step, max_samples=11)
        whole = evolve(whole_op, ground, **kwargs)
        reduced = null_trajectory(p, 51, model=model, **kwargs)
        assert np.max(np.abs(reduced.fidelity - whole.fidelity)) <= 1e-12
        assert np.max(np.abs(reduced.norm_sq - whole.norm_sq)) <= 1e-12

    def test_elimination_warning_still_fires(self, reference_params):
        p = replace(reference_params, omega_m_over_u=0.2 * reference_params.gamma_m_over_u)
        with pytest.warns(UserWarning, match="outside its validity range"):
            null_trajectory(p, 5, t_end=0.01, model="eliminated", max_samples=3)

    def test_state_with_a_dark_part_refused(self, reference_params):
        basis = build_basis(5)
        sector = BrightSector(basis, reference_params.delta_over_u, molecular=True)
        amps = perturbative_ground_state(basis, reference_params).amplitudes.copy()
        amps[basis.s_slots[0]] *= 1.5
        with pytest.raises(ModelError, match="differs within a group"):
            sector.project(StateVector(basis, amps))

    def test_molecular_amplitudes_refused_without_molecules(self, reference_params):
        basis = build_basis(5)
        sector = BrightSector(basis, reference_params.delta_over_u, molecular=False)
        amps = perturbative_ground_state(basis, reference_params).amplitudes.copy()
        amps[basis.s_slots + 2] = 0.3
        with pytest.raises(ModelError, match="molecular amplitudes"):
            sector.project(StateVector(basis, amps))

    # builder, layout of its operator, sector with molecules
    RESTRICTED = {
        "interaction": (build_interaction_hamiltonian, "full", True),
        "effective": (build_effective_hamiltonian, "full", True),
        "eliminated": (build_eliminated_hamiltonian, "T+S", False),
        "free": (build_free_hamiltonian, "full", False),
    }

    @pytest.mark.parametrize("delta", ["reference", 0.0])
    @pytest.mark.parametrize("name", RESTRICTED)
    @pytest.mark.parametrize("n", [5, 51])
    def test_restrict_is_the_dense_block(self, reference_params, n, name, delta):
        p = reference_params if delta == "reference" else replace(reference_params, delta_over_u=delta)
        build, layout, molecular = self.RESTRICTED[name]
        basis = build_basis(n)
        sector = BrightSector(basis, p.delta_over_u, molecular)
        w = isometry(sector)
        if layout == "full" and not molecular:  # its T+S rows, in the full layout
            w = np.zeros((basis.dimension, sector.dim), dtype=np.complex128)
            w[np.r_[0, basis.s_slots]] = isometry(sector)
        op = build(basis, p)
        block = sector.restrict(op)
        groups = n - 1 if delta == "reference" else 1
        assert block.dim == sector.dim == 1 + (2 if molecular else 1) * groups
        assert block.hermitian == op.hermitian
        h = op.to_dense()
        # both sides sum over groups of up to 2(n - 1) members
        tol = 2 * (n - 1) * np.finfo(np.float64).eps * np.abs(h).max()
        assert np.max(np.abs(block.to_dense() - w.conj().T @ h @ w)) <= tol

    def test_restrict_refuses_molecular_entries(self, reference_params):
        basis = build_basis(5)
        sector = BrightSector(basis, reference_params.delta_over_u, molecular=False)
        with pytest.raises(ModelError, match="molecular entries"):
            sector.restrict(build_interaction_hamiltonian(basis, reference_params))
        with pytest.raises(ModelError, match="neither the full nor the T\\+S layout"):
            sector.restrict(two_level(1.0))

    def test_restrict_refuses_what_it_cannot_fold(self, reference_params):
        basis = build_basis(5)
        sector = BrightSector(basis, reference_params.delta_over_u, molecular=False)
        with pytest.raises(ModelError, match="takes the operators of the register builders"):
            sector.restrict(without_parts(build_free_hamiltonian(basis, reference_params)))
        # one group at delta = 0, but the operator's pair energies differ
        flat = BrightSector(basis, 0.0, molecular=False)
        with pytest.raises(ModelError, match="differs within a group"):
            flat.restrict(build_free_hamiltonian(basis, reference_params))


class TestStartState:
    """``_propagate`` owns the start: it checks it, takes the run's arithmetic
    from generator, scale and start together, and never writes into it."""

    @pytest.mark.parametrize("dt", [None, 0.01])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evolve_refuses_a_non_finite_amplitude(self, bad, dt):
        with pytest.raises(IntegrationError, match="must be 2 finite numbers"):
            evolve(two_level(1.0), np.array([bad, 0.0]), t_end=1.0, dt=dt, max_samples=11)

    @pytest.mark.parametrize(
        "start", [np.array(["a", "b"]), np.array([1.0, 0.0], dtype=object)], ids=["str", "object"]
    )
    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_evolve_refuses_a_non_numeric_start(self, start, dt):
        with pytest.raises(IntegrationError, match=r"must be 2 finite numbers \(dtype"):
            evolve(two_level(1.0), start, t_end=1.0, dt=dt, max_samples=11)

    def test_evolve_refuses_a_start_of_the_wrong_length(self):
        with pytest.raises(IntegrationError, match=r"must be 2 finite numbers \(shape \(3,\)"):
            evolve(two_level(1.0), np.zeros(3), t_end=1.0, max_samples=11)

    @pytest.mark.parametrize("pinned", [False, True])
    def test_master_equation_refuses_a_non_finite_population(self, pinned):
        p = measurement_test_params()
        rho0 = ground_reduced_density(build_basis(5), p)
        rho0.rho_ss[3] = np.nan
        dt = eliminated_model_step(p) if pinned else None
        with pytest.raises(IntegrationError, match="must be 25 finite numbers"):
            reduced_master_equation(p, 5, rho0=rho0, t_end=1.0, dt=dt, max_samples=11)

    def test_bloch_system_refuses_an_infinite_component(self):
        b0 = BlochState(u=0.0, v=np.inf, w=-1.0, x=1.0)
        with pytest.raises(IntegrationError, match="must be 4 finite numbers"):
            bloch_evolution(measurement_test_params(), 5, b0=b0, t_end=1.0, max_samples=11)

    @pytest.mark.parametrize(
        "make_op, dt, backend",
        [
            (lambda: two_level(1.0), None, "eigh"),
            (lambda: two_level(1.0), 0.01, "rk4"),
            (lambda: jordan_like(0.5), None, "eig"),
            (lambda: jordan_like(0.5), 0.01, "rk4"),
        ],
        ids=["hermitian-spectral", "hermitian-rk4", "damped-spectral", "damped-rk4"],
    )
    def test_real_start_runs_as_its_complex_cast(self, make_op, dt, backend):
        op = make_op()
        starts = (np.array([1.0, 0.0]), np.array([1.0 + 0j, 0.0]))
        runs = [_propagate(op, -1j, start, 1.0, dt, 11)[1] for start in starts]
        real, cast = (np.array([y.copy() for y in grid_rows(run)]) for run in runs)
        assert runs[0].backend == runs[1].backend == backend
        assert real.dtype == np.complex128
        np.testing.assert_array_equal(real, cast)
        # a unit start: the Hermitian run keeps its norm, the damped one loses it
        norms = np.sum(np.abs(real) ** 2, axis=1)
        if op.hermitian:
            np.testing.assert_allclose(norms, 1.0, rtol=1e-9)
        else:
            assert norms[-1] < 1.0 and np.all(np.diff(norms) <= 1e-12)

    def test_pinned_rk4_leaves_the_start_alone(self):
        psi = np.array([0.6, 0.8j])
        _, run = _propagate(two_level(1.0), -1j, psi, 1.0, 0.01, 11)
        assert run.backend == "rk4" and len(list(grid_rows(run))) == 11
        np.testing.assert_array_equal(psi, [0.6, 0.8j])
        p = measurement_test_params()
        basis = build_basis(5)
        gen = _rme_generator(p, basis)
        rho = ground_reduced_density(basis, p)
        y = np.concatenate(([rho.rho_tt], rho.rho_ss, rho.rho_st.real, rho.rho_st.imag))
        before = y.copy()
        _, run = dynamics._propagate(gen, 1.0, y, 1.0, eliminated_model_step(p), 11)
        assert run.backend == "rk4" and len(list(grid_rows(run))) == 11
        np.testing.assert_array_equal(y, before)

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("ground", [False, True])
    def test_reduced_density_from_lists_runs_as_from_arrays(self, ground, pinned):
        p = measurement_test_params()
        if ground:
            arrays = ground_reduced_density(build_basis(5), p)
        else:
            arrays = ReducedDensityState(0.0, np.array([1.0] + [0.0] * 7), np.zeros(8, dtype=complex))
        lists = ReducedDensityState(arrays.rho_tt, arrays.rho_ss.tolist(), arrays.rho_st.tolist())
        assert lists.trace() == arrays.trace()
        kwargs = dict(t_end=2.0, dt=eliminated_model_step(p) if pinned else None, max_samples=21)
        from_arrays = reduced_master_equation(p, 5, rho0=arrays, **kwargs)
        from_lists = reduced_master_equation(p, 5, rho0=lists, **kwargs)
        assert from_lists.diagnostics() == from_arrays.diagnostics()
        assert from_lists.backend == ("rk4" if pinned else "eig")
        for name in ("t", "rho_tt", "rho_ss_sum", "trace"):
            np.testing.assert_array_equal(getattr(from_lists, name), getattr(from_arrays, name))
