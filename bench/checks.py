"""Output checks for the full-size workloads.

Tolerances come from the physics, not from bit-equality, so a correct new
propagation backend passes.  Each check returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# the integrator refuses norm increases above 1e-9; the CSV keeps 12 digits
NORM_TOL = 1e-9
HERMITIAN_DRIFT_TOL = 1e-8
# a correct ensemble lands outside this many sigma with negligible probability
ENSEMBLE_SIGMAS = 7.0


def _columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sidecar(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _norm_never_increases(failures: list, norm: np.ndarray) -> None:
    rise = float(np.diff(norm).max(initial=0.0))
    _expect(failures, rise <= NORM_TOL, f"norm increases by {rise:.3g}")


def check_trajectory(run: Path, child: dict) -> list:
    data = _columns(run / "traj.csv")
    t, f = data[:, 0], data[:, 1]
    t_sat = _sidecar(run / "traj.json")["t_sat_over_u"]
    _sidecar(run / "plot.json")
    failures = []
    _expect(failures, abs(f[0] - 0.992) <= 0.002, f"F(0) = {f[0]:.6g}, expected 0.992 +- 0.002")
    _expect(failures, abs(t[-1] - 30.0) < 1e-9, f"t_end = {t[-1]:.6g}, expected 30/U")
    _expect(failures, f[-1] >= 0.999, f"F(30/U) = {f[-1]:.6g} < 0.999")
    _expect(failures, 4.0 <= t_sat <= 16.0, f"t_sat = {t_sat:.4g}/U outside [4, 16]/U")
    _norm_never_increases(failures, data[:, 2])
    svg = (run / "plot.svg").read_text(encoding="utf-8")
    _expect(failures, svg.startswith("<svg") and "<polyline" in svg, "plot.svg is not an SVG line plot")
    return failures


def check_ensemble(run: Path, child: dict) -> list:
    d = _sidecar(run / "ensemble.json")
    n = d["n_traj"]
    survival, population = np.array(d["survival"]), np.array(d["uncond_t_population"])
    trace, rho_tt = np.array(d["rme_trace"]), np.array(d["rme_rho_tt"])
    failures = []
    _expect(failures, np.allclose(d["t"], d["rme_t"], rtol=0, atol=1e-12), "ensemble and RME grids differ")
    for name, est, exact in (("survival", survival, trace), ("target population", population, rho_tt)):
        sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-12) / n)
        dev = float((np.abs(est - exact) / sigma)[1:].max())
        _expect(failures, dev <= ENSEMBLE_SIGMAS, f"{name} deviates from the RME by {dev:.2f} sigma")
    _expect(failures, bool(np.all(np.diff(survival) <= 0)), "survival increases")
    _expect(failures, bool(np.all(np.diff(trace) <= NORM_TOL)), "RME trace increases")
    _expect(failures, round(n * (1.0 - survival[-1])) == d["jumps"], "jump count disagrees with survival")
    return failures


def check_oracle(run: Path, child: dict) -> list:
    data = _columns(run / "oracle.csv")
    manifest = _sidecar(run / "oracle.json")["manifest"]["parameters"]
    n_pairs = manifest["atoms"] - 1
    j_over_u = manifest["derived"]["j_over_u"]
    failures = []
    drift = child["norm_drift"]
    for name in ("exact_evolve_fidelity", "double_occupancy_evolve"):
        value = drift.get(name, math.inf)
        _expect(failures, value < HERMITIAN_DRIFT_TOL, f"{name} norm drift {value:.3g}")
    predicted = 8.0 * n_pairs * j_over_u**2
    averaged = float(np.mean(1.0 - data[:, 1]))
    _expect(
        failures,
        abs(averaged / predicted - 1.0) <= 0.25,
        f"time-averaged infidelity {averaged:.4g} not within 25% of 8n(J/U)^2 = {predicted:.4g}",
    )
    return failures


def check_cli(run: Path, child: dict) -> list:
    return check_trajectory(run, child) + check_oracle(run, child)


CHECKS = {
    "cli": check_cli,
    "ensemble": check_ensemble,
}
