"""Run one benchmark workload once, in this fresh process.

    python3 bench/child.py WORKLOAD RUN_DIR [--seed N] [--trace] [--small] [--setup-only]

``zenoreg`` must be importable from ``<repo>/src`` (``run.py`` sets
PYTHONPATH).  The process works in RUN_DIR, where the workload writes its
outputs, and ends by writing ``child.json`` there: the monotonic clock
reading when the package import finished, the time spent in
``derive_params``/``regime_check``, the values the output checks need
that the program returns but does not write, and, with ``--trace``, the
spans.  ``--setup-only`` stops after set-up; ``--small`` runs the workload
at a reduced size for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]

# CLI argument lists per workload; outputs land in the working directory
CLI_RUNS = {
    "cli": [
        ["trajectory", "--out", "traj"],
        ["plot", "--in", "traj.csv", "--out", "plot"],
        ["oracle", "--out", "oracle"],
    ],
}
SMALL_CLI_RUNS = {
    "cli": [
        ["trajectory", "--n", "11", "--t-end", "2", "--model", "eliminated", "--out", "traj"],
        ["plot", "--in", "traj.csv", "--out", "plot"],
        ["oracle", "--atoms", "3", "--t-end", "0.05/J", "--out", "oracle"],
    ],
}
# jump ensemble paired with the reduced master equation, register of 5 sites
ENSEMBLE = {"n": 5, "n_traj": 8192, "t_end": 5.0, "max_samples": 11}
SMALL_ENSEMBLE = {"n": 5, "n_traj": 64, "t_end": 0.2, "max_samples": 11}
WORKLOADS = ("cli", "ensemble")


def measurement_params(z, n: int = 5, strength: float = 1.5):
    """Criterion-5 parameters: gamma_M = 40 U, Omega_M = 3.2 U, and J set by
    the measurement strength kappa / (2 sqrt(n) J)."""
    gamma_m, omega_m = 40.0, 3.2
    kappa = omega_m**2 * gamma_m / (8.0 * (1.0 + (gamma_m / 2.0) ** 2))
    return z.DerivedParams(
        u_hz=3574.0,
        e_r_hz=3725.0,
        j_over_u=kappa / (strength * 2.0 * math.sqrt(n)),
        delta_over_u=1e-4,
        kappa_over_u=kappa,
        omega_m_over_u=omega_m,
        gamma_m_over_u=gamma_m,
        vc_over_u=15.5,
        s_a=6.7e-8,
    )


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{openblas.get('name')} {openblas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def intercept(module, attr: str, after) -> None:
    """Replace ``module.attr`` by a wrapper that passes each call's duration
    and return value to ``after``."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        after(time.perf_counter() - t0, result)
        return result

    setattr(module, attr, wrapper)


def run_cli(cli, runs, tracer) -> None:
    for argv in runs:
        if tracer is None:
            code = cli.main(argv, prog_name="zenoreg", standalone_mode=False)
        else:
            code = tracer.call(f"cli.{argv[0]}", cli.main, argv, prog_name="zenoreg", standalone_mode=False)
        if code:  # click returns the code of ctx.exit() instead of exiting
            sys.exit(code)


def run_ensemble(z, p, seed: int, size: dict) -> None:
    ens = z.jump_ensemble(
        p, size["n"], n_traj=size["n_traj"], seed=seed, t_end=size["t_end"], model="full",
        max_samples=size["max_samples"],
    )
    rme = z.reduced_master_equation(p, size["n"], t_end=size["t_end"], max_samples=size["max_samples"])
    payload = {
        "n_traj": ens.n_traj,
        "jumps": sum(1 for t in ens.jump_times.tolist() if t == t),
        "t": ens.t.tolist(),
        "survival": ens.survival.tolist(),
        "uncond_t_population": ens.uncond_t_population.tolist(),
        "rme_t": rme.t.tolist(),
        "rme_trace": rme.trace.tolist(),
        "rme_rho_tt": rme.rho_tt.tolist(),
    }
    with open("ensemble.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("run_dir")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(args.run_dir)
    tracer = Tracer() if args.trace else None

    t0 = time.perf_counter()
    entry = importlib.import_module("zenoreg" if args.workload == "ensemble" else "zenoreg.cli")
    import_done = time.monotonic()
    if tracer is not None:
        tracer.add("cli.import", t0, time.perf_counter())
    source = Path(sys.modules["zenoreg"].__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: zenoreg imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3

    setup_calls = []
    norm_drift = {}
    for attr in ("regime_check",) if args.workload == "ensemble" else ("derive_params", "regime_check"):
        intercept(entry, attr, lambda seconds, _: setup_calls.append(seconds))
    if args.workload == "cli":
        # the CLI does not write the norm of these Hermitian evolutions; read it from the returned series
        for attr in ("exact_evolve_fidelity", "double_occupancy_evolve"):
            def drift(_, series, attr=attr):
                norm_drift[attr] = float(abs(series.norm_sq - 1.0).max())

            intercept(entry, attr, drift)
    if tracer is not None:
        tracer.wrap_call_sites()

    record = {"import_done": import_done}
    if args.setup_only:
        if args.workload == "ensemble":
            entry.regime_check(measurement_params(entry), ENSEMBLE["n"], ENSEMBLE["n"])
        else:
            cfg = entry.reference_config()
            p = entry.derive_params(cfg)
            entry.regime_check(p, cfg.register_sites, cfg.atoms, cfg.hole_probability_threshold)
        record["environment"] = environment()
    elif args.workload == "ensemble":
        p = measurement_params(entry)
        entry.regime_check(p, ENSEMBLE["n"], ENSEMBLE["n"])
        run_ensemble(entry, p, args.seed, SMALL_ENSEMBLE if args.small else ENSEMBLE)
    else:
        run_cli(entry, (SMALL_CLI_RUNS if args.small else CLI_RUNS)[args.workload], tracer)
    record["setup_calls_s"] = sum(setup_calls)
    record["norm_drift"] = norm_drift
    if tracer is not None:
        record["trace_overhead_s"] = tracer.overhead_s()
        record["spans"] = tracer.spans
    with open("child.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
