"""Command-line interface.

Times are accepted and reported in units of 1/U (``--hz`` switches the
time column to seconds using the derived U).  ``--t-end`` accepts either a
plain number (units of 1/U) or ``<number>/J`` for multiples of the
tunneling time.  Parameter precedence: built-in defaults < ``--config``
file < command-line flags.  Every run writes a JSON sidecar with the
resolved manifest next to its data.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from .analytics import free_evolution_fidelity, perturbative_ground_energy, preparation_stats
from .dynamics import (
    IntegrationError,
    bloch_evolution,
    evolve,
    finite_efficiency_fidelity,
    jump_ensemble,
    nonselective_fidelity_closed,
    null_trajectory,
    reduced_master_equation,
    zeno_decay_rate,
)
from .oracle import double_occupancy_evolve, exact_evolve_fidelity, fock_basis
from .params import ParameterError, derive_params, reference_config, read_config, regime_check
from .register import (
    BrightSector,
    ModelError,
    build_basis,
    build_free_hamiltonian,
    fidelity,
    perturbative_ground_state,
)
from .runio import RunManifest, write_csv, write_sidecar
from .svg import SvgError, emit_svg

CONFIG_ERRORS = (ParameterError, ModelError, SvgError, IntegrationError, OSError, ValueError)


class _Main(click.Group):
    """Command group whose subcommands report bad input, refused steps and
    unreadable or unwritable files as one error line and exit status 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CONFIG_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _resolve(config, n, u_over_j, strict):
    cfg = read_config(config) if config else reference_config()
    if n is not None:
        cfg = replace(cfg, register_sites=n)
    p = derive_params(cfg)
    if u_over_j is not None:
        if not (math.isfinite(u_over_j) and u_over_j > 0):
            raise ParameterError(f"--u-over-j must be finite and > 0, got {u_over_j:g}")
        j_over_u = 1.0 / u_over_j
        if not math.isfinite(j_over_u * j_over_u):
            raise ParameterError(f"--u-over-j = {u_over_j:g} is too small: (J/U)^2 overflows")
        p = replace(p, j_over_u=j_over_u)
    report = regime_check(p, cfg.register_sites, cfg.atoms, cfg.hole_probability_threshold)
    if not report.all_ok:
        message = (
            "measurement regime violated: "
            f"omega_ratio={report.omega_ratio:.3g} strength={report.strength:.3g} "
            f"edge_ratio={report.edge_ratio:.3g} p_h={report.p_h:.3g}"
        )
        if strict:
            raise ParameterError(message)
        click.echo(f"warning: {message}", err=True)
    return cfg, p, report


def _parse_t_end(text, p) -> float:
    text = str(text).strip()
    try:
        value = float(text[:-2]) / p.j_over_u if text.endswith("/J") else float(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse t-end value {text!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"t-end must be finite, got {text!r}")
    return value


def _time_column(t, p, hz):
    if hz:
        return "t_s", t / (2.0 * np.pi * p.u_hz)
    return "t_over_u", t


def _manifest(subcommand, cfg, p, seed=None, **kwargs) -> RunManifest:
    parameters = {
        "config": {
            "atoms": cfg.atoms,
            "register_sites": cfg.register_sites,
        },
        "derived": p.as_dict(),
    }
    parameters.update(kwargs)
    return RunManifest(subcommand=subcommand, parameters=parameters, seed=seed)


def _emit(base, manifest, header=None, columns=None, extra=None):
    """Write ``base.csv`` when there is a ``header``, then the JSON sidecar
    ``base.json``, and name what was written.

    The manifest lists the CSV and the sidecar.  A run without a CSV keeps
    the outputs its manifest already names (the plot's SVG), or else lists
    the sidecar alone.
    """
    json_path = f"{base}.json"
    if header is not None:
        manifest.outputs = [f"{base}.csv", json_path]
        write_csv(manifest.outputs[0], header, columns)
    elif not manifest.outputs:
        manifest.outputs = [json_path]
    write_sidecar(json_path, manifest, extra)
    click.echo(f"wrote {' and '.join(manifest.outputs)}")


# options that several subcommands take, keyed by name
SHARED_OPTIONS = {
    "config": dict(type=click.Path(), default=None, help="key=value config file"),
    "n": dict(type=int, default=None, help="register size (odd)"),
    "u-over-j": dict(type=float, default=None, help="override the U/J ratio"),
    "strict": dict(is_flag=True, help="fail on regime violations"),
    "hz": dict(is_flag=True, help="report times in seconds instead of 1/U"),
    "dt": dict(type=float, default=None, help="RK4 step (units of 1/U); pins RK4, else an exact backend may run"),
}
# what ``_resolve`` reads
RESOLVED = ("config", "n", "u-over-j", "strict")
T_END_HELP = "end time (1/U, or '<x>/J')"
MODEL_HELP = "full (with molecular states) or eliminated; auto: eliminated above n = 50, else full"


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Simulate measurement-stabilized register initialization."""


def _command(out, *shared):
    """Register the decorated function as a subcommand of ``main``.

    The subcommand takes the ``shared`` options (keys of SHARED_OPTIONS)
    first, then the options declared on the function, then ``--out``, the
    output base path, defaulting to ``out``.
    """

    def register(f):
        cmd = main.command()(f)
        cmd.params[:0] = [click.Option([f"--{name}"], **SHARED_OPTIONS[name]) for name in shared]
        cmd.params.append(click.Option(["--out"], default=out, show_default=True, help="output base path"))
        return cmd

    return register


@_command("zenoreg_params", *RESOLVED)
def params(config, n, u_over_j, strict, out):
    """Derived model parameters and regime report as JSON."""
    cfg, p, report = _resolve(config, n, u_over_j, strict)
    payload = {
        "u_hz": p.u_hz,
        "j_over_u": p.j_over_u,
        "delta_over_u": p.delta_over_u,
        "kappa_over_u": p.kappa_over_u,
        "omega_m_over_u": p.omega_m_over_u,
        "gamma_m_over_u": p.gamma_m_over_u,
        "vc_over_u": p.vc_over_u,
        "s_a": p.s_a,
        "strength": report.strength,
        "p_h": report.p_h,
        "regime": report.as_dict(),
    }
    for key in ("u_hz", "j_over_u", "kappa_over_u", "vc_over_u", "s_a", "strength", "p_h"):
        click.echo(f"{key} = {payload[key]:.6g}")
    _emit(out, _manifest("params", cfg, p), extra=payload)


@_command("zenoreg_ground", *RESOLVED)
@click.option("--dump-state", is_flag=True, help="include the state amplitudes")
def ground(config, n, u_over_j, strict, dump_state, out):
    """Perturbative ground state: fidelity, failure probability, energy."""
    cfg, p, _ = _resolve(config, n, u_over_j, strict)
    basis = build_basis(cfg.register_sites)
    psi = perturbative_ground_state(basis, p)
    stats = preparation_stats(p, cfg.register_sites)
    payload = {
        "fidelity": fidelity(psi),
        "p_fail": stats.p_fail,
        "t_prep_over_u": stats.t_prep,
        "energy_estimate_over_u": perturbative_ground_energy(
            cfg.register_sites - 1, p.j_over_u, 1.0
        ),
        "dimension": basis.dimension,
    }
    if dump_state:
        payload["state"] = {
            "n": basis.n,
            "amplitudes": [[a.real, a.imag] for a in psi.amplitudes],
        }
    click.echo(f"F0 = {payload['fidelity']:.6g}, p_fail = {payload['p_fail']:.6g}")
    _emit(out, _manifest("ground", cfg, p), extra=payload)


@_command("zenoreg_trajectory", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="30", show_default=True, help=T_END_HELP)
@click.option(
    "--model", type=click.Choice(["auto", "full", "eliminated"]), default="auto", show_default=True, help=MODEL_HELP
)
def trajectory(config, n, u_over_j, strict, hz, dt, t_end, model, out):
    """Null-measurement trajectory from the ground state (conditioned F)."""
    cfg, p, _ = _resolve(config, n, u_over_j, strict)
    t_end = _parse_t_end(t_end, p)
    series = null_trajectory(p, cfg.register_sites, t_end=t_end, model=model, dt=dt)
    name, tcol = _time_column(series.t, p, hz)
    manifest = _manifest("trajectory", cfg, p, t_end=t_end, dt=dt, model=model, hz=hz)
    _emit(
        out,
        manifest,
        [name, "fidelity", "norm_sq"],
        [tcol, series.fidelity, series.norm_sq],
        extra={"t_sat_over_u": series.t_sat, "diagnostics": series.diagnostics()},
    )
    click.echo(f"t_sat = {series.t_sat:.4g}/U, final F = {series.fidelity[-1]:.6g}")


@_command("zenoreg_ensemble", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="10", show_default=True, help=T_END_HELP)
@click.option("--traj", type=int, default=1000, show_default=True, help="trajectory count")
@click.option("--seed", type=int, default=1234, show_default=True, help="seed of the per-trajectory threshold streams")
@click.option(
    "--model", type=click.Choice(["auto", "full", "eliminated"]), default="full", show_default=True, help=MODEL_HELP
)
def ensemble(config, n, u_over_j, strict, hz, dt, t_end, traj, seed, model, out):
    """Jump Monte Carlo ensemble: survival and conditional fidelity."""
    cfg, p, _ = _resolve(config, n, u_over_j, strict)
    t_end = _parse_t_end(t_end, p)
    result = jump_ensemble(
        p, cfg.register_sites, n_traj=traj, seed=seed, t_end=t_end, model=model, dt=dt
    )
    name, tcol = _time_column(result.t, p, hz)
    edges, counts = result.jump_histogram()
    n_failed = int(np.isfinite(result.jump_times).sum())
    manifest = _manifest(
        "ensemble", cfg, p, seed=seed, t_end=t_end, dt=dt, model=result.model, n_traj=traj
    )
    _emit(
        out,
        manifest,
        [name, "survival", "cond_fidelity", "uncond_t_population"],
        [tcol, result.survival, result.cond_fidelity, result.uncond_t_population],
        extra={
            "jump_histogram": {"edges": edges.tolist(), "counts": counts.tolist()},
            "failures": n_failed,
            "failure_fraction": n_failed / traj,
            "diagnostics": result.diagnostics(),
        },
    )
    click.echo(f"failures: {n_failed}/{traj}")


@_command("zenoreg_nonselective", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="100", show_default=True, help=T_END_HELP)
def nonselective(config, n, u_over_j, strict, hz, dt, t_end, out):
    """Nonselective decay: master equation (step --dt) vs exact Bloch system vs closed form."""
    cfg, p, _ = _resolve(config, n, u_over_j, strict)
    n_reg = cfg.register_sites
    t_end = _parse_t_end(t_end, p)
    rme = reduced_master_equation(p, n_reg, t_end=t_end, dt=dt, max_samples=2001)
    bloch = bloch_evolution(p, n_reg, t_end=t_end, max_samples=2001)
    rho0 = rme.rho_tt[0]
    closed = nonselective_fidelity_closed(p, n_reg, rho0, rme.t)
    # the Bloch reduction starts from a pure target state; rescale to rho0
    bloch_tt = rho0 * bloch.rho_tt
    name, tcol = _time_column(rme.t, p, hz)
    manifest = _manifest("nonselective", cfg, p, t_end=t_end, dt=dt)
    _emit(
        out,
        manifest,
        [name, "rho_tt_master", "rho_tt_bloch", "rho_tt_closed", "trace_master"],
        [tcol, rme.rho_tt, bloch_tt, closed, rme.trace],
        extra={
            "zeno_rate_over_u": zeno_decay_rate(p, n_reg),
            "diagnostics": rme.diagnostics(),
            "bloch_diagnostics": bloch.diagnostics(),
        },
    )


@_command("zenoreg_efficiency", *RESOLVED, "hz")
@click.option("--t-end", default="100", show_default=True, help=T_END_HELP)
@click.option("--eta", multiple=True, type=float, help="detector efficiencies (repeatable)")
def efficiency(config, n, u_over_j, strict, hz, t_end, eta, out):
    """Finite detector efficiency sweep of the long-time fidelity."""
    cfg, p, _ = _resolve(config, n, u_over_j, strict)
    etas = list(eta) if eta else [1.0, 0.9, 0.8]
    n_reg = cfg.register_sites
    t_end = _parse_t_end(t_end, p)
    if t_end <= 0:
        raise ParameterError(f"t-end must be positive, got {t_end:g}")
    basis = build_basis(n_reg)
    rho0 = fidelity(perturbative_ground_state(basis, p))
    t = np.linspace(0.0, t_end, 1001)
    curves = [np.asarray(finite_efficiency_fidelity(e, p, n_reg, rho0, t)) for e in etas]
    name, tcol = _time_column(t, p, hz)
    header = [name, "rho_ns"] + [f"f_eta_{e:g}" for e in etas]
    columns = [tcol, np.asarray(nonselective_fidelity_closed(p, n_reg, rho0, t))] + curves
    manifest = _manifest("efficiency", cfg, p, t_end=t_end, etas=etas)
    _emit(out, manifest, header, columns, extra={"etas": etas, "rho_tt0": rho0})


@_command("zenoreg_free", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="0.5/J", show_default=True, help=T_END_HELP)
@click.option("--from-saturated", is_flag=True, help="start from a measurement-saturated state")
def free(config, n, u_over_j, strict, hz, dt, t_end, from_saturated, out):
    """Free lattice evolution: closed-form fidelity vs restricted numerics."""
    cfg, p, _ = _resolve(config, n, u_over_j, strict)
    n_reg = cfg.register_sites
    t_end = _parse_t_end(t_end, p)
    basis = build_basis(n_reg)
    # both starts lie in the bright sector, which the free evolution keeps;
    # F = |c_T|^2/||psi||^2 needs no normalised start
    sector = BrightSector(basis, p.delta_over_u, molecular=False)
    if from_saturated:
        psi0 = sector.project(null_trajectory(p, n_reg, t_end=30.0, model="eliminated").final_state)
    else:
        psi0 = np.zeros(sector.dim, dtype=np.complex128)
        psi0[0] = 1.0
    series = evolve(sector.restrict(build_free_hamiltonian(basis, p)), psi0, t_end=t_end, dt=dt, max_samples=2001)
    closed = free_evolution_fidelity(n_reg - 1, p.j_over_u, 1.0, p.delta_over_u, series.t)
    name, tcol = _time_column(series.t, p, hz)
    manifest = _manifest("free", cfg, p, t_end=t_end, dt=dt, from_saturated=from_saturated)
    _emit(
        out,
        manifest,
        [name, "f_closed", "f_numeric"],
        [tcol, np.asarray(closed), series.fidelity],
        extra={"diagnostics": series.diagnostics()},
    )


@_command("zenoreg_oracle", "config", "u-over-j", "strict", "hz", "dt")
@click.option("--atoms", type=int, default=5, show_default=True, help="N = M for the oracle")
@click.option(
    "--boundary", type=click.Choice(["open", "periodic"]), default="open", show_default=True, help="lattice boundary"
)
@click.option("--delta-over-u", type=float, default=None, help="override the trap scale")
@click.option("--t-end", default="1/J", show_default=True, help=T_END_HELP)
def oracle(config, u_over_j, strict, hz, dt, atoms, boundary, delta_over_u, t_end, out):
    """Exact Bose-Hubbard evolution vs truncations and the closed form."""
    cfg, p, _ = _resolve(config, None, u_over_j, strict)
    delta = delta_over_u if delta_over_u is not None else p.delta_over_u
    if not math.isfinite(delta):
        raise ParameterError(f"--delta-over-u must be finite, got {delta:g}")
    t_end = _parse_t_end(t_end, p)
    basis = fock_basis(atoms, atoms, boundary)
    exact = exact_evolve_fidelity(basis, p.j_over_u, 1.0, delta, t_end, dt=dt, max_samples=2001)
    name, tcol = _time_column(exact.t, p, hz)
    header, columns = [name, "f_exact"], [tcol, exact.fidelity]
    extra = {"basis_dim": basis.dimension, "diagnostics": {"f_exact": exact.diagnostics()}}
    if atoms % 2 == 1:
        docc = double_occupancy_evolve(atoms, p.j_over_u, 1.0, delta, t_end, dt=dt, max_samples=2001)
        header.append("f_docc")
        columns.append(docc.fidelity)
        extra["docc_basis_dim"] = atoms * (atoms - 1) + 1
        extra["diagnostics"]["f_docc"] = docc.diagnostics()
    header.append("f_closed")
    columns.append(np.asarray(free_evolution_fidelity(atoms - 1, p.j_over_u, 1.0, delta, exact.t)))
    manifest = _manifest(
        "oracle", cfg, p, atoms=atoms, boundary=boundary, delta_over_u=delta, t_end=t_end, dt=dt
    )
    _emit(out, manifest, header, columns, extra=extra)


@_command("zenoreg_plot")
@click.option("--in", "csv_path", required=True, type=click.Path(exists=True), help="input CSV")
@click.option("--x-label", default="", help="x axis label (defaults to first column name)")
@click.option("--y-label", default="", help="y axis label")
@click.option("--title", default="", help="plot title")
def plot(csv_path, x_label, y_label, title, out):
    """Render a CSV time series (first column = x) as an SVG line plot."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header) or len(header) < 2:
        raise SvgError("CSV must carry a header row and at least two columns")
    x = data[:, 0]
    series = [(name, x, data[:, i + 1]) for i, name in enumerate(header[1:])]
    svg_path = f"{out}.svg"
    emit_svg(svg_path, series, x_label=x_label or header[0], y_label=y_label, title=title)
    _emit(out, RunManifest(subcommand="plot", parameters={"input": str(csv_path)}, outputs=[svg_path]))


if __name__ == "__main__":
    main()
