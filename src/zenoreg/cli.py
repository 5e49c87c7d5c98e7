"""Command-line interface.

Times are accepted and reported in units of 1/U (``--hz`` switches the
time column to seconds using the derived U).  ``--t-end`` accepts either a
plain number (units of 1/U) or ``<number>/J`` for multiples of the
tunneling time.  Parameter precedence: built-in defaults < ``--config``
file < command-line flags.  Every run writes a JSON sidecar next to its
data.  Its manifest holds the config and derived parameters and every
option the subcommand took, as given (``t_end`` in 1/U), but ``--out`` and
the four that ``_resolve`` reads; a value the run resolved from an option
(the ensemble's model, the oracle's trap scale, the swept efficiencies)
goes in the sidecar body.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

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
from .params import (
    DerivedParams,
    ParameterError,
    PhysicalConfig,
    RegimeReport,
    derive_params,
    reference_config,
    read_config,
    regime_check,
)
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


@dataclass
class _Run:
    """One CLI run as its subcommand sees it.

    ``cfg``, ``p`` and ``report`` are what ``_resolve`` made of the
    RESOLVED options (None for a subcommand without them); ``options``
    holds the subcommand's other options except ``--out``, under their
    parameter names and as given (``t_end`` parsed to 1/U).
    """

    subcommand: str
    out: str
    options: dict
    cfg: PhysicalConfig | None = None
    p: DerivedParams | None = None
    report: RegimeReport | None = None

    def emit(self, t=None, columns=None, extra=None, outputs=None):
        """Write ``<out>.csv`` when there is a time grid ``t`` (its column
        named and scaled per ``--hz``, then ``columns``, (name, values) pairs),
        then the JSON sidecar ``<out>.json``, ``extra`` plus the manifest,
        and name what was written.

        The manifest lists the CSV and the sidecar, or else the ``outputs``
        the subcommand names itself (the plot's SVG and sidecar), or else the
        sidecar alone.  Its parameters are the options, with ``seed`` lifted
        to the top level, plus the config and the derived parameters.
        """
        json_path = f"{self.out}.json"
        if t is not None:
            outputs = [f"{self.out}.csv", json_path]
            name, t = ("t_s", t / (2.0 * np.pi * self.p.u_hz)) if self.options["hz"] else ("t_over_u", t)
            names, values = zip(*columns)
            write_csv(outputs[0], [name, *names], [t, *values])
        parameters = dict(self.options)
        seed = parameters.pop("seed", None)
        if self.cfg is not None:
            parameters["config"] = {"atoms": self.cfg.atoms, "register_sites": self.cfg.register_sites}
            parameters["derived"] = self.p.as_dict()
        manifest = RunManifest(self.subcommand, parameters, seed, outputs or [json_path])
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
    output base path, defaulting to ``out``.  Its run is resolved here, once:
    ``_resolve`` reads the RESOLVED options when it takes them, and
    ``--t-end`` is parsed to 1/U.  The function gets the ``_Run`` record and
    its other options but ``--hz``, which ``_Run.emit`` reads.
    """

    def register(f):
        @functools.wraps(f)
        def command(out, **options):
            run = _Run(f.__name__, out, options)
            if "config" in options:
                resolved = [options.pop(name.replace("-", "_"), None) for name in RESOLVED]
                run.cfg, run.p, run.report = _resolve(*resolved)
            if "t_end" in options:
                options["t_end"] = _parse_t_end(options["t_end"], run.p)
            f(run, **{key: value for key, value in options.items() if key != "hz"})

        cmd = main.command()(command)
        cmd.params[:0] = [click.Option([f"--{name}"], **SHARED_OPTIONS[name]) for name in shared]
        cmd.params.append(click.Option(["--out"], default=out, show_default=True, help="output base path"))
        return cmd

    return register


@_command("zenoreg_params", *RESOLVED)
def params(run):
    """Derived model parameters and regime report as JSON."""
    p, report = run.p, run.report
    payload = p.as_dict() | {"strength": report.strength, "p_h": report.p_h, "regime": report.as_dict()}
    del payload["e_r_hz"]  # the manifest's derived parameters carry it
    for key in ("u_hz", "j_over_u", "kappa_over_u", "vc_over_u", "s_a", "strength", "p_h"):
        click.echo(f"{key} = {payload[key]:.6g}")
    run.emit(extra=payload)


@_command("zenoreg_ground", *RESOLVED)
@click.option("--dump-state", is_flag=True, help="include the state amplitudes")
def ground(run, dump_state):
    """Perturbative ground state: fidelity, failure probability, energy."""
    n_reg, p = run.cfg.register_sites, run.p
    basis = build_basis(n_reg)
    psi = perturbative_ground_state(basis, p)
    stats = preparation_stats(p, n_reg)
    payload = {
        "fidelity": fidelity(psi),
        "p_fail": stats.p_fail,
        "t_prep_over_u": stats.t_prep,
        "energy_estimate_over_u": perturbative_ground_energy(n_reg - 1, p.j_over_u, 1.0),
        "dimension": basis.dimension,
    }
    if dump_state:
        payload["state"] = {"n": basis.n, "amplitudes": [[a.real, a.imag] for a in psi.amplitudes]}
    click.echo(f"F0 = {payload['fidelity']:.6g}, p_fail = {payload['p_fail']:.6g}")
    run.emit(extra=payload)


@_command("zenoreg_trajectory", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="30", show_default=True, help=T_END_HELP)
@click.option(
    "--model", type=click.Choice(["auto", "full", "eliminated"]), default="auto", show_default=True, help=MODEL_HELP
)
def trajectory(run, dt, t_end, model):
    """Null-measurement trajectory from the ground state (conditioned F)."""
    series = null_trajectory(run.p, run.cfg.register_sites, t_end=t_end, model=model, dt=dt)
    extra = {"t_sat_over_u": series.t_sat, "diagnostics": series.diagnostics()}
    run.emit(series.t, [("fidelity", series.fidelity), ("norm_sq", series.norm_sq)], extra)
    click.echo(f"t_sat = {series.t_sat:.4g}/U, final F = {series.fidelity[-1]:.6g}")


@_command("zenoreg_ensemble", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="10", show_default=True, help=T_END_HELP)
@click.option("--traj", "n_traj", type=int, default=1000, show_default=True, help="trajectory count")
@click.option("--seed", type=int, default=1234, show_default=True, help="seed of the per-trajectory threshold streams")
@click.option(
    "--model", type=click.Choice(["auto", "full", "eliminated"]), default="full", show_default=True, help=MODEL_HELP
)
def ensemble(run, dt, t_end, n_traj, seed, model):
    """Jump Monte Carlo ensemble: survival and conditional fidelity."""
    result = jump_ensemble(run.p, run.cfg.register_sites, n_traj=n_traj, seed=seed, t_end=t_end, model=model, dt=dt)
    edges, counts = result.jump_histogram()
    n_failed = int(np.isfinite(result.jump_times).sum())
    run.emit(
        result.t,
        [
            ("survival", result.survival),
            ("cond_fidelity", result.cond_fidelity),
            ("uncond_t_population", result.uncond_t_population),
        ],
        extra={
            "model": result.model,
            "jump_histogram": {"edges": edges.tolist(), "counts": counts.tolist()},
            "failures": n_failed,
            "failure_fraction": n_failed / n_traj,
            "diagnostics": result.diagnostics(),
        },
    )
    click.echo(f"failures: {n_failed}/{n_traj}")


@_command("zenoreg_nonselective", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="100", show_default=True, help=T_END_HELP)
def nonselective(run, dt, t_end):
    """Nonselective decay: master equation (step --dt) vs exact Bloch system vs closed form."""
    n_reg, p = run.cfg.register_sites, run.p
    rme = reduced_master_equation(p, n_reg, t_end=t_end, dt=dt, max_samples=2001)
    bloch = bloch_evolution(p, n_reg, t_end=t_end, max_samples=2001)
    rho0 = rme.rho_tt[0]
    run.emit(
        rme.t,
        [
            ("rho_tt_master", rme.rho_tt),
            # the Bloch reduction starts from a pure target state; rescale to rho0
            ("rho_tt_bloch", rho0 * bloch.rho_tt),
            ("rho_tt_closed", nonselective_fidelity_closed(p, n_reg, rho0, rme.t)),
            ("trace_master", rme.trace),
        ],
        extra={
            "zeno_rate_over_u": zeno_decay_rate(p, n_reg),
            "diagnostics": rme.diagnostics(),
            "bloch_diagnostics": bloch.diagnostics(),
        },
    )


@_command("zenoreg_efficiency", *RESOLVED, "hz")
@click.option("--t-end", default="100", show_default=True, help=T_END_HELP)
@click.option("--eta", "etas", multiple=True, type=float, help="detector efficiencies (repeatable)")
def efficiency(run, t_end, etas):
    """Finite detector efficiency sweep of the long-time fidelity."""
    n_reg, p = run.cfg.register_sites, run.p
    etas = list(etas) if etas else [1.0, 0.9, 0.8]
    if t_end <= 0:
        raise ParameterError(f"t-end must be positive, got {t_end:g}")
    rho0 = fidelity(perturbative_ground_state(build_basis(n_reg), p))
    t = np.linspace(0.0, t_end, 1001)
    columns = [("rho_ns", np.asarray(nonselective_fidelity_closed(p, n_reg, rho0, t)))]
    # each header holds the shortest digits that tell its value from any other double
    for e in etas:
        name = f"f_eta_{np.format_float_positional(e, trim='-')}"
        columns.append((name, np.asarray(finite_efficiency_fidelity(e, p, n_reg, rho0, t))))
    run.emit(t, columns, {"etas": etas, "rho_tt0": rho0})


@_command("zenoreg_free", *RESOLVED, "hz", "dt")
@click.option("--t-end", default="0.5/J", show_default=True, help=T_END_HELP)
@click.option("--from-saturated", is_flag=True, help="start from a measurement-saturated state")
def free(run, dt, t_end, from_saturated):
    """Free lattice evolution: closed-form fidelity vs restricted numerics."""
    n_reg, p = run.cfg.register_sites, run.p
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
    columns = [("f_closed", np.asarray(closed)), ("f_numeric", series.fidelity)]
    run.emit(series.t, columns, {"diagnostics": series.diagnostics()})


@_command("zenoreg_oracle", "config", "u-over-j", "strict", "hz", "dt")
@click.option("--atoms", type=int, default=5, show_default=True, help="N = M for the oracle")
@click.option(
    "--boundary", type=click.Choice(["open", "periodic"]), default="open", show_default=True, help="lattice boundary"
)
@click.option("--delta-over-u", type=float, default=None, help="override the trap scale")
@click.option("--t-end", default="1/J", show_default=True, help=T_END_HELP)
def oracle(run, dt, atoms, boundary, delta_over_u, t_end):
    """Exact Bose-Hubbard evolution vs truncations and the closed form."""
    j_over_u = run.p.j_over_u
    delta = delta_over_u if delta_over_u is not None else run.p.delta_over_u
    if not math.isfinite(delta):
        raise ParameterError(f"--delta-over-u must be finite, got {delta:g}")
    basis = fock_basis(atoms, atoms, boundary)
    exact = exact_evolve_fidelity(basis, j_over_u, 1.0, delta, t_end, dt=dt, max_samples=2001)
    columns = [("f_exact", exact.fidelity)]
    extra = {"delta_over_u": delta, "basis_dim": basis.dimension, "diagnostics": {"f_exact": exact.diagnostics()}}
    if atoms % 2 == 1:
        docc = double_occupancy_evolve(atoms, j_over_u, 1.0, delta, t_end, dt=dt, max_samples=2001)
        columns.append(("f_docc", docc.fidelity))
        extra["docc_basis_dim"] = atoms * (atoms - 1) + 1
        extra["diagnostics"]["f_docc"] = docc.diagnostics()
    columns.append(("f_closed", np.asarray(free_evolution_fidelity(atoms - 1, j_over_u, 1.0, delta, exact.t))))
    run.emit(exact.t, columns, extra)


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header names and data rows of a CSV to plot; blank lines are skipped.
    One with fewer than two columns, no data rows or a row of another length
    than the header is refused, and numpy names a value that is not a
    number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [(line, text.strip().split(",")) for line, text in enumerate(fh, start=2) if text.strip()]
    if len(header) < 2:
        raise SvgError("CSV must carry a header row and at least two columns")
    if not rows:
        raise SvgError(f"CSV has a header row of {len(header)} names but no data rows")
    for line, values in rows:
        if len(values) != len(header):
            count = f"{len(values)} value" + "s" * (len(values) != 1)
            raise SvgError(f"CSV line {line} has {count}, but the header names {len(header)} columns")
    return header, np.array([values for _, values in rows], dtype=np.float64)


@_command("zenoreg_plot")
@click.option("--in", "input", required=True, type=click.Path(exists=True), help="input CSV")
@click.option("--x-label", default="", help="x axis label (defaults to first column name)")
@click.option("--y-label", default="", help="y axis label")
@click.option("--title", default="", help="plot title")
def plot(run, input, x_label, y_label, title):
    """Render a CSV time series (first column = x) as an SVG line plot."""
    header, data = _read_csv(input)
    x = data[:, 0]
    series = [(name, x, data[:, i + 1]) for i, name in enumerate(header[1:])]
    svg_path = f"{run.out}.svg"
    emit_svg(svg_path, series, x_label=x_label or header[0], y_label=y_label, title=title)
    run.emit(outputs=[svg_path, f"{run.out}.json"])


if __name__ == "__main__":
    main()
