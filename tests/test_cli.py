import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import zenoreg
from conftest import measurement_test_params
from zenoreg.cli import main
from zenoreg.dynamics import _max_step, evolve, jump_ensemble, null_trajectory
from zenoreg.oracle import double_occupancy_evolve
from zenoreg.params import derive_params, reference_config
from zenoreg.register import build_basis, build_free_hamiltonian
from zenoreg.runio import format_number
from zenoreg.svg import SvgError, emit_svg


@pytest.fixture()
def runner():
    return CliRunner()


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_import_leaves_out_unused_scipy_modules():
    # scipy.linalg, scipy.sparse.linalg and scipy.special are imported only
    # where used, so the CLI's import does not pay their memory
    src = str(Path(zenoreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, zenoreg.cli; print(sorted(m for m in ('scipy.linalg', 'scipy.sparse', 'scipy.sparse.linalg', 'scipy.special') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_spectral_runs_leave_out_scipy_sparse(tmp_path):
    # the ensemble workload's two library calls at n = 5 and the CLI oracle
    # run spectral, which needs no CSR matrix, so scipy.sparse stays unloaded
    src = str(Path(zenoreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import json, sys
import zenoreg
from zenoreg import DerivedParams
from zenoreg.cli import main
p = {measurement_test_params()!r}
ens = zenoreg.jump_ensemble(p, 5, n_traj=64, seed=0, t_end=5.0, model="full", max_samples=11)
rme = zenoreg.reduced_master_equation(p, 5, t_end=5.0, max_samples=11)
main(["oracle", "--atoms", "3", "--out", {str(tmp_path / "oracle")!r}], standalone_mode=False)
with open({str(tmp_path / "oracle.json")!r}, encoding="utf-8") as fh:
    oracle = json.load(fh)["diagnostics"]
print(ens.backend, rme.backend, oracle["f_exact"]["backend"], oracle["f_docc"]["backend"])
print("scipy.sparse" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    backends, loaded = done.stdout.splitlines()[-2:]  # after the CLI's "wrote ..." line
    assert backends.split() == ["eig", "eig", "eigh", "eigh"]
    assert loaded == "False"


def test_nonselective_leaves_out_scipy_linalg_and_sparse(tmp_path):
    # the master equation (dim 121) and the Bloch system both run spectral
    # through numpy, so neither scipy.linalg nor scipy.sparse is loaded
    src = str(Path(zenoreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = str(tmp_path / "ns")
    code = f"""
import sys
from zenoreg.cli import main
main(["nonselective", "--n", "21", "--t-end", "20", "--out", {out!r}], standalone_mode=False)
print(sorted(m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules))
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    sidecar = read_json(tmp_path / "ns.json")
    assert sidecar["diagnostics"]["backend"] == "eig"
    assert sidecar["bloch_diagnostics"]["backend"] == "eig"
    assert sidecar["bloch_diagnostics"]["cond_v"] >= 1.0


def test_trajectory_leaves_out_numpy_ma(tmp_path):
    # the secular solver's distinct-pole check sorts the poles; np.unique
    # would import numpy.ma, 35 ms on the first eliminated-model run
    src = str(Path(zenoreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = str(tmp_path / "tr")
    code = f"""
import sys
from zenoreg.cli import main
main(["trajectory", "--out", {out!r}], standalone_mode=False)
print("numpy.ma" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert read_json(tmp_path / "tr.json")["diagnostics"]["backend"] == "eig"


def test_trajectory_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the spectral run's dense work at dim 101 is serial, so OpenBLAS's
    # thread count changes no byte of the CSV or the sidecar
    src = str(Path(zenoreg.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / threads
        run_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        cmd = [sys.executable, "-m", "zenoreg.cli", "trajectory", "--n", "101"]
        done = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append([(run_dir / f"zenoreg_trajectory.{ext}").read_bytes() for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["diagnostics"]["backend"] == "eig"


DT_HELP = "RK4 step (units of 1/U); pins RK4, else an exact backend may run"
MODELS = "choice[auto|full|eliminated]"
T_END_HELP = "end time (1/U, or '<x>/J')"
MODEL_HELP = "full (with molecular states) or eliminated; auto: eliminated above n = 50, else full"

# per subcommand, in --help order: option, type, default, shown default, help
OPTION_TABLE = {
    "params": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--out", "text", "zenoreg_params", True, "output base path"),
    ],
    "ground": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--dump-state", "boolean", False, None, "include the state amplitudes"),
        ("--out", "text", "zenoreg_ground", True, "output base path"),
    ],
    "trajectory": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--hz", "boolean", False, None, "report times in seconds instead of 1/U"),
        ("--dt", "float", None, None, DT_HELP),
        ("--t-end", "text", "30", True, T_END_HELP),
        ("--model", MODELS, "auto", True, MODEL_HELP),
        ("--out", "text", "zenoreg_trajectory", True, "output base path"),
    ],
    "ensemble": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--hz", "boolean", False, None, "report times in seconds instead of 1/U"),
        ("--dt", "float", None, None, DT_HELP),
        ("--t-end", "text", "10", True, T_END_HELP),
        ("--traj", "integer", 1000, True, "trajectory count"),
        ("--seed", "integer", 1234, True, "seed of the per-trajectory threshold streams"),
        ("--model", MODELS, "full", True, MODEL_HELP),
        ("--out", "text", "zenoreg_ensemble", True, "output base path"),
    ],
    "nonselective": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--hz", "boolean", False, None, "report times in seconds instead of 1/U"),
        ("--dt", "float", None, None, DT_HELP),
        ("--t-end", "text", "100", True, T_END_HELP),
        ("--out", "text", "zenoreg_nonselective", True, "output base path"),
    ],
    "efficiency": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--hz", "boolean", False, None, "report times in seconds instead of 1/U"),
        ("--t-end", "text", "100", True, T_END_HELP),
        ("--eta", "float...", None, None, "detector efficiencies (repeatable)"),
        ("--out", "text", "zenoreg_efficiency", True, "output base path"),
    ],
    "free": [
        ("--config", "path", None, None, "key=value config file"),
        ("--n", "integer", None, None, "register size (odd)"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--hz", "boolean", False, None, "report times in seconds instead of 1/U"),
        ("--dt", "float", None, None, DT_HELP),
        ("--t-end", "text", "0.5/J", True, T_END_HELP),
        ("--from-saturated", "boolean", False, None, "start from a measurement-saturated state"),
        ("--out", "text", "zenoreg_free", True, "output base path"),
    ],
    "oracle": [
        ("--config", "path", None, None, "key=value config file"),
        ("--u-over-j", "float", None, None, "override the U/J ratio"),
        ("--strict", "boolean", False, None, "fail on regime violations"),
        ("--hz", "boolean", False, None, "report times in seconds instead of 1/U"),
        ("--dt", "float", None, None, DT_HELP),
        ("--atoms", "integer", 5, True, "N = M for the oracle"),
        ("--boundary", "choice[open|periodic]", "open", True, "lattice boundary"),
        ("--delta-over-u", "float", None, None, "override the trap scale"),
        ("--t-end", "text", "1/J", True, T_END_HELP),
        ("--out", "text", "zenoreg_oracle", True, "output base path"),
    ],
    "plot": [
        ("--in", "path[exists]", None, None, "input CSV"),
        ("--x-label", "text", "", None, "x axis label (defaults to first column name)"),
        ("--y-label", "text", "", None, "y axis label"),
        ("--title", "text", "", None, "plot title"),
        ("--out", "text", "zenoreg_plot", True, "output base path"),
    ],
}


def option_row(param):
    info = param.to_info_dict()
    kind = info["type"]["name"]
    if "choices" in info["type"]:
        kind += "[" + "|".join(info["type"]["choices"]) + "]"
    if info["type"].get("exists"):
        kind += "[exists]"
    if info["multiple"]:
        kind += "..."
    return (info["opts"][0], kind, info["default"], param.show_default, info["help"])


@pytest.mark.parametrize("command", OPTION_TABLE)
def test_option_table(command):
    assert set(main.commands) == set(OPTION_TABLE)
    assert [option_row(param) for param in main.commands[command].params] == OPTION_TABLE[command]


class TestParamsCommand:
    def test_reference_report(self, runner, tmp_path):
        out = tmp_path / "report"
        result = runner.invoke(main, ["params", "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = read_json(f"{out}.json")
        assert payload["kappa_over_u"] == pytest.approx(0.132, abs=2e-3)
        assert payload["vc_over_u"] == pytest.approx(15.5, rel=0.02)
        assert payload["strength"] == pytest.approx(1.5, rel=0.10)
        assert payload["p_h"] < 1e-10
        for key in ("u_hz", "j_over_u", "delta_over_u", "omega_m_over_u", "gamma_m_over_u", "s_a"):
            assert key in payload
        assert payload["manifest"]["subcommand"] == "params"
        assert payload["manifest"]["provenance"].startswith("zenoreg-")

    def test_config_file_precedence(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("register_sites = 11\natoms = 21\n")
        out = tmp_path / "r"
        result = runner.invoke(main, ["params", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = read_json(f"{out}.json")
        assert payload["manifest"]["parameters"]["config"]["register_sites"] == 11

    @pytest.mark.parametrize(
        "line, args, nulls",
        [
            # a register spanning the cloud has no hole probability
            ("atoms = 551", ["--n", "551"], {"p_h"}),
            # with the trap off, delta = 0 and the barrier is infinite
            ("trap_frequency_hz = 0", [], {"p_h", "barrier"}),
        ],
    )
    def test_sidecar_is_strict_json(self, runner, tmp_path, line, args, nulls):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "r"
        result = runner.invoke(main, ["params", "--config", str(cfg), "--out", str(out), *args])
        assert result.exit_code == 0, result.output
        assert "p_h = nan" in result.output

        def refuse(name):
            raise ValueError(f"{name} is no JSON")

        payload = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"), parse_constant=refuse)
        assert payload["p_h"] is None and payload["regime"]["p_h"] is None
        assert {key for key, value in payload["regime"].items() if value is None} == nulls

    def test_unknown_key_exit_code(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lattice_depth = 22\n")
        result = runner.invoke(main, ["params", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "lattice_depth" in result.output

    def test_missing_config_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, ["params", "--config", str(tmp_path / "nope.cfg")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("line", ["wavelength_m = nan", "trap_frequency_hz = inf"])
    def test_nonfinite_config_exit_code(self, runner, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, ["params", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert f"{line.split()[0]} must be finite" in result.output
        assert not (tmp_path / "r.json").exists()

    def test_efficiency_key_rejected(self, runner, tmp_path):
        # the detector efficiency is the --eta option of `zenoreg efficiency`
        cfg = tmp_path / "old.cfg"
        cfg.write_text("efficiency = 1.0\n")
        result = runner.invoke(main, ["params", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert "'efficiency'" in result.output

    def test_strict_regime_violation(self, runner, tmp_path):
        # a shallow lattice boosts J: measurement too weak for the register
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("depth_parallel_er = 10\n")
        ok = runner.invoke(main, ["params", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert ok.exit_code == 0
        strict = runner.invoke(main, ["params", "--config", str(cfg), "--strict"])
        assert strict.exit_code == 2
        assert "regime" in strict.output


class TestTrajectoryCommand:
    def test_writes_series_and_manifest(self, runner, tmp_path):
        out = tmp_path / "traj"
        result = runner.invoke(
            main,
            ["trajectory", "--n", "5", "--t-end", "2", "--model", "eliminated", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        header = open(f"{out}.csv").readline().strip().split(",")
        assert header == ["t_over_u", "fidelity", "norm_sq"]
        sidecar = read_json(f"{out}.json")
        assert sidecar["t_sat_over_u"] is not None
        assert sidecar["manifest"]["parameters"]["model"] == "eliminated"

    def test_rerun_byte_identical(self, runner, tmp_path):
        args = ["trajectory", "--n", "5", "--t-end", "1", "--model", "eliminated"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert open(f"{out1}.csv", "rb").read() == open(f"{out2}.csv", "rb").read()
        j1 = read_json(f"{out1}.json")
        j2 = read_json(f"{out2}.json")
        j1["manifest"].pop("outputs")
        j2["manifest"].pop("outputs")
        assert j1 == j2

    def test_hz_column(self, runner, tmp_path):
        out = tmp_path / "hz"
        result = runner.invoke(
            main,
            ["trajectory", "--n", "5", "--t-end", "1", "--model", "eliminated", "--hz", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert open(f"{out}.csv").readline().startswith("t_s,")


class TestIntegrationErrorExitCode:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["trajectory", "--n", "5", "--dt", "1"], "require dt <="),
            (["trajectory", "--n", "5", "--t-end", "0"], "t_end and dt must be positive"),
            (["nonselective", "--n", "5", "--dt", "1"], "require dt <="),
            (["trajectory", "--n", "5", "--t-end", "inf"], "t-end must be finite"),
            (["trajectory", "--n", "5", "--dt", "nan"], "t_end and dt must be positive"),
            (["nonselective", "--n", "5", "--t-end", "nan"], "t-end must be finite"),
            (["nonselective", "--n", "5", "--dt", "inf"], "t_end and dt must be positive"),
            (["oracle", "--atoms", "3", "--t-end", "inf/J"], "t-end must be finite"),
            (["oracle", "--atoms", "3", "--dt", "nan"], "t_end and dt must be positive"),
            (["free", "--n", "5", "--t-end", "inf"], "t-end must be finite"),
            (["free", "--n", "5", "--dt", "nan"], "t_end and dt must be positive"),
            (["efficiency", "--n", "5", "--t-end", "nan"], "t-end must be finite"),
            (["efficiency", "--n", "5", "--t-end", "-3"], "t-end must be positive"),
            (["params", "--u-over-j", "0"], "--u-over-j must be finite and > 0"),
            (["free", "--n", "5", "--u-over-j", "0"], "--u-over-j must be finite and > 0"),
            (["params", "--u-over-j", "nan"], "--u-over-j must be finite and > 0"),
            (["params", "--u-over-j", "-500"], "--u-over-j must be finite and > 0"),
            (["oracle", "--atoms", "3", "--delta-over-u", "nan"], "--delta-over-u must be finite"),
            (["oracle", "--atoms", "3", "--delta-over-u", "inf"], "--delta-over-u must be finite"),
            (["free", "--n", "5", "--u-over-j", "1e-300"], "--u-over-j = 1e-300 is too small"),
            (["trajectory", "--dt", "1e-3", "--t-end", "1e9"], "RK4 steps"),
            (["ensemble", "--dt", "1e-5", "--t-end", "1e9"], "RK4 steps"),
            (["nonselective", "--t-end", "1e9"], "RK4 steps"),
            (["trajectory", "--n", "5", "--t-end", "1e12"], "conditioned state vanished"),
            (["ensemble", "--n", "5", "--seed", "-1", "--t-end", "1"], "seed must be >= 0, got -1"),
            (["ensemble", "--n", "5", "--traj", "0", "--t-end", "1"], "n_traj must be >= 1, got 0"),
            (["trajectory", "--n", "5", "--t-end", "1e308"], "t_end / dt overflows (t_end = 1e+308, dt ="),
            (["free", "--n", "5", "--t-end", "1e308"], "t_end / dt overflows (t_end = 1e+308, dt ="),
            (["nonselective", "--n", "5", "--t-end", "1e308"], "t_end / dt overflows (t_end = 1e+308, dt ="),
            (["ensemble", "--n", "5", "--t-end", "1e308"], "t_end / dt overflows (t_end = 1e+308, dt ="),
            (["oracle", "--atoms", "3", "--t-end", "1e308"], "t_end / dt overflows (t_end = 1e+308, dt ="),
            (["free", "--n", "5", "--t-end", "1e300"], "is too long for exact propagation"),
            (["oracle", "--atoms", "3", "--t-end", "1e300"], "is too long for exact propagation"),
        ],
    )
    def test_refused_step_exits_2(self, runner, tmp_path, args, message):
        result = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.parametrize(
        "args", [["trajectory", "--n", "5"], ["ensemble", "--n", "5"], ["nonselective", "--n", "5"], ["free", "--n", "5"], ["oracle", "--atoms", "3"]]
    )
    def test_unresolvable_t_end_exits_2(self, runner, tmp_path, args):
        # 1 / t_end overflows: the subnormal t_end is refused by value
        # before anything is written, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args + ["--t-end", "1e-310", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "t_end = 1e-310 is too small to resolve" in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["trajectory", "--n", "7", "--model", "eliminated"],
            ["trajectory", "--n", "11", "--model", "eliminated"],
            ["trajectory", "--n", "51", "--model", "eliminated"],
            ["trajectory", "--n", "7", "--model", "full"],
            ["nonselective", "--n", "7"],
            ["nonselective", "--n", "11"],
            ["nonselective", "--n", "21"],
            ["nonselective", "--n", "51"],
            ["ensemble", "--n", "5", "--traj", "16"],
            ["free", "--n", "5"],
            ["oracle", "--atoms", "3"],
        ],
    )
    def test_refusal_names_an_accepted_bound(self, runner, tmp_path, args):
        # the bound is printed to round-trip, so rerunning at it is accepted
        args = args + ["--t-end", "0.01", "--out", str(tmp_path / "o")]
        refused = runner.invoke(main, args + ["--dt", "1"])
        assert refused.exit_code == 2, refused.output
        bound = refused.output.strip().rpartition("require dt <= ")[2]
        result = runner.invoke(main, args + ["--dt", bound])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("delta", ["1e308", "-1e308"])
    def test_overflowing_trap_scale_exits_2(self, runner, tmp_path, delta):
        # the trap energy delta j^2 overflows: refused by name, with no
        # numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["oracle", "--atoms", "3", "--delta-over-u", delta, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"is not finite (delta = {float(delta):g}" in result.output


class TestBadInputNamesTheValue:
    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["params", "--n", "4"], None, "register_sites must be odd, got 4"),
            (["params", "--n", "601"], None, "register_sites must not exceed atoms (atoms = 551, register_sites = 601)"),
            (["ground", "--n", "1"], None, "register size n must be odd and >= 3, got 1"),
            (["efficiency", "--n", "5", "--eta", "1.5"], None, "eta must lie in [0, 1], got 1.5"),
            (["oracle", "--atoms", "0"], None, "need at least one atom and one site (atoms = 0, sites = 0)"),
            (["params"], "linewidth_hz = -1", "linewidth_hz must be > 0, got -1.0"),
            (["params"], "atoms = 5.5", "line 1: config key 'atoms': expected int, got '5.5'"),
            (["params"], "wavelength_m = abc", "line 1: config key 'wavelength_m': expected float, got 'abc'"),
            (["trajectory", "--t-end", "abc"], None, "cannot parse t-end value 'abc'"),
        ],
    )
    def test_exits_2_with_the_value(self, runner, tmp_path, args, config, message):
        if config is not None:
            (tmp_path / "bad.cfg").write_text(config + "\n")
            args = args + ["--config", str(tmp_path / "bad.cfg")]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output


# per subcommand: small-size arguments, with --hz where offered, and the
# manifest parameters they must give: every option as given (t_end in 1/U)
# but --out, --seed (top level) and the four that _resolve reads
MANIFEST_RUNS = {
    "params": (["--n", "5"], {}),
    "ground": (["--n", "5", "--dump-state"], {"dump_state": True}),
    "trajectory": (
        ["--n", "5", "--t-end", "1", "--hz"],
        {"hz": True, "dt": None, "t_end": 1.0, "model": "auto"},
    ),
    "ensemble": (
        ["--n", "5", "--traj", "16", "--seed", "3", "--t-end", "0.5", "--model", "auto", "--hz"],
        {"hz": True, "dt": None, "t_end": 0.5, "n_traj": 16, "model": "auto"},
    ),
    "nonselective": (["--n", "5", "--t-end", "2", "--hz"], {"hz": True, "dt": None, "t_end": 2.0}),
    "efficiency": (["--n", "5", "--t-end", "2", "--hz"], {"hz": True, "t_end": 2.0, "etas": []}),
    "free": (
        ["--n", "5", "--u-over-j", "4", "--t-end", "0.5/J", "--dt", "0.01", "--hz", "--from-saturated"],
        {"hz": True, "dt": 0.01, "t_end": 2.0, "from_saturated": True},
    ),
    "oracle": (
        ["--atoms", "3", "--t-end", "0.5", "--boundary", "periodic", "--hz"],
        {"hz": True, "dt": None, "atoms": 3, "boundary": "periodic", "delta_over_u": None, "t_end": 0.5},
    ),
    "plot": (["--title", "F"], {"x_label": "", "y_label": "", "title": "F"}),
}


class TestManifestRule:
    @pytest.mark.parametrize("command", MANIFEST_RUNS)
    def test_manifest_holds_every_option_as_given(self, runner, tmp_path, command):
        args, expected = MANIFEST_RUNS[command]
        if command == "plot":
            csv = tmp_path / "data.csv"
            csv.write_text("t,a\n0,1\n1,2\n")
            args = args + ["--in", str(csv)]
            expected = expected | {"input": str(csv)}
        out = tmp_path / "run"
        result = runner.invoke(main, [command, *args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = read_json(f"{out}.json")["manifest"]
        # the table follows the rule: every option but these
        names = {param.name for param in main.commands[command].params}
        assert set(expected) == names - {"out", "seed", "config", "n", "u_over_j", "strict"}
        parameters = manifest["parameters"]
        if "config" in names:
            config, derived = parameters.pop("config"), parameters.pop("derived")
            assert set(config) == {"atoms", "register_sites"}
            assert derived["j_over_u"] > 0
        assert parameters == expected
        assert manifest["seed"] == (3 if command == "ensemble" else None)
        if expected.get("hz"):
            assert open(f"{out}.csv").readline().startswith("t_s,")

    def test_resolved_values_go_in_the_body(self, runner, tmp_path):
        p = derive_params(reference_config())
        runs = {
            "ensemble": (["--n", "5", "--traj", "16", "--t-end", "0.5", "--model", "auto"], "model", "full"),
            "oracle": (["--atoms", "3", "--t-end", "0.5"], "delta_over_u", p.delta_over_u),
            "efficiency": (["--n", "5", "--t-end", "2"], "etas", [1.0, 0.9, 0.8]),
        }
        for command, (args, key, value) in runs.items():
            out = tmp_path / command
            assert runner.invoke(main, [command, *args, "--out", str(out)]).exit_code == 0
            assert read_json(f"{out}.json")[key] == value


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["params"],
            ["ground", "--n", "5"],
            ["trajectory", "--n", "5", "--t-end", "0.1", "--model", "eliminated"],
            ["ensemble", "--n", "5", "--traj", "10", "--t-end", "0.01"],
            ["nonselective", "--n", "5", "--t-end", "20"],
            ["efficiency", "--n", "5", "--t-end", "10"],
            ["free", "--n", "5", "--t-end", "0.1"],
            ["oracle", "--atoms", "3", "--t-end", "0.01/J"],
            ["plot", "--in"],
        ],
        ids=lambda args: args[0],
    )
    def test_exits_2_naming_path(self, runner, tmp_path, args):
        if args[0] == "plot":
            csv = tmp_path / "data.csv"
            csv.write_text("t,a\n0,1\n1,2\n")
            args = args + [str(csv)]
        out = tmp_path / "missing" / "x"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert str(out) in result.output


class TestDefaultStepAboveTheBound:
    def test_unpinned_trajectory_runs_exact(self, runner, tmp_path):
        # the eliminated model's reference step 0.01/(U+|V_c|) exceeds the
        # RK4 bound here; no --dt was given, so nothing is refused and the
        # run is exact
        out = tmp_path / "traj"
        result = runner.invoke(main, ["trajectory", "--n", "201", "--u-over-j", "3", "--t-end", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert read_json(f"{out}.json")["diagnostics"]["backend"] == "eig"


class TestEnsembleCommand:
    def test_histogram_sidecar(self, runner, tmp_path):
        out = tmp_path / "ens"
        result = runner.invoke(
            main,
            [
                "ensemble", "--n", "5", "--u-over-j", "50", "--t-end", "2", "--traj", "64",
                "--seed", "9", "--model", "eliminated", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        sidecar = read_json(f"{out}.json")
        assert "jump_histogram" in sidecar and sidecar["manifest"]["seed"] == 9
        data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
        assert data[0, 1] == 1.0  # survival starts at one

    def test_long_run_goes_spectral_and_loses_every_register(self, runner, tmp_path):
        # without --dt no RK4 step is planned, so t_end = 1e9/U runs
        out = tmp_path / "ens"
        args = ["ensemble", "--n", "5", "--traj", "64", "--t-end", "1e9"]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
        assert data[-1, 1] == 0.0
        sidecar = read_json(f"{out}.json")
        assert sidecar["failures"] == 64 and sum(sidecar["jump_histogram"]["counts"]) == 64
        assert sidecar["diagnostics"]["backend"] == "eig"
        p = derive_params(replace(reference_config(), register_sites=5))
        ens = jump_ensemble(p, 5, n_traj=64, seed=1234, t_end=1e9)
        assert np.all((ens.jump_times > 0.0) & (ens.jump_times <= 1e9))


class TestFreeAndOracleCommands:
    def test_free_columns(self, runner, tmp_path):
        out = tmp_path / "free"
        result = runner.invoke(
            main,
            ["free", "--n", "5", "--u-over-j", "500", "--t-end", "0.2/J", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        header = open(f"{out}.csv").readline().strip().split(",")
        assert header == ["t_over_u", "f_closed", "f_numeric"]
        data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
        assert data[-1, 0] == pytest.approx(0.2 * 500.0)
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-3

    def test_oracle_columns(self, runner, tmp_path):
        out = tmp_path / "oracle"
        result = runner.invoke(
            main,
            [
                "oracle", "--atoms", "3", "--u-over-j", "100", "--delta-over-u", "0",
                "--t-end", "0.3/J", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        header = open(f"{out}.csv").readline().strip().split(",")
        assert header == ["t_over_u", "f_exact", "f_docc", "f_closed"]
        sidecar = read_json(f"{out}.json")
        assert sidecar["basis_dim"] == 10
        assert sidecar["docc_basis_dim"] == 7

    def test_oracle_docc_column_not_interpolated(self, runner, tmp_path):
        out = tmp_path / "oracle"
        result = runner.invoke(main, ["oracle", "--atoms", "3", "--t-end", "0.01/J", "--out", str(out)])
        assert result.exit_code == 0, result.output
        p = derive_params(reference_config())
        docc = double_occupancy_evolve(3, p.j_over_u, 1.0, p.delta_over_u, 0.01 / p.j_over_u, max_samples=2001)
        rows = [line.split(",") for line in open(f"{out}.csv").read().splitlines()]
        assert rows[0][2] == "f_docc"
        assert [row[2] for row in rows[1:]] == [format_number(f) for f in docc.fidelity]


def full_layout_free_start(p, n: int, from_saturated: bool) -> np.ndarray:
    """The free command's start on the full layout: |T>, or the normalised
    final state of the eliminated null trajectory to t = 30/U."""
    if from_saturated:
        amps = null_trajectory(p, n, t_end=30.0, model="eliminated").final_state.expanded().amplitudes
        return amps / np.linalg.norm(amps)
    amps = np.zeros(build_basis(n).dimension, dtype=np.complex128)
    amps[0] = 1.0
    return amps


class TestFreeOnTheSector:
    # n = 51 at its default t_end = 0.5/J: the full layout has dim 201, of
    # which the sector keeps 51
    @pytest.mark.parametrize("start", [[], ["--from-saturated"]])
    def test_matches_the_full_layout(self, runner, tmp_path, start):
        p = derive_params(replace(reference_config(), register_sites=51))
        h = build_free_hamiltonian(build_basis(51), p)
        psi0 = full_layout_free_start(p, 51, bool(start))
        grid = dict(t_end=0.5 / p.j_over_u, max_samples=2001)

        def run(*extra):
            out = tmp_path / "free"
            result = runner.invoke(main, ["free", "--n", "51", *start, *extra, "--out", str(out)])
            assert result.exit_code == 0, result.output
            data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
            return data[:, 2], read_json(f"{out}.json")["diagnostics"]["backend"]

        # a pinned step: the same RK4 run as on the full layout
        f_numeric, backend = run("--dt", "0.01")
        assert backend == "rk4"
        whole = evolve(h, psi0, dt=0.01, **grid)
        assert np.max(np.abs(f_numeric - whole.fidelity)) <= 1e-12
        # unpinned: eigh on the sector; it moves from the full-layout run by
        # less than RK4 at the default step is off (measured: 5.0e-13, the
        # CSV's 12 digits, against 3.2e-9 from |T> and 3.0e-9 saturated)
        f_numeric, backend = run()
        assert backend == "eigh"
        w, v = np.linalg.eigh(h.to_dense())
        psi = v @ ((v.conj().T @ psi0)[:, None] * np.exp(-1j * np.outer(w, whole.t)))
        exact = np.abs(psi[0]) ** 2 / np.sum(np.abs(psi) ** 2, axis=0)
        rk4 = evolve(h, psi0, dt=_max_step(h), **grid)
        full_layout = evolve(h, psi0, **grid)
        assert np.max(np.abs(f_numeric - full_layout.fidelity)) <= np.max(np.abs(rk4.fidelity - exact))


class TestDiagnostics:
    def test_oracle_defaults_use_eigh(self, runner, tmp_path):
        out = tmp_path / "oracle"
        assert runner.invoke(main, ["oracle", "--out", str(out)]).exit_code == 0
        diagnostics = read_json(f"{out}.json")["diagnostics"]
        assert diagnostics == {
            "f_exact": {"backend": "eigh", "cond_v": None},
            "f_docc": {"backend": "eigh", "cond_v": None},
        }

    @pytest.mark.parametrize(
        "args, backend",
        [
            (["trajectory", "--n", "5", "--t-end", "1", "--model", "eliminated"], "eig"),
            (["trajectory", "--n", "5", "--t-end", "1", "--model", "eliminated", "--dt", "1e-3"], "rk4"),
            (["free", "--n", "5", "--t-end", "0.2/J"], "eigh"),
            (["free", "--n", "5", "--t-end", "0.2/J", "--dt", "0.01"], "rk4"),
        ],
    )
    def test_sidecar_names_the_backend(self, runner, tmp_path, args, backend):
        out = tmp_path / "run"
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        diagnostics = read_json(f"{out}.json")["diagnostics"]
        assert diagnostics["backend"] == backend
        if backend == "eig":
            assert diagnostics["cond_v"] >= 1.0
        else:
            assert diagnostics["cond_v"] is None


    @pytest.mark.parametrize(
        "args, backend",
        [
            (["ensemble", "--n", "5", "--traj", "16", "--t-end", "0.01"], "eig"),
            (["ensemble", "--n", "5", "--traj", "16", "--t-end", "0.01", "--dt", "1e-5"], "rk4"),
            (["nonselective", "--n", "5", "--t-end", "20"], "eig"),
            (["nonselective", "--n", "5", "--t-end", "20", "--dt", "1e-3"], "rk4"),
        ],
    )
    def test_ensemble_and_master_equation_sidecars(self, runner, tmp_path, args, backend):
        out = tmp_path / "run"
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        diagnostics = read_json(f"{out}.json")["diagnostics"]
        assert diagnostics["backend"] == backend
        assert (diagnostics["cond_v"] >= 1.0) if backend == "eig" else diagnostics["cond_v"] is None


class TestEfficiencyCommand:
    def test_ordered_plateaus(self, runner, tmp_path):
        out = tmp_path / "eta"
        result = runner.invoke(main, ["efficiency", "--t-end", "100", "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = open(f"{out}.csv").readline().strip().split(",")
        assert header == ["t_over_u", "rho_ns", "f_eta_1", "f_eta_0.9", "f_eta_0.8"]
        data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
        final = data[-1]
        assert final[2] > final[3] > final[4]


    def test_close_efficiencies_get_distinct_headers(self, runner, tmp_path):
        out = tmp_path / "eta"
        args = ["efficiency", "--n", "5", "--t-end", "2", "--eta", "0.1234567", "--eta", "0.1234568"]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        header = open(f"{out}.csv").readline().strip().split(",")
        assert header == ["t_over_u", "rho_ns", "f_eta_0.1234567", "f_eta_0.1234568"]


class TestNonselectiveCommand:
    # below about 1.2/U every level takes fewer steps than the 2000 gaps
    @pytest.mark.parametrize("n, t_end", [(21, "20"), (5, "0.5"), (5, "1"), (21, "1")])
    def test_consistency_columns(self, runner, tmp_path, n, t_end):
        out = tmp_path / "ns"
        result = runner.invoke(
            main, ["nonselective", "--n", str(n), "--t-end", t_end, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
        assert data.shape == (2001, 5)
        # master equation, Bloch reduction and closed form agree at this scale
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-3
        assert np.max(np.abs(data[:, 1] - data[:, 3])) < 1e-3


class TestPlot:
    def test_plot_from_csv(self, runner, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("t,a,b\n0,1,2\n1,2,1\n2,3,0\n")
        out = tmp_path / "fig"
        result = runner.invoke(main, ["plot", "--in", str(csv), "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = open(f"{out}.svg").read()
        assert text.count("<polyline") == 2
        assert 'width="800" height="600"' in text

    def test_manifest_lists_the_svg_and_the_sidecar(self, runner, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("t,a\n0,1\n1,2\n")
        out = tmp_path / "fig"
        assert runner.invoke(main, ["plot", "--in", str(csv), "--out", str(out)]).exit_code == 0
        assert read_json(f"{out}.json")["manifest"]["outputs"] == [f"{out}.svg", f"{out}.json"]

    def test_plot_rerun_identical_up_to_comment(self, runner, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("t,a\n0,1\n1,2\n")
        a, b = tmp_path / "fa", tmp_path / "fb"
        assert runner.invoke(main, ["plot", "--in", str(csv), "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, ["plot", "--in", str(csv), "--out", str(b)]).exit_code == 0
        lines_a = [l for l in open(f"{a}.svg").read().splitlines() if not l.startswith("<!--")]
        lines_b = [l for l in open(f"{b}.svg").read().splitlines() if not l.startswith("<!--")]
        assert lines_a == lines_b
        assert open(f"{a}.svg", "rb").read() == open(f"{b}.svg", "rb").read()

    def test_one_column_csv_exits_2(self, runner, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("t\n0\n1\n")
        result = runner.invoke(main, ["plot", "--in", str(csv), "--out", str(tmp_path / "fig")])
        assert result.exit_code == 2, result.output
        assert "error: CSV must carry a header row and at least two columns" in result.output

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,a\n", "CSV has a header row of 2 names but no data rows"),
            ("t,a,b\n1,2\n", "CSV line 2 has 2 values, but the header names 3 columns"),
            ("t,a\n0,1\n\n1\n2,3\n", "CSV line 4 has 1 value, but the header names 2 columns"),
            ("t,a\n0,1,2\n", "CSV line 2 has 3 values, but the header names 2 columns"),
            ("t,a\n0,1\n1,x\n", "could not convert string to float: 'x'"),
        ],
        ids=["header only", "row shorter than the header", "short row after a blank line", "long row", "not a number"],
    )
    def test_malformed_csv_exits_2_naming_the_fault(self, runner, tmp_path, text, message):
        csv = tmp_path / "data.csv"
        csv.write_text(text)
        out = tmp_path / "fig"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["plot", "--in", str(csv), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {message}\n"
        assert not (tmp_path / "fig.svg").exists()

    def test_y_label_is_rotated_and_escaped(self, runner, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("t,a\n0,1\n1,2\n")
        out = tmp_path / "fig"
        assert runner.invoke(main, ["plot", "--in", str(csv), "--out", str(out), "--y-label", "F <x>"]).exit_code == 0
        assert (
            '<text x="22" y="290" text-anchor="middle" font-family="sans-serif" font-size="14" '
            'transform="rotate(-90 22 290)">F &lt;x&gt;</text>'
        ) in open(f"{out}.svg").read()

    @pytest.mark.parametrize(
        "rows, points",
        [
            ("9007199254740992,0\n9007199254740992,1\n", "80.00,540.00 80.00,40.00"),
            ("-1e308,0\n1e308,1\n", "80.00,540.00 770.00,40.00"),
            ("0,-1e308\n1,1e308\n", "80.00,540.00 770.00,40.00"),
        ],
        ids=["flat x at 2**53", "x spans 2e308", "y spans 2e308"],
    )
    def test_degenerate_spans_give_finite_points(self, runner, tmp_path, rows, points):
        # x_max - x_min rounds to 0 or overflows; the span is widened by one
        # ulp, or the values halved
        csv = tmp_path / "data.csv"
        csv.write_text("t,a\n" + rows)
        out = tmp_path / "fig"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["plot", "--in", str(csv), "--out", str(out)])
        assert result.exit_code == 0, result.output
        svg = open(f"{out}.svg").read()
        assert "nan" not in svg and f'points="{points}"' in svg

    @pytest.mark.parametrize(
        "rows, points, ticks",
        [
            ("0,-1.75e308\n1,-1.75e308\n", "80.00,363.61 770.00,363.61", ">-1.79769e+308<"),
            ("0,1.75e308\n1,1.75e308\n", "80.00,216.39 770.00,216.39", ">1.79769e+308<"),
            ("1.7976931348623157e308,0\n1.7976931348623157e308,1\n", "770.00,540.00 770.00,40.00", ">1.79769e+308<"),
        ],
        ids=["flat y at -1.75e308", "flat y at 1.75e308", "flat x at the largest float"],
    )
    def test_widened_bounds_stay_finite(self, runner, tmp_path, rows, points, ticks):
        # the padded or widened bound would overflow; it is clamped to the
        # largest float, or the span widened one ulp downward
        csv = tmp_path / "data.csv"
        csv.write_text("t,a\n" + rows)
        out = tmp_path / "fig"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["plot", "--in", str(csv), "--out", str(out)])
        assert result.exit_code == 0, result.output
        svg = open(f"{out}.svg").read()
        assert "nan" not in svg and "inf" not in svg
        assert f'points="{points}"' in svg and ticks in svg

    def test_nonfinite_rejected_with_index(self, tmp_path):
        with pytest.raises(SvgError, match="index 1"):
            emit_svg(tmp_path / "x.svg", [("s", np.array([0.0, 1.0]), np.array([1.0, np.nan]))])

    def test_constant_series(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg(path, [("flat", np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))])
        assert "<polyline" in open(path).read()
