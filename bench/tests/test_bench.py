"""The benchmark's own tests: the metric schema against BENCHMARK.json, a
smoke run of each workload at reduced size, and the refusal to
run without a source tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import PER_LAYER, summarize, unit_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer metrics each workload must move even at reduced size
HEAVY = {
    "cli": ("register.dim", "dynamics.evolve.self_s", "dynamics.samples", "runio.bytes", "svg.bytes",
            "oracle.dim", "oracle.exact_evolve_fidelity.self_s", "oracle.double_occupancy_evolve.self_s"),
    "ensemble": ("dynamics.jump_ensemble.self_s", "dynamics.jump_ensemble.trajectories",
                 "dynamics.reduced_master_equation.self_s"),
}


def declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_printed_metrics_are_declared_with_units():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == {name: unit_of(name) for name in PER_LAYER}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 0, "parent": None, "name": "dynamics.null_trajectory", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "dynamics.evolve", "start": 2.0, "end": 9.0, "counts": {"samples": 7}},
        {"id": 2, "parent": 0, "name": "register.build_basis", "start": 0.5, "end": 1.5},
    ]
    layers = summarize(spans, overhead_s=0.25)
    assert layers["dynamics.null_trajectory.self_s"] == pytest.approx(2.0)
    assert layers["dynamics.evolve.self_s"] == pytest.approx(7.0)
    assert layers["register.build_s"] == pytest.approx(1.0)
    assert layers["dynamics.samples"] == 7
    assert layers["trace.overhead_s"] == 0.25


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    plain = run.run_child(workload, tmp_path / "plain", 5, ["--small"], timeout=120)
    assert plain["exit_code"] == 0, plain["failures"]
    assert plain["setup_s"] > 0 and plain["cpu_s"] > 0 and plain["peak_rss_mb"] > 0

    traced = run.run_child(workload, tmp_path / "traced", 5, ["--small", "--trace"], timeout=120)
    assert traced["exit_code"] == 0, traced["failures"]
    layers = summarize(traced["child"]["spans"], traced["child"]["trace_overhead_s"])
    assert list(layers) == list(PER_LAYER)
    for name in ("cli.import_s", "trace.overhead_s") + HEAVY[workload]:
        assert layers[name] > 0, name


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
