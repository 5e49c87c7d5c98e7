"""zenoreg benchmark: run one workload repeatedly, check its outputs, report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the whole workload in a fresh ``python3 bench/child.py``
process that imports zenoreg from ``src/``; one process runs at a time.
Repetitions continue while another one still fits in S seconds (at least
MIN_REPS are made), and every metric is the median over repetitions.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
every repetition records spans around calls into each layer and the
per-layer metrics are printed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The seed, the run environment, every repetition's raw
numbers and, with tracing, the spans and per-layer summary are written
under ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import CHECKS
from child import WORKLOADS
from tracing import PER_LAYER, summarize, unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_REPS = 2
# set-up probes top the repetitions up to SETUP_SAMPLES samples, then fill
# what is left of the measuring window, up to MAX_SETUP_SAMPLES
SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 15
RUN_LIMIT_S = 160.0  # the whole run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ZENO_THREADS")


def run_child(workload: str, run_dir: Path, seed: int, flags=(), timeout: float = RUN_LIMIT_S) -> dict:
    """Run child.py once in a clean ``run_dir``; check its outputs unless
    it ran at reduced size or only set up.  Times come from the monotonic
    clock, CPU time and peak RSS from the process's own rusage."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(run_dir), "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(run_dir / "child.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=run_dir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {
        "exit_code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "failures": [],
    }
    child = {}
    if proc.returncode != 0:
        tail = (run_dir / "child.log").read_text(errors="replace").strip().splitlines()[-5:]
        rep["failures"].append(f"exit code {proc.returncode}: " + " | ".join(tail))
    else:
        with open(run_dir / "child.json", encoding="utf-8") as fh:
            child = json.load(fh)
        if not {"--small", "--setup-only"} & set(flags):
            try:
                rep["failures"] += CHECKS[workload](run_dir, child)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rep["failures"].append(f"outputs unreadable: {exc!r}")
    rep["wall_s"] = time.monotonic() - start
    if child:
        rep["setup_s"] = child["import_done"] - start + child["setup_calls_s"]
    rep["child"] = child
    return rep


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def median_metrics(samples: list, names) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zenoreg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zenoreg" / "__init__.py").is_file():
        print(f"error: no zenoreg source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    run_dir = out / "run"
    warm = run_child(args.workload, run_dir, args.seed, ["--setup-only"])  # compiles bytecode; untimed
    if warm["exit_code"] != 0:
        print(f"error: zenoreg does not import: {warm['failures']}", file=sys.stderr)
        return 2
    environment = {
        **source_identity(),
        **warm["child"]["environment"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }

    flags = ["--trace"] if args.trace else []
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        reps.append(run_child(args.workload, run_dir, args.seed, flags, timeout=max(5.0, RUN_LIMIT_S - elapsed)))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed + typical > (args.seconds if len(reps) >= MIN_REPS else RUN_LIMIT_S):
            break
    good = [r for r in reps if not r["failures"]] or reps
    failed = sum(1 for r in reps if r["failures"])

    out.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        layers = [summarize(r["child"].get("spans", []), r["child"].get("trace_overhead_s", 0.0)) for r in good]
        metrics = median_metrics(layers, PER_LAYER)
        units = {name: unit_of(name) for name in PER_LAYER}
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for i, r in enumerate(reps):
                for span in r["child"].get("spans", []):
                    fh.write(json.dumps({"rep": i, **span}) + "\n")
        with open(out / "layers.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "median": metrics, "reps": layers}, fh, indent=1)
    else:
        setups = [r["setup_s"] for r in good if "setup_s" in r]
        probe_s = 0.0
        while len(setups) < SETUP_SAMPLES or (
            len(setups) < MAX_SETUP_SAMPLES and time.monotonic() - start + probe_s <= args.seconds
        ):
            probe = run_child(args.workload, run_dir, args.seed, ["--setup-only"])
            if probe["exit_code"] != 0:
                break
            setups.append(probe["setup_s"])
            probe_s = max(probe_s, probe["wall_s"])
        metrics = median_metrics(good, ("wall_s", "cpu_s", "peak_rss_mb"))
        metrics["setup_s"] = statistics.median(setups or [warm["setup_s"]])
        units = END_TO_END
        result["setup_samples"] = setups
    result["environment"] = environment
    result["reps"] = [{k: v for k, v in r.items() if k != "child"} for r in reps]
    result["metrics"] = metrics
    with open(out / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} runs, {failed} failed")
    print("environment " + json.dumps(environment, sort_keys=True))
    for r in reps:
        for failure in r["failures"]:
            print(f"check failed: {failure}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    summary = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
