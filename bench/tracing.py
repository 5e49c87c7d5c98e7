"""Spans around calls into zenoreg's layers, and the per-layer summary.

The benchmark wraps the names through which one layer calls another (for
example ``zenoreg.cli.null_trajectory`` or ``zenoreg.dynamics.evolve``), so
the package itself is not changed.  Spans are kept in memory and written
out when the process ends.  A span's self time is its duration minus the
time its child spans cover; calls at these boundaries are made from one
thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

# module whose namespace holds the call site -> names called through it
CALL_SITES = {
    "zenoreg": ("regime_check", "jump_ensemble", "reduced_master_equation"),
    "zenoreg.cli": (
        "derive_params",
        "regime_check",
        "null_trajectory",
        "exact_evolve_fidelity",
        "double_occupancy_evolve",
        "fock_basis",
        "free_evolution_fidelity",
        "write_csv",
        "write_sidecar",
        "emit_svg",
    ),
    "zenoreg.dynamics": (
        "evolve",
        "build_basis",
        "build_effective_hamiltonian",
        "build_eliminated_hamiltonian",
        "perturbative_ground_state",
    ),
    "zenoreg.oracle": ("build_bose_hubbard", "double_occupancy_basis"),
}


def _operator_counts(args, kwargs, result):
    return {"dim": int(result.dim), "nnz": int(result.vals.size)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _ensemble_counts(args, kwargs, result):
    jumps = sum(1 for t in result.jump_times.tolist() if t == t)  # NaN marks a survivor
    return {"trajectories": int(result.n_traj), "jumps": jumps}


# span name -> counts read from the call's inputs, return value or written file
COUNTERS = {
    "register.build_effective_hamiltonian": _operator_counts,
    "register.build_eliminated_hamiltonian": _operator_counts,
    "oracle.build_bose_hubbard": _operator_counts,
    "dynamics.evolve": lambda args, kwargs, result: {"samples": len(result.t)},
    "dynamics.jump_ensemble": _ensemble_counts,
    "runio.write_csv": _written_bytes,
    "runio.write_sidecar": _written_bytes,
    "svg.emit_svg": _written_bytes,
}

PER_LAYER = (
    "cli.import_s",
    "params.derive_s",
    "register.build_s",
    "register.dim",
    "register.nnz",
    "dynamics.null_trajectory.self_s",
    "dynamics.evolve.self_s",
    "dynamics.samples",
    "dynamics.jump_ensemble.self_s",
    "dynamics.jump_ensemble.trajectories",
    "dynamics.jump_ensemble.jumps",
    "dynamics.reduced_master_equation.self_s",
    "oracle.build_s",
    "oracle.dim",
    "oracle.exact_evolve_fidelity.self_s",
    "oracle.double_occupancy_evolve.self_s",
    "analytics.self_s",
    "runio.write_csv.self_s",
    "runio.write_sidecar.self_s",
    "runio.bytes",
    "svg.emit_svg.self_s",
    "svg.bytes",
    "cli.self_s",
    "trace.overhead_s",
)

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.counter_s = 0.0
        self._stack = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. an import)."""
        parent = self._stack[-1]["id"] if self._stack else None
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name, "start": start, "end": end})

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None, "name": name}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, module, attr: str) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                t0 = time.perf_counter()
                span["counts"] = counter(args, kwargs, result)
                self.counter_s += time.perf_counter() - t0
            return result

        setattr(module, attr, traced)

    def wrap_call_sites(self) -> None:
        for module_name, attrs in CALL_SITES.items():
            module = sys.modules.get(module_name)
            if module is not None:
                for attr in attrs:
                    self.wrap(module, attr)

    def overhead_s(self, calls: int = 2000) -> float:
        """Estimated time the spans added: calibrated cost per span times
        the span count, plus the time spent reading counts."""
        probe = Tracer()
        holder = types.SimpleNamespace(noop=_noop)
        plain = holder.noop
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        probe.wrap(holder, "noop")
        traced = holder.noop
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        per_span = max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
        return per_span * len(self.spans) + self.counter_s


def _noop():
    return None


def summarize(spans: list, overhead_s: float) -> dict:
    """Per-layer metrics of one traced run; a layer the run never entered reads 0."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(list)
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        self_time[s["name"]] += duration - child_time[s["id"]]
        for key, value in s.get("counts", {}).items():
            counts[(s["name"].split(".", 1)[0], key)].append(value)

    def layer_total(layer, names=None):
        return sum(v for k, v in total.items() if k.split(".", 1)[0] == layer and (names is None or k in names))

    def layer_self(layer, exclude=()):
        return sum(v for k, v in self_time.items() if k.split(".", 1)[0] == layer and k not in exclude)

    metrics = {
        "cli.import_s": total["cli.import"],
        "params.derive_s": layer_total("params"),
        "register.build_s": layer_total("register"),
        "register.dim": max(counts[("register", "dim")], default=0),
        "register.nnz": max(counts[("register", "nnz")], default=0),
        "dynamics.samples": sum(counts[("dynamics", "samples")]),
        "dynamics.jump_ensemble.trajectories": sum(counts[("dynamics", "trajectories")]),
        "dynamics.jump_ensemble.jumps": sum(counts[("dynamics", "jumps")]),
        "oracle.build_s": layer_total(
            "oracle", ("oracle.fock_basis", "oracle.build_bose_hubbard", "oracle.double_occupancy_basis")
        ),
        "oracle.dim": max(counts[("oracle", "dim")], default=0),
        "analytics.self_s": layer_self("analytics"),
        "runio.bytes": sum(counts[("runio", "bytes")]),
        "svg.bytes": sum(counts[("svg", "bytes")]),
        "cli.self_s": layer_self("cli", exclude=("cli.import",)),
        "trace.overhead_s": overhead_s,
    }
    for metric in PER_LAYER:
        if metric.endswith(".self_s") and metric not in metrics:
            metrics[metric] = self_time[metric[: -len(".self_s")]]
    return {metric: metrics[metric] for metric in PER_LAYER}
