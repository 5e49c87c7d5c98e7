"""Run manifests and CSV/JSON emission.

Every CLI run writes a RunManifest into the JSON sidecar next to the
data.  It holds the options the run was given, as given (``--t-end`` in
1/U), with the config and derived parameters they resolve to; a value
the run resolved from an option goes in the sidecar body, beside the
manifest.  Re-running the manifest's options reproduces the numbers.
Nothing time-dependent (timestamps, hostnames) enters the outputs, so
reruns with an identical manifest are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__


def format_number(x) -> str:
    """CSV number format: 12 significant digits, '.' decimal (a bool as 1 or 0)."""
    return f"{float(x):.12g}"


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-delimited, LF endings, each number as ``format_number`` writes
    it (a whole row formatted at once); a complex column is refused."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError("columns must share one length")
    for name, column in zip(header, columns):
        if np.iscomplexobj(column):
            raise ValueError(f"column {name!r} is complex; write its real and imaginary parts as two columns")
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns]).tolist()
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join(fmt % tuple(row) for row in table))


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI run."""

    subcommand: str
    parameters: dict
    seed: int | None = None
    outputs: list = field(default_factory=list)

    @property
    def provenance(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.parameters, sort_keys=True, default=str).encode()
        ).hexdigest()[:12]
        return f"zenoreg-{__version__}+params.{digest}"

    def as_dict(self) -> dict:
        return {
            "tool": "zenoreg",
            "version": __version__,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "parameters": self.parameters,
            "outputs": list(self.outputs),
            "provenance": self.provenance,
        }


def write_sidecar(path, manifest: RunManifest, extra: dict | None = None) -> None:
    """``extra`` and the manifest as strict JSON: a float that is not
    finite (p_h past the cloud's edge, the barrier with the trap off) is
    written as null, since NaN and Infinity are no JSON."""
    payload = dict(extra or {})
    payload["manifest"] = manifest.as_dict()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
        fh.write("\n")


def _finite(obj):
    """``obj`` with every float that is not finite, in any dict, list,
    tuple or array within it, replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
