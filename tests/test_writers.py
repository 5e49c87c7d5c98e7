"""The CSV, SVG and JSON sidecar writers against the rules they format by.

``write_csv`` formats whole rows and ``emit_svg`` whole polylines at once;
their text must be what the per-number rules give: ``format_number`` for
each CSV entry, and the scalar axis maps and two-decimal format written out
below for each polyline point.  A sidecar is strict JSON, with null for
each float that is not finite.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoreg.runio import RunManifest, format_number, write_csv, write_sidecar
from zenoreg.svg import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, emit_svg

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf]),
)


@st.composite
def csv_columns(draw):
    """One to five columns of one length, each float64, float32, int64,
    uint64 (up to 2**63), bool or a list of Python ints up to 2**63."""
    size = draw(st.integers(0, 30))
    kinds = {
        "float64": lambda: np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=np.float64),
        "float32": lambda: np.array(draw(st.lists(st.floats(width=32), min_size=size, max_size=size)), dtype=np.float32),
        "int64": lambda: np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size))),
        "uint64": lambda: np.array(draw(st.lists(st.integers(0, 2**63), min_size=size, max_size=size)), dtype=np.uint64),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool),
        "ints": lambda: draw(st.lists(st.integers(-(2**63), 2**63), min_size=size, max_size=size)),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5))
    return [kinds[name]() for name in names]


def per_number_csv(header, columns):
    """The CSV text the per-number rule gives."""
    rows = "".join(",".join(format_number(v) for v in row) + "\n" for row in zip(*columns))
    return ",".join(header) + "\n" + rows


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(columns=csv_columns())
    def test_matches_the_per_number_rule(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(path, header, columns)
        assert path.read_text(encoding="utf-8") == per_number_csv(header, columns)

    def test_special_values(self, tmp_path):
        path = tmp_path / "x.csv"
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0])
        write_csv(path, ["v", "b"], [values, np.arange(values.size) % 2 == 0])
        lines = path.read_text().splitlines()
        assert lines[1:] == [
            "nan,1",
            "inf,0",
            "-inf,1",
            "-0,0",
            "4.94065645841e-324,1",
            "1e+300,0",
            "-1e+300,1",
            "0.333333333333,0",
        ]

    @pytest.mark.parametrize("column", [np.array([1.0 + 2.0j, 0.0, 3.0]), [0.0, 1j, 2.0], np.zeros(3, np.complex64)])
    def test_refuses_a_complex_column(self, tmp_path, column):
        # the real part alone used to be written, with only a ComplexWarning
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="column 'amp' is complex"):
            write_csv(path, ["t", "amp"], [np.arange(3.0), column])
        assert not path.exists()


class TestWriteSidecar:
    MANIFEST = RunManifest("params", {"n": 5})

    def test_finite_payload_as_json_dump_writes_it(self, tmp_path):
        extra = {"x": 1.0 / 3.0, "k": np.int64(3), "a": np.array([[0.5, -0.0], [5e-324, 1e300]]), "b": np.bool_(True), "s": None}
        write_sidecar(tmp_path / "x.json", self.MANIFEST, extra)
        payload = dict(extra, manifest=self.MANIFEST.as_dict())
        # numpy values as Python's: arrays as nested lists, scalars as items
        expected = json.dumps(payload, indent=2, sort_keys=True, default=lambda x: x.tolist()) + "\n"
        assert (tmp_path / "x.json").read_text(encoding="utf-8") == expected

    def test_non_finite_floats_are_null(self, tmp_path):
        extra = {"p_h": math.nan, "regime": {"barrier": np.float64(np.inf)}, "a": np.array([1.0, -np.inf]), "t": (math.nan, 2)}
        write_sidecar(tmp_path / "x.json", self.MANIFEST, extra)

        def refuse(name):
            raise ValueError(f"{name} is no JSON")

        payload = json.loads((tmp_path / "x.json").read_text(encoding="utf-8"), parse_constant=refuse)
        assert payload["p_h"] is None and payload["regime"]["barrier"] is None
        assert payload["a"] == [1.0, None] and payload["t"] == [None, 2]


def scalar_points(xs, ys, bounds):
    """One polyline's points by the scalar rule: each x and y mapped on its
    own onto the plot and formatted with two decimals."""
    x_min, x_max, y_min, y_max = bounds
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return MARGIN_T + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))


def plot_bounds(series):
    """The axis ranges ``emit_svg`` takes for ``series``."""
    x_min = min(float(xs.min()) for _, xs, _ in series)
    x_max = max(float(xs.max()) for _, xs, _ in series)
    y_min = min(float(ys.min()) for _, _, ys in series)
    y_max = max(float(ys.max()) for _, _, ys in series)
    if x_max == x_min:  # at |x| >= 2**53, where 1.0 may round away, one ulp
        x_max = max(x_min + 1.0, math.nextafter(x_min, math.inf))
    if y_max == y_min:
        pad = abs(y_min) * 0.05 or 0.5
        y_min, y_max = y_min - pad, y_max + pad
    return x_min, x_max, y_min, y_max


SVG_FLOATS = st.floats(-1e300, 1e300, allow_subnormal=True)


@st.composite
def plot_series(draw):
    """One to three series of 1-40 finite points each."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 40))
        scale = draw(st.sampled_from([1.0, 1e-9, 1e6]))
        xs = np.array(draw(st.lists(SVG_FLOATS, min_size=size, max_size=size))) * scale
        ys = np.array(draw(st.lists(SVG_FLOATS, min_size=size, max_size=size)))
        out.append((f"s{k}", xs, ys))
    return out


class TestEmitSvg:
    @settings(max_examples=200, deadline=None)
    @given(series=plot_series())
    @pytest.mark.filterwarnings("error")
    def test_polylines_match_the_scalar_rule(self, tmp_path_factory, series):
        # a flat x at |x| >= 2**53, where x_min + 1.0 rounds back to x_min,
        # is widened by one ulp, so neither rule divides 0 by 0
        path = tmp_path_factory.mktemp("svg") / "x.svg"
        emit_svg(path, series)
        expected = [scalar_points(xs, ys, plot_bounds(series)) for _, xs, ys in series]
        assert re.findall(r'<polyline [^>]* points="([^"]*)"/>', path.read_text()) == expected

    def test_grid_of_a_trajectory(self, tmp_path):
        t = np.linspace(0.0, 30.0, 5000)
        series = [("fidelity", t, 1.0 - np.exp(-t / 7.0)), ("norm_sq", t, np.exp(-t / 300.0))]
        path = tmp_path / "x.svg"
        emit_svg(path, series)
        written = re.findall(r'points="([^"]*)"', path.read_text())
        bounds = plot_bounds(series)
        assert written == [scalar_points(xs, ys, bounds) for _, xs, ys in series]
