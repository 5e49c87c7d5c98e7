"""Minimal standalone SVG line plots.

Fixed 800x600 viewport, linear axes with min/max tick labels, one polyline
per series and a legend.  Output is deterministic: the one version comment
line holds the fixed package version, so reruns are byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 40, 60
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


class SvgError(ValueError):
    pass


def emit_svg(path, series, x_label: str = "", y_label: str = "", title: str = "") -> None:
    """Write line plots for ``series`` = [(name, x, y), ...].

    NaN or infinite samples are rejected with the offending series and
    index reported.
    """
    if not series:
        raise SvgError("no series to plot")
    cleaned = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
            raise SvgError(f"series {name!r}: x and y must be equal-length 1-d arrays")
        for arr, axis in ((xs, "x"), (ys, "y")):
            bad = np.nonzero(~np.isfinite(arr))[0]
            if bad.size:
                raise SvgError(f"series {name!r}: non-finite {axis} value at index {int(bad[0])}")
        cleaned.append((str(name), xs, ys))

    x_min = min(float(xs.min()) for _, xs, _ in cleaned)
    x_max = max(float(xs.max()) for _, xs, _ in cleaned)
    y_min = min(float(ys.min()) for _, _, ys in cleaned)
    y_max = max(float(ys.max()) for _, _, ys in cleaned)
    if x_max == x_min:  # at |x| >= 2**53, where 1.0 may round away, one ulp
        x_max = max(x_min + 1.0, math.nextafter(x_min, math.inf))
        if math.isinf(x_max):  # at the largest float, one ulp below it
            x_min, x_max = math.nextafter(x_min, -math.inf), x_min
    if y_max == y_min:  # padded, an overflow clamped to the largest float
        pad = abs(y_min) * 0.05 or 0.5
        y_min, y_max = np.nan_to_num([y_min - pad, y_max + pad]).tolist()

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + _fraction(x, x_min, x_max) * plot_w

    def sy(y):
        return MARGIN_T + plot_h - _fraction(y, y_min, y_max) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- zenoreg {__version__} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )
    # min/max tick labels
    for x, y, anchor, value in [
        (MARGIN_L, HEIGHT - MARGIN_B + 20, "middle", x_min),
        (WIDTH - MARGIN_R, HEIGHT - MARGIN_B + 20, "middle", x_max),
        (MARGIN_L - 8, MARGIN_T + plot_h + 4, "end", y_min),
        (MARGIN_L - 8, MARGIN_T + 4, "end", y_max),
    ]:
        lines.append(
            f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" font-size="12">{value:.6g}</text>'
        )
    if x_label:
        lines.append(
            f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 22, MARGIN_T + plot_h / 2
        lines.append(
            f'<text x="{cx}" y="{cy:.0f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="14" transform="rotate(-90 {cx} {cy:.0f})">{_escape(y_label)}</text>'
        )

    for i, (name, xs, ys) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join("%.2f,%.2f" % xy for xy in zip(sx(xs).tolist(), sy(ys).tolist()))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = MARGIN_T + 16 + 18 * i
        lx = WIDTH - MARGIN_R - 150
        lines.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(name)}</text>'
        )
    lines.append("</svg>")

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fraction(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(v - lo) / (hi - lo); where hi - lo overflows, of the halved values,
    which halving leaves exact but for subnormal ones."""
    if not math.isfinite(hi - lo):
        v, lo, hi = v * 0.5, lo * 0.5, hi * 0.5
    return (v - lo) / (hi - lo)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
