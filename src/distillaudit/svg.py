"""Minimal self-contained SVG plotting.

Three chart types cover the audit's outputs: per-feature shape charts (mean
lines with dotted 95% bands, red for the mimic, green for the outcome, bin
mass as gray bars along the bottom), scatter charts for calibration
diagnostics, and diverging heatmaps for pairwise grids. Everything is plain
string assembly with fixed-precision coordinates, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH = 720
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 40
MARGIN_BOTTOM = 56

MIMIC_COLOR = "#c62828"
OUTCOME_COLOR = "#2e7d32"
NEUTRAL_COLOR = "#607d8b"
MASS_COLOR = "#e0e0e0"
AXIS_COLOR = "#424242"

# Heatmap fill by shade (0-255) for cells >= 0, then by shade for cells < 0
_HEAT_FILLS = np.array(
    [f"#ff{s:02x}{s:02x}" for s in range(256)] + [f"#{s:02x}{s:02x}ff" for s in range(256)], dtype=object
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    """Pixel-space drawing surface with a fixed data-to-pixel transform."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
            f'font-family="monospace" font-size="11">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    def line(self, x1, y1, x2, y2, color, width=1.0, dash=None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def polyline(self, xs, ys, color, width=1.5, dash=None) -> None:
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, ys))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def rect(self, x, y, w, h, fill) -> None:
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="{fill}"/>'
        )

    def circle(self, x, y, r, fill) -> None:
        self.parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>')

    def text(self, x, y, s, color=AXIS_COLOR, anchor="start") -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" fill="{color}" text-anchor="{anchor}">{_esc(s)}</text>'
        )

    def frame(self, title: str, x_label: str, y_label: str) -> None:
        left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
        top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
        self.line(left, bottom, right, bottom, AXIS_COLOR)
        self.line(left, top, left, bottom, AXIS_COLOR)
        self.text(left, MARGIN_TOP - 16, title)
        self.text((left + right) / 2, HEIGHT - 8, x_label, anchor="middle")
        self.text(left - 50, top - 8, y_label)
        self.text(left - 6, self.py(self.y_lo) + 4, _fmt(self.y_lo), anchor="end")
        self.text(left - 6, self.py(self.y_hi) + 4, _fmt(self.y_hi), anchor="end")
        if self.y_lo < 0.0 < self.y_hi:
            self.line(left, self.py(0.0), right, self.py(0.0), "#bdbdbd", dash="2,3")

    def drain(self) -> str:
        """The parts drawn since the last drain, one per line; forgets them."""
        text = "".join(part + "\n" for part in self.parts)
        self.parts.clear()
        return text

    def render(self) -> str:
        """The rest of the document: the parts not yet drained, then the close."""
        self.parts.append("</svg>")
        return self.drain()


def _write(path: str | Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def shape_chart(
    path: str | Path,
    title: str,
    bin_labels: list[str],
    bin_mass: np.ndarray,
    series: list[tuple[str, str, np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Shape chart: one (name, color, mean, lower, upper) triple per series.

    Mean lines are solid, band edges dotted; bin mass shows as bars along
    the bottom fifth of the plot area.
    """
    n = len(bin_labels)
    xs = np.arange(n) + 0.5
    lo = min(float(np.min(s[3])) for s in series)
    hi = max(float(np.max(s[4])) for s in series)
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    canvas = _Canvas(0.0, float(n), lo - pad, hi + pad)

    mass = np.asarray(bin_mass, float)
    if mass.max() > 0:
        bottom = HEIGHT - MARGIN_BOTTOM
        band = 0.2 * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
        for i, m in enumerate(mass):
            h = band * float(m) / float(mass.max())
            x0 = canvas.px(i + 0.1)
            x1 = canvas.px(i + 0.9)
            canvas.rect(x0, bottom - h, x1 - x0, h, MASS_COLOR)

    canvas.frame(title, "bin", "contribution")
    for name, color, mean, lower, upper in series:
        canvas.polyline(xs, np.asarray(lower, float), color, width=1.0, dash="1,3")
        canvas.polyline(xs, np.asarray(upper, float), color, width=1.0, dash="1,3")
        canvas.polyline(xs, np.asarray(mean, float), color, width=1.8)
    for li, (name, color, *_rest) in enumerate(series):
        y = MARGIN_TOP + 14 * li
        canvas.line(WIDTH - 150, y, WIDTH - 130, y, color, width=2.0)
        canvas.text(WIDTH - 124, y + 4, name, color=color)

    step = max(1, n // 8)
    ticks = sorted(set(range(0, n, step)) | {n - 1})
    bottom = HEIGHT - MARGIN_BOTTOM
    for i in ticks:
        x = canvas.px(i + 0.5)
        canvas.line(x, bottom, x, bottom + 4, AXIS_COLOR)
        label = bin_labels[i] if len(bin_labels[i]) <= 12 else bin_labels[i][:11] + "~"
        canvas.text(x, bottom + 16, label, anchor="middle")
    _write(path, canvas.render())


def scatter_chart(
    path: str | Path,
    title: str,
    x: np.ndarray,
    y: np.ndarray,
    x_label: str,
    y_label: str,
    line: tuple[float, float] | None = None,
) -> None:
    """Scatter of (x, y) points, optionally with a (slope, intercept) line."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    x_pad = 0.05 * (np.ptp(x) if np.ptp(x) > 0 else 1.0)
    y_pad = 0.05 * (np.ptp(y) if np.ptp(y) > 0 else 1.0)
    canvas = _Canvas(float(x.min()) - x_pad, float(x.max()) + x_pad, float(y.min()) - y_pad, float(y.max()) + y_pad)
    canvas.frame(title, x_label, y_label)
    if line is not None:
        slope, intercept = line
        gx = np.array([canvas.x_lo, canvas.x_hi])
        canvas.polyline(gx, slope * gx + intercept, NEUTRAL_COLOR, width=1.2, dash="4,3")
    for xi, yi in zip(x, y):
        canvas.circle(canvas.px(float(xi)), canvas.py(float(yi)), 2.2, MIMIC_COLOR)
    _write(path, canvas.render())


def heatmap_chart(path: str | Path, title: str, grid: np.ndarray, x_name: str, y_name: str) -> None:
    """Diverging heatmap of a pairwise grid: blue negative, red positive.

    The file is written row by row: the canvas's opening parts, then each
    row's cells as one string, then the frame. The shades of a row are
    computed with numpy, and each column's ``x``, each row's ``y`` and the
    cell size are formatted once, not once per cell, so no more than one row
    of the document is held at a time.
    """
    grid = np.asarray(grid, float)
    if not np.isfinite(grid).all():
        raise ValueError("heatmap grid has non-finite values")
    rows, cols = grid.shape
    scale = float(max(grid.max(), -grid.min())) or 1.0  # max |grid| without an |grid| array
    canvas = _Canvas(0.0, float(cols), 0.0, float(rows))
    cell_w = (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / cols
    cell_h = (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM) / rows
    heads = [f'<rect x="{_fmt(MARGIN_LEFT + c * cell_w)}" y="' for c in range(cols)]
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="'
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canvas.drain())
        for r in range(rows):
            v = grid[r] / scale
            # 255 * (1 + v) equals 255 * (1 - |v|) for v < 0; rint rounds half to even, as round does
            shade = np.rint(255 * (1 - np.abs(v))).astype(np.intp)
            fills = _HEAT_FILLS[shade + 256 * (v < 0)].tolist()
            tail = _fmt(HEIGHT - MARGIN_BOTTOM - (r + 1) * cell_h) + size
            fh.write("".join([head + tail + fill + '"/>\n' for head, fill in zip(heads, fills)]))
        canvas.frame(title, x_name, y_name)
        canvas.text(WIDTH - MARGIN_RIGHT, MARGIN_TOP - 16, f"|max| = {scale:.4f}", anchor="end")
        fh.write(canvas.render())
