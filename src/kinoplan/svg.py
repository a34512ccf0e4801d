"""Minimal deterministic SVG output.

Hand-rolled on purpose: plots must be byte-identical across runs for the
reproducibility checks, so no plotting library with embedded timestamps or
float formatting drift is involved.  Coordinates are emitted with a fixed
format and the world y axis points up.
"""

from __future__ import annotations

import math

from .configfile import write_lines

PAD = 20  # canvas margin around the world window, px


def _fmt(v: float) -> str:
    return "%.2f" % v


class SvgCanvas:
    """Fixed-size canvas mapping a world window onto pixel coordinates."""

    def __init__(self, world_box: tuple[float, float, float, float], width: int = 800):
        xmin, ymin, xmax, ymax = world_box
        self.scale = (width - 2 * PAD) / max(xmax - xmin, 1e-9)
        self.width = width
        self.height = int(math.ceil((ymax - ymin) * self.scale)) + 2 * PAD
        self.xmin, self.ymax = xmin, ymax
        self.elements: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (PAD + (x - self.xmin) * self.scale, PAD + (self.ymax - y) * self.scale)

    def circle(self, x: float, y: float, r: float, fill: str = "none",
               stroke: str = "black", opacity: float = 1.0):
        px, py = self.to_px(x, y)
        self.elements.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r * self.scale)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.00" '
            f'opacity="{_fmt(opacity)}"/>')

    def polygon(self, points, fill: str = "none"):
        pts = " ".join("%s,%s" % (_fmt(px), _fmt(py))
                       for px, py in (self.to_px(x, y) for x, y in points))
        self.elements.append(f'<polygon points="{pts}" fill="{fill}" stroke="black"/>')

    def polyline(self, points, stroke: str = "black", stroke_width: float = 1.5):
        pts = " ".join("%s,%s" % (_fmt(px), _fmt(py))
                       for px, py in (self.to_px(x, y) for x, y in points))
        self.elements.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                             f'stroke-width="{_fmt(stroke_width)}"/>')

    def line(self, x0, y0, x1, y1, stroke: str = "black", stroke_width: float = 1.0):
        p0 = self.to_px(x0, y0)
        p1 = self.to_px(x1, y1)
        self.elements.append(
            f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" x2="{_fmt(p1[0])}" '
            f'y2="{_fmt(p1[1])}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>')

    def text(self, x: float, y: float, s: str, size: int = 12, fill: str = "black"):
        px, py = self.to_px(x, y)
        self.elements.append(f'<text x="{_fmt(px)}" y="{_fmt(py)}" '
                             f'font-size="{size}" fill="{fill}">{s}</text>')

    def write(self, path) -> None:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">')
        write_lines(path, [head, *self.elements, "</svg>"])


def speed_color(v: float, v_max: float) -> str:
    """Heat color for the trace footprints: red when slow, blue at v_max."""
    u = min(max(v / max(v_max, 1e-9), 0.0), 1.0)
    r = int(round(220 * (1.0 - u)))
    b = int(round(220 * u))
    return f"#{r:02x}30{b:02x}"


def plot_intervals(intervals_per_node, path) -> None:
    """Node-index vs time chart of safe intervals (green) on a dark timeline,
    over the first 60 s."""
    t_max = 60.0
    cv = SvgCanvas((0.0, 0.0, float(max(len(intervals_per_node), 1)), t_max), width=600)
    for i, intervals in enumerate(intervals_per_node):
        cv.line(i + 0.5, 0.0, i + 0.5, t_max, stroke="#cccccc")
        for (start, end) in intervals:
            top = min(end, t_max)
            if top > start:
                cv.line(i + 0.5, start, i + 0.5, top, stroke="#2a8f2a", stroke_width=6.0)
    cv.text(0.2, t_max - 1.0, "safe intervals per path node", size=14)
    cv.write(path)


def plot_errorbars(series, labels, path, title: str = "") -> None:
    """Grouped error-bar chart: series is {name: [(x, mean, half_width), ...]}.
    A point whose mean or half-width is not finite (a mode that solved no run)
    is left out."""
    series = {name: [pt for pt in pts if math.isfinite(pt[1]) and math.isfinite(pt[2])]
              for name, pts in series.items()}
    xs = [pt[0] for pts in series.values() for pt in pts]
    ys = [pt[1] + pt[2] for pts in series.values() for pt in pts]
    ylo = min((pt[1] - pt[2] for pts in series.values() for pt in pts), default=0.0)
    if not xs:
        xs, ys, ylo = [0.0, 1.0], [1.0], 0.0
    box = (min(xs) - 1.0, min(ylo, 0.0), max(xs) + 1.0, max(ys) * 1.1 + 1e-9)
    cv = SvgCanvas(box, width=600)
    colors = ["#000000", "#1f4fd0", "#c03020", "#208050"]
    for ci, (name, pts) in enumerate(sorted(series.items())):
        color = colors[ci % len(colors)]
        cv.polyline([(x, m) for x, m, _ in pts], stroke=color)
        for x, m, hw in pts:
            cv.line(x, m - hw, x, m + hw, stroke=color)
        cv.text(box[0] + 0.5, box[3] - (ci + 1) * (box[3] - box[1]) * 0.05,
                name, size=12, fill=color)
    if title:
        cv.text(box[0] + 0.5, box[3] - 0.01 * (box[3] - box[1]), title, size=14)
    if labels:
        cv.text(box[0] + 0.5, box[1] + 0.02 * (box[3] - box[1]), labels, size=11)
    cv.write(path)
