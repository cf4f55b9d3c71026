"""Static rendering of result CSVs into inline-SVG HTML.

Charts are plain SVG text with fixed number formatting, so rendering the
same inputs twice yields byte-identical files. The layouts understood by
:func:`render_csv` are the CSVs the other commands emit: loss traces,
threshold sweeps, HPO trial logs, and partial-dependence grids.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from .data import read_table
from .errors import ParseError

WIDTH = 640
HEIGHT = 360
MARGIN = {"left": 64, "right": 20, "top": 30, "bottom": 48}

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

# endpoints of the heat-map color ramp (light to dark blue)
_RAMP_LO = (247, 251, 255)
_RAMP_HI = (8, 48, 107)


def _fmt(v: float) -> str:
    """Fixed-width-ish label formatting shared by all charts."""
    return f"{float(v):.6g}"


def _ramp(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(_RAMP_LO, _RAMP_HI))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _bounds(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        # degenerate span: pad so the single value sits mid-plot
        lo -= 0.5
        hi += 0.5
    return lo, hi


def _tick_values(lo: float, hi: float, n: int = 5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Frame:
    """Shared plot frame: background, axes, ticks, and data-space mapping."""

    def __init__(self, x_values, y_values, title, x_label, y_label):
        self.x_lo, self.x_hi = _bounds(x_values)
        self.y_lo, self.y_hi = _bounds(y_values)
        self.left = MARGIN["left"]
        self.right = WIDTH - MARGIN["right"]
        self.top = MARGIN["top"]
        self.bottom = HEIGHT - MARGIN["bottom"]
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
            f'font-family="sans-serif" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>',
            f'<text x="{(self.left + self.right) // 2}" y="{HEIGHT - 10}" '
            f'text-anchor="middle">{escape(x_label)}</text>',
            f'<text x="16" y="{(self.top + self.bottom) // 2}" '
            f'text-anchor="middle" transform="rotate(-90 16 '
            f'{(self.top + self.bottom) // 2})">{escape(y_label)}</text>',
        ]

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)

    def draw_axes(self) -> None:
        p = self.parts
        for xv in _tick_values(self.x_lo, self.x_hi):
            x = self.px(xv)
            p.append(f'<line x1="{x:.2f}" y1="{self.top}" x2="{x:.2f}" '
                     f'y2="{self.bottom}" stroke="#dddddd"/>')
            p.append(f'<text x="{x:.2f}" y="{self.bottom + 16}" '
                     f'text-anchor="middle">{_fmt(xv)}</text>')
        for yv in _tick_values(self.y_lo, self.y_hi):
            y = self.py(yv)
            p.append(f'<line x1="{self.left}" y1="{y:.2f}" x2="{self.right}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
            p.append(f'<text x="{self.left - 6}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{_fmt(yv)}</text>')
        p.append(f'<rect x="{self.left}" y="{self.top}" '
                 f'width="{self.right - self.left}" '
                 f'height="{self.bottom - self.top}" fill="none" '
                 f'stroke="#444444"/>')

    def close(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def line_chart(series, title, x_label, y_label) -> str:
    """Render named (xs, ys) polylines on one frame.

    ``series`` is a list of (name, xs, ys) with equal-length xs/ys.
    """
    drawable = [(name, xs, ys) for name, xs, ys in series if len(xs) > 0]
    if not drawable:
        raise ValueError("line_chart needs at least one non-empty series")
    all_x = [x for _, xs, _ in drawable for x in xs]
    all_y = [y for _, _, ys in drawable for y in ys]
    frame = _Frame(all_x, all_y, title, x_label, y_label)
    frame.draw_axes()
    for i, (name, xs, ys) in enumerate(drawable):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in zip(xs, ys)
        )
        if len(xs) == 1:
            frame.parts.append(
                f'<circle cx="{frame.px(xs[0]):.2f}" '
                f'cy="{frame.py(ys[0]):.2f}" r="3" fill="{color}"/>')
        else:
            frame.parts.append(f'<polyline points="{points}" fill="none" '
                               f'stroke="{color}" stroke-width="1.5"/>')
        if len(drawable) > 1:
            ly = frame.top + 14 + 16 * i
            lx = frame.right - 150
            frame.parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                               f'y2="{ly - 4}" stroke="{color}" '
                               f'stroke-width="1.5"/>')
            frame.parts.append(f'<text x="{lx + 28}" y="{ly}">'
                               f'{escape(name)}</text>')
    return frame.close()


def heat_map(xs, ys, values, title, x_label, y_label) -> str:
    """Render a dense grid of values (len(xs) columns x len(ys) rows)."""
    flat = [v for row in values for v in row]
    lo, hi = min(flat), max(flat)
    span = (hi - lo) or 1.0
    frame = _Frame([0, len(xs)], [0, len(ys)], title, x_label, y_label)
    cell_w = (frame.right - frame.left) / len(xs)
    cell_h = (frame.bottom - frame.top) / len(ys)
    for i in range(len(xs)):
        for j in range(len(ys)):
            color = _ramp((values[i][j] - lo) / span)
            x = frame.left + i * cell_w
            y = frame.bottom - (j + 1) * cell_h
            frame.parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{color}"/>')
    for i, xv in enumerate(xs):
        x = frame.left + (i + 0.5) * cell_w
        frame.parts.append(f'<text x="{x:.2f}" y="{frame.bottom + 16}" '
                           f'text-anchor="middle">{_fmt(xv)}</text>')
    for j, yv in enumerate(ys):
        y = frame.bottom - (j + 0.5) * cell_h
        frame.parts.append(f'<text x="{frame.left - 6}" y="{y + 4:.2f}" '
                           f'text-anchor="end">{_fmt(yv)}</text>')
    frame.parts.append(
        f'<text x="{frame.right}" y="{frame.top - 6}" text-anchor="end">'
        f'range {_fmt(lo)} (light) to {_fmt(hi)} (dark)</text>')
    frame.parts.append(f'<rect x="{frame.left}" y="{frame.top}" '
                       f'width="{frame.right - frame.left}" '
                       f'height="{frame.bottom - frame.top}" fill="none" '
                       f'stroke="#444444"/>')
    return frame.close()


# --- CSV recognition --------------------------------------------------------------


def _column(rows, idx):
    """Float column with empty cells dropped; returns (row_positions, values)."""
    pos, vals = [], []
    for i, row in enumerate(rows):
        cell = row[idx].strip()
        if cell:
            pos.append(i)
            vals.append(float(cell))
    return pos, vals


def render_csv(path) -> tuple[str, str] | None:
    """Render one known CSV layout to (title, svg); None when unrecognized
    or without rows. A file ``data.read_table`` refuses, or a row of a
    recognized layout that does not parse, raises ParseError."""
    path = Path(path)
    header, rows = read_table(path)
    if not rows:
        return None
    try:
        return _render_rows(path.stem, header, rows)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: a row does not fit its layout: {exc}") from exc


def _render_rows(title: str, header: list[str], rows) -> tuple[str, str] | None:
    if header == ["epoch", "loss"]:
        xs = [float(r[0]) for r in rows]
        ys = [float(r[1]) for r in rows]
        return title, line_chart([("loss", xs, ys)], title, "epoch", "loss")

    if header[:2] == ["threshold", "recall"] and "detections" in header:
        thresholds = [float(r[0]) for r in rows]
        series = []
        for name in ("recall", "precision", "f_beta", "accuracy"):
            idx = header.index(name)
            pos, vals = _column(rows, idx)
            series.append((name, [thresholds[i] for i in pos], vals))
        return title, line_chart(series, title, "threshold", "metric")

    if header[0] == "trial" and header[-2:] == ["objective", "status"]:
        xs = [float(r[0]) for r in rows]
        ys = [float(r[-2]) for r in rows]
        best = []
        run = float("inf")
        for y, row in zip(ys, rows):
            if row[-1] == "done":
                run = min(run, y)
            best.append(run if run != float("inf") else y)
        return title, line_chart(
            [("objective", xs, ys), ("best so far", xs, best)],
            title, "trial", "objective")

    if len(header) == 2 and header[1] == "mean_objective":
        xs = [float(r[0]) for r in rows]
        ys = [float(r[1]) for r in rows]
        return title, line_chart([("mean objective", xs, ys)],
                                 title, header[0], "mean objective")

    if len(header) == 3 and header[2] == "mean_objective":
        xs = sorted({float(r[0]) for r in rows})
        ys = sorted({float(r[1]) for r in rows})
        lookup = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        if len(lookup) != len(xs) * len(ys):
            return None
        values = [[lookup[(x, y)] for y in ys] for x in xs]
        return title, heat_map(xs, ys, values, title, header[0], header[1])

    return None


def render_index(entries) -> str:
    """One self-contained HTML page embedding (title, svg) figures."""
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>sentinel report</title>",
        "<style>body{font-family:sans-serif;max-width:720px;margin:2em auto}"
        "figure{margin:2em 0}figcaption{font-weight:bold;margin-bottom:0.5em}"
        "</style>",
        "</head><body>",
        "<h1>sentinel report</h1>",
    ]
    for title, svg in entries:
        lines.append(f"<figure><figcaption>{escape(title)}</figcaption>")
        lines.append(svg)
        lines.append("</figure>")
    lines.append("</body></html>")
    return "\n".join(lines) + "\n"
