"""Deterministic SVG rendering of the polygon, spokes, walls, and cuts.

Points are drawn from a layout's integer grid.  A screen coordinate is one
int true division, which CPython rounds correctly, as it does ``float`` of
the same ``Fraction``, so it does not depend on the grid's scale.
"""
from __future__ import annotations

from .cover import BranchCutLayout
from .errors import InvariantViolated

_WALL_COLORS = {(0, 1): "#1f5fbf", (1, 0): "#bf1f2f"}
VIEW = 640
MARGIN = 40


def _mapper(grid):
    """Screen coordinates ("%.3f" strings) of the points of ``grid``."""
    xs, ys = zip(*grid.vertices)
    lo_x, lo_y = min(xs), min(ys)
    span = max(max(xs) - lo_x, max(ys) - lo_y, grid.scale)
    width = VIEW - 2 * MARGIN

    def to_screen(p):
        return (f"{MARGIN + (p[0] - lo_x) * width / span:.3f}",
                f"{VIEW - MARGIN - (p[1] - lo_y) * width / span:.3f}")

    return to_screen


def _polyline(points, to_screen, stroke, extra=""):
    pts = " ".join(",".join(to_screen(p)) for p in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.6" {extra}/>')


def render_svg(disk, net=None, layout=None) -> str:
    """Figure of the disk model, plus an optional network drawn on the
    grid of its own layout, which ``layout`` must be (None without one)."""
    if layout is not (None if net is None else net.layout):
        raise InvariantViolated("a network is drawn with its own layout")
    grid = (BranchCutLayout(disk, (), disk.scale) if net is None
            else layout).grid
    to_screen = _mapper(grid)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
             f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">',
             '<rect width="100%" height="100%" fill="white"/>']
    boundary = grid.vertices + grid.vertices[:1]
    parts.append(_polyline(boundary, to_screen, "#202020"))
    for spoke in grid.spokes:
        parts.append(_polyline(spoke, to_screen, "#b0b0b0",
                               'stroke-dasharray="2,3"'))
        x, y = to_screen(spoke[1])
        parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#b0b0b0"/>')
    for i, v in enumerate(grid.vertices):
        x, y = to_screen(v)
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#202020"/>')
        parts.append(f'<text x="{float(x) + 6:.3f}" y="{float(y) - 6:.3f}" '
                     f'font-size="12" fill="#202020">s{i}</text>')
    if net is not None:
        for cut in layout.cuts:
            parts.append(_polyline(cut.polyline, to_screen, "#707070",
                                   'stroke-dasharray="6,4"'))
        for p in layout.branch_points:
            x, y = to_screen(p)
            parts.append(f'<g stroke="#202020" stroke-width="1.4">'
                         f'<line x1="{float(x) - 4:.3f}" y1="{float(y) - 4:.3f}" '
                         f'x2="{float(x) + 4:.3f}" y2="{float(y) + 4:.3f}"/>'
                         f'<line x1="{float(x) - 4:.3f}" y1="{float(y) + 4:.3f}" '
                         f'x2="{float(x) + 4:.3f}" y2="{float(y) - 4:.3f}"/></g>')
        for w in net.walls:
            color = _WALL_COLORS.get(tuple(w.label), "#3f8f3f")
            parts.append(_polyline(w.polyline, to_screen, color))
            x, y = to_screen(w.end)
            lbl = f"{w.label[0] + 1}{w.label[1] + 1}"
            parts.append(f'<text x="{float(x) + 4:.3f}" '
                         f'y="{float(y) - 4:.3f}" font-size="10" '
                         f'fill="{color}">{lbl}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
