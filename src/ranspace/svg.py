"""SVG rendering of tracks and homotopies: one frame per track sample or
homotopy row.

Spaces are drawn schematically (circle as a ring, interval as a segment,
graph with vertices on a ring and each edge a quadratic curve),
configurations as filled dots, and the basepoint circled.  Frames are
drawn from the cell arrays (``enc`` and ``counts``) a row at a time;
the graph layout and edge curves are computed once per render.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

from .space import Circle, Interval, MetricGraph, Space
from .tracks import Homotopy, Track

SIZE = 400.0
MARGIN = 40.0


def _header() -> str:
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(SIZE)}" height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">'
    )


def _graph_curves(space: MetricGraph, layout: list) -> list:
    """Each edge's quadratic curve as (start, control point, end); parallel
    edges fan out."""
    pairs = [frozenset((u, v)) for u, v, _ in space.edges]
    siblings, ranks, curves = Counter(pairs), Counter(), []
    for (u, v, _), pair in zip(space.edges, pairs):
        rank = ranks[pair]
        ranks[pair] += 1
        offset = (rank - (siblings[pair] - 1) / 2.0) * 60.0
        (x0, y0), (x1, y1) = layout[u], layout[v]
        length = math.hypot(x1 - x0, y1 - y0)
        if u == v or length < 1e-9:
            control = (x0 + 80.0 + 40.0 * rank, y0)
        else:
            nx, ny = -(y1 - y0) / length, (x1 - x0) / length
            control = ((x0 + x1) / 2.0 + nx * offset, (y0 + y1) / 2.0 + ny * offset)
        curves.append((layout[u], control, layout[v]))
    return curves


def _scene(space: Space) -> tuple:
    """The space's backdrop elements, and the drawing position of a point
    given as its slot values (see ran._pad): a coordinate, or an (edge, t)
    pair on graphs."""
    r = SIZE / 2.0 - MARGIN
    if isinstance(space, Circle):

        def circle_xy(coord):
            theta = 2.0 * math.pi * (coord / space.circumference) - math.pi / 2.0
            return (SIZE / 2.0 + r * math.cos(theta), SIZE / 2.0 + r * math.sin(theta))

        ring = f'<circle cx="{SIZE / 2}" cy="{SIZE / 2}" r="{r}" fill="none" stroke="#999" stroke-width="2"/>'
        return [ring], circle_xy
    if isinstance(space, Interval):
        y = SIZE / 2.0
        segment = f'<line x1="{MARGIN}" y1="{y}" x2="{SIZE - MARGIN}" y2="{y}" stroke="#999" stroke-width="2"/>'
        return [segment], lambda coord: (MARGIN + (SIZE - 2 * MARGIN) * (coord / space.length), y)
    layout = []
    for v in range(space.num_vertices):
        theta = 2.0 * math.pi * v / space.num_vertices - math.pi / 2.0
        layout.append((SIZE / 2.0 + r * math.cos(theta), SIZE / 2.0 + r * math.sin(theta)))
    curves = _graph_curves(space, layout)

    def graph_xy(point):
        (x0, y0), (cx, cy), (x1, y1) = curves[int(point[0])]
        t = point[1]
        return ((1 - t) ** 2 * x0 + 2 * (1 - t) * t * cx + t**2 * x1,
                (1 - t) ** 2 * y0 + 2 * (1 - t) * t * cy + t**2 * y1)

    backdrop = [f'<path d="M {x0:.2f} {y0:.2f} Q {cx:.2f} {cy:.2f} {x1:.2f} {y1:.2f}" '
                'fill="none" stroke="#999" stroke-width="2"/>' for (x0, y0), (cx, cy), (x1, y1) in curves]
    backdrop.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#999"/>' for x, y in layout)
    return backdrop, graph_xy


def _write_frames(space: Space, out_dir: str, basepoint, rows, dots) -> list:
    """Write frame_0000.svg, ... to out_dir, one per encoded row of cells
    (enc, counts) in rows: the space, the basepoint ring if any, then the
    dot elements that dots makes of the positions of each cell's points."""
    backdrop, xy = _scene(space)
    head = [_header(), *backdrop]
    if basepoint is not None:
        bx, by = xy(basepoint)
        head.append(
            f'<circle cx="{bx:.2f}" cy="{by:.2f}" r="11" fill="none" stroke="#c33" stroke-width="2"/>'
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (enc, counts) in enumerate(rows):
        cells = [list(map(xy, cell[:k])) for cell, k in zip(enc.tolist(), counts.tolist())]
        path = out / f"frame_{i:04d}.svg"
        path.write_text("\n".join([*head, *dots(cells), "</svg>"]) + "\n")
        written.append(str(path))
    return written


def render_track(track: Track, out_dir: str, basepoint=None, stride: int = 1) -> list:
    """One frame for every stride-th sampled time; stride must be positive."""

    def dots(cells):
        return [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="#136"/>' for x, y in cells[0]]

    rows = zip(track.enc[0, ::stride, None], track.counts[0, ::stride, None])
    return _write_frames(track.space, out_dir, basepoint, rows, dots)


def render_homotopy(h: Homotopy, out_dir: str, basepoint=None, stride: int = 1) -> list:
    """One frame for every stride-th deformation row, configurations
    overlaid per frame; stride must be positive."""

    def dots(cells):
        out = []
        for k, cell in enumerate(cells):
            tone = int(40 + 160 * (k / max(len(cells) - 1, 1)))
            out.extend(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                f'fill="rgb({tone},{tone // 2 + 30},96)" fill-opacity="0.25"/>'
                for x, y in cell
            )
        return out

    return _write_frames(h.space, out_dir, basepoint, zip(h.enc[::stride], h.counts[::stride]), dots)
