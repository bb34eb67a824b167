"""SVG rendering of configurations: one frame per homotopy row.

Spaces are drawn schematically (circle as a ring, interval as a segment,
graph with vertices on a ring), configurations as filled dots, and the
basepoint circled.
"""

from __future__ import annotations

import math
from pathlib import Path

from .space import Circle, GraphPoint, Interval, MetricGraph, Space
from .tracks import Homotopy, Track

SIZE = 400.0
MARGIN = 40.0


def _header() -> str:
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(SIZE)}" height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">'
    )


def _circle_xy(space: Circle, coord: float) -> tuple:
    theta = 2.0 * math.pi * (coord / space.circumference) - math.pi / 2.0
    r = SIZE / 2.0 - MARGIN
    return (SIZE / 2.0 + r * math.cos(theta), SIZE / 2.0 + r * math.sin(theta))


def _interval_xy(space: Interval, coord: float) -> tuple:
    x = MARGIN + (SIZE - 2 * MARGIN) * (coord / space.length)
    return (x, SIZE / 2.0)


def _graph_layout(space: MetricGraph) -> list:
    r = SIZE / 2.0 - MARGIN
    out = []
    for v in range(space.num_vertices):
        theta = 2.0 * math.pi * v / space.num_vertices - math.pi / 2.0
        out.append((SIZE / 2.0 + r * math.cos(theta), SIZE / 2.0 + r * math.sin(theta)))
    return out


def _graph_edge_control(space: MetricGraph, idx: int, layout: list) -> tuple:
    """Control point for the quadratic edge curve; parallel edges fan out."""
    u, v, _ = space.edges[idx]
    siblings = [i for i, (a, b, _) in enumerate(space.edges) if {a, b} == {u, v}]
    rank = siblings.index(idx)
    offset = (rank - (len(siblings) - 1) / 2.0) * 60.0
    (x0, y0), (x1, y1) = layout[u], layout[v]
    mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    length = math.hypot(x1 - x0, y1 - y0)
    if u == v or length < 1e-9:
        return (x0 + 80.0 + 40.0 * rank, y0)
    nx, ny = -(y1 - y0) / length, (x1 - x0) / length
    return (mx + nx * offset, my + ny * offset)


def _graph_point_xy(space: MetricGraph, layout: list, p: GraphPoint) -> tuple:
    u, v, _ = space.edges[p.edge]
    (x0, y0), (x1, y1) = layout[u], layout[v]
    cx, cy = _graph_edge_control(space, p.edge, layout)
    t = p.t
    x = (1 - t) ** 2 * x0 + 2 * (1 - t) * t * cx + t**2 * x1
    y = (1 - t) ** 2 * y0 + 2 * (1 - t) * t * cy + t**2 * y1
    return (x, y)


def _space_backdrop(space: Space) -> list:
    if isinstance(space, Circle):
        r = SIZE / 2.0 - MARGIN
        return [
            f'<circle cx="{SIZE / 2}" cy="{SIZE / 2}" r="{r}" fill="none" stroke="#999" stroke-width="2"/>'
        ]
    if isinstance(space, Interval):
        y = SIZE / 2.0
        return [
            f'<line x1="{MARGIN}" y1="{y}" x2="{SIZE - MARGIN}" y2="{y}" stroke="#999" stroke-width="2"/>'
        ]
    layout = _graph_layout(space)
    parts = []
    for idx, (u, v, _) in enumerate(space.edges):
        (x0, y0), (x1, y1) = layout[u], layout[v]
        cx, cy = _graph_edge_control(space, idx, layout)
        parts.append(
            f'<path d="M {x0:.2f} {y0:.2f} Q {cx:.2f} {cy:.2f} {x1:.2f} {y1:.2f}" '
            'fill="none" stroke="#999" stroke-width="2"/>'
        )
    for x, y in layout:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#999"/>')
    return parts


def _point_xy(space: Space, p) -> tuple:
    if isinstance(space, Circle):
        return _circle_xy(space, p)
    if isinstance(space, Interval):
        return _interval_xy(space, p)
    return _graph_point_xy(space, _graph_layout(space), p)


def _write_frames(space: Space, out_dir: str, basepoint, frames) -> list:
    """Write frame_0000.svg, ... to out_dir, one per item of frames: the
    space, the basepoint ring if any, then the item's dot elements."""
    head = [_header()]
    head.extend(_space_backdrop(space))
    if basepoint is not None:
        bx, by = _point_xy(space, basepoint)
        head.append(
            f'<circle cx="{bx:.2f}" cy="{by:.2f}" r="11" fill="none" stroke="#c33" stroke-width="2"/>'
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, dots in enumerate(frames):
        path = out / f"frame_{i:04d}.svg"
        path.write_text("\n".join([*head, *dots, "</svg>"]) + "\n")
        written.append(str(path))
    return written


def render_track(track: Track, out_dir: str, basepoint=None, stride: int = 1) -> list:
    """One frame per sampled time (honoring the stride)."""
    if stride < 1:
        raise ValueError("stride must be positive")

    def dots(config):
        for p in config.points:
            x, y = _point_xy(track.space, p)
            yield f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="#136"/>'

    frames = (dots(track.configs[i]) for i in range(0, len(track.times), stride))
    return _write_frames(track.space, out_dir, basepoint, frames)


def render_homotopy(h: Homotopy, out_dir: str, basepoint=None) -> list:
    """One frame per deformation row, configurations overlaid per frame."""

    def dots(row):
        for k, cell in enumerate(row):
            tone = int(40 + 160 * (k / max(len(row) - 1, 1)))
            for p in cell.points:
                x, y = _point_xy(h.space, p)
                yield (
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                    f'fill="rgb({tone},{tone // 2 + 30},96)" fill-opacity="0.25"/>'
                )

    return _write_frames(h.space, out_dir, basepoint, (dots(row) for row in h.cells))
