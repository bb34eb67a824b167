"""JSON serialization for spaces, tracks and homotopies.

Documents round-trip bit-exactly: floats are emitted with Python's
shortest exact representation and loading rebuilds values without any
renormalization that could move a bit.  ``dump`` writes exactly what
``json.dump(doc, fp, indent=1)`` writes, plus a newline.  Reading goes
through one decoder, ``grid_from_json``, which turns the cells of a
document into a ``CellGrid`` of canonical points with vectorized schema
checks; non-finite coordinates and grid values are schema errors.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import IO

import numpy as np

from .errors import InvalidPoint, RanspaceError, SchemaError
from .ran import _pad
from .space import Circle, GraphPoint, Interval, MetricGraph, Space
from .tracks import CellGrid, Homotopy, Track, _validate_times


def space_to_json(space: Space) -> dict:
    if isinstance(space, Circle):
        return {"kind": "circle", "circumference": space.circumference}
    if isinstance(space, Interval):
        return {"kind": "interval", "length": space.length}
    return {
        "kind": "graph",
        "vertices": space.num_vertices,
        "edges": [[u, v, l] for u, v, l in space.edges],
    }


def space_from_json(doc) -> Space:
    try:
        kind = doc["kind"]
        if kind == "circle":
            return Circle(float(doc["circumference"]))
        if kind == "interval":
            return Interval(float(doc["length"]))
        if kind == "graph":
            return MetricGraph(
                int(doc["vertices"]),
                tuple((int(u), int(v), float(l)) for u, v, l in doc["edges"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad space document: {exc}") from exc
    raise SchemaError(f"unknown space kind {doc.get('kind')!r}")


def point_to_json(p):
    if isinstance(p, GraphPoint):
        return {"edge": p.edge, "t": p.t}
    return p


def _point_lists(space: Space, configs) -> list:
    """The points of each configuration as JSON values."""
    if isinstance(space, MetricGraph):
        return [list(map(point_to_json, c.points)) for c in configs]
    return [list(c.points) for c in configs]


def _row_point_lists(space: Space, enc: np.ndarray, counts: np.ndarray) -> list:
    """The points of each cell of one encoded grid row as JSON values."""
    sizes = counts.tolist()
    if isinstance(space, MetricGraph):
        edges, ts = enc[..., 0].astype(np.intp).tolist(), enc[..., 1].tolist()
        return [[{"edge": e, "t": t} for e, t in zip(es[:k], tt[:k])] for es, tt, k in zip(edges, ts, sizes)]
    return [pts[:k] for pts, k in zip(enc.tolist(), sizes)]


def _numbers(values, what: str) -> np.ndarray:
    """A list of finite JSON numbers as a float array."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise SchemaError(f"{what} must be a list of numbers")
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise SchemaError(f"{what} must be finite")
    return arr


def _canonical_points(space: Space, points: list) -> np.ndarray:
    """The canonical points the JSON points name: coordinates, or (edge, t)
    rows on graphs; a canonical coordinate reads back bit for bit."""
    try:
        if isinstance(space, MetricGraph):
            raw = np.stack([_numbers([p["edge"] for p in points], "edge indices"),
                            _numbers([p["t"] for p in points], "edge parameters")], axis=-1)
            return space.canon_many(raw)
        raw = _numbers(points, "point coordinates")
        c = space.canon_many(raw)
    except InvalidPoint as exc:
        raise SchemaError(f"bad point: {exc}") from exc
    return np.where(c == raw, raw, c)


def grid_from_json(doc) -> CellGrid:
    """The cells of a homotopy document, or of a track document (one row
    at s = 0), as one CellGrid.

    Every cell must be a non-empty list of points on the document's space,
    strictly sorted once canonical; rows must match the time grid, which
    runs from 0 to 1 and, like the deformation grid, strictly increases.
    The declared cap is recorded, not enforced.  Any breach is a
    SchemaError.
    """
    try:
        space = space_from_json(doc["space"])
        cap = int(doc["cap"])
        if "cells" in doc:
            s_grid, times, rows = _numbers(doc["s_grid"], "s_grid"), doc["t_grid"], doc["cells"]
        else:
            s_grid, times, rows = np.zeros(1), doc["times"], [doc["configs"]]
        t_grid = _numbers(times, "time grid")
        _validate_times(t_grid.tolist())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad document: {exc}") from exc
    if not isinstance(rows, list) or not rows or set(map(type, rows)) != {list}:
        raise SchemaError("cells must be a non-empty list of rows")
    if len(rows) != len(s_grid):
        raise SchemaError("one row of cells per deformation sample")
    if not (np.diff(s_grid) > 0).all():
        raise SchemaError("deformation grid must be strictly increasing")
    if any(len(row) != len(t_grid) for row in rows):
        raise SchemaError("ragged homotopy grid")
    cells = [c for row in rows for c in row]
    if set(map(type, cells)) != {list}:
        raise SchemaError("a configuration must be a list of points")
    counts = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    if not counts.all():
        raise SchemaError("empty configuration in document")
    try:
        flat = _canonical_points(space, [p for c in cells for p in c])
    except (KeyError, TypeError, OverflowError) as exc:
        raise SchemaError(f"bad point: {exc}") from exc
    enc = _pad(space, counts, flat)
    # canonical points compare as their sort keys: (edge, t) on graphs
    paired = np.arange(1, enc.shape[1]) < counts[:, None]
    if isinstance(space, MetricGraph):
        e, t = enc[..., 0], enc[..., 1]
        later = (e[:, 1:] > e[:, :-1]) | ((e[:, 1:] == e[:, :-1]) & (t[:, 1:] > t[:, :-1]))
    else:
        later = enc[:, 1:] > enc[:, :-1]
    if (paired & ~later).any():
        raise SchemaError("configuration points must be strictly sorted")
    shape = (len(rows), len(t_grid))
    return CellGrid(space, cap, s_grid, t_grid, enc.reshape(shape + enc.shape[1:]), counts.reshape(shape))


def certificate_from_json(doc) -> dict | None:
    certificate = doc.get("certificate")
    if certificate is not None and not isinstance(certificate, dict):
        raise SchemaError("certificate must be an object")
    return certificate


def track_to_json(track: Track) -> dict:
    return {
        "space": space_to_json(track.space),
        "cap": track.cap,
        "kind": track.kind,
        "times": list(track.times),
        "configs": _point_lists(track.space, track.configs),
    }


def track_from_json(doc) -> Track:
    grid = grid_from_json(doc)
    try:
        return Track(grid.space, tuple(grid.t_grid.tolist()), grid.row(0), doc["kind"], grid.cap)
    except (KeyError, RanspaceError, ValueError) as exc:
        raise SchemaError(f"bad track document: {exc}") from exc


def homotopy_to_json(h: Homotopy, certificate: dict | None = None) -> dict:
    grid = h.grid
    doc = {
        "space": space_to_json(h.space),
        "cap": h.cap,
        "s_grid": grid.s_grid.tolist(),
        "t_grid": grid.t_grid.tolist(),
        "cells": [_row_point_lists(h.space, enc, counts) for enc, counts in zip(grid.enc, grid.counts)],
    }
    if certificate is not None:
        doc["certificate"] = certificate
    return doc


def homotopy_from_json(doc) -> tuple[Homotopy, dict | None]:
    if "cells" not in doc:
        raise SchemaError("not a homotopy document: no cells")
    grid = grid_from_json(doc)
    certificate = certificate_from_json(doc)
    try:
        h = Homotopy.from_grid(grid)
    except (RanspaceError, ValueError) as exc:
        raise SchemaError(f"bad homotopy document: {exc}") from exc
    return h, certificate


# -- writing ------------------------------------------------------------------

# keys whose values are lists of point lists; dump writes them row by row
_POINT_LIST_KEYS = ("cells", "configs")


def _graph_point_text(p, pad: str) -> str:
    if type(p) is not dict or list(p) != ["edge", "t"] or type(p["edge"]) is not int or type(p["t"]) is not float:
        raise TypeError("not a graph point")
    return f'{{\n{pad} "edge": {p["edge"]},\n{pad} "t": {p["t"]!r}\n{pad}}}'


def _cells_template(sizes: tuple, pad: str) -> str:
    """json.dumps(row, indent=1) at indent pad of a row of float lists of
    the given sizes, with a %r field for each float."""
    inner = pad + " "
    sep = ",\n" + inner
    cell = {k: "[\n" + inner + " " + (sep + " ").join(["%r"] * k) + "\n" + inner + "]" for k in set(sizes)}
    return "[\n" + inner + sep.join(map(cell.__getitem__, sizes)) + "\n" + pad + "]"


def _point_lists_text(value, pad: str, templates: dict) -> str:
    """json.dumps(value, indent=1), its first line at indent pad, for lists
    nested to any depth around lists of floats or graph points; TypeError
    on anything else.  templates caches _cells_template by (sizes, pad)."""
    if type(value) is not list:
        raise TypeError("not a list")
    if not value:
        return "[]"
    inner = pad + " "
    sep = ",\n" + inner
    first = value[0]
    if type(first) is list and first and type(first[0]) is float and all(value):
        # a row of circle or interval cells, the hot loop: one %-format of
        # the template for its cell sizes
        points = tuple(chain.from_iterable(value))
        if set(map(type, value)) != {list} or set(map(type, points)) != {float}:
            raise TypeError("not a row of float lists")
        key = (tuple(map(len, value)), pad)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _cells_template(*key)
        return template % points
    if type(first) is list:
        body = sep.join([_point_lists_text(v, inner, templates) for v in value])
    elif type(first) is dict:
        body = sep.join([_graph_point_text(p, inner) for p in value])
    else:
        body = sep.join(map(float.__repr__, value))
    return "[\n" + inner + body + "\n" + pad + "]"


def _json_text(value, pad: str, templates: dict) -> str:
    """json.dumps(value, indent=1) with its first line at indent pad."""
    try:
        text = _point_lists_text(value, pad, templates)
        # finite float reprs hold no "n"; json writes nan and inf otherwise
        if "n" not in text:
            return text
    except TypeError:
        pass
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(value, indent=1).replace("\n", "\n" + pad)


def dump(doc: dict, fp: IO[str]) -> None:
    """Write json.dump(doc, fp, indent=1) and a newline, byte for byte.

    The point lists under "cells" and "configs" are written one row at a
    time: a row of float lists is one %-format of a text template made
    once per dump for each pattern of cell sizes, other point lists join
    float.__repr__ strings under precomputed indents, and every other key
    goes through json.dumps.
    """
    if not isinstance(doc, dict) or not doc:
        fp.write(json.dumps(doc, indent=1) + "\n")
        return
    templates = {}
    sep = "{\n "
    for key, value in doc.items():
        fp.write(sep)
        sep = ",\n "
        if key in _POINT_LIST_KEYS and type(value) is list and value:
            fp.write(json.dumps(key) + ": [")
            for i, row in enumerate(value):
                fp.write((",\n  " if i else "\n  ") + _json_text(row, "  ", templates))
            fp.write("\n ]")
        else:
            # {key: value} alone, less its braces: json's key coercion and indents
            fp.write(json.dumps({key: value}, indent=1)[3:-2])
    fp.write("\n}\n")


def load(fp: IO[str]) -> dict:
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("a document must be a JSON object")
    return doc
