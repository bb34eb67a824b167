"""JSON serialization for spaces, tracks and homotopies.

Documents round-trip bit-exactly: floats are emitted with Python's
shortest exact representation and loading rebuilds values without any
renormalization that could move a bit.  ``dump`` writes exactly what
``json.dump(doc, fp, indent=1)`` writes, plus a newline;
``write_homotopy`` writes those bytes from a homotopy's cell arrays, one
row block of ``ran.blocks`` at a time.  Both
write cells through one row formatter, ``_rows_text``.  Reading goes
through one decoder, ``grid_from_json``, which turns the cells of a
document into a ``Homotopy`` of canonical points with vectorized schema
checks; non-finite coordinates and grid values are schema errors.  The
homotopy records the declared cap; ``track_from_json`` and
``homotopy_from_json`` reject a cell above it, while ``verify`` reads the
decoder's homotopy and reports such a cell.  ``tracks`` owns the
certificate; ``certificate_from_json`` types a stored one by the fields
of ``tracks.ContractionCertificate`` and ``tracks.ContinuityReport``.

``homotopy_to_json`` builds its cell tree, and ``load`` parses a document,
with the cyclic garbage collector paused (``_collector_paused``): these
trees hold no reference cycles, but every collection their allocations
trigger rescans them.  The collector's state at entry is restored on return
and on error.  That state is process-wide: a ``gc.enable()`` or
``gc.disable()`` another thread makes during the pause is overwritten.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from contextlib import contextmanager
from itertools import chain
from typing import IO

import numpy as np

from .errors import InvalidPoint, RanspaceError, SchemaError
from .ran import _pad, blocks
from .space import Circle, GraphPoint, Interval, MetricGraph, Space
from .tracks import ContinuityReport, ContractionCertificate, Homotopy, Track


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore the state it was in.

    A document's tree of lists and dicts holds no reference cycle, but each
    collection its allocations trigger rescans every container built so
    far.  Wrap a whole tree build: the allocation count keeps growing while
    the collector is paused, so a pause per row would still collect after
    each row."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


# each scalar kind an annotation names: the types it loads as (a boolean is only a bool), and its name
_SCALARS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"), "str": ((str,), "a string"),
            "bool": ((bool,), "a boolean")}


def _scalar(value, what: str, kind: str = "float"):
    """value if a JSON scalar of the kind, one of _SCALARS; else SchemaError."""
    if type(value) not in _SCALARS[kind][0]:
        raise SchemaError(f"{what} must be {_SCALARS[kind][1]}")
    return value


def space_from_json(doc) -> Space:
    try:
        kind = doc["kind"]
        if kind == "circle":
            return Circle(float(_scalar(doc["circumference"], "circumference")))
        if kind == "interval":
            return Interval(float(_scalar(doc["length"], "length")))
        if kind == "graph":
            edges = tuple((_scalar(u, "edge endpoint", "int"), _scalar(v, "edge endpoint", "int"),
                           float(_scalar(l, "edge length"))) for u, v, l in doc["edges"])
            return MetricGraph(_scalar(doc["vertices"], "vertex count", "int"), edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad space document: {exc}") from exc
    raise SchemaError(f"unknown space kind {doc.get('kind')!r}")


def point_to_json(p):
    if isinstance(p, GraphPoint):
        return {"edge": p.edge, "t": p.t}
    return p


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


def grid_from_json(doc) -> Homotopy:
    """The cells of a homotopy document, or of a track document (one row
    at s = 0), as one Homotopy.

    Every cell must be a non-empty list of points on the document's space,
    strictly sorted once canonical, and each row as long as the time grid;
    the grids must pass Homotopy's checks.  The declared cap, an integer,
    is recorded, not enforced.  Any breach is a SchemaError.
    """
    try:
        space = space_from_json(doc["space"])
        cap = _scalar(doc["cap"], "cap", "int")
        if "cells" in doc:
            s_grid, times, rows = _numbers(doc["s_grid"], "s_grid"), doc["t_grid"], doc["cells"]
        else:
            s_grid, times, rows = np.zeros(1), doc["times"], [doc["configs"]]
        t_grid = _numbers(times, "time grid")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad document: {exc}") from exc
    if not isinstance(rows, list) or not rows or set(map(type, rows)) != {list}:
        raise SchemaError("cells must be a non-empty list of rows")
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
    try:
        return Homotopy(space, cap, s_grid, t_grid, enc.reshape(shape + enc.shape[1:]), counts.reshape(shape))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def certificate_from_json(doc) -> dict | None:
    """The document's certificate, or None when it has none.

    A stored field of ContractionCertificate or ContinuityReport (whose
    bound and passed a check_continuity certificate carries) may be null
    or absent; otherwise it is a JSON scalar of the kind its annotation
    names (see _SCALARS), and stages are [name, first row, last row, max
    cardinality] lists of a string and three integers; a key that neither
    class names is refused.  Any breach is a SchemaError.  A null or
    absent max_cardinality reads, but verify fails such a certificate: it
    certifies nothing about the cells' cardinality.
    """
    certificate = doc.get("certificate")
    if certificate is None:
        return None
    if not isinstance(certificate, dict):
        raise SchemaError("certificate must be an object")
    fields = {field.name: field for field in (*dataclasses.fields(ContractionCertificate), *dataclasses.fields(ContinuityReport))}
    unnamed = next((key for key in certificate if key not in fields), None)
    if unnamed is not None:
        raise SchemaError(f"certificate key {unnamed!r} is no certificate field")
    for field in fields.values():
        kind = field.type.removesuffix(" | None")
        if kind in _SCALARS and certificate.get(field.name) is not None:
            _scalar(certificate[field.name], f"certificate {field.name}", kind)
    stages = certificate.get("stages")
    if stages is not None and not (isinstance(stages, (list, tuple)) and all(
        isinstance(st, (list, tuple)) and len(st) == 4 and isinstance(st[0], str) and all(type(v) is int for v in st[1:])
        for st in stages
    )):
        raise SchemaError("certificate stages must be [name, first row, last row, max cardinality] lists")
    return certificate


def track_to_json(track: Track) -> dict:
    return {
        "space": space_to_json(track.space),
        "cap": track.cap,
        "kind": track.kind,
        "times": track.t_grid.tolist(),
        "configs": _row_point_lists(track.space, track.enc[0], track.counts[0]),
    }


def track_from_json(doc) -> Track:
    """The track of a document's one row of cells, none above the cap; a
    declared "loop" must close.  A document with cells or s_grid is a
    homotopy, even with one row and a kind, and no track."""
    if "cells" in doc or "s_grid" in doc:
        raise SchemaError("bad track document: cells and s_grid belong to homotopy documents")
    h = grid_from_json(doc)
    try:
        return Track(h.space, h.cap, h.s_grid, h.t_grid, h.enc, h.counts).capped().declared(doc["kind"])
    except (KeyError, RanspaceError, ValueError) as exc:
        raise SchemaError(f"bad track document: {exc}") from exc


def _homotopy_head(h: Homotopy) -> dict:
    """The keys of a homotopy document before its cells."""
    return {"space": space_to_json(h.space), "cap": h.cap, "s_grid": h.s_grid.tolist(), "t_grid": h.t_grid.tolist()}


def homotopy_to_json(h: Homotopy, certificate: dict | None = None) -> dict:
    doc = _homotopy_head(h)
    with _collector_paused():
        doc["cells"] = [_row_point_lists(h.space, enc, counts) for enc, counts in zip(h.enc, h.counts)]
    if certificate is not None:
        doc["certificate"] = certificate
    return doc


def homotopy_from_json(doc) -> tuple[Homotopy, dict | None]:
    if "cells" not in doc:
        raise SchemaError("not a homotopy document: no cells")
    h = grid_from_json(doc)
    certificate = certificate_from_json(doc)
    try:
        h.capped()
    except ValueError as exc:
        raise SchemaError(f"bad homotopy document: {exc}") from exc
    return h, certificate


# -- writing ------------------------------------------------------------------

def _cells_template(sizes: tuple, pad: str, point: str) -> str:
    """json.dumps(row, indent=1) at indent pad of a row of point lists of
    the given sizes, with the text point for each point."""
    inner = pad + " "
    sep = ",\n" + inner
    cell = {k: "[\n" + inner + " " + (sep + " ").join([point] * k) + "\n" + inner + "]" for k in set(sizes)}
    return "[\n" + inner + sep.join(map(cell.__getitem__, sizes)) + "\n" + pad + "]"


def _rows_text(sizes: list, values: np.ndarray, pad: str, templates: dict) -> str:
    """The row formatter: json.dumps(row, indent=1) at indent pad of each
    row of cells, joined as the rows of a list at that indent.  sizes holds
    a tuple of cell sizes per row and values the rows' points in order,
    finite coordinates or (edge, t) rows.  Each distinct coordinate or t
    becomes text once per bit pattern, so that 0.0 and -0.0 keep their
    own, and one object-array take gives each point its text; the rows'
    templates for their sizes, cached in templates, are joined and filled
    by one %-format."""
    graph, at = values.ndim == 2, pad + "  "
    distinct, where = np.unique((values[:, 1] if graph else values).view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)
    fields, point = texts[where].tolist(), "%s"
    if graph:  # each point's edge, then its t
        point = f'{{\n{at} "edge": %d,\n{at} "t": %s\n{at}}}'
        fields = chain.from_iterable(zip(values[:, 0].astype(np.int64).tolist(), fields))
    for row in sizes:
        if (row, point) not in templates:
            templates[row, point] = _cells_template(row, pad, point)
    return (",\n" + pad).join([templates[row, point] for row in sizes]) % tuple(fields)


def _row_text(row, pad: str, templates: dict) -> str:
    """json.dumps(row, indent=1) at indent pad.  The row formatter takes a
    non-empty list of non-empty lists of finite floats, or of {"edge", "t"}
    points in that key order, with an int edge of size below 2**53, which
    float64 holds exactly, and a finite float t; json.dumps writes any
    other row."""
    if type(row) is list and row and set(map(type, row)) == {list} and all(row):
        points = list(chain.from_iterable(row))
        kinds, values = set(map(type, points)), None
        if kinds == {float}:
            values = np.array(points)
        elif kinds == {dict} and all(map(("edge", "t").__eq__, map(tuple, points))):
            edges, ts = [p["edge"] for p in points], [p["t"] for p in points]
            if set(map(type, edges)) == {int} and set(map(type, ts)) == {float} and max(map(abs, edges)) < 2**53:
                values = np.array((edges, ts)).T
        if values is not None and np.isfinite(values).all():
            return _rows_text([tuple(map(len, row))], values, pad, templates)
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(row, indent=1).replace("\n", "\n" + pad)


def dump(doc: dict, fp: IO[str]) -> None:
    """Write json.dump(doc, fp, indent=1) and a newline, byte for byte.

    Each row of "cells" goes through the row formatter; every other key
    goes through json.dumps.
    """
    if not isinstance(doc, dict) or not doc:
        fp.write(json.dumps(doc, indent=1) + "\n")
        return
    templates = {}
    for i, (key, value) in enumerate(doc.items()):
        fp.write(",\n " if i else "{\n ")
        if key == "cells" and type(value) is list and value:
            fp.write('"cells": [')
            for j, row in enumerate(value):
                fp.write((",\n  " if j else "\n  ") + _row_text(row, "  ", templates))
            fp.write("\n ]")
        else:
            # {key: value} alone, less its braces: json's key coercion and indents
            fp.write(json.dumps({key: value}, indent=1)[3:-2])
    fp.write("\n}\n")


def write_homotopy(h: Homotopy, certificate: dict | None, fp: IO[str]) -> None:
    """Write dump(homotopy_to_json(h, certificate), fp), byte for byte,
    with the cells of h, whose points are finite, going through the row
    formatter one row block of ran.blocks at a time, so that the strings of
    one block, not of the whole grid, are live at once."""
    # the document less its closing brace, its keys as dump writes them
    fp.write(json.dumps(_homotopy_head(h), indent=1)[:-2] + ',\n "cells": [')
    templates, sep = {}, "\n  "
    for first, stop in blocks(h.rows, h.counts.shape[1]):
        counts = h.counts[first:stop]
        values = h.enc[first:stop][np.arange(h.enc.shape[2]) < counts[..., None]]
        fp.write(sep + _rows_text(list(map(tuple, counts.tolist())), values, "  ", templates))
        sep = ",\n  "
    fp.write("\n ]")
    if certificate is not None:
        fp.write(",\n " + json.dumps({"certificate": certificate}, indent=1)[3:-2])
    fp.write("\n}\n")


def load(fp: IO[str]) -> dict:
    try:
        with _collector_paused():
            doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("a document must be a JSON object")
    return doc
