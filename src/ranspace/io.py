"""JSON serialization for spaces, tracks and homotopies.

Documents round-trip bit-exactly: floats are emitted with Python's
shortest exact representation and loading rebuilds values without any
renormalization that could move a bit.
"""

from __future__ import annotations

import json
from typing import IO

from .errors import SchemaError
from .ran import Configuration
from .space import Circle, GraphPoint, Interval, MetricGraph, Space
from .tracks import Homotopy, Track


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


def point_from_json(space: Space, obj):
    """The canonical point obj names; a canonical one reads back bit for bit."""
    try:
        if isinstance(space, MetricGraph):
            return space.canon(GraphPoint(int(obj["edge"]), float(obj["t"])))
        p = float(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad point {obj!r}: {exc}") from exc
    # keep the parsed float when it is canonical: callers hold the document,
    # and a second float per point adds 13 MB to reading a 512x512 one
    c = space.canon(p)
    return p if c == p else c


def _config_from_json(space: Space, pts, cap: int) -> Configuration:
    points = tuple(point_from_json(space, p) for p in pts)
    if len(points) == 0:
        raise SchemaError("empty configuration in document")
    # canonical points compare as their sort keys
    if any(b <= a for a, b in zip(points, points[1:])):
        raise SchemaError("configuration points must be strictly sorted")
    return Configuration(points, cap)


def track_to_json(track: Track) -> dict:
    return {
        "space": space_to_json(track.space),
        "cap": track.cap,
        "kind": track.kind,
        "times": list(track.times),
        "configs": [[point_to_json(p) for p in c.points] for c in track.configs],
    }


def track_from_json(doc) -> Track:
    try:
        space = space_from_json(doc["space"])
        cap = int(doc["cap"])
        kind = doc["kind"]
        times = tuple(float(t) for t in doc["times"])
        configs = tuple(_config_from_json(space, pts, cap) for pts in doc["configs"])
        return Track(space, times, configs, kind, cap)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad track document: {exc}") from exc


def homotopy_to_json(h: Homotopy, certificate: dict | None = None) -> dict:
    doc = {
        "space": space_to_json(h.space),
        "cap": h.cap,
        "s_grid": list(h.s_grid),
        "t_grid": list(h.t_grid),
        "cells": [
            [[point_to_json(p) for p in c.points] for c in row] for row in h.cells
        ],
    }
    if certificate is not None:
        doc["certificate"] = certificate
    return doc


def homotopy_from_json(doc, lenient_cap: bool = False) -> tuple[Homotopy, dict | None]:
    """Rebuild a homotopy; with lenient_cap the declared cap may be lower
    than the observed cell sizes (the caller checks and reports)."""
    try:
        space = space_from_json(doc["space"])
        cap = int(doc["cap"])
        build_cap = cap
        if lenient_cap:
            build_cap = max(cap, max(len(pts) for row in doc["cells"] for pts in row))
        s_grid = tuple(float(s) for s in doc["s_grid"])
        t_grid = tuple(float(t) for t in doc["t_grid"])
        cells = tuple(
            tuple(_config_from_json(space, pts, build_cap) for pts in row)
            for row in doc["cells"]
        )
        h = Homotopy(space, s_grid, t_grid, cells, build_cap)
        certificate = doc.get("certificate")
        if certificate is not None and not isinstance(certificate, dict):
            raise SchemaError("certificate must be an object")
        return h, certificate
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad homotopy document: {exc}") from exc


def dump(doc: dict, fp: IO[str]) -> None:
    json.dump(doc, fp, indent=1)
    fp.write("\n")


def load(fp: IO[str]) -> dict:
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("a document must be a JSON object")
    return doc
