"""Configurations (finite nonempty subsets of a space) and their metric.

A configuration stores its points sorted in the canonical order of the
space, pairwise distinct under canonical equality, with a cardinality cap.
The metric between configurations is the two-sided max-min distance over
point pairs.  Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, EmptyConfiguration, InvalidPoint, SpaceMismatch
from .space import GraphPoint, MetricGraph, Point, Space

DEDUP_EPS = 1e-9


@dataclass(frozen=True)
class Configuration:
    points: tuple
    cap: int

    def __post_init__(self):
        if len(self.points) == 0:
            raise EmptyConfiguration("a configuration needs at least one point")
        if self.cap < len(self.points):
            raise CapExceeded(f"{len(self.points)} points with cap {self.cap}")

    def __len__(self):
        return len(self.points)


def dedup(space: Space, points: Sequence[Point], eps: float = DEDUP_EPS, cap: int | None = None) -> Configuration:
    """Greedy left-to-right merge of points within distance eps.

    Later points within eps of an already kept point are dropped, so kept
    points are pairwise more than eps apart.  The result is sorted in
    canonical order.
    """
    if len(points) == 0:
        raise EmptyConfiguration("cannot dedup an empty point list")
    kept: list = []
    for p in points:
        cp = space.canon(p)
        if all(space.distance(cp, k) > eps for k in kept):
            kept.append(cp)
    kept.sort(key=space.sort_key)
    return Configuration(tuple(kept), cap if cap is not None else len(kept))


def dedup_many(space: Space, enc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dedup at DEDUP_EPS of every cell of a padded encoding.

    enc is laid out as tracks._pad lays it out: cells along the leading
    axes, then their point slots (then (edge, t) on graphs), NaN marking
    an empty slot.  The merge is the same greedy left-to-right pass as
    dedup, slot by slot: a point is kept when it is more than DEDUP_EPS
    from every point kept before it.  Returns each cell's kept canonical
    points in sort_key order, padded with inf (edge 0 and a NaN t on
    graphs), and how many each cell kept.
    """
    graph = isinstance(space, MetricGraph)
    x = space.canon_many(enc)
    keep = ~np.isnan(x[..., 1] if graph else x)
    slots = np.moveaxis(x, -2 if graph else -1, 0)
    for k in range(1, len(slots)):
        for j in range(k):
            keep[..., k] &= ~keep[..., j] | (space.distance_many(slots[k], slots[j]) > DEDUP_EPS)
    if not graph:
        return np.sort(np.where(keep, x, np.inf), axis=-1), keep.sum(axis=-1)
    order = np.lexsort((x[..., 1], np.where(keep, x[..., 0], np.inf)), axis=-1)
    x = np.where(keep[..., None], x, [0.0, np.nan])
    return np.take_along_axis(x, order[..., None], axis=-2), keep.sum(axis=-1)


# kept points become Python objects a chunk of cells at a time: converting
# a whole grid at once holds every point of it as a Python float
_CHUNK = 256


def as_configurations(space: Space, kept: np.ndarray, counts: np.ndarray, cap: int) -> list:
    """The Configurations, capped at cap, of dedup_many's kept points and
    counts, one per cell along the leading axis."""
    out = []
    # one float object per distinct graph t, as when cells share their
    # strands' points
    shared = {}
    for i in range(0, len(kept), _CHUNK):
        chunk, sizes = kept[i:i + _CHUNK], counts[i:i + _CHUNK].tolist()
        if isinstance(space, MetricGraph):
            edges, ts = chunk[..., 0].astype(np.intp).tolist(), chunk[..., 1].tolist()
            out.extend(Configuration(tuple(map(GraphPoint, e[:k], map(shared.setdefault, t[:k], t[:k]))), cap)
                       for e, t, k in zip(edges, ts, sizes))
        else:
            out.extend(Configuration(tuple(pts[:k]), cap) for pts, k in zip(chunk.tolist(), sizes))
    return out


def configuration(space: Space, points: Iterable[Point], cap: int | None = None) -> Configuration:
    """Build a configuration from raw points, deduplicating at DEDUP_EPS."""
    return dedup(space, list(points), cap=cap)


def hausdorff(space: Space, a: Configuration, b: Configuration) -> float:
    """max(max_{x in a} d(x, b), max_{y in b} d(y, a))."""
    try:
        forward = 0.0
        for p in a.points:
            best = min(space.distance(p, q) for q in b.points)
            if best > forward:
                forward = best
        backward = 0.0
        for q in b.points:
            best = min(space.distance(p, q) for p in a.points)
            if best > backward:
                backward = best
    except InvalidPoint as exc:
        raise SpaceMismatch(f"configuration does not live on {space!r}") from exc
    return max(forward, backward)


def union(space: Space, a: Configuration, b: Configuration, cap: int) -> Configuration:
    """Set union of configurations; fails when the cap would be exceeded.

    The cap failure is the cardinality bookkeeping signal used throughout
    the contraction pipelines.
    """
    merged = dedup(space, list(a.points) + list(b.points), eps=DEDUP_EPS, cap=None)
    if len(merged) > cap:
        raise CapExceeded(f"union has {len(merged)} points, cap {cap}")
    return Configuration(merged.points, cap)
