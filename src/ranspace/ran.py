"""Configurations (finite nonempty subsets of a space) and their metric.

A configuration stores its points sorted in the canonical order of the
space, pairwise distinct under canonical equality, with a cardinality cap.
The metric between configurations is the two-sided max-min distance over
point pairs.  Everything is immutable and pure.

Many configurations at once travel as one padded array (``_pad``), and
two kernels run over it: ``dedup_many`` and ``batch_hausdorff``, both on
the space's ``distance_many``.  Scalar ``hausdorff`` and ``dedup`` are
one-row calls of them.  ``_pad_lists`` encodes point lists and
``_slot_points`` is the one way back from encoded slots to points; a
``Configuration`` is built only where a caller asks for one.

``blocks`` is the one block rule of every kernel that bounds its
temporaries: the continuity gaps, the Hausdorff cloud, the Rips triangle
rows and the homotopy writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, EmptyConfiguration, InvalidPoint, SpaceMismatch
from .space import GraphPoint, MetricGraph, Point, Space

DEDUP_EPS = 1e-9
# cells a block of a bounded kernel holds, at most (see blocks)
BLOCK_CELLS = 1 << 15


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


def dedup(space: Space, points: Iterable[Point], cap: int | None = None) -> Configuration:
    """Greedy left-to-right merge of points within DEDUP_EPS: one row of
    dedup_many.

    Later points within DEDUP_EPS of an already kept point are dropped, so
    kept points are pairwise more than DEDUP_EPS apart.  The result is
    sorted in canonical order, capped at cap (default: its own size).  A
    NaN point raises InvalidPoint, wherever it sits.
    """
    points = list(points)
    kept, counts = _dedup_lists(space, [points], len(points) if cap is None else cap)
    k = int(counts[0])
    return Configuration(_slot_points(space, kept[0, :k]), k if cap is None else cap)


def blocks(n: int, width: int) -> list:
    """Consecutive (first, stop) ranges that cover range(n), each of
    max(1, BLOCK_CELLS // max(width, 1)) items but the last, which may
    hold fewer: items of width cells each, BLOCK_CELLS cells a block (one
    item if it is wider)."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return [(first, min(first + step, n)) for first in range(0, n, step)]


def _pad(space: Space, counts: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The padded cell encoding shared by every batch kernel.

    Row i holds the next counts[i] points of flat (coordinates on circles
    and intervals, (edge, t) pairs on graphs), padded to the widest cell:
    shape (cells, width) or (cells, width, 2).  Padding slots hold a NaN
    coordinate (edge 0 and a NaN t on graphs), so leading axes slice and
    fancy-index the same way on every space.
    """
    enc = _padding(space, (len(counts), counts.max(initial=0)))
    rows = np.repeat(np.arange(len(counts)), counts)
    slots = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
    enc[rows, slots] = flat
    return enc


def _padding(space: Space, shape: tuple) -> np.ndarray:
    """An encoding (see _pad) of cells shape[:-1] of width shape[-1] that
    holds only padding slots."""
    enc = np.full(shape + ((2,) if isinstance(space, MetricGraph) else ()), np.nan)
    if isinstance(space, MetricGraph):
        enc[..., 0] = 0.0
    return enc


def _pad_lists(space: Space, point_lists: Sequence[Sequence[Point]]) -> np.ndarray:
    """The padded encoding (see _pad) of point lists, one row per list."""
    counts = np.fromiter(map(len, point_lists), dtype=np.intp, count=len(point_lists))
    points = chain.from_iterable(point_lists)
    if isinstance(space, MetricGraph):
        return _pad(space, counts, np.fromiter(chain.from_iterable(points), dtype=float).reshape(-1, 2))
    return _pad(space, counts, np.fromiter(points, dtype=float))


def _slot_points(space: Space, values: np.ndarray) -> tuple:
    """The points of a 1-D array of cell slots (see _pad), such as one
    cell's first counts slots: floats, or GraphPoints on graphs."""
    if isinstance(space, MetricGraph):
        return tuple(map(GraphPoint, values[:, 0].astype(np.intp).tolist(), values[:, 1].tolist()))
    return tuple(values.tolist())


def _slot_values(space: Space, enc: np.ndarray) -> np.ndarray:
    """The per-slot values of a padded encoding that are NaN on padding:
    the coordinates, or the t of each (edge, t) pair on graphs."""
    return enc[..., 1] if isinstance(space, MetricGraph) else enc


def _slots_first(space: Space, enc: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a padded encoding (see _pad) with its slot
    axis leading, so each array operation on a slot runs along whole rows
    of cells instead of a cell's few slots."""
    return np.ascontiguousarray(np.moveaxis(enc, -2 if isinstance(space, MetricGraph) else -1, 0))


def dedup_many(space: Space, enc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dedup at DEDUP_EPS of every cell of a padded encoding.

    enc is laid out as _pad lays it out: cells along the leading axes,
    then their point slots (then (edge, t) on graphs), NaN marking an
    empty slot.  The merge is the same greedy left-to-right pass as
    dedup, slot by slot: a point is kept when it is more than DEDUP_EPS
    from every point kept before it.  Returns each cell's kept canonical
    points in order (by (edge, t) on graphs), padded as _pad pads, and
    how many each cell kept.
    """
    x = space.canon_many(enc)
    slots = _slots_first(space, x)
    keep = ~np.isnan(_slot_values(space, slots))
    # keep[:k] is final before slot k reads it, so each slot makes one call
    for k in range(1, len(slots)):
        keep[k] &= (~keep[:k] | (space.distance_many(slots[k], slots[:k]) > DEDUP_EPS)).all(axis=0)
    keep = np.moveaxis(keep, 0, -1).copy()
    del slots  # before the sort, whose peak the slot copy would raise
    counts = keep.sum(axis=-1)
    if not isinstance(space, MetricGraph):
        # canonical points are finite, so only dropped slots sort as inf
        kept = np.sort(np.where(keep, x, np.inf), axis=-1)
        kept[kept == np.inf] = np.nan
        return kept, counts
    order = np.lexsort((x[..., 1], np.where(keep, x[..., 0], np.inf)), axis=-1)
    x = np.where(keep[..., None], x, _padding(space, ()))
    return np.take_along_axis(x, order[..., None], axis=-2), counts


def _dedup_lists(space: Space, point_lists: Sequence[Sequence[Point]], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """dedup_many's (kept, counts) for every point list, from one call on
    their padded encoding: EmptyConfiguration for an empty list,
    InvalidPoint for a point off the space or NaN, CapExceeded for a list
    that keeps more than cap points."""
    if not all(point_lists):
        raise EmptyConfiguration("cannot dedup an empty point list")
    try:
        enc = _pad_lists(space, point_lists)
    except (TypeError, ValueError) as exc:
        raise InvalidPoint(f"a point list does not live on {space!r}") from exc
    if np.count_nonzero(~np.isnan(_slot_values(space, enc))) != sum(map(len, point_lists)):
        raise InvalidPoint(f"NaN point on {space!r}")
    kept, counts = dedup_many(space, enc)
    if counts.max() > cap:
        raise CapExceeded(f"{counts.max()} points with cap {cap}")
    return kept, counts


def batch_hausdorff(space: Space, enc_a: np.ndarray, enc_b: np.ndarray) -> np.ndarray:
    """Hausdorff distance between corresponding cells of two padded
    encodings (see _pad) whose leading shapes broadcast, from one
    space.distance_many call on every pair of their slots."""
    a, b = _slots_first(space, enc_a), _slots_first(space, enc_b)
    d = space.distance_many(a[:, None], b[None, :])
    # a pair is NaN exactly when one of its slots is padding; fmin skips it
    dir_ab = np.where(~np.isnan(_slot_values(space, a)), np.fmin.reduce(d, axis=1), -np.inf).max(axis=0)
    dir_ba = np.where(~np.isnan(_slot_values(space, b)), np.fmin.reduce(d, axis=0), -np.inf).max(axis=0)
    return np.maximum(dir_ab, dir_ba)


def hausdorff(space: Space, a: Configuration, b: Configuration) -> float:
    """max(max_{x in a} d(x, b), max_{y in b} d(y, a)): one row of
    batch_hausdorff on the canonical points of a and b."""
    try:
        enc = space.canon_many(_pad_lists(space, [a.points, b.points]))
    except (InvalidPoint, TypeError, ValueError) as exc:
        raise SpaceMismatch(f"configuration does not live on {space!r}") from exc
    return float(batch_hausdorff(space, enc[:1], enc[1:])[0])

