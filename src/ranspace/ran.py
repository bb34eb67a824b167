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
from .space import Circle, Point, Space

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


def dedup_circle(space: Circle, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dedup at DEDUP_EPS over the last axis of an array of circle points.

    NaN marks a missing point.  Returns the kept canonical points of each
    row, sorted and padded with inf, and how many each row kept; the
    merge is the same greedy left-to-right pass as dedup, slot by slot.
    """
    x = space.canon_many(points)
    c = space.circumference
    keep = ~np.isnan(x)
    for k in range(x.shape[-1]):
        for j in range(k):
            raw = np.abs(x[..., k] - x[..., j])
            keep[..., k] &= ~keep[..., j] | (np.minimum(raw, c - raw) > DEDUP_EPS)
    return np.sort(np.where(keep, x, np.inf), axis=-1), keep.sum(axis=-1)


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
