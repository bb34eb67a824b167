"""Vietoris-Rips persistence over Z/2 on sampled configuration clouds.

This is the corroborating instrument for the first-homology claims: sample
configurations, take their pairwise Hausdorff distances, and read H0/H1
persistence off the Rips 2-skeleton: H0 by union-find, H1 by reducing
edge coboundaries with clearing (cohomology gives the same pairs as the
boundary-matrix reduction).  Z/2 coefficients suffice to separate the
cases checked here, and the Rips filtration only needs the distance
matrix, not an embedding.

Distance-matrix assembly and the filtration are vectorized; the reduction
itself is single-threaded and fully deterministic (simplices ordered by
filtration value, dimension, then vertex tuple).  Farthest-point landmarks
of sampled cells (``landmark_cloud``) compute only the distance rows the
selection reads, so a large sample never needs its full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimit
# dedup is unused here, but perfbench/tracer.py rebinds it here
from .ran import _dedup_lists, _pad_lists, _slot_points, batch_hausdorff, dedup
from .space import Space

DEFAULT_SIMPLEX_BUDGET = 5_000_000
# cell pairs one cloud_from_configs block hands batch_hausdorff, at most
_CLOUD_PAIRS = 1 << 15
# the prefix gap rule of long_lived_h1_count
GAP_RATIO = 5.0


@dataclass(frozen=True)
class MetricCloud:
    """Labelled points at a symmetric distance matrix with a zero
    diagonal; labels are opaque, and a sampled cloud's are its
    configurations' point tuples."""

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.shape != (len(self.labels), len(self.labels)):
            raise ValueError("distance matrix shape does not match labels")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix needs a zero diagonal")
        object.__setattr__(self, "dist", d)

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class PersistencePair:
    birth: float
    death: float
    dim: int

    def __post_init__(self):
        if self.death < self.birth:
            raise ValueError("death before birth")

    @property
    def persistence(self) -> float:
        return self.death - self.birth


def cloud_from_configs(space: Space, cells) -> MetricCloud:
    """The cloud of cells, each a sequence of points on space, at their
    pairwise Hausdorff distances, labelled by the cells.

    The upper triangle is filled in blocks of rows of at most _CLOUD_PAIRS
    pairs (one row if it is longer), so that neither the pair indices nor
    batch_hausdorff's temporaries grow with the square of the cell count.
    """
    cells = tuple(cells)
    enc = _pad_lists(space, cells)
    m = len(cells)
    dist = np.zeros((m, m))
    step = max(1, _CLOUD_PAIRS // max(m, 1))
    for first in range(0, m - 1, step):
        iu, ju = np.nonzero(np.arange(m) > np.arange(first, min(first + step, m))[:, None])
        iu += first
        vals = batch_hausdorff(space, enc[iu], enc[ju])
        dist[iu, ju] = vals
        dist[ju, iu] = vals
    return MetricCloud(cells, dist)


def sample_configs(space: Space, n: int, m: int, seed: int) -> tuple:
    """m configurations of size uniform in {1..n}, points uniform on the
    space, deterministic in the seed; each its deduplicated points, a
    tuple in canonical order."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    point_lists = [[space.random_point(rng) for _ in range(int(rng.integers(1, n + 1)))] for _ in range(m)]
    kept, counts = _dedup_lists(space, point_lists, n)
    return tuple(_slot_points(space, cell[:k]) for cell, k in zip(kept, counts.tolist()))


def sample_ran(space: Space, n: int, m: int, seed: int) -> MetricCloud:
    """The cloud of sample_configs(space, n, m, seed), each configuration
    labelled by its points."""
    return cloud_from_configs(space, sample_configs(space, n, m, seed))


def _farthest_points(row, m: int, k: int, seed: int) -> list:
    """Farthest-point (maxmin) selection of k of m points, in index
    order: the first uniform in the seed, each next one farthest from
    those chosen.  row(i) is point i's distances to all m points, 0.0 at
    i; it is read once for each chosen point but the last."""
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(m))]
    mind = np.full(m, np.inf)
    while len(chosen) < k:
        np.minimum(mind, row(chosen[-1]), out=mind)
        chosen.append(int(np.argmax(mind)))
    return sorted(chosen)


def maxmin_subsample(cloud: MetricCloud, k: int, seed: int) -> MetricCloud:
    """Farthest-point landmark selection, deterministic in the seed."""
    m = len(cloud)
    if k < 1:
        raise ValueError("need at least one landmark")
    if k >= m:
        return cloud
    idx = np.asarray(_farthest_points(lambda i: cloud.dist[i], m, k, seed))
    return MetricCloud(tuple(cloud.labels[i] for i in idx.tolist()), cloud.dist[np.ix_(idx, idx)])


def landmark_cloud(space: Space, cells, k: int, seed: int) -> MetricCloud:
    """maxmin_subsample(cloud_from_configs(space, cells), k, seed), bit for
    bit, without the full distance matrix: each landmark's distances to
    all cells are one batch_hausdorff row, computed when the selection
    reads it, and the landmarks' own cloud is built from their cells.

    That is (k - 1) * len(cells) pairs plus the landmarks' own, and memory
    linear in len(cells) plus one cloud_from_configs block.  The rows
    match the matrix's because batch_hausdorff works pair by pair and is
    symmetric bit for bit; a row's self-distance is set to the diagonal's
    0.0.
    """
    cells = tuple(cells)
    m = len(cells)
    if k < 1:
        raise ValueError("need at least one landmark")
    if k >= m:
        return cloud_from_configs(space, cells)
    enc = _pad_lists(space, cells)

    def row(i):
        d = batch_hausdorff(space, enc[i : i + 1], enc)
        d[i] = 0.0
        return d

    return cloud_from_configs(space, [cells[i] for i in _farthest_points(row, m, k, seed)])


def _triangle_blocks(cloud: MetricCloud, max_scale: float):
    """The one triangle enumeration of the Rips graph at max_scale: its
    edges (iu, ju), i < j, in lexicographic order, and an iterator over
    blocks of them, (first, both), where row r of both is the AND of the
    upper adjacency rows of i and j of edge first + r, so that its bit k
    is set when (i, j, k) is a triangle (k > j).  A block holds at most
    _CLOUD_PAIRS edge-vertex bits (one edge if m is larger)."""
    up = np.triu(cloud.dist <= max_scale, k=1)
    iu, ju = np.nonzero(up)
    step = max(1, _CLOUD_PAIRS // max(len(up), 1))
    blocks = ((first, up[iu[first : first + step]] & up[ju[first : first + step]]) for first in range(0, len(iu), step))
    return iu, ju, blocks


def count_simplices(cloud: MetricCloud, max_scale: float) -> int:
    """The vertices, edges and triangles of the Rips 2-skeleton at
    max_scale, counted without listing a triangle."""
    iu, _, blocks = _triangle_blocks(cloud, max_scale)
    return len(cloud) + len(iu) + sum(int(np.count_nonzero(both)) for _, both in blocks)


def _filtration(cloud: MetricCloud, max_scale: float):
    """Edges and triangles of the Rips 2-skeleton, each in filtration order.

    Returns (edge_value, edge_ends, tri_value, tri_faces): edge r has
    vertices ``edge_ends[r]`` (i < j) and value ``edge_value[r]``; triangle
    t has value ``tri_value[t]`` and face edge ranks ``tri_faces[t]``.
    Edges sort by (value, i, j) and triangles by (value, i, j, k): the
    (value, dim, vertex tuple) order restricted to each dimension.
    Vertices come first, in index order, all at 0.0.
    """
    m = len(cloud)
    d = cloud.dist
    # edges and, edge by edge, their triangles come in lexicographic
    # order, so a stable sort on the value alone gives the full order
    iu, ju, blocks = _triangle_blocks(cloud, max_scale)
    tris = [np.zeros((3, 0), dtype=np.intp)]
    for first, both in blocks:
        r, k = np.divmod(np.flatnonzero(both), m)
        tris.append(np.stack((iu[first + r], ju[first + r], k)))
    i, j, k = np.concatenate(tris, axis=1)
    edge_value = d[iu, ju]
    order = np.argsort(edge_value, kind="stable")
    iu, ju, edge_value = iu[order], ju[order], edge_value[order]
    rank = np.zeros((m, m), dtype=np.intp)
    rank[iu, ju] = np.arange(len(iu))
    tri_value = np.maximum(np.maximum(d[i, j], d[i, k]), d[j, k])
    order = np.argsort(tri_value, kind="stable")
    i, j, k = i[order], j[order], k[order]
    faces = np.column_stack((rank[i, j], rank[i, k], rank[j, k]))
    return edge_value, np.column_stack((iu, ju)), tri_value[order], faces


def _cofaces(tri_faces: np.ndarray) -> np.ndarray:
    """The triangles of tri_faces (face edge ranks, one row per triangle)
    listed by face edge, then triangle: np.argsort(tri_faces.ravel(),
    kind="stable") // 3, from one plain sort of the keys face * T +
    triangle, which are unique since a triangle's faces differ."""
    t = len(tri_faces)
    keys = tri_faces * t + np.arange(t)[:, None]
    return np.sort(keys.ravel()) % max(t, 1)


def rips_persistence_h1(cloud: MetricCloud, max_scale: float, budget: int = DEFAULT_SIMPLEX_BUDGET):
    """Persistence pairs in dimensions 0 and 1 of the Rips filtration.

    H0 comes from union-find over the edges in filtration order: an edge
    joining two components kills the younger root (the larger vertex
    index, all vertices being born at 0.0).  H1 comes from reducing edge
    coboundaries over Z/2 from the last edge to the first, skipping the
    edges that killed an H0 class (clearing); a column's pivot is its
    earliest triangle.  Cohomology pairs the same simplices as the
    boundary-matrix reduction of the same total order.  Unpaired creators
    are reported with death +inf.  Raises SizeLimit when the implied
    simplex count exceeds the budget: the caller is expected to subsample
    (see landmark_cloud).
    """
    if not max_scale > 0:
        raise ValueError("max_scale must be positive")
    total = count_simplices(cloud, max_scale)
    if total > budget:
        raise SizeLimit(f"{total} simplices exceed budget {budget}")
    edge_value, edge_ends, tri_value, tri_faces = _filtration(cloud, max_scale)
    edge_value, tri_value = edge_value.tolist(), tri_value.tolist()
    pairs = []

    root = list(range(len(cloud)))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    negative = bytearray(len(edge_value))
    for r, (i, j) in enumerate(edge_ends.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            root[max(ri, rj)] = min(ri, rj)
            negative[r] = 1
            pairs.append(PersistencePair(0.0, edge_value[r], 0))
    pairs.extend(PersistencePair(0.0, math.inf, 0) for v, parent in enumerate(root) if parent == v)

    # coboundary of edge r: the triangles cof[start[r]:start[r + 1]], ascending;
    # as a column it is a bitmask with triangle t at bit top - t, so its
    # pivot, the earliest triangle, is the highest set bit
    cof = _cofaces(tri_faces)
    start = np.concatenate(([0], np.cumsum(np.bincount(tri_faces.ravel(), minlength=len(edge_value))))).tolist()
    top = len(tri_value) - 1

    def coboundary(r):
        bits = np.zeros(top + 1, dtype=bool)
        bits[top - cof[start[r] : start[r + 1]]] = True
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    owner = {}  # pivot triangle -> edge whose reduced column has it
    reduced = {}  # edge -> its column after reduction, for edges that needed one
    for r in range(len(edge_value) - 1, -1, -1):
        if negative[r]:
            continue
        low = int(cof[start[r]]) if start[r] < start[r + 1] else None
        if low in owner:  # no emergent pair: reduce the column
            col = coboundary(r)
            while col:
                low = top + 1 - col.bit_length()
                if low not in owner:
                    break
                other = owner[low]
                col ^= reduced[other] if other in reduced else coboundary(other)
            else:
                low = None
            reduced[r] = col
        if low is None:
            pairs.append(PersistencePair(edge_value[r], math.inf, 1))
        else:
            owner[low] = r
            pairs.append(PersistencePair(edge_value[r], tri_value[low], 1))
    pairs.sort(key=lambda p: (p.dim, p.birth, p.death))
    return pairs


def long_lived_h1_count(pairs) -> int:
    """Number of dominant H1 classes under a prefix gap rule.

    Persistences are sorted descending; the count is the largest k such
    that every one of the first k persistences exceeds GAP_RATIO times the
    next one (next of the last pair being 0).  This is the decision rule
    separating essential classes from noise.
    """
    pers = sorted((p.persistence for p in pairs if p.dim == 1), reverse=True)
    if not pers:
        return 0
    count = 0
    for i, p in enumerate(pers):
        nxt = pers[i + 1] if i + 1 < len(pers) else 0.0
        if p > GAP_RATIO * nxt:
            count = i + 1
        else:
            break
    return count
