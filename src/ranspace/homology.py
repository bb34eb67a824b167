"""Vietoris-Rips persistence over Z/2 on sampled configuration clouds.

This is the corroborating instrument for the first-homology claims: sample
configurations, take their pairwise Hausdorff distances, and read H0/H1
persistence off the Rips 2-skeleton: H0 by union-find, H1 by reducing
edge coboundaries with clearing (cohomology gives the same pairs as the
boundary-matrix reduction).  Z/2 coefficients suffice to separate the
cases checked here, and the Rips filtration only needs the distance
matrix, not an embedding.

Distance-matrix assembly and the filtration are vectorized, their
temporaries bounded by the blocks of ``ran.blocks``; the reduction itself
is single-threaded and fully deterministic (simplices ordered by
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
from .ran import _pad, _pad_lists, _slot_points, batch_hausdorff, blocks, dedup, dedup_many
from .space import Space

DEFAULT_SIMPLEX_BUDGET = 5_000_000
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


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Persistence pairs as three arrays, each pair's dimension, birth and
    death, in table order: one stable sort by (dim, birth, death) of the
    order given, so pairs that compare equal (0.0 and -0.0 among them)
    keep it.  len() is the pair count; iterating gives the pairs as
    PersistencePair views."""

    dim: np.ndarray
    birth: np.ndarray
    death: np.ndarray

    def __post_init__(self):
        dim = np.asarray(self.dim, dtype=np.intp)
        birth, death = np.asarray(self.birth, dtype=float), np.asarray(self.death, dtype=float)
        order = np.lexsort((death, birth, dim))
        object.__setattr__(self, "dim", dim[order])
        object.__setattr__(self, "birth", birth[order])
        object.__setattr__(self, "death", death[order])

    def __len__(self):
        return len(self.dim)

    def __iter__(self):
        return map(PersistencePair, self.birth.tolist(), self.death.tolist(), self.dim.tolist())


def cloud_from_configs(space: Space, cells) -> MetricCloud:
    """The cloud of cells, each a sequence of points on space, at their
    pairwise Hausdorff distances, labelled by the cells.

    The upper triangle is filled in the row blocks of ran.blocks, m
    cells wide, so that neither the pair indices nor batch_hausdorff's
    temporaries grow with the square of the cell count.
    """
    cells = tuple(cells)
    enc = _pad_lists(space, cells)
    m = len(cells)
    dist = np.zeros((m, m))
    for first, stop in blocks(m - 1, m):
        iu, ju = np.nonzero(np.arange(m) > np.arange(first, stop)[:, None])
        iu += first
        vals = batch_hausdorff(space, enc[iu], enc[ju])
        dist[iu, ju] = vals
        dist[ju, iu] = vals
    return MetricCloud(cells, dist)


def sample_configs(space: Space, n: int, m: int, seed: int) -> tuple:
    """m configurations of size uniform in {1..n}, points uniform on the
    space, deterministic in the seed; each its deduplicated points, a
    tuple in canonical order.

    Each configuration draws its size, then its points in one
    random_points call; the draws are canonicalized once, by the one
    dedup_many call on the padded sample, since canon is elementwise and
    idempotent."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    draws = [space.random_points(rng, int(rng.integers(1, n + 1))) for _ in range(m)]
    counts = np.fromiter(map(len, draws), dtype=np.intp, count=m)
    kept, counts = dedup_many(space, _pad(space, counts, np.concatenate(draws)))
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
    is set when (i, j, k) is a triangle (k > j).  The blocks are those
    of ran.blocks over the edges, m bits wide."""
    up = np.triu(cloud.dist <= max_scale, k=1)
    iu, ju = np.nonzero(up)
    return iu, ju, ((first, up[iu[first:stop]] & up[ju[first:stop]]) for first, stop in blocks(len(iu), len(up)))


def count_simplices(cloud: MetricCloud, max_scale: float) -> int:
    """The vertices, edges and triangles of the Rips 2-skeleton at
    max_scale, counted without listing a triangle."""
    iu, _, edge_blocks = _triangle_blocks(cloud, max_scale)
    return len(cloud) + len(iu) + sum(int(np.count_nonzero(both)) for _, both in edge_blocks)


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
    iu, ju, edge_blocks = _triangle_blocks(cloud, max_scale)
    tris = [np.zeros((3, 0), dtype=np.intp)]
    for first, both in edge_blocks:
        r, k = np.divmod(np.flatnonzero(both), m)
        tris.append(np.stack((iu[first + r], ju[first + r], k)))
    i, j, k = np.concatenate(tris, axis=1)
    edge_value = d[iu, ju]
    order = np.argsort(edge_value, kind="stable")
    iu, ju, edge_value = iu[order], ju[order], edge_value[order]
    # int32 ranks halve the m x m table; the faces go back to intp, since
    # _cofaces's keys face * T + triangle overflow int32
    rank = np.zeros((m, m), dtype=np.int32 if len(iu) <= np.iinfo(np.int32).max else np.intp)
    rank[iu, ju] = np.arange(len(iu))
    tri_value = np.maximum(np.maximum(d[i, j], d[i, k]), d[j, k])
    order = np.argsort(tri_value, kind="stable")
    i, j, k = i[order], j[order], k[order]
    faces = np.column_stack((rank[i, j], rank[i, k], rank[j, k])).astype(np.intp)
    return edge_value, np.column_stack((iu, ju)), tri_value[order], faces


def _cofaces(tri_faces: np.ndarray) -> np.ndarray:
    """The triangles of tri_faces (face edge ranks, one row per triangle)
    listed by face edge, then triangle: np.argsort(tri_faces.ravel(),
    kind="stable") // 3, from one plain sort of the keys face * T +
    triangle, which are unique since a triangle's faces differ."""
    t = len(tri_faces)
    keys = tri_faces * t + np.arange(t)[:, None]
    return np.sort(keys.ravel()) % max(t, 1)


def rips_persistence_h1(cloud: MetricCloud, max_scale: float, budget: int = DEFAULT_SIMPLEX_BUDGET) -> PersistenceDiagram:
    """The persistence diagram in dimensions 0 and 1 of the Rips filtration.

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
    h0_death, h1_birth, h1_death = [], [], []

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
            h0_death.append(edge_value[r])
    h0_death.extend(math.inf for v, parent in enumerate(root) if parent == v)

    # coboundary of edge r: the triangles cof[start[r]:start[r + 1]], ascending;
    # as a column it is a bitmask with triangle t at bit top - t, so its
    # pivot, the earliest triangle, is the highest set bit
    cof = _cofaces(tri_faces)
    start = np.concatenate(([0], np.cumsum(np.bincount(tri_faces.ravel(), minlength=len(edge_value))))).tolist()
    top = len(tri_value) - 1

    def coboundary(r):
        # packed only up to the earliest coface, the column's highest bit
        tris = top - cof[start[r] : start[r + 1]]
        bits = np.zeros(tris[0] + 1, dtype=bool)
        bits[tris] = True
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
        h1_birth.append(edge_value[r])
        if low is None:
            h1_death.append(math.inf)
        else:
            owner[low] = r
            h1_death.append(tri_value[low])
    h0 = len(h0_death)
    return PersistenceDiagram(np.repeat([0, 1], [h0, len(h1_birth)]), [0.0] * h0 + h1_birth, h0_death + h1_death)


def long_lived_h1_count(diagram: PersistenceDiagram) -> int:
    """Number of dominant H1 classes under a prefix gap rule.

    Persistences are sorted descending; the count is the largest k such
    that every one of the first k persistences exceeds GAP_RATIO times the
    next one (next of the last pair being 0).  This is the decision rule
    separating essential classes from noise.
    """
    h1 = diagram.dim == 1
    pers = np.sort(diagram.death[h1] - diagram.birth[h1])[::-1]
    dominant = pers > GAP_RATIO * np.append(pers[1:], 0.0)
    return len(pers) if dominant.all() else int(np.argmin(dominant))
