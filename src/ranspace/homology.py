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
filtration value, dimension, then vertex tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimit
# dedup is unused here, but perfbench/tracer.py rebinds it here
from .ran import _dedup_lists, _pad_encode, as_configurations, batch_hausdorff, dedup
from .space import Space

DEFAULT_SIMPLEX_BUDGET = 5_000_000
# the prefix gap rule of long_lived_h1_count
GAP_RATIO = 5.0


@dataclass(frozen=True)
class MetricCloud:
    labels: tuple  # of Configuration
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


def cloud_from_configs(space: Space, configs) -> MetricCloud:
    configs = tuple(configs)
    enc = _pad_encode(space, configs)
    m = len(configs)
    iu, ju = np.triu_indices(m, k=1)
    dist = np.zeros((m, m))
    if len(iu):
        vals = batch_hausdorff(space, enc[iu], enc[ju])
        dist[iu, ju] = vals
        dist[ju, iu] = vals
    return MetricCloud(configs, dist)


def sample_ran(space: Space, n: int, m: int, seed: int) -> MetricCloud:
    """m configurations of size uniform in {1..n}, points uniform on the
    space, deterministic in the seed."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    point_lists = [[space.random_point(rng) for _ in range(int(rng.integers(1, n + 1)))] for _ in range(m)]
    return cloud_from_configs(space, as_configurations(space, *_dedup_lists(space, point_lists, n), n))


def maxmin_subsample(cloud: MetricCloud, k: int, seed: int) -> MetricCloud:
    """Farthest-point landmark selection, deterministic in the seed."""
    m = len(cloud)
    if k < 1:
        raise ValueError("need at least one landmark")
    if k >= m:
        return cloud
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(m))]
    mind = cloud.dist[chosen[0]].copy()
    while len(chosen) < k:
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        np.minimum(mind, cloud.dist[nxt], out=mind)
    chosen.sort()
    idx = np.asarray(chosen)
    return MetricCloud(tuple(cloud.labels[i] for i in chosen), cloud.dist[np.ix_(idx, idx)])


def count_simplices(cloud: MetricCloud, max_scale: float) -> int:
    m = len(cloud)
    adj = (cloud.dist <= max_scale) & ~np.eye(m, dtype=bool)
    n_edges = int(adj.sum()) // 2
    a = adj.astype(np.float64)
    n_tris = int(round(np.einsum("ij,jk,ik->", a, a, a))) // 6
    return m + n_edges + n_tris


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
    adj = (d <= max_scale) & ~np.eye(m, dtype=bool)
    # np.nonzero yields (i, j) and, per vertex, (j, k) in lexicographic
    # order, so a stable sort on the value alone gives the full order
    iu, ju = np.nonzero(np.triu(adj, k=1))
    edge_value = d[iu, ju]
    order = np.argsort(edge_value, kind="stable")
    iu, ju, edge_value = iu[order], ju[order], edge_value[order]
    rank = np.zeros((m, m), dtype=np.intp)
    rank[iu, ju] = np.arange(len(iu))
    tris = [np.zeros((0, 3), dtype=np.intp)]
    for i in range(m):
        nb = np.flatnonzero(adj[i, i + 1 :]) + i + 1
        a, b = np.nonzero(np.triu(adj[np.ix_(nb, nb)], k=1))
        tris.append(np.column_stack((np.full(len(a), i), nb[a], nb[b])))
    i, j, k = np.concatenate(tris).T
    tri_value = np.maximum(np.maximum(d[i, j], d[i, k]), d[j, k])
    order = np.argsort(tri_value, kind="stable")
    i, j, k = i[order], j[order], k[order]
    faces = np.column_stack((rank[i, j], rank[i, k], rank[j, k]))
    return edge_value, np.column_stack((iu, ju)), tri_value[order], faces


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
    (see maxmin_subsample).
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
    faces = tri_faces.ravel()
    cof = np.argsort(faces, kind="stable") // 3
    start = np.concatenate(([0], np.cumsum(np.bincount(faces, minlength=len(edge_value))))).tolist()
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
