"""Vietoris-Rips persistence over Z/2 on sampled configuration clouds.

This is the corroborating instrument for the first-homology claims: sample
configurations, take their pairwise Hausdorff distances, and read H0/H1
persistence off a filtered boundary-matrix reduction.  Z/2 coefficients
suffice to separate the cases checked here, and the Rips filtration only
needs the distance matrix, not an embedding.

Distance-matrix assembly is vectorized; the reduction itself is
single-threaded and fully deterministic (simplices ordered by filtration
value, dimension, then vertex tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimit
from .ran import dedup
from .space import Space
from .tracks import _pad_encode, batch_hausdorff

DEFAULT_SIMPLEX_BUDGET = 5_000_000


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
    configs = []
    for _ in range(m):
        size = int(rng.integers(1, n + 1))
        pts = [space.random_point(rng) for _ in range(size)]
        configs.append(dedup(space, pts, cap=n))
    return cloud_from_configs(space, configs)


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
    """Simplices up to dimension 2 as (value, dim, vertex tuple), sorted."""
    m = len(cloud)
    d = cloud.dist
    simplices = [(0.0, 0, (i,)) for i in range(m)]
    adj = (d <= max_scale) & ~np.eye(m, dtype=bool)
    iu, ju = np.nonzero(np.triu(adj, k=1))
    for i, j in zip(iu, ju):
        simplices.append((float(d[i, j]), 1, (int(i), int(j))))
    for i, j in zip(iu, ju):
        common = np.nonzero(adj[i] & adj[j])[0]
        for k in common[common > j]:
            val = max(d[i, j], d[i, k], d[j, k])
            simplices.append((float(val), 2, (int(i), int(j), int(k))))
    simplices.sort(key=lambda s: (s[0], s[1], s[2]))
    return simplices


def rips_persistence_h1(cloud: MetricCloud, max_scale: float, budget: int = DEFAULT_SIMPLEX_BUDGET):
    """Persistence pairs in dimensions 0 and 1 of the Rips filtration.

    Standard column reduction of the filtered boundary matrix over Z/2,
    with columns as integer bitmasks.  Unpaired creators are reported with
    death +inf.  Raises SizeLimit when the implied simplex count exceeds
    the budget: the caller is expected to subsample (see maxmin_subsample).
    """
    if max_scale <= 0:
        raise ValueError("max_scale must be positive")
    total = count_simplices(cloud, max_scale)
    if total > budget:
        raise SizeLimit(f"{total} simplices exceed budget {budget}")
    simplices = _filtration(cloud, max_scale)
    index = {s[2]: i for i, s in enumerate(simplices)}
    columns = []
    for _, dim, verts in simplices:
        if dim == 0:
            columns.append(0)
            continue
        col = 0
        for drop in range(len(verts)):
            face = verts[:drop] + verts[drop + 1 :]
            col |= 1 << index[face]
        columns.append(col)
    pivot_owner: dict = {}
    paired = set()
    pairs = []
    for j, col in enumerate(columns):
        while col:
            low = col.bit_length() - 1
            owner = pivot_owner.get(low)
            if owner is None:
                break
            col ^= columns[owner]
        columns[j] = col
        if col:
            low = col.bit_length() - 1
            pivot_owner[low] = j
            paired.add(low)
            paired.add(j)
            birth_val, birth_dim, _ = simplices[low]
            death_val = simplices[j][0]
            if birth_dim <= 1:
                pairs.append(PersistencePair(birth_val, death_val, birth_dim))
    for j, col in enumerate(columns):
        if col == 0 and j not in paired and simplices[j][1] <= 1:
            pairs.append(PersistencePair(simplices[j][0], math.inf, simplices[j][1]))
    pairs.sort(key=lambda p: (p.dim, p.birth, p.death))
    return pairs


def long_lived_h1_count(pairs, gap_ratio: float) -> int:
    """Number of dominant H1 classes under a prefix gap rule.

    Persistences are sorted descending; the count is the largest k such
    that every one of the first k persistences exceeds gap_ratio times the
    next one (next of the last pair being 0).  This is the decision rule
    separating essential classes from noise.
    """
    if gap_ratio <= 1:
        raise ValueError("gap_ratio must exceed 1")
    pers = sorted((p.persistence for p in pairs if p.dim == 1), reverse=True)
    if not pers:
        return 0
    count = 0
    for i, p in enumerate(pers):
        nxt = pers[i + 1] if i + 1 < len(pers) else 0.0
        if p > gap_ratio * nxt:
            count = i + 1
        else:
            break
    return count
