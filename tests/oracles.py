"""Independent second implementations used as test oracles.

Nothing here shares code with the package: point metrics, shortest paths,
the one-turn contraction and the boundary-matrix reduction are all
rebuilt from scratch so that agreement is meaningful.
"""

import heapq
import math
from itertools import combinations

import numpy as np


def oracle_vertex_table(edges, num_vertices):
    table = np.full((num_vertices, num_vertices), np.inf)
    for src in range(num_vertices):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        done = set()
        while heap:
            d, w = heapq.heappop(heap)
            if w in done:
                continue
            done.add(w)
            table[src, w] = d
            for u, v, l in edges:
                for a, bb in ((u, v), (v, u)):
                    if a == w and d + l < dist.get(bb, math.inf):
                        dist[bb] = d + l
                        heapq.heappush(heap, (d + l, bb))
    return table


def make_graph_point_metric(edges, num_vertices):
    table = oracle_vertex_table(edges, num_vertices)

    def metric(p, q):
        if q < p:
            # same operand convention as the package metric, so float
            # summation order agrees and equality can be exact
            p, q = q, p
        cands = []
        if p.edge == q.edge:
            cands.append(abs(p.t - q.t) * edges[p.edge][2])
        pu, pv, pl = edges[p.edge]
        qu, qv, ql = edges[q.edge]
        for a, leg_a in ((pu, p.t * pl), (pv, (1 - p.t) * pl)):
            for b, leg_b in ((qu, q.t * ql), (qv, (1 - q.t) * ql)):
                cands.append(leg_a + table[a, b] + leg_b)
        return min(cands)

    return metric


def circle_point_metric(circumference):
    def metric(p, q):
        raw = abs(p - q)
        return min(raw, circumference - raw)

    return metric


def oracle_hausdorff(metric, a_points, b_points):
    d_ab = max(min(metric(p, q) for q in b_points) for p in a_points)
    d_ba = max(min(metric(p, q) for p in a_points) for q in b_points)
    return max(d_ab, d_ba)


def naive_pairs(dist, max_scale):
    """Exhaustive persistence oracle: enumerate simplices by brute force,
    reduce a dense boolean matrix, scan for pivots."""
    m = dist.shape[0]
    sims = []
    for dim in range(3):
        for verts in combinations(range(m), dim + 1):
            if dim == 0:
                sims.append((0.0, 0, verts))
                continue
            vals = [dist[a, b] for a, b in combinations(verts, 2)]
            if max(vals) <= max_scale:
                sims.append((max(vals), dim, verts))
    sims.sort(key=lambda s: (s[0], s[1], s[2]))
    idx = {s[2]: i for i, s in enumerate(sims)}
    n = len(sims)
    mat = np.zeros((n, n), dtype=bool)
    for j, (_, dim, verts) in enumerate(sims):
        for drop in range(len(verts)):
            face = verts[:drop] + verts[drop + 1 :]
            if len(face) > 0:
                mat[idx[face], j] = True

    def low(col):
        rows = np.nonzero(mat[:, col])[0]
        return int(rows[-1]) if len(rows) else -1

    pairs = []
    lows = {}
    for j in range(n):
        while True:
            l = low(j)
            if l == -1 or l not in lows:
                break
            mat[:, j] ^= mat[:, lows[l]]
        l = low(j)
        if l != -1:
            lows[l] = j
            if sims[l][1] <= 1:
                pairs.append((sims[l][0], sims[j][0], sims[l][1]))
    killed = set(lows.values())
    victims = set(lows.keys())
    for j in range(n):
        if low(j) == -1 and j not in victims and j not in killed and sims[j][1] <= 1:
            pairs.append((sims[j][0], math.inf, sims[j][1]))
    return sorted(pairs)


def _tent(u):
    return 1.0 - abs(1.0 - 2.0 * u)


def generator_cell(s, t):
    """Points of the one-turn contraction at (s, t) on the unit circle, one
    cell at a time, in the order the package kernel lists them."""
    phase = min(int(s * 5.0), 4)
    sig = s * 5.0 - phase
    if phase == 0:
        a = (1.0 - sig) * t + sig * min(2.0 * t, 1.0)
        b = (1.0 - sig) * t + sig * max(2.0 * t - 1.0, 0.0)
        return (a, b)
    if phase == 1:
        if t <= 0.5:
            w = sig / 2.0
            return (2.0 * t, w * _tent(2.0 * t), -w * _tent(2.0 * t))
        return (0.0, 2.0 * t - 1.0)
    if phase == 2:
        if t <= 0.5:
            v = (1.0 - sig) / 2.0
            return (v * _tent(2.0 * t), -v * _tent(2.0 * t))
        return (0.0, 2.0 * t - 1.0)
    if phase == 3:
        if t <= 0.5:
            return (0.0,)
        w = sig / 2.0
        return (2.0 * t - 1.0, w * _tent(2.0 * t - 1.0), -w * _tent(2.0 * t - 1.0))
    if t <= 0.5:
        return (0.0,)
    v = (1.0 - sig) / 2.0
    return (v * _tent(2.0 * t - 1.0), -v * _tent(2.0 * t - 1.0))


def oracle_dump(doc):
    """The text a document is written as: the standard library encoder at
    indent 1, and a newline."""
    import json

    return json.dumps(doc, indent=1) + "\n"
