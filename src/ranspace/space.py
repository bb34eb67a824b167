"""Computable geodesic metric spaces: circle, interval, metric graph.

Points are plain floats (circle and interval coordinates) or ``GraphPoint``
pairs ``(edge, t)`` with ``t`` in ``[0, 1]`` measured from the edge's first
endpoint.  All operations are pure and all space objects are immutable, so
everything here is safe for unrestricted concurrent use.

Determinism contracts:

* circle geodesics between antipodal points take the arc in the direction of
  increasing canonical coordinate;
* graph geodesics between equally short routes take the route that wins a
  fixed candidate ordering, with vertex-to-vertex legs resolved to the path
  minimal in lexicographic edge-index order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidPoint

CANON_TOL = 1e-12


class GraphPoint(NamedTuple):
    edge: int
    t: float


Point = Union[float, GraphPoint]


@dataclass(frozen=True)
class Circle:
    """Circle of a given circumference, coordinates taken modulo it."""

    circumference: float = 1.0

    def __post_init__(self):
        if not 0 < self.circumference < math.inf:
            raise ValueError("circumference must be finite and positive")

    def canon(self, p: Point) -> float:
        if isinstance(p, GraphPoint):
            raise InvalidPoint(f"graph point {p!r} on a circle")
        c = self.circumference
        x = float(p) % c
        # values within canonical tolerance of the seam map to 0
        if c - x < CANON_TOL * max(1.0, c) or x < CANON_TOL * max(1.0, c):
            return 0.0
        return x

    def canon_many(self, x: np.ndarray) -> np.ndarray:
        """canon over an array of coordinates, value for value; NaN stays NaN."""
        c = self.circumference
        x = np.remainder(x, c)
        tol = CANON_TOL * max(1.0, c)
        return np.where((c - x < tol) | (x < tol), 0.0, x)

    def distance(self, p: float, q: float) -> float:
        c = self.circumference
        raw = abs(self.canon(p) - self.canon(q))
        return min(raw, c - raw)

    def distance_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """distance between broadcast arrays of canonical coordinates,
        value for value; NaN gives NaN."""
        raw = np.abs(x - y)
        # in place on arrays: the pair arrays are the batch kernels' peak memory
        return np.minimum(raw, self.circumference - raw, out=raw if isinstance(raw, np.ndarray) else None)

    def geodesic(self, p: float, q: float, s: float) -> float:
        c = self.circumference
        a, b = self.canon(p), self.canon(q)
        forward = (b - a) % c
        # forward == c/2 is the antipodal tie: go with increasing coordinate
        if forward <= c / 2.0:
            return self.canon(a + s * forward)
        return self.canon(a - s * (c - forward))

    def sort_key(self, p: float):
        return (self.canon(p),)

    def random_point(self, rng: np.random.Generator) -> float:
        return self.canon(rng.uniform(0.0, self.circumference))


@dataclass(frozen=True)
class Interval:
    """Closed interval [0, length] with the absolute-value metric."""

    length: float = 1.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValueError("length must be finite and positive")

    def canon(self, p: Point) -> float:
        if isinstance(p, GraphPoint):
            raise InvalidPoint(f"graph point {p!r} on an interval")
        x = float(p)
        if x < -CANON_TOL or x > self.length + CANON_TOL:
            raise InvalidPoint(f"{x} outside [0, {self.length}]")
        return min(max(x, 0.0), self.length)

    def canon_many(self, x: np.ndarray) -> np.ndarray:
        """canon over an array of coordinates, value for value; NaN stays
        NaN and -0.0 stays -0.0, as with min and max on floats."""
        outside = (x < -CANON_TOL) | (x > self.length + CANON_TOL)
        if outside.any():
            raise InvalidPoint(f"{x[outside][0]} outside [0, {self.length}]")
        x = np.where(x < 0.0, 0.0, x)
        return np.where(x > self.length, self.length, x)

    def distance(self, p: float, q: float) -> float:
        return abs(self.canon(p) - self.canon(q))

    def distance_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """distance between broadcast arrays of canonical coordinates,
        value for value; NaN gives NaN."""
        return np.abs(x - y)

    def geodesic(self, p: float, q: float, s: float) -> float:
        a, b = self.canon(p), self.canon(q)
        return a + s * (b - a)

    def sort_key(self, p: float):
        return (self.canon(p),)

    def random_point(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(0.0, self.length))


@dataclass(frozen=True)
class MetricGraph:
    """Connected multigraph with finite positive edge lengths.

    Edges are (u, v, length) triples; parallel edges and self loops are
    allowed.  Shortest paths are computed once per source vertex and cached.
    """

    num_vertices: int
    edges: tuple  # of (u, v, length)
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v), float(l)) for u, v, l in self.edges))
        if self.num_vertices < 1:
            raise ValueError("need at least one vertex")
        for u, v, l in self.edges:
            if not 0 <= u < self.num_vertices or not 0 <= v < self.num_vertices:
                raise ValueError(f"edge endpoint out of range: {(u, v, l)}")
            if not 0 < l < math.inf:
                raise ValueError("edge lengths must be finite and strictly positive")
        if not self._connected():
            raise ValueError("metric graph must be connected")

    def _connected(self) -> bool:
        seen = {0}
        frontier = [0]
        adj = {}
        for u, v, _ in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while frontier:
            w = frontier.pop()
            for x in adj.get(w, []):
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
        return len(seen) == self.num_vertices

    # -- vertex-level shortest paths ------------------------------------

    def _paths_from(self, source: int):
        """Dijkstra keyed by (distance, edge index sequence).

        Settling on first pop yields, among shortest paths, the one whose
        edge-index sequence is lexicographically minimal.
        """
        if source in self._cache:
            return self._cache[source]
        dist = [np.inf] * self.num_vertices
        route = [None] * self.num_vertices
        heap = [(0.0, (), source)]
        while heap:
            d, seq, w = heapq.heappop(heap)
            if route[w] is not None:
                continue
            dist[w] = d
            route[w] = seq
            for idx, (u, v, l) in enumerate(self.edges):
                if u == w and route[v] is None:
                    heapq.heappush(heap, (d + l, seq + (idx,), v))
                if v == w and route[u] is None:
                    heapq.heappush(heap, (d + l, seq + (idx,), u))
        self._cache[source] = (dist, route)
        return dist, route

    def vertex_distance_matrix(self) -> np.ndarray:
        key = "matrix"
        if key not in self._cache:
            m = np.zeros((self.num_vertices, self.num_vertices))
            for s in range(self.num_vertices):
                m[s, :] = self._paths_from(s)[0]
            self._cache[key] = m
        return self._cache[key]

    def vertex_point(self, v: int) -> GraphPoint:
        """Canonical (edge, endpoint) representative of a vertex."""
        for idx, (u, w, _) in enumerate(self.edges):
            if u == v:
                return GraphPoint(idx, 0.0)
            if w == v:
                return GraphPoint(idx, 1.0)
        raise InvalidPoint(f"isolated vertex {v}")

    # -- points ----------------------------------------------------------

    def canon(self, p: Point) -> GraphPoint:
        if not isinstance(p, GraphPoint):
            if isinstance(p, (tuple, list)) and len(p) == 2:
                p = GraphPoint(*p)
            else:
                raise InvalidPoint(f"{p!r} is not a graph point")
        # as canon_many: an edge index must be a whole number in range
        if not 0 <= p.edge < len(self.edges) or p.edge != int(p.edge):
            raise InvalidPoint(f"edge index {p.edge} out of range")
        edge, t = int(p.edge), float(p.t)
        if t < -CANON_TOL or t > 1 + CANON_TOL:
            raise InvalidPoint(f"edge parameter {t} outside [0, 1]")
        u, v, _ = self.edges[edge]
        if t < CANON_TOL:
            return self.vertex_point(u)
        if t > 1 - CANON_TOL:
            return self.vertex_point(v)
        return GraphPoint(edge, t)

    def canon_many(self, p: np.ndarray) -> np.ndarray:
        """canon over an array of (edge, t) pairs (last axis), value for value."""
        e, t = p[..., 0], p[..., 1]
        bad = (e != np.floor(e)) | (e < 0) | (e >= len(self.edges))
        if bad.any():
            raise InvalidPoint(f"edge index {e[bad][0]} out of range")
        bad = (t < -CANON_TOL) | (t > 1 + CANON_TOL)
        if bad.any():
            raise InvalidPoint(f"edge parameter {t[bad][0]} outside [0, 1]")
        if "ends" not in self._cache:
            # ends[i]: the canonical points of edge i's first and second endpoint
            self._cache["ends"] = np.array([[self.vertex_point(u), self.vertex_point(v)] for u, v, _ in self.edges], dtype=float)
        ends = self._cache["ends"][e.astype(np.intp)]
        at_v = np.where((t > 1 - CANON_TOL)[..., None], ends[..., 1, :], p)
        return np.where((t < CANON_TOL)[..., None], ends[..., 0, :], at_v)

    def edge_arrays(self) -> tuple:
        """Each edge's length, first endpoint and second endpoint, as arrays
        indexed by edge."""
        if "edge_arrays" not in self._cache:
            self._cache["edge_arrays"] = (
                np.array([l for _, _, l in self.edges]),
                np.array([u for u, _, _ in self.edges], dtype=np.intp),
                np.array([v for _, v, _ in self.edges], dtype=np.intp),
            )
        return self._cache["edge_arrays"]

    def _endpoint_legs(self, p: GraphPoint):
        u, v, l = self.edges[p.edge]
        return ((u, p.t * l), (v, (1.0 - p.t) * l))

    def distance(self, p: Point, q: Point) -> float:
        p, q = self.canon(p), self.canon(q)
        if q < p:
            # fixed operand order makes symmetry exact in floating point
            p, q = q, p
        dmat = self.vertex_distance_matrix()
        best = np.inf
        if p.edge == q.edge:
            best = abs(p.t - q.t) * self.edges[p.edge][2]
        for a, leg_a in self._endpoint_legs(p):
            for b, leg_b in self._endpoint_legs(q):
                best = min(best, leg_a + dmat[a, b] + leg_b)
        return float(best)

    def distance_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """distance between broadcast arrays of canonical (edge, t) pairs
        (last axis), bit for bit: each pair sums its path legs as scalar
        distance does, (leg_p + dmat[a, b]) + leg_q with p the smaller
        (edge, t).  Each operand's edges, lengths and legs are computed
        at its own shape; only the vertex gathers and the sums broadcast.
        A NaN t gives NaN; its edge must still index an edge."""
        lengths, us, vs = self.edge_arrays()
        dmat = self.vertex_distance_matrix()
        nv = len(dmat)
        ex, tx = x[..., 0].astype(np.intp), x[..., 1]
        ey, ty = y[..., 0].astype(np.intp), y[..., 1]
        lx, ly = lengths[ex], lengths[ey]
        # the best path sums with x as p (forward) and with y as p (backward)
        forward = np.where(ex == ey, np.abs(tx - ty) * lx, np.inf)
        backward, total, ab = forward.copy(), np.empty_like(forward), np.empty(forward.shape, dtype=np.intp)
        for a, leg_a in ((us[ex] * nv, tx * lx), (vs[ex] * nv, (1.0 - tx) * lx)):
            for b, leg_b in ((us[ey], ty * ly), (vs[ey], (1.0 - ty) * ly)):
                np.add(a, b, out=ab)  # the flat index of dmat[a, b] in dmat and of dmat[b, a] in dmat.T
                for best, table, first, second in ((forward, dmat, leg_a, leg_b), (backward, dmat.T, leg_b, leg_a)):
                    np.take(table.ravel(), ab, out=total, mode="clip")  # "clip" takes into out unbuffered
                    total += first
                    total += second
                    np.minimum(best, total, out=best)
        np.copyto(forward, backward, where=(ey < ex) | ((ey == ex) & (ty < tx)))
        return forward

    def _route(self, p: GraphPoint, q: GraphPoint):
        """Segment list ((edge, t0, t1), ...) realizing a shortest route.

        Candidates are scanned in a fixed order and replaced only on strict
        improvement, which together with lexicographic vertex legs makes the
        chosen route deterministic.
        """
        dmat = self.vertex_distance_matrix()
        best_len = np.inf
        best = None
        if p.edge == q.edge:
            best_len = abs(p.t - q.t) * self.edges[p.edge][2]
            best = [(p.edge, p.t, q.t)]
        for a, leg_a in self._endpoint_legs(p):
            for b, leg_b in self._endpoint_legs(q):
                total = leg_a + dmat[a, b] + leg_b
                if total < best_len - CANON_TOL:
                    segs = []
                    u, v, _ = self.edges[p.edge]
                    segs.append((p.edge, p.t, 0.0 if a == u else 1.0))
                    w = a
                    for idx in self._paths_from(a)[1][b]:
                        eu, ev, _ = self.edges[idx]
                        if eu == w:
                            segs.append((idx, 0.0, 1.0))
                            w = ev
                        else:
                            segs.append((idx, 1.0, 0.0))
                            w = eu
                    u, v, _ = self.edges[q.edge]
                    segs.append((q.edge, 0.0 if b == u else 1.0, q.t))
                    best_len = total
                    best = segs
        return best, best_len

    def geodesic(self, p: Point, q: Point, s: float) -> GraphPoint:
        p, q = self.canon(p), self.canon(q)
        if p == q:
            return p
        segs, total = self._route(p, q)
        target = s * total
        acc = 0.0
        for edge, t0, t1 in segs:
            seg_len = abs(t1 - t0) * self.edges[edge][2]
            if seg_len <= 0:
                continue
            if acc + seg_len >= target - CANON_TOL:
                frac = (target - acc) / seg_len
                return self.canon(GraphPoint(edge, t0 + frac * (t1 - t0)))
            acc += seg_len
        return q

    def sort_key(self, p: Point):
        c = self.canon(p)
        return (c.edge, c.t)

    def random_point(self, rng: np.random.Generator) -> GraphPoint:
        lengths = np.array([l for _, _, l in self.edges])
        edge = int(rng.choice(len(self.edges), p=lengths / lengths.sum()))
        return self.canon(GraphPoint(edge, float(rng.uniform(0.0, 1.0))))


Space = Union[Circle, Interval, MetricGraph]


def distance(space: Space, p: Point, q: Point) -> float:
    """Geodesic metric of the space, at the point level."""
    return space.distance(p, q)


def geodesic(space: Space, p: Point, q: Point, s: float) -> Point:
    """Constant-speed geodesic from p (s=0) to q (s=1)."""
    return space.geodesic(p, q, s)
