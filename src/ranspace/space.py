"""Computable geodesic metric spaces: circle, interval, metric graph.

Points are plain floats (circle and interval coordinates) or ``GraphPoint``
pairs ``(edge, t)`` with ``t`` in ``[0, 1]`` measured from the edge's first
endpoint.  All operations are pure and all space objects are immutable (a
graph's derived tables are cached properties, built on first use, and the
same whoever builds them), so everything here is safe for unrestricted
concurrent use.

Determinism contracts:

* circle geodesics between antipodal points take the arc in the direction of
  increasing canonical coordinate;
* graph geodesics between equally short routes take the route that wins a
  fixed candidate ordering, with vertex-to-vertex legs resolved to the path
  minimal in lexicographic edge-index order.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidPoint

CANON_TOL = 1e-12


class GraphPoint(NamedTuple):
    edge: int
    t: float


Point = Union[float, GraphPoint]


def _remainder(x: np.ndarray, c: float) -> np.ndarray:
    """np.remainder(x, c) for c > 0, bit for bit, without its divmod (2-4x
    fmod's cost, 10-20x on NaN): fmod is exact, so a negative remainder
    takes c and the rest +0.0, which turns -0.0 into 0.0.  c as np.float64
    keeps the product a scalar op on 0-d input, not a ufunc call."""
    c = np.float64(c)
    r = np.fmod(x, c)
    r += c * (r < 0)
    return r


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
        return float(self.canon_many(np.array(float(p))))

    def canon_many(self, x: np.ndarray) -> np.ndarray:
        """canon over an array of coordinates, value for value; NaN stays NaN."""
        c = self.circumference
        x = _remainder(x, c)
        # values within canonical tolerance of the seam map to 0, by an
        # in-place multiply: np.where would double the cost of canon, a
        # one-value call
        tol = CANON_TOL * max(1.0, c)
        x *= ~((c - x < tol) | (x < tol))
        return x

    def distance(self, p: float, q: float) -> float:
        return float(self.distance_many(np.array(self.canon(p)), np.array(self.canon(q))))

    def distance_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """distance between broadcast arrays of canonical coordinates,
        value for value; NaN gives NaN."""
        raw = np.abs(x - y)
        # in place on arrays: the pair arrays are the batch kernels' peak memory
        return np.minimum(raw, self.circumference - raw, out=raw if isinstance(raw, np.ndarray) else None)

    def geodesic(self, p: float, q: float, s: float) -> float:
        return float(self.geodesic_many(p, q, np.array([s]))[0])

    def geodesic_many(self, p: float, q: float, s: np.ndarray) -> np.ndarray:
        """geodesic from p to q at every s of an array, value for value."""
        c = self.circumference
        a, b = self.canon(p), self.canon(q)
        forward = (b - a) % c
        # forward == c/2 is the antipodal tie: go with increasing coordinate
        if forward <= c / 2.0:
            return self.canon_many(a + s * forward)
        return self.canon_many(a - s * (c - forward))

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k raw uniform draws in [0, circumference), one array; canon_many
        makes them points."""
        return rng.uniform(0.0, self.circumference, size=k)


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
        return float(self.canon_many(np.array(float(p))))

    def canon_many(self, x: np.ndarray) -> np.ndarray:
        """canon over an array of coordinates, value for value; NaN stays
        NaN and -0.0 stays -0.0, as with min and max on floats."""
        outside = (x < -CANON_TOL) | (x > self.length + CANON_TOL)
        if outside.any():
            raise InvalidPoint(f"{x[outside][0]} outside [0, {self.length}]")
        x = np.where(x < 0.0, 0.0, x)
        return np.where(x > self.length, self.length, x)

    def distance(self, p: float, q: float) -> float:
        return float(self.distance_many(np.array(self.canon(p)), np.array(self.canon(q))))

    def distance_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """distance between broadcast arrays of canonical coordinates,
        value for value; NaN gives NaN."""
        return np.abs(x - y)

    def geodesic(self, p: float, q: float, s: float) -> float:
        return float(self.geodesic_many(p, q, np.array([s]))[0])

    def geodesic_many(self, p: float, q: float, s: np.ndarray) -> np.ndarray:
        """geodesic from p to q at every s of an array, value for value."""
        a, b = self.canon(p), self.canon(q)
        return a + s * (b - a)

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k raw uniform draws in [0, length), one array; canon_many makes
        them points."""
        return rng.uniform(0.0, self.length, size=k)


@dataclass(frozen=True)
class MetricGraph:
    """Connected multigraph with finite positive edge lengths.

    Edges are (u, v, length) triples; parallel edges and self loops are
    allowed.  The derived tables (the incidence list, the vertex distance
    matrix, the edge endpoints and the edge arrays) are cached properties,
    each built on its first use.
    """

    num_vertices: int
    edges: tuple  # of (u, v, length)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v), float(l)) for u, v, l in self.edges))
        if type(self.num_vertices) is not int or self.num_vertices < 1 or not self.edges:
            raise ValueError("need an int count of at least one vertex, and an edge for the points to lie on")
        for u, v, l in self.edges:
            if not 0 <= u < self.num_vertices or not 0 <= v < self.num_vertices:
                raise ValueError(f"edge endpoint out of range: {(u, v, l)}")
            if not 0 < l < math.inf:
                raise ValueError("edge lengths must be finite and strictly positive")
        # too few edges to connect the vertices is refused before the
        # single-source check allocates anything num_vertices long
        if len(self.edges) < self.num_vertices - 1 or not np.isfinite(self._paths_from(0)[0]).all():
            raise ValueError("metric graph must be connected")

    # -- vertex-level shortest paths ------------------------------------

    @functools.cached_property
    def _incidence(self) -> list:
        """incidence[v]: (edge index, far end, length) of each edge at v, in
        edge order."""
        incidence = [[] for _ in range(self.num_vertices)]
        for idx, (u, v, l) in enumerate(self.edges):
            incidence[u].append((idx, v, l))
            incidence[v].append((idx, u, l))
        return incidence

    def _paths_from(self, source: int):
        """Dijkstra keyed by (distance, edge index sequence).

        Settling on first pop yields, among shortest paths, the one whose
        edge-index sequence is lexicographically minimal.
        """
        dist = [np.inf] * self.num_vertices
        route = [None] * self.num_vertices
        heap = [(0.0, (), source)]
        while heap:
            d, seq, w = heapq.heappop(heap)
            if route[w] is not None:
                continue
            dist[w] = d
            route[w] = seq
            for idx, far, l in self._incidence[w]:
                if route[far] is None:
                    heapq.heappush(heap, (d + l, seq + (idx,), far))
        return dist, route

    @functools.cached_property
    def _all_pairs(self) -> np.ndarray:
        """The vertex distance matrix, one _paths_from per source."""
        return np.array([self._paths_from(s)[0] for s in range(self.num_vertices)], dtype=float)

    def vertex_distance_matrix(self) -> np.ndarray:
        return self._all_pairs

    def vertex_point(self, v: int) -> GraphPoint:
        """Canonical (edge, endpoint) representative of a vertex: its first
        edge, at the end that is v."""
        if not 0 <= v < self.num_vertices or not self._incidence[v]:
            raise InvalidPoint(f"{v} is not a vertex with an edge")
        idx = self._incidence[v][0][0]
        return GraphPoint(idx, 0.0 if self.edges[idx][0] == v else 1.0)

    # -- points ----------------------------------------------------------

    def canon(self, p: Point) -> GraphPoint:
        if not isinstance(p, (tuple, list)) or len(p) != 2:
            raise InvalidPoint(f"{p!r} is not a graph point")
        edge, t = self.canon_many(np.array(p, dtype=float)).tolist()
        return GraphPoint(int(edge), t)

    def canon_many(self, p: np.ndarray) -> np.ndarray:
        """canon over an array of (edge, t) pairs (last axis), value for value."""
        e, t = p[..., 0], p[..., 1]
        bad = (e != np.floor(e)) | (e < 0) | (e >= len(self.edges))
        if bad.any():
            raise InvalidPoint(f"edge index {e[bad][0]:g} out of range")
        bad = (t < -CANON_TOL) | (t > 1 + CANON_TOL)
        if bad.any():
            raise InvalidPoint(f"edge parameter {t[bad][0]} outside [0, 1]")
        ends = self._ends[e.astype(np.intp)]
        at_v = np.where((t > 1 - CANON_TOL)[..., None], ends[..., 1, :], p)
        return np.where((t < CANON_TOL)[..., None], ends[..., 0, :], at_v)

    @functools.cached_property
    def _ends(self) -> np.ndarray:
        """ends[i]: the canonical points of edge i's first and second endpoint."""
        return np.array([[self.vertex_point(u), self.vertex_point(v)] for u, v, _ in self.edges], dtype=float)

    @functools.cached_property
    def edge_arrays(self) -> tuple:
        """Each edge's length, first endpoint and second endpoint, as arrays
        indexed by edge."""
        return (
            np.array([l for _, _, l in self.edges]),
            np.array([u for u, _, _ in self.edges], dtype=np.intp),
            np.array([v for _, v, _ in self.edges], dtype=np.intp),
        )

    def _endpoint_legs(self, p: GraphPoint):
        u, v, l = self.edges[p.edge]
        return ((u, p.t * l), (v, (1.0 - p.t) * l))

    def distance(self, p: Point, q: Point) -> float:
        return float(self.distance_many(np.array(self.canon(p)), np.array(self.canon(q))))

    def distance_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """distance between broadcast arrays of canonical (edge, t) pairs
        (last axis): each pair sums its path legs as (leg_p + dmat[a, b])
        + leg_q with p the smaller (edge, t), so the metric is symmetric
        bit for bit.  Each operand's edges, lengths and legs are computed
        at its own shape; only the vertex gathers and the sums broadcast.
        A NaN t gives NaN; its edge must still index an edge."""
        lengths, us, vs = self.edge_arrays
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
        chosen route deterministic.  Only the winning vertex leg is searched.
        """
        dmat = self.vertex_distance_matrix()
        best_len, ends = np.inf, None
        if p.edge == q.edge:
            best_len = abs(p.t - q.t) * self.edges[p.edge][2]
        for a, leg_a in self._endpoint_legs(p):
            for b, leg_b in self._endpoint_legs(q):
                total = leg_a + dmat[a, b] + leg_b
                if total < best_len - CANON_TOL:
                    best_len, ends = total, (a, b)
        if ends is None:
            return [(p.edge, p.t, q.t)], best_len
        a, b = ends
        segs = [(p.edge, p.t, 0.0 if a == self.edges[p.edge][0] else 1.0)]
        w = a
        for idx in self._paths_from(a)[1][b]:
            eu, ev, _ = self.edges[idx]
            segs.append((idx, 0.0, 1.0) if eu == w else (idx, 1.0, 0.0))
            w = ev if eu == w else eu
        segs.append((q.edge, 0.0 if b == self.edges[q.edge][0] else 1.0, q.t))
        return segs, best_len

    def geodesic(self, p: Point, q: Point, s: float) -> GraphPoint:
        edge, t = self.geodesic_many(p, q, np.array([s]))[0].tolist()
        return GraphPoint(int(edge), t)

    def geodesic_many(self, p: Point, q: Point, s: np.ndarray) -> np.ndarray:
        """geodesic from p to q at every s of an array, as (edge, t) pairs
        (last axis), value for value: each s walks the route, computed once,
        to the first segment reaching s times its length, else ends at q."""
        p, q = self.canon(p), self.canon(q)
        out = np.empty(np.shape(s) + (2,))
        out[...] = q
        if p == q:
            return out
        segs, total = self._route(p, q)
        target = s * total
        left = np.ones(np.shape(s), dtype=bool)  # no segment reached yet
        acc = 0.0
        for edge, t0, t1 in segs:
            seg_len = abs(t1 - t0) * self.edges[edge][2]
            if seg_len <= 0:
                continue
            hit = left & (acc + seg_len >= target - CANON_TOL)
            frac = (target[hit] - acc) / seg_len
            # a t past a vertex by rounding is clipped onto it; canon_many
            # snaps it to that vertex either way
            t = np.clip(t0 + frac * (t1 - t0), 0.0, 1.0)
            out[hit] = self.canon_many(np.stack([np.full(frac.shape, float(edge)), t], axis=-1))
            left &= ~hit
            acc += seg_len
        return out

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k raw draws as (edge, t) rows, the edge by length and t uniform in
        [0, 1); canon_many makes them points.  Each point draws its edge,
        then its t, as k one-point calls would: a vectorized choice would
        draw in another order."""
        lengths = self.edge_arrays[0]
        weights = lengths / lengths.sum()
        out = np.empty((k, 2))
        for row in out:
            row[0] = rng.choice(len(self.edges), p=weights)
            row[1] = rng.uniform(0.0, 1.0)
        return out


Space = Union[Circle, Interval, MetricGraph]
