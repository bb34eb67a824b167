import heapq

import numpy as np
import pytest

from ranspace.errors import InvalidPoint
from ranspace.ran import _pad_encode, batch_hausdorff, dedup, hausdorff
from ranspace.space import Circle, GraphPoint, Interval, MetricGraph, distance, geodesic


def oracle_graph_distance(graph, p, q):
    """Independent point-to-point Dijkstra: augment the vertex set with the
    two query points and run a plain heap search."""
    n = graph.num_vertices
    adj = {i: [] for i in range(n + 2)}
    for u, v, l in graph.edges:
        adj[u].append((v, l))
        adj[v].append((u, l))
    for node, pt in ((n, p), (n + 1, q)):
        u, v, l = graph.edges[pt.edge]
        adj[node].append((u, pt.t * l))
        adj[u].append((node, pt.t * l))
        adj[node].append((v, (1 - pt.t) * l))
        adj[v].append((node, (1 - pt.t) * l))
    if p.edge == q.edge:
        adj[n].append((n + 1, abs(p.t - q.t) * graph.edges[p.edge][2]))
    dist = {n: 0.0}
    heap = [(0.0, n)]
    seen = set()
    while heap:
        d, w = heapq.heappop(heap)
        if w in seen:
            continue
        seen.add(w)
        if w == n + 1:
            return d
        for x, l in adj[w]:
            nd = d + l
            if nd < dist.get(x, np.inf):
                dist[x] = nd
                heapq.heappush(heap, (nd, x))
    raise AssertionError("disconnected")


TRIANGLE = MetricGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
FIVE_EDGE = MetricGraph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.75), (3, 0, 1.25), (0, 2, 2.0)))
SPACES = [Circle(1.0), Interval(2.0), FIVE_EDGE]


def test_circle_arc_metric():
    c = Circle(1.0)
    assert distance(c, 0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert distance(c, 0.3, 0.3) == 0.0


def test_triangle_graph_vertices_unit_apart():
    p = TRIANGLE.vertex_point(0)
    q = TRIANGLE.vertex_point(1)
    assert distance(TRIANGLE, p, q) == pytest.approx(1.0, abs=1e-12)
    assert distance(TRIANGLE, p, q) == pytest.approx(oracle_graph_distance(TRIANGLE, p, q), abs=1e-12)


def test_graph_distance_matches_dijkstra_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = FIVE_EDGE.random_point(rng)
        q = FIVE_EDGE.random_point(rng)
        assert distance(FIVE_EDGE, p, q) == pytest.approx(oracle_graph_distance(FIVE_EDGE, p, q), abs=1e-9)


def test_geodesic_endpoints_and_midpoint():
    c = Circle(1.0)
    assert geodesic(c, 0.0, 0.4, 0.5) == pytest.approx(0.2)
    assert geodesic(c, 0.7, 0.7, 0.3) == pytest.approx(0.7)
    # antipodal tie resolves toward increasing coordinate
    assert geodesic(c, 0.0, 0.5, 0.5) == pytest.approx(0.25)


@pytest.mark.parametrize("space", SPACES, ids=["circle", "interval", "graph"])
def test_metric_axioms_on_random_triples(space):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p, q, r = (space.random_point(rng) for _ in range(3))
        dpq = distance(space, p, q)
        assert dpq >= 0.0
        assert dpq == distance(space, q, p)
        assert dpq <= distance(space, p, r) + distance(space, r, q) + 1e-12
    p = space.random_point(rng)
    assert distance(space, p, p) == 0.0


@pytest.mark.parametrize("space", SPACES, ids=["circle", "interval", "graph"])
def test_geodesic_consistency(space):
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, q = space.random_point(rng), space.random_point(rng)
        s, t = rng.uniform(0, 1, 2)
        d = distance(space, p, q)
        a = geodesic(space, p, q, s)
        b = geodesic(space, p, q, t)
        assert distance(space, a, b) == pytest.approx(abs(s - t) * d, abs=1e-9)
        assert distance(space, p, a) == pytest.approx(s * d, abs=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=["circle", "interval", "graph"])
def test_pairwise_kernel_matches_scalar(space):
    """The batch Hausdorff kernel on random configurations of 1-4 points
    agrees exactly with scalar hausdorff, and with the max-min of the
    scalar point distance, on every space."""
    rng = np.random.default_rng(2)

    def random_configs(count):
        return [
            dedup(space, [space.random_point(rng) for _ in range(int(rng.integers(1, 5)))])
            for _ in range(count)
        ]

    configs_a, configs_b = random_configs(2000), random_configs(2000)
    batch = batch_hausdorff(space, _pad_encode(space, configs_a), _pad_encode(space, configs_b))
    for got, a, b in zip(batch, configs_a, configs_b):
        forward = max(min(space.distance(p, q) for q in b.points) for p in a.points)
        backward = max(min(space.distance(p, q) for p in a.points) for q in b.points)
        assert got == hausdorff(space, a, b) == max(forward, backward)


def test_invalid_points_rejected():
    with pytest.raises(InvalidPoint):
        Interval(1.0).canon(1.5)
    with pytest.raises(InvalidPoint):
        Circle(1.0).canon(GraphPoint(0, 0.5))
    with pytest.raises(InvalidPoint):
        FIVE_EDGE.canon(GraphPoint(99, 0.5))


def test_graph_requires_connectivity():
    with pytest.raises(ValueError):
        MetricGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))


def test_vertex_canonicalization_is_stable():
    g = FIVE_EDGE
    # the same vertex reached through different edges canonicalizes identically
    assert g.canon(GraphPoint(0, 1.0)) == g.canon(GraphPoint(1, 0.0))
    assert g.canon(GraphPoint(3, 1.0)) == g.canon(GraphPoint(0, 0.0))


@pytest.mark.parametrize("edge", [1.5, -1, 3, 2.0], ids=["fractional", "negative", "num-edges", "integral-float"])
def test_scalar_and_array_canon_agree_on_edge_indices(edge):
    """MetricGraph.canon and canon_many both reject an edge index that is
    not a whole number in range, and agree on one that is."""
    theta = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    array = np.array([[edge, 0.5]])
    if edge in (1.5, -1, 3):
        with pytest.raises(InvalidPoint):
            theta.canon_many(array)
        for point in ((edge, 0.5), [edge, 0.5], GraphPoint(edge, 0.5)):
            with pytest.raises(InvalidPoint):
                theta.canon(point)
        with pytest.raises(InvalidPoint):
            dedup(theta, [(edge, 0.5)])
        return
    assert list(theta.canon((edge, 0.5))) == theta.canon_many(array)[0].tolist()
    assert type(theta.canon((edge, 0.5)).edge) is int
