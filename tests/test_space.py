import dataclasses
import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_circle_canon,
    oracle_geodesic,
    oracle_metric,
    oracle_paths_from,
    oracle_route,
    oracle_vertex_point,
    random_point,
)
from ranspace.errors import InvalidPoint
from ranspace.ran import _pad_lists, batch_hausdorff, dedup, hausdorff
from ranspace.space import CANON_TOL, Circle, GraphPoint, Interval, MetricGraph
from test_ran import _raw_points, _spaces


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
    assert c.distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert c.distance(0.3, 0.3) == 0.0


def test_triangle_graph_vertices_unit_apart():
    p = TRIANGLE.vertex_point(0)
    q = TRIANGLE.vertex_point(1)
    assert TRIANGLE.distance(p, q) == pytest.approx(1.0, abs=1e-12)
    assert TRIANGLE.distance(p, q) == pytest.approx(oracle_graph_distance(TRIANGLE, p, q), abs=1e-12)


def test_graph_distance_matches_dijkstra_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_point(FIVE_EDGE, rng)
        q = random_point(FIVE_EDGE, rng)
        assert FIVE_EDGE.distance(p, q) == pytest.approx(oracle_graph_distance(FIVE_EDGE, p, q), abs=1e-9)


def test_geodesic_endpoints_and_midpoint():
    c = Circle(1.0)
    assert c.geodesic(0.0, 0.4, 0.5) == pytest.approx(0.2)
    assert c.geodesic(0.7, 0.7, 0.3) == pytest.approx(0.7)
    # antipodal tie resolves toward increasing coordinate
    assert c.geodesic(0.0, 0.5, 0.5) == pytest.approx(0.25)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_circle_canon_many_on_the_shapes_the_kernels_pass(data):
    """canon_many equals the scalar oracle element by element, bit for bit,
    on a 3-D NaN-padded encoding, a read-only broadcast view of one of its
    rows (as dedup_many gets for frozen window slots), a transposed slice
    and 0-d arrays: NaN slots stay NaN, -0.0 becomes 0.0, and the argument
    is not written to."""
    c = data.draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5, math.pi, 1e3]))
    tol = CANON_TOL * max(1.0, c)
    edges = st.sampled_from([0.0, -0.0, c, -c, tol, -tol, c - tol, c + tol, 5e-324, -5e-324, 1e300, -1e300])
    value = st.one_of(edges, st.floats(-4 * c, 4 * c), st.floats(allow_nan=False, allow_infinity=False))
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6)))
    enc = np.array(data.draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    enc[..., shape[-1] - data.draw(st.integers(0, shape[-1])):] = math.nan
    zero_d = [np.array(x) for x in data.draw(st.lists(st.one_of(value, st.just(math.nan)), min_size=1, max_size=4))]
    space = Circle(c)
    for x in [enc, np.broadcast_to(enc[-1], shape), enc.transpose(2, 0, 1)[::2, :, ::-1], *zero_d]:
        before = x.tobytes()
        got = np.asarray(space.canon_many(x))
        assert got.shape == x.shape
        assert [float.hex(v) for v in got.ravel().tolist()] == [float.hex(oracle_circle_canon(c, v)) for v in x.ravel().tolist()]
        assert (np.isnan(got) == np.isnan(x)).all()
        assert not np.signbit(got[got == 0.0]).any()
        assert x.tobytes() == before


@pytest.mark.parametrize("space", SPACES, ids=["circle", "interval", "graph"])
def test_metric_axioms_on_random_triples(space):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p, q, r = (random_point(space, rng) for _ in range(3))
        dpq = space.distance(p, q)
        assert dpq >= 0.0
        assert dpq == space.distance(q, p)
        assert dpq <= space.distance(p, r) + space.distance(r, q) + 1e-12
    p = random_point(space, rng)
    assert space.distance(p, p) == 0.0


@pytest.mark.parametrize("space", SPACES, ids=["circle", "interval", "graph"])
def test_geodesic_consistency(space):
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, q = random_point(space, rng), random_point(space, rng)
        s, t = rng.uniform(0, 1, 2)
        d = space.distance(p, q)
        a = space.geodesic(p, q, s)
        b = space.geodesic(p, q, t)
        assert space.distance(a, b) == pytest.approx(abs(s - t) * d, abs=1e-9)
        assert space.distance(p, a) == pytest.approx(s * d, abs=1e-9)


# edge 0's ends are nearer each other through both vertices and edge 1
LONG_EDGE = MetricGraph(2, ((0, 1, 3.0), (0, 1, 0.5)))


@st.composite
def _geodesic_cases(draw):
    """A space, raw endpoints p and q and an array of s: q is any point,
    p itself, p's antipode on circles, or a point on p's edge on graphs."""
    space = draw(st.one_of(_spaces(), st.just(LONG_EDGE)))
    point, _ = _raw_points(space)
    p = draw(st.one_of(point, st.sampled_from([0.0, 0.25, 0.1])) if not isinstance(space, MetricGraph) else point)
    others = [point, st.just(p)]
    if isinstance(space, Circle):
        others.append(st.just(p + space.circumference / 2.0))
    if isinstance(space, MetricGraph):
        others.append(st.builds(GraphPoint, st.just(p.edge), st.floats(0.0, 1.0)))
    q = draw(st.one_of(*others))
    s = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5])), min_size=1, max_size=6))
    return space, p, q, s


@settings(max_examples=400, deadline=None)
@given(_geodesic_cases())
# the walk along edge 0 ends at t = -1e-12 less a rounding error: past the
# vertex that q canonicalizes to
@example((LONG_EDGE, GraphPoint(0, 0.75), GraphPoint(1, 1e-12), [1.0]))
def test_geodesic_many_matches_the_scalar_oracle(case):
    """geodesic_many at an array of s equals the oracle's geodesic at each
    s, and scalar geodesic (its one-row call) equals it too, with ==."""
    space, p, q, s = case
    want = [oracle_geodesic(space, p, q, x) for x in s]
    got = space.geodesic_many(p, q, np.array(s)).tolist()
    if isinstance(space, MetricGraph):
        assert got == [[w.edge, w.t] for w in want]
    else:
        assert got == want
    assert [space.geodesic(p, q, x) for x in s] == want


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_circle_canon_matches_canon_many(data):
    """Circle.canon and canon_many equal the scalar oracle value for value
    and bit for bit: points anywhere, within CANON_TOL of the seam on
    either side, signed zeros, tiny, huge and NaN coordinates."""
    space = Circle(data.draw(st.sampled_from([1.0, 2.5, 0.3])))
    point, _ = _raw_points(space)
    extremes = st.sampled_from([5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, math.nan])
    xs = data.draw(st.lists(st.one_of(point, extremes, st.floats(-1e6, 1e6)), min_size=1, max_size=8))
    want = [float.hex(oracle_circle_canon(space.circumference, x)) for x in xs]
    assert [float.hex(space.canon(x)) for x in xs] == want
    assert [float.hex(x) for x in space.canon_many(np.array(xs)).tolist()] == want


@pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 2.5, math.pi, 1e3, 1e6])
def test_circle_canon_is_the_scalar_oracle_bit_for_bit(c):
    """Circle.canon, one row of canon_many, equals the scalar oracle bit
    for bit on the seam's edge values and on random coordinates, from
    within one turn to far outside it."""
    tol = CANON_TOL * max(1.0, c)
    edges = [0.0, -0.0, c, -c, c - 1e-13, 1e-13, -1e-13, 3 * c, 5e-324, -5e-324, 1e300, -1e300, math.nan, tol, c - tol]
    rng = np.random.default_rng(17)
    xs = edges + (rng.uniform(-4 * c, 4 * c, 6000) * np.exp(rng.uniform(-12, 12, 6000))).tolist()
    want = [float.hex(oracle_circle_canon(c, x)) for x in xs]
    space = Circle(c)
    assert [float.hex(space.canon(x)) for x in xs] == want
    assert [float.hex(x) for x in space.canon_many(np.array(xs)).tolist()] == want


@pytest.mark.parametrize("space", SPACES, ids=["circle", "interval", "graph"])
def test_pairwise_kernel_matches_scalar(space):
    """The batch Hausdorff kernel on random configurations of 1-4 points
    agrees exactly with scalar hausdorff, and with the max-min of the
    oracle point metric, on every space."""
    rng = np.random.default_rng(2)

    def random_configs(count):
        return [
            dedup(space, [random_point(space, rng) for _ in range(int(rng.integers(1, 5)))])
            for _ in range(count)
        ]

    configs_a, configs_b = random_configs(2000), random_configs(2000)
    batch = batch_hausdorff(space, _pad_lists(space, [c.points for c in configs_a]), _pad_lists(space, [c.points for c in configs_b]))
    metric = oracle_metric(space)
    for got, a, b in zip(batch, configs_a, configs_b):
        forward = max(min(metric(p, q) for q in b.points) for p in a.points)
        backward = max(min(metric(p, q) for p in a.points) for q in b.points)
        assert got == hausdorff(space, a, b) == max(forward, backward)


def test_invalid_points_rejected():
    with pytest.raises(InvalidPoint):
        Interval(1.0).canon(1.5)
    with pytest.raises(InvalidPoint):
        Circle(1.0).canon(GraphPoint(0, 0.5))
    with pytest.raises(InvalidPoint):
        FIVE_EDGE.canon(GraphPoint(99, 0.5))


@st.composite
def _tied_multigraphs(draw):
    """A connected multigraph of 2-9 vertices with integer edge lengths, so
    that shortest paths tie: a random spanning tree plus extra edges that
    may be parallel or self loops, each edge's ends in random order, the
    edge list shuffled."""
    n = draw(st.integers(2, 9))
    lengths = st.integers(1, 3).map(float)
    edges = [(draw(st.integers(0, v - 1)), v, draw(lengths)) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex, lengths), max_size=2 * n))
    edges = [(v, u, l) if draw(st.booleans()) else (u, v, l) for u, v, l in edges]
    return MetricGraph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_tables_match_the_edge_scanning_oracle(data):
    """On graphs whose paths tie, the incidence-list search gives the
    oracle's distances (bit for bit) and lexicographic routes from every
    source, the same vertex points and edge ends, and the same route
    segments between points on edges and at vertices."""
    graph = data.draw(_tied_multigraphs())
    dmat = graph.vertex_distance_matrix()
    for source in range(graph.num_vertices):
        dist, route = oracle_paths_from(graph, source)
        got_dist, got_route = graph._paths_from(source)
        assert [float.hex(d) for d in got_dist] == [float.hex(d) for d in dist]
        assert [float.hex(d) for d in dmat[source].tolist()] == [float.hex(d) for d in dist]
        assert got_route == route
    points = [oracle_vertex_point(graph, v) for v in range(graph.num_vertices)]
    assert [graph.vertex_point(v) for v in range(graph.num_vertices)] == points
    ends = [[points[u], points[v]] for u, v, _ in graph.edges]
    assert graph._ends.tolist() == [[list(a), list(b)] for a, b in ends]
    t = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    point = st.builds(GraphPoint, st.integers(0, len(graph.edges) - 1), t).map(graph.canon)
    for p, q in data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=8)):
        segs, total = graph._route(p, q)
        want_segs, want_total = oracle_route(graph, p, q)
        assert segs == want_segs and float.hex(total) == float.hex(want_total)


@pytest.mark.parametrize("v", [-1, 4], ids=["negative", "num-vertices"])
def test_vertex_point_rejects_a_vertex_out_of_range(v):
    """vertex_point raises InvalidPoint outside range(num_vertices); -1
    does not wrap round to the last vertex."""
    with pytest.raises(InvalidPoint):
        FIVE_EDGE.vertex_point(v)


def test_graph_requires_connectivity():
    with pytest.raises(ValueError):
        MetricGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))


def test_a_metric_graph_is_its_vertex_count_and_edges():
    """The graph's derived tables are cached properties, not fields: the
    constructor takes no third argument, and a graph whose tables are
    built still equals and hashes as a fresh one."""
    assert [f.name for f in dataclasses.fields(MetricGraph)] == ["num_vertices", "edges"]
    with pytest.raises(TypeError):
        MetricGraph(2, ((0, 1, 1.0),), {"matrix": np.zeros((2, 2))})
    built = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    built.vertex_distance_matrix()
    built.canon_many(np.array([[1.0, 0.0]]))
    fresh = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    assert built == fresh and hash(built) == hash(fresh)


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
