import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circle_point_metric, make_graph_point_metric, oracle_dedup, oracle_hausdorff, oracle_metric
from ranspace import ran
from ranspace.errors import CapExceeded, EmptyConfiguration, InvalidPoint, SpaceMismatch
from ranspace.ran import DEDUP_EPS, Configuration, _pad_lists, _padding, _slot_points, blocks, dedup, dedup_many, hausdorff, union
from ranspace.space import CANON_TOL, Circle, GraphPoint, Interval, MetricGraph

CIRCLE = Circle(1.0)
GRAPH = MetricGraph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.75), (3, 0, 1.25), (0, 2, 2.0)))


def test_hausdorff_identity():
    a = dedup(CIRCLE, [0.0, 0.5], cap=2)
    assert hausdorff(CIRCLE, a, a) == 0.0


def test_hausdorff_hand_cases():
    a = dedup(CIRCLE, [0.0])
    b = dedup(CIRCLE, [0.0, 0.5])
    assert hausdorff(CIRCLE, a, b) == pytest.approx(0.5)
    c = dedup(CIRCLE, [0.0, 0.5])
    d = dedup(CIRCLE, [0.25, 0.75])
    assert hausdorff(CIRCLE, c, d) == pytest.approx(0.25)


def test_hausdorff_matches_bruteforce_oracle_circle():
    rng = np.random.default_rng(3)
    metric = circle_point_metric(1.0)
    for _ in range(300):
        a = dedup(CIRCLE, rng.uniform(0, 1, rng.integers(1, 5)))
        b = dedup(CIRCLE, rng.uniform(0, 1, rng.integers(1, 5)))
        assert hausdorff(CIRCLE, a, b) == oracle_hausdorff(metric, a.points, b.points)


def test_hausdorff_matches_bruteforce_oracle_graph():
    rng = np.random.default_rng(4)
    metric = make_graph_point_metric(GRAPH.edges, GRAPH.num_vertices)
    for _ in range(60):
        a = dedup(GRAPH, [GRAPH.random_point(rng) for _ in range(int(rng.integers(1, 4)))])
        b = dedup(GRAPH, [GRAPH.random_point(rng) for _ in range(int(rng.integers(1, 4)))])
        assert hausdorff(GRAPH, a, b) == oracle_hausdorff(metric, a.points, b.points)


def test_hausdorff_metric_axioms():
    rng = np.random.default_rng(5)
    configs = [dedup(CIRCLE, rng.uniform(0, 1, rng.integers(1, 5))) for _ in range(30)]
    for a in configs:
        for b in configs:
            assert hausdorff(CIRCLE, a, b) == hausdorff(CIRCLE, b, a)
    for _ in range(300):
        a, b, c = (configs[rng.integers(len(configs))] for _ in range(3))
        assert hausdorff(CIRCLE, a, b) <= hausdorff(CIRCLE, a, c) + hausdorff(CIRCLE, c, b) + 1e-12


def test_hausdorff_space_mismatch():
    a = dedup(GRAPH, [GraphPoint(0, 0.5)])
    b = dedup(GRAPH, [GraphPoint(1, 0.25)])
    with pytest.raises(SpaceMismatch):
        hausdorff(CIRCLE, a, b)


def test_union_diagonal_is_inclusion():
    a = dedup(CIRCLE, [0.1, 0.6], cap=2)
    assert union(CIRCLE, a, a, cap=2).points == a.points


def test_union_disjoint_and_cap():
    a = dedup(CIRCLE, [0.0])
    b = dedup(CIRCLE, [0.5])
    got = union(CIRCLE, a, b, cap=2)
    assert got.points == (0.0, 0.5)
    c = dedup(CIRCLE, [0.25, 0.5])
    with pytest.raises(CapExceeded):
        union(CIRCLE, a, c, cap=2)


def test_union_commutative_associative_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = dedup(CIRCLE, rng.uniform(0, 1, 2))
        b = dedup(CIRCLE, rng.uniform(0, 1, 2))
        c = dedup(CIRCLE, rng.uniform(0, 1, 2))
        ab = union(CIRCLE, a, b, cap=99)
        ba = union(CIRCLE, b, a, cap=99)
        assert ab.points == ba.points
        left = union(CIRCLE, ab, c, cap=99)
        right = union(CIRCLE, a, union(CIRCLE, b, c, cap=99), cap=99)
        assert left.points == right.points
        assert union(CIRCLE, a, a, cap=99).points == a.points


def test_union_shrinks_hausdorff():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = dedup(CIRCLE, rng.uniform(0, 1, 3))
        b = dedup(CIRCLE, rng.uniform(0, 1, 3))
        merged = union(CIRCLE, a, b, cap=99)
        assert hausdorff(CIRCLE, a, merged) <= hausdorff(CIRCLE, a, b) + 1e-12


def test_dedup_cases():
    got = dedup(CIRCLE, [0.0, 0.0])
    assert got.points == (0.0,)
    got = dedup(CIRCLE, [0.0, 1e-12, 0.5])
    assert got.points == (0.0, 0.5)
    got = dedup(CIRCLE, [0.0, 0.3])
    assert got.points == (0.0, 0.3)
    with pytest.raises(EmptyConfiguration):
        dedup(CIRCLE, [])


@st.composite
def _circle_rows(draw):
    """A circumference and a 3-slot row of 1-3 points, NaN in the empty
    slots: points anywhere, within CANON_TOL of the seam on either side,
    and at about DEDUP_EPS from the first point, just inside or beyond."""
    c = draw(st.sampled_from([1.0, 2.5, 0.3]))
    tol = CANON_TOL * max(1.0, c)
    seam = st.one_of(st.floats(-2 * tol, 2 * tol), st.floats(c - 2 * tol, c + 2 * tol))
    first = draw(st.one_of(st.floats(-c, 2 * c), seam))
    step = st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]).map(lambda f: f * DEDUP_EPS)
    near = st.tuples(step, st.sampled_from([1.0, -1.0])).map(lambda d: first + d[0] * d[1])
    others = draw(st.lists(st.one_of(st.floats(-c, 2 * c), seam, near), max_size=2))
    row = [first] + others
    return c, draw(st.permutations(row + [math.nan] * (3 - len(row))))


@settings(max_examples=400, deadline=None)
@given(_circle_rows())
def test_dedup_circle_matches_scalar_dedup(case):
    """dedup_many on a circle row equals the one-point-at-a-time reference
    dedup (oracles.oracle_dedup), by repr."""
    c, row = case
    space = Circle(c)
    kept, counts = dedup_many(space, np.array([row]))
    got = tuple(kept[0, : counts[0]].tolist())
    want = oracle_dedup(space, [p for p in row if not math.isnan(p)]).points
    assert repr(got) == repr(want)


THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# distances at DEDUP_EPS and one ulp either side of it, and clearly inside
# and beyond it
STEPS = (DEDUP_EPS, math.nextafter(DEDUP_EPS, 0.0), math.nextafter(DEDUP_EPS, 1.0), 0.5 * DEDUP_EPS, 2.0 * DEDUP_EPS)


@st.composite
def _spaces(draw):
    kind = draw(st.sampled_from(["circle", "interval", "theta", "k4"]))
    if kind == "circle":
        return Circle(draw(st.sampled_from([1.0, 2.5, 0.3])))
    if kind == "interval":
        return Interval(draw(st.sampled_from([1.0, 2.5])))
    if kind == "theta":
        return THETA
    lengths = draw(st.lists(st.floats(0.3, 2.0), min_size=6, max_size=6))
    return MetricGraph(4, tuple((u, v, l) for (u, v), l in zip(K4_EDGES, lengths)))


def _raw_points(space):
    """A strategy for raw points of space (canon accepts them all), and one
    for points a step of STEPS from a given point, either way."""
    step = st.tuples(st.sampled_from(STEPS), st.sampled_from([1.0, -1.0])).map(lambda d: d[0] * d[1])
    if isinstance(space, Circle):
        c = space.circumference
        tol = CANON_TOL * max(1.0, c)
        seam = st.one_of(st.floats(-2 * tol, 2 * tol), st.floats(c - 2 * tol, c + 2 * tol))
        return st.one_of(st.floats(-c, 2 * c), seam, st.sampled_from([0.0, -0.0])), lambda p: step.map(lambda d: p + d)
    if isinstance(space, Interval):
        length = space.length
        ends = st.sampled_from([-0.0, 0.0, length, CANON_TOL / 2, -CANON_TOL / 2, length + CANON_TOL / 2])
        inside = st.one_of(st.floats(0.0, length), ends)
        return inside, lambda p: step.map(lambda d: min(max(p + d, 0.0), length))
    edge = st.integers(0, len(space.edges) - 1)
    near_ends = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(-CANON_TOL / 2, 2 * CANON_TOL),
        st.floats(1 - 2 * CANON_TOL, 1 + CANON_TOL / 2),
    )
    point = st.builds(GraphPoint, edge, st.one_of(st.floats(0.0, 1.0), near_ends))

    def near(p):
        length = space.edges[p.edge][2]
        return step.map(lambda d: GraphPoint(p.edge, min(max(p.t + d / length, 0.0), 1.0)))

    return point, near


@st.composite
def _dedup_cases(draw):
    """A space and 1-4 cells of 1-4 raw points in 5 slots, NaN in the
    empty ones (edge 0 and a NaN t on graphs) at any position."""
    space = draw(_spaces())
    point, near = _raw_points(space)
    pad = (0.0, math.nan) if isinstance(space, MetricGraph) else math.nan
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        first = draw(point)
        rest = draw(st.lists(st.one_of(point, near(first)), max_size=3))
        cells.append(draw(st.permutations([first] + rest + [pad] * (4 - len(rest)))))
    return space, cells


def _hex(points):
    return [(p.edge, float.hex(p.t)) if isinstance(p, GraphPoint) else float.hex(p) for p in points]


@settings(max_examples=400, deadline=None)
@given(_dedup_cases())
def test_dedup_many_matches_scalar_dedup(case):
    """dedup_many on every space equals the one-point-at-a-time reference
    dedup (oracles.oracle_dedup), bit for bit."""
    space, cells = case
    graph = isinstance(space, MetricGraph)
    kept, counts = dedup_many(space, np.array(cells, dtype=float))
    for cell, row, k in zip(cells, kept, counts.tolist()):
        points = [p for p in cell if not math.isnan(p[1] if graph else p)]
        want = oracle_dedup(space, points).points
        got = [GraphPoint(int(e), t) for e, t in row[:k].tolist()] if graph else row[:k].tolist()
        assert k == len(want)
        assert _hex(got) == _hex(want)


@st.composite
def _block_cases(draw):
    """A space and an encoding shaped (rows, cols, width) as contract_pipeline
    builds a block's: width 1-8, the leading frozen slots of each column
    shared by every row (np.broadcast_to, then np.concatenate with the
    moving slots), padding at any slot, and points often a step of STEPS
    from a point drawn before them in the cell, so chains of near points
    cross DEDUP_EPS."""
    space = draw(_spaces())
    point, near = _raw_points(space)
    graph = isinstance(space, MetricGraph)
    pad = (0.0, math.nan) if graph else math.nan

    def slots(count, before):
        cell = list(before)
        for _ in range(count):
            real = [p for p in cell if not math.isnan(p[1] if graph else p)]
            chained = [st.sampled_from(real).flatmap(near)] if real else []
            cell.append(draw(st.one_of([point, st.just(pad), *chained])))
        return cell[len(before):]

    rows, cols, width = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    frozen = draw(st.integers(0, width))
    tail = (2,) if graph else ()
    lead = [slots(frozen, []) for _ in range(cols)]
    moving = [[slots(width - frozen, lead[c]) for c in range(cols)] for _ in range(rows)]
    lead = np.array(lead, dtype=float).reshape((cols, frozen) + tail)
    moving = np.array(moving, dtype=float).reshape((rows, cols, width - frozen) + tail)
    return space, np.concatenate([np.broadcast_to(lead, (rows,) + lead.shape), moving], axis=2)


@settings(max_examples=300, deadline=None)
@given(_block_cases())
def test_dedup_many_matches_scalar_dedup_on_blocks(case):
    """dedup_many on a block-shaped encoding equals the one-point-at-a-time
    reference dedup (oracles.oracle_dedup) in every cell, bit for bit, pads
    each cell after its kept points, and leaves its input as it was."""
    space, enc = case
    graph = isinstance(space, MetricGraph)
    before = enc.copy()
    kept, counts = dedup_many(space, enc)
    assert enc.tobytes() == before.tobytes()
    assert kept.shape == enc.shape and counts.shape == enc.shape[:2]
    cells = enc.reshape((-1,) + enc.shape[2:])
    for cell, row, k in zip(cells, kept.reshape(cells.shape), counts.ravel().tolist()):
        points = [p for p in cell.tolist() if not math.isnan(p[1] if graph else p)]
        want = oracle_dedup(space, [GraphPoint(int(e), t) for e, t in points] if graph else points).points if points else ()
        got = [GraphPoint(int(e), t) for e, t in row[:k].tolist()] if graph else row[:k].tolist()
        assert _hex(got) == _hex(want)
        assert np.array_equal(row[k:], _padding(space, (len(row) - k,)), equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_distance_many_matches_scalar_distance(data):
    space = data.draw(_spaces())
    point, near = _raw_points(space)
    firsts = data.draw(st.lists(point, min_size=1, max_size=8))
    seconds = [data.draw(st.one_of(point, near(p))) for p in firsts]
    xs, ys = ([space.canon(p) for p in ps] for ps in (firsts, seconds))
    got = space.distance_many(np.array(xs, dtype=float), np.array(ys, dtype=float)).tolist()
    assert [float.hex(d) for d in got] == [float.hex(oracle_metric(space)(p, q)) for p, q in zip(xs, ys)]
    assert got == [space.distance(p, q) for p, q in zip(xs, ys)]


@pytest.mark.parametrize("graph", ["theta", "random-theta", "random-k4"])
def test_distance_many_matches_scalar_distance_on_random_graph_pairs(graph):
    """Bit for bit over 20,000 random pairs: summing the legs in another
    order, or not putting the smaller point first, moves the last bits of
    some of them."""
    rng = np.random.default_rng(11)
    if graph == "theta":
        space = THETA
    elif graph == "random-theta":
        space = MetricGraph(2, tuple((0, 1, l) for l in rng.uniform(0.3, 2.0, 3)))
    else:
        space = MetricGraph(4, tuple((u, v, l) for (u, v), l in zip(K4_EDGES, rng.uniform(0.3, 2.0, 6))))
    xs = [space.random_point(rng) for _ in range(20000)]
    ys = [space.random_point(rng) for _ in range(20000)]
    got = space.distance_many(np.array(xs), np.array(ys)).tolist()
    metric = oracle_metric(space)
    assert [float.hex(d) for d in got] == [float.hex(metric(p, q)) for p, q in zip(xs, ys)]


def test_dedup_many_keeps_vertex_points_once():
    """A vertex reached from each of its edges is one point."""
    cell = [[e, t] for e in range(3) for t in (0.0, 1.0)]
    kept, counts = dedup_many(THETA, np.array([cell]))
    assert counts.tolist() == [2]
    assert kept[0, :2].tolist() == [list(THETA.vertex_point(0)), list(THETA.vertex_point(1))]


def test_configuration_sorted_and_capped():
    c = dedup(CIRCLE, [0.7, 0.2, 0.7], cap=3)
    assert c.points == (0.2, 0.7)
    with pytest.raises(CapExceeded):
        Configuration((0.1, 0.2), cap=1)


@pytest.mark.parametrize("space, good, nan", [
    (CIRCLE, 0.2, math.nan),
    (Interval(1.0), 0.2, math.nan),
    (THETA, GraphPoint(0, 0.2), GraphPoint(1, math.nan)),
], ids=["circle", "interval", "theta"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_dedup_rejects_a_nan_point_wherever_it_sits(space, good, nan, where):
    """Scalar dedup raises InvalidPoint on a NaN point, as the array path
    (make_track) does, instead of keeping or dropping it by position."""
    points = [good, good]
    points.insert(where, nan)
    with pytest.raises(InvalidPoint):
        dedup(space, points)


@st.composite
def _point_lists(draw):
    """A space and 1-6 raw points on it, some a step of STEPS from the first."""
    space = draw(_spaces())
    point, near = _raw_points(space)
    first = draw(point)
    return space, [first] + draw(st.lists(st.one_of(point, near(first)), max_size=5))


@settings(max_examples=300, deadline=None)
@given(_point_lists())
def test_dedup_is_idempotent(case):
    """dedup of a configuration's own points gives back its points, bit
    for bit, on every space, by the scalar and by the array kernel."""
    space, points = case
    once = dedup(space, points)
    assert _hex(dedup(space, once.points).points) == _hex(once.points)
    kept, counts = dedup_many(space, _pad_lists(space, [once.points]))
    assert counts.tolist() == [len(once)]
    assert _hex(_slot_points(space, kept[0, :len(once)])) == _hex(once.points)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.integers(0, 100), st.integers(1, 64))
def test_blocks_cover_the_range_by_the_block_rule(n, width, cells):
    """blocks(n, width) is consecutive ranges that cover range(n) exactly,
    each of max(1, BLOCK_CELLS // max(width, 1)) items but the last, which
    holds at most that many."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ran, "BLOCK_CELLS", cells)
        got = blocks(n, width)
    step = max(1, cells // max(width, 1))
    sizes = [stop - first for first, stop in got]
    # nonempty ranges that list range(n) in order are consecutive
    assert [i for first, stop in got for i in range(first, stop)] == list(range(n))
    assert all(0 < size <= step for size in sizes)
    assert all(size == step for size in sizes[:-1])
