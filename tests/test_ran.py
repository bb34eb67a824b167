import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circle_point_metric, make_graph_point_metric, oracle_hausdorff
from ranspace.errors import CapExceeded, EmptyConfiguration, SpaceMismatch
from ranspace.ran import DEDUP_EPS, Configuration, configuration, dedup, dedup_circle, hausdorff, union
from ranspace.space import CANON_TOL, Circle, GraphPoint, MetricGraph

CIRCLE = Circle(1.0)
GRAPH = MetricGraph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.75), (3, 0, 1.25), (0, 2, 2.0)))


def test_hausdorff_identity():
    a = configuration(CIRCLE, [0.0, 0.5], cap=2)
    assert hausdorff(CIRCLE, a, a) == 0.0


def test_hausdorff_hand_cases():
    a = configuration(CIRCLE, [0.0])
    b = configuration(CIRCLE, [0.0, 0.5])
    assert hausdorff(CIRCLE, a, b) == pytest.approx(0.5)
    c = configuration(CIRCLE, [0.0, 0.5])
    d = configuration(CIRCLE, [0.25, 0.75])
    assert hausdorff(CIRCLE, c, d) == pytest.approx(0.25)


def test_hausdorff_matches_bruteforce_oracle_circle():
    rng = np.random.default_rng(3)
    metric = circle_point_metric(1.0)
    for _ in range(300):
        a = configuration(CIRCLE, rng.uniform(0, 1, rng.integers(1, 5)))
        b = configuration(CIRCLE, rng.uniform(0, 1, rng.integers(1, 5)))
        assert hausdorff(CIRCLE, a, b) == oracle_hausdorff(metric, a.points, b.points)


def test_hausdorff_matches_bruteforce_oracle_graph():
    rng = np.random.default_rng(4)
    metric = make_graph_point_metric(GRAPH.edges, GRAPH.num_vertices)
    for _ in range(60):
        a = configuration(GRAPH, [GRAPH.random_point(rng) for _ in range(int(rng.integers(1, 4)))])
        b = configuration(GRAPH, [GRAPH.random_point(rng) for _ in range(int(rng.integers(1, 4)))])
        assert hausdorff(GRAPH, a, b) == oracle_hausdorff(metric, a.points, b.points)


def test_hausdorff_metric_axioms():
    rng = np.random.default_rng(5)
    configs = [configuration(CIRCLE, rng.uniform(0, 1, rng.integers(1, 5))) for _ in range(30)]
    for a in configs:
        for b in configs:
            assert hausdorff(CIRCLE, a, b) == hausdorff(CIRCLE, b, a)
    for _ in range(300):
        a, b, c = (configs[rng.integers(len(configs))] for _ in range(3))
        assert hausdorff(CIRCLE, a, b) <= hausdorff(CIRCLE, a, c) + hausdorff(CIRCLE, c, b) + 1e-12


def test_hausdorff_space_mismatch():
    a = configuration(GRAPH, [GraphPoint(0, 0.5)])
    b = configuration(GRAPH, [GraphPoint(1, 0.25)])
    with pytest.raises(SpaceMismatch):
        hausdorff(CIRCLE, a, b)


def test_union_diagonal_is_inclusion():
    a = configuration(CIRCLE, [0.1, 0.6], cap=2)
    assert union(CIRCLE, a, a, cap=2).points == a.points


def test_union_disjoint_and_cap():
    a = configuration(CIRCLE, [0.0])
    b = configuration(CIRCLE, [0.5])
    got = union(CIRCLE, a, b, cap=2)
    assert got.points == (0.0, 0.5)
    c = configuration(CIRCLE, [0.25, 0.5])
    with pytest.raises(CapExceeded):
        union(CIRCLE, a, c, cap=2)


def test_union_commutative_associative_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = configuration(CIRCLE, rng.uniform(0, 1, 2))
        b = configuration(CIRCLE, rng.uniform(0, 1, 2))
        c = configuration(CIRCLE, rng.uniform(0, 1, 2))
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
        a = configuration(CIRCLE, rng.uniform(0, 1, 3))
        b = configuration(CIRCLE, rng.uniform(0, 1, 3))
        merged = union(CIRCLE, a, b, cap=99)
        assert hausdorff(CIRCLE, a, merged) <= hausdorff(CIRCLE, a, b) + 1e-12


def test_dedup_cases():
    got = dedup(CIRCLE, [0.0, 0.0], eps=1e-9)
    assert got.points == (0.0,)
    got = dedup(CIRCLE, [0.0, 1e-12, 0.5], eps=1e-9)
    assert got.points == (0.0, 0.5)
    got = dedup(CIRCLE, [0.0, 0.3], eps=0.1)
    assert got.points == (0.0, 0.3)
    with pytest.raises(EmptyConfiguration):
        dedup(CIRCLE, [], eps=1e-9)


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
    c, row = case
    space = Circle(c)
    kept, counts = dedup_circle(space, np.array([row]))
    got = tuple(kept[0, : counts[0]].tolist())
    want = dedup(space, [p for p in row if not math.isnan(p)]).points
    assert repr(got) == repr(want)


def test_configuration_sorted_and_capped():
    c = configuration(CIRCLE, [0.7, 0.2, 0.7], cap=3)
    assert c.points == (0.2, 0.7)
    with pytest.raises(CapExceeded):
        Configuration((0.1, 0.2), cap=1)
