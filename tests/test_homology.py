import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_pairs, oracle_hausdorff, oracle_homology_table, oracle_metric, oracle_sample_configs
from ranspace import homology, ran
from ranspace.cli import _pair_rows
from ranspace.errors import SizeLimit
from ranspace.homology import (
    MetricCloud,
    PersistenceDiagram,
    PersistencePair,
    _cofaces,
    _filtration,
    cloud_from_configs,
    count_simplices,
    landmark_cloud,
    long_lived_h1_count,
    maxmin_subsample,
    rips_persistence_h1,
    sample_configs,
    sample_ran,
)
from ranspace.ran import dedup
from ranspace.space import Circle, Interval, MetricGraph


def as_tuples(pairs):
    return sorted((p.birth, p.death, p.dim) for p in pairs)


C1 = Circle(1.0)


def singleton_cloud(coords):
    return cloud_from_configs(C1, [dedup(C1, [c]).points for c in coords])


def test_three_point_frame():
    dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    cloud = MetricCloud(tuple("abc"), dist)
    pairs = rips_persistence_h1(cloud, max_scale=2.0)
    h1 = [p for p in pairs if p.dim == 1]
    # the cycle closes at scale 1 and the 2-simplex fills it at the same scale
    assert [(p.birth, p.death) for p in h1] == [(1.0, 1.0)]
    h0 = [p for p in pairs if p.dim == 0]
    assert len(h0) == 3
    assert sum(1 for p in h0 if math.isinf(p.death)) == 1


def test_cloud_rejects_nearly_symmetric_matrix():
    # off by 1e-7 relative: inside numpy's default allclose tolerance
    dist = np.array([[0.0, 0.3], [0.3000001, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MetricCloud(tuple("ab"), dist)
    MetricCloud(tuple("ab"), np.array([[0.0, 0.3], [0.3, 0.0]]))


def test_single_point_cloud():
    cloud = singleton_cloud([0.0])
    pairs = rips_persistence_h1(cloud, max_scale=1.0)
    assert [p for p in pairs if p.dim == 1] == []
    assert as_tuples(pairs) == [(0.0, math.inf, 0)]


def test_eight_points_on_circle():
    cloud = singleton_cloud([i / 8 for i in range(8)])
    pairs = rips_persistence_h1(cloud, max_scale=0.49)
    assert as_tuples(pairs) == naive_pairs(cloud.dist, 0.49)
    h1 = [p for p in pairs if p.dim == 1 and p.persistence > 0.1]
    assert len(h1) == 1
    assert h1[0].birth == pytest.approx(0.125)


def test_matches_naive_reduction_on_random_clouds():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 10))
        cloud = singleton_cloud(rng.uniform(0, 1, m))
        scale = float(rng.uniform(0.1, 0.6))
        assert as_tuples(rips_persistence_h1(cloud, scale)) == naive_pairs(cloud.dist, scale)


def test_matches_naive_reduction_on_tied_integer_distances():
    # L1 distances between points of a 4x4 grid, drawn with repetition:
    # duplicate points give zero off-diagonal entries and nearly every
    # value is tied, which exercises the elder rule and tie-breaking
    rng = np.random.default_rng(5)
    grid = np.array([(x, y) for x in range(4) for y in range(4)])
    for _ in range(120):
        m = int(rng.integers(2, 10))
        pts = grid[rng.integers(0, len(grid), m)]
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
        cloud = MetricCloud(tuple(range(m)), dist)
        scale = float(rng.choice([0.5, 1.0, 2.0, 3.0, 4.5, 6.0]))
        assert as_tuples(rips_persistence_h1(cloud, scale)) == naive_pairs(dist, scale)


def test_pairs_invariant_under_relabeling():
    rng = np.random.default_rng(1)
    cloud = singleton_cloud(rng.uniform(0, 1, 9))
    perm = rng.permutation(9)
    permuted = MetricCloud(
        tuple(cloud.labels[i] for i in perm), cloud.dist[np.ix_(perm, perm)]
    )
    assert as_tuples(rips_persistence_h1(cloud, 0.4)) == as_tuples(
        rips_persistence_h1(permuted, 0.4)
    )


def test_pairs_invariant_under_relabeling_sampled_cloud():
    cloud = sample_ran(C1, n=3, m=60, seed=0)
    scale = 0.25
    assert count_simplices(cloud, scale) >= 2000
    perm = np.random.default_rng(6).permutation(60)
    permuted = MetricCloud(
        tuple(cloud.labels[i] for i in perm), cloud.dist[np.ix_(perm, perm)]
    )
    assert as_tuples(rips_persistence_h1(cloud, scale)) == as_tuples(
        rips_persistence_h1(permuted, scale)
    )


def test_h0_pair_counts():
    rng = np.random.default_rng(2)
    cloud = singleton_cloud(rng.uniform(0, 1, 12))
    pairs = rips_persistence_h1(cloud, max_scale=0.6)
    h0 = [p for p in pairs if p.dim == 0]
    assert len(h0) == 12
    assert all(p.birth == 0.0 for p in h0)
    # a circle sample this dense is connected well below the max scale
    assert sum(1 for p in h0 if math.isinf(p.death)) == 1


def test_sample_ran_deterministic_and_sized():
    cloud_a = sample_ran(C1, n=3, m=25, seed=42)
    cloud_b = sample_ran(C1, n=3, m=25, seed=42)
    assert cloud_a.labels == cloud_b.labels
    assert np.array_equal(cloud_a.dist, cloud_b.dist)
    assert len(cloud_a) == 25
    assert all(1 <= len(c) <= 3 for c in cloud_a.labels)
    single = sample_ran(C1, n=1, m=1, seed=0)
    assert single.dist.shape == (1, 1) and single.dist[0, 0] == 0.0


@pytest.mark.parametrize("space", [C1, MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))], ids=["circle", "theta"])
def test_cloud_of_no_cells_is_empty(space):
    cloud = cloud_from_configs(space, [])
    assert cloud.labels == () and cloud.dist.shape == (0, 0)


def test_sample_ran_on_graph():
    theta = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0)))
    cloud = sample_ran(theta, n=2, m=15, seed=3)
    assert len(cloud) == 15
    assert np.allclose(cloud.dist, cloud.dist.T)


def test_cloud_matrix_satisfies_triangle_inequality():
    cloud = sample_ran(C1, n=3, m=40, seed=9)
    d = cloud.dist
    # d[i,k] <= d[i,j] + d[j,k] for every intermediate j
    via = d[:, :, None] + d[None, :, :]
    assert (d[:, None, :] - via).max() <= 1e-9


def test_maxmin_subsample_deterministic_and_spread():
    cloud = sample_ran(C1, n=1, m=60, seed=5)
    sub_a = maxmin_subsample(cloud, 12, seed=0)
    sub_b = maxmin_subsample(cloud, 12, seed=0)
    assert sub_a.labels == sub_b.labels
    assert len(sub_a) == 12
    # farthest-point landmarks on a dense circle sample spread out
    off_diag = sub_a.dist[~np.eye(12, dtype=bool)]
    assert off_diag.min() > 0.01


def test_size_limit(monkeypatch):
    """Over its budget, rips_persistence_h1 raises SizeLimit from the count
    alone, without listing a simplex."""
    def listed(*args):
        raise AssertionError("_filtration called over budget")

    monkeypatch.setattr(homology, "_filtration", listed)
    cloud = singleton_cloud(np.linspace(0, 0.9, 20))
    with pytest.raises(SizeLimit, match=f"^{count_simplices(cloud, 0.45)} simplices exceed budget 10$"):
        rips_persistence_h1(cloud, max_scale=0.45, budget=10)


def test_count_simplices_matches_enumeration():
    rng = np.random.default_rng(4)
    cloud = singleton_cloud(rng.uniform(0, 1, 10))
    scale = 0.3
    m = 10
    edges = sum(
        1 for i, j in combinations(range(m), 2) if cloud.dist[i, j] <= scale
    )
    tris = sum(
        1
        for i, j, k in combinations(range(m), 3)
        if max(cloud.dist[i, j], cloud.dist[i, k], cloud.dist[j, k]) <= scale
    )
    assert count_simplices(cloud, scale) == m + edges + tris


def _diagram_of_pairs(pairs):
    """The PersistenceDiagram of PersistencePairs."""
    pairs = tuple(pairs)
    return PersistenceDiagram([p.dim for p in pairs], [p.birth for p in pairs], [p.death for p in pairs])


def test_long_lived_count_rules():
    def mk(pers):
        return _diagram_of_pairs(PersistencePair(0.0, p, 1) for p in pers)

    assert long_lived_h1_count(mk([])) == 0
    assert long_lived_h1_count(mk([0.30, 0.02, 0.01])) == 1
    assert long_lived_h1_count(mk([0.05, 0.04])) == 0
    assert long_lived_h1_count(mk([0.3])) == 1
    assert long_lived_h1_count(_diagram_of_pairs([PersistencePair(0.1, math.inf, 1)])) == 1


THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def _cell_hex(cells):
    return [[(p.edge, p.t.hex()) if isinstance(p, tuple) else p.hex() for p in cell] for cell in cells]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([C1, Circle(2.7), Circle(0.05), Interval(1.0), THETA]), st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**32 - 1))
@example(C1, 5, 60, 0)
@example(THETA, 5, 60, 0)
def test_sample_configs_draws_as_the_point_by_point_oracle(space, n, m, seed):
    """One random_points call per configuration draws the values that
    one random_point(space, rng) call per point does, in the same seeded
    order, and one canonicalization of the whole sample keeps the same
    cells: equal cell for cell by float.hex (graph points by edge and t)."""
    assert _cell_hex(sample_configs(space, n, m, seed)) == _cell_hex(oracle_sample_configs(space, n, m, seed))


def _tied_grid_cloud(seed, m):
    pts = np.array([(x, y) for x in range(4) for y in range(4)])[np.random.default_rng(seed).integers(0, 16, m)]
    return MetricCloud(tuple(range(m)), np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float))


# (cloud, scale): tied integer distances with duplicate points; one point;
# a path whose every edge kills an H0 class; eight circle points with an
# essential H1 class (death inf); signed zeros off the diagonal, an H0
# death at 0.0 listed before a tied one at -0.0, which a sort that told
# them apart would swap; random points, whose values need all six digits
_ZEROS = np.array([[0.0, 0.0, 1.0, 2.0, 2.0],
                   [0.0, 0.0, 1.0, 2.0, 2.0],
                   [1.0, 1.0, 0.0, 1.0, 1.0],
                   [2.0, 2.0, 1.0, 0.0, -0.0],
                   [2.0, 2.0, 1.0, -0.0, 0.0]])
_TABLE_CASES = {
    "tied": lambda: (_tied_grid_cloud(5, 9), 2.0),
    "single": lambda: (singleton_cloud([0.0]), 1.0),
    "every-edge-kills": lambda: (singleton_cloud([0.0, 0.1, 0.2, 0.3]), 0.15),
    "essential-h1": lambda: (singleton_cloud([i / 8 for i in range(8)]), 0.3),
    "signed-zero": lambda: (MetricCloud(tuple("abcde"), _ZEROS), 1.5),
    "six-digit": lambda: (singleton_cloud(np.random.default_rng(0).uniform(0, 1, 9)), 0.4),
}


@pytest.mark.parametrize("block_cells", [ran.BLOCK_CELLS, 4, 12])
@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_pair_rows_print_the_f_string_table(case, block_cells, monkeypatch):
    """The homology table's rows, printed per block from the diagram's
    arrays, are the f-string table of its pairs byte for byte, in one
    block or in several; len() counts the pairs, and the pairs are the
    naive reduction's."""
    cloud, scale = _TABLE_CASES[case]()
    monkeypatch.setattr(ran, "BLOCK_CELLS", block_cells)
    diagram = rips_persistence_h1(cloud, scale)
    pairs = list(diagram)
    assert "".join(_pair_rows(diagram)) == oracle_homology_table(pairs)
    assert len(diagram) == len(pairs)
    assert as_tuples(diagram) == naive_pairs(cloud.dist, scale)
    if case == "essential-h1":
        assert any(p.dim == 1 and p.death == math.inf for p in pairs)
    if case == "every-edge-kills":
        assert [p.dim for p in pairs] == [0] * 4
    if case == "signed-zero":
        assert [p.death.hex() for p in pairs[:2]] == [(0.0).hex(), (-0.0).hex()]


@st.composite
def _sampled_cells(draw):
    """(space, cells): cells drawn with repetition from a small sample of
    configurations of at most 4 points, so duplicate cells are common."""
    space = draw(st.sampled_from([C1, Interval(1.0), THETA]))
    pool = sample_configs(space, n=draw(st.integers(1, 4)), m=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**16)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return space, tuple(pool[i] for i in picks)


@settings(max_examples=150, deadline=None)
@given(_sampled_cells(), st.data())
def test_landmark_cloud_is_maxmin_subsample_of_the_full_cloud(case, data):
    """The landmark rows computed on demand select the landmarks and give
    the distances that the full matrix does, bit for bit: k = 1, k < m and
    k >= m, with duplicate cells, on the circle, the interval and the
    theta graph."""
    space, cells = case
    m = len(cells)
    k = data.draw(st.sampled_from([1, m, m + 1]) | st.integers(1, m))
    seed = data.draw(st.integers(0, 2**16))
    got = landmark_cloud(space, cells, k, seed)
    want = maxmin_subsample(cloud_from_configs(space, cells), k, seed)
    assert got.labels == want.labels
    assert np.array_equal(got.dist.view(np.int64), want.dist.view(np.int64))


def test_landmark_cloud_of_a_sample_is_maxmin_subsample_of_sample_ran():
    for space, n, m, k in ((C1, 2, 250, 48), (THETA, 3, 80, 20)):
        got = landmark_cloud(space, sample_configs(space, n, m, seed=3), k, seed=3)
        want = maxmin_subsample(sample_ran(space, n, m, seed=3), k, seed=3)
        assert got.labels == want.labels
        assert np.array_equal(got.dist.view(np.int64), want.dist.view(np.int64))
    with pytest.raises(ValueError, match="at least one landmark"):
        landmark_cloud(C1, sample_configs(C1, 1, 5, seed=0), 0, seed=0)


@settings(max_examples=150, deadline=None)
@given(_sampled_cells(), st.data())
def test_blocked_cloud_matches_the_oracle_pair_by_pair(case, data):
    """cloud_from_configs in blocks of a few pairs (several blocks, the last
    one ragged) gives each pair the oracle Hausdorff distance exactly."""
    space, cells = case
    m = len(cells)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ran, "BLOCK_CELLS", data.draw(st.integers(1, 4 * m)))
        dist = cloud_from_configs(space, cells).dist
    metric = oracle_metric(space)
    for i, j in combinations(range(m), 2):
        assert dist[i, j] == dist[j, i] == oracle_hausdorff(metric, cells[i], cells[j])
    assert not np.diag(dist).any()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.floats(1e-6, 0.5), st.integers(0, 2**16))
@example(1, 0.3, 0)
@example(2, 0.5, 0)
def test_coboundary_key_sort_is_the_stable_argsort(m, scale, seed):
    """One plain sort of face * T + triangle lists each edge's cofaces in
    the order of the stable argsort of the faces, also at T = 0 (as with
    two points) and m = 1."""
    tri_faces = _filtration(sample_ran(C1, n=3, m=m, seed=seed), scale)[3]
    assert np.array_equal(_cofaces(tri_faces), np.argsort(tri_faces.ravel(), kind="stable") // 3)


@st.composite
def _rips_cases(draw):
    """(cloud, scale): a sampled cloud of 0 to 40 cells on the circle, at
    a scale below its smallest distance, above its largest, or between."""
    m = draw(st.integers(0, 40))
    cloud = cloud_from_configs(C1, sample_configs(C1, n=draw(st.integers(1, 3)), m=m, seed=draw(st.integers(0, 2**16))) if m else ())
    off = cloud.dist[~np.eye(m, dtype=bool)]
    low, high = (off.min(), off.max()) if len(off) else (0.5, 0.5)
    scale = draw(st.sampled_from([np.nextafter(low, 0.0), low, high, high + 1.0]) | st.floats(1e-6, 0.5))
    return cloud, float(scale)


@settings(max_examples=150, deadline=None)
@given(_rips_cases(), st.data())
def test_count_simplices_counts_what_the_filtration_lists(case, data):
    """count_simplices is the vertices plus the edges and triangles that
    _filtration lists, in blocks of any size, and those are the Rips
    simplices: every edge and triangle at most the scale, once each, in
    (value, vertex tuple) order."""
    cloud, scale = case
    m = len(cloud)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ran, "BLOCK_CELLS", data.draw(st.integers(1, 4 * m + 4) | st.just(ran.BLOCK_CELLS)))
        total = count_simplices(cloud, scale)
        edge_value, edge_ends, tri_value, tri_faces = _filtration(cloud, scale)
    assert total == m + len(edge_value) + len(tri_value)
    d = cloud.dist
    edges = [(i, j) for i, j in combinations(range(m), 2) if d[i, j] <= scale]
    tris = [(i, j, k) for i, j, k in combinations(range(m), 3) if max(d[i, j], d[i, k], d[j, k]) <= scale]
    assert sorted(map(tuple, edge_ends.tolist())) == edges
    ends = edge_ends[tri_faces]  # (triangle, face, end): faces (i, j), (i, k), (j, k)
    i, j, k = ends[:, 0, 0], ends[:, 0, 1], ends[:, 2, 1]
    assert np.array_equal(ends, np.stack([np.column_stack(face) for face in ((i, j), (i, k), (j, k))], axis=1))
    assert sorted(zip(i.tolist(), j.tolist(), k.tolist())) == tris
    assert np.array_equal(np.lexsort((k, j, i, tri_value)), np.arange(len(tri_value)))
    assert np.array_equal(np.lexsort((edge_ends[:, 1], edge_ends[:, 0], edge_value)), np.arange(len(edge_value)))
