import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    OracleStrand,
    concatenate,
    conjugate,
    detect_branch_merge,
    oracle_branch_merge,
    oracle_circle_lift,
    oracle_concatenate,
    oracle_dedup,
    oracle_kind,
    oracle_metric,
    oracle_resample,
    oracle_reverse,
    oracle_row,
    resample,
    reverse,
    singleton_strand,
)

from ranspace import ran
from ranspace.errors import AmbiguousLift, CapExceeded, EmptyConfiguration, EndpointMismatch, InvalidPoint
from ranspace.ran import batch_hausdorff, dedup, hausdorff
from ranspace.space import Circle, GraphPoint, Interval, MetricGraph
from ranspace.tracks import (
    LOOP_TOL,
    Homotopy,
    StrandBundle,
    StrandInterpolator,
    Track,
    certify,
    check_continuity,
    circle_lift,
    _gap_blocks,
    endpoint_drift,
    first_gap_over,
    make_track,
    nearest_sample,
    project,
    stack_homotopies,
    uniform_times,
    winding_number,
)

C1 = Circle(1.0)
THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def strand_track(space, strand_fn, m=100, cap=1, kind="loop"):
    times = uniform_times(m)
    return make_track(space, times, [[strand_fn(t)] for t in times], cap=cap, kind=kind)


def spreading_track(m=100):
    """{0} until t=0.5, then a symmetric pair spreading at speed 0.4 per
    side (stays clear of the antipode, so the branch is the only event)."""
    times = uniform_times(m)
    pts = []
    for t in times:
        if t <= 0.5:
            pts.append([0.0])
        else:
            s = 0.4 * (t - 0.5)
            pts.append([s, -s % 1.0])
    return make_track(C1, times, pts, cap=2, kind="path")


# -- projection ---------------------------------------------------------------


def test_project_constant_bundle():
    times = uniform_times(16)
    bundle = StrandBundle(C1, times, tuple(tuple(0.25 for _ in times) for _ in range(3)))
    track = project(bundle)
    assert all(c.points == (0.25,) for c in track.configs)
    assert track.kind == "loop"
    assert track.cap == 3


def test_project_equal_strands_dedup():
    times = uniform_times(32)
    strand = tuple(C1.canon(t) for t in times)
    bundle = StrandBundle(C1, times, (strand, strand))
    track = project(bundle)
    assert all(len(c) == 1 for c in track.configs)


def test_project_offset_strands_stay_distinct():
    times = uniform_times(32)
    s1 = tuple(C1.canon(t) for t in times)
    s2 = tuple(C1.canon(t + 0.5) for t in times)
    bundle = StrandBundle(C1, times, (s1, s2))
    track = project(bundle)
    assert all(len(c) == 2 for c in track.configs)


@pytest.mark.parametrize("space, strand", [
    (C1, [0.0, 0.25, math.nan, 0.75, 0.0]),
    (THETA, [GraphPoint(0, 0.0), GraphPoint(1, math.nan), GraphPoint(1, 0.5), GraphPoint(1, 0.2), GraphPoint(0, 0.0)]),
    (Interval(1.0), [0.0, 0.5, 1.5, 0.5, 0.0]),
    (C1, [GraphPoint(0, 0.0), GraphPoint(0, 0.5), GraphPoint(1, 0.5), GraphPoint(2, 0.5), GraphPoint(0, 0.0)]),
    (THETA, [0.0, 0.25, 0.5, 0.75, 0.0]),
], ids=["nan-on-circle", "nan-on-graph", "outside-interval", "graph-points-on-circle", "coordinates-on-graph"])
def test_bundle_checks_its_points(space, strand):
    """A bundle raises InvalidPoint when it is built from a point off its
    space or NaN, also when every point is of the other kind, so that the
    point array has a well-formed shape of the wrong rank."""
    with pytest.raises(InvalidPoint):
        StrandBundle(space, uniform_times(4), (tuple(strand),))


@st.composite
def _bundles(draw):
    """A space, a dyadic time grid and n <= 5 strands on it, with points
    written non-canonically (the circle coordinates 1.0 and -0.25, a theta
    vertex named through another edge) and, when swap is drawn, every
    strand ending where the next one starts."""
    space = draw(st.sampled_from([C1, Interval(1.0), THETA]))
    inner = draw(st.sets(st.integers(1, 63), max_size=8))
    times = (0.0, *sorted(k / 64 for k in inner), 1.0)
    if isinstance(space, MetricGraph):
        named = st.sampled_from([GraphPoint(e, t) for e in range(3) for t in (0.0, 1.0)])
        point = st.builds(GraphPoint, st.integers(0, 2), st.floats(0.0, 1.0)) | named
    elif isinstance(space, Circle):
        point = st.floats(0.0, 1.0) | st.sampled_from([1.0, -0.25, 0.75, 0.0])
    else:
        point = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])
    strands = draw(st.lists(st.lists(point, min_size=len(times), max_size=len(times)), min_size=1, max_size=5))
    swap = len(strands) > 1 and draw(st.booleans())
    if swap:
        for j, strand in enumerate(strands):
            strand[-1] = strands[(j + 1) % len(strands)][0]
    return space, times, strands, swap


@settings(max_examples=300, deadline=None)
@given(_bundles())
def test_project_is_make_track_of_the_per_time_points(case):
    """project(bundle) holds the bits, widths included, of the track
    make_track builds from the per-time point lists; strands gives back
    space.canon of every input point; a bundle whose strands swap ends
    projects to a loop."""
    space, times, strands, swap = case
    bundle = StrandBundle(space, times, tuple(map(tuple, strands)))
    want = make_track(space, times, [[s[k] for s in strands] for k in range(len(times))], cap=len(strands))
    got = project(bundle)
    assert _same_grid(got, want)
    assert got.cap == want.cap == bundle.n
    assert repr(bundle.strands) == repr(tuple(tuple(space.canon(p) for p in s) for s in strands))
    if swap:
        assert got.kind == "loop"


# -- continuity ---------------------------------------------------------------


def test_continuity_constant_track():
    track = strand_track(C1, lambda t: 0.3)
    report = check_continuity(track, bound=1e-6)
    assert report.max_gap == 0.0
    assert report.passed


def test_continuity_unit_speed_generator():
    track = strand_track(C1, lambda t: C1.canon(t), m=100)
    report = check_continuity(track, bound=1.5)
    assert report.max_gap == pytest.approx(0.01, abs=1e-12)
    assert report.dt == pytest.approx(0.01)
    assert report.passed


def test_continuity_flags_teleport():
    times = uniform_times(100)
    pts = [[0.0] if t < 0.37 else [0.4] for t in times]
    track = make_track(C1, times, pts, cap=1, kind="path")
    report = check_continuity(track, bound=1.5)
    assert report.max_gap == pytest.approx(0.4)
    assert not report.passed


@pytest.mark.parametrize("cells", [1, 7, 40, 1 << 15])
def test_gap_blocks_cover_the_whole_grid(cells, monkeypatch):
    rng = np.random.default_rng(3)
    rows, cols = 9, 6
    counts = rng.integers(1, 4, size=(rows, cols))
    enc = np.where(np.arange(3) < counts[..., None], rng.uniform(0.0, 1.0, (rows, cols, 3)), np.nan)
    monkeypatch.setattr(ran, "BLOCK_CELLS", cells)
    blocks = list(_gap_blocks(C1, enc))
    assert [first for first, _, _ in blocks] == list(range(0, rows, max(1, cells // cols)))
    np.testing.assert_array_equal(np.concatenate([a for _, a, _ in blocks]), batch_hausdorff(C1, enc[:, :-1], enc[:, 1:]))
    np.testing.assert_array_equal(np.concatenate([d for _, _, d in blocks]), batch_hausdorff(C1, enc[:-1], enc[1:]))


EVERY_COLUMN = slice(None)


@pytest.mark.parametrize("jumps", [
    [(64, 100, 0.25)], [(70, 300, 0.375), (63, 5, 0.125)], [(79, 511, 0.5)], [(70, EVERY_COLUMN, 0.375)], [],
])
def test_continuity_across_row_blocks(jumps):
    # 80 x 512 cells make two blocks of rows, the second from row 64; the
    # deformation steps grow with the row
    rows, cols = 80, 512
    enc = np.tile(np.arange(cols) / cols, (rows, 1))[..., None]
    for row, col, shift in jumps:
        enc[row, col, 0] = (enc[row, col, 0] + shift) % 1.0
    h = Homotopy(C1, 1, np.linspace(0.0, 1.0, rows) ** 2, np.linspace(0.0, 1.0, cols), enc, np.ones((rows, cols), np.intp))
    across, down = batch_hausdorff(C1, enc[:, :-1], enc[:, 1:]), batch_hausdorff(C1, enc[:-1], enc[1:])
    report = check_continuity(h, 4.0)
    assert report.max_gap == max(across.max(), down.max())
    assert report.lipschitz == max((across / np.diff(h.t_grid)).max(), (down / np.diff(h.s_grid)[:, None]).max())
    limit = 1.5 / cols
    hits = [(int(i), int(k), way) for gaps, way in ((across, "across"), (down, "down")) for i, k in np.argwhere(gaps > limit)[:1]]
    assert first_gap_over(h, limit) == min(hits, default=None)


def test_continuity_monotone_under_midpoint_refinement():
    rng = np.random.default_rng(11)
    for _ in range(5):
        wind = int(rng.integers(-1, 2))
        phase = rng.uniform(0, 1)
        amp = rng.uniform(0.0, 0.2)

        def fn(t):
            return C1.canon(wind * t + amp * np.sin(2 * np.pi * t) + phase)

        coarse = strand_track(C1, fn, m=64, kind="path")
        fine_times, fine_pts = [], []
        for i in range(64):
            a = coarse.configs[i].points[0]
            b = coarse.configs[i + 1].points[0]
            fine_times += [coarse.times[i], (coarse.times[i] + coarse.times[i + 1]) / 2]
            fine_pts += [[a], [C1.geodesic(a, b, 0.5)]]
        fine_times.append(1.0)
        fine_pts.append([coarse.configs[-1].points[0]])
        fine = make_track(C1, fine_times, fine_pts, cap=1, kind="path")
        lip_coarse = check_continuity(coarse, 10.0).lipschitz
        lip_fine = check_continuity(fine, 10.0).lipschitz
        assert lip_fine <= 2.0 * lip_coarse + 1e-9


# -- branch / merge -----------------------------------------------------------


def test_branch_merge_constant_empty():
    track = strand_track(C1, lambda t: 0.0)
    assert detect_branch_merge(track, radius=0.025, lookahead=1) == []


@pytest.mark.parametrize("radius", [0.0, -0.025, math.nan])
def test_branch_merge_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        detect_branch_merge(spreading_track(), radius=radius, lookahead=1)


def test_branch_detected_at_spread():
    track = spreading_track()
    events = detect_branch_merge(track, radius=0.025, lookahead=1)
    assert events == [(50, 0.0, "branch")]


def test_merge_on_reversal():
    track = reverse(spreading_track())
    events = detect_branch_merge(track, radius=0.025, lookahead=1)
    assert events == [(50, 0.0, "merge")]


def test_reverse_swaps_labels_exactly():
    rng = np.random.default_rng(12)
    m = 64
    for _ in range(20):
        times = uniform_times(m)
        split = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.05, 0.3)
        center = rng.uniform(0, 1)
        pts = []
        for t in times:
            if t <= split:
                pts.append([center])
            else:
                s = width * (t - split) / (1 - split)
                pts.append([C1.canon(center + s), C1.canon(center - s)])
        track = make_track(C1, times, pts, cap=2, kind="path")
        radius = rng.uniform(0.01, 0.05)
        look = int(rng.integers(1, 4))
        fwd = detect_branch_merge(track, radius, look)
        bwd = detect_branch_merge(reverse(track), radius, look)
        swapped = sorted(
            (m - i, p, "merge" if kind == "branch" else "branch") for i, p, kind in fwd
        )
        assert sorted(bwd) == swapped


# spaces with a lattice of points on them and the lattice step: distances
# between lattice points tie often, and exactly on the dyadic lattices
LATTICES = (
    (C1, tuple(k / 8 for k in range(8)), 1 / 8),
    (Interval(1.0), tuple(k / 8 for k in range(9)), 1 / 8),
    (MetricGraph(2, ((0, 1, 1.0),) * 3), None, 1 / 4),
    (THETA, None, 1 / 4),
)


@st.composite
def lattice_tracks(draw):
    """A track of 2-9 configurations of at most n <= 4 lattice points, on a
    circle, an interval or a theta graph (on graphs the lattice is every
    vertex and the quarter points of each edge): either n strands walking
    between lattice points at most a step apart, projected, or
    configurations drawn at random.  Returns the track and the lattice
    step."""
    space, lattice, step = draw(st.sampled_from(LATTICES))
    if lattice is None:
        lattice = tuple(sorted({space.canon((e, k / 4)) for e in range(len(space.edges)) for k in range(5)}))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        metric = oracle_metric(space)
        walks = []
        for _ in range(n):
            walk = [draw(st.sampled_from(lattice))]
            for _ in range(m):
                walk.append(draw(st.sampled_from([q for q in lattice if metric(walk[-1], q) <= step])))
            walks.append(walk)
        point_lists = [list(points) for points in zip(*walks)]
    else:
        point_lists = [draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=n)) for _ in range(m + 1)]
    return make_track(space, uniform_times(m), point_lists, cap=n), step


@settings(max_examples=300, deadline=None)
@given(lattice_tracks(), st.integers(1, 4), st.sampled_from([0.5, 1.0, 1.5]))
def test_detect_branch_merge_matches_the_oracle(case, lookahead, radius):
    """The array detection gives the one-point-at-a-time oracle's triples,
    in its order, on lattice tracks, at radii a lattice step or half or one
    and a half of one (a tie at the radius counts as within it)."""
    track, step = case
    assert detect_branch_merge(track, radius * step, lookahead) == oracle_branch_merge(track, radius * step, lookahead)


# -- winding ------------------------------------------------------------------


def test_winding_cases():
    times = uniform_times(100)
    assert winding_number(C1, [0.2] * 101) == 0
    assert winding_number(C1, [C1.canon(t) for t in times]) == 1
    assert winding_number(C1, [C1.canon(2 * t) for t in times]) == 2
    assert winding_number(C1, [C1.canon(-t) for t in times]) == -1


def test_winding_ambiguous_lift():
    with pytest.raises(AmbiguousLift):
        winding_number(C1, [0.0, 0.5, 0.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_circle_lift_is_the_scalar_oracle_bit_for_bit(data):
    """circle_lift equals the running-sum oracle bit for bit on random
    strands of several circumferences, zero steps and steps near half a
    turn included, and raises AmbiguousLift on the same strands."""
    c = data.draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5, math.pi, 1e3]))
    step = st.one_of(st.sampled_from([0.0, -0.0, c / 2.0, -c / 2.0, c, -c]), st.floats(-0.6 * c, 0.6 * c))
    points = [data.draw(st.floats(-4 * c, 4 * c))]
    for s in data.draw(st.lists(step, max_size=30)):
        points.append(points[-1] + s)
    want = oracle_circle_lift(c, points)
    if want is None:
        with pytest.raises(AmbiguousLift):
            circle_lift(Circle(c), points)
    else:
        assert [float.hex(x) for x in circle_lift(Circle(c), points).tolist()] == [float.hex(x) for x in want]


def test_winding_adds_under_concatenation():
    a = strand_track(C1, lambda t: C1.canon(t), m=64)
    b = strand_track(C1, lambda t: C1.canon(2 * t), m=64)
    both = concatenate(a, b)
    assert winding_number(C1, singleton_strand(both)) == 3


# -- path algebra -------------------------------------------------------------


def test_reverse_is_involution_on_dyadic_grid():
    track = strand_track(C1, lambda t: C1.canon(0.3 * np.sin(np.pi * t)), m=8, kind="path")
    back = reverse(reverse(track))
    assert np.array_equal(back.times, track.times)
    assert back.configs == track.configs


def test_concatenate_with_reverse_has_winding_zero():
    arc = strand_track(C1, lambda t: C1.canon(0.4 * t), m=64, kind="path")
    loop = concatenate(arc, reverse(arc))
    assert loop.kind == "loop"
    assert winding_number(C1, singleton_strand(loop)) == 0


def test_concatenate_rejects_junction_gap():
    a = strand_track(C1, lambda t: C1.canon(0.4 * t), m=16, kind="path")
    b = strand_track(C1, lambda t: C1.canon(0.9 + 0.05 * t), m=16, kind="path")
    with pytest.raises(EndpointMismatch):
        concatenate(a, b)


def _same_track(got, want):
    assert np.array_equal(got.times, want.times) and got.cap == want.cap
    assert got.configs == want.configs
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.enc, want.enc, equal_nan=True)


def _spread(space, at, step, m=12):
    """A cap-3 path from the one point at(0) to the three points
    at(-step), at(0) and at(step) spread t apart."""
    times = uniform_times(m)
    return make_track(space, times, [[at(-step * t), at(0.0), at(step * t)] for t in times], cap=3)


@pytest.mark.parametrize("space, at", [
    (C1, lambda d: C1.canon(0.4 + d)),
    (THETA, lambda d: THETA.canon((0, 0.5 + d))),
], ids=["circle", "theta"])
def test_concatenate_tracks_of_different_widths(space, at):
    """A cap-1 track then a cap-3 track, and the cap-3 track then the
    reversed cap-1 track, join as the Configuration-built oracle does."""
    times = uniform_times(8)
    narrow = make_track(space, times, [[at(0.05 * (t - 1))] for t in times], cap=1)
    wide = _spread(space, at, 0.2)
    _same_track(concatenate(narrow, wide), oracle_concatenate(narrow, wide))
    back = reverse(_spread(space, at, 0.2))
    tail = make_track(space, times, [[at(0.05 * t)] for t in times], cap=1)
    _same_track(concatenate(back, tail), oracle_concatenate(back, tail))


def test_conjugate_on_the_theta_graph_keeps_graph_points():
    times = uniform_times(8)
    gamma = make_track(THETA, times, [[THETA.canon((1, 0.25 * t))] for t in times], cap=1)
    b = THETA.canon((1, 0.25))
    sigma = make_track(THETA, times, [[b, THETA.canon((1, 0.25 + 0.1 * (1 - abs(1 - 2 * t))))] for t in times], cap=2)
    out = conjugate(gamma, sigma)
    assert out.kind == "loop"
    assert all(type(p) is GraphPoint for c in out.configs for p in c.points)
    _same_track(out, oracle_concatenate(oracle_concatenate(gamma, sigma), oracle_reverse(gamma)))


@pytest.mark.parametrize("offset, joins", [(3 * LOOP_TOL, False), (LOOP_TOL / 2, True)])
def test_concatenate_junction_gap_against_loop_tol(offset, joins):
    a = strand_track(C1, lambda t: C1.canon(0.3 * t), m=8, kind="path")
    b = strand_track(C1, lambda t: C1.canon(0.3 + offset + 0.2 * t), m=8, kind="path")
    if joins:
        _same_track(concatenate(a, b), oracle_concatenate(a, b))
    else:
        with pytest.raises(EndpointMismatch, match="junction gap"):
            concatenate(a, b)


def test_reverse_names_the_two_times_rounding_merges():
    # 1 - 0.01 and 1 - 0.010000000000000009 are both 0.99
    track = make_track(C1, (0.0, 0.01, 0.010000000000000009, 1.0), [[0.0]] * 4, cap=1)
    with pytest.raises(ValueError, match=r"^time 0\.010000000000000009 and time 0\.01 map to 0\.99 and 0\.99: "):
        reverse(track)


def test_concatenate_names_the_two_times_rounding_merges():
    # the second track's 1e-17 runs at 0.5 + 1e-17 / 2 == 0.5, the junction
    a = make_track(C1, (0.0, 1.0), [[0.0]] * 2, cap=1)
    b = make_track(C1, (0.0, 1e-17, 1.0), [[0.0]] * 3, cap=1)
    with pytest.raises(ValueError, match=r"^time 1\.0 of the first track and time 1e-17 of the second track map to 0\.5 and 0\.5: "):
        concatenate(a, b)


def test_conjugate_by_constant_path_keeps_configs():
    sigma = strand_track(C1, lambda t: C1.canon(t), m=32)
    const = strand_track(C1, lambda t: 0.0, m=8, kind="path")
    out = conjugate(const, sigma)
    assert out.kind == "loop"
    assert out.configs[0].points == (0.0,)
    # the middle block carries sigma unchanged (junction config merged)
    assert sigma.configs == out.configs[8:41]


def test_resample_carries_nearest():
    track = strand_track(C1, lambda t: C1.canon(t), m=4, kind="loop")
    out = resample(track, uniform_times(8))
    assert out.configs[2] == track.configs[1]
    assert out.configs[1] in (track.configs[0], track.configs[1])


def _grid_times(inner) -> tuple:
    """A time grid from 0 to 1 through the distinct inner times."""
    return (0.0, *sorted(set(inner) - {0.0, 1.0}), 1.0)


@st.composite
def one_row_tracks(draw):
    """A track of one to three points a cell on the circle, the interval or
    the theta graph, on a random time grid; its last cell is often its
    first one moved by 0, half or twice LOOP_TOL."""
    space = draw(st.sampled_from([C1, Interval(1.0), THETA]))
    unit = st.floats(0.0, 1.0)
    point = st.builds(GraphPoint, st.integers(0, 2), unit) if space is THETA else unit
    # dyadic times, so that reverse's 1 - t is exact and stays increasing
    times = _grid_times(draw(st.lists(st.integers(1, 63).map(lambda k: k / 64), max_size=6)))
    point_lists = [draw(st.lists(point, min_size=1, max_size=3)) for _ in times]
    if draw(st.booleans()):
        d = draw(st.sampled_from([0.0, LOOP_TOL / 2, 2 * LOOP_TOL]))
        moved = (lambda p: GraphPoint(p.edge, min(p.t + d, 1.0))) if space is THETA else (lambda p: min(p + d, 1.0))
        point_lists[-1] = list(map(moved, point_lists[0]))
    return make_track(space, times, point_lists, cap=3)


def _same_grid(a: Homotopy, b: Homotopy) -> bool:
    """Whether two homotopies hold the same bits: times, cells and their widths."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.s_grid, b.s_grid), (a.t_grid, b.t_grid), (a.enc, b.enc), (a.counts, b.counts)))


@settings(max_examples=200, deadline=None)
@given(one_row_tracks(), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_one_row_tracks_match_the_configuration_reference(track, inner):
    """A track's kind is the reference rule on its configurations, and
    reverse, resample and Homotopy.row give the bits of a track built from
    Configurations, their kinds by the same rule."""
    assert track.kind == oracle_kind(track)
    new_times = _grid_times(inner)
    h = Homotopy.of_cells(track.space, (0.0, 0.5, 1.0), track.times,
                          (track.configs, track.configs[::-1], track.configs[-1:] * len(track.times)), track.cap)
    pairs = [(reverse(track), oracle_reverse(track)), (resample(track, new_times), oracle_resample(track, new_times))]
    for got, want in pairs + [(h.row(i), oracle_row(h, i)) for i in range(h.rows)]:
        assert _same_grid(got, want)
        assert np.array_equal(got.times, want.times)
        assert got.kind == oracle_kind(want)


def test_nearest_sample_ties_to_earlier():
    """resample, nearest_sample over an array and a graph
    StrandInterpolator all carry a time to its nearest sample, and an
    exact tie to the earlier one."""
    rng = np.random.default_rng(11)
    ival = Interval(1.0)
    graph = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.5)))
    for _ in range(40):
        # dyadic grids, so every midpoint is an exact tie
        inner = rng.choice(np.arange(1, 1024), size=int(rng.integers(1, 12)), replace=False)
        times = tuple(float(x) for x in [0.0, *sorted(inner / 1024.0), 1.0])
        m = len(times) - 1
        track = make_track(ival, times, [[k / m] for k in range(m + 1)], cap=1)
        strand = [GraphPoint(0, k / m) for k in range(m + 1)]
        interp = StrandBundle(graph, times, (tuple(strand),)).interpolators[0]
        mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
        queries = sorted(set(times) | set(mids) | {float(x) for x in rng.uniform(0.0, 1.0, 20)})
        want = [min(range(m + 1), key=lambda k: (abs(t - times[k]), k)) for t in queries]
        for t, k in zip(queries, want):
            if t in times:
                assert times[k] == t
            if t in mids:
                assert times[k] < t
        carried = resample(track, queries).configs
        assert [track.configs.index(c) for c in carried] == want
        assert nearest_sample(times, np.array(queries)).tolist() == want
        assert interp.many(queries).tolist() == [list(strand[k]) for k in want]


@st.composite
def _strands(draw):
    """A space, a strand on it with steps under half a circle, its time
    grid, and query times: anywhere in [0, 1] or outside it, at grid
    times, at midpoints between them (exact ties on dyadic grids), or NaN."""
    space = draw(st.sampled_from([C1, Circle(2.5), Interval(1.0), THETA]))
    m = draw(st.sampled_from([1, 2, 3, 8, 13, 32]))
    times = uniform_times(m)
    mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
    if isinstance(space, MetricGraph):
        point = st.builds(GraphPoint, st.integers(0, 2), st.floats(0.0, 1.0))
        points = draw(st.lists(point, min_size=m + 1, max_size=m + 1))
    elif isinstance(space, Circle):
        steps = draw(st.lists(st.floats(-0.49, 0.49), min_size=m, max_size=m))
        points = [space.canon(x * space.circumference) for x in np.cumsum([draw(st.floats(0.0, 1.0))] + steps)]
    else:
        points = draw(st.lists(st.floats(0.0, 1.0), min_size=m + 1, max_size=m + 1))
    query = st.floats(-0.5, 1.5) | st.sampled_from(times) | st.sampled_from(mids) | st.just(math.nan)
    ts = draw(st.lists(query, min_size=1, max_size=10))
    return space, times, points, ts


@settings(max_examples=300, deadline=None)
@given(_strands())
def test_strand_interpolator_matches_the_scalar_oracle(case):
    """StrandInterpolator.many at an array of times equals the oracle read
    one time at a time, bit for bit: circle strands along their lift,
    interval strands linearly, graph strands at the nearest sample; a NaN
    time gives a padding slot (edge 0 and a NaN t on graphs)."""
    space, times, points, ts = case
    got = StrandInterpolator(space, times, points).many(ts).tolist()
    oracle = OracleStrand(space, times, points)
    graph = isinstance(space, MetricGraph)

    def want(t):
        if math.isnan(t):
            return [0.0, math.nan] if graph else math.nan
        p = oracle.at(t)
        return [float(p.edge), p.t] if graph else p

    assert repr(got) == repr([want(t) for t in ts])


def test_loop_validation():
    times = uniform_times(4)
    pts = [[0.0], [0.1], [0.2], [0.3], [0.4]]
    with pytest.raises(EndpointMismatch):
        make_track(C1, times, pts, cap=1, kind="loop")


MAKE_TRACK_GRAPH = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


@pytest.mark.parametrize("space, point_lists, cap, error", [
    (C1, [[0.3, 1.3 + 1e-12, 0.7], [1.0 - 1e-13], [0.25, -0.75, 0.5]], 2, None),
    (Interval(2.0), [[2.0, 0.5, -0.0], [1e-13, 1.9]], 3, None),
    (MAKE_TRACK_GRAPH, [[GraphPoint(0, 0.0), GraphPoint(1, 1e-13)], [(2, 0.5), (0, 1.0), (1, 1.0)]], 2, None),
    (C1, [[0.1], []], 1, EmptyConfiguration),
    (C1, [[0.1, 0.2], [0.3]], 1, CapExceeded),
    (C1, [[0.1], [GraphPoint(0, 0.5)]], 1, InvalidPoint),
    (Interval(1.0), [[0.5], [1.5]], 1, InvalidPoint),
    (MAKE_TRACK_GRAPH, [[GraphPoint(0, 0.5)], [0.25]], 1, InvalidPoint),
    (MAKE_TRACK_GRAPH, [[GraphPoint(0, 0.5)], [GraphPoint(7, 0.5)]], 1, InvalidPoint),
    (MAKE_TRACK_GRAPH, [[GraphPoint(0, 0.5), GraphPoint(1, 0.25)], [GraphPoint(0, 0.5)]], 1, CapExceeded),
], ids=["circle", "interval", "graph", "circle-empty", "circle-cap", "circle-graph-point",
        "interval-outside", "graph-coordinate", "graph-edge-out-of-range", "graph-cap"])
def test_make_track_matches_scalar_dedup(space, point_lists, cap, error):
    """make_track's one array dedup gives the configurations, or raises
    the error type, of the one-point-at-a-time reference dedup
    (oracles.oracle_dedup) on each point list."""
    times = uniform_times(len(point_lists) - 1)
    if error is None:
        want = tuple(oracle_dedup(space, pts, cap=cap) for pts in point_lists)
        got = make_track(space, times, point_lists, cap=cap).configs
        assert got == want
        assert [type(p) for c in got for p in c.points] == [type(p) for c in want for p in c.points]
        return
    with pytest.raises(error):
        [oracle_dedup(space, pts, cap=cap) for pts in point_lists]
    with pytest.raises(error):
        make_track(space, times, point_lists, cap=cap)


def test_make_track_rejects_nan_points():
    with pytest.raises(InvalidPoint):
        make_track(Interval(1.0), uniform_times(1), [[0.5], [0.2, math.nan]], cap=2)


_GRID = dict(space=Circle(1.0), cap=1, s_grid=np.array([0.0, 0.5, 1.0]), t_grid=np.linspace(0.0, 1.0, 5),
             enc=np.zeros((3, 5, 1)), counts=np.ones((3, 5), np.intp))


@pytest.mark.parametrize("broken, message", [
    (dict(t_grid=np.array([0.0])), "need at least two grid times"),
    (dict(t_grid=np.linspace(0.0, 0.5, 5)), "time grid must run from 0 to 1"),
    (dict(t_grid=np.array([0.0, 0.5, 0.25, 0.75, 1.0])), "time grid must be strictly increasing"),
    (dict(s_grid=np.array([0.0, 1.0])), "one row of cells per deformation sample"),
    (dict(s_grid=np.array([0.0, 0.5, 0.5])), "deformation grid must be strictly increasing"),
    (dict(counts=np.ones((3, 4), np.intp)), "ragged homotopy grid"),
    (dict(enc=np.zeros((3, 4, 1))), "ragged homotopy grid"),
], ids=["one-time", "times-short-of-1", "times-decreasing", "s-grid-short", "s-grid-flat", "counts-ragged", "enc-ragged"])
def test_cell_grid_checks_its_own_shape(broken, message):
    Homotopy(**_GRID)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Homotopy(**{**_GRID, **broken})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10_000))
def test_uniform_times_is_i_over_m_bit_for_bit(m):
    grid = uniform_times(m)
    assert grid.dtype == np.float64 and grid.shape == (m + 1,)
    assert list(map(float.hex, grid.tolist())) == [float.hex(i / m) for i in range(m + 1)]


@pytest.mark.parametrize("m", [0, -1])
def test_uniform_times_needs_a_step(m):
    with pytest.raises(ValueError, match=f"^a uniform grid needs at least one step, not {m}$"):
        uniform_times(m)


def test_grids_are_float64_arrays_and_a_track_shares_its_own():
    times = uniform_times(4)
    track = make_track(C1, times, [[0.1]] * 5, cap=1)
    bundle = StrandBundle(C1, tuple(times.tolist()), [[0.1] * 5])
    for grid in (times, bundle.times, track.times, project(bundle).times):
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.shape == (5,)
    assert track.times is track.t_grid
    # a track or bundle built from an array keeps its own copy of the grid
    bundle = StrandBundle(C1, times, [[0.1] * 5])
    times[1] = 0.125
    assert track.times[1] == bundle.times[1] == 0.25


def test_a_generator_gives_a_bundle_its_times():
    bundle = StrandBundle(C1, (k / 4 for k in range(5)), [[0.1, 0.2, 0.3, 0.2, 0.1]])
    assert bundle.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert bundle.read(np.array([[0.125]]))[0, 0] == pytest.approx(0.15)


_BAD_TIMES = {
    "nan-interior": ([0.0, math.nan, 1.0], "time grid must be strictly increasing"),
    "infinite-interior": ([0.0, math.inf, 1.0], "time grid must be strictly increasing"),
    "two-infinite-interior": ([0.0, math.inf, math.inf, 1.0], "time grid must be strictly increasing"),
    "unsorted": ([0.0, 0.75, 0.25, 1.0], "time grid must be strictly increasing"),
    "two-dimensional": ([[0.0, 1.0], [0.0, 1.0]], "a time grid is one-dimensional"),
    "one-time": ([0.0], "need at least two grid times"),
}
_GRID_BUILDERS = {
    "bundle": lambda times: StrandBundle(C1, times, [[0.1] * len(times)]),
    "make_track": lambda times: make_track(C1, times, [[0.1]] * len(times), cap=1, kind="loop"),
    "homotopy": lambda times: Homotopy(C1, 1, np.zeros(1), np.array(times), np.zeros((1, len(times), 1)),
                                       np.ones((1, len(times)), np.intp)),
}


@pytest.mark.parametrize("builder", _GRID_BUILDERS.values(), ids=_GRID_BUILDERS.keys())
@pytest.mark.parametrize("times, message", _BAD_TIMES.values(), ids=_BAD_TIMES.keys())
def test_every_builder_checks_its_time_grid(builder, times, message):
    """StrandBundle, make_track and Homotopy run the one grid rule: a NaN
    time, which compares false both ways, fails it as unsorted times do."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        builder(times)


def test_homotopy_of_no_rows_is_a_ragged_grid():
    with pytest.raises(ValueError, match="^ragged homotopy grid$"):
        Homotopy.of_cells(Circle(1.0), (), (0.0, 1.0), (), 1)


def test_of_cells_rejects_a_cell_above_its_cap():
    """A homotopy records its cap without enforcing it; of_cells, which
    takes outside Configurations, checks it."""
    row = (dedup(C1, [0.25]), dedup(C1, [0.25, 0.5]), dedup(C1, [0.25]))
    assert Homotopy.of_cells(C1, (0.0, 1.0), uniform_times(2), (row, row), 2).max_cardinality(0, 1) == 2
    with pytest.raises(ValueError, match="^cell of size 2 exceeds cap 1$"):
        Homotopy.of_cells(C1, (0.0, 1.0), uniform_times(2), (row, row), 1)
    with pytest.raises(ValueError, match="^cell of size 2 exceeds cap 1$"):
        Track.of_cells(C1, (0.0,), uniform_times(2), (row,), 1)


def test_homotopy_certificate_fields():
    from ranspace.moves import contract_circle_generator

    h = contract_circle_generator(1, resolution=(8, 16))
    report = check_continuity(h, math.inf)
    assert report.max_cardinality == 3
    assert endpoint_drift(h) == 0.0
    assert report.max_gap > 0.0


def test_certify_reads_every_field_from_the_cells():
    """certify's numbers are check_continuity's, endpoint_drift, h's cap
    and each stage's largest cell; target_constancy is the largest
    distance of a last-row cell from {b}, None without b."""
    one, two = dedup(C1, [0.25]), dedup(C1, [0.25, 0.5])
    h = Homotopy.of_cells(C1, (0.0, 0.5, 1.0), uniform_times(2), ((one, two, one), (one, one, one), (one, one, one)), 3)
    cert = certify(h, [("a", 0, 1), ("b", 1, 2)], 0.0)
    report = check_continuity(h, math.inf)
    assert (cert.max_cardinality, cert.max_gap, cert.ds, cert.dt, cert.lipschitz) == (
        report.max_cardinality, report.max_gap, report.ds, report.dt, report.lipschitz)
    assert (cert.declared_cap, cert.endpoint_drift, cert.target_constancy) == (3, endpoint_drift(h), 0.25)
    assert cert.stages == (("a", 0, 1, 2), ("b", 1, 2, 1))
    assert certify(h, []).target_constancy is None and certify(h, []).stages == ()


def test_stack_homotopies_checks_graph_seams():
    """Blocks chain when the seam rows agree and fail when one seam cell
    is 2 * LOOP_TOL off."""
    theta = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    times = uniform_times(4)
    row = tuple(dedup(theta, [GraphPoint(0, 0.25 + 0.125 * t), GraphPoint(2, 0.5)]) for t in times)
    first = Homotopy.of_cells(theta, (0.0, 1.0), times, (row, row), 2)
    stacked = stack_homotopies([first, Homotopy.of_cells(theta, (0.0, 1.0), times, (row, row), 2)])
    assert stacked.rows == 3
    # edge 0 has length 1, so the t offset is the distance
    off = list(row)
    off[2] = dedup(theta, [GraphPoint(0, 0.3125 + 2 * LOOP_TOL), GraphPoint(2, 0.5)])
    with pytest.raises(EndpointMismatch):
        stack_homotopies([first, Homotopy.of_cells(theta, (0.0, 1.0), times, (tuple(off), row), 2)])
