import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    circle_point_metric,
    detect_branch_merge,
    generator_cell,
    make_graph_point_metric,
    oracle_dedup,
    oracle_extract_strands,
    oracle_hausdorff,
    oracle_pipeline_cells,
    oracle_pipeline_stages,
    pushforward_contraction,
    singleton_strand,
    staircase,
)
from ranspace import moves
from ranspace.errors import (
    AmbiguousBranching,
    EmptyConfiguration,
    EndpointMismatch,
    ModeViolation,
    UnsupportedDegree,
)
from ranspace.moves import (
    ContractionCertificate,
    Inclusion,
    SimplyConnected,
    contract_circle_generator,
    contract_pipeline,
    extract_strands,
    normalize,
)
from ranspace.ran import dedup, hausdorff
from ranspace.space import Circle, Interval, MetricGraph
from ranspace.tracks import (
    StrandBundle,
    certify,
    check_continuity,
    make_track,
    project,
    uniform_times,
    winding_number,
)
import test_acceptance
from test_tracks import lattice_tracks

C1 = Circle(1.0)


def random_based_strand(rng, m, max_wind=2, amp=0.12):
    """Loop strand on the unit circle based at 0, with bounded step size."""
    w = int(rng.integers(-max_wind, max_wind + 1))
    coeffs = rng.uniform(-amp, amp, 3)
    times = uniform_times(m)
    return tuple(
        C1.canon(w * t + sum(a * np.sin(np.pi * (k + 1) * t) for k, a in enumerate(coeffs)))
        for t in times
    )


def generator_track(m=128, base=0.0):
    times = uniform_times(m)
    return make_track(C1, times, [[C1.canon(base + t)] for t in times], cap=1, kind="loop")


def figure_branch_track(m=128):
    """Loop at 0 that splits into a symmetric pair and rejoins."""
    times = uniform_times(m)

    def pts(t):
        if t <= 0.25 or t >= 0.75:
            return [0.0]
        s = 0.4 * min(t - 0.25, 0.75 - t)
        return [C1.canon(s), C1.canon(-s)]

    return make_track(C1, times, [pts(t) for t in times], cap=2, kind="loop")


def out_and_back_theta_bundle():
    """A based theta-graph bundle of four strands on 64 steps: two run out
    along edge 0 and back along edge 1 (one of them reversed), two rest at
    the basepoint, vertex 0."""
    theta = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    b = theta.vertex_point(0)
    times = uniform_times(64)
    out_and_back = tuple(theta.canon((0, 2 * t)) if t <= 0.5 else theta.canon((1, 2 * (1 - t))) for t in times)
    return theta, StrandBundle(theta, times, (out_and_back, tuple(b for _ in times), out_and_back[::-1], tuple(b for _ in times)))


# -- strand extraction ---------------------------------------------------


def test_extract_projects_back_to_track():
    track = figure_branch_track()
    bundle = extract_strands(track)
    assert project(bundle).configs == track.configs


def test_extract_handles_crossing_strands():
    times = uniform_times(128)
    s1 = tuple(C1.canon(0.1 + 0.3 * t) for t in times)
    s2 = tuple(C1.canon(0.5 - 0.3 * t) for t in times)
    track = project(StrandBundle(C1, times, (s1, s2)))
    bundle = extract_strands(track)
    assert project(bundle).configs == track.configs


def short_branch_track():
    """Cap-3 loop on 8 steps: {0.1, 0.5} for three samples, then 0.5 splits
    into 0.48 and 0.52 (and 0.1 moves to 0.12) for three, then back.  The
    strands seeded round robin put one strand on 0.5, so the split has two
    successors and only one strand to give them."""
    pts = [[0.1, 0.5]] * 3 + [[0.12, 0.48, 0.52]] * 3 + [[0.1, 0.5]] * 3
    return make_track(C1, uniform_times(8), pts, cap=3, kind="loop")


def test_extract_rejects_teleport():
    """A branching point with fewer strands than successors has no strand
    decomposition on the grid: the one AmbiguousBranching case left."""
    with pytest.raises(AmbiguousBranching, match=r"^branch at t=0\.25 needs 2 strands but only 1 ride the branching point$"):
        extract_strands(short_branch_track())


def test_extract_bounds_a_split_that_meets_a_merge():
    """0.1 splits into 0.09 and 0.11 on the step where 0.6 and 0.64 merge
    into 0.62 (cap 4, 8 steps).  With no radius on the injective pass the
    second child of 0.1 would take 0.64 as its parent, a strand jump of
    about 0.45 against a track step of 0.02; the derived radius keeps
    every strand step within the track's largest step."""
    pts = [[0.1, 0.6, 0.64]] * 4 + [[0.09, 0.11, 0.62]] * 5
    track = make_track(C1, uniform_times(8), pts, cap=4)
    bundle = extract_strands(track)
    assert project(bundle).configs == track.configs
    gap = check_continuity(track, math.inf).max_gap
    assert max(C1.distance(p, q) for strand in bundle.strands for p, q in zip(strand, strand[1:])) <= gap


@pytest.mark.parametrize(
    "n, mode",
    [(4, SimplyConnected(4)), (5, SimplyConnected(5)), (2, Inclusion(2))],
    ids=["n4-simply-connected", "n5-simply-connected", "n2-inclusion"],
)
def test_pipeline_contracts_projected_circle_loops(n, mode):
    """Raw tracks that project based circle bundles of n strands (m = 96,
    one generator per seed 1000-1039) all contract within the mode's cap at
    resolution (48, 96): strand extraction finds a decomposition for each."""
    base = dedup(C1, [0.0])
    for seed in range(1000, 1040):
        rng = np.random.default_rng(seed)
        track = project(StrandBundle(C1, uniform_times(96), tuple(test_acceptance.random_based_strand(rng, 96) for _ in range(n))))
        h, cert = contract_pipeline(track, mode, 0.0, resolution=(48, 96))
        assert cert.max_cardinality <= mode.declared_cap
        assert max(hausdorff(C1, c, base) for c in h.cells[-1]) <= 1e-9


def _extraction(extract, track):
    """The strands extract gives, or its AmbiguousBranching message."""
    try:
        return repr(extract(track).strands)
    except AmbiguousBranching as exc:
        return f"AmbiguousBranching: {exc}"


@settings(max_examples=400, deadline=None)
@given(lattice_tracks())
def test_extract_strands_matches_the_oracle(case):
    """extract_strands gives the strands, or the AmbiguousBranching
    message, of the one-pair-at-a-time oracle on lattice tracks, whose
    distances tie often."""
    track, _ = case
    assert _extraction(extract_strands, track) == _extraction(oracle_extract_strands, track)


# -- normalize ------------------------------------------------------------


def test_normalize_based_bundle_unchanged():
    times = uniform_times(64)
    strands = (tuple(C1.canon(t) for t in times), tuple(0.0 for _ in times))
    bundle = StrandBundle(C1, times, strands)
    out, h = normalize(bundle, 0.0)
    assert out is bundle
    assert h.rows == 2
    assert h.cells[0] == h.cells[-1]


def test_normalize_generator_track():
    track = generator_track(base=0.1)
    bundle, h = normalize(track, 0.0)
    assert bundle.n == 1
    assert bundle.based_at(0.0)
    # |config(0)| = 1 on the projected output
    proj = project(bundle)
    assert len(proj.configs[0]) == 1
    # homotopy runs from the input to the projection
    assert max(hausdorff(C1, a, b) for a, b in zip(h.cells[0], track.configs)) == 0.0
    assert max(hausdorff(C1, a, b) for a, b in zip(h.cells[-1], proj.configs)) == 0.0
    assert winding_number(C1, bundle.strands[0]) == 1


def test_normalize_eliminates_interior_branching():
    track = figure_branch_track()
    bundle, _ = normalize(track, 0.0)
    assert bundle.n == 2
    assert bundle.based_at(0.0)
    proj = project(bundle)
    events = detect_branch_merge(proj, radius=0.02, lookahead=1)
    last = len(proj.times) - 1
    # on a loop the base time is index 0 and index m alike
    interior = [e for e in events if 0 < e[0] < last]
    assert interior == []
    assert any(e[0] in (0, last) for e in events)


def test_normalize_idempotent():
    track = figure_branch_track()
    bundle, _ = normalize(track, 0.0)
    again, h = normalize(bundle, 0.0)
    assert again is bundle
    assert all(row == h.cells[0] for row in h.cells)


def test_normalize_handles_monodromy_swap():
    times = uniform_times(128)
    track = make_track(
        C1, times, [[C1.canon(t / 2), C1.canon(t / 2 + 0.5)] for t in times], cap=2, kind="loop"
    )
    bundle, _ = normalize(track, 0.0)
    assert bundle.based_at(0.0)
    assert sum(winding_number(C1, s) for s in bundle.strands) == 1


def test_normalize_rejects_open_path():
    times = uniform_times(32)
    track = make_track(C1, times, [[C1.canon(0.4 * t)] for t in times], cap=1, kind="path")
    with pytest.raises(EndpointMismatch):
        normalize(track, 0.0)


# -- staircase ------------------------------------------------------------


def test_staircase_single_strand_is_identity():
    times = uniform_times(32)
    bundle = StrandBundle(C1, times, (tuple(C1.canon(t) for t in times),))
    out = staircase(bundle)
    assert out.strands == bundle.strands
    assert out.times == bundle.times


def test_staircase_two_strand_schedule():
    times = uniform_times(64)
    gen = tuple(C1.canon(t) for t in times)
    const = tuple(0.0 for _ in times)
    out = staircase(StrandBundle(C1, times, (gen, const)))
    i = out.times.index(0.25)
    # active strand halfway through its window, the other frozen at base
    assert out.strands[0][i] == pytest.approx(0.5)
    assert out.strands[1][i] == 0.0
    assert project(out).configs[i].points == (0.0, 0.5)


def test_staircase_projection_capped_at_two():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        strands = tuple(random_based_strand(rng, 128) for _ in range(n))
        out = staircase(StrandBundle(C1, uniform_times(128), strands))
        assert max(len(c) for c in project(out).configs) <= 2


def test_staircase_preserves_strand_images():
    rng = np.random.default_rng(22)
    strands = tuple(random_based_strand(rng, 64) for _ in range(3))
    bundle = StrandBundle(C1, uniform_times(64), strands)
    out = staircase(bundle)
    m = 64
    for j in range(3):
        window = out.strands[j][j * m : (j + 1) * m + 1]
        assert window == strands[j]


def test_staircase_needs_shared_endpoints():
    times = uniform_times(16)
    s1 = tuple(C1.canon(t) for t in times)
    s2 = tuple(C1.canon(0.3) for _ in times)
    with pytest.raises(EndpointMismatch):
        staircase(StrandBundle(C1, times, (s1, s2)))


# -- the one-turn contraction ----------------------------------------------


@pytest.mark.parametrize("turns", [1, -1])
def test_generator_contraction_certificate(turns):
    h = contract_circle_generator(turns, resolution=(64, 128))
    assert winding_number(C1, singleton_strand(h.row(0))) == turns
    base = dedup(C1, [0.0])
    assert max(hausdorff(C1, c, base) for c in h.cells[-1]) <= 1e-9
    cards = [len(c) for row in h.cells for c in row]
    assert max(cards) == 3
    assert all(hausdorff(C1, row[0], base) <= 1e-9 for row in h.cells)
    assert all(hausdorff(C1, row[-1], base) <= 1e-9 for row in h.cells)
    report = check_continuity(h, bound=4.0)
    assert report.passed


@pytest.mark.parametrize("c", [1.0, 2.5])
@pytest.mark.parametrize("turns", [1, -1])
@pytest.mark.parametrize("resolution", [(8, 16), (37, 101), (64, 128)])
def test_generator_matches_scalar_oracle(resolution, turns, c):
    space = Circle(c)
    r, m = resolution
    h = contract_circle_generator(turns, resolution, space)
    for i, row in enumerate(h.cells):
        for t, cell in zip(uniform_times(m), row):
            want = oracle_dedup(space, [space.canon(turns * v * c) for v in generator_cell(i / r, t)], cap=3)
            # repr tells -0.0 from 0.0
            assert repr(cell) == repr(want), (i, t)


def test_generator_contraction_stable_under_refinement():
    lips_a = check_continuity(contract_circle_generator(1, (64, 128)), 4.0).lipschitz
    lips_b = check_continuity(contract_circle_generator(1, (128, 256)), 4.0).lipschitz
    assert lips_b <= 2.0 * lips_a
    assert lips_a <= 2.0 * lips_b


def test_generator_contraction_rejects_other_degrees():
    with pytest.raises(UnsupportedDegree):
        contract_circle_generator(2)
    with pytest.raises(UnsupportedDegree):
        contract_circle_generator(0)


def test_generator_contraction_scales_with_circumference():
    h = contract_circle_generator(1, resolution=(16, 32), space=Circle(2.5))
    assert h.space == Circle(2.5)
    strand = singleton_strand(h.row(0))
    assert winding_number(Circle(2.5), strand) == 1


# -- pushforward ------------------------------------------------------------


def test_pushforward_constant_strand():
    h = pushforward_contraction(C1, [0.3] * 65)
    assert all(c.points == (0.3,) for row in h.cells for c in row)


def test_pushforward_identity_matches_generator():
    strand = [C1.canon(t) for t in uniform_times(128)]
    ph = pushforward_contraction(C1, strand, resolution=(32, 64))
    gh = contract_circle_generator(1, resolution=(32, 64))
    gap = max(
        hausdorff(C1, a, b) for ra, rb in zip(ph.cells, gh.cells) for a, b in zip(ra, rb)
    )
    assert gap <= 1e-12


def test_pushforward_interval_arc_stays_in_image():
    ival = Interval(1.0)
    times = uniform_times(64)
    strand = [0.4 * (1.0 - abs(1.0 - 2.0 * t)) for t in times]
    h = pushforward_contraction(ival, strand, resolution=(16, 32))
    for row in h.cells:
        for cell in row:
            for p in cell.points:
                assert -1e-12 <= p <= 0.4 + 1e-12
    base = dedup(ival, [0.0])
    assert max(hausdorff(ival, c, base) for c in h.cells[-1]) <= 1e-9


def test_pushforward_needs_closed_strand():
    with pytest.raises(EndpointMismatch):
        pushforward_contraction(C1, [C1.canon(0.4 * t) for t in uniform_times(16)])


# -- the pipeline -----------------------------------------------------------


def certificate_ok(cert: ContractionCertificate, cap: int):
    assert cert.max_cardinality <= cap
    assert cert.declared_cap == cap
    assert cert.target_constancy <= 1e-9
    assert math.isfinite(cert.lipschitz)


def test_pipeline_constant_loop():
    times = uniform_times(32)
    track = make_track(C1, times, [[0.0] for _ in times], cap=1, kind="loop")
    h, cert = contract_pipeline(track, Inclusion(1), 0.0, resolution=(24, 32))
    assert cert.max_cardinality == 1
    certificate_ok(cert, 3)


def test_pipeline_generator_inclusion():
    h, cert = contract_pipeline(generator_track(base=0.1), Inclusion(1), 0.0, resolution=(48, 128))
    certificate_ok(cert, 3)
    # every intermediate row closes up
    assert max(hausdorff(C1, row[0], row[-1]) for row in h.cells) <= 1e-9


def test_pipeline_splits_multiturn_strands():
    times = uniform_times(256)
    track = make_track(C1, times, [[C1.canon(2 * t)] for t in times], cap=1, kind="loop")
    h, cert = contract_pipeline(track, Inclusion(1), 0.0, resolution=(48, 128))
    certificate_ok(cert, 3)
    names = [s[0] for s in cert.stages]
    assert names.count("normalize") == 1
    assert sum(1 for n in names if n.startswith("contract-window")) == 2


def test_pipeline_simply_connected_bundle():
    rng = np.random.default_rng(30)
    strands = tuple(random_based_strand(rng, 128, max_wind=1) for _ in range(4))
    bundle = StrandBundle(C1, uniform_times(128), strands)
    h, cert = contract_pipeline(bundle, SimplyConnected(4), 0.0, resolution=(40, 128))
    certificate_ok(cert, 4)


def test_pipeline_theta_graph():
    theta = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    b = theta.vertex_point(0)
    times = uniform_times(128)

    def walk(e_out, e_back):
        pts = []
        for t in times:
            if t <= 0.5:
                pts.append(theta.canon((e_out, 2 * t)))
            else:
                pts.append(theta.canon((e_back, 2 * (1 - t))))
        return tuple(pts)

    strands = (walk(0, 1), walk(2, 0), tuple(b for _ in times), tuple(b for _ in times))
    bundle = StrandBundle(theta, times, strands)
    h, cert = contract_pipeline(bundle, SimplyConnected(4), b, resolution=(40, 128))
    certificate_ok(cert, 4)


@pytest.mark.parametrize("mode, b", [(Inclusion(2), 0.1), (Inclusion(2), 0.35), (SimplyConnected(4), 0.1)],
                         ids=["inclusion-0.1", "inclusion-0.35", "simply-connected-0.1"])
def test_pipeline_contracts_a_bundle_whose_strands_swap_ends(mode, b):
    """The core loop of Ran<=2(S^1), the pairs {x, x + 1/2} over half a
    turn, as two strands that swap endpoints: no strand closes, but the
    projection does, so the bundle contracts as a loop."""
    times = uniform_times(64)
    bundle = StrandBundle(C1, times, tuple(tuple(C1.canon(x + t / 2) for t in times) for x in (0.1, 0.6)))
    assert project(bundle).kind == "loop"
    h, cert = contract_pipeline(bundle, mode, b, resolution=(24, 64))
    assert cert.max_cardinality == 4

    def hexed(rows):
        return [[tuple(map(float.hex, c.points)) for c in row] for row in rows]
    assert hexed(h.cells) == hexed(oracle_pipeline_cells(bundle, mode, b, (24, 64)))


def test_pipeline_contracts_a_closed_track_built_with_the_default_kind():
    """make_track's default kind, "path", checks nothing: a closed
    one-turn loop is a loop by its cells, and contracts."""
    times = uniform_times(32)
    track = make_track(C1, times, [[C1.canon(0.1 + t)] for t in times], cap=1)
    assert track.kind == "loop"
    h, cert = contract_pipeline(track, Inclusion(1), 0.1, resolution=(16, 48))
    certificate_ok(cert, 3)
    assert h.row(0).kind == "loop"


def test_pipeline_mode_validation():
    with pytest.raises(ValueError):
        SimplyConnected(3)
    track = generator_track()
    with pytest.raises(ValueError):
        contract_pipeline(project(StrandBundle(C1, uniform_times(16), (
            tuple(0.0 for _ in range(17)), tuple(0.1 for _ in range(17))))), Inclusion(1), 0.0)


def test_pipeline_certificate_serializes():
    _, cert = contract_pipeline(generator_track(), Inclusion(1), 0.0, resolution=(24, 64))
    d = cert.as_dict()
    assert d["declared_cap"] == 3
    assert d["stages"][0][0] == "normalize"


def test_pipeline_certificate_is_certify_of_its_grid():
    """contract writes what verify recomputes: the certificate is
    tracks.certify of the stacked grid, its stage ranges and b, and the
    grid carries the mode's declared cap."""
    for obj, mode, b in ((generator_track(), Inclusion(1), 0.0), (generator_track(base=0.1), Inclusion(2), 0.1)):
        h, cert = contract_pipeline(obj, mode, b, resolution=(24, 64))
        assert h.cap == mode.declared_cap == cert.declared_cap
        assert certify(h, [stage[:3] for stage in cert.stages], b) == cert


def test_pipeline_interval_loops():
    ival = Interval(1.0)
    times = uniform_times(128)

    def arc(peak):
        return tuple(peak * (1.0 - abs(1.0 - 2.0 * t)) for t in times)

    strands = (arc(0.8), arc(0.5), arc(0.3), tuple(0.0 for _ in times))
    bundle = StrandBundle(ival, times, strands)
    h, cert = contract_pipeline(bundle, SimplyConnected(4), 0.0, resolution=(32, 96))
    certificate_ok(cert, 4)
    base = dedup(ival, [0.0])
    assert max(hausdorff(ival, c, base) for c in h.cells[-1]) <= 1e-9


def test_pipeline_bound_stable_under_refinement():
    track = generator_track(m=256, base=0.1)
    _, coarse = contract_pipeline(track, Inclusion(1), 0.0, resolution=(48, 128))
    _, fine = contract_pipeline(track, Inclusion(1), 0.0, resolution=(96, 256))
    assert math.isfinite(coarse.lipschitz) and math.isfinite(fine.lipschitz)
    ratio = fine.lipschitz / coarse.lipschitz
    assert 0.5 <= ratio <= 2.0


@pytest.mark.parametrize("resolution", [(0, 16), (-3, 16), (8, 0)], ids=["rows-zero", "rows-negative", "columns-zero"])
def test_pipeline_rejects_bad_parameters(resolution):
    with pytest.raises(ValueError):
        contract_pipeline(generator_track(m=16), Inclusion(1), 0.0, resolution=resolution)


def _hex_rows(rows):
    """The points of rows of configurations, floats as their exact hex."""
    def point(p):
        return (p.edge, p.t.hex()) if hasattr(p, "edge") else p.hex()
    return [[tuple(map(point, c.points)) for c in row] for row in rows]


def _slot_point_lists(space, enc):
    """The points in each cell's slots of a padded block encoding, row by
    row, NaN slots skipped."""
    if isinstance(space, MetricGraph):
        return [[(int(e), t) for e, t in cell if not math.isnan(t)] for cell in enc.reshape(-1, *enc.shape[2:]).tolist()]
    return [[x for x in cell if not math.isnan(x)] for cell in enc.reshape(-1, enc.shape[2]).tolist()]


def test_block_dedup_matches_scalar_dedup_per_cell(monkeypatch):
    """Every block is deduplicated by one dedup_many call over its slot
    encoding, its cells equal the reference dedup (oracles.oracle_dedup)
    of each cell's slot points and carry
    the block's own cap; and every stage's cells, scheduled as arrays,
    equal the per-cell oracle's dedup of each cell's points, bit for bit:
    based and rebased theta bundles, rebased circle and interval bundles,
    and raw circle and theta tracks (normalize's dwell, conjugation and
    rescheduling blocks)."""
    blocks = []
    slots_block = moves._slots_block

    def recorded(space, grid, cap, enc):
        block = slots_block(space, grid, cap, enc)
        blocks.append((space, cap, enc.copy(), block))
        return block

    monkeypatch.setattr(moves, "_slots_block", recorded)
    theta, theta_bundle = out_and_back_theta_bundle()
    rng = np.random.default_rng(7)
    circle_bundle = StrandBundle(C1, uniform_times(64), tuple(
        tuple(C1.canon(0.2 + x) for x in random_based_strand(rng, 64, max_wind=1)) for _ in range(2)))
    ival = Interval(1.0)
    ival_bundle = StrandBundle(ival, uniform_times(64), tuple(
        tuple(0.6 - peak * (1.0 - abs(1.0 - 2.0 * t)) for t in uniform_times(64)) for peak in (0.5, 0.2)))
    cases = (
        (theta_bundle, SimplyConnected(4), theta.vertex_point(0)),
        (theta_bundle, SimplyConnected(4), theta.vertex_point(1)),
        (figure_branch_track(64), Inclusion(2), 0.0),
        (circle_bundle, Inclusion(2), 0.0),
        (ival_bundle, Inclusion(2), 0.1),
        (project(theta_bundle), Inclusion(4), theta.vertex_point(0)),
    )
    counts = []
    for obj, mode, b in cases:
        before = len(blocks)
        h, cert = contract_pipeline(obj, mode, b, resolution=(24, 48))
        counts.append(len(blocks) - before)
        stages = oracle_pipeline_stages(obj, mode, b, (24, 48))
        assert [name for name, *_ in cert.stages] == [name for name, _ in stages]
        # a stage after the first shares its first row with the stage before
        for i, ((name, first, last, _), (_, rows)) in enumerate(zip(cert.stages, stages)):
            assert _hex_rows(h.cells[first + (i > 0):last + 1]) == _hex_rows(rows[(i > 0):]), name
    # based theta bundle: the staircase and one window per strand; rebased
    # onto the other vertex: normalize's two strand blocks as well; circle
    # track: normalize's conjugation and rescheduling blocks, the staircase
    # and a window per strand
    assert counts[:3] == [5, 7, 5]
    for space, cap, enc, block in blocks:
        want = [oracle_dedup(space, pts, cap=cap) for pts in _slot_point_lists(space, enc)]
        got = [c for row in block.cells for c in row]
        assert [repr(c.points) for c in got] == [repr(c.points) for c in want]
        assert block.cap == cap and all(c.cap == cap for c in got)


def test_block_rejects_a_cell_with_no_point():
    """A block cell whose slots are all padding is an error, not an empty
    configuration."""
    nan = math.nan
    for space in (C1, Interval(1.0)):
        enc = np.array([[[0.1, nan], [0.2, 0.3]], [[0.1, 0.4], [nan, nan]]])
        with pytest.raises(EmptyConfiguration):
            moves._slots_block(space, (0.0, 1.0), 2, enc)
    theta, _ = out_and_back_theta_bundle()
    enc = np.array([[[[0, 0.5], [0, nan]], [[1, 0.5], [0, nan]]], [[[0, 0.5], [1, 0.2]], [[1, nan], [0, nan]]]])
    with pytest.raises(EmptyConfiguration):
        moves._slots_block(theta, (0.0, 1.0), 2, enc)


@pytest.mark.parametrize("case", ["theta-bundle", "unbased-circle-loop"])
def test_certificate_drift_and_constancy_match_the_oracle(case):
    """endpoint_drift and target_constancy, read from the cell grid by the
    batch kernel, equal the oracle Hausdorff maxima over the cells: the
    endpoint columns against row 0, the last row against {b}."""
    if case == "theta-bundle":
        theta, loop = out_and_back_theta_bundle()
        b = theta.vertex_point(0)
        h, cert = contract_pipeline(loop, SimplyConnected(4), b, resolution=(24, 48))
        metric = make_graph_point_metric(theta.edges, theta.num_vertices)
    else:
        b = 0.0
        h, cert = contract_pipeline(generator_track(m=48, base=0.1), Inclusion(1), b, resolution=(16, 48))
        metric = circle_point_metric(1.0)
    first = h.cells[0]
    drift = max(
        max(oracle_hausdorff(metric, row[0].points, first[0].points),
            oracle_hausdorff(metric, row[-1].points, first[-1].points))
        for row in h.cells
    )
    constancy = max(oracle_hausdorff(metric, cell.points, [b]) for cell in h.cells[-1])
    assert cert.endpoint_drift == drift
    assert cert.target_constancy == constancy
    if case == "unbased-circle-loop":
        assert drift > 0.05  # column 0 moves from the loop's start to b
