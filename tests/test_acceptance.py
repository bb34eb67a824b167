"""Acceptance suite: one criterion per test, each printing a status line.

Expected values follow the frozen fixtures established during
development; tolerances and runtime budgets are asserted as stated.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import (
    circle_point_metric,
    detect_branch_merge,
    make_graph_point_metric,
    naive_pairs,
    oracle_hausdorff,
    random_point,
    reverse,
    singleton_strand,
    staircase,
)
from ranspace.errors import ModeViolation
from ranspace.homology import (
    long_lived_h1_count,
    maxmin_subsample,
    rips_persistence_h1,
    sample_ran,
)
from ranspace.io import dump, load, track_from_json, track_to_json
from ranspace.moves import (
    Inclusion,
    SimplyConnected,
    contract_circle_generator,
    contract_pipeline,
    extract_strands,
)
from ranspace.ran import dedup, hausdorff
from ranspace.space import Circle, MetricGraph
from ranspace.tracks import (
    StrandBundle,
    check_continuity,
    make_track,
    project,
    uniform_times,
    winding_number,
)

C1 = Circle(1.0)
FIVE_EDGE = MetricGraph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.75), (3, 0, 1.25), (0, 2, 2.0)))
THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def report(num, label, started, budget):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def random_based_strand(rng, m, max_wind=2, amp=0.12):
    w = int(rng.integers(-max_wind, max_wind + 1))
    coeffs = rng.uniform(-amp, amp, 3)
    values = [w * t + sum(a * np.sin(np.pi * (k + 1) * t) for k, a in enumerate(coeffs)) for t in uniform_times(m)]
    return tuple(C1.canon_many(np.array(values)).tolist())


def random_theta_strand(rng, m):
    """Closed walk from vertex 0: a few out-and-back edge excursions."""
    k = int(rng.integers(1, 3))
    legs = [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(k)]
    times = uniform_times(m)
    pts = []
    for t in times:
        seg = min(int(t * k), k - 1)
        loc = t * k - seg
        e_out, e_back = legs[seg]
        if loc <= 0.5:
            pts.append(THETA.canon((e_out, 2 * loc)))
        else:
            pts.append(THETA.canon((e_back, 2 * (1 - loc))))
    return tuple(pts)


def projected_cardinalities_circle(bundle):
    """Distinct-value counts per time column, vectorized for the circle."""
    arr = np.array(bundle.strands, dtype=float)
    arr = np.sort(arr % 1.0, axis=0)
    eps = 1e-9
    gaps = np.diff(arr, axis=0) > eps
    counts = 1 + gaps.sum(axis=0)
    wrap = (arr[-1] - arr[0]) >= 1.0 - eps
    counts = counts - (wrap & (counts > 1))
    return counts


def test_criterion_1_hausdorff_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    circle_metric = circle_point_metric(1.0)
    graph_metric = make_graph_point_metric(FIVE_EDGE.edges, FIVE_EDGE.num_vertices)
    for space, metric in ((C1, circle_metric), (FIVE_EDGE, graph_metric)):
        configs = [
            dedup(space, [random_point(space, rng) for _ in range(int(rng.integers(1, 5)))])
            for _ in range(60)
        ]
        for _ in range(1000):
            a, b, c = (configs[rng.integers(len(configs))] for _ in range(3))
            dab = hausdorff(space, a, b)
            assert dab == oracle_hausdorff(metric, a.points, b.points)
            assert dab == hausdorff(space, b, a)
            assert dab <= hausdorff(space, a, c) + hausdorff(space, c, b) + 1e-12
    report(1, "Hausdorff metric matches the brute-force oracle exactly", started, 5.0)


def test_criterion_2_staircase_factors_through_pairs():
    """On each bundle, the reference staircase schedule and the staircase
    stage contract_pipeline writes: the stage's last row, read from the
    certificate's stage row ranges, has at most two points at every
    column."""
    started = time.monotonic()
    rng = np.random.default_rng(102)
    violations = 0
    worst_stage = 0
    for i in range(100):
        n = 2 + i % 5
        strands = tuple(random_based_strand(rng, 1024) for _ in range(n))
        bundle = StrandBundle(C1, uniform_times(1024), strands)
        out = staircase(bundle)
        counts = projected_cardinalities_circle(out)
        violations += int((counts > 2).sum())
        h, cert = contract_pipeline(bundle, Inclusion(n), 0.0)
        (last,) = [last for name, _, last, _ in cert.stages if name == "staircase"]
        worst_stage = max(worst_stage, int(h.counts[last].max()))
    assert violations == 0
    assert worst_stage <= 2
    report(2, "staircase projections stay within two points", started, 10.0)


def test_criterion_3_generator_contraction_certificate():
    started = time.monotonic()
    base = dedup(C1, [0.0])
    lips = {}
    for res in ((256, 256), (512, 512)):
        for turns in (1, -1):
            h = contract_circle_generator(turns, resolution=res)
            assert winding_number(C1, singleton_strand(h.row(0))) == turns
            assert max(hausdorff(C1, c, base) for c in h.cells[-1]) <= 1e-9
            cards = [len(c) for row in h.cells for c in row]
            assert max(cards) == 3
            assert all(hausdorff(C1, row[0], base) <= 1e-9 for row in h.cells)
            assert all(hausdorff(C1, row[-1], base) <= 1e-9 for row in h.cells)
            rep = check_continuity(h, bound=4.0)
            assert rep.passed and math.isfinite(rep.lipschitz)
            lips[(res, turns)] = rep.lipschitz
    for turns in (1, -1):
        ratio = lips[((512, 512), turns)] / lips[((256, 256), turns)]
        assert 0.5 <= ratio <= 2.0
    report(3, "one-turn contraction certified at 256 and 512 resolution", started, 30.0)


def test_criterion_4_inclusion_triviality():
    started = time.monotonic()
    rng = np.random.default_rng(104)
    base = dedup(C1, [0.0])
    for n in (1, 2, 3):
        for _ in range(20):
            strands = tuple(random_based_strand(rng, 128) for _ in range(n))
            track = project(StrandBundle(C1, uniform_times(128), strands))
            try:
                h, cert = contract_pipeline(track, Inclusion(n), 0.0, resolution=(36, 96))
            except ModeViolation as exc:
                raise AssertionError(f"mode violation at n={n}: {exc}") from exc
            assert cert.max_cardinality <= n + 2
            assert max(hausdorff(C1, c, base) for c in h.cells[-1]) <= 1e-9
    report(4, "inclusion-mode contractions stay within n+2 points", started, 60.0)


def test_criterion_5_simple_connectivity():
    started = time.monotonic()
    rng = np.random.default_rng(105)
    base_c = dedup(C1, [0.0])
    b_theta = THETA.vertex_point(0)
    base_g = dedup(THETA, [b_theta])
    for n in (4, 5):
        for _ in range(20):
            strands = tuple(random_based_strand(rng, 128) for _ in range(n))
            bundle = StrandBundle(C1, uniform_times(128), strands)
            h, cert = contract_pipeline(bundle, SimplyConnected(n), 0.0, resolution=(32, 96))
            assert cert.max_cardinality <= n
            assert max(hausdorff(C1, c, base_c) for c in h.cells[-1]) <= 1e-9
        for _ in range(20):
            strands = tuple(random_theta_strand(rng, 128) for _ in range(n))
            bundle = StrandBundle(THETA, uniform_times(128), strands)
            h, cert = contract_pipeline(bundle, SimplyConnected(n), b_theta, resolution=(32, 96))
            assert cert.max_cardinality <= n
            assert max(hausdorff(THETA, c, base_g) for c in h.cells[-1]) <= 1e-9
    report(5, "simply-connected-mode contractions stay within n points", started, 120.0)


def test_criterion_6_homology_oracle_corroboration():
    started = time.monotonic()
    expected = {
        (1, 200, 0.35): 1,
        (2, 250, 0.20): 1,
        (3, 300, 0.30): 0,
        (4, 300, 0.30): 0,
    }
    for (n, m, scale), want in expected.items():
        cloud = sample_ran(C1, n=n, m=m, seed=0)
        sub = maxmin_subsample(cloud, 48, seed=0)
        pairs = rips_persistence_h1(sub, max_scale=scale)
        got = long_lived_h1_count(pairs)
        assert got == want, f"n={n}: expected {want} long-lived classes, got {got}"
    report(6, "persistence probe matches the known first-homology picture", started, 120.0)


def test_criterion_7_branch_merge_symmetry():
    """On each split track, the reference branch and merge detector and the
    branching logic contract runs: extract_strands of the reversed track
    gives the reversed strands of the track."""
    started = time.monotonic()
    rng = np.random.default_rng(107)
    m = 64
    for _ in range(50):
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
        radius = float(rng.uniform(0.01, 0.05))
        look = int(rng.integers(1, 4))
        fwd = detect_branch_merge(track, radius, look)
        bwd = detect_branch_merge(reverse(track), radius, look)
        swapped = sorted(
            (m - i, p, "merge" if kind == "branch" else "branch") for i, p, kind in fwd
        )
        assert sorted(bwd) == swapped
        strands = extract_strands(track).strands
        assert sorted(extract_strands(reverse(track)).strands) == sorted(s[::-1] for s in strands)
    report(7, "branch and merge labels swap and strands reverse exactly under reversal", started, 5.0)


def test_criterion_8_persistence_reduction_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(108)
    for _ in range(100):
        size = int(rng.integers(3, 13))
        cloud = sample_ran(C1, n=2, m=size, seed=int(rng.integers(1 << 30)))
        scale = float(rng.uniform(0.15, 0.55))
        got = sorted((p.birth, p.death, p.dim) for p in rips_persistence_h1(cloud, scale))
        assert got == naive_pairs(cloud.dist, scale)
    report(8, "reduction matches the exhaustive naive oracle on small clouds", started, 30.0)


def test_criterion_9_determinism_and_round_trip(tmp_path):
    started = time.monotonic()
    times = uniform_times(96)
    track = make_track(C1, times, [[C1.canon(0.1 + t)] for t in times], cap=1, kind="loop")
    src = tmp_path / "loop.json"
    with open(src, "w") as fp:
        dump(track_to_json(track), fp)

    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "ranspace.cli", "contract", str(src),
             "--cap", "1", "--out", str(out), "--resolution", "24", "64"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    # load then save is the identity on every fixture document
    fixtures = [src, tmp_path / "a.json"]
    theta_track = make_track(
        THETA, uniform_times(8),
        [[THETA.canon((0, 0.5 * t)), THETA.canon((1, 0.25))] for t in uniform_times(8)],
        cap=2, kind="path",
    )
    graph_path = tmp_path / "graph.json"
    with open(graph_path, "w") as fp:
        dump(track_to_json(theta_track), fp)
    fixtures.append(graph_path)
    for path in fixtures:
        with open(path) as fp:
            doc = load(fp)
        if "cells" in doc:
            from ranspace.io import homotopy_from_json, homotopy_to_json

            h, cert = homotopy_from_json(doc)
            redoc = homotopy_to_json(h, cert)
        else:
            redoc = track_to_json(track_from_json(doc))
        twice = tmp_path / ("resaved_" + path.name)
        with open(twice, "w") as fp:
            dump(redoc, fp)
        assert twice.read_bytes() == path.read_bytes(), f"round trip changed {path.name}"
    report(9, "contract output byte-stable; load/save is the identity", started, 60.0)
