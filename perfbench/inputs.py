"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed: the same seed gives
byte-identical inputs, another seed gives other inputs.  The generators
mirror the based-loop families of the acceptance suite (criteria 4 and 5)
so the benchmark exercises inputs the program is specified for.
"""

from __future__ import annotations

import numpy as np

from ranspace.io import dump, track_to_json
from ranspace.space import Circle, MetricGraph
from ranspace.tracks import StrandBundle, make_track, project, uniform_times

C1 = Circle(1.0)
CIRCLE_DOCS = 24
CIRCLE_M = 128
ONE_TURN_M = 96
THETA_BUNDLES = 8
THETA_N = 5
THETA_M = 128
# (n, m, landmarks, max-scale) of the homology probes
HOMOLOGY_PROBES = ((1, 400, 120, 0.35), (2, 250, 48, 0.2), (2, 600, 120, 0.2), (3, 600, 120, 0.3))


def theta_graph() -> MetricGraph:
    """Two vertices joined by three edges of lengths 1.0, 1.2 and 0.8."""
    return MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def based_circle_strand(rng: np.random.Generator, m: int, max_wind: int = 2, amp: float = 0.12) -> tuple:
    """A loop at 0 with winding in [-max_wind, max_wind] plus smooth wobble."""
    w = int(rng.integers(-max_wind, max_wind + 1))
    coeffs = rng.uniform(-amp, amp, 3)
    return tuple(
        C1.canon(w * t + sum(a * np.sin(np.pi * (k + 1) * t) for k, a in enumerate(coeffs)))
        for t in uniform_times(m)
    )


def theta_strand(rng: np.random.Generator, theta: MetricGraph, m: int) -> tuple:
    """Closed walk from vertex 0: one or two out-and-back edge excursions."""
    k = int(rng.integers(1, 3))
    legs = [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(k)]
    pts = []
    for t in uniform_times(m):
        seg = min(int(t * k), k - 1)
        loc = t * k - seg
        e_out, e_back = legs[seg]
        if loc <= 0.5:
            pts.append(theta.canon((e_out, 2 * loc)))
        else:
            pts.append(theta.canon((e_back, 2 * (1 - loc))))
    return tuple(pts)


def circle_loop_docs(seed: int) -> list:
    """(cap, track document) for every contract-circle op.

    Op 0 is the one-turn loop at 0.1 (m=96, cap 1); ops 1..23 project
    based circle bundles with n cycling 1, 2, 3.
    """
    times = uniform_times(ONE_TURN_M)
    one_turn = make_track(C1, times, [[C1.canon(0.1 + t)] for t in times], cap=1, kind="loop")
    docs = [(1, track_to_json(one_turn))]
    rng = np.random.default_rng(seed)
    for i in range(1, CIRCLE_DOCS):
        n = 1 + (i - 1) % 3
        strands = tuple(based_circle_strand(rng, CIRCLE_M) for _ in range(n))
        track = project(StrandBundle(C1, uniform_times(CIRCLE_M), strands))
        docs.append((n, track_to_json(track)))
    return docs


def theta_bundles(seed: int, theta: MetricGraph) -> list:
    rng = np.random.default_rng(seed)
    return [
        StrandBundle(theta, uniform_times(THETA_M), tuple(theta_strand(rng, theta, THETA_M) for _ in range(THETA_N)))
        for _ in range(THETA_BUNDLES)
    ]


def write_circle_docs(seed: int, directory) -> list:
    """Write the contract-circle track files; returns (cap, path) per op."""
    out = []
    for i, (cap, doc) in enumerate(circle_loop_docs(seed)):
        path = directory / f"loop{i:02d}.json"
        with open(path, "w") as fp:
            dump(doc, fp)
        out.append((cap, path))
    return out
