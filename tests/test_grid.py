"""Homotopies stored as their cell arrays: the array-native cells against the
per-cell object path they replace, and no Configuration built on the way
from a block to the written document."""

import io
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generator_cell, oracle_dedup, oracle_dump, oracle_pipeline_cells, pushforward_contraction
from ranspace import ran
from ranspace.io import dump, homotopy_to_json, space_to_json, write_homotopy
from ranspace.moves import (
    Inclusion,
    SimplyConnected,
    contract_circle_generator,
    contract_pipeline,
)
from ranspace.ran import Configuration, dedup
from ranspace.space import Circle, GraphPoint, Interval, MetricGraph
from ranspace.tracks import Homotopy, StrandInterpolator, check_continuity, make_track, uniform_times
from test_moves import figure_branch_track, generator_track, out_and_back_theta_bundle

C1 = Circle(1.0)
THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def _hex(rows):
    """Every point of rows of configurations, floats as their exact hex."""
    def point(p):
        return (p.edge, p.t.hex()) if isinstance(p, GraphPoint) else p.hex()
    return [[tuple(map(point, c.points)) for c in row] for row in rows]


def test_generator_cells_match_the_object_path():
    for r, m in ((8, 16), (33, 64)):
        times = uniform_times(m)
        want = [[oracle_dedup(C1, [C1.canon(v) for v in generator_cell(s, t)], cap=3) for t in times] for s in uniform_times(r)]
        assert _hex(contract_circle_generator(1, (r, m)).cells) == _hex(want)


def test_pushforward_cells_match_the_object_path():
    times = uniform_times(40)
    loops = (
        (C1, [C1.canon(0.3 + t + 0.05 * math.sin(2.0 * math.pi * t)) for t in times]),
        (Interval(2.0), [1.0 + 0.8 * math.sin(2.0 * math.pi * t) for t in times]),
    )
    r, m = 12, 24
    for space, strand in loops:
        interp = StrandInterpolator(space, times, strand)
        want = [
            [oracle_dedup(space, interp.many([C1.canon(v) for v in generator_cell(s, t)]).tolist(), cap=3) for t in uniform_times(m)]
            for s in uniform_times(r)
        ]
        assert _hex(pushforward_contraction(space, strand, (r, m)).cells) == _hex(want)


def test_theta_pipeline_cells_match_the_object_path():
    """A theta bundle based at b (normalize gives back its projection as a
    constant block) and rebased onto the other vertex (normalize's dwell
    and conjugation blocks as well): every cell equals the per-cell
    oracle's, bit for bit."""
    theta, bundle = out_and_back_theta_bundle()
    for b in (theta.vertex_point(0), theta.vertex_point(1)):
        h, _ = contract_pipeline(bundle, SimplyConnected(4), b, resolution=(24, 48))
        assert _hex(h.cells) == _hex(oracle_pipeline_cells(bundle, SimplyConnected(4), b, (24, 48)))


def test_raw_circle_track_cells_match_the_object_path():
    """Raw tracks through normalize (reparametrization, conjugation,
    rescheduling), the staircase and the windows: a branching circle loop,
    an unbased one-turn circle loop and an interval loop that branches."""
    times = uniform_times(64)
    ival = Interval(1.0)

    def ival_points(t):
        spread = 0.3 * max(0.0, 0.25 - abs(t - 0.5))
        return [0.4 + 0.2 * math.sin(2.0 * math.pi * t) + d for d in {-spread, spread}]

    cases = (
        (figure_branch_track(64), Inclusion(2), 0.0),
        (generator_track(m=48, base=0.1), Inclusion(1), 0.0),
        (make_track(ival, times, [ival_points(t) for t in times], cap=2, kind="loop"), Inclusion(2), 0.4),
    )
    for track, mode, b in cases:
        h, _ = contract_pipeline(track, mode, b, resolution=(24, 48))
        assert _hex(h.cells) == _hex(oracle_pipeline_cells(track, mode, b, (24, 48)))


@st.composite
def _configuration_rows(draw):
    """(space, s grid, t grid, rows of Configurations)."""
    space = draw(st.sampled_from([C1, Interval(1.0), THETA]))
    if isinstance(space, MetricGraph):
        point = st.builds(GraphPoint, st.integers(0, 2), st.floats(0.0, 1.0))
    else:
        point = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1 / 3])
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4, unique=True))
    t_grid = (0.0, *sorted(inner), 1.0)
    rows = draw(st.integers(1, 4))
    s_grid = tuple(sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=rows, max_size=rows, unique=True))))
    cells = tuple(
        tuple(dedup(space, draw(st.lists(point, min_size=1, max_size=4)), cap=4) for _ in t_grid) for _ in range(rows)
    )
    return space, s_grid, t_grid, cells


def _old_document(space, s_grid, t_grid, cells):
    """The document the object path wrote: each cell's points as they are."""
    def point(p):
        return {"edge": p.edge, "t": p.t} if isinstance(p, GraphPoint) else p
    return {
        "space": space_to_json(space),
        "cap": 4,
        "s_grid": list(s_grid),
        "t_grid": list(t_grid),
        "cells": [[list(map(point, c.points)) for c in row] for row in cells],
    }


@settings(max_examples=150, deadline=None)
@given(_configuration_rows())
def test_a_homotopy_of_configurations_gives_them_back(case):
    """A Homotopy built from Configuration rows gives back the same cells,
    and is written byte for byte as the object path's document."""
    space, s_grid, t_grid, cells = case
    h = Homotopy.of_cells(space, s_grid, t_grid, cells, 4)
    assert _hex(h.cells) == _hex(cells)
    assert all(c.cap == 4 for row in h.cells for c in row)
    assert _hex([h.row(i).configs for i in range(h.rows)]) == _hex(cells)
    buf = io.StringIO()
    dump(homotopy_to_json(h), buf)
    assert buf.getvalue() == oracle_dump(_old_document(space, s_grid, t_grid, cells))


_CERTIFICATES = st.sampled_from([None, {"max_gap": 1 / 3, "stages": [["normalize", 0, 1, 2]], "source": "loop"}])


@settings(max_examples=150, deadline=None)
@given(_configuration_rows(), _CERTIFICATES, st.sampled_from([None, 1, 3, 7]))
def test_write_homotopy_matches_dump(case, certificate, chunk):
    """write_homotopy writes the bytes of dump(homotopy_to_json(...)) and
    of the standard library encoder, formatting the grid in chunks of any
    size: -0.0 on intervals, 5e-324 and 1/3 included."""
    space, s_grid, t_grid, cells = case
    h = Homotopy.of_cells(space, s_grid, t_grid, cells, 4)
    want = io.StringIO()
    dump(homotopy_to_json(h, certificate), want)
    doc = _old_document(space, s_grid, t_grid, cells)
    if certificate is not None:
        doc["certificate"] = certificate
    assert want.getvalue() == oracle_dump(doc)
    got = io.StringIO()
    with mock.patch.object(ran, "BLOCK_CELLS", chunk or ran.BLOCK_CELLS):
        write_homotopy(h, certificate, got)
    assert got.getvalue() == want.getvalue()


def test_write_homotopy_matches_dump_past_one_chunk():
    """A generator grid of more cells than the writer formats at once, and
    a theta pipeline homotopy, are written as dump writes them."""
    h = contract_circle_generator(1, (300, 256))
    assert h.rows * len(h.t_grid) > ran.BLOCK_CELLS
    theta, bundle = out_and_back_theta_bundle()
    h_theta, cert = contract_pipeline(bundle, SimplyConnected(4), theta.vertex_point(1), resolution=(24, 48))
    for homotopy, certificate in ((h, check_continuity(h, 4.0).as_dict()), (h_theta, cert.as_dict())):
        want, got = io.StringIO(), io.StringIO()
        dump(homotopy_to_json(homotopy, certificate), want)
        write_homotopy(homotopy, certificate, got)
        assert got.getvalue() == want.getvalue()


def _counting_configurations(monkeypatch) -> list:
    built = []
    init = Configuration.__post_init__

    def counted(self):
        built.append(len(self.points))
        init(self)

    monkeypatch.setattr(Configuration, "__post_init__", counted)
    return built


def test_generator_to_document_builds_no_configuration(monkeypatch):
    built = _counting_configurations(monkeypatch)
    h = contract_circle_generator(1, (64, 128))
    report = check_continuity(h, 4.0)
    dump(homotopy_to_json(h, report.as_dict()), io.StringIO())
    assert built == []


def test_theta_pipeline_builds_at_most_one_row_of_configurations_per_block(monkeypatch):
    theta, bundle = out_and_back_theta_bundle()
    built = _counting_configurations(monkeypatch)
    m = 48
    for b in (theta.vertex_point(0), theta.vertex_point(1)):
        built.clear()
        h, cert = contract_pipeline(bundle, SimplyConnected(4), b, resolution=(24, m))
        dump(homotopy_to_json(h, cert.as_dict()), io.StringIO())
        assert len(built) <= len(cert.stages) * (m + 1)
