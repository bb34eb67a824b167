"""Homotopies stored as one CellGrid: the array-native cells against the
per-cell object path they replace, and no Configuration built on the way
from a block to the written document."""

import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generator_cell, oracle_dump
from ranspace import moves
from ranspace.io import dump, homotopy_to_json, space_to_json
from ranspace.moves import (
    Inclusion,
    SimplyConnected,
    contract_circle_generator,
    contract_pipeline,
    pushforward_contraction,
)
from ranspace.ran import Configuration, dedup
from ranspace.space import Circle, GraphPoint, Interval, MetricGraph
from ranspace.tracks import Homotopy, StrandInterpolator, check_continuity, nearest_sample, uniform_times
from test_moves import figure_branch_track, out_and_back_theta_bundle

C1 = Circle(1.0)
THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def _hex(rows):
    """Every point of rows of configurations, floats as their exact hex."""
    def point(p):
        return (p.edge, p.t.hex()) if isinstance(p, GraphPoint) else p.hex()
    return [[tuple(map(point, c.points)) for c in row] for row in rows]


def _rows(cells, width):
    return [cells[i:i + width] for i in range(0, len(cells), width)]


def test_generator_cells_match_the_object_path():
    for r, m in ((8, 16), (33, 64)):
        times = uniform_times(m)
        want = [[dedup(C1, [C1.canon(v) for v in generator_cell(s, t)], cap=3) for t in times] for s in uniform_times(r)]
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
            [dedup(space, interp.many([C1.canon(v) for v in generator_cell(s, t)]), cap=3) for t in uniform_times(m)]
            for s in uniform_times(r)
        ]
        assert _hex(pushforward_contraction(space, strand, (r, m)).cells) == _hex(want)


def _pipeline_by_object_path(monkeypatch, run):
    """Run a pipeline and rebuild its cells the way the object path did:
    each deduplicating block as dedup of each cell's point list, every
    stack as its blocks' rows with the seams dropped.  Returns the
    homotopy, the object path's rows of each deduplicating block by id and
    every stack's (blocks, result); the caller adds the rows of blocks
    that reuse input cells (a raw track's reparametrization, a based
    bundle's constant block)."""
    oracle, stacks = {}, []
    dedup_block, stack = moves._dedup_block, moves.stack_homotopies

    def recorded_block(space, grid, rows, cap, point_lists):
        block = dedup_block(space, grid, rows, cap, point_lists)
        oracle[id(block)] = _rows([dedup(space, pts, cap=cap) for pts in point_lists], len(grid))
        return block

    def recorded_stack(blocks):
        out = stack(blocks)
        stacks.append((blocks, out))
        return out

    monkeypatch.setattr(moves, "_dedup_block", recorded_block)
    monkeypatch.setattr(moves, "stack_homotopies", recorded_stack)
    h, _ = run()
    return h, oracle, stacks


def _stacked(oracle, stacks):
    for blocks, out in stacks:
        oracle[id(out)] = oracle[id(blocks[0])] + [row for b in blocks[1:] for row in oracle[id(b)][1:]]
    return oracle[id(stacks[-1][1])]


def test_theta_pipeline_cells_match_the_object_path(monkeypatch):
    theta, bundle = out_and_back_theta_bundle()
    m = 48
    # based at vertex 0: normalize returns the projection as a constant block
    h, oracle, stacks = _pipeline_by_object_path(
        monkeypatch, lambda: contract_pipeline(bundle, SimplyConnected(4), theta.vertex_point(0), resolution=(24, m)))
    resampled = moves._resample_bundle(bundle, uniform_times(m))
    proj = [dedup(theta, [s[k] for s in resampled.strands], cap=4) for k in range(m + 1)]
    oracle[id(stacks[0][0][0])] = [proj, proj]
    assert _hex(h.cells) == _hex(_stacked(oracle, stacks))
    # rebased onto vertex 1: normalize's two strand blocks as well
    h, oracle, stacks = _pipeline_by_object_path(
        monkeypatch, lambda: contract_pipeline(bundle, SimplyConnected(4), theta.vertex_point(1), resolution=(24, m)))
    assert _hex(h.cells) == _hex(_stacked(oracle, stacks))


def test_raw_circle_track_cells_match_the_object_path(monkeypatch):
    """A raw circle track through normalize (reparametrization,
    conjugation, rescheduling), the staircase and the windows."""
    track = figure_branch_track(64)
    r, m = 24, 48
    h, oracle, stacks = _pipeline_by_object_path(
        monkeypatch, lambda: contract_pipeline(track, Inclusion(2), 0.0, resolution=(r, m)))
    rows, grid = max(2, r // 6), uniform_times(m)
    # the reparametrization block reuses the input's cells as they are
    oracle[id(stacks[0][0][0])] = [
        [track.configs[nearest_sample(track.times, moves._dwell(i / rows, t))] for t in grid] for i in range(rows + 1)
    ]
    assert _hex(h.cells) == _hex(_stacked(oracle, stacks))


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
    h = Homotopy(space, s_grid, t_grid, cells, 4)
    assert _hex(h.cells) == _hex(cells)
    assert all(c.cap == 4 for row in h.cells for c in row)
    assert _hex([h.row(i).configs for i in range(h.rows)]) == _hex(cells)
    buf = io.StringIO()
    dump(homotopy_to_json(h), buf)
    assert buf.getvalue() == oracle_dump(_old_document(space, s_grid, t_grid, cells))


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
