"""The document writer against the standard library encoder, and reading
documents back bit for bit."""

import dataclasses
import gc
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_dump
from ranspace import io as rio
from ranspace.errors import SchemaError
from ranspace.io import (
    certificate_from_json,
    dump,
    grid_from_json,
    homotopy_from_json,
    homotopy_to_json,
    load,
    track_from_json,
    track_to_json,
)
from ranspace.ran import dedup
from ranspace.space import Circle, GraphPoint, Interval, MetricGraph
from ranspace.tracks import ContinuityReport, ContractionCertificate, Homotopy, Track

THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
SPACES = {"circle": Circle(1.0), "interval": Interval(1.0), "theta": THETA}


def _point(space):
    if isinstance(space, MetricGraph):
        return st.builds(GraphPoint, st.integers(0, len(space.edges) - 1), st.floats(0.0, 1.0))
    return st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1e-300, 5e-324, 0.1, 1 / 3, 1 - 1e-16])


@st.composite
def _grids(draw, cap=3):
    """(space, increasing s samples, time grid, rows of configurations)."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    rows = draw(st.integers(1, 4))
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4, unique=True))
    t_grid = (0.0, *sorted(inner), 1.0)
    s_grid = tuple(sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=rows, max_size=rows, unique=True))))
    cells = tuple(
        tuple(dedup(space, draw(st.lists(_point(space), min_size=1, max_size=cap)), cap=cap) for _ in t_grid)
        for _ in range(rows)
    )
    return space, s_grid, t_grid, cells


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json = st.recursive(
    _scalars | st.fixed_dictionaries({"edge": st.integers(), "t": st.floats()}),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=24,
)
_certificates = st.fixed_dictionaries({
    "max_gap": st.floats(allow_nan=False),
    "bound": st.just(math.inf),
    "stages": st.lists(st.tuples(st.text(max_size=8), st.integers(0, 9), st.integers(0, 9), st.integers(1, 4)), max_size=4),
}, optional={"nested": _json})


def _written(doc) -> str:
    buf = io.StringIO()
    dump(doc, buf)
    return buf.getvalue()


def _bits(rows):
    """Every point of rows of configurations, floats as their exact hex."""
    def point(p):
        return (p.edge, p.t.hex()) if isinstance(p, GraphPoint) else p.hex()
    return [[tuple(point(p) for p in c.points) for c in row] for row in rows]


@settings(max_examples=100, deadline=None)
@given(_grids(), st.none() | _certificates)
def test_homotopy_documents_match_the_stdlib_writer_and_read_back_bit_for_bit(grid, certificate):
    space, s_grid, t_grid, cells = grid
    h = Homotopy.of_cells(space, s_grid, t_grid, cells, 3)
    doc = homotopy_to_json(h, certificate)
    text = _written(doc)
    assert text == oracle_dump(doc)
    if certificate is not None and "nested" in certificate:
        # written as any JSON is, but no certificate field: the reader refuses it
        with pytest.raises(SchemaError, match="^certificate key 'nested' is no certificate field$"):
            homotopy_from_json(load(io.StringIO(text)))
    else:
        back, cert = homotopy_from_json(load(io.StringIO(text)))
        assert _bits(back.cells) == _bits(h.cells)
        assert back.s_grid.tolist() == h.s_grid.tolist() and back.t_grid.tolist() == h.t_grid.tolist()
        assert cert == (None if certificate is None else load(io.StringIO(oracle_dump(certificate))))
    read = grid_from_json(load(io.StringIO(text)))
    assert np.array_equal(read.enc, h.enc, equal_nan=True)
    assert np.array_equal(read.counts, h.counts)


@settings(max_examples=60, deadline=None)
@given(_grids())
def test_track_documents_match_the_stdlib_writer_and_read_back_bit_for_bit(grid):
    space, _, t_grid, cells = grid
    track = Track.of_cells(space, (0.0,), t_grid, cells[:1], 3)
    doc = track_to_json(track)
    text = _written(doc)
    assert text == oracle_dump(doc)
    back = track_from_json(load(io.StringIO(text)))
    assert _bits([back.configs]) == _bits([track.configs])
    assert np.array_equal(back.times, track.times)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["cells", "configs", "space", "certificate"]) | st.text(max_size=4), _json, max_size=4))
def test_any_json_document_is_written_as_the_stdlib_writes_it(doc):
    """Point lists that are not plain finite floats or graph points (NaN,
    ints, strings, mixed nesting) take the stdlib path, row by row."""
    assert _written(doc) == oracle_dump(doc)


def test_non_finite_and_mixed_rows_are_written_as_the_stdlib_writes_them():
    doc = {
        "cells": [[[0.5, math.nan]], [[math.inf], [-math.inf]], [[1, 0.5]], [[0.5, 1]], [], [[]], [[0.25], []],
                  [[{"t": 0.5, "edge": 1}]], [[{"edge": True, "t": 0.5}]], [[(0.5, 0.75)]]],
        "configs": [[0.1], [[0.2]], "x", None, 3],
        "certificate": {"max_gap": math.inf, "stages": (("normalize", 0, 3, 2),)},
    }
    assert _written(doc) == oracle_dump(doc)
    assert _written({}) == oracle_dump({})
    # graph points: an edge float64 cannot hold, a negative edge, t -0.0,
    # and a row that mixes float cells and graph cells
    near, far = [{"edge": -3, "t": -0.0}, {"edge": 2**53 - 1, "t": 0.25}], [{"edge": 2**53 + 1, "t": 0.5}]
    for configs in ([near], [far], [near, far]):
        doc = {"cells": [configs, [[0.5], near], [near, [0.5]]], "configs": configs}
        assert _written(doc) == oracle_dump(doc)


def test_the_certificate_schema_types_every_field_by_its_annotation():
    """certificate_from_json reads each field's JSON kind from the
    annotations of ContractionCertificate and ContinuityReport (a
    check_continuity certificate's bound and passed); stages has its own
    rule."""
    fields = dataclasses.fields(ContractionCertificate) + dataclasses.fields(ContinuityReport)
    assert [f.name for f in fields if f.type.removesuffix(" | None") not in rio._SCALARS] == ["stages"]
    for f in (f for f in fields if f.name != "stages"):
        wrong = 5 if f.type == "str" else "5"
        with pytest.raises(SchemaError, match=f"^certificate {f.name} must be "):
            certificate_from_json({"certificate": {f.name: wrong}})
        assert certificate_from_json({"certificate": {f.name: None}}) == {f.name: None}


def test_a_canonical_coordinate_reads_back_bit_for_bit():
    times = (0.0, 0.5, 1.0)
    for space in (Circle(1.0), Interval(1.0)):
        doc = track_to_json(Track.of_cells(space, (0.0,), times, ((dedup(space, [0.0]),) * 3,), 1))
        doc["configs"][1] = [-0.0]
        back = track_from_json(doc)
        assert back.configs[1].points[0].hex() == (-0.0).hex()
        assert _written(track_to_json(back)) == _written(doc)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic garbage collector switched on or off for one test, and
    back to its prior state after it."""
    prior = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if prior else gc.disable)()


@pytest.mark.parametrize("text, error", [('{"cap": 1}', None), ('{"cap": [1, 2', "not valid JSON"),
                                         ("[1, 2]", "a document must be a JSON object")])
def test_load_leaves_the_collector_as_it_found_it(collector, text, error):
    if error is None:
        assert load(io.StringIO(text)) == {"cap": 1}
    else:
        with pytest.raises(SchemaError, match=error):
            load(io.StringIO(text))
    assert gc.isenabled() is collector


def test_homotopy_to_json_leaves_the_collector_as_it_found_it(collector, monkeypatch):
    times = (0.0, 0.5, 1.0)
    h = Homotopy.of_cells(Circle(1.0), (0.0, 1.0), times, ((dedup(Circle(1.0), [0.25]),) * 3,) * 2, 1)
    assert homotopy_to_json(h)["cells"] == [[[0.25]] * 3] * 2
    assert gc.isenabled() is collector

    def fail(*args):
        raise RuntimeError("row build failed")
    monkeypatch.setattr(rio, "_row_point_lists", fail)
    with pytest.raises(RuntimeError, match="row build failed"):
        homotopy_to_json(h)
    assert gc.isenabled() is collector
