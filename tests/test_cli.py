"""End-to-end CLI checks: exit codes, round trips, determinism, SVG."""

import dataclasses
import io
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from oracles import circle_point_metric, oracle_hausdorff
from ranspace.errors import SchemaError
from ranspace.io import (
    dump,
    homotopy_from_json,
    homotopy_to_json,
    load,
    track_from_json,
    track_to_json,
)
from ranspace.moves import Inclusion, contract_circle_generator, contract_pipeline
from ranspace.space import Circle, GraphPoint, Interval, MetricGraph
from ranspace.tracks import (
    LOOP_TOL,
    ContractionCertificate,
    Homotopy,
    StrandBundle,
    check_continuity,
    make_track,
    project,
    uniform_times,
)
from test_moves import short_branch_track

C1 = Circle(1.0)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ranspace.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def write_generator_track(path: Path, m=96, base=0.1):
    times = uniform_times(m)
    track = make_track(C1, times, [[C1.canon(base + t)] for t in times], cap=1, kind="loop")
    with open(path, "w") as fp:
        dump(track_to_json(track), fp)
    return track


def test_contract_generator_exit_zero(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "homotopy.json"
    write_generator_track(src)
    res = run_cli("contract", src, "--mode", "inclusion", "--cap", 1,
                  "--basepoint", "0.0", "--resolution", 32, 96, "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["certificate"]["max_cardinality"] <= 3
    assert doc["certificate"]["declared_cap"] == 3


def test_contract_is_byte_deterministic(tmp_path):
    src = tmp_path / "loop.json"
    write_generator_track(src)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        res = run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 24, 64)
        assert res.returncode == 0, res.stderr
    assert out_a.read_bytes() == out_b.read_bytes()


def test_contract_schema_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"kind": "circle"}}')
    res = run_cli("contract", bad, "--cap", 1, "--out", tmp_path / "x.json")
    assert res.returncode == 2


def test_contract_ambiguous_branching_exit_three(tmp_path):
    src = tmp_path / "branch.json"
    with open(src, "w") as fp:
        dump(track_to_json(short_branch_track()), fp)
    res = run_cli("contract", src, "--cap", 3, "--out", tmp_path / "x.json")
    assert res.returncode == 3
    assert res.stderr == "ambiguous branching: branch at t=0.40625 needs 2 strands but only 1 ride the branching point\n"
    assert not (tmp_path / "x.json").exists()


def test_contract_has_no_matching_radius_option(tmp_path):
    """The strand matching radius is derived from the track, not an input."""
    src = tmp_path / "loop.json"
    write_generator_track(src, m=16)
    res = run_cli("contract", src, "--cap", 1, "--out", tmp_path / "x.json", "--matching-radius", 0.1)
    assert res.returncode == 2
    assert "No such option" in res.stderr and "--matching-radius" in res.stderr


def test_contract_cap_overrun_exits_four(tmp_path, monkeypatch):
    """A block cell over the declared cap is a mode violation: with
    Inclusion's declared cap lowered to its n, contract --cap 1 on the
    one-turn loop, whose contraction needs more than one point, exits 4."""
    from ranspace import cli

    monkeypatch.setattr(Inclusion, "declared_cap", property(lambda self: self.n))
    src = tmp_path / "loop.json"
    write_generator_track(src, m=32)
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr), pytest.raises(SystemExit) as exit_info:
        cli.main(["contract", str(src), "--cap", "1", "--out", str(tmp_path / "h.json"), "--resolution", "8", "32"],
                 standalone_mode=False)
        sys.exit(0)
    assert exit_info.value.code == 4
    assert stderr.getvalue() == "mode violation: observed cardinality 2 exceeds mode cap 1\n"
    assert not (tmp_path / "h.json").exists()


def test_verify_round_trip_and_corruption(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    write_generator_track(src)
    assert run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 96, 64).returncode == 0
    res = run_cli("verify", out, "--bound", 16.0)
    assert res.returncode == 0, res.stderr

    doc = json.loads(out.read_text())
    # teleport one interior cell point
    doc["cells"][3][10] = [0.77]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(doc))
    assert run_cli("verify", corrupt, "--bound", 16.0).returncode == 1

    doc = json.loads(out.read_text())
    doc["cap"] = 0
    lowered = tmp_path / "lowered.json"
    lowered.write_text(json.dumps(doc))
    assert run_cli("verify", lowered, "--bound", 16.0).returncode == 1

    doc = json.loads(out.read_text())
    del doc["certificate"]
    # move one interior cell by half a turn, written off the canonical range
    doc["cells"][30][40] = [doc["cells"][30][40][0] + 2.5]
    hidden = tmp_path / "hidden.json"
    hidden.write_text(json.dumps(doc))
    res = run_cli("verify", hidden, "--bound", 16.0)
    assert res.returncode == 1
    assert res.stderr.startswith("FAIL: max gap ")


def test_verify_rejects_homotopy_not_ending_at_a_point(tmp_path):
    src = tmp_path / "loop.json"
    contracted = tmp_path / "h.json"
    write_generator_track(src)
    assert run_cli("contract", src, "--cap", 1, "--out", contracted, "--resolution", 24, 64).returncode == 0
    generator = _write_doc(tmp_path / "gen.json", homotopy_to_json(contract_circle_generator(1, (64, 128))))
    for full in (contracted, generator):
        assert run_cli("verify", full).returncode == 0
        doc = json.loads(full.read_text())
        half = len(doc["cells"]) // 2
        # the first half of the rows, without a certificate to disagree with
        cut = {"space": doc["space"], "cap": doc["cap"], "s_grid": doc["s_grid"][:half],
               "t_grid": doc["t_grid"], "cells": doc["cells"][:half]}
        res = run_cli("verify", _write_doc(tmp_path / "cut.json", cut))
        assert res.returncode == 1
        assert res.stderr.startswith("FAIL: last row is not one constant point")
        assert res.stdout.splitlines()[-1] == "FAIL"


def test_verify_rejects_open_rows(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    write_generator_track(src)
    assert run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 16, 32).returncode == 0
    doc = json.loads(out.read_text())
    del doc["certificate"]
    rows = len(doc["cells"])
    # rotate column 0 of every interior row, by up to 0.01
    for i in range(1, rows - 1):
        doc["cells"][i][0] = sorted(C1.canon(p + 0.01 * i / (rows - 1)) for p in doc["cells"][i][0])
    res = run_cli("verify", _write_doc(tmp_path / "open.json", doc))
    assert res.returncode == 1
    assert res.stderr.startswith("FAIL: row 1 is not a closed loop")
    assert res.stdout.splitlines()[-1] == "FAIL"


def _first_pair_over(doc, limit):
    """(row, column, direction) of the first adjacent pair of cells, in
    row-major order and horizontal first, whose oracle gap exceeds limit."""
    metric = circle_point_metric(1.0)
    cells = doc["cells"]
    for i, row in enumerate(cells):
        for k, cell in enumerate(row):
            if k + 1 < len(row) and oracle_hausdorff(metric, cell, row[k + 1]) > limit:
                return i, k, "across"
            if i + 1 < len(cells) and oracle_hausdorff(metric, cell, cells[i + 1][k]) > limit:
                return i, k, "down"
    return None


def test_verify_names_the_first_pair_over_the_bound(tmp_path):
    """A continuity FAIL names the first adjacent pair over bound * grid
    step: its row, column and direction."""
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    write_generator_track(src)
    assert run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 16, 32).returncode == 0
    doc = json.loads(out.read_text())
    cert = doc.pop("certificate")
    bound = 4.0
    limit = bound * max(cert["ds"], cert["dt"])
    # move row 1's cell at column 5 half a turn
    doc["cells"][1][5] = sorted(C1.canon(p + 0.5) for p in doc["cells"][1][5])
    want = _first_pair_over(doc, limit)
    assert want == (0, 5, "down")
    res = run_cli("verify", _write_doc(tmp_path / "corrupt.json", doc), "--bound", bound)
    assert res.returncode == 1
    assert res.stderr.splitlines()[0] == (
        "FAIL: max gap 0.5 exceeds bound * grid step (first pair over it: row 0, column 5 down to row 1)"
    )
    assert res.stdout.splitlines()[-1] == "FAIL"


def test_verify_names_the_first_cell_over_the_cap(tmp_path):
    """A cap FAIL names the first cell, in row-major order, with more
    points than the declared cap: its row and column."""
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    write_generator_track(src)
    assert run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 16, 32).returncode == 0
    doc = json.loads(out.read_text())
    doc["cap"] = doc["certificate"]["max_cardinality"] - 1
    row, col = next((i, k) for i, cells in enumerate(doc["cells"]) for k, cell in enumerate(cells) if len(cell) > doc["cap"])
    res = run_cli("verify", _write_doc(tmp_path / "lowered.json", doc))
    assert res.returncode == 1
    # the certificate's declared_cap now disagrees with the lowered cap too
    assert res.stderr.splitlines() == [f"FAIL: cardinality exceeds declared cap (first cell over it: row {row}, column {col})",
                                       "FAIL: stored certificate declared_cap does not match cap"]
    assert res.stdout.splitlines()[-1] == "FAIL"


def test_contract_and_verify_a_loop_whose_strands_swap_ends(tmp_path):
    """The pairs {x, x + 1/2} over half a turn, written as the projection
    of two strands that swap endpoints, contract and verify."""
    times = uniform_times(64)
    track = project(StrandBundle(C1, times, tuple(tuple(C1.canon(x + t / 2) for t in times) for x in (0.1, 0.6))))
    out = tmp_path / "h.json"
    res = run_cli("contract", _write_doc(tmp_path / "swap.json", track_to_json(track)), "--cap", 2,
                  "--basepoint", 0.1, "--resolution", 16, 48, "--out", out)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("max cardinality 4 (cap 4)")
    res = run_cli("verify", out, "--bound", 64)
    assert res.returncode == 0, res.stderr


def _one_turn_doc(**changes):
    """The one-turn loop at 0.1 on 32 steps, built with make_track's
    default kind, as a track document with its keys changed."""
    times = uniform_times(32)
    return {**track_to_json(make_track(C1, times, [[C1.canon(0.1 + t)] for t in times], cap=1)), **changes}


def test_contract_reads_a_closed_track_declared_a_path_as_a_loop(tmp_path):
    """A track's kind comes from its cells: the one-turn loop declared a
    path contracts, and its homotopy verifies."""
    assert track_to_json(make_track(C1, uniform_times(4), [[0.1], [0.35], [0.6], [0.85], [0.1]], cap=1))["kind"] == "loop"
    out = tmp_path / "h.json"
    res = run_cli("contract", _write_doc(tmp_path / "loop.json", _one_turn_doc(kind="path")), "--cap", 1,
                  "--basepoint", 0.1, "--resolution", 16, 48, "--out", out)
    assert res.returncode == 0, res.stderr
    res = run_cli("verify", out, "--bound", 64)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("make_doc, reason", [
    (lambda: _one_turn_doc(kind="loop", configs=_one_turn_doc()["configs"][:-1] + [[0.6]]), "loop fails to close: gap 0.5"),
    (lambda: _one_turn_doc(kind="ring"), "kind must be 'path' or 'loop'"),
    (lambda: {**_constant_doc(C1, 0.25), "kind": "loop"}, "cells and s_grid belong to homotopy documents"),
    (lambda: {**homotopy_to_json(track_from_json(_one_turn_doc())), "kind": "loop"},
     "cells and s_grid belong to homotopy documents"),
    (lambda: _one_turn_doc(configs=[[0.1, 0.6] if k == 16 else c for k, c in enumerate(_one_turn_doc()["configs"])]),
     "cell of size 2 exceeds cap 1"),
], ids=["open-loop", "ring", "homotopy", "one-row-homotopy", "over-cap"])
def test_contract_rejects_a_document_that_is_not_a_track_of_its_kind(tmp_path, make_doc, reason):
    """A declared loop must close, a kind is "path" or "loop", a homotopy
    document is no track, even with a kind, and no cell may exceed the
    document's cap."""
    res = run_cli("contract", _write_doc(tmp_path / "doc.json", make_doc()), "--cap", 2,
                  "--basepoint", 0.25, "--resolution", 8, 16, "--out", tmp_path / "x.json")
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"schema error: bad track document: {reason}\n"
    assert res.stdout == ""


def test_convert_rejects_a_cell_above_the_cap(tmp_path):
    """verify reports a cell above the document's cap; convert, which
    builds a Homotopy from the document, exits 2."""
    doc = _constant_doc(C1, 0.25)
    doc["cells"][1][2] = [0.25, 0.5, 0.75]
    path = _write_doc(tmp_path / "over.json", doc)
    res = run_cli("convert", path, tmp_path / "frames")
    assert res.returncode == 2, res.stderr
    assert res.stderr == "schema error: bad homotopy document: cell of size 3 exceeds cap 2\n"
    with pytest.raises(SchemaError, match="cell of size 3 exceeds cap 2"):
        homotopy_from_json(doc)
    assert run_cli("verify", path).returncode == 1


def test_contract_writes_the_pipeline_document(tmp_path):
    """contract writes the bytes dump(homotopy_to_json(...)) writes for
    the same pipeline call: a circle loop and a projected theta bundle."""
    from test_moves import out_and_back_theta_bundle

    theta, bundle = out_and_back_theta_bundle()
    write_generator_track(tmp_path / "circle.json")
    _write_doc(tmp_path / "theta.json", track_to_json(project(bundle)))
    for name, cap, basepoint, b in (("circle", 1, "0.0", 0.0), ("theta", 4, "0:0.0", GraphPoint(0, 0.0))):
        src, out = tmp_path / f"{name}.json", tmp_path / f"{name}-h.json"
        res = run_cli("contract", src, "--cap", cap, "--basepoint", basepoint, "--resolution", 16, 48, "--out", out)
        assert res.returncode == 0, res.stderr
        with open(src) as fp:
            track = track_from_json(load(fp))
        h, cert = contract_pipeline(track, Inclusion(cap), b, resolution=(16, 48))
        want = io.StringIO()
        dump(homotopy_to_json(h, cert.as_dict()), want)
        assert out.read_text() == want.getvalue()


def test_load_save_identity(tmp_path):
    src = tmp_path / "loop.json"
    track = write_generator_track(src)
    with open(src) as fp:
        loaded = track_from_json(load(fp))
    assert loaded.times.tolist() == track.times.tolist()
    assert loaded.configs == track.configs
    # a second save is byte-identical
    again = tmp_path / "again.json"
    with open(again, "w") as fp:
        dump(track_to_json(loaded), fp)
    assert again.read_bytes() == src.read_bytes()


def test_homotopy_round_trip(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    write_generator_track(src)
    assert run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 16, 48).returncode == 0
    with open(out) as fp:
        homotopy, cert = homotopy_from_json(load(fp))
    again = tmp_path / "again.json"
    with open(again, "w") as fp:
        dump(homotopy_to_json(homotopy, cert), fp)
    assert again.read_bytes() == out.read_bytes()


def test_graph_track_round_trip(tmp_path):
    theta = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))
    times = uniform_times(8)
    pts = [[theta.canon((0, 0.5 * t)), theta.canon((1, 0.25))] for t in times]
    track = make_track(theta, times, pts, cap=2, kind="path")
    path = tmp_path / "graph.json"
    with open(path, "w") as fp:
        dump(track_to_json(track), fp)
    with open(path) as fp:
        loaded = track_from_json(load(fp))
    assert loaded.configs == track.configs
    assert loaded.space == theta


def test_svg_frames_valid_and_counted(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    frames = tmp_path / "frames"
    write_generator_track(src)
    res = run_cli("contract", src, "--cap", 1, "--out", out,
                  "--resolution", 12, 48, "--svg", frames)
    assert res.returncode == 0, res.stderr
    with open(out) as fp:
        homotopy, _ = homotopy_from_json(load(fp))
    files = sorted(frames.glob("frame_*.svg"))
    assert len(files) == homotopy.rows
    for f in files[:3] + files[-1:]:
        root = ET.parse(f).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"


def test_convert_track_frames(tmp_path):
    src = tmp_path / "loop.json"
    write_generator_track(src, m=24)
    res = run_cli("convert", src, tmp_path / "track_frames", "--stride", 4, "--basepoint", "0.0")
    assert res.returncode == 0
    files = list((tmp_path / "track_frames").glob("frame_*.svg"))
    assert len(files) == 7


def test_contract_simply_connected_mode(tmp_path):
    times = uniform_times(96)
    # four-point loop: one point orbits, three rest at distinct spots
    pts = [[C1.canon(t), 0.3, 0.6, 0.9] for t in times]
    track = make_track(C1, times, pts, cap=4, kind="loop")
    src = tmp_path / "four.json"
    with open(src, "w") as fp:
        dump(track_to_json(track), fp)
    out = tmp_path / "h.json"
    res = run_cli("contract", src, "--mode", "simply-connected", "--cap", 4,
                  "--basepoint", "0.0", "--resolution", 32, 96, "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["certificate"]["max_cardinality"] <= 4


def test_convert_homotopy_frames(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "h.json"
    write_generator_track(src, m=48)
    assert run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 10, 48).returncode == 0
    res = run_cli("convert", out, tmp_path / "hframes", "--basepoint", "0.0")
    assert res.returncode == 0
    with open(out) as fp:
        homotopy, _ = homotopy_from_json(load(fp))
    every = sorted((tmp_path / "hframes").glob("frame_*.svg"))
    assert len(every) == homotopy.rows == 13
    # --stride 4 keeps rows 0, 4, 8 and 12, each frame the bytes of its row's frame at stride 1
    res = run_cli("convert", out, tmp_path / "kept", "--basepoint", "0.0", "--stride", 4)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"wrote 4 frames to {tmp_path / 'kept'}\n"
    assert [f.read_bytes() for f in sorted((tmp_path / "kept").glob("frame_*.svg"))] == [f.read_bytes() for f in every[::4]]


def test_homology_command_runs(tmp_path):
    res = run_cli("homology", "--n", 1, "--m", 60, "--seed", 0,
                  "--max-scale", 0.3, "--landmarks", 24)
    assert res.returncode == 0, res.stderr
    assert "long-lived H1 classes: 1" in res.stdout


def test_homology_size_limit_exit_two(tmp_path):
    import os
    env = dict(os.environ, RAN_SIMPLEX_BUDGET="10")
    res = subprocess.run(
        [sys.executable, "-m", "ranspace.cli", "homology", "--n", "1", "--m", "40",
         "--max-scale", "0.3", "--landmarks", "0"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2


def test_homology_simplices_over_the_budget_exit_two(tmp_path):
    """A sample whose m * n points fit the budget but whose Rips simplices
    do not is refused by the simplex count, exit 2."""
    import os
    env = dict(os.environ, RAN_SIMPLEX_BUDGET="40")
    res = subprocess.run(
        [sys.executable, "-m", "ranspace.cli", "homology", "--n", "1", "--m", "40",
         "--max-scale", "0.3", "--landmarks", "0"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("size limit: ") and res.stderr.endswith(" simplices exceed budget 40\n"), res.stderr
    assert res.stdout == ""


def test_homology_refuses_a_sample_it_cannot_draw():
    """m * n over the simplex budget exits 2 before a point is drawn; run
    under a timeout and a 2 GB address-space limit, since drawing the
    sample would not end."""
    import os
    env = {k: v for k, v in os.environ.items() if k != "RAN_SIMPLEX_BUDGET"}
    res = subprocess.run(
        [sys.executable, "-m", "ranspace.cli", "homology", "--n", "99999999999", "--m", "3", "--max-scale", "0.3"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space,
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr == "size limit: a sample of 3 configurations of up to 99999999999 points exceeds budget 5000000\n"
    assert res.stdout == ""


def test_homology_out_of_memory_exits_two(monkeypatch):
    """A MemoryError is a size limit: exit 2 and one stderr line, no
    traceback."""
    from ranspace import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20000, 20000)")

    monkeypatch.setattr(cli, "landmark_cloud", exhausted)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), pytest.raises(SystemExit) as exit_info:
        cli.main(["homology", "--n", "2", "--m", "30", "--max-scale", "0.2", "--landmarks", "10"], standalone_mode=False)
        sys.exit(0)
    assert exit_info.value.code == 2
    assert stderr.getvalue() == "size limit: Unable to allocate 2.98 GiB for an array with shape (20000, 20000)\n"
    assert stdout.getvalue() == ""


def test_a_memory_error_without_text_names_its_type(monkeypatch):
    """A bare MemoryError() has no text: its size limit line names the
    type instead of ending at the label."""
    from ranspace import cli

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "landmark_cloud", exhausted)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), pytest.raises(SystemExit) as exit_info:
        cli.main(["homology", "--n", "2", "--m", "30", "--max-scale", "0.2", "--landmarks", "10"], standalone_mode=False)
        sys.exit(0)
    assert exit_info.value.code == 2
    assert stderr.getvalue() == "size limit: MemoryError\n"
    assert stdout.getvalue() == ""


@pytest.mark.parametrize("command", ["contract", "convert"])
def test_a_graph_with_too_few_edges_is_refused_before_it_allocates(tmp_path, command):
    """A track on a graph of 300000000 vertices and one edge cannot be
    connected, and is refused from its edge count (exit 2) before the
    connectivity search allocates two lists a vertex long, about 4.8 GB.
    Run under a 2 GB address-space limit, so that the allocation cannot
    exhaust the machine."""
    graph = MetricGraph(2, ((0, 1, 1.0),))
    times = uniform_times(4)
    doc = track_to_json(make_track(graph, times, [[graph.canon((0, 0.5))] for _ in times], cap=1, kind="loop"))
    doc["space"]["vertices"] = 300_000_000
    src = _write_doc(tmp_path / "huge.json", doc)
    args = ("--cap", 1, "--out", tmp_path / "h.json") if command == "contract" else (tmp_path / "frames",)
    res = subprocess.run(
        [sys.executable, "-m", "ranspace.cli", command, str(src), *map(str, args)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr == "schema error: bad space document: metric graph must be connected\n"
    assert res.stdout == ""


def test_an_edgeless_graph_is_a_bad_space_document(tmp_path):
    """A graph's points lie on its edges: a document of one vertex and no
    edge is refused as a space (exit 2), not at its first point."""
    graph = MetricGraph(1, ((0, 0, 1.0),))
    times = uniform_times(4)
    doc = track_to_json(make_track(graph, times, [[graph.canon((0, 0.5))] for _ in times], cap=1, kind="loop"))
    doc["space"]["edges"] = []
    res = run_cli("convert", _write_doc(tmp_path / "edgeless.json", doc), tmp_path / "frames")
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("schema error: bad space document: "
                          "need an int count of at least one vertex, and an edge for the points to lie on\n")
    assert res.stdout == ""


def _limit_address_space():
    """Run in the child before exec: cap its address space at 2 GB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


@pytest.mark.parametrize("extra, code", [((), 0), (("--landmarks", "0"), 2)], ids=["landmarks", "full-cloud"])
def test_homology_of_a_large_sample_under_a_memory_limit(extra, code):
    """m = 20000 under a 2 GB address-space limit: the landmarks need
    memory in K * m, not m * m, and run; the full 20000 x 20000 matrix
    (3.2 GB) cannot be allocated, which is a size limit, exit 2."""
    res = subprocess.run(
        [sys.executable, "-m", "ranspace.cli", "homology", "--n", "2", "--m", "20000", "--max-scale", "0.2", *extra],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
    )
    assert res.returncode == code, res.stderr
    if code:
        assert res.stderr.startswith("size limit: ") and len(res.stderr.splitlines()) == 1, res.stderr
        assert res.stdout == ""
    else:
        assert res.stdout.splitlines()[-1].startswith("long-lived H1 classes: ")


def test_contract_bound_failure_exit_one(tmp_path):
    src = tmp_path / "loop.json"
    write_generator_track(src, m=32)
    out = tmp_path / "h.json"
    res = run_cli("contract", src, "--cap", 1, "--out", out, "--resolution", 8, 32, "--bound", 0.001)
    assert res.returncode == 1
    assert out.exists()
    assert res.stderr.startswith("continuity bound 0.001 failed: max gap ")
    loose = tmp_path / "loose.json"
    res = run_cli("contract", src, "--cap", 1, "--out", loose, "--resolution", 8, 32, "--bound", 1e9)
    assert res.returncode == 0, res.stderr
    assert loose.read_bytes() == out.read_bytes()


def _write_doc(path: Path, doc) -> Path:
    with open(path, "w") as fp:
        dump(doc, fp)
    return path


def _open_path(tmp):
    times = uniform_times(16)
    track = make_track(C1, times, [[0.3 * t] for t in times], cap=1, kind="path")
    return ["contract", _write_doc(tmp / "path.json", track_to_json(track)), "--cap", 1, "--out", tmp / "x.json"]


def _interval_loop(tmp):
    ival = Interval(1.0)
    times = uniform_times(16)
    track = make_track(ival, times, [[0.5]] * len(times), cap=1, kind="loop")
    return ["contract", _write_doc(tmp / "ival.json", track_to_json(track)), "--cap", 1,
            "--basepoint", 5.0, "--out", tmp / "x.json"]


def _contract(*extra):
    def args(tmp):
        src = tmp / "loop.json"
        write_generator_track(src, m=16)
        return ["contract", src, "--out", tmp / "x.json", *extra]
    return args


def _theta_contract(*extra):
    """contract on a constant theta-graph loop document."""
    def args(tmp):
        times = uniform_times(4)
        track = make_track(THETA, times, [[GraphPoint(0, 0.5)]] * len(times), cap=1, kind="loop")
        return ["contract", _write_doc(tmp / "theta.json", track_to_json(track)), "--cap", 1, "--out", tmp / "x.json", *extra]
    return args


def _homology(*extra):
    return lambda tmp: ["homology", "--m", 20, "--max-scale", 0.3, *extra]


def _infinite_size(space, point, *extra):
    """contract on a constant loop document whose space size reads 1e999
    (every size 1.25 of space is rewritten in the document text)."""
    def args(tmp):
        times = uniform_times(4)
        doc = track_to_json(make_track(space, times, [[point]] * len(times), cap=1, kind="loop"))
        path = tmp / "infinite.json"
        path.write_text(json.dumps(doc).replace("1.25", "1e999"))
        return ["contract", path, "--cap", 1, "--out", tmp / "x.json", *extra]
    return args


def _verify_with_certificate(certificate):
    def args(tmp):
        times = uniform_times(4)
        track = make_track(C1, times, [[0.0]] * len(times), cap=1, kind="loop")
        h = Homotopy.of_cells(C1, (0.0, 1.0), times, (track.configs, track.configs), 1)
        return ["verify", _write_doc(tmp / "h.json", homotopy_to_json(h, certificate))]
    return args


def _half_turn_step(tmp):
    track = make_track(C1, uniform_times(4), [[0.0], [0.5], [0.0], [0.5], [0.0]], cap=1, kind="loop")
    return ["contract", _write_doc(tmp / "half.json", track_to_json(track)), "--cap", 1, "--out", tmp / "x.json"]


def _out_in_missing_dir(tmp):
    src = tmp / "loop.json"
    write_generator_track(src, m=16)
    return ["contract", src, "--cap", 1, "--resolution", 4, 16, "--out", tmp / "missing" / "x.json"]


def _verify(*extra):
    return lambda tmp: [*_verify_with_certificate(None)(tmp), *extra]


def _convert(*extra):
    def args(tmp):
        src = tmp / "loop.json"
        write_generator_track(src, m=16)
        return ["convert", src, tmp / "frames", *extra]
    return args


def _convert_homotopy(*extra):
    return lambda tmp: ["convert", _verify_with_certificate(None)(tmp)[1], tmp / "frames", *extra]


def _convert_not_an_object(tmp):
    src = tmp / "number.json"
    src.write_text("5")
    return ["convert", src, tmp / "frames"]


@pytest.mark.parametrize(
    "make_args, env",
    [
        (_open_path, {}),
        (_interval_loop, {}),
        (_contract("--cap", 1, "--resolution", 0, 0), {}),
        (_contract("--cap", 0), {}),
        (_contract("--cap", 2, "--mode", "simply-connected"), {}),
        (_homology("--n", 1), {"RAN_SIMPLEX_BUDGET": "abc"}),
        (_homology("--n", 0), {}),
        (_homology("--n", 1, "--landmarks", -3), {}),
        (_verify_with_certificate([1, 0.0]), {}),
        (_verify_with_certificate({"max_cardinality": 1, "max_gap": "0.0"}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "endpoint_drift": "0.0"}), {}),
        (_verify_with_certificate({"max_cardinality": "3"}), {}),
        (_verify_with_certificate({"max_cardinality": [3]}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "max_gap": True}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "ds": False}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "declared_cap": "x"}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "target_constancy": "abc"}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "target_constancy": [1]}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "source": 5}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "target": True}), {}),
        (_verify_with_certificate({"max_cardinality": 2, "passed": False, "bound": "x"}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "passed": "x", "bound": 4.0}), {}),
        (_verify_with_certificate({"max_cardinality": 1, "passed": 1, "bound": 4.0}), {}),
        (_convert("--stride", 0), {}),
        (_convert_homotopy("--stride", 0), {}),
        (_convert_homotopy("--stride", -1), {}),
        (_homology("--n", 1, "--max-scale", "nan"), {}),
        (_homology("--n", 1, "--circumference", "inf"), {}),
        (_infinite_size(Circle(1.25), 0.5), {}),
        (_infinite_size(Interval(1.25), 0.5), {}),
        (_infinite_size(MetricGraph(2, ((0, 1, 1.0), (1, 0, 1.25))), GraphPoint(0, 0.5), "--basepoint", "0:0.5"), {}),
        (_half_turn_step, {}),
        (_out_in_missing_dir, {}),
        (_contract("--cap", 1, "--bound", "nan"), {}),
        (_verify("--bound", "nan"), {}),
        (_verify("--bound", -1), {}),
        (_convert_not_an_object, {}),
        (_contract("--cap", 1, "--basepoint", "nan"), {}),
        (_contract("--cap", 1, "--basepoint", "inf"), {}),
        (_contract("--cap", 1, "--basepoint", "-inf"), {}),
        (_theta_contract("--basepoint", "0:nan"), {}),
        (_theta_contract("--basepoint", "0:inf"), {}),
    ],
    ids=[
        "contract-open-path", "contract-basepoint-off-space", "contract-resolution-zero",
        "contract-cap-zero", "contract-simply-connected-cap-2", "homology-budget-not-integer",
        "homology-n-zero", "homology-negative-landmarks",
        "verify-certificate-list", "verify-certificate-string-gap", "verify-certificate-string-drift",
        "verify-certificate-string-cardinality", "verify-certificate-list-cardinality",
        "verify-certificate-boolean-gap", "verify-certificate-boolean-ds", "verify-certificate-string-declared-cap",
        "verify-certificate-string-constancy", "verify-certificate-list-constancy", "verify-certificate-number-source",
        "verify-certificate-boolean-target", "verify-certificate-string-bound", "verify-certificate-string-passed",
        "verify-certificate-number-passed",
        "convert-stride-zero", "convert-homotopy-stride-zero", "convert-homotopy-stride-negative",
        "homology-max-scale-nan", "homology-circumference-inf",
        "contract-circle-infinite", "contract-interval-infinite", "contract-graph-infinite-edge",
        "contract-half-turn-step", "contract-out-missing-dir", "contract-bound-nan",
        "verify-bound-nan", "verify-bound-negative", "convert-not-an-object",
        "contract-basepoint-nan", "contract-basepoint-inf", "contract-basepoint-minus-inf",
        "contract-graph-basepoint-nan", "contract-graph-basepoint-inf",
    ],
)
def test_parameter_errors_exit_two(tmp_path, make_args, env):
    import os
    res = subprocess.run(
        [sys.executable, "-m", "ranspace.cli", *map(str, make_args(tmp_path))],
        capture_output=True, text=True, env=dict(os.environ, **env),
    )
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    assert res.stdout == ""



THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def _constant_doc(space, point):
    """A 3x5 homotopy document constant at one point: it passes verify."""
    times = uniform_times(4)
    row = make_track(space, times, [[point]] * len(times), cap=2, kind="loop").configs
    return homotopy_to_json(Homotopy.of_cells(space, (0.0, 0.5, 1.0), times, (row,) * 3, 2))


def _set_cell(value, space=C1, point=0.25):
    def doc():
        d = _constant_doc(space, point)
        d["cells"][1][2] = value
        return d
    return doc


def _ragged_row():
    d = _constant_doc(C1, 0.25)
    d["cells"][1] = d["cells"][1][:-1]
    return d


def _flat_s_grid():
    d = _constant_doc(C1, 0.25)
    d["s_grid"] = [0.0, 0.5, 0.5]
    return d


def _changed(change):
    def doc():
        d = _constant_doc(C1, 0.25)
        change(d)
        return d
    return doc


MALFORMED = {
    "non-numeric-point": _set_cell(["x"]),
    "list-as-circle-point": _set_cell([[0.25]]),
    "empty-cell": _set_cell([]),
    "unsorted-cell": _set_cell([0.5, 0.25]),
    "duplicate-point": _set_cell([0.25, 0.25]),
    "ragged-row": _ragged_row,
    "non-increasing-s-grid": _flat_s_grid,
    "interval-point-out-of-range": _set_cell([1.5], Interval(1.0), 0.25),
    "graph-edge-out-of-range": _set_cell([{"edge": 7, "t": 0.5}], THETA, GraphPoint(0, 0.5)),
    "graph-t-outside-unit": _set_cell([{"edge": 0, "t": 1.5}], THETA, GraphPoint(0, 0.5)),
    "string-cap": _changed(lambda d: d.update(cap="2")),
    "boolean-cap": _changed(lambda d: d.update(cap=True)),
    "fractional-cap": _changed(lambda d: d.update(cap=2.5)),
    "string-circumference": _changed(lambda d: d["space"].update(circumference="1.0")),
    "boolean-circumference": _changed(lambda d: d["space"].update(circumference=True)),
}


@pytest.mark.parametrize("command", ["verify", "convert"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_are_schema_errors(tmp_path, command, case):
    path = _write_doc(tmp_path / "bad.json", MALFORMED[case]())
    extra = [tmp_path / "frames"] if command == "convert" else []
    res = run_cli(command, path, *extra)
    assert res.returncode == 2, res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schema error: "), res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["verify", "convert", "contract"])
@pytest.mark.parametrize("case", ["truncated", "array"])
def test_documents_that_are_not_json_objects_are_schema_errors(tmp_path, command, case):
    if command == "contract":
        write_generator_track(tmp_path / "doc.json", m=16)
        extra = ["--cap", 1, "--out", tmp_path / "h.json"]
    else:
        _write_doc(tmp_path / "doc.json", _constant_doc(C1, 0.25))
        extra = [tmp_path / "frames"] if command == "convert" else []
    text = (tmp_path / "doc.json").read_text()
    path = tmp_path / "bad.json"
    path.write_text(text[:len(text) // 2] if case == "truncated" else f"[{text}]")
    res = run_cli(command, path, *extra)
    assert res.returncode == 2, res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schema error: "), res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_in_process_commands_leave_the_collector_as_they_found_it(tmp_path, enabled):
    import gc

    from ranspace import cli

    src, out, bad = tmp_path / "loop.json", tmp_path / "h.json", tmp_path / "bad.json"
    write_generator_track(src, m=16)
    bad.write_text('{"space": {"kind": "circle", ')
    prior = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for args, code in (
            (["contract", src, "--cap", 1, "--out", out, "--resolution", 8, 16], 0),
            (["verify", out], 0),
            (["convert", out, tmp_path / "frames"], 0),
            (["verify", bad], 2),
            (["contract", bad, "--cap", 1, "--out", out], 2),
        ):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exit_info:
                cli.main(list(map(str, args)), standalone_mode=False)
                sys.exit(0)
            assert exit_info.value.code == code, args
            assert gc.isenabled() is enabled, args
    finally:
        (gc.enable if prior else gc.disable)()


@pytest.mark.parametrize("space, point, written", [
    (C1, 0.25, 1.25),
    (C1, 0.0, 0.9999999999999999),
    (Interval(1.0), 1.0, 1.0 + 1e-13),
    (THETA, GraphPoint(0, 0.0), {"edge": 0, "t": 1e-13}),
])
def test_valid_non_canonical_points_are_canonicalized(tmp_path, space, point, written):
    doc = _constant_doc(space, point)
    expected = doc["cells"][1][2]
    doc["cells"][1][2] = [written]
    path = _write_doc(tmp_path / "noncanon.json", doc)
    res = run_cli("verify", path)
    assert res.returncode == 0, res.stderr
    with open(path) as fp:
        h, _ = homotopy_from_json(load(fp))
    assert homotopy_to_json(h)["cells"][1][2] == expected


def _all_cells(value):
    def doc():
        d = _constant_doc(C1, 0.25)
        d["cells"] = [[value] * 5 for _ in range(4)]
        d["s_grid"] = uniform_times(3).tolist()
        return d
    return doc


def _grid_value(key, index, value):
    def doc():
        d = _constant_doc(C1, 0.25)
        d[key][index] = value
        return d
    return doc


def _track_value(key, value):
    def doc():
        times = uniform_times(4)
        d = track_to_json(make_track(C1, times, [[0.25]] * len(times), cap=1, kind="loop"))
        d[key][2] = value
        return d
    return doc


NON_FINITE = {
    "cells-nan": _all_cells([math.nan]),
    "cells-infinity": _all_cells([math.inf]),
    "cell-minus-infinity": _set_cell([-math.inf]),
    "graph-t-nan": _set_cell([{"edge": 0, "t": math.nan}], THETA, GraphPoint(0, 0.5)),
    "s-grid-nan": _grid_value("s_grid", 1, math.nan),
    "t-grid-0-nan": _grid_value("t_grid", 0, math.nan),
    "track-point-nan": _track_value("configs", [math.nan]),
    "track-time-nan": _track_value("times", math.nan),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_values_are_schema_errors(tmp_path, case):
    doc = NON_FINITE[case]()
    path = _write_doc(tmp_path / "nonfinite.json", doc)
    commands = [["convert", path, tmp_path / "frames"]]
    if "cells" in doc:
        commands.append(["verify", path])
    for args in commands:
        res = run_cli(*args)
        assert res.returncode == 2, (args[0], res.stdout, res.stderr)
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("schema error: "), res.stderr


@pytest.fixture(scope="module")
def contracted(tmp_path_factory):
    """A 16x32 contract output of the one-turn loop, made once."""
    tmp = tmp_path_factory.mktemp("contracted")
    write_generator_track(tmp / "loop.json")
    res = run_cli("contract", tmp / "loop.json", "--cap", 1, "--out", tmp / "h.json", "--resolution", 16, 32)
    assert res.returncode == 0, res.stderr
    assert run_cli("verify", tmp / "h.json").returncode == 0
    return tmp / "h.json"


# one mutation of a contract output's certificate per case: (field, change, the first FAIL line it names)
CERTIFICATE_MUTATIONS = [
    ("ds", lambda c: c.update(ds=2 * c["ds"]), "FAIL: stored certificate ds does not match cells"),
    ("dt", lambda c: c.update(dt=c["dt"] / 2), "FAIL: stored certificate dt does not match cells"),
    ("lipschitz", lambda c: c.update(lipschitz=c["lipschitz"] + 1.0), "FAIL: stored certificate lipschitz does not match cells"),
    ("endpoint_drift", lambda c: c.update(endpoint_drift=c["endpoint_drift"] + 1e-6),
     "FAIL: stored certificate endpoint_drift does not match cells"),
    ("stage-rows", lambda c: c["stages"][1].__setitem__(1, c["stages"][1][1] + 1),
     "FAIL: stored certificate stages[1] (staircase) row range does not match cells"),
    ("stage-cardinality", lambda c: c["stages"][0].__setitem__(3, c["stages"][0][3] + 1),
     "FAIL: stored certificate stages[0] (normalize) max cardinality does not match cells"),
    ("stages-short", lambda c: c["stages"].pop(), "FAIL: stored certificate stages row range does not match cells"),
    ("max_gap-nan", lambda c: c.update(max_gap=math.nan), "FAIL: stored certificate gap does not match cells"),
    ("ds-nan", lambda c: c.update(ds=math.nan), "FAIL: stored certificate ds does not match cells"),
    ("dt-nan", lambda c: c.update(dt=math.nan), "FAIL: stored certificate dt does not match cells"),
    ("lipschitz-nan", lambda c: c.update(lipschitz=math.nan), "FAIL: stored certificate lipschitz does not match cells"),
    ("endpoint_drift-nan", lambda c: c.update(endpoint_drift=math.nan),
     "FAIL: stored certificate endpoint_drift does not match cells"),
    ("declared_cap", lambda c: c.update(declared_cap=1), "FAIL: stored certificate declared_cap does not match cap"),
    ("max_cardinality-null", lambda c: c.update(max_cardinality=None), "FAIL: stored certificate has no max_cardinality"),
    ("max_cardinality-absent", lambda c: c.pop("max_cardinality"), "FAIL: stored certificate has no max_cardinality"),
    ("max_gap", lambda c: c.update(max_gap=c["max_gap"] + 1e-6), "FAIL: stored certificate gap does not match cells"),
    ("max_cardinality", lambda c: c.update(max_cardinality=c["max_cardinality"] + 1),
     "FAIL: stored certificate cardinality does not match cells"),
]


def test_every_numeric_certificate_field_has_a_mutation_case():
    """verify recomputes every number of the certificate but
    target_constancy, which needs the basepoint the document does not
    store: a numeric field added to ContractionCertificate needs a case."""
    numeric = {f.name for f in dataclasses.fields(ContractionCertificate) if f.type.removesuffix(" | None") in ("int", "float")}
    assert "target_constancy" in numeric
    assert numeric - {"target_constancy"} <= {field for field, _, _ in CERTIFICATE_MUTATIONS}


@pytest.mark.parametrize("field, change, named", CERTIFICATE_MUTATIONS)
def test_verify_checks_every_recomputable_certificate_field(tmp_path, contracted, field, change, named):
    doc = json.loads(contracted.read_text())
    change(doc["certificate"])
    res = run_cli("verify", _write_doc(tmp_path / f"{field}.json", doc))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(named), res.stderr
    assert res.stdout.splitlines()[-1] == "FAIL"


def test_verify_passes_a_one_row_stage(tmp_path, contracted):
    """A stage may span a single row (first == last) when it chains: the
    first stage split at its first row, with that row's cardinality,
    still reads PASS."""
    doc = json.loads(contracted.read_text())
    stages = doc["certificate"]["stages"]
    name, first, last, _ = stages[0]
    assert first == 0 < last
    stages.insert(0, [name, 0, 0, max(map(len, doc["cells"][0]))])
    res = run_cli("verify", _write_doc(tmp_path / "one-row-stage.json", doc))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "PASS"


def test_verify_passes_a_last_row_exactly_loop_tol_wide(tmp_path):
    """On the unit circle the cells [0.0] and [1e-9] are exactly LOOP_TOL
    apart: a last row of them is one constant point, and a closed loop,
    within the tolerance."""
    doc = _constant_doc(C1, 0.0)
    doc["cells"][-1] = [[0.0]] + [[1e-9]] * (len(doc["cells"][-1]) - 1)
    assert C1.distance(0.0, 1e-9) == LOOP_TOL
    res = run_cli("verify", _write_doc(tmp_path / "last-row.json", doc))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "PASS"


def test_contract_refuses_a_track_with_a_repeated_time(tmp_path):
    """A repeated grid time is no step: the track document is refused with
    exit 2 before any contraction."""
    times = uniform_times(3)
    doc = track_to_json(make_track(C1, times, [[C1.canon(0.1 + t)] for t in times], cap=1, kind="loop"))
    doc["times"] = [0.0, 0.5, 0.5, 1.0]
    res = run_cli("contract", _write_doc(tmp_path / "repeated.json", doc), "--cap", 1, "--out", tmp_path / "h.json")
    assert res.returncode == 2, res.stderr
    assert res.stderr == "schema error: time grid must be strictly increasing\n"
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda c: None, None),
        (lambda c: c.update(bound=None, passed=None), None),
        (lambda c: c.update(passed=False), "FAIL: stored certificate passed does not match the cells' gap at its bound 4.0"),
        (lambda c: c.update(bound=0.5), "FAIL: stored certificate passed does not match the cells' gap at its bound 0.5"),
        (lambda c: c.pop("bound"), "FAIL: stored certificate passed has no bound"),
        (lambda c: c.update(bound=None), "FAIL: stored certificate passed has no bound"),
    ],
    ids=["as-written", "no-verdict", "passed-flipped", "bound-lowered", "bound-absent", "bound-null"],
)
def test_verify_checks_a_continuity_report_verdict(tmp_path, change, named):
    """A check_continuity report stored as the certificate (as certify-512
    writes it) passes verify as written; its passed must be the recomputed
    gap's verdict at its stored bound, and a passed needs a bound."""
    h = contract_circle_generator(1, (16, 32))
    report = check_continuity(h, 4.0)
    assert report.passed and not check_continuity(h, 0.5).passed
    doc = homotopy_to_json(h, report.as_dict())
    change(doc["certificate"])
    res = run_cli("verify", _write_doc(tmp_path / "report.json", doc))
    assert res.returncode == (0 if named is None else 1), res.stderr
    assert res.stderr == ("" if named is None else named + "\n")
    assert res.stdout.splitlines()[-1] == ("PASS" if named is None else "FAIL")


@pytest.mark.parametrize("scale, code", [(1.0, 0), (1.0 + 1e-13, 0), (16000.0, 1), (1.0 + 1e-9, 1)],
                         ids=["unit", "within-1e-12", "stretched", "off-by-1e-9"])
def test_verify_fails_an_s_grid_that_does_not_run_from_0_to_1(tmp_path, contracted, scale, code):
    """A stretched s grid stretches ds, and with it the continuity limit:
    at [0, 1000, ...] the 16x32 output reads PASS at --bound 0.001 unless
    the grid itself is checked, within the 1e-12 of the time grid."""
    doc = json.loads(contracted.read_text())
    del doc["certificate"]
    doc["s_grid"] = [s * scale for s in doc["s_grid"]]
    assert scale < 2 or doc["s_grid"][1] == 1000.0
    res = run_cli("verify", _write_doc(tmp_path / "stretched.json", doc), "--bound", 0.001 if scale > 2 else 32)
    assert res.returncode == code, res.stderr
    assert res.stderr == ("" if code == 0 else f"FAIL: deformation grid runs from 0.0 to {doc['s_grid'][-1]!r}, not from 0 to 1\n")
    assert res.stdout.splitlines()[-1] == ("PASS" if code == 0 else "FAIL")


@pytest.mark.parametrize("offset, code", [(0.0, 0), (1e-7, 1)])
def test_verify_compares_a_large_stored_gap_to_1e_9(tmp_path, offset, code):
    # one cell of row 0 sits 1000 away from its neighbours, so max gap is 1000
    doc = _constant_doc(Circle(4000.0), 0.0)
    doc["cells"][0][2] = [1000.0]
    doc["certificate"] = {"max_cardinality": 1, "max_gap": 1000.0 + offset}
    res = run_cli("verify", _write_doc(tmp_path / "gap.json", doc))
    assert res.returncode == code, res.stderr
    assert res.stdout.splitlines() == ["cells 3x5; max cardinality 1 (cap 2); max gap 1000", "PASS" if code == 0 else "FAIL"]
    # the first pair at the recomputed gap of 1000: row 0's columns 1 and 2
    assert res.stderr == ("" if code == 0 else "FAIL: stored certificate gap does not match cells "
                          "(first pair at its recomputed value: row 0, column 1 across to column 2)\n")


def test_verify_names_the_first_cell_at_the_recomputed_cardinality(tmp_path):
    """A stored max_cardinality that the cells do not bear out is reported
    with the first cell, in row-major order, at the recomputed maximum."""
    doc = _constant_doc(C1, 0.25)
    doc["cells"][1][1] = doc["cells"][0][3] = [0.25, 0.5]
    doc["certificate"] = {"max_cardinality": 1}
    res = run_cli("verify", _write_doc(tmp_path / "card.json", doc))
    assert res.returncode == 1, res.stderr
    assert res.stdout.splitlines() == ["cells 3x5; max cardinality 2 (cap 2); max gap 0.25", "FAIL"]
    assert res.stderr == ("FAIL: stored certificate cardinality does not match cells "
                          "(first cell at its recomputed value: row 0, column 3)\n")


def test_verify_rejects_malformed_certificate_stages(tmp_path):
    doc = _constant_doc(C1, 0.25)
    doc["certificate"] = {"max_cardinality": 1, "stages": [["normalize", 0, "2", 1]]}
    res = run_cli("verify", _write_doc(tmp_path / "stages.json", doc))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("schema error: certificate stages")
    assert res.stdout == ""


@pytest.mark.parametrize("key", ["pi1_trivial", "Max_gap"])
@pytest.mark.parametrize("command", ["verify", "convert"])
def test_a_certificate_key_no_certificate_names_is_a_schema_error(tmp_path, contracted, command, key):
    """A key that neither ContractionCertificate nor ContinuityReport names
    exits 2, whatever its value: a contract output with "pi1_trivial":
    "yes" added to its certificate does not read PASS."""
    doc = json.loads(contracted.read_text())
    doc["certificate"][key] = "yes"
    res = run_cli(command, _write_doc(tmp_path / "extra.json", doc), *([tmp_path / "frames"] if command == "convert" else []))
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"schema error: certificate key {key!r} is no certificate field\n"
    assert res.stdout == ""


def test_in_process_commands_keep_no_redirected_stream(tmp_path):
    # click.echo without a file caches every sys.stdout and sys.stderr it
    # meets for the life of the process, stream and text included
    from contextlib import redirect_stderr, redirect_stdout
    import gc
    import weakref

    from ranspace import cli

    src, out, bad = tmp_path / "loop.json", tmp_path / "h.json", tmp_path / "bad.json"
    write_generator_track(src)
    bad.write_text("not json")
    streams = []
    for args, code in (
        (["contract", src, "--cap", 1, "--out", out, "--resolution", 24, 64], 0),
        (["verify", out, "--bound", 16.0], 0),
        (["verify", bad, "--bound", 16.0], 2),
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), pytest.raises(SystemExit) as exit_info:
            cli.main(list(map(str, args)), standalone_mode=False)
            sys.exit(0)
        assert exit_info.value.code == code
        assert (stderr if code else stdout).getvalue()
        streams += [weakref.ref(stdout), weakref.ref(stderr)]
        del stdout, stderr
    gc.collect()
    assert [ref() for ref in streams] == [None] * len(streams)


def test_no_command_builds_a_configuration(tmp_path, monkeypatch):
    """contract (with and without --svg), verify, convert of a track and of
    a homotopy, on the circle and the theta graph, and homology build no
    Configuration: they read and draw the cell grid."""
    from click.testing import CliRunner

    from ranspace.cli import main
    from ranspace.ran import Configuration

    times = uniform_times(32)
    b = THETA.vertex_point(0)
    out_and_back = tuple(THETA.canon((0, 2 * t)) if t <= 0.5 else THETA.canon((1, 2 * (1 - t))) for t in times)
    write_generator_track(tmp_path / "circle.json", m=32)
    _write_doc(tmp_path / "theta.json", track_to_json(project(StrandBundle(THETA, times, (out_and_back, (b,) * len(times), out_and_back[::-1])))))
    built = []
    post_init = Configuration.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Configuration, "__post_init__", counted)
    commands = {"homology": ["homology", "--n", 2, "--m", 60, "--max-scale", 0.3]}
    for name, extra in (("circle", ["--cap", 1]), ("theta", ["--cap", 4, "--basepoint", "0:0.0"])):
        src, h = tmp_path / f"{name}.json", tmp_path / f"{name}-h.json"
        contract = ["contract", src, *extra, "--resolution", 8, 32, "--out", h]
        commands[f"contract {name}"] = contract
        commands[f"contract --svg {name}"] = [*contract, "--svg", tmp_path / f"{name}-contract-frames"]
        commands[f"verify {name}"] = ["verify", h]
        commands[f"convert {name} track"] = ["convert", src, tmp_path / f"{name}-track-frames", "--stride", 3]
        commands[f"convert {name} homotopy"] = ["convert", h, tmp_path / f"{name}-homotopy-frames"]
    counts = {}
    for name, args in commands.items():
        res = CliRunner().invoke(main, list(map(str, args)))
        assert res.exit_code == 0, (name, res.output)
        counts[name], built[:] = len(built), []
    assert counts == dict.fromkeys(commands, 0)
