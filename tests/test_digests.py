"""Byte pins: SHA-256 digests of outputs no other test checks byte for byte.

The digests were recorded from the package before its duplicated frame
writers and homotopy block builders were merged; a change that moves any
output byte fails here.  Covered: SVG frames from ``convert`` (circle
track with a basepoint, interval track, graph track, graph homotopy,
interval homotopy) and from ``contract --svg`` (circle homotopy), and the
``contract_pipeline`` document for bundles that are not based at the
contraction target, which is the only route through bundle normalization.
The graph track, interval homotopy and circle homotopy frames were
recorded while frames were still drawn from ``Configuration`` objects.
"""

import hashlib
import io
import json
import math
from pathlib import Path

from click.testing import CliRunner

from oracles import pushforward_contraction
from ranspace.cli import main
from ranspace.io import dump, homotopy_to_json, track_to_json
from ranspace.moves import Inclusion, SimplyConnected, contract_pipeline
from ranspace.space import Circle, Interval, MetricGraph
from ranspace.tracks import StrandBundle, make_track, project, uniform_times

C1 = Circle(1.0)
THETA = MetricGraph(2, ((0, 1, 1.0), (0, 1, 1.2), (0, 1, 0.8)))


def frames_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(directory.glob("frame_*.svg")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def document_digest(doc: dict) -> str:
    buf = io.StringIO()
    dump(doc, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def convert(tmp_path: Path, doc: dict, *args) -> Path:
    src = tmp_path / "doc.json"
    with open(src, "w") as fp:
        dump(doc, fp)
    out = tmp_path / "frames"
    res = CliRunner().invoke(main, ["convert", str(src), str(out), *args])
    assert res.exit_code == 0, res.output
    return out


def contract_frames(tmp_path: Path, track, *args) -> Path:
    src = tmp_path / "track.json"
    with open(src, "w") as fp:
        dump(track_to_json(track), fp)
    out = tmp_path / "frames"
    res = CliRunner().invoke(main, ["contract", str(src), "--out", str(tmp_path / "h.json"), "--svg", str(out), *args])
    assert res.exit_code == 0, res.output
    return out


def theta_excursion(edge_out: int, edge_back: int, m: int) -> tuple:
    """Closed walk from vertex 0 out along one edge and back along another."""
    pts = []
    for t in uniform_times(m):
        if t <= 0.5:
            pts.append(THETA.canon((edge_out, 2 * t)))
        else:
            pts.append(THETA.canon((edge_back, 2 * (1 - t))))
    return tuple(pts)


def test_svg_circle_track_with_basepoint(tmp_path):
    times = uniform_times(24)
    pts = [[C1.canon(0.1 + t), C1.canon(0.6 - 0.5 * t)] for t in times]
    track = make_track(C1, times, pts, cap=2, kind="path")
    out = convert(tmp_path, track_to_json(track), "--basepoint", "0.25")
    assert len(list(out.glob("frame_*.svg"))) == 25
    assert frames_digest(out) == (
        "42cb59da8affa1217409d0391a43e40a02aa2014156f70843fe05bdf18dd53f2"
    )


def test_svg_interval_track(tmp_path):
    space = Interval(2.0)
    times = uniform_times(12)
    pts = [[0.2 + 1.5 * t, 1.8 - t] for t in times]
    track = make_track(space, times, pts, cap=2, kind="path")
    out = convert(tmp_path, track_to_json(track), "--stride", "2")
    assert len(list(out.glob("frame_*.svg"))) == 7
    assert frames_digest(out) == (
        "16f96c58c4c6530c9426e2201550ac855eb9abeda4273c9a5fe489aaa5142da1"
    )


def test_svg_graph_homotopy(tmp_path):
    h = pushforward_contraction(THETA, theta_excursion(1, 2, 32), resolution=(6, 16))
    out = convert(tmp_path, homotopy_to_json(h), "--basepoint", "0:0.0")
    assert len(list(out.glob("frame_*.svg"))) == h.rows
    assert frames_digest(out) == (
        "3fcc6462035e1c77f25742b94d95959738f759a236d307cf45cb0cc6f4ff78ab"
    )


def test_svg_graph_track(tmp_path):
    times = uniform_times(30)
    b = THETA.vertex_point(0)
    out_and_back = theta_excursion(0, 1, 30)
    track = project(StrandBundle(THETA, times, (out_and_back, tuple(b for _ in times), theta_excursion(2, 1, 30)[::-1])))
    out = convert(tmp_path, track_to_json(track), "--stride", "3")
    assert len(list(out.glob("frame_*.svg"))) == 11
    assert frames_digest(out) == (
        "3955e51c23f5505ba35bd9b80bd418d06614ed086c9323c0f14c63cbbef574e4"
    )


def test_svg_interval_homotopy(tmp_path):
    space = Interval(2.0)
    times = uniform_times(24)
    bump = [1 - abs(1 - 2 * t) for t in times]
    track = make_track(space, times, [[0.5 + 0.6 * u, 1.5 - 0.4 * u] for u in bump], cap=2, kind="loop")
    h, cert = contract_pipeline(track, Inclusion(4), 0.5, resolution=(8, 24))
    out = convert(tmp_path, homotopy_to_json(h, cert.as_dict()), "--basepoint", "0.5")
    assert len(list(out.glob("frame_*.svg"))) == h.rows
    assert frames_digest(out) == (
        "cf518a0ee619ade975e1559e7f1e8e8fe5574f04a4b34557a3425863d35cbd7e"
    )


def test_svg_circle_homotopy_from_contract(tmp_path):
    times = uniform_times(32)
    track = make_track(C1, times, [[C1.canon(0.1 + t)] for t in times], cap=1, kind="loop")
    out = contract_frames(tmp_path, track, "--cap", "1", "--basepoint", "0.1", "--resolution", "8", "32")
    with open(tmp_path / "h.json") as fp:
        rows = len(json.load(fp)["s_grid"])
    assert len(list(out.glob("frame_*.svg"))) == rows
    assert frames_digest(out) == (
        "49e1fbe1c9f04185e99c0e8fb9938de0452759ed297b64ceb93a2a08089298ec"
    )


def test_unbased_circle_bundle_document():
    times = uniform_times(64)
    strands = (
        tuple(C1.canon(0.3 + t) for t in times),
        tuple(C1.canon(0.3 + 0.1 * math.sin(2 * math.pi * t)) for t in times),
    )
    bundle = StrandBundle(C1, times, strands)
    assert not bundle.based_at(0.0)
    h, cert = contract_pipeline(bundle, Inclusion(2), 0.0, resolution=(24, 64))
    assert cert.max_cardinality <= cert.declared_cap
    assert cert.target_constancy <= 1e-9
    assert document_digest(homotopy_to_json(h, cert.as_dict())) == (
        "ad49357f5d57a3f29e7763634c47135f0d144d6713a3273eada444345ade047a"
    )


def test_theta_bundle_rebased_document():
    m = 48
    strands = (theta_excursion(0, 1, m), theta_excursion(2, 2, m), theta_excursion(1, 0, m))
    bundle = StrandBundle(THETA, uniform_times(m), strands)
    b = THETA.vertex_point(1)
    assert not bundle.based_at(b)
    h, cert = contract_pipeline(bundle, SimplyConnected(5), b, resolution=(24, 48))
    assert cert.max_cardinality <= cert.declared_cap
    assert cert.target_constancy <= 1e-9
    assert document_digest(homotopy_to_json(h, cert.as_dict())) == (
        "44195677fcf1eba1d763d1a6b360b43edec7973668bbfc49e4767f01b1b16c6e"
    )
