"""Command line surface: contract loops, verify homotopy certificates,
run the homology probe, and render JSON documents to SVG frames.

Commands parse, call and report; EXIT_CODES alone turns an error into an
exit code.  Exit codes: 0 success, 1 verification failure, 2 schema,
input or size error (a simplex budget exceeded, or a MemoryError),
3 ambiguous branching, 4 mode cap violation.
"""

from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from .errors import AmbiguousBranching, ModeViolation, RanspaceError, SchemaError, SizeLimit
# maxmin_subsample and sample_ran are unused here, but perfbench/tracer.py rebinds them here
from .homology import (
    DEFAULT_SIMPLEX_BUDGET,
    cloud_from_configs,
    landmark_cloud,
    long_lived_h1_count,
    maxmin_subsample,
    rips_persistence_h1,
    sample_configs,
    sample_ran,
)
# dump and homotopy_to_json are unused here, but perfbench/tracer.py rebinds them here
from .io import (
    certificate_from_json,
    dump,
    grid_from_json,
    homotopy_from_json,
    homotopy_to_json,
    load,
    track_from_json,
    write_homotopy,
)
from .moves import Inclusion, SimplyConnected, contract_pipeline
from .ran import batch_hausdorff
from .space import Circle, GraphPoint, MetricGraph
from .svg import render_homotopy, render_track
from .tracks import LOOP_TOL, Homotopy, check_continuity, endpoint_drift, first_gap_over, within_bound

# (exception types, exit code, stderr label): the first row that matches decides
EXIT_CODES = (
    (AmbiguousBranching, 3, "ambiguous branching"),
    (ModeViolation, 4, "mode violation"),
    (SchemaError, 2, "schema error"),
    ((SizeLimit, MemoryError), 2, "size limit"),
    ((RanspaceError, ValueError, OSError), 2, "input error"),
)


def _echo(message: str, err: bool = False) -> None:
    # click.echo with no file caches each sys.stdout or sys.stderr it meets
    # with the stream itself as the value, so it never frees a redirected one
    click.echo(message, file=sys.stderr if err else sys.stdout)


class _Commands(click.Group):
    """Command group that exits by EXIT_CODES on any error a command raises."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Exception as exc:
            for types, code, label in EXIT_CODES:
                if isinstance(exc, types):
                    _echo(f"{label}: {exc}", err=True)
                    sys.exit(code)
            raise


def _check_bound(bound: float) -> None:
    """ValueError unless bound is a continuity modulus (NaN or negative is not)."""
    if not bound >= 0:
        raise ValueError(f"bound must be a non-negative number, got {bound}")


def _parse_basepoint(space, text: str):
    """The point that text names on space; ValueError or InvalidPoint if none."""
    graph = isinstance(space, MetricGraph)
    try:
        if graph:
            edge, t = text.split(":")
            edge, x = int(edge), float(t)
        else:
            x = float(text)
    except ValueError as exc:
        raise ValueError("graph basepoint must look like EDGE:T" if graph else "basepoint must be a coordinate") from exc
    if not math.isfinite(x):
        raise ValueError("basepoint must be finite")
    return space.canon(GraphPoint(edge, x) if graph else x)


@click.group(cls=_Commands)
def main():
    """Loop contraction and homology tooling for configuration spaces.

    Exit codes: 0 success; 1 verification or continuity-bound failure;
    2 schema, parameter, file or size-budget error, or out of memory;
    3 ambiguous branching (no strand decomposition at the matching
    radius); 4 cardinality cap violation.
    """


@main.command("contract")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["inclusion", "simply-connected"]), default="inclusion", show_default=True)
@click.option("--cap", type=int, required=True, help="Strand cap n of the mode.")
@click.option("--basepoint", default="0.0", show_default=True, help="Contraction target; EDGE:T on graphs.")
@click.option("--resolution", nargs=2, type=int, default=(48, 128), show_default=True, metavar="R M")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--svg", "svg_dir", type=click.Path(file_okay=False), default=None, help="Also write one SVG frame per homotopy row.")
@click.option("--bound", type=float, default=math.inf, help="Continuity modulus the certificate must pass (default: report only).")
@click.option("--matching-radius", type=float, default=None, help="Strand matching radius override.")
def cmd_contract(input_path, mode, cap, basepoint, resolution, out, svg_dir, bound, matching_radius):
    """Contract the loop in INPUT_PATH to its basepoint and write the
    homotopy with its certificate."""
    _check_bound(bound)
    with open(input_path) as fp:
        track = track_from_json(load(fp))
    pipeline_mode = Inclusion(cap) if mode == "inclusion" else SimplyConnected(cap)
    b = _parse_basepoint(track.space, basepoint)
    homotopy, cert = contract_pipeline(
        track, pipeline_mode, b, resolution=tuple(resolution), matching_radius=matching_radius
    )
    with open(out, "w") as fp:
        write_homotopy(homotopy, cert.as_dict(), fp)
    if svg_dir is not None:
        render_homotopy(homotopy, svg_dir, basepoint=b)
    _echo(
        f"max cardinality {cert.max_cardinality} (cap {cert.declared_cap}); "
        f"max gap {cert.max_gap:.6g}; lipschitz {cert.lipschitz:.6g}; "
        f"target constancy {cert.target_constancy:.3g}"
    )
    if not within_bound(cert.max_gap, cert.ds, cert.dt, bound):
        _echo(f"continuity bound {bound} failed: max gap {cert.max_gap:.6g}", err=True)
        sys.exit(1)


def _stage_mismatch(stages: list, h: Homotopy) -> str | None:
    """The first stage whose row range or max cardinality the cells do not
    bear out; stages must chain, each starting on the row the last ended
    on, from row 0 to the last row."""
    row, rows = 0, h.rows
    for i, (name, first, last, card) in enumerate(stages):
        if first != row or not first <= last < rows:
            return f"stages[{i}] ({name}) row range"
        if card != h.max_cardinality(first, last):
            return f"stages[{i}] ({name}) max cardinality"
        row = last
    if row != rows - 1:
        return "stages row range"
    return None


def _pair(row: int, col: int, way: str) -> str:
    """The pair of cells first_gap_over names, in words."""
    return f"row {row}, column {col} {way} to " + (f"column {col + 1}" if way == "across" else f"row {row + 1}")


@main.command("verify")
@click.argument("homotopy_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", type=float, default=math.inf, help="Continuity modulus to enforce.")
def cmd_verify(homotopy_path, bound):
    """Recompute a homotopy certificate from its cells and check it; every
    row must be a closed loop and the last row one constant point."""
    _check_bound(bound)
    with open(homotopy_path) as fp:
        doc = load(fp)
    if "cells" not in doc:
        raise SchemaError("not a homotopy document: no cells")
    h = grid_from_json(doc)
    stored = certificate_from_json(doc)
    del doc  # the parsed lists outweigh the cell arrays: free them before the kernels run
    report = check_continuity(h, bound)
    ok = True
    rows, cols = h.counts.shape
    _echo(
        f"cells {rows}x{cols}; max cardinality "
        f"{report.max_cardinality} (cap {h.cap}); max gap {report.max_gap:.6g}"
    )
    if report.max_cardinality > h.cap:
        row, col = np.argwhere(h.counts > h.cap)[0]
        _echo(f"FAIL: cardinality exceeds declared cap (first cell over it: row {row}, column {col})", err=True)
        ok = False
    if not report.passed:
        _echo(f"FAIL: max gap {report.max_gap:.6g} exceeds bound * grid step "
              f"(first pair over it: {_pair(*first_gap_over(h, bound * max(report.ds, report.dt)))})", err=True)
        ok = False
    last = h.enc[-1]
    stray = np.flatnonzero((h.counts[-1] != 1) | (batch_hausdorff(h.space, last, last[:1, :1]) > LOOP_TOL))
    if len(stray):
        _echo(f"FAIL: last row is not one constant point (first stray cell at column {stray[0]})", err=True)
        ok = False
    open_rows = np.flatnonzero(batch_hausdorff(h.space, h.enc[:, 0], h.enc[:, -1]) > LOOP_TOL)
    if len(open_rows):
        _echo(f"FAIL: row {open_rows[0]} is not a closed loop (its first and last cells differ)", err=True)
        ok = False
    if stored is not None:
        if stored.get("max_cardinality") is None:
            _echo("FAIL: stored certificate has no max_cardinality", err=True)
            ok = False
        elif stored["max_cardinality"] != report.max_cardinality:
            row, col = np.argwhere(h.counts == report.max_cardinality)[0]
            _echo(f"FAIL: stored certificate cardinality does not match cells "
                  f"(first cell at its recomputed value: row {row}, column {col})", err=True)
            ok = False
        if stored.get("declared_cap") not in (None, h.cap):
            _echo("FAIL: stored certificate declared_cap does not match cap", err=True)
            ok = False
        for key, label, recomputed in (
            ("max_gap", "gap", report.max_gap), ("ds", "ds", report.ds), ("dt", "dt", report.dt),
            ("lipschitz", "lipschitz", report.lipschitz), ("endpoint_drift", "endpoint_drift", endpoint_drift(h)),
        ):
            value = stored.get(key)
            # not <= rather than >, so that a NaN value fails
            if value is not None and not abs(value - recomputed) <= 1e-9:
                where = (f" (first pair at its recomputed value: {_pair(*first_gap_over(h, np.nextafter(recomputed, -np.inf)))})"
                         if key == "max_gap" else "")
                _echo(f"FAIL: stored certificate {label} does not match cells{where}", err=True)
                ok = False
        mismatch = None if stored.get("stages") is None else _stage_mismatch(stored["stages"], h)
        if mismatch is not None:
            _echo(f"FAIL: stored certificate {mismatch} does not match cells", err=True)
            ok = False
    _echo("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


@main.command("homology")
@click.option("--circumference", type=float, default=1.0, show_default=True)
@click.option("--n", type=int, required=True, help="Configuration size cap.")
@click.option("--m", type=int, required=True, help="Number of sampled configurations.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-scale", type=float, required=True)
@click.option("--landmarks", type=int, default=48, show_default=True, help="Farthest-point subsample size (0 = use the full cloud).")
def cmd_homology(circumference, n, m, seed, max_scale, landmarks):
    """Sample configurations on the circle, run the persistence probe, and
    report the number of long-lived 1-cycles."""
    budget = int(os.environ.get("RAN_SIMPLEX_BUDGET", DEFAULT_SIMPLEX_BUDGET))
    space = Circle(circumference)
    cells = sample_configs(space, n=n, m=m, seed=seed)
    cloud = landmark_cloud(space, cells, landmarks, seed=seed) if landmarks else cloud_from_configs(space, cells)
    pairs = rips_persistence_h1(cloud, max_scale=max_scale, budget=budget)
    count = long_lived_h1_count(pairs)
    lines = [f"{'dim':>3} {'birth':>12} {'death':>12} {'persistence':>12}"]
    for p in pairs:
        death = f"{p.death:.6g}" if math.isfinite(p.death) else "inf"
        pers = f"{p.persistence:.6g}" if math.isfinite(p.persistence) else "inf"
        lines.append(f"{p.dim:>3} {p.birth:>12.6g} {death:>12} {pers:>12}")
    lines.append(f"long-lived H1 classes: {count}")
    _echo("\n".join(lines))


@main.command("convert")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--stride", type=int, default=1, show_default=True, help="Keep every stride-th track frame.")
@click.option("--basepoint", default=None, help="Mark this point in every frame.")
def cmd_convert(input_path, out_dir, stride, basepoint):
    """Render a track or homotopy JSON document to SVG frames."""
    with open(input_path) as fp:
        doc = load(fp)
    if "cells" in doc:
        homotopy, _ = homotopy_from_json(doc)
        b = _parse_basepoint(homotopy.space, basepoint) if basepoint else None
        written = render_homotopy(homotopy, out_dir, basepoint=b)
    else:
        track = track_from_json(doc)
        b = _parse_basepoint(track.space, basepoint) if basepoint else None
        written = render_track(track, out_dir, basepoint=b, stride=stride)
    _echo(f"wrote {len(written)} frames to {out_dir}")


if __name__ == "__main__":
    main()
