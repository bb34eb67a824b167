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
from itertools import chain

import click
import numpy as np

from .errors import AmbiguousBranching, ModeViolation, RanspaceError, SchemaError, SizeLimit
# maxmin_subsample and sample_ran are unused here, but perfbench/tracer.py rebinds them here
from .homology import (
    DEFAULT_SIMPLEX_BUDGET,
    PersistenceDiagram,
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
from .ran import batch_hausdorff, blocks
from .space import Circle, GraphPoint, MetricGraph
from .svg import render_homotopy, render_track
# check_continuity is unused here, but perfbench/tracer.py rebinds it here
from .tracks import LOOP_TOL, certify, check_continuity, first_gap_over, runs_from_0_to_1, within_bound

# (exception types, exit code, stderr label): the first row that matches decides
EXIT_CODES = (
    (AmbiguousBranching, 3, "ambiguous branching"),
    (ModeViolation, 4, "mode violation"),
    (SchemaError, 2, "schema error"),
    ((SizeLimit, MemoryError), 2, "size limit"),
    ((RanspaceError, ValueError, OSError), 2, "input error"),
)


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # click.echo with no file caches each sys.stdout or sys.stderr it meets
    # with the stream itself as the value, so it never frees a redirected one
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


class _Commands(click.Group):
    """Command group that exits by EXIT_CODES on any error a command raises."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Exception as exc:
            for types, code, label in EXIT_CODES:
                if isinstance(exc, types):
                    # a bare MemoryError() has no text; its type name is the message
                    _echo(f"{label}: {str(exc) or type(exc).__name__}", err=True)
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
    3 ambiguous branching (a branching point carries fewer strands than
    it has successors); 4 cardinality cap violation.
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
def cmd_contract(input_path, mode, cap, basepoint, resolution, out, svg_dir, bound):
    """Contract the loop in INPUT_PATH to its basepoint and write the
    homotopy with its certificate."""
    _check_bound(bound)
    with open(input_path) as fp:
        track = track_from_json(load(fp))
    pipeline_mode = Inclusion(cap) if mode == "inclusion" else SimplyConnected(cap)
    b = _parse_basepoint(track.space, basepoint)
    homotopy, cert = contract_pipeline(track, pipeline_mode, b, resolution=tuple(resolution))
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


def _stage_mismatch(stages: list, rows: int) -> str | None:
    """The first stage that breaks the chain of row ranges: stages must
    chain, each starting on the row the last ended on, from row 0 to the
    last of the rows."""
    row = 0
    for i, (name, first, last, _) in enumerate(stages):
        if first != row or not first <= last < rows:
            return f"stages[{i}] ({name}) row range"
        row = last
    return None if row == rows - 1 else "stages row range"


def _pair(row: int, col: int, way: str) -> str:
    """The pair of cells first_gap_over names, in words."""
    return f"row {row}, column {col} {way} to " + (f"column {col + 1}" if way == "across" else f"row {row + 1}")


@main.command("verify")
@click.argument("homotopy_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", type=float, default=math.inf, help="Continuity modulus to enforce.")
def cmd_verify(homotopy_path, bound):
    """Recompute a homotopy certificate from its cells with tracks.certify
    and check it; every row must be a closed loop, the last row one
    constant point, and the s grid must run from 0 to 1."""
    _check_bound(bound)
    with open(homotopy_path) as fp:
        doc = load(fp)
    if "cells" not in doc:
        raise SchemaError("not a homotopy document: no cells")
    h = grid_from_json(doc)
    stored = certificate_from_json(doc)
    del doc  # the parsed lists outweigh the cell arrays: free them before the kernels run
    stages = None if stored is None else stored.get("stages")
    unchained = None if stages is None else _stage_mismatch(stages, h.rows)
    cert = certify(h, [] if unchained else [stage[:3] for stage in stages or []])
    _echo(f"cells {h.rows}x{len(h.t_grid)}; max cardinality {cert.max_cardinality} (cap {h.cap}); max gap {cert.max_gap:.6g}")
    fails = []
    if cert.max_cardinality > h.cap:
        row, col = np.argwhere(h.counts > h.cap)[0]
        fails.append(f"cardinality exceeds declared cap (first cell over it: row {row}, column {col})")
    if not within_bound(cert.max_gap, cert.ds, cert.dt, bound):
        fails.append(f"max gap {cert.max_gap:.6g} exceeds bound * grid step "
                     f"(first pair over it: {_pair(*first_gap_over(h, bound * max(cert.ds, cert.dt)))})")
    last = h.enc[-1]
    stray = np.flatnonzero((h.counts[-1] != 1) | (batch_hausdorff(h.space, last, last[:1, :1]) > LOOP_TOL))
    if len(stray):
        fails.append(f"last row is not one constant point (first stray cell at column {stray[0]})")
    open_rows = np.flatnonzero(batch_hausdorff(h.space, h.enc[:, 0], h.enc[:, -1]) > LOOP_TOL)
    if len(open_rows):
        fails.append(f"row {open_rows[0]} is not a closed loop (its first and last cells differ)")
    if stored is not None:
        if stored.get("max_cardinality") is None:
            fails.append("stored certificate has no max_cardinality")
        elif stored["max_cardinality"] != cert.max_cardinality:
            row, col = np.argwhere(h.counts == cert.max_cardinality)[0]
            fails.append(f"stored certificate cardinality does not match cells "
                         f"(first cell at its recomputed value: row {row}, column {col})")
        if stored.get("declared_cap") not in (None, cert.declared_cap):
            fails.append("stored certificate declared_cap does not match cap")
        # a check_continuity certificate: its verdict at its own bound
        if stored.get("passed") is not None:
            if stored.get("bound") is None:
                fails.append("stored certificate passed has no bound")
            elif stored["passed"] != within_bound(cert.max_gap, cert.ds, cert.dt, stored["bound"]):
                fails.append(f"stored certificate passed does not match the cells' gap at its bound {stored['bound']}")
        # every float certify recomputes (target_constancy needs the
        # basepoint and reads None); not <= rather than >, so a NaN fails
        for key, recomputed in cert.as_dict().items():
            value = stored.get(key)
            if type(recomputed) is float and value is not None and not abs(value - recomputed) <= 1e-9:
                where = (f" (first pair at its recomputed value: {_pair(*first_gap_over(h, np.nextafter(recomputed, -np.inf)))})"
                         if key == "max_gap" else "")
                fails.append(f"stored certificate {'gap' if key == 'max_gap' else key} does not match cells{where}")
        mismatch = unchained or next((f"stages[{i}] ({name}) max cardinality"
                                      for i, (name, _, _, card) in enumerate(cert.stages) if stages[i][3] != card), None)
        if mismatch is not None:
            fails.append(f"stored certificate {mismatch} does not match cells")
    if h.rows > 1 and not runs_from_0_to_1(h.s_grid):
        fails.append("deformation grid runs from {!r} to {!r}, not from 0 to 1".format(*h.s_grid[[0, -1]].tolist()))
    for line in fails:
        _echo(f"FAIL: {line}", err=True)
    _echo("FAIL" if fails else "PASS")
    sys.exit(1 if fails else 0)


# one homology table row: dim, birth, death and persistence ('%12.6g' % inf is '         inf')
_PAIR_ROW = "%3d %12.6g %12.6g %12.6g\n"


def _pair_rows(diagram: PersistenceDiagram):
    """The homology table's pair rows, one string for each block of
    ran.blocks over the pairs, four values a row."""
    columns = (diagram.dim, diagram.birth, diagram.death, diagram.death - diagram.birth)
    for first, stop in blocks(len(diagram), len(columns)):
        yield _PAIR_ROW * (stop - first) % tuple(chain.from_iterable(zip(*(c[first:stop].tolist() for c in columns))))


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
    if m * n > budget:  # the sample's points alone: checked before they are drawn
        raise SizeLimit(f"a sample of {m} configurations of up to {n} points exceeds budget {budget}")
    space = Circle(circumference)
    cells = sample_configs(space, n=n, m=m, seed=seed)
    cloud = landmark_cloud(space, cells, landmarks or len(cells), seed=seed)
    diagram = rips_persistence_h1(cloud, max_scale=max_scale, budget=budget)
    count = long_lived_h1_count(diagram)
    _echo(f"{'dim':>3} {'birth':>12} {'death':>12} {'persistence':>12}")
    for rows in _pair_rows(diagram):
        _echo(rows, nl=False)
    _echo(f"long-lived H1 classes: {count}")


@main.command("convert")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--stride", type=int, default=1, show_default=True, help="Keep every stride-th frame: track sample or homotopy row.")
@click.option("--basepoint", default=None, help="Mark this point in every frame.")
def cmd_convert(input_path, out_dir, stride, basepoint):
    """Render a track or homotopy JSON document to SVG frames."""
    if stride < 1:
        raise ValueError("stride must be positive")
    with open(input_path) as fp:
        doc = load(fp)
    if "cells" in doc:
        homotopy, _ = homotopy_from_json(doc)
        b = _parse_basepoint(homotopy.space, basepoint) if basepoint else None
        written = render_homotopy(homotopy, out_dir, basepoint=b, stride=stride)
    else:
        track = track_from_json(doc)
        b = _parse_basepoint(track.space, basepoint) if basepoint else None
        written = render_track(track, out_dir, basepoint=b, stride=stride)
    _echo(f"wrote {len(written)} frames to {out_dir}")


if __name__ == "__main__":
    main()
