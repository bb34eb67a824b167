"""Constructive loop contractions on configuration spaces.

The pieces, bottom up:

* ``extract_strands``: factor a configuration track through coordinate
  strands by greedy nearest matching between consecutive grid times,
  failing with AmbiguousBranching when no matching fits the radius.
* ``normalize``: conjugate a loop onto a chosen basepoint, factor it into
  strands based there, and reschedule each strand so excursions away from
  the basepoint span the whole loop; returns the bundle and the homotopy
  from the input loop to the bundle's projection.
* ``staircase``: reparametrize strand j to be active only on the window
  [j/n, (j+1)/n] and frozen at its endpoints elsewhere, so the projected
  track never shows more than two distinct points.
* ``contract_circle_generator``: an explicit grid homotopy contracting the
  one-turn circle loop to its basepoint through configurations of at most
  three points, based throughout.
* ``pushforward_contraction``: map that contraction pointwise through an
  arbitrary based loop, contracting the loop's singleton track.
* ``contract_pipeline``: the composite normalize -> staircase (with
  multi-turn circle strands split into one-turn factors) -> sequential
  per-window pushforward contractions, with a machine-checked certificate.

During a per-window contraction every other strand is frozen at the
basepoint, so the frozen strands contribute the single point b and the
total cardinality stays at most 3 + 1; that bound is what makes the
capped modes work and it is asserted by the certificate, never assumed.

Pipeline stages are sequential; cells within a stage are independent and
may be evaluated concurrently without changing any value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence, Union

import numpy as np

from .errors import (
    AmbiguousBranching,
    EndpointMismatch,
    ModeViolation,
    UnsupportedDegree,
)
# dedup and hausdorff are unused here, but perfbench/tracer.py rebinds them here
from .ran import Configuration, _dedup_lists, _pad_lists, batch_hausdorff, dedup, dedup_many, hausdorff
from .space import Circle, Point, Space
from .tracks import (
    LOOP_TOL,
    CellGrid,
    Homotopy,
    StrandBundle,
    StrandInterpolator,
    Track,
    check_continuity,
    circle_lift,
    endpoint_drift,
    nearest_sample,
    project,
    stack_homotopies,
    uniform_times,
    winding_number,
)

# the circle the one-turn contraction is drawn on, in unit parameter
_UNIT = Circle(1.0)

# -- modes and certificates ---------------------------------------------------


@dataclass(frozen=True)
class Inclusion:
    """Contract inside the space with the cap raised by two."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cap must be positive")

    @property
    def declared_cap(self) -> int:
        return self.n + 2


@dataclass(frozen=True)
class SimplyConnected:
    """Contract without raising the cap; needs n >= 4."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("simply-connected mode needs n >= 4")

    @property
    def declared_cap(self) -> int:
        return self.n


PipelineMode = Union[Inclusion, SimplyConnected]


@dataclass(frozen=True)
class ContractionCertificate:
    max_cardinality: int
    declared_cap: int
    max_gap: float
    ds: float
    dt: float
    lipschitz: float
    endpoint_drift: float
    target_constancy: float
    source: str
    target: str
    stages: tuple  # of (name, first row, last row, stage max cardinality)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# -- strand extraction --------------------------------------------------------


def _match_step(space: Space, prev: tuple, nxt: tuple, radius: float, when: float) -> list:
    """Parent index in prev for every point of nxt.

    Pairs are scanned in ascending (distance, child, parent) order; the
    first pass builds an injective matching so a point passing close to
    another cannot steal its successor, and a second pass attaches the
    remaining points (genuine branches) to their nearest predecessor.
    """
    pairs = sorted(
        (space.distance(q, p), qi, pi)
        for qi, q in enumerate(nxt)
        for pi, p in enumerate(prev)
    )
    parent = [-1] * len(nxt)
    taken = set()
    for d, qi, pi in pairs:
        if d > radius:
            break
        if parent[qi] == -1 and pi not in taken:
            parent[qi] = pi
            taken.add(pi)
    for d, qi, pi in pairs:
        if parent[qi] == -1 and d <= radius:
            parent[qi] = pi
    for qi, pi in enumerate(parent):
        if pi == -1:
            raise AmbiguousBranching(
                f"point {nxt[qi]!r} at t={when} has no predecessor within radius {radius:.3g}"
            )
    return parent


def extract_strands(track: Track, matching_radius: float | None = None) -> StrandBundle:
    """Factor a track through coordinate strands on its own grid.

    Strands are seeded round robin over the first configuration.  At each
    step the next configuration is matched to the previous one; strands
    sitting on a predecessor are distributed round robin over its
    successors, and strands on a vanishing point follow it to the nearest
    surviving point.  Any step that cannot be matched within the radius
    raises AmbiguousBranching: such tracks admit no strand decomposition
    on this grid.
    """
    space = track.space
    n = track.cap
    if matching_radius is None:
        matching_radius = 2.0 * check_continuity(track, math.inf).max_gap + 1e-9
    elif not 0 < matching_radius < math.inf:
        raise ValueError("matching radius must be finite and positive")
    first = track.configs[0].points
    positions = [j % len(first) for j in range(n)]
    strands = [[first[p]] for p in positions]
    for i in range(len(track.times) - 1):
        prev = track.configs[i].points
        nxt = track.configs[i + 1].points
        parent = _match_step(space, prev, nxt, matching_radius, track.times[i + 1])
        children = {p: [q for q, par in enumerate(parent) if par == p] for p in range(len(prev))}
        new_positions = [0] * n
        for p in range(len(prev)):
            holders = [j for j in range(n) if positions[j] == p]
            kids = children[p]
            if not kids:
                dists = [space.distance(prev[p], q) for q in nxt]
                tgt = min(range(len(nxt)), key=lambda k: (dists[k], k))
                if dists[tgt] > matching_radius:
                    raise AmbiguousBranching(
                        f"point {prev[p]!r} at t={track.times[i]} vanishes with no "
                        f"successor within radius {matching_radius:.3g}"
                    )
                for j in holders:
                    new_positions[j] = tgt
                continue
            if len(holders) < len(kids):
                raise AmbiguousBranching(
                    f"branch at t={track.times[i]} needs {len(kids)} strands "
                    f"but only {len(holders)} ride the branching point"
                )
            for k, j in enumerate(holders):
                new_positions[j] = kids[k % len(kids)]
        positions = new_positions
        for j in range(n):
            strands[j].append(nxt[positions[j]])
    return StrandBundle(space, track.times, tuple(tuple(s) for s in strands))


# -- normalization ------------------------------------------------------------


def _config_at(track: Track, t: float) -> Configuration:
    return track.configs[nearest_sample(track.times, t)]


def _dwell(lam: float, t: float) -> float:
    """Reparametrization sliding (lam from 0 to 1) onto a schedule that
    dwells at the ends of [0, 1/4] and [3/4, 1] and runs the loop between."""
    return (1.0 - lam) * t + lam * min(max((t - 0.25) * 2.0, 0.0), 1.0)


def _conjugation(s: float, t: float) -> tuple:
    """Where the block conjugating a loop by a connector path reads at
    (s, t): (True, u) for the connector at u, (False, u) for the loop at u.

    On [0, 1/4] and [3/4, 1] the connector is read at a parameter warped
    by s (the whole connector at s = 0, its far end only at s = 1); in
    between the loop runs at double speed.
    """
    if t <= 0.25:
        return True, (1.0 - s) + (t / 0.25) * s
    if t >= 0.75:
        return True, (1.0 - s) + ((1.0 - t) / 0.25) * s
    return False, (t - 0.25) * 2.0


def _cells(grid: tuple, rows: int, f) -> list:
    """f(i / rows, t) over the cells of a block of rows + 1 rows on the
    time grid, row by row."""
    return [f(i / rows, t) for i in range(rows + 1) for t in grid]


def _block(space: Space, grid: tuple, rows: int, cap: int, enc: np.ndarray, counts: np.ndarray) -> Homotopy:
    """Homotopy block of rows + 1 rows on the time grid from the padded
    encoding of its cells, listed row by row, and their point counts."""
    shape = (rows + 1, len(grid))
    enc = enc.reshape(shape + enc.shape[1:])[:, :, :counts.max()]
    s_grid = np.asarray(uniform_times(rows))
    return Homotopy.from_grid(CellGrid(space, cap, s_grid, np.asarray(grid), enc, counts.reshape(shape)))


def _dedup_block(space: Space, grid: tuple, rows: int, cap: int, point_lists: list) -> Homotopy:
    """Block whose cells are dedup(space, pts, cap=cap) of the point
    lists, listed row by row, from one dedup_many call."""
    return _block(space, grid, rows, cap, *_dedup_lists(space, point_lists, cap))


def _strand_block(space: Space, grid: tuple, rows: int, values: list) -> Homotopy:
    """Block moving strands: values[j] lists strand j's value at every
    cell, row by row, and a cell is the configuration of its strand
    values, capped at the strand count."""
    n = len(values)
    return _dedup_block(space, grid, rows, n, list(zip(*values)))


def normalize(
    obj: Union[Track, StrandBundle],
    b: Point,
    rows: int = 8,
    m: int | None = None,
    matching_radius: float | None = None,
) -> tuple[StrandBundle, Homotopy]:
    """Rebase a loop at b and factor it through based strands.

    Returns the strand bundle (every strand starting and ending at b) and
    the homotopy from the input loop to the bundle's projection.  Stages:
    a conjugation sliding the loop along a geodesic connector onto {b}
    and, for raw tracks, excursion rescheduling that removes every branch
    and merge event away from the loop's base time.  A bundle already
    based at b comes back unchanged with a constant homotopy.
    """
    space = obj.space
    b = space.canon(b)
    if isinstance(obj, StrandBundle):
        if not obj.is_loop():
            return normalize(project(obj), b, rows=rows, m=m, matching_radius=matching_radius)
        if obj.based_at(b):
            out = obj if m is None else _resample_bundle(obj, uniform_times(m))
            proj = project(out)
            ident = Homotopy(space, (0.0, 1.0), proj.times, (proj.configs, proj.configs), out.n)
            return out, ident
        grid = obj.times if m is None else uniform_times(m)
        return _normalize_bundle(obj, b, rows, grid)
    if obj.kind != "loop":
        raise EndpointMismatch("normalization needs a loop")
    grid = uniform_times(m if m is not None else len(obj.times) - 1)
    return _normalize_track(obj, b, rows, grid, matching_radius)


def _resample_bundle(bundle: StrandBundle, grid: tuple) -> StrandBundle:
    if bundle.times == grid:
        return bundle
    interps = [bundle.interpolator(j) for j in range(bundle.n)]
    return StrandBundle(
        bundle.space, grid, tuple(tuple(itp.many(grid)) for itp in interps)
    )


def _normalize_bundle(bundle: StrandBundle, b: Point, rows: int, grid: tuple) -> tuple[StrandBundle, Homotopy]:
    """Conjugate each strand by the geodesic from b to its own basepoint."""
    space = bundle.space
    interps = [bundle.interpolator(j) for j in range(bundle.n)]
    dwell = _cells(grid, rows, _dwell)
    h1 = _strand_block(space, grid, rows, [itp.many(dwell) for itp in interps])

    reads = _cells(grid, rows, _conjugation)
    loop_u = [u for on_connector, u in reads if not on_connector]
    values = []
    for strand, itp in zip(bundle.strands, interps):
        loop = iter(itp.many(loop_u))
        values.append([space.geodesic(b, strand[0], u) if on_connector else next(loop) for on_connector, u in reads])
    h2 = _strand_block(space, grid, rows, values)
    out = StrandBundle(space, grid, tuple(tuple(v[-len(grid):]) for v in values))
    return out, stack_homotopies([h1, h2])


def _normalize_track(
    track: Track, b: Point, rows: int, grid: tuple, matching_radius: float | None
) -> tuple[StrandBundle, Homotopy]:
    space = track.space
    n = track.cap
    m = len(grid) - 1
    sigma0 = track.configs[0]
    dists = [space.distance(b, q) for q in sigma0.points]
    pstar = sigma0.points[min(range(len(sigma0)), key=lambda k: (dists[k], k))]

    def gamma(u: float) -> list:
        if u <= 0.5:
            return [space.geodesic(b, pstar, 2.0 * u)]
        return [space.geodesic(pstar, q, 2.0 * u - 1.0) for q in sigma0.points]

    def conj_points(s, t):
        on_connector, u = _conjugation(s, t)
        return gamma(u) if on_connector else _config_at(track, u).points

    # the reparametrization block reuses the input's cells without another
    # dedup: documents are only strictly sorted, not eps-separated
    source = CellGrid.of(track)
    reads = _cells(grid, rows, lambda lam, t: nearest_sample(track.times, _dwell(lam, t)))
    h1 = _block(space, grid, rows, n, source.enc[0, reads], source.counts[0, reads])
    h2 = _dedup_block(space, grid, rows, n, _cells(grid, rows, conj_points))
    conjugated = h2.row(-1)
    bundle = extract_strands(conjugated, matching_radius=matching_radius)

    # excursion rescheduling: stretch each strand's span away from b over
    # the whole loop, so splits and rejoins happen only at the base time
    interps = [bundle.interpolator(j) for j in range(n)]
    spans = []
    for strand in bundle.strands:
        away = [i for i, p in enumerate(strand) if space.distance(p, b) > LOOP_TOL]
        if not away:
            spans.append((0.0, 1.0))
        else:
            spans.append((grid[max(away[0] - 1, 0)], grid[min(away[-1] + 1, m)]))

    def sched(t0, t1):
        return lambda lam, t: (1.0 - lam) * t + lam * (t0 + t * (t1 - t0))

    values = [itp.many(_cells(grid, rows, sched(*span))) for itp, span in zip(interps, spans)]
    h3 = _strand_block(space, grid, rows, values)
    out = StrandBundle(space, grid, tuple(tuple(v[-len(grid):]) for v in values))
    return out, stack_homotopies([h1, h2, h3])


# -- staircase ----------------------------------------------------------------


def _common_basepoint(bundle: StrandBundle) -> Point:
    space = bundle.space
    base = bundle.strands[0][0]
    for s in bundle.strands:
        for p in (s[0], s[-1]):
            if space.distance(p, base) > LOOP_TOL:
                raise EndpointMismatch("staircase needs all strand endpoints to coincide")
    return base


def staircase(bundle: StrandBundle) -> StrandBundle:
    """Schedule strand j to run inside [j/n, (j+1)/n], frozen elsewhere.

    At any time at most one strand is away from the shared endpoint value,
    so the projected track has at most two distinct points.
    """
    _common_basepoint(bundle)
    n = bundle.n
    m = len(bundle.times) - 1
    out_times = uniform_times(n * m)
    aligned = bundle.times == uniform_times(m)
    strands = []
    for j, strand in enumerate(bundle.strands):
        # the strand's own window [j/n, (j+1)/n] holds its samples 1..m-1
        inner = strand[1:m] if aligned else bundle.interpolator(j).many([idx / m for idx in range(1, m)])
        strands.append((strand[0],) * (j * m + 1) + tuple(inner) + (strand[-1],) * ((n - 1 - j) * m + 1))
    return StrandBundle(bundle.space, out_times, tuple(strands))


# -- the one-turn circle contraction ------------------------------------------


def _tent(u: float) -> float:
    return 1.0 - abs(1.0 - 2.0 * u)


def _generator_points(s, t) -> np.ndarray:
    """The one-turn contraction at the broadcast cells (s, t), unit circle.

    Returns shape (..., 3): each cell's points in order, NaN past the
    last.  Five deformation phases: split the turn into two half-laps run
    in sequence; then for each half-lap, sprout a symmetric
    counter-running pair out of the waiting point, pass the runner into
    it at the crossing, and shrink the spread back to the basepoint.
    """
    # quantities of s alone or of t alone keep their own shape; only the
    # cases and their points broadcast to the whole grid
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    phase = np.minimum(np.floor(s * 5.0), 4.0)
    sig = s * 5.0 - phase
    w, v = sig / 2.0, (1.0 - sig) / 2.0
    first = t <= 0.5
    up, down = 2.0 * t, 2.0 * t - 1.0
    nan = np.nan
    # (cells, their points); the first case that holds decides a cell
    cases = (
        (phase == 0, ((1.0 - sig) * t + sig * np.minimum(up, 1.0), (1.0 - sig) * t + sig * np.maximum(down, 0.0), nan)),
        ((phase == 1) & first, (up, w * _tent(up), -w * _tent(up))),
        ((phase <= 2) & ~first, (0.0, down, nan)),
        (phase == 2, (v * _tent(up), -v * _tent(up), nan)),
        (first, (0.0, nan, nan)),
        (phase == 3, (down, w * _tent(down), -w * _tent(down))),
        (~first, (v * _tent(down), -v * _tent(down), nan)),
    )
    conds = [cond for cond, _ in cases]
    return np.stack([np.select(conds, [pts[k] for _, pts in cases]) for k in range(3)], axis=-1)


def _pushed(interp: StrandInterpolator, s_grid: Sequence[float], times: Sequence[float], u0: float = 0.0, u1: float = 1.0) -> list:
    """The one-turn contraction at the cells s_grid x times mapped through
    a strand, its unit parameter rescaled onto the strand's [u0, u1]:
    rows of per-cell point lists, from one interpolator call."""
    u = u0 + _UNIT.canon_many(_generator_points(np.asarray(s_grid)[:, None], np.asarray(times))) * (u1 - u0)
    valid = ~np.isnan(u)
    points = iter(interp.many(u[valid]))
    return [[list(islice(points, k)) for k in row] for row in valid.sum(axis=-1).tolist()]


def contract_circle_generator(
    turns: int, resolution: tuple = (64, 128), space: Circle = _UNIT
) -> Homotopy:
    """Null-homotopy of the one-turn circle loop, based at coordinate 0.

    Row 0 is the singleton track winding `turns` times (|turns| = 1), the
    last row is constant {0}, every cell has at most three points, and the
    basepoint column stays at {0} throughout.
    """
    if turns not in (1, -1):
        raise UnsupportedDegree(f"turns must be +1 or -1, got {turns}")
    r, m = resolution
    grid = uniform_times(m)
    s_grid = np.asarray(uniform_times(r))[:, None]
    kept, counts = dedup_many(space, turns * _generator_points(s_grid, np.asarray(grid)) * space.circumference)
    return _block(space, grid, r, 3, kept.reshape(-1, 3), counts.ravel())


def pushforward_contraction(
    space: Space,
    strand: Sequence[Point],
    resolution: tuple = (64, 128),
) -> Homotopy:
    """Map the one-turn contraction pointwise through a based loop.

    The loop, read as a map from the unit-parameter circle into the space,
    sends every contraction cell to a configuration inside its own image,
    yielding a null-homotopy of the loop's singleton track onto its
    basepoint.
    """
    if space.distance(strand[0], strand[-1]) > LOOP_TOL:
        raise EndpointMismatch("pushforward needs a closed strand")
    interp = StrandInterpolator(space, uniform_times(len(strand) - 1), strand)
    r, m = resolution
    grid = uniform_times(m)
    pushed = _pushed(interp, uniform_times(r), grid)
    return _dedup_block(space, grid, r, 3, [pts for row in pushed for pts in row])


# -- the full pipeline --------------------------------------------------------


@dataclass(frozen=True)
class _SubWindow:
    """Strand `strand` runs its parameters [u0, u1] over the times [t0, t1]."""

    strand: int
    t0: float
    t1: float
    u0: float
    u1: float

    def u(self, t: float) -> float:
        return self.u0 + (t - self.t0) / (self.t1 - self.t0) * (self.u1 - self.u0)


def _lap_cuts(space: Space, strand: Sequence[Point], times: Sequence[float]) -> list:
    """Times splitting a circle strand into one-turn factors.

    Cut at the first crossing of each whole-turn lift level; for winding
    |w| < 2 (and on non-circle spaces) the strand is a single factor.
    """
    if not isinstance(space, Circle):
        return [0.0, 1.0]
    w = winding_number(space, strand)
    if abs(w) < 2:
        return [0.0, 1.0]
    lifts = circle_lift(space, strand)
    c = space.circumference
    cuts = [0.0]
    for i in range(1, abs(w)):
        level = lifts[0] + math.copysign(i * c, w)
        for k in range(len(lifts) - 1):
            lo, hi = lifts[k], lifts[k + 1]
            if (lo - level) * (hi - level) <= 0.0 and lo != hi:
                u = times[k] + (level - lo) / (hi - lo) * (times[k + 1] - times[k])
                if u > cuts[-1]:
                    cuts.append(float(u))
                    break
    cuts.append(1.0)
    return cuts


def _schedule(space: Space, bundle: StrandBundle) -> list:
    n = bundle.n
    windows = []
    for j in range(n):
        cuts = _lap_cuts(space, bundle.strands[j], bundle.times)
        k = len(cuts) - 1
        for lap in range(k):
            t0 = j / n + lap / (k * n)
            t1 = j / n + (lap + 1) / (k * n)
            windows.append(_SubWindow(j, t0, t1, cuts[lap], cuts[lap + 1]))
    return windows


def _rho(windows: list, j: int, t: float) -> float:
    own = [w for w in windows if w.strand == j]
    if t <= own[0].t0:
        return 0.0
    if t >= own[-1].t1:
        return 1.0
    return next((w.u(t) for w in own if w.t0 <= t <= w.t1), 1.0)


def contract_pipeline(
    obj: Union[Track, StrandBundle],
    mode: PipelineMode,
    b: Point,
    resolution: tuple = (48, 128),
    matching_radius: float | None = None,
) -> tuple[Homotopy, ContractionCertificate]:
    """Contract a loop to the constant {b} under the mode's cardinality cap.

    Normalize, staircase with one-turn splitting, then contract each
    scheduled window in ascending order through the pushed-forward
    one-turn contraction while every other strand sits frozen at b.
    """
    r, m = resolution
    if min(r, m) < 1:
        raise ValueError("resolution must be positive")
    space = obj.space
    b = space.canon(b)
    n = mode.n
    input_cap = obj.cap if isinstance(obj, Track) else obj.n
    if input_cap > n:
        raise ValueError(f"input cap {input_cap} inconsistent with mode cap {n}")
    grid = uniform_times(m)

    bundle, h_norm = normalize(obj, b, rows=max(2, r // 6), m=m, matching_radius=matching_radius)
    n_strands = bundle.n
    interps = [bundle.interpolator(j) for j in range(n_strands)]
    windows = _schedule(space, bundle)
    block_rows = max(2, r // (2 + len(windows)))

    # staircase block: slide from the identity schedule to the windowed
    # one (one-turn splitting rides on the same reparametrization)
    def sched(j):
        return lambda lam, t: (1.0 - lam) * t + lam * _rho(windows, j, t)

    values = [itp.many(_cells(grid, block_rows, sched(j))) for j, itp in enumerate(interps)]
    h_stair = _strand_block(space, grid, block_rows, values)

    declared = mode.declared_cap
    blocks = [h_norm, h_stair]

    # owner[j][k]: index of the first window of strand j holding grid[k]
    # (None if none does); frozen[j][k]: strand j's value there, by the
    # owner's schedule if there is one, else by the staircase schedule
    owner = [
        [next((i for i, w in enumerate(windows) if w.strand == j and w.t0 <= t <= w.t1), None) for t in grid]
        for j in range(n_strands)
    ]
    frozen = [
        interps[j].many([_rho(windows, j, t) if o is None else windows[o].u(t) for t, o in zip(grid, owner[j])])
        for j in range(n_strands)
    ]

    s_grid = uniform_times(block_rows)
    for i, win in enumerate(windows):
        inside = [k for k, t in enumerate(grid) if win.t0 <= t <= win.t1]
        local = [(grid[k] - win.t0) / (win.t1 - win.t0) for k in inside]
        pushed = _pushed(interps[win.strand], s_grid, local, win.u0, win.u1)
        # every strand but the window's own as window i sees it: at b where
        # an earlier window has already contracted it
        seen = [
            [b if owner[j][k] is not None and owner[j][k] < i else frozen[j][k]
             for j in range(n_strands) if not (j == win.strand and win.t0 <= t <= win.t1)]
            for k, t in enumerate(grid)
        ]
        point_lists = []
        for row in pushed:
            moving = dict(zip(inside, row))
            for k in range(len(grid)):
                pts = seen[k] + moving.get(k, [])
                point_lists.append(pts if pts else [b])
        blocks.append(_dedup_block(space, grid, block_rows, declared, point_lists))

    homotopy = stack_homotopies(blocks)
    certificate = _certify(homotopy, declared, b, blocks)
    if certificate.max_cardinality > declared:
        raise ModeViolation(
            f"observed cardinality {certificate.max_cardinality} exceeds mode cap {declared}"
        )
    return homotopy, certificate


def _certify(homotopy: Homotopy, declared: int, b: Point, blocks: list) -> ContractionCertificate:
    grid = homotopy.grid
    report = check_continuity(grid, math.inf)
    target_constancy = float(batch_hausdorff(grid.space, grid.enc[-1], _pad_lists(grid.space, [[b]])).max())
    names = ["normalize", "staircase"] + [f"contract-window-{i}" for i in range(len(blocks) - 2)]
    stages = []
    row = 0
    for name, block in zip(names, blocks):
        last = row + block.rows - 1
        stages.append((name, row, last, grid.max_cardinality(row, last)))
        row = last
    return ContractionCertificate(
        max_cardinality=report.max_cardinality,
        declared_cap=declared,
        max_gap=report.max_gap,
        ds=report.ds,
        dt=report.dt,
        lipschitz=report.lipschitz,
        endpoint_drift=endpoint_drift(grid),
        target_constancy=target_constancy,
        source="input loop resampled",
        target="constant basepoint configuration",
        stages=tuple(stages),
    )
