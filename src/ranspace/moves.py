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
from typing import Sequence, Union

import numpy as np

from .errors import (
    AmbiguousBranching,
    CapExceeded,
    EmptyConfiguration,
    EndpointMismatch,
    ModeViolation,
    UnsupportedDegree,
)
# dedup and hausdorff are unused here, but perfbench/tracer.py rebinds them here
from .ran import _pad_lists, _padding, batch_hausdorff, dedup, dedup_many, hausdorff
from .space import Circle, MetricGraph, Point, Space
from .tracks import (
    LOOP_TOL,
    CellGrid,
    Homotopy,
    StrandBundle,
    StrandInterpolator,
    Track,
    _distances,
    _slot_points,
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


def _match_step(dist: np.ndarray, nxt: tuple, radius: float, when: float) -> list:
    """Parent index for every point of nxt, from the step's distance matrix
    dist[child, parent].

    Pairs are scanned in ascending (distance, child, parent) order; the
    first pass builds an injective matching so a point passing close to
    another cannot steal its successor, and a second pass attaches the
    remaining points (genuine branches) to their nearest predecessor.
    """
    pairs = sorted((d, qi, pi) for qi, row in enumerate(dist.tolist()) for pi, d in enumerate(row))
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
    on this grid.  Every step's distances come from one distance_many
    call over adjacent columns of the track's grid.
    """
    space = track.space
    n = track.cap
    grid = track.grid
    if matching_radius is None:
        matching_radius = 2.0 * check_continuity(grid, math.inf).max_gap + 1e-9
    elif not 0 < matching_radius < math.inf:
        raise ValueError("matching radius must be finite and positive")
    enc = space.canon_many(grid.enc[0])
    # steps[i, child, parent]: from point child of column i + 1 to point
    # parent of column i
    steps = space.distance_many(np.expand_dims(enc[1:], 2), np.expand_dims(enc[:-1], 1))
    columns = [_slot_points(space, cell[:k]) for cell, k in zip(grid.enc[0], grid.counts[0].tolist())]
    positions = [j % len(columns[0]) for j in range(n)]
    strands = [[columns[0][p]] for p in positions]
    for i, dist in enumerate(steps):
        prev, nxt = columns[i], columns[i + 1]
        dist = dist[:len(nxt), :len(prev)]
        parent = _match_step(dist, nxt, matching_radius, track.times[i + 1])
        children = {p: [q for q, par in enumerate(parent) if par == p] for p in range(len(prev))}
        new_positions = [0] * n
        for p in range(len(prev)):
            holders = [j for j in range(n) if positions[j] == p]
            kids = children[p]
            if not kids:
                tgt = int(np.argmin(dist[:, p]))
                if dist[tgt, p] > matching_radius:
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


def _block_cells(rows: int, grid: tuple) -> tuple:
    """The cells (s, t) of a block of rows + 1 rows on the time grid, as a
    column of s and a row of t that broadcast to the block's shape."""
    return np.asarray(uniform_times(rows))[:, None], np.asarray(grid)


def _dwell_reads(lam, t) -> np.ndarray:
    """Reparametrization sliding (lam from 0 to 1) onto a schedule that
    dwells at the ends of [0, 1/4] and [3/4, 1] and runs the loop between,
    at the broadcast cells (lam, t)."""
    return (1.0 - lam) * t + lam * np.clip((t - 0.25) * 2.0, 0.0, 1.0)


def _conjugation_reads(s, t) -> tuple:
    """Where the block conjugating a loop by a connector path reads at the
    broadcast cells (s, t): a mask of the cells that read the connector,
    and the parameter u each cell reads the connector or the loop at.

    On [0, 1/4] and [3/4, 1] the connector is read at a parameter warped
    by s (the whole connector at s = 0, its far end only at s = 1); in
    between the loop runs at double speed.
    """
    early, late = t <= 0.25, t >= 0.75
    u = np.select([early, late], [(1.0 - s) + (t / 0.25) * s, (1.0 - s) + ((1.0 - t) / 0.25) * s], (t - 0.25) * 2.0)
    return np.broadcast_to(early | late, u.shape), u


def _block(space: Space, grid: tuple, cap: int, kept: np.ndarray, counts: np.ndarray) -> Homotopy:
    """Homotopy block on the time grid from the padded encoding of its
    cells, shaped (rows, columns, slots) (then (edge, t) on graphs), and
    their point counts."""
    s_grid = np.asarray(uniform_times(len(counts) - 1))
    return Homotopy.from_grid(CellGrid(space, cap, s_grid, np.asarray(grid), kept[:, :, :counts.max()], counts))


def _slots_block(space: Space, grid: tuple, cap: int, enc: np.ndarray) -> Homotopy:
    """Block whose cells are dedup(space, pts, cap=cap) of the points in
    each cell's slots of a padded encoding, NaN slots skipped, from one
    dedup_many call."""
    kept, counts = dedup_many(space, enc)
    if counts.min() < 1:
        raise EmptyConfiguration("a block cell has no point")
    if counts.max() > cap:
        raise CapExceeded(f"{counts.max()} points with cap {cap}")
    return _block(space, grid, cap, kept, counts)


def _strand_slots(space: Space, values: list) -> np.ndarray:
    """Strand values at a block's cells, one array per strand as
    StrandInterpolator.many gives them, as one encoding: strand j in slot j."""
    return np.stack(values, axis=-2 if isinstance(space, MetricGraph) else -1)


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
        grid = obj.times if m is None else uniform_times(m)
        if not obj.based_at(b):
            return _normalize_bundle(obj, b, rows, grid)
        out = obj if obj.times == grid else StrandBundle(space, grid, tuple(
            _slot_points(space, obj.interpolator(j).many(grid)) for j in range(obj.n)))
        cells = project(out).grid
        return out, _block(space, grid, out.n, np.repeat(cells.enc, 2, axis=0), np.repeat(cells.counts, 2, axis=0))
    if obj.kind != "loop":
        raise EndpointMismatch("normalization needs a loop")
    grid = uniform_times(m if m is not None else len(obj.times) - 1)
    return _normalize_track(obj, b, rows, grid, matching_radius)


def _normalize_bundle(bundle: StrandBundle, b: Point, rows: int, grid: tuple) -> tuple[StrandBundle, Homotopy]:
    """Conjugate each strand by the geodesic from b to its own basepoint."""
    space = bundle.space
    interps = [bundle.interpolator(j) for j in range(bundle.n)]
    s, t = _block_cells(rows, grid)
    h1 = _slots_block(space, grid, bundle.n, _strand_slots(space, [itp.many(_dwell_reads(s, t)) for itp in interps]))

    on_connector, u = _conjugation_reads(s, t)
    values = []
    for strand, itp in zip(bundle.strands, interps):
        v = itp.many(u)
        v[on_connector] = space.geodesic_many(b, strand[0], u[on_connector])
        values.append(v)
    h2 = _slots_block(space, grid, bundle.n, _strand_slots(space, values))
    out = StrandBundle(space, grid, tuple(_slot_points(space, v[-1]) for v in values))
    return out, stack_homotopies([h1, h2])


def _normalize_track(
    track: Track, b: Point, rows: int, grid: tuple, matching_radius: float | None
) -> tuple[StrandBundle, Homotopy]:
    space = track.space
    n = track.cap
    m = len(grid) - 1
    source = track.grid
    sigma0 = _slot_points(space, source.enc[0, 0, :source.counts[0, 0]])
    # the point of the first configuration nearest b, the first on a tie
    pstar = sigma0[int(np.argmin(_distances(space, sigma0, b)))]
    s, t = _block_cells(rows, grid)

    # the reparametrization block reuses the input's cells without another
    # dedup: documents are only strictly sorted, not eps-separated
    reads = nearest_sample(track.times, _dwell_reads(s, t))
    h1 = _block(space, grid, n, source.enc[0, reads], source.counts[0, reads])

    # the conjugation block: loop cells read the input's cells; connector
    # cells read the path from b to pstar (one point), then from pstar out
    # to every point of the first configuration
    on_connector, u = _conjugation_reads(s, t)
    enc = source.enc[0, nearest_sample(track.times, u)]
    enc[on_connector] = _padding(space, enc.shape[2:3])
    to_pstar, fan = on_connector & (u <= 0.5), on_connector & (u > 0.5)
    enc[to_pstar, 0] = space.geodesic_many(b, pstar, 2.0 * u[to_pstar])
    for k, q in enumerate(sigma0):
        enc[fan, k] = space.geodesic_many(pstar, q, 2.0 * u[fan] - 1.0)
    h2 = _slots_block(space, grid, n, enc)
    conjugated = h2.row(-1)
    bundle = extract_strands(conjugated, matching_radius=matching_radius)

    # excursion rescheduling: stretch each strand's span away from b over
    # the whole loop, so splits and rejoins happen only at the base time
    interps = [bundle.interpolator(j) for j in range(n)]
    spans = []
    for strand in bundle.strands:
        away = np.flatnonzero(_distances(space, strand, b) > LOOP_TOL)
        spans.append((grid[max(away[0] - 1, 0)], grid[min(away[-1] + 1, m)]) if len(away) else (0.0, 1.0))
    values = [itp.many((1.0 - s) * t + s * (t0 + t * (t1 - t0))) for itp, (t0, t1) in zip(interps, spans)]
    h3 = _slots_block(space, grid, n, _strand_slots(space, values))
    out = StrandBundle(space, grid, tuple(_slot_points(space, v[-1]) for v in values))
    return out, stack_homotopies([h1, h2, h3])


# -- staircase ----------------------------------------------------------------


def staircase(bundle: StrandBundle) -> StrandBundle:
    """Schedule strand j to run inside [j/n, (j+1)/n], frozen elsewhere.

    At any time at most one strand is away from the shared endpoint value,
    so the projected track has at most two distinct points.
    """
    if not bundle.based_at(bundle.strands[0][0]):
        raise EndpointMismatch("staircase needs all strand endpoints to coincide")
    n = bundle.n
    m = len(bundle.times) - 1
    out_times = uniform_times(n * m)
    aligned = bundle.times == uniform_times(m)
    strands = []
    for j, strand in enumerate(bundle.strands):
        # the strand's own window [j/n, (j+1)/n] holds its samples 1..m-1
        inner = strand[1:m] if aligned else _slot_points(bundle.space, bundle.interpolator(j).many(np.arange(1, m) / m))
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


def _pushed(interp: StrandInterpolator, s, t, u0: float = 0.0, u1: float = 1.0) -> np.ndarray:
    """The one-turn contraction at the broadcast cells (s, t) mapped through
    a strand, its unit parameter rescaled onto the strand's [u0, u1]: each
    cell's three slots as StrandInterpolator.many gives them, NaN past the
    cell's last point, from one interpolator call."""
    return interp.many(u0 + _UNIT.canon_many(_generator_points(s, t)) * (u1 - u0))


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
    s, t = _block_cells(r, grid)
    return _slots_block(space, grid, 3, turns * _generator_points(s, t) * space.circumference)


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
    return _slots_block(space, grid, 3, _pushed(interp, *_block_cells(r, grid)))


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
    lifts, times = circle_lift(space, strand), np.asarray(times)
    lo, hi = lifts[:-1], lifts[1:]
    cuts = [0.0]
    for i in range(1, abs(w)):
        level = lifts[0] + math.copysign(i * space.circumference, w)
        k = np.flatnonzero(((lo - level) * (hi - level) <= 0.0) & (lo != hi))
        u = times[k] + (level - lo[k]) / (hi[k] - lo[k]) * (times[k + 1] - times[k])
        cuts.extend(u[u > cuts[-1]][:1].tolist())
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


def _staircase_u(windows: list, j: int, t: np.ndarray) -> np.ndarray:
    """Strand j's parameter at the times t on the windowed schedule: 0
    up to its first window, 1 from the end of its last, by the first of
    its windows holding t in between, else 1."""
    own = [w for w in windows if w.strand == j]
    u = np.ones_like(t)
    for w in reversed(own):
        u = np.where((w.t0 <= t) & (t <= w.t1), w.u(t), u)
    return np.where(t <= own[0].t0, 0.0, np.where(t >= own[-1].t1, 1.0, u))


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
    s, t = _block_cells(block_rows, grid)
    stair_u = np.array([_staircase_u(windows, j, t) for j in range(n_strands)])
    values = [itp.many((1.0 - s) * t + s * stair_u[j]) for j, itp in enumerate(interps)]
    h_stair = _slots_block(space, grid, n_strands, _strand_slots(space, values))

    declared = mode.declared_cap
    blocks = [h_norm, h_stair]

    # owner[j, k]: index of the first window of strand j holding grid[k]
    # (len(windows) if none does); frozen: strand j's value there, by the
    # owner's schedule if there is one, else by the staircase schedule
    owner = np.full((n_strands, len(grid)), len(windows))
    frozen_u = stair_u.copy()
    for i, win in reversed(list(enumerate(windows))):
        inside = (win.t0 <= t) & (t <= win.t1)
        owner[win.strand, inside] = i
        frozen_u[win.strand, inside] = win.u(t[inside])
    frozen = _strand_slots(space, [itp.many(u) for itp, u in zip(interps, frozen_u)])

    for i, win in enumerate(windows):
        inside = (win.t0 <= t) & (t <= win.t1)
        moving = _padding(space, (block_rows + 1, len(grid), 3))
        moving[:, inside] = _pushed(interps[win.strand], s, (t[inside] - win.t0) / (win.t1 - win.t0), win.u0, win.u1)
        # every strand but the window's own as window i sees it: at b where
        # an earlier window has already contracted it
        seen = frozen.copy()
        seen[owner.T < i] = b
        seen[inside, win.strand] = _padding(space, ())
        seen = np.broadcast_to(seen, moving.shape[:2] + seen.shape[1:])
        blocks.append(_slots_block(space, grid, declared, np.concatenate([seen, moving], axis=2)))

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
