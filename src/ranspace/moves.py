"""Constructive loop contractions on configuration spaces.

The pieces, bottom up:

* ``extract_strands``: factor a configuration track through coordinate
  strands by greedy nearest matching between consecutive grid times,
  within a radius derived from the track's largest step; fails with
  AmbiguousBranching only where a branching point carries fewer strands
  than it has successors.
* ``normalize``: conjugate a loop onto a chosen basepoint, factor it into
  strands based there, and reschedule each strand so excursions away from
  the basepoint span the whole loop; returns the bundle and the homotopy
  from the input loop to the bundle's projection.
* ``contract_circle_generator``: an explicit grid homotopy contracting the
  one-turn circle loop to its basepoint through configurations of at most
  three points, based throughout; ``_pushed`` maps it pointwise through a
  strand.
* ``contract_pipeline``: the composite normalize -> staircase (strand j's
  windows inside [j/n, (j+1)/n], multi-turn circle strands split into
  one-turn factors: at most one strand is away from b at a time, so the
  stage's last row holds at most two points per cell) -> sequential
  per-window pushforward contractions, with the certificate
  ``tracks.certify`` reads from the stacked grid.

During a per-window contraction every other strand is frozen at the
basepoint, so the frozen strands contribute the single point b and the
total cardinality stays at most 3 + 1; that bound is what makes the
capped modes work and it is asserted by the certificate, never assumed.

Pipeline stages are sequential; cells within a stage are independent and
may be evaluated concurrently without changing any value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    AmbiguousBranching,
    EmptyConfiguration,
    EndpointMismatch,
    ModeViolation,
    UnsupportedDegree,
)
# dedup and hausdorff are unused here, but perfbench/tracer.py rebinds them here
from .ran import _padding, _slot_points, dedup, dedup_many, hausdorff
from .space import Circle, Point, Space
from .tracks import (
    LOOP_TOL,
    Homotopy,
    StrandBundle,
    StrandInterpolator,
    Track,
    ContractionCertificate,
    _distances,
    certify,
    check_continuity,
    circle_lift,
    nearest_sample,
    project,
    stack_homotopies,
    uniform_times,
    winding_number,
)

# the circle the one-turn contraction is drawn on, in unit parameter
_UNIT = Circle(1.0)

# -- modes --------------------------------------------------------------------


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


# -- strand extraction --------------------------------------------------------


def _match_step(dist: np.ndarray, radius: float) -> list:
    """Parent index for every child of a step, from the step's distance
    matrix dist[child, parent].

    Pairs are scanned in ascending (distance, child, parent) order; the
    first pass builds an injective matching within the radius, so a point
    passing close to another cannot steal its successor, and a second pass
    attaches each remaining child (a genuine branch) to its nearest parent.
    """
    pairs = sorted((d, qi, pi) for qi, row in enumerate(dist.tolist()) for pi, d in enumerate(row))
    parent = [-1] * len(dist)
    taken = set()
    for d, qi, pi in pairs:
        if d > radius:
            break
        if parent[qi] == -1 and pi not in taken:
            parent[qi] = pi
            taken.add(pi)
    for d, qi, pi in pairs:
        if parent[qi] == -1:
            parent[qi] = pi
    return parent


def extract_strands(track: Track) -> StrandBundle:
    """Factor a track through coordinate strands on its own grid.

    Strands are seeded round robin over the first configuration.  At each
    step the next configuration is matched to the previous one: first
    injectively, within four times the track's largest adjacent gap, so a
    split that coincides with a merge cannot pair points a jump apart;
    then each remaining child goes to its nearest parent, which is within
    the largest gap.  Strands sitting on a predecessor are distributed
    round robin over its successors, and strands on a vanishing point
    follow it to the nearest surviving point.  A branching point that
    carries fewer strands than it has successors raises AmbiguousBranching:
    such tracks admit no strand decomposition on this grid.  Every step's
    distances come from one distance_many call over adjacent columns of
    the grid; strands are gathered from it.
    """
    space = track.space
    n = track.cap
    radius = 4.0 * check_continuity(track, math.inf).max_gap + 1e-9
    enc = space.canon_many(track.enc[0])
    counts = track.counts[0].tolist()
    # steps[i, child, parent]: from point child of column i + 1 to point
    # parent of column i
    steps = space.distance_many(np.expand_dims(enc[1:], 2), np.expand_dims(enc[:-1], 1))
    # positions[i][j]: the slot of column i that strand j sits on
    positions = [[j % counts[0] for j in range(n)]]
    for i, dist in enumerate(steps):
        dist = dist[:counts[i + 1], :counts[i]]
        parent = _match_step(dist, radius)
        new_positions = [0] * n
        for p in range(counts[i]):
            holders = [j for j in range(n) if positions[i][j] == p]
            kids = [q for q, par in enumerate(parent) if par == p]
            if not kids:
                for j in holders:
                    new_positions[j] = int(np.argmin(dist[:, p]))
                continue
            if len(holders) < len(kids):
                raise AmbiguousBranching(
                    f"branch at t={track.times[i]} needs {len(kids)} strands "
                    f"but only {len(holders)} ride the branching point"
                )
            for k, j in enumerate(holders):
                new_positions[j] = kids[k % len(kids)]
        positions.append(new_positions)
    return StrandBundle.of_enc(space, track.times, track.enc[0, np.arange(len(counts))[:, None], positions])


# -- normalization ------------------------------------------------------------


def _block_cells(rows: int, grid: np.ndarray) -> tuple:
    """The cells (s, t) of a block of rows + 1 rows on the time grid, as a
    column of s and a row of t that broadcast to the block's shape."""
    return uniform_times(rows)[:, None], grid


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


def _block(space: Space, grid: np.ndarray, cap: int, kept: np.ndarray, counts: np.ndarray) -> Homotopy:
    """Homotopy block on the time grid from the padded encoding of its
    cells, shaped (rows, columns, slots) (then (edge, t) on graphs), and
    their point counts."""
    return Homotopy(space, cap, uniform_times(len(counts) - 1), grid, kept[:, :, :counts.max()], counts)


def _slots_block(space: Space, grid: np.ndarray, cap: int, enc: np.ndarray) -> Homotopy:
    """Block whose cells are dedup(space, pts, cap=cap) of the points in
    each cell's slots of a padded encoding, NaN slots skipped, from one
    dedup_many call; ModeViolation for a cell of more than cap points."""
    kept, counts = dedup_many(space, enc)
    if counts.min() < 1:
        raise EmptyConfiguration("a block cell has no point")
    if counts.max() > cap:
        raise ModeViolation(f"observed cardinality {counts.max()} exceeds mode cap {cap}")
    return _block(space, grid, cap, kept, counts)


def normalize(obj: Union[Track, StrandBundle], b: Point, rows: int = 8, m: int | None = None) -> tuple[StrandBundle, Homotopy]:
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
            return normalize(project(obj), b, rows=rows, m=m)
        grid = obj.times if m is None else uniform_times(m)
        if not obj.based_at(b):
            return _normalize_bundle(obj, b, rows, grid)
        out = obj if np.array_equal(obj.times, grid) else StrandBundle.of_enc(space, grid, obj.read(grid[None]))
        proj = project(out)
        return out, _block(space, grid, out.n, np.repeat(proj.enc, 2, axis=0), np.repeat(proj.counts, 2, axis=0))
    if obj.kind != "loop":
        raise EndpointMismatch("normalization needs a loop")
    grid = uniform_times(m if m is not None else len(obj.times) - 1)
    return _normalize_track(obj, b, rows, grid)


def _normalize_bundle(bundle: StrandBundle, b: Point, rows: int, grid: np.ndarray) -> tuple[StrandBundle, Homotopy]:
    """Conjugate each strand by the geodesic from b to its own basepoint."""
    space = bundle.space
    s, t = _block_cells(rows, grid)
    h1 = _slots_block(space, grid, bundle.n, bundle.read(_dwell_reads(s, t)[None]))

    on_connector, u = _conjugation_reads(s, t)
    enc = bundle.read(u[None])
    for j, start in enumerate(_slot_points(space, bundle.enc[0])):
        enc[on_connector, j] = space.geodesic_many(b, start, u[on_connector])
    h2 = _slots_block(space, grid, bundle.n, enc)
    return StrandBundle.of_enc(space, grid, enc[-1]), stack_homotopies([h1, h2])


def _normalize_track(track: Track, b: Point, rows: int, grid: np.ndarray) -> tuple[StrandBundle, Homotopy]:
    space = track.space
    n = track.cap
    m = len(grid) - 1
    sigma0 = _slot_points(space, track.enc[0, 0, :track.counts[0, 0]])
    # the point of the first configuration nearest b, the first on a tie
    pstar = sigma0[int(np.argmin(_distances(space, sigma0, b)))]
    s, t = _block_cells(rows, grid)

    # the reparametrization block reuses the input's cells without another
    # dedup: documents are only strictly sorted, not eps-separated
    reads = nearest_sample(track.times, _dwell_reads(s, t))
    h1 = _block(space, grid, n, track.enc[0, reads], track.counts[0, reads])

    # the conjugation block: loop cells read the input's cells; connector
    # cells read the path from b to pstar (one point), then from pstar out
    # to every point of the first configuration
    on_connector, u = _conjugation_reads(s, t)
    enc = track.enc[0, nearest_sample(track.times, u)]
    enc[on_connector] = _padding(space, enc.shape[2:3])
    to_pstar, fan = on_connector & (u <= 0.5), on_connector & (u > 0.5)
    enc[to_pstar, 0] = space.geodesic_many(b, pstar, 2.0 * u[to_pstar])
    for k, q in enumerate(sigma0):
        enc[fan, k] = space.geodesic_many(pstar, q, 2.0 * u[fan] - 1.0)
    h2 = _slots_block(space, grid, n, enc)
    bundle = extract_strands(h2.row(-1))

    # excursion rescheduling: stretch each strand's span away from b over
    # the whole loop, so splits and rejoins happen only at the base time
    far = _distances(space, bundle.enc, b) > LOOP_TOL
    spans = [(grid[max(away[0] - 1, 0)], grid[min(away[-1] + 1, m)]) if len(away) else (0.0, 1.0)
             for away in map(np.flatnonzero, far.T)]
    t0, t1 = np.array(spans).T[:, :, None, None]
    enc = bundle.read((1.0 - s) * t + s * (t0 + t * (t1 - t0)))
    h3 = _slots_block(space, grid, n, enc)
    return StrandBundle.of_enc(space, grid, enc[-1]), stack_homotopies([h1, h2, h3])


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


def _lap_cuts(space: Space, strand: np.ndarray, times: np.ndarray) -> list:
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
        cuts = _lap_cuts(space, bundle.enc[:, j], bundle.times)
        k = len(cuts) - 1
        for lap in range(k):
            t0 = j / n + lap / (k * n)
            t1 = j / n + (lap + 1) / (k * n)
            windows.append(_SubWindow(j, t0, t1, cuts[lap], cuts[lap + 1]))
    return windows


def _window_reads(windows: list, n: int, t: np.ndarray) -> tuple:
    """Strand j at the times t, from one pass over the windows: owner[j],
    its first window holding each time (len(windows) if none); stair[j],
    its parameter on the windowed schedule (0 before its first window, 1
    after its last, else the owner's or 1); frozen[j], the owner's
    parameter where there is an owner, else stair[j]."""
    owner = np.full((n, len(t)), len(windows))
    u = np.ones((n, len(t)))
    for i, win in reversed(list(enumerate(windows))):
        inside = (win.t0 <= t) & (t <= win.t1)
        owner[win.strand, inside] = i
        u[win.strand, inside] = win.u(t[inside])
    first = np.array([min(w.t0 for w in windows if w.strand == j) for j in range(n)])
    last = np.array([max(w.t1 for w in windows if w.strand == j) for j in range(n)])
    stair = np.where(t <= first[:, None], 0.0, np.where(t >= last[:, None], 1.0, u))
    return owner, stair, np.where(owner < len(windows), u, stair)


def contract_pipeline(
    obj: Union[Track, StrandBundle],
    mode: PipelineMode,
    b: Point,
    resolution: tuple = (48, 128),
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

    bundle, h_norm = normalize(obj, b, rows=max(2, r // 6), m=m)
    windows = _schedule(space, bundle)
    block_rows = max(2, r // (2 + len(windows)))

    # staircase block: slide from the identity schedule to the windowed
    # one (one-turn splitting rides on the same reparametrization)
    s, t = _block_cells(block_rows, grid)
    owner, stair_u, frozen_u = _window_reads(windows, bundle.n, t)
    h_stair = _slots_block(space, grid, bundle.n, bundle.read((1.0 - s) * t + s * stair_u[:, None]))
    frozen = bundle.read(frozen_u)

    declared = mode.declared_cap
    blocks = [h_norm, h_stair]
    for i, win in enumerate(windows):
        inside = (win.t0 <= t) & (t <= win.t1)
        moving = _padding(space, (block_rows + 1, len(grid), 3))
        moving[:, inside] = _pushed(bundle.interpolators[win.strand], s, (t[inside] - win.t0) / (win.t1 - win.t0), win.u0, win.u1)
        # every strand but the window's own as window i sees it: at b where
        # an earlier window has already contracted it
        seen = frozen.copy()
        seen[owner.T < i] = b
        seen[inside, win.strand] = _padding(space, ())
        seen = np.broadcast_to(seen, moving.shape[:2] + seen.shape[1:])
        blocks.append(_slots_block(space, grid, declared, np.concatenate([seen, moving], axis=2)))

    homotopy = stack_homotopies(blocks)
    names = ["normalize", "staircase"] + [f"contract-window-{i}" for i in range(len(windows))]
    rows = np.cumsum([0] + [block.rows - 1 for block in blocks]).tolist()
    return homotopy, certify(homotopy, zip(names, rows, rows[1:]), b)

