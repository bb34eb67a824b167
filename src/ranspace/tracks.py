"""Discretized paths, loops, strand bundles and homotopies.

A Homotopy is a grid of configurations, one CellGrid, whose rows are
tracks.  A Track samples a map [0,1] -> (finite subsets of X) on a
strictly increasing time grid with t0 = 0 and tm = 1: it is the homotopy
of one row at s = 0, and a loop when its first and last configurations
coincide.  A StrandBundle samples n coordinate paths on a shared grid;
its per-time union is its projected track.

Continuity is never verified exactly (undecidable from samples); instead
``check_continuity`` certifies that adjacent grid cells stay within a
caller-supplied modulus.  Branch and merge detection uses a discrete
surrogate with a fixed radius and lookahead window, both caller-supplied,
because the neighborhood quantifiers of the continuous definitions are not
decidable from samples.

All values are immutable and operations pure.  Grid-cell work (continuity
checks) is a max-reduction, so any parallel schedule yields the identical
report.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguousLift, EndpointMismatch, SpaceMismatch
# dedup is unused here, but perfbench/tracer.py rebinds it here
from .ran import _dedup_lists, _pad_encode, _padding, as_configurations, batch_hausdorff, dedup, hausdorff
from .space import Circle, GraphPoint, Interval, MetricGraph, Point, Space

LOOP_TOL = 1e-9


def uniform_times(m: int) -> tuple:
    return tuple(i / m for i in range(m + 1))


def nearest_sample(times: Sequence[float], t: np.ndarray) -> np.ndarray:
    """Index of the sample of the increasing grid times nearest to each t
    of an array, a tie going to the earlier sample; times outside the grid
    clamp to its ends."""
    times = np.asarray(times, dtype=float)
    k = np.clip(np.searchsorted(times, t, side="right"), 1, len(times) - 1)
    return np.where(t - times[k - 1] <= times[k] - t, k - 1, k)


def _validate_times(times: Sequence[float]) -> tuple:
    times = tuple(float(t) for t in times)
    if len(times) < 2:
        raise ValueError("need at least two grid times")
    if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
        raise ValueError("time grid must run from 0 to 1")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("time grid must be strictly increasing")
    return times


def _distances(space: Space, points: Sequence[Point], to) -> np.ndarray:
    """The distance from each of points to to, one point or as many points,
    from one distance_many call on their canonical encodings."""
    return space.distance_many(*(space.canon_many(np.array(x, dtype=float)) for x in (points, to)))


def make_track(space: Space, times: Sequence[float], point_lists: Sequence[Sequence[Point]], cap: int, kind: str = "path") -> Track:
    """The track of the deduplicated point lists; kind only checks (see
    Track.declared)."""
    return Track.of_row(space, cap, times, *_dedup_lists(space, point_lists, cap)).declared(kind)


@dataclass(frozen=True)
class StrandBundle:
    space: Space
    times: tuple
    strands: tuple  # n strands, each a tuple of points, one per time

    def __post_init__(self):
        object.__setattr__(self, "times", _validate_times(self.times))
        if len(self.strands) == 0:
            raise ValueError("a bundle needs at least one strand")
        for s in self.strands:
            if len(s) != len(self.times):
                raise ValueError("each strand needs one point per grid time")

    @property
    def n(self) -> int:
        return len(self.strands)

    def is_loop(self) -> bool:
        return bool((_distances(self.space, [s[0] for s in self.strands], [s[-1] for s in self.strands]) <= LOOP_TOL).all())

    def based_at(self, b: Point) -> bool:
        return bool((_distances(self.space, [p for s in self.strands for p in (s[0], s[-1])], b) <= LOOP_TOL).all())

    def interpolator(self, j: int) -> "StrandInterpolator":
        return StrandInterpolator(self.space, self.times, self.strands[j])


def project(bundle: StrandBundle) -> Track:
    """Per-time union of strand values, deduplicated; cap = strand count; a
    loop when its ends coincide, even if strands swap ends."""
    return make_track(bundle.space, bundle.times, [[s[i] for s in bundle.strands] for i in range(len(bundle.times))], bundle.n)


# -- strand evaluation -------------------------------------------------------


def circle_lift(circ: Circle, points: Sequence[float]) -> np.ndarray:
    """The lift of a circle strand: its first canonical point, then each
    step's signed displacement along the shorter arc, added in order.

    Raises AmbiguousLift when a step's arc reaches half the circumference,
    where the lift direction is undefined.
    """
    c = circ.circumference
    x = circ.canon_many(np.asarray(points, dtype=float))
    raw = np.remainder(x[1:] - x[:-1], c)
    arc = np.minimum(raw, c - raw)
    if (arc >= c / 2.0 - 1e-15 * c).any():
        raise AmbiguousLift(f"step of arc length {arc[arc >= c / 2.0 - 1e-15 * c][0]} with circumference {c}")
    return np.cumsum(np.concatenate([x[:1], np.where(raw <= c / 2.0, raw, raw - c)]))


class StrandInterpolator:
    """Evaluate one strand at arbitrary times.

    Circle and interval strands interpolate exactly (circle via the unique
    small-step lift); graph strands snap to the nearest grid sample, which
    keeps values on the sampled image and adds at most one grid step of
    slack to any continuity bound.
    """

    def __init__(self, space: Space, times: Sequence[float], points: Sequence[Point]):
        self.space = space
        self.times = np.asarray(times, dtype=float)
        self.lifts = None
        if isinstance(space, Circle):
            self.lifts = circle_lift(space, points)
        elif isinstance(space, Interval):
            self.lifts = space.canon_many(np.asarray(points, dtype=float))
        else:
            self.enc = np.array(points, dtype=float)

    def many(self, ts) -> np.ndarray:
        """The strand at every time of an array, as cell slots (see
        ran._pad): coordinates, or (edge, t) pairs on graphs; a NaN time
        gives a padding slot."""
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
        if self.lifts is not None:
            return self.space.canon_many(np.interp(ts, self.times, self.lifts))
        out = self.enc[nearest_sample(self.times, ts)]
        out[np.isnan(ts)] = _padding(self.space, ())
        return out


def _slot_points(space: Space, values: np.ndarray) -> tuple:
    """The points of a 1-D array of cell slots, such as a strand's values
    from StrandInterpolator.many."""
    if isinstance(space, MetricGraph):
        return tuple(map(GraphPoint, values[:, 0].astype(np.intp).tolist(), values[:, 1].tolist()))
    return tuple(values.tolist())


# -- continuity certification -------------------------------------------------


@dataclass(frozen=True)
class ContinuityReport:
    max_gap: float
    ds: float
    dt: float
    lipschitz: float
    max_cardinality: int
    bound: float
    passed: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True, eq=False)
class CellGrid:
    """A grid of configurations as arrays: the padded encoding (see ran._pad)
    of every cell, shaped (rows, cols, width) or (rows, cols, width, 2) on
    graphs, and each cell's point count.

    Row i sits at deformation time s_grid[i] and column k at t_grid[k]; a
    track is one row at s = 0.  Points are canonical and each cell's are
    strictly sorted.  cap is the declared cap, which the grid records but
    does not enforce, so a reader can report a cell above it.  A time grid
    not from 0 to 1, an s grid not increasing or a ragged grid: ValueError.
    """

    space: Space
    cap: int
    s_grid: np.ndarray
    t_grid: np.ndarray
    enc: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        _validate_times(self.t_grid.tolist())
        if len(self.s_grid) != len(self.counts):
            raise ValueError("one row of cells per deformation sample")
        if not (np.diff(self.s_grid) > 0).all():
            raise ValueError("deformation grid must be strictly increasing")
        if self.counts.shape != (len(self.s_grid), len(self.t_grid)) or self.enc.shape[:2] != self.counts.shape:
            raise ValueError("ragged homotopy grid")

    @classmethod
    def encode(cls, space: Space, cap: int, s_grid, t_grid, rows) -> CellGrid:
        """The grid of rows of Configurations, one row per s_grid sample."""
        if any(len(row) != len(t_grid) for row in rows):
            raise ValueError("ragged homotopy grid")
        cells = [c for row in rows for c in row]
        shape = (len(rows), len(t_grid))
        enc = _pad_encode(space, cells)
        counts = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
        return cls(space, cap, np.asarray(s_grid, dtype=float), np.asarray(t_grid, dtype=float),
                   enc.reshape(shape + enc.shape[1:]), counts.reshape(shape))

    def max_cardinality(self, first: int, last: int) -> int:
        """The largest cell of rows first to last: a stage's cardinality."""
        return int(self.counts[first:last + 1].max())


def endpoint_drift(grid: CellGrid) -> float:
    """How far the grid's first and last columns drift from row 0: the
    largest Hausdorff distance of a cell there from row 0's cell."""
    ends = grid.enc[:, [0, -1]]
    return float(batch_hausdorff(grid.space, ends, ends[:1]).max())


def _gap_blocks(space: Space, enc: np.ndarray, cells: int = 1 << 15):
    """Hausdorff gaps of adjacent cells in blocks of rows of about `cells`
    cells, so that no pair array spans a large grid: (first row, gaps to
    the next column, gaps to the next row, none from the last row)."""
    rows, cols = enc.shape[:2]
    step = max(1, cells // cols)
    for first in range(0, rows, step):
        stop, down_stop = min(first + step, rows), min(first + step, rows - 1)
        yield (first, batch_hausdorff(space, enc[first:stop, :-1], enc[first:stop, 1:]),
               batch_hausdorff(space, enc[first:down_stop], enc[first + 1:down_stop + 1]))


def check_continuity(obj, bound: float) -> ContinuityReport:
    """Certify that adjacent grid cells stay within bound * grid step.

    Accepts a CellGrid or a Homotopy, a Track included (its grid).  The
    report passes iff the maximum adjacent-cell gap is at most
    bound * max(ds, dt).
    """
    grid = obj if isinstance(obj, CellGrid) else obj.grid
    s_steps, t_steps = np.diff(grid.s_grid), np.diff(grid.t_grid)
    ds = float(s_steps.max()) if len(s_steps) else 0.0
    dt = float(t_steps.max())
    max_card = int(grid.counts.max())
    tops = [(gaps.max(), (gaps / step).max()) for first, across, down in _gap_blocks(grid.space, grid.enc)
            for gaps, step in ((across, t_steps), (down, s_steps[first:first + len(down), None])) if gaps.size]
    max_gap, lips = (float(np.max(column)) for column in zip(*tops))
    return ContinuityReport(max_gap, ds, dt, lips, max_card, bound, within_bound(max_gap, ds, dt, bound))


def within_bound(max_gap: float, ds: float, dt: float, bound: float) -> bool:
    """The continuity criterion: max gap at most bound * max(ds, dt)."""
    return max_gap <= bound * max(ds, dt)


def first_gap_over(grid: CellGrid, limit: float) -> tuple | None:
    """The first adjacent pair of cells, in row-major order, whose gap
    exceeds limit: (row, column, "across" to the next column or "down" to
    the next row), a horizontal pair first on a tie; None if no pair does."""
    for first, across, down in _gap_blocks(grid.space, grid.enc):
        hits = [(first + int(i), int(k), way) for gaps, way in ((across, "across"), (down, "down"))
                for i, k in np.argwhere(gaps > limit)[:1]]
        if hits:
            return min(hits)
    return None


# -- homotopies ---------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class Homotopy:
    """Grid of configurations stored as one CellGrid: rows are tracks, row 0
    the source, the last row the target.  check_continuity reports
    cardinality and adjacent-cell gaps, and endpoint_drift how far the
    endpoint columns drift from the source row.

    Homotopy(space, s_grid, t_grid, cells, cap) encodes rows of
    Configurations; from_grid wraps a grid as is.  cells, the rows as
    Configurations, is built on first access.
    """

    grid: CellGrid

    def __init__(self, space: Space, s_grid: Sequence[float], t_grid: Sequence[float], cells, cap: int):
        grid = CellGrid.encode(space, cap, tuple(s_grid), tuple(t_grid), tuple(map(tuple, cells)))
        object.__setattr__(self, "grid", _checked(grid))

    @classmethod
    def from_grid(cls, grid: CellGrid) -> Homotopy:
        h = cls.__new__(cls)
        object.__setattr__(h, "grid", _checked(grid))
        return h

    @property
    def space(self) -> Space:
        return self.grid.space

    @property
    def cap(self) -> int:
        return self.grid.cap

    @property
    def s_grid(self) -> tuple:
        return tuple(self.grid.s_grid.tolist())

    @property
    def t_grid(self) -> tuple:
        return tuple(self.grid.t_grid.tolist())

    @property
    def rows(self) -> int:
        return len(self.grid.counts)

    @functools.cached_property
    def cells(self) -> tuple:
        """Rows of Configuration tuples, of the grid's cap."""
        grid = self.grid
        return tuple(tuple(as_configurations(grid.space, enc, counts, grid.cap)) for enc, counts in zip(grid.enc, grid.counts))

    def row(self, i: int) -> Track:
        return Track.of_row(self.space, self.cap, self.grid.t_grid, self.grid.enc[i], self.grid.counts[i])


class Track(Homotopy):
    """A homotopy of one row at s = 0 on the time grid times; its configs
    and kind are read from the grid.  from_grid refuses more rows."""

    def __init__(self, space: Space, times: Sequence[float], configs, cap: int):
        super().__init__(space, (0.0,), times, (configs,), cap)

    @classmethod
    def from_grid(cls, grid: CellGrid) -> Track:
        if len(grid.counts) != 1:
            raise ValueError(f"a track is one row of cells, not {len(grid.counts)}")
        return super().from_grid(grid)

    @classmethod
    def of_row(cls, space: Space, cap: int, times, enc: np.ndarray, counts: np.ndarray) -> Track:
        """The track of one encoded row of cells (see ran._pad), trimmed to
        its widest cell."""
        return cls.from_grid(CellGrid(space, cap, np.zeros(1), np.asarray(times, dtype=float),
                                      enc[None, :, :counts.max()], counts[None]))

    @functools.cached_property
    def times(self) -> tuple:
        return self.t_grid

    @property
    def configs(self) -> tuple:
        return self.cells[0]

    def end_gap(self) -> float:
        """The Hausdorff distance of the first and the last cell."""
        return float(batch_hausdorff(self.space, self.grid.enc[0, :1], self.grid.enc[0, -1:])[0])

    @property
    def kind(self) -> str:
        return "loop" if self.end_gap() <= LOOP_TOL else "path"

    def declared(self, kind: str) -> Track:
        """self, once it is of the declared kind: a "loop" must close
        (EndpointMismatch), a "path" may; any other kind is a ValueError."""
        if kind not in ("path", "loop"):
            raise ValueError("kind must be 'path' or 'loop'")
        if kind == "loop" and self.kind != "loop":
            raise EndpointMismatch(f"loop fails to close: gap {self.end_gap()}")
        return self


def _checked(grid: CellGrid) -> CellGrid:
    """grid, once no cell exceeds its cap; else ValueError."""
    biggest = int(grid.counts.max())
    if biggest > grid.cap:
        raise ValueError(f"cell of size {biggest} exceeds cap {grid.cap}")
    return grid


def stack_homotopies(blocks: Sequence[Homotopy]) -> Homotopy:
    """Concatenate homotopy blocks in the deformation direction.

    Blocks must share space, cap and time grid, and each block's first row
    must repeat the previous block's last row; the duplicate seams are
    dropped.  The encodings are padded to the widest block.  The output s
    grid is uniform.
    """
    grids = [b.grid for b in blocks]
    space = grids[0].space
    for prev, nxt in zip(grids, grids[1:]):
        if nxt.space != prev.space or not np.array_equal(nxt.t_grid, prev.t_grid):
            raise SpaceMismatch("homotopy blocks disagree on space or grid")
        seam = float(batch_hausdorff(space, prev.enc[-1], nxt.enc[0]).max())
        if seam > LOOP_TOL:
            raise EndpointMismatch(f"homotopy blocks fail to chain: seam gap {seam}")
    parts = [grids[0].enc] + [g.enc[1:] for g in grids[1:]]
    counts = np.concatenate([grids[0].counts] + [g.counts[1:] for g in grids[1:]])
    enc = _padding(space, counts.shape + (max(p.shape[2] for p in parts),))
    row = 0
    for part in parts:
        enc[row:row + len(part), :, :part.shape[2]] = part
        row += len(part)
    s_grid = np.asarray(uniform_times(len(counts) - 1))
    cap = max(g.cap for g in grids)
    return Homotopy.from_grid(CellGrid(space, cap, s_grid, grids[0].t_grid, enc, counts))


# -- branch and merge detection ----------------------------------------------


def detect_branch_merge(track: Track, radius: float, lookahead: int):
    """Discrete surrogate for branch and merge points.

    A point p of config(t_i) is a branch when its radius ball holds exactly
    one point of config(t_i) but at least two points of config(t_{i+k}) for
    some k <= lookahead; a merge symmetrically with t_{i-k}.  Returns
    (time index, point, kind) triples in grid order, a branch before a
    merge at the same point.  Each offset k takes one distance_many call
    between the columns k apart, read both ways.
    """
    if radius <= 0 or lookahead < 1:
        raise ValueError("radius must be positive and lookahead at least 1")
    space = track.space
    enc = space.canon_many(track.grid.enc[0])
    cols = len(enc)

    def within(k: int) -> np.ndarray:
        # [i, a, b]: point a of column i within radius of point b of column
        # i + k; a NaN padding slot is within no radius
        return space.distance_many(np.expand_dims(enc[:cols - k], 2), np.expand_dims(enc[k:], 1)) <= radius

    alone = within(0).sum(axis=-1) == 1
    branch, merge = np.zeros_like(alone), np.zeros_like(alone)
    for k in range(1, min(lookahead, cols - 1) + 1):
        near = within(k)
        branch[:cols - k] |= near.sum(axis=-1) >= 2
        merge[k:] |= near.sum(axis=-2) >= 2
    out = []
    for i, a in np.argwhere(alone & (branch | merge)).tolist():
        p = track.configs[i].points[a]
        out.extend((i, p, kind) for kind, hit in (("branch", branch), ("merge", merge)) if hit[i, a])
    return out


# -- winding numbers ----------------------------------------------------------


def winding_number(circ: Circle, strand: Sequence[float]) -> int:
    """Total signed lifted displacement over the circumference, rounded.

    The strand must close up and every step must stay under half the
    circumference so the lift is unambiguous.
    """
    if not isinstance(circ, Circle):
        raise SpaceMismatch("winding numbers need a circle space")
    lifts = circle_lift(circ, strand)
    w = (lifts[-1] - lifts[0]) / circ.circumference
    if abs(w - round(w)) > 1e-6:
        raise ValueError(f"strand does not close into a loop: winding {w}")
    return int(round(w))


def singleton_strand(track: Track) -> list:
    """The per-time points of a track whose configurations are singletons."""
    if (track.grid.counts != 1).any():
        raise ValueError("track has non-singleton configurations")
    return list(_slot_points(track.space, track.grid.enc[0, :, 0]))


# -- path algebra -------------------------------------------------------------


def concatenate(a: Track, b: Track) -> Track:
    """Run a on [0, 1/2] and b on [1/2, 1]; junction configs must agree."""
    if a.space != b.space:
        raise SpaceMismatch("concatenating tracks over different spaces")
    gap = hausdorff(a.space, a.configs[-1], b.configs[0])
    if gap > LOOP_TOL:
        raise EndpointMismatch(f"junction gap {gap} exceeds tolerance {LOOP_TOL}")
    times = tuple(t / 2 for t in a.times) + tuple(0.5 + t / 2 for t in b.times[1:])
    return Track(a.space, times, a.configs + b.configs[1:], max(a.cap, b.cap))


def reverse(a: Track) -> Track:
    return Track.of_row(a.space, a.cap, 1.0 - a.grid.t_grid[::-1], a.grid.enc[0, ::-1], a.grid.counts[0, ::-1])


def conjugate(gamma: Track, sigma: Track) -> Track:
    """gamma . sigma . gamma^(-1): a loop based at gamma(0)."""
    if sigma.kind != "loop":
        raise EndpointMismatch("conjugation needs a loop")
    return concatenate(concatenate(gamma, sigma), reverse(gamma))


def resample(track: Track, new_times: Sequence[float]) -> Track:
    """Carry each new time to the nearest original sample (ties earlier)."""
    k = nearest_sample(track.grid.t_grid, np.asarray(new_times, dtype=float))
    return Track.of_row(track.space, track.cap, new_times, track.grid.enc[0, k], track.grid.counts[0, k])
