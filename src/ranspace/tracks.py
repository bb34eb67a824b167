"""Discretized paths, loops, strand bundles and homotopies.

A Homotopy is its grid of configurations: the padded encoding of every
cell and each cell's point count, whose rows are tracks.  A Track samples
a map [0,1] -> (finite subsets of X) on a strictly increasing time grid
with t0 = 0 and tm = 1: it is the homotopy of one row at s = 0, and a
loop when its first and last configurations coincide.  A StrandBundle
samples n coordinate paths on a shared grid; its per-time union is its
projected track.  Every operation here reads and builds these arrays;
the Configuration views (Homotopy.cells, Track.configs) are for callers
and nothing here reads them.  A homotopy records its declared cap without
enforcing it: the builders here never exceed it, and Homotopy.capped
checks it on outside input (the document readers and Homotopy.of_cells).

Continuity is never verified exactly (undecidable from samples); instead
``check_continuity`` certifies that adjacent grid cells stay within a
caller-supplied modulus.

All values are immutable and operations pure.  Grid-cell work (continuity
checks) is a max-reduction over the row blocks of ``ran.blocks``, so any
parallel schedule yields the identical report.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguousLift, EndpointMismatch, InvalidPoint, SpaceMismatch
# dedup and hausdorff are unused here, but perfbench/tracer.py rebinds them here
from .ran import Configuration, _dedup_lists, _pad_lists, _padding, _slot_points, batch_hausdorff, blocks, dedup, dedup_many, hausdorff
from .space import Circle, Interval, MetricGraph, Point, Space, _remainder

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


def runs_from_0_to_1(times) -> bool:
    """A grid's first time is 0 and its last 1, each within 1e-12."""
    return abs(times[0]) <= 1e-12 and abs(times[-1] - 1.0) <= 1e-12


def _validate_times(times: Sequence[float]) -> tuple:
    times = tuple(float(t) for t in times)
    if len(times) < 2:
        raise ValueError("need at least two grid times")
    if not runs_from_0_to_1(times):
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


@dataclass(frozen=True, eq=False, init=False)
class StrandBundle:
    """n strands on a time grid as one canonical array: enc[k] encodes (see
    ran._pad) the strands at times[k], strand j in slot j, shaped (m + 1, n)
    or (m + 1, n, 2) on graphs.  StrandBundle(space, times, strands) takes
    n point sequences (InvalidPoint for a point off the space or NaN), and
    strands gives them back canonical.  A bundle compares by identity."""

    space: Space
    times: tuple
    enc: np.ndarray

    def __init__(self, space: Space, times: Sequence[float], strands: Sequence[Sequence[Point]]):
        times = _validate_times(times)
        if len(strands) == 0 or any(len(s) != len(times) for s in strands):
            raise ValueError("a bundle needs at least one strand, each with one point per grid time")
        try:
            enc = np.swapaxes(np.array(strands, dtype=float), 0, 1)
        except (TypeError, ValueError) as exc:
            raise InvalidPoint(f"a strand does not live on {space!r}") from exc
        if enc.shape[2:] != ((2,) if isinstance(space, MetricGraph) else ()) or not np.isfinite(enc).all():
            raise InvalidPoint(f"a strand point is NaN or does not live on {space!r}")
        for name, value in (("space", space), ("times", times), ("enc", np.ascontiguousarray(space.canon_many(enc)))):
            object.__setattr__(self, name, value)

    @classmethod
    def of_enc(cls, space: Space, times: Sequence[float], enc: np.ndarray) -> StrandBundle:
        """The bundle of an encoding laid out as enc, such as a block's last
        row of strand slots."""
        return cls(space, times, np.swapaxes(enc, 0, 1))

    @property
    def n(self) -> int:
        return self.enc.shape[1]

    @property
    def strands(self) -> tuple:
        return tuple(_slot_points(self.space, self.enc[:, j]) for j in range(self.n))

    def is_loop(self) -> bool:
        return bool((self.space.distance_many(self.enc[0], self.enc[-1]) <= LOOP_TOL).all())

    def based_at(self, b) -> bool:
        """Every strand starts and ends at b, a point or its encoding."""
        return bool((_distances(self.space, self.enc[[0, -1]], b) <= LOOP_TOL).all())

    @functools.cached_property
    def interpolators(self) -> tuple:
        """One StrandInterpolator per strand, built on first use."""
        return tuple(StrandInterpolator(self.space, self.times, self.enc[:, j]) for j in range(self.n))

    def read(self, u) -> np.ndarray:
        """Strand j at the parameters u[j], u's leading axis broadcast over
        the strands, as a block's padded slot encoding: strand j in slot j,
        shaped u.shape[1:] + (n,) (then (edge, t) on graphs)."""
        u = np.broadcast_to(u, (self.n,) + np.shape(u)[1:])
        return np.stack([itp.many(x) for itp, x in zip(self.interpolators, u)],
                        axis=-2 if isinstance(self.space, MetricGraph) else -1)


def project(bundle: StrandBundle) -> Track:
    """Per-time union of strand values, deduplicated, from one dedup_many
    call on the bundle's encoding; cap = strand count; a loop when its ends
    coincide, even if strands swap ends."""
    return Track.of_row(bundle.space, bundle.n, bundle.times, *dedup_many(bundle.space, bundle.enc))


# -- strand evaluation -------------------------------------------------------


def circle_lift(circ: Circle, points: Sequence[float]) -> np.ndarray:
    """The lift of a circle strand: its first canonical point, then each
    step's signed displacement along the shorter arc, added in order.

    Raises AmbiguousLift when a step's arc reaches half the circumference,
    where the lift direction is undefined.
    """
    c = circ.circumference
    x = circ.canon_many(np.asarray(points, dtype=float))
    raw = _remainder(x[1:] - x[:-1], c)
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


def endpoint_drift(h: Homotopy) -> float:
    """How far h's first and last columns drift from row 0: the largest
    Hausdorff distance of a cell there from row 0's cell."""
    ends = h.enc[:, [0, -1]]
    return float(batch_hausdorff(h.space, ends, ends[:1]).max())


@dataclass(frozen=True)
class ContractionCertificate:
    """What a contraction claims of its grid; io types a stored one by these annotations."""

    max_cardinality: int
    declared_cap: int
    max_gap: float
    ds: float
    dt: float
    lipschitz: float
    endpoint_drift: float
    target_constancy: float | None
    source: str
    target: str
    stages: tuple  # of (name, first row, last row, stage max cardinality)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def certify(h: Homotopy, stages: Sequence[tuple], b: Point | None = None) -> ContractionCertificate:
    """The certificate of h, from its cells: check_continuity at no bound,
    endpoint_drift, h's cap as the declared cap, and each (name, first
    row, last row) stage with the largest cell of its rows.  Its
    target_constancy is the largest distance of a last-row cell from {b},
    None without b."""
    report = check_continuity(h, math.inf)
    constancy = None if b is None else float(batch_hausdorff(h.space, h.enc[-1], _pad_lists(h.space, [[b]])).max())
    return ContractionCertificate(
        report.max_cardinality, h.cap, report.max_gap, report.ds, report.dt, report.lipschitz, endpoint_drift(h),
        constancy, "input loop resampled", "constant basepoint configuration",
        tuple((name, first, last, h.max_cardinality(first, last)) for name, first, last in stages),
    )


def _gap_blocks(space: Space, enc: np.ndarray):
    """Hausdorff gaps of adjacent cells in the row blocks of ran.blocks, so
    that no pair array spans a large grid: (first row, gaps to the next
    column, gaps to the next row, none from the last row)."""
    rows, cols = enc.shape[:2]
    for first, stop in blocks(rows, cols):
        down_stop = min(stop, rows - 1)
        yield (first, batch_hausdorff(space, enc[first:stop, :-1], enc[first:stop, 1:]),
               batch_hausdorff(space, enc[first:down_stop], enc[first + 1:down_stop + 1]))


def check_continuity(h: Homotopy, bound: float) -> ContinuityReport:
    """Certify that adjacent cells of h, a Track included, stay within
    bound * grid step.  The report passes iff the maximum adjacent-cell
    gap is at most bound * max(ds, dt).
    """
    s_steps, t_steps = np.diff(h.s_grid), np.diff(h.t_grid)
    ds = float(s_steps.max()) if len(s_steps) else 0.0
    dt = float(t_steps.max())
    max_card = int(h.counts.max())
    tops = [(gaps.max(), (gaps / step).max()) for first, across, down in _gap_blocks(h.space, h.enc)
            for gaps, step in ((across, t_steps), (down, s_steps[first:first + len(down), None])) if gaps.size]
    max_gap, lips = (float(np.max(column)) for column in zip(*tops))
    return ContinuityReport(max_gap, ds, dt, lips, max_card, bound, within_bound(max_gap, ds, dt, bound))


def within_bound(max_gap: float, ds: float, dt: float, bound: float) -> bool:
    """The continuity criterion: max gap at most bound * max(ds, dt)."""
    return max_gap <= bound * max(ds, dt)


def first_gap_over(h: Homotopy, limit: float) -> tuple | None:
    """The first adjacent pair of cells, in row-major order, whose gap
    exceeds limit: (row, column, "across" to the next column or "down" to
    the next row), a horizontal pair first on a tie; None if no pair does."""
    for first, across, down in _gap_blocks(h.space, h.enc):
        hits = [(first + int(i), int(k), way) for gaps, way in ((across, "across"), (down, "down"))
                for i, k in np.argwhere(gaps > limit)[:1]]
        if hits:
            return min(hits)
    return None


# -- homotopies ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Homotopy:
    """A grid of configurations as arrays: the padded encoding (see ran._pad)
    of every cell, shaped (rows, cols, width) or (rows, cols, width, 2) on
    graphs, and each cell's point count.  Rows are tracks, row 0 the
    source, the last row the target.

    Row i sits at deformation time s_grid[i] and column k at t_grid[k].
    Points are canonical and each cell's are strictly sorted.  cap is the
    declared cap, which the homotopy records but does not enforce, so a
    reader can report a cell above it; capped is the check that the
    document readers and of_cells run where outside input enters.  A time
    grid not from 0 to 1, an s grid not increasing or a ragged grid:
    ValueError.

    check_continuity reports cardinality and adjacent-cell gaps, and
    endpoint_drift how far the endpoint columns drift from the source row.
    of_cells, from rows of Configurations, and cells, the rows as
    Configurations built on first access, are conveniences for callers
    that want Configurations.
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
    def of_cells(cls, space: Space, s_grid: Sequence[float], t_grid: Sequence[float], cells, cap: int) -> Homotopy:
        """The homotopy of rows of Configurations; ValueError for a cell
        above cap."""
        rows = tuple(map(tuple, cells))
        if any(len(row) != len(t_grid) for row in rows):
            raise ValueError("ragged homotopy grid")
        counts = np.array([[len(c) for c in row] for row in rows], dtype=np.intp)
        enc = _pad_lists(space, [c.points for row in rows for c in row])
        return cls(space, cap, np.asarray(s_grid, dtype=float), np.asarray(t_grid, dtype=float),
                   enc.reshape(counts.shape + enc.shape[1:]), counts).capped()

    @property
    def rows(self) -> int:
        return len(self.counts)

    def max_cardinality(self, first: int, last: int) -> int:
        """The largest cell of rows first to last: a stage's cardinality."""
        return int(self.counts[first:last + 1].max())

    def capped(self) -> Homotopy:
        """self, once no cell exceeds the declared cap; else ValueError."""
        biggest = self.max_cardinality(0, self.rows - 1)
        if biggest > self.cap:
            raise ValueError(f"cell of size {biggest} exceeds cap {self.cap}")
        return self

    @functools.cached_property
    def cells(self) -> tuple:
        """Rows of Configuration tuples, of the homotopy's cap."""
        return tuple(tuple(Configuration(_slot_points(self.space, cell[:k]), self.cap) for cell, k in zip(enc, counts.tolist()))
                     for enc, counts in zip(self.enc, self.counts))

    def row(self, i: int) -> Track:
        return Track.of_row(self.space, self.cap, self.t_grid, self.enc[i], self.counts[i])


class Track(Homotopy):
    """A homotopy of one row at s = 0 on the time grid times; its kind is
    read from the cells, and more rows are a ValueError.  configs, row 0
    as Configurations, is a convenience as Homotopy.cells is."""

    def __post_init__(self):
        super().__post_init__()
        if self.rows != 1:
            raise ValueError(f"a track is one row of cells, not {self.rows}")

    @classmethod
    def of_row(cls, space: Space, cap: int, times, enc: np.ndarray, counts: np.ndarray) -> Track:
        """The track of one encoded row of cells (see ran._pad), trimmed to
        its widest cell."""
        return cls(space, cap, np.zeros(1), np.asarray(times, dtype=float), enc[None, :, :counts.max()], counts[None])

    @functools.cached_property
    def times(self) -> tuple:
        return tuple(self.t_grid.tolist())

    @property
    def configs(self) -> tuple:
        return self.cells[0]

    def end_gap(self) -> float:
        """The Hausdorff distance of the first and the last cell."""
        return float(batch_hausdorff(self.space, self.enc[0, :1], self.enc[0, -1:])[0])

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


def _joined(space: Space, parts: Sequence[np.ndarray]) -> np.ndarray:
    """Grid encodings (see Homotopy) joined along their rows, each padded
    to the widest part."""
    enc = _padding(space, (sum(map(len, parts)), parts[0].shape[1], max(p.shape[2] for p in parts)))
    at = 0
    for part in parts:
        enc[at:at + len(part), :, :part.shape[2]] = part
        at += len(part)
    return enc


def stack_homotopies(blocks: Sequence[Homotopy]) -> Homotopy:
    """Concatenate homotopy blocks in the deformation direction.

    Blocks must share space, cap and time grid, and each block's first row
    must repeat the previous block's last row; the duplicate seams are
    dropped.  The encodings are padded to the widest block.  The output s
    grid is uniform.
    """
    space = blocks[0].space
    for prev, nxt in zip(blocks, blocks[1:]):
        if nxt.space != prev.space or not np.array_equal(nxt.t_grid, prev.t_grid):
            raise SpaceMismatch("homotopy blocks disagree on space or grid")
        seam = float(batch_hausdorff(space, prev.enc[-1], nxt.enc[0]).max())
        if seam > LOOP_TOL:
            raise EndpointMismatch(f"homotopy blocks fail to chain: seam gap {seam}")
    enc = _joined(space, [blocks[0].enc] + [h.enc[1:] for h in blocks[1:]])
    counts = np.concatenate([blocks[0].counts] + [h.counts[1:] for h in blocks[1:]])
    s_grid = np.asarray(uniform_times(len(counts) - 1))
    return Homotopy(space, max(h.cap for h in blocks), s_grid, blocks[0].t_grid, enc, counts)


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
