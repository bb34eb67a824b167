"""Independent second implementations used as test oracles.

Point metrics, shortest paths, dedup, strand extraction, branch and merge
detection, the one-turn contraction and the boundary-matrix reduction
share no code with the package: they are rebuilt from scratch, one point
at a time, so that agreement is meaningful.  The per-cell pipeline
schedules at the end evaluate one cell at a time what the package
evaluates as arrays; they take the package's canonical points and window
schedule as given, since those are not what the array evaluation
changes.  Graph routes come from oracle_route, a Dijkstra that scans
every edge at each settled vertex and builds the route of every vertex
pair.

Besides the oracles, this module keeps the array code that only tests
call, built on the package's kernels: the reference staircase schedule,
the pushforward of the one-turn contraction through a loop, the branch
and merge detector, the path algebra (concatenate, reverse, conjugate,
resample), singleton_strand and random_point.
"""

import functools
import heapq
import math
from bisect import bisect_right
from itertools import combinations

import numpy as np

from ranspace.errors import AmbiguousBranching, EmptyConfiguration, EndpointMismatch, InvalidPoint, SpaceMismatch
from ranspace.moves import _block_cells, _pushed, _schedule, _slots_block
from ranspace.ran import DEDUP_EPS, Configuration, _dedup_lists, _slot_points, batch_hausdorff
from ranspace.space import CANON_TOL, Circle, GraphPoint, Interval
from ranspace.tracks import LOOP_TOL, StrandBundle, StrandInterpolator, Track, _joined, nearest_sample, project, uniform_times


def oracle_vertex_table(edges, num_vertices):
    table = np.full((num_vertices, num_vertices), np.inf)
    for src in range(num_vertices):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        done = set()
        while heap:
            d, w = heapq.heappop(heap)
            if w in done:
                continue
            done.add(w)
            table[src, w] = d
            for u, v, l in edges:
                for a, bb in ((u, v), (v, u)):
                    if a == w and d + l < dist.get(bb, math.inf):
                        dist[bb] = d + l
                        heapq.heappush(heap, (d + l, bb))
    return table


def make_graph_point_metric(edges, num_vertices):
    table = oracle_vertex_table(edges, num_vertices)

    def metric(p, q):
        if q < p:
            # same operand convention as the package metric, so float
            # summation order agrees and equality can be exact
            p, q = q, p
        cands = []
        if p.edge == q.edge:
            cands.append(abs(p.t - q.t) * edges[p.edge][2])
        pu, pv, pl = edges[p.edge]
        qu, qv, ql = edges[q.edge]
        for a, leg_a in ((pu, p.t * pl), (pv, (1 - p.t) * pl)):
            for b, leg_b in ((qu, q.t * ql), (qv, (1 - q.t) * ql)):
                cands.append(leg_a + table[a, b] + leg_b)
        return min(cands)

    return metric


def oracle_paths_from(graph, source):
    """Dijkstra keyed by (distance, edge index sequence), every edge scanned
    at each settled vertex: among shortest paths, the one whose edge-index
    sequence is lexicographically minimal."""
    dist = [np.inf] * graph.num_vertices
    route = [None] * graph.num_vertices
    heap = [(0.0, (), source)]
    while heap:
        d, seq, w = heapq.heappop(heap)
        if route[w] is not None:
            continue
        dist[w] = d
        route[w] = seq
        for idx, (u, v, l) in enumerate(graph.edges):
            if u == w and route[v] is None:
                heapq.heappush(heap, (d + l, seq + (idx,), v))
            if v == w and route[u] is None:
                heapq.heappush(heap, (d + l, seq + (idx,), u))
    return dist, route


@functools.lru_cache(maxsize=None)
def _oracle_all_paths(graph):
    return [oracle_paths_from(graph, s) for s in range(graph.num_vertices)]


def oracle_vertex_point(graph, v):
    """A vertex as (edge, endpoint) on the first edge that has it as an end."""
    for idx, (u, w, _) in enumerate(graph.edges):
        if u == v:
            return GraphPoint(idx, 0.0)
        if w == v:
            return GraphPoint(idx, 1.0)
    raise InvalidPoint(f"isolated vertex {v}")


def oracle_route(graph, p, q):
    """The segment list ((edge, t0, t1), ...) of a shortest route from p to
    q and its length: the same edge, then each endpoint pair in order,
    replaced only on a strict improvement, each vertex leg the
    lexicographic route of oracle_paths_from."""
    paths = _oracle_all_paths(graph)
    best_len = np.inf
    best = None
    if p.edge == q.edge:
        best_len = abs(p.t - q.t) * graph.edges[p.edge][2]
        best = [(p.edge, p.t, q.t)]
    pu, pv, pl = graph.edges[p.edge]
    qu, qv, ql = graph.edges[q.edge]
    for a, leg_a in ((pu, p.t * pl), (pv, (1.0 - p.t) * pl)):
        for b, leg_b in ((qu, q.t * ql), (qv, (1.0 - q.t) * ql)):
            total = leg_a + paths[a][0][b] + leg_b
            if total < best_len - CANON_TOL:
                segs = [(p.edge, p.t, 0.0 if a == pu else 1.0)]
                w = a
                for idx in paths[a][1][b]:
                    eu, ev, _ = graph.edges[idx]
                    if eu == w:
                        segs.append((idx, 0.0, 1.0))
                        w = ev
                    else:
                        segs.append((idx, 1.0, 0.0))
                        w = eu
                segs.append((q.edge, 0.0 if b == qu else 1.0, q.t))
                best_len = total
                best = segs
    return best, best_len


def oracle_circle_canon(circumference, p):
    """Circle.canon as a scalar body: the coordinate modulo the
    circumference, and 0 within CANON_TOL (relative to a circumference
    above 1) of the seam on either side."""
    c = circumference
    x = float(p) % c
    if c - x < CANON_TOL * max(1.0, c) or x < CANON_TOL * max(1.0, c):
        return 0.0
    return x


def oracle_circle_lift(circumference, points):
    """circle_lift as a scalar body: the first canonical point, then each
    step's Python % turned into the signed shorter arc, as a running sum;
    None where a step's arc reaches half the circumference."""
    c = circumference
    xs = [oracle_circle_canon(c, p) for p in points]
    lift = [xs[0]]
    for a, b in zip(xs, xs[1:]):
        raw = (b - a) % c
        if min(raw, c - raw) >= c / 2.0 - 1e-15 * c:
            return None
        lift.append(lift[-1] + (raw if raw <= c / 2.0 else raw - c))
    return lift


def circle_point_metric(circumference):
    def metric(p, q):
        raw = abs(p - q)
        return min(raw, circumference - raw)

    return metric


@functools.lru_cache(maxsize=None)
def oracle_metric(space):
    """The point metric of space on canonical points: the arc metric on
    circles, |p - q| on intervals, the oracle graph metric on graphs."""
    if isinstance(space, Circle):
        return circle_point_metric(space.circumference)
    if isinstance(space, Interval):
        return lambda p, q: abs(p - q)
    return make_graph_point_metric(space.edges, space.num_vertices)


def oracle_dedup(space, points, cap=None):
    """dedup one point at a time: each canonical point is kept when it is
    more than DEDUP_EPS from every point kept before it, and the kept
    points, sorted, make a Configuration of the cap (default: its size).
    An empty list, a NaN point and a point off the space raise."""
    points = list(points)
    if not points:
        raise EmptyConfiguration("cannot dedup an empty point list")
    metric = oracle_metric(space)
    kept = []
    for p in points:
        cp = space.canon(p)
        if math.isnan(cp.t if isinstance(cp, GraphPoint) else cp):
            raise InvalidPoint(f"NaN point on {space!r}")
        if all(metric(cp, k) > DEDUP_EPS for k in kept):
            kept.append(cp)
    kept.sort()
    return Configuration(tuple(kept), len(kept) if cap is None else cap)


def _oracle_match_step(dist, prev, nxt, radius):
    pairs = sorted((dist(q, p), qi, pi) for qi, q in enumerate(nxt) for pi, p in enumerate(prev))
    parent = [-1] * len(nxt)
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


def oracle_extract_strands(track):
    """extract_strands one step and one point pair at a time, the radius
    (four times the largest adjacent Hausdorff gap, plus 1e-9) and every
    distance from the oracle metric: the same greedy matching, injective
    within the radius and then each leftover child to its nearest parent,
    ties to the lower (child, parent) index pair, the same round-robin
    strand moves and the same AmbiguousBranching message."""
    space, n = track.space, track.cap
    metric = oracle_metric(space)

    def dist(p, q):
        return metric(space.canon(p), space.canon(q))

    configs = [c.points for c in track.configs]
    radius = 4.0 * max(oracle_hausdorff(dist, a, b) for a, b in zip(configs, configs[1:])) + 1e-9
    positions = [j % len(configs[0]) for j in range(n)]
    strands = [[configs[0][p]] for p in positions]
    for i in range(len(configs) - 1):
        prev, nxt = configs[i], configs[i + 1]
        parent = _oracle_match_step(dist, prev, nxt, radius)
        new_positions = [0] * n
        for p in range(len(prev)):
            holders = [j for j in range(n) if positions[j] == p]
            kids = [q for q, par in enumerate(parent) if par == p]
            if not kids:
                dists = [dist(prev[p], q) for q in nxt]
                tgt = min(range(len(nxt)), key=lambda k: (dists[k], k))
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


def oracle_branch_merge(track, radius, lookahead):
    """detect_branch_merge one point pair at a time: (time index, point,
    kind) for each point alone in its radius ball at its own time with two
    or more points of the configuration k <= lookahead steps later (a
    branch) or earlier (a merge) in that ball."""
    metric = oracle_metric(track.space)
    configs = [[track.space.canon(p) for p in c.points] for c in track.configs]
    out = []
    for i, config in enumerate(configs):
        for a, p in enumerate(config):
            if sum(1 for q in config if metric(p, q) <= radius) != 1:
                continue
            for kind, direction in (("branch", 1), ("merge", -1)):
                js = [i + direction * k for k in range(1, lookahead + 1)]
                if any(sum(1 for q in configs[j] if metric(p, q) <= radius) >= 2 for j in js if 0 <= j < len(configs)):
                    out.append((i, track.configs[i].points[a], kind))
    return out


def detect_branch_merge(track, radius, lookahead):
    """Discrete surrogate for branch and merge points, on the track's arrays.

    A point p of config(t_i) is a branch when its radius ball holds exactly
    one point of config(t_i) but at least two points of config(t_{i+k}) for
    some k <= lookahead; a merge symmetrically with t_{i-k}.  Returns
    (time index, point, kind) triples in grid order, a branch before a
    merge at the same point.  Each offset k takes one distance_many call
    between the columns k apart, read both ways.
    """
    if not radius > 0 or lookahead < 1:
        raise ValueError("radius must be positive and lookahead at least 1")
    space = track.space
    enc = space.canon_many(track.enc[0])
    cols = len(enc)

    def within(k):
        # [i, a, b]: point a of column i within radius of point b of column
        # i + k; a NaN padding slot is within no radius
        return space.distance_many(np.expand_dims(enc[:cols - k], 2), np.expand_dims(enc[k:], 1)) <= radius

    alone = within(0).sum(axis=-1) == 1
    branch, merge = np.zeros_like(alone), np.zeros_like(alone)
    for k in range(1, min(lookahead, cols - 1) + 1):
        near = within(k)
        branch[:cols - k] |= near.sum(axis=-1) >= 2
        merge[k:] |= near.sum(axis=-2) >= 2
    hits = np.argwhere(alone & (branch | merge))
    out = []
    for (i, a), p in zip(hits.tolist(), _slot_points(space, track.enc[0][tuple(hits.T)])):
        out.extend((i, p, kind) for kind, hit in (("branch", branch), ("merge", merge)) if hit[i, a])
    return out


def oracle_hausdorff(metric, a_points, b_points):
    d_ab = max(min(metric(p, q) for q in b_points) for p in a_points)
    d_ba = max(min(metric(p, q) for p in a_points) for q in b_points)
    return max(d_ab, d_ba)


def oracle_kind(track):
    """A track's kind by the reference rule: a loop when its first and last
    configurations are within 1e-9 in the oracle Hausdorff distance."""
    first, last = track.configs[0].points, track.configs[-1].points
    return "loop" if oracle_hausdorff(oracle_metric(track.space), first, last) <= 1e-9 else "path"


def oracle_reverse(track):
    """reverse built from Configurations: the configurations last first, on
    the times 1 - t."""
    return Track.of_cells(track.space, (0.0,), tuple(1.0 - t for t in reversed(track.times)), (tuple(reversed(track.configs)),), track.cap)


def oracle_concatenate(a, b):
    """concatenate built from Configurations: a's configurations, then b's
    after the junction, on the times t / 2 and 0.5 + t / 2."""
    times = tuple(t / 2 for t in a.times) + tuple(0.5 + t / 2 for t in b.times[1:])
    return Track.of_cells(a.space, (0.0,), times, (a.configs + b.configs[1:],), max(a.cap, b.cap))


def oracle_resample(track, new_times):
    """resample built from Configurations: each new time carries the
    configuration of its nearest sample, a tie to the earlier."""
    configs = tuple(track.configs[oracle_nearest(track.times, t)] for t in new_times)
    return Track.of_cells(track.space, (0.0,), tuple(new_times), (configs,), track.cap)


# -- the path algebra on the track's arrays ------------------------------------


def _unmerged(times, sources):
    """times, the images of a strictly increasing time grid under an
    increasing map; ValueError naming the first two grid times whose images
    rounding merged.  sources gives the grid in order, as (times, suffix)
    pairs, the suffix naming where those times come from."""
    merged = np.flatnonzero(np.diff(times) <= 0)
    if len(merged):
        i = merged[0]
        names = [f"time {float(t)!r}{suffix}" for old, suffix in sources for t in old]
        raise ValueError(f"{names[i]} and {names[i + 1]} map to {float(times[i])!r} and {float(times[i + 1])!r}: "
                         "the new time grid would not strictly increase")
    return times


def concatenate(a, b):
    """Run a on [0, 1/2] and b on [1/2, 1]; junction cells must agree."""
    if a.space != b.space:
        raise SpaceMismatch("concatenating tracks over different spaces")
    gap = float(batch_hausdorff(a.space, a.enc[0, -1:], b.enc[0, :1])[0])
    if gap > LOOP_TOL:
        raise EndpointMismatch(f"junction gap {gap} exceeds tolerance {LOOP_TOL}")
    times = tuple(t / 2 for t in a.times) + tuple(0.5 + t / 2 for t in b.times[1:])
    times = _unmerged(times, ((a.times, " of the first track"), (b.times[1:], " of the second track")))
    # the two rows' cells joined as the rows of one grid, each padded to the widest
    enc = _joined(a.space, [a.enc[0][:, None], b.enc[0, 1:][:, None]])[:, 0]
    counts = np.concatenate([a.counts[0], b.counts[0, 1:]])
    return Track.of_row(a.space, max(a.cap, b.cap), times, enc, counts)


def reverse(a):
    old = a.t_grid[::-1]
    times = _unmerged(1.0 - old, ((old, ""),))
    return Track.of_row(a.space, a.cap, times, a.enc[0, ::-1], a.counts[0, ::-1])


def conjugate(gamma, sigma):
    """gamma . sigma . gamma^(-1): a loop based at gamma(0)."""
    if sigma.kind != "loop":
        raise EndpointMismatch("conjugation needs a loop")
    return concatenate(concatenate(gamma, sigma), reverse(gamma))


def resample(track, new_times):
    """Carry each new time to the nearest original sample (ties earlier)."""
    k = nearest_sample(track.t_grid, np.asarray(new_times, dtype=float))
    return Track.of_row(track.space, track.cap, new_times, track.enc[0, k], track.counts[0, k])


def singleton_strand(track):
    """The per-time points of a track whose configurations are singletons."""
    if (track.counts != 1).any():
        raise ValueError("track has non-singleton configurations")
    return list(_slot_points(track.space, track.enc[0, :, 0]))


def oracle_row(h, i):
    """Homotopy.row built from Configurations: row i's cells on the time grid."""
    return Track.of_cells(h.space, (0.0,), h.t_grid, (h.cells[i],), h.cap)


def naive_pairs(dist, max_scale):
    """Exhaustive persistence oracle: enumerate simplices by brute force,
    reduce a dense boolean matrix, scan for pivots."""
    m = dist.shape[0]
    sims = []
    for dim in range(3):
        for verts in combinations(range(m), dim + 1):
            if dim == 0:
                sims.append((0.0, 0, verts))
                continue
            vals = [dist[a, b] for a, b in combinations(verts, 2)]
            if max(vals) <= max_scale:
                sims.append((max(vals), dim, verts))
    sims.sort(key=lambda s: (s[0], s[1], s[2]))
    idx = {s[2]: i for i, s in enumerate(sims)}
    n = len(sims)
    mat = np.zeros((n, n), dtype=bool)
    for j, (_, dim, verts) in enumerate(sims):
        for drop in range(len(verts)):
            face = verts[:drop] + verts[drop + 1 :]
            if len(face) > 0:
                mat[idx[face], j] = True

    def low(col):
        rows = np.nonzero(mat[:, col])[0]
        return int(rows[-1]) if len(rows) else -1

    pairs = []
    lows = {}
    for j in range(n):
        while True:
            l = low(j)
            if l == -1 or l not in lows:
                break
            mat[:, j] ^= mat[:, lows[l]]
        l = low(j)
        if l != -1:
            lows[l] = j
            if sims[l][1] <= 1:
                pairs.append((sims[l][0], sims[j][0], sims[l][1]))
    killed = set(lows.values())
    victims = set(lows.keys())
    for j in range(n):
        if low(j) == -1 and j not in victims and j not in killed and sims[j][1] <= 1:
            pairs.append((sims[j][0], math.inf, sims[j][1]))
    return sorted(pairs)


def random_point(space, rng):
    """One uniform point of space: the canon of a one-point random_points
    draw, so it consumes the generator as that draw does."""
    return space.canon(*space.random_points(rng, 1).tolist())


def oracle_sample_configs(space, n, m, seed):
    """homology.sample_configs drawing point by point: each configuration
    draws its size, then each point through random_point, which
    canonicalizes it; then _dedup_lists dedups all the point lists."""
    rng = np.random.default_rng(seed)
    point_lists = [[random_point(space, rng) for _ in range(int(rng.integers(1, n + 1)))] for _ in range(m)]
    kept, counts = _dedup_lists(space, point_lists, n)
    return tuple(_slot_points(space, cell[:k]) for cell, k in zip(kept, counts.tolist()))


def oracle_homology_table(pairs):
    """The homology table's pair rows from PersistencePairs, one f-string
    per value, with an infinite death or persistence written as inf."""
    lines = []
    for p in pairs:
        death = f"{p.death:.6g}" if math.isfinite(p.death) else "inf"
        pers = f"{p.persistence:.6g}" if math.isfinite(p.persistence) else "inf"
        lines.append(f"{p.dim:>3} {p.birth:>12.6g} {death:>12} {pers:>12}\n")
    return "".join(lines)


def _tent(u):
    return 1.0 - abs(1.0 - 2.0 * u)


def generator_cell(s, t):
    """Points of the one-turn contraction at (s, t) on the unit circle, one
    cell at a time, in the order the package kernel lists them."""
    phase = min(int(s * 5.0), 4)
    sig = s * 5.0 - phase
    if phase == 0:
        a = (1.0 - sig) * t + sig * min(2.0 * t, 1.0)
        b = (1.0 - sig) * t + sig * max(2.0 * t - 1.0, 0.0)
        return (a, b)
    if phase == 1:
        if t <= 0.5:
            w = sig / 2.0
            return (2.0 * t, w * _tent(2.0 * t), -w * _tent(2.0 * t))
        return (0.0, 2.0 * t - 1.0)
    if phase == 2:
        if t <= 0.5:
            v = (1.0 - sig) / 2.0
            return (v * _tent(2.0 * t), -v * _tent(2.0 * t))
        return (0.0, 2.0 * t - 1.0)
    if phase == 3:
        if t <= 0.5:
            return (0.0,)
        w = sig / 2.0
        return (2.0 * t - 1.0, w * _tent(2.0 * t - 1.0), -w * _tent(2.0 * t - 1.0))
    if t <= 0.5:
        return (0.0,)
    v = (1.0 - sig) / 2.0
    return (v * _tent(2.0 * t - 1.0), -v * _tent(2.0 * t - 1.0))


def pushforward_contraction(space, strand, resolution=(64, 128)):
    """The one-turn contraction mapped pointwise through a based loop: a
    null-homotopy of the loop's singleton track onto its basepoint, built
    from the package's own block kernels (_pushed, _slots_block)."""
    if space.distance(strand[0], strand[-1]) > LOOP_TOL:
        raise EndpointMismatch("pushforward needs a closed strand")
    interp = StrandInterpolator(space, uniform_times(len(strand) - 1), strand)
    r, m = resolution
    grid = uniform_times(m)
    return _slots_block(space, grid, 3, _pushed(interp, *_block_cells(r, grid)))


def staircase(bundle):
    """The reference staircase schedule: strand j runs inside [j/n, (j+1)/n]
    and is frozen elsewhere.

    At any time at most one strand is away from the shared endpoint value,
    so the projected track has at most two distinct points.  Strand j's
    window holds its samples 1..m-1 (read at k/m off a non-uniform grid),
    its first point before and its last point after: one index gather.
    """
    if not bundle.based_at(bundle.enc[0, 0]):
        raise EndpointMismatch("staircase needs all strand endpoints to coincide")
    n = bundle.n
    m = len(bundle.times) - 1
    enc = bundle.enc
    if not np.array_equal(bundle.times, uniform_times(m)):
        enc = np.concatenate([enc[:1], bundle.read((np.arange(1, m) / m)[None]), enc[-1:]])
    sample = np.clip(np.arange(n * m + 1)[:, None] - m * np.arange(n), 0, m)
    return StrandBundle.of_enc(bundle.space, uniform_times(n * m), enc[sample, np.arange(n)])


def oracle_dump(doc):
    """The text a document is written as: the standard library encoder at
    indent 1, and a newline."""
    import json

    return json.dumps(doc, indent=1) + "\n"


# -- the contraction pipeline, one cell at a time ------------------------------

_UNIT = Circle(1.0)


def oracle_geodesic(space, p, q, s):
    """The geodesic from p (s = 0) to q (s = 1) at one s: circle ties at
    antipodes go the way of increasing coordinate, graph geodesics walk
    oracle_route to the first segment reaching s times its length."""
    if isinstance(space, Circle):
        c = space.circumference
        a, b = space.canon(p), space.canon(q)
        forward = (b - a) % c
        if forward <= c / 2.0:
            return space.canon(a + s * forward)
        return space.canon(a - s * (c - forward))
    if isinstance(space, Interval):
        a, b = space.canon(p), space.canon(q)
        return a + s * (b - a)
    p, q = space.canon(p), space.canon(q)
    if p == q:
        return p
    segs, total = oracle_route(space, p, q)
    target = s * total
    acc = 0.0
    for edge, t0, t1 in segs:
        seg_len = abs(t1 - t0) * space.edges[edge][2]
        if seg_len <= 0:
            continue
        if acc + seg_len >= target - 1e-12:
            frac = (target - acc) / seg_len
            return space.canon(GraphPoint(edge, min(max(t0 + frac * (t1 - t0), 0.0), 1.0)))
        acc += seg_len
    return q


def _uniform(m):
    return tuple(i / m for i in range(m + 1))


def oracle_nearest(times, t):
    """Index of the sample of times nearest to t, a tie to the earlier."""
    k = min(max(bisect_right(times, t), 1), len(times) - 1)
    return k - 1 if t - times[k - 1] <= times[k] - t else k


class OracleStrand:
    """One strand read at one time at a time: circle strands along their
    small-step lift, interval strands linearly, graph strands at the
    nearest sample."""

    def __init__(self, space, times, points):
        self.space, self.times, self.points = space, list(times), list(points)
        self.lifts = None
        if isinstance(space, Circle):
            c = space.circumference
            self.lifts = [space.canon(points[0])]
            for a, b in zip(points, points[1:]):
                raw = (space.canon(b) - space.canon(a)) % c
                self.lifts.append(self.lifts[-1] + (raw if raw <= c / 2.0 else raw - c))
        elif isinstance(space, Interval):
            self.lifts = [space.canon(p) for p in points]

    def at(self, t):
        t = min(max(t, 0.0), 1.0)
        if self.lifts is None:
            return self.points[oracle_nearest(self.times, t)]
        return self.space.canon(float(np.interp(t, self.times, self.lifts)))


def _cells(grid, rows, f):
    """f(i / rows, t) over a block of rows + 1 rows on the time grid."""
    return [[f(i / rows, t) for t in grid] for i in range(rows + 1)]


def _deduped(space, rows, cap):
    return [[oracle_dedup(space, pts, cap=cap) for pts in row] for row in rows]


def _dwell(lam, t):
    return (1.0 - lam) * t + lam * min(max((t - 0.25) * 2.0, 0.0), 1.0)


def _conjugation(s, t):
    """(True, u) where the conjugation block reads the connector at u,
    (False, u) where it reads the loop at u."""
    if t <= 0.25:
        return True, (1.0 - s) + (t / 0.25) * s
    if t >= 0.75:
        return True, (1.0 - s) + ((1.0 - t) / 0.25) * s
    return False, (t - 0.25) * 2.0


def _rho(windows, j, t):
    own = [w for w in windows if w.strand == j]
    if t <= own[0].t0:
        return 0.0
    if t >= own[-1].t1:
        return 1.0
    return next((w.u(t) for w in own if w.t0 <= t <= w.t1), 1.0)


def _last_row_bundle(space, grid, values):
    """The bundle of the strand values of a block's last row."""
    return StrandBundle(space, grid, tuple(zip(*values[-1])))


def _normalize_bundle(bundle, b, rows, grid):
    space, n = bundle.space, bundle.n
    strands = [OracleStrand(space, bundle.times, s) for s in bundle.strands]
    dwell = _deduped(space, _cells(grid, rows, lambda lam, t: [st.at(_dwell(lam, t)) for st in strands]), n)

    def conj(s, t):
        on_connector, u = _conjugation(s, t)
        return [oracle_geodesic(space, b, strand[0], u) if on_connector else st.at(u)
                for strand, st in zip(bundle.strands, strands)]

    values = _cells(grid, rows, conj)
    return _last_row_bundle(space, grid, values), dwell + _deduped(space, values, n)[1:]


def _normalize_track(track, b, rows, grid):
    space, n, m = track.space, track.cap, len(grid) - 1
    metric = oracle_metric(space)
    sigma0 = track.configs[0].points
    pstar = min(sigma0, key=lambda q: (metric(b, q), sigma0.index(q)))

    def conj_points(s, t):
        on_connector, u = _conjugation(s, t)
        if not on_connector:
            return list(track.configs[oracle_nearest(track.times, u)].points)
        if u <= 0.5:
            return [oracle_geodesic(space, b, pstar, 2.0 * u)]
        return [oracle_geodesic(space, pstar, q, 2.0 * u - 1.0) for q in sigma0]

    dwell = _cells(grid, rows, lambda lam, t: track.configs[oracle_nearest(track.times, _dwell(lam, t))])
    conjugated = _deduped(space, _cells(grid, rows, conj_points), n)
    bundle = oracle_extract_strands(Track.of_cells(space, (0.0,), grid, (conjugated[-1],), n))
    strands = [OracleStrand(space, grid, s) for s in bundle.strands]
    spans = []
    for strand in bundle.strands:
        away = [i for i, p in enumerate(strand) if metric(p, b) > 1e-9]
        spans.append((grid[max(away[0] - 1, 0)], grid[min(away[-1] + 1, m)]) if away else (0.0, 1.0))
    values = _cells(grid, rows, lambda lam, t: [
        st.at((1.0 - lam) * t + lam * (t0 + t * (t1 - t0))) for st, (t0, t1) in zip(strands, spans)])
    rows_out = dwell + conjugated[1:] + _deduped(space, values, n)[1:]
    return _last_row_bundle(space, grid, values), rows_out


def _normalize(obj, b, rows, grid):
    """normalize's bundle and the rows of its homotopy."""
    if not isinstance(obj, StrandBundle):
        return _normalize_track(obj, b, rows, grid)
    if not obj.is_loop():
        return _normalize(project(obj), b, rows, grid)
    if not obj.based_at(b):
        return _normalize_bundle(obj, b, rows, grid)
    if not np.array_equal(obj.times, grid):
        strands = [OracleStrand(obj.space, obj.times, s) for s in obj.strands]
        obj = StrandBundle(obj.space, grid, tuple(tuple(st.at(t) for t in grid) for st in strands))
    proj = [oracle_dedup(obj.space, [s[k] for s in obj.strands], cap=obj.n) for k in range(len(grid))]
    return obj, [proj, proj]


def oracle_pipeline_stages(obj, mode, b, resolution):
    """contract_pipeline's cells stage by stage, as (name, rows of
    Configurations), every cell built on its own as dedup of the points
    its schedule reads: normalize, the staircase, then each window with
    its strand pushed through the one-turn contraction and every other
    strand frozen, or at b once an earlier window contracted it."""
    r, m = resolution
    space = obj.space
    b = space.canon(b)
    grid = _uniform(m)
    bundle, normalized = _normalize(obj, b, max(2, r // 6), grid)
    n = bundle.n
    strands = [OracleStrand(space, bundle.times, s) for s in bundle.strands]
    windows = _schedule(space, bundle)
    rows = max(2, r // (2 + len(windows)))
    stair = _cells(grid, rows, lambda lam, t: [
        st.at((1.0 - lam) * t + lam * _rho(windows, j, t)) for j, st in enumerate(strands)])
    stages = [("normalize", normalized), ("staircase", _deduped(space, stair, n))]
    owner = [[next((i for i, w in enumerate(windows) if w.strand == j and w.t0 <= t <= w.t1), None) for t in grid]
             for j in range(n)]
    frozen = [[strands[j].at(_rho(windows, j, t) if o is None else windows[o].u(t)) for t, o in zip(grid, owner[j])]
              for j in range(n)]
    for i, win in enumerate(windows):
        seen = [[b if owner[j][k] is not None and owner[j][k] < i else frozen[j][k]
                 for j in range(n) if not (j == win.strand and win.t0 <= t <= win.t1)]
                for k, t in enumerate(grid)]

        def cell(s, k, t, win=win, seen=seen):
            if not win.t0 <= t <= win.t1:
                return seen[k]
            local = (t - win.t0) / (win.t1 - win.t0)
            u = [win.u0 + _UNIT.canon(v) * (win.u1 - win.u0) for v in generator_cell(s, local)]
            return seen[k] + [strands[win.strand].at(x) for x in u]

        cells = [[cell(s, k, t) for k, t in enumerate(grid)] for s in _uniform(rows)]
        stages.append((f"contract-window-{i}", _deduped(space, cells, mode.declared_cap)))
    return stages


def oracle_pipeline_cells(obj, mode, b, resolution):
    """contract_pipeline's rows of cells: the stages of
    oracle_pipeline_stages stacked, each seam row kept once."""
    stages = oracle_pipeline_stages(obj, mode, b, resolution)
    return stages[0][1] + [row for _, rows in stages[1:] for row in rows[1:]]
