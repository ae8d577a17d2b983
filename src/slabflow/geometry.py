"""Grids, time-dependent domains, node masks and slice plans.

The scheme freezes the spatial domain on each time slice, so the geometry
layer has two jobs: answer continuous queries about the moving domain
(sections, one-sided limits at jumps, expansion/contraction regions) and
turn a frozen section into a node mask on a fixed background grid.

Masks follow a ghost-node convention: a node is *active* when it and all
its axis neighbours lie in the (closed) section and, in 2D, it lies in an
all-active 2x2 block (the block core; 1D keeps an isolated active node, a
valid 3-point row).  A node is *ghost* when it is not active but
neighbours an active node.  Ghost nodes carry Dirichlet data; everything
else is outside and stays undefined.  The boundary is therefore resolved
to first order -- intentional, the time-slicing error dominates anyway.

One rule, the same in every dimension, refuses a section the grid cannot
represent: each connected piece (through axis neighbours) of the nodes in
the section must hold exactly one connected piece of the active set, and
each piece the region itself knows (an interval) must hold a node.

All operations here are pure functions of their arguments: same inputs,
bitwise-identical outputs.
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSectionError,
    DomainRangeError,
    GeometryError,
    MarginError,
    UndefinedDistanceError,
)
from .expressions import evaluate

INTERVAL_SAMPLES = 2048  # sampling cells of a 1D implicit section's box
INTERVAL_TOL = 1e-12  # bisection width of a 1D implicit section's endpoints

# ---------------------------------------------------------------------------
# Background grid


@dataclass(frozen=True)
class Grid:
    """Uniform node-centred grid covering a fixed box.

    ``counts`` is the number of cells per axis, so each axis carries
    ``counts[a] + 1`` nodes.  The covered box must strictly contain every
    domain section with a margin of at least two cells; that is enforced
    where sections meet the grid (rasterize / scenario loading).
    """

    dim: int
    origin: tuple
    spacing: tuple
    counts: tuple

    DIMS = (1, 2)  # the supported spatial dimensions

    @classmethod
    def check_dim(cls, dim):
        if dim not in cls.DIMS:
            raise GeometryError(f"dim must be {' or '.join(map(str, cls.DIMS))}, got {dim}")

    def __post_init__(self):
        self.check_dim(self.dim)
        for name, tup in (("origin", self.origin), ("spacing", self.spacing), ("counts", self.counts)):
            if len(tup) != self.dim:
                raise GeometryError(f"{name} must have {self.dim} entries, got {len(tup)}")
        if not all(-math.inf < x < math.inf for x in self.origin):
            raise GeometryError(f"origin must be finite, got {self.origin}")
        if not all(0 < h < math.inf for h in self.spacing):
            raise GeometryError(f"spacing must be positive and finite, got {self.spacing}")
        if not all(3 <= c < math.inf and int(c) == c for c in self.counts):
            raise GeometryError(f"counts must be integers >= 3, got {self.counts}")

    @property
    def shape(self):
        return tuple(c + 1 for c in self.counts)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    @property
    def box(self):
        return tuple(
            (self.origin[a], self.origin[a] + self.counts[a] * self.spacing[a])
            for a in range(self.dim)
        )

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_nodes(self, axis):
        return self.origin[axis] + self.spacing[axis] * np.arange(self.counts[axis] + 1)

    def node_coords(self):
        """All node coordinates, shape (n_nodes, dim), C-order (read-only, cached)."""
        return self._node_coords

    @cached_property
    def _node_coords(self):
        coords = _lattice([self.axis_nodes(a) for a in range(self.dim)])
        coords.setflags(write=False)
        return coords


def _lattice(axes):
    """Tensor product of per-axis coordinates, shape (prod len, n_axes), C-order."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def along(axis, sl):
    """Index tuple applying slice ``sl`` on ``axis`` and keeping all other axes."""
    return (slice(None),) * axis + (sl,)


# ---------------------------------------------------------------------------
# Spatial regions (frozen-time sections)


@dataclass(frozen=True)
class IntervalRegion:
    """Finite union of disjoint open intervals on the line."""

    intervals: tuple  # ((a, b), ...) sorted by a, pairwise disjoint

    def __post_init__(self):
        last = -math.inf
        for a, b in self.intervals:
            if not (a < b):
                raise GeometryError(f"empty interval ({a}, {b})")
            if a < last:
                raise GeometryError(f"intervals overlap or are unsorted near {a}")
            last = b

    @property
    def pieces(self):
        """The connected pieces, one region per interval."""
        return tuple(IntervalRegion((iv,)) for iv in self.intervals)

    def contains(self, x):
        """Closure membership, vectorised (used for node classification)."""
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (x >= a) & (x <= b)
        return out


EMPTY_REGION = IntervalRegion(())


@dataclass(frozen=True)
class ImplicitRegion:
    """Sublevel set {phi(t, .) <= 0} at a frozen time, searched inside a box."""

    phi: object  # expression over t, x (and y in 2D)
    t: float
    box: tuple  # ((lo, hi), ...) one pair per axis
    dim: int

    pieces = ()  # a level set's pieces are known only through the grid nodes

    def phi_values(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = {"t": self.t, **dict(zip(("x", "y"), points.T))}
        return np.full(len(points), evaluate(self.phi, env), dtype=float)  # phi may not read x

    def contains(self, points):
        return self.phi_values(points) <= 0.0

    def to_intervals(self):
        """1D only: extract the sublevel set as intervals by sampling the
        box and bisecting every sign change at once."""
        if self.dim != 1:
            raise GeometryError("interval extraction is only defined in 1D")
        lo, hi = self.box[0]
        xs = np.linspace(lo, hi, INTERVAL_SAMPLES + 1)
        inside = self.contains(xs[:, None])
        change = np.flatnonzero(inside[1:] != inside[:-1])
        xa, xb, side = xs[change], xs[change + 1], inside[change]
        for _ in range(200):  # invariant: inside-ness is ``side`` at xa and differs at xb
            live = xb - xa > INTERVAL_TOL
            if not live.any():
                break
            xm = 0.5 * (xa + xb)
            same = self.contains(xm[:, None]) == side
            xa, xb = np.where(live & same, xm, xa), np.where(live & ~same, xm, xb)
        ends = [*xs[:1][inside[:1]], *(0.5 * (xa + xb)), *xs[-1:][inside[-1:]]]
        return IntervalRegion(tuple((a, b) for a, b in zip(ends[::2], ends[1::2]) if b > a))


def interval_difference(a, b):
    """Set difference of two interval regions (zero-width slivers dropped)."""
    out = []
    for lo, hi in a.intervals:
        pieces = [(lo, hi)]
        for blo, bhi in b.intervals:
            nxt = []
            for plo, phi in pieces:
                if bhi <= plo or blo >= phi:
                    nxt.append((plo, phi))
                    continue
                if blo > plo:
                    nxt.append((plo, min(blo, phi)))
                if bhi < phi:
                    nxt.append((max(bhi, plo), phi))
            pieces = nxt
        out.extend(p for p in pieces if p[1] > p[0])
    return IntervalRegion(tuple(out))


# ---------------------------------------------------------------------------
# Time-dependent domains


@dataclass(frozen=True)
class TrackSegment:
    """One smooth stretch of a moving interval: endpoints as expressions of
    t, valid from ``start`` until the next segment takes over."""

    start: float
    left: object
    right: object


@dataclass(frozen=True)
class IntervalTrack:
    segments: tuple  # TrackSegment, sorted by start; segments[0].start == 0

    def __post_init__(self):
        if not self.segments:
            raise GeometryError("track needs at least one segment")
        if self.segments[0].start != 0.0:
            raise GeometryError("first track segment must start at t = 0")
        starts = [s.start for s in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise GeometryError(f"jump times must increase and exceed 0, got {starts[1:]}")

    def endpoints(self, t, side="plus"):
        starts = [s.start for s in self.segments]
        i = bisect_right(starts, t) - 1
        if side == "minus" and i > 0 and starts[i] == t:
            i -= 1
        seg = self.segments[i]
        env = {"t": t}
        return float(evaluate(seg.left, env)), float(evaluate(seg.right, env))


@dataclass(frozen=True)
class TimeDomain:
    """A domain t -> section(t) on [0, horizon].

    Two variants: ``moving_intervals`` (1D, explicit endpoint tracks with
    finitely many jumps, right-continuous at each jump) and ``implicit``
    (sublevel set of phi(t, x[, y]), assumed jump-free; the box bounds the
    search region for sampling and section extraction).
    """

    horizon: float
    kind: str
    tracks: tuple = ()
    phi: object = None
    box: tuple = None
    dim: int = 1

    KINDS = ("moving_intervals", "implicit")

    @classmethod
    def check_kind(cls, kind):
        if kind not in cls.KINDS:
            raise GeometryError(f"unknown domain kind {kind!r}, expected one of {', '.join(cls.KINDS)}")

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise GeometryError(f"horizon T must be positive and finite, got {self.horizon}")
        self.check_kind(self.kind)
        if self.kind == "moving_intervals":
            if self.dim != 1:
                raise GeometryError("moving_intervals domains are one-dimensional")
            if not self.tracks:
                raise GeometryError("moving_intervals needs at least one track")
            bad = [s.start for tr in self.tracks for s in tr.segments[1:]
                   if not 0.0 < s.start < self.horizon]
            if bad:
                raise GeometryError(f"jump times must lie strictly inside (0, T): {bad}")
        else:
            if self.phi is None or self.box is None:
                raise GeometryError("implicit domain needs phi and a search box")
            if len(self.box) != self.dim:
                raise GeometryError("box must have one (lo, hi) pair per axis")
            if not all(-math.inf < lo < hi < math.inf for lo, hi in self.box):
                raise GeometryError(f"search box {self.box} must be finite with lo < hi on every axis")

    @staticmethod
    def moving_intervals(tracks, horizon):
        return TimeDomain(horizon=float(horizon), kind="moving_intervals", tracks=tuple(tracks))

    @staticmethod
    def implicit(phi, box, horizon, dim=1):
        return TimeDomain(horizon=float(horizon), kind="implicit", phi=phi,
                          box=tuple(tuple(p) for p in box), dim=dim)

    def jump_times(self):
        """Declared discontinuity times, strictly inside (0, horizon)."""
        if self.kind != "moving_intervals":
            return ()
        return tuple(sorted({s.start for tr in self.tracks for s in tr.segments[1:]}))

    def _check_time(self, t):
        if not (0.0 <= t <= self.horizon):
            raise DomainRangeError(f"t={t} outside [0, {self.horizon}]")

    def _intervals_at(self, t, side):
        pairs = sorted(tr.endpoints(t, side) for tr in self.tracks)
        for a, b in pairs:
            if not (a < b):
                raise DegenerateSectionError(f"track interval ({a}, {b}) empty at t={t}")
        for (_, b0), (a1, _) in zip(pairs, pairs[1:]):
            if a1 <= b0:
                raise GeometryError(f"tracks overlap at t={t}: ...{b0}) meets ({a1}...")
        return IntervalRegion(tuple(pairs))


def section(dom, t):
    """The spatial domain frozen at time t (right-continuous value).

    Returns an :class:`IntervalRegion` in 1D and an
    :class:`ImplicitRegion` handle in 2D.
    """
    dom._check_time(t)
    if dom.kind == "moving_intervals":
        return dom._intervals_at(t, "plus")
    region = ImplicitRegion(dom.phi, float(t), dom.box, dom.dim)
    if dom.dim == 1:
        return region.to_intervals()
    return region


def side_limits(dom, t):
    """One-sided limits (section(t-), section(t+)); equal away from jumps.

    The left limit at t = 0 is defined as the right one.
    """
    dom._check_time(t)
    plus = section(dom, t)
    if dom.kind != "moving_intervals":
        return plus, plus
    minus = dom._intervals_at(t, "minus")
    return minus, plus


def classify_jump(dom, t):
    """Split a knot into (expansion, contraction) regions.

    expansion = section(t+) minus section(t-)  (newly created space),
    contraction = section(t-) minus section(t+) (space removed).  Away
    from jumps both are empty; implicit domains never jump.
    """
    if dom.kind != "moving_intervals":
        dom._check_time(t)
        return EMPTY_REGION, EMPTY_REGION
    minus, plus = side_limits(dom, t)
    return interval_difference(plus, minus), interval_difference(minus, plus)


# ---------------------------------------------------------------------------
# Node masks


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Active/ghost node classification of one frozen section on a grid.

    ``active`` and ``ghost`` are boolean arrays of shape ``grid.shape``.
    Every axis neighbour of an active node is active or ghost, so the
    stencil of the flux divergence never reads an undefined node.
    """

    grid: Grid
    active: np.ndarray
    ghost: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, DomainMask)
            and self.grid == other.grid
            and np.array_equal(self.active, other.active)
            and np.array_equal(self.ghost, other.ghost)
        )

    @property
    def defined(self):
        return self.active | self.ghost

    @property
    def active_count(self):
        return int(np.count_nonzero(self.active))

    def active_points(self):
        return self.grid.node_coords()[self.active.ravel()]

    def ghost_points(self):
        return self.grid.node_coords()[self.ghost.ravel()]


def _neighbour_all(inside):
    """Nodes whose every axis neighbour is inside (array edges excluded)."""
    out = np.zeros_like(inside)
    core = (slice(1, -1),) * inside.ndim
    acc = inside[core]
    for a in range(inside.ndim):
        for shifted in (slice(None, -2), slice(2, None)):
            acc = acc & inside[core[:a] + (shifted,) + core[a + 1:]]
    out[core] = acc
    return out


def _dilate(mask):
    out = mask.copy()
    for a in range(mask.ndim):
        lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
        out[lo] |= mask[hi]
        out[hi] |= mask[lo]
    return out


def _block_core(active):
    """Union of the all-active blocks of 2^dim nodes.  It is an opening, so
    every node it keeps lies in a block it keeps: one pass is the fixed
    point of dropping nodes that lie in no all-active block."""
    corners = list(itertools.product((slice(None, -1), slice(1, None)), repeat=active.ndim))
    blocks = np.logical_and.reduce([active[c] for c in corners])
    core = np.zeros_like(active)
    for c in corners:
        core[c] |= blocks
    return core


def _pieces(mask):
    """Connected pieces of ``mask`` through axis neighbours: (labels, count),
    labels 0..count-1 on the mask and meaningless off it.  Runs along the
    last axis are labelled by a cumulative sum; their contacts across the
    other axes go to a graph search, one per pair: where either run starts."""
    start = mask.copy()
    start[..., 1:] &= ~mask[..., :-1]
    run = np.cumsum(start).reshape(mask.shape) - 1
    n_runs = int(np.count_nonzero(start))
    if mask.ndim == 1 or n_runs == 0:
        return run, n_runs
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    pairs = []
    for a in range(mask.ndim - 1):
        lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
        both = mask[lo] & mask[hi] & (start[lo] | start[hi])
        pairs.append((run[lo][both], run[hi][both]))
    rows, cols = np.concatenate(pairs, axis=1)
    graph = coo_array((np.ones(len(rows)), (rows, cols)), shape=(n_runs, n_runs))
    count, comp = connected_components(graph, directed=False)
    return comp[run], count


def _fmt_box(box):
    return " x ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in box)


def _node_box(grid, sel):
    """Bounding box of the nodes where ``sel`` holds."""
    pts = grid.node_coords()[sel.ravel()]
    return _fmt_box(zip(pts.min(axis=0), pts.max(axis=0)))


def rasterize(region, grid):
    """Classify grid nodes against a frozen section (see the module notes).

    Raises MarginError when a node of the section lies in the grid's outer
    two-node ring (the stencil needs two cells of room), and
    DegenerateSectionError naming the box of a piece that holds no node,
    keeps no active node or splits into several active pieces.
    """
    if isinstance(region, IntervalRegion) and grid.dim != 1:
        raise GeometryError("interval regions rasterize on 1D grids only")
    inside = region.contains(grid.node_coords()).reshape(grid.shape)
    interior = np.zeros(grid.shape, dtype=bool)
    interior[(slice(2, -2),) * grid.dim] = True
    if np.any(inside & ~interior):
        raise MarginError(
            f"section nodes at {_node_box(grid, inside)} reach within two cells of the grid box "
            f"{_fmt_box(grid.box)}; the stencil needs a margin of two cells"
        )
    for piece in region.pieces:
        if not piece.contains(grid.node_coords()).any():
            raise DegenerateSectionError(
                f"piece at {_fmt_box(piece.intervals)} holds no grid node at spacing {grid.spacing}"
            )
    if not inside.any():
        raise DegenerateSectionError(f"section holds no node of the grid box {_fmt_box(grid.box)}")
    active = _neighbour_all(inside)
    if grid.dim > 1:
        active = _block_core(active)
    inside_label, n_inside = _pieces(inside)
    first = np.unique(_pieces(active)[0][active], return_index=True)[1]  # a node of each active piece
    held = np.bincount(inside_label[active][first], minlength=n_inside)
    for k in np.flatnonzero(held != 1)[:1]:
        what = "keeps no active node" if held[k] == 0 else f"splits into {held[k]} active pieces"
        raise DegenerateSectionError(
            f"piece at {_node_box(grid, inside & (inside_label == k))} {what}"
        )
    ghost = _dilate(active) & ~active
    return DomainMask(grid=grid, active=active, ghost=ghost)


# ---------------------------------------------------------------------------
# Slice plans


@dataclass(frozen=True, eq=False)
class SlicePlan:
    """Knots 0 = t_0 < ... < t_N = horizon plus one frozen mask per slice.

    Slice k lives on [knots[k], knots[k+1]) with the domain frozen at the
    right-sided section of knots[k]; ``delta`` is the largest gap.
    """

    knots: np.ndarray
    masks: tuple
    delta: float

    @property
    def n_slices(self):
        return len(self.knots) - 1


def build_slice_plan(dom, grid, n_slices):
    """Choose knots (all jumps included, smooth spans split uniformly until
    there are at least n_slices slices) and rasterize each frozen section."""
    if n_slices < 1:
        raise GeometryError(f"n_slices must be >= 1, got {n_slices}")
    T = dom.horizon
    base = [0.0, *dom.jump_times(), T]
    knots = []
    for a, b in zip(base, base[1:]):
        m = max(1, math.ceil(n_slices * (b - a) / T))
        knots.extend(np.linspace(a, b, m + 1)[:-1])
    knots.append(T)
    knots = np.array(knots)
    if np.any(np.diff(knots) <= 0):
        raise GeometryError("knots failed to increase strictly (jumps too close?)")

    masks = []
    for t in knots[:-1]:
        region = side_limits(dom, float(t))[1]
        try:
            mask = rasterize(region, grid)
        except GeometryError as exc:
            raise type(exc)(f"at knot t={t}: {exc}") from exc
        masks.append(mask)
    delta = float(np.max(np.diff(knots)))
    return SlicePlan(knots=knots, masks=tuple(masks), delta=delta)


# ---------------------------------------------------------------------------
# Hausdorff distance between sampled point sets


def _samples(lo, hi, resolution):
    """Evenly spaced points on [lo, hi], at least two, at most ``resolution`` apart."""
    return np.linspace(lo, hi, max(2, math.ceil((hi - lo) / resolution) + 1))


def _region_points(region, resolution):
    if isinstance(region, IntervalRegion):
        chunks = [_samples(a, b, resolution) for a, b in region.intervals]
        return np.concatenate(chunks)[:, None] if chunks else np.empty((0, 1))
    lattice = _lattice([_samples(lo, hi, resolution) for lo, hi in region.box])
    return lattice[region.contains(lattice)]


def _stack(stamped):
    """One (n, 1 + dim) cloud from (t, points) pairs."""
    return np.vstack([np.column_stack([np.full(len(pts), t), pts]) for t, pts in stamped])


def sample_spacetime(dom, resolution):
    """Point cloud filling the space-time body {(t, x): x in section(t)}."""
    times = _samples(0.0, dom.horizon, resolution)
    return _stack((t, _region_points(section(dom, float(t)), resolution)) for t in times)


def sample_slab(dom, plan, resolution):
    """Point cloud filling the sliced body: on [t_k, t_{k+1}) the section
    frozen at t_k+ (closures sampled; Hausdorff is closure-blind)."""
    stamped = []
    for k in range(plan.n_slices):
        t0, t1 = float(plan.knots[k]), float(plan.knots[k + 1])
        pts = _region_points(side_limits(dom, t0)[1], resolution)
        stamped += [(t, pts) for t in _samples(t0, t1, resolution)]
    return _stack(stamped)


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between two (n, d) point sets.  Its
    accuracy is O(resolution) of whatever sampling produced the clouds."""
    from scipy.spatial import cKDTree  # only here: it costs every import of the package

    pts_a = np.atleast_2d(np.asarray(a, dtype=float))
    pts_b = np.atleast_2d(np.asarray(b, dtype=float))
    if pts_a.size == 0 or pts_b.size == 0:
        raise UndefinedDistanceError("Hausdorff distance needs two non-empty point sets")
    d_ab = cKDTree(pts_b).query(pts_a, k=1)[0].max()
    d_ba = cKDTree(pts_a).query(pts_b, k=1)[0].max()
    return float(max(d_ab, d_ba))


def slab_hausdorff(dom, plan, resolution):
    """Distance between the sliced body and the true space-time body."""
    return hausdorff_distance(sample_slab(dom, plan, resolution), sample_spacetime(dom, resolution))
