"""Grids, time-dependent domains, node masks and slice plans.

The scheme freezes the spatial domain on each time slice, so the geometry
layer has two jobs: answer continuous queries about the moving domain
(sections, one-sided limits at jumps, expansion/contraction regions) and
turn a frozen section into a node mask on a fixed background grid.

Masks follow a ghost-node convention: a node is *active* when it and all
its axis neighbours lie in the (closed) section, and *ghost* when it is
not active but neighbours an active node.  Ghost nodes carry Dirichlet
data; everything else is outside and stays undefined.  The boundary is
therefore resolved to first order -- intentional, the time-slicing error
dominates anyway.

All operations here are pure functions of their arguments: same inputs,
bitwise-identical outputs.
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
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

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GeometryError(f"dim must be 1 or 2, got {self.dim}")
        for name, tup in (("origin", self.origin), ("spacing", self.spacing), ("counts", self.counts)):
            if len(tup) != self.dim:
                raise GeometryError(f"{name} must have {self.dim} entries, got {len(tup)}")
        if not all(h > 0 for h in self.spacing):
            raise GeometryError(f"spacing must be positive, got {self.spacing}")
        if any(int(c) != c or c < 3 for c in self.counts):
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
    def is_empty(self):
        return not self.intervals

    @property
    def min_width(self):
        return min((b - a for a, b in self.intervals), default=0.0)

    @property
    def bounds(self):
        if self.is_empty:
            return None
        return (self.intervals[0][0], self.intervals[-1][1])

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

    def phi_values(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = {"t": self.t, **dict(zip(("x", "y"), points.T))}
        return np.asarray(evaluate(self.phi, env), dtype=float)

    def contains(self, points):
        return self.phi_values(points) <= 0.0

    def to_intervals(self):
        """1D only: extract the sublevel set as intervals by sampling the
        box and bisecting each sign change."""
        if self.dim != 1:
            raise GeometryError("interval extraction is only defined in 1D")
        lo, hi = self.box[0]
        xs = np.linspace(lo, hi, INTERVAL_SAMPLES + 1)
        inside = self.phi_values(xs[:, None]) <= 0.0

        def _phi(x):
            return float(self.phi_values(np.array([[x]]))[0])

        def _bisect(xa, xb):
            # invariant: inside-ness differs between xa and xb
            fa = _phi(xa)
            for _ in range(200):
                if xb - xa <= INTERVAL_TOL:
                    break
                xm = 0.5 * (xa + xb)
                fm = _phi(xm)
                if (fa <= 0.0) == (fm <= 0.0):
                    xa, fa = xm, fm
                else:
                    xb = xm
            return 0.5 * (xa + xb)

        intervals = []
        start = None
        for i in range(len(xs)):
            if inside[i] and start is None:
                start = xs[i] if i == 0 else _bisect(xs[i - 1], xs[i])
            elif not inside[i] and start is not None:
                end = _bisect(xs[i - 1], xs[i])
                if end > start:
                    intervals.append((start, end))
                start = None
        if start is not None:
            intervals.append((start, xs[-1]))
        return IntervalRegion(tuple(intervals))


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

    def __post_init__(self):
        if not self.horizon > 0:
            raise GeometryError(f"horizon T must be positive, got {self.horizon}")
        if self.kind not in ("moving_intervals", "implicit"):
            raise GeometryError(f"unknown domain kind {self.kind!r}")
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


def _check_margin(region, grid):
    tol = 1e-12 * max(abs(hi) + abs(lo) + 1.0 for lo, hi in grid.box)
    if isinstance(region, IntervalRegion):
        if region.is_empty:
            return
        (lo, hi), = grid.box
        h = grid.spacing[0]
        a, b = region.bounds
        if a < lo + 2 * h - tol or b > hi - 2 * h + tol:
            raise MarginError(
                f"section [{a}, {b}] needs a margin of 2h={2 * h} inside the grid box [{lo}, {hi}]"
            )
    else:
        # implicit: discrete check on the outer two-node ring
        pts = grid.node_coords()
        inside = region.contains(pts).reshape(grid.shape)
        ring = np.zeros(grid.shape, dtype=bool)
        for a in range(grid.dim):
            ring[along(a, slice(None, 2))] = ring[along(a, slice(-2, None))] = True
        if np.any(inside & ring):
            raise MarginError(
                "implicit section reaches within two cells of the grid box boundary"
            )


def rasterize(region, grid):
    """Classify grid nodes against a frozen section.

    Active nodes are those strictly interior in the discrete sense (the
    node and all axis neighbours belong to the section's closure); ghost
    nodes are the remaining neighbours of active nodes.
    """
    if isinstance(region, IntervalRegion) and grid.dim != 1:
        raise GeometryError("interval regions rasterize on 1D grids only")
    _check_margin(region, grid)
    if isinstance(region, IntervalRegion):
        inside = region.contains(grid.axis_nodes(0))
    else:
        inside = region.contains(grid.node_coords()).reshape(grid.shape)
    active = _neighbour_all(inside)
    if not active.any():
        if isinstance(region, IntervalRegion):
            detail = f"minimum feature size {region.min_width} vs spacing {grid.spacing[0]}"
        else:
            detail = f"no interior nodes at spacing {grid.spacing}"
        raise DegenerateSectionError(f"section has no active nodes ({detail})")
    ghost = _dilate(active) & ~active
    return DomainMask(grid=grid, active=active, ghost=ghost)


def _check_resolvable(region, mask, grid):
    """Stand-in for boundary-regularity hypotheses: refuse sections the
    grid cannot honestly represent."""
    if isinstance(region, IntervalRegion):
        h = grid.spacing[0]
        for a, b in region.intervals:
            if b - a < 2 * h:
                raise DegenerateSectionError(
                    f"interval ({a}, {b}) spans {(b - a) / h:.3g} cells; need >= 2"
                )
    else:
        # every active node must sit in some fully-active block of 2^dim nodes
        act = mask.active
        corners = list(itertools.product((slice(None, -1), slice(1, None)), repeat=act.ndim))
        blocks = np.logical_and.reduce([act[c] for c in corners])
        covered = np.zeros_like(act)
        for c in corners:
            covered[c] |= blocks
        if np.any(act & ~covered):
            raise DegenerateSectionError(
                "active set is thinner than two cells somewhere (no 2x2 block cover)"
            )


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
            _check_resolvable(region, mask, grid)
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


def sample_spacetime(dom, resolution):
    """Point cloud filling the space-time body {(t, x): x in section(t)}."""
    rows = []
    for t in _samples(0.0, dom.horizon, resolution):
        pts = _region_points(section(dom, float(t)), resolution)
        if len(pts):
            rows.append(np.column_stack([np.full(len(pts), t), pts]))
    if not rows:
        return np.empty((0, 1 + dom.dim))
    return np.vstack(rows)


def sample_slab(dom, plan, resolution):
    """Point cloud filling the sliced body: on [t_k, t_{k+1}) the section
    frozen at t_k+ (closures sampled; Hausdorff is closure-blind)."""
    rows = []
    for k in range(plan.n_slices):
        t0, t1 = float(plan.knots[k]), float(plan.knots[k + 1])
        region = side_limits(dom, t0)[1]
        pts = _region_points(region, resolution)
        if not len(pts):
            continue
        for t in _samples(t0, t1, resolution):
            rows.append(np.column_stack([np.full(len(pts), t), pts]))
    if not rows:
        return np.empty((0, 1 + dom.dim))
    return np.vstack(rows)


def hausdorff_distance(a, b, resolution=None):
    """Symmetric Hausdorff distance between two point sets.

    ``a`` and ``b`` may be (n, d) arrays or samplers (callables taking the
    resolution and returning such an array).  Accuracy is O(resolution) of
    whatever sampling produced the clouds.
    """
    from scipy.spatial import cKDTree  # only here: it costs every import of the package

    pts_a = np.atleast_2d(np.asarray(a(resolution) if callable(a) else a, dtype=float))
    pts_b = np.atleast_2d(np.asarray(b(resolution) if callable(b) else b, dtype=float))
    if pts_a.size == 0 or pts_b.size == 0:
        raise UndefinedDistanceError("Hausdorff distance needs two non-empty point sets")
    d_ab = cKDTree(pts_b).query(pts_a, k=1)[0].max()
    d_ba = cKDTree(pts_a).query(pts_b, k=1)[0].max()
    return float(max(d_ab, d_ba))


def slab_hausdorff(dom, plan, resolution):
    """Distance between the sliced body and the true space-time body."""
    return hausdorff_distance(
        lambda r: sample_slab(dom, plan, r),
        lambda r: sample_spacetime(dom, r),
        resolution,
    )
