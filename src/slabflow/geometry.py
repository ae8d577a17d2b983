"""Grids, time-dependent domains, node masks and slice plans.

The scheme freezes the spatial domain on each time slice, so the geometry
layer has two jobs: answer continuous queries about the moving domain
(sections and one-sided limits at jumps) and turn a frozen section into a
node mask on a fixed background grid.

There is one domain model in every dimension: a :class:`TimeDomain` is a
sequence of segments (start, phi), each section the sublevel set
{phi(t, .) <= 0} of the segment in force, and the later starts are the
declared jumps.  A 1D interval [left, right] is the level set
max(left - x, x - right) (:func:`interval_phi`).

A mask is its grid and its active set.  A node is *active* when it and
all its axis neighbours lie in the (closed) section and, in 2D, it lies in
an all-active 2x2 block (1D keeps an isolated active node, a valid 3-point
row).  The ghost ring, derived from the active set, is the axis neighbours
of the active set that are not active themselves.  Ghost nodes carry
Dirichlet data; everything else is outside and stays undefined.  The
boundary is therefore resolved to first order -- intentional, the
time-slicing error dominates anyway.  A slice plan is its knots and one
mask per slice; its Delta, the largest gap between knots, is derived.

One rule, the same in every dimension, refuses a section the grid cannot
represent: each connected piece (through axis neighbours) of the nodes in
the section must hold exactly one connected piece of the active set.  In
1D a piece that falls between two nodes is refused too, as seen on
samples of the grid's box; a domain holds no box of its own.

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
from .expressions import Binary, Call, Name, evaluate

INTERVAL_SAMPLES = 2048  # sampling cells of the grid's box for a 1D section's nodeless pieces
INTERVAL_TOL = 1e-12  # bisection width of a refused 1D piece's printed ends

# ---------------------------------------------------------------------------
# Background grid


def integer_at_least(value, least):
    """The rule of every integer setting: a Python or numpy int, at least ``least``."""
    return isinstance(value, (int, np.integer)) and value >= least


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
        if not (integer_at_least(dim, 1) and dim in cls.DIMS):
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
        if not all(integer_at_least(c, 3) for c in self.counts):
            raise GeometryError(f"counts must be integers >= 3, got {self.counts}")
        if math.prod(int(c) + 1 for c in self.counts) > (most := np.iinfo(np.intp).max):
            raise GeometryError(f"counts give more than {most} nodes, the most numpy can index")

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
class ImplicitRegion:
    """Sublevel set {phi(t, .) <= 0} at a frozen time."""

    phi: object  # expression over t, x (and y in 2D)
    t: float

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = {"t": self.t, **dict(zip(("x", "y"), points.T))}
        return np.full(len(points), evaluate(self.phi, env), dtype=float) <= 0.0  # phi may not read x


def interval_phi(left, right):
    """The level set max(left - x, x - right) of the interval [left, right];
    in floating point phi <= 0 holds exactly where left <= x <= right."""
    x = Name("x")
    return Call("max", (Binary("-", left, x), Binary("-", x, right)))


# ---------------------------------------------------------------------------
# Time-dependent domains


@dataclass(frozen=True)
class TimeDomain:
    """A domain t -> section(t) on [0, horizon], piecewise in time.

    ``segments`` is ((start, phi), ...): from ``start`` on, the section is
    the sublevel set {phi(t, .) <= 0}, with phi an expression over t, x
    (and y in 2D).  The first segment starts at 0; each later start is a
    declared jump, strictly inside (0, horizon), at which the domain is
    right-continuous.
    """

    horizon: float
    dim: int
    segments: tuple

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise GeometryError(f"horizon T must be positive and finite, got {self.horizon}")
        Grid.check_dim(self.dim)
        if not self.segments or self.segments[0][0] != 0.0:
            raise GeometryError("the first segment must start at t = 0")
        starts = [start for start, _ in self.segments]
        if not all(a < b for a, b in zip(starts, starts[1:] + [self.horizon])):
            raise GeometryError(f"jump times must increase strictly inside (0, T): {starts[1:]}")

    @staticmethod
    def implicit(phi, horizon, dim=1):
        """A jump-free domain: one segment."""
        return TimeDomain(float(horizon), dim, ((0.0, phi),))

    def jump_times(self):
        """Declared discontinuity times, strictly inside (0, horizon)."""
        return tuple(start for start, _ in self.segments[1:])


def side_limits(dom, t):
    """One-sided limits (section(t-), section(t+)); equal away from jumps.

    The left limit at t = 0 is defined as the right one.
    """
    if not (0.0 <= t <= dom.horizon):
        raise DomainRangeError(f"t={t} outside [0, {dom.horizon}]")
    starts = [start for start, _ in dom.segments]
    after = bisect_right(starts, t) - 1  # the segment in force from t on
    before = after - 1 if after > 0 and starts[after] == t else after
    return tuple(ImplicitRegion(dom.segments[i][1], float(t)) for i in (before, after))


def section(dom, t):
    """The spatial domain frozen at time t (right-continuous value)."""
    return side_limits(dom, t)[1]


# ---------------------------------------------------------------------------
# Node masks


@dataclass(frozen=True, eq=False)
class DomainMask:
    """One frozen section on a grid: the grid and the active set, a boolean
    array of shape ``grid.shape``.  The ghost ring is derived at construction
    (module notes), so every axis neighbour of an active node is active or
    ghost and the stencil of the flux divergence never reads an undefined node.
    """

    grid: Grid
    active: np.ndarray
    ghost: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ghost", np.logical_or.reduce(_neighbours(self.active)) & ~self.active)

    def __eq__(self, other):
        return (
            isinstance(other, DomainMask)
            and self.grid == other.grid
            and np.array_equal(self.active, other.active)
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


def _at(mask, step):
    """``mask`` read at n + ``step`` for every node n, False where that leaves the array."""
    out = np.zeros_like(mask)
    into = tuple(slice(max(-s, 0), n - max(s, 0)) for s, n in zip(step, mask.shape))
    read = tuple(slice(max(s, 0), n - max(-s, 0)) for s, n in zip(step, mask.shape))
    out[into] = mask[read]
    return out


def _neighbours(mask):
    """``mask`` read at each axis neighbour of every node (:func:`_at`), one array per neighbour."""
    return [_at(mask, sign * unit) for unit in np.eye(mask.ndim, dtype=int) for sign in (-1, 1)]


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


def _boundary(region, x_in, x_out):
    """1D: where phi changes sign between an inside and an outside abscissa, to INTERVAL_TOL."""
    for _ in range(200):
        if abs(x_out - x_in) <= INTERVAL_TOL:
            break
        xm = 0.5 * (x_in + x_out)
        if region.contains([[xm]])[0]:
            x_in = xm
        else:
            x_out = xm
    return 0.5 * (x_in + x_out)


def _refuse_nodeless_piece(region, grid, inside_x):
    """1D: raise for an inside run of the samples of the grid's box that holds
    none of the inside nodes ``inside_x`` (ascending).  Node classification cannot
    see a piece lying between two nodes; its ends are bisected only to name it."""
    xs = np.linspace(*grid.box[0], INTERVAL_SAMPLES + 1)
    framed = np.concatenate([[-math.inf], xs, [math.inf]])
    inside = np.concatenate([[False], region.contains(xs[:, None]), [False]])
    starts, stops = np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2).T
    # run k lies strictly between the outside samples framed[starts[k]] and framed[stops[k] + 1]
    held = (np.searchsorted(inside_x, framed[stops + 1], side="left")
            - np.searchsorted(inside_x, framed[starts], side="right"))
    for k in np.flatnonzero(held == 0)[:1]:
        lo = xs[0] if starts[k] == 0 else _boundary(region, xs[starts[k]], xs[starts[k] - 1])
        hi = xs[-1] if stops[k] == len(xs) else _boundary(region, xs[stops[k] - 1], xs[stops[k]])
        raise DegenerateSectionError(
            f"piece at {_fmt_box([(lo, hi)])} holds no grid node at spacing {grid.spacing}")


def rasterize(region, grid):
    """Classify grid nodes against a frozen section (see the module notes).

    Raises MarginError when a node of the section lies in the grid's outer
    two-node ring (the stencil needs two cells of room), and
    DegenerateSectionError naming the box of a piece that holds no node
    (in 1D, a run of INTERVAL_SAMPLES + 1 samples of the grid's box),
    keeps no active node or splits into several active pieces.
    """
    inside = region.contains(grid.node_coords()).reshape(grid.shape)
    interior = np.zeros(grid.shape, dtype=bool)
    interior[(slice(2, -2),) * grid.dim] = True
    if np.any(inside & ~interior):
        raise MarginError(
            f"section nodes at {_node_box(grid, inside)} reach within two cells of the grid box "
            f"{_fmt_box(grid.box)}; the stencil needs a margin of two cells"
        )
    if grid.dim == 1:
        _refuse_nodeless_piece(region, grid, grid.axis_nodes(0)[inside])
    if not inside.any():
        raise DegenerateSectionError(f"section holds no node of the grid box {_fmt_box(grid.box)}")
    active = inside & np.logical_and.reduce(_neighbours(inside))  # every axis neighbour is inside
    if grid.dim > 1:  # and the node lies in an all-active block of 2^dim nodes
        blocks = np.logical_and.reduce([_at(active, c) for c in itertools.product((0, 1), repeat=grid.dim)])
        active = np.logical_or.reduce([_at(blocks, c) for c in itertools.product((0, -1), repeat=grid.dim)])
    inside_label, n_inside = _pieces(inside)
    first = np.unique(_pieces(active)[0][active], return_index=True)[1]  # a node of each active piece
    held = np.bincount(inside_label[active][first], minlength=n_inside)
    for k in np.flatnonzero(held != 1)[:1]:
        what = "keeps no active node" if held[k] == 0 else f"splits into {held[k]} active pieces"
        raise DegenerateSectionError(
            f"piece at {_node_box(grid, inside & (inside_label == k))} {what}"
        )
    return DomainMask(grid, active)


# ---------------------------------------------------------------------------
# Slice plans


@dataclass(frozen=True, eq=False)
class SlicePlan:
    """Knots 0 = t_0 < ... < t_N = horizon plus one frozen mask per slice.

    Slice k lives on [knots[k], knots[k+1]) with the domain frozen at the
    right-sided section of knots[k].
    """

    knots: np.ndarray
    masks: tuple

    @property
    def delta(self):
        """The largest gap between knots."""
        return float(np.max(np.diff(self.knots)))

    @property
    def n_slices(self):
        return len(self.knots) - 1


def build_slice_plan(dom, grid, n_slices):
    """Choose knots (all jumps included, smooth spans split uniformly until
    there are at least n_slices slices) and rasterize each frozen section."""
    if not integer_at_least(n_slices, 1):
        raise GeometryError(f"n_slices must be an integer >= 1, got {n_slices!r}")
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
        try:
            mask = rasterize(section(dom, float(t)), grid)
        except GeometryError as exc:
            raise type(exc)(f"at knot t={t}: {exc}") from exc
        masks.append(mask)
    return SlicePlan(knots, tuple(masks))


# ---------------------------------------------------------------------------
# Hausdorff distance between sampled point sets


def _samples(lo, hi, resolution):
    """Evenly spaced points on [lo, hi], at least two, at most ``resolution`` apart."""
    return np.linspace(lo, hi, max(2, math.ceil((hi - lo) / resolution) + 1))


def _region_points(region, box, resolution):
    lattice = _lattice([_samples(lo, hi, resolution) for lo, hi in box])
    return lattice[region.contains(lattice)]


def _stack(stamped):
    """One (n, 1 + dim) cloud from (t, points) pairs."""
    return np.vstack([np.column_stack([np.full(len(pts), t), pts]) for t, pts in stamped])


def sample_spacetime(dom, box, resolution):
    """Point cloud filling the space-time body {(t, x): x in section(t)}, sampled inside ``box``."""
    times = _samples(0.0, dom.horizon, resolution)
    return _stack((t, _region_points(section(dom, float(t)), box, resolution)) for t in times)


def sample_slab(dom, plan, resolution):
    """Point cloud filling the sliced body: on [t_k, t_{k+1}) the section
    frozen at t_k+ (closures sampled; Hausdorff is closure-blind), inside the plan's grid box."""
    box, stamped = plan.masks[0].grid.box, []
    for k in range(plan.n_slices):
        t0, t1 = float(plan.knots[k]), float(plan.knots[k + 1])
        pts = _region_points(section(dom, t0), box, resolution)
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
    return hausdorff_distance(sample_slab(dom, plan, resolution),
                              sample_spacetime(dom, plan.masks[0].grid.box, resolution))
