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

Two rules, the same in every dimension, refuse a section the grid cannot
represent.  phi is evaluated once per section, on a lattice refined
``FINE``-fold per axis whose every ``FINE``-th sample is a grid node, and
each connected piece (through axis neighbours) of the inside samples must
hold a node: a piece that contains a closed cube of side h/FINE is always
seen, a thinner one may fall between the samples.  And each connected piece
of the nodes in the section must hold exactly one connected piece of the
active set.  A domain holds no box of its own.

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

FINE = 4  # samples per cell and axis on which rasterize looks for a piece holding no node
MAX_SAMPLES = 2**26  # fine samples a grid may have: one float64 array over them stays under 512 MiB

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
    where sections meet the grid (rasterize / scenario loading).  Its
    lattice refined FINE-fold per axis holds at most MAX_SAMPLES points.
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
        if (samples := math.prod(FINE * int(c) + 1 for c in self.counts)) > MAX_SAMPLES:
            from decimal import Decimal  # only here: it prints any int, and costs every import of the package
            raise GeometryError(
                f"counts give {Decimal(samples):.3g} fine samples per section, more than the limit of {MAX_SAMPLES}")

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
    """Connected pieces of ``mask`` through axis neighbours, built from its
    runs along the last axis: (first, last, piece, count), each run's first
    and last flat index (C order), each run's piece 0..count-1, and the
    number of pieces.  Contacts of runs across the other axes go to a graph
    search, one per pair: where either run starts."""
    start, stop = mask.copy(), mask.copy()
    start[..., 1:] &= ~mask[..., :-1]
    stop[..., :-1] &= ~mask[..., 1:]
    first, last = np.flatnonzero(start), np.flatnonzero(stop)
    if mask.ndim == 1 or len(first) == 0:
        return first, last, np.arange(len(first)), len(first)
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    pairs = []
    for a in range(mask.ndim - 1):
        lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
        at = np.ravel_multi_index(np.nonzero(mask[lo] & mask[hi] & (start[lo] | start[hi])), mask.shape)
        ends = (at, at + math.prod(mask.shape[a + 1:]))  # flat indices one step apart along axis a
        pairs.append([np.searchsorted(first, end, side="right") - 1 for end in ends])
    rows, cols = np.concatenate(pairs, axis=1)
    graph = coo_array((np.ones(len(rows)), (rows, cols)), shape=(len(first),) * 2)
    count, piece = connected_components(graph, directed=False)
    return first, last, piece, count


def _held(pieces, at):
    """How many of the flat indices ``at``, all on the mask, each piece of :func:`_pieces` holds."""
    first, _, piece, count = pieces
    return np.bincount(piece[np.searchsorted(first, at, side="right") - 1], minlength=count)


def _fmt_box(box):
    return " x ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in box)


def _piece_box(axes, pieces, k):
    """Bounding box of piece ``k`` of :func:`_pieces` on the lattice ``axes``."""
    first, last, piece, _ = pieces
    at = np.unravel_index(np.concatenate([first[piece == k], last[piece == k]]), tuple(map(len, axes)))
    return _fmt_box((ax[i.min()], ax[i.max()]) for ax, i in zip(axes, at))


def _node_box(grid, sel):
    """Bounding box of the nodes where ``sel`` holds."""
    pts = grid.node_coords()[sel.ravel()]
    return _fmt_box(zip(pts.min(axis=0), pts.max(axis=0)))


def _fine_axes(grid):
    """Per axis: node + m*h/FINE for m = 0..FINE-1 at every node but the last,
    then the last node, so every FINE-th sample is the node itself, bit for bit."""
    axes = []
    for a, h in enumerate(grid.spacing):
        nodes = grid.axis_nodes(a)
        axes.append(np.append((nodes[:-1, None] + h / FINE * np.arange(FINE)).ravel(), nodes[-1]))
    return axes


def rasterize(region, grid):
    """Classify grid nodes against a frozen section (see the module notes).

    phi is evaluated once, on the lattice of :func:`_fine_axes`, and the
    nodes read it at stride FINE.  Raises MarginError when a node of the
    section lies in the grid's outer two-node ring (the stencil needs two
    cells of room), and DegenerateSectionError when the section holds no
    node, or naming the box of a piece that holds no node (the box of its
    fine samples; a piece containing a closed cube of side h/FINE is always
    seen), keeps no active node or splits into several active pieces.
    """
    axes = _fine_axes(grid)
    env = {"t": region.t, **dict(zip(("x", "y"), np.ix_(*axes)))}  # one array per axis, broadcast
    fine = np.broadcast_to(evaluate(region.phi, env), tuple(map(len, axes))) <= 0.0  # phi may not read x
    inside = fine[(slice(None, None, FINE),) * grid.dim]
    interior = np.zeros(grid.shape, dtype=bool)
    interior[(slice(2, -2),) * grid.dim] = True
    if np.any(inside & ~interior):
        raise MarginError(
            f"section nodes at {_node_box(grid, inside)} reach within two cells of the grid box "
            f"{_fmt_box(grid.box)}; the stencil needs a margin of two cells"
        )
    if not inside.any():
        raise DegenerateSectionError(f"section holds no node of the grid box {_fmt_box(grid.box)}")
    pieces = _pieces(fine)
    nodes = np.ravel_multi_index([FINE * i for i in np.nonzero(inside)], fine.shape)
    for k in np.flatnonzero(_held(pieces, nodes) == 0)[:1]:
        raise DegenerateSectionError(
            f"piece at {_piece_box(axes, pieces, k)} holds no grid node at spacing {grid.spacing}")
    active = inside & np.logical_and.reduce(_neighbours(inside))  # every axis neighbour is inside
    if grid.dim > 1:  # and the node lies in an all-active block of 2^dim nodes
        blocks = np.logical_and.reduce([_at(active, c) for c in itertools.product((0, 1), repeat=grid.dim)])
        active = np.logical_or.reduce([_at(blocks, c) for c in itertools.product((0, -1), repeat=grid.dim)])
    pieces, (first, _, piece, _) = _pieces(inside), _pieces(active)
    held = _held(pieces, first[np.unique(piece, return_index=True)[1]])  # a node of each active piece
    for k in np.flatnonzero(held != 1)[:1]:
        what = "keeps no active node" if held[k] == 0 else f"splits into {held[k]} active pieces"
        raise DegenerateSectionError(f"piece at {_piece_box([ax[::FINE] for ax in axes], pieces, k)} {what}")
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
