"""Gluing frozen-domain slices into a space-time field.

The scheme walks the slice plan left to right.  At each interior knot the
previous slice's final frame is *transferred* onto the next mask: values
are copied where the domains overlap, newly created space starts from the
Dirichlet extension psi, removed space is dropped.  A run stores one
full-grid array per stamp, ``frames``: the glued solution, defined on each
slice's active + ghost nodes, quiet NaN elsewhere.  The extension used for
comparing different slicings on a common domain (total on the grid box,
equal to the solution on active nodes and to psi everywhere else) is
derived from a frame on demand, never stored.

Knots carry two stamps, the left trace (end of the earlier slice) and the
right trace (start of the later one); ``knot_traces`` returns that pair.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainRangeError, GeometryError, ScenarioError, SlabflowError, SolverStallError
from .expressions import Expr, Num
from .geometry import build_slice_plan, integer_at_least
from .slice_solver import SliceProblem, on_points, solve_slice


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    frames_mode: str = "knots"  # which stamps write_frames emits: 'knots' | 'all'

    def __post_init__(self):
        if not self.directory:
            raise SlabflowError(f"dir must name a directory, got {self.directory!r}")
        if self.frames_mode not in ("knots", "all"):
            raise SlabflowError(f"frames must be 'knots' or 'all', got {self.frames_mode!r}")


def count_issues(n_slices, substeps):
    """[time] issues of the slice and substep counts; a None count is skipped."""
    counts = {"slices": n_slices, "substeps": substeps}
    return [f"[time] {key} must be an integer >= 1, got {n!r}"
            for key, n in counts.items() if n is not None and not integer_at_least(n, 1)]


def cross_part_issues(grid, domain, flux):
    """Issues between built parts: a domain or a flux runs only on a grid of its dimension."""
    return [f"[{key}] a {part.dim}D {key} cannot run on a {grid.dim}D grid"
            for key, part in (("domain", domain), ("flux", flux)) if part.dim != grid.dim]


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run the scheme once; no source is ``Num(0.0)``.
    Construction requires every part but the output and checks the counts,
    that the data are expressions and, once those hold, the cross-part
    rules (ScenarioError)."""

    grid: object
    domain: object
    n_slices: int
    substeps: int
    flux: object
    psi: object
    u0: object
    source: object = Num(0.0)
    output: OutputConfig = None

    REQUIRED = (("grid", "grid"), ("domain", "domain"), ("time", "n_slices"),
                ("time", "substeps"), ("flux", "flux"))

    def __post_init__(self):
        issues = [f"[{section}] {key} is required, got None"
                  for section, key in self.REQUIRED if getattr(self, key) is None]
        issues += count_issues(self.n_slices, self.substeps)
        issues += [
            f"[data] {key} must be an expression, got {value!r}"
            for key, value in (("u0", self.u0), ("psi", self.psi), ("source", self.source))
            if not isinstance(value, Expr)
        ]
        issues = issues or cross_part_issues(self.grid, self.domain, self.flux)
        if issues:
            raise ScenarioError(issues)


@dataclass(eq=False)
class SpaceTimeField:
    """Solution stamps of one run.

    ``times``/``slice_index`` are parallel: stamp i happened at
    ``times[i]`` inside slice ``slice_index[i]`` (interior knots appear
    twice, once as each neighbour's trace).  ``frames[i]`` is a full-grid
    array; ``psi`` is the expression that extends it off its active set.
    """

    plan: object
    times: np.ndarray
    slice_index: np.ndarray
    frames: np.ndarray
    psi: object

    @property
    def n_stamps(self):
        return len(self.times)

    def mask_at(self, i):
        return self.plan.masks[self.slice_index[i]]

    def stamps_of_slice(self, k):
        return np.flatnonzero(self.slice_index == k)

    @cached_property
    def _psi_on_nodes(self):
        """t -> psi on the grid nodes (:func:`on_points`): a stamp walks only what reads t."""
        return on_points(self.psi, self.plan.masks[0].grid.node_coords())

    def extended_frame(self, i):
        """Stamp i extended by psi(times[i]) off its active set: total on the grid box."""
        mask = self.mask_at(i)
        psi_all = self._psi_on_nodes(float(self.times[i]))
        return np.where(mask.active, self.frames[i], psi_all.reshape(mask.active.shape))

    @cached_property
    def psi_sup(self):
        """sup |psi| on the grid nodes over the distinct stamp times (derived once)."""
        return max(float(np.max(np.abs(self._psi_on_nodes(float(t))))) for t in np.unique(self.times))

    @property
    def extended(self):
        """Every stamp's extension, stacked (derived afresh on each access)."""
        return np.array([self.extended_frame(i) for i in range(self.n_stamps)])

    def hold_index(self, t):
        """Stamp index whose frame represents time t under piecewise hold:
        the latest stamp <= t.  An interior knot's later stamp is the next
        slice's start, so slices own [t_k, t_{k+1}) and the final knot
        belongs to the last slice.  An int for scalar t, an index array for
        an array of times."""
        knots, t_arr = self.plan.knots, np.asarray(t)
        if not np.all((knots[0] <= t_arr) & (t_arr <= knots[-1])):
            raise DomainRangeError(f"t={t} outside [{knots[0]}, {knots[-1]}]")
        idx = np.searchsorted(self.times, t, side="right") - 1
        return int(idx) if np.ndim(idx) == 0 else idx


@dataclass
class RunReport:
    slice_stats: list
    wall_time: float

    def total_newton(self):
        return sum(s["newton"] for s in self.slice_stats)


def transfer(frame_end, mask_prev, mask_next, psi, t_knot):
    """Map a slice-final frame onto the next slice's mask.

    Copy on surviving active nodes, psi(t_knot) on newly active nodes and
    on the new ghost ring, NaN elsewhere.
    """
    if mask_prev.grid != mask_next.grid:
        raise GeometryError("transfer requires masks on the same grid")
    out = np.full(mask_next.grid.shape, np.nan)
    keep = mask_prev.active & mask_next.active
    out[keep] = frame_end[keep]
    from_psi = mask_next.defined & ~keep
    out[from_psi] = on_points(psi, mask_next.grid.node_coords()[from_psi.ravel()])(t_knot)
    return out


def initial_frame(scenario, mask, t0=0.0):
    """u0 on the active set, psi(t0) on the ghost ring, NaN elsewhere."""
    out = np.full(mask.grid.shape, np.nan)
    out[mask.active] = on_points(scenario.u0, mask.active_points())(t0)
    out[mask.ghost] = on_points(scenario.psi, mask.ghost_points())(t0)
    return out


def run_scheme(scenario, plan=None):
    """Run the full time-sliced scheme; returns (field, report)."""
    t_start = time.perf_counter()
    if plan is None:
        plan = build_slice_plan(scenario.domain, scenario.grid, scenario.n_slices)
    times, slice_idx, frames = [], [], []
    slice_stats = []
    current = initial_frame(scenario, plan.masks[0], float(plan.knots[0]))
    for k in range(plan.n_slices):
        t0, t1 = float(plan.knots[k]), float(plan.knots[k + 1])
        problem = SliceProblem(
            mask=plan.masks[k],
            flux=scenario.flux,
            span=(t0, t1),
            substeps=scenario.substeps,
            psi=scenario.psi,
            initial=current,
            source=scenario.source,
        )
        try:
            sol = solve_slice(problem)
        except SolverStallError as exc:
            exc.slice = k
            raise
        times.extend(sol.times)
        slice_idx.extend([k] * len(sol.times))
        frames.extend(sol.frames)
        slice_stats.append(
            {
                "slice": k,
                "span": (t0, t1),
                "newton": sum(s.newton_iterations for s in sol.stats),
                "picard": 0,  # always 0: bench/spans.py sums this key for slice_solver.picard_iters
                "halvings": sum(s.halvings for s in sol.stats),
                "factorisations": sol.factorisations,
                "floor": sum(s.floor for s in sol.stats),
                "worst_residual": max((s.residual for s in sol.stats), default=0.0),
            }
        )
        if k + 1 < plan.n_slices:
            current = transfer(sol.frames[-1], plan.masks[k], plan.masks[k + 1], scenario.psi, t1)
    field = SpaceTimeField(
        plan=plan,
        times=np.array(times),
        slice_index=np.array(slice_idx, dtype=np.int64),
        frames=np.array(frames),
        psi=scenario.psi,
    )
    return field, RunReport(slice_stats=slice_stats, wall_time=time.perf_counter() - t_start)


def knot_traces(field, k):
    """(left trace, right trace) frame pair at interior knot k."""
    if not (1 <= k <= field.plan.n_slices - 1):
        raise IndexError(f"knot index {k} outside 1..{field.plan.n_slices - 1}")
    before = field.stamps_of_slice(k - 1)
    after = field.stamps_of_slice(k)
    return field.frames[before[-1]], field.frames[after[0]]
