"""Gluing frozen-domain slices into a space-time field.

The scheme walks the slice plan left to right.  At each interior knot the
previous slice's final frame is *transferred* onto the next mask: values
are copied where the domains overlap, newly created space starts from the
Dirichlet extension psi, removed space is dropped.  Two fields come out:

- ``frames``: the glued solution, defined on each slice's active + ghost
  nodes, quiet NaN elsewhere;
- ``extended``: total on the grid box, equal to the solution on active
  nodes and to psi everywhere else (the extension used for comparing
  different slicings on a common domain).

Knots carry two stamps, the left trace (end of the earlier slice) and the
right trace (start of the later one); ``knot_traces`` returns that pair.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError
from .geometry import build_slice_plan
from .slice_solver import SliceProblem, SolverConfig, eval_on_points, solve_slice


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    frames_mode: str = "knots"  # which stamps write_frames emits: 'knots' | 'all'


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run the scheme once."""

    grid: object
    domain: object
    n_slices: int
    substeps: int
    flux: object
    boundary: object
    u0: object
    source: object = None
    config: SolverConfig = SolverConfig()
    output: OutputConfig = None


def scenario_issues(scenario):
    """Why ``scenario`` cannot run, as a list of messages (empty when it can).

    Fields left as None (the loader found them missing or broken) are skipped.
    """
    issues = [
        f"[time] {key} must be >= 1, got {value}"
        for key, value in (("slices", scenario.n_slices), ("substeps", scenario.substeps))
        if value is not None and value < 1
    ]
    flux, grid = scenario.flux, scenario.grid
    if flux is not None and grid is not None and flux.dim != grid.dim:
        issues.append(f"[flux] a {flux.dim}D flux cannot run on a {grid.dim}D grid")
    return issues


@dataclass(eq=False)
class SpaceTimeField:
    """Solution stamps of one run.

    ``times``/``slice_index`` are parallel: stamp i happened at
    ``times[i]`` inside slice ``slice_index[i]`` (interior knots appear
    twice, once as each neighbour's trace).  ``frames[i]`` and
    ``extended[i]`` are full-grid arrays.
    """

    plan: object
    times: np.ndarray
    slice_index: np.ndarray
    frames: np.ndarray
    extended: np.ndarray

    @property
    def n_stamps(self):
        return len(self.times)

    def mask_at(self, i):
        return self.plan.masks[self.slice_index[i]]

    def stamps_of_slice(self, k):
        return np.flatnonzero(self.slice_index == k)

    def hold_index(self, t):
        """Stamp index whose frame represents time t under piecewise-hold:
        the latest stamp <= t inside the slice owning t (slices own
        [t_k, t_{k+1}); the final knot belongs to the last slice)."""
        knots = self.plan.knots
        if not (knots[0] <= t <= knots[-1]):
            raise ValueError(f"t={t} outside [{knots[0]}, {knots[-1]}]")
        k = min(int(np.searchsorted(knots, t, side="right")) - 1, self.plan.n_slices - 1)
        idx = self.stamps_of_slice(k)
        j = int(np.searchsorted(self.times[idx], t, side="right")) - 1
        return int(idx[max(j, 0)])

    def sample_extended(self, t):
        return self.extended[self.hold_index(t)]


@dataclass
class RunReport:
    knots: np.ndarray
    delta: float
    slice_stats: list
    wall_time: float

    def total_newton(self):
        return sum(s["newton"] for s in self.slice_stats)


def transfer(frame_end, mask_prev, mask_next, boundary, t_knot):
    """Map a slice-final frame onto the next slice's mask.

    Copy on surviving active nodes, psi(t_knot) on newly active nodes and
    on the new ghost ring, NaN elsewhere.
    """
    if mask_prev.grid != mask_next.grid:
        raise ValueError("transfer requires masks on the same grid")
    out = np.full(mask_next.grid.shape, np.nan)
    keep = mask_prev.active & mask_next.active
    out[keep] = frame_end[keep]
    fresh = mask_next.active & ~mask_prev.active
    if fresh.any():
        pts = mask_next.grid.node_coords()[fresh.ravel()]
        out[fresh] = boundary.values(t_knot, pts)
    if mask_next.ghost.any():
        out[mask_next.ghost] = boundary.values(t_knot, mask_next.ghost_points())
    return out


def initial_frame(scenario, mask, t0=0.0):
    """u0 on the active set, psi(t0) on the ghost ring, NaN elsewhere."""
    out = np.full(mask.grid.shape, np.nan)
    out[mask.active] = eval_on_points(scenario.u0, t0, mask.active_points())
    if mask.ghost.any():
        out[mask.ghost] = scenario.boundary.values(t0, mask.ghost_points())
    return out


def _extend_frame(frame, mask, boundary, t):
    psi_all = boundary.values(t, mask.grid.node_coords()).reshape(mask.grid.shape)
    return np.where(mask.active, frame, psi_all)


def run_scheme(scenario, plan=None):
    """Run the full time-sliced scheme; returns (field, report)."""
    t_start = time.perf_counter()
    issues = scenario_issues(scenario)
    if issues:
        raise ScenarioError(issues)
    if plan is None:
        plan = build_slice_plan(scenario.domain, scenario.grid, scenario.n_slices)
    times, slice_idx, frames, extended = [], [], [], []
    slice_stats = []
    current = initial_frame(scenario, plan.masks[0], float(plan.knots[0]))
    for k in range(plan.n_slices):
        t0, t1 = float(plan.knots[k]), float(plan.knots[k + 1])
        problem = SliceProblem(
            mask=plan.masks[k],
            flux=scenario.flux,
            freeze_time=t0,
            span=(t0, t1),
            substeps=scenario.substeps,
            boundary=scenario.boundary,
            initial=current,
            source=scenario.source,
            config=scenario.config,
        )
        sol = solve_slice(problem)
        for m, t in enumerate(sol.times):
            times.append(float(t))
            slice_idx.append(k)
            frames.append(sol.frames[m])
            extended.append(_extend_frame(sol.frames[m], plan.masks[k], scenario.boundary, float(t)))
        slice_stats.append(
            {
                "slice": k,
                "span": (t0, t1),
                "newton": sum(s.newton_iterations for s in sol.stats),
                "picard": sum(s.picard_iterations for s in sol.stats),
                "worst_residual": max((s.residual for s in sol.stats), default=0.0),
            }
        )
        if k + 1 < plan.n_slices:
            current = transfer(sol.frames[-1], plan.masks[k], plan.masks[k + 1], scenario.boundary, t1)
    field = SpaceTimeField(
        plan=plan,
        times=np.array(times),
        slice_index=np.array(slice_idx, dtype=np.int64),
        frames=np.array(frames),
        extended=np.array(extended),
    )
    report = RunReport(
        knots=plan.knots.copy(),
        delta=plan.delta,
        slice_stats=slice_stats,
        wall_time=time.perf_counter() - t_start,
    )
    return field, report


def knot_traces(field, k):
    """(left trace, right trace) frame pair at interior knot k."""
    if not (1 <= k <= field.plan.n_slices - 1):
        raise IndexError(f"knot index {k} outside 1..{field.plan.n_slices - 1}")
    before = field.stamps_of_slice(k - 1)
    after = field.stamps_of_slice(k)
    return field.frames[before[-1]], field.frames[after[0]]
