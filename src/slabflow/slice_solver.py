"""Implicit time stepping of one frozen-domain slice.

On a slice the domain is a fixed node mask, Dirichlet data psi lives on
the ghost ring, and each substep solves backward Euler

    (u - u_in) / tau - div A(t_freeze, x, u, grad u) - f(t_to, x) = 0

on the active nodes.  The divergence is face-centred: per axis, the
normal gradient component is the one-sided difference across the face,
the solution slot z is the arithmetic mean of the endpoints, and every
other (transverse) component is the average of the endpoints' central
differences (one-sided or zero where the frame is undefined).  With a
linear flux this collapses to the standard (2d+1)-point Laplacian.  The
stencil slices each axis the same way, whatever the grid's dimension.

One face-assembly routine (:meth:`_Stencil.assemble`) serves the whole
step.  Per axis it evaluates the face fields once and gives each face's
flux and endpoint derivatives.  The residual takes the flux only.  The
two Jacobians differ only in the per-face derivatives: damped Newton
(residual-norm backtracking, shrink 0.5 down to steps of 2^-20)
differentiates the flux in the face-normal and z slots; if it stalls, a
lagged-coefficient (Picard) iteration replaces the flux by a frozen
secant diffusivity times the normal difference.  Both solve with
I/tau - J; exhausting both raises :class:`SolverStallError` with the
residual history.

The domain is frozen on a slice, so all its systems share one sparsity
pattern: a CSC matrix holding the diagonal and each face's couplings
between active endpoints, and two scatter maps, ``div_rows`` (each face
end's div-A row) and the slots (each Jacobian value's matrix entry).  The
matrix and the slots are built at a stencil's first ``step_matrix`` call,
so a residual-only stencil never pays for them.  An iteration only fills
values, with one ``np.bincount`` per map; it sums each target's terms in
face-loop order from 0.0, so they are bitwise those of a COO matrix
assembled afresh.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import spsolve

from .errors import NumericInputError, SlabflowError, SolverStallError
from .expressions import evaluate as eval_expr
from .flux import FD_STEP, _diag_jacobian_many, _dz_many, evaluate_many
from .geometry import along

LINE_SEARCH_SHRINK = 0.5  # Newton backtracking factor
MIN_LINE_STEP = 2.0**-20  # the smallest damped step tried before Newton counts as stalled


def eval_on_points(expr, t, points):
    """Evaluate an expression of (t, x[, y]) on (n, dim) points."""
    points = np.atleast_2d(points)
    env = {"t": t, **dict(zip(("x", "y"), points.T))}
    out = eval_expr(expr, env)
    return np.broadcast_to(np.asarray(out, dtype=float), (len(points),)).copy()


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50
    max_picard: int = 200

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise SlabflowError(f"newton_tol must be positive, got {self.newton_tol}")
        for key in ("max_newton", "max_picard"):
            value = getattr(self, key)
            if not (isinstance(value, (int, np.integer)) and value >= 0):
                raise SlabflowError(f"{key} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet extension data psi(t, x); its time derivative and its
    gradient are central differences."""

    psi: object

    def values(self, t, points):
        return eval_on_points(self.psi, t, points)

    def time_derivative(self, t, points):
        dt = FD_STEP * (1.0 + abs(t))
        return (self.values(t + dt, points) - self.values(t - dt, points)) / (2.0 * dt)

    def gradient(self, t, points):
        points = np.atleast_2d(points)
        dim = points.shape[1]
        out = np.empty_like(points)
        for a in range(dim):
            step = FD_STEP * (1.0 + np.abs(points[:, a]).max(initial=0.0))
            hi = points.copy()
            hi[:, a] += step
            lo = points.copy()
            lo[:, a] -= step
            out[:, a] = (self.values(t, hi) - self.values(t, lo)) / (2.0 * step)
        return out


@dataclass(frozen=True)
class SliceProblem:
    """One frozen-domain slice: mask, flux (time argument frozen at the
    span's start), span to integrate over, data and solver knobs."""

    mask: object
    flux: object
    span: tuple
    substeps: int
    boundary: BoundaryData
    initial: np.ndarray
    source: object = None
    config: SolverConfig = SolverConfig()


@dataclass
class StepStats:
    newton_iterations: int
    picard_iterations: int
    residual: float
    history: list = field(default_factory=list)


@dataclass
class SliceSolution:
    times: np.ndarray
    frames: list
    stats: list


# ---------------------------------------------------------------------------
# Face stencil machinery


class _Stencil:
    """Static face indexing for one mask; reused across substeps/iterations."""

    def __init__(self, mask, flux):
        self.flux = flux
        grid = mask.grid
        self.shape = grid.shape
        self.dim = grid.dim
        self.defined = mask.defined
        self.active_flat = np.flatnonzero(mask.active.ravel())
        self.n_active = len(self.active_flat)
        rank = np.full(grid.n_nodes, -1, dtype=np.int64)
        rank[self.active_flat] = np.arange(self.n_active)
        coords = grid.node_coords()
        self.active_points = coords[self.active_flat]
        self.ghost_flat = np.flatnonzero(mask.ghost.ravel())
        self.ghost_points = coords[self.ghost_flat]

        # Per axis, ``ends``: the faces whose low / high end is active;
        # ``couplings``: (row sign, column end, faces with both ends active)
        # for (lo, lo), (lo, hi), (hi, lo), (hi, hi) -- the order of the maps.
        self.axes = []
        div_rows, rows, cols = [], [], []
        for a in range(self.dim):
            h = grid.spacing[a]
            lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
            fidx = np.nonzero(self.defined[hi] & self.defined[lo])
            mids = np.column_stack([grid.axis_nodes(b)[fidx[b]] for b in range(self.dim)])
            mids[:, a] += 0.5 * h
            lo_flat = np.ravel_multi_index(fidx, self.shape)
            ranks = (rank[lo_flat], rank[lo_flat + int(np.prod(self.shape[a + 1:]))])
            ends = [np.flatnonzero(r >= 0) for r in ranks]
            div_rows += [r[sel] for r, sel in zip(ranks, ends)]
            couplings = []
            for row, sign in zip(ranks, (1.0, -1.0)):
                for end, col in enumerate(ranks):
                    sel = np.flatnonzero((row >= 0) & (col >= 0))
                    couplings.append((sign, end, sel))
                    rows.append(row[sel])
                    cols.append(col[sel])
            self.axes.append({"h": h, "lo": lo, "hi": hi, "fidx": fidx, "mids": mids,
                              "ends": ends, "couplings": couplings})

        self.div_rows = np.concatenate(div_rows)
        self._entries = np.concatenate(rows), np.concatenate(cols)  # (row, col) of assemble's J values

    @cached_property
    def matrix(self):
        """The CSC pattern of I/tau - J."""
        n = self.n_active
        rows, cols = self._entries
        pattern = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        matrix = (identity(n) + pattern).tocsc()
        matrix.sort_indices()  # so the stored entries' keys col*n + row ascend
        return matrix

    @cached_property
    def _slots(self):
        """``matrix``'s data index of each Jacobian value and of each diagonal entry."""
        n, (rows, cols) = self.n_active, self._entries
        keys = self.matrix.indices + n * np.repeat(np.arange(n), np.diff(self.matrix.indptr))
        return np.searchsorted(keys, cols * n + rows), np.searchsorted(keys, np.arange(n) * (n + 1))

    # -- face field values ---------------------------------------------------

    def _face_transverse(self, u, axis, face_ax):
        """xi_axis at the faces of ``face_ax``: the mean of the endpoints'
        averages of the available one-sided differences along ``axis``
        (central where both neighbours are defined)."""
        ax = self.axes[axis]
        lo, hi = ax["lo"], ax["hi"]
        d = np.zeros(self.shape)
        w = np.zeros(self.shape)
        valid = self.defined[hi] & self.defined[lo]
        diff = np.where(valid, (u[hi] - u[lo]) / ax["h"], 0.0)
        for end in (lo, hi):
            d[end] += diff
            w[end] += valid
        ndt = np.where(w > 0, d / np.maximum(w, 1), 0.0)
        return (0.5 * (ndt[face_ax["hi"]] + ndt[face_ax["lo"]]))[face_ax["fidx"]]

    def face_fields(self, u):
        """Per axis: (xi_full, z, normal_xi) at the defined faces."""
        out = []
        for a, ax in enumerate(self.axes):
            lo, hi, fidx = ax["lo"], ax["hi"], ax["fidx"]
            xi_n = ((u[hi] - u[lo]) / ax["h"])[fidx]
            z = (0.5 * (u[hi] + u[lo]))[fidx]
            xi = [xi_n if b == a else self._face_transverse(u, b, ax) for b in range(self.dim)]
            out.append((np.column_stack(xi), z, xi_n))
        return out

    # -- assembly --------------------------------------------------------------

    def assemble(self, t_freeze, u, face_terms):
        """One pass over the faces: div A at the active nodes and the values
        of d(div)/d(u_active) in the order of ``slot``.

        ``face_terms(flux, t_freeze, a, ax, xi, z, xi_n)`` gives each face's
        flux ``F`` and its endpoint derivatives ``(dF_lo, dF_hi)``; either
        may be None, and the matching output then is zeros / None.
        """
        flux_parts, jac_parts = [], []
        for a, (ax, (xi, z, xi_n)) in enumerate(zip(self.axes, self.face_fields(u))):
            F, dF = face_terms(self.flux, t_freeze, a, ax, xi, z, xi_n)
            h = ax["h"]
            if F is not None:
                lo_faces, hi_faces = ax["ends"]
                flux_parts += [F[lo_faces] / h, -(F[hi_faces] / h)]
            if dF is not None:
                jac_parts += [sign * dF[end][sel] / h for sign, end, sel in ax["couplings"]]
        div = np.zeros(self.n_active)
        if flux_parts:
            div = np.bincount(self.div_rows, np.concatenate(flux_parts), self.n_active)
        return div, (np.concatenate(jac_parts) if jac_parts else None)

    def step_matrix(self, jac, tau):
        """I/tau - J from J's values ``jac``, written into the stencil's matrix."""
        slot, diag_slot = self._slots
        data = -np.bincount(slot, jac, self.matrix.nnz)
        data[diag_slot] += 1.0 / tau
        self.matrix.data = data
        return self.matrix

    def divergence(self, t_freeze, u):
        """div A at the active nodes (compact array, active order)."""
        return self.assemble(t_freeze, u, _flux_faces)[0]


def _flux_faces(flux, t, a, ax, xi, z, xi_n):
    """The residual: the face flux, no derivatives."""
    return evaluate_many(flux, t, ax["mids"], z, xi)[:, a], None


def _newton_faces(flux, t, a, ax, xi, z, xi_n):
    """Newton: the face flux differentiated in its normal-gradient and z
    slots (transverse coupling is dropped -- exact for 1D and for any flux
    whose component depends only on its own slot, quasi-Newton else)."""
    h = ax["h"]
    dA = _diag_jacobian_many(flux, t, ax["mids"], z, xi, a)
    dz = _dz_many(flux, t, ax["mids"], z, xi, a)
    return None, (-dA / h + 0.5 * dz, dA / h + 0.5 * dz)


def _picard_faces(flux, t, a, ax, xi, z, xi_n):
    """Picard: the face flux replaced by c_f * (normal difference), with the
    secant diffusivity c_f >= 0 frozen at the current iterate."""
    h = ax["h"]
    F = evaluate_many(flux, t, ax["mids"], z, xi)[:, a]
    dA = _diag_jacobian_many(flux, t, ax["mids"], z, xi, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(np.abs(xi_n) > 1e-30, F / xi_n, dA)
    c = np.maximum(c, 0.0)
    return c * xi_n, (-c / h, c / h)


def discrete_flux_divergence(mask, flux, t_freeze, frame):
    """Face-centred divergence of the flux at the active nodes.

    ``frame`` is a full-grid array defined on active + ghost nodes; the
    result is a compact array in active (C-order) node order.
    """
    return _Stencil(mask, flux).divergence(t_freeze, frame)


# ---------------------------------------------------------------------------
# Implicit stepping


def _source_values(problem, stencil, t):
    if problem.source is None:
        return np.zeros(stencil.n_active)
    return eval_on_points(problem.source, t, stencil.active_points)


def _implicit_step_impl(problem, stencil, frame_in, t_from, t_to):
    cfg = problem.config
    t_freeze = problem.span[0]
    tau = t_to - t_from
    if tau <= 0:
        raise ValueError(f"step must advance time, got [{t_from}, {t_to}]")
    u = frame_in.copy()
    if len(stencil.ghost_flat):
        u.ravel()[stencil.ghost_flat] = problem.boundary.values(t_to, stencil.ghost_points)
    u_in_act = frame_in.ravel()[stencil.active_flat]
    f_act = _source_values(problem, stencil, t_to)

    def residual(v):
        """The step residual at the active nodes and its max norm."""
        vact = v.ravel()[stencil.active_flat]
        r = (vact - u_in_act) / tau - stencil.divergence(t_freeze, v) - f_act
        return r, float(np.max(np.abs(r), initial=0.0))

    def with_update(v, delta, lam):
        out = v.copy()
        out.ravel()[stencil.active_flat] += lam * delta
        return out

    # A non-finite residual is never converged: it ends both iterations,
    # and a trial step that reaches one is rejected.
    r, r_inf = residual(u)
    history = [r_inf]
    newton = picard = 0
    stalled = False
    while math.isfinite(r_inf) and newton < cfg.max_newton:
        jac = stencil.assemble(t_freeze, u, _newton_faces)[1]
        delta = spsolve(stencil.step_matrix(jac, tau), -r)
        r_two = float(np.linalg.norm(r))
        lam = 1.0
        accepted = False
        while lam >= MIN_LINE_STEP:
            u_try = with_update(u, delta, lam)
            r_try, r_try_inf = residual(u_try)
            r_try_two = float(np.linalg.norm(r_try))
            if math.isfinite(r_try_two) and (
                r_try_two <= r_two * (1.0 - 1e-4 * lam) or r_try_inf <= cfg.newton_tol
            ):
                u, r, r_inf = u_try, r_try, r_try_inf
                accepted = True
                break
            lam *= LINE_SEARCH_SHRINK
        newton += 1
        if accepted:
            history.append(r_inf)
            if r_inf <= cfg.newton_tol:
                break
        else:
            stalled = True
            break

    if not r_inf <= cfg.newton_tol:
        while math.isfinite(r_inf) and picard < cfg.max_picard:
            divlin, jac = stencil.assemble(t_freeze, u, _picard_faces)
            uact = u.ravel()[stencil.active_flat]
            g_lin = (uact - u_in_act) / tau - divlin - f_act
            u = with_update(u, spsolve(stencil.step_matrix(jac, tau), -g_lin), 1.0)
            r, r_inf = residual(u)
            picard += 1
            history.append(r_inf)
            if r_inf <= cfg.newton_tol:
                break
        if not r_inf <= cfg.newton_tol:
            raise SolverStallError(
                f"no convergence on [{t_from}, {t_to}]: residual {r_inf:.3e} "
                f"after {newton} Newton + {picard} fallback iterations"
                + (" (Newton line search stalled)" if stalled else ""),
                residual_history=history,
            )
    return u, StepStats(
        newton_iterations=newton, picard_iterations=picard, residual=r_inf, history=history
    )


def implicit_step(problem, frame_in, t_from, t_to):
    """One backward-Euler substep; returns (frame_out, stats).

    ``frame_out`` keeps the input's undefined nodes untouched, carries
    psi(t_to) on the ghost ring and the implicit solution on the active set.
    """
    stencil = _Stencil(problem.mask, problem.flux)
    return _implicit_step_impl(problem, stencil, frame_in, t_from, t_to)


def solve_slice(problem):
    """Integrate the slice over its span with uniform substeps."""
    t0, t1 = problem.span
    if not (t1 > t0):
        raise ValueError(f"empty slice span {problem.span}")
    if problem.substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {problem.substeps}")
    stencil = _Stencil(problem.mask, problem.flux)
    init = problem.initial
    if not np.all(np.isfinite(init.ravel()[np.flatnonzero(problem.mask.defined.ravel())])):
        raise NumericInputError("initial frame has non-finite values on active/ghost nodes")
    times = np.linspace(t0, t1, problem.substeps + 1)
    frames = [init.copy()]
    stats = []
    for m in range(problem.substeps):
        frame, st = _implicit_step_impl(problem, stencil, frames[-1], float(times[m]), float(times[m + 1]))
        frames.append(frame)
        stats.append(st)
    return SliceSolution(times=times, frames=frames, stats=stats)
