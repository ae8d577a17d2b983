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
stencil knows a face only by the flat grid indices of its ends (``flats``);
each transverse slot is a static linear map of the flat frame, built once,
whose (face, node, weight) triplets are also Newton's transverse entries.

The step has one residual, r(u) above, and one flux pass computes it
(:meth:`_Stencil.divergence`); psi and the source are bound in space once per
slice (:func:`on_points`), so a substep walks only what reads t.  One
loop drives r down in two stages; each iteration solves (I/tau - J) delta = -r
with J read from the residual's face fields.  Newton reads the flux law's
derivative trees in every slot, so its J is exact for every flux in every
dimension, and backtracks on the residual norm through the steps 1, 1/2, ..,
2^-20; it takes at least one step.  If it ends short of the tolerance (its
budget spent, its line search stalled or its matrix failed), the fallback
runs: Picard, the same iteration with the secant matrix of
:func:`_picard_faces` for J (Kelley 2003, ch. 1-2) and one full step, always
taken.  The tolerance is tested in the loop condition, the trial acceptance
and the final stall check.  A flux that does not evaluate
(:class:`NumericEvalError`, as on an overflow) gives a non-finite residual:
never converged, never accepted as a Newton trial, and the end of both
stages.  A matrix that does not evaluate, or that ``spsolve`` finds exactly
singular, ends its stage uncounted.  Ending both short raises
:class:`SolverStallError` with the residual histories, the reasons in stage
order and where it stalled.

The domain is frozen on a slice, so all its systems share one sparsity
pattern: a CSC matrix holding the diagonal, each face's couplings between
active endpoints and, where some dA_a/dxi_b (a != b) of the law is not the
number 0, those through the transverse slots (a 9-point stencil in 2D), and
two scatter maps, ``div_rows`` (each face end's div-A row) and the slots
(each Jacobian value's matrix entry; Picard fills a prefix), built at a
stencil's first :meth:`_Stencil.jacobian` call.  An iteration only fills
values, one flat gather per axis and one ``np.bincount`` per map, summing
each target's terms in face-loop order from 0.0, bitwise as a loop would.
Where every derivative tree of the law is a number
(:attr:`FluxModel.constant_jacobian`), Newton's -J is assembled once per
slice (Kelley 2003, ch. 2); each iteration still factors with ``spsolve``.

The stencil numbers its unknowns once, in nested-dissection order (George
1973): split the active nodes along the axis of largest extent at the
median coordinate, number the part below the cut, the part above it, then
the one-node-wide separator, and cut all parts of a level at once until
each has at most ``DISSECTION_LEAF`` nodes or lies on one lattice line.
Such a line, and so every 1D mask, keeps C order and a fill-free tridiagonal.
:meth:`_Stencil.solve` has SuperLU factor in that order
(``permc_spec="NATURAL"``) with partial pivoting; on the 4,357-node h = 0.021
disk the 9-point Newton factor has 0.65x the L+U nonzeros of SuperLU's
default COLAMD ordering.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import NumericEvalError, NumericInputError, SlabflowError, SolverStallError
from .expressions import Expr, Num, bind, evaluate as eval_expr
from .flux import _diag_jacobian_many, _dz_many, _offdiag_jacobian_many, evaluate_many
from .geometry import along, integer_at_least

LINE_STEPS = tuple(2.0**-k for k in range(21))  # damped Newton's trial steps, 1 down to 2^-20
DISSECTION_LEAF = 32  # parts of at most this many nodes are not split further


def on_points(expr, points):
    """t -> an expression of (t, x[, y]) on (n, dim) ``points``, bitwise its one-shot
    evaluation.  Space is bound once (:func:`expressions.bind`), so a call walks
    only what reads t; a tree that reads no t gives one fixed array, shared by
    every call, which no caller may write into."""
    env = dict(zip("xy", np.atleast_2d(points).T))
    bound = bind(expr, env)
    if isinstance(bound, Num):
        fixed = np.full(len(points), bound.value, dtype=float)
        return lambda t: fixed
    return lambda t: np.full(len(points), eval_expr(bound, {**env, "t": t}), dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 50
    max_picard: int = 200

    def __post_init__(self):
        if not 0 < self.newton_tol < math.inf:
            raise SlabflowError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        for key in ("max_newton", "max_picard"):
            value = getattr(self, key)
            if not integer_at_least(value, 0):
                raise SlabflowError(f"{key} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class SliceProblem:
    """One frozen-domain slice: mask, flux (time argument frozen at the
    span's start), span, its uniform substeps (``times``; construction
    checks that each advances time), data (``psi``, ``source``: expressions;
    no source is ``Num(0.0)``), initial frame and solver knobs."""

    mask: object
    flux: object
    span: tuple
    substeps: int
    psi: object
    initial: np.ndarray
    source: object = Num(0.0)
    config: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not isinstance(self.source, Expr):
            raise SlabflowError(f"source must be an expression (none: Num(0.0)), got {self.source!r}")
        t0, t1 = self.span
        if not t1 > t0:
            raise SlabflowError(f"empty slice span {self.span}")
        if not integer_at_least(self.substeps, 1):
            raise SlabflowError(f"substeps must be an integer >= 1, got {self.substeps!r}")
        if not np.all(np.diff(self.times) > 0):
            raise SlabflowError(f"{self.substeps} substeps of the span {self.span} do not all advance time")

    @property
    def times(self):
        return np.linspace(*self.span, self.substeps + 1)


@dataclass
class StepStats:
    newton_iterations: int
    picard_iterations: int
    residual: float


@dataclass
class SliceSolution:
    times: np.ndarray
    frames: list
    stats: list


# ---------------------------------------------------------------------------
# Face stencil machinery


def _dissection_order(axes):
    """Nested-dissection order (module docstring; George, SIAM J. Numer.
    Anal. 1973) of lattice points given in C order, one coordinate array per
    axis; a stencil coupling nodes at most one lattice step apart per axis
    never couples the two sides of a cut.  Each level cuts all its parts at
    once: ``order`` keeps every part contiguous from its entry in ``starts``,
    and ``path`` spells a point's cuts in base 3 (below 0, above 1, separator 2)."""
    n = len(axes[0])
    order, path = np.arange(n), np.zeros(n, dtype=np.int64)
    while True:
        starts = np.flatnonzero(np.diff(path, prepend=-1))
        c = np.array(axes)[:, order]
        size = np.diff(starts, append=n)
        extent = np.maximum.reduceat(c, starts, axis=1) - np.minimum.reduceat(c, starts, axis=1)
        split = (size > DISSECTION_LEAF) & (np.count_nonzero(extent, axis=0) > 1)
        if not split.any():
            return order[np.lexsort((order, path))]
        part = np.repeat(np.arange(len(starts)), size)
        key = c[np.argmax(extent, axis=0)[part], np.arange(n)]
        resort = np.lexsort((key, part))
        order, key, path = order[resort], key[resort], path[resort]
        cut = key[starts + size // 2][part]
        path = 3 * path + np.where(split[part], (key > cut) + 2 * (key == cut), 0)


class _Stencil:
    """Static face indexing for one mask; reused across substeps/iterations.

    The active nodes are numbered in nested-dissection order
    (``active_flat[k]`` is the grid index of unknown k); every compact array
    and the matrix follow that numbering."""

    def __init__(self, mask, flux):
        self.flux = flux
        grid = mask.grid
        self.shape = grid.shape
        self.dim = grid.dim
        self.defined = mask.defined
        self.active_flat = np.flatnonzero(mask.active)[_dissection_order(np.nonzero(mask.active))]
        self.n_active = len(self.active_flat)
        rank = np.full(grid.n_nodes, -1, dtype=np.int64)
        rank[self.active_flat] = np.arange(self.n_active)
        coords = grid.node_coords()
        self.active_points = coords[self.active_flat]
        self.ghost_flat = np.flatnonzero(mask.ghost.ravel())
        self.ghost_points = coords[self.ghost_flat]

        # Per axis, ``flats``: the grid indices of each face's low / high end
        # (faces with both ends defined, in C order); ``*_take``: flat gathers from
        # (F, -F) into the div-A rows (low ends, then high) and from (dF_lo, dF_hi,
        # -dF_lo, -dF_hi) into J's (lo, lo) .. (hi, hi): a high-end row takes -values.
        self.axes = []
        div_rows, rows, cols = [], [], []
        for a in range(self.dim):
            h, stride = grid.spacing[a], int(np.prod(self.shape[a + 1:]))
            lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
            lo_flat = np.ravel_multi_index(np.nonzero(self.defined[hi] & self.defined[lo]), self.shape)
            flats = lo_flat + np.array([[0], [stride]])
            mids = coords[lo_flat]
            mids[:, a] += 0.5 * h
            ranks = rank[flats]
            active = ranks >= 0
            coupled = active[:, None] & active[None]
            div_take, jac_take = np.flatnonzero(active), np.flatnonzero(coupled)
            div_rows.append(ranks.ravel()[div_take])
            row, col, pair = np.unravel_index(jac_take, coupled.shape)
            rows.append(ranks[row, pair])
            cols.append(ranks[col, pair])
            self.axes.append({"h": h, "stride": stride, "mids": mids, "flats": flats,
                              "div_take": div_take, "jac_take": jac_take})
        for a, ax in enumerate(self.axes):
            ax["transverse"] = {b: self._transverse_map(ax["flats"], bx)
                                for b, bx in enumerate(self.axes) if b != a}

        self.div_rows = np.concatenate(div_rows)
        self._rank, self._normal = rank, (rows, cols)

    def _transverse_map(self, flats, bx):
        """Triplets (faces, nodes, weights), in (end, offset, face) order, of
        the static linear map from the flat frame to xi_b (b: the axis ``bx``)
        at the faces ``flats``: each end n weighs n - e_b, n and n + e_b by half
        of -1, 1 - 1 or +1 over h_b * w, w >= 1 counting the one-sided
        differences along b at n whose two nodes are defined."""
        marks = np.zeros((2, self.defined.size))  # where a difference along b starts / ends
        marks[0, bx["flats"][0]] = marks[1, bx["flats"][1]] = 1.0
        up, down = marks[:, flats]
        weight = np.stack([-down, down - up, up], axis=1)  # on n - e_b, n, n + e_b
        c = 0.5 * ((weight / bx["h"]) / np.maximum(up + down, 1.0)[:, None])
        end, k, faces = np.nonzero(c)  # views of one (n, 3) array: keep a copy of faces
        return faces.copy(), flats[end, faces] + (k - 1) * bx["stride"], c[end, k, faces]

    @cached_property
    def _pattern(self):
        """Per face axis a, groups ``(b, faces, coeff)`` giving J values
        ``dA_a/dxi_b[faces] * coeff / h_a`` (``coeff``: a transverse map weight
        signed by the row's end; none if the flux does not couple its slots),
        and the (rows, cols) of all J values, endpoint ones first."""
        (rows, cols), maps = map(list, self._normal), [[] for _ in self.axes]
        coupled = self.axes if self.flux.couples_gradient_slots else []
        for a, ax in enumerate(coupled):
            for b, (faces, nodes, weights) in ax["transverse"].items():
                col = self._rank[nodes]
                for row, sign in zip(self._rank[ax["flats"]], (1.0, -1.0)):
                    keep = (row[faces] >= 0) & (col >= 0)
                    maps[a].append((b, faces[keep], sign * weights[keep]))
                    rows.append(row[faces[keep]])
                    cols.append(col[keep])
        return maps, np.concatenate(rows), np.concatenate(cols)

    @cached_property
    def matrix(self):
        """The CSC pattern of I/tau - J."""
        n, (rows, cols) = self.n_active, self._pattern[1:]
        pattern = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        matrix = (identity(n) + pattern).tocsc()
        matrix.sort_indices()  # so the stored entries' keys col*n + row ascend
        return matrix

    @cached_property
    def _slots(self):
        """``matrix``'s data index of each Jacobian value and of each diagonal entry."""
        n, (rows, cols) = self.n_active, self._pattern[1:]
        keys = self.matrix.indices + n * np.repeat(np.arange(n), np.diff(self.matrix.indptr))
        return np.searchsorted(keys, cols * n + rows), np.searchsorted(keys, np.arange(n) * (n + 1))

    # -- face field values ---------------------------------------------------

    def face_fields(self, u):
        """Per axis: (xi, z) at its faces, read from the flat frame through
        ``flats`` and the transverse maps."""
        flat, out = u.ravel(), []
        for a, ax in enumerate(self.axes):
            lo, hi = flat[ax["flats"]]
            xi_n = (hi - lo) / ax["h"]
            xi = np.empty((len(xi_n), self.dim))
            xi[:, a] = xi_n
            for b, (faces, nodes, weights) in ax["transverse"].items():
                xi[:, b] = np.bincount(faces, weights * flat[nodes], len(xi_n))
            out.append((xi, 0.5 * (hi + lo)))
        return out

    # -- assembly --------------------------------------------------------------

    def divergence(self, t_freeze, fields):
        """div A at the active nodes (compact array, active order) from
        ``face_fields(u)``: the residual's one flux pass."""
        parts = []
        for a, (ax, (xi, z)) in enumerate(zip(self.axes, fields)):
            F = evaluate_many(self.flux, t_freeze, ax["mids"], z, xi, a)
            parts.append(np.concatenate((F, -F))[ax["div_take"]] / ax["h"])
        return np.bincount(self.div_rows, np.concatenate(parts), self.n_active)

    def jacobian(self, t_freeze, fields, face_terms):
        """-J as ``matrix``'s data, J = d(div A)/d(u_active) from ``face_fields(u)``:
        ``face_terms(flux, t_freeze, a, ax, xi, z)`` gives each face's endpoint
        derivatives ``(dF_lo, dF_hi)`` and its transverse ones ``{b: dA_a/dxi_b}``
        or None (the values then fill a prefix of the slots)."""
        normal, transverse = [], []
        for a, (ax, (xi, z)) in enumerate(zip(self.axes, fields)):
            dF, dT = face_terms(self.flux, t_freeze, a, ax, xi, z)
            h = ax["h"]
            normal.append(np.concatenate((*dF, *np.negative(dF)))[ax["jac_take"]] / h)
            if dT is not None:
                transverse += [dT[b][faces] * coeff / h for b, faces, coeff in self._pattern[0][a]]
        jac = np.concatenate(normal + transverse)
        return -np.bincount(self._slots[0][: len(jac)], jac, self.matrix.nnz)

    @cached_property
    def constant_jacobian(self):
        """Newton's :meth:`jacobian` for a flux whose J is constant (any u and t give it): at u = 0."""
        return self.jacobian(0.0, self.face_fields(np.zeros(self.shape)), _newton_faces)

    def step_matrix(self, minus_j, tau):
        """I/tau - J from -J as ``matrix``'s data (:meth:`jacobian`), written into the stencil's matrix."""
        self.matrix.data[:] = minus_j
        self.matrix.data[self._slots[1]] += 1.0 / tau
        return self.matrix

    def solve(self, minus_j, tau, rhs):
        """x with (I/tau - J) x = rhs, -J as ``matrix``'s data, factored in the stencil's order."""
        return spsolve(self.step_matrix(minus_j, tau), rhs, permc_spec="NATURAL")


def _newton_faces(flux, t, a, ax, xi, z):
    """Newton: the face flux differentiated in every slot -- the normal
    gradient and z through the endpoints, each transverse gradient slot
    through its static map -- so J is the residual's exact derivative in
    every dimension."""
    h = ax["h"]
    dA = _diag_jacobian_many(flux, t, ax["mids"], z, xi, a)
    dz = _dz_many(flux, t, ax["mids"], z, xi, a)
    dT = {b: _offdiag_jacobian_many(flux, t, ax["mids"], z, xi, a, b)
          for b in range(xi.shape[1]) if b != a}
    return (-dA / h + 0.5 * dz, dA / h + 0.5 * dz), dT


def _picard_faces(flux, t, a, ax, xi, z):
    """Picard: the secant matrix.  Each face flux is read as c_f times the
    normal difference, with the secant diffusivity c_f = A_a / xi_a
    (dA_a/dxi_a, read only there, where xi_a vanishes) clamped at 0 and frozen
    at the iterate; J is the derivative of that in the endpoint values alone,
    so I/tau - J is a (2d+1)-point M-matrix."""
    h, xi_n = ax["h"], xi[:, a]
    c = evaluate_many(flux, t, ax["mids"], z, xi, a)
    flat = np.abs(xi_n) <= 1e-30
    c[~flat] /= xi_n[~flat]
    if flat.any():
        c[flat] = _diag_jacobian_many(flux, t, ax["mids"][flat], z[flat], xi[flat], a)
    c = np.maximum(c, 0.0)
    return (-c / h, c / h), None


# ---------------------------------------------------------------------------
# Implicit stepping


def _step(problem, stencil, psi, source, frame_in, t_from, t_to, step):
    """Backward-Euler substep ``step`` over [t_from, t_to], psi and the source
    as t -> values (:func:`on_points`); returns (frame_out, stats): the input's
    undefined nodes untouched, psi(t_to) on the ghost ring and the implicit
    solution on the active set."""
    cfg = problem.config
    t_freeze = problem.span[0]
    tau = t_to - t_from
    u = frame_in.copy()
    u.ravel()[stencil.ghost_flat] = psi(t_to)
    u_in_act = frame_in.ravel()[stencil.active_flat]
    f_act = source(t_to)

    def residual(v):
        """The step residual at the active nodes, its max norm and the face fields it read;
        a flux that does not evaluate (:class:`NumericEvalError`) gives a non-finite one."""
        fields = stencil.face_fields(v)
        vact = v.ravel()[stencil.active_flat]
        try:
            r = (vact - u_in_act) / tau - stencil.divergence(t_freeze, fields) - f_act
        except NumericEvalError:
            r = np.full(stencil.n_active, math.inf)
        return r, float(np.abs(r).max(initial=0.0)), fields

    r, r_inf, fields = residual(u)
    histories, counts, why = ([r_inf], []), [0, 0], ""
    for k, (face_terms, budget, name) in enumerate(((_newton_faces, cfg.max_newton, "Newton"),
                                                    (_picard_faces, cfg.max_picard, "fallback"))):
        newton = k == 0
        # Newton takes a first step even from a converged start; the fallback
        # runs only where Newton ended short of the tolerance.
        while math.isfinite(r_inf) and counts[k] < budget and (
            newton and not counts[k] or not r_inf <= cfg.newton_tol
        ):
            try:
                constant = newton and problem.flux.constant_jacobian
                minus_j = stencil.constant_jacobian if constant else stencil.jacobian(t_freeze, fields, face_terms)
                delta = stencil.solve(minus_j, tau, -r)
            except (NumericEvalError, MatrixRankWarning) as exc:
                why += f" ({name} matrix: {exc})"
                break
            counts[k] += 1
            r_two = math.sqrt(r @ r)
            for lam in LINE_STEPS if newton else (1.0,):
                u_try = u.copy()
                u_try.ravel()[stencil.active_flat] += lam * delta
                r_try, r_try_inf, fields_try = residual(u_try)
                r_try_two = math.sqrt(r_try @ r_try)
                if not newton or math.isfinite(r_try_two) and (
                    r_try_two <= r_two * (1.0 - 1e-4 * lam) or r_try_inf <= cfg.newton_tol
                ):
                    u, r, r_inf, fields = u_try, r_try, r_try_inf, fields_try
                    histories[k].append(r_inf)
                    break
            else:
                why += f" ({name} line search stalled)"
                break

    if not r_inf <= cfg.newton_tol:
        raise SolverStallError(
            f"no convergence on [{t_from}, {t_to}]: residual {r_inf:.3e} "
            f"after {counts[0]} Newton + {counts[1]} fallback iterations" + why,
            newton_history=histories[0], picard_history=histories[1],
            step=step, t=t_to, n_active=stencil.n_active,
        )
    return u, StepStats(newton_iterations=counts[0], picard_iterations=counts[1], residual=r_inf)


def solve_slice(problem):
    """Integrate the slice over its span with uniform substeps, psi and the source bound in space once."""
    stencil = _Stencil(problem.mask, problem.flux)
    init = problem.initial
    if not np.all(np.isfinite(init.ravel()[np.flatnonzero(problem.mask.defined.ravel())])):
        raise NumericInputError("initial frame has non-finite values on active/ghost nodes")
    psi = on_points(problem.psi, stencil.ghost_points)
    source = on_points(problem.source, stencil.active_points)
    times = problem.times
    frames = [init.copy()]
    stats = []
    # An overflowing iterate and a singular step matrix (raised, not warned) end as typed stalls.
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        for m in range(problem.substeps):
            frame, st = _step(problem, stencil, psi, source, frames[-1], float(times[m]), float(times[m + 1]), m)
            frames.append(frame)
            stats.append(st)
    return SliceSolution(times=times, frames=frames, stats=stats)
