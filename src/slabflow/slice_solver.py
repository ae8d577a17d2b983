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
slice (:func:`on_points`), so a substep walks only what reads t.  Newton
drives r down: each iteration solves (I/tau - J) delta = -r, J read from the
residual's face fields through the flux law's derivative trees in every slot
(exact for every flux in every dimension), and backtracks on the residual
norm through the steps 1, 1/2, .., 2^-20.  It stops once ||r||_inf <=
``NEWTON_TOL`` (a converged start takes no step) or, ending short with a
finite residual (``MAX_NEWTON`` iterations spent, a stalled line search or a
failed matrix), at the rounding floor ``FLOOR_C`` eps ||I/tau - J(u)||_inf
||u||_inf, u over the active and ghost nodes (Higham 2002, ch. 12), which no
absolute tolerance matches at every h, slope and scale of the data.  A flux
that does not evaluate (:class:`NumericEvalError`, as on an overflow) gives
a non-finite residual, never converged nor accepted as a trial; a matrix
that does not evaluate, or that SuperLU finds exactly singular or factors
into a non-finite solution, ends the step uncounted.  A step that stalls is
halved, recursively to ``MAX_HALVINGS`` levels, and only the end of the
original substep is stored; past that :class:`SolverStallError` gives the
reason, depth and place.

The domain is frozen on a slice, so all its systems share one sparsity
pattern: a CSC matrix holding the diagonal, each face's couplings between
active endpoints and, where some dA_a/dxi_b (a != b) of the law is not the
number 0, those through the transverse slots (a 9-point stencil in 2D), and
two scatter maps, ``div_rows`` (each face end's div-A row) and the slots
(each Jacobian value's matrix entry), built at a stencil's first
:meth:`_Stencil.jacobian` call.  An iteration only fills values, one flat
gather per axis and one ``np.bincount`` per map, summing each target's
terms in face-loop order from 0.0, bitwise as a loop would.
Where every derivative tree of the law is a number
(:attr:`FluxModel.constant_jacobian`), Newton's -J is assembled once per
slice (Kelley 2003, ch. 2).

The stencil numbers its unknowns once, in nested-dissection order (George
1973): split the active nodes along the axis of largest extent at the
median coordinate, number the part below the cut, the part above it, then
the one-node-wide separator, and cut all parts of a level at once until
each has at most ``DISSECTION_LEAF`` nodes or lies on one lattice line.
Such a line, and so every 1D mask, keeps C order and a fill-free tridiagonal.
:meth:`_Stencil.solve` has SuperLU factor in that order
(``permc_spec="NATURAL"``) with partial pivoting; on the 4,357-node h = 0.021
disk the 9-point Newton factor has 0.65x the L+U nonzeros of SuperLU's
default COLAMD ordering.  A constant-Jacobian stencil, and one whose unknowns
lie on one lattice line, factors every Newton matrix with ``spsolve``.  Any
other stencil keeps its last factor (``splu``) across iterations and
substeps and solves each Newton step by iterative refinement against it,
x += LU^-1 (b - A x), until ||b - A x||_inf <= ``REFINE_TOL`` ||b||_inf; a
sweep that fails to halve that residual drops the factor for one of the
current matrix (Kelley 2003, ch. 2).  The step that the quadratic model
||r_k|| rho^2 (rho = ||r_k|| / ||r_k-1||) expects to reach ``NEWTON_TOL`` is
refined to ``REFINE_TOL`` rho instead (a forcing term; Eisenstat and Walker,
SIAM J. Sci. Comput. 1996), so that its refinement error does not carry the
last residual over ``NEWTON_TOL``.  On the benchmark's p = 3 disk (centre
(0.1, -0.05)) this factors 20 times in 127 Newton iterations, as many
iterations as exact solves take.
"""

import math
import warnings
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import MatrixRankWarning, splu, spsolve

from .errors import NumericEvalError, NumericInputError, SlabflowError, SolverStallError
from .expressions import Expr, Num, bind, evaluate as eval_expr
from .flux import _diag_jacobian_many, _dz_many, _offdiag_jacobian_many, evaluate_many
from .geometry import along, integer_at_least

NEWTON_TOL = 1e-10  # Newton's absolute stop, ||r||_inf <= this
MAX_NEWTON = 50  # Newton iterations per substep try
LINE_STEPS = tuple(2.0**-k for k in range(21))  # damped Newton's trial steps, 1 down to 2^-20
DISSECTION_LEAF = 32  # parts of at most this many nodes are not split further
FLOOR_C = 64  # Newton's rounding floor, in units of eps ||I/tau - J||_inf ||u||_inf
MAX_HALVINGS = 4  # a stalled substep is halved, recursively, at most this deep
REFINE_TOL = 1e-6  # refinement against a kept factor stops at ||b - A x||_inf <= this ||b||_inf


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
class SliceProblem:
    """One frozen-domain slice: mask, flux (time argument frozen at the
    span's start), span, its uniform substeps (``times``; construction
    checks that each advances time), data (``psi``, ``source``: expressions;
    no source is ``Num(0.0)``) and initial frame."""

    mask: object
    flux: object
    span: tuple
    substeps: int
    psi: object
    initial: np.ndarray
    source: object = Num(0.0)

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
    """One stored substep: Newton iterations (stalled tries included), final residual, the bound
    it met (``NEWTON_TOL`` or, ``floor`` true, the larger rounding floor) and halvings taken;
    a halved substep keeps its pieces' worst residual and bound."""

    newton_iterations: int
    residual: float
    bound: float
    halvings: int = 0

    @property
    def floor(self):
        return self.bound > NEWTON_TOL


@dataclass
class SliceSolution:
    times: np.ndarray
    frames: list
    stats: list
    factorisations: int  # of the slice's step matrices, ``spsolve`` calls included


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
        self._factor, self.factorisations = None, 0

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

    def jacobian(self, t_freeze, fields):
        """-J as ``matrix``'s data, J = d(div A)/d(u_active) from ``face_fields(u)``
        through each face's derivative terms (:func:`_newton_faces`)."""
        normal, transverse = [], []
        for a, (ax, (xi, z)) in enumerate(zip(self.axes, fields)):
            dF, dT = _newton_faces(self.flux, t_freeze, a, ax, xi, z)
            h = ax["h"]
            normal.append(np.concatenate((*dF, *np.negative(dF)))[ax["jac_take"]] / h)
            transverse += [dT[b][faces] * coeff / h for b, faces, coeff in self._pattern[0][a]]
        return -np.bincount(self._slots[0], np.concatenate(normal + transverse), self.matrix.nnz)

    @cached_property
    def constant_jacobian(self):
        """:meth:`jacobian` for a flux whose J is constant (any u and t give it): at u = 0."""
        return self.jacobian(0.0, self.face_fields(np.zeros(self.shape)))

    def step_matrix(self, minus_j, tau):
        """I/tau - J from -J as ``matrix``'s data (:meth:`jacobian`), written into the stencil's matrix."""
        self.matrix.data[:] = minus_j
        self.matrix.data[self._slots[1]] += 1.0 / tau
        return self.matrix

    def rounding_floor(self, minus_j, tau, u):
        """``FLOOR_C`` eps ||I/tau - J||_inf ||u||_inf, u over the active and ghost
        nodes: the step residual's rounding level at u; 0 where it is not finite."""
        rows = np.bincount(self.matrix.indices, np.abs(self.step_matrix(minus_j, tau).data), self.n_active)
        floor = float(FLOOR_C * np.finfo(float).eps * rows.max() * np.abs(u[self.defined]).max())
        return floor if floor < math.inf else 0.0

    @cached_property
    def keeps_factor(self):
        """Whether :meth:`solve` keeps its factor: J changes with u and the unknowns do not all
        lie on one lattice line (a line factors into a fill-free tridiagonal)."""
        extent = np.ptp(np.unravel_index(self.active_flat, self.shape), axis=1)
        return not self.flux.constant_jacobian and np.count_nonzero(extent) > 1

    def solve(self, minus_j, tau, rhs, eta=REFINE_TOL):
        """x with (I/tau - J) x = rhs, -J as ``matrix``'s data, factored in the stencil's order:
        by ``spsolve`` or, where the stencil keeps its factor, by refinement against it to
        ||rhs - (I/tau - J) x||_inf <= eta ||rhs||_inf (:meth:`_refine`) and, where that stalls,
        against a new factor.  A factor that is singular or gives a non-finite x raises
        ``MatrixRankWarning``, as ``spsolve`` warns."""
        matrix = self.step_matrix(minus_j, tau)
        if self.keeps_factor and self._factor is not None:
            x = self._refine(matrix, rhs, eta)
            if x is not None:
                return x
        self.factorisations += 1
        if not self.keeps_factor:
            return spsolve(matrix, rhs, permc_spec="NATURAL")
        self._factor = None  # the old factor goes before the new one is made
        try:
            self._factor = splu(matrix, permc_spec="NATURAL")
        except RuntimeError as exc:
            if "exactly singular" not in str(exc):  # SuperLU's "Factor is exactly singular"
                raise
            raise MatrixRankWarning("Matrix is exactly singular") from None
        x = self._factor.solve(rhs)
        if not np.isfinite(x).all():
            raise MatrixRankWarning("Matrix is exactly singular")
        return x

    def _refine(self, matrix, rhs, eta):
        """x from sweeps x += LU^-1 (rhs - matrix x) with the kept factor, once ||rhs - matrix x||_inf
        <= eta ||rhs||_inf; None where a sweep fails to halve it."""
        x, r, r_inf = np.zeros_like(rhs), rhs, np.abs(rhs).max()
        tol = eta * r_inf
        while True:
            x += self._factor.solve(r)
            r = rhs - matrix @ x
            r_inf, last = np.abs(r).max(), r_inf
            if r_inf <= tol:
                return x
            if not r_inf <= 0.5 * last:
                return None


def _newton_faces(flux, t, a, ax, xi, z):
    """The face flux differentiated in every slot -- the normal
    gradient and z through the endpoints, each transverse gradient slot
    through its static map -- so J is the residual's exact derivative in
    every dimension."""
    h = ax["h"]
    dA = _diag_jacobian_many(flux, t, ax["mids"], z, xi, a)
    dz = _dz_many(flux, t, ax["mids"], z, xi, a)
    dT = {b: _offdiag_jacobian_many(flux, t, ax["mids"], z, xi, a, b)
          for b in range(xi.shape[1]) if b != a}
    return (-dA / h + 0.5 * dz, dA / h + 0.5 * dz), dT


# ---------------------------------------------------------------------------
# Implicit stepping


def _step(problem, stencil, psi, source, frame_in, t_from, t_to):
    """Backward-Euler step over [t_from, t_to], psi and the source as t -> values
    (:func:`on_points`); returns (frame_out, stats, history, why): the input's undefined
    nodes untouched, psi(t_to) on the ghost ring and Newton's last iterate on the active
    set, its residual max norms, and None where it converged, else why it stalled."""
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

    def minus_jacobian(fields):
        return stencil.constant_jacobian if problem.flux.constant_jacobian else stencil.jacobian(t_freeze, fields)

    r, r_inf, fields = residual(u)
    history, count, why = [r_inf], 0, ""
    while math.isfinite(r_inf) and not r_inf <= NEWTON_TOL and count < MAX_NEWTON:
        # A step that the quadratic model r rho^2 expects to end Newton is refined rho times
        # further, so that its refinement error does not carry the residual over NEWTON_TOL.
        rho = r_inf / history[-2] if count else 1.0
        try:
            delta = stencil.solve(minus_jacobian(fields), tau, -r,
                                  REFINE_TOL * rho if r_inf * rho**2 <= NEWTON_TOL else REFINE_TOL)
        except (NumericEvalError, MatrixRankWarning) as exc:
            why = f" (matrix: {exc})"
            break
        count += 1
        r_two = math.sqrt(r @ r)
        for lam in LINE_STEPS:
            u_try = u.copy()
            u_try.ravel()[stencil.active_flat] += lam * delta
            r_try, r_try_inf, fields_try = residual(u_try)
            r_try_two = math.sqrt(r_try @ r_try)
            if math.isfinite(r_try_two) and (r_try_two <= r_two * (1.0 - 1e-4 * lam) or r_try_inf <= NEWTON_TOL):
                u, r, r_inf, fields = u_try, r_try, r_try_inf, fields_try
                history.append(r_inf)
                break
        else:
            why = " (line search stalled)"
            break

    bound = NEWTON_TOL
    if math.isfinite(r_inf) and not r_inf <= bound:
        with suppress(NumericEvalError):  # a matrix that does not evaluate has no floor
            bound = max(bound, stencil.rounding_floor(minus_jacobian(fields), tau, u))
    return u, StepStats(count, r_inf, bound), history, None if r_inf <= bound else why


def _advance(step, frame, t_from, t_to, depth=0):
    """(frame at t_to, stats): ``step`` (:func:`_step` bound to a slice) from ``frame`` at
    t_from or, where it stalls, its two halves in turn, each advanced alike one level deeper."""
    u, stats, history, why = step(frame, t_from, t_to)
    if why is None:
        return u, stats
    t_mid = 0.5 * (t_from + t_to)
    if depth == MAX_HALVINGS or not t_from < t_mid < t_to:
        raise SolverStallError(
            f"no convergence on [{t_from}, {t_to}] at halving depth {depth}: residual "
            f"{history[-1]:.3e} after {stats.newton_iterations} Newton iterations" + why,
            newton_history=history, depth=depth, t=t_to,
        )
    frame, first = _advance(step, frame, t_from, t_mid, depth + 1)
    frame, second = _advance(step, frame, t_mid, t_to, depth + 1)
    return frame, StepStats(stats.newton_iterations + first.newton_iterations + second.newton_iterations,
                            max(first.residual, second.residual), max(first.bound, second.bound),
                            1 + first.halvings + second.halvings)


def solve_slice(problem):
    """Integrate the slice over its span with uniform substeps, halving a substep that stalls."""
    stencil = _Stencil(problem.mask, problem.flux)
    init = problem.initial
    if not np.all(np.isfinite(init.ravel()[np.flatnonzero(problem.mask.defined.ravel())])):
        raise NumericInputError("initial frame has non-finite values on active/ghost nodes")
    step = partial(_step, problem, stencil, on_points(problem.psi, stencil.ghost_points),
                   on_points(problem.source, stencil.active_points))
    times = problem.times
    frames = [init.copy()]
    stats = []
    # An overflowing iterate and a singular step matrix (raised, not warned) end as typed stalls.
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        for m in range(problem.substeps):
            try:
                frame, st = _advance(step, frames[-1], float(times[m]), float(times[m + 1]))
            except SolverStallError as exc:
                exc.step, exc.n_active = m, stencil.n_active
                raise
            frames.append(frame)
            stats.append(st)
    return SliceSolution(times=times, frames=frames, stats=stats, factorisations=stencil.factorisations)
