"""Implicit time stepping of one frozen-domain slice.

On a slice the domain is a fixed node mask, Dirichlet data psi lives on
the ghost ring, and each substep solves backward Euler

    (u - u_in) / tau - div A(t_freeze, x, u, grad u) - f(t_to, x) = 0

on the active nodes.  The divergence is face-centred: per axis, the
normal gradient component is the one-sided difference across the face,
the solution slot z is the arithmetic mean of the endpoints, and every
other (transverse) component is the average of the endpoints' central
differences (one-sided or zero where the frame is undefined).  With a
linear flux this collapses to the standard (2d+1)-point Laplacian.  Every
slot of each axis's face flux is one static linear map of the flat frame,
built once: (face, node, weight) triplets summed per face, then divided by
the slot's divisor (xi_a: -1, +1 on the face's low and high end over h_a;
xi_b: the transverse weights over 1; z: 1, 1 over 2), so each field rounds
as its formula does.  The residual and Newton's matrix read the same maps.

The step has one residual, r(u) above, and one flux pass computes it
(:meth:`_Stencil.divergence`); psi and the source are bound in space once
per slice (:func:`on_points`), so a substep walks only what reads t.  Newton
drives r down: each iteration solves (I/tau - J) delta = -r, J (on a kept
factor, J at an earlier iterate; below) read from the residual's face fields
through the flux law's derivative trees in every slot (exact for every flux
in every dimension), and backtracks on the residual norm through the steps
1, 1/2, .., 2^-20.  It stops once ||r||_inf <= ``NEWTON_TOL`` (a converged
start takes no step) or, ending short with a finite residual (``MAX_NEWTON``
iterations spent, a stalled line search or a failed matrix), at the rounding
floor ``FLOOR_C`` eps ||I/tau - J(u)||_inf ||u||_inf, u over the active and
ghost nodes (Higham 2002, ch. 12), which no absolute tolerance matches at
every h, slope and scale of the data.  A flux that does not evaluate
(:class:`NumericEvalError`, as on an overflow) gives a non-finite residual,
never converged nor accepted as a trial; a matrix that does not evaluate, or
that SuperLU finds exactly singular or newly factors into a non-finite
solution, ends the step uncounted.  A step that stalls is halved,
recursively to ``MAX_HALVINGS`` levels, and only the end of the original
substep is stored; past that :class:`SolverStallError` gives the reason,
depth and place.

The domain is frozen on a slice, so all its systems share one sparsity
pattern: a CSC matrix holding the diagonal and each face's couplings of its
active ends with the active nodes that its live slots reach (a slot is live
where its derivative tree of the law is not the number 0: a law whose every
dA_a/dxi_b, a != b, is 0, as A = m(z) xi, keeps 5 points in 2D, any other
9), and the data index of each value, built at a stencil's first
:meth:`_Stencil.jacobian` call.  An iteration evaluates the live slots'
trees alone and only fills values: one ``np.bincount`` per axis sums each
(face, node) pair's terms in slot order, and one more each matrix entry's
in (axis, low end, high end) order, from 0.0.  Where every derivative tree
of the law is a number (:attr:`FluxModel.constant_jacobian`), Newton's -J
is assembled once per slice (Kelley 2003, ch. 2).

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
other stencil keeps one factor (``splu``) of I/tau - J across iterations and
substeps and takes each Newton step from it with one triangular solve,
delta = LU^-1 (-r): the chord, or simplified Newton, iteration (Kelley 2003,
ch. 2; Hairer and Wanner, Solving ODEs II, sec. IV.8).  It factors I/tau - J
anew at the current iterate, J assembled only then, where it has no factor
yet, where the last accepted step was damped (a line-search step below 1) or
shrank ||r||_inf by less than ``CHORD_RATE``, where tau differs from the
factor's by more than rounding (a halved substep; equal substeps of
``np.linspace`` differ in their last bits and share a factor), and where a
step from a factor made before this iteration stalls the line search or is
not finite, which then retries on the new factor.  On the benchmark's p = 3
disk (centre (0.1, -0.05)) this factors 28 times in 301 Newton iterations,
where exact solves factor 127 times in 127, and the frames move by 1.4e-13.
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
CHORD_RATE = 0.25  # a kept factor is replaced after a step that shrinks ||r||_inf by less than this


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
    and the matrix follow that numbering, ``n_active`` standing for a node
    that is no unknown.  Per axis a it keeps the spacing ``h[a]``, the face
    midpoints ``mids[a]`` and ``ends[a]``, the rows of each face's low and
    high end, (2, faces); and once, for all axes, the slot maps (``slots``)."""

    def __init__(self, mask, flux):
        self.flux = flux
        grid = mask.grid
        self.shape = grid.shape
        self.dim = grid.dim
        self.h = grid.spacing
        self.defined = mask.defined
        self.active_flat = np.flatnonzero(mask.active)[_dissection_order(np.nonzero(mask.active))]
        self.n_active = len(self.active_flat)
        self._rank = np.full(grid.n_nodes, self.n_active)
        self._rank[self.active_flat] = np.arange(self.n_active)
        coords = grid.node_coords()
        self.active_points = coords[self.active_flat]
        self.ghost_flat = np.flatnonzero(mask.ghost.ravel())
        self.ghost_points = coords[self.ghost_flat]

        # Per axis, ``flats``: the grid indices of each face's low / high end (faces with both ends
        # defined, in C order).
        flats, strides, self.mids = [], [], []
        for a, h in enumerate(self.h):
            strides.append(int(np.prod(self.shape[a + 1:])))
            lo, hi = along(a, slice(None, -1)), along(a, slice(1, None))
            lo_flat = np.ravel_multi_index(np.nonzero(self.defined[hi] & self.defined[lo]), self.shape)
            flats.append(lo_flat + np.array([[0], [strides[a]]]))
            self.mids.append(coords[lo_flat])
            self.mids[a][:, a] += 0.5 * h
        self._end_rows = self._rank[np.concatenate([f.ravel() for f in flats])]
        self.ends = [e.reshape(2, -1) for e in np.split(self._end_rows, np.cumsum([f.size for f in flats])[:-1])]

        # Each slot s of axis a's face flux (xi_1 .. xi_dim, then z) is a static linear map of the flat
        # frame: triplets (face, node, weight) summed per face, then divided by the slot's divisor.  All
        # are stored once, concatenated, ``_targets`` numbering each (axis, slot, face) as a row of the
        # fields; ``slots`` holds each map's (axis, slot, triplets as a slice, first row, divisor).
        self.slots, triplets, first = [], [], 0
        for a, f in enumerate(flats):
            n, endpoints = f.shape[1], (np.tile(np.arange(f.shape[1]), 2), f.ravel())
            for s in range(self.dim + 1):
                faces, nodes, weights, divisor = (
                    (*endpoints, np.repeat([-1.0, 1.0], n), self.h[a]) if s == a
                    else (*endpoints, np.ones(2 * n), 2.0) if s == self.dim
                    else (*self._transverse_map(f, flats[s], self.h[s], strides[s]), 1.0))
                start = sum(len(t[1]) for t in triplets)
                self.slots.append((a, s, slice(start, start + len(nodes)), first, divisor))
                triplets.append((first + faces, nodes, weights, np.full(n, divisor)))
                first += n
        self._targets, self._nodes, self._weights, self._divisors = map(np.concatenate, zip(*triplets))
        self._factor, self.factorisations = None, 0

    def _transverse_map(self, flats, across, h, stride):
        """Triplets (faces, nodes, weights), in (end, offset, face) order, of
        the static linear map from the flat frame to xi_b at the faces
        ``flats`` (``across``, ``h``, ``stride``: axis b's faces, spacing and
        stride): each end n weighs n - e_b, n and n + e_b by half of -1, 1 - 1
        or +1 over h_b * w, w >= 1 counting the one-sided differences along b
        at n whose two nodes are defined."""
        marks = np.zeros((2, self.defined.size))  # where a difference along b starts / ends
        marks[0, across[0]] = marks[1, across[1]] = 1.0
        up, down = marks[:, flats]
        weight = np.stack([-down, down - up, up], axis=1)  # on n - e_b, n, n + e_b
        c = 0.5 * ((weight / h) / np.maximum(up + down, 1.0)[:, None])
        end, k, faces = np.nonzero(c)  # views of one (n, 3) array: keep a copy of faces
        return faces.copy(), flats[end, faces] + (k - 1) * stride, c[end, k, faces]

    @cached_property
    def _pairs(self):
        """Per axis, its live slots (those whose derivative tree is not the number 0) and each of
        their triplets' (face, node) pair, numbered in (face, node) order; and, over all axes, the
        key col * n + row in ``matrix`` of each J value (n * n off the unknowns), every pair in its
        face's low end's row, then in its high end's."""
        n, law, per_axis, keys = self.n_active, self.flux.law, [], []
        for a, ends in enumerate(self.ends):
            trees = (*law.dxi[a], law.dz[a])
            live = [(s, at, first, d) for b, s, at, first, d in self.slots if b == a and trees[s] != Num(0.0)]
            reached = [(self._targets[at] - first) * self._rank.size + self._nodes[at] for _, at, first, _ in live]
            pairs, pair = np.unique(np.concatenate([np.zeros(0, dtype=np.intp), *reached]), return_inverse=True)
            face, node = np.divmod(pairs, self._rank.size)
            rows, cols = ends[:, face], self._rank[node]
            keys.append(np.where((rows < n) & (cols < n), cols * n + rows, n * n).ravel())
            per_axis.append((live, pair))
        return per_axis, np.concatenate(keys)

    @cached_property
    def matrix(self):
        """The CSC pattern of I/tau - J: the diagonal and each J value between two unknowns."""
        n, keys = self.n_active, self._pairs[1]
        cols, rows = np.divmod(keys[keys < n * n], n)
        matrix = (identity(n) + coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))).tocsc()
        matrix.sort_indices()  # so the stored entries' keys col*n + row ascend
        return matrix

    @cached_property
    def _data_index(self):
        """``matrix``'s data index of each J value (``nnz``, a spare, off the unknowns) and diagonal entry."""
        n = self.n_active
        keys = self.matrix.indices + n * np.repeat(np.arange(n), np.diff(self.matrix.indptr))
        return np.searchsorted(keys, self._pairs[1]), np.searchsorted(keys, np.arange(n) * (n + 1))

    # -- face field values ---------------------------------------------------

    def face_fields(self, u):
        """Per axis: (xi, z) at its faces, every slot read from the flat frame
        through its map, in one pass."""
        fields = np.bincount(self._targets, self._weights * u.ravel()[self._nodes], len(self._divisors))
        fields /= self._divisors
        out, stop = [], 0
        for mids in self.mids:
            start, stop = stop, stop + (self.dim + 1) * len(mids)
            block = fields[start:stop].reshape(self.dim + 1, -1)
            out.append((block[:-1].T, block[-1]))
        return out

    # -- assembly --------------------------------------------------------------

    def divergence(self, t_freeze, fields):
        """div A at the active nodes (compact array, active order) from
        ``face_fields(u)``: the residual's one flux pass, F_a/h_a into each
        face's low end's row and its negative into the high end's."""
        parts = []
        for a, (h, mids, (xi, z)) in enumerate(zip(self.h, self.mids, fields)):
            q = evaluate_many(self.flux, t_freeze, mids, z, xi, a) / h
            parts += [q, -q]
        return np.bincount(self._end_rows, np.concatenate(parts), self.n_active + 1)[:-1]

    def jacobian(self, t_freeze, fields):
        """-J as ``matrix``'s data, J = d(div A)/d(u_active) from ``face_fields(u)``: at each pair
        of a face and a node that a live slot reaches, dA_a/ds weight / divisor summed over the
        live slots in slot order, over h_a, into the face's low end's row and, negated, its high
        end's -- the residual's exact derivative in every dimension."""
        parts = []
        for a, (h, (xi, z), (live, pair)) in enumerate(zip(self.h, fields, self._pairs[0])):
            terms = [self._derivative(t_freeze, a, s, xi, z)[self._targets[at] - first] * self._weights[at] / d
                     for s, at, first, d in live]
            c = np.bincount(pair, np.concatenate([np.zeros(0), *terms])) / h
            parts += [c, -c]
        return -np.bincount(self._data_index[0], np.concatenate(parts), self.matrix.nnz + 1)[:-1]

    def _derivative(self, t, a, s, xi, z):
        """dA_a/ds at axis a's faces, s the slot: xi_s for s < dim, z for s = dim."""
        args = (self.flux, t, self.mids[a], z, xi, a)
        if s == self.dim:
            return _dz_many(*args)
        return _diag_jacobian_many(*args) if s == a else _offdiag_jacobian_many(*args, s)

    @cached_property
    def constant_jacobian(self):
        """:meth:`jacobian` for a flux whose J is constant (any u and t give it): at u = 0."""
        return self.jacobian(0.0, self.face_fields(np.zeros(self.shape)))

    def step_matrix(self, minus_j, tau):
        """I/tau - J from -J as ``matrix``'s data (:meth:`jacobian`), written into the stencil's matrix."""
        self.matrix.data[:] = minus_j
        self.matrix.data[self._data_index[1]] += 1.0 / tau
        return self.matrix

    def rounding_floor(self, minus_j, tau, u):
        """``FLOOR_C`` eps ||I/tau - J||_inf ||u||_inf, u over the active and ghost
        nodes: the step residual's rounding level at u; 0 where it is not finite."""
        rows = np.bincount(self.matrix.indices, np.abs(self.step_matrix(minus_j, tau).data), self.n_active)
        floor = float(FLOOR_C * np.finfo(float).eps * rows.max() * np.abs(u[self.defined]).max())
        return floor if floor < math.inf else 0.0

    @cached_property
    def keeps_factor(self):
        """Whether :meth:`solve` keeps its factor and takes chord steps on it: J changes with u and
        the unknowns do not all lie on one lattice line (a line factors into a fill-free tridiagonal)."""
        extent = np.ptp(np.unravel_index(self.active_flat, self.shape), axis=1)
        return not self.flux.constant_jacobian and np.count_nonzero(extent) > 1

    def solve(self, minus_j, tau, rhs, refactor=False):
        """x with (I/tau - J) x = rhs, ``minus_j()`` giving -J at the iterate as ``matrix``'s data,
        factored in the stencil's order: by ``spsolve`` or, where the stencil keeps its factor,
        as the chord step x = LU^-1 rhs against it.  That factor is replaced by one of the
        current matrix (the old one dropped first, and ``minus_j`` called only then) where
        ``refactor``, where there is none yet, where tau differs from the factor's by more than
        rounding, or where its x is not finite.  A new factor that is singular or gives a
        non-finite x raises ``MatrixRankWarning``, as ``spsolve`` warns."""
        # Only a kept factor is stored; equal substeps' taus differ in their last bits.
        if not refactor and self._factor is not None and math.isclose(tau, self._factor[1], rel_tol=1e-12):
            x = self._factor[0].solve(rhs)
            if np.isfinite(x).all():
                return x
        self.factorisations += 1
        matrix = self.step_matrix(minus_j(), tau)
        if not self.keeps_factor:
            return spsolve(matrix, rhs, permc_spec="NATURAL")
        self._factor = None  # the old factor goes before the new one is made
        try:
            self._factor = splu(matrix, permc_spec="NATURAL"), tau
        except RuntimeError as exc:
            if "exactly singular" not in str(exc):  # SuperLU's "Factor is exactly singular"
                raise
            raise MatrixRankWarning("Matrix is exactly singular") from None
        x = self._factor[0].solve(rhs)
        if not np.isfinite(x).all():
            raise MatrixRankWarning("Matrix is exactly singular")
        return x


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
    history, count, why, refactor = [r_inf], 0, "", False
    while math.isfinite(r_inf) and not r_inf <= NEWTON_TOL and count < MAX_NEWTON:
        factored = stencil.factorisations
        try:
            delta = stencil.solve(partial(minus_jacobian, fields), tau, -r, refactor)
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
                refactor = lam < 1.0 or not r_try_inf <= CHORD_RATE * r_inf
                u, r, r_inf, fields = u_try, r_try, r_try_inf, fields_try
                history.append(r_inf)
                break
        else:
            if stencil.factorisations == factored:  # a kept factor's step: retry on a new one
                refactor = True
                continue
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
