"""Frozen-domain stepping: divergence stencil, implicit solves, stepping.

The implicit-step reference values come from an independently assembled
dense linear system (numpy.linalg.solve on a hand-built matrix), not
from the sparse path under test.  A step is taken through ``solve_slice``
on a one-substep slice, the only way into the solver.
"""

import dataclasses
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu, spsolve

from helpers import bundled_text, disk_jump_text, edited, interval_region, one_shot
from test_expressions import _interior, _leaves, _values
from slabflow import (
    FluxModel,
    Grid,
    NumericEvalError,
    NumericInputError,
    SlabflowError,
    SliceProblem,
    SolverStallError,
    TimeDomain,
    build_slice_plan,
    energy_report,
    initial_frame,
    max_principle_report,
    parse_expr,
    on_points,
    parse_scenario_text,
    rasterize,
    run_scheme,
    section,
    solve_slice,
)
from slabflow import slice_solver
from slabflow.expressions import derivative, free_variables, to_source
from slabflow.flux import _diag_jacobian_many, _dz_many, _offdiag_jacobian_many, evaluate_many
from slabflow.slice_solver import (
    DISSECTION_LEAF,
    _dissection_order,
    _Stencil,
)

TX = ("t", "x")
FLUX_VARS = ("t", "x", "y", "z", "xi1", "xi2")


def unit_interval_mask(h=0.25, pad=2):
    n = round(1.0 / h)
    g = Grid(dim=1, origin=(-pad * h,), spacing=(h,), counts=(n + 2 * pad,))
    return g, rasterize(interval_region((0.0, 1.0)), g)


def full_frame(grid, mask, fn):
    x = grid.node_coords().ravel()
    vals = np.where(mask.defined.ravel(), fn(x), np.nan)
    return vals.reshape(mask.active.shape)


def c_order_divergence(mask, flux, frame):
    """The stencil's div A at the active nodes, scattered through
    ``active_flat`` onto the grid and read back in C order."""
    stencil = _Stencil(mask, flux)
    on_grid = np.full(frame.size, np.nan)
    on_grid[stencil.active_flat] = stencil.divergence(0.0, stencil.face_fields(frame))
    return on_grid[mask.active.ravel()]


# --- divergence stencil ------------------------------------------------------


def test_divergence_of_parabola_is_constant():
    """u = x(1-x) with the linear flux: second difference is exactly -2."""
    g, mask = unit_interval_mask(h=0.25)
    frame = full_frame(g, mask, lambda x: x * (1 - x))
    div = c_order_divergence(mask, FluxModel.linear_diffusion(dim=1), frame)
    assert np.allclose(div, -2.0, atol=1e-13)


def test_divergence_of_constant_is_zero():
    g, mask = unit_interval_mask(h=0.125)
    frame = full_frame(g, mask, lambda x: np.full_like(x, 0.7))
    for flux in (FluxModel.linear_diffusion(dim=1), FluxModel.p_laplacian(3.0, dim=1)):
        div = c_order_divergence(mask, flux, frame)
        assert np.allclose(div, 0.0, atol=1e-14)


def test_divergence_of_affine_is_zero():
    # constant gradient: every face carries the same flux, so the balance
    # vanishes for any gradient-dependent model
    g, mask = unit_interval_mask(h=0.125)
    frame = full_frame(g, mask, lambda x: 0.3 * x + 0.1)
    for flux in (FluxModel.p_laplacian(1.5, dim=1), FluxModel.p_laplacian(4.0, dim=1)):
        div = c_order_divergence(mask, flux, frame)
        assert np.allclose(div, 0.0, atol=1e-12)


def test_divergence_2d_quadratic():
    """u = x^2 + y^2: face differences are exact for quadratics, div = 4."""
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(0.125, 0.125), counts=(16, 16))
    phi = parse_expr("max(abs(x), abs(y)) - 0.5", ("t", "x", "y"))
    dom = TimeDomain.implicit(phi, 1.0, dim=2)
    mask = rasterize(section(dom, 0.0), g)
    coords = g.node_coords()
    vals = np.where(mask.defined.ravel(), coords[:, 0] ** 2 + coords[:, 1] ** 2, np.nan)
    frame = vals.reshape(mask.active.shape)
    div = c_order_divergence(mask, FluxModel.linear_diffusion(dim=2), frame)
    assert np.allclose(div, 4.0, atol=1e-12)


def test_divergence_scattered_through_active_flat_is_the_laplacian_on_a_2d_disk():
    """The stencil numbers its unknowns in nested-dissection order, and
    ``active_flat`` maps them back to the grid. Non-constant, non-quadratic
    data give every node its own value, so a wrong map would not match."""
    g, mask = disk_mask(h=0.0625)
    x, y = g.node_coords().T
    frame = np.where(mask.defined.ravel(), np.exp(x) * np.sin(3 * y) + x**3 * y, np.nan)
    frame = frame.reshape(mask.active.shape)
    h = g.spacing[0]
    laplacian = np.full(frame.shape, np.nan)
    laplacian[1:-1, 1:-1] = (frame[2:, 1:-1] + frame[:-2, 1:-1] + frame[1:-1, 2:] + frame[1:-1, :-2]
                             - 4 * frame[1:-1, 1:-1]) / h**2
    div = c_order_divergence(mask, FluxModel.linear_diffusion(dim=2), frame)
    assert np.allclose(div, laplacian[mask.active], rtol=1e-12, atol=1e-9)
    stencil = _Stencil(mask, FluxModel.p_laplacian(3.0, dim=2))
    assert not np.array_equal(stencil.active_flat, np.flatnonzero(mask.active))


def test_transverse_slots_follow_the_averaged_one_sided_differences():
    """A per-face loop over the grid, written from the module docstring: at
    a face of axis a, xi_b (b != a) is the mean over its two ends of each
    end's average of the one-sided differences along b whose other node is
    defined (central where both are, zero where neither is)."""
    g, mask = disk_mask(h=0.0625)
    frame = np.where(mask.defined, np.random.default_rng(13).uniform(-1, 1, mask.active.shape), np.nan)
    shape, h = mask.defined.shape, g.spacing

    def end_average(node, b):
        """The average of the one-sided differences along b at ``node``, and their count."""
        diffs = []
        for step in (-1, 1):
            other = list(node)
            other[b] += step
            if 0 <= other[b] < shape[b] and mask.defined[tuple(other)]:
                diffs.append(step * (frame[tuple(other)] - frame[node]) / h[b])
        return (sum(diffs) / len(diffs) if diffs else 0.0), len(diffs)

    counts = []
    for a, (xi, _) in enumerate(_Stencil(mask, FluxModel.p_laplacian(3.0, dim=2)).face_fields(frame)):
        b, expected = 1 - a, []
        for lo in np.ndindex(shape):
            hi = tuple(i + (d == a) for d, i in enumerate(lo))
            if hi[a] < shape[a] and mask.defined[lo] and mask.defined[hi]:
                (lo_avg, lo_count), (hi_avg, hi_count) = end_average(lo, b), end_average(hi, b)
                expected.append(0.5 * (lo_avg + hi_avg))
                counts += [lo_count, hi_count]
        assert np.allclose(xi[:, b], expected, rtol=1e-13, atol=1e-13)
    assert {1, 2} <= set(counts)


# --- Jacobians of the face assembly -------------------------------------------


def disk_mask(h=0.125):
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(h, h), counts=(round(2 / h),) * 2)
    phi = parse_expr("x^2 + y^2 - 0.6^2", ("t", "x", "y"))
    return g, rasterize(section(TimeDomain.implicit(phi, 1.0, dim=2), 0.0), g)


def central_difference_jacobian(stencil, frame, tau, eps=1e-6):
    """d/du_active of the step residual u/tau - div A(u) (the u_in and
    source terms do not depend on u), one active node at a time."""

    def residual(v):
        return v.ravel()[stencil.active_flat] / tau - stencil.divergence(0.0, stencil.face_fields(v))

    columns = []
    for flat in stencil.active_flat:
        up, down = frame.copy(), frame.copy()
        up.ravel()[flat] += eps
        down.ravel()[flat] -= eps
        columns.append((residual(up) - residual(down)) / (2.0 * eps))
    return np.column_stack(columns)


NEWTON_FLUXES = {
    "p_laplacian_1d": FluxModel.p_laplacian(3.0, dim=1),
    "z_modulated_1d": FluxModel.z_modulated(3.0, dim=1),
    "linear_diffusion_2d": FluxModel.linear_diffusion(dim=2),
    "custom_z_1d": FluxModel.custom([parse_expr("(1 + 0.5*sin(z)^2)*(xi1^2 + 1e-8)^0.5*xi1", FLUX_VARS)], p=3.0),
    "p_laplacian_2d": FluxModel.p_laplacian(3.0, dim=2),
    "z_modulated_2d": FluxModel.z_modulated(3.0, dim=2),
    "custom_coupled_2d": FluxModel.custom(
        [parse_expr(f"(1 + 0.5*sin(z)^2)*(xi1^2 + xi2^2 + 1e-8)^0.5*{k}", FLUX_VARS) for k in ("xi1", "xi2")],
        p=3.0, dim=2),
    "custom_skew_2d": FluxModel.custom(  # a skew part: dA/dxi is not symmetric
        [parse_expr(f"(xi1^2 + xi2^2 + 1e-8)^0.5*{k}", FLUX_VARS) for k in ("xi1 + 0.3*xi2", "xi2 - 0.3*xi1")],
        p=3.0, dim=2),
}


def assert_newton_matrix_matches_central_differences(mask, flux, rng):
    """The Newton matrix against central differences of the step residual
    at three random frames."""
    tau = 0.01
    stencil = _Stencil(mask, flux)
    for _ in range(3):
        frame = np.where(mask.defined, rng.uniform(-1.0, 1.0, mask.active.shape), np.nan)
        jac = stencil.jacobian(0.0, stencil.face_fields(frame))
        newton = stencil.step_matrix(jac, tau).toarray()
        reference = central_difference_jacobian(stencil, frame, tau)
        assert np.allclose(newton, reference, rtol=1e-6, atol=1e-7 * np.abs(reference).max())


@pytest.mark.parametrize("name", NEWTON_FLUXES)
def test_newton_matrix_matches_central_differences(name):
    """The Newton matrix is the step residual's derivative in every
    dimension, transverse gradient slots included."""
    flux = NEWTON_FLUXES[name]
    g, mask = disk_mask() if flux.dim == 2 else unit_interval_mask(h=0.0625)
    assert_newton_matrix_matches_central_differences(mask, flux, np.random.default_rng(7))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(list(NEWTON_FLUXES)),
       centre=st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15)),
       radii=st.tuples(st.floats(0.35, 0.55), st.floats(0.35, 0.55)),
       interval=st.tuples(st.floats(0.0, 0.4), st.floats(0.6, 1.0)), seed=st.integers(0, 2**32 - 1))
def test_newton_matrix_matches_central_differences_on_drawn_domains(name, centre, radii, interval, seed):
    """As above on a drawn ellipse on the disk's grid (2D fluxes) or interval
    on the unit interval's grid (1D), so that the transverse maps meet ends
    with one, two or no defined neighbours in many arrangements."""
    flux = NEWTON_FLUXES[name]
    if flux.dim == 2:
        g = disk_mask()[0]
        phi = parse_expr("((x - ({!r}))/{!r})^2 + ((y - ({!r}))/{!r})^2 - 1".format(
            centre[0], radii[0], centre[1], radii[1]), ("t", "x", "y"))
        mask = rasterize(section(TimeDomain.implicit(phi, 1.0, dim=2), 0.0), g)
    else:
        g = unit_interval_mask(h=0.0625)[0]
        mask = rasterize(interval_region(interval), g)
    assert_newton_matrix_matches_central_differences(mask, flux, np.random.default_rng(seed))


def small_disk_problem():
    """A p = 3 Gaussian on the 45-node disk of ``disk_mask``: 4 substeps of (0, 0.05), whose
    ``np.linspace`` taus differ in their last bits."""
    g, mask = disk_mask()
    xy = g.node_coords()
    u0 = np.exp(-4 * ((xy[:, 0] - 0.1) ** 2 + (xy[:, 1] + 0.05) ** 2)).reshape(mask.active.shape)
    frame = np.where(mask.active, u0, np.where(mask.ghost, 0.0, np.nan))
    return SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(3.0, dim=2), span=(0.0, 0.05), substeps=4,
        psi=parse_expr("0", ("t", "x", "y")), initial=frame,
    )


def test_exact_newton_converges_fast_on_a_2d_p3_disk(monkeypatch):
    """With the transverse slots differentiated, exact Newton (a new factor at
    every iteration) on a degenerate 2D problem takes at most 5 iterations per
    substep (a Jacobian without them needs 10-12 here)."""
    monkeypatch.setattr(_Stencil, "keeps_factor", False)
    sol = solve_slice(small_disk_problem())
    assert max(s.newton_iterations for s in sol.stats) <= 5
    assert not any(s.halvings for s in sol.stats)


def test_chord_steps_converge_unhalved_on_a_2d_p3_disk():
    """The same problem on its kept factor: each chord step contracts the
    residual about 8-fold, so a substep takes at most 15 iterations (15, 12,
    7, 14 measured), on 4 factors in all, and none is halved."""
    sol = solve_slice(small_disk_problem())
    assert max(s.newton_iterations for s in sol.stats) <= 15
    assert sol.factorisations <= 4
    assert not any(s.halvings for s in sol.stats)


@pytest.mark.parametrize(
    "flux,points",
    [
        (FluxModel.linear_diffusion(dim=2), 5),
        (FluxModel.p_laplacian(2.0, dim=2), 5),
        (FluxModel.z_modulated(2.0, dim=2), 5),
        (FluxModel.p_laplacian(3.0, dim=2), 9),
        (FluxModel.custom([parse_expr(k, FLUX_VARS) for k in ("xi1", "xi2")], p=2.0, dim=2), 5),
        (FluxModel.custom([parse_expr(k, FLUX_VARS) for k in ("xi1 + 0.5*xi2", "xi2 - 0.5*xi1")],
                          p=2.0, dim=2), 9),
    ],
    ids=["linear_diffusion", "p_laplacian_p2", "z_modulated_p2", "p_laplacian_p3", "custom_p2",
         "custom_skew_p2"],
)
def test_a_nonzero_off_diagonal_derivative_gives_9_points(flux, points):
    """The pattern is read off the law: where every dA_a/dxi_b (a != b) is the
    number 0, as for A = m(z) xi, the Newton matrix keeps the 5-point pattern
    and its cheaper factor; a flux with another off-diagonal tree, even a
    constant one, gets 9 points."""
    g, mask = disk_mask()
    assert np.diff(_Stencil(mask, flux).matrix.tocsr().indptr).max() == points


def test_a_derivative_tree_that_is_the_number_0_is_never_evaluated(monkeypatch):
    """A Newton matrix evaluates only the live slots' derivative trees: the
    p-Laplacian's dA/dz is the number 0, and so is z_modulated's dA_a/dxi_b
    (a != b) at p = 2, so neither is evaluated, while each other slot is."""
    calls = []
    for name in ("_dz_many", "_offdiag_jacobian_many"):
        kernel = getattr(slice_solver, name)
        monkeypatch.setattr(slice_solver, name, lambda *args, _k=kernel, _n=name: calls.append(_n) or _k(*args))
    g, mask = disk_mask()
    frame = np.where(mask.defined, np.random.default_rng(17).uniform(-1, 1, mask.active.shape), np.nan)
    for flux, dead in ((FluxModel.p_laplacian(3.0, dim=2), "_dz_many"),
                       (FluxModel.z_modulated(2.0, dim=2), "_offdiag_jacobian_many")):
        calls.clear()
        stencil = _Stencil(mask, flux)
        stencil.jacobian(0.0, stencil.face_fields(frame))
        assert calls == [({"_dz_many", "_offdiag_jacobian_many"} - {dead}).pop()] * 2


# --- unknown numbering ---------------------------------------------------------


def test_disk_unknowns_are_a_permutation_of_the_active_nodes(bundle):
    scenario = bundle["disk2d"][0]
    plan = build_slice_plan(scenario.domain, scenario.grid, scenario.n_slices)
    for mask in plan.masks:
        stencil = _Stencil(mask, scenario.flux)
        c_order = np.flatnonzero(mask.active)
        assert np.array_equal(np.sort(stencil.active_flat), c_order)
        assert not np.array_equal(stencil.active_flat, c_order)


@settings(max_examples=60, deadline=None)
@given(nodes=st.sets(st.integers(0, 400), min_size=1, max_size=200), fixed=st.integers(0, 20),
       axis=st.integers(0, 1))
def test_one_node_wide_sets_keep_c_order(nodes, fixed, axis):
    """A set on one lattice line (every 1D mask) is a path in any stencil,
    so it keeps C order and its tridiagonal factors without fill."""
    along_line = np.array(sorted(nodes))
    assert np.array_equal(_dissection_order((along_line,)), np.arange(len(along_line)))
    across = np.full_like(along_line, fixed)
    line_2d = (across, along_line) if axis == 0 else (along_line, across)
    assert np.array_equal(_dissection_order(line_2d), np.arange(len(along_line)))


def reference_bisect(axes):
    """One split of the recursive rule: lattice points, one coordinate array
    per axis, cut along the axis of largest extent at the median coordinate,
    as boolean masks (below, above, on the cut); None for a part that is
    small or lies on one lattice line."""
    n = len(axes[0])
    if n <= DISSECTION_LEAF:
        return None
    extent = [coord.max() - coord.min() for coord in axes]
    if np.count_nonzero(extent) <= 1:
        return None
    coord = axes[np.argmax(extent)]
    cut = np.sort(coord)[n // 2]
    return coord < cut, coord > cut, coord == cut


def reference_dissection_order(axes):
    """The nested-dissection order by recursion, one split at a time: the
    part below the cut, the part above it, then the separator, each ordered
    the same way; unsplit parts keep C order."""
    split = reference_bisect(axes)
    if split is None:
        return np.arange(len(axes[0]))
    return np.concatenate([np.flatnonzero(part)[reference_dissection_order([coord[part] for coord in axes])]
                           for part in split])


def benchmark_disk_mask():
    """The bench's disk2d_p3 mask at t = 0 (h = 0.021, 4,357 active nodes)."""
    h = 0.021
    g = Grid(dim=2, origin=(-1.05, -1.05), spacing=(h, h), counts=(101, 101))
    phi = parse_expr("x^2 + y^2 - (0.8 - 0.2*t)^2", ("t", "x", "y"))
    return g, rasterize(section(TimeDomain.implicit(phi, 1.0, dim=2), 0.0), g)


def test_level_synchronous_dissection_matches_the_recursive_rule(bundle):
    scenario = bundle["disk2d"][0]
    masks = [benchmark_disk_mask()[1], disk_mask(h=1 / 32)[1],
             *build_slice_plan(scenario.domain, scenario.grid, scenario.n_slices).masks]
    for mask in masks:
        axes = np.nonzero(mask.active)
        assert np.array_equal(_dissection_order(axes), reference_dissection_order(axes))


@settings(max_examples=80, deadline=None)
@given(points=st.sets(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=400))
def test_dissection_of_random_point_sets_matches_the_recursive_rule(points):
    axes = tuple(np.array(sorted(points), dtype=np.intp).reshape(-1, 2).T)
    assert np.array_equal(_dissection_order(axes), reference_dissection_order(axes))


@pytest.mark.parametrize("mask_of", [unit_interval_mask, lambda h: isolated_node_mask()])
def test_1d_masks_keep_c_order(mask_of):
    g, mask = mask_of(h=1 / 128)
    stencil = _Stencil(mask, FluxModel.p_laplacian(3.0, dim=1))
    assert np.array_equal(stencil.active_flat, np.flatnonzero(mask.active))


def dissection_siblings(axes, ranks):
    """(below, above, separator) unknown numbers of every split of the
    dissection of the points ``axes`` whose unknowns are ``ranks``."""
    split = reference_bisect(axes)
    if split is None:
        return
    yield tuple(ranks[part] for part in split)
    for part in split:
        yield from dissection_siblings([coord[part] for coord in axes], ranks[part])


@pytest.mark.parametrize("flux,points", [(FluxModel.linear_diffusion(dim=2), 5),
                                         (FluxModel.p_laplacian(3.0, dim=2), 9)])
def test_no_matrix_entry_couples_two_sibling_parts(flux, points):
    """Each split numbers its parts below, above, then the separator, and the
    matrix never couples the part below a cut with the part above it."""
    g, mask = disk_mask(h=1 / 32)
    stencil = _Stencil(mask, flux)
    matrix = stencil.matrix.tocsr()
    assert np.diff(matrix.indptr).max() == points
    splits = list(dissection_siblings(np.nonzero(mask.active), np.argsort(stencil.active_flat)))
    assert len(splits) >= 15
    for below, above, separator in splits:
        assert below.max() < above.min() and above.max() < separator.min()
        assert matrix[below][:, above].nnz == 0 and matrix[above][:, below].nnz == 0


def test_dissection_order_cuts_the_fill_of_the_benchmark_disk():
    """The bench's disk2d_p3 mask (h = 0.021, 4,357 unknowns): its 9-point
    Newton matrix factored in the stencil's order has at most 0.75x the L+U
    nonzeros that SuperLU's default COLAMD ordering gives (0.60-0.66
    measured), and the solution agrees with the default spsolve."""
    g, mask = benchmark_disk_mask()
    x, y = g.node_coords().T
    u0 = np.exp(-4 * ((x - 0.1) ** 2 + (y + 0.05) ** 2)).reshape(mask.active.shape)
    frame = np.where(mask.active, u0, np.where(mask.ghost, 0.0, np.nan))
    stencil = _Stencil(mask, FluxModel.p_laplacian(3.0, dim=2))
    matrix = stencil.step_matrix(stencil.jacobian(0.0, stencil.face_fields(frame)), 1.0 / 32)
    assert stencil.n_active == 4357
    ordered, colamd = splu(matrix, permc_spec="NATURAL"), splu(matrix)
    assert ordered.L.nnz + ordered.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)
    rhs = np.random.default_rng(5).standard_normal(stencil.n_active)
    reference = spsolve(matrix, rhs)
    solution = spsolve(matrix, rhs, permc_spec="NATURAL")
    assert np.linalg.norm(solution - reference) <= 1e-12 * np.linalg.norm(reference)


def operator_assembly(stencil, frame, tau):
    """Reference for the fixed pattern, in operator form: per axis a, each
    face slot's derivative in the unknowns -- G_a (xi_a), T_ab (xi_b) and M_a
    (z), faces x unknowns -- found by probing ``face_fields`` with unit
    vectors; div A = -sum_a G_a^T F_a and J = -sum_a G_a^T (diag(dA_a/dxi_a)
    G_a + sum_b diag(dA_a/dxi_b) T_ab + diag(dA_a/dz) M_a), each accumulated
    by np.add.at per axis, low ends then high ends (G_a < 0, then > 0), from
    0.0; then I/tau - J.  At a spacing that is a power of 2, a product with
    G_a's +-1/h rounds as the division by h does."""
    n = stencil.n_active
    units = np.eye(frame.size)[stencil.active_flat].reshape(-1, *frame.shape)
    probes = [stencil.face_fields(unit) for unit in units]
    div, jdiv = np.zeros(n), np.zeros((n, n))
    for a, (xi, z) in enumerate(stencil.face_fields(frame)):
        args = (stencil.flux, 0.0, stencil.mids[a], z, xi, a)
        slots = [np.column_stack([probe[a][0][:, b] for probe in probes]) for b in range(stencil.dim)]
        slopes = [_diag_jacobian_many(*args) if b == a else _offdiag_jacobian_many(*args, b)
                  for b in range(stencil.dim)]
        slots.append(np.column_stack([probe[a][1] for probe in probes]))
        slopes.append(_dz_many(*args))
        coeff = sum(slope[:, None] * slot for slope, slot in zip(slopes, slots))
        F, G = evaluate_many(stencil.flux, 0.0, stencil.mids[a], z, xi)[:, a], slots[a]
        for end in (-1.0, 1.0):
            face, row = np.nonzero(end * G > 0)
            np.add.at(div, row, -G[face, row] * F[face])
            np.add.at(jdiv, row, -G[face, row][:, None] * coeff[face])
    return div, np.eye(n) / tau - jdiv


def isolated_node_mask():
    """[0, 1] plus a two-cell interval whose one active node has ghost
    neighbours only, so its matrix row is the diagonal alone."""
    h = 0.0625
    g = Grid(dim=1, origin=(-2 * h,), spacing=(h,), counts=(32,))
    return g, rasterize(interval_region((0.0, 1.0), (1.25, 1.25 + 2 * h)), g)


@pytest.mark.parametrize(
    "make_mask,flux",
    [
        (lambda: unit_interval_mask(h=0.0625), FluxModel.p_laplacian(3.0, dim=1)),
        (lambda: unit_interval_mask(h=0.0625), FluxModel.z_modulated(3.0, dim=1)),
        (disk_mask, FluxModel.p_laplacian(3.0, dim=2)),
        (isolated_node_mask, FluxModel.p_laplacian(3.0, dim=1)),
    ],
    ids=["p_laplacian_1d", "z_modulated_1d", "p_laplacian_2d", "isolated_node_1d"],
)
def test_fixed_pattern_matches_per_iteration_assembly_bitwise(make_mask, flux):
    """The reference sums each face's slots in slot order and each entry's
    faces low ends first, axis by axis, as the stencil does, so even the 2D
    p-Laplacian's 9-point matrix agrees bitwise."""
    g, mask = make_mask()
    rng = np.random.default_rng(11)
    tau = 0.01
    stencil = _Stencil(mask, flux)
    for _ in range(3):
        frame = np.where(mask.defined, rng.uniform(-1.0, 1.0, mask.active.shape), np.nan)
        fields = stencil.face_fields(frame)
        ref_div, ref_matrix = operator_assembly(stencil, frame, tau)
        jac = stencil.jacobian(0.0, fields)
        assert np.array_equal(stencil.step_matrix(jac, tau).toarray(), ref_matrix)
        assert np.array_equal(stencil.divergence(0.0, fields), ref_div)
    rows_nnz = np.diff(stencil.matrix.tocsr().indptr)
    assert (rows_nnz == 1).any() == (make_mask is isolated_node_mask)


def test_sparse_pattern_is_built_only_where_a_step_matrix_is_needed(bundle, monkeypatch):
    calls = []

    def counting_coo_matrix(*args, **kwargs):
        calls.append(kwargs.get("shape"))
        return coo_matrix(*args, **kwargs)

    monkeypatch.setattr(slice_solver, "coo_matrix", counting_coo_matrix)
    g, mask = disk_mask()
    frame = np.where(mask.defined, np.random.default_rng(3).uniform(-1, 1, mask.active.shape), np.nan)
    stencil = _Stencil(mask, FluxModel.p_laplacian(3.0, dim=2))
    stencil.divergence(0.0, stencil.face_fields(frame))
    assert calls == []
    scenario = bundle["heat_moving"][0]
    _, report = run_scheme(scenario)
    assert len(calls) == len(report.slice_stats) == 4


# --- slice-constant Newton matrix ---------------------------------------------


def count_jacobians(monkeypatch):
    """Record the freeze time of every ``_Stencil.jacobian`` call."""
    calls = []
    jacobian = _Stencil.jacobian

    def counting_jacobian(self, t_freeze, fields):
        calls.append(t_freeze)
        return jacobian(self, t_freeze, fields)

    monkeypatch.setattr(_Stencil, "jacobian", counting_jacobian)
    return calls


def test_a_constant_jacobian_is_assembled_once_per_slice(bundle, monkeypatch):
    calls = count_jacobians(monkeypatch)
    g, mask = unit_interval_mask(h=0.0625)
    u_in = np.where(mask.active, 0.5, np.where(mask.ghost, 0.0, np.nan))
    solution = solve_slice(SliceProblem(
        mask=mask, flux=FluxModel.linear_diffusion(dim=1), span=(0.0, 0.02), substeps=4,
        psi=parse_expr("0", TX), initial=u_in,
    ))
    assert sum(s.newton_iterations for s in solution.stats) >= 4
    assert len(calls) == 1
    calls.clear()
    _, report = run_scheme(bundle["disk2d"][0])
    assert report.total_newton() > len(report.slice_stats)
    assert len(calls) == len(report.slice_stats)


@pytest.mark.parametrize("flux", [FluxModel.z_modulated(2.0), FluxModel.p_laplacian(3.0)],
                         ids=["z_modulated_p2", "p_laplacian_p3"])
def test_any_other_jacobian_is_assembled_once_per_newton_iteration(flux, monkeypatch):
    calls = count_jacobians(monkeypatch)
    g, mask = unit_interval_mask(h=0.0625)
    x = g.node_coords().ravel()
    u_in = np.where(mask.active.ravel(), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)
    u_in = np.where(mask.defined.ravel(), u_in, np.nan).reshape(mask.active.shape)
    solution = solve_slice(SliceProblem(
        mask=mask, flux=flux, span=(0.0, 0.02), substeps=4, psi=parse_expr("0", TX), initial=u_in,
    ))
    newton = sum(s.newton_iterations for s in solution.stats)
    assert newton > 4
    assert len(calls) == newton


@pytest.mark.parametrize("name", ["disk2d", "heat_moving", "mms_moving", "jump_contract"])
def test_a_slice_constant_jacobian_gives_the_frames_of_per_iteration_assembly(bundle, name, monkeypatch):
    """Only the assembly differs: both runs factor every step matrix, as a
    constant-Jacobian stencil does (a kept factor would take chord steps instead)."""
    scenario, field, report = bundle[name]
    assert scenario.flux.constant_jacobian
    calls = count_jacobians(monkeypatch)
    monkeypatch.setattr(FluxModel, "constant_jacobian", property(lambda self: False))
    monkeypatch.setattr(_Stencil, "keeps_factor", False)
    assembled, assembled_report = run_scheme(scenario)
    assert len(calls) == assembled_report.total_newton() > len(report.slice_stats)
    assert assembled.frames.tobytes() == field.frames.tobytes()
    assert assembled_report.slice_stats == report.slice_stats


def count_data_evaluations(monkeypatch):
    """The number of points of each data evaluation in ``slice_solver``."""
    rows = []
    evaluate = slice_solver.eval_expr

    def counting_evaluate(expr, env):
        rows.append(len(env["x"]))
        return evaluate(expr, env)

    monkeypatch.setattr(slice_solver, "eval_expr", counting_evaluate)
    return rows


@pytest.mark.parametrize("name,per_substep", [("heat_moving", False), ("mms_moving", True)])
def test_data_that_read_no_t_are_evaluated_once_per_slice(bundle, name, per_substep, monkeypatch):
    """heat_moving: psi = 0, no source, so binding them in space leaves values
    that no substep evaluates again.  mms_moving's psi and source read t: both
    are evaluated at every substep, psi on the ghost ring first."""
    scenario = bundle[name][0]
    mask = build_slice_plan(scenario.domain, scenario.grid, scenario.n_slices).masks[0]
    problem = SliceProblem(
        mask=mask, flux=scenario.flux, span=(0.0, 0.01), substeps=scenario.substeps,
        psi=scenario.psi, source=scenario.source, initial=initial_frame(scenario, mask),
    )
    rows = count_data_evaluations(monkeypatch)
    solve_slice(problem)
    ghost_ring_then_active = [int(mask.ghost.sum()), mask.active_count]
    assert rows == ghost_ring_then_active * (scenario.substeps if per_substep else 0)


# --- kept factors ----------------------------------------------------------------


def count_spsolve(monkeypatch):
    calls = []

    def counting_spsolve(*args, **kwargs):
        calls.append(args[0].shape[0])
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(slice_solver, "spsolve", counting_spsolve)
    return calls


@pytest.mark.parametrize("name", ["disk2d", "jump_expand"])
def test_linear_and_line_stencils_factor_every_newton_step(bundle, name, monkeypatch):
    """A constant-Jacobian flux (the linear disk2d) and a line of unknowns (the
    1D jump_expand, p = 3) make one spsolve call per Newton iteration, each a
    factorisation; the bench's linsolve counters read these calls."""
    scenario, _, report = bundle[name]
    calls = count_spsolve(monkeypatch)
    run_scheme(scenario)
    assert len(calls) == report.total_newton() > 0
    assert [s["factorisations"] for s in report.slice_stats] == [s["newton"] for s in report.slice_stats]


def benchmark_disk_problem(substeps=2, centre=(0.1, -0.05)):
    """The bench's disk2d_p3 first slice, shortened to ``substeps`` of its 8 substeps."""
    g, mask = benchmark_disk_mask()
    x, y = g.node_coords().T
    u0 = np.exp(-4 * ((x - centre[0]) ** 2 + (y - centre[1]) ** 2)).reshape(mask.active.shape)
    return SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(3.0, dim=2), span=(0.0, substeps / 32), substeps=substeps,
        psi=parse_expr("0", ("t", "x", "y")), initial=np.where(mask.active, u0, np.where(mask.ghost, 0.0, np.nan)),
    )


def test_a_nonlinear_split_stencil_keeps_its_factor(monkeypatch):
    """On the benchmark disk a p = 3 stencil makes no spsolve call: it factors
    its first step matrix and takes later Newton steps as chord steps on that factor."""
    calls = count_spsolve(monkeypatch)
    solution = solve_slice(benchmark_disk_problem())
    newton = sum(s.newton_iterations for s in solution.stats)
    assert calls == []
    assert 1 <= solution.factorisations < newton


def test_a_nonlinear_disk_run_factors_at_most_0_4_times_per_newton_iteration():
    """The p = 3 disk at h = 0.042 (298 Newton iterations, 17 factorisations)."""
    _, report = run_scheme(parse_scenario_text(bundled_text("disk2d", disk_at_h_0042(3))))
    assert 0 < sum(s["factorisations"] for s in report.slice_stats) <= 0.4 * report.total_newton()


class TrackedFactor:
    """A SuperLU factor that can be weakly referenced."""

    def __init__(self, factor):
        self.factor = factor

    def solve(self, rhs):
        return self.factor.solve(rhs)


@dataclasses.dataclass
class Solve:
    """One Newton solve: whether the loop asked for a new factor, whether one was made,
    ||rhs||_inf, tau, and the line-search step the loop took last before it."""

    asked: bool
    factored: bool
    r_inf: float
    tau: float
    lam: float


class LastLineStep:
    """Line-search steps that remember the one given last."""

    def __init__(self, steps):
        self.steps, self.last = steps, None

    def __iter__(self):
        for self.last in self.steps:
            yield self.last


def record_solves(monkeypatch, steps=slice_solver.LINE_STEPS, wrap=lambda x, stale: x):
    """The Newton solves of each step try (``_step`` call) as lists of ``Solve``, the line search
    trying ``steps``; ``wrap`` maps each x, and whether a kept factor gave it, to the loop's step."""
    tries, step, solve, line = [], slice_solver._step, _Stencil.solve, LastLineStep(steps)

    def recording_step(*args):
        tries.append([])
        line.last = None
        return step(*args)

    def recording_solve(self, minus_j, tau, rhs, refactor=False):
        factored = self.factorisations
        x = solve(self, minus_j, tau, rhs, refactor)
        tries[-1].append(Solve(refactor, self.factorisations > factored, np.abs(rhs).max(), tau, line.last))
        return wrap(x, self.factorisations == factored)

    monkeypatch.setattr(slice_solver, "_step", recording_step)
    monkeypatch.setattr(_Stencil, "solve", recording_solve)
    monkeypatch.setattr(slice_solver, "LINE_STEPS", line)
    return tries


def assert_the_chord_rules_hold(tries):
    """A try's first solve asks for no new factor; each later one asks exactly where the step
    before it was damped (a stalled line search ends on 2^-20) or shrank ||r||_inf by less than
    ``CHORD_RATE``; a factor is made exactly where one is asked for, where there is none, or
    where tau moved by more than rounding."""
    factor_tau = None
    for solves in tries:
        for last, s in zip([None, *solves], solves):
            assert s.asked == (last is not None and (s.lam < 1 or s.r_inf > slice_solver.CHORD_RATE * last.r_inf))
            fresh = s.asked or factor_tau is None or not math.isclose(s.tau, factor_tau, rel_tol=1e-12)
            assert s.factored == fresh
            factor_tau = s.tau if fresh else factor_tau


def assert_the_frames_of_exact_newton(solution, problem, monkeypatch):
    """``solution`` unhalved and within 1e-10 of the frames of exact Newton (a new factor every
    iteration), run with the test's patches undone."""
    monkeypatch.undo()
    monkeypatch.setattr(_Stencil, "keeps_factor", False)
    exact = solve_slice(problem)
    assert not any(s.halvings for s in solution.stats)
    assert np.nanmax(np.abs(np.array(solution.frames) - np.array(exact.frames))) <= 1e-10
    return exact


def test_chord_steps_give_the_frames_of_exact_newton_on_one_factor_at_a_time(monkeypatch):
    """On the benchmark disk the chord iteration takes more, cheaper steps than
    exact Newton (21 on 6 factors against 13 on 13) to the same frames, and a
    chord step that shrinks ||r||_inf by less than CHORD_RATE with no damping
    refactors.  The old factor goes before the new one is made."""
    factors = []

    def tracking_splu(*args, **kwargs):
        assert all(ref() is None for ref in factors), "a factor was alive while another was made"
        factor = TrackedFactor(splu(*args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(slice_solver, "splu", tracking_splu)
    tries = record_solves(monkeypatch)
    problem = benchmark_disk_problem()
    chord = solve_slice(problem)
    assert len(factors) == chord.factorisations > 1
    assert_the_chord_rules_hold(tries)
    assert any(s.asked and s.lam == 1 for solves in tries for s in solves)
    exact = assert_the_frames_of_exact_newton(chord, problem, monkeypatch)
    newton = sum(s.newton_iterations for s in chord.stats)
    assert chord.factorisations < exact.factorisations < newton


def test_a_damped_chord_step_refactors(monkeypatch):
    """Steps doubled and tried from 1/2 down (and CHORD_RATE = inf, so that no
    contraction asks): every accepted step is damped, so every solve after a
    try's first asks for a new factor, and the frames are exact Newton's."""
    monkeypatch.setattr(slice_solver, "CHORD_RATE", math.inf)
    tries = record_solves(monkeypatch, slice_solver.LINE_STEPS[1:], lambda x, stale: 2 * x)
    problem = benchmark_disk_problem()
    solution = solve_slice(problem)
    assert_the_chord_rules_hold(tries)
    assert all(s.asked and s.lam == 0.5 for solves in tries for s in solves[1:])
    assert_the_frames_of_exact_newton(solution, problem, monkeypatch)


def test_a_stale_factors_stalled_line_search_is_retried_on_a_new_factor(monkeypatch):
    """Every step from a kept factor reversed, so that its line search stalls:
    the loop asks for a new factor at the same iterate instead of stopping,
    and the run ends on exact Newton's frames, each retried step counted."""
    tries = record_solves(monkeypatch, wrap=lambda x, stale: -x if stale else x)
    problem = benchmark_disk_problem()
    solution = solve_slice(problem)
    assert_the_chord_rules_hold(tries)
    retried = [(last.factored, s.asked, s.r_inf == last.r_inf, s.lam) for solves in tries
               for last, s in zip(solves, solves[1:]) if not last.factored]
    assert retried and set(retried) == {(False, True, True, 2.0**-20)}
    assert sum(s.newton_iterations for s in solution.stats) == sum(map(len, tries))
    assert_the_frames_of_exact_newton(solution, problem, monkeypatch)


def test_equal_substeps_share_a_factor_and_a_halved_one_refactors(monkeypatch):
    """``small_disk_problem``'s taus differ in their last bits, yet each substep
    starts on the last one's factor.  With the second substep's first try made
    to stall, its halves, at half its tau, refactor unasked, and so does the
    substep after them."""
    problem = small_disk_problem()
    times = problem.times
    assert len(set(np.diff(times))) == 3
    tries = record_solves(monkeypatch)
    step = slice_solver._step

    def stalling_step(*args):
        u, stats, history, why = step(*args)
        return u, stats, history, " (forced)" if args[-2:] == (times[1], times[2]) else why

    monkeypatch.setattr(slice_solver, "_step", stalling_step)
    solution = solve_slice(problem)
    assert [s.halvings for s in solution.stats] == [0, 1, 0, 0]
    assert_the_chord_rules_hold(tries)
    assert [(solves[0].asked, solves[0].factored) for solves in tries] == [
        (False, True), (False, False), (False, True), (False, False), (False, True), (False, False)]


# --- implicit step vs dense oracle -------------------------------------------


def dense_heat_step(mask, grid, u_in, tau, psi_value, source=0.0):
    """Independent reference: assemble (I/tau - L) row by row and solve
    densely.  Ghost nodes contribute psi through the right-hand side."""
    h = grid.spacing[0]
    active_flat = np.flatnonzero(mask.active.ravel())
    index = {flat: i for i, flat in enumerate(active_flat)}
    n = len(active_flat)
    A = np.zeros((n, n))
    b = np.zeros(n)
    u_flat = u_in.ravel()
    for i, flat in enumerate(active_flat):
        A[i, i] = 1.0 / tau + 2.0 / h**2
        b[i] = u_flat[flat] / tau + source
        for nb in (flat - 1, flat + 1):
            if nb in index:
                A[i, index[nb]] -= 1.0 / h**2
            else:
                b[i] += psi_value / h**2
    return np.linalg.solve(A, b)


def one_step(problem):
    """(frame, stats) of the single substep of a one-substep slice."""
    solution = solve_slice(problem)
    return solution.frames[-1], solution.stats[0]


@pytest.mark.parametrize("psi_value", [0.0, 0.25])
def test_implicit_heat_step_matches_dense_solve(psi_value):
    g, mask = unit_interval_mask(h=0.125)
    x = g.node_coords().ravel()
    u_in = np.where(mask.active.ravel(), np.sin(np.pi * np.clip(x, 0, 1)), psi_value)
    u_in = np.where(mask.defined.ravel(), u_in, np.nan).reshape(mask.active.shape)
    tau = 0.01
    problem = SliceProblem(
        mask=mask,
        flux=FluxModel.linear_diffusion(dim=1),
        span=(0.0, tau),
        substeps=1,
        psi=parse_expr(repr(psi_value), TX),
        initial=u_in,
    )
    frame, stats = one_step(problem)
    expected = dense_heat_step(mask, g, u_in, tau, psi_value)
    assert np.allclose(frame[mask.active], expected, atol=1e-12)
    assert stats.newton_iterations == 1  # linear problem: a single solve


def test_heat_step_with_source_matches_dense_solve():
    g, mask = unit_interval_mask(h=0.125)
    u_in = np.where(mask.defined, 0.0, np.nan)
    tau = 0.05
    problem = SliceProblem(
        mask=mask,
        flux=FluxModel.linear_diffusion(dim=1),
        span=(0.0, tau),
        substeps=1,
        psi=parse_expr("0", TX),
        initial=u_in,
        source=parse_expr("3", TX),
    )
    frame, _ = one_step(problem)
    expected = dense_heat_step(mask, g, u_in, tau, 0.0, source=3.0)
    assert np.allclose(frame[mask.active], expected, atol=1e-12)


def test_step_satisfies_its_own_residual():
    """Nonlinear case: check (u_new - u_old)/tau = div A(u_new) directly."""
    g, mask = unit_interval_mask(h=0.125)
    x = g.node_coords().ravel()
    u_in = np.where(mask.active.ravel(), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)
    u_in = np.where(mask.defined.ravel(), u_in, np.nan).reshape(mask.active.shape)
    tau = 0.01
    flux = FluxModel.p_laplacian(3.0, dim=1)
    problem = SliceProblem(
        mask=mask, flux=flux, span=(0.0, tau), substeps=1,
        psi=parse_expr("0", TX), initial=u_in,
    )
    frame, stats = one_step(problem)
    div = c_order_divergence(mask, flux, frame)
    residual = (frame[mask.active] - u_in[mask.active]) / tau - div
    assert np.max(np.abs(residual)) <= 1e-10
    assert stats.residual <= 1e-10


# --- iteration-count semantics ------------------------------------------------


def test_constant_data_cost_no_newton_iteration():
    """A start whose residual meets the tolerance is converged: no step is taken."""
    g, mask = unit_interval_mask(h=0.25)
    u_in = np.where(mask.defined, 0.7, np.nan)
    problem = SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(3.0, dim=1), span=(0.0, 0.1), substeps=1,
        psi=parse_expr("0.7", TX), initial=u_in,
    )
    frame, stats = one_step(problem)
    assert (stats.newton_iterations, stats.residual, stats.floor) == (0, 0.0, False)
    assert np.array_equal(frame[mask.defined], u_in[mask.defined])


def test_linear_diffusion_converges_in_exactly_one_iteration():
    g, mask = unit_interval_mask(h=0.0625)
    rng = np.random.default_rng(2)
    vals = rng.uniform(-1, 1, mask.active.shape)
    u_in = np.where(mask.active, vals, np.where(mask.ghost, 0.0, np.nan))
    problem = SliceProblem(
        mask=mask, flux=FluxModel.linear_diffusion(dim=1), span=(0.0, 0.02), substeps=4,
        psi=parse_expr("0", TX), initial=u_in,
    )
    solution = solve_slice(problem)
    assert [s.newton_iterations for s in solution.stats] == [1, 1, 1, 1]


# --- qualitative behaviour ------------------------------------------------------


def test_sup_norm_decays_under_zero_boundary():
    g, mask = unit_interval_mask(h=0.0625)
    x = g.node_coords().ravel()
    u_in = np.where(mask.active.ravel(), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)
    u_in = np.where(mask.defined.ravel(), u_in, np.nan).reshape(mask.active.shape)
    for p in (1.5, 2.0, 3.0):
        problem = SliceProblem(
            mask=mask, flux=FluxModel.p_laplacian(p, dim=1),
            span=(0.0, 0.05), substeps=10,
            psi=parse_expr("0", TX), initial=u_in,
        )
        solution = solve_slice(problem)
        sups = [np.nanmax(np.abs(f)) for f in solution.frames]
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:])), f"p={p}"


def test_step_l1_contraction_between_two_solutions():
    g, mask = unit_interval_mask(h=0.0625)
    x = g.node_coords().ravel()
    a0 = np.where(mask.active.ravel(), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)
    b0 = np.where(mask.active.ravel(), np.clip(x, 0, 1) * (1 - np.clip(x, 0, 1)), 0.0)
    a0 = np.where(mask.defined.ravel(), a0, np.nan).reshape(mask.active.shape)
    b0 = np.where(mask.defined.ravel(), b0, np.nan).reshape(mask.active.shape)
    for p in (2.0, 3.0):
        flux = FluxModel.p_laplacian(p, dim=1)
        kw = dict(mask=mask, flux=flux, span=(0.0, 0.05), substeps=10,
                  psi=parse_expr("0", TX))
        sol_a = solve_slice(SliceProblem(initial=a0, **kw))
        sol_b = solve_slice(SliceProblem(initial=b0, **kw))
        dist = [np.sum(np.abs(fa[mask.active] - fb[mask.active]))
                for fa, fb in zip(sol_a.frames, sol_b.frames)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(dist, dist[1:])), f"p={p}"


# --- failure modes ---------------------------------------------------------------


def test_exhausted_iterations_raise_stall_error(monkeypatch):
    monkeypatch.setattr(slice_solver, "MAX_NEWTON", 1)
    g, mask = unit_interval_mask(h=0.0625)
    rng = np.random.default_rng(0)
    vals = 50.0 * rng.uniform(-1, 1, mask.active.shape)
    u_in = np.where(mask.active, vals, np.where(mask.ghost, 0.0, np.nan))
    problem = SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(4.0, dim=1), span=(0.0, 10.0), substeps=1,
        psi=parse_expr("0", TX), initial=u_in,
    )
    with pytest.raises(SolverStallError) as err:
        solve_slice(problem)
    assert ("no convergence on [0.0, 0.625] at halving depth 4: residual 2.298e+10 after 1 Newton iterations "
            "(step=0, t=0.625,") in str(err.value)
    assert len(err.value.newton_history) == 2 and err.value.depth == 4


def test_a_run_that_stalls_says_where(bundle, monkeypatch):
    """Zero data keep the residual exactly 0 until psi turns on after
    t = 0.056, inside the second slice's third substep; one Newton step
    cannot reach the tolerance there, nor on its halves: the stall names the
    substep and the end of the piece that stalled four halvings deep."""
    monkeypatch.setattr(slice_solver, "MAX_NEWTON", 1)
    scenario = dataclasses.replace(
        bundle["plap3_fixed"][0], u0=parse_expr("0", ("x",)),
        psi=parse_expr("max(t - 0.056, 0)", TX),
    )
    with pytest.raises(SolverStallError) as err:
        run_scheme(scenario)
    exc = err.value
    assert (exc.slice, exc.step, exc.n_active, exc.depth) == (1, 2, 31, 4)
    assert exc.t == pytest.approx(0.05625, abs=1e-15)
    assert f"(slice=1, step=2, t={exc.t}, n_active=31)" in str(exc)
    assert len(exc.newton_history) == 2


STALLS = [("1e160", "residual inf after 0 Newton iterations"),
          ("1e100", "residual 1.118e+302 after 1 Newton iterations (line search stalled)")]


@pytest.mark.parametrize(
    "amplitude,counts,flux",
    [pytest.param(a, c, FluxModel.p_laplacian(4.0, dim=1), id=a) for a, c in STALLS]
    + [pytest.param(a, c, FluxModel.custom([parse_expr("(xi1^2 + 1e-16)^1*xi1", FLUX_VARS)], p=4.0),
                    id=f"custom-{a}") for a, c in STALLS],
)
def test_non_finite_residual_is_a_stall(bundle, amplitude, counts, flux):
    """A non-finite residual is never converged and a trial step whose
    residual norm overflows is never accepted, so both runs raise instead of
    returning junk frames (1e160: |xi|^2 overflows at the start; 1e100: a
    finite residual with an infinite 2-norm), at every halving depth.  The flux's evaluator raises
    on the overflow, and the residual reads that as non-finite: a custom
    flux stalls as the builtin does."""
    scenario = dataclasses.replace(
        bundle["plap3_fixed"][0], flux=flux, u0=parse_expr(f"{amplitude}*sin(pi*x)", ("x",)),
    )
    with pytest.raises(SolverStallError) as err:
        run_scheme(scenario)
    assert f"at halving depth 4: {counts} (slice=0, step=0," in str(err.value)
    assert len(err.value.newton_history) == 1  # no trial with a non-finite residual is accepted


FLAT_TOP = "max(sin(pi*x) - 0.5, 0)"  # flat where it is 0: xi = 0 on whole faces


def kinked(bundle, text, p):
    return dataclasses.replace(bundle["heat_fixed"][0], u0=parse_expr(FLAT_TOP, ("x",)),
                               flux=FluxModel.custom([parse_expr(text, FLUX_VARS)], p=p))


def test_a_custom_law_with_a_kink_at_zero_gradient_runs_as_the_builtin(bundle):
    """dA/dxi of (xi1^2)^0.5*xi1 reads (xi1^2)^-0.5, which does not evaluate
    at xi1 = 0; its chain-rule term is 0 there, the limit, so the law runs as
    the p = 3 builtin without regularisation does."""
    field, report = run_scheme(kinked(bundle, "(xi1^2)^0.5*xi1", 3.0))
    builtin = dataclasses.replace(kinked(bundle, "xi1", 3.0), flux=FluxModel.p_laplacian(3.0, eps_reg=0.0))
    ref, ref_report = run_scheme(builtin)
    assert report.total_newton() == ref_report.total_newton() > 0
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(field.frames, ref.frames))


def test_a_custom_law_with_an_infinite_slope_at_zero_gradient_runs(bundle):
    """abs(xi1)^0.5*sign(xi1), p = 1.5, has no dA/dxi at xi1 = 0; its chain
    term there is 0, as sign(0) is, and the run keeps the data's bounds."""
    field, report = run_scheme(kinked(bundle, "abs(xi1)^0.5*sign(xi1)", 1.5))
    assert report.total_newton() > 0
    frames = np.array(field.frames)
    assert np.nanmin(frames) >= 0.0 and np.nanmax(frames) <= 0.5


def test_a_newton_matrix_that_does_not_evaluate_is_a_stall(bundle):
    """A = 1e308*sin(2*xi1)/2 evaluates on small gradients, but its dA/dxi,
    1e308*cos(2*xi1)*2, overflows: Newton ends, on every half, and the stall names the subterm."""
    scenario = dataclasses.replace(
        bundle["heat_fixed"][0], u0=parse_expr("1e-3*sin(pi*x)", ("x",)),
        flux=FluxModel.custom([parse_expr("1e308*sin(2*xi1)/2", FLUX_VARS)], p=2.0),
    )
    with pytest.raises(SolverStallError) as err:
        run_scheme(scenario)
    assert "after 0 Newton iterations (matrix: non-finite value in subterm" in str(err.value)
    assert (err.value.slice, err.value.step) == (0, 0)


# A evaluates on small gradients; dA/dxi, 1e308*cos(2*xi1)*2, does not
SLOPE_OVERFLOWS = FluxModel.custom([parse_expr("1e308*sin(2*xi1)/2", FLUX_VARS)], p=2.0)
SLOPE_MATRIX = "matrix: non-finite value in subterm '1e+308*(cos(2*xi1)*2)')"

STOP_PATHS = {  # name -> (scenario, its changes, Newton's budget, the stop)
    "zero_data": ("heat_fixed", {"u0": parse_expr("0", ("x",))}, slice_solver.MAX_NEWTON, None),
    "both_budgets": ("plap3_fixed", {}, 2, ("residual 9.370e-07 after 2 Newton iterations", 3)),
    "fallback_budget": ("jump_expand", {}, 4, [2, 0, 1, 0]),
    "both_matrices": ("heat_fixed", {"u0": parse_expr(f"1e-3*{FLAT_TOP}", ("x",)), "flux": SLOPE_OVERFLOWS},
                      slice_solver.MAX_NEWTON,
                      (f"residual 5.690e+306 after 0 Newton iterations ({SLOPE_MATRIX}", 1)),
}


@pytest.mark.parametrize("name,changes,budget,stop", STOP_PATHS.values(), ids=STOP_PATHS)
def test_each_way_a_substep_stops_keeps_its_counts(bundle, monkeypatch, name, changes, budget, stop):
    """A converged start takes no Newton step (zero data); a substep that
    stalls is halved, its fallback, and a halved run counts its halvings and
    keeps the estimates; a stall comes once both Newton's budget and the
    halving depth are spent, or where the matrix fails on every half, and
    counts the stalled piece's iterations."""
    monkeypatch.setattr(slice_solver, "MAX_NEWTON", budget)
    scenario = dataclasses.replace(bundle[name][0], **changes)
    if stop is None:
        _, report = run_scheme(scenario)
        assert [(s["newton"], s["halvings"]) for s in report.slice_stats] == [(0, 0)] * scenario.n_slices
        return
    if isinstance(stop, list):
        field, report = run_scheme(scenario)
        assert [s["halvings"] for s in report.slice_stats] == stop
        assert max_principle_report(scenario, field_=field).passed
        assert energy_report(scenario, field_=field).passed
        return
    counts, newton_entries = stop
    with pytest.raises(SolverStallError) as err:
        run_scheme(scenario)
    assert f"at halving depth 4: {counts}" in str(err.value) and "(slice=0, step=0," in str(err.value)
    assert (len(err.value.newton_history), err.value.depth) == (newton_entries, 4)


# A is linear with slope 1e306: a finite matrix entry 1e306/h^2 overflows
HUGE_SLOPE = FluxModel.custom([parse_expr("1e306*xi1", FLUX_VARS)], p=2.0)


def test_a_singular_step_matrix_is_a_stall_without_a_warning(bundle):
    """The Newton matrix of that flux overflows and spsolve finds it exactly
    singular: Newton ends as on a matrix that does not evaluate, uncounted,
    the last finite residual kept, on every half."""
    scenario = dataclasses.replace(bundle["heat_fixed"][0], flux=HUGE_SLOPE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverStallError) as err:
            run_scheme(scenario)
    assert ("at halving depth 4: residual 9.862e+306 after 0 Newton iterations "
            "(matrix: Matrix is exactly singular) (slice=0, step=0,") in str(err.value)
    assert err.value.newton_history == [pytest.approx(9.862e306, rel=1e-3)]


# Nonlinear in z, so a 2D stencil keeps its SuperLU factor: its matrix overflows as HUGE_SLOPE's does
HUGE_Z_SLOPE = FluxModel.custom([parse_expr(f"1e306*(1 + z^2)*{k}", FLUX_VARS) for k in ("xi1", "xi2")],
                                p=2.0, dim=2)


def test_a_singular_kept_factor_is_a_stall_without_a_warning(bundle, monkeypatch):
    """SuperLU's "Factor is exactly singular" ends Newton on the disk as
    spsolve's singular matrix does on a line, with the same message."""
    scenario = dataclasses.replace(bundle["disk2d"][0], flux=HUGE_Z_SLOPE)
    calls = count_spsolve(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverStallError) as err:
            run_scheme(scenario)
    assert calls == []
    assert ("at halving depth 4: residual 3.306e+307 after 0 Newton iterations "
            "(matrix: Matrix is exactly singular) (slice=0, step=0,") in str(err.value)
    assert err.value.newton_history == [pytest.approx(3.306e307, rel=1e-3)]


def test_a_stale_factors_non_finite_step_refactors_and_a_fresh_ones_is_the_singular_stop():
    """With tau = inf a factor of 1e-300 (-J) gives x ~ 8.6e297 for rhs 1, and
    overflows for rhs 1e20.  Kept from the first, that stale factor's overflow
    makes a new factor, here of -J, whose x is finite.  A fresh factor's
    overflow, and a matrix that SuperLU finds singular (an infinite entry),
    both raise the stop spsolve's singular matrix gives."""
    g, mask = disk_mask()
    stencil = _Stencil(mask, FluxModel.p_laplacian(3.0, dim=2))
    frame = np.where(mask.defined, np.random.default_rng(3).uniform(-1, 1, mask.active.shape), np.nan)
    minus_j = stencil.jacobian(0.0, stencil.face_fields(frame))
    tiny, ones = minus_j * 1e-300, np.ones(stencil.n_active)
    assert np.isfinite(stencil.solve(lambda: tiny, np.inf, ones)).all()
    with np.errstate(over="ignore"):
        assert np.isfinite(stencil.solve(lambda: minus_j, np.inf, 1e20 * ones)).all()
        assert stencil.factorisations == 2
        with pytest.raises(slice_solver.MatrixRankWarning, match="Matrix is exactly singular"):
            stencil.solve(lambda: tiny, np.inf, 1e20 * ones, refactor=True)
    minus_j[5] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(slice_solver.MatrixRankWarning, match="exactly singular"):
        stencil.solve(lambda: minus_j, 0.01, ones)
    assert stencil.factorisations == 4


def random_step_problem(seed):
    """A one-substep 1D slice drawn from ``seed``: grid, section, flux, data
    amplitude and tau, over a range that reaches every way a substep stops."""
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(16, 129))
    h = 1.0 / cells
    grid = Grid(dim=1, origin=(-2 * h,), spacing=(h,), counts=(cells + 4,))
    a = rng.uniform(0, 0.4)
    b = rng.uniform(a + 0.2, 1)
    mask = rasterize(interval_region((a, b)), grid)
    p = float(rng.choice((1.1, 1.3, 1.5, 2, 3, 4, 6)))
    kind = str(rng.choice(("p_laplacian", "z_modulated")))
    amplitude = 10 ** rng.uniform(-3, 2)
    tau = 10 ** rng.uniform(-4, 0)
    u0 = amplitude * rng.uniform(-1, 1, grid.shape)
    return SliceProblem(
        mask=mask, flux=getattr(FluxModel, kind)(p), span=(0.0, tau), substeps=1,
        psi=parse_expr("0", TX), initial=np.where(mask.active, u0, np.where(mask.ghost, 0.0, np.nan)),
    )


def assert_the_stall_agrees_with_its_message(err, problem):
    """Counts, history, depth and reason of a stall against its message: the
    piece that stalled is the substep halved ``MAX_HALVINGS`` times, and
    Newton ended there on its budget, on a non-finite residual or with its
    reason."""
    match = re.fullmatch(r"no convergence on \[(\S+), (\S+)\] at halving depth (\d+): residual (\S+) "
                         r"after (\d+) Newton iterations( \((line search stalled|matrix: .*)\))? "
                         r"\(step=0, t=(\S+), n_active=\d+\)", str(err))
    assert match, str(err)
    t_from, t_to, depth, residual, newton = float(match[1]), float(match[2]), int(match[3]), match[4], int(match[5])
    line_search, matrix = match[7] == "line search stalled", (match[7] or "").startswith("matrix")
    history, budget = err.newton_history, slice_solver.MAX_NEWTON
    assert depth == err.depth == slice_solver.MAX_HALVINGS and float(match[8]) == err.t == t_to
    assert t_to - t_from == pytest.approx(problem.span[1] / 2**depth)
    assert residual == f"{history[-1]:.3e}" and np.isfinite(history[:-1]).all()
    assert len(history) == newton + 1 - line_search and newton <= budget
    assert newton == budget or line_search or matrix or not np.isfinite(history[-1])


def step_stalls(seed):
    """Whether the probe's step ``seed`` stalls, having checked that no warning
    escapes it and that it converges within the budget, its residual under the
    bound its stats record, or raises a stall that agrees with its message."""
    problem = random_step_problem(seed)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, stats = one_step(problem)
    except SolverStallError as err:
        assert_the_stall_agrees_with_its_message(err, problem)
        return True
    assert stats.residual <= stats.bound, seed
    assert stats.bound >= slice_solver.NEWTON_TOL, seed
    assert stats.newton_iterations <= slice_solver.MAX_NEWTON * (2 * stats.halvings + 1), seed
    return False


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(300, 2**32 - 1))
@example(seed=119)
def test_a_step_converges_or_stalls_as_its_report_says(seed):
    """Beyond the pinned seeds of the probe below; seed 119 stops at its
    rounding floor, residual 3.78e-10 above NEWTON_TOL."""
    step_stalls(seed)


PROBE_STALLS = [6, 68, 91, 106, 138, 145, 159, 192, 208, 249, 262, 268]


def test_the_step_probe_stalls_on_its_pinned_seeds():
    """Seeds 0-299: 12 stall, every one typed, against 40 with the Picard
    fallback that halving replaced (6, 68 and 91, z_modulated with data
    amplitude 14-81, converged through Picard)."""
    assert [seed for seed in range(300) if step_stalls(seed)] == PROBE_STALLS


def test_a_substep_too_short_to_halve_stalls_at_the_depth_it_reached():
    """A substep of one ulp has no midpoint strictly inside it, so a stall
    there (here a residual that overflows at the start) is raised unhalved."""
    g, mask = unit_interval_mask(h=0.0625)
    u_in = np.where(mask.active, 1e160, np.where(mask.ghost, 0.0, np.nan))
    problem = SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(4.0, dim=1), span=(1.0, np.nextafter(1.0, 2.0)), substeps=1,
        psi=parse_expr("0", TX), initial=u_in,
    )
    with pytest.raises(SolverStallError) as err:
        solve_slice(problem)
    assert err.value.depth == 0
    assert "at halving depth 0: residual inf after 0 Newton iterations (step=0," in str(err.value)


def disk_at_h_0042(p):
    """The disk2d edits to h = 0.042, 4 slices x 8 substeps and the p-Laplacian flux of exponent p."""
    return {"h = 0.075": "h = 0.042", "slices = 2": "slices = 4", "substeps = 5": "substeps = 8",
            "type = linear_diffusion\np = 2": f"type = p_laplacian\np = {p}"}


# Runs that stalled where NEWTON_TOL lies below the residual's rounding floor
FLOOR_RUNS = {
    "heat_fixed_h1024": lambda: bundled_text("heat_fixed", {"h = 0.03125": "h = 0.0009765625"}),
    "plap3_fixed_h512": lambda: bundled_text("plap3_fixed", {"h = 0.03125": "h = 0.001953125"}),
    "disk_p1.2_h0.042": lambda: bundled_text("disk2d", disk_at_h_0042(1.2)),
    "jump_p1.5_h0.042": lambda: edited(disk_jump_text(0.5, 0.8), disk_at_h_0042(1.5)),
}


@pytest.mark.parametrize("text", FLOOR_RUNS.values(), ids=FLOOR_RUNS)
def test_refined_and_fast_diffusion_runs_stop_at_the_rounding_floor(text):
    """Each stalled with NEWTON_TOL as the only stop (heat_fixed at h = 1/1024:
    residual 1.954e-10); Newton now ends some substeps at its rounding floor,
    and the run keeps the maximum principle.  The jump takes the disk of
    radius 0.5 to radius 0.8 at t = 0.5 under psi = 0.3."""
    scenario = parse_scenario_text(text())
    field, report = run_scheme(scenario)
    assert sum(s["floor"] for s in report.slice_stats) > 0
    assert max(s["worst_residual"] for s in report.slice_stats) > slice_solver.NEWTON_TOL
    assert max_principle_report(scenario, field_=field).passed


def test_source_free_scenarios_run_with_their_data_scaled_by_1e3(zero_source_bundle):
    """The stop does not depend on the units of u: five of these nine stalled
    with data x 1e3, the linear heat_fixed among them.  zmod_fixed stays a
    typed stall: z = u makes its modulation swing from node to node."""
    assert len(zero_source_bundle) == 9
    for name, (scenario, _, _) in zero_source_bundle.items():
        space = ("x", "y")[: scenario.grid.dim]
        scaled = dataclasses.replace(scenario, u0=parse_expr(f"1e3*({to_source(scenario.u0)})", space),
                                     psi=parse_expr(f"1e3*({to_source(scenario.psi)})", ("t", *space)))
        if name == "zmod_fixed":
            with pytest.raises(SolverStallError, match=r"^no convergence on \[0\.0, 0\.00015625\] at halving "
                                                       r"depth 4: residual 2\.075e\+04 after 7 Newton iterations "
                                                       r"\(line search stalled\) \(slice=0, step=0,"):
                run_scheme(scaled)
            continue
        field, _ = run_scheme(scaled)
        assert max_principle_report(scaled, field_=field).passed, name
        assert energy_report(scaled, field_=field).passed, name


def test_nonfinite_initial_frame_rejected():
    g, mask = unit_interval_mask(h=0.25)
    u_in = np.where(mask.defined, 1.0, np.nan)
    u_in[tuple(np.argwhere(mask.active)[0])] = np.inf
    problem = SliceProblem(
        mask=mask, flux=FluxModel.linear_diffusion(dim=1), span=(0.0, 0.1), substeps=1,
        psi=parse_expr("0", TX), initial=u_in,
    )
    with pytest.raises(NumericInputError):
        solve_slice(problem)


def test_empty_span_rejected():
    g, mask = unit_interval_mask(h=0.25)
    u_in = np.where(mask.defined, 0.0, np.nan)
    with pytest.raises(SlabflowError, match="empty slice span"):
        SliceProblem(
            mask=mask, flux=FluxModel.linear_diffusion(dim=1), span=(0.5, 0.5), substeps=1,
            psi=parse_expr("0", TX), initial=u_in,
        )


@pytest.mark.parametrize(
    "span,substeps,message",
    [((0.0, 0.1), 0, "substeps must be an integer >= 1, got 0"),
     ((0.0, 5e-323), 20, "20 substeps of the span (0.0, 5e-323) do not all advance time")],
    ids=["no_substeps", "subnormal_span"],
)
def test_substeps_are_checked_at_construction(span, substeps, message):
    """A span of a few subnormals is not empty, but linspace puts some of
    its substeps at zero length; the problem is refused when built."""
    g, mask = unit_interval_mask(h=0.25)
    with pytest.raises(SlabflowError) as err:
        SliceProblem(
            mask=mask, flux=FluxModel.linear_diffusion(dim=1), span=span, substeps=substeps,
            psi=parse_expr("0", TX), initial=np.where(mask.defined, 0.0, np.nan),
        )
    assert str(err.value) == message


# --- boundary data ----------------------------------------------------------------


def test_boundary_time_derivative_fallback_matches_analytic():
    """psi_t of the energy report is psi's exact derivative tree."""
    psi = parse_expr("exp(-t)*x", TX)
    pts = np.array([[0.5], [1.0]])
    got = on_points(derivative(psi, "t"), pts)(0.3)
    want = -np.exp(-0.3) * pts.ravel()
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_boundary_gradient_fallback():
    psi = parse_expr("x^2", TX)
    pts = np.array([[0.5], [1.5]])
    assert on_points(derivative(psi, "x"), pts)(0.0).tolist() == [1.0, 3.0]


def test_on_points_broadcasts_constants():
    tree = parse_expr("2", TX)
    out = on_points(tree, np.array([[0.1], [0.2], [0.3]]))(0.0)
    assert out.tolist() == [2.0, 2.0, 2.0]


_trees = st.recursive(_leaves, _interior, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(_trees, _trees.filter(lambda raw: "t" not in free_variables(raw))),
       wrt=st.sampled_from((None, "t", "x")), dim=st.sampled_from((1, 2)),
       points=st.lists(st.tuples(_values, _values), min_size=1, max_size=4),
       times=st.lists(_values, min_size=1, max_size=3))
@example(raw=parse_expr("sqrt(t*x^2)", ("t", "x")), wrt="x", dim=1, points=[(0.0, 0.0), (1.0, 0.0)],
         times=[0.5])
def test_on_points_matches_one_shot_evaluation(raw, wrt, dim, points, times):
    """Random trees over t, x and y (t-free ones included), and their
    derivative trees with chain-rule terms: at every t the binder gives the
    one-shot walk's values bitwise, or the same NumericEvalError; a t-free
    tree gives one shared array.  The example's chain-rule partial reads t
    and does not evaluate at x = 0, where its tangent is 0."""
    tree = parse_expr(to_source(raw), ("t", "x", "y"))
    if wrt is not None:
        tree = derivative(tree, wrt)
    points = np.array(points)[:, :dim]
    values = on_points(tree, points)
    for t in times:
        try:
            want = one_shot(tree, t, points)
        except NumericEvalError as ref:
            with pytest.raises(NumericEvalError) as err:
                values(t)
            assert str(err.value) == str(ref)
            continue
        assert values(t).tobytes() == want.tobytes()
        if "t" not in free_variables(tree):
            assert values(t) is values(t + 1.0)
