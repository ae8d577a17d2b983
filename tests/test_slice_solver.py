"""Frozen-domain stepping: divergence stencil, implicit solves, stepping.

The implicit-step reference values come from an independently assembled
dense linear system (numpy.linalg.solve on a hand-built matrix), not
from the sparse path under test.
"""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import coo_matrix, identity

from slabflow import (
    BoundaryData,
    FluxModel,
    Grid,
    IntervalRegion,
    NumericInputError,
    SliceProblem,
    SolverConfig,
    SolverStallError,
    TimeDomain,
    discrete_flux_divergence,
    eval_on_points,
    implicit_step,
    parse_expr,
    rasterize,
    run_scheme,
    section,
    solve_slice,
)
from slabflow import slice_solver
from slabflow.slice_solver import _flux_faces, _newton_faces, _picard_faces, _Stencil

TX = ("t", "x")


def unit_interval_mask(h=0.25, pad=2):
    n = round(1.0 / h)
    g = Grid(dim=1, origin=(-pad * h,), spacing=(h,), counts=(n + 2 * pad,))
    return g, rasterize(IntervalRegion(((0.0, 1.0),)), g)


def full_frame(grid, mask, fn):
    x = grid.node_coords().ravel()
    vals = np.where(mask.defined.ravel(), fn(x), np.nan)
    return vals.reshape(mask.active.shape)


# --- divergence stencil ------------------------------------------------------


def test_divergence_of_parabola_is_constant():
    """u = x(1-x) with the linear flux: second difference is exactly -2."""
    g, mask = unit_interval_mask(h=0.25)
    frame = full_frame(g, mask, lambda x: x * (1 - x))
    div = discrete_flux_divergence(mask, FluxModel.linear_diffusion(dim=1), 0.0, frame)
    assert np.allclose(div, -2.0, atol=1e-13)


def test_divergence_of_constant_is_zero():
    g, mask = unit_interval_mask(h=0.125)
    frame = full_frame(g, mask, lambda x: np.full_like(x, 0.7))
    for flux in (FluxModel.linear_diffusion(dim=1), FluxModel.p_laplacian(3.0, dim=1)):
        div = discrete_flux_divergence(mask, flux, 0.0, frame)
        assert np.allclose(div, 0.0, atol=1e-14)


def test_divergence_of_affine_is_zero():
    # constant gradient: every face carries the same flux, so the balance
    # vanishes for any gradient-dependent model
    g, mask = unit_interval_mask(h=0.125)
    frame = full_frame(g, mask, lambda x: 0.3 * x + 0.1)
    for flux in (FluxModel.p_laplacian(1.5, dim=1), FluxModel.p_laplacian(4.0, dim=1)):
        div = discrete_flux_divergence(mask, flux, 0.0, frame)
        assert np.allclose(div, 0.0, atol=1e-12)


def test_divergence_2d_quadratic():
    """u = x^2 + y^2: face differences are exact for quadratics, div = 4."""
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(0.125, 0.125), counts=(16, 16))
    phi = parse_expr("max(abs(x), abs(y)) - 0.5", ("t", "x", "y"))
    dom = TimeDomain.implicit(phi, g.box, 1.0, dim=2)
    mask = rasterize(section(dom, 0.0), g)
    coords = g.node_coords()
    vals = np.where(mask.defined.ravel(), coords[:, 0] ** 2 + coords[:, 1] ** 2, np.nan)
    frame = vals.reshape(mask.active.shape)
    div = discrete_flux_divergence(mask, FluxModel.linear_diffusion(dim=2), 0.0, frame)
    assert np.allclose(div, 4.0, atol=1e-12)


# --- Jacobians of the face assembly -------------------------------------------


def disk_mask(h=0.125):
    g = Grid(dim=2, origin=(-1.0, -1.0), spacing=(h, h), counts=(round(2 / h),) * 2)
    phi = parse_expr("x^2 + y^2 - 0.6^2", ("t", "x", "y"))
    return g, rasterize(section(TimeDomain.implicit(phi, g.box, 1.0, dim=2), 0.0), g)


def central_difference_jacobian(stencil, frame, tau, eps=1e-6):
    """d/du_active of the step residual u/tau - div A(u) (the u_in and
    source terms do not depend on u), one active node at a time."""

    def residual(v):
        return v.ravel()[stencil.active_flat] / tau - stencil.divergence(0.0, v)

    columns = []
    for flat in stencil.active_flat:
        up, down = frame.copy(), frame.copy()
        up.ravel()[flat] += eps
        down.ravel()[flat] -= eps
        columns.append((residual(up) - residual(down)) / (2.0 * eps))
    return np.column_stack(columns)


@pytest.mark.parametrize(
    "make_mask,flux",
    [
        (lambda: unit_interval_mask(h=0.0625), FluxModel.p_laplacian(3.0, dim=1)),
        (lambda: unit_interval_mask(h=0.0625), FluxModel.z_modulated(3.0, dim=1)),
        (disk_mask, FluxModel.linear_diffusion(dim=2)),
    ],
    ids=["p_laplacian_1d", "z_modulated_1d", "linear_diffusion_2d"],
)
def test_newton_matrix_matches_central_differences(make_mask, flux):
    """Where the Newton Jacobian is exact (1D, or a 2D flux whose component
    depends only on its own gradient slot), it is the residual's derivative."""
    g, mask = make_mask()
    rng = np.random.default_rng(7)
    tau = 0.01
    stencil = _Stencil(mask, flux)
    for _ in range(3):
        frame = np.where(mask.defined, rng.uniform(-1.0, 1.0, mask.active.shape), np.nan)
        jac = stencil.assemble(0.0, frame, _newton_faces)[1]
        newton = stencil.step_matrix(jac, tau).toarray()
        reference = central_difference_jacobian(stencil, frame, tau)
        assert np.allclose(newton, reference, rtol=1e-6, atol=1e-7 * np.abs(reference).max())


def per_iteration_assembly(stencil, frame, face_terms, tau):
    """Reference for the fixed pattern: the per-iteration construction it
    replaced -- div A by np.add.at (low ends) and np.subtract.at (high ends)
    per axis, the Jacobian as a COO matrix, then (I/tau - J) as CSC."""
    n = stencil.n_active
    rank = np.full(frame.size, -1)
    rank[stencil.active_flat] = np.arange(n)
    div = np.zeros(n)
    rows, cols, vals = [], [], []
    for a, (ax, (xi, z, xi_n)) in enumerate(zip(stencil.axes, stencil.face_fields(frame))):
        F, dF = face_terms(stencil.flux, 0.0, a, ax, xi, z, xi_n)
        h = ax["h"]
        lo_flat = np.ravel_multi_index(ax["fidx"], frame.shape)
        lo_r = rank[lo_flat]
        hi_r = rank[lo_flat + int(np.prod(frame.shape[a + 1:]))]
        if F is not None:
            sel = lo_r >= 0
            np.add.at(div, lo_r[sel], F[sel] / h)
            sel = hi_r >= 0
            np.subtract.at(div, hi_r[sel], F[sel] / h)
        if dF is None:
            continue
        for row, sign in ((lo_r, 1.0), (hi_r, -1.0)):
            for col, dF_col in zip((lo_r, hi_r), dF):
                sel = (row >= 0) & (col >= 0)
                rows.append(row[sel])
                cols.append(col[sel])
                vals.append(sign * dF_col[sel] / h)
    if not vals:
        return div, None
    jdiv = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return div, (identity(n) / tau - jdiv).tocsc()


def isolated_node_mask():
    """[0, 1] plus a two-cell interval whose one active node has ghost
    neighbours only, so its matrix row is the diagonal alone."""
    h = 0.0625
    g = Grid(dim=1, origin=(-2 * h,), spacing=(h,), counts=(32,))
    return g, rasterize(IntervalRegion(((0.0, 1.0), (1.25, 1.25 + 2 * h))), g)


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
@pytest.mark.parametrize("face_terms", [_newton_faces, _picard_faces])
def test_fixed_pattern_matches_per_iteration_assembly_bitwise(make_mask, flux, face_terms):
    g, mask = make_mask()
    rng = np.random.default_rng(11)
    tau = 0.01
    stencil = _Stencil(mask, flux)
    for _ in range(3):
        frame = np.where(mask.defined, rng.uniform(-1.0, 1.0, mask.active.shape), np.nan)
        div, jac = stencil.assemble(0.0, frame, face_terms)
        ref_div, ref_matrix = per_iteration_assembly(stencil, frame, face_terms, tau)
        assert np.array_equal(stencil.step_matrix(jac, tau).toarray(), ref_matrix.toarray())
        assert np.array_equal(div, ref_div)
        ref_residual_div = per_iteration_assembly(stencil, frame, _flux_faces, tau)[0]
        assert np.array_equal(stencil.divergence(0.0, frame), ref_residual_div)
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
    discrete_flux_divergence(mask, FluxModel.p_laplacian(3.0, dim=2), 0.0, frame)
    assert calls == []
    scenario = bundle["heat_moving"][0]
    _, report = run_scheme(scenario)
    assert len(calls) == len(report.slice_stats) == 4


@pytest.mark.parametrize("name", ["plap3_fixed", "zmod_fixed"])
def test_picard_fallback_alone_converges_to_the_newton_solution(bundle, name):
    scenario, newton_field, _ = bundle[name]
    config = SolverConfig(max_newton=0, newton_tol=1e-7)
    field, report = run_scheme(dataclasses.replace(scenario, config=config))
    assert report.total_newton() == 0
    assert sum(s["picard"] for s in report.slice_stats) > 0
    act = field.mask_at(field.n_stamps - 1).active
    assert np.max(np.abs(field.frames[-1][act] - newton_field.frames[-1][act])) <= 1e-8


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
        freeze_time=0.0,
        span=(0.0, tau),
        substeps=1,
        boundary=BoundaryData(psi=parse_expr(repr(psi_value), TX)),
        initial=u_in,
    )
    frame, stats = implicit_step(problem, u_in, 0.0, tau)
    expected = dense_heat_step(mask, g, u_in, tau, psi_value)
    assert np.allclose(frame[mask.active], expected, atol=1e-12)
    assert stats.newton_iterations == 1  # linear problem: a single solve


def test_implicit_step_with_source_matches_dense_solve():
    g, mask = unit_interval_mask(h=0.125)
    u_in = np.where(mask.defined, 0.0, np.nan)
    tau = 0.05
    problem = SliceProblem(
        mask=mask,
        flux=FluxModel.linear_diffusion(dim=1),
        freeze_time=0.0,
        span=(0.0, tau),
        substeps=1,
        boundary=BoundaryData(psi=parse_expr("0", TX)),
        initial=u_in,
        source=parse_expr("3", TX),
    )
    frame, _ = implicit_step(problem, u_in, 0.0, tau)
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
        mask=mask, flux=flux, freeze_time=0.0, span=(0.0, tau), substeps=1,
        boundary=BoundaryData(psi=parse_expr("0", TX)), initial=u_in,
    )
    frame, stats = implicit_step(problem, u_in, 0.0, tau)
    div = discrete_flux_divergence(mask, flux, 0.0, frame)
    residual = (frame[mask.active] - u_in[mask.active]) / tau - div
    assert np.max(np.abs(residual)) <= 1e-10
    assert stats.residual <= 1e-10


# --- iteration-count semantics ------------------------------------------------


def test_constant_data_costs_one_newton_iteration():
    g, mask = unit_interval_mask(h=0.25)
    u_in = np.where(mask.defined, 0.7, np.nan)
    problem = SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(3.0, dim=1), freeze_time=0.0,
        span=(0.0, 0.1), substeps=1,
        boundary=BoundaryData(psi=parse_expr("0.7", TX)), initial=u_in,
    )
    frame, stats = implicit_step(problem, u_in, 0.0, 0.1)
    assert stats.newton_iterations == 1
    assert stats.picard_iterations == 0
    assert np.allclose(frame[mask.defined], 0.7, atol=0)


def test_linear_diffusion_converges_in_exactly_one_iteration():
    g, mask = unit_interval_mask(h=0.0625)
    rng = np.random.default_rng(2)
    vals = rng.uniform(-1, 1, mask.active.shape)
    u_in = np.where(mask.active, vals, np.where(mask.ghost, 0.0, np.nan))
    problem = SliceProblem(
        mask=mask, flux=FluxModel.linear_diffusion(dim=1), freeze_time=0.0,
        span=(0.0, 0.02), substeps=4,
        boundary=BoundaryData(psi=parse_expr("0", TX)), initial=u_in,
    )
    solution = solve_slice(problem)
    assert [s.newton_iterations for s in solution.stats] == [1, 1, 1, 1]
    assert all(s.picard_iterations == 0 for s in solution.stats)


# --- qualitative behaviour ------------------------------------------------------


def test_sup_norm_decays_under_zero_boundary():
    g, mask = unit_interval_mask(h=0.0625)
    x = g.node_coords().ravel()
    u_in = np.where(mask.active.ravel(), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)
    u_in = np.where(mask.defined.ravel(), u_in, np.nan).reshape(mask.active.shape)
    for p in (1.5, 2.0, 3.0):
        problem = SliceProblem(
            mask=mask, flux=FluxModel.p_laplacian(p, dim=1), freeze_time=0.0,
            span=(0.0, 0.05), substeps=10,
            boundary=BoundaryData(psi=parse_expr("0", TX)), initial=u_in,
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
        kw = dict(mask=mask, flux=flux, freeze_time=0.0, span=(0.0, 0.05), substeps=10,
                  boundary=BoundaryData(psi=parse_expr("0", TX)))
        sol_a = solve_slice(SliceProblem(initial=a0, **kw))
        sol_b = solve_slice(SliceProblem(initial=b0, **kw))
        dist = [np.sum(np.abs(fa[mask.active] - fb[mask.active]))
                for fa, fb in zip(sol_a.frames, sol_b.frames)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(dist, dist[1:])), f"p={p}"


# --- failure modes ---------------------------------------------------------------


def test_exhausted_iterations_raise_stall_error():
    g, mask = unit_interval_mask(h=0.0625)
    rng = np.random.default_rng(0)
    vals = 50.0 * rng.uniform(-1, 1, mask.active.shape)
    u_in = np.where(mask.active, vals, np.where(mask.ghost, 0.0, np.nan))
    problem = SliceProblem(
        mask=mask, flux=FluxModel.p_laplacian(4.0, dim=1), freeze_time=0.0,
        span=(0.0, 10.0), substeps=1,
        boundary=BoundaryData(psi=parse_expr("0", TX)), initial=u_in,
        config=SolverConfig(max_newton=1, max_picard=0),
    )
    with pytest.raises(SolverStallError) as err:
        solve_slice(problem)
    assert len(err.value.residual_history) >= 1


def test_nonfinite_initial_frame_rejected():
    g, mask = unit_interval_mask(h=0.25)
    u_in = np.where(mask.defined, 1.0, np.nan)
    u_in[tuple(np.argwhere(mask.active)[0])] = np.inf
    problem = SliceProblem(
        mask=mask, flux=FluxModel.linear_diffusion(dim=1), freeze_time=0.0,
        span=(0.0, 0.1), substeps=1,
        boundary=BoundaryData(psi=parse_expr("0", TX)), initial=u_in,
    )
    with pytest.raises(NumericInputError):
        solve_slice(problem)


def test_empty_span_rejected():
    g, mask = unit_interval_mask(h=0.25)
    u_in = np.where(mask.defined, 0.0, np.nan)
    problem = SliceProblem(
        mask=mask, flux=FluxModel.linear_diffusion(dim=1), freeze_time=0.0,
        span=(0.5, 0.5), substeps=1,
        boundary=BoundaryData(psi=parse_expr("0", TX)), initial=u_in,
    )
    with pytest.raises(ValueError):
        solve_slice(problem)


# --- boundary data ----------------------------------------------------------------


def test_boundary_time_derivative_fallback_matches_analytic():
    psi = parse_expr("exp(-t)*x", TX)
    bd = BoundaryData(psi=psi)
    pts = np.array([[0.5], [1.0]])
    got = bd.time_derivative(0.3, pts)
    want = -np.exp(-0.3) * pts.ravel()
    assert np.allclose(got, want, atol=1e-8)


def test_boundary_explicit_derivative_wins():
    psi = parse_expr("exp(-t)*x", TX)
    psi_t = parse_expr("-exp(-t)*x", TX)
    bd = BoundaryData(psi=psi, psi_t=psi_t)
    pts = np.array([[0.5]])
    assert bd.time_derivative(0.3, pts)[0] == pytest.approx(-np.exp(-0.3) * 0.5, rel=1e-14)


def test_boundary_gradient_fallback():
    psi = parse_expr("x^2", TX)
    bd = BoundaryData(psi=psi)
    pts = np.array([[0.5], [1.5]])
    grad = bd.gradient(0.0, pts)
    assert grad.shape == (2, 1)
    assert np.allclose(grad.ravel(), [1.0, 3.0], atol=1e-6)


def test_eval_on_points_broadcasts_constants():
    tree = parse_expr("2", TX)
    out = eval_on_points(tree, 0.0, np.array([[0.1], [0.2], [0.3]]))
    assert out.tolist() == [2.0, 2.0, 2.0]
