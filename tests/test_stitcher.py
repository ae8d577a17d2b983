"""Gluing slices: transfer rule, whole-scheme runs, trace access."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import interval_domain
from slabflow import (
    DomainRangeError,
    FluxModel,
    GeometryError,
    Grid,
    IntervalRegion,
    Scenario,
    ScenarioError,
    TimeDomain,
    eval_on_points,
    initial_frame,
    knot_traces,
    parse_expr,
    rasterize,
    run_scheme,
    transfer,
)
from slabflow import stitcher
from slabflow.expressions import bind

TX = ("t", "x")


def heat_scenario(h=1 / 64, n_slices=2, substeps=50):
    dom = interval_domain("0", "1", 0.1)
    n = round(1.0 / h)
    g = Grid(dim=1, origin=(-4 * h,), spacing=(h,), counts=(n + 8,))
    return Scenario(
        grid=g,
        domain=dom,
        n_slices=n_slices,
        substeps=substeps,
        flux=FluxModel.linear_diffusion(dim=1),
        psi=parse_expr("0", TX),
        u0=parse_expr("sin(pi*x)", ("x",)),
    )


# --- transfer rule ------------------------------------------------------------


def test_transfer_identity_on_unchanged_mask():
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(24,))
    mask = rasterize(IntervalRegion(((0.0, 1.0),)), g)
    rng = np.random.default_rng(4)
    frame = np.where(mask.defined, rng.uniform(size=mask.active.shape), np.nan)
    out = transfer(frame, mask, mask, parse_expr("0.5", TX), 0.3)
    assert np.array_equal(out[mask.active], frame[mask.active])
    assert np.allclose(out[mask.ghost], 0.5)
    assert np.all(np.isnan(out[~mask.defined]))


def test_transfer_expansion_uses_boundary_datum():
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(32,))
    small = rasterize(IntervalRegion(((0.0, 1.0),)), g)
    large = rasterize(IntervalRegion(((0.0, 1.5),)), g)
    frame = np.where(small.defined, 2.0, np.nan)
    out = transfer(frame, small, large, parse_expr("t + x", TX), 0.25)
    fresh = large.active & ~small.active
    x = g.node_coords().ravel().reshape(large.active.shape)
    assert np.allclose(out[fresh], 0.25 + x[fresh])
    kept = large.active & small.active
    assert np.allclose(out[kept], 2.0)


def test_transfer_contraction_restricts_previous_values():
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(32,))
    large = rasterize(IntervalRegion(((0.0, 1.5),)), g)
    small = rasterize(IntervalRegion(((0.25, 1.25),)), g)
    rng = np.random.default_rng(8)
    frame = np.where(large.defined, rng.uniform(size=large.active.shape), np.nan)
    out = transfer(frame, large, small, parse_expr("t + x", TX), 0.3)
    kept = small.active & large.active
    assert np.array_equal(out[kept], frame[kept])
    assert np.all(np.isnan(out[~small.defined]))
    # Nodes active before the knot and ghosts after it take psi(t_knot), not their old values.
    demoted = large.active & small.ghost
    x = g.node_coords().ravel().reshape(small.active.shape)
    assert demoted.any()
    assert np.allclose(out[demoted], 0.3 + x[demoted])


def test_transfer_rejects_mismatched_grids():
    g1 = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(24,))
    g2 = Grid(dim=1, origin=(-0.25,), spacing=(0.125,), counts=(12,))
    m1 = rasterize(IntervalRegion(((0.0, 1.0),)), g1)
    m2 = rasterize(IntervalRegion(((0.0, 1.0),)), g2)
    frame = np.where(m1.defined, 1.0, np.nan)
    with pytest.raises(GeometryError):
        transfer(frame, m1, m2, parse_expr("0", TX), 0.0)


def test_initial_frame_layout():
    scen = heat_scenario()
    from slabflow import build_slice_plan

    plan = build_slice_plan(scen.domain, scen.grid, scen.n_slices)
    frame = initial_frame(scen, plan.masks[0], 0.0)
    x = scen.grid.node_coords().ravel().reshape(frame.shape)
    assert np.allclose(frame[plan.masks[0].active], np.sin(np.pi * x[plan.masks[0].active]))
    assert np.allclose(frame[plan.masks[0].ghost], 0.0)
    assert np.all(np.isnan(frame[~plan.masks[0].defined]))


# --- whole runs -----------------------------------------------------------------


def test_heat_run_matches_separation_of_variables():
    """u(t, x) = exp(-pi^2 t) sin(pi x): peak at t = 0.1 is 0.3727..."""
    field, report = run_scheme(heat_scenario())
    peak = np.nanmax(field.frames[-1])
    assert peak == pytest.approx(np.exp(-np.pi**2 * 0.1), abs=5e-3)
    assert report.total_newton() == 100  # one per substep, two slices of 50


def test_stamp_bookkeeping():
    field, _ = run_scheme(heat_scenario(n_slices=2, substeps=3))
    # 2 slices x (3 substeps + initial stamp) = 8 stamps; knot 0.05 twice
    assert field.n_stamps == 8
    assert np.all(np.diff(field.times) >= 0)
    assert np.count_nonzero(np.isclose(field.times, 0.05)) == 2
    assert field.slice_index.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_hold_semantics_right_continuous_at_knots():
    scen = heat_scenario(n_slices=2, substeps=3)
    field, _ = run_scheme(scen)
    i = field.hold_index(0.05)
    # the stamp owning t = 0.05 belongs to the second slice (post-transfer)
    assert field.slice_index[i] == 1
    assert field.times[i] == pytest.approx(0.05)
    # strictly inside a slice the latest earlier stamp holds
    j = field.hold_index(0.051)
    assert field.times[j] <= 0.051
    assert field.slice_index[j] == 1


def owning_slice_hold(field, t):
    """Reference hold rule, slice by slice: the latest stamp <= t inside the
    slice owning t (slices own [t_k, t_{k+1}); the last one also owns T)."""
    knots = field.plan.knots
    k = min(int(np.searchsorted(knots, t, side="right")) - 1, field.plan.n_slices - 1)
    idx = field.stamps_of_slice(k)
    j = int(np.searchsorted(field.times[idx], t, side="right")) - 1
    return int(idx[max(j, 0)])


@settings(max_examples=30, deadline=None)
@given(
    jumping=st.booleans(),
    n_slices=st.integers(1, 6),
    substeps=st.integers(1, 5),
    samples=st.lists(st.floats(0.0, 0.6), max_size=8),
)
def test_hold_index_matches_the_owning_slice_rule(jumping, n_slices, substeps, samples):
    dom = interval_domain("0", "1", 0.6, jumps=((0.3, "0", "1.5"),) if jumping else ())
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.125,), counts=(16,))
    scen = Scenario(
        grid=g, domain=dom, n_slices=n_slices, substeps=substeps,
        flux=FluxModel.linear_diffusion(dim=1),
        psi=parse_expr("0.1", TX),
        u0=parse_expr("sin(pi*x)", ("x",)),
    )
    field, _ = run_scheme(scen)
    probes = np.concatenate([field.plan.knots, field.times, samples])
    expected = [owning_slice_hold(field, float(t)) for t in probes]
    scalar = [field.hold_index(float(t)) for t in probes]
    assert scalar == expected
    assert all(type(i) is int for i in scalar)
    assert field.hold_index(probes).tolist() == expected
    for t, i in zip(probes, expected):
        assert np.array_equal(field.sample_extended(float(t)), field.extended_frame(i))
    for bad in (np.nan, -1e-9, 0.6 + 1e-9, np.array([0.1, np.nan])):
        with pytest.raises(DomainRangeError):
            field.hold_index(bad)


def test_extended_field_carries_boundary_datum_off_domain():
    scen = dataclasses.replace(heat_scenario(n_slices=1, substeps=2),
                               psi=parse_expr("0.3", TX))
    field, _ = run_scheme(scen)
    mask = field.mask_at(0)
    assert np.allclose(field.extended_frame(0)[~mask.active], 0.3)
    assert np.all(np.isfinite(field.extended_frame(0)))


@pytest.mark.parametrize("name", ["mms_moving", "cone_heat"])
def test_psi_is_bound_on_the_grid_nodes_once_per_field(bundle, name, monkeypatch):
    """Each stamp's extension equals psi evaluated unbound, bitwise, also
    where psi reads t (mms_moving); the binding happens once per field."""
    scenario, run_field, _ = bundle[name]
    field = dataclasses.replace(run_field)  # nothing derived yet
    binds = []

    def counting_bind(expr, env):
        binds.append(expr)
        return bind(expr, env)

    monkeypatch.setattr(stitcher, "bind", counting_bind)
    nodes = field.plan.masks[0].grid.node_coords()
    sup = 0.0
    for i in range(field.n_stamps):
        psi = eval_on_points(scenario.psi, float(field.times[i]), nodes)
        expected = np.where(field.mask_at(i).active, field.frames[i], psi.reshape(field.frames[i].shape))
        assert field.extended_frame(i).tobytes() == expected.tobytes()
        sup = max(sup, float(np.max(np.abs(psi))))
    assert field.psi_sup == sup
    assert binds == [scenario.psi]


def test_constant_data_survive_jumps():
    dom = interval_domain("0", "1", 0.6, jumps=((0.3, "0", "1.5"),))
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(32,))
    scen = Scenario(
        grid=g, domain=dom, n_slices=2, substeps=4,
        flux=FluxModel.p_laplacian(3.0, dim=1),
        psi=parse_expr("0.7", TX),
        u0=parse_expr("0.7", ("x",)),
    )
    field, _ = run_scheme(scen)
    for i in range(field.n_stamps):
        mask = field.mask_at(i)
        assert np.allclose(field.frames[i][mask.defined], 0.7, atol=1e-12)


def test_knot_traces_straddle_the_jump():
    dom = interval_domain("0", "1", 0.6, jumps=((0.3, "0", "1.5"),))
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(32,))
    scen = Scenario(
        grid=g, domain=dom, n_slices=2, substeps=4,
        flux=FluxModel.linear_diffusion(dim=1),
        psi=parse_expr("0.1", TX),
        u0=parse_expr("sin(pi*x)", ("x",)),
    )
    field, _ = run_scheme(scen)
    knots = field.plan.knots
    k = int(np.argmin(np.abs(np.asarray(knots) - 0.3)))
    before, after = knot_traces(field, k)
    prev_mask, next_mask = field.plan.masks[k - 1], field.plan.masks[k]
    fresh = next_mask.active & ~prev_mask.active
    kept = next_mask.active & prev_mask.active
    assert fresh.sum() > 0
    assert np.allclose(after[fresh], 0.1, atol=0)
    assert np.array_equal(after[kept], before[kept])


def test_knot_traces_index_bounds():
    field, _ = run_scheme(heat_scenario(n_slices=2, substeps=2))
    with pytest.raises(IndexError):
        knot_traces(field, 0)
    with pytest.raises(IndexError):
        knot_traces(field, 2)
    knot_traces(field, 1)


def test_runs_are_bitwise_deterministic():
    scen = heat_scenario(h=1 / 32, n_slices=2, substeps=10)
    field_a, _ = run_scheme(scen)
    field_b, _ = run_scheme(scen)
    assert len(field_a.frames) == len(field_b.frames)
    for fa, fb in zip(field_a.frames, field_b.frames):
        assert np.array_equal(fa, fb, equal_nan=True)
    for ea, eb in zip(field_a.extended, field_b.extended):
        assert np.array_equal(ea, eb)


@pytest.mark.parametrize(
    "change,issue",
    [
        ({"flux": FluxModel.p_laplacian(3.0, dim=2)}, "2D flux cannot run on a 1D grid"),
        ({"substeps": 0}, "substeps must be >= 1"),
        ({"n_slices": 0}, "slices must be >= 1"),
        ({"domain": TimeDomain.implicit(parse_expr("x^2 + y^2 - 0.25", ("t", "x", "y")),
                                        ((-1.0, 1.0), (-1.0, 1.0)), 0.1, dim=2)},
         "[domain] a 2D domain cannot run on a 1D grid"),
    ],
    ids=["2d_flux_on_1d_grid", "zero_substeps", "zero_slices", "2d_domain_on_1d_grid"],
)
def test_run_validates_a_scenario_built_in_code(change, issue):
    with pytest.raises(ScenarioError) as err:
        run_scheme(dataclasses.replace(heat_scenario(), **change))
    assert any(issue in s for s in err.value.issues)


def test_moving_domain_run_expands_active_set():
    dom = interval_domain("0", "1 + t/2", 0.5)
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(28,))
    scen = Scenario(
        grid=g, domain=dom, n_slices=4, substeps=5,
        flux=FluxModel.linear_diffusion(dim=1),
        psi=parse_expr("0", TX),
        u0=parse_expr("sin(pi*x)", ("x",)),
    )
    field, report = run_scheme(scen)
    first = field.mask_at(0).active_count
    last = field.mask_at(field.n_stamps - 1).active_count
    assert last > first
    assert len(report.slice_stats) == 4
    assert field.plan.delta == pytest.approx(0.125)


@pytest.mark.parametrize("part", ["grid", "domain", "flux"])
def test_a_scenario_built_in_code_requires_every_part(part):
    """A None part used to construct and then leak an AttributeError from run_scheme."""
    with pytest.raises(ScenarioError) as err:
        run_scheme(dataclasses.replace(heat_scenario(), **{part: None}))
    assert err.value.issues == [f"[{part}] {part} is required, got None"]
