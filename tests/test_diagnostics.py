"""Verification reports: bounds, contraction, refinement, manufactured order."""

import dataclasses

import numpy as np
import pytest

from helpers import interval_domain
from slabflow import diagnostics, stitcher
from slabflow import (
    FluxModel,
    Grid,
    InapplicableDiagnosticError,
    Scenario,
    SlabflowError,
    SpaceTimeField,
    bundled_scenario_paths,
    energy_report,
    l1_contraction_report,
    load_scenario,
    max_principle_report,
    mms_report,
    node_gradients,
    parse_expr,
    rasterize,
    refinement_study,
    run_scheme,
    IntervalRegion,
)

TX = ("t", "x")
X_ = ("x",)


def make_scenario(u0="sin(pi*x)", psi="0", flux=None, h=1 / 32, horizon=0.1,
                  n_slices=2, substeps=20, right="1", jumps=(), source="0",
                  xmin=-0.125, xmax=1.125):
    dom = interval_domain("0", right, horizon, jumps)
    counts = round((xmax - xmin) / h)
    g = Grid(dim=1, origin=(xmin,), spacing=(h,), counts=(counts,))
    return Scenario(
        grid=g, domain=dom, n_slices=n_slices, substeps=substeps,
        flux=flux or FluxModel.linear_diffusion(dim=1),
        psi=parse_expr(psi, TX),
        u0=parse_expr(u0, X_),
        source=parse_expr(source, TX),
    )


# --- gradients -----------------------------------------------------------------


def test_node_gradients_exact_for_quadratic():
    g = Grid(dim=1, origin=(-0.25,), spacing=(0.0625,), counts=(24,))
    mask = rasterize(IntervalRegion(((0.0, 1.0),)), g)
    x = g.node_coords().ravel()
    frame = np.where(mask.defined.ravel(), x**2, np.nan).reshape(mask.active.shape)
    grads = node_gradients(frame, mask)
    assert grads.shape == (mask.active_count, 1)
    assert np.allclose(grads.ravel(), 2 * x[mask.active.ravel()], atol=1e-13)


# --- maximum principle -----------------------------------------------------------


def test_max_principle_holds_for_heat():
    report = max_principle_report(make_scenario())
    assert report.passed
    assert report.lhs <= report.rhs + 1e-12
    assert report.rhs == pytest.approx(1.0)
    assert "max_principle" in report.line()


def test_max_principle_detects_injected_spike():
    scen = make_scenario()
    field, _ = run_scheme(scen)
    mask = field.mask_at(3)
    field.frames[3][mask.active] += 3.0
    report = max_principle_report(scen, field_=field)
    assert not report.passed
    assert report.margin < -0.5
    assert report.line().startswith("FAIL")


def test_max_principle_needs_zero_source():
    """The bump vanishes at every knot and slice midpoint, yet moves the frames."""
    for source in ("1", "1000*max(0, 0.01 - abs(t - 0.0125))"):
        with pytest.raises(InapplicableDiagnosticError):
            max_principle_report(make_scenario(source=source))


# --- energy inequality ------------------------------------------------------------


def test_energy_margin_zero_for_constant_solution():
    scen = make_scenario(u0="0.7", psi="0.7")
    report = energy_report(scen)
    assert report.passed
    assert report.lhs == pytest.approx(0.0, abs=1e-20)
    assert report.margin == pytest.approx(0.0, abs=1e-15)


def test_energy_report_matches_independent_accounting():
    """Recompute the slice-0 sides from the raw frames with a separate
    quadrature implementation and compare."""
    scen = make_scenario()
    field, _ = run_scheme(scen)
    report = energy_report(scen, field_=field)
    assert report.passed

    plan = field.plan
    mask = plan.masks[0]
    grid = scen.grid
    vol = grid.cell_volume
    idx = field.stamps_of_slice(0)
    tau = float(field.times[idx[1]] - field.times[idx[0]])
    # psi = 0 here, so ||u - psi||^2 reduces to the plain L2 norm
    start = 0.5 * vol * float(np.sum(field.frames[idx[0]][mask.active] ** 2))
    end = 0.5 * vol * float(np.sum(field.frames[idx[-1]][mask.active] ** 2))
    grad_term = 0.0
    for i in idx[1:]:
        grads = node_gradients(field.frames[i], mask)
        grad_term += tau * vol * float(np.sum(np.abs(grads.ravel()) ** 2))
    first = report.details["per_slice"][0]
    assert first["lhs"] == pytest.approx(end + 0.5 * 1.0 * grad_term, rel=1e-12)
    assert first["rhs"] == pytest.approx(start, rel=1e-12)
    assert first["lhs"] <= first["rhs"] + 1e-12


def test_energy_fails_on_corrupted_run():
    scen = make_scenario()
    field, _ = run_scheme(scen)
    last = field.stamps_of_slice(field.plan.n_slices - 1)[-1]
    mask = field.mask_at(int(last))
    field.frames[int(last)][mask.active] += 5.0
    report = energy_report(scen, field_=field)
    assert not report.passed


def test_energy_holds_across_jumps():
    scen = make_scenario(right="1", horizon=0.6, jumps=((0.3, "0", "1.5"),),
                         h=1 / 16, n_slices=4, substeps=10, psi="0.1",
                         xmin=-0.25, xmax=1.75)
    report = energy_report(scen)
    assert report.passed
    drops = report.details["transfer_drops"]
    assert len(drops) == report.details["n_slices"] - 1 if "n_slices" in report.details else True
    assert report.details["global_lhs"] <= report.details["global_rhs"] + 1e-10


def test_energy_needs_zero_source():
    with pytest.raises(InapplicableDiagnosticError):
        energy_report(make_scenario(source="sin(pi*x)"))


def test_bound_reports_evaluate_sup_psi_once_per_field(monkeypatch):
    scenario = load_scenario(bundled_scenario_paths()["heat_fixed"])
    field, _ = run_scheme(scenario)
    full_grid = []
    values = stitcher.eval_on_points

    def counting_values(expr, t, points):
        if len(points) == scenario.grid.n_nodes:
            full_grid.append(t)
        return values(expr, t, points)

    monkeypatch.setattr(stitcher, "eval_on_points", counting_values)
    assert max_principle_report(scenario, field_=field).passed
    assert energy_report(scenario, field_=field).passed
    assert len(full_grid) == len(np.unique(field.times)) == 41


# --- L1 contraction ---------------------------------------------------------------


def test_l1_distance_tracks_heat_decay():
    """For two sine data the gap is a pure mode: it decays by exactly
    exp(-pi^2 T) in the continuum; the discrete run stays within 5%."""
    scen = make_scenario()
    u0b = parse_expr("0.5*sin(pi*x)", X_)
    report = l1_contraction_report(scen, scen.u0, u0b)
    assert report.passed
    assert report.details["nonincreasing"]
    ratio = report.lhs / report.rhs
    assert ratio == pytest.approx(np.exp(-np.pi**2 * 0.1), rel=0.05)


def test_l1_contraction_on_moving_domain():
    scen = make_scenario(right="1 + t/2", horizon=0.5, h=1 / 16, n_slices=4, substeps=10,
                         xmin=-0.25, xmax=1.5)
    report = l1_contraction_report(scen, scen.u0, parse_expr("x*(1 - x)", X_))
    assert report.passed
    assert report.details["max_increase"] <= 1e-10
    assert report.lhs <= report.rhs


def test_l1_contraction_reuses_a_given_run(monkeypatch):
    """A run from u0_a is reused with its plan: one run fewer, the same
    series bit for bit, and a source is still rejected before any run."""
    scen = make_scenario(right="1 + t/2", horizon=0.5, h=1 / 16, n_slices=4, substeps=10,
                         xmin=-0.25, xmax=1.5)
    u0b = parse_expr("x*(1 - x)", X_)
    fresh = l1_contraction_report(scen, scen.u0, u0b)
    field_a, _ = run_scheme(scen)
    runs = []
    monkeypatch.setattr(diagnostics, "run_scheme", lambda *a, **kw: runs.append(a) or run_scheme(*a, **kw))
    reused = l1_contraction_report(scen, scen.u0, u0b, field_a)
    assert len(runs) == 1
    assert reused.details["series"].tobytes() == fresh.details["series"].tobytes()
    sourced = make_scenario(source="1")
    with pytest.raises(InapplicableDiagnosticError):
        l1_contraction_report(sourced, sourced.u0, u0b, run_scheme(sourced)[0])
    assert len(runs) == 1


def test_l1_contraction_rejects_solution_dependent_flux():
    scen = make_scenario(flux=FluxModel.z_modulated(2.0, dim=1))
    with pytest.raises(InapplicableDiagnosticError):
        l1_contraction_report(scen, scen.u0, parse_expr("0", X_))


def test_l1_contraction_rejects_a_custom_flux_reading_z():
    vars_ = ("t", "x", "y", "z", "xi1", "xi2")
    reads_z = FluxModel.custom([parse_expr("(1 + 0*z)*xi1", vars_)], p=2.0)
    scen = make_scenario(flux=reads_z)
    with pytest.raises(InapplicableDiagnosticError):
        l1_contraction_report(scen, scen.u0, parse_expr("0", X_))
    free = make_scenario(flux=FluxModel.custom([parse_expr("xi1", vars_)], p=2.0))
    assert l1_contraction_report(free, free.u0, parse_expr("0", X_)).passed


def test_l1_contraction_rejects_sources():
    scen = make_scenario(source="1")
    with pytest.raises(InapplicableDiagnosticError):
        l1_contraction_report(scen, scen.u0, parse_expr("0", X_))


@pytest.mark.parametrize(
    "report",
    [
        lambda scen: l1_contraction_report(scen, scen.u0, parse_expr("0", X_)),
        max_principle_report,
        energy_report,
    ],
    ids=["l1_contraction", "max_principle", "energy"],
)
def test_sourced_scenario_is_rejected_before_any_run(report, monkeypatch):
    runs = []

    def counting_run_scheme(*args, **kwargs):
        runs.append(args)
        return run_scheme(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "run_scheme", counting_run_scheme)
    scen = load_scenario(bundled_scenario_paths()["mms_fixed"])
    with pytest.raises(InapplicableDiagnosticError):
        report(scen)
    assert runs == []


# --- refinement study ---------------------------------------------------------------


def test_refinement_gaps_vanish_for_constant_solution():
    scen = make_scenario(u0="0.7", psi="0.7", n_slices=2, substeps=2)
    study = refinement_study(scen, levels=3)
    assert all(gap == pytest.approx(0.0, abs=1e-14) for gap in study.gaps)


def test_refinement_study_on_expanding_cone():
    scen = make_scenario(right="1 + t", horizon=0.5, h=1 / 16, n_slices=2, substeps=2,
                         xmin=-0.25, xmax=1.75)
    study = refinement_study(scen, levels=3)
    assert len(study.levels) == 3
    assert len(study.gaps) == 2
    # first-order scheme: gaps shrink by roughly half, certainly below 0.7
    assert study.gaps[1] <= 0.7 * study.gaps[0]
    deltas = [lv["delta"] for lv in study.levels]
    hds = [lv["hausdorff"] for lv in study.levels]
    for delta, hd in zip(deltas, hds):
        assert hd <= 2 * delta + 1e-9
    assert hds[1] <= 0.7 * hds[0]
    lines = study.summary_lines()
    assert len(lines) >= 3


def test_refinement_study_derives_each_stamp_extension_once(monkeypatch):
    fields, derived = [], []
    extended_frame = SpaceTimeField.extended_frame

    def counting_extended_frame(self, i):
        derived.append(i)
        return extended_frame(self, i)

    def recording_run_scheme(*args, **kwargs):
        fields.append(run_scheme(*args, **kwargs)[0])
        return fields[-1], None

    monkeypatch.setattr(SpaceTimeField, "extended_frame", counting_extended_frame)
    monkeypatch.setattr(diagnostics, "run_scheme", recording_run_scheme)
    scen = make_scenario(right="1 + t", horizon=0.5, h=1 / 16, n_slices=2, substeps=2,
                         xmin=-0.25, xmax=1.75)
    refinement_study(scen, levels=4)
    assert len(fields) == 4
    assert len(derived) == sum(f.n_stamps for f in fields)


def test_refinement_needs_two_levels():
    with pytest.raises(SlabflowError):
        refinement_study(make_scenario(), levels=1)


# --- manufactured solutions -----------------------------------------------------------


def test_mms_exact_constant_gives_zero_error():
    scen = make_scenario(u0="0.7", psi="0.7", n_slices=2, substeps=2)
    report = mms_report(scen, parse_expr("0.7", TX))
    assert report.linf_error == pytest.approx(0.0, abs=1e-14)
    assert report.l1_error == pytest.approx(0.0, abs=1e-14)


def test_mms_measures_second_order_in_space():
    scen = make_scenario(h=1 / 16, n_slices=1, substeps=400,
                         source="(pi^2 - 1)*exp(-t)*sin(pi*x)")
    exact = parse_expr("exp(-t)*sin(pi*x)", TX)
    report = mms_report(scen, exact)
    assert report.spatial_order_linf == pytest.approx(2.0, abs=0.15)
    assert report.temporal_order >= 0.8
    lines = report.summary_lines()
    assert any("spatial" in line for line in lines)
