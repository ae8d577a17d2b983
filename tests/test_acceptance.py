"""Acceptance suite: ten end-to-end criteria, one summary line each.

Every test asserts a hard property of the scheme at a fixed tolerance
and records a single PASS/FAIL line through the ``acceptance`` fixture;
the lines are replayed in the terminal summary after the run.
"""

import dataclasses

import numpy as np
import pytest

from helpers import disk_jump_text, interval_domain, one_shot
from slabflow import (
    FluxModel,
    Grid,
    Scenario,
    check_structure,
    energy_report,
    knot_traces,
    l1_contraction_report,
    max_principle_report,
    mms_report,
    parse_expr,
    parse_scenario_text,
    refinement_study,
    run_scheme,
)

X_ = ("x",)
TX = ("t", "x")
FLUX_VARS = ("t", "x", "y", "z", "xi1", "xi2")

# Domain character and gradient exponent of each bundled zero-source
# scenario; criterion 1 requires all four characters and p in {1.5, 2, 3}.
BUNDLE_KINDS = {
    "heat_fixed": "fixed",
    "plap3_fixed": "fixed",
    "zmod_fixed": "fixed",
    "heat_moving": "moving",
    "fast15_moving": "moving",
    "cone_heat": "moving",
    "disk2d": "moving",
    "jump_expand": "expanding-jump",
    "jump_contract": "contracting-jump",
}


def interval_scenario(u0, psi, flux, *, h, horizon, n_slices, substeps,
                      right="1", jumps=(), xmin=-0.125, xmax=1.125):
    grid = Grid(dim=1, origin=(xmin,), spacing=(h,), counts=(round((xmax - xmin) / h),))
    return Scenario(
        grid=grid, domain=interval_domain("0", right, horizon, jumps),
        n_slices=n_slices,
        substeps=substeps, flux=flux,
        psi=parse_expr(psi, TX), u0=parse_expr(u0, X_),
    )


# -- 1: maximum principle ---------------------------------------------------------


def test_criterion_01_maximum_principle(acceptance, zero_source_bundle):
    assert set(zero_source_bundle) == set(BUNDLE_KINDS)
    kinds = {BUNDLE_KINDS[name] for name in zero_source_bundle}
    assert kinds == {"fixed", "moving", "expanding-jump", "contracting-jump"}
    exponents = {triple[0].flux.p for triple in zero_source_bundle.values()}
    assert {1.5, 2.0, 3.0} <= exponents

    worst = np.inf
    for name, (scenario, field, _) in sorted(zero_source_bundle.items()):
        report = max_principle_report(scenario, field_=field)
        assert report.lhs <= report.rhs + 1e-10, f"{name}: {report.line()}"
        worst = min(worst, report.margin)
    acceptance(
        "criterion 1 (maximum principle)",
        worst >= -1e-10,
        f"sup|u| <= max(|u0|_inf, sup|psi|) + 1e-10 on {len(zero_source_bundle)} "
        f"zero-source scenarios (fixed/moving/expanding/contracting, "
        f"p in {sorted(exponents)}); worst margin={worst:.3e}",
    )


# -- 2: constant preservation -----------------------------------------------------


def test_criterion_02_constant_preservation(acceptance):
    c = 0.7
    fluxes = {
        "linear_diffusion": FluxModel.linear_diffusion(dim=1),
        "p_laplacian(1.5)": FluxModel.p_laplacian(1.5, dim=1),
        "p_laplacian(3)": FluxModel.p_laplacian(3.0, dim=1),
        "z_modulated(2)": FluxModel.z_modulated(2.0, dim=1),
    }
    worst = 0.0
    for label, flux in fluxes.items():
        scenario = interval_scenario(
            "0.7", "0.7", flux, h=1 / 16, horizon=0.6, n_slices=3, substeps=8,
            jumps=((0.2, "0", "1.5"), (0.4, "0.25", "1.25")),
            xmin=-0.25, xmax=1.75,
        )
        field, _ = run_scheme(scenario)
        for i in range(field.n_stamps):
            defined = field.mask_at(i).defined
            dev = float(np.max(np.abs(field.frames[i][defined] - c)))
            dev = max(dev, float(np.max(np.abs(field.extended_frame(i) - c))))
            worst = max(worst, dev)
            assert dev <= 1e-10, f"{label}: deviation {dev:.3e} at stamp {i}"
    acceptance(
        "criterion 2 (constant preservation)",
        worst <= 1e-10,
        f"u0 = psi = {c} on an expand+contract jumping domain stays constant "
        f"across {len(fluxes)} builtin fluxes; worst deviation={worst:.3e} (tol 1e-10)",
    )


# -- 3: analytic heat oracle ------------------------------------------------------


def heat_oracle_error(h, substeps):
    scenario = interval_scenario(
        "sin(pi*x)", "0", FluxModel.linear_diffusion(dim=1),
        h=h, horizon=0.1, n_slices=1, substeps=substeps,
    )
    field, _ = run_scheme(scenario)
    mask = field.plan.masks[-1]
    x = mask.active_points()[:, 0]
    exact = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * x)
    return float(np.max(np.abs(field.frames[-1][mask.active] - exact)))


def test_criterion_03_heat_oracle(acceptance):
    err_coarse = heat_oracle_error(h=1 / 128, substeps=1000)   # tau = 1e-4
    err_fine = heat_oracle_error(h=1 / 256, substeps=4000)     # tau = 2.5e-5
    factor = err_coarse / err_fine
    acceptance(
        "criterion 3 (heat oracle)",
        err_coarse <= 5e-3 and factor >= 3.2,
        f"p=2, h=1/128, tau=1e-4 vs exp(-pi^2 t) sin(pi x) at t=0.1: "
        f"Linf error={err_coarse:.3e} (<= 5e-3); halving h, quartering tau "
        f"shrinks it by {factor:.3f}x (>= 3.2)",
    )


# -- 4: discrete L1 contraction ---------------------------------------------------


def test_criterion_04_l1_contraction(acceptance, bundle):
    scenario = bundle["heat_moving"][0]
    report = l1_contraction_report(scenario, scenario.u0, parse_expr("0", X_))
    max_increase = report.details["max_increase"]
    ok = (
        report.details["nonincreasing"]
        and max_increase <= 1e-10
        and report.lhs <= report.rhs + 1e-10
    )
    acceptance(
        "criterion 4 (L1 contraction)",
        ok,
        f"moving-interval heat, two initial data: L1 distance series "
        f"nonincreasing (max increase={max_increase:.3e}, tol 1e-10), "
        f"final={report.lhs:.6e} <= initial={report.rhs:.6e}",
    )


# -- 5: energy inequality ---------------------------------------------------------


def test_criterion_05_energy_inequality(acceptance, zero_source_bundle):
    worst = np.inf
    for name, (scenario, field, _) in sorted(zero_source_bundle.items()):
        assert scenario.flux.kind != "custom"
        report = energy_report(scenario, field_=field)
        assert report.passed, f"{name}: {report.line()}"
        worst = min(worst, report.margin)
    acceptance(
        "criterion 5 (energy inequality)",
        worst >= -1e-10,
        f"per-slice telescoped bound holds on all {len(zero_source_bundle)} "
        f"zero-source builtin-flux scenarios; smallest global margin={worst:.3e}",
    )


# -- 6 and 7: refinement ----------------------------------------------------------


def test_criterion_06_slab_hausdorff(acceptance, cone_study):
    lipschitz = 1.0  # right boundary of the cone domain moves at speed 1
    bound = 1.0 + lipschitz
    levels = cone_study.levels
    rel = [lv["hausdorff"] / lv["delta"] for lv in levels]
    ratios = [
        levels[i + 1]["hausdorff"] / levels[i]["hausdorff"]
        for i in range(len(levels) - 1)
    ]
    ok = all(r <= bound for r in rel) and all(0.4 <= q <= 0.6 for q in ratios)
    acceptance(
        "criterion 6 (slab Hausdorff)",
        ok,
        f"cone domain (0, 1+t): d_H/Delta max={max(rel):.3f} (<= {bound}); "
        f"per-level ratios {[round(q, 3) for q in ratios]} within [0.4, 0.6] "
        f"over {len(levels)} levels",
    )


def test_criterion_07_l1_cauchy(acceptance, cone_study):
    gaps = cone_study.gaps
    assert len(gaps) >= 3
    ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1)]
    ok = all(q <= 0.7 for q in ratios)
    acceptance(
        "criterion 7 (L1 Cauchy refinement)",
        ok,
        f"cone heat: consecutive L1(Q_T) gaps {[f'{g:.3e}' for g in gaps]} "
        f"decay with ratios {[round(q, 3) for q in ratios]} (<= 0.7)",
    )


@pytest.mark.parametrize("name", ["jump_expand", "jump_contract", "disk2d", "disk2d_jump"])
def test_l1_cauchy_refinement_across_jumps_and_in_2d(bundle, name):
    """Criterion 7's bound where the paper makes its claim beyond the cone:
    across jumps in time, and in 2D (the disk's second level did not plan
    while 2D sections had to pass a 2x2 block cover test), also across a
    2D jump (the disk's radius 0.5 -> 0.8 at t = 0.5)."""
    if name == "disk2d_jump":
        scenario = parse_scenario_text(disk_jump_text(0.5, 0.8))
    else:
        scenario = bundle[name][0]
    gaps = refinement_study(scenario, levels=4).gaps
    ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1)]
    assert all(q <= 0.7 for q in ratios), f"{name}: gaps {gaps}, ratios {ratios}"


# -- 8: jump trace conditions -----------------------------------------------------


def _jump_knot(field, t_jump):
    hits = np.flatnonzero(np.isclose(field.plan.knots, t_jump))
    assert hits.size == 1
    return int(hits[0])


def test_criterion_08_jump_traces(acceptance, bundle):
    # Expansion: the fresh region starts from the boundary datum, the
    # surviving region is copied; both exact, node by node.
    scenario, field, _ = bundle["jump_expand"]
    k = _jump_knot(field, 0.3)
    before, after = knot_traces(field, k)
    prev, nxt = field.plan.masks[k - 1], field.plan.masks[k]
    fresh = nxt.active & ~prev.active
    kept = nxt.active & prev.active
    t_k = float(field.plan.knots[k])
    grid = scenario.grid
    psi = one_shot(scenario.psi, t_k, grid.node_coords()).reshape(nxt.active.shape)
    assert fresh.sum() > 0
    expansion_ok = np.array_equal(after[fresh], psi[fresh]) and np.array_equal(
        after[kept], before[kept]
    )

    # Contraction: the new frame is the restriction of the previous trace.
    _, field_c, _ = bundle["jump_contract"]
    k = _jump_knot(field_c, 0.3)
    before, after = knot_traces(field_c, k)
    prev, nxt = field_c.plan.masks[k - 1], field_c.plan.masks[k]
    assert not np.any(nxt.active & ~prev.active)
    assert prev.active.sum() > nxt.active.sum()
    contraction_ok = np.array_equal(after[nxt.active], before[nxt.active])

    acceptance(
        "criterion 8 (jump traces)",
        expansion_ok and contraction_ok,
        f"expansion at t=0.3: {int(fresh.sum())} fresh nodes equal psi(t_k) "
        f"exactly, survivors copied; contraction at t=0.3: new frame equals "
        f"the previous trace restricted, nodewise",
    )


@pytest.mark.parametrize("radii", [(0.5, 0.8), (0.8, 0.5)], ids=["expand", "contract"])
def test_2d_jumps_meet_criteria_1_2_5_and_8(radii):
    """The disk2d grid with the radius jumping at t = 0.5 and psi = 0.3:
    fresh nodes start from psi exactly, survivors are copied bitwise, the
    maximum principle and the energy bound hold, and u0 = psi = 0.7 stays
    constant across the jump."""
    scenario = parse_scenario_text(disk_jump_text(*radii))
    field, _ = run_scheme(scenario)
    k = _jump_knot(field, 0.5)
    before, after = knot_traces(field, k)
    prev, nxt = field.plan.masks[k - 1], field.plan.masks[k]
    fresh, kept = nxt.active & ~prev.active, nxt.active & prev.active
    assert fresh.any() == (radii[1] > radii[0])
    assert np.all(after[fresh] == 0.3)
    assert after[kept].tobytes() == before[kept].tobytes()
    assert max_principle_report(scenario, field_=field).passed
    assert energy_report(scenario, field_=field).passed

    constant = parse_scenario_text(disk_jump_text(*radii, u0="0.7", psi="0.7"))
    field_c, _ = run_scheme(constant)
    for i in range(field_c.n_stamps):
        defined = field_c.mask_at(i).defined
        assert np.max(np.abs(field_c.frames[i][defined] - 0.7)) <= 1e-10
        assert np.max(np.abs(field_c.extended_frame(i) - 0.7)) <= 1e-10


# -- 9: structure checks ----------------------------------------------------------


def test_criterion_09_structure_checks(acceptance):
    good = {
        "p_laplacian(1.5)": FluxModel.p_laplacian(1.5, dim=1),
        "p_laplacian(2)": FluxModel.p_laplacian(2.0, dim=1),
        "p_laplacian(3)": FluxModel.p_laplacian(3.0, dim=1),
        "p_laplacian(4)": FluxModel.p_laplacian(4.0, dim=1),
        "z_modulated(2)": FluxModel.z_modulated(2.0, dim=1),
    }
    worst = np.inf
    for label, flux in good.items():
        report = check_structure(flux, samples=10000, seed=0)
        assert report.passed, f"{label} failed: {report.summary_lines()}"
        worst = min(worst, min(c.margin for c in report.conditions.values()))
    assert worst >= -1e-12  # nonnegative up to float roundoff

    adversarial = FluxModel.custom(
        [parse_expr("-xi1", FLUX_VARS)], p=2.0, dim=1,
        growth_c=1.0, coercivity_alpha=1.0,
    )
    adv = check_structure(adversarial, samples=10000, seed=0)
    adv_ok = (
        not adv.conditions["coercivity"].passed
        and not adv.conditions["monotonicity"].passed
        and adv.conditions["growth"].passed
    )
    acceptance(
        "criterion 9 (structure checks)",
        worst >= -1e-12 and adv_ok,
        f"p-Laplacian p in {{1.5,2,3,4}} and z_modulated pass 10^4 seeded "
        f"samples (worst margin={worst:.1e}); adversarial A=-xi fails "
        f"coercivity ({adv.conditions['coercivity'].margin:.2e}) and "
        f"monotonicity ({adv.conditions['monotonicity'].margin:.2e})",
    )


# -- 10: manufactured solutions ---------------------------------------------------


def test_criterion_10_manufactured_order(acceptance, bundle):
    fixed = mms_report(bundle["mms_fixed"][0], parse_expr("exp(-t)*sin(pi*x)", TX))
    moving = mms_report(
        bundle["mms_moving"][0], parse_expr("exp(-t)*x*(1 + t/2 - x)", TX)
    )
    moving_spatial = min(moving.spatial_order_linf, moving.spatial_order_l1)
    fixed_spatial = min(fixed.spatial_order_linf, fixed.spatial_order_l1)
    ok = (
        moving_spatial >= 1.0
        and moving.temporal_order >= 1.0
        and fixed_spatial >= 1.9
    )
    acceptance(
        "criterion 10 (manufactured order)",
        ok,
        f"moving domain: spatial order {moving_spatial:.2f} (>= 1), temporal "
        f"{moving.temporal_order:.2f} (>= 1); fixed domain: spatial "
        f"{fixed_spatial:.2f} (>= 1.9)",
    )


def test_manufactured_order_on_the_shrinking_disk(bundle):
    """Criterion 10's fixed-domain bound in 2D: u = exp(-t) sin(pi x) sin(pi y)
    on the bundled disk, linear diffusion, psi = u, f = (2 pi^2 - 1) u."""
    txy = ("t", "x", "y")
    u = "exp(-t)*sin(pi*x)*sin(pi*y)"
    scenario = dataclasses.replace(
        bundle["disk2d"][0], u0=parse_expr("sin(pi*x)*sin(pi*y)", ("x", "y")),
        psi=parse_expr(u, txy), source=parse_expr(f"(2*pi^2 - 1)*{u}", txy))
    report = mms_report(scenario, parse_expr(u, txy))
    assert min(report.spatial_order_linf, report.spatial_order_l1) >= 1.9, report
    assert report.temporal_order >= 1.0, report
