"""Discrete counterparts of the scheme's a-priori estimates.

Each report states an inequality the discrete solution is expected to
satisfy, evaluates both sides by node-value x cell-volume quadrature
(previous-frame hold for data integrals in time) and records the margin.
Suprema of the data are estimated on grid nodes and substep times.

These are diagnostics, not proofs: they sample; a pass means the bound
held at the resolution run.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InapplicableDiagnosticError, SlabflowError
from .expressions import evaluate as eval_expr, free_variables
from .flux import FD_STEP
from .geometry import along, build_slice_plan, slab_hausdorff
from .slice_solver import eval_on_points
from .stitcher import run_scheme

TOLERANCE = 1e-10  # roundoff slack of every report's lhs <= rhs
REFERENCE_SUBSTEP_FACTOR = 16  # substeps of mms_report's temporal reference run per base substep


@dataclass(frozen=True)
class EstimateReport:
    """One checked inequality lhs <= rhs (+ TOLERANCE)."""

    name: str
    lhs: float
    rhs: float
    details: dict = field(default_factory=dict, compare=False)

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.margin >= -TOLERANCE

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: lhs={self.lhs:.12e} rhs={self.rhs:.12e} "
            f"margin={self.margin:.3e}"
        )


# ---------------------------------------------------------------------------
# helpers


def _u0_max(field_):
    mask0 = field_.plan.masks[0]
    return float(np.max(np.abs(field_.frames[0][mask0.active])))


def node_gradients(frame, mask):
    """Central-difference gradient at the active nodes, shape (n_act, dim).

    Active nodes have all axis neighbours defined, so this never reads NaN.
    """
    cols = []
    for a, h in enumerate(mask.grid.spacing):
        g = (frame[along(a, slice(2, None))] - frame[along(a, slice(None, -2))]) / (2.0 * h)
        cols.append(g[mask.active[along(a, slice(1, -1))]])
    return np.column_stack(cols)


def _time_derivative(psi, t, points):
    dt = FD_STEP * (1.0 + abs(t))
    return (eval_on_points(psi, t + dt, points) - eval_on_points(psi, t - dt, points)) / (2.0 * dt)


def _gradient(psi, t, points):
    """Central differences of psi along each axis at (n, dim) points, shape (n, dim)."""
    dim = points.shape[1]
    out = np.empty_like(points)
    for a in range(dim):
        step = FD_STEP * (1.0 + np.abs(points[:, a]).max(initial=0.0))
        hi = points.copy()
        hi[:, a] += step
        lo = points.copy()
        lo[:, a] -= step
        out[:, a] = (eval_on_points(psi, t, hi) - eval_on_points(psi, t, lo)) / (2.0 * step)
    return out


def _source_free_field(scenario, field_, what):
    """``field_``, or a fresh run when it is None, of a source-free scenario:
    one whose source reads no variable and evaluates to 0.  Any other source
    is refused before a run."""
    source = scenario.source
    if free_variables(source) or eval_expr(source, {}) != 0.0:
        raise InapplicableDiagnosticError(f"{what} needs a source-free scenario, got source {source}")
    return run_scheme(scenario)[0] if field_ is None else field_


# ---------------------------------------------------------------------------
# maximum principle


def max_principle_report(scenario, field_=None):
    """sup |u| <= max(sup |u0|, sup |psi|) for source-free runs."""
    field_ = _source_free_field(scenario, field_, "max_principle_report")
    lhs = 0.0
    worst_stamp = 0
    for i in range(field_.n_stamps):
        act = field_.mask_at(i).active
        m = float(np.max(np.abs(field_.frames[i][act])))
        if m > lhs:
            lhs, worst_stamp = m, i
    u0m, psim = _u0_max(field_), field_.psi_sup
    return EstimateReport(
        name="max_principle",
        lhs=lhs,
        rhs=max(u0m, psim),
        details={
            "u0_max": u0m,
            "psi_sup": psim,
            "worst_stamp": worst_stamp,
            "worst_time": float(field_.times[worst_stamp]),
        },
    )


# ---------------------------------------------------------------------------
# energy inequality


def energy_report(scenario, field_=None):
    """Per-slice telescoped energy inequality.

    With v = u - psi, alpha/c/b/d the flux constants and
    K = (1/p) * (1 + c * (2c / (alpha p'))^(p/p')):

        1/2 ||v(end)||_2^2 + (alpha/2) sum_m tau sum_nodes h^d |grad u|^p
        <= 1/2 ||v(start)||_2^2 + 2 Cbar iint |psi_t| + K iint |grad psi|^p
           + (1/p') b^(p') |slab| + d |slab|

    where Cbar = max(sup|u0|, sup|psi|).  The u-gradient is summed over
    substep right endpoints (mirroring the implicit dissipation identity);
    data integrals use left-endpoint hold.  The report's lhs/rhs are the
    worst slice's; the summed global bound sits in the details.
    """
    field_ = _source_free_field(scenario, field_, "energy_report")
    flux = scenario.flux
    p = flux.p
    pprime = p / (p - 1.0)
    c, alpha = flux.growth_c, flux.coercivity_alpha
    b, d = flux.lower_b, flux.lower_d
    kpsi = (1.0 / p) * (1.0 + c * (2.0 * c / (alpha * pprime)) ** (p / pprime))
    cbar = max(_u0_max(field_), field_.psi_sup)
    vol = scenario.grid.cell_volume
    plan = field_.plan

    per_slice = []
    grad_total = 0.0
    for k in range(plan.n_slices):
        idx = field_.stamps_of_slice(k)
        ts = field_.times[idx]
        tau = float(ts[1] - ts[0])
        mask = plan.masks[k]
        act = mask.active
        pts = mask.active_points()

        def l2_half(i, t):
            v = field_.frames[i][act] - eval_on_points(scenario.psi, t, pts)
            return 0.5 * vol * float(np.sum(v * v))

        start = l2_half(idx[0], float(ts[0]))
        end = l2_half(idx[-1], float(ts[-1]))
        grad_term = 0.0
        for i in idx[1:]:
            g = node_gradients(field_.frames[i], mask)
            grad_term += tau * vol * float(np.sum(np.linalg.norm(g, axis=1) ** p))
        psit_term = 0.0
        gpsi_term = 0.0
        for m in range(len(idx) - 1):
            t = float(ts[m])
            psit_term += tau * vol * float(np.sum(np.abs(_time_derivative(scenario.psi, t, pts))))
            gp = _gradient(scenario.psi, t, pts)
            gpsi_term += tau * vol * float(np.sum(np.linalg.norm(gp, axis=1) ** p))
        volume_k = (float(ts[-1]) - float(ts[0])) * vol * mask.active_count
        lhs_k = end + 0.5 * alpha * grad_term
        rhs_k = (
            start
            + 2.0 * cbar * psit_term
            + kpsi * gpsi_term
            + (1.0 / pprime) * b**pprime * volume_k
            + d * volume_k
        )
        grad_total += grad_term
        per_slice.append(
            {
                "slice": k,
                "lhs": lhs_k,
                "rhs": rhs_k,
                "margin": rhs_k - lhs_k,
                "start_l2": start,
                "end_l2": end,
            }
        )

    drops = []
    for k in range(1, plan.n_slices):
        drops.append(per_slice[k - 1]["end_l2"] - per_slice[k]["start_l2"])

    worst = min(per_slice, key=lambda s: s["margin"])
    global_lhs = per_slice[-1]["end_l2"] + 0.5 * alpha * grad_total
    global_rhs = per_slice[0]["start_l2"] + sum(
        s["rhs"] - s["start_l2"] for s in per_slice
    )
    return EstimateReport(
        name="energy",
        lhs=worst["lhs"],
        rhs=worst["rhs"],
        details={
            "per_slice": per_slice,
            "worst_slice": worst["slice"],
            "transfer_drops": drops,
            "global_lhs": global_lhs,
            "global_rhs": global_rhs,
            "global_margin": global_rhs - global_lhs,
            "cbar": cbar,
            "grad_psi_coefficient": kpsi,
        },
    )


# ---------------------------------------------------------------------------
# L1 contraction


def l1_contraction_report(scenario, u0_a, u0_b, field_=None):
    """Run the scheme with each initial datum swapped in (``field_``, when
    given, is the run from ``u0_a``, and its plan is reused) and track the
    L1 distance of the two solutions over their shared active sets."""
    flux = scenario.flux
    if flux.kind == "z_modulated" or (
        flux.kind == "custom" and any("z" in free_variables(comp) for comp in flux.components)
    ):
        raise InapplicableDiagnosticError(
            "l1_contraction_report needs a flux independent of the solution slot"
        )
    field_a = _source_free_field(replace(scenario, u0=u0_a), field_, "l1_contraction_report")
    field_b, _ = run_scheme(replace(scenario, u0=u0_b), plan=field_a.plan)
    vol = scenario.grid.cell_volume
    series = []
    for i in range(field_a.n_stamps):
        act = field_a.mask_at(i).active
        series.append(vol * float(np.sum(np.abs(field_a.frames[i][act] - field_b.frames[i][act]))))
    series = np.array(series)
    increases = np.diff(series)
    max_increase = float(np.max(increases, initial=0.0))
    return EstimateReport(
        name="l1_contraction",
        lhs=float(series[-1]),
        rhs=float(series[0]),
        details={
            "series": series,
            "times": field_a.times.copy(),
            "nonincreasing": bool(max_increase <= TOLERANCE),
            "max_increase": max_increase,
        },
    )


# ---------------------------------------------------------------------------
# slicing refinement (Cauchy) study


@dataclass(frozen=True)
class RefinementStudy:
    levels: tuple  # dicts: n_slices, substeps, delta, hausdorff
    gaps: tuple  # L1(Q_T) distance between consecutive levels' extensions

    def summary_lines(self):
        lines = []
        for i, lv in enumerate(self.levels):
            gap = f" gap_to_next={self.gaps[i]:.6e}" if i < len(self.gaps) else ""
            lines.append(
                f"level {i}: slices={lv['n_slices']:4d} substeps={lv['substeps']:4d} "
                f"delta={lv['delta']:.6e} hausdorff={lv['hausdorff']:.6e}{gap}"
            )
        return lines


def _hold_l1_distance(fa, ext_a, fb, ext_b, horizon, vol):
    """L1(Q_T) distance of two runs' extension stacks under piecewise hold."""
    cuts = np.unique(np.concatenate([fa.times, fb.times, [horizon]]))
    lengths = np.diff(cuts)
    left = cuts[:-1]
    diffs = np.abs(ext_a[fa.hold_index(left)] - ext_b[fb.hold_index(left)])
    per_cut = diffs.reshape(len(left), -1).sum(axis=1) * vol
    return float(np.dot(lengths, per_cut))


def refinement_study(scenario, levels=3):
    """Re-run with n_slices and substeps doubled per level; measure the L1
    gap between consecutive extensions and each level's slab Hausdorff
    distance (resolution delta/8, floored at half a cell)."""
    if levels < 2:
        raise SlabflowError("refinement_study needs at least 2 levels")
    runs = []
    infos = []
    for i in range(levels):
        sc = replace(
            scenario,
            n_slices=scenario.n_slices * 2**i,
            substeps=scenario.substeps * 2**i,
        )
        plan = build_slice_plan(sc.domain, sc.grid, sc.n_slices)
        field_, _ = run_scheme(sc, plan=plan)
        res = max(plan.delta / 8.0, min(scenario.grid.spacing) / 2.0)
        infos.append(
            {
                "n_slices": sc.n_slices,
                "substeps": sc.substeps,
                "delta": plan.delta,
                "hausdorff": slab_hausdorff(sc.domain, plan, res),
            }
        )
        runs.append(field_)
    vol, horizon = scenario.grid.cell_volume, scenario.domain.horizon
    exts = [f.extended for f in runs]  # each level's extension, derived once
    gaps = tuple(
        _hold_l1_distance(runs[i], exts[i], runs[i + 1], exts[i + 1], horizon, vol)
        for i in range(levels - 1)
    )
    return RefinementStudy(levels=tuple(infos), gaps=gaps)


# ---------------------------------------------------------------------------
# manufactured solutions


@dataclass(frozen=True)
class MmsReport:
    linf_error: float
    l1_error: float
    spatial_order_linf: float
    spatial_order_l1: float
    temporal_order: float
    details: dict = field(compare=False, default_factory=dict)

    def summary_lines(self):
        return [
            f"final-time errors: Linf={self.linf_error:.6e} L1={self.l1_error:.6e}",
            f"spatial orders:    Linf={self.spatial_order_linf:.3f} L1={self.spatial_order_l1:.3f}",
            f"temporal order:    {self.temporal_order:.3f}",
        ]


def _final_errors(scenario, exact):
    field_, _ = run_scheme(scenario)
    mask = field_.plan.masks[-1]
    pts = mask.active_points()
    T = scenario.domain.horizon
    err = field_.frames[-1][mask.active] - eval_on_points(exact, T, pts)
    vol = scenario.grid.cell_volume
    return float(np.max(np.abs(err))), vol * float(np.sum(np.abs(err))), field_


def _order(e_coarse, e_fine):
    if e_fine == 0.0:
        return math.inf if e_coarse > 0 else 0.0
    return math.log2(e_coarse / e_fine)


def mms_report(scenario, exact):
    """Convergence orders against a manufactured solution.

    The scenario's source must already be the residual of ``exact`` under
    the scheme's equation (the caller derives it).  Spatial order: grid
    spacing halved with slices and substeps doubled (so every error
    component at least halves).  Temporal order: substeps doubled on the
    fixed grid, measured against a substep-refined reference run, which
    isolates the time-integration error from the spatial one.
    """
    linf1, l1_1, field_base = _final_errors(scenario, exact)
    fine_grid = replace(
        scenario.grid,
        spacing=tuple(h / 2.0 for h in scenario.grid.spacing),
        counts=tuple(c * 2 for c in scenario.grid.counts),
    )
    fine = replace(
        scenario,
        grid=fine_grid,
        n_slices=scenario.n_slices * 2,
        substeps=scenario.substeps * 2,
    )
    linf2, l1_2, _ = _final_errors(fine, exact)

    field_half, _ = run_scheme(replace(scenario, substeps=scenario.substeps * 2))
    field_ref, _ = run_scheme(
        replace(scenario, substeps=scenario.substeps * REFERENCE_SUBSTEP_FACTOR)
    )
    act = field_base.plan.masks[-1].active
    e_base = float(np.max(np.abs(field_base.frames[-1][act] - field_ref.frames[-1][act])))
    e_half = float(np.max(np.abs(field_half.frames[-1][act] - field_ref.frames[-1][act])))
    return MmsReport(
        linf_error=linf1,
        l1_error=l1_1,
        spatial_order_linf=_order(linf1, linf2),
        spatial_order_l1=_order(l1_1, l1_2),
        temporal_order=_order(e_base, e_half),
        details={
            "fine_linf_error": linf2,
            "fine_l1_error": l1_2,
            "temporal_pair": (e_base, e_half),
        },
    )
