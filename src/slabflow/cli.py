"""Command line front end.

Subcommands::

    slabflow run <scenario>             solve and write frames + manifest
    slabflow refine <scenario>          refinement study across halved steps
    slabflow check-flux <scenario>      sampled structure-condition report
    slabflow geometry <scenario>        sections at 0, T and each jump
    slabflow verify <scenario>          a-posteriori estimate reports

Exit codes: 0 success, 1 a verification report failed, 2 bad input,
3 the nonlinear solver stalled (the message lists the Newton and the Picard
residual histories).
"""

import argparse
import sys

from .diagnostics import (
    _source_free_field,
    energy_report,
    l1_contraction_report,
    max_principle_report,
    refinement_study,
)
from .errors import InapplicableDiagnosticError, ScenarioError, SlabflowError, SolverStallError
from .expressions import parse_expr
from .flux import check_structure
from .geometry import IntervalRegion, classify_jump, section, side_limits
from .scenario_io import load_scenario, scenario_hash, write_frames
from .stitcher import run_scheme


def _cmd_run(args):
    scenario = load_scenario(args.scenario)
    field, report = run_scheme(scenario)
    out = scenario.output
    paths = write_frames(
        field, out.directory, mode=out.frames_mode, scenario_digest=scenario_hash(scenario)
    )
    print(f"slices={field.plan.n_slices} delta={field.plan.delta:.6g} "
          f"newton={report.total_newton()} wall={report.wall_time:.3f}s")
    print(f"wrote {len(paths)} files to {out.directory}")
    return 0


def _cmd_refine(args):
    scenario = load_scenario(args.scenario)
    study = refinement_study(scenario, levels=args.levels)
    for line in study.summary_lines():
        print(line)
    return 0


def _cmd_check_flux(args):
    scenario = load_scenario(args.scenario)
    report = check_structure(scenario.flux, samples=args.samples, seed=args.seed)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_geometry(args):
    scenario = load_scenario(args.scenario)
    dom = scenario.domain
    jumps = dom.jump_times()

    def fmt(region):
        """A 1D section's intervals, or the count of grid nodes inside a 2D one."""
        if not isinstance(region, IntervalRegion):
            return f"{int(region.contains(scenario.grid.node_coords()).sum())} grid nodes inside"
        if not region.intervals:
            return "(empty)"
        return " ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in region.intervals)

    print(f"kind={dom.kind} horizon={dom.horizon:.6g} jumps={len(jumps)}")
    for t in (0.0, *jumps, dom.horizon):
        before, after = side_limits(dom, t)
        if t in (0.0, dom.horizon):
            reg = section(dom, t) if t == 0.0 else before
            print(f"t={t:.6g} section={fmt(reg)}")
        else:
            grow, shrink = classify_jump(dom, t)
            print(f"t={t:.6g} before={fmt(before)} after={fmt(after)} "
                  f"new={fmt(grow)} lost={fmt(shrink)}")
    return 0


def _cmd_verify(args):
    scenario = load_scenario(args.scenario)
    field_ = _source_free_field(scenario, None, "max_principle_report")
    reports = [max_principle_report(scenario, field_), energy_report(scenario, field_)]
    if args.u0b is not None:
        u0b = parse_expr(args.u0b, ("x", "y") if scenario.grid.dim == 2 else ("x",))
        try:
            reports.append(l1_contraction_report(scenario, scenario.u0, u0b, field_))
        except InapplicableDiagnosticError as exc:
            print(f"SKIP l1_contraction: {exc}")
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


def _at_least(least):
    """An argparse type: an integer no smaller than ``least``."""
    def integer(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slabflow",
        description="Time-sliced solver for nonlinear diffusion on moving domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve a scenario and write frames")
    run.add_argument("scenario")
    run.set_defaults(func=_cmd_run)

    refine = sub.add_parser("refine", help="compare runs under halved time steps")
    refine.add_argument("scenario")
    refine.add_argument("--levels", type=_at_least(2), default=3)
    refine.set_defaults(func=_cmd_refine)

    check = sub.add_parser("check-flux", help="sampled structure-condition check")
    check.add_argument("scenario")
    check.add_argument("--samples", type=_at_least(1), default=10000)
    check.add_argument("--seed", type=_at_least(0), default=0)
    check.set_defaults(func=_cmd_check_flux)

    geom = sub.add_parser("geometry", help="print knots, sections and jumps")
    geom.add_argument("scenario")
    geom.set_defaults(func=_cmd_geometry)

    verify = sub.add_parser("verify", help="run a-posteriori estimate reports")
    verify.add_argument("scenario")
    verify.add_argument("--u0b", default=None,
                        help="second initial datum for the L1 comparison report")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for name, history in (("Newton", exc.newton_history), ("Picard", exc.picard_history)):
            print(f"  {name} residuals: {' '.join(f'{r:.3e}' for r in history) or 'none'}",
                  file=sys.stderr)
        return 3
    except SlabflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
