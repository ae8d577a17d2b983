"""Command line front end.

Subcommands::

    slabflow run <scenario>             solve and write frames + manifest
    slabflow refine <scenario>          refinement study across halved steps
    slabflow check-flux <scenario>      sampled structure-condition report
    slabflow geometry <scenario>        grid nodes of the sections at 0, T and each jump
    slabflow verify <scenario>          a-posteriori estimate reports

Exit codes: 0 success, 1 a verification report failed, 2 bad input,
3 the nonlinear solver stalled (the message gives the halving depth reached
and lists the stalled piece's Newton residual history).
"""

import argparse
import os
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
from .geometry import _node_box, side_limits
from .scenario_io import load_scenario, make_output_dir, scenario_hash, write_frames
from .stitcher import run_scheme


def _cmd_run(args):
    scenario = load_scenario(args.scenario)
    out = scenario.output
    made = make_output_dir(out.directory)  # a directory that cannot be made costs no solve
    try:
        field, report = run_scheme(scenario)
    except SlabflowError:
        for path in made:  # a failed run leaves no directory of its own behind
            os.rmdir(path)
        raise
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
    dom, grid = scenario.domain, scenario.grid
    jumps = dom.jump_times()

    def fmt(inside):
        """A set of grid nodes: its count and bounding box."""
        count = int(inside.sum())
        return f"{count} grid nodes in {_node_box(grid, inside)}" if count else "0 grid nodes"

    print(f"segments={len(dom.segments)} jumps={len(jumps)} horizon={dom.horizon:.6g}")
    for t in (0.0, *jumps, dom.horizon):
        before, after = (region.contains(grid.node_coords()) for region in side_limits(dom, t))
        if t in jumps:
            print(f"t={t:.6g} before={fmt(before)} after={fmt(after)} "
                  f"new={fmt(after & ~before)} lost={fmt(before & ~after)}")
        else:
            print(f"t={t:.6g} section={fmt(after)}")
    return 0


def _cmd_verify(args):
    scenario = load_scenario(args.scenario)
    field_ = _source_free_field(scenario, None, "max_principle_report")
    reports = [max_principle_report(scenario, field_), energy_report(scenario, field_)]
    if args.u0b is not None:
        u0b = parse_expr(args.u0b, tuple("xy"[:scenario.grid.dim]))
        try:
            reports.append(l1_contraction_report(scenario, scenario.u0, u0b, field_))
        except InapplicableDiagnosticError as exc:
            print(f"SKIP l1_contraction: {exc}")
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


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
    refine.add_argument("--levels", type=int, default=3)
    refine.set_defaults(func=_cmd_refine)

    check = sub.add_parser("check-flux", help="sampled structure-condition check")
    check.add_argument("scenario")
    check.add_argument("--samples", type=int, default=10000)
    check.add_argument("--seed", type=int, default=0)
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
        print(f"  Newton residuals: {' '.join(f'{r:.3e}' for r in exc.newton_history)}", file=sys.stderr)
        print(f"  halving depth: {exc.depth}", file=sys.stderr)
        return 3
    except SlabflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
