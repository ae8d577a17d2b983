"""The benchmark's workloads: seeded inputs, one repetition each, and the
correctness checks that decide whether an op failed.

An op is one call into the package (load, run, report, study or write).
It fails when it raises, or when the check attached to its result does
not hold; failed ops are counted, never skipped.  The seed changes
initial data only (sine-mode amplitudes, the Gaussian centre, the second
L1 datum), never grids, slices or substeps, so the work per repetition
is fixed.  The package receives only the generated scenarios.
"""

import math
import os
import random
import sys
import traceback

import numpy as np

HEAT_CFG = """\
# Linear diffusion on (0, 1): the analytic heat oracle of acceptance criterion 3.
[grid]
dim = 1
xmin = -0.125
xmax = 1.125
h = {h}

[time]
T = 0.1
slices = 1
substeps = {substeps}

[domain]
type = moving_intervals
left = "0"
right = "1"

[flux]
type = linear_diffusion
p = 2

[data]
u0 = "{u0}"
psi = "0"

[output]
dir = {out}
"""

DISK_CFG = """\
# The bundled shrinking disk with degenerate p = 3 diffusion, refined.
[grid]
dim = 2
xmin = -1.05
xmax = 1.05
ymin = -1.05
ymax = 1.05
h = 0.021

[time]
T = 1.0
slices = 4
substeps = 8

[domain]
type = implicit
phi = "x^2 + y^2 - (0.8 - 0.2*t)^2"

[flux]
type = p_laplacian
p = 3

[data]
u0 = "exp(-4*((x - {cx})^2 + (y - {cy})^2))"
psi = "0"

[output]
dir = {out}
frames = knots
"""

HEAT_T = 0.1
HEAT_RUNS = ((128, 1000), (256, 4000))  # (1/h, substeps): tau = 1e-4, then 2.5e-5
DISK_RADIUS_SPEED = 0.2  # |d/dt (0.8 - 0.2 t)|, the Lipschitz constant of the disk boundary


def _num(x):
    """Fixed-point literal for a scenario expression (no exponent form)."""
    return f"({x:.6f})"


class Ops:
    """Counts ops and their failures for one repetition."""

    def __init__(self, typed_error):
        self.typed_error = typed_error
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, what, fn, *args, check=None, **kwargs):
        """Run one op; returns its result, or None if it raised.  ``check``
        maps the result to a bool; False marks the op failed."""
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # every failure of an op is counted, typed or not
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, self.typed_error):
                traceback.print_exc(file=sys.stderr)
            return None
        if check is not None and not check(out):
            self.failed += 1
            self.errors.append(f"{what}: correctness check failed")
        return out


def _is_zero_source(sf, scenario):
    return scenario.source is None or scenario.source == sf.Num(0.0)


# ---------------------------------------------------------------------------
# checks (pure functions of results, so tests can feed them corrupted ones)


def heat_exact(amplitudes, x, t=HEAT_T):
    """Sine-series solution of u_t = u_xx on (0, 1) with zero boundary data."""
    return sum(
        a * math.exp(-((k + 1) * math.pi) ** 2 * t) * np.sin((k + 1) * math.pi * x)
        for k, a in enumerate(amplitudes)
    )


def heat_error(field_, amplitudes):
    """Final-time Linf error of a heat-oracle run against the exact solution."""
    mask = field_.plan.masks[-1]
    x = mask.active_points()[:, 0]
    return float(np.max(np.abs(field_.frames[-1][mask.active] - heat_exact(amplitudes, x))))


def heat_coarse_ok(err):
    """Criterion 3: Linf error <= 5e-3 at h = 1/128, tau = 1e-4."""
    return err <= 5e-3


def heat_refinement_ok(err_coarse, err_fine):
    """Criterion 3: halving h and quartering tau shrinks the error >= 3.2x."""
    return err_fine > 0 and err_coarse / err_fine >= 3.2


def slab_hausdorff_ok(distance, delta, lipschitz):
    """Criterion 6's bound on the frozen-slab approximation: d_H <= (1 + L) delta."""
    return distance <= (1.0 + lipschitz) * delta


def mms_fixed_ok(report):
    """Criterion 10 on a fixed domain: spatial order >= 1.9 in Linf and L1."""
    return min(report.spatial_order_linf, report.spatial_order_l1) >= 1.9


def cauchy_ok(study):
    """Criteria 6 and 7 on the cone: consecutive L1(Q_T) gaps shrink by
    ratio <= 0.7; d_H / delta <= 2 and halves (+-20%) per level."""
    gaps = study.gaps
    levels = study.levels
    gap_ok = len(gaps) >= 3 and all(gaps[i + 1] / gaps[i] <= 0.7 for i in range(len(gaps) - 1))
    rel_ok = all(lv["hausdorff"] <= 2.0 * lv["delta"] for lv in levels)
    halving_ok = all(
        0.4 <= levels[i + 1]["hausdorff"] / levels[i]["hausdorff"] <= 0.6
        for i in range(len(levels) - 1)
    )
    return gap_ok and rel_ok and halving_ok


def l1_contraction_ok(report):
    """Criterion 4: the L1 distance series never increases (tol 1e-10)."""
    return bool(report.details["nonincreasing"]) and report.lhs <= report.rhs + 1e-10


def passed(report):
    return report.passed


def frames_written(expected):
    """write_frames returned one path per selected stamp plus the manifest,
    and every file is non-empty."""
    return lambda paths: len(paths) == expected + 1 and all(os.path.getsize(p) > 0 for p in paths)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload.  The constructor draws the seeded data and writes the
    scenario files (``paths``) once per run; ``run`` executes one
    repetition against them; ``dims`` are the dimensions it solves in."""

    def __init__(self, seed, workdir, sf):
        self.workdir = workdir
        self.rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)

    def _write_cfg(self, name, text):
        path = os.path.join(self.workdir, name + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _out(self, name):
        return os.path.join(self.workdir, "frames", name)


class Heat1dOracle(Workload):
    """Criterion 3's pair of runs on (0, 1) with seeded sine-mode data."""

    name = "heat1d_oracle"

    def __init__(self, seed, workdir, sf):
        super().__init__(seed, workdir, sf)
        self.amplitudes = (
            round(self.rng.uniform(0.8, 1.2), 6),
            round(self.rng.uniform(-0.3, 0.3), 6),
            round(self.rng.uniform(-0.3, 0.3), 6),
        )
        u0 = " + ".join(f"{_num(a)}*sin({k + 1}*pi*x)" for k, a in enumerate(self.amplitudes))
        self.paths = [
            self._write_cfg(
                f"heat_{n}",
                HEAT_CFG.format(h=repr(1.0 / n), substeps=m, u0=u0, out=self._out(f"heat_{n}")),
            )
            for n, m in HEAT_RUNS
        ]

    def dims(self):
        return (1,)

    def run(self, sf, ops):
        errors = {}

        def error_ok(i, result):
            errors[i] = heat_error(result[0], self.amplitudes)
            if i == 0:
                return heat_coarse_ok(errors[0])
            return heat_refinement_ok(errors.get(0, math.nan), errors[i])

        for i, (path, (n, _)) in enumerate(zip(self.paths, HEAT_RUNS)):
            scenario = ops.call(f"load heat h=1/{n}", sf.load_scenario, path)
            result = ops.call(f"run heat h=1/{n}", sf.run_scheme, scenario,
                              check=lambda res: error_ok(i, res))
            field_ = result[0] if result else None
            ops.call("max_principle_report", sf.max_principle_report, scenario, field_=field_,
                     check=passed)
            _slab_hausdorff_op(sf, ops, scenario, field_, lipschitz=0.0)


def _slab_hausdorff_op(sf, ops, scenario, field_, lipschitz):
    """Slab Hausdorff distance of a run's plan, sampled at the resolution
    refinement_study uses, checked against criterion 6's bound."""

    def distance():
        plan = field_.plan
        resolution = max(plan.delta / 8.0, min(scenario.grid.spacing) / 2.0)
        return sf.slab_hausdorff(scenario.domain, plan, resolution)

    ops.call("slab_hausdorff", distance,
             check=lambda d: slab_hausdorff_ok(d, field_.plan.delta, lipschitz))


class Disk2dP3(Workload):
    """``slabflow run`` on the refined p = 3 shrinking disk, then its checks."""

    name = "disk2d_p3"

    def __init__(self, seed, workdir, sf):
        super().__init__(seed, workdir, sf)
        self.centre = (round(self.rng.uniform(-0.2, 0.2), 6), round(self.rng.uniform(-0.2, 0.2), 6))
        self.paths = [
            self._write_cfg(
                "disk2d_p3",
                DISK_CFG.format(cx=_num(self.centre[0]), cy=_num(self.centre[1]),
                                out=self._out("disk2d_p3")),
            )
        ]

    def dims(self):
        return (2,)

    def run(self, sf, ops):
        scenario = ops.call("load disk2d_p3", sf.load_scenario, self.paths[0])
        result = ops.call("run disk2d_p3", sf.run_scheme, scenario)
        field_ = result[0] if result else None
        ops.call(
            "write_frames disk2d_p3",
            lambda: sf.write_frames(field_, scenario.output.directory,
                                    mode=scenario.output.frames_mode,
                                    scenario_digest=sf.scenario_hash(scenario)),
            check=frames_written(field_.plan.n_slices + 1 if field_ else -1),
        )
        ops.call("max_principle_report", sf.max_principle_report, scenario, field_=field_,
                 check=passed)
        ops.call("energy_report", sf.energy_report, scenario, field_=field_, check=passed)
        _slab_hausdorff_op(sf, ops, scenario, field_, lipschitz=DISK_RADIUS_SPEED)


class BundleVerify(Workload):
    """Every bundled scenario run, verified and written, plus the MMS,
    refinement and L1 studies of the acceptance suite."""

    name = "bundle_verify"

    def __init__(self, seed, workdir, sf):
        super().__init__(seed, workdir, sf)
        self.bundled = dict(sorted(sf.bundled_scenario_paths().items()))
        self.paths = list(self.bundled.values())
        self.u0_b = (round(self.rng.uniform(-0.5, 0.5), 6), round(self.rng.uniform(-0.5, 0.5), 6))

    def dims(self):
        return (1, 2)

    def run(self, sf, ops):
        loaded = {}
        for name, path in self.bundled.items():
            scenario = ops.call(f"load {name}", sf.load_scenario, path)
            loaded[name] = scenario
            result = ops.call(f"run {name}", sf.run_scheme, scenario)
            field_ = result[0] if result else None
            if scenario is None or _is_zero_source(sf, scenario):
                ops.call(f"max_principle_report {name}", sf.max_principle_report, scenario,
                         field_=field_, check=passed)
                ops.call(f"energy_report {name}", sf.energy_report, scenario, field_=field_,
                         check=passed)
            ops.call(
                f"write_frames {name}",
                lambda: sf.write_frames(field_, self._out(name), mode="all",
                                        scenario_digest=sf.scenario_hash(scenario)),
                check=frames_written(field_.n_stamps if field_ else -1),
            )
        ops.call(
            "mms_report mms_fixed",
            lambda: sf.mms_report(loaded["mms_fixed"],
                                  sf.parse_expr("exp(-t)*sin(pi*x)", ("t", "x"))),
            check=mms_fixed_ok,
        )
        ops.call("refinement_study cone_heat", sf.refinement_study, loaded["cone_heat"],
                 levels=4, check=cauchy_ok)
        b1, b2 = self.u0_b
        u0_b = f"{_num(b1)}*sin(pi*x) + {_num(b2)}*sin(2*pi*x)"
        ops.call(
            "l1_contraction_report heat_moving",
            lambda: sf.l1_contraction_report(loaded["heat_moving"], loaded["heat_moving"].u0,
                                             sf.parse_expr(u0_b, ("x",))),
            check=l1_contraction_ok,
        )


WORKLOADS = {cls.name: cls for cls in (Heat1dOracle, Disk2dP3, BundleVerify)}
