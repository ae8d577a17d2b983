"""Scenario text files: loading, validation, canonical printing, output.

The format is INI-like with six sections ([solver] optional)::

    [grid]    dim, xmin, xmax, h          (+ ymin, ymax when dim = 2)
    [time]    T, slices, substeps
    [domain]  type = moving_intervals (left, right, jumps?) | implicit (phi)
    [flux]    type, p, eps_reg?; custom adds a1 (a2), c, alpha, b?, d?, C_z?, omega?
    [data]    u0, psi, source?
    [solver]  newton_tol?, max_newton?, max_picard?
    [output]  dir, frames?

'#' starts a comment, values may be double-quoted, unknown sections or
keys are errors.  Loading reads every key it can reach, builds each part
through its own constructor (which holds that part's rules) and raises a
single :class:`ScenarioError` listing every problem found.
"""

import hashlib
import os

import numpy as np

from .errors import GeometryError, NumericEvalError, ScenarioError, SlabflowError
from .expressions import Num, parse_expr, parse_pair, to_source
from .flux import FluxModel
from .geometry import Grid, IntervalTrack, TimeDomain, TrackSegment, build_slice_plan
from .slice_solver import SolverConfig, eval_on_points
from .stitcher import OutputConfig, Scenario, count_issues

_SECTIONS = {
    "grid": {"dim", "xmin", "xmax", "ymin", "ymax", "h"},
    "time": {"T", "slices", "substeps"},
    "domain": {"type", "left", "right", "jumps", "phi"},
    "flux": {"type", "p", "eps_reg", "a1", "a2", "c", "alpha", "b", "d", "C_z", "omega"},
    "data": {"u0", "psi", "source"},
    "solver": {"newton_tol", "max_newton", "max_picard"},
    "output": {"dir", "frames"},
}
_REQUIRED_SECTIONS = ("grid", "time", "domain", "flux", "data", "output")


def _strip_comment(line):
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def _unquote(value):
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    return value


def _parse_sections(text, issues):
    """-> {section: {key: (value, line_no)}}"""
    sections = {}
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                issues.append(f"line {no}: unknown section [{name}]")
                current = None
                continue
            if name in sections:
                issues.append(f"line {no}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            issues.append(f"line {no}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            issues.append(f"line {no}: key outside any section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        section_name = next(n for n, s in sections.items() if s is current)
        if key not in _SECTIONS[section_name]:
            issues.append(f"[{section_name}] line {no}: unknown key {key!r}")
            continue
        if key in current:
            issues.append(f"[{section_name}] line {no}: duplicate key {key!r}")
            continue
        current[key] = (_unquote(value), no)
    return sections


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


class _SectionReader:
    def __init__(self, name, entries, issues):
        self.name = name
        self.entries = dict(entries)
        self.issues = issues

    def _take(self, key, conv, kind, required, default):
        if key not in self.entries:
            if required:
                self.issues.append(f"[{self.name}] missing required key {key!r}")
            return default
        value, line = self.entries.pop(key)
        try:
            return conv(value)
        except ValueError:
            self.issues.append(f"[{self.name}] line {line}: {key!r} must be {kind}, got {value!r}")
            return default

    def number(self, key, required=True, default=None):
        return self._take(key, _finite, "a finite number", required, default)

    def integer(self, key, required=True, default=None):
        def conv(v):
            f = _finite(v)
            if f != int(f):
                raise ValueError(v)
            return int(f)

        return self._take(key, conv, "an integer", required, default)

    def word(self, key, required=True, default=None):
        return self._take(key, str, "a word", required, default)

    def expression(self, key, variables, required=True, default=None):
        if key not in self.entries:
            if required:
                self.issues.append(f"[{self.name}] missing required key {key!r}")
            return default
        value, line = self.entries.pop(key)
        try:
            return parse_expr(value, variables)
        except SlabflowError as exc:
            self.issues.append(f"[{self.name}] line {line} ({key}): {exc}")
            return default

    def reject_leftovers(self, context):
        for key, (_, line) in self.entries.items():
            self.issues.append(f"[{self.name}] line {line}: key {key!r} is {context}")
        self.entries.clear()


def _build(issues, section, make):
    """``make()``, or None once its typed error is in ``issues`` as ``[section]`` lines."""
    try:
        return make()
    except ScenarioError as exc:  # a Scenario's issues already name their sections
        issues.extend(exc.issues)
    except SlabflowError as exc:
        issues.append(f"[{section}] {exc}")
    return None


def parse_scenario_text(text):
    """Parse and validate scenario text; raises ScenarioError on problems."""
    issues = []
    sections = _parse_sections(text, issues)
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            issues.append(f"missing required section [{name}]")
    if issues:
        raise ScenarioError(issues)

    # ---- grid
    g = _SectionReader("grid", sections["grid"], issues)
    dim = g.integer("dim")
    xmin = g.number("xmin")
    xmax = g.number("xmax")
    h = g.number("h")
    if dim not in Grid.DIMS:
        _build(issues, "grid", lambda: Grid.check_dim(dim))
        dim = 1
    if dim == 2:
        ymin = g.number("ymin")
        ymax = g.number("ymax")
    else:
        ymin = ymax = None
        g.reject_leftovers("only valid when dim = 2")

    grid = None
    if not issues:
        spans = [(xmin, xmax)] + ([(ymin, ymax)] if dim == 2 else [])
        counts, origin = [], []
        for lo, hi in spans:
            if hi <= lo:
                issues.append(f"[grid] axis range [{lo}, {hi}] is empty")
                break
            n = (hi - lo) / h if h > 0 else 0.0  # Grid rejects the spacing
            if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
                issues.append(f"[grid] h={h} must evenly divide [{lo}, {hi}]")
                break
            counts.append(int(round(n)))
            origin.append(lo)
        else:
            grid = _build(issues, "grid", lambda: Grid(
                dim=dim, origin=tuple(origin), spacing=(h,) * dim, counts=tuple(counts)))

    # ---- time
    tsec = _SectionReader("time", sections["time"], issues)
    horizon = tsec.number("T")
    n_slices = tsec.integer("slices")
    substeps = tsec.integer("substeps")

    # ---- domain
    d = _SectionReader("domain", sections["domain"], issues)
    dom_type = d.word("type")
    domain = None
    if dom_type == "moving_intervals":
        left = d.expression("left", ("t",))
        right = d.expression("right", ("t",))
        jumps_raw = d.word("jumps", required=False, default="")
        d.reject_leftovers("only valid for type = implicit")
        segments = []
        if left is not None and right is not None:
            segments.append(TrackSegment(start=0.0, left=left, right=right))
        for piece in filter(None, (entry.strip() for entry in jumps_raw.split(";"))):
            when, colon, values = piece.partition(":")
            try:
                if not colon:
                    raise ValueError("expected the form 't: left, right'")
                segments.append(TrackSegment(float(when), *parse_pair(values, ("t",))))
            except (ValueError, SlabflowError) as exc:
                issues.append(f"[domain] bad jump entry {piece!r}: {exc}")
        if segments and horizon is not None:
            domain = _build(issues, "domain", lambda: TimeDomain.moving_intervals(
                [IntervalTrack(segments=tuple(segments))], horizon))
    elif dom_type == "implicit":
        variables = ("t", "x", "y") if dim == 2 else ("t", "x")
        phi = d.expression("phi", variables)
        d.reject_leftovers("only valid for type = moving_intervals")
        if phi is not None and grid is not None and horizon is not None:
            domain = _build(issues, "domain",
                            lambda: TimeDomain.implicit(phi, grid.box, horizon, dim=dim))
    elif dom_type is not None:
        _build(issues, "domain", lambda: TimeDomain.check_kind(dom_type))

    # ---- flux
    fsec = _SectionReader("flux", sections["flux"], issues)
    flux_type = fsec.word("type")
    p = fsec.number("p")
    eps_reg = fsec.number("eps_reg", required=False, default=1e-8)
    flux = None
    if flux_type in FluxModel.BUILTIN_KINDS:
        fsec.reject_leftovers("only valid for type = custom")
        if p is not None:
            flux = _build(issues, "flux", {
                "p_laplacian": lambda: FluxModel.p_laplacian(p, dim=dim, eps_reg=eps_reg),
                "linear_diffusion": lambda: FluxModel("linear_diffusion", p, dim=dim, eps_reg=0.0),
                "z_modulated": lambda: FluxModel.z_modulated(p, dim=dim, eps_reg=eps_reg),
            }[flux_type])
    elif flux_type == "custom":
        flux_vars = ("t", "x", "y", "z", "xi1", "xi2")
        a1 = fsec.expression("a1", flux_vars)
        a2 = fsec.expression("a2", flux_vars, required=(dim == 2)) if dim == 2 else None
        if dim == 1 and "a2" in fsec.entries:
            fsec.entries.pop("a2")
            issues.append("[flux] a2 only valid when dim = 2")
        growth_c = fsec.number("c")
        alpha = fsec.number("alpha")
        lower_b = fsec.number("b", required=False, default=0.0)
        lower_d = fsec.number("d", required=False, default=0.0)
        z_lip = fsec.number("C_z", required=False, default=0.0)
        omega = fsec.expression("omega", ("r",), required=False)
        comps = [c for c in (a1, a2) if c is not None]
        if p is not None and growth_c is not None and alpha is not None and len(comps) == dim:
            flux = _build(issues, "flux", lambda: FluxModel.custom(
                comps, p, dim=dim, eps_reg=eps_reg, growth_c=growth_c,
                coercivity_alpha=alpha, lower_b=lower_b, lower_d=lower_d,
                z_lipschitz=z_lip, time_modulus=omega,
            ))
    elif flux_type is not None:
        _build(issues, "flux", lambda: FluxModel.check_kind(flux_type))

    # ---- data
    data = _SectionReader("data", sections["data"], issues)
    space_vars = ("x", "y") if dim == 2 else ("x",)
    txy_vars = ("t",) + space_vars
    u0 = data.expression("u0", space_vars, default=Num(0.0))  # a missing or bad one is already an issue
    psi = data.expression("psi", txy_vars, default=Num(0.0))
    source = data.expression("source", txy_vars, required=False, default=Num(0.0))

    # ---- solver
    cfg = SolverConfig()
    if "solver" in sections:
        s = _SectionReader("solver", sections["solver"], issues)
        newton_tol = s.number("newton_tol", required=False, default=cfg.newton_tol)
        max_newton = s.integer("max_newton", required=False, default=cfg.max_newton)
        max_picard = s.integer("max_picard", required=False, default=cfg.max_picard)
        cfg = _build(issues, "solver", lambda: SolverConfig(newton_tol, max_newton, max_picard))

    # ---- output
    out = _SectionReader("output", sections["output"], issues)
    out_dir = out.word("dir")
    frames_mode = out.word("frames", required=False, default="knots")
    output = _build(issues, "output", lambda: OutputConfig(out_dir, frames_mode))

    if None in (grid, domain, flux, n_slices, substeps, cfg):  # each is an issue already
        issues += count_issues(n_slices, substeps)
    else:
        scenario = _build(issues, "scenario", lambda: Scenario(
            grid=grid,
            domain=domain,
            n_slices=n_slices,
            substeps=substeps,
            flux=flux,
            psi=psi,
            u0=u0,
            source=source,
            config=cfg,
            output=output,
        ))

    # ---- cross-cutting eager checks
    plan = None
    if not issues:
        try:
            plan = build_slice_plan(domain, grid, n_slices)
        except GeometryError as exc:
            issues.append(f"geometry: {exc}")
    if plan is not None:
        try:
            eval_on_points(u0, 0.0, plan.masks[0].active_points())
        except NumericEvalError as exc:
            issues.append(f"[data] u0 does not evaluate on the initial section: {exc}")
        nodes = grid.node_coords()
        for t in plan.knots:
            try:
                eval_on_points(psi, float(t), nodes)
            except NumericEvalError as exc:
                issues.append(f"[data] psi does not evaluate at t={t}: {exc}")
                break

    if issues:
        raise ScenarioError(issues)
    return scenario


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError([f"cannot read scenario file: {exc}"]) from exc
    return parse_scenario_text(text)


def bundled_scenario_paths():
    """name -> path of the scenario files shipped with the package."""
    folder = os.path.join(os.path.dirname(__file__), "scenarios")
    return {
        name[:-4]: os.path.join(folder, name)
        for name in sorted(os.listdir(folder))
        if name.endswith(".cfg")
    }


# ---------------------------------------------------------------------------
# canonical printing


def _fmt(x):
    return repr(float(x))


def format_scenario(scenario):
    """Canonical text for a scenario; reloading yields an equivalent one
    (equal expression trees, bit-equal numbers)."""
    grid = scenario.grid
    if len(set(grid.spacing)) != 1:
        raise ScenarioError([f"[grid] the file format has one spacing h, got {grid.spacing}"])
    lines = ["[grid]", f"dim = {grid.dim}"]
    for name, (lo, hi) in zip("xy", grid.box):
        lines += [f"{name}min = {_fmt(lo)}", f"{name}max = {_fmt(hi)}"]
    lines.append(f"h = {_fmt(grid.spacing[0])}")

    lines += [
        "",
        "[time]",
        f"T = {_fmt(scenario.domain.horizon)}",
        f"slices = {scenario.n_slices}",
        f"substeps = {scenario.substeps}",
    ]

    dom = scenario.domain
    lines += ["", "[domain]"]
    if dom.kind == "moving_intervals":
        if len(dom.tracks) != 1:
            raise ScenarioError([f"[domain] the file format has one track, got {len(dom.tracks)}"])
        segs = dom.tracks[0].segments
        lines.append("type = moving_intervals")
        lines.append(f'left = "{to_source(segs[0].left)}"')
        lines.append(f'right = "{to_source(segs[0].right)}"')
        if len(segs) > 1:
            jumps = "; ".join(
                f"{_fmt(s.start)}: {to_source(s.left)}, {to_source(s.right)}" for s in segs[1:]
            )
            lines.append(f'jumps = "{jumps}"')
    else:
        lines.append("type = implicit")
        lines.append(f'phi = "{to_source(dom.phi)}"')

    flux = scenario.flux
    lines += ["", "[flux]", f"type = {flux.kind}", f"p = {_fmt(flux.p)}"]
    lines.append(f"eps_reg = {_fmt(flux.eps_reg)}")
    if flux.kind == "custom":
        lines.append(f'a1 = "{to_source(flux.components[0])}"')
        if flux.dim == 2:
            lines.append(f'a2 = "{to_source(flux.components[1])}"')
        lines.append(f"c = {_fmt(flux.growth_c)}")
        lines.append(f"alpha = {_fmt(flux.coercivity_alpha)}")
        lines.append(f"b = {_fmt(flux.lower_b)}")
        lines.append(f"d = {_fmt(flux.lower_d)}")
        lines.append(f"C_z = {_fmt(flux.z_lipschitz)}")
        if flux.time_modulus is not None:
            lines.append(f'omega = "{to_source(flux.time_modulus)}"')

    lines += ["", "[data]", f'u0 = "{to_source(scenario.u0)}"']
    lines.append(f'psi = "{to_source(scenario.psi)}"')
    lines.append(f'source = "{to_source(scenario.source)}"')

    cfg = scenario.config
    lines += [
        "",
        "[solver]",
        f"newton_tol = {_fmt(cfg.newton_tol)}",
        f"max_newton = {cfg.max_newton}",
        f"max_picard = {cfg.max_picard}",
    ]

    out = scenario.output or OutputConfig(directory="out")
    lines += ["", "[output]", f"dir = {out.directory}", f"frames = {out.frames_mode}", ""]
    return "\n".join(lines)


def scenario_hash(scenario):
    return hashlib.sha256(format_scenario(scenario).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# frame output


def _selected_stamps(field, mode):
    if mode == "all":
        return list(range(field.n_stamps))
    picks = [int(field.stamps_of_slice(k)[0]) for k in range(field.plan.n_slices)]
    picks.append(field.n_stamps - 1)
    return picks


def write_frames(field, out_dir, mode="knots", scenario_digest=""):
    """Write one text file per selected stamp plus a manifest.

    Columns: t, x (and y in 2D), u (NaN outside active + ghost), the
    active flag (1 active / 0 ghost / -1 outside) and the total extension.
    Everything prints with 17 significant digits; output is
    byte-reproducible for identical runs.
    """
    OutputConfig(out_dir, mode)  # an unknown mode raises before anything is written
    os.makedirs(out_dir, exist_ok=True)
    coords = field.plan.masks[0].grid.node_coords()
    dim = coords.shape[1]
    header = "# t x" + (" y" if dim == 2 else "") + " u active u_ext"
    row = " ".join(["%.17g"] * (dim + 2) + ["%d", "%.17g"]) + "\n"  # np.savetxt's row format
    paths = []
    manifest_rows = []
    for j, i in enumerate(_selected_stamps(field, mode)):
        mask = field.mask_at(i)
        flags = np.where(mask.active.ravel(), 1, np.where(mask.ghost.ravel(), 0, -1))
        t = float(field.times[i])
        table = np.column_stack(
            [np.full(len(coords), t), coords, field.frames[i].ravel(), flags,
             field.extended_frame(i).ravel()]
        )
        name = f"frame_{j:05d}.txt"
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for block in np.split(table, range(1024, len(table), 1024)):  # bounded memory
                fh.write(row * len(block) % tuple(block.ravel().tolist()))
        paths.append(path)
        manifest_rows.append(f"{j} {int(field.slice_index[i])} {t:.17g} {name}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"scenario_hash {scenario_digest or 'unknown'}\n")
        fh.write(f"delta {field.plan.delta:.17g}\n")
        fh.write("knots " + " ".join(f"{k:.17g}" for k in field.plan.knots) + "\n")
        fh.write("frames:\n")
        for row in manifest_rows:
            fh.write(row + "\n")
    paths.append(manifest)
    return paths
