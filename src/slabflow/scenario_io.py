"""Scenario text files: loading, validation, canonical printing, output.

The format is INI-like with six sections::

    [grid]    dim, xmin, xmax, h          (+ ymin, ymax when dim = 2)
    [time]    T, slices, substeps
    [domain]  type = implicit (phi, jumps?) | moving_intervals (left, right, jumps?)
    [flux]    type, p, eps_reg?, c?, alpha?, b?, d?, C_z?, omega?; custom adds a1 .. a<dim>, needs c, alpha
    [data]    u0, psi, source?
    [output]  dir, frames?

'#' starts a comment, values may be double-quoted, unknown sections or
keys are errors (one per unknown section, whose keys are skipped), and so
is a known key that the scenario's dim or type does not read (ymin in 1D,
a2 on a 1D flux, a1 on a builtin kind), one issue naming its line.  Loading
reads every key it can reach through one rule, builds each part through its
own constructor (which holds that part's rules) and raises a single
:class:`ScenarioError` listing every problem found.

A domain is a level set phi(t, x[, y]) <= 0, met on the grid box, with
``jumps = "t: phi; ..."`` starting a new phi at each t.  ``type =
moving_intervals`` is input only: its interval [left, right] (and each
``t: left, right`` jump) compiles to phi = max(left - x, x - right), and
the canonical text prints that compiled form.
"""

import hashlib
import itertools
import os

import numpy as np

from .errors import GeometryError, NumericEvalError, ScenarioError, SlabflowError
from .expressions import Num, parse_expr, parse_exprs, to_source
from .flux import FluxModel
from .geometry import Grid, TimeDomain, build_slice_plan, interval_phi
from .slice_solver import on_points
from .stitcher import OutputConfig, Scenario, count_issues

_SECTIONS = {
    "grid": {"dim", "xmin", "xmax", "ymin", "ymax", "h"},
    "time": {"T", "slices", "substeps"},
    "domain": {"type", "left", "right", "jumps", "phi"},
    "flux": {"type", "p", "eps_reg", "a1", "a2", "c", "alpha", "b", "d", "C_z", "omega"},
    "data": {"u0", "psi", "source"},
    "output": {"dir", "frames"},
}
_REQUIRED_SECTIONS = ("grid", "time", "domain", "flux", "data", "output")
# [flux] key -> FluxModel field of each number constant; a builtin kind has its own
_FLUX_CONSTANTS = {"c": "growth_c", "alpha": "coercivity_alpha", "b": "lower_b", "d": "lower_d",
                   "C_z": "z_lipschitz"}


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
    current = None  # the section being read; "" in an unknown one, whose keys its issue covers
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                issues.append(f"line {no}: unknown section [{current}]")
                current = ""
            elif current in sections:
                issues.append(f"line {no}: duplicate section [{current}]")
            else:
                sections[current] = {}
            continue
        if "=" not in line:
            issues.append(f"line {no}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            issues.append(f"line {no}: key outside any section")
            continue
        if not current:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            issues.append(f"[{current}] line {no}: unknown key {key!r}")
            continue
        if key in sections[current]:
            issues.append(f"[{current}] line {no}: duplicate key {key!r}")
            continue
        sections[current][key] = (_unquote(value), no)
    return sections


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _integer(text):
    value = _finite(text)
    if value != int(value):
        raise ValueError(text)
    return int(value)


class _SectionReader:
    def __init__(self, name, entries, issues):
        self.name = name
        self.entries = dict(entries)
        self.issues = issues

    def take(self, key, conv=str, kind=None, required=True, default=None):
        """The value of ``key`` through ``conv``; a missing required key, or a
        value ``conv`` refuses, is one issue and gives ``default``."""
        if key not in self.entries:
            if required:
                self.issues.append(f"[{self.name}] missing required key {key!r}")
            return default
        value, line = self.entries.pop(key)
        try:
            return conv(value)
        except ValueError:
            self.issues.append(f"[{self.name}] line {line}: {key!r} must be {kind}, got {value!r}")
        except SlabflowError as exc:
            self.issues.append(f"[{self.name}] line {line} ({key}): {exc}")
        return default

    def number(self, key, required=True, default=None):
        return self.take(key, _finite, "a finite number", required, default)

    def integer(self, key, required=True, default=None):
        return self.take(key, _integer, "an integer", required, default)

    def expression(self, key, variables, required=True, default=None):
        return self.take(key, lambda text: parse_expr(text, variables), "an expression", required, default)

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

    # ---- grid: a dim-D box read axis by axis
    g = _SectionReader("grid", sections["grid"], issues)
    dim = g.integer("dim")
    if dim not in Grid.DIMS:
        _build(issues, "grid", lambda: Grid.check_dim(dim))
        dim = 1
    axes = tuple("xy"[:dim])
    spans = [(g.number(f"{a}min"), g.number(f"{a}max")) for a in axes]
    h = g.number("h")
    g.reject_leftovers("only valid when dim = 2")
    txy = ("t", *axes)  # the variables of the data and of a domain's phi

    grid = None
    if not issues:
        counts, origin = [], []
        for lo, hi in spans:
            if hi <= lo:
                issues.append(f"[grid] axis range [{lo}, {hi}] is empty")
                break
            n = (hi - lo) / h if h > 0 else 0.0  # Grid rejects the spacing
            if not np.isfinite(n):
                issues.append(f"[grid] h={h} gives no finite cell count on [{lo}, {hi}]")
                break
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

    # ---- domain: every type compiles to level-set segments (start, phi)
    d = _SectionReader("domain", sections["domain"], issues)
    dom_type = d.take("type")
    domain = None
    forms = {  # type -> (dimension, keys of one segment, their variables, the segment's phi)
        "implicit": (dim, ("phi",), txy, lambda phi: phi),
        "moving_intervals": (1, ("left", "right"), ("t",), interval_phi),
    }
    if dom_type in forms:
        dom_dim, keys, variables, compile_phi = forms[dom_type]
        first = [d.expression(key, variables) for key in keys]
        jumps_raw = d.take("jumps", required=False, default="")
        d.reject_leftovers(f"not read by type = {dom_type}")
        segments = [(0.0, compile_phi(*first))] if None not in first else []
        for piece in filter(None, (entry.strip() for entry in jumps_raw.split(";"))):
            when, colon, values = piece.partition(":")
            try:
                if not colon:
                    raise ValueError(f"expected the form 't: {', '.join(keys)}'")
                exprs = parse_exprs(values, len(keys), variables)
                segments.append((float(when), compile_phi(*exprs)))
            except (ValueError, SlabflowError) as exc:
                issues.append(f"[domain] bad jump entry {piece!r}: {exc}")
        if segments and horizon is not None:
            domain = _build(issues, "domain", lambda: TimeDomain(horizon, dom_dim, tuple(segments)))
    elif dom_type is not None:
        issues.append(f"[domain] unknown domain type {dom_type!r}, "
                      f"expected one of {', '.join(forms)}")

    # ---- flux: a custom flux reads one component a1 ... a_dim and gives c, alpha
    fsec = _SectionReader("flux", sections["flux"], issues)
    flux_type = fsec.take("type")
    p = fsec.number("p")
    eps_reg = fsec.number("eps_reg", required=False)
    custom = flux_type == "custom"
    comps = [fsec.expression(f"a{i}", ("t", "x", "y", "z", "xi1", "xi2"))
             for i in range(1, dim + 1)] if custom else []
    constants = {name: fsec.number(key, required=custom and key in ("c", "alpha"))
                 for key, name in _FLUX_CONSTANTS.items()}
    constants["time_modulus"] = fsec.expression("omega", ("r",), required=False)
    flux = None
    if flux_type in FluxModel.KINDS:
        fsec.reject_leftovers(f"not read by a {dim}D {flux_type} flux")
        needed = (p, *comps, constants["growth_c"], constants["coercivity_alpha"]) if custom else (p,)
        if None not in needed:
            flux = _build(issues, "flux", lambda: FluxModel(
                flux_type, p, dim, eps_reg, **constants, components=tuple(comps)))
    elif flux_type is not None:
        _build(issues, "flux", lambda: FluxModel.check_kind(flux_type))

    # ---- data
    data = _SectionReader("data", sections["data"], issues)
    u0 = data.expression("u0", axes, default=Num(0.0))  # a missing or bad one is already an issue
    psi = data.expression("psi", txy, default=Num(0.0))
    source = data.expression("source", txy, required=False, default=Num(0.0))

    # ---- output
    out = _SectionReader("output", sections["output"], issues)
    out_dir = out.take("dir")
    frames_mode = out.take("frames", required=False, default="knots")
    output = (_build(issues, "output", lambda: OutputConfig(out_dir, frames_mode))
              if out_dir is not None else None)  # a missing dir is an issue already

    if None in (grid, domain, flux, n_slices, substeps):  # each is an issue already
        issues += count_issues(n_slices, substeps)
    else:
        scenario = _build(issues, "scenario", lambda: Scenario(
            grid=grid, domain=domain, n_slices=n_slices, substeps=substeps, flux=flux,
            psi=psi, u0=u0, source=source, output=output))

    # ---- cross-cutting eager checks
    if not issues:
        try:
            plan = build_slice_plan(domain, grid, n_slices)
        except GeometryError as exc:
            issues.append(f"geometry: {exc}")
        else:
            try:
                on_points(u0, plan.masks[0].active_points())(0.0)
            except NumericEvalError as exc:
                issues.append(f"[data] u0 does not evaluate on the initial section: {exc}")
            psi_on_nodes = on_points(psi, grid.node_coords())
            for t in plan.knots:
                try:
                    psi_on_nodes(float(t))
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
    except (OSError, UnicodeDecodeError) as exc:
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

    lines += ["", "[time]", f"T = {_fmt(scenario.domain.horizon)}", f"slices = {scenario.n_slices}",
              f"substeps = {scenario.substeps}"]

    dom = scenario.domain
    lines += ["", "[domain]", "type = implicit", f'phi = "{to_source(dom.segments[0][1])}"']
    if len(dom.segments) > 1:
        jumps = "; ".join(f"{_fmt(start)}: {to_source(phi)}" for start, phi in dom.segments[1:])
        lines.append(f'jumps = "{jumps}"')

    flux = scenario.flux
    lines += ["", "[flux]", f"type = {flux.kind}", f"p = {_fmt(flux.p)}"]
    lines.append(f"eps_reg = {_fmt(flux.eps_reg)}")
    lines += [f'a{i} = "{to_source(c)}"' for i, c in enumerate(flux.components, start=1)]
    own = FluxModel(flux.kind, flux.p, flux.dim, components=flux.components)  # the kind's constants
    for key, name in _FLUX_CONSTANTS.items():
        if flux.kind == "custom" or getattr(flux, name) != getattr(own, name):  # a builtin's where it differs
            lines.append(f"{key} = {_fmt(getattr(flux, name))}")
    if flux.time_modulus is not None:
        lines.append(f'omega = "{to_source(flux.time_modulus)}"')

    lines += ["", "[data]"]
    lines += [f'{key} = "{to_source(getattr(scenario, key))}"' for key in ("u0", "psi", "source")]

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


def make_output_dir(path):
    """Make the directory ``path`` and its missing parents; -> the directories
    made, ``path`` first.  Raises SlabflowError naming ``path`` if it cannot."""
    made, missing = [], os.path.abspath(path)
    while not os.path.exists(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SlabflowError(f"cannot create output directory {path!r}: {exc}") from exc
    return made


def _write_text(path, chunks):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise SlabflowError(f"cannot write output file {path!r}: {exc}") from exc
    return path


def write_frames(field, out_dir, mode="knots", scenario_digest=""):
    """Write one text file per selected stamp plus a manifest.

    Columns: t, x (and y in 2D), u (NaN outside active + ghost), the
    active flag (1 active / 0 ghost / -1 outside) and the total extension.
    Everything prints with 17 significant digits; output is
    byte-reproducible for identical runs.  A file that cannot be written
    raises SlabflowError naming it.
    """
    OutputConfig(out_dir, mode)  # a bad directory or mode raises before anything is written
    make_output_dir(out_dir)
    coords = field.plan.masks[0].grid.node_coords()
    dim = coords.shape[1]
    header = f"# t {' '.join('xy'[:dim])} u active u_ext\n"
    row = " ".join(["%.17g"] * (dim + 2) + ["%d", "%.17g"]) + "\n"  # np.savetxt's row format
    paths = []
    manifest = [f"scenario_hash {scenario_digest or 'unknown'}\n", f"delta {field.plan.delta:.17g}\n",
                "knots " + " ".join(f"{k:.17g}" for k in field.plan.knots) + "\n", "frames:\n"]
    for j, i in enumerate(_selected_stamps(field, mode)):
        mask = field.mask_at(i)
        flags = np.where(mask.active.ravel(), 1, np.where(mask.ghost.ravel(), 0, -1))
        t = float(field.times[i])
        table = np.column_stack([np.full(len(coords), t), coords, field.frames[i].ravel(), flags,
                                 field.extended_frame(i).ravel()])
        blocks = np.split(table, range(1024, len(table), 1024))  # bounded memory
        name = f"frame_{j:05d}.txt"
        paths.append(_write_text(os.path.join(out_dir, name), itertools.chain(
            [header], (row * len(block) % tuple(block.ravel().tolist()) for block in blocks))))
        manifest.append(f"{j} {int(field.slice_index[i])} {t:.17g} {name}\n")
    paths.append(_write_text(os.path.join(out_dir, "manifest.txt"), manifest))
    return paths
