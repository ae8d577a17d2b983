"""Scenario files: parsing, validation, canonical printing, frame output."""

import dataclasses
import hashlib
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import disk_jump_text
from slabflow import (
    FluxModel,
    Grid,
    Num,
    OutputConfig,
    Scenario,
    ScenarioError,
    SlabflowError,
    SliceProblem,
    TimeDomain,
    build_slice_plan,
    bundled_scenario_paths,
    check_structure,
    format_scenario,
    interval_phi,
    load_scenario,
    parse_expr,
    parse_scenario_text,
    refinement_study,
    run_scheme,
    scenario_hash,
    write_frames,
)

MINIMAL = """\
[grid]
dim = 1
xmin = -0.125
xmax = 1.125
h = 0.03125

[time]
T = 0.1
slices = 2
substeps = 10

[domain]
type = moving_intervals
left = "0"
right = "1"

[flux]
type = linear_diffusion
p = 2

[data]
u0 = "sin(pi*x)"
psi = "0"

[output]
dir = out/minimal
"""


def test_minimal_scenario_defaults():
    scen = parse_scenario_text(MINIMAL)
    assert scen.grid.dim == 1
    assert scen.grid.counts == (40,)
    assert scen.n_slices == 2
    assert scen.flux.kind == "linear_diffusion"
    assert scen.flux.eps_reg == 0.0  # the linear model needs no smoothing
    assert scen.source == Num(0.0)
    assert scen.output.frames_mode == "knots"
    assert scen.output.directory == "out/minimal"


def test_comments_and_quotes_are_tolerated():
    text = MINIMAL.replace('u0 = "sin(pi*x)"', 'u0 = "sin(pi*x)"  # initial hump')
    scen = parse_scenario_text(text)
    assert scen.u0 == parse_scenario_text(MINIMAL).u0


def test_small_p_names_the_key():
    text = MINIMAL.replace("type = linear_diffusion\np = 2", "type = p_laplacian\np = 0.5")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    combined = str(err.value)
    assert "p must exceed 1" in combined
    assert "[flux]" in combined


def test_unknown_key_reports_section_and_line():
    text = MINIMAL.replace('psi = "0"', 'psi = "0"\nsourc = "0"')
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    (issue,) = err.value.issues
    assert "[data]" in issue
    assert "sourc" in issue
    assert "line" in issue


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL + "\n[extras]\nfoo = 1\n")
    assert any("extras" in issue for issue in err.value.issues)


@pytest.mark.parametrize(
    "edit,issue",
    [
        (("[time]", "[grid]\n[time]"), "line 7: duplicate section [grid]"),
        (("T = 0.1", "T = 0.1\nT"), "line 9: expected 'key = value', got 'T'"),
    ],
    ids=["duplicate_section", "line_without_equals"],
)
def test_malformed_lines_are_issues(edit, issue):
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL.replace(*edit))
    assert issue in err.value.issues


def test_duplicate_key_rejected():
    text = MINIMAL.replace("T = 0.1", "T = 0.1\nT = 0.2")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("duplicate" in issue for issue in err.value.issues)


def test_missing_section_rejected():
    text = MINIMAL.replace("[output]\ndir = out/minimal\n", "")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("[output]" in issue for issue in err.value.issues)


def test_multiple_issues_consolidated():
    text = (
        MINIMAL.replace("dim = 1", "dim = 7")
        .replace("slices = 2", "slices = 0")
        .replace("substeps = 10", "substeps = -3")
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert len(err.value.issues) >= 3


def test_bad_expression_names_section_and_key():
    text = MINIMAL.replace('u0 = "sin(pi*x)"', 'u0 = "sin(pi*q)"')
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    (issue,) = err.value.issues
    assert "[data]" in issue and "u0" in issue


def test_geometry_problems_surface_at_load_time():
    text = MINIMAL.replace("xmin = -0.125", "xmin = 0.0").replace("xmax = 1.125", "xmax = 1.0")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("margin" in issue for issue in err.value.issues)


def test_unevaluable_initial_datum_caught():
    text = MINIMAL.replace('u0 = "sin(pi*x)"', 'u0 = "sqrt(x - 0.5)"')
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("u0" in issue for issue in err.value.issues)


def test_unevaluable_boundary_datum_caught():
    """psi is read at every knot of the plan; heat_fixed has one at t = 0.05."""
    text = open(bundled_scenario_paths()["heat_fixed"]).read().replace('psi = "0"', 'psi = "1/(t - 0.05)"')
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert len(err.value.issues) == 1
    assert err.value.issues[0].startswith("[data] psi does not evaluate at t=0.05: ")


def test_spacing_must_divide_the_box():
    text = MINIMAL.replace("h = 0.03125", "h = 0.03")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("divide" in issue for issue in err.value.issues)


def test_jumps_are_parsed():
    text = (
        MINIMAL.replace('right = "1"', 'right = "1"\njumps = "0.05: 0, 1.5"')
        .replace("xmax = 1.125", "xmax = 1.75")
        .replace("xmin = -0.125", "xmin = -0.25")
    )
    scen = parse_scenario_text(text)
    assert scen.domain.jump_times() == (0.05,)


def test_jump_endpoints_are_full_expressions():
    jumps = 'jumps = "0.05: max(t, 0.1) - 0.1, min(1 + t, 0.9)"'
    scen = parse_scenario_text(MINIMAL.replace('right = "1"', f'right = "1"\n{jumps}'))
    start, phi = scen.domain.segments[1]
    assert start == 0.05
    assert phi == interval_phi(parse_expr("max(t, 0.1) - 0.1", ("t",)),
                               parse_expr("min(1 + t, 0.9)", ("t",)))


def test_code_built_jump_endpoints_round_trip():
    base = parse_scenario_text(MINIMAL)
    jump = (0.05, interval_phi(parse_expr("max(0, t - 0.05)", ("t",)), Num(0.9)))
    scen = dataclasses.replace(base, domain=dataclasses.replace(
        base.domain, segments=(*base.domain.segments, jump)))
    assert parse_scenario_text(format_scenario(scen)) == scen


def test_jump_entry_without_colon_names_its_form():
    text = MINIMAL.replace('right = "1"', 'right = "1"\njumps = "0.05 0, 1"')
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    (issue,) = err.value.issues
    assert issue.startswith("[domain] bad jump entry") and "'t: left, right'" in issue


def test_jump_time_outside_horizon_rejected():
    text = MINIMAL.replace('right = "1"', 'right = "1"\njumps = "0.5: 0, 1"')
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("jump" in issue for issue in err.value.issues)


@pytest.mark.parametrize(
    "domain",
    ['type = moving_intervals\nleft = "0"\nright = "1"\njumps = "0.5: 0, 1"',
     'type = implicit\nphi = "x*(x - 1)"\njumps = "0.5: x*(x - 1)"'],
    ids=["moving_intervals", "implicit"],
)
def test_a_broken_grid_spacing_does_not_hide_the_domain_issues(domain):
    """The domain is built from its own keys and T, whatever the grid, so
    one ScenarioError lists the grid and the jump-time issues."""
    text = MINIMAL.replace("h = 0.03125", "h = 0.03").replace(
        'type = moving_intervals\nleft = "0"\nright = "1"', domain)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.issues == ["[grid] h=0.03 must evenly divide [-0.125, 1.125]",
                                "[domain] jump times must increase strictly inside (0, T): [0.5]"]


def test_a_broken_grid_range_does_not_hide_the_domain_issues():
    """A reversed axis range gives no box at all; the domain needs none."""
    with open(bundled_scenario_paths()["heat_fixed"], encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("xmin = -0.125\nxmax = 1.125", "xmin = 1.125\nxmax = -0.125"),
                     ('right = "1"', 'right = "1"\njumps = "0.5: 0, 1"')):
        assert old in text, old
        text = text.replace(old, new)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.issues == ["[grid] axis range [1.125, -0.125] is empty",
                                "[domain] jump times must increase strictly inside (0, T): [0.5]"]


def _heat(**change):
    return lambda: dataclasses.replace(parse_scenario_text(MINIMAL), **change)


def _jumps_at(*starts, horizon=0.1):
    segments = tuple((t, interval_phi(Num(0.0), Num(1.0))) for t in (0.0, *starts))
    return lambda: TimeDomain(horizon, 1, segments)


CUSTOM_2D_FLUX = 'type = custom\np = 2\na1 = "xi1"\na2 = "xi2"\nc = 1\nalpha = 1'
CUSTOM_XI = parse_expr("xi1", ("t", "x", "y", "z", "xi1", "xi2"))


def _custom_flux(line):
    """The 1D custom flux A = xi with c = alpha = 1, one line of constants changed."""
    key = line.split(" =")[0]
    consts = {"c": "c = 1", "alpha": "alpha = 1", key: line}
    text = 'type = custom\np = 2\na1 = "xi1"\n' + "\n".join(consts.values())
    return ("type = linear_diffusion\np = 2", text)


@pytest.mark.parametrize(
    "build,edit,section,key",
    [
        (lambda: OutputConfig("out", frames_mode="bogus"),
         ("dir = out/minimal", "dir = out/minimal\nframes = bogus"), "[output]", "frames"),
        (lambda: OutputConfig(""), ("dir = out/minimal", 'dir = ""'), "[output]", "dir must name a directory"),
        (lambda: FluxModel("linear_diffusion", 3.0), ("p = 2", "p = 3"), "[flux]", "p = 2"),
        (lambda: FluxModel("linear_diffusion", 2.0, eps_reg=1e-8), ("p = 2", "p = 2\neps_reg = 1e-8"),
         "[flux]", "eps_reg = 0"),
        (lambda: FluxModel.custom([CUSTOM_XI, CUSTOM_XI], 2.0), ("type = linear_diffusion\np = 2", CUSTOM_2D_FLUX),
         "[flux]", "a2"),
        (_jumps_at(0.0), ('right = "1"', 'right = "1"\njumps = "0: 0, 1"'), "[domain]", "jump"),
        (_jumps_at(0.1), ('right = "1"', 'right = "1"\njumps = "0.1: 0, 1"'), "[domain]", "jump"),
        (_heat(n_slices=0), ("slices = 2", "slices = 0"), "[time]", "slices"),
        (_heat(substeps=0), ("substeps = 10", "substeps = 0"), "[time]", "substeps"),
        (_heat(flux=FluxModel.p_laplacian(3.0, dim=2)),
         ("type = linear_diffusion\np = 2", CUSTOM_2D_FLUX), "[flux]", "a2"),
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(np.nan,), counts=(4,)),
         ("h = 0.03125", "h = nan"), "[grid]", "'h'"),
        (lambda: FluxModel.p_laplacian(3.0, eps_reg=np.nan),
         ("type = linear_diffusion\np = 2", "type = p_laplacian\np = 3\neps_reg = nan"), "[flux]",
         "eps_reg"),
        (lambda: Grid(dim=3, origin=(0.0,) * 3, spacing=(0.5,) * 3, counts=(4,) * 3),
         ("dim = 1", "dim = 3"), "[grid]", "dim must be 1 or 2, got 3"),
        (lambda: FluxModel.p_laplacian(3.0, dim=3), ("dim = 1", "dim = 3"), "[grid]",
         "dim must be 1 or 2, got 3"),
        (lambda: FluxModel("parabolic", 2.0), ("type = linear_diffusion", "type = parabolic"),
         "[flux]", "unknown flux kind 'parabolic', expected one of p_laplacian, linear_diffusion, "
         "z_modulated, custom"),
        *[
            (lambda kw=kw: FluxModel.custom([CUSTOM_XI], 2.0, **kw), _custom_flux(line), "[flux]", key)
            for kw, line, key in (
                ({"growth_c": np.nan}, "c = -1", "growth_c"),
                ({"growth_c": 0.0}, "c = 0", "growth_c"),
                ({"coercivity_alpha": np.nan}, "alpha = -1", "coercivity_alpha"),
                ({"lower_b": -1.0}, "b = -1", "lower_b"),
                ({"lower_d": np.nan}, "d = -0.5", "lower_d"),
                ({"z_lipschitz": -1.0}, "C_z = -2", "z_lipschitz"),
                ({"growth_c": np.inf}, "c = inf", "'c'"),
                ({"coercivity_alpha": np.inf}, "alpha = inf", "'alpha'"),
                ({"lower_b": np.inf}, "b = inf", "'b'"),
                ({"lower_d": np.inf}, "d = inf", "'d'"),
                ({"z_lipschitz": np.inf}, "C_z = inf", "'C_z'"),
            )
        ],
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(0.5,), counts=(np.inf,)),
         ("xmax = 1.125", "xmax = inf"), "[grid]", "'xmax'"),
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(0.5,), counts=(np.nan,)),
         ("xmax = 1.125", "xmax = nan"), "[grid]", "'xmax'"),
        (lambda: Grid(dim=1, origin=(-np.inf,), spacing=(0.5,), counts=(4,)),
         ("xmin = -0.125", "xmin = -inf"), "[grid]", "'xmin'"),
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(np.inf,), counts=(4,)),
         ("h = 0.03125", "h = inf"), "[grid]", "'h'"),
        (_jumps_at(horizon=np.inf), ("T = 0.1", "T = inf"), "[time]", "'T'"),
        (lambda: FluxModel.p_laplacian(np.inf),
         ("type = linear_diffusion\np = 2", "type = p_laplacian\np = inf"), "[flux]", "'p'"),
        (lambda: FluxModel.p_laplacian(3.0, eps_reg=np.inf),
         ("type = linear_diffusion\np = 2", "type = p_laplacian\np = 3\neps_reg = inf"), "[flux]",
         "eps_reg"),
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(1e-320,), counts=(125 * 10**318,)),
         ("h = 0.03125", "h = 1e-320"), "[grid]", "h=1e-320 gives no finite cell count"),
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(1e-200,), counts=(round(1.25e200),)),
         ("h = 0.03125", "h = 1e-200"), "[grid]", "fine samples per section"),
        (lambda: Grid(dim=1, origin=(0.0,), spacing=(1e-9,), counts=(1250000000,)),
         ("h = 0.03125", "h = 1e-9"), "[grid]", "5.00e+9 fine samples per section"),
    ],
    ids=[
        "frames_mode", "empty_dir", "linear_diffusion_p3",
        "linear_diffusion_eps_reg", "custom_flux_components",
        "jump_at_zero", "jump_at_horizon", "zero_slices", "zero_substeps", "2d_flux_on_1d_grid",
        "nan_spacing", "nan_eps_reg", "grid_dim_3", "flux_dim_3", "flux_kind",
        "growth_c_nan", "growth_c_zero", "coercivity_alpha_nan",
        "lower_b_negative", "lower_d_nan", "z_lipschitz_negative", "growth_c_inf",
        "coercivity_alpha_inf", "lower_b_inf", "lower_d_inf", "z_lipschitz_inf",
        "counts_inf", "counts_nan", "origin_inf", "spacing_inf", "horizon_inf", "p_inf",
        "eps_reg_inf", "spacing_1e-320", "spacing_1e-200", "spacing_1e-9",
    ],
)
def test_code_built_and_loaded_settings_pass_the_same_rules(build, edit, section, key):
    """Each rule lives in the constructor of the type holding the value: a
    code-built object raises at construction, and the loader reports the
    same rule as an issue naming its section and key."""
    with pytest.raises(SlabflowError):
        build()
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL.replace(*edit))
    assert any(issue.startswith(section) and key in issue for issue in err.value.issues)


@pytest.mark.parametrize(
    "build,key",
    [
        (lambda: Grid(dim=1, origin=(-0.125,), spacing=(0.03125,), counts=(40.0,)), "counts"),
        (lambda: Grid(dim=1.0, origin=(-0.125,), spacing=(0.03125,), counts=(40,)), "dim"),
        (lambda: FluxModel.linear_diffusion(dim=1.0), "dim"),
        (lambda: TimeDomain(0.1, 1.0, ((0.0, interval_phi(Num(0.0), Num(1.0))),)), "dim"),
        (_heat(substeps=2.0), "substeps"),
        (_heat(n_slices=2.0), "slices"),
        (lambda: refinement_study(_heat()(), levels=2.0), "levels"),
        (lambda: check_structure(FluxModel.linear_diffusion(), samples=100.0), "samples"),
        (lambda: check_structure(FluxModel.linear_diffusion(), samples=0), "samples"),
        (lambda: check_structure(FluxModel.linear_diffusion(), seed=-1), "seed"),
        (lambda: build_slice_plan(_jumps_at()(), Grid(dim=1, origin=(-0.125,), spacing=(0.03125,), counts=(40,)), 0),
         "n_slices"),
    ],
    ids=["grid_counts", "grid_dim", "flux_dim", "domain_dim", "substeps", "slices", "study_levels",
         "structure_samples", "structure_zero_samples", "structure_seed", "plan_zero_slices"],
)
def test_integer_settings_built_in_code_must_be_integers(build, key):
    """An integral float passed every constructor and then raised a bare
    TypeError in the run (``n_slices`` and the domain's ``dim`` ran); each
    integer setting now takes one rule at construction, and each
    integer argument of a library call the same rule when it is called."""
    with pytest.raises(SlabflowError, match=f"{key} must be"):
        build()


def test_unknown_domain_type_is_an_issue():
    """A file's domain type is input syntax only: every type compiles to the
    one level-set model, so the loader alone names an unknown type."""
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL.replace("type = moving_intervals", "type = cone"))
    assert err.value.issues == [
        "[domain] unknown domain type 'cone', expected one of implicit, moving_intervals"]


def test_moving_intervals_are_one_dimensional():
    text = MINIMAL.replace("dim = 1", "dim = 2").replace("h = ", "ymin = -0.125\nymax = 1.125\nh = ")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.issues == ["[domain] a 1D domain cannot run on a 2D grid"]


def test_a_solver_section_is_one_unknown_section_issue():
    """Newton's tolerance and budget are solver constants, so the [solver]
    section that once set them is unknown; its keys are not issues of their own."""
    text = MINIMAL + "\n[solver]\nnewton_tol = 1e-10\nmax_newton = 50\nmax_picard = 200\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.issues == ["line 28: unknown section [solver]"]


def test_dim2_requires_y_range():
    text = MINIMAL.replace("dim = 1", "dim = 2")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("ymin" in issue for issue in err.value.issues)


def test_y_range_forbidden_in_1d():
    text = MINIMAL.replace("h = 0.03125", "ymin = 0\nymax = 1\nh = 0.03125")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert any("ymin" in issue for issue in err.value.issues)


@pytest.mark.parametrize("edit,issue", [
    (("h = 0.03125", "ymin = 0\nh = 0.03125"), "[grid] line 5: key 'ymin' is only valid when dim = 2"),
    (("type = linear_diffusion\np = 2", 'type = custom\np = 2\na1 = "xi1"\na2 = "xi2"\nc = 1\nalpha = 1'),
     "[flux] line 21: key 'a2' is not read by a 1D custom flux"),
    (("p = 2", 'p = 2\na1 = "xi1"'), "[flux] line 20: key 'a1' is not read by a 1D linear_diffusion flux"),
    (('right = "1"', 'right = "1"\nphi = "x"'), "[domain] line 16: key 'phi' is not read by type = moving_intervals"),
    (('type = moving_intervals\nleft = "0"\nright = "1"', 'type = implicit\nphi = "x*(x - 1)"\nleft = "0"'),
     "[domain] line 15: key 'left' is not read by type = implicit"),
], ids=["ymin_in_1d", "a2_on_1d_custom", "a1_on_builtin", "phi_under_moving_intervals", "left_under_implicit"])
def test_a_misplaced_key_is_one_issue_naming_section_line_and_key(edit, issue):
    """A key the format knows but this scenario's dim or type does not read
    is left over after every read, and the section reports it once."""
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL.replace(*edit))
    assert err.value.issues == [issue]


# --- canonical form ----------------------------------------------------------


def test_the_readme_example_loads_to_its_printed_domain():
    """The README's scenario-file example loads, and its second ini block is
    the [domain] section of the example's canonical text."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example, domain = re.findall(r"```ini\n(.*?)```", readme, re.S)
    canon = format_scenario(parse_scenario_text(example))
    assert domain.strip() in canon.split("\n\n")


def test_canonical_round_trip_is_stable():
    scen = parse_scenario_text(MINIMAL)
    canon = format_scenario(scen)
    again = parse_scenario_text(canon)
    assert format_scenario(again) == canon
    assert scenario_hash(scen) == scenario_hash(again)
    assert again.grid == scen.grid
    assert again.u0 == scen.u0
    assert again.psi == scen.psi
    assert again.source == scen.source


ROUND_TRIP_TEXTS = {**bundled_scenario_paths(), "disk_jump": None, "disk2d_custom": None}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_TEXTS))
def test_canonical_round_trip_keeps_the_hash(name):
    """format -> parse keeps the scenario and its hash: the 1D files print
    their compiled level sets, the 2D jump file its declared jump, a 2D
    custom flux both components and its time modulus."""
    if name == "disk_jump":
        scen = parse_scenario_text(disk_jump_text(0.5, 0.8))
        assert scen.domain.jump_times() == (0.5,)
    elif name == "disk2d_custom":
        comps = [parse_expr(a, ("t", "x", "y", "z", "xi1", "xi2")) for a in ("xi1 + 0.5*xi2", "0.5*xi1 + xi2")]
        flux = FluxModel.custom(comps, 2.0, dim=2, time_modulus=parse_expr("r", ("r",)))
        scen = dataclasses.replace(load_scenario(ROUND_TRIP_TEXTS["disk2d"]), flux=flux)
    else:
        scen = load_scenario(ROUND_TRIP_TEXTS[name])
    again = parse_scenario_text(format_scenario(scen))
    assert again == scen
    assert scenario_hash(again) == scenario_hash(scen)


FLUX_VARS = ("t", "x", "y", "z", "xi1", "xi2")


@st.composite
def _scenarios(draw):
    """Scenarios built in code: a moving interval (1D) or disk (2D) with up
    to two jumps inside the grid's margin, a builtin flux with drawn
    constants or a custom one, and drawn data and output settings."""
    dim = draw(st.sampled_from([1, 2]))
    horizon = draw(st.sampled_from([0.2, 0.4]))
    starts = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), max_size=2, unique=True))
    if dim == 1:  # box [-1, 2]; a node within two cells of its ends fails the margin
        grid = Grid(dim=1, origin=(-1.0,), spacing=(0.125,), counts=(24,))
        ends = st.tuples(st.sampled_from(["-0.5", "0", "0.25*t"]), st.sampled_from(["1", "1.25 - 0.5*t", "1 + t"]))
        phis = [interval_phi(*(parse_expr(e, ("t",)) for e in draw(ends))) for _ in range(len(starts) + 1)]
    else:  # box [-1.5, 1.5]^2: a disk of radius at most 0.75 about a centre within 0.14 of 0
        grid = Grid(dim=2, origin=(-1.5, -1.5), spacing=(0.25, 0.25), counts=(12, 12))
        disk = st.builds("(x - {})^2 + (y - {})^2 - {}^2".format, st.sampled_from(["0", "0.125", "0.25*t"]),
                         st.sampled_from(["0", "0.1*t"]), st.sampled_from(["0.6", "0.75", "0.7 - 0.25*t"]))
        phis = [parse_expr(draw(disk), ("t", "x", "y")) for _ in range(len(starts) + 1)]
    domain = TimeDomain(horizon, dim, tuple(zip((0.0, *(f * horizon for f in sorted(starts))), phis)))
    kind = draw(st.sampled_from(FluxModel.KINDS))
    constants = {
        key: draw(st.sampled_from([None, *values])) for key, values in (
            ("growth_c", (0.5, 2.0)), ("coercivity_alpha", (0.25, 1.0)), ("lower_b", (0.5,)),
            ("lower_d", (1.0,)), ("z_lipschitz", (0.5, 2.0)))}
    omega = draw(st.sampled_from([None, "r", "2*sqrt(r)"]))
    constants["time_modulus"] = omega and parse_expr(omega, ("r",))
    if kind == "custom":
        slopes = ["xi1", "(1 + 0.5*sin(z)^2)*xi1"] if dim == 1 else ["xi1 + 0.5*xi2", "0.5*xi1 + xi2"]
        comps = [parse_expr(draw(st.sampled_from(slopes)), FLUX_VARS) for _ in range(dim)]
        flux = FluxModel.custom(comps, draw(st.sampled_from([1.5, 2.0, 3.0])), dim, **constants)
    elif kind == "linear_diffusion":
        flux = FluxModel(kind, 2.0, dim, **constants)
    else:
        flux = FluxModel(kind, draw(st.sampled_from([1.5, 3.0])), dim, draw(st.sampled_from([None, 1e-6])),
                         **constants)
    space, txy = ("x", "y")[:dim], ("t", "x", "y")[:dim + 1]
    return Scenario(
        grid=grid, domain=domain, n_slices=draw(st.integers(1, 3)), substeps=draw(st.integers(1, 3)),
        flux=flux, u0=parse_expr(draw(st.sampled_from(["0", "1 - x^2", "exp(-4*x^2)"])), space),
        psi=parse_expr(draw(st.sampled_from(["0", "0.25*t", "0.5"])), txy),
        source=parse_expr(draw(st.sampled_from(["0", "1 + t*x"])), txy),
        output=OutputConfig(draw(st.sampled_from(["out/a", "runs/b1"])), draw(st.sampled_from(["knots", "all"]))))


@settings(max_examples=120, deadline=None)
@given(scen=_scenarios())
def test_format_then_parse_gives_back_an_equal_scenario(scen):
    """Every drawn scenario prints to text that loads to an equal Scenario,
    whatever its dimension, domain, jumps, flux kind and constants."""
    assert parse_scenario_text(format_scenario(scen)) == scen


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind,p", [("p_laplacian", 3.0), ("linear_diffusion", 2.0), ("z_modulated", 3.0)])
def test_a_builtin_kind_is_one_flux_on_every_path(kind, p, dim):
    """FluxModel(kind, p), the kind's constructor and the loaded file give one
    flux with the kind's constants, which pass the structure check; swapped
    into a bundled file of its kind, it keeps the file's hash."""
    built = FluxModel(kind, p, dim=dim)
    by_kind = FluxModel.linear_diffusion(dim) if kind == "linear_diffusion" else getattr(FluxModel, kind)(p, dim)
    bundled = load_scenario(bundled_scenario_paths()[{1: "heat_fixed", 2: "disk2d"}[dim]])
    text = format_scenario(bundled).replace("type = linear_diffusion\np = 2.0\neps_reg = 0.0",
                                            f"type = {kind}\np = {p}")
    loaded = parse_scenario_text(text)
    assert built == by_kind == loaded.flux
    assert check_structure(built, samples=2000, seed=0).passed
    if kind == "linear_diffusion":
        assert scenario_hash(dataclasses.replace(bundled, flux=built)) == scenario_hash(bundled)


def test_a_builtin_kind_keeps_the_constants_it_is_given():
    """A builtin kind's constant given in code prints, reaches the hash and
    reloads; the same constant set in a file loads as it does in code."""
    bundled = load_scenario(bundled_scenario_paths()["zmod_fixed"])
    changed = dataclasses.replace(bundled, flux=FluxModel("z_modulated", 2.0, growth_c=2.0))
    text = format_scenario(changed)
    assert "c = 2.0" in text
    assert parse_scenario_text(text) == changed
    assert scenario_hash(changed) != scenario_hash(bundled)
    omega = parse_expr("r", ("r",))
    given = FluxModel("p_laplacian", 3.0, growth_c=2.0, lower_b=0.5, time_modulus=omega)
    with_consts = format_scenario(bundled).replace("type = z_modulated\np = 2.0",
                                                  'type = p_laplacian\np = 3\nc = 2\nb = 0.5\nomega = "r"')
    assert parse_scenario_text(with_consts).flux == given
    with pytest.raises(SlabflowError, match="p_laplacian flux needs 0 component"):
        FluxModel("p_laplacian", 3.0, components=(omega,))


def test_absent_source_has_one_spelling():
    """A code-built scenario that omits its source prints and reloads equal;
    None is not a second spelling of "no source"."""
    base = parse_scenario_text(MINIMAL)
    parts = dict(grid=base.grid, domain=base.domain, n_slices=base.n_slices,
                 substeps=base.substeps, flux=base.flux, psi=base.psi, u0=base.u0)
    scen = Scenario(**parts, output=base.output)
    assert scen.source == Num(0.0)
    assert parse_scenario_text(format_scenario(scen)) == scen
    with pytest.raises(ScenarioError) as err:
        Scenario(**parts, source=None)
    assert any(issue.startswith("[data] source") for issue in err.value.issues)
    mask = build_slice_plan(base.domain, base.grid, 1).masks[0]
    with pytest.raises(SlabflowError, match="source"):
        SliceProblem(mask=mask, flux=base.flux, span=(0.0, 0.1), substeps=1, psi=base.psi,
                     initial=np.zeros(base.grid.shape), source=None)


@pytest.mark.parametrize("key", ["u0", "psi"])
def test_data_must_be_expressions(key):
    """A code-built scenario without u0 or psi raises at construction; a file
    missing one reports that key once."""
    base = parse_scenario_text(MINIMAL)
    with pytest.raises(ScenarioError) as err:
        dataclasses.replace(base, **{key: None})
    assert err.value.issues == [f"[data] {key} must be an expression, got None"]
    line = next(line for line in MINIMAL.splitlines() if line.startswith(f"{key} ="))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL.replace(line + "\n", ""))
    assert err.value.issues == [f"[data] missing required key {key!r}"]


def test_unprintable_scenarios_raise_scenario_errors():
    disk = load_scenario(bundled_scenario_paths()["disk2d"])
    g = disk.grid
    coarse_y = dataclasses.replace(g, spacing=(g.spacing[0], 2 * g.spacing[1]),
                                   counts=(g.counts[0], g.counts[1] // 2))
    with pytest.raises(ScenarioError) as err:
        scenario_hash(dataclasses.replace(disk, grid=coarse_y))
    assert err.value.issues[0].startswith("[grid]")


def test_hash_is_sha256_of_canonical_text():
    scen = parse_scenario_text(MINIMAL)
    expected = hashlib.sha256(format_scenario(scen).encode("utf-8")).hexdigest()
    assert scenario_hash(scen) == expected


def test_round_trip_covers_jumps_and_custom_flux():
    text = """\
[grid]
dim = 1
xmin = -0.25
xmax = 1.75
h = 0.0625

[time]
T = 0.6
slices = 4
substeps = 4

[domain]
type = moving_intervals
left = "0"
right = "1"
jumps = "0.3: 0, 1.5"

[flux]
type = custom
p = 2
a1 = "(1 + 0.5*z^2/(1 + z^2))*xi1"
c = 1.5
alpha = 1
C_z = 1

[data]
u0 = "sin(pi*x)"
psi = "0"

[output]
dir = out/custom
"""
    scen = parse_scenario_text(text)
    canon = format_scenario(scen)
    again = parse_scenario_text(canon)
    assert format_scenario(again) == canon
    assert again.domain == scen.domain
    assert again.flux.components == scen.flux.components
    assert again.flux.z_lipschitz == scen.flux.z_lipschitz


# --- frame output -------------------------------------------------------------


def test_write_frames_knots_mode(tmp_path):
    scen = parse_scenario_text(MINIMAL)
    field, _ = run_scheme(scen)
    paths = write_frames(field, str(tmp_path), mode="knots",
                         scenario_digest=scenario_hash(scen))
    frame_files = [p for p in paths if "frame_" in os.path.basename(p)]
    # one per slice start plus the final time
    assert len(frame_files) == scen.n_slices + 1
    manifest = (tmp_path / "manifest.txt").read_text()
    assert scenario_hash(scen) in manifest
    assert "knots" in manifest


def test_written_frames_reproduce_field_values(tmp_path):
    scen = parse_scenario_text(MINIMAL)
    field, _ = run_scheme(scen)
    write_frames(field, str(tmp_path), mode="all")
    data = np.loadtxt(tmp_path / "frame_00000.txt")
    assert data.shape == (scen.grid.n_nodes, 5)
    mask = field.mask_at(0)
    x = scen.grid.node_coords().ravel()
    assert np.allclose(data[:, 1], x)
    active_rows = data[:, 3] == 1
    assert np.array_equal(active_rows, mask.active.ravel())
    assert np.allclose(data[active_rows, 2], field.frames[0][mask.active])
    # extension column is total: finite everywhere
    assert np.all(np.isfinite(data[:, 4]))
    # undefined nodes carry NaN in the raw-solution column
    assert np.all(np.isnan(data[data[:, 3] == -1, 2]))


def test_write_frames_rejects_an_unknown_mode(tmp_path):
    field, _ = run_scheme(parse_scenario_text(MINIMAL))
    with pytest.raises(SlabflowError, match="bogus"):
        write_frames(field, str(tmp_path / "out"), mode="bogus")
    assert not (tmp_path / "out").exists()


def test_write_frames_all_mode_counts(tmp_path):
    scen = parse_scenario_text(MINIMAL)
    field, _ = run_scheme(scen)
    paths = write_frames(field, str(tmp_path), mode="all")
    frame_files = [p for p in paths if "frame_" in os.path.basename(p)]
    assert len(frame_files) == field.n_stamps


PINNED = """\
[grid]
dim = 1
xmin = -0.25
xmax = 1.25
h = 0.125

[time]
T = 0.125
slices = 1
substeps = 1

[domain]
type = moving_intervals
left = "0"
right = "1"

[flux]
type = linear_diffusion
p = 2

[data]
u0 = "x*x"
psi = "0.25"

[output]
dir = out/pinned
"""


def test_frame_file_text_is_pinned(tmp_path):
    """Data exact in binary, so the first knot file has one right text:
    outside rows (-1) print u = nan and u_ext = psi, ghost rows (0) carry
    psi in both columns, active rows (1) carry u0 in both."""
    field, _ = run_scheme(parse_scenario_text(PINNED))
    write_frames(field, str(tmp_path), mode="knots", scenario_digest="pinned")
    assert (tmp_path / "frame_00000.txt").read_text(encoding="utf-8").splitlines() == [
        "# t x u active u_ext",
        "0 -0.25 nan -1 0.25",
        "0 -0.125 nan -1 0.25",
        "0 0 0.25 0 0.25",
        "0 0.125 0.015625 1 0.015625",
        "0 0.25 0.0625 1 0.0625",
        "0 0.375 0.140625 1 0.140625",
        "0 0.5 0.25 1 0.25",
        "0 0.625 0.390625 1 0.390625",
        "0 0.75 0.5625 1 0.5625",
        "0 0.875 0.765625 1 0.765625",
        "0 1 0.25 0 0.25",
        "0 1.125 nan -1 0.25",
        "0 1.25 nan -1 0.25",
    ]
    assert (tmp_path / "manifest.txt").read_text(encoding="utf-8").splitlines() == [
        "scenario_hash pinned",
        "delta 0.125",
        "knots 0 0.125",
        "frames:",
        "0 0 0 frame_00000.txt",
        "1 0 0.125 frame_00001.txt",
    ]


def test_output_is_byte_reproducible(tmp_path):
    scen = parse_scenario_text(MINIMAL)
    field, _ = run_scheme(scen)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_frames(field, str(d1), scenario_digest="x")
    field2, _ = run_scheme(scen)
    write_frames(field2, str(d2), scenario_digest="x")
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# --- bundled scenarios -----------------------------------------------------------


def test_bundled_scenarios_all_load():
    paths = bundled_scenario_paths()
    assert len(paths) >= 8
    for name, path in paths.items():
        scen = load_scenario(path)
        assert scen.grid.dim in (1, 2), name


def test_load_missing_file_raises_scenario_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "nope.cfg"))


def savetxt_frame(field, i):
    """Stamp i's frame file as np.savetxt writes the table of write_frames."""
    coords = field.plan.masks[0].grid.node_coords()
    mask = field.mask_at(i)
    flags = np.where(mask.active.ravel(), 1, np.where(mask.ghost.ravel(), 0, -1))
    table = np.column_stack([np.full(len(coords), field.times[i]), coords, field.frames[i].ravel(),
                             flags, field.extended_frame(i).ravel()])
    dim = coords.shape[1]
    header = "# t x" + (" y" if dim == 2 else "") + " u active u_ext"
    fmt = ["%.17g"] * (dim + 2) + ["%d", "%.17g"]
    buffer = io.StringIO()
    np.savetxt(buffer, table, fmt=fmt, header=header, comments="")
    return table, buffer.getvalue()


@pytest.mark.parametrize("name", ["heat_moving", "disk2d"])
def test_frame_files_are_byte_identical_to_savetxt(bundle, tmp_path, name):
    """Every stamp's file, with NaN outside the defined nodes, negative
    coordinates and all three flags, is byte for byte np.savetxt's text."""
    field = bundle[name][1]
    paths = write_frames(field, str(tmp_path), mode="all")
    for i, path in enumerate(paths[:-1]):
        table, text = savetxt_frame(field, i)
        assert np.isnan(table[:, -3]).any() and (table[:, 1] < 0).any()
        assert set(table[:, -2]) == {-1.0, 0.0, 1.0}
        with open(path, "rb") as fh:
            assert fh.read() == text.encode("utf-8")
