"""Scenario files: parsing, validation, canonical printing, frame output."""

import dataclasses
import hashlib
import io
import os

import numpy as np
import pytest

from slabflow import (
    FluxModel,
    Grid,
    IntervalTrack,
    Num,
    OutputConfig,
    Scenario,
    ScenarioError,
    SlabflowError,
    SliceProblem,
    SolverConfig,
    TimeDomain,
    TrackSegment,
    build_slice_plan,
    bundled_scenario_paths,
    format_scenario,
    load_scenario,
    parse_expr,
    parse_scenario_text,
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
    assert scen.config == SolverConfig()
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
    jump = scen.domain.tracks[0].segments[1]
    assert jump.start == 0.05
    assert jump.left == parse_expr("max(t, 0.1) - 0.1", ("t",))
    assert jump.right == parse_expr("min(1 + t, 0.9)", ("t",))


def test_code_built_jump_endpoints_round_trip():
    base = parse_scenario_text(MINIMAL)
    jump = TrackSegment(0.05, parse_expr("max(0, t - 0.05)", ("t",)), Num(0.9))
    segments = (base.domain.tracks[0].segments[0], jump)
    scen = dataclasses.replace(base, domain=TimeDomain.moving_intervals(
        [IntervalTrack(segments)], base.domain.horizon))
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


def _heat(**change):
    return lambda: dataclasses.replace(parse_scenario_text(MINIMAL), **change)


def _jumps_at(*starts, horizon=0.1):
    segments = tuple(TrackSegment(t, Num(0.0), Num(1.0)) for t in (0.0, *starts))
    return lambda: TimeDomain.moving_intervals([IntervalTrack(segments)], horizon)


def _solver(line):
    return ("dir = out/minimal\n", f"dir = out/minimal\n\n[solver]\n{line}\n")


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
        (lambda: SolverConfig(newton_tol=0.0), _solver("newton_tol = 0"), "[solver]", "newton_tol"),
        (lambda: SolverConfig(newton_tol=-1.0), _solver("newton_tol = -1"), "[solver]", "newton_tol"),
        (lambda: SolverConfig(newton_tol=np.nan), _solver("newton_tol = nan"), "[solver]",
         "newton_tol"),
        (lambda: SolverConfig(max_newton=-1), _solver("max_newton = -1"), "[solver]", "max_newton"),
        (lambda: SolverConfig(max_newton=2.5), _solver("max_newton = 2.5"), "[solver]",
         "max_newton"),
        (lambda: SolverConfig(max_picard=-1), _solver("max_picard = -1"), "[solver]", "max_picard"),
        (lambda: OutputConfig("out", frames_mode="bogus"),
         ("dir = out/minimal", "dir = out/minimal\nframes = bogus"), "[output]", "frames"),
        (lambda: FluxModel("linear_diffusion", 3.0), ("p = 2", "p = 3"), "[flux]", "p = 2"),
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
        (lambda: TimeDomain(1.0, "cone"), ("type = moving_intervals", "type = cone"), "[domain]",
         "unknown domain kind 'cone', expected one of moving_intervals, implicit"),
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
        (lambda: SolverConfig(newton_tol=np.inf), _solver("newton_tol = inf"), "[solver]",
         "newton_tol"),
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
    ],
    ids=[
        "newton_tol_zero", "newton_tol_negative", "newton_tol_nan", "max_newton_negative",
        "max_newton_fraction", "max_picard_negative", "frames_mode", "linear_diffusion_p3",
        "jump_at_zero", "jump_at_horizon", "zero_slices", "zero_substeps", "2d_flux_on_1d_grid",
        "nan_spacing", "nan_eps_reg", "grid_dim_3", "flux_dim_3", "flux_kind", "domain_kind",
        "growth_c_nan", "growth_c_zero", "coercivity_alpha_nan",
        "lower_b_negative", "lower_d_nan", "z_lipschitz_negative", "growth_c_inf",
        "coercivity_alpha_inf", "lower_b_inf", "lower_d_inf", "z_lipschitz_inf", "newton_tol_inf",
        "counts_inf", "counts_nan", "origin_inf", "spacing_inf", "horizon_inf", "p_inf",
        "eps_reg_inf",
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


def test_picard_only_file_runs_like_the_code_built_config():
    loaded = parse_scenario_text(MINIMAL.replace(*_solver("max_newton = 0")))
    built = _heat(config=SolverConfig(max_newton=0))()
    assert loaded == built
    field_loaded, report = run_scheme(loaded)
    field_built, _ = run_scheme(built)
    assert report.total_newton() == 0
    assert all(stats["picard"] > 0 for stats in report.slice_stats)
    assert field_loaded.frames.tobytes() == field_built.frames.tobytes()


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


# --- canonical form ----------------------------------------------------------


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
    assert again.config == scen.config


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
    base = parse_scenario_text(MINIMAL)
    tracks = [IntervalTrack(segments=(TrackSegment(0.0, parse_expr(a, ("t",)), parse_expr(b, ("t",))),))
              for a, b in (("0", "0.25"), ("0.5", "1"))]
    two_tracks = TimeDomain.moving_intervals(tracks, base.domain.horizon)
    for scen, section in ((dataclasses.replace(disk, grid=coarse_y), "[grid]"),
                          (dataclasses.replace(base, domain=two_tracks), "[domain]")):
        with pytest.raises(ScenarioError) as err:
            scenario_hash(scen)
        assert err.value.issues[0].startswith(section)


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
    assert again.domain.tracks[0].segments == scen.domain.tracks[0].segments
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
