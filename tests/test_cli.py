"""Command line interface: subcommands and exit codes."""

import subprocess
import sys

import pytest

from helpers import disk_jump_text
from slabflow import SlabflowError, bundled_scenario_paths, cli, diagnostics, slice_solver
from slabflow.cli import main

HEAT = """\
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
dir = {out}
"""

STALL = """\
[grid]
dim = 1
xmin = -0.25
xmax = 1.25
h = 0.0625

[time]
T = 10
slices = 1
substeps = 1

[domain]
type = moving_intervals
left = "0"
right = "1"

[flux]
type = p_laplacian
p = 4

[data]
u0 = "50*sin(7*pi*x)"
psi = "0"

[output]
dir = {out}
"""

ADVERSARIAL_FLUX = """\
[flux]
type = custom
p = 2
a1 = "-xi1"
c = 1
alpha = 1
"""


def write_heat(tmp_path):
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(HEAT.format(out=tmp_path / "out"))
    return str(cfg)


def test_run_writes_frames_and_exits_zero(tmp_path, capsys):
    code = main(["run", write_heat(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "out" / "manifest.txt").exists()
    assert (tmp_path / "out" / "frame_00000.txt").exists()


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_invalid_scenario_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(HEAT.format(out=tmp_path).replace("p = 2", "p = 0.5")
                   .replace("linear_diffusion", "p_laplacian"))
    code = main(["run", str(cfg)])
    assert code == 2
    assert "p must exceed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,key",
    [
        ('u0 = "sin(pi*x)"', 'u0 = "1e999*0 + sin(pi*x)"', "(u0)"),
        ("substeps = 10", "substeps = 1e999", "'substeps'"),
        ("T = 0.1", "T = inf", "'T'"),
    ],
    ids=["u0_literal", "substeps", "T"],
)
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, old, new, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(HEAT.format(out=tmp_path / "out").replace(old, new))
    code = main(["run", str(cfg)])
    assert code == 2
    assert key in capsys.readouterr().err


def test_solver_stall_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    """With a budget of one Newton iteration the steep p = 4 data stall on every half."""
    monkeypatch.setattr(slice_solver, "MAX_NEWTON", 1)
    cfg = tmp_path / "stall.cfg"
    cfg.write_text(STALL.format(out=tmp_path / "out"))
    code = main(["run", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no convergence on [0.0, 0.625] at halving depth 4:")
    assert "(slice=0, step=0, t=0.625, n_active=15)" in err
    assert err.splitlines()[1:] == ["  Newton residuals: 1.648e+10 4.882e+09", "  halving depth: 4"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_run_is_a_stall_with_no_warning(tmp_path, capsys):
    """At u = 1e100 the p = 4 flux overflows; the run ends in the stall exit
    code, with no numpy RuntimeWarning escaping the CLI untyped."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(STALL.format(out=tmp_path / "out").replace("50*sin(7*pi*x)", "1e100*sin(pi*x)"))
    assert main(["run", str(cfg)]) == 3
    assert "at halving depth 4: residual 1.106e+302 after 1 Newton iterations" in capsys.readouterr().err


def test_a_scenario_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe[grid]\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario invalid:",
        "  - cannot read scenario file: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"]


def test_an_output_directory_that_cannot_be_made_is_an_input_error(tmp_path, capsys, monkeypatch):
    """The output directory's parent is a regular file: one error line naming
    it, no traceback, and no solve, since the directory is made first."""
    monkeypatch.setattr(cli, "run_scheme", lambda scenario: pytest.fail("solved before the output directory"))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(HEAT.format(out=out))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot create output directory {str(out)!r}: ")


def test_a_failed_solve_removes_only_the_directories_it_made(tmp_path, capsys, monkeypatch):
    """run makes out/a/b before it solves; when the solve fails it removes
    a/b and a again, and leaves out, which was there before."""
    def fail(scenario):
        assert (tmp_path / "out" / "a" / "b").is_dir()
        raise SlabflowError("the solve failed")

    monkeypatch.setattr(cli, "run_scheme", fail)
    (tmp_path / "out").mkdir()
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(HEAT.format(out=tmp_path / "out" / "a" / "b"))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: the solve failed"]
    assert list((tmp_path / "out").iterdir()) == []


def test_a_frame_file_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    """A directory where the first frame file goes: one error line naming the
    file, exit code 2, no traceback."""
    frame = tmp_path / "out" / "frame_00000.txt"
    frame.mkdir(parents=True)
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(HEAT.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write output file {str(frame)!r}: [Errno 21]")


def test_substeps_that_cannot_advance_time_are_an_input_error(tmp_path):
    """T = 5e-323 loads, but 20 substeps of a slice of it cannot all advance
    time: the run stops with one error line and exit code 2, no traceback."""
    text = open(bundled_scenario_paths()["heat_fixed"]).read()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text.replace("T = 0.1", "T = 5e-323").replace("out/heat_fixed", str(tmp_path / "out")))
    proc = subprocess.run(
        [sys.executable, "-m", "slabflow.cli", "run", str(cfg)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: 20 substeps of the span (0.0, 2.5e-323) do not all advance time"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h,issue", [
    ("1e-320", "h=1e-320 gives no finite cell count on [-0.125, 1.125]"),
    ("1e-200", "counts give 5.00e+200 fine samples per section, more than the limit of 67108864"),
    ("1e-9", "counts give 5.00e+9 fine samples per section, more than the limit of 67108864"),
], ids=["1e-320", "1e-200", "1e-9"])
def test_a_spacing_too_small_to_index_is_an_input_error(tmp_path, h, issue):
    """h = 1e-320 gives an infinite cell count, and h = 1e-200 and h = 1e-9
    more fine samples than a plan may hold (1.25e9 cells would ask for about
    10 GB): each is one [grid] issue, with no traceback."""
    text = open(bundled_scenario_paths()["heat_fixed"]).read()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text.replace("h = 0.03125", f"h = {h}"))
    proc = subprocess.run(
        [sys.executable, "-m", "slabflow.cli", "geometry", str(cfg)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: scenario invalid:", f"  - [grid] {issue}"]


def test_a_singular_step_matrix_is_a_stall_with_no_warning(tmp_path):
    """The Newton matrix of this flux overflows and is exactly singular: the
    run ends in the stall exit code, and scipy's MatrixRankWarning does not
    reach stderr."""
    text = open(bundled_scenario_paths()["heat_fixed"]).read()
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(text.replace("type = linear_diffusion", 'type = custom\na1 = "1e306*xi1"\nc = 1\nalpha = 1')
                   .replace("out/heat_fixed", str(tmp_path / "out")))
    proc = subprocess.run(
        [sys.executable, "-m", "slabflow.cli", "run", str(cfg)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert "(matrix: Matrix is exactly singular)" in proc.stderr
    assert "Warning" not in proc.stderr


def test_check_flux_passes_builtin(tmp_path, capsys):
    code = main(["check-flux", write_heat(tmp_path), "--samples", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coercivity" in out


def test_check_flux_fails_adversarial(tmp_path, capsys):
    text = HEAT.format(out=tmp_path / "out")
    text = text.replace("[flux]\ntype = linear_diffusion\np = 2\n", ADVERSARIAL_FLUX)
    cfg = tmp_path / "adv.cfg"
    cfg.write_text(text)
    code = main(["check-flux", str(cfg), "--samples", "500"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_flux_seed_changes_samples(tmp_path, capsys):
    path = write_heat(tmp_path)
    main(["check-flux", path, "--samples", "200", "--seed", "0"])
    first = capsys.readouterr().out
    main(["check-flux", path, "--samples", "200", "--seed", "0"])
    assert capsys.readouterr().out == first


def test_geometry_prints_jump_summary(tmp_path, capsys):
    cfg = tmp_path / "jump.cfg"
    text = HEAT.format(out=tmp_path / "out")
    text = text.replace('right = "1"', 'right = "1"\njumps = "0.05: 0, 1.4"')
    text = text.replace("xmax = 1.125", "xmax = 1.625")
    cfg.write_text(text)
    code = main(["geometry", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "segments=2 jumps=1" in out
    assert ("t=0.05 before=33 grid nodes in [0, 1] after=45 grid nodes in [0, 1.375] "
            "new=12 grid nodes in [1.03125, 1.375] lost=0 grid nodes") in out


def test_verify_passes_on_heat(tmp_path, capsys):
    code = main(["verify", write_heat(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS max_principle" in out
    assert "PASS energy" in out


def test_verify_with_second_datum_adds_l1_report(tmp_path, capsys):
    code = main(["verify", write_heat(tmp_path), "--u0b", "0.5*sin(pi*x)"])
    assert code == 0
    assert "l1_contraction" in capsys.readouterr().out


@pytest.mark.parametrize(
    "source,extra,runs,code",
    [("", [], 1, 0), ("", ["--u0b", "0.5*sin(pi*x)"], 2, 0), ('source = "1"\n', [], 0, 2)],
    ids=["plain", "second_datum", "sourced"],
)
def test_verify_runs_the_scheme_once_per_datum(
    tmp_path, capsys, monkeypatch, source, extra, runs, code
):
    calls = []
    run_scheme = diagnostics.run_scheme

    def counting_run_scheme(*args, **kwargs):
        calls.append(args)
        return run_scheme(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "run_scheme", counting_run_scheme)
    cfg = tmp_path / "heat.cfg"
    cfg.write_text(HEAT.format(out=tmp_path / "out").replace('psi = "0"\n', 'psi = "0"\n' + source))
    assert main(["verify", str(cfg), *extra]) == code
    assert len(calls) == runs
    if source:
        assert "max_principle_report needs a source-free scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,code,printed",
    [
        (["geometry", "disk2d"], 0, "t=0 section=357 grid nodes in [-0.75, 0.75] x [-0.75, 0.75]"),
        (["refine", "heat", "--levels", "1"], 2, "must be at least 2, got 1"),
        (["check-flux", "heat", "--samples", "0"], 2, "must be at least 1, got 0"),
        (["check-flux", "heat", "--samples", "-5"], 2, "must be at least 1, got -5"),
        (["check-flux", "heat", "--seed", "-1"], 2, "must be at least 0, got -1"),
        (["verify", "kinked_psi"], 2, "division by zero in subterm '1/(2*sqrt(max(x-0.5,0)))'"),
        (["verify", "zmod_fixed", "--u0b", "0.5*sin(pi*x)"], 0,
         "SKIP l1_contraction: l1_contraction_report needs a flux independent of the solution slot\n"
         "PASS max_principle"),
    ],
    ids=["geometry_2d", "refine_one_level", "zero_samples", "negative_samples", "negative_seed",
         "psi_derivative", "skipped_l1_report"],
)
def test_no_untyped_exception_leaves_the_cli(tmp_path, capsys, argv, code, printed):
    kinked = tmp_path / "kinked.cfg"
    kinked.write_text(HEAT.format(out=tmp_path / "out").replace('psi = "0"', 'psi = "sqrt(max(x - 0.5, 0))"'))
    paths = {**bundled_scenario_paths(), "heat": write_heat(tmp_path), "kinked_psi": str(kinked)}
    try:
        got = main([paths.get(arg, arg) for arg in argv])
    except SystemExit as exc:  # argparse rejects the value
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    assert printed in captured.out + captured.err


def test_refine_prints_levels(tmp_path, capsys):
    code = main(["refine", write_heat(tmp_path), "--levels", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("delta") >= 2


def test_module_entry_point_runs():
    path = bundled_scenario_paths()["heat_fixed"]
    proc = subprocess.run(
        [sys.executable, "-m", "slabflow.cli", "geometry", path],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "segments=1 jumps=0" in proc.stdout


@pytest.mark.parametrize("name", sorted(bundled_scenario_paths()))
def test_geometry_runs_on_every_bundled_scenario(name, capsys):
    assert main(["geometry", bundled_scenario_paths()[name]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("segments=") and "Traceback" not in out


def test_geometry_shows_a_2d_jump(tmp_path, capsys):
    """The one printer names the nodes a 2D jump creates and removes."""
    cfg = tmp_path / "disk_jump.cfg"
    cfg.write_text(disk_jump_text(0.8, 0.5))
    assert main(["geometry", str(cfg)]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("t=0.5 "))
    assert line.endswith("new=0 grid nodes lost=220 grid nodes in [-0.75, 0.75] x [-0.75, 0.75]")
