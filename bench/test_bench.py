"""Tests of the benchmark itself: tracing leaves results and the package
untouched, every correctness check rejects a corrupted result, seeds
change data only, and the metric names match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import slabflow as sf  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bundled(name):
    return sf.load_scenario(sf.bundled_scenario_paths()[name])


def _wrapped_attributes():
    owners = [(sys.modules[m], attr) for m, attr, _ in spans.TRACE_WRAPS + spans.METER_WRAPS]
    owners += [(getattr(sys.modules[m], cls), attr) for m, cls, attr, _ in spans.COUNT_WRAPS]
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def _assert_restored(originals):
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_are_unique_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(spans.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    names = [n for n, _ in spans.END_TO_END + spans.PER_LAYER]
    assert len(names) == len(set(names))
    # heat1d_oracle runs by hand only; see bench/README.md
    assert [w["name"] for w in spec["workloads"]] == ["disk2d_p3", "bundle_verify"]
    assert set(workloads.WORKLOADS) == {"heat1d_oracle", "disk2d_p3", "bundle_verify"}
    assert all(name == cls.name for name, cls in workloads.WORKLOADS.items())
    assert set(spans.SELF_TIME_METRIC.values()) <= set(dict(spans.PER_LAYER))
    assert set(spans.CALL_COUNT_METRIC.values()) <= set(dict(spans.PER_LAYER))


# ---------------------------------------------------------------------------
# tracing


@pytest.mark.parametrize("name", ["jump_expand", "disk2d"])
def test_traced_run_is_bitwise_identical_and_restores_wraps(name):
    scenario = _bundled(name)
    originals = _wrapped_attributes()
    plain, _ = sf.run_scheme(scenario)
    tracer = spans.Tracer(spans.TRACE_WRAPS, spans.COUNT_WRAPS)
    with tracer:
        traced, _ = sf.run_scheme(scenario)
        wall = sum(s[3] - s[2] for s in tracer.spans if s[4] == -1)
    _assert_restored(originals)
    assert plain.frames.tobytes() == traced.frames.tobytes()
    assert plain.extended.tobytes() == traced.extended.tobytes()

    metrics = spans.layer_metrics(tracer, wall)
    assert set(metrics) == {n for n, _ in spans.PER_LAYER}
    assert metrics["stitcher.runs"] == 1
    assert metrics["slice_solver.substeps"] == traced.n_stamps - traced.plan.n_slices
    assert metrics["slice_solver.linsolve_calls"] >= metrics["slice_solver.newton_iters"] > 0
    assert 0 < metrics["slice_solver.accepted_per_trial"] <= 1
    # root spans only: self times add up to the traced wall exactly
    assert metrics["trace.layer_sum_frac"] == pytest.approx(1.0, abs=1e-9)


def test_tracer_restores_wraps_when_the_block_raises():
    originals = _wrapped_attributes()
    with pytest.raises(sf.SlabflowError):
        with spans.Tracer(spans.TRACE_WRAPS, spans.COUNT_WRAPS):
            sf.load_scenario(str(ROOT / "no-such-scenario.cfg"))
    _assert_restored(originals)


def test_node_steps_counts_active_nodes_times_substeps():
    scenario = replace(_bundled("jump_contract"), substeps=3)
    field_, _ = sf.run_scheme(scenario)
    expected = sum(m.active_count * 3 for m in field_.plan.masks)
    assert spans.node_steps(field_) == expected


# ---------------------------------------------------------------------------
# checks reject corrupted results


def test_heat_checks_reject_a_corrupted_final_frame():
    field_, _ = sf.run_scheme(_bundled("heat_fixed"))  # u0 = sin(pi x), T = 0.1
    err = workloads.heat_error(field_, (1.0, 0.0, 0.0))
    assert workloads.heat_coarse_ok(err)
    bad = replace(field_, frames=field_.frames.copy())
    bad.frames[-1][field_.plan.masks[-1].active] += 1e-2
    assert not workloads.heat_coarse_ok(workloads.heat_error(bad, (1.0, 0.0, 0.0)))
    assert workloads.heat_refinement_ok(4e-3, 1e-3)
    assert not workloads.heat_refinement_ok(2e-3, 1e-3)
    assert not workloads.heat_refinement_ok(float("nan"), 1e-3)


def test_report_checks_reject_a_corrupted_field():
    scenario = _bundled("heat_moving")
    field_, _ = sf.run_scheme(scenario)
    assert workloads.passed(sf.max_principle_report(scenario, field_=field_))
    assert workloads.passed(sf.energy_report(scenario, field_=field_))
    frames = field_.frames.copy()
    frames[1:] *= 3.0  # grow the solution after the initial stamp
    bad = replace(field_, frames=frames)
    assert not workloads.passed(sf.max_principle_report(scenario, field_=bad))
    assert not workloads.passed(sf.energy_report(scenario, field_=bad))


def test_study_checks_reject_corrupted_studies():
    good_mms = sf.MmsReport(1e-3, 1e-3, 2.0, 2.0, 1.0)
    assert workloads.mms_fixed_ok(good_mms)
    assert not workloads.mms_fixed_ok(replace(good_mms, spatial_order_l1=1.8))

    levels = tuple({"n_slices": 4 * 2**i, "substeps": 4 * 2**i, "delta": 0.25 / 2**i,
                    "hausdorff": 0.2 / 2**i} for i in range(4))
    good_study = sf.RefinementStudy(levels=levels, gaps=(1e-2, 5e-3, 2.5e-3))
    assert workloads.cauchy_ok(good_study)
    assert not workloads.cauchy_ok(replace(good_study, gaps=(1e-2, 8e-3, 2.5e-3)))
    assert not workloads.cauchy_ok(replace(good_study, gaps=(1e-2, 5e-3)))
    far = tuple(dict(lv, hausdorff=0.6 * lv["delta"] * 4) for lv in levels)
    assert not workloads.cauchy_ok(replace(good_study, levels=far))

    good_l1 = sf.EstimateReport("l1_contraction", lhs=0.1, rhs=0.2,
                                details={"nonincreasing": True})
    assert workloads.l1_contraction_ok(good_l1)
    assert not workloads.l1_contraction_ok(replace(good_l1, details={"nonincreasing": False}))
    assert not workloads.l1_contraction_ok(replace(good_l1, lhs=0.3))

    assert workloads.slab_hausdorff_ok(0.3, 0.25, 0.2)
    assert not workloads.slab_hausdorff_ok(0.31, 0.25, 0.2)


def test_write_check_rejects_missing_or_empty_files(tmp_path):
    full = tmp_path / "a.txt"
    full.write_text("x")
    empty = tmp_path / "b.txt"
    empty.write_text("")
    assert workloads.frames_written(1)([str(full), str(full)])
    assert not workloads.frames_written(2)([str(full), str(full)])
    assert not workloads.frames_written(1)([str(full), str(empty)])


def test_ops_count_raised_errors_and_failed_checks():
    ops = workloads.Ops(sf.SlabflowError)
    assert ops.call("ok", lambda: 1, check=lambda v: v == 1) == 1
    assert ops.call("bad check", lambda: 1, check=lambda v: v == 2) == 1
    assert ops.call("raises", sf.load_scenario, str(ROOT / "no-such-scenario.cfg")) is None
    assert (ops.attempted, ops.failed, len(ops.errors)) == (3, 2, 2)


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_initial_data_only(name, tmp_path):
    a = workloads.WORKLOADS[name](1, str(tmp_path / "a"), sf)
    b = workloads.WORKLOADS[name](2, str(tmp_path / "b"), sf)
    again = workloads.WORKLOADS[name](1, str(tmp_path / "c"), sf)
    assert [Path(p).read_text().replace("/c/", "/a/") for p in again.paths] == [
        Path(p).read_text() for p in a.paths
    ]
    for pa, pb in zip(a.paths, b.paths):
        sa, sb = sf.load_scenario(pa), sf.load_scenario(pb)
        assert (sa.grid, sa.n_slices, sa.substeps) == (sb.grid, sb.n_slices, sb.substeps)
        assert sa.domain == sb.domain and sa.flux == sb.flux
    if name == "bundle_verify":
        assert a.u0_b != b.u0_b
    else:
        assert sf.load_scenario(a.paths[0]).u0 != sf.load_scenario(b.paths[0]).u0


# ---------------------------------------------------------------------------
# the command


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heat1d_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no package source" in proc.stderr
