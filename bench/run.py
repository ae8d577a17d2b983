"""Benchmark of slabflow: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Prints an environment record and
a detail record (one JSON object per line), then, as the last line, the
result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer split of a traced run.  See bench/README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads; the set-up
# children inherit the environment.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import (  # noqa: E402
    COUNT_WRAPS,
    END_TO_END,
    METER_WRAPS,
    PER_LAYER,
    TRACE_WRAPS,
    Tracer,
    layer_metrics,
    median_metrics,
)
from workloads import WORKLOADS, Ops  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

class BenchError(Exception):
    """The benchmark cannot run here (no package source, a set-up child failed)."""


def import_package():
    init = SRC / "slabflow" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import slabflow

    if Path(slabflow.__file__).resolve() != init.resolve():
        raise BenchError(f"imported slabflow from {slabflow.__file__}, not from {SRC}")
    return slabflow


def environment(sf):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "slabflow": sf.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def git_commit():
    """HEAD of the checkout's own .git, or None (the benchmark may run from
    an export that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "slabflow").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measure_setup(workload):
    """Median over fresh interpreters of import + load + plan + first call."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "setup_child.py"),
        str(SRC),
        ",".join(str(d) for d in workload.dims()),
        *workload.paths,
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    totals = [sum(s.values()) for s in samples]
    parts = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    return statistics.median(totals), parts


def one_rep(workload, sf):
    ops = Ops(sf.SlabflowError)
    t0 = time.perf_counter()
    workload.run(sf, ops)
    return time.perf_counter() - t0, ops


def measure_untraced(workload, sf, seconds):
    """Repetitions back to back for ``seconds``.  The time metrics are
    means over the whole run (total time over total work), not medians of
    its few repetitions: a shared host's speed drifts in phases of tens of
    seconds to minutes, and only the mean weighs every phase the run saw."""
    meter = Tracer(METER_WRAPS)
    walls, run_times, steps, all_ops = [], [], [], []
    start = time.perf_counter()
    with meter:
        while True:
            meter.reset()
            wall, ops = one_rep(workload, sf)
            walls.append(wall)
            run_times.append(meter.time_in("run"))
            steps.append(meter.counters["node_steps"])
            all_ops.append(ops)
            if time.perf_counter() - start + statistics.fmean(walls) > seconds:
                break
    metrics = {
        "wall_s": statistics.fmean(walls),
        "node_steps_per_s": sum(steps) / sum(run_times) if sum(run_times) > 0 else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, all_ops, {"walls": walls, "run_scheme_s": run_times, "node_steps": steps}


def measure_traced(workload, sf, seconds, trace_path):
    """Alternate untraced and traced repetitions; per-layer metrics are the
    medians over the traced ones."""
    meter = Tracer(METER_WRAPS)
    tracer = Tracer(TRACE_WRAPS, COUNT_WRAPS)
    plain, traced, per_rep, all_ops = [], [], [], []
    start = time.perf_counter()
    while True:
        with meter:
            wall, ops = one_rep(workload, sf)
        plain.append(wall)
        all_ops.append(ops)
        tracer.reset()
        with tracer:
            wall, ops = one_rep(workload, sf)
        traced.append(wall)
        all_ops.append(ops)
        per_rep.append(layer_metrics(tracer, wall))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    tracer.write_jsonl(trace_path)
    metrics = median_metrics(per_rep)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, all_ops, {"untraced_walls": plain, "traced_walls": traced,
                              "spans": len(tracer.spans), "trace_file": str(trace_path)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        sf = import_package()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir), sf)
        if args.trace:
            trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values, all_ops, detail = measure_traced(workload, sf, args.seconds, trace_path)
            units = dict(PER_LAYER)
        else:
            try:
                setup_s, setup_parts = measure_setup(workload)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 2
            values, all_ops, detail = measure_untraced(workload, sf, args.seconds)
            values["setup_s"] = setup_s
            detail["setup_parts_s"] = setup_parts
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in all_ops)
    failed = sum(o.failed for o in all_ops)
    errors = [e for o in all_ops for e in o.errors]
    for line in errors:
        print(f"bench: failed op: {line}", file=sys.stderr)
    detail.update({"workload": args.workload, "seed": args.seed, "reps": len(all_ops),
                   "errors": errors[:20]})
    print(json.dumps({"env": environment(sf)}))
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
