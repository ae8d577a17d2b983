"""Span tracing of slabflow from outside the package.

A :class:`Tracer` replaces, for the duration of a ``with`` block, the
module-level names through which one slabflow module calls into another
(plus the public entry points the workloads call) with thin wrappers.
Each wrapped call records one span ``(name, kind, start, end, parent)``
in memory; the originals are put back when the block ends, even on error.
Nothing inside ``src/`` changes.

Span kinds are the layers of the per-layer split; :func:`layer_metrics`
turns one repetition's spans and counters into the metrics listed in
``BENCHMARK.json`` under ``per_layer``.
"""

import functools
import json
import os
import statistics
import sys
import time

import numpy as np

# (module, attribute, span kind).  The kind names the layer bucket the
# span's self time goes to.
TRACE_WRAPS = (
    ("slabflow.slice_solver", "spsolve", "linsolve"),
    ("slabflow.slice_solver", "coo_matrix", "sparse_build"),
    ("slabflow.slice_solver", "identity", "sparse_build"),
    ("slabflow.slice_solver", "evaluate_many", "flux"),
    ("slabflow.slice_solver", "_diag_jacobian_many", "flux"),
    ("slabflow.slice_solver", "_dz_many", "flux"),
    ("slabflow.slice_solver", "eval_expr", "expressions"),
    ("slabflow.flux", "eval_expr", "expressions"),
    ("slabflow.geometry", "evaluate", "expressions"),
    ("slabflow.stitcher", "solve_slice", "slice"),
    ("slabflow.stitcher", "build_slice_plan", "plan"),
    ("slabflow.stitcher", "transfer", "transfer"),
    ("slabflow.diagnostics", "run_scheme", "run"),
    ("slabflow.diagnostics", "build_slice_plan", "plan"),
    ("slabflow.diagnostics", "slab_hausdorff", "hausdorff"),
    ("slabflow.scenario_io", "build_slice_plan", "plan"),
    # public entry points the workloads call (through the package object)
    ("slabflow", "load_scenario", "load"),
    ("slabflow", "write_frames", "write"),
    ("slabflow", "run_scheme", "run"),
    ("slabflow", "slab_hausdorff", "hausdorff"),
    ("slabflow", "max_principle_report", "report"),
    ("slabflow", "energy_report", "report"),
    ("slabflow", "l1_contraction_report", "report"),
    ("slabflow", "mms_report", "report"),
    ("slabflow", "refinement_study", "report"),
)

# The untraced runs wrap only the run_scheme entry points, to time the
# scheme for node_steps_per_s; this costs two clock reads per run.
METER_WRAPS = (
    ("slabflow.diagnostics", "run_scheme", "run"),
    ("slabflow", "run_scheme", "run"),
)

# Counted, not spanned: every residual evaluation of the Newton/Picard
# loop goes through the stencil's divergence.
COUNT_WRAPS = (("slabflow.slice_solver", "_Stencil", "divergence", "residual_evals"),)

# kind -> per-layer time metric receiving the self time of its spans
SELF_TIME_METRIC = {
    "load": "scenario_io.load_s",
    "write": "scenario_io.write_s",
    "plan": "geometry.plan_s",
    "hausdorff": "geometry.hausdorff_s",
    "expressions": "expressions.eval_s",
    "flux": "flux.eval_s",
    "slice": "slice_solver.self_s",
    "sparse_build": "slice_solver.sparse_build_s",
    "linsolve": "slice_solver.linsolve_s",
    "run": "stitcher.self_s",
    "transfer": "stitcher.transfer_s",
    "report": "diagnostics.self_s",
}

# kind -> per-layer count metric receiving the number of its spans
CALL_COUNT_METRIC = {
    "expressions": "expressions.eval_calls",
    "flux": "flux.eval_calls",
    "linsolve": "slice_solver.linsolve_calls",
    "run": "stitcher.runs",
    "report": "diagnostics.reports",
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_steps_per_s", "node-steps/s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("scenario_io.load_s", "s"),
    ("scenario_io.write_s", "s"),
    ("scenario_io.write_bytes", "bytes"),
    ("geometry.plan_s", "s"),
    ("geometry.masks", "count"),
    ("geometry.hausdorff_s", "s"),
    ("expressions.eval_s", "s"),
    ("expressions.eval_calls", "count"),
    ("flux.eval_s", "s"),
    ("flux.eval_calls", "count"),
    ("slice_solver.self_s", "s"),
    ("slice_solver.sparse_build_s", "s"),
    ("slice_solver.linsolve_s", "s"),
    ("slice_solver.linsolve_calls", "count"),
    ("slice_solver.linsolve_unknowns", "count"),
    ("slice_solver.substeps", "count"),
    ("slice_solver.newton_iters", "count"),
    ("slice_solver.picard_iters", "count"),
    ("slice_solver.newton_per_substep", "ratio"),
    ("slice_solver.residual_evals", "count"),
    ("slice_solver.accepted_per_trial", "ratio"),
    ("stitcher.self_s", "s"),
    ("stitcher.transfer_s", "s"),
    ("stitcher.runs", "count"),
    ("stitcher.stamps", "count"),
    ("stitcher.field_mib", "MiB"),
    ("diagnostics.self_s", "s"),
    ("diagnostics.reports", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_sum_frac", "ratio"),
)


COUNTERS = (
    "linsolve_unknowns",
    "substeps",
    "newton",
    "picard",
    "residual_evals",
    "masks",
    "stamps",
    "field_bytes",
    "write_bytes",
    "node_steps",
)


def node_steps(field_):
    """Sum over slices of active nodes x substeps of one run's field (a
    slice with m substeps holds m + 1 stamps)."""
    stamps = np.bincount(field_.slice_index, minlength=field_.plan.n_slices)
    return sum(m.active_count * (int(n) - 1) for m, n in zip(field_.plan.masks, stamps))


class Tracer:
    """Wraps the names in ``wraps`` while active.

    ``spans`` holds one tuple ``(name, kind, start, end, parent)`` per
    wrapped call (``parent`` is an index into ``spans`` or -1);
    ``counters`` holds work counts read from the wrapped calls' arguments
    and results.  ``reset`` starts a new repetition without unwrapping.
    """

    def __init__(self, wraps, count_wraps=()):
        self.wraps = tuple(wraps)
        self.count_wraps = tuple(count_wraps)
        self._saved = []
        self._stack = []
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        try:
            for module_name, attr, kind in self.wraps:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._span_wrapper(original, f"{module_name}.{attr}", kind))
            for module_name, cls_name, attr, counter in self.count_wraps:
                cls = getattr(sys.modules[module_name], cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._count_wrapper(original, counter))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, fn, name, kind):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        note = self._note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, kind, start, end, parent)
            note(kind, args, out)
            return out

        return wrapper

    def _count_wrapper(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note(self, kind, args, out):
        c = self.counters
        if kind == "linsolve":
            c["linsolve_unknowns"] += int(args[0].shape[0])
        elif kind == "slice":
            c["substeps"] += len(out.stats)
        elif kind == "run":
            field_, report = out
            c["newton"] += sum(s["newton"] for s in report.slice_stats)
            c["picard"] += sum(s["picard"] for s in report.slice_stats)
            c["stamps"] += field_.n_stamps
            c["field_bytes"] += field_.frames.nbytes + field_.extended.nbytes
            c["node_steps"] += node_steps(field_)
        elif kind == "plan":
            c["masks"] += out.n_slices
        elif kind == "write":
            c["write_bytes"] += sum(os.path.getsize(p) for p in out)

    # -- results ---------------------------------------------------------------

    def time_in(self, kind):
        """Total duration of the spans of ``kind`` (inclusive of children)."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == kind)

    def self_times(self):
        """Self time per span: its duration minus its children's durations."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, kind, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "parent": parent, "name": name, "layer": kind,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced repetition lasting ``wall`` seconds
    (``trace.overhead_frac`` is filled in by the caller)."""
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    self_times = tracer.self_times()
    for span, self_time in zip(tracer.spans, self_times):
        kind = span[1]
        out[SELF_TIME_METRIC[kind]] += self_time
        if kind in CALL_COUNT_METRIC:
            out[CALL_COUNT_METRIC[kind]] += 1
    c = tracer.counters
    substeps = c["substeps"]
    trials = c["residual_evals"] - substeps - c["picard"]
    out.update(
        {
            "scenario_io.write_bytes": c["write_bytes"],
            "geometry.masks": c["masks"],
            "slice_solver.linsolve_unknowns": c["linsolve_unknowns"],
            "slice_solver.substeps": substeps,
            "slice_solver.newton_iters": c["newton"],
            "slice_solver.picard_iters": c["picard"],
            "slice_solver.newton_per_substep": c["newton"] / substeps if substeps else 0.0,
            "slice_solver.residual_evals": c["residual_evals"],
            "slice_solver.accepted_per_trial": c["newton"] / trials if trials else 0.0,
            "stitcher.stamps": c["stamps"],
            "stitcher.field_mib": c["field_bytes"] / 2**20,
            "trace.layer_sum_frac": sum(self_times) / wall,
        }
    )
    return out


def median_metrics(per_rep):
    """Key-wise median of a list of metric dicts."""
    return {k: statistics.median(d[k] for d in per_rep) for k in per_rep[0]}
