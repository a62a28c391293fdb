"""What the benchmark measures: workloads, metrics and the layer map.

Running this file writes BENCHMARK.json at the repository root from the
definitions below:

    python3 perfbench/spec.py

End-to-end metrics are the ones every workload reports, measured with
tracing off, and each has the bound by which it may worsen.  A run's time
is split into the cost of one ALS sweep and the sweeps one solver fit
runs, because both hold steady from one data seed to the next while their
product, the run's wall time, does not: the number of tuner stages a data
seed needs changes several-fold.  The cost of a sweep is gated at a fixed
host speed, because the shared host's own speed drifts by more than the
bound.  The raw times and the quality figures are printed and recorded
next to them (see INFO_METRICS) but are not gated.

Per-layer metrics come from the traced run.  PER_LAYER lists every one of
them with the end-to-end metric it should move and on which workload; one
that is zero on some workload (the layer does not run there) reads zero
there.
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    ("f1-protocol",
     "criterion-2 f1 runs through run_experiment with the full tuner for constr and proj; "
     "per-call overhead at S=30 and all harness and tuner work"),
    ("f2-s1000",
     "fixed-sweep solver.fit on f2 at S=1000 for both strategies, no tuner; "
     "O(S) per-slice loops and the constr last-layer Kronecker coupling dominate"),
    ("deep-cli",
     "ptdecouple decouple subprocesses on a generated L=3 system; the only workload paying "
     "interpreter start, import, argparse and JSON I/O, and the only one with a middle layer"),
]

# name: (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median over 10 repeats, half before and half after the timed phase, of a "
                "fresh-interpreter import of ptdecouple.cli plus the workload set-up "
                "(targets, configs, S=1000 data, generate)"),
    "ms_per_sweep.at_ref_speed": ("ms", "lower", 0.25,
                                  "ms_per_sweep scaled to the host speed at which the "
                                  "reference kernel (run.Reference) takes REFERENCE_MS: times "
                                  "REFERENCE_MS over the median of its times between the units"),
    "sweeps_per_fit.gmean": ("sweeps", "lower", 0.25,
                             "geometric mean over the solver fits of the timed runs (one per "
                             "tuner stage, or one untuned fit) of the ALS sweeps each ran"),
    "peak_mem_mb": ("MB", "lower", 0.1,
                    "peak tracemalloc MB of the short unit 0 (capped at 2 sweeps and 1 tuner "
                    "stage), in its own untimed pass"),
}

# printed and recorded, not gated: they move with the data seed or with the
# host's speed far beyond any bound
INFO_METRICS = {
    "ms_per_sweep": ("ms", "per strategy, the median over the timed units of a run's time "
                           "divided by the ALS sweeps it ran, everything in a run included "
                           "(data builds, tuner, CLI start and I/O); the mean over strategies"),
    "reference_ms": ("ms", "median time of the reference kernel, measured between the units"),
    "wall_s": ("s", "timed phase: the run's fixed number of units"),
    "run_s.p50": ("s", "median time per unit (both strategies of a seed, or one CLI call)"),
    "fits_per_run": ("count", "solver fits (tuner stages) per run_experiment or CLI call"),
    "err_j.p50": ("1", "worst per-strategy median relative squared Jacobian error"),
    "e_pct.p50": ("%", "worst per-strategy, per-output median validation rrmse"),
    "accurate_frac": ("ratio", "share of attempted runs whose output errors are all <= 3%"),
    "failed_frac": ("ratio", "share of attempted runs that raised or exited non-zero"),
}

F1, F2, CLI = "f1-protocol", "f2-s1000", "deep-cli"
ALL = (F1, F2, CLI)


def _m(unit, moves, on):
    return {"unit": unit, "moves": moves, "on": list(on)}


PER_LAYER = {
    "solver.update_c.inner.build_ms": _m("ms", "ms_per_sweep", ALL),
    "solver.update_c.inner.solve_ms": _m("ms", "ms_per_sweep", ALL),
    "solver.update_c.last.build_ms": _m("ms", "ms_per_sweep; peak_mem_mb on f2-s1000 constr", ALL),
    "solver.update_c.last.solve_ms": _m("ms", "ms_per_sweep", ALL),
    "solver.update_W.first.ms": _m("ms", "ms_per_sweep", ALL),
    "solver.update_W.middle.ms": _m("ms", "ms_per_sweep", ALL),
    "solver.update_W.last.ms": _m("ms", "ms_per_sweep", ALL),
    "solver.sweeps": _m("count", "sweeps_per_fit.gmean, wall_s", ALL),
    "solver.sweep_ms": _m("ms", "ms_per_sweep", ALL),
    "solver.sweep_us_per_point": _m("us", "ms_per_sweep", ALL),
    "solver.rebalance.ms": _m("ms", "ms_per_sweep", (F1, CLI)),
    "solver.objective.ms": _m("ms", "ms_per_sweep", (F1, CLI)),
    "solver.build_MG.calls": _m("count", "ms_per_sweep", (F1, F2)),
    "solver.useful_sweep_frac": _m("ratio", "sweeps_per_fit.gmean, wall_s", (F1, CLI)),
    "tensor_ops.lstsq_info.calls": _m("count", "ms_per_sweep", (F1, F2)),
    "tensor_ops.lstsq_info.ms": _m("ms", "ms_per_sweep", (F1, F2)),
    "tensor_ops.lstsq_info.truncated": _m("count", "e_pct.p50", (F1, F2)),
    "model.pt_slices.calls": _m("count", "ms_per_sweep, run_s.p50", (F1,)),
    "model.pt_slices.ms": _m("ms", "ms_per_sweep, run_s.p50", (F1,)),
    "model.internal_inputs_batch.calls": _m("count", "run_s.p50 on f1-protocol; setup_s on f2-s1000", (F1, F2)),
    "model.internal_inputs_batch.ms": _m("ms", "run_s.p50 on f1-protocol; setup_s on f2-s1000", (F1, F2)),
    "model.eval_batch.ms": _m("ms", "run_s.p50", (F1,)),
    "model.build_jacobian_tensor.ms": _m("ms", "run_s.p50 on f1-protocol; setup_s on f2-s1000", (F1, F2)),
    "basis.build_X.calls": _m("count", "ms_per_sweep", (F1, F2)),
    "basis.build_X.ms": _m("ms", "ms_per_sweep", (F1, F2)),
    "basis.build_Y.calls": _m("count", "ms_per_sweep", (F1, F2)),
    "basis.build_Y.ms": _m("ms", "ms_per_sweep", (F1, F2)),
    "basis.build_per_slice_X.calls": _m("count", "ms_per_sweep", (F1, F2)),
    "basis.build_per_slice_X.ms": _m("ms", "ms_per_sweep", (F1, F2)),
    "tuner.stages": _m("count", "fits_per_run, wall_s, e_pct.p50, accurate_frac", (F1, CLI)),
    "tuner.fit.ms": _m("ms", "wall_s", (F1, CLI)),
    "tuner.validation_metric.ms": _m("ms", "ms_per_sweep, wall_s", (F1, CLI)),
    "tuner.useful_sweep_frac": _m("ratio", "sweeps_per_fit.gmean, wall_s, e_pct.p50", (F1, CLI)),
    "harness.run.ms": _m("ms", "run_s.p50", (F1,)),
    "harness.data_build.ms": _m("ms", "run_s.p50", (F1,)),
    "harness.target_model.calls": _m("count", "run_s.p50", (F1,)),
    "harness.failed_runs": _m("count", "failed_frac", (F1,)),
    "cli.import_s": _m("s", "setup_s; ms_per_sweep on deep-cli", (CLI,)),
    "cli.main.ms": _m("ms", "ms_per_sweep, run_s.p50", (CLI,)),
    "cli.write.ms": _m("ms", "ms_per_sweep, run_s.p50", (CLI,)),
    "solver.self_ms": _m("ms", "ms_per_sweep", ALL),
    "model.self_ms": _m("ms", "ms_per_sweep", ALL),
    "basis.self_ms": _m("ms", "ms_per_sweep", ALL),
    "tensor_ops.self_ms": _m("ms", "ms_per_sweep", ALL),
    "tuner.self_ms": _m("ms", "ms_per_sweep", (F1, CLI)),
    "harness.self_ms": _m("ms", "run_s.p50", (F1,)),
    "cli.self_ms": _m("ms", "ms_per_sweep", (CLI,)),
    "trace.overhead_s": _m("s", "none: spans recorded times the measured cost of one "
                                "empty traced call", ALL),
}

HIGHER_IS_BETTER = {"solver.useful_sweep_frac", "tuner.useful_sweep_frac"}


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": PER_LAYER[n]["unit"],
             "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n in PER_LAYER
        ],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
