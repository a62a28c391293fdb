"""Span tracer that times ptdecouple's layers from outside the package.

Each traced function is replaced, in every ptdecouple module namespace that
holds it, by a wrapper that records one span per call: name, start, end,
parent span and benchmark unit.  Calls made inside ``fit``, ``tune`` and
``run_experiment`` therefore show up without any change to the package.
Spans are kept in flat arrays in memory and written out once, at the end;
self times and the per-layer table are derived from them afterwards.

A sweep has no function of its own, so the tracer opens a synthetic
``solver.sweep`` span when ``rebalance`` (the first step of every sweep)
starts and closes it when ``objective`` (the last step) returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from array import array

import numpy as np

MODULES = (
    "ptdecouple",
    "ptdecouple.basis",
    "ptdecouple.tensor_ops",
    "ptdecouple.model",
    "ptdecouple.solver",
    "ptdecouple.tuner",
    "ptdecouple.harness",
    "ptdecouple.cli",
)
LAYERS = ("cli", "harness", "tuner", "solver", "model", "basis", "tensor_ops")


def _update_w_name(args, kwargs):
    state, layer = args[0], args[1]
    if layer == 0:
        return "solver.update_W.first"
    return "solver.update_W.last" if layer == state.n_layers else "solver.update_W.middle"


def _update_c_name(args, kwargs):
    state, layer = args[0], args[1]
    return "solver.update_c.last" if layer == state.n_layers else "solver.update_c.inner"


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.counts = {"lstsq_truncated": 0, "sweep_points": 0, "failed_runs": 0}
        self.fit_reports = []
        self.tune_reports = []
        self.current_unit = -1
        self._stack = []
        self._sweep = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        """Close span i and any child an exception left open inside it."""
        now = time.perf_counter()
        while self._stack:
            j = self._stack.pop()
            self.end[j] = now
            if j == i:
                break

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def _wrapper(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- hooks -------------------------------------------------------------

    def _sweep_begin(self, args, kwargs):
        self._sweep_end(args, None)
        self._sweep = self.open("solver.sweep")
        self.counts["sweep_points"] += int(args[1].shape[0])

    def _sweep_end(self, args, out):
        # a fit that raised mid-sweep has already closed the sweep span
        if self._sweep in self._stack:
            self.close(self._sweep)
        self._sweep = None

    def _count_truncated(self, args, out):
        self.counts["lstsq_truncated"] += int(out[1])

    def _keep_fit(self, args, out):
        self.fit_reports.append(out)

    def _keep_tune(self, args, out):
        self.tune_reports.append(out)

    def _count_failed(self, args, out):
        self.counts["failed_runs"] += sum(1 for row in out.rows if row.failed)

    # -- installation ------------------------------------------------------

    def _replace(self, home, attr, name, before=None, after=None):
        fn = getattr(importlib.import_module(home), attr)
        traced = self._wrapper(fn, name, before, after)
        for modname in MODULES:
            mod = importlib.import_module(modname)
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, traced)
                self._restore.append((mod, attr, fn))

    def _replace_method(self, home, cls, attr, name):
        klass = getattr(importlib.import_module(home), cls)
        fn = klass.__dict__[attr]
        setattr(klass, attr, self._wrapper(fn, name))
        self._restore.append((klass, attr, fn))

    def install(self):
        r = self._replace
        for attr in ("build_X", "build_Y", "build_per_slice_X"):
            r("ptdecouple.basis", attr, f"basis.{attr}")
        r("ptdecouple.tensor_ops", "lstsq_info", "tensor_ops.lstsq_info",
          after=self._count_truncated)
        for attr in ("pt_slices", "internal_inputs_batch", "eval_batch",
                     "build_jacobian_tensor", "build_f_matrix"):
            r("ptdecouple.model", attr, f"model.{attr}")
        r("ptdecouple.model", "save_model", "cli.write")
        r("ptdecouple.solver", "fit", "solver.fit", after=self._keep_fit)
        r("ptdecouple.solver", "rebalance", "solver.rebalance", before=self._sweep_begin)
        r("ptdecouple.solver", "objective", "solver.objective", after=self._sweep_end)
        r("ptdecouple.solver", "update_W", _update_w_name)
        r("ptdecouple.solver", "update_c_proj", _update_c_name)
        r("ptdecouple.solver", "update_c_constr", _update_c_name)
        r("ptdecouple.solver", "build_MG", "solver.build_MG")
        r("ptdecouple.tuner", "tune", "tuner.tune", after=self._keep_tune)
        r("ptdecouple.tuner", "validation_metric", "tuner.validation_metric")
        r("ptdecouple.harness", "run_experiment", "harness.run", after=self._count_failed)
        r("ptdecouple.cli", "main", "cli.main")
        self._replace_method("ptdecouple.harness", "ExperimentConfig", "target_model",
                             "harness.target_model")
        self._replace_method("ptdecouple.tuner", "TunerReport", "to_json", "cli.write")

    def uninstall(self):
        while self._restore:
            obj, attr, fn = self._restore.pop()
            setattr(obj, attr, fn)

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return nid, start, end, parent

    def spans_by_name(self):
        """{name: (calls, total_ms, self_ms)}; self time excludes child spans."""
        nid, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        own = np.bincount(nid, weights=self_t, minlength=len(self.names))
        return {
            name: (int(calls[k]), 1e3 * float(total[k]), 1e3 * float(own[k]))
            for k, name in enumerate(self.names)
        }

    def _ms_where(self, names, parent_names=None, child_names=None):
        """Total ms of spans named in names.

        parent_names keeps only spans whose direct parent has one of those
        names; child_names instead sums the durations of the direct children
        with those names.
        """
        nid, start, end, parent = self._arrays()
        dur = end - start

        def ids(group):
            return [self._name_ids[n] for n in group if n in self._name_ids]

        mask = np.isin(nid, ids(names))
        if parent_names is not None:
            parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
            mask &= np.isin(parent_nid, ids(parent_names))
        if child_names is not None:
            is_child = np.isin(nid, ids(child_names)) & (parent >= 0)
            child = np.bincount(parent[is_child], weights=dur[is_child], minlength=dur.size)
            return 1e3 * float(np.sum(child[mask]))
        return 1e3 * float(np.sum(dur[mask]))

    def table(self):
        """Every per-layer metric, keyed by name, as {name: (value, unit)}."""
        by = self.spans_by_name()

        def calls(name):
            return by.get(name, (0, 0.0, 0.0))[0]

        def ms(name):
            return by.get(name, (0, 0.0, 0.0))[1]

        out = {}
        lstsq = ["tensor_ops.lstsq_info"]
        for kind in ("inner", "last"):
            name = f"solver.update_c.{kind}"
            solve = self._ms_where([name], child_names=lstsq)
            out[f"{name}.build_ms"] = (ms(name) - solve, "ms")
            out[f"{name}.solve_ms"] = (solve, "ms")
        for kind in ("first", "middle", "last"):
            out[f"solver.update_W.{kind}.ms"] = (ms(f"solver.update_W.{kind}"), "ms")
        sweeps = calls("solver.sweep")
        points = self.counts["sweep_points"]
        out["solver.sweeps"] = (sweeps, "count")
        out["solver.sweep_ms"] = (ms("solver.sweep") / sweeps if sweeps else 0.0, "ms")
        out["solver.sweep_us_per_point"] = (
            1e3 * ms("solver.sweep") / points if points else 0.0, "us")
        out["solver.rebalance.ms"] = (ms("solver.rebalance"), "ms")
        out["solver.objective.ms"] = (ms("solver.objective"), "ms")
        out["solver.build_MG.calls"] = (calls("solver.build_MG"), "count")
        out["solver.useful_sweep_frac"] = (useful_sweep_frac(self.fit_reports), "ratio")
        out["tensor_ops.lstsq_info.calls"] = (calls("tensor_ops.lstsq_info"), "count")
        out["tensor_ops.lstsq_info.ms"] = (ms("tensor_ops.lstsq_info"), "ms")
        out["tensor_ops.lstsq_info.truncated"] = (self.counts["lstsq_truncated"], "count")
        for attr in ("pt_slices", "internal_inputs_batch"):
            out[f"model.{attr}.calls"] = (calls(f"model.{attr}"), "count")
            out[f"model.{attr}.ms"] = (ms(f"model.{attr}"), "ms")
        out["model.eval_batch.ms"] = (ms("model.eval_batch"), "ms")
        out["model.build_jacobian_tensor.ms"] = (ms("model.build_jacobian_tensor"), "ms")
        for attr in ("build_X", "build_Y", "build_per_slice_X"):
            out[f"basis.{attr}.calls"] = (calls(f"basis.{attr}"), "count")
            out[f"basis.{attr}.ms"] = (ms(f"basis.{attr}"), "ms")
        stages = [len(rep.stages) for rep in self.tune_reports]
        out["tuner.stages"] = (sum(stages), "count")
        out["tuner.fit.ms"] = (self._ms_where(["solver.fit"], parent_names=["tuner.tune"]), "ms")
        out["tuner.validation_metric.ms"] = (ms("tuner.validation_metric"), "ms")
        out["tuner.useful_sweep_frac"] = (tuner_useful_frac(self.tune_reports), "ratio")
        out["harness.run.ms"] = (ms("harness.run"), "ms")
        out["harness.data_build.ms"] = (self._ms_where(
            ["model.build_jacobian_tensor", "model.build_f_matrix"],
            parent_names=["harness.run"]), "ms")
        out["harness.target_model.calls"] = (calls("harness.target_model"), "count")
        out["harness.failed_runs"] = (self.counts["failed_runs"], "count")
        out["cli.main.ms"] = (ms("cli.main"), "ms")
        out["cli.write.ms"] = (ms("cli.write"), "ms")
        for layer in LAYERS:
            own = sum(v[2] for k, v in by.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_ms"] = (own, "ms")
        return out

    def write(self, path):
        """Spans as compressed arrays plus the span-name list."""
        nid, start, end, parent = self._arrays()
        np.savez_compressed(
            path,
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
            unit=np.frombuffer(self.unit, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )


def _best_iteration(report):
    totals = [rec[3] for rec in report.state.trace]
    return 1 + int(np.argmin(totals)) if totals else 0


def useful_sweep_frac(fit_reports):
    """Sweeps up to the best objective / sweeps run, over all fits."""
    run = sum(rep.iterations for rep in fit_reports)
    return sum(_best_iteration(rep) for rep in fit_reports) / run if run else 0.0


def tuner_useful_frac(tune_reports):
    """Sweeps of the selected stage / sweeps of all stages, over all tunes."""
    run = sum(st.report.iterations for rep in tune_reports for st in rep.stages)
    kept = sum(rep.best.report.iterations for rep in tune_reports)
    return kept / run if run else 0.0


def span_cost_s(calls=20000, blocks=5):
    """Seconds one traced call adds to an untraced one: the median of a few blocks.

    A traced run's overhead is this times its span count; timing the traced
    and the untraced pass against each other cannot show it, because the
    host's speed drifts by more than the tracer costs.
    """
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrapper(noop, "noop")
    costs = []
    for _ in range(blocks):
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - t - bare) / calls)
    return statistics.median(costs)
