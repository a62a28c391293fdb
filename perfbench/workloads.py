"""The three benchmark workloads, driven through ptdecouple's public entry points.

A workload is prepared once per set-up (targets, configs, data) and then
runs numbered units; unit u draws everything it needs from the workload
seed and u alone, so re-running a unit must give bit-identical numbers.
A run times a fixed number of units, ``units(seconds)``, which depends on
``--seconds`` alone, so that two commits always run the same work.
A short unit is the same unit capped at 2 sweeps and one tuner stage; it
serves as warm-up, as the peak-memory pass and as the re-run check.

``run_unit`` does the work and returns a ``Unit``: one row per fit (its
time, its sweeps, its quality) and a fingerprint of every quality number.
``check`` validates a unit afterwards, so that the package calls it makes
stay out of the timings and out of the traced spans.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field, replace
from io import StringIO

import numpy as np

from ptdecouple import cli, harness, model, solver, tuner

ACCURATE_PCT = 3.0
CLI_TIMEOUT_S = 150
SHORT_SWEEPS = 2


def unit_seed(seed, u):
    """Seed of unit u of a workload run with the given benchmark seed."""
    return int(np.random.SeedSequence((int(seed), int(u))).generate_state(1)[0])


@dataclass
class Row:
    """One fit: one strategy on one seed, or one CLI call."""

    strategy: str
    failed: bool
    seconds: float
    fit_sweeps: tuple = ()  # sweeps of each solver fit: one per tuner stage
    err_j: float = math.nan
    err_f: float = math.nan
    errors: tuple = ()

    @property
    def sweeps(self):
        return sum(self.fit_sweeps)

    @property
    def accurate(self):
        return not self.failed and all(e <= ACCURATE_PCT for e in self.errors)


@dataclass
class Unit:
    seed: int
    rows: list = field(default_factory=list)
    fingerprint: tuple = ()
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def sweeps(self):
        return sum(row.sweeps for row in self.rows)

    @property
    def seconds(self):
        return sum(row.seconds for row in self.rows)


@contextmanager
def counting_tuner_sweeps():
    """Yield a list that collects the sweeps of every tuned run's stages.

    ``run_experiment`` keeps only the selected stage's iteration count, so
    the harness's ``tune`` is wrapped for the duration of the block.  The
    wrapper goes on top of whatever is there, the tracer's wrapper included,
    and reads one report per run.
    """
    inner = harness.tune
    sweeps = []

    def counted(*args, **kwargs):
        report = inner(*args, **kwargs)
        sweeps.extend(st.report.iterations for st in report.stages)
        return report

    harness.tune = counted
    try:
        yield sweeps
    finally:
        harness.tune = inner


class Workload:
    name = None
    # seconds of --seconds per unit: sets how many units a run has, and so
    # how many fits its medians and means are taken over
    unit_s = 1.0
    trace_units = 2  # the units 0.. that a traced run runs
    strategies = ("constr", "proj")

    def __init__(self, seed, workdir, in_process, n_units):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.n_units = n_units

    @classmethod
    def units(cls, seconds):
        """Units a run of about that many seconds times; fixed per --seconds."""
        return max(cls.trace_units, round(seconds / cls.unit_s))

    def check(self, unit):
        """Record a problem for every fit whose errors are missing or non-finite."""
        for row in unit.rows:
            values = (row.err_j, row.err_f) + tuple(row.errors)
            if not row.failed and not (row.errors and all(map(math.isfinite, values))):
                unit.problems.append(
                    f"seed {unit.seed} {row.strategy}: non-finite or missing errors")


class F1Protocol(Workload):
    """Criterion-2 f1 runs via run_experiment, one seed per unit, both strategies."""

    name = "f1-protocol"
    unit_s = 5.0

    def prepare(self):
        self.configs = {
            s: harness.ExperimentConfig(
                solver=solver.SolverConfig(
                    ranks=(2, 2), degrees=(5, 2), strategy=s,
                    min_iters=10, max_iters=500, patience=50,
                ),
                builtin="f1", n_samples=30, n_validation=30, runs=1,
                lambda0=1e-6, beta=100.0, max_stages=8, jobs=1,
            )
            for s in self.strategies
        }

    def run_unit(self, u, short=False):
        out = Unit(unit_seed(self.seed, u))
        for s in self.strategies:
            cfg = replace(self.configs[s], seed=out.seed)
            if short:
                cfg = replace(cfg, max_stages=1, solver=replace(
                    cfg.solver, min_iters=SHORT_SWEEPS, max_iters=SHORT_SWEEPS))
            t = time.perf_counter()
            with counting_tuner_sweeps() as sweeps:
                table = harness.run_experiment(cfg)
            r = table.rows[0]
            row = Row(s, r.failed, time.perf_counter() - t, tuple(sweeps))
            if not r.failed:
                row.err_j, row.err_f, row.errors = r.error_j, r.error_f, tuple(r.output_errors)
            out.rows.append(row)
            out.fingerprint += (r.error_j, r.error_f, tuple(r.output_errors),
                                r.iterations, r.lambda_selected, r.error)
        return out


class F2S1000(Workload):
    """Fixed-sweep fits on f2 at S=1000; one solver seed per unit, both strategies."""

    name = "f2-s1000"
    unit_s = 3.0
    n_samples = 1000
    n_validation = 200
    sweeps = 5
    lam = 1e-6

    def prepare(self):
        target = harness.builtin_system("f2")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(self.seed))))
        self.train = rng.uniform(-1.0, 1.0, size=(self.n_samples, target.n_inputs))
        self.val = rng.uniform(-1.0, 1.0, size=(self.n_validation, target.n_inputs))
        self.j_tensor = model.build_jacobian_tensor(target, self.train)
        self.f_matrix = model.build_f_matrix(target, self.train)
        self.val_targets = model.eval_batch(target, self.val)

    def run_unit(self, u, short=False):
        out = Unit(unit_seed(self.seed, u))
        sweeps = SHORT_SWEEPS if short else self.sweeps
        for s in self.strategies:
            cfg = solver.SolverConfig(
                ranks=(2, 2), degrees=(3, 3), lam=self.lam, strategy=s,
                min_iters=sweeps, max_iters=sweeps, rng_seed=out.seed,
            )
            t = time.perf_counter()
            try:
                rep = solver.fit(cfg, self.j_tensor, self.f_matrix, self.train)
            except (solver.SolverDivergenceError, np.linalg.LinAlgError) as exc:
                out.rows.append(Row(s, True, time.perf_counter() - t))
                out.fingerprint += (repr(exc),)
                continue
            fitted = solver.state_to_model(rep.state)
            errors = tuple(harness.rrmse(self.val_targets, model.eval_batch(fitted, self.val)))
            out.rows.append(Row(s, False, time.perf_counter() - t, (rep.iterations,),
                                rep.error_j, rep.error_f, errors))
            out.fingerprint += (rep.error_j, rep.error_f, errors, rep.iterations)
        return out


class DeepCli(Workload):
    """``ptdecouple decouple`` calls on generated three-layer systems.

    Each unit has its own target, made by ``ptdecouple generate`` in set-up
    (in process: the interpreter start and import are measured apart), so
    that one hard or easy target does not set a whole run's figures.  Out
    of the trace, every decouple call is its own interpreter (``python -m
    ptdecouple.cli``); in the traced run the same argument lists go through
    ``cli.main`` in this process so that the tracer sees inside.  A short
    unit also runs in process, for tracemalloc to see it.
    """

    name = "deep-cli"
    # more units than f1 for the same --seconds: a unit is one tuned run (f1
    # has two), and the sweeps a target needs vary most from one to the next
    unit_s = 3.3
    strategies = ("constr",)
    ranks, degrees = "3,2,2", "2,3,2"
    n_samples = n_validation = 30

    def _cli(self, argv, in_process):
        """Run the CLI; returns (exit code, stdout)."""
        if in_process:
            buf = StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ptdecouple.cli", *argv],
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1, ""
        return proc.returncode, proc.stdout

    def prepare(self):
        self.model_paths = []
        for u in range(self.n_units):
            code, stdout = self._cli([
                "generate", "-m", "3", "-n", "2", "--ranks", self.ranks,
                "--degrees", self.degrees, "--seed", str(unit_seed(self.seed, u) ^ 1),
                "--out", self.workdir,
            ], True)
            if code != 0:
                raise RuntimeError(f"ptdecouple generate exited with {code}")
            self.model_paths.append(stdout.split("wrote ", 1)[1].strip())

    def run_unit(self, u, short=False):
        out = Unit(unit_seed(self.seed, u))
        out_dir = os.path.join(self.workdir, f"{'short' if short else 'unit'}{u}")
        argv = [
            "decouple", "--target", self.model_paths[u], "--ranks", self.ranks,
            "--degrees", self.degrees, "--samples", str(self.n_samples),
            "--validation", str(self.n_validation), "--strategy", "constr",
            "--seed", str(out.seed), "--out", out_dir,
        ]
        if short:
            argv += ["--max-stages", "1", "--min-iters", str(SHORT_SWEEPS),
                     "--max-iters", str(SHORT_SWEEPS)]
        t = time.perf_counter()
        code, stdout = self._cli(argv, short or self.in_process)
        seconds = time.perf_counter() - t
        if code != 0:
            out.rows.append(Row("constr", True, seconds))
            out.fingerprint = (code,)
            return out
        with open(os.path.join(out_dir, "tuner_report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out_dir, "decoupled_model.json"), "rb") as fh:
            model_bytes = fh.read()
        best = report["stages"][report["selected"]]
        out.rows.append(Row("constr", False, seconds,
                            tuple(st["report"]["iterations"] for st in report["stages"]),
                            best["report"]["error_j"], best["report"]["error_f"]))
        out.fingerprint = (stdout.splitlines()[0], model_bytes)
        out.outputs = {"dir": out_dir, "stdout": stdout, "metric": best["metric"],
                       "target": self.model_paths[u]}
        return out

    def check(self, unit):
        """The model file must reproduce the metric the CLI printed and reported."""
        if unit.outputs:
            target = model.load_model(unit.outputs["target"])
            fitted = model.load_model(os.path.join(unit.outputs["dir"], "decoupled_model.json"))
            # the decouple command draws its validation points from this stream
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(unit.seed, spawn_key=(1,))))
            val = rng.uniform(-1.0, 1.0, size=(self.n_validation, target.n_inputs))
            val_targets = model.eval_batch(target, val)
            metric = tuner.validation_metric(fitted, val, val_targets)
            printed = float(unit.outputs["stdout"].split("metric=")[1].split()[0])
            if not (math.isclose(metric, unit.outputs["metric"], rel_tol=1e-12)
                    and abs(metric - printed) <= 5e-5 * max(1.0, abs(printed))):
                unit.problems.append(f"seed {unit.seed}: the model file gives metric "
                                     f"{metric!r}, the CLI printed {printed!r}")
            unit.rows[0].errors = tuple(harness.rrmse(val_targets, model.eval_batch(fitted, val)))
        super().check(unit)


WORKLOADS = {w.name: w for w in (F1Protocol, F2S1000, DeepCli)}
