"""ptdecouple benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload f1-protocol --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory and nowhere else, so the command fails (exit code 2)
where that directory is missing.  A run

1. sets up the workload several times (a fresh interpreter importing
   ``ptdecouple.cli`` plus the workload's targets, configs and data), half
   of them before and half after the timed phase, and reports the median
   as ``setup_s``;
2. runs the short unit 0 (see workloads.py) untimed, to warm up;
3. with ``--trace 0``, times a fixed number of units that depends on
   ``--seconds`` alone (see ``Workload.units``), with a reference kernel
   (``Reference``) timed before each unit and after the last, then runs the
   short unit 0 again under tracemalloc for the peak memory and checks that
   it gave bit-identical numbers;
   with ``--trace 1``, runs the first units once untraced and once under
   the layer tracer (see tracer.py), checks that both gave bit-identical
   numbers and reports the per-layer table;
4. checks every output, prints every metric with its unit, the
   environment, and as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

Everything a run writes goes under ``.bench_out/`` in the checkout: the
full result (``result-<workload>-s<seed>-t<trace>.json``) and, for a traced
run, the spans (``trace-<workload>-s<seed>.npz``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: the problems are small and the runs share a 2-core machine
BLAS_THREADS = 1
# set-ups per run, half before and half after the timed phase, so that the
# median spans more than one of the host's seconds-long speed swings
SETUP_REPEATS = 10
# median of one Reference.measure() on the host the benchmark was tuned on
REFERENCE_MS = 80.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def pin_environment():
    """Pin BLAS threads and point this process and its children at SRC.

    Must run before numpy is imported.  Returns the thread settings found.
    """
    before = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)
    return before


def fresh_import_s():
    """Wall time of a new interpreter that imports ptdecouple.cli."""
    t = time.perf_counter()
    # with pipes, run() returns when the child closes them; without, its
    # timeout makes it poll for the exit in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import ptdecouple.cli"],
                   check=True, timeout=60, capture_output=True)
    return time.perf_counter() - t


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(args, blas_before):
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "blas_threads": BLAS_THREADS,
        "blas_threads_env_before": blas_before,
        "blas_threads_default": "one per core (os.cpu_count()) when no variable is set",
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(wl, repeats):
    """(set-up seconds, import seconds) of each of repeats set-ups."""
    totals, imports = [], []
    for _ in range(repeats):
        imp = fresh_import_s()
        t = time.perf_counter()
        wl.prepare()
        imports.append(imp)
        totals.append(imp + time.perf_counter() - t)
    return totals, imports


class Reference:
    """A fixed numpy kernel that owes nothing to ptdecouple, timed between units.

    The host is shared, and its speed drifts by up to a factor of two over
    minutes, for the package and for this kernel alike.  A run's time per
    sweep divided by the median of this kernel's times, taken in the same
    minutes, loses most of that drift.  The kernel mixes what the workloads
    spend their time on: many small least-squares solves (call overhead, as
    at S=30), a Kronecker product with an identity and a tall solve (memory
    and BLAS, as at S=1000).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = [(rng.standard_normal((30, 6)), rng.standard_normal(30)) for _ in range(300)]
        self.coupling = rng.standard_normal((2, 2))
        self.tall = rng.standard_normal((2400, 60))
        self.rhs = rng.standard_normal(2400)
        self.samples = []
        self.measure()
        self.samples.clear()

    def measure(self):
        np = self.np
        t = time.perf_counter()
        for _ in range(4):
            for a, b in self.small:
                np.linalg.lstsq(a, b, rcond=None)
            (np.kron(self.coupling, np.eye(600)) * 2.0).sum()
            np.linalg.lstsq(self.tall, self.rhs, rcond=None)
        self.samples.append(time.perf_counter() - t)
        return self.samples[-1]


def run_units(wl, count, tracer=None, reference=None):
    """Run units 0 .. count-1; returns (units, seconds spent in them).

    With a reference, measures it before each unit and after the last.
    """
    units, wall = [], 0.0
    for u in range(count):
        if reference:
            reference.measure()
        t = time.perf_counter()
        if tracer is None:
            units.append(wl.run_unit(u))
        else:
            tracer.current_unit = u
            units.append(tracer.span("bench.unit", wl.run_unit, u))
        wall += time.perf_counter() - t
    if reference:
        reference.measure()
    return units, wall


def peak_mem_mb(wl):
    """(peak MB, unit) of the short unit 0 run under tracemalloc."""
    tracemalloc.start()
    try:
        unit = wl.run_unit(0, short=True)
        return tracemalloc.get_traced_memory()[1] / 1e6, unit
    finally:
        tracemalloc.stop()


def quality(units):
    """Quality figures of a set of units (identical for a given seed)."""
    rows = [row for unit in units for row in unit.rows]
    ok = [row for row in rows if not row.failed]
    by_strategy = {}
    for row in ok:
        by_strategy.setdefault(row.strategy, []).append(row)
    e_pct = {
        s: [statistics.median(r.errors[i] for r in rs) for i in range(len(rs[0].errors))]
        for s, rs in by_strategy.items()
    }
    err_j = [statistics.median(r.err_j for r in rs) for rs in by_strategy.values()]
    return {
        "err_j.p50": max(err_j) if err_j else None,
        "e_pct.p50": max((e for es in e_pct.values() for e in es), default=None),
        "accurate_frac": sum(r.accurate for r in rows) / len(rows),
        "failed_frac": (len(rows) - len(ok)) / len(rows),
        "e_pct.p50_per_strategy": e_pct,
    }


def ms_per_sweep(units):
    """Mean over strategies of the median over units of a run's ms per sweep.

    Weighting the strategies equally keeps the figure from following the
    share of sweeps each strategy happened to run on the seed's data; the
    median keeps a unit that met a burst of load on the host from moving it.
    """
    per_sweep = {}
    for unit in units:
        for row in unit.rows:
            if row.sweeps:
                per_sweep.setdefault(row.strategy, []).append(row.seconds / row.sweeps)
    return 1e3 * statistics.fmean(statistics.median(v) for v in per_sweep.values())


def sweeps_per_fit(units):
    """Geometric mean over every solver fit of the sweeps it ran.

    A few fits of a seed run to max_iters; an arithmetic mean would follow
    how many of them a seed's data happens to hold.
    """
    sweeps = [n for unit in units for row in unit.rows for n in row.fit_sweeps]
    return statistics.geometric_mean(sweeps)


def checked(wl, units, reference=None, label="re-run"):
    """Check every unit and, given reference units, their bit-identity to them."""
    problems = []
    for unit in units:
        wl.check(unit)
        problems += unit.problems
        if unit.sweeps < 1 and not all(row.failed for row in unit.rows):
            problems.append(f"seed {unit.seed}: no sweeps ran")
    for a, b in zip(reference or (), units):
        if a.fingerprint != b.fingerprint:
            problems.append(f"{label}: seed {b.seed} gave different numbers the second time")
    return problems


def run_untraced(wl, args):
    setups, _ = measure_setup(wl, SETUP_REPEATS // 2)
    warm = wl.run_unit(0, short=True)
    reference = Reference()
    units, wall = run_units(wl, wl.n_units, reference=reference)
    peak, again = peak_mem_mb(wl)
    setups += measure_setup(wl, SETUP_REPEATS - len(setups))[0]
    problems = (checked(wl, [warm]) + checked(wl, [again], [warm], "short unit re-run")
                + checked(wl, units))
    per_sweep = ms_per_sweep(units)
    reference_ms = 1e3 * statistics.median(reference.samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "ms_per_sweep.at_ref_speed": per_sweep * REFERENCE_MS / reference_ms,
        "sweeps_per_fit.gmean": sweeps_per_fit(units),
        "peak_mem_mb": peak,
    }
    info = {
        "ms_per_sweep": per_sweep,
        "reference_ms": reference_ms,
        "reference_samples_ms": [1e3 * x for x in reference.samples],
        "wall_s": wall,
        "run_s.p50": statistics.median(unit.seconds for unit in units),
        "fits_per_run": statistics.fmean(len(r.fit_sweeps) for u in units for r in u.rows),
        "units": len(units),
        "sweeps": sum(unit.sweeps for unit in units),
        "setups_s": setups,
        "rows": [(unit.seed, r.strategy, r.seconds, r.fit_sweeps)
                 for unit in units for r in unit.rows],
        **quality(units),
    }
    return units, metrics, info, problems


def run_traced(wl, args):
    from tracer import Tracer, span_cost_s

    _, imports = measure_setup(wl, SETUP_REPEATS)
    wl.run_unit(0, short=True)
    t = time.perf_counter()
    wl.prepare()
    plain, _ = run_units(wl, wl.trace_units)
    plain_wall = time.perf_counter() - t

    tracer = Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        tracer.span("bench.prepare", wl.prepare)
        units, _ = run_units(wl, wl.trace_units, tracer=tracer)
        traced_wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.npz"))
    problems = checked(wl, plain) + checked(wl, units, plain, "traced re-run")

    per_span = span_cost_s()
    table = tracer.table()
    table["cli.import_s"] = (statistics.median(imports), "s")
    table["trace.overhead_s"] = (len(tracer.start) * per_span, "s")
    info = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "traced_minus_untraced_s": traced_wall - plain_wall,
        "spans": len(tracer.start),
        "span_cost_us": 1e6 * per_span,
        "per_layer_table": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        **quality(units),
    }
    return units, {k: v for k, (v, _) in table.items()}, info, problems


def main(argv=None):
    args = parse_args(argv)
    blas_before = pin_environment()
    if not os.path.isfile(os.path.join(SRC, "ptdecouple", "__init__.py")):
        print(f"ptdecouple sources not found under {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        kind = WORKLOADS[args.workload]
        wl = kind(args.seed, workdir, in_process=bool(args.trace),
                  n_units=kind.units(args.seconds))
        if args.trace:
            units, measured, info, problems = run_traced(wl, args)
            names = list(spec.PER_LAYER)
            units_of = {n: spec.PER_LAYER[n]["unit"] for n in names}
        else:
            units, measured, info, problems = run_untraced(wl, args)
            names = list(spec.END_TO_END)
            units_of = {n: spec.END_TO_END[n][0] for n in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [row for unit in units for row in unit.rows]
    result = {
        "correct": not problems,
        "attempted": len(rows),
        "failed": sum(row.failed for row in rows),
        "metrics": {n: {"value": measured[n], "unit": units_of[n]} for n in names},
    }
    env = environment(args, blas_before)
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "result": result, "info": info, "problems": problems,
                   "layer_map": spec.PER_LAYER if args.trace else None}, fh, indent=1)
        fh.write("\n")

    for n in names:
        print(f"{n:40s} {measured[n]:.6g} {units_of[n]}")
    if not args.trace:
        for n, (unit, _) in spec.INFO_METRICS.items():
            value = info[n]
            print(f"{n:40s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
        print(f"{'units run':40s} {info['units']} ({info['sweeps']} sweeps)")
    else:
        print(f"{'traced minus untraced wall':40s} {info['traced_minus_untraced_s']:.6g} s "
              f"({info['spans']} spans)")
    for p in problems:
        print(f"problem: {p}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
