"""Batched, seeded decoupling experiments with CSV/JSON result tables.

Targets are two-layer polynomial benchmark systems shipped with the package
(``f1``, ``f2``, ``f3``), freshly generated random systems under a
collinearity cap, or models loaded from JSON files.  Each run samples its
own training and validation points, builds the Jacobian tensor and the
evaluation matrix, drives the adaptive-weight tuner and records the
relative decomposition errors plus per-output validation errors.

Randomness is derived from the counter-based Philox generator through
``numpy.random.SeedSequence`` so results reproduce across platforms.  Run r
of an experiment with base seed s uses the streams

    SeedSequence(s, spawn_key=(r, 0))  training points
    SeedSequence(s, spawn_key=(r, 1))  validation points
    SeedSequence(s, spawn_key=(r, 2))  held-out test points (optional)
    SeedSequence(s, spawn_key=(r, 3))  solver initialization seed

and the tuner XORs the stage index into the solver seed per stage.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    DecoupledModel,
    build_f_matrix,
    build_jacobian_tensor,
    eval_batch,
    load_model,
)
from .solver import SolverConfig, SolverDivergenceError, state_to_model
from .tuner import TunerConfig, rrmse, tune

__all__ = [
    "SyntheticSpec",
    "ExperimentConfig",
    "RunResult",
    "ResultTable",
    "builtin_system",
    "generate_system",
    "collinearity",
    "rrmse",
    "run_experiment",
    "write_results",
]

BUILTINS = ("f1", "f2", "f3")


def builtin_system(name):
    """One of the shipped two-layer benchmark systems, reconstructed exactly."""
    if name == "f1":
        w2 = [[1.61, -1.9], [-0.03, 0.11]]
        w1 = [[0.87, -0.99], [-1.42, 0.9]]
        w0 = [[1.72, -0.73], [-1.26, -1.18]]
        g1 = [
            [0.0, 0.58, -2.69, 2.37, 1.37, 1.91],
            [0.0, 0.0, 1.86, -2.42, -1.69, -1.45],
        ]
        g2 = [
            [-0.19, -0.24, 1.26],
            [-1.93, 0.19, -1.99],
        ]
    elif name == "f2":
        w2 = [[-0.59, 0.86], [0.02, -1.1], [-1.02, 1.17]]
        w1 = [[0.21, -0.94], [-1.12, 0.56]]
        w0 = [[1.08, 1.71, 0.44], [-1.4, -0.04, -0.49]]
        g1 = [
            [0.0, -0.03, 2.49, 2.67],
            [0.0, 0.2, -1.49, 1.33],
        ]
        g2 = [
            [-0.8, -0.01, -1.64, -0.88],
            [0.91, -1.12, -1.61, 1.69],
        ]
    elif name == "f3":
        w2 = [[1.05, -1.11], [-0.95, -0.17], [-1.0, 0.27]]
        w1 = [[1.49, -1.05, -1.0], [0.78, -1.29, 0.62]]
        w0 = [
            [-1.43, 0.06, 0.76, 1.43],
            [0.59, 0.33, 0.84, -0.99],
            [1.6, -0.23, -1.92, 1.84],
        ]
        g1 = [
            [0.0, 2.08, -0.73, -0.41],
            [0.0, 2.0, -0.77, -2.76],
            [0.0, 0.33, -0.29, 1.35],
        ]
        g2 = [
            [-0.73, 2.04, -0.18, 0.38, 0.97],
            [-0.23, 0.74, -1.67, 1.4, -0.71],
        ]
    else:
        raise ValueError(f"unknown builtin system {name!r}")
    return DecoupledModel(
        weights=(np.array(w0), np.array(w1), np.array(w2)),
        coeffs=(np.array(g1), np.array(g2)),
    )


def collinearity(w):
    """Largest normalized pairwise column inner product; -inf below two columns."""
    w = np.asarray(w, dtype=float)
    r = w.shape[1]
    if r < 2:
        return -np.inf
    norms = np.linalg.norm(w, axis=0)
    gram = (w.T @ w) / np.outer(norms, norms)
    return float(np.max(gram[~np.eye(r, dtype=bool)]))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random decoupled system with bounded factor collinearity.

    Outer weight matrices are drawn uniformly from [-2, 2], middle layers
    from [-1.5, 1.5], each redrawn until its collinearity factor is below
    ``collinearity_max``.  Polynomial coefficients come from [-3, 3]; the
    constant terms of all but the last layer are zero, matching the shipped
    benchmark systems.
    """

    n_inputs: int
    n_outputs: int
    ranks: tuple
    degrees: tuple
    outer_range: tuple = (-2.0, 2.0)
    middle_range: tuple = (-1.5, 1.5)
    coeff_range: tuple = (-3.0, 3.0)
    collinearity_max: float = 0.5
    seed: int = 0
    max_tries: int = 10000

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if len(self.ranks) != len(self.degrees) or not self.ranks:
            raise ValueError("ranks and degrees must be non-empty and equally long")
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("need positive input and output dims")

    def to_dict(self):
        return {
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "ranks": list(self.ranks),
            "degrees": list(self.degrees),
            "outer_range": list(self.outer_range),
            "middle_range": list(self.middle_range),
            "coeff_range": list(self.coeff_range),
            "collinearity_max": self.collinearity_max,
            "seed": int(self.seed),
            "max_tries": self.max_tries,
        }


def generate_system(spec):
    """Draw a random decoupled system per the spec; deterministic in the seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(spec.seed))))
    L = len(spec.ranks)
    shapes = [(spec.ranks[0], spec.n_inputs)]
    shapes += [(spec.ranks[i + 1], spec.ranks[i]) for i in range(L - 1)]
    shapes += [(spec.n_outputs, spec.ranks[-1])]
    weights = []
    for i, shape in enumerate(shapes):
        lo, hi = spec.middle_range if 0 < i < L else spec.outer_range
        for _ in range(spec.max_tries):
            w = rng.uniform(lo, hi, size=shape)
            if collinearity(w) < spec.collinearity_max:
                weights.append(w)
                break
        else:
            raise RuntimeError(
                f"rejection budget exceeded for weight matrix {i}; "
                f"collinearity cap {spec.collinearity_max} may be infeasible"
            )
    lo, hi = spec.coeff_range
    coeffs = []
    for l, (r, d) in enumerate(zip(spec.ranks, spec.degrees)):
        c = rng.uniform(lo, hi, size=(r, d + 1))
        if l < L - 1:
            c[:, 0] = 0.0
        coeffs.append(c)
    return DecoupledModel(weights=tuple(weights), coeffs=tuple(coeffs))


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for a batch of decoupling runs against one target.

    Exactly one of ``builtin``, ``model_file`` or ``generate`` selects the
    target.  Every run fits through the tuner (``tuner.tune``) with
    ``lambda0``, ``beta`` and ``max_stages``, so each stage starts from its
    own seeded start search.
    """

    solver: SolverConfig
    builtin: str = None
    model_file: str = None
    generate: SyntheticSpec = None
    n_samples: int = 30
    n_validation: int = 30
    n_test: int = 0
    runs: int = 1
    seed: int = 0
    lambda0: float = 1e-6
    beta: float = 100.0
    max_stages: int = 8
    jobs: int = 1

    def __post_init__(self):
        picked = [x for x in (self.builtin, self.model_file, self.generate) if x is not None]
        if len(picked) != 1:
            raise ValueError("exactly one of builtin, model_file or generate must be set")
        if self.builtin is not None and self.builtin not in BUILTINS:
            raise ValueError(f"unknown builtin {self.builtin!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.n_samples < 1:
            raise ValueError("need at least one sampling point")
        if self.n_validation < 2:
            raise ValueError("need at least two validation points")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def target_model(self):
        if self.builtin is not None:
            return builtin_system(self.builtin)
        if self.model_file is not None:
            return load_model(self.model_file)
        return generate_system(self.generate)

    def to_dict(self):
        out = {
            "solver": self.solver.to_dict(),
            "n_samples": self.n_samples,
            "n_validation": self.n_validation,
            "n_test": self.n_test,
            "runs": self.runs,
            "seed": int(self.seed),
            "lambda0": self.lambda0,
            "beta": self.beta,
            "max_stages": self.max_stages,
            "jobs": self.jobs,
        }
        if self.builtin is not None:
            out["target"] = {"builtin": self.builtin}
        elif self.model_file is not None:
            out["target"] = {"model_file": self.model_file}
        else:
            out["target"] = {"generate": self.generate.to_dict()}
        return out


@dataclass
class RunResult:
    run_id: int
    seed: int
    lambda_selected: float = None
    iterations: int = None
    stop_reason: str = None
    error_j: float = None
    error_f: float = None
    output_errors: list = field(default_factory=list)
    test_errors: list = None
    error: str = None

    @property
    def failed(self):
        return self.error is not None


@dataclass
class ResultTable:
    rows: list
    aggregates: dict
    config: ExperimentConfig
    n_outputs: int


def _rng(base_seed, run_id, stream):
    seq = np.random.SeedSequence(int(base_seed), spawn_key=(int(run_id), stream))
    return np.random.Generator(np.random.Philox(seq))


def _solver_seed(base_seed, run_id):
    seq = np.random.SeedSequence(int(base_seed), spawn_key=(int(run_id), 3))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# what a run may fail with and still be a result: the solver diverging,
# overflow, or a ValueError (non-finite factors, a degenerate validation
# set, numpy's LinAlgError); anything else is a programming error and
# propagates
_RUN_FAILURES = (SolverDivergenceError, ArithmeticError, ValueError)


def _single_run(cfg, target, run_id):
    m = target.n_inputs
    solver_seed = _solver_seed(cfg.seed, run_id)
    row = RunResult(run_id=run_id, seed=solver_seed)
    try:
        train = _rng(cfg.seed, run_id, 0).uniform(-1.0, 1.0, size=(cfg.n_samples, m))
        val = _rng(cfg.seed, run_id, 1).uniform(-1.0, 1.0, size=(cfg.n_validation, m))
        j_tensor = build_jacobian_tensor(target, train)
        f_matrix = build_f_matrix(target, train)
        val_targets = eval_batch(target, val)

        tuner_cfg = TunerConfig(
            solver=replace(cfg.solver, rng_seed=solver_seed),
            lambda0=cfg.lambda0,
            beta=cfg.beta,
            max_stages=cfg.max_stages,
        )
        report = tune(tuner_cfg, j_tensor, f_matrix, train, (val, val_targets))

        best = report.best
        fitted = best.report
        row.lambda_selected = best.lam
        row.iterations = fitted.iterations
        row.stop_reason = fitted.stop_reason
        row.error_j = fitted.error_j
        row.error_f = fitted.error_f
        fitted_model = state_to_model(fitted.state)
        row.output_errors = list(rrmse(val_targets, eval_batch(fitted_model, val)))
        if cfg.n_test >= 2:
            test = _rng(cfg.seed, run_id, 2).uniform(-1.0, 1.0, size=(cfg.n_test, m))
            test_targets = eval_batch(target, test)
            row.test_errors = list(rrmse(test_targets, eval_batch(fitted_model, test)))
    except _RUN_FAILURES as exc:  # failed runs are recorded, not dropped
        row.error = f"{type(exc).__name__}: {exc}"
        row.stop_reason = "error"
    return row


def _aggregate(values):
    a = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(a)),
        "median": float(np.median(a)),
        "std": float(np.std(a, ddof=1)) if a.size > 1 else 0.0,
    }


def run_experiment(cfg):
    """Execute all runs (optionally in parallel) and aggregate the metrics.

    Rows are ordered by run id regardless of completion order; aggregates
    cover the successful runs only and are recomputable from the rows.
    """
    target = cfg.target_model()
    n_outputs = target.n_outputs
    runs = range(cfg.runs)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_single_run, [cfg] * cfg.runs, [target] * cfg.runs, runs))
    else:
        rows = [_single_run(cfg, target, r) for r in runs]
    rows.sort(key=lambda r: r.run_id)

    ok = [r for r in rows if not r.failed]
    aggregates = {"runs": cfg.runs, "failed": len(rows) - len(ok)}
    if ok:
        aggregates["error_j"] = _aggregate([r.error_j for r in ok])
        aggregates["error_f"] = _aggregate([r.error_f for r in ok])
        for i in range(n_outputs):
            aggregates[f"e_{i + 1}"] = _aggregate([r.output_errors[i] for r in ok])
        if all(r.test_errors is not None for r in ok) and cfg.n_test >= 2:
            for i in range(n_outputs):
                aggregates[f"test_e_{i + 1}"] = _aggregate(
                    [r.test_errors[i] for r in ok]
                )
    return ResultTable(rows=rows, aggregates=aggregates, config=cfg, n_outputs=n_outputs)


def _fmt(x):
    return "" if x is None else repr(float(x))


def write_results(table, csv_path, json_path):
    """Write the per-run CSV and the aggregate JSON.

    CSV columns: run_id, seed, lambda_selected, iters, stop_reason, err_J,
    err_F, e_1..e_n, error.  Reruns of the same configuration produce
    byte-identical files.
    """
    n_outputs = table.n_outputs
    header = ["run_id", "seed", "lambda_selected", "iters", "stop_reason", "err_J", "err_F"]
    header += [f"e_{i + 1}" for i in range(n_outputs)]
    header += ["error"]
    lines = [",".join(header)]
    for r in table.rows:
        parts = [
            str(r.run_id),
            str(r.seed),
            _fmt(r.lambda_selected),
            "" if r.iterations is None else str(r.iterations),
            r.stop_reason or "",
            _fmt(r.error_j),
            _fmt(r.error_f),
        ]
        errs = r.output_errors or []
        parts += [_fmt(errs[i]) if i < len(errs) else "" for i in range(n_outputs)]
        parts += ['"' + r.error.replace('"', "'") + '"' if r.error else ""]
        lines.append(",".join(parts))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    doc = {"config": table.config.to_dict(), "aggregates": table.aggregates}
    if any(r.test_errors for r in table.rows):
        doc["test_errors"] = {
            str(r.run_id): r.test_errors for r in table.rows if r.test_errors
        }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
