"""Batched, seeded decoupling experiments with CSV/JSON result tables.

Targets are two-layer polynomial benchmark systems shipped with the package
(``f1``, ``f2``, ``f3``), freshly generated random systems under a
collinearity cap, or models loaded from JSON files.  Each run samples its
own training and validation points, builds the Jacobian tensor and the
evaluation matrix, drives the adaptive-weight tuner and records the
relative decomposition errors plus per-output validation errors.

Randomness comes from ``solver.seeded_rng``, the counter-based Philox
generator seeded through ``numpy.random.SeedSequence``, so results
reproduce across platforms.  Run r of an experiment with base seed s, and
the one run of the CLI's ``decouple`` with seed s, use the streams

    experiment run r                   decouple           use
    seeded_rng(s, r, 0)                seeded_rng(s, 0)   training points
    seeded_rng(s, r, 1)                seeded_rng(s, 1)   validation points
    seeded_rng(s, r, 2)                -                  held-out test points (optional)
    SeedSequence(s, spawn_key=(r, 3))  s                  solver initialization seed

and the tuner XORs the stage index into the solver seed per stage; a
generated system draws from ``seeded_rng(spec.seed)``.  Both draw their
points and tune through :func:`tuned_run`.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .model import (
    DecoupledModel,
    build_f_matrix,
    build_jacobian_tensor,
    eval_batch,
    load_model,
)
from .solver import (
    SolverConfig,
    SolverDivergenceError,
    _as_int,
    _layer_sizes,
    seeded_rng,
    state_to_model,
)
from .tuner import TunerConfig, rrmse, tune

__all__ = [
    "SyntheticSpec",
    "ExperimentConfig",
    "RunResult",
    "ResultTable",
    "builtin_system",
    "config_keys",
    "generate_system",
    "collinearity",
    "rrmse",
    "run_experiment",
    "tuned_run",
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


# the ranges that generate_system draws from, and its redraws per weight matrix
OUTER_RANGE = (-2.0, 2.0)
MIDDLE_RANGE = (-1.5, 1.5)
COEFF_RANGE = (-3.0, 3.0)
MAX_TRIES = 10000


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random decoupled system with bounded factor collinearity.

    Outer weight matrices are drawn uniformly from ``OUTER_RANGE`` = [-2, 2],
    middle layers from ``MIDDLE_RANGE`` = [-1.5, 1.5], each redrawn (at most
    ``MAX_TRIES`` times) until its collinearity factor is below
    ``collinearity_max``.  Polynomial coefficients come from ``COEFF_RANGE``
    = [-3, 3]; the constant terms of all but the last layer are zero,
    matching the shipped benchmark systems.  The six fields are also the
    keys of a ``generate`` target in an experiment config.
    """

    n_inputs: int
    n_outputs: int
    ranks: tuple
    degrees: tuple
    collinearity_max: float = 0.5
    seed: int = 0

    def __post_init__(self):
        ranks, degrees = _layer_sizes(self.ranks, self.degrees)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "degrees", degrees)
        for name in ("n_inputs", "n_outputs", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("need positive input and output dims")
        if np.isnan(self.collinearity_max):
            raise ValueError("collinearity_max must be a number, got nan")


class GenerationError(RuntimeError):
    """No weight matrix under the collinearity cap within ``MAX_TRIES`` draws."""


def generate_system(spec):
    """Draw a random decoupled system per the spec; deterministic in the seed."""
    rng = seeded_rng(spec.seed)
    L = len(spec.ranks)
    shapes = [(spec.ranks[0], spec.n_inputs)]
    shapes += [(spec.ranks[i + 1], spec.ranks[i]) for i in range(L - 1)]
    shapes += [(spec.n_outputs, spec.ranks[-1])]
    weights = []
    for i, shape in enumerate(shapes):
        lo, hi = MIDDLE_RANGE if 0 < i < L else OUTER_RANGE
        for _ in range(MAX_TRIES):
            w = rng.uniform(lo, hi, size=shape)
            if collinearity(w) < spec.collinearity_max:
                weights.append(w)
                break
        else:
            raise GenerationError(
                f"rejection budget exceeded for weight matrix {i}; "
                f"collinearity cap {spec.collinearity_max} may be infeasible"
            )
    lo, hi = COEFF_RANGE
    coeffs = []
    for l, (r, d) in enumerate(zip(spec.ranks, spec.degrees)):
        c = rng.uniform(lo, hi, size=(r, d + 1))
        if l < L - 1:
            c[:, 0] = 0.0
        coeffs.append(c)
    return DecoupledModel(weights=tuple(weights), coeffs=tuple(coeffs))


# An experiment config file is ExperimentConfig, SolverConfig and
# SyntheticSpec written out: the keys are their field names, less the fields
# no file sets and with these three renamed, and a key left out takes the
# field's default.
FILE_KEYS = {"n_samples": "samples", "n_validation": "validation", "n_test": "test"}
_TARGETS = ("builtin", "model_file", "generate")
# the tuner sets lam per stage and _single_run sets rng_seed per run
_PER_RUN = ("lam", "rng_seed")


def config_keys(cls):
    """File keys of a config dataclass in field order, each mapped to whether it is required.

    ``cls`` is ``ExperimentConfig`` (whose target fields sit in one
    ``target`` object instead), ``SolverConfig`` or ``SyntheticSpec``.
    """
    skip = {ExperimentConfig: _TARGETS, SolverConfig: _PER_RUN}.get(cls, ())
    return {
        FILE_KEYS.get(f.name, f.name): f.default is MISSING
        for f in fields(cls)
        if f.name not in skip
    }


# what a config file value must be for each plain field annotation (every
# tuple field holds integers); a nested config is checked as its own object
_FILE_TYPES = {"int": "an integer", "float": "a number", "str": "a string",
               "tuple": "a list of integers"}


def _fits(value, annotation):
    if isinstance(value, bool):
        return False
    if annotation == "tuple":
        return isinstance(value, (list, tuple)) and all(_fits(v, "int") for v in value)
    return isinstance(value, {"int": int, "float": (int, float), "str": str}[annotation])


def _checked(doc, where, keys, cls):
    """``doc`` as a dict, once it holds no key outside ``keys``, every required one,
    and values of the JSON types of their ``cls`` fields."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    missing = [k for k, required in keys.items() if required and k not in doc]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(map(repr, missing))}")
    for f in fields(cls):
        key = FILE_KEYS.get(f.name, f.name)
        if key in doc and f.type in _FILE_TYPES and not _fits(doc[key], f.type):
            raise ValueError(
                f"{where} key {key!r} must be {_FILE_TYPES[f.type]}, got {doc[key]!r}"
            )
    return dict(doc)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for a batch of decoupling runs against one target.

    Exactly one of ``builtin``, ``model_file`` or ``generate`` selects the
    target.  Every run fits through the tuner (``tuner.tune``) with
    ``lambda0``, ``beta`` and ``max_stages``, so each stage starts from its
    own seeded start search; ``TunerConfig`` checks those three when the
    config is made, so a bad value fails before any run.  ``n_test`` is 0
    (no held-out test set) or at least 2.

    :meth:`to_dict` writes the config file that :meth:`from_dict` reads,
    and ``aggregates.json`` echoes it, so an experiment's echo runs again
    as it is.  The solver's ``lam`` and ``rng_seed`` are not in the file:
    each run and stage sets its own.
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
        object.__setattr__(self, "seed", int(self.seed))
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
        if self.n_test != 0 and self.n_test < 2:
            raise ValueError("n_test must be 0 (no test set) or at least 2")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.tuner_config(self.solver.rng_seed)  # the tuner's checks, before any run

    def tuner_config(self, rng_seed):
        """The tuner settings of a run whose solver seed is ``rng_seed``."""
        return TunerConfig(
            solver=replace(self.solver, rng_seed=rng_seed),
            lambda0=self.lambda0,
            beta=self.beta,
            max_stages=self.max_stages,
        )

    def target_model(self):
        if self.builtin is not None:
            return builtin_system(self.builtin)
        if self.model_file is not None:
            try:
                return load_model(self.model_file)
            except OSError as exc:
                raise ValueError(
                    f"cannot read target model file {self.model_file!r}: {exc}") from exc
        return generate_system(self.generate)

    def to_dict(self):
        """The config file of this experiment (see :meth:`from_dict`)."""
        out = {FILE_KEYS.get(f.name, f.name): getattr(self, f.name)
               for f in fields(self) if f.name not in _TARGETS}
        out["solver"] = {k: v for k, v in asdict(self.solver).items() if k not in _PER_RUN}
        name = next(k for k in _TARGETS if getattr(self, k) is not None)
        value = getattr(self, name)
        out["target"] = {name: asdict(value) if name == "generate" else value}
        return out

    @classmethod
    def from_dict(cls, doc):
        """The config that a config file holds; the inverse of :meth:`to_dict`.

        Raises ValueError for a key that nothing reads (at any level, the
        unknown keys named in sorted order), a required field that is
        missing (named in field order), a missing target, a value whose JSON
        type does not fit its field (an integer, a number, a string or a
        list of integers), a ``model_file`` that does not exist, or a value
        that the dataclasses reject.
        """
        doc = _checked(doc, "config", {**config_keys(cls), "target": False}, cls)
        target = _checked(doc.pop("target", {}), "target", dict.fromkeys(_TARGETS, False), cls)
        if not target:
            raise ValueError("no target: the config needs a target entry")
        if "generate" in target:
            generate = _checked(target["generate"], "target.generate",
                                config_keys(SyntheticSpec), SyntheticSpec)
            target["generate"] = SyntheticSpec(**generate)
        model_file = target.get("model_file")
        if model_file is not None and not os.path.exists(model_file):
            raise ValueError(f"target model file {model_file!r} does not exist, "
                             f"and the builtin targets are {', '.join(BUILTINS)}")
        solver = _checked(doc.pop("solver"), "solver", config_keys(SolverConfig), SolverConfig)
        renamed = {v: k for k, v in FILE_KEYS.items()}
        return cls(
            solver=SolverConfig(**solver),
            **target,
            **{renamed.get(k, k): v for k, v in doc.items()},
        )


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


def _solver_seed(base_seed, run_id):
    seq = np.random.SeedSequence(int(base_seed), spawn_key=(int(run_id), 3))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# what a run may fail with and still be a result: the solver diverging,
# overflow, or a ValueError (non-finite factors, a degenerate validation
# set, numpy's LinAlgError); anything else is a programming error and
# propagates
_RUN_FAILURES = (SolverDivergenceError, ArithmeticError, ValueError)


def tuned_run(cfg, target, key, solver_seed):
    """Draw one run's points, build its data and tune; the one path of every run.

    The training points come from ``seeded_rng(cfg.seed, *key, 0)`` and the
    validation points from ``seeded_rng(cfg.seed, *key, 1)``; the tuner's
    solver seed is ``solver_seed``.  Returns the tuner report, the
    validation points and their target values.
    """
    m = target.n_inputs
    train = seeded_rng(cfg.seed, *key, 0).uniform(-1.0, 1.0, size=(cfg.n_samples, m))
    val = seeded_rng(cfg.seed, *key, 1).uniform(-1.0, 1.0, size=(cfg.n_validation, m))
    j_tensor = build_jacobian_tensor(target, train)
    f_matrix = build_f_matrix(target, train)
    val_targets = eval_batch(target, val)
    report = tune(cfg.tuner_config(solver_seed), j_tensor, f_matrix, train, (val, val_targets))
    return report, val, val_targets


def _single_run(cfg, target, run_id):
    solver_seed = _solver_seed(cfg.seed, run_id)
    row = RunResult(run_id=run_id, seed=solver_seed)
    try:
        report, val, val_targets = tuned_run(cfg, target, (run_id,), solver_seed)

        best = report.best
        fitted = best.report
        row.lambda_selected = best.lam
        row.iterations = fitted.iterations
        row.stop_reason = fitted.stop_reason
        row.error_j = fitted.error_j
        row.error_f = fitted.error_f
        fitted_model = state_to_model(fitted.state)
        row.output_errors = list(rrmse(val_targets, eval_batch(fitted_model, val)))
        if cfg.n_test:
            test = seeded_rng(cfg.seed, run_id, 2).uniform(
                -1.0, 1.0, size=(cfg.n_test, target.n_inputs))
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
        # imported here: it costs every import of the CLI 10-20 ms
        from concurrent.futures import ProcessPoolExecutor

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
        if cfg.n_test:
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
