"""Command-line front end.

Subcommands:

* ``decouple``   fit one target (builtin name or model JSON) and write the
  fitted model plus the tuner report;
* ``experiment`` run a batch of seeded decouplings from a config file
  and/or flags, writing the per-run CSV and aggregate JSON;
* ``generate``   emit a random synthetic system as a model JSON.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures.  The experiment config file is a JSON document with the keys
shown in the README; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .harness import (
    BUILTINS,
    ExperimentConfig,
    SyntheticSpec,
    builtin_system,
    generate_system,
    run_experiment,
    write_results,
)
from .model import build_f_matrix, build_jacobian_tensor, eval_batch, load_model, save_model
from .solver import SolverConfig, SolverDivergenceError, state_to_model
from .tuner import TunerConfig, tune

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3


def _int_list(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common(p, seed_default=0):
    p.add_argument("--ranks", type=_int_list, help="per-layer neuron counts, e.g. 2,2")
    p.add_argument("--degrees", type=_int_list, help="per-layer polynomial degrees, e.g. 5,2")
    p.add_argument("--layers", type=int, help="layer count; must match ranks/degrees")
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", default=".", help="output directory")


def _add_solver(p, concrete_defaults=True):
    # the experiment subcommand keeps None defaults so config-file values
    # are only overridden by flags the user actually passed
    dfl = (
        dict(samples=30, lambda0=1e-6, beta=100.0, strategy="constr", max_stages=8,
             min_iters=10, max_iters=500, patience=50)
        if concrete_defaults
        else dict(samples=None, lambda0=None, beta=None, strategy=None, max_stages=None,
                  min_iters=None, max_iters=None, patience=None)
    )
    p.add_argument("--samples", type=int, default=dfl["samples"], help="training sample count S")
    p.add_argument("--lambda0", type=float, default=dfl["lambda0"])
    p.add_argument("--beta", type=float, default=dfl["beta"])
    p.add_argument("--strategy", choices=("proj", "constr"), default=dfl["strategy"])
    p.add_argument("--max-stages", type=int, default=dfl["max_stages"])
    p.add_argument("--min-iters", type=int, default=dfl["min_iters"])
    p.add_argument("--max-iters", type=int, default=dfl["max_iters"])
    p.add_argument("--patience", type=int, default=dfl["patience"])


def build_parser():
    ap = argparse.ArgumentParser(prog="ptdecouple")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decouple", help="fit one decoupling of a target function")
    d.add_argument("--target", required=True, help=f"builtin {BUILTINS} or a model JSON path")
    _add_common(d)
    _add_solver(d)
    d.add_argument("--validation", type=int, default=30, help="validation sample count")

    e = sub.add_parser("experiment", help="batched seeded runs with CSV/JSON tables")
    e.add_argument("--config", help="JSON config file; flags override its values")
    e.add_argument("--target", help=f"builtin {BUILTINS} or a model JSON path")
    _add_common(e, seed_default=None)
    _add_solver(e, concrete_defaults=False)
    e.add_argument("--runs", type=int, help="number of repetitions")
    e.add_argument("--jobs", type=int, help="concurrent runs")

    g = sub.add_parser("generate", help="emit a random synthetic system as model JSON")
    g.add_argument("--inputs", "-m", type=int, required=True)
    g.add_argument("--outputs", "-n", type=int, required=True)
    _add_common(g)
    g.add_argument("--collinearity-max", type=float, default=0.5)
    return ap


def _require(cond, message):
    if not cond:
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Configuration error; mapped to exit code 2."""


def _check_layers(args):
    _require(args.ranks is not None, "--ranks is required")
    _require(args.degrees is not None, "--degrees is required")
    _require(len(args.ranks) == len(args.degrees), "--ranks and --degrees must have equal length")
    if args.layers is not None:
        _require(
            args.layers == len(args.ranks),
            f"--layers {args.layers} does not match {len(args.ranks)} ranks",
        )


def _resolve_target(text):
    if text in BUILTINS:
        return builtin_system(text)
    if os.path.exists(text):
        return load_model(text)
    raise SystemExit2(f"unknown target {text!r}: not a builtin and not a file")


def _cmd_decouple(args):
    _check_layers(args)
    target = _resolve_target(args.target)
    solver = SolverConfig(
        ranks=args.ranks,
        degrees=args.degrees,
        min_iters=args.min_iters,
        max_iters=args.max_iters,
        patience=args.patience,
        rng_seed=args.seed,
        strategy=args.strategy,
    )
    tuner = TunerConfig(
        solver=solver, lambda0=args.lambda0, beta=args.beta, max_stages=args.max_stages
    )
    m = target.n_inputs
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed, spawn_key=(0,))))
    train = rng.uniform(-1.0, 1.0, size=(args.samples, m))
    val = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(args.seed, spawn_key=(1,)))
    ).uniform(-1.0, 1.0, size=(args.validation, m))
    j = build_jacobian_tensor(target, train)
    f = build_f_matrix(target, train)
    report = tune(tuner, j, f, train, (val, eval_batch(target, val)))

    os.makedirs(args.out, exist_ok=True)
    best = report.best
    model_path = os.path.join(args.out, "decoupled_model.json")
    report_path = os.path.join(args.out, "tuner_report.json")
    save_model(model_path, state_to_model(best.report.state))
    with open(report_path, "w") as fh:
        fh.write(report.to_json(indent=1))
        fh.write("\n")
    print(
        f"selected stage {report.selected} (lam={best.lam:g}): "
        f"Error(J)={best.report.error_j:.3e} Error(F)={best.report.error_f:.3e} "
        f"metric={best.metric:.4f}"
    )
    print(f"wrote {model_path} and {report_path}")
    return 0


# what an experiment config file may hold, per entry; every key is read
_CONFIG_KEYS = {
    "config": ("target", "samples", "validation", "test", "runs", "seed", "lambda0", "beta",
               "max_stages", "jobs", "solver"),
    "solver": ("ranks", "degrees", "strategy", "min_iters", "max_iters", "patience"),
    "target": ("builtin", "model_file", "generate"),
    "target.generate": ("n_inputs", "n_outputs", "ranks", "degrees", "collinearity_max", "seed"),
}
# config keys named apart from their ExperimentConfig fields
_CONFIG_FIELDS = {"samples": "n_samples", "validation": "n_validation", "test": "n_test"}


def _check_keys(doc, where):
    _require(isinstance(doc, dict), f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS[where]))
    _require(not unknown, f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def _experiment_config(args):
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit2(f"cannot read config {args.config!r}: {exc}") from exc
    _check_keys(doc, "config")
    _check_keys(doc.get("solver", {}), "solver")
    target_doc = doc.get("target", {})
    _check_keys(target_doc, "target")
    if args.target:
        if args.target in BUILTINS:
            target_doc = {"builtin": args.target}
        else:
            target_doc = {"model_file": args.target}
    builtin = target_doc.get("builtin")
    model_file = target_doc.get("model_file")
    generate = target_doc.get("generate")
    if generate is not None:
        _check_keys(generate, "target.generate")
        missing = [k for k in ("n_inputs", "n_outputs", "ranks", "degrees") if k not in generate]
        _require(not missing, f"target.generate lacks {', '.join(map(repr, missing))}")
        generate = SyntheticSpec(**generate)
    if builtin is None and model_file is None and generate is None:
        raise SystemExit2("no target: give --target or a config file with a target entry")
    if model_file is not None and not os.path.exists(model_file):
        raise SystemExit2(f"target model file {model_file!r} does not exist")

    solver_doc = dict(doc.get("solver", {}))
    for key, flag in (
        ("ranks", args.ranks),
        ("degrees", args.degrees),
        ("min_iters", args.min_iters),
        ("max_iters", args.max_iters),
        ("patience", args.patience),
        ("strategy", args.strategy),
    ):
        if flag is not None:
            solver_doc[key] = flag
    if "ranks" not in solver_doc or "degrees" not in solver_doc:
        raise SystemExit2("solver ranks and degrees are required (flags or config)")
    if args.layers is not None and args.layers != len(solver_doc["ranks"]):
        raise SystemExit2(f"--layers {args.layers} does not match {len(solver_doc['ranks'])} ranks")

    fields = {_CONFIG_FIELDS.get(k, k): v for k, v in doc.items() if k not in ("target", "solver")}
    for key in ("samples", "runs", "seed", "lambda0", "beta", "max_stages", "jobs"):
        if getattr(args, key) is not None:
            fields[_CONFIG_FIELDS.get(key, key)] = getattr(args, key)
    try:
        return ExperimentConfig(
            solver=SolverConfig(**solver_doc),
            builtin=builtin,
            model_file=model_file,
            generate=generate,
            **fields,
        )
    except ValueError as exc:
        raise SystemExit2(str(exc)) from exc


def _cmd_experiment(args):
    cfg = _experiment_config(args)
    table = run_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "runs.csv")
    json_path = os.path.join(args.out, "aggregates.json")
    write_results(table, csv_path, json_path)
    ok = [r for r in table.rows if not r.failed]
    print(f"{len(ok)}/{cfg.runs} runs succeeded; wrote {csv_path} and {json_path}")
    if table.aggregates.get("error_j"):
        agg = table.aggregates
        print(
            f"median Error(J)={agg['error_j']['median']:.3e} "
            f"median Error(F)={agg['error_f']['median']:.3e}"
        )
    if len(ok) == 0:
        print("all runs failed", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


def _cmd_generate(args):
    _check_layers(args)
    spec = SyntheticSpec(
        n_inputs=args.inputs,
        n_outputs=args.outputs,
        ranks=args.ranks,
        degrees=args.degrees,
        collinearity_max=args.collinearity_max,
        seed=args.seed,
    )
    try:
        model = generate_system(spec)
    except RuntimeError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"system_m{args.inputs}_n{args.outputs}_s{args.seed}.json")
    save_model(path, model)
    print(f"wrote {path}")
    return 0


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "decouple":
            return _cmd_decouple(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_generate(args)
    except SystemExit2 as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except SolverDivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
