"""Command-line front end.

Subcommands:

* ``decouple``   fit one target (builtin name or model JSON) and write the
  fitted model plus the tuner report;
* ``experiment`` run a batch of seeded decouplings from a config file
  and/or flags, writing the per-run CSV and aggregate JSON;
* ``generate``   emit a random synthetic system as a model JSON.

Exit codes: 0 on success, 2 on configuration errors (every ValueError,
a config file that cannot be read included), 3 on numerical failures.

The config dataclasses hold every default and the experiment config file
format (``ExperimentConfig.from_dict``, keys in the README).  A flag is
named after the field it sets and defaults to None; only the flags given
reach a config, laid over the config file's values.  The ``config``
object that ``experiment`` echoes into ``aggregates.json`` is a config
file that runs the same experiment again.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .harness import (
    BUILTINS,
    ExperimentConfig,
    SyntheticSpec,
    builtin_system,
    config_keys,
    generate_system,
    run_experiment,
    write_results,
)
from .model import build_f_matrix, build_jacobian_tensor, eval_batch, load_model, save_model
from .solver import STRATEGIES, SolverConfig, SolverDivergenceError, state_to_model
from .tuner import TunerConfig, tune

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3


def _int_list(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common(p, seed_dest="seed"):
    p.add_argument("--ranks", type=_int_list, help="per-layer neuron counts, e.g. 2,2")
    p.add_argument("--degrees", type=_int_list, help="per-layer polynomial degrees, e.g. 5,2")
    p.add_argument("--layers", type=int, help="layer count; must match ranks/degrees")
    p.add_argument("--seed", type=int, dest=seed_dest)
    p.add_argument("--out", default=".", help="output directory")


def _add_solver(p):
    p.add_argument("--lambda0", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--max-stages", type=int)
    p.add_argument("--min-iters", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--patience", type=int)


def build_parser():
    ap = argparse.ArgumentParser(prog="ptdecouple")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decouple", help="fit one decoupling of a target function")
    d.add_argument("--target", required=True, help=f"builtin {BUILTINS} or a model JSON path")
    _add_common(d, seed_dest="rng_seed")
    _add_solver(d)
    d.add_argument("--samples", type=int, default=30, help="training sample count S")
    d.add_argument("--validation", type=int, default=30, help="validation sample count")

    e = sub.add_parser("experiment", help="batched seeded runs with CSV/JSON tables")
    e.add_argument("--config", help="JSON config file; flags override its values")
    e.add_argument("--target", help=f"builtin {BUILTINS} or a model JSON path")
    _add_common(e)
    _add_solver(e)
    e.add_argument("--samples", type=int, help="training sample count S")
    e.add_argument("--runs", type=int, help="number of repetitions")
    e.add_argument("--jobs", type=int, help="concurrent runs")

    g = sub.add_parser("generate", help="emit a random synthetic system as model JSON")
    g.add_argument("--inputs", "-m", type=int, required=True, dest="n_inputs")
    g.add_argument("--outputs", "-n", type=int, required=True, dest="n_outputs")
    _add_common(g)
    g.add_argument("--collinearity-max", type=float)
    return ap


def _given(args, names):
    """The flags among ``names`` that were given, by name."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _field_names(cls):
    return [f.name for f in fields(cls)]


def _require_layers(args):
    if args.ranks is None or args.degrees is None:
        raise ValueError("--ranks and --degrees are required")


def _check_layers(args, ranks):
    if args.layers is not None and args.layers != len(ranks):
        raise ValueError(f"--layers {args.layers} does not match {len(ranks)} ranks")


def _resolve_target(text):
    if text in BUILTINS:
        return builtin_system(text)
    if os.path.exists(text):
        return load_model(text)
    raise ValueError(f"unknown target {text!r}: not a builtin and not a file")


def _cmd_decouple(args):
    _require_layers(args)
    solver = SolverConfig(**_given(args, _field_names(SolverConfig)))
    tuner = TunerConfig(solver=solver, **_given(args, _field_names(TunerConfig)))
    _check_layers(args, solver.ranks)
    target = _resolve_target(args.target)
    m = target.n_inputs
    seed = solver.rng_seed
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))
    train = rng.uniform(-1.0, 1.0, size=(args.samples, m))
    val = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,)))
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


def _experiment_config(args):
    """The config file's document with the given flags laid over it, as a config."""
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config!r}: {exc}") from exc
    if isinstance(doc, dict):  # else from_dict names the fault
        solver = doc.get("solver", {})
        doc = {**doc, **_given(args, config_keys(ExperimentConfig))}
        if isinstance(solver, dict):
            doc["solver"] = {**solver, **_given(args, config_keys(SolverConfig))}
        if args.target:
            doc["target"] = {"builtin" if args.target in BUILTINS else "model_file": args.target}
    cfg = ExperimentConfig.from_dict(doc)
    _check_layers(args, cfg.solver.ranks)
    return cfg


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
    _require_layers(args)
    spec = SyntheticSpec(**_given(args, _field_names(SyntheticSpec)))
    _check_layers(args, spec.ranks)
    try:
        model = generate_system(spec)
    except RuntimeError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"system_m{spec.n_inputs}_n{spec.n_outputs}_s{spec.seed}.json"
    )
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except SolverDivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
