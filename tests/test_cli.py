import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ptdecouple.cli import main
from ptdecouple.model import load_model


def test_cli_import_loads_no_process_pool():
    # every CLI call pays the import; only an experiment with jobs > 1 needs
    # concurrent.futures, and only a start search on more than one core
    # needs multiprocessing
    import ptdecouple

    src = os.path.dirname(os.path.dirname(os.path.abspath(ptdecouple.__file__)))
    probe = ("import sys, ptdecouple.cli; "
             "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_generate_writes_model(tmp_path):
    out = str(tmp_path)
    code = main([
        "generate", "-m", "2", "-n", "2", "--ranks", "2,2", "--degrees", "3,2",
        "--seed", "4", "--out", out,
    ])
    assert code == 0
    path = tmp_path / "system_m2_n2_s4.json"
    model = load_model(path)
    assert model.n_inputs == 2 and model.n_outputs == 2
    assert model.degrees == (3, 2)


def test_generate_layers_mismatch_is_config_error(tmp_path):
    code = main([
        "generate", "-m", "2", "-n", "2", "--ranks", "2,2", "--degrees", "3,2",
        "--layers", "3", "--out", str(tmp_path),
    ])
    assert code == 2


def test_generate_missing_ranks_is_config_error(tmp_path):
    code = main(["generate", "-m", "2", "-n", "2", "--out", str(tmp_path)])
    assert code == 2


def test_decouple_builtin(tmp_path):
    out = str(tmp_path)
    code = main([
        "decouple", "--target", "f1", "--ranks", "2,2", "--degrees", "5,2",
        "--samples", "20", "--seed", "1", "--max-iters", "10", "--min-iters", "3",
        "--max-stages", "2", "--strategy", "constr", "--out", out,
    ])
    assert code == 0
    model = load_model(tmp_path / "decoupled_model.json")
    assert model.degrees == (5, 2)
    report = json.loads((tmp_path / "tuner_report.json").read_text())
    assert "stages" in report and "selected" in report


def test_decouple_unknown_target(tmp_path):
    code = main([
        "decouple", "--target", "f9", "--ranks", "2,2", "--degrees", "5,2",
        "--out", str(tmp_path),
    ])
    assert code == 2


def test_decouple_model_file_target(tmp_path):
    gen_out = str(tmp_path / "gen")
    assert main([
        "generate", "-m", "2", "-n", "2", "--ranks", "2,2", "--degrees", "2,2",
        "--seed", "6", "--out", gen_out,
    ]) == 0
    model_path = os.path.join(gen_out, "system_m2_n2_s6.json")
    out = str(tmp_path / "fit")
    code = main([
        "decouple", "--target", model_path, "--ranks", "2,2", "--degrees", "2,2",
        "--samples", "15", "--max-iters", "8", "--min-iters", "3",
        "--max-stages", "1", "--out", out,
    ])
    assert code == 0


def test_decouple_draws_points_from_spawn_keys_0_and_1(tmp_path, monkeypatch):
    # the training points come from SeedSequence(seed, spawn_key=(0,)), the
    # validation points from spawn_key=(1,)
    import ptdecouple.harness as harness_mod

    seen = {}
    tune = harness_mod.tune

    def spied(cfg, j, f, train, validation):
        seen["train"], seen["val"] = train, validation[0]
        return tune(cfg, j, f, train, validation)

    monkeypatch.setattr(harness_mod, "tune", spied)
    assert main([
        "decouple", "--target", "f1", "--ranks", "2,2", "--degrees", "5,2",
        "--samples", "12", "--validation", "7", "--seed", "9", "--max-iters", "3",
        "--min-iters", "2", "--max-stages", "1", "--out", str(tmp_path),
    ]) == 0

    def draws(key, size):
        seq = np.random.SeedSequence(9, spawn_key=(key,))
        return np.random.Generator(np.random.Philox(seq)).uniform(-1.0, 1.0, size=(size, 2))

    assert np.array_equal(seen["train"], draws(0, 12))
    assert np.array_equal(seen["val"], draws(1, 7))


@pytest.mark.parametrize("fault, named", [
    ("a list", "JSON object"), ("no weights", "'weights'"), ("no degrees", "'degrees'"),
    ("weights 5", "'weights'"), ("coeffs 5", "'coeffs'"), ("degrees 5", "'degrees'"),
])
def test_malformed_model_file_is_config_error(tmp_path, capsys, fault, named):
    from ptdecouple.harness import builtin_system
    from ptdecouple.model import model_to_json

    doc = model_to_json(builtin_system("f1"))
    if fault == "a list":
        doc = [doc]
    elif fault.startswith("no "):
        del doc[fault.split()[1]]
    else:
        key, value = fault.split()
        doc[key] = int(value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    layers = ["--ranks", "2,2", "--degrees", "5,2", "--max-stages", "1"]
    for command in ("decouple", "experiment"):
        code = main([command, "--target", str(path), *layers, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and named in err


# a directory exists but cannot be read as a model file; a mistyped builtin
# name is neither a builtin nor a file, and the builtins are listed
@pytest.mark.parametrize("target, named", [
    ("models", None), ("f9", "does not exist, and the builtin targets are f1, f2, f3"),
], ids=["directory", "typo"])
def test_unreadable_target_is_config_error(tmp_path, capsys, monkeypatch, target, named):
    monkeypatch.chdir(tmp_path)
    if named is None:
        (tmp_path / target).mkdir()
    layers = ["--ranks", "2,2", "--degrees", "5,2", "--max-stages", "1"]
    for command in ("decouple", "experiment"):
        out = tmp_path / command
        code = main([command, "--target", target, *layers, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and repr(target) in err
        assert named is None or named in err
        assert not out.exists()


def test_experiment_from_flags(tmp_path):
    out = str(tmp_path)
    code = main([
        "experiment", "--target", "f1", "--ranks", "2,2", "--degrees", "5,2",
        "--samples", "15", "--runs", "2", "--seed", "3", "--max-iters", "8",
        "--min-iters", "3", "--max-stages", "2", "--out", out,
    ])
    assert code == 0
    csv_text = (tmp_path / "runs.csv").read_text()
    assert csv_text.splitlines()[0].startswith("run_id,seed,lambda_selected")
    assert len(csv_text.splitlines()) == 3
    agg = json.loads((tmp_path / "aggregates.json").read_text())
    assert agg["aggregates"]["runs"] == 2


def test_experiment_from_config_file(tmp_path):
    cfg = {
        "target": {"builtin": "f2"},
        "samples": 12,
        "runs": 1,
        "seed": 7,
        "max_stages": 1,
        "solver": {
            "ranks": [2, 2],
            "degrees": [3, 3],
            "min_iters": 3,
            "max_iters": 6,
            "patience": 10,
            "strategy": "proj",
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "results")
    code = main(["experiment", "--config", str(cfg_path), "--out", out])
    assert code == 0
    agg = json.loads((tmp_path / "results" / "aggregates.json").read_text())
    assert agg["config"]["solver"]["strategy"] == "proj"
    assert agg["config"]["samples"] == 12


def test_experiment_flag_overrides_config(tmp_path):
    cfg = {
        "target": {"builtin": "f1"},
        "runs": 1,
        "max_stages": 1,
        "solver": {"ranks": [2, 2], "degrees": [5, 2], "max_iters": 6,
                   "min_iters": 3, "patience": 10, "strategy": "proj"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "results")
    code = main([
        "experiment", "--config", str(cfg_path), "--strategy", "constr",
        "--samples", "10", "--out", out,
    ])
    assert code == 0
    agg = json.loads((tmp_path / "results" / "aggregates.json").read_text())
    assert agg["config"]["solver"]["strategy"] == "constr"
    assert agg["config"]["samples"] == 10


def test_experiment_missing_target_is_config_error(tmp_path):
    code = main(["experiment", "--ranks", "2,2", "--degrees", "5,2",
                 "--out", str(tmp_path)])
    assert code == 2


def test_experiment_bad_config_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["experiment", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2


def _config_exit(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_experiment_unknown_config_keys_are_config_errors(tmp_path, capsys):
    # a key nothing reads must not run the defaults silently, at any level
    base = {"target": {"builtin": "f1"}, "runs": 1, "max_stages": 1,
            "solver": {"ranks": [2, 2], "degrees": [5, 2], "max_iters": 3}}
    generate = {"n_inputs": 2, "n_outputs": 2, "ranks": [2, 2], "degrees": [3, 2]}
    cases = [
        ({**base, "n_samples": 12}, "'n_samples'"),
        ({**base, "solver": {**base["solver"], "max_iter": 3, "init_low": 5.0}},
         "'init_low', 'max_iter'"),
        ({**base, "target": {"builtin": "f1", "file": "x.json"}}, "'file'"),
        ({**base, "target": {"generate": {**generate, "rank": [2]}}}, "'rank'"),
    ]
    for doc, named in cases:
        code, err = _config_exit(tmp_path, capsys, doc)
        assert code == 2
        assert named in err
    assert not (tmp_path / "out").exists()


def test_experiment_config_value_types_are_config_errors(tmp_path, capsys):
    # a value of the wrong JSON type is refused before any run, not met by a
    # TypeError inside a dataclass
    base = {"target": {"builtin": "f1"}, "runs": 1, "max_stages": 1,
            "solver": {"ranks": [2, 2], "degrees": [5, 2], "min_iters": 3, "max_iters": 3}}
    cases = [
        ({**base, "samples": "12"}, "'samples' must be an integer, got '12'"),
        ({**base, "solver": {**base["solver"], "ranks": 2}},
         "'ranks' must be a list of integers, got 2"),
        ({**base, "samples": 12.5}, "'samples' must be an integer, got 12.5"),
    ]
    for doc, named in cases:
        code, err = _config_exit(tmp_path, capsys, doc)
        assert code == 2
        assert err.startswith("config error:") and named in err
    assert not (tmp_path / "out").exists()


def test_experiment_generate_missing_keys_is_config_error(tmp_path, capsys):
    doc = {"target": {"generate": {"n_inputs": 2, "ranks": [2, 2]}}, "runs": 1,
           "solver": {"ranks": [2, 2], "degrees": [3, 2]}}
    code, err = _config_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "'n_outputs', 'degrees'" in err


def test_experiment_test_count_of_one_is_config_error(tmp_path, capsys):
    # one test point has no spread, and the run would drop the test set silently
    doc = {"target": {"builtin": "f1"}, "test": 1, "runs": 1,
           "solver": {"ranks": [2, 2], "degrees": [5, 2]}}
    code, err = _config_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "n_test" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("ranks", [2, 0]), ("ranks", [2, -1]), ("degrees", [3, 0]),
    ("collinearity_max", float("nan")),
])
def test_bad_synthetic_spec_is_config_error(tmp_path, capsys, field, value):
    # refused before any draw, from a generate flag and from a config file
    flag = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    code = main(["generate", "-m", "2", "-n", "2", "--ranks", "2,2", "--degrees", "3,2",
                 "--" + field.replace("_", "-"), flag, "--out", str(tmp_path / "gen")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error:") and field in err
    spec = {"n_inputs": 2, "n_outputs": 2, "ranks": [2, 2], "degrees": [3, 2], field: value}
    code, err = _config_exit(tmp_path, capsys, {
        "target": {"generate": spec}, "runs": 1,
        "solver": {"ranks": [2, 2], "degrees": [3, 2]}})
    assert code == 2 and err.startswith("config error:") and field in err
    assert not (tmp_path / "gen").exists() and not (tmp_path / "out").exists()


def test_experiment_infeasible_generate_cap_is_numerical_error(tmp_path, capsys):
    # no 2-column matrix has a collinearity below -1: exit 3, as generate does
    spec = {"n_inputs": 2, "n_outputs": 2, "ranks": [2, 2], "degrees": [3, 2],
            "collinearity_max": -2.0}
    code, err = _config_exit(tmp_path, capsys, {
        "target": {"generate": spec}, "runs": 1,
        "solver": {"ranks": [2, 2], "degrees": [3, 2]}})
    assert code == 3
    assert err.startswith("generation failed:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _rerun_echo(tmp_path, argv):
    """Run an experiment, then again from the config its aggregates.json echoes."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["--out", str(first)]) == 0
    echo = json.loads((first / "aggregates.json").read_text())["config"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert main(["experiment", "--config", str(path), "--out", str(second)]) == 0
    assert (first / "runs.csv").read_bytes() == (second / "runs.csv").read_bytes()
    assert json.loads((second / "aggregates.json").read_text())["config"] == echo
    return echo


_QUICK = ["--samples", "10", "--runs", "2", "--seed", "4", "--max-iters", "6",
          "--min-iters", "3", "--max-stages", "1"]


def test_echo_reruns_builtin_target(tmp_path):
    echo = _rerun_echo(tmp_path, ["experiment", "--target", "f1", "--ranks", "2,2",
                                  "--degrees", "5,2", *_QUICK])
    assert echo["target"] == {"builtin": "f1"} and echo["samples"] == 10


def test_echo_reruns_model_file_target(tmp_path):
    gen_out = str(tmp_path / "gen")
    assert main(["generate", "-m", "2", "-n", "2", "--ranks", "2,2", "--degrees", "2,2",
                 "--seed", "6", "--out", gen_out]) == 0
    model_path = os.path.join(gen_out, "system_m2_n2_s6.json")
    echo = _rerun_echo(tmp_path, ["experiment", "--target", model_path, "--ranks", "2,2",
                                  "--degrees", "2,2", "--strategy", "proj", *_QUICK])
    assert echo["target"] == {"model_file": model_path}


def test_echo_reruns_generate_target(tmp_path):
    doc = {"target": {"generate": {"n_inputs": 2, "n_outputs": 3, "ranks": [2, 2],
                                   "degrees": [3, 2], "collinearity_max": 0.6,
                                   "seed": 11}},
           "validation": 8, "test": 4,
           "solver": {"ranks": [2, 2], "degrees": [3, 2], "patience": 20}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    echo = _rerun_echo(tmp_path, ["experiment", "--config", str(path), *_QUICK])
    assert echo["target"] == doc["target"]
    assert (echo["validation"], echo["test"]) == (8, 4)


def test_experiment_all_runs_failed_is_numerical_error(tmp_path):
    # constant second output: every run fails in the validation metric
    from ptdecouple.harness import DecoupledModel
    from ptdecouple.model import save_model

    model = DecoupledModel(
        weights=(np.ones((1, 2)), np.array([[1.0], [0.0]])),
        coeffs=(np.array([[0.0, 1.0, 0.5]]),),
    )
    path = tmp_path / "degenerate.json"
    save_model(path, model)
    code = main([
        "experiment", "--target", str(path), "--ranks", "1", "--degrees", "2",
        "--samples", "10", "--runs", "1", "--max-iters", "6", "--min-iters", "3",
        "--max-stages", "1", "--out", str(tmp_path / "res"),
    ])
    assert code == 3


def test_deterministic_cli_outputs(tmp_path):
    args = [
        "experiment", "--target", "f1", "--ranks", "2,2", "--degrees", "5,2",
        "--samples", "12", "--runs", "2", "--seed", "9", "--max-iters", "6",
        "--min-iters", "3", "--max-stages", "2",
    ]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert (tmp_path / "a" / "runs.csv").read_bytes() == (tmp_path / "b" / "runs.csv").read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--lambda0", "-1"), ("--lambda0", "nan"), ("--lambda0", "inf"),
    ("--beta", "0.5"), ("--beta", "nan"), ("--max-stages", "0"),
])
def test_experiment_bad_tuner_setting_is_config_error(tmp_path, capsys, flag, value):
    # checked once before any run, so no run is attempted and nothing is written
    out = tmp_path / "out"
    code = main(["experiment", "--target", "f1", "--ranks", "2,2", "--degrees", "5,2",
                 "--runs", "2", flag, value, "--out", str(out)])
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--lambda0", "nan", "lambda0"),
    ("--samples", "-3", "need at least one sampling point"),
    ("--samples", "0", "need at least one sampling point"),
    ("--validation", "-2", "need at least two validation points"),
    ("--validation", "1", "need at least two validation points"),
])
def test_decouple_bad_argument_is_config_error(tmp_path, capsys, monkeypatch, flag, value, named):
    # rejected before any point is drawn, so nothing is written
    import ptdecouple.harness as harness_mod

    monkeypatch.setattr(harness_mod, "seeded_rng", lambda *a: pytest.fail("drew points"))
    code = main(["decouple", "--target", "f1", "--ranks", "2,2", "--degrees", "5,2",
                 flag, value, "--out", str(tmp_path)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "tuner_report.json").exists()

