import json

import numpy as np
import pytest

from ptdecouple.harness import (
    ExperimentConfig,
    SyntheticSpec,
    builtin_system,
    collinearity,
    generate_system,
    rrmse,
    run_experiment,
    write_results,
)
from ptdecouple.model import DecoupledModel, eval_model, load_model, save_model
from ptdecouple.solver import SolverConfig


class TestBuiltins:
    def test_f1_values(self):
        f1 = builtin_system("f1")
        assert np.allclose(f1.weights[2][0], [1.61, -1.9])
        assert f1.n_inputs == 2 and f1.n_outputs == 2
        assert f1.ranks == (2, 2) and f1.degrees == (5, 2)
        # constant-term composition at the origin
        W2 = np.array([[1.61, -1.9], [-0.03, 0.11]])
        assert np.allclose(eval_model(f1, np.zeros(2)), W2 @ np.array([-0.19, -1.93]))

    def test_f2_dims(self):
        f2 = builtin_system("f2")
        assert f2.n_inputs == 3 and f2.n_outputs == 3
        assert f2.ranks == (2, 2) and f2.degrees == (3, 3)

    def test_f3_structure(self):
        f3 = builtin_system("f3")
        assert f3.n_inputs == 4 and f3.n_outputs == 3
        assert f3.ranks == (3, 2)
        assert f3.degrees == (3, 4)  # second-layer neurons are quartic
        assert f3.coeffs[1].shape == (2, 5)

    def test_inner_layers_bias_free(self):
        for name in ("f1", "f2", "f3"):
            model = builtin_system(name)
            assert np.all(np.asarray(model.coeffs[0])[:, 0] == 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_system("f4")

    def test_json_round_trip_bit_stable(self, tmp_path):
        for name in ("f1", "f2", "f3"):
            path = tmp_path / f"{name}.json"
            model = builtin_system(name)
            save_model(path, model)
            back = load_model(path)
            for a, b in zip(model.weights, back.weights):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(model.coeffs, back.coeffs):
                assert a.tobytes() == b.tobytes()


class TestGenerator:
    def test_collinearity_cap(self):
        spec = SyntheticSpec(n_inputs=3, n_outputs=3, ranks=(3, 2), degrees=(3, 2), seed=0)
        model = generate_system(spec)
        for w in model.weights:
            assert collinearity(w) < 0.5

    def test_weight_ranges(self):
        spec = SyntheticSpec(n_inputs=4, n_outputs=4, ranks=(3, 3), degrees=(2, 2), seed=1)
        model = generate_system(spec)
        assert np.all(np.abs(model.weights[0]) <= 2.0)
        assert np.all(np.abs(model.weights[1]) <= 1.5)  # middle layer range
        assert np.all(np.abs(model.weights[2]) <= 2.0)
        for c in model.coeffs:
            assert np.all(np.abs(c) <= 3.0)

    def test_seed_determinism(self):
        spec = SyntheticSpec(n_inputs=2, n_outputs=2, ranks=(2, 2), degrees=(3, 2), seed=9)
        a, b = generate_system(spec), generate_system(spec)
        for x, y in zip(a.weights + a.coeffs, b.weights + b.coeffs):
            assert np.array_equal(x, y)

    def test_rank_one_vacuous(self):
        spec = SyntheticSpec(n_inputs=1, n_outputs=1, ranks=(1,), degrees=(2,), seed=2)
        model = generate_system(spec)
        assert collinearity(model.weights[0]) == -np.inf

    @pytest.mark.parametrize("field, value", [
        ("n_inputs", 2.0), ("n_outputs", True), ("ranks", (2, 2.5)), ("degrees", (3.0, 2)),
        ("seed", 1.5),
    ])
    def test_counts_must_be_integers(self, field, value):
        given = dict(n_inputs=2, n_outputs=2, ranks=(2, 2), degrees=(3, 2), seed=0)
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{**given, field: value})

    def test_numpy_integer_counts_are_accepted(self):
        spec = SyntheticSpec(n_inputs=np.int64(2), n_outputs=np.int32(2), ranks=np.array([2, 2]),
                             degrees=(np.int8(3), 2), seed=np.uint16(5))
        assert (spec.n_inputs, spec.n_outputs, spec.ranks, spec.degrees, spec.seed) == (
            2, 2, (2, 2), (3, 2), 5)

    def test_infeasible_cap_raises(self):
        spec = SyntheticSpec(
            n_inputs=1, n_outputs=2, ranks=(4,), degrees=(2,), seed=3,
            collinearity_max=0.01,
        )
        # four columns in one dimension can never be pairwise non-collinear
        with pytest.raises(RuntimeError):
            generate_system(spec)


class TestRrmse:
    def test_perfect(self):
        t = np.random.default_rng(6).normal(size=(2, 5))
        assert np.allclose(rrmse(t, t), 0.0)

    def test_mean_prediction_is_100(self):
        t = np.random.default_rng(7).normal(size=(3, 8))
        p = np.tile(t.mean(axis=1, keepdims=True), (1, 8))
        assert np.allclose(rrmse(t, p), 100.0)

    def test_hand_value(self):
        t = np.array([[1.0, 2.0, 3.0, 4.0]])
        p = t + np.array([[0.1, -0.1, 0.1, -0.1]])
        assert rrmse(t, p)[0] == pytest.approx(np.sqrt(0.04 / 5.0) * 100)

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            rrmse(np.ones((1, 4)), np.zeros((1, 4)))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            rrmse(np.ones((1, 1)), np.ones((1, 1)))


def quick_config(**kw):
    defaults = dict(
        solver=SolverConfig(ranks=(2, 2), degrees=(3, 2), min_iters=3, max_iters=10,
                            patience=20),
        builtin=None,
        n_samples=15,
        n_validation=10,
        runs=2,
        seed=5,
        max_stages=2,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_exactly_one_target(self):
        with pytest.raises(ValueError):
            quick_config(builtin="f1", model_file="x.json")
        with pytest.raises(ValueError):
            quick_config(builtin=None)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            quick_config(builtin="f9")

    def test_test_count_zero_or_at_least_two(self):
        # below two points there is no spread to normalize the test errors by
        for n_test in (1, -1):
            with pytest.raises(ValueError, match="n_test"):
                quick_config(builtin="f1", n_test=n_test)
        assert quick_config(builtin="f1", n_test=2).n_test == 2

    def test_from_dict_inverts_to_dict(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, builtin_system("f2"))
        spec = SyntheticSpec(n_inputs=2, n_outputs=3, ranks=(2, 2), degrees=(3, 2),
                             collinearity_max=0.6, seed=11)
        for target in ({"builtin": "f1"}, {"model_file": str(path)}, {"generate": spec}):
            cfg = quick_config(**{"builtin": None, **target}, n_test=4, jobs=2)
            doc = cfg.to_dict()
            assert ExperimentConfig.from_dict(doc) == cfg
            assert ExperimentConfig.from_dict(json.loads(json.dumps(doc))) == cfg

    def test_to_dict_leaves_out_what_each_run_sets(self):
        cfg = quick_config(builtin="f1")
        assert set(cfg.to_dict()["solver"]) == {
            "ranks", "degrees", "min_iters", "max_iters", "patience", "strategy"}
        assert set(cfg.to_dict()) == {
            "samples", "validation", "test", "runs", "seed", "lambda0", "beta",
            "max_stages", "jobs", "target", "solver"}


class TestRunExperiment:
    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = quick_config(builtin="f1", solver=SolverConfig(
            ranks=(2, 2), degrees=(5, 2), min_iters=3, max_iters=8, patience=20))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(a, pa, tmp_path / "a.json")
        write_results(b, pb, tmp_path / "b.json")
        assert pa.read_bytes() == pb.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_train_validation_disjoint_streams(self):
        from ptdecouple.solver import seeded_rng

        train = seeded_rng(5, 0, 0).uniform(-1, 1, (20, 2))
        val = seeded_rng(5, 0, 1).uniform(-1, 1, (20, 2))
        assert not np.isclose(train, val).all(axis=1).any()

    def test_aggregates_recomputable(self, tmp_path):
        cfg = quick_config(builtin="f1", runs=3, solver=SolverConfig(
            ranks=(2, 2), degrees=(5, 2), min_iters=3, max_iters=8, patience=20))
        table = run_experiment(cfg)
        ok = [r for r in table.rows if not r.failed]
        agg = table.aggregates
        assert agg["runs"] == 3 and agg["failed"] == 3 - len(ok)
        ej = np.array([r.error_j for r in ok])
        assert agg["error_j"]["mean"] == pytest.approx(float(np.mean(ej)))
        assert agg["error_j"]["median"] == pytest.approx(float(np.median(ej)))
        assert agg["error_j"]["std"] == pytest.approx(float(np.std(ej, ddof=1)))

    def test_failed_run_recorded(self, tmp_path):
        # second output identically zero: zero variance in the validation
        # targets fails the metric; the run is recorded with its error
        const = DecoupledModel(
            weights=(np.ones((1, 2)), np.array([[1.0], [0.0]])),
            coeffs=(np.array([[0.0, 1.0, 0.5]]),),
        )
        path = tmp_path / "const.json"
        save_model(path, const)
        cfg = ExperimentConfig(
            solver=SolverConfig(ranks=(1,), degrees=(2,), min_iters=2, max_iters=5,
                                patience=10),
            model_file=str(path),
            n_samples=10,
            n_validation=5,
            runs=1,
            seed=3,
            max_stages=1,
        )
        table = run_experiment(cfg)
        row = table.rows[0]
        assert row.failed
        assert row.stop_reason == "error"
        assert "variance" in row.error
        csv_path, json_path = tmp_path / "runs.csv", tmp_path / "agg.json"
        write_results(table, csv_path, json_path)
        text = csv_path.read_text()
        assert "error" in text.splitlines()[0]
        assert "variance" in text

    def test_programming_error_propagates(self, monkeypatch):
        # only numerical failures become failed rows; a bug must not halve
        # the sample that the protocol medians are taken over
        import ptdecouple.harness as harness_mod

        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(harness_mod, "tune", broken)
        with pytest.raises(TypeError):
            run_experiment(quick_config(builtin="f1", runs=1))

    def test_divergence_recorded(self, monkeypatch):
        import ptdecouple.harness as harness_mod
        from ptdecouple.solver import SolverDivergenceError

        def diverged(*args, **kwargs):
            raise SolverDivergenceError("objective became non-finite", [])

        monkeypatch.setattr(harness_mod, "tune", diverged)
        row = run_experiment(quick_config(builtin="f1", runs=1)).rows[0]
        assert row.failed and row.error.startswith("SolverDivergenceError")

    def test_csv_schema(self, tmp_path):
        cfg = quick_config(builtin="f2", runs=1, solver=SolverConfig(
            ranks=(2, 2), degrees=(3, 3), min_iters=3, max_iters=8, patience=20))
        table = run_experiment(cfg)
        csv_path, json_path = tmp_path / "runs.csv", tmp_path / "agg.json"
        write_results(table, csv_path, json_path)
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == [
            "run_id", "seed", "lambda_selected", "iters", "stop_reason",
            "err_J", "err_F", "e_1", "e_2", "e_3", "error",
        ]
        doc = json.loads(json_path.read_text())
        assert "aggregates" in doc and "config" in doc

    def test_target_built_once(self, tmp_path, monkeypatch):
        calls = []
        build = ExperimentConfig.target_model

        def counted(cfg):
            calls.append(cfg)
            return build(cfg)

        monkeypatch.setattr(ExperimentConfig, "target_model", counted)
        cfg = quick_config(builtin="f1", runs=3, max_stages=1, solver=SolverConfig(
            ranks=(2, 2), degrees=(5, 2), min_iters=2, max_iters=3, patience=20))
        table = run_experiment(cfg)
        write_results(table, tmp_path / "runs.csv", tmp_path / "agg.json")
        assert len(table.rows) == 3
        assert len(calls) == 1

    def test_jobs_parallel_matches_serial(self, tmp_path):
        cfg_serial = quick_config(builtin="f1", runs=2, solver=SolverConfig(
            ranks=(2, 2), degrees=(5, 2), min_iters=3, max_iters=6, patience=20))
        cfg_par = quick_config(builtin="f1", runs=2, jobs=2, solver=SolverConfig(
            ranks=(2, 2), degrees=(5, 2), min_iters=3, max_iters=6, patience=20))
        a = run_experiment(cfg_serial)
        b = run_experiment(cfg_par)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.run_id == rb.run_id
            assert ra.error_j == rb.error_j
            assert ra.output_errors == rb.output_errors

    def test_test_set_metrics(self):
        cfg = quick_config(builtin="f1", runs=1, n_test=8, solver=SolverConfig(
            ranks=(2, 2), degrees=(5, 2), min_iters=3, max_iters=6, patience=20))
        table = run_experiment(cfg)
        row = table.rows[0]
        if not row.failed:
            assert row.test_errors is not None
            assert len(row.test_errors) == 2
