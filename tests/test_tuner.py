import json

import numpy as np
import pytest
from conftest import make_system, truth_state

import ptdecouple.tuner as tuner_mod
from ptdecouple.model import build_f_matrix, build_jacobian_tensor, eval_batch
from ptdecouple.solver import SolverConfig, SolverDivergenceError
from ptdecouple.tuner import TunerConfig, tune, validation_metric


def small_problem(seed=0, S=20):
    model = make_system(seed)
    rng = np.random.Generator(np.random.Philox(seed + 500))
    train = rng.uniform(-1, 1, (S, 2))
    val = rng.uniform(-1, 1, (S, 2))
    J = build_jacobian_tensor(model, train)
    F = build_f_matrix(model, train)
    targets = eval_batch(model, val)
    return model, train, val, J, F, targets


def quick_solver(seed=1, strategy="constr"):
    return SolverConfig(ranks=(2, 2), degrees=(3, 2), min_iters=3, max_iters=15,
                        patience=20, rng_seed=seed, strategy=strategy)


class TestConfig:
    def test_validation(self):
        sc = quick_solver()
        with pytest.raises(ValueError):
            TunerConfig(solver=sc, lambda0=0.0)
        with pytest.raises(ValueError):
            TunerConfig(solver=sc, beta=1.0)
        with pytest.raises(ValueError):
            TunerConfig(solver=sc, max_stages=0)


class TestValidationMetric:
    def test_perfect_predictions_zero(self):
        model, train, val, J, F, targets = small_problem(1)
        assert validation_metric(model, val, targets) == pytest.approx(0.0, abs=1e-10)

    def test_mean_prediction_scores_100_per_output(self):
        # a model that predicts each output's mean scores exactly 100 per output
        targets = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 4.0, 6.0]])
        preds = np.tile(targets.mean(axis=1, keepdims=True), (1, 4))
        centered = targets - targets.mean(axis=1, keepdims=True)
        num = np.sum((targets - preds) ** 2, axis=1)
        den = np.sum(centered ** 2, axis=1)
        e = np.sqrt(num / den) * 100
        assert np.allclose(e, [100.0, 100.0])

    def test_hand_computed_single_output(self):
        # targets (1,2,3,4), predictions off by (0.1,-0.1,0.1,-0.1):
        # e = sqrt(0.04 / 5) * 100
        model, train, val, J, F, targets = small_problem(2)
        t = np.array([[1.0, 2.0, 3.0, 4.0]])
        p = t + np.array([[0.1, -0.1, 0.1, -0.1]])
        num = np.sum((t - p) ** 2)
        den = np.sum((t - t.mean()) ** 2)
        assert np.sqrt(num / den) * 100 == pytest.approx(np.sqrt(0.04 / 5.0) * 100)

    def test_zero_variance_rejected(self):
        model, train, val, J, F, targets = small_problem(3)
        flat = np.ones_like(targets)
        with pytest.raises(ValueError):
            validation_metric(model, val, flat)

    def test_needs_two_points(self):
        model, train, val, J, F, targets = small_problem(4)
        with pytest.raises(ValueError):
            validation_metric(model, val[:1], targets[:, :1])

    def test_accepts_solver_state(self):
        model, train, val, J, F, targets = small_problem(5)
        st = truth_state(model, train)
        assert validation_metric(st, val, targets) == pytest.approx(0.0, abs=1e-8)


class TestTuneLoopSemantics:
    def test_improve_three_then_worsen(self, monkeypatch):
        # metric improves for three stages then worsens: four fits run and
        # the fourth-from-last stage is selected
        scripted = iter([40.0, 30.0, 20.0, 25.0, 1.0])
        monkeypatch.setattr(
            tuner_mod, "validation_metric", lambda *a, **k: next(scripted)
        )
        model, train, val, J, F, targets = small_problem(6)
        cfg = TunerConfig(solver=quick_solver(), max_stages=8)
        report = tune(cfg, J, F, train, (val, targets))
        assert len(report.stages) == 4
        assert report.selected == 2
        assert report.best.metric == 20.0

    def test_non_finite_metric_is_a_worsening(self, monkeypatch):
        # a NaN stage ends the escalation like a worse metric would, and the
        # stage before it is selected
        scripted = iter([40.0, 30.0, float("nan"), 1.0])
        monkeypatch.setattr(
            tuner_mod, "validation_metric", lambda *a, **k: next(scripted)
        )
        model, train, val, J, F, targets = small_problem(6)
        cfg = TunerConfig(solver=quick_solver(), max_stages=8)
        report = tune(cfg, J, F, train, (val, targets))
        assert len(report.stages) == 3
        assert report.selected == 1
        assert report.best.metric == 30.0

    def test_non_finite_first_stage_raises(self, monkeypatch):
        monkeypatch.setattr(tuner_mod, "validation_metric", lambda *a, **k: float("inf"))
        model, train, val, J, F, targets = small_problem(6)
        cfg = TunerConfig(solver=quick_solver(), max_stages=3)
        with pytest.raises(SolverDivergenceError):
            tune(cfg, J, F, train, (val, targets))

    def test_tie_continues(self, monkeypatch):
        scripted = iter([10.0, 10.0, 10.0, 99.0])
        monkeypatch.setattr(
            tuner_mod, "validation_metric", lambda *a, **k: next(scripted)
        )
        model, train, val, J, F, targets = small_problem(7)
        cfg = TunerConfig(solver=quick_solver(), max_stages=4)
        report = tune(cfg, J, F, train, (val, targets))
        assert len(report.stages) == 4
        assert report.selected == 2

    def test_lambda_schedule_defaults(self, monkeypatch):
        scripted = iter([5.0, 4.0, 3.0, 2.0, 99.0])
        monkeypatch.setattr(
            tuner_mod, "validation_metric", lambda *a, **k: next(scripted)
        )
        model, train, val, J, F, targets = small_problem(8)
        cfg = TunerConfig(solver=quick_solver(), max_stages=8)
        report = tune(cfg, J, F, train, (val, targets))
        lams = [st.lam for st in report.stages]
        assert lams == pytest.approx([1e-6, 1e-4, 1e-2, 1.0, 100.0])

    def test_max_stages_one_degenerates_to_single_fit(self):
        model, train, val, J, F, targets = small_problem(9)
        cfg = TunerConfig(solver=quick_solver(), max_stages=1)
        report = tune(cfg, J, F, train, (val, targets))
        assert len(report.stages) == 1
        assert report.selected == 0
        assert report.stages[0].lam == pytest.approx(1e-6)

    def test_stages_start_from_the_search(self, monkeypatch):
        # each stage's fit starts from the state the search picked for that
        # stage's lam and seed
        seen = []

        def fake_search(cfg, j, f, points):
            seen.append((cfg.lam, cfg.rng_seed))
            return None

        monkeypatch.setattr(tuner_mod, "start_search", fake_search)
        model, train, val, J, F, targets = small_problem(16)
        cfg = TunerConfig(solver=quick_solver(seed=12), max_stages=2)
        report = tune(cfg, J, F, train, (val, targets))
        assert seen == [(st.lam, 12 ^ t) for t, st in enumerate(report.stages)]

    def test_stage_seeds_xor(self):
        model, train, val, J, F, targets = small_problem(10)
        cfg = TunerConfig(solver=quick_solver(seed=12), max_stages=3)
        report = tune(cfg, J, F, train, (val, targets))
        for t, stage in enumerate(report.stages):
            assert stage.report.config.rng_seed == 12 ^ t


class TestTuneProperties:
    def test_selected_not_worse_than_earlier(self):
        model, train, val, J, F, targets = small_problem(11, S=25)
        cfg = TunerConfig(solver=quick_solver(seed=3), max_stages=5)
        report = tune(cfg, J, F, train, (val, targets))
        best = report.stages[report.selected].metric
        for stage in report.stages[: report.selected]:
            assert best <= stage.metric + 1e-12

    def test_deterministic(self):
        model, train, val, J, F, targets = small_problem(12)
        cfg = TunerConfig(solver=quick_solver(seed=4), max_stages=3)
        a = tune(cfg, J, F, train, (val, targets))
        b = tune(cfg, J, F, train, (val, targets))
        assert a.selected == b.selected
        assert [s.metric for s in a.stages] == [s.metric for s in b.stages]
        assert [s.lam for s in a.stages] == [s.lam for s in b.stages]

    def test_empty_validation_rejected(self):
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        with pytest.raises(ValueError):
            tune(cfg, J, F, train, (val[:0], targets[:, :0]))

    def test_single_validation_point_rejected_before_any_fit(self, monkeypatch):
        # one point has no spread for the rrmse, so tune must refuse it
        # before it spends a stage's search and sweeps
        calls = []

        def search(*args, **kwargs):
            calls.append(args)
            return None

        monkeypatch.setattr(tuner_mod, "start_search", search)
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        with pytest.raises(ValueError):
            tune(cfg, J, F, train, (val[:1], targets[:, :1]))
        assert calls == []

    def test_misshapen_validation_rejected_before_any_fit(self, monkeypatch):
        # targets must be n x S_val and points S_val x m; a shape error must
        # surface before a stage's search and sweeps, not in its metric
        calls = []

        def search(*args, **kwargs):
            calls.append(args)
            return None

        monkeypatch.setattr(tuner_mod, "start_search", search)
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        for bad in [(val, targets[:, :-1]), (val, targets.T), (val[:, :1], targets),
                    (np.hstack([val, val]), targets)]:
            with pytest.raises(ValueError):
                tune(cfg, J, F, train, bad)
        assert calls == []

    def test_report_json(self):
        model, train, val, J, F, targets = small_problem(15)
        cfg = TunerConfig(solver=quick_solver(seed=6), max_stages=2)
        report = tune(cfg, J, F, train, (val, targets))
        doc = json.loads(report.to_json())
        assert doc["selected"] == report.selected
        assert len(doc["stages"]) == len(report.stages)
        for t, stage in enumerate(doc["stages"]):
            assert stage["stage"] == t
            assert "lam" in stage and "metric" in stage
            assert "trace" in stage["report"]
