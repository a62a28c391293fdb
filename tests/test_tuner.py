import json
import multiprocessing.connection
import os

import numpy as np
import pytest
from conftest import make_system, state_bytes, truth_state, wait_readable

import ptdecouple.descent as descent_mod
import ptdecouple.search as search_mod
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


def fake_searches(monkeypatch):
    """Make the tuner's start searches pick no start.

    Returns the lists of the stage configs handed to each search opened,
    and of the (lam, seed) of each stage a start was asked for.
    """
    opened, picked = [], []

    class Searches:
        def __init__(self, cfgs, *data):
            opened.append(cfgs)
            self.cfgs = iter(cfgs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def __next__(self):
            cfg = next(self.cfgs)
            picked.append((cfg.lam, cfg.rng_seed))
            return None

    monkeypatch.setattr(tuner_mod, "StartSearch", Searches)
    return opened, picked


class TestConfig:
    def test_validation(self):
        sc = quick_solver()
        with pytest.raises(ValueError):
            TunerConfig(solver=sc, lambda0=0.0)
        with pytest.raises(ValueError):
            TunerConfig(solver=sc, beta=1.0)
        with pytest.raises(ValueError):
            TunerConfig(solver=sc, max_stages=0)

    def test_max_stages_must_be_an_integer(self):
        # tune's stage loop compares against max_stages, so 2.5 built three stages
        sc = quick_solver()
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="max_stages"):
                TunerConfig(solver=sc, max_stages=value)
        assert TunerConfig(solver=sc, max_stages=np.int64(2)).max_stages == 2


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
        opened, seen = fake_searches(monkeypatch)
        model, train, val, J, F, targets = small_problem(16)
        cfg = TunerConfig(solver=quick_solver(seed=12), max_stages=2)
        report = tune(cfg, J, F, train, (val, targets))
        assert seen == [(st.lam, 12 ^ t) for t, st in enumerate(report.stages)]
        # one search per tuned run, handed every stage's config; lam is the
        # product of the stages before, bit for bit
        assert [[(c.lam, c.rng_seed) for c in cfgs] for cfgs in opened] == [
            [(1e-6, 12), (1e-6 * 100.0, 13)]]

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
        calls, _ = fake_searches(monkeypatch)
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        with pytest.raises(ValueError):
            tune(cfg, J, F, train, (val[:1], targets[:, :1]))
        assert calls == []

    def test_misshapen_validation_rejected_before_any_fit(self, monkeypatch):
        # targets must be n x S_val and points S_val x m; a shape error must
        # surface before a stage's search and sweeps, not in its metric
        calls, _ = fake_searches(monkeypatch)
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        for bad in [(val, targets[:, :-1]), (val, targets.T), (val[:, :1], targets),
                    (np.hstack([val, val]), targets)]:
            with pytest.raises(ValueError):
                tune(cfg, J, F, train, bad)
        assert calls == []

    def test_degenerate_targets_rejected_before_any_fit(self, monkeypatch):
        # a NaN or a constant target output fails every stage's metric, so
        # tune must refuse it before it spends stage 0's search and sweeps
        calls, _ = fake_searches(monkeypatch)
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        nan = targets.copy()
        nan[1, 3] = np.nan
        constant = targets.copy()
        constant[0] = 2.5
        for bad, match in [(nan, "non-finite"), (constant, "zero variance")]:
            with pytest.raises(ValueError, match=match):
                tune(cfg, J, F, train, (val, bad))
        assert calls == []

    def test_non_finite_validation_points_rejected_before_any_fit(self, monkeypatch):
        # a non-finite point makes stage 0's metric NaN, which would read as a
        # numerical failure after the stage's search and sweeps
        calls, _ = fake_searches(monkeypatch)
        model, train, val, J, F, targets = small_problem(14)
        cfg = TunerConfig(solver=quick_solver())
        for value in (np.nan, np.inf):
            bad = val.copy()
            bad[3, 1] = value
            with pytest.raises(ValueError, match="non-finite validation points"):
                tune(cfg, J, F, train, (bad, targets))
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


def test_a_tuned_run_validates_its_data_once(monkeypatch):
    # tune builds one FitData, and the search and every stage's fit read it
    # as it is; no stage checks J, F and the points again
    from ptdecouple.solver import FitData

    cfg, J, F, pts, validation = tuned_case("f1")
    built, init = [], FitData.__post_init__
    seen, real_fit = [], tuner_mod.fit

    def counted(data):
        built.append(data)
        init(data)

    def fit(inner, data, **kwargs):
        seen.append(data)
        return real_fit(inner, data, **kwargs)

    monkeypatch.setattr(FitData, "__post_init__", counted)
    monkeypatch.setattr(tuner_mod, "fit", fit)
    monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [])
    report = tune(cfg, J, F, pts, validation)
    assert len(built) == 1 and len(seen) == len(report.stages) == 3
    assert all(data is built[0] for data in seen)


def tuned_case(case):
    """A tuned run of 3 stages, on f1 or on a generated L = 3 system, S = 30."""
    from ptdecouple.harness import builtin_system
    from ptdecouple.solver import seeded_rng

    if case == "f1":
        seed, model, ranks, degrees = 1, builtin_system("f1"), (2, 2), (5, 2)
    else:
        seed, ranks, degrees = 0, (3, 2, 2), (2, 3, 2)
        model = make_system(seed, m=3, n=2, ranks=ranks, degrees=degrees)
    rng = seeded_rng(seed, 0, 0)
    pts = rng.uniform(-1, 1, (30, model.n_inputs))
    val = rng.uniform(-1, 1, (30, model.n_inputs))
    cfg = TunerConfig(solver=SolverConfig(ranks=ranks, degrees=degrees, rng_seed=seed,
                                          max_iters=20, patience=20), max_stages=3)
    J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
    return cfg, J, F, pts, (val, eval_batch(model, val))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="searches run in process")
class TestPipelinedSearches:
    """A tuned run's searches run as one StartSearch: helpers forked once per
    run descend the next stage's starts while the caller sweeps, and every
    stage gets the bits of its search in process."""

    @staticmethod
    def helpers(monkeypatch, count):
        """Fork count helpers, all on one core, from here on."""
        cpu = max(os.sched_getaffinity(0))
        monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [cpu] * count)

    @staticmethod
    def stage_of(cfg, inner):
        return inner.rng_seed ^ cfg.solver.rng_seed

    @pytest.mark.parametrize("case", ["f1", "L3"])
    def test_a_tuned_run_keeps_its_bytes_and_forks_once(self, monkeypatch, case):
        cfg, J, F, pts, validation = tuned_case(case)
        with monkeypatch.context() as m:
            m.setattr(search_mod, "_helper_cpus", lambda: [])
            expected = tune(cfg, J, F, pts, validation)
        assert len(expected.stages) == 3
        # each stage's sweeps wait until a helper has begun a start of the
        # next stage, which the caller has not reached
        read, write = os.pipe()
        caller, real, real_fit = os.getpid(), search_mod._start_outcome, tuner_mod.fit
        ahead = set()

        def outcome(inner, *args):
            if os.getpid() != caller:
                os.write(write, bytes([self.stage_of(cfg, inner)]))
            return real(inner, *args)

        def fit(inner, *args, **kwargs):
            t = self.stage_of(cfg, inner)
            while t + 1 < cfg.max_stages and t + 1 not in ahead:
                wait_readable(read, f"no helper began a start of stage {t + 1} during stage {t}")
                ahead.update(os.read(read, 64))
            return real_fit(inner, *args, **kwargs)

        forks = []
        os.register_at_fork(after_in_parent=lambda: forks.append(1))
        self.helpers(monkeypatch, 2)
        monkeypatch.setattr(search_mod, "_start_outcome", outcome)
        monkeypatch.setattr(tuner_mod, "fit", fit)
        try:
            got = tune(cfg, J, F, pts, validation)
        finally:
            os.close(read)
            os.close(write)
        assert ahead >= {1, 2}
        assert len(forks) == 2  # each helper forked once, not once per stage
        assert got.to_json() == expected.to_json()
        assert [state_bytes(st.report.state) for st in got.stages] == [
            state_bytes(st.report.state) for st in expected.stages]

    def scripted_errors(self, monkeypatch, cfg, stage):
        """Descents of the stage raise TypeError in the helpers and stall in
        the caller; returns the outcomes the caller's picks take."""
        caller, real = os.getpid(), search_mod.lm_descent
        lam = cfg.lambda0
        for _ in range(stage):  # by the tuner's products
            lam *= cfg.beta

        def descent(state, *args):  # args: data, lam, poll
            if args[1] != lam:
                return real(state, *args)
            if os.getpid() != caller:
                raise TypeError(f"scripted error in stage {stage}")
            return descent_mod.LMResult(state.weights, state.coeffs, objective=1.0,
                                       iterations=1, stop_reason="stalled")

        picked, add = [], search_mod._Pick.add

        def spied(pick, k, outcome):
            picked.append(outcome)
            return add(pick, k, outcome)

        monkeypatch.setattr(search_mod, "lm_descent", descent)
        monkeypatch.setattr(search_mod._Pick, "add", spied)
        return picked

    def test_an_error_of_a_stage_never_run_is_not_raised(self, monkeypatch):
        # the tuner stops after stage 1, whose metric is worse; a helper
        # raised in stage 2 while stage 1 ran, and stage 2's pick took it
        cfg, J, F, pts, validation = tuned_case("f1")
        scripted = iter([2.0, 3.0])
        monkeypatch.setattr(tuner_mod, "validation_metric", lambda *a: next(scripted))
        picked = self.scripted_errors(monkeypatch, cfg, 2)
        # the helper descends stage 1 only once the caller is in it, and the
        # caller's first descent of stage 1 ends once stage 2's error is sent
        caller, real, real_fit = os.getpid(), search_mod._start_outcome, tuner_mod.fit
        entered, sent = os.pipe(), os.pipe()
        send = multiprocessing.connection.Connection.send

        def sending(conn, obj):
            send(conn, obj)
            if isinstance(obj[2], TypeError):
                os.write(sent[1], b"!")

        def outcome(inner, *args):
            t = self.stage_of(cfg, inner)
            if t == 1 and os.getpid() != caller:
                wait_readable(entered[0], "the caller did not finish stage 0")
            elif t == 1 and not sent_seen:
                wait_readable(sent[0], "no helper sent stage 2's error")
                sent_seen.append(1)
            return real(inner, *args)

        def fit(inner, *args, **kwargs):
            report = real_fit(inner, *args, **kwargs)
            if self.stage_of(cfg, inner) == 0:
                os.write(entered[1], b"!")
            return report

        sent_seen = []
        self.helpers(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing.connection.Connection, "send", sending)
        monkeypatch.setattr(search_mod, "_start_outcome", outcome)
        monkeypatch.setattr(tuner_mod, "fit", fit)
        try:
            report = tune(cfg, J, F, pts, validation)
        finally:
            for fd in (*entered, *sent):
                os.close(fd)
        assert len(report.stages) == 2 and report.selected == 0
        assert sent_seen and any(isinstance(out, TypeError) for out in picked)

    def test_an_error_of_a_stage_run_is_raised_with_the_helpers_traceback(self, monkeypatch):
        cfg, J, F, pts, validation = tuned_case("f1")
        self.scripted_errors(monkeypatch, cfg, 1)
        # the caller's descents of stage 1 wait until a helper has begun one
        read, write = os.pipe()
        caller, real = os.getpid(), search_mod._start_outcome

        def outcome(inner, *args):
            if self.stage_of(cfg, inner) == 1:
                if os.getpid() != caller:
                    os.write(write, b"!")
                else:
                    wait_readable(read, "no helper began a start of stage 1")
            return real(inner, *args)

        self.helpers(monkeypatch, 1)
        monkeypatch.setattr(search_mod, "_start_outcome", outcome)
        try:
            with pytest.raises(TypeError, match="scripted error in stage 1") as info:
                tune(cfg, J, F, pts, validation)
        finally:
            os.close(read)
            os.close(write)
        assert "in a start-search helper" in str(info.value.__cause__)
        assert "scripted error in stage 1" in str(info.value.__cause__)
