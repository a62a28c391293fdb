"""Adaptive coupling-weight driver around the alternating solver.

The coupling weight lam balances the tensor term against the function-value
term, and its useful magnitude is rarely known upfront.  This module runs
the solver at geometrically increasing weights lam0, lam0*beta, lam0*beta^2,
... and gates the escalation by a task-level metric computed on a held-out
validation set: the loop continues while the metric is non-increasing
(ties included) and returns the last stage before it got worse.

Each stage starts from its own seeded start search with seed
``base_seed XOR stage``: the best, by that stage's training objective, of
8 Levenberg-Marquardt descents over the model parameters from
standard-normal draws (``search.start_search``).  The alternating solver
then runs from that state; only where every descent diverged does it start
from ``solver.init_state``, as a bare ``fit`` does.  A non-finite validation
metric counts as a worsening, so it is never selected.

A stage's search needs only the data, its lam and its seed, not the fit of
the stage before.  So a tuned run's searches run as one pipelined
``search.StartSearch``: its helper processes, forked once per run, descend
starts of the next stage while the caller runs this stage's sweeps, and
never of a stage beyond it.  Each stage picks, bit for bit, what its own
``start_search`` picks; a stage the tuner never reaches is dropped
unseen, exceptions included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import eval_batch
from .search import StartSearch
from .solver import FitData, SolverConfig, SolverDivergenceError, _as_int, fit, state_to_model

__all__ = [
    "TunerConfig",
    "StageResult",
    "TunerReport",
    "tune",
    "rrmse",
    "validation_metric",
]


@dataclass(frozen=True)
class TunerConfig:
    solver: SolverConfig
    lambda0: float = 1e-6
    beta: float = 100.0
    max_stages: int = 8

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if not 1 < self.beta < math.inf:
            raise ValueError(f"beta must exceed 1 and be finite, got {self.beta}")
        object.__setattr__(self, "max_stages", _as_int("max_stages", self.max_stages))
        if self.max_stages < 1:
            raise ValueError("max_stages must be >= 1")


@dataclass
class StageResult:
    lam: float
    report: object  # FitReport
    metric: float


@dataclass
class TunerReport:
    """Per-stage fits with the recorded weight actually used, plus the pick.

    ``selected`` indexes the last stage whose metric did not exceed its
    predecessor's; its metric is finite and every earlier stage has a
    metric at least as large.
    """

    stages: list
    selected: int

    @property
    def best(self):
        return self.stages[self.selected]

    def to_dict(self):
        return {
            "stages": [
                {
                    "stage": t,
                    "lam": st.lam,
                    "metric": st.metric,
                    "report": st.report.to_dict(),
                }
                for t, st in enumerate(self.stages)
            ],
            "selected": self.selected,
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def _spread(outputs_true):
    """Squared spread of each true output (row, n x S) around its mean.

    Raises ValueError when a true value is non-finite or an output is
    constant: no relative error can be normalized by such an output.
    """
    t = np.asarray(outputs_true, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite true outputs")
    centered = t - t.mean(axis=1, keepdims=True)
    den = np.sum(centered * centered, axis=1)
    if np.any(den == 0):
        raise ValueError("zero variance in some output")
    return den


def rrmse(outputs_true, outputs_pred):
    """Per-output relative root-mean-squared errors, in percent.

    Both arguments are n x S with S >= 2; output i is normalized by the
    spread of the true values around their mean, which must be finite and
    non-zero.
    """
    t = np.asarray(outputs_true, dtype=float)
    p = np.asarray(outputs_pred, dtype=float)
    if t.shape != p.shape or t.ndim != 2:
        raise ValueError("outputs must be matching n x S matrices")
    if t.shape[1] < 2:
        raise ValueError("need at least two sampling points")
    num = np.sum((t - p) ** 2, axis=1)
    return np.sqrt(num / _spread(t)) * 100.0


def validation_metric(model, points, targets):
    """Sum of the per-output :func:`rrmse` percentages of a decoupled model at held-out points.

    ``targets`` is the n x S matrix of true outputs at the points.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least two validation points")
    return float(np.sum(rrmse(targets, eval_batch(model, points))))


def tune(cfg, j_tensor, f_matrix, points, validation):
    """Escalate lam geometrically until the validation metric worsens.

    Parameters
    ----------
    cfg : TunerConfig
    j_tensor, f_matrix, points : solver inputs
        Validated once, as one ``solver.FitData`` that the start search,
        each of its descents and every stage's ``fit`` read as it is.
    validation : (val_points, val_targets)
        At least two held-out points with the true outputs, n x S_val.

    Returns
    -------
    TunerReport
        One entry per stage run; ``selected`` is the stage before the first
        worsening (the last stage if none worsened within ``max_stages``).
        A non-finite metric counts as a worsening.

    Each stage runs ``fit`` at its lam and seed from the state that
    ``start_search`` picks for that lam and seed.  The stages' searches run
    as one ``StartSearch``, opened here and closed before this returns or
    raises: the helpers it forks once descend the next stage's starts while
    this stage's sweeps run (see the module notes).

    Raises
    ------
    SolverDivergenceError
        When a stage's fit diverges, or the first stage's validation metric
        is not finite (there is no earlier stage to fall back to).
    ValueError
        Before any fit: with J, F or the points malformed or non-finite
        (see ``solver.FitData``), with fewer than two validation points,
        validation points and targets not shaped S_val x m and n x S_val, a
        non-finite validation point, or a target output that is non-finite
        or constant (see :func:`rrmse`).  Also when the escalation reaches a
        stage whose lam overflows.
    """
    data = FitData(j_tensor, f_matrix, points)
    val_points, val_targets = (np.asarray(a, dtype=float) for a in validation)
    if val_points.shape[0] < 2:
        raise ValueError("need at least two validation points")
    n, m, _ = data.shape
    if val_points.shape != (len(val_points), m) or val_targets.shape != (n, len(val_points)):
        raise ValueError(f"validation needs S_val x {m} points and {n} x S_val targets")
    if not np.all(np.isfinite(val_points)):
        raise ValueError("non-finite validation points")
    _spread(val_targets)

    # lam by repeated products, as each stage multiplies the last; a lam
    # that overflows ends the list, and raises if the tuner gets there
    stage_cfgs, lam = [], cfg.lambda0
    while len(stage_cfgs) < cfg.max_stages and lam < math.inf:
        seed = int(cfg.solver.rng_seed) ^ len(stage_cfgs)
        stage_cfgs.append(replace(cfg.solver, lam=lam, rng_seed=seed))
        lam *= cfg.beta
    stages = []
    prev_metric = np.inf  # sentinel for the stage before the first
    selected = None
    with StartSearch(stage_cfgs, data) as starts:
        for t, inner in enumerate(stage_cfgs):
            start = next(starts)
            try:
                report = fit(inner, data, initial_state=start)
            except SolverDivergenceError as exc:
                raise SolverDivergenceError(
                    f"stage {t} (lam={inner.lam:g}): {exc}", exc.trace
                ) from exc
            metric = validation_metric(state_to_model(report.state), val_points, val_targets)
            stages.append(StageResult(lam=inner.lam, report=report, metric=metric))
            if not np.isfinite(metric) or metric > prev_metric:
                if t == 0:
                    raise SolverDivergenceError(
                        f"stage 0 (lam={inner.lam:g}): non-finite validation metric {metric}",
                        list(report.state.trace),
                    )
                selected = t - 1
                break
            prev_metric = metric
    if selected is None:
        if len(stages) < cfg.max_stages:
            raise ValueError(f"stage {len(stages)}: lam must be finite, got {lam}")
        selected = len(stages) - 1
    return TunerReport(stages=stages, selected=selected)
