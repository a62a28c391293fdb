"""Multi-layer decoupling of multivariate vector functions.

The package represents a multivariate map as alternating linear transforms
and banks of univariate polynomials, and recovers such representations from
stacked Jacobian evaluations plus function values by a constrained coupled
matrix-tensor factorization solved with alternating least squares.
"""

from .basis import build_per_slice_X, build_X, build_Y
from .harness import (
    ExperimentConfig,
    ResultTable,
    RunResult,
    SyntheticSpec,
    builtin_system,
    collinearity,
    generate_system,
    rrmse,
    run_experiment,
    write_results,
)
from .model import (
    AmbiguityTransform,
    DecoupledModel,
    PTFactors,
    apply_ambiguity,
    build_f_matrix,
    build_jacobian_tensor,
    cpd_reconstruct,
    eval_batch,
    eval_model,
    internal_inputs,
    jacobian,
    load_model,
    model_from_json,
    model_to_json,
    pt_reconstruct,
    random_ambiguity,
    remove_bias,
    save_model,
    true_pt_factors,
)
from .solver import (
    FitReport,
    SolverConfig,
    SolverDivergenceError,
    SolverState,
    fit,
    init_state,
    state_to_model,
)
from .tensor_ops import (
    fro_norm,
    stack_slices,
    unfold,
    vec,
    vec3,
)
from .tuner import TunerConfig, TunerReport, tune, validation_metric

__version__ = "0.1.0"
