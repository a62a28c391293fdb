import os

# one BLAS thread, as the benchmark pins it: the test problems are small, and
# on a two-core host OpenBLAS's default threads make small LAPACK calls
# several times slower; this must run before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import multiprocessing

import numpy as np
import pytest

from ptdecouple.basis import build_Y
from ptdecouple.harness import SyntheticSpec, generate_system
from ptdecouple.model import internal_inputs_batch, true_pt_factors
from ptdecouple.solver import SolverState


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running; a run of the package must
    not leave one either."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"child processes left running: {left}"


def make_system(seed, m=2, n=2, ranks=(2, 2), degrees=(3, 2)):
    return generate_system(
        SyntheticSpec(n_inputs=m, n_outputs=n, ranks=ranks, degrees=degrees, seed=seed)
    )


def true_R(model, points):
    us = internal_inputs_batch(model.weights, model.coeffs, points)
    yb = build_Y(us[-1], model.degrees[-1])
    return np.stack(
        [yb[j] @ model.coeffs[-1][j] for j in range(model.ranks[-1])], axis=1
    )


def truth_state(model, points, perturb=0.0, seed=0):
    """Solver state at the model's exact factors, optionally perturbed entrywise."""
    factors = true_pt_factors(model, points)
    R = true_R(model, points)
    rng = np.random.Generator(np.random.Philox(seed))

    def wig(a):
        a = np.array(a, dtype=float)
        if perturb:
            a = a * (1.0 + perturb * rng.uniform(-1.0, 1.0, size=a.shape))
        return a

    return SolverState(
        weights=[wig(w) for w in factors.weights],
        G=[wig(g) for g in factors.G],
        R=wig(R),
        coeffs=[wig(c) for c in model.coeffs],
    )
