import os

# one BLAS thread, as the benchmark pins it: the test problems are small, and
# on a two-core host OpenBLAS's default threads make small LAPACK calls
# several times slower; this must run before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import multiprocessing
import select

import numpy as np
import pytest

from ptdecouple.basis import build_Y
from ptdecouple.harness import SyntheticSpec, generate_system
from ptdecouple.model import internal_inputs_batch, true_pt_factors
from ptdecouple.solver import SolverState


def open_pipes():
    """Number of this process's open pipe file descriptors; None without /proc/self/fd."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    count = 0
    for fd in fds:
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("pipe:")
        except OSError:  # closed since the listing, as the listing's own descriptor is
            pass
    return count


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or more pipes open than
    it found; a run of the package must not leave either."""
    pipes = open_pipes()
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"child processes left running: {left}"
    if pipes is not None:
        assert open_pipes() <= pipes, f"pipes left open: {open_pipes() - pipes}"


def state_bytes(st):
    return [a.tobytes() for a in (*st.weights, *st.G, st.R, *st.coeffs)]


def wait_readable(fd, what):
    """Wait up to 60 s for fd to be readable; fail with what otherwise."""
    if not select.select([fd], [], [], 60)[0]:
        raise AssertionError(what)


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


def planes_stack(C):
    """The stack K (S x p x r) and the targets jb (S x p) of the G-row planes
    C that ``solver._coeff_problem`` returns, as views."""
    return C[:-1].transpose(2, 1, 0), C[-1].T


def structured_rows(K, X):
    """The constr rows (M_C)_0 of the stacked G-row matrices K (S x p x r) and
    the structure rows X (r x S x w): row (s, k), column (j, i) holds
    K[s, k, j] * X[j, s, i]."""
    S, p, r = K.shape
    return np.einsum("skj,jsi->skji", K, X).reshape(S * p, -1)
