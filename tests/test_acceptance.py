"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one summary line (run pytest with -s or check the captured
output).  The two protocol reproductions (criteria 2 and 3) run 30 seeded
experiments each and take a few minutes combined.
"""

import time

import numpy as np
from conftest import make_system, truth_state

from ptdecouple.harness import ExperimentConfig, run_experiment
from ptdecouple.model import (
    DecoupledModel,
    PTFactors,
    apply_ambiguity,
    build_f_matrix,
    build_jacobian_tensor,
    cpd_reconstruct,
    eval_batch,
    eval_model,
    jacobian,
    pt_reconstruct,
    random_ambiguity,
    remove_bias,
    true_pt_factors,
)
from ptdecouple.solver import SolverConfig, build_MG, build_MW, fit
from ptdecouple.solver import (
    _coeff_bases,
    _coeff_problem,
    _planes_stack,
    _structure,
    _structured_rows,
)
from ptdecouple.tensor_ops import fro_norm, unfold, vec, vec3


def report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_recovery_oracle():
    model = make_system(11, m=2, n=2, ranks=(2, 2), degrees=(3, 2))
    pts = np.random.Generator(np.random.Philox(5)).uniform(-1, 1, (30, 2))
    J = build_jacobian_tensor(model, pts)
    F = build_f_matrix(model, pts)
    st0 = truth_state(model, pts, perturb=1e-3, seed=17)
    results = {}
    for strategy in ("proj", "constr"):
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1.0, min_iters=10,
                           max_iters=100, patience=100, strategy=strategy)
        t0 = time.perf_counter()
        rep = fit(cfg, J, F, pts, initial_state=st0.copy())
        elapsed = time.perf_counter() - t0
        results[strategy] = (rep.error_j, rep.error_f, elapsed)
    ok = all(ej < 1e-8 and ef < 1e-8 and dt < 5.0 for ej, ef, dt in results.values())
    detail = "; ".join(
        f"{s}: ErrJ={v[0]:.2e} ErrF={v[1]:.2e} {v[2]:.2f}s" for s, v in results.items()
    )
    report(1, "exact recovery", ok, detail)
    for strategy, (ej, ef, dt) in results.items():
        assert ej < 1e-8, f"{strategy} Error(J)={ej}"
        assert ef < 1e-8, f"{strategy} Error(F)={ef}"
        assert dt < 5.0, f"{strategy} took {dt:.2f}s"


def _protocol_medians(name, degrees, strategy, runs=30):
    cfg = ExperimentConfig(
        solver=SolverConfig(ranks=(2, 2), degrees=degrees, min_iters=10,
                            max_iters=500, patience=50, strategy=strategy),
        builtin=name,
        n_samples=30,
        n_validation=30,
        runs=runs,
        seed=0,
        lambda0=1e-6,
        beta=100.0,
        max_stages=8,
    )
    table = run_experiment(cfg)
    ok_rows = [r for r in table.rows if not r.failed]
    assert len(ok_rows) >= runs // 2, "too many failed runs to take medians"
    med_j = float(np.median([r.error_j for r in ok_rows]))
    med_e = np.median(np.array([r.output_errors for r in ok_rows]), axis=0)
    return med_j, med_e, len(ok_rows)


def test_criterion_2_table_reproduction_f1():
    t0 = time.perf_counter()
    constr_j, constr_e, n_c = _protocol_medians("f1", (5, 2), "constr")
    proj_j, proj_e, n_p = _protocol_medians("f1", (5, 2), "proj")
    elapsed = time.perf_counter() - t0
    checks = {
        "constr median Error(J) <= 0.01": constr_j <= 0.01,
        "constr median e1 <= 3%": constr_e[0] <= 3.0,
        "constr median e2 <= 3%": constr_e[1] <= 3.0,
        "proj median e1 <= 3%": proj_e[0] <= 3.0,
        "proj median e2 <= 3%": proj_e[1] <= 3.0,
    }
    detail = (
        f"constr: ErrJ={constr_j:.2e} e={np.round(constr_e, 2)} ({n_c}/30 runs); "
        f"proj: ErrJ={proj_j:.2e} e={np.round(proj_e, 2)} ({n_p}/30 runs); "
        f"{elapsed:.0f}s"
    )
    report(2, "f1 protocol medians", all(checks.values()), detail)
    assert elapsed < 900.0, f"runtime {elapsed:.0f}s exceeds 15 min"
    for label, passed in checks.items():
        assert passed, f"{label} failed ({detail})"


def test_criterion_3_table_reproduction_f2():
    t0 = time.perf_counter()
    med_j, med_e, n_ok = _protocol_medians("f2", (3, 3), "constr")
    elapsed = time.perf_counter() - t0
    ok = med_j <= 1e-2 and np.all(med_e <= 3.0)
    detail = f"constr: ErrJ={med_j:.2e} e={np.round(med_e, 2)} ({n_ok}/30 runs); {elapsed:.0f}s"
    report(3, "f2 protocol medians", ok, detail)
    assert elapsed < 900.0, f"runtime {elapsed:.0f}s exceeds 15 min"
    assert med_j <= 1e-2, detail
    assert np.all(med_e <= 3.0), detail


def test_criterion_4_bias_removal_exactness():
    model = DecoupledModel(
        weights=(
            np.array([[0.5, 1.0], [2.0, 2.0]]),
            np.array([[2.0, 1.0], [0.0, 1.0]]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        ),
        coeffs=(
            np.array([[1.0, 3.0, 1.0], [2.0, 4.0, -1.0]]),
            np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0]]),
        ),
    )
    out = remove_bias(model)
    expect_g1 = np.array([[0.0, 3.0, 1.0], [0.0, 4.0, -1.0]])
    expect_g2 = np.array([[4.0, 1.0, 0.0], [2.0, 3.0, 1.0]])
    coeff_err = max(
        np.abs(out.coeffs[0] - expect_g1).max(), np.abs(out.coeffs[1] - expect_g2).max()
    )
    pts = np.random.Generator(np.random.Philox(23)).uniform(-1, 1, (100, 2))
    a, b = eval_batch(model, pts), eval_batch(out, pts)
    eval_err = np.abs(a - b).max() / max(1.0, np.abs(a).max())
    ok = coeff_err <= 1e-12 and eval_err <= 1e-10
    report(4, "bias removal", ok, f"coeff err={coeff_err:.2e}, eval err={eval_err:.2e}")
    assert coeff_err <= 1e-12
    assert eval_err <= 1e-10


def _random_general_model(rng):
    L = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    ranks = [int(rng.integers(1, 5)) for _ in range(L)]
    degrees = [int(rng.integers(1, 6)) for _ in range(L)]
    dims = [m] + ranks + [n]
    weights = tuple(
        rng.uniform(-1.0, 1.0, size=(dims[i + 1], dims[i])) for i in range(L + 1)
    )
    coeffs = tuple(
        rng.uniform(-1.0, 1.0, size=(ranks[i], degrees[i] + 1)) for i in range(L)
    )
    return DecoupledModel(weights=weights, coeffs=coeffs)


def test_criterion_5_jacobian_finite_differences():
    rng = np.random.Generator(np.random.Philox(29))
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-6
    for _ in range(50):
        model = _random_general_model(rng)
        for x in rng.uniform(-1, 1, (20, model.n_inputs)):
            J = jacobian(model, x)
            cols = []
            for j in range(model.n_inputs):
                e = np.zeros(model.n_inputs)
                e[j] = h
                cols.append((eval_model(model, x + e) - eval_model(model, x - e)) / (2 * h))
            fd = np.stack(cols, axis=1)
            rel = np.linalg.norm(J - fd) / max(1.0, np.linalg.norm(J))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(5, "analytic vs FD Jacobians", ok, f"worst rel={worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_6_update_matrix_identities():
    worst = 0.0
    cases = [
        (1, (2,), (3,), 3, 2),
        (2, (2, 2), (3, 2), 2, 2),
        (3, (3, 2, 2), (2, 3, 2), 4, 3),
    ]
    for seed, ranks, degrees, m, n in cases:
        L = len(ranks)
        model = make_system(seed * 7, m=m, n=n, ranks=ranks, degrees=degrees)
        pts = np.random.Generator(np.random.Philox(seed)).uniform(-1, 1, (9, m))
        J = build_jacobian_tensor(model, pts)
        st = truth_state(model, pts)
        nJ = fro_norm(J)

        resid = fro_norm(unfold(J, 2).T - build_MW(st, 0) @ st.weights[0]) / nJ
        worst = max(worst, resid)
        resid = fro_norm(unfold(J, 1) - st.weights[L] @ build_MW(st, L)) / nJ
        worst = max(worst, resid)
        for l in range(1, L):
            M = build_MW(st, l)
            w = st.weights[l].reshape(-1, order="F")
            worst = max(worst, fro_norm(vec3(J) - M @ w) / nJ)
        for l in range(1, L + 1):
            for s in range(9):
                M = build_MG(st, l, s)
                worst = max(worst, fro_norm(vec(J[:, :, s]) - M @ st.G[l - 1][s]) / nJ)
            # the rows (M_C)_0 that the constr update solves on, at rank size
            # against the planes' targets; their residual is that of the
            # full rows against vec3(J), up to a term free of c
            C, i0 = _coeff_problem(st, l, J)
            X, _ = _structure(st, l, _coeff_bases(st, l, pts))
            K, jb = _planes_stack(C)
            M0 = _structured_rows(K, X[:, :, i0:])
            c = np.concatenate([st.coeffs[l - 1][j, i0:] for j in range(ranks[l - 1])])
            worst = max(worst, fro_norm(jb.ravel() - M0 @ c) / nJ)
    ok = worst <= 1e-10
    report(6, "update-matrix identities", ok, f"worst residual={worst:.2e} (L=1,2,3)")
    assert worst <= 1e-10


def test_criterion_7_ambiguity_invariance():
    worst = 0.0
    count = 0
    rng = np.random.default_rng(31)
    configs = [(1, (2,), (3,), 20), (2, (2, 2), (3, 2), 30), (3, (3, 2, 2), (2, 3, 2), 50)]
    for L, ranks, degrees, n_transforms in configs:
        model = make_system(L * 13, m=3, n=3, ranks=ranks, degrees=degrees)
        pts = rng.uniform(-1, 1, (7, 3))
        factors = true_pt_factors(model, pts)
        base = pt_reconstruct(factors)
        scale = np.abs(base).max()
        for k in range(n_transforms):
            t = random_ambiguity(ranks, 7, np.random.default_rng(1000 * L + k))
            if L == 3:
                assert any(np.any(g != 1.0) for g in t.gammas), "gamma should be nontrivial"
            rec = pt_reconstruct(apply_ambiguity(factors, t))
            worst = max(worst, np.abs(rec - base).max() / scale)
            count += 1
    ok = worst <= 1e-12 and count == 100
    report(7, "ambiguity invariance", ok, f"{count} transforms, worst rel={worst:.2e}")
    assert count == 100
    assert worst <= 1e-12


def test_criterion_8_l1_cpd_bitwise_coincidence():
    rng = np.random.default_rng(37)
    identical = True
    for _ in range(10):
        W0 = rng.normal(size=(3, 4))
        W1 = rng.normal(size=(2, 3))
        G = rng.normal(size=(6, 3))
        pt = pt_reconstruct(PTFactors(weights=(W0, W1), G=(G,)))
        cpd = cpd_reconstruct(W1, W0.T, G)
        identical = identical and (pt.tobytes() == cpd.tobytes())
    report(8, "single-layer CPD coincidence", identical, "bitwise equal on 10 factor sets")
    assert identical
