import json
import os
import select
import time

import numpy as np
import pytest
from conftest import (
    make_system,
    planes_stack,
    state_bytes,
    structured_rows,
    truth_state,
    wait_readable,
)

import ptdecouple.search as search_mod
import ptdecouple.solver as solver_mod

from ptdecouple.model import PTFactors, build_f_matrix, build_jacobian_tensor, pt_reconstruct
from ptdecouple.solver import (
    FitData,
    SolverConfig,
    SolverDivergenceError,
    SolverState,
    build_MG,
    build_MW,
    fit,
    init_state,
    objective,
    rebalance,
    state_to_model,
    update_c_constr,
    update_c_proj,
    update_W,
)
from ptdecouple.search import start_search
from ptdecouple.solver import (
    _coeff_bases,
    _coeff_problem,
    _structure,
    _write_all_factors,
    _write_factors,
)
from ptdecouple.tensor_ops import (
    _QR_MIN_STACK,
    NonFiniteError,
    fro_norm,
    lstsq_info,
    lstsq_panels,
    lstsq_reduced,
    reduce_planes,
    unfold,
    vec,
    vec3,
)


def problem(seed=0, m=2, n=2, ranks=(2, 2), degrees=(3, 2), S=20):
    model = make_system(seed, m=m, n=n, ranks=ranks, degrees=degrees)
    pts = np.random.Generator(np.random.Philox(seed + 1000)).uniform(-1, 1, (S, m))
    J = build_jacobian_tensor(model, pts)
    F = build_f_matrix(model, pts)
    return model, pts, J, F


def constr_rows(st, layer, J, pts):
    """The rows (M_C)_0 that the constr update solves on, with the first fitted column."""
    C, i0 = _coeff_problem(st, layer, J)
    X, _ = bases(st, layer, pts)
    return structured_rows(planes_stack(C)[0], X[:, :, i0:]), i0


def dense_constr_system(st, layer, J, F, pts, lam):
    """The constr system as the method states it, ``(a, b, i0)``: (M_C)_0 of
    the whole planes against their targets, slice by slice, and at the last
    layer the sqrt(lam)-scaled F rows below, row (i, s) and column (j, t)
    holding sqrt(lam) * W_L[i, j] * Y[j, s, t] against sqrt(lam) * F[i, s],
    the constants' columns included."""
    C, i0 = _coeff_problem(st, layer, J)
    K, jb = planes_stack(C)
    X, Y = bases(st, layer, pts)
    a, b = structured_rows(K, X[:, :, i0:]), jb.ravel()
    if Y is not None:
        n, S = F.shape
        W = np.einsum("ij,jst->isjt", st.weights[-1], Y).reshape(n * S, -1)
        a = np.vstack([a, np.sqrt(lam) * W])
        b = np.concatenate([b, np.sqrt(lam) * F.ravel()])
    return a, b, i0


def full_constr_system(st, layer, J, F, pts, lam):
    """The system the constr update solves, written from the whole planes,
    ``(a, b)``: (M_C)_0 without the constants' columns, in the order (row,
    slice), and at the last layer the F rows centred over the slices below,
    row (i, s) and column (j, t), t >= 1, holding
    sqrt(lam) * W_L[i, j] * (Y[j, s, t] - Ybar[j, t]) against
    sqrt(lam) * (F[i, s] - Fbar[i]), the bars the slice means."""
    C, _ = _coeff_problem(st, layer, J)
    K, jb = planes_stack(C)
    S, p, _ = K.shape
    X, Y = bases(st, layer, pts)
    a = structured_rows(K, X[:, :, 1:]).reshape(S, p, -1).swapaxes(0, 1).reshape(S * p, -1)
    b = jb.T.ravel()
    if Y is not None:
        Y = Y[:, :, 1:] - np.mean(Y[:, :, 1:], axis=1)[:, None]
        W = np.einsum("ij,jst->isjt", st.weights[-1], Y).reshape(len(F) * S, -1)
        a = np.vstack([a, W * np.sqrt(lam)])
        b = np.concatenate([b, ((F - np.mean(F, axis=1)[:, None]) * np.sqrt(lam)).ravel()])
    return a, b


def bases(st, layer, pts):
    """The layer's structure matrices (X, Y) at its fresh inputs."""
    return _structure(st, layer, _coeff_bases(st, layer, pts))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(ranks=(2,), degrees=(2, 3))
        with pytest.raises(ValueError):
            SolverConfig(ranks=(2,), degrees=(2,), min_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(ranks=(2,), degrees=(2,), min_iters=5, max_iters=4)
        with pytest.raises(ValueError):
            SolverConfig(ranks=(2,), degrees=(2,), patience=0)
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam"):
                SolverConfig(ranks=(2,), degrees=(2,), lam=lam)
        with pytest.raises(ValueError):
            SolverConfig(ranks=(2,), degrees=(2,), strategy="newton")

    @pytest.mark.parametrize("field, value", [
        ("ranks", (2.7, 2)), ("ranks", (True, 2)), ("degrees", (5, 2.0)),
        ("min_iters", 1.0), ("max_iters", 2.5), ("patience", True), ("rng_seed", 3.0),
        ("rng_seed", -1),
    ])
    def test_counts_must_be_integers(self, field, value):
        # a float or a bool where a count is meant is refused at construction,
        # not truncated or met by a TypeError inside fit
        given = dict(ranks=(2, 2), degrees=(5, 2), min_iters=1, max_iters=2)
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{**given, field: value})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = SolverConfig(ranks=np.array([2, 2]), degrees=(np.int32(5), 2),
                           min_iters=np.int64(1), max_iters=np.uint8(2),
                           patience=np.int16(3), rng_seed=np.int64(7))
        assert (cfg.ranks, cfg.degrees) == ((2, 2), (5, 2))
        assert (cfg.min_iters, cfg.max_iters, cfg.patience, cfg.rng_seed) == (1, 2, 3, 7)


class TestInitState:
    def test_deterministic(self):
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=42)
        a = init_state(cfg, (2, 3, 10))
        b = init_state(cfg, (2, 3, 10))
        for x, y in zip(a.weights + a.G + a.coeffs, b.weights + b.G + b.coeffs):
            assert np.array_equal(x, y)
        assert np.array_equal(a.R, b.R)

    def test_entries_in_range(self):
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=7)
        st = init_state(cfg, (3, 2, 15))
        for arr in st.weights + st.G + [st.R] + st.coeffs:
            assert np.all(arr >= 0.1) and np.all(arr <= 10.0)

    def test_different_seeds_differ(self):
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=1)
        a = init_state(cfg, (2, 2, 30))
        b = init_state(SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=2), (2, 2, 30))
        flat_a = np.concatenate([x.ravel() for x in a.weights + a.G + [a.R] + a.coeffs])
        flat_b = np.concatenate([x.ravel() for x in b.weights + b.G + [b.R] + b.coeffs])
        assert np.mean(flat_a != flat_b) >= 0.99

    def test_invalid_dims(self):
        cfg = SolverConfig(ranks=(2,), degrees=(2,))
        with pytest.raises(ValueError):
            init_state(cfg, (0, 2, 5))

    def test_shapes(self):
        cfg = SolverConfig(ranks=(3, 2), degrees=(2, 4), rng_seed=0)
        st = init_state(cfg, (5, 4, 12))
        assert st.weights[0].shape == (3, 4)
        assert st.weights[1].shape == (2, 3)
        assert st.weights[2].shape == (5, 2)
        assert st.G[0].shape == (12, 3) and st.G[1].shape == (12, 2)
        assert st.R.shape == (12, 2)
        assert st.coeffs[0].shape == (3, 3) and st.coeffs[1].shape == (2, 5)


class TestBuildMW:
    def test_linear_single_layer_recovers_w0(self):
        # all derivative factors equal one: M_W^(0) stacks W_1, so the W_0
        # subproblem is an exact linear system
        rng = np.random.default_rng(0)
        W0, W1 = rng.normal(size=(2, 3)), rng.normal(size=(4, 2))
        S = 6
        st = truth_state(make_system(1, m=3, n=4, ranks=(2,), degrees=(1,)),
                         rng.uniform(-1, 1, (S, 3)))
        st.weights = [W0, W1]
        st.G = [np.ones((S, 2))]
        M = build_MW(st, 0)
        assert np.allclose(M, np.tile(W1, (S, 1)))
        J = pt_reconstruct(PTFactors(weights=tuple(st.weights), G=tuple(st.G)))
        from ptdecouple.tensor_ops import lstsq_info

        W0_hat = lstsq_info(M, unfold(J, 2).T)[0]
        assert np.allclose(W0_hat, W0, rtol=1e-10)

    @pytest.mark.parametrize("seed,ranks,degrees,m,n", [
        (2, (2,), (3,), 3, 2),
        (3, (2, 2), (3, 2), 2, 2),
        (4, (3, 2, 2), (2, 3, 2), 4, 3),
    ])
    def test_self_consistency_all_layers(self, seed, ranks, degrees, m, n):
        model, pts, J, F = problem(seed, m=m, n=n, ranks=ranks, degrees=degrees, S=8)
        st = truth_state(model, pts)
        nJ = fro_norm(J)
        L = len(ranks)
        assert fro_norm(unfold(J, 2).T - build_MW(st, 0) @ st.weights[0]) <= 1e-12 * nJ
        assert fro_norm(unfold(J, 1) - st.weights[L] @ build_MW(st, L)) <= 1e-12 * nJ
        for l in range(1, L):
            M = build_MW(st, l)
            w = st.weights[l].reshape(-1, order="F")
            assert fro_norm(vec3(J) - M @ w) <= 1e-12 * nJ

    def test_middle_layer_holds_single_products(self):
        # slice s's rows are kron(B_s^T, A_s), each entry one product; the
        # product einsum writes lands on a zeroed output, so -0.0 reads +0.0
        from ptdecouple.model import left_chain, right_chains

        model, pts, J, F = problem(4, m=4, n=3, ranks=(3, 2, 2), degrees=(2, 3, 2), S=8)
        st = truth_state(model, pts)
        st.G[1][2] = (0.0, -1.0)
        w, G = st.weights, st.G
        for l in (1, 2):
            A = left_chain(w, G, l + 1) * G[l][:, None, :]
            B = G[l - 1][:, :, None] * right_chains(w, G, l)[-1]
            want = np.concatenate([np.kron(B[s].T, A[s]) for s in range(8)]) + 0.0
            assert np.ascontiguousarray(build_MW(st, l)).tobytes() == want.tobytes()

    def test_layer_out_of_range(self):
        model, pts, J, F = problem(5)
        st = truth_state(model, pts)
        with pytest.raises(ValueError):
            build_MW(st, 3)


class TestBuildMG:
    def test_single_layer_formula(self):
        model, pts, J, F = problem(6, ranks=(2,), degrees=(3,))
        st = truth_state(model, pts)
        M = build_MG(st, 1, 4)
        # column j is kron(W_0[j], W_1[:, j])
        expect = np.einsum("ja,bj->abj", st.weights[0], st.weights[1]).reshape(-1, 2)
        assert np.allclose(M, expect, rtol=1e-13)

    def test_exact_residual_and_shape(self):
        model, pts, J, F = problem(7, S=9)
        st = truth_state(model, pts)
        nJ = fro_norm(J)
        for l in (1, 2):
            for s in range(9):
                M = build_MG(st, l, s)
                assert M.shape == (4, 2)
                resid = fro_norm(vec(J[:, :, s]) - M @ st.G[l - 1][s])
                assert resid <= 1e-12 * nJ


class TestUpdateW:
    def test_fixed_point_at_truth(self):
        model, pts, J, F = problem(8)
        st = truth_state(model, pts)
        for layer in (0, 1, 2):
            before = [w.copy() for w in st.weights]
            update_W(st, layer, J, F, lam=1.0)
            delta = fro_norm(st.weights[layer] - before[layer])
            assert delta <= 1e-8 * fro_norm(before[layer])

    def test_lambda_zero_last_layer_pure_tensor_fit(self):
        model, pts, J, F = problem(9)
        st = truth_state(model, pts, perturb=0.05, seed=1)
        from ptdecouple.tensor_ops import lstsq_info

        M = build_MW(st, 2)
        expect = lstsq_info(M.T, unfold(J, 1).T)[0].T
        update_W(st, 2, J, F, lam=0.0)
        assert np.allclose(st.weights[2], expect, rtol=1e-12)

    def test_w_updates_never_increase_objective(self):
        model, pts, J, F = problem(10)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=0.5, rng_seed=3)
        st = init_state(cfg, (2, 2, 20))
        prev = objective(st, J, F, 0.5)[2]
        for sweep in range(5):
            for layer in (0, 1, 2):
                update_W(st, layer, J, F, 0.5)
                cur = objective(st, J, F, 0.5)[2]
                assert cur <= prev * (1 + 1e-10)
                prev = cur
            # move the constrained factors as the full sweep would
            update_c_constr(st, 1, J, F, pts, 0.5)
            update_c_constr(st, 2, J, F, pts, 0.5)
            prev = objective(st, J, F, 0.5)[2]


class TestUpdateCProj:
    def test_projection_fixed_point(self):
        model, pts, J, F = problem(11)
        st = truth_state(model, pts)
        G_before = [g.copy() for g in st.G]
        c_before = [c.copy() for c in st.coeffs]
        update_c_proj(st, 1, J, F, pts, lam=1.0)
        update_c_proj(st, 2, J, F, pts, lam=1.0)
        for l in range(2):
            assert np.allclose(st.G[l], G_before[l], atol=1e-8 * fro_norm(G_before[l]))
            # constants of inner layers stay frozen; the rest re-fit to truth
            assert np.allclose(st.coeffs[l], c_before[l], atol=1e-8)

    def test_constraint_satisfaction_exact(self):
        from ptdecouple.basis import build_X
        from ptdecouple.model import internal_inputs_batch

        model, pts, J, F = problem(12)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=5, strategy="proj")
        st = init_state(cfg, (2, 2, 20))
        update_c_proj(st, 1, J, F, pts, lam=1.0)
        us = internal_inputs_batch(st.weights, st.coeffs, pts)
        xb = build_X(us[0], 3)
        for j in range(2):
            assert np.allclose(st.G[0][:, j], xb[j] @ st.coeffs[0][j], atol=1e-13)

    def test_lambda_zero_still_updates_R(self):
        model, pts, J, F = problem(13)
        st = truth_state(model, pts, perturb=0.2, seed=2)
        R_before = st.R.copy()
        update_c_proj(st, 2, J, F, pts, lam=0.0)
        assert not np.allclose(st.R, R_before)
        # R still satisfies its structure equation afterwards
        from ptdecouple.basis import build_Y
        from ptdecouple.model import internal_inputs_batch

        us = internal_inputs_batch(st.weights, st.coeffs, pts)
        yb = build_Y(us[-1], 2)
        for j in range(2):
            assert np.allclose(st.R[:, j], yb[j] @ st.coeffs[1][j], atol=1e-12)

    @pytest.mark.parametrize("S", [12, _QR_MIN_STACK + 20])
    def test_every_truncation_is_an_lstsq_info_count(self, monkeypatch, S):
        # a zero column of W_L makes every slice's G-row system and the R
        # system rank deficient; each truncation the state counts must come
        # from an lstsq_info call, where the benchmark's tracer sees it, on
        # either path of the stacked G-row solve
        import ptdecouple.solver as solver_mod
        from ptdecouple.harness import builtin_system

        model = builtin_system("f1")
        pts = np.random.Generator(np.random.Philox(3)).uniform(-1, 1, (S, 2))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        st = truth_state(model, pts)
        st.weights[2][:, 0] = 0.0
        counts = []

        def counted(a, b, *rows, **kwargs):
            x, trunc = lstsq_info(a, b, *rows, **kwargs)
            counts.append(trunc)
            return x, trunc

        import ptdecouple.tensor_ops as top

        # the panel solves call lstsq_info from tensor_ops, where the
        # tracer wraps it too
        monkeypatch.setattr(solver_mod, "lstsq_info", counted)
        monkeypatch.setattr(top, "lstsq_info", counted)
        update_c_proj(st, 2, J, F, pts, lam=1e-6)
        assert st.n_truncated == sum(counts) >= S + 1


class TestUpdateCConstr:
    def test_residual_at_truth(self):
        model, pts, J, F = problem(14, S=12)
        st = truth_state(model, pts)
        for layer in (1, 2):
            M0, i0 = constr_rows(st, layer, J, pts)
            c = np.concatenate([st.coeffs[layer - 1][j, i0:] for j in range(2)])
            assert fro_norm(vec3(J) - M0 @ c) <= 1e-10 * fro_norm(J)

    def test_pruned_column_counts(self):
        model, pts, J, F = problem(15, ranks=(3, 2), degrees=(4, 3), m=3, n=3, S=10)
        st = truth_state(model, pts)
        M1, i0_1 = constr_rows(st, 1, J, pts)
        M2, i0_2 = constr_rows(st, 2, J, pts)
        assert i0_1 == 1 and M1.shape[1] == 3 * 4        # r1 * d1, constants pruned
        assert i0_2 == 0 and M2.shape[1] == 2 * (3 + 1)  # r_L * (d_L + 1)

    def test_frozen_constants_untouched(self):
        model, pts, J, F = problem(16)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=6)
        st = init_state(cfg, (2, 2, 20))
        consts = st.coeffs[0][:, 0].copy()
        update_c_constr(st, 1, J, F, pts, lam=1.0)
        assert np.array_equal(st.coeffs[0][:, 0], consts)

    def test_l1_strategies_reach_same_objective(self):
        model, pts, J, F = problem(17, ranks=(2,), degrees=(3,))
        cfg = dict(ranks=(2,), degrees=(3,), lam=1.0, rng_seed=9, min_iters=10,
                   max_iters=200, patience=200)
        rep_p = fit(SolverConfig(strategy="proj", **cfg), J, F, pts)
        rep_c = fit(SolverConfig(strategy="constr", **cfg), J, F, pts)
        obj_p = rep_p.state.trace[-1][3]
        obj_c = rep_c.state.trace[-1][3]
        floor = objective(truth_state(model, pts), J, F, 1.0)[2]
        assert abs(obj_p - obj_c) <= 1e-6 * max(1.0, fro_norm(J) ** 2)
        assert min(obj_p, obj_c) >= floor - 1e-9

    # constr takes the constants out of the centred F rows and fits them to
    # the slice means, within 4e-12; solved with their columns in the
    # sqrt(lam) F rows alone, all columns scaled to unit norm, they were off
    # by 5.9e-7, 3.9e-5, 5.9e-5 and 5.5e-3.  proj fits them to the free R,
    # 3.4e-8 off at lam = 1e-14
    @pytest.mark.parametrize("update, atol", [(update_c_constr, 1e-9), (update_c_proj, 1e-7)])
    @pytest.mark.parametrize("lam", [1e-6, 1e-10, 1e-12, 1e-14])
    def test_last_layer_keeps_the_constants(self, update, atol, lam):
        from ptdecouple.harness import builtin_system
        from ptdecouple.solver import seeded_rng

        model = builtin_system("f1")
        pts = seeded_rng(0, 0).uniform(-1, 1, (30, 2))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        st = truth_state(model, pts)
        update(st, 2, J, F, pts, lam)
        assert st.n_truncated == 0
        assert np.allclose(st.coeffs[-1][:, 0], model.coeffs[-1][:, 0], rtol=0, atol=atol)

    @staticmethod
    def inexact(name, S):
        """A near-truth state of the model, and its J and F with noise added."""
        from ptdecouple.harness import builtin_system

        model = builtin_system(name) if name else make_system(
            29, m=2, n=1, ranks=(2, 2), degrees=(3, 2))
        rng = np.random.Generator(np.random.Philox(12))
        pts = rng.uniform(-1, 1, (S, model.n_inputs))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        J = J + 1e-2 * rng.normal(size=J.shape)
        F = F + 1e-2 * rng.normal(size=F.shape)
        return pts, J, F, truth_state(model, pts, perturb=0.1, seed=3)

    # whole below 200 slices, in panels at 250; f2 has n = 3 > r_L = 2,
    # where the F block is reduced by the QR of W_L
    @pytest.mark.parametrize("S", [40, 250])
    @pytest.mark.parametrize("name", ["f1", "f2"])
    def test_matches_the_dense_system(self, name, S):
        pts, J, F, st = self.inexact(name, S)
        for layer in (1, 2):
            a, b, i0 = dense_constr_system(st, layer, J, F, pts, 1.0)
            want, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            got = update_c_constr(st.copy(), layer, J, F, pts, 1.0)
            assert rank == a.shape[1] and got.n_truncated == 0
            c = got.coeffs[layer - 1][:, i0:].ravel()
            assert fro_norm(c - want) <= 1e-10 * fro_norm(want)

    # n = 1 with r_L = 2: the constants' two columns are one column of F
    # rows times W_L's two entries, so only their combination is fitted
    @pytest.mark.parametrize("S", [40, 250])
    def test_one_output_fits_the_values_of_the_dense_system(self, S):
        pts, J, F, st = self.inexact(None, S)
        a, b, i0 = dense_constr_system(st, 2, J, F, pts, 1.0)
        want, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        assert (len(F), i0, rank) == (1, 0, a.shape[1] - 1)
        got = update_c_constr(st.copy(), 2, J, F, pts, 1.0)
        # the minimum-norm constants of the 1 x 2 W_L, whose row is not cut
        assert got.n_truncated == 0
        fit = a @ got.coeffs[1].ravel()
        assert fro_norm(fit - a @ want) <= 1e-10 * fro_norm(a @ want)


class TestReducedConstrRows:
    """From ``_QR_MIN_STACK`` slices on the constr update solves on per-slice
    QR-reduced rows, as the proj update solves its G rows from their
    triangles; below, on the full (M_C)_0."""

    @staticmethod
    def problem(name, S):
        from ptdecouple.harness import builtin_system

        model = builtin_system(name)
        pts = np.random.Generator(np.random.Philox(4)).uniform(-1, 1, (S, model.n_inputs))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        return pts, J, F, truth_state(model, pts, perturb=1e-2, seed=5)

    @staticmethod
    def both_paths(monkeypatch, st, layer, J, F, pts, split=None):
        """(reduced, full) coefficient sets and the row count of each solve.

        ``reduced`` is the update's, ``full`` that of the dense system with
        the constants' columns (:func:`dense_constr_system`) solved whole;
        each state counts its solve's truncations.  With
        ``split`` given, checks that the reduced system was (True) or was
        not (False) split into panels.
        """
        rows, splits = [], []

        def spied(build, panels, *args, **kwargs):
            rows.append(sum(build(p).shape[-2] for p in panels))
            splits.append(len(panels) > 1)
            return lstsq_panels(build, panels, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "lstsq_panels", spied)
        reduced = update_c_constr(st.copy(), layer, J, F, pts, lam=1e-6)
        assert split is None or splits[0] == split
        a, b, i0 = dense_constr_system(st, layer, J, F, pts, 1e-6)
        c, trunc = lstsq_panels(lambda _: np.column_stack([a, b]), [None], a.shape[1])
        full = st.copy()
        full.coeffs[layer - 1][:, i0:] = c.reshape(len(full.coeffs[layer - 1]), -1)
        full.n_truncated += trunc
        rows.append(len(a))
        return reduced, full, rows

    @staticmethod
    def assert_same_solution(st, layer, J, pts, reduced, full):
        """The two coefficient sets agree to 1e-12, each coefficient weighted by
        the norm of the full system's column it multiplies.

        At lam = 1e-6 the last layer's constants enter only through the
        sqrt(lam)-scaled F rows, so that system's condition number is about
        1e9 and falls to about 60 once its columns are scaled; two solvers of
        the same full system differ there by 1e-11 to 1e-9 unweighted.
        """
        M0, i0 = constr_rows(st, layer, J, pts)
        X, Y = bases(st, layer, pts)
        sq = np.sum(M0 * M0, axis=0).reshape(len(X), -1)
        if Y is not None:
            sq += 1e-6 * np.sum(st.weights[-1] ** 2, axis=0)[:, None] * np.sum(Y * Y, axis=1)
        c, want = (x.coeffs[layer - 1][:, i0:] * np.sqrt(sq) for x in (reduced, full))
        assert fro_norm(c - want) <= 1e-12 * fro_norm(want)

    # f1 has n = r = 2, f2 n = 3 > r = 2, where the F block is reduced too
    @pytest.mark.parametrize("name, S", [("f1", 1000), ("f2", 300)])
    @pytest.mark.parametrize("layer", [1, 2])
    def test_reduced_rows_solve_as_the_full_system(self, monkeypatch, name, S, layer):
        pts, J, F, st = self.problem(name, S)
        n, m, _ = J.shape
        r = st.G[layer - 1].shape[1]
        # the full system's G-row matrices are at rank size: f2's W_0 and
        # W_L give 6 rows per slice, not 9; the rule reduces such tall
        # planes from _QR_MIN_STACK slices on
        p = (min(m, r) if layer == 1 else m) * (min(n, r) if layer == 2 else n)
        assert _coeff_problem(st, layer, J)[0].shape[1] == p == {"f1": 4, "f2": 6}[name]
        assert S >= _QR_MIN_STACK and p > r
        reduced, full, rows = self.both_paths(monkeypatch, st, layer, J, F, pts)
        f_rows = (0, 0) if layer == 1 else (S * min(n, r), S * n)
        assert rows == [S * r + f_rows[0], S * p + f_rows[1]]
        self.assert_same_solution(st, layer, J, pts, reduced, full)
        assert reduced.n_truncated == full.n_truncated == 0

    # one rule for both updates, on the slice count: every layer's planes
    # (2 x 6 x S on f2, at rank size) are reduced from _QR_MIN_STACK slices on
    @pytest.mark.parametrize("S", [_QR_MIN_STACK - 1, _QR_MIN_STACK])
    @pytest.mark.parametrize("update", [update_c_constr, update_c_proj])
    def test_the_rule_counts_the_slices(self, monkeypatch, update, S):
        pts, J, F, st = self.problem("f2", S)
        reduced, rows = [], []
        qr = solver_mod.reduce_planes
        monkeypatch.setattr(solver_mod, "reduce_planes",
                            lambda a, b: reduced.append(a.shape) or qr(a, b))
        solve = solver_mod.lstsq_panels
        monkeypatch.setattr(solver_mod, "lstsq_panels",
                            lambda build, p, *a, **k: rows.append(build(None).shape[-2])
                            or solve(build, p, *a, **k))
        update(st.copy(), 1, J, F, pts, 1e-6)
        assert reduced == ([(2, 6, S)] if S >= _QR_MIN_STACK else [])
        if update is update_c_constr:
            # the system's rows: R_s's 2 a slice, or the planes' 6
            assert rows == [S * (2 if S >= _QR_MIN_STACK else 6)]

    # the reduced system built in panels, whose stacked triangles truncate
    # as the whole system: at f2 S = 300 each of its two parts in one panel
    @pytest.mark.parametrize("name, S, split", [("f2", 300, True), ("f1", 1000, True),
                                                ("f2", 1000, True)])
    def test_zero_column_of_w_l_truncates_as_the_full_system(self, monkeypatch, name, S, split):
        # the neuron's coefficient columns vanish from every row: the
        # identity reflection keeps them exactly zero in the reduced rows
        pts, J, F, st = self.problem(name, S)
        st.weights[2][:, 0] = 0.0
        reduced, full, rows = self.both_paths(monkeypatch, st, 2, J, F, pts, split)
        assert rows[0] < rows[1]
        assert reduced.n_truncated == full.n_truncated == st.coeffs[1].shape[1]
        self.assert_same_solution(st, 2, J, pts, reduced, full)

    # both updates reduce the planes at S = 300 and at S = 1000
    @pytest.mark.parametrize("S", [300, 1000])
    @pytest.mark.parametrize("update", [update_c_constr, update_c_proj])
    def test_non_finite_plane_raises(self, S, update):
        # a non-finite G_1 row makes the layer-2 planes of its slice
        # non-finite: the reduction raises, as the full system's check does
        pts, J, F, st = self.problem("f2", S)
        st.G[0][S // 2, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            update(st, 2, J, F, pts, 1e-6)

    def test_reduction_never_writes_into_its_inputs(self):
        # with J in Fortran order the vec(J_s) rows that the reduction starts
        # from are a view of J itself
        pts, J, F, st = self.problem("f2", 1000)
        Jf = np.asfortranarray(J)
        for layer in (1, 2):
            inputs = (Jf, F, pts, *st.weights)
            kept = [x.copy() for x in inputs]
            got = update_c_constr(st.copy(), layer, Jf, F, pts, lam=1e-6)
            assert all(np.array_equal(x, k) for x, k in zip(inputs, kept))
            want = update_c_constr(st.copy(), layer, J, F, pts, lam=1e-6)
            assert np.array_equal(got.coeffs[layer - 1], want.coeffs[layer - 1])

    # the shapes of f1-protocol, deep-cli and f2 at S = 30
    @pytest.mark.parametrize("strategy", ["constr", "proj"])
    @pytest.mark.parametrize("ranks, degrees, m, n", [
        ((2, 2), (5, 2), 2, 2), ((3, 2, 2), (2, 3, 2), 3, 2), ((2, 2), (3, 3), 3, 3),
    ])
    def test_s30_fits_keep_the_full_system(self, monkeypatch, ranks, degrees, m, n, strategy):
        # no slice reduction, and every system built and solved whole
        import ptdecouple.solver as solver_mod

        model, pts, J, F = problem(18, m=m, n=n, ranks=ranks, degrees=degrees, S=30)
        calls, panels = [], []
        monkeypatch.setattr(solver_mod, "reduce_planes", lambda *a: calls.append(a))
        split = solver_mod.slice_panels
        monkeypatch.setattr(solver_mod, "slice_panels",
                            lambda *a: panels.append(split(*a)) or panels[-1])
        solve = solver_mod.lstsq_panels
        monkeypatch.setattr(solver_mod, "lstsq_panels",
                            lambda rows, p, *a, **k: panels.append(p) or solve(rows, p, *a, **k))
        fit(SolverConfig(ranks=ranks, degrees=degrees, strategy=strategy, rng_seed=2,
                         max_iters=12), J, F, pts)
        assert not calls
        assert panels and all(len(p) == 1 for p in panels)
        assert [None] in panels


class TestCoeffProblem:
    """Both coefficient updates start from one build of the layer's structure."""

    # L = 2 and L = 3, at S = 30 and at an S where every constr update
    # solves on QR-reduced rows
    @pytest.mark.parametrize("strategy", ["proj", "constr"])
    @pytest.mark.parametrize("ranks, degrees, m, n, S", [
        ((2, 2), (3, 2), 2, 2, 30), ((2, 2), (3, 2), 2, 2, 1000),
        ((3, 2, 2), (2, 3, 2), 3, 2, 30), ((3, 2, 2), (2, 3, 2), 3, 2, 700),
    ])
    def test_each_update_builds_x_once_and_y_at_the_last_layer(
        self, monkeypatch, strategy, ranks, degrees, m, n, S
    ):
        import ptdecouple.solver as solver_mod

        model, pts, J, F = problem(19, m=m, n=n, ranks=ranks, degrees=degrees, S=S)
        st = truth_state(model, pts, perturb=1e-2, seed=3)
        calls, reduced = [], []
        for name in ("build_X", "build_Y"):
            build = getattr(solver_mod, name)
            monkeypatch.setattr(solver_mod, name,
                                lambda u, d, b=build, k=name: calls.append(k) or b(u, d))
        qr = solver_mod.reduce_planes
        monkeypatch.setattr(solver_mod, "reduce_planes", lambda *a: reduced.append(1) or qr(*a))
        update = update_c_proj if strategy == "proj" else update_c_constr
        L = len(ranks)
        for layer in range(1, L + 1):
            calls.clear()
            update(st, layer, J, F, pts, lam=1e-6)
            assert sorted(calls) == (["build_X", "build_Y"] if layer == L else ["build_X"])
        # both strategies reduce every layer's planes at the larger S
        assert len(reduced) == (L if S > 30 else 0)

    def test_rows_match_the_slice_matrices_of_build_mg(self, monkeypatch):
        model, pts, J, F = problem(20, ranks=(3, 2, 2), degrees=(2, 3, 2), m=3, n=2, S=7)
        st = truth_state(model, pts, perturb=0.1, seed=4)
        seen = []
        solve = solver_mod.lstsq_panels
        monkeypatch.setattr(solver_mod, "lstsq_panels",
                            lambda rows, p, *a, **k: seen.append(rows(None)) or solve(rows, p, *a, **k))
        for layer in (1, 2, 3):
            C, i0 = _coeff_problem(st, layer, J)
            _, Y = bases(st, layer, pts)
            K, jb = planes_stack(C)
            for s in range(7):
                assert np.array_equal(K[s], build_MG(st, layer, s))
                assert np.array_equal(jb[s], vec(J[:, :, s]))
            # the constr update's rows, written from the planes of its slices'
            # systems, carry the bytes of the centred system built from them
            update_c_constr(st.copy(), layer, J, F, pts, 1e-6)
            a, b = full_constr_system(st, layer, J, F, pts, 1e-6)
            assert seen[-1].tobytes() == np.column_stack([a, b]).tobytes()
            assert (Y is None, i0) == ((False, 0) if layer == 3 else (True, 1))


def test_seeded_rng_keeps_the_plain_philox_streams():
    from ptdecouple.solver import seeded_rng

    for seed in (0, 3, 2**63 + 5, 12_300_000_000_000_000_000):
        want = np.random.Generator(np.random.Philox(seed)).uniform(size=5)
        assert np.array_equal(seeded_rng(seed).uniform(size=5), want)
    seq = np.random.SeedSequence(3, spawn_key=(4, 1))
    want = np.random.Generator(np.random.Philox(seq)).uniform(size=5)
    assert np.array_equal(seeded_rng(3, 4, 1).uniform(size=5), want)


class TestFit:
    def test_exact_recovery_from_perturbed_truth(self):
        model = make_system(11)
        pts = np.random.Generator(np.random.Philox(5)).uniform(-1, 1, (30, 2))
        J = build_jacobian_tensor(model, pts)
        F = build_f_matrix(model, pts)
        st0 = truth_state(model, pts, perturb=1e-3, seed=17)
        for strategy in ("proj", "constr"):
            cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1.0, min_iters=10,
                               max_iters=100, patience=100, strategy=strategy)
            rep = fit(cfg, J, F, pts, initial_state=st0.copy())
            assert rep.error_j < 1e-8
            assert rep.error_f < 1e-8

    def test_three_layer_recovery_from_perturbed_truth(self):
        model = make_system(31, m=3, n=3, ranks=(2, 2, 2), degrees=(2, 3, 2))
        pts = np.random.Generator(np.random.Philox(41)).uniform(-1, 1, (25, 3))
        J = build_jacobian_tensor(model, pts)
        F = build_f_matrix(model, pts)
        st0 = truth_state(model, pts, perturb=1e-4, seed=6)
        for strategy in ("proj", "constr"):
            cfg = SolverConfig(ranks=(2, 2, 2), degrees=(2, 3, 2), lam=1.0,
                               min_iters=10, max_iters=80, patience=80,
                               strategy=strategy)
            rep = fit(cfg, J, F, pts, initial_state=st0.copy())
            assert rep.error_j < 1e-6, strategy

    def test_trace_matches_recomputed_objective(self):
        model, pts, J, F = problem(19)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=0.3, rng_seed=11,
                           min_iters=5, max_iters=12, patience=50)
        rep = fit(cfg, J, F, pts)
        for it, j_term, f_term, total in rep.state.trace:
            assert total == pytest.approx(j_term + 0.3 * f_term, rel=1e-12)
        # last trace row equals a from-scratch recomputation on the final state
        last = rep.state.trace[-1]
        model_state = truth_state(model, pts)  # shape template
        # the report keeps the best state; recompute with it
        j_term, f_term, total = objective(rep.state, J, F, 0.3)
        assert min(r[3] for r in rep.state.trace) == pytest.approx(total, rel=1e-10)

    def test_bitwise_reproducibility(self):
        model, pts, J, F = problem(20)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e-2, rng_seed=13,
                           min_iters=5, max_iters=25, patience=50)
        a = fit(cfg, J, F, pts)
        b = fit(cfg, J, F, pts)
        assert a.state.trace == b.state.trace

    def test_best_state_returned(self):
        model, pts, J, F = problem(21)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e-2, rng_seed=15,
                           min_iters=5, max_iters=60, patience=100)
        rep = fit(cfg, J, F, pts)
        best_total = min(r[3] for r in rep.state.trace)
        j_term, f_term, total = objective(rep.state, J, F, 1e-2)
        assert total == pytest.approx(best_total, rel=1e-10)

    def wandering_f1(self, seed):
        # a bare proj fit of f1 does not descend: its objective wanders, and
        # the best of 60 sweeps lies many sweeps before the last
        from ptdecouple.harness import builtin_system

        target = builtin_system("f1")
        pts = np.random.Generator(np.random.Philox(7)).uniform(-1, 1, (30, 2))
        cfg = SolverConfig(ranks=(2, 2), degrees=(5, 2), strategy="proj",
                           min_iters=60, max_iters=60, rng_seed=seed)
        J, F = build_jacobian_tensor(target, pts), build_f_matrix(target, pts)
        return cfg, J, F, pts, None

    def perturbed(self, strategy):
        # from perturbed exact factors constr descends in every sweep, and
        # proj rises after the first
        model = make_system(11)
        pts = np.random.Generator(np.random.Philox(5)).uniform(-1, 1, (30, 2))
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1.0, min_iters=4,
                           max_iters=4, strategy=strategy)
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        return cfg, J, F, pts, truth_state(model, pts, perturb=1e-3, seed=17)

    def deep(self, strategy, sweeps):
        # bare fits of the deep-cli shape, whose middle W solves leave W_1
        # and W_2 in Fortran order, which the rebuild of G and R must read:
        # constr is best at sweep 3 of 4, proj at sweep 1 of 3
        model = make_system(5, m=3, n=2, ranks=(3, 2, 2), degrees=(2, 3, 2))
        pts = np.random.Generator(np.random.Philox(7)).uniform(-1, 1, (30, 3))
        cfg = SolverConfig(ranks=(3, 2, 2), degrees=(2, 3, 2), strategy=strategy,
                           min_iters=sweeps, max_iters=sweeps, rng_seed=2)
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        return cfg, J, F, pts, None

    @pytest.mark.parametrize("case, last", [
        (("wandering_f1", 0), False), (("wandering_f1", 1), False),
        (("perturbed", "constr"), True), (("perturbed", "proj"), False),
        (("deep", "constr", 4), False), (("deep", "proj", 3), False),
    ], ids=["f1-proj-0", "f1-proj-1", "perturbed-constr", "perturbed-proj", "deep-constr",
            "deep-proj"])
    def test_returns_the_best_sweeps_state_byte_for_byte(self, monkeypatch, case, last):
        # the state at each sweep's end, recorded where the objective closes
        # the sweep, after the start's, sweep 0, with the G and R its
        # parameters give; the fit keeps the best one as parameters and
        # rebuilds its G and R at the end unless it is the last
        cfg, J, F, pts, st0 = getattr(self, case[0])(*case[1:])
        ends = []

        def recorded(state, *args):
            terms = objective(state, *args)
            ends.append((state.copy(), terms))
            return terms

        monkeypatch.setattr(solver_mod, "objective", recorded)
        rep = fit(cfg, J, F, pts, initial_state=st0)
        totals = [terms[2] for _, terms in ends]
        best = totals.index(min(totals))
        assert (best == len(ends) - 1) == last
        want = ends[best][0]
        assert state_bytes(rep.state) == state_bytes(want)
        arrays = [*rep.state.weights, *rep.state.G, rep.state.R, *rep.state.coeffs]
        assert all(a.flags.c_contiguous for a in arrays)
        assert rep.state.n_truncated == want.n_truncated
        assert rep.n_truncated == ends[-1][0].n_truncated
        assert rep.state.trace == [(it, *terms) for it, (_, terms) in enumerate(ends)][1:]
        assert rep.iterations == len(ends) - 1 == cfg.max_iters
        assert (rep.error_j, rep.error_f) == (ends[best][1][0] / fro_norm(J) ** 2,
                                              ends[best][1][1] / fro_norm(F) ** 2)

    @pytest.mark.parametrize("ranks, degrees, dims, match", [
        ((3, 2), (3, 2), (2, 2, 30), r"W_0 is \(3, 2\) where ranks \(2, 2\), .* give \(2, 2\)"),
        ((2, 2), (5, 2), (2, 2, 20), r"G_1 is \(20, 2\) where .* = \(2, 2, 30\) give \(30, 2\)"),
        ((2, 2), (3, 2), (2, 2, 30), r"c_1 is \(2, 4\) where .* degrees \(5, 2\) .* \(2, 6\)"),
        ((2, 2), (5, 2), (3, 2, 30), r"W_2 is \(3, 2\) where .* = \(2, 2, 30\) give \(2, 2\)"),
        ((2, 2, 2), (5, 2, 2), (2, 2, 30), "3 layers where ranks"),
    ])
    def test_a_start_that_does_not_match_is_refused(self, monkeypatch, ranks, degrees, dims,
                                                    match):
        # a state of other ranks once fitted silently under the config, and
        # one of other S failed inside a solve; now no sweep runs
        from ptdecouple.harness import builtin_system

        model = builtin_system("f1")
        pts = np.random.Generator(np.random.Philox(3)).uniform(-1, 1, (30, 2))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        st = init_state(SolverConfig(ranks=ranks, degrees=degrees), dims)
        monkeypatch.setattr(solver_mod, "rebalance", None)  # a sweep would call it
        with pytest.raises(ValueError, match=match):
            fit(SolverConfig(ranks=(2, 2), degrees=(5, 2)), J, F, pts, initial_state=st)

    def test_patience_stop(self):
        model, pts, J, F = problem(22, S=30)
        st0 = truth_state(model, pts, perturb=1e-9, seed=4)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1.0, min_iters=3,
                           max_iters=500, patience=5)
        rep = fit(cfg, J, F, pts, initial_state=st0)
        assert rep.stop_reason == "patience"
        assert rep.iterations < 500

    def test_max_iters_stop(self):
        model, pts, J, F = problem(23)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e-2, rng_seed=17,
                           min_iters=2, max_iters=4, patience=50)
        rep = fit(cfg, J, F, pts)
        assert rep.stop_reason == "max_iters"
        assert rep.iterations == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_trace(self):
        model, pts, J, F = problem(24)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e6, rng_seed=0,
                           min_iters=2, max_iters=400, patience=400)
        st = init_state(cfg, J.shape)
        for a in st.weights + st.G + st.coeffs + [st.R]:
            a *= 1e150
        with pytest.raises(SolverDivergenceError) as err:
            fit(cfg, J, F, pts, initial_state=st)
        assert isinstance(err.value.trace, list)

    def test_value_error_with_finite_factors_propagates(self, monkeypatch):
        # only a non-finite subproblem or a LinAlgError is a divergence; any
        # other ValueError from inside a sweep is a bug and is re-raised
        import ptdecouple.solver as solver_mod

        model, pts, J, F = problem(24)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), rng_seed=0, min_iters=5, max_iters=5)
        seen = []

        def broken(state, *args):
            seen.append(state)
            raise ValueError("shape bug")

        monkeypatch.setattr(solver_mod, "update_W", broken)
        with pytest.raises(ValueError, match="shape bug"):
            fit(cfg, J, F, pts)
        st = seen[0]
        assert all(np.all(np.isfinite(a)) for a in [*st.weights, *st.G, st.R, *st.coeffs])

    def test_the_data_value_holds_the_callers_arrays(self):
        # validated once and neither copied nor changed; the sums keep the
        # bits of the figures they replace
        model, pts, J, F = problem(25)
        J.flags.writeable = False
        data = FitData(J, F, pts)
        assert data.j_tensor is J and data.f_matrix is F and data.points is pts
        assert not J.flags.writeable and F.flags.writeable and pts.flags.writeable
        assert data.shape == J.shape and np.shares_memory(data.j_slices, J)
        assert np.array_equal(data.j_slices, np.transpose(J, (2, 0, 1)))
        assert np.sqrt(data.jj) ** 2 == fro_norm(J) ** 2
        assert np.sqrt(data.ff) ** 2 == fro_norm(F) ** 2
        assert data.jj + 0.3 * data.ff == float(np.sum(J * J) + 0.3 * np.sum(F * F))

    def test_input_validation(self):
        model, pts, J, F = problem(25)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2))
        with pytest.raises(ValueError):
            fit(cfg, J, F[:, :-1], pts)
        with pytest.raises(ValueError):
            fit(cfg, J, F, pts[:-1])
        holed = pts.copy()
        holed[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit(cfg, J, F, holed)

    @pytest.mark.parametrize("strategy", ["constr", "proj"])
    def test_lambda_zero_ignores_f(self, strategy):
        model, pts, J, F = problem(26)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=0.0, rng_seed=19,
                           min_iters=5, max_iters=30, patience=50, strategy=strategy)
        rep = fit(cfg, J, F, pts)
        for it, j_term, f_term, total in rep.state.trace:
            assert total == j_term
        rep2 = fit(cfg, J, 100.0 * F, pts)
        trace_j = [r[1] for r in rep.state.trace]
        trace_j2 = [r[1] for r in rep2.state.trace]
        assert trace_j == trace_j2  # the tensor path never sees F


def test_rebalance_preserves_objective_and_model():
    model, pts, J, F = problem(27)
    cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=0.7, rng_seed=21)
    st = init_state(cfg, (2, 2, 20))
    before = objective(st, J, F, 0.7)
    from ptdecouple.model import eval_batch

    eval_before = eval_batch(state_to_model(st), pts)
    rebalance(st, pts)
    after = objective(st, J, F, 0.7)
    assert after[2] == pytest.approx(before[2], rel=1e-10)
    eval_after = eval_batch(state_to_model(st), pts)
    assert np.allclose(eval_before, eval_after, rtol=1e-9)
    # inputs now have unit scale per neuron
    from ptdecouple.model import internal_inputs_batch

    us = internal_inputs_batch(st.weights, st.coeffs, pts)
    for U in us:
        assert np.allclose(np.sqrt(np.mean(U ** 2, axis=0)), 1.0, rtol=1e-9)


def test_slice_scaling_excluded_by_constraints():
    # scaling G_1 rows per slice (compensated in G_2) leaves the tensor
    # unchanged but breaks the coefficient structure
    from ptdecouple.basis import build_X
    from ptdecouple.model import internal_inputs_batch
    from ptdecouple.tensor_ops import lstsq_info

    model, pts, J, F = problem(28, S=15)
    cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1.0, min_iters=10,
                       max_iters=60, patience=60, strategy="constr")
    rep = fit(cfg, J, F, pts, initial_state=truth_state(model, pts, perturb=1e-4, seed=5))
    st = rep.state

    def constraint_residual(G_list):
        us = internal_inputs_batch(st.weights, st.coeffs, pts)
        total = 0.0
        for l, G in enumerate(G_list):
            xb = build_X(us[l], st.coeffs[l].shape[1] - 1)
            for j in range(G.shape[1]):
                c = lstsq_info(xb[j], G[:, j])[0]
                total += float(np.sum((G[:, j] - xb[j] @ c) ** 2))
        return total

    base = constraint_residual(st.G)
    gamma = np.random.default_rng(6).uniform(0.5, 2.0, 15)
    scaled = [st.G[0] * gamma[:, None], st.G[1] / gamma[:, None]]
    rec0 = pt_reconstruct(PTFactors(weights=tuple(st.weights), G=tuple(st.G)))
    rec1 = pt_reconstruct(PTFactors(weights=tuple(st.weights), G=tuple(scaled)))
    assert np.allclose(rec0, rec1, rtol=1e-10, atol=1e-10 * np.abs(rec0).max())
    assert constraint_residual(scaled) > max(base * 10.0, 1e-6)


def test_fit_report_json():
    model, pts, J, F = problem(29)
    cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e-2, rng_seed=23,
                       min_iters=3, max_iters=6, patience=50)
    rep = fit(cfg, J, F, pts)
    doc = json.loads(rep.to_json())
    assert doc["config"]["ranks"] == [2, 2]
    assert doc["stop_reason"] == "max_iters"
    assert len(doc["trace"]) == 6
    assert len(doc["frozen_constants"]) == 1
    assert doc["truncated_singular_values"] >= 0
    assert set(doc) >= {"config", "trace", "error_j", "error_f", "iterations"}


def _random_model_state(rng, ranks, degrees, m, n, S):
    from ptdecouple.solver import _structured_state

    dims = [m, *ranks, n]
    weights = [rng.standard_normal((dims[k + 1], dims[k])) for k in range(len(ranks) + 1)]
    coeffs = [rng.standard_normal((r, d + 1)) for r, d in zip(ranks, degrees)]
    pts = rng.uniform(-1, 1, (S, m))
    return _structured_state(weights, coeffs, pts), pts


class TestLevenbergMarquardt:
    CASES = [((2,), (3,), 3, 2), ((2, 2), (5, 2), 2, 2), ((3, 2, 2), (2, 3, 2), 3, 2)]

    @staticmethod
    def _residual(state, J, F, pts, lam):
        from ptdecouple.descent import _LMProblem, lm_pack

        prob = _LMProblem(state.weights, state.coeffs, FitData(J, F, pts), lam)
        return prob, lm_pack(state.weights, state.coeffs)

    @pytest.mark.parametrize("ranks,degrees,m,n", CASES)
    def test_jacobian_matches_central_differences(self, ranks, degrees, m, n):
        rng = np.random.default_rng(len(ranks))
        st, pts = _random_model_state(rng, ranks, degrees, m, n, S=7)
        J = rng.standard_normal((n, m, 7))
        F = rng.standard_normal((n, 7))
        prob, theta = self._residual(st, J, F, pts, 0.3)
        M = prob.jacobian(theta)  # derivative of the fitted values, -dr/dθ
        h = 1e-6
        worst = 0.0
        for p in range(theta.size):
            e = np.zeros(theta.size)
            e[p] = h
            fd = (prob.residual(theta - e) - prob.residual(theta + e)) / (2 * h)
            worst = max(worst, np.abs(fd - M[:, p]).max() / max(1.0, np.abs(M).max()))
        assert worst < 1e-7

    @pytest.mark.parametrize("ranks,degrees,m,n", CASES)
    def test_residual_norm_is_the_objective(self, ranks, degrees, m, n):
        rng = np.random.default_rng(10 + len(ranks))
        st, pts = _random_model_state(rng, ranks, degrees, m, n, S=9)
        J = rng.standard_normal((n, m, 9))
        F = rng.standard_normal((n, 9))
        prob, theta = self._residual(st, J, F, pts, 0.7)
        r = prob.residual(theta)
        assert r @ r == pytest.approx(objective(st, J, F, 0.7)[2], rel=1e-12)

    @pytest.mark.parametrize("ranks,degrees,m,n", CASES)
    def test_tangent_adjoint_and_normal_matrix_agree_with_jacobian(self, ranks, degrees, m, n):
        # the descent never forms the Jacobian: its products come from an
        # adjoint pass and the chunked normal matrix, and the geodesic
        # acceleration term M.T f_vv takes the place of a tangent pass
        from ptdecouple.descent import _LM_GEO_H

        rng = np.random.default_rng(20 + len(ranks))
        st, pts = _random_model_state(rng, ranks, degrees, m, n, S=40)
        J = rng.standard_normal((n, m, 40))
        F = rng.standard_normal((n, 40))
        prob, theta = self._residual(st, J, F, pts, 0.3)
        M = prob.jacobian(theta)
        r, kept = prob.residual(theta, keep=True)
        tape = prob.tape(kept)
        H, g = prob.linearize(tape, r)
        v = 1e-2 * rng.standard_normal(theta.size)
        y = rng.standard_normal(r.size)
        assert np.allclose(H, M.T @ M, rtol=1e-12, atol=1e-12 * np.abs(H).max())
        assert np.allclose(g, M.T @ r, rtol=1e-12, atol=1e-12 * np.abs(g).max())
        assert np.allclose(prob.apply_t(tape, y), M.T @ y, rtol=1e-12,
                           atol=1e-12 * np.abs(M.T @ y).max())
        # the same finite-difference f_vv through the dense Jacobian
        h = _LM_GEO_H
        dense = M.T @ ((2 / h) * ((r - prob.residual(theta + h * v)) / h - M @ v))
        term = prob.curvature(theta, v, tape, g, H @ v)
        assert np.allclose(term, dense, rtol=1e-8, atol=1e-8 * np.abs(dense).max())

    @pytest.mark.parametrize("ranks,degrees,m,n", CASES)
    def test_linearize_from_the_kept_trial_pass_is_bitwise_fresh(self, ranks, degrees, m, n):
        # an accepted point is linearized from the pass of its trial residual;
        # that equals a fresh evaluation at the same point bit for bit, and
        # each chunk's rows of M from the adjoint kernel equal those of a
        # pass over its points alone
        from ptdecouple.descent import _LMProblem, lm_pack
        from ptdecouple.solver import _structured_state

        rng = np.random.default_rng(30 + len(ranks))
        st, pts = _random_model_state(rng, ranks, degrees, m, n, S=40)
        J = rng.standard_normal((n, m, 40))
        F = rng.standard_normal((n, 40))
        prob, theta = self._residual(st, J, F, pts, 0.3)
        step = 1e-2 * rng.standard_normal(theta.size)
        r_trial, kept = prob.residual(theta + step, keep=True)
        H, g = prob.linearize(prob.tape(kept), r_trial)
        fresh, fresh_theta = self._residual(
            _structured_state(*prob.model(theta + step), pts), J, F, pts, 0.3)
        r, again = fresh.residual(fresh_theta, keep=True)
        H2, g2 = fresh.linearize(fresh.tape(again), r)
        assert np.array_equal(r, r_trial)
        assert np.array_equal(H, H2) and np.array_equal(g, g2)
        weights, coeffs = prob.model(theta + step)
        tape, seeds = prob.tape(kept), prob._unit_seeds()
        assert len(prob.chunks) == 3
        for sl in prob.chunks:
            alone = _LMProblem(weights, coeffs, FitData(J[:, :, sl], F[:, sl], pts[sl]), 0.3)
            (whole,) = alone.chunks
            rows = alone._rows(
                alone.tape(alone.residual(lm_pack(weights, coeffs), keep=True)[1]), whole, seeds)
            assert np.array_equal(prob._rows(tape, sl, seeds), rows)

    # one pass (S = 30) and two passes of the kernel, the second a part one
    @pytest.mark.parametrize("S", [30, 100])
    @pytest.mark.parametrize("ranks,degrees,m,n", CASES)
    def test_apply_t_sums_the_kernel_rows_of_each_chunk(self, ranks, degrees, m, n, S):
        # apply_t runs the kernel over passes of several chunks; each
        # point's row equals the row of the kernel run over its chunk alone,
        # and the rows are summed chunk by chunk, so M.T y has the bits of
        # one kernel run per chunk
        from ptdecouple.descent import _LM_PASS_ROWS

        rng = np.random.default_rng(40 + len(ranks))
        st, pts = _random_model_state(rng, ranks, degrees, m, n, S=S)
        J = rng.standard_normal((n, m, S))
        F = rng.standard_normal((n, S))
        prob, theta = self._residual(st, J, F, pts, 0.3)
        r, kept = prob.residual(theta, keep=True)
        tape = prob.tape(kept)
        y = rng.standard_normal(r.size)
        nj = J.size
        seeds = np.concatenate([np.sqrt(0.3) * y[nj:].reshape(S, n)[..., None],
                                y[:nj].reshape(S, n, m)], axis=2)[:, :, None]
        want = np.zeros(theta.size)
        for sl in prob.chunks:
            want += prob._rows(tape, sl, seeds[sl]).sum(axis=(0, 1))
        assert len(prob.passes) == -(-S // _LM_PASS_ROWS)
        assert prob.apply_t(tape, y).tobytes() == want.tobytes()

    def test_descent_recovers_truth_from_perturbed_start(self):
        from ptdecouple.descent import lm_descent
        from ptdecouple.solver import _structured_state

        model, pts, J, F = problem(32, S=30)
        res = lm_descent([w * 1.05 for w in model.weights], [c * 0.95 for c in model.coeffs],
                         FitData(J, F, pts), 1e-2)
        assert res.stop_reason == "converged"
        end = _structured_state(res.weights, res.coeffs, pts)
        assert res.objective == pytest.approx(objective(end, J, F, 1e-2)[2],
                                              rel=1e-6, abs=1e-20 * fro_norm(J) ** 2)
        assert res.objective <= 1e-20 * (fro_norm(J) ** 2 + 1e-2 * fro_norm(F) ** 2)

    def test_an_outcome_holds_no_array_that_grows_with_s(self):
        # a helper sends its outcome and a pick holds it: the parameters
        # alone, whose shapes the ranks and degrees set
        from dataclasses import fields

        from ptdecouple.descent import lm_descent

        shapes = []
        for S in (30, 90):
            model, pts, J, F = problem(32, S=S)
            res = lm_descent([w * 1.05 for w in model.weights], [c * 0.95 for c in model.coeffs],
                             FitData(J, F, pts), 1e-2)
            values = [getattr(res, f.name) for f in fields(res)]
            assert all(isinstance(v, (list, float, int, str)) for v in values)
            shapes.append([a.shape for v in values if isinstance(v, list) for a in v])
        assert shapes[0] == shapes[1] == [a.shape for a in (*model.weights, *model.coeffs)]

    def test_descent_does_not_linearize_its_stop_point(self, monkeypatch):
        from ptdecouple.descent import _LMProblem, lm_descent

        model, pts, J, F = problem(32, S=30)
        linearized, linearize = [], _LMProblem.linearize

        def counted(self, tape, r):
            linearized.append(float(r @ r))
            return linearize(self, tape, r)

        monkeypatch.setattr(_LMProblem, "linearize", counted)
        res = lm_descent([w * 1.05 for w in model.weights], [c * 0.95 for c in model.coeffs],
                         FitData(J, F, pts), 1e-2)
        assert res.stop_reason == "converged"
        # the start and each accepted point the descent went on from, once
        # each; the converged point is the last accepted one and is not among them
        assert len(linearized) == len(set(linearized)) >= 2
        assert min(linearized) > res.objective

    def test_search_picks_best_finite_and_is_seeded(self, monkeypatch):
        import ptdecouple.search as search_mod
        from ptdecouple.descent import LMResult
        from ptdecouple.search import start_search
        from ptdecouple.solver import _structured_state

        model, pts, J, F = problem(33)
        cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e-2, rng_seed=7)
        scripted = iter([np.nan, 5.0, np.inf, 2.0, 3.0])
        seen = []

        def fake_descent(weights, coeffs, *args, **kwargs):
            seen.append((weights, coeffs))
            return LMResult(weights, coeffs, objective=next(scripted), iterations=1,
                            stop_reason="stalled")

        monkeypatch.setattr(search_mod, "lm_descent", fake_descent)
        monkeypatch.setattr(search_mod, "_SEARCH_STARTS", 5)
        # in process: a forked helper would read its own copy of the script
        monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [])
        picked = start_search(cfg, J, F, pts)
        # the state of start 3's parameters, evaluated once, by the search
        assert state_bytes(picked) == state_bytes(_structured_state(*seen[3], pts))
        # same seed, same draws; the frozen constants of inner layers are 0
        scripted = iter([np.nan, 5.0, np.inf, 2.0, 3.0])
        again = start_search(cfg, J, F, pts)
        assert all(np.array_equal(a, b) for a, b in zip(picked.weights, again.weights))
        assert np.all(picked.coeffs[0][:, 0] == 0.0)
        scripted = iter([np.nan, np.inf])
        monkeypatch.setattr(search_mod, "_SEARCH_STARTS", 2)
        assert start_search(cfg, J, F, pts) is None

    def test_search_reaches_exact_fits(self):
        # a search is not certain to find the global minimum, but on noise-free
        # data from inside the model class it does so for most data sets, and
        # the alternating sweeps keep an exact start exact
        from ptdecouple.search import start_search

        exact = []
        for seed in range(30, 40):
            model, pts, J, F = problem(seed, S=30)
            cfg = SolverConfig(ranks=(2, 2), degrees=(3, 2), lam=1e-2, rng_seed=3,
                               min_iters=10, max_iters=100, patience=50)
            start = start_search(cfg, J, F, pts)
            if objective(start, J, F, 1e-2)[0] <= 1e-16 * fro_norm(J) ** 2:
                exact.append((cfg, J, F, pts, start))
        assert len(exact) >= 8
        cfg, J, F, pts, start = exact[0]
        rep = fit(cfg, J, F, pts, initial_state=start)
        assert rep.error_j <= 1e-16


# relative singular values of the LM Jacobian at a truth state: at or below
# _GAUGE_RTOL lie the 2 * sum(ranks) directions that rescale a neuron's input
# and output, above _IDENTIFIED_RTOL all others.  Measured at S = 60, seeds 0
# and 1: the gauge values reach 1.9e-16 (margin x10.5 to _GAUGE_RTOL), and
# the next value is 2.6e-11 / 1.2e-10 on f1, 8.1e-11 / 4.6e-10 on f2 and
# 2.5e-13 / 2.6e-13 on f3, the narrowest gap (margin x10 to _IDENTIFIED_RTOL)
_GAUGE_RTOL = 2e-15
_IDENTIFIED_RTOL = 2.5e-14


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_truth_is_identified_up_to_the_scaling_gauge(name, seed):
    # each neuron's input scale and output scale trade against each other
    # exactly (rebalance), two null directions per neuron; the rest of the
    # parameters are locally identifiable at the truth
    from ptdecouple.descent import _LMProblem, lm_pack
    from ptdecouple.harness import builtin_system
    from ptdecouple.solver import _structured_state, seeded_rng

    model = builtin_system(name)
    pts = seeded_rng(seed, 0).uniform(-1, 1, (60, model.n_inputs))
    J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
    st = _structured_state(model.weights, model.coeffs, pts)
    prob = _LMProblem(st.weights, st.coeffs, FitData(J, F, pts), 1e-6)
    sv = np.linalg.svd(prob.jacobian(lm_pack(st.weights, st.coeffs)), compute_uv=False)
    rel = sv / sv[0]
    gauge = 2 * sum(model.ranks)
    assert np.count_nonzero(rel <= _GAUGE_RTOL) == gauge
    assert rel[-gauge - 1] >= _IDENTIFIED_RTOL


def _search_case(case, seed=0):
    """An f1 search that stops at its third start, which converges, or an L = 3
    search whose 8 descents all stall; S = 30 as in the protocols.  At seed 2
    the f1 search stops at its second start."""
    from ptdecouple.harness import builtin_system
    from ptdecouple.solver import seeded_rng

    if case == "f1":
        model, ranks, degrees = builtin_system("f1"), (2, 2), (5, 2)
    else:
        ranks, degrees = (3, 2, 2), (2, 3, 2)
        model = make_system(0, m=3, n=2, ranks=ranks, degrees=degrees)
    pts = seeded_rng(seed, 0, 0).uniform(-1, 1, (30, model.n_inputs))
    cfg = SolverConfig(ranks=ranks, degrees=degrees, lam=1e-6, rng_seed=seed)
    return cfg, build_jacobian_tensor(model, pts), build_f_matrix(model, pts), pts


@pytest.mark.parametrize("case, seed, strategy, beaten", [
    ("f1", 2, "constr", True), ("f1", 2, "proj", False),
    ("L3", 0, "constr", False), ("L3", 0, "proj", False),
])
def test_a_fit_never_ends_above_its_search_start(monkeypatch, case, seed, strategy, beaten):
    # the start is sweep 0 of the best: a fit from a search's pick returns a
    # state whose objective is at most that of the pick's parameters with
    # the G and R they give, and where no sweep goes below it, that state
    from dataclasses import replace

    cfg, J, F, pts = _search_case(case, seed)
    cfg = replace(cfg, strategy=strategy, max_iters=60)
    monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [])
    start = start_search(cfg, J, F, pts)
    structured = _write_all_factors(start.copy(), pts)
    rep = fit(cfg, J, F, pts, initial_state=start)
    got, want = (objective(st, J, F, cfg.lam)[2] for st in (rep.state, structured))
    assert got <= want and (got < want) == beaten
    assert (state_bytes(rep.state) == state_bytes(structured)) == (not beaten)
    if not beaten:  # every sweep, the first included, counts towards patience
        assert (rep.iterations, rep.stop_reason) == (cfg.patience, "patience")


@pytest.mark.parametrize("case", ["f1", "L3"])
def test_a_search_start_is_its_own_sweep_zero(monkeypatch, case):
    # the pick's G and R are written by the writer of the fit's sweep 0, so
    # the sweeps start from the bits of the state that sweep 0 scores
    cfg, J, F, pts = _search_case(case)
    monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [])
    start = start_search(cfg, J, F, pts)
    assert state_bytes(_write_all_factors(start.copy(), pts)) == state_bytes(start)


@pytest.mark.parametrize("S", [30, 700])
@pytest.mark.parametrize("ranks,degrees", [((2, 2), (5, 2)), ((3, 2, 2), (2, 3, 2))])
def test_one_pass_factors_are_those_of_each_layer_alone(ranks, degrees, S):
    # every layer's inputs from one pass give the bits of the layer's own
    # prefix pass, which the coefficient updates write from
    rng = np.random.default_rng(S + len(ranks))
    dims = [3, *ranks, 2]
    st = SolverState(
        weights=[rng.standard_normal((dims[k + 1], dims[k])) for k in range(len(ranks) + 1)],
        G=[np.zeros((S, r)) for r in ranks], R=np.zeros((S, ranks[-1])),
        coeffs=[rng.standard_normal((r, d + 1)) for r, d in zip(ranks, degrees)])
    pts = rng.uniform(-1, 1, (S, 3))
    want = st.copy()
    for layer in range(1, len(ranks) + 1):
        _write_factors(want, layer, _coeff_bases(want, layer, pts))
    assert state_bytes(_write_all_factors(st, pts)) == state_bytes(want)


def _search_in_worker(case):
    from ptdecouple.search import start_search

    forks = []
    os.register_at_fork(before=lambda: forks.append(1))
    return len(forks), start_search(*case)


@pytest.mark.parametrize("case", ["f1", "L3"])
def test_descent_converges_exactly_below_the_search_scale(case):
    # the pick ranks every converged start below every other descent; that
    # holds because "converged" means an objective at or below one scale,
    # common to all starts of a search, and every other stop ends above it
    from ptdecouple.descent import _LM_TOL, LMResult
    from ptdecouple.search import _start_outcome

    cfg, J, F, pts = _search_case(case)
    bound = _LM_TOL * float(np.sum(J * J) + cfg.lam * np.sum(F * F))
    outcomes = [_start_outcome(cfg, FitData(J, F, pts), k) for k in range(8)]
    assert all(isinstance(out, LMResult) for out in outcomes)
    assert [out.stop_reason == "converged" for out in outcomes] == [
        out.objective <= bound for out in outcomes]
    assert any(out.stop_reason == "converged" for out in outcomes) == (case == "f1")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="searches run in process")
class TestParallelSearch:
    """A start search runs its descents in the caller and in forked helpers,
    and returns what one descent after another in the caller returns."""

    @staticmethod
    def hold_for_helpers(monkeypatch):
        """From here on, each descent of the caller waits until a helper has
        begun one, so that every search hands starts to a helper.

        Returns the ends of a pipe that gets each start a helper descends from.
        """
        read, write = os.pipe()
        caller, real = os.getpid(), search_mod._start_outcome

        def outcome(*args):
            if os.getpid() != caller:
                os.write(write, bytes([args[2]]))  # (cfg, data, k, poll)
            elif not select.select([read], [], [], 60)[0]:
                raise AssertionError("no helper began a descent")
            return real(*args)

        monkeypatch.setattr(search_mod, "_start_outcome", outcome)
        return read, write

    @pytest.mark.parametrize("helpers", [1, 3])
    @pytest.mark.parametrize("case", ["f1", "L3"])
    def test_parallel_search_returns_the_in_process_bytes(self, monkeypatch, case, helpers):
        cfg, J, F, pts = _search_case(case)
        real, stops = search_mod._start_outcome, []

        def spied(*args):
            out = real(*args)
            stops.append(out.stop_reason)
            return out

        with monkeypatch.context() as m:
            m.setattr(search_mod, "_helper_cpus", lambda: [])
            m.setattr(search_mod, "_start_outcome", spied)
            expected = start_search(cfg, J, F, pts)
        if case == "f1":
            assert stops == ["stalled", "stalled", "converged"]
        else:
            assert stops == ["stalled"] * 8
        # every helper on one core: with three, more processes than cores
        cpu = max(os.sched_getaffinity(0))
        monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [cpu] * helpers)
        read, write = self.hold_for_helpers(monkeypatch)
        try:
            got = start_search(cfg, J, F, pts)
            ran = set(os.read(read, 64))
        finally:
            os.close(read)
            os.close(write)
        assert ran and 0 not in ran  # the caller takes start 0
        assert state_bytes(got) == state_bytes(expected)

    def test_a_descent_that_cannot_be_picked_is_dropped(self, monkeypatch):
        # the f1 search of seed 2 stops at start 1, which converges in the
        # helper while the caller descends start 2; alone, start 2 runs 60
        # LM iterations, but the caller drops it once start 1's stop is on
        # the board, and the pick is that of the search in process
        cfg, J, F, pts = _search_case("f1", seed=2)
        with monkeypatch.context() as m:
            m.setattr(search_mod, "_helper_cpus", lambda: [])
            expected = start_search(cfg, J, F, pts)
        alone = search_mod._start_outcome(cfg, FitData(J, F, pts), 2)
        assert alone.stop_reason == "stalled" and alone.iterations == 60
        caller, real = os.getpid(), search_mod._start_outcome
        began, go = os.pipe(), os.pipe()
        polls, dropped = [], []

        def outcome(cfg, data, k, poll):
            if os.getpid() != caller:
                os.write(began[1], bytes([k]))
                out = real(cfg, data, k, poll)
                if k == 1:  # its stop goes on the board once the caller descends start 2
                    wait_readable(go[0], "the caller did not begin start 2")
                return out
            if k == 0:
                wait_readable(began[0], "no helper began a descent")
            elif k == 2:
                os.write(go[1], b"2")

                def counted():  # called after each LM iteration
                    polls.append(1)
                    if len(polls) == 1:  # the helper's stop reaches the board meanwhile
                        deadline = time.monotonic() + 60
                        while not poll() and time.monotonic() < deadline:
                            time.sleep(1e-3)
                    return poll()

                out = real(cfg, data, k, counted)
                dropped.append(out is None)
                return out
            return real(cfg, data, k, poll)

        cpu = max(os.sched_getaffinity(0))
        monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [cpu])
        monkeypatch.setattr(search_mod, "_start_outcome", outcome)
        try:
            got = start_search(cfg, J, F, pts)
            ran = set(os.read(began[0], 64))
        finally:
            for fd in (*began, *go):
                os.close(fd)
        assert ran == {1}
        assert dropped == [True] and 0 < len(polls) < alone.iterations
        assert state_bytes(got) == state_bytes(expected)

    def test_outcomes_are_picked_in_start_order(self):
        # whatever order the outcomes arrive in, the pick is that of one
        # descent after another: the first strictly lowest finite objective,
        # up to the first converged descent, or the first exception
        from ptdecouple.descent import LMResult
        from ptdecouple.search import _Pick

        def result(objective, stop_reason="stalled"):
            return LMResult([], [], objective=objective, iterations=1,
                            stop_reason=stop_reason)

        def in_order(script):
            # the reference: one descent after another
            best = None
            for out in script:
                if isinstance(out, Exception):
                    return out
                if out is None or not np.isfinite(out.objective):
                    continue
                if best is None or out.objective < best.objective:
                    best = out
                if out.stop_reason == "converged":
                    return best
            return best

        scripts = [
            ([result(3.0), None, result(2.0), result(np.inf), result(2.0),
              result(1e-30, "converged"), result(1e-32, "converged"), TypeError("late")], 5),
            ([result(4.0), result(np.nan), result(1.0), result(3.0), result(0.5),
              result(0.5), None, result(0.7)], 4),
            ([None, result(2.0), TypeError("early"), result(1e-30, "converged"),
              result(1.0), None, None, result(0.1)], 2),
            ([None, result(np.nan)] * 4, None),
        ]
        rng = np.random.Generator(np.random.Philox(0))
        scripts = [(script, None if k is None else script[k]) for script, k in scripts]
        # random scripts: ties among the stalled objectives, and converged
        # objectives below every stalled one, as lm_descent guarantees
        draw = np.random.Generator(np.random.Philox(1))
        kinds = [lambda: None, lambda: result(np.nan), lambda: result(np.inf),
                 lambda: result(float(draw.integers(1, 4))),
                 lambda: result(10.0 ** -draw.integers(30, 33), "converged"),
                 lambda: TypeError("scripted")]
        for _ in range(60):
            picks = draw.choice(len(kinds), size=8, p=[0.15, 0.1, 0.1, 0.45, 0.1, 0.1])
            script = [kinds[i]() for i in picks]
            scripts.append((script, in_order(script)))
        for script, expected in scripts:
            assert in_order(script) is expected
            for order in [range(8)] + [rng.permutation(8) for _ in range(100)]:
                pick = _Pick()
                for k in order:
                    pick.add(k, script[k])
                # an exception is picked like an outcome; the search raises it
                assert pick.done and pick.best is expected

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        from ptdecouple.descent import LMResult

        cfg, J, F, pts = _search_case("f1")
        read, write = os.pipe()
        caller = os.getpid()

        def descent(weights, coeffs, *args):
            if os.getpid() != caller:
                os.write(write, b"!")
                raise TypeError("scripted helper error")
            if not select.select([read], [], [], 60)[0]:
                raise AssertionError("no helper began a descent")
            return LMResult(weights, coeffs, objective=1.0, iterations=1, stop_reason="stalled")

        monkeypatch.setattr(search_mod, "lm_descent", descent)
        cpu = max(os.sched_getaffinity(0))
        monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [cpu])
        try:
            with pytest.raises(TypeError, match="scripted helper error") as info:
                start_search(cfg, J, F, pts)
        finally:
            os.close(read)
            os.close(write)
        assert "in a start-search helper" in str(info.value.__cause__)

    def test_no_helpers_beside_another_thread(self):
        # a fork copies the locks that other threads hold
        import threading

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert search_mod._helper_cpus() == []
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_search_in_a_pool_worker_forks_nothing(self, monkeypatch):
        # a harness run with jobs > 1 already has its cores; its results do
        # not depend on jobs
        from concurrent.futures import ProcessPoolExecutor

        case = _search_case("f1")
        with monkeypatch.context() as m:
            m.setattr(search_mod, "_helper_cpus", lambda: [])
            expected = start_search(*case)
        with ProcessPoolExecutor(max_workers=1) as pool:
            forks, got = pool.submit(_search_in_worker, case).result(timeout=120)
        assert forks == 0
        assert state_bytes(got) == state_bytes(expected)


class TestInPlaceReduction:
    """At large S the G-row systems are reduced in the planes they were built
    in; the systems the triangle solve cannot certify are solved again by
    the SVD of their own triangles, with the bits of a solve on copies."""

    S, DEFICIENT, NEAR = 300, 7, 11

    def problem(self):
        from ptdecouple.harness import builtin_system

        model = builtin_system("f2")
        pts = np.random.Generator(np.random.Philox(8)).uniform(-1, 1, (self.S, model.n_inputs))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        st = truth_state(model, pts, perturb=1e-2, seed=9)
        # layer 1's G-row matrix of slice s has column j equal to
        # W_0[j] kron (W_2 diag(G_2[s]) W_1[:, j]): a zero G_2 row zeroes the
        # slice's matrix, and with G_2[s] = (1, 0) the second column is
        # 1e-11 times a vector of the first column's length
        st.weights[1][0, 1] = 1e-11 * st.weights[1][0, 0]
        st.G[1][self.DEFICIENT] = 0.0
        st.G[1][self.NEAR] = (1.0, 0.0)
        return pts, J, F, st

    def untouched_rows(self, st, J, pts):
        C, i0 = _coeff_problem(st, 1, J)
        K, jb = planes_stack(C)
        return K.copy(), jb.copy(), bases(st, 1, pts)[0], i0

    @staticmethod
    def planes_of(K, jb):
        """Slices-last copies of K and jb, laid out as the planes the updates build."""
        return np.ascontiguousarray(K.transpose(2, 1, 0)), np.ascontiguousarray(jb.T)

    def qr_on_copies(self, K, jb):
        """The in-place QR of the large-S G-row solve, run on copies of K and jb."""
        return lstsq_reduced(*reduce_planes(*self.planes_of(K, jb)))

    def test_the_stack_holds_a_deficient_and_a_near_threshold_slice(self):
        from ptdecouple.tensor_ops import _QR_MARGIN, _RTOL

        pts, J, F, st = self.problem()
        K, _, _, _ = self.untouched_rows(st, J, pts)
        assert len(K) >= _QR_MIN_STACK
        assert np.all(K[self.DEFICIENT] == 0.0)
        sv = np.linalg.svd(np.delete(K, self.DEFICIENT, axis=0), compute_uv=False)
        ratio = sv[:, -1] / sv[:, 0]
        # the SVD keeps both singular values, the QR bound cannot certify them
        assert _RTOL < ratio[self.NEAR - 1] < _QR_MARGIN * _RTOL
        assert np.flatnonzero(ratio < 1e-8).tolist() == [self.NEAR - 1]

    def check_inputs_kept(self, update, st, J, F, pts):
        inputs = (J, F, pts, *st.weights)
        kept = [x.tobytes() for x in inputs]
        got = update(st.copy(), 1, J, F, pts, lam=1e-6)
        assert [x.tobytes() for x in inputs] == kept
        return got

    @staticmethod
    def triangle(a, b):
        """The QR triangle of one panel's rows [a | b], a system or a stack, as its (a', b')."""
        R = np.linalg.qr(np.concatenate([a, b[..., None]], axis=-1), mode="r")
        return R[..., :-1], R[..., -1]

    def test_proj_matches_a_solve_on_copies(self):
        pts, J, F, st = self.problem()
        K, jb, X, i0 = self.untouched_rows(st, J, pts)
        G, trunc_g = self.qr_on_copies(K, jb)
        # the coefficients' stack of 300 slices is built as one panel and
        # solved from its triangles
        c, trunc_c = lstsq_info(*self.triangle(X[:, :, i0:], G.T))
        assert trunc_g == 2
        got = self.check_inputs_kept(update_c_proj, st, J, F, pts)
        coeffs = st.coeffs[0].copy()
        coeffs[:, i0:] = c
        assert got.coeffs[0].tobytes() == coeffs.tobytes()
        assert got.G[0].tobytes() == np.ascontiguousarray((X @ coeffs[:, :, None])[:, :, 0].T).tobytes()
        assert got.n_truncated - st.n_truncated == trunc_g + trunc_c

    def test_the_g_rows_of_proj_match_a_solve_on_copies(self, monkeypatch):
        import ptdecouple.solver as solver_mod
        import ptdecouple.tensor_ops as top

        pts, J, F, st = self.problem()
        K, jb, _, _ = self.untouched_rows(st, J, pts)
        want, trunc = self.qr_on_copies(K, jb)
        seen, resolved = [], []
        # the structured write that follows the G-row solve is bypassed here
        monkeypatch.setattr(solver_mod, "_write_factors", lambda st, *a: seen.append(st.G[0]))
        svd = top._lstsq_svd
        monkeypatch.setattr(top, "_lstsq_svd", lambda a, b: resolved.append(len(a)) or svd(a, b))
        got = self.check_inputs_kept(update_c_proj, st, J, F, pts)
        # the deficient and the near-threshold slice, and the coefficients'
        # stack of the r neurons
        assert resolved == [2, len(st.G[0].T)]
        assert seen[0].tobytes() == want.tobytes()
        assert got.n_truncated - st.n_truncated >= trunc == 2

    def test_reduced_constr_matches_a_solve_on_copies(self):
        pts, J, F, st = self.problem()
        K, jb, X, i0 = self.untouched_rows(st, J, pts)
        S, p, r = K.shape
        # the planes hold r_1*n = 6 rows per slice at rank size, not m*n = 9,
        # and the stack of 300 slices is reduced
        assert p == 6 and S >= _QR_MIN_STACK
        R, y = reduce_planes(*self.planes_of(K, jb))
        a = np.einsum("jks,jsi->ksji", R, X[:, :, i0:], order="C").reshape(r * S, -1)
        # the system of 300 slices is built as one panel, and its triangle
        # solved
        c, trunc = lstsq_info(*self.triangle(a, y.flatten()))
        got = self.check_inputs_kept(update_c_constr, st, J, F, pts)
        coeffs = st.coeffs[0].copy()
        coeffs[:, i0:] = c.reshape(r, -1)
        assert got.coeffs[0].tobytes() == coeffs.tobytes()
        assert got.G[0].tobytes() == np.ascontiguousarray((X @ coeffs[:, :, None])[:, :, 0].T).tobytes()
        assert got.n_truncated - st.n_truncated == trunc



class TestRankSizePlanes:
    """The G-row planes are built at rank size through the weight matrices
    that every slice shares, W_0 at the first layer and W_L at the last;
    a panelled coefficient system writes its structure rows from the layer
    inputs."""

    S, DEFICIENT, NEAR = 300, 7, 11

    def problem(self, layer):
        """f2 at S = 300 near the truth, where the layer's G-row matrix of one
        slice is zero and that of another has singular values 1e-11 apart."""
        from ptdecouple.harness import builtin_system

        model = builtin_system("f2")
        pts = np.random.Generator(np.random.Philox(8)).uniform(-1, 1, (self.S, model.n_inputs))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        st = truth_state(model, pts, perturb=1e-2, seed=9)
        if layer == 1:
            # as in TestInPlaceReduction
            st.weights[1][0, 1] = 1e-11 * st.weights[1][0, 0]
            st.G[1][self.DEFICIENT] = 0.0
            st.G[1][self.NEAR] = (1.0, 0.0)
        else:
            # layer 2's matrix of slice s has column j equal to
            # (W_1[j] diag(G_1[s]) W_0) kron W_2[:, j]: a zero G_1 row zeroes
            # it, and with G_1[s] = (1, 0) column 2 is W_1[1, 0] / W_1[0, 0]
            # = 1e-11 times a vector of about column 1's length
            st.weights[1][1, 0] = 1e-11 * st.weights[1][0, 0]
            st.G[0][self.DEFICIENT] = 0.0
            st.G[0][self.NEAR] = (1.0, 0.0)
        return pts, J, F, st

    @staticmethod
    def unreduced(st, layer, J):
        """Every slice's Khatri-Rao G-row matrix and vec(J_s), m*n rows each."""
        S = J.shape[2]
        K = np.stack([build_MG(st, layer, s) for s in range(S)])
        return K, np.ascontiguousarray(J.transpose(2, 1, 0)).reshape(S, -1)

    @pytest.mark.parametrize("strategy", ["proj", "constr"])
    @pytest.mark.parametrize("layer", [1, 2])
    def test_g_row_solves_match_the_unreduced_systems(self, layer, strategy):
        from ptdecouple.tensor_ops import _RTOL

        pts, J, F, st = self.problem(layer)
        K0, b0 = self.unreduced(st, layer, J)
        assert K0.shape[1] == 9
        sv = np.linalg.svd(K0, compute_uv=False)
        assert np.all(K0[self.DEFICIENT] == 0.0)
        assert _RTOL < sv[self.NEAR, 1] / sv[self.NEAR, 0] < 1e-10
        want, trunc_want = lstsq_info(K0, b0)
        C, _ = _coeff_problem(st, layer, J)
        assert C.shape[1] == 6
        R, y = reduce_planes(C[:-1], C[-1])
        if strategy == "proj":
            # update_c_proj's solve of the slices' triangles, the deficient
            # and near-threshold slices again by the SVD of theirs
            got, trunc = lstsq_reduced(R, y)
        else:
            # update_c_constr's reduction: the slices' R and Q^T b
            got, trunc = lstsq_info(R.transpose(2, 1, 0), y.T)
        assert trunc == trunc_want == 2
        # the fitted values K_s x to round-off of vec(J_s) on every slice,
        # the minimizers themselves where the slice is well conditioned
        fits = np.einsum("spj,sj->sp", K0, got - want)
        assert np.all(np.linalg.norm(fits, axis=1) <= 1e-12 * np.linalg.norm(b0, axis=1))
        good = sv[:, 1] > 1e-6 * sv[:, 0]
        assert good.sum() == self.S - 2
        err = np.linalg.norm(got - want, axis=1)[good]
        assert np.all(err <= 1e-9 * np.linalg.norm(want, axis=1)[good])

    def test_gram_of_both_shared_factors(self):
        # L = 1 with m = n = 3 > r = 2: the rows go through Q_in and Q_out,
        # 4 per slice, with the Gram matrix and the minimizer of the 9
        model, pts, J, F = problem(21, m=3, n=3, ranks=(2,), degrees=(3,), S=120)
        st = truth_state(model, pts, perturb=1e-2, seed=2)
        K0, b0 = self.unreduced(st, 1, J)
        C, _ = _coeff_problem(st, 1, J)
        K, jb = planes_stack(C)
        assert K.shape == (120, 4, 2)
        gram0, gram = (np.einsum("spi,spj->sij", k, k) for k in (K0, K))
        assert fro_norm(gram - gram0) <= 1e-13 * fro_norm(gram0)
        x0, x = lstsq_info(K0, b0)[0], lstsq_info(K, jb)[0]
        assert fro_norm(x - x0) <= 1e-12 * fro_norm(x0)

    # the shapes of f1 and deep-cli, where no shared factor is taller
    @pytest.mark.parametrize("ranks, degrees, m, n", [
        ((2, 2), (5, 2), 2, 2), ((3, 2, 2), (2, 3, 2), 3, 2),
    ])
    def test_planes_without_a_taller_factor_keep_their_bytes(self, ranks, degrees, m, n):
        from ptdecouple.solver import _g_rows, _rank_size

        model, pts, J, F = problem(23, m=m, n=n, ranks=ranks, degrees=degrees, S=30)
        st = truth_state(model, pts, perturb=0.1, seed=5)
        for layer in range(1, len(ranks) + 1):
            weights, q_in, q_out = _rank_size(st.weights, layer)
            assert q_in is None and q_out is None
            C, _ = _coeff_problem(st, layer, J)
            # the Khatri-Rao planes of the model's own weights, and vec(J_s)
            r = len(C) - 1
            want = _g_rows(st.weights, st.G, layer).transpose(3, 1, 2, 0)
            assert C[:r].tobytes() == np.ascontiguousarray(want).reshape(r, m * n, -1).tobytes()
            assert C[r].tobytes() == np.ascontiguousarray(J.transpose(1, 0, 2)).tobytes()

    def test_structure_rows_written_in_place_are_slices_of_build_x_and_y(self):
        from ptdecouple.basis import build_X, build_Y, write_X
        from ptdecouple.model import power_rows

        U = np.random.Generator(np.random.Philox(3)).uniform(-2, 2, (1000, 2))
        U[4, 0], U[9, 1] = 0.0, -0.0
        d = 3
        X, Y = build_X(U, d), build_Y(U, d)
        for sl in (slice(0, 500), slice(500, 1000), slice(None)):
            k = len(U[sl])
            # with and without the constant column, in the column-major
            # layout of a proj panel, and in planes
            for w in (d + 1, d):
                out = np.empty((2, w + 1, k)).transpose(0, 2, 1)[:, :, :w]
                got = write_X(U[sl], d, out)
                assert got is out
                assert np.ascontiguousarray(got).tobytes() == \
                    np.ascontiguousarray(X[:, sl, d + 1 - w :]).tobytes()
                got = write_X(U[sl], d, np.empty((w, 2, k)).transpose(1, 2, 0))
                assert np.ascontiguousarray(got).tobytes() == \
                    np.ascontiguousarray(X[:, sl, d + 1 - w :]).tobytes()
            out = np.empty((2, d + 2, k)).transpose(0, 2, 1)[:, :, : d + 1]
            power_rows(U[sl].T, d, out=np.moveaxis(out, 2, 0))
            assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(Y[:, sl]).tobytes()

    # the package's budget and one that splits every part of both layers'
    # systems into more panels
    @pytest.mark.parametrize("panel_bytes", [None, 1 << 15])
    @pytest.mark.parametrize("strategy", ["proj", "constr"])
    def test_panels_hold_the_whole_systems_rows(self, monkeypatch, strategy, panel_bytes):
        # each panel's rows, written from the layer inputs, are bytes of the
        # whole system's, built densely from X and Y built whole
        import ptdecouple.tensor_ops as top

        pts, J, F, st = TestPanelSolves.case("f2")
        S, lam = J.shape[2], 1e-6
        if panel_bytes is not None:
            monkeypatch.setattr(top, "_PANEL_BYTES", panel_bytes)
        seen, fitted = [], []
        solve = solver_mod.lstsq_panels

        def spied(rows, panels, *a, **k):
            seen.append([(p, rows(p).copy()) for p in panels])
            return solve(rows, panels, *a, **k)

        monkeypatch.setattr(solver_mod, "lstsq_panels", spied)
        # the G and R that the proj rows fit the coefficients to; the
        # structured write that follows is bypassed
        monkeypatch.setattr(solver_mod, "_write_factors",
                            lambda s, layer, U: fitted.append((s.G[layer - 1], s.R)))
        counts = []
        for layer in (1, 2):
            X, Y = bases(st, layer, pts)
            i0 = 0 if Y is not None else 1
            if strategy == "proj":
                update_c_proj(st.copy(), layer, J, F, pts, lam)
                G, R = fitted[-1]
                # neuron-major: X rows against G, then sqrt(lam) Y rows
                # against sqrt(lam) R
                parts = [np.concatenate([X[:, :, i0:], G.T[:, :, None]], axis=2)]
                if Y is not None:
                    parts.append(np.sqrt(lam) * np.concatenate([Y, R.T[:, :, None]], axis=2))
            else:
                update_c_constr(st.copy(), layer, J, F, pts, lam)
                # reduced J rows (t, s), column (j, i), i >= 1: R_s[t, j] X[j, s, i]
                C, _ = _coeff_problem(st, layer, J)
                Rs, ys = reduce_planes(C[:-1], C[-1])
                r = len(Rs)
                a = np.einsum("jts,jsi->tsji", Rs, X[:, :, 1:]).reshape(r, S, -1)
                parts = [np.concatenate([a, ys[:, :, None]], axis=2)]
                if Y is not None:
                    # F rows (i, s), column (j, t), t >= 1, centred over the
                    # slices: sqrt(lam) W[i, j] (Y[j, s, t] - Ybar[j, t]),
                    # W_L reduced by its QR where n > r
                    Q, W = np.linalg.qr(st.weights[-1])
                    Y = Y[:, :, 1:] - np.mean(Y[:, :, 1:], axis=1)[:, None]
                    a = np.einsum("ij,jst->isjt", W, Y).reshape(r, S, -1) * np.sqrt(lam)
                    b = Q.T @ F
                    b = (b - np.mean(b, axis=1)[:, None]) * np.sqrt(lam)
                    parts.append(np.concatenate([a, b[:, :, None]], axis=2))
            panels = seen[-1]
            assert None not in [p for p, _ in panels]
            assert sum(sum(which[: len(parts)]) for (_, *which), _ in panels) == len(panels)
            for i, part in enumerate(parts):
                # the part's panels, which cover its slices in order
                own = [(sl, ab) for (sl, *which), ab in panels if which[i]]
                assert [sl.start for sl, _ in own] + [S] == [0] + [sl.stop for sl, _ in own]
                for sl, ab in own:
                    rows = part[:, sl]
                    assert np.ascontiguousarray(ab.reshape(rows.shape)).tobytes() == \
                        np.ascontiguousarray(rows).tobytes()
            counts.append(len(panels))
        if panel_bytes is None:
            assert counts == {"proj": [1, 2], "constr": [2, 4]}[strategy]
        else:
            assert counts[0] > 1 and counts[1] > 2


class TestPanelSolves:
    """At large S the W and coefficient systems are built and reduced one
    panel of slices at a time; they solve as the whole systems, to round-off,
    with the same truncations."""

    @staticmethod
    def case(name):
        """f2 at S = 1000, or the deep-cli shape at S = 700, near the truth."""
        from ptdecouple.harness import builtin_system

        if name == "f2":
            model, S = builtin_system("f2"), 1000
        else:
            model, S = make_system(19, m=3, n=2, ranks=(3, 2, 2), degrees=(2, 3, 2)), 700
        pts = np.random.Generator(np.random.Philox(4)).uniform(-1, 1, (S, model.n_inputs))
        J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
        return pts, J, F, truth_state(model, pts, perturb=1e-2, seed=5)

    @staticmethod
    def dense_update(kind, st, layer, J, F, pts, lam):
        """The update ``kind`` of ``st`` from dense rows solved by np.linalg.lstsq, and the ranks' deficits."""
        def solve(a, b):
            x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            deficit.append(a.shape[1] - rank)
            return x

        st, deficit = st.copy(), []
        n, m, S = J.shape
        L = st.n_layers
        if kind == "W" and layer < L:
            r_next, r_this = st.weights[layer].shape
            x = solve(build_MW(st, layer), vec3(J))
            st.weights[layer] = x.reshape((r_next, r_this), order="F")
            return st, deficit
        if kind == "W":
            a = np.vstack([build_MW(st, L).T, np.sqrt(lam) * st.R])
            b = np.vstack([unfold(J, 1).T, np.sqrt(lam) * F.T])
            st.weights[L] = solve(a, b).T
            return st, deficit
        # the unreduced Khatri-Rao rows of every slice, against vec(J_s)
        K = solver_mod._g_rows(st.weights, st.G, layer)
        K = K.reshape(S, m * n, -1)
        jb = J.transpose(2, 1, 0).reshape(S, m * n)
        X, Y = bases(st, layer, pts)
        r, i0 = K.shape[2], 0 if layer == L else 1
        if kind == "proj":
            G = np.array([solve(k, b) for k, b in zip(K, jb)])
            if layer == L:
                st.R = solve(st.weights[-1], F).T
            for j in range(r):
                a, b = X[j, :, i0:], G[:, j]
                if layer == L:
                    a = np.vstack([a, np.sqrt(lam) * Y[j]])
                    b = np.concatenate([b, np.sqrt(lam) * st.R[:, j]])
                st.coeffs[layer - 1][j, i0:] = solve(a, b)
        else:
            a, b = structured_rows(K, X[:, :, i0:]), jb.ravel()
            if layer == L:
                W = np.einsum("ij,jst->isjt", st.weights[-1], Y).reshape(n * S, -1)
                a = np.vstack([a, np.sqrt(lam) * W])
                b = np.concatenate([b, np.sqrt(lam) * F.ravel()])
            # with unit columns: at lam = 1e-6 the constants' columns sit in
            # the sqrt(lam) F rows alone
            unit = 1.0 / np.linalg.norm(a, axis=0)
            st.coeffs[layer - 1][:, i0:] = (solve(a * unit, b) * unit).reshape(r, -1)
        c = st.coeffs[layer - 1][:, :, None]
        st.G[layer - 1] = (X @ c)[:, :, 0].T
        if layer == L:
            st.R = (Y @ c)[:, :, 0].T
        return st, deficit

    @pytest.mark.parametrize("name", ["f2", "L3"])
    # the package's budget, and one that splits every system
    @pytest.mark.parametrize("panel_bytes", [None, 1 << 14])
    def test_panels_solve_as_the_whole_system(self, monkeypatch, name, panel_bytes):
        import ptdecouple.tensor_ops as top

        pts, J, F, st = self.case(name)
        L, lam = st.n_layers, 1e-6
        run = {"W": lambda s, l: update_W(s, l, J, F, lam),
               "constr": lambda s, l: update_c_constr(s, l, J, F, pts, lam),
               "proj": lambda s, l: update_c_proj(s, l, J, F, pts, lam)}
        splits = []
        solve = solver_mod.lstsq_panels
        monkeypatch.setattr(solver_mod, "lstsq_panels",
                            lambda rows, p, *a, **k: splits.append(len(p)) or solve(rows, p, *a, **k))
        if panel_bytes is not None:
            monkeypatch.setattr(top, "_PANEL_BYTES", panel_bytes)
        for kind in ("W", "constr", "proj"):
            for layer in range(1, L + 1):
                got = run[kind](st.copy(), layer)
                want, deficit = self.dense_update(kind, st, layer, J, F, pts, lam)
                assert got.n_truncated == 0 and not any(deficit)
                for x, y in zip(got.weights + got.G + [got.R], want.weights + want.G + [want.R]):
                    assert fro_norm(x - y) <= 1e-10 * fro_norm(y)
                g, w = objective(got, J, F, lam)[2], objective(want, J, F, lam)[2]
                assert abs(g - w) <= 1e-11 * w
        if panel_bytes is not None:
            assert min(splits) > 1
        elif name == "f2":
            # the middle and last W systems, and the constr and proj systems
            # of both layers; every system of the sweep is built in panels
            assert splits == [3, 2, 2, 4, 1, 2]

    # budgets that split f2's 1000 slices into panels of 142-143 and of
    # 333-334 slices
    @pytest.mark.parametrize("slices, lengths", [
        (150, [142, 143, 143, 143, 143, 143, 143]), (400, [333, 333, 334]),
    ])
    def test_g_row_panels_keep_the_whole_stack_bits(self, monkeypatch, slices, lengths):
        # per-slice systems reduced in panels of at least _QR_MIN_STACK
        # slices, of near-equal and odd lengths, cut from the whole planes:
        # each slice's R and Q^T b are those of the whole stack bit for bit
        import ptdecouple.tensor_ops as top

        pts, J, F, st = self.case("f2")
        for layer in (1, 2):
            C, _ = _coeff_problem(st, layer, J)
            S = C.shape[-1]
            monkeypatch.setattr(top, "_PANEL_BYTES", slices * C.nbytes // S)
            panels = top.slice_panels(S, C.nbytes // S)
            Cp = [np.ascontiguousarray(C[..., sl]) for sl in panels]
            R, y = reduce_planes(C[:-1], C[-1])
            assert [sl.stop - sl.start for sl in panels] == lengths
            for sl, c in zip(panels, Cp):
                Rp, yp = reduce_planes(c[:-1], c[-1])
                assert Rp.tobytes() == np.ascontiguousarray(R[:, :, sl]).tobytes()
                assert yp.tobytes() == np.ascontiguousarray(y[:, sl]).tobytes()


def f2_s1000(S=1000):
    """J, F and the points of f2 at S = 1000, or at the first S of those points."""
    from ptdecouple.harness import builtin_system

    model = builtin_system("f2")
    pts = np.random.Generator(np.random.Philox(7)).uniform(-1, 1, (S, model.n_inputs))
    return build_jacobian_tensor(model, pts), build_f_matrix(model, pts), pts


def traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak memory above the fit's inputs at f2 S = 1000.  A 2-sweep fit peaks
# at 303.8 KB (constr) and 298.3 KB (proj) with the G-row planes at rank
# size and the structure rows of a panelled system written per panel;
# 401.5 KB and 345.4 KB with 9 plane rows per slice and X and Y held whole
# beside the panels, keeping its best sweep as weights and coefficients and
# reducing the G-row planes in three blocks of rows; 450.1 KB and 401.2 KB
# with a copy of the best state, G and R included, and two blocks.  With
# every system built whole, once, in the array its solver reduces, they
# peaked at 0.59 MB and 0.50 MB; at 0.78 MB with the rows built beside the
# solver's copy of them.  From a start with a zero column of W_L they peak
# at 297.2 KB and 299.8 KB, every deficient system solved from its
# triangles with the planes gone; 608.7 KB and 653.9 KB while such a
# system was built again whole, or slice by slice, to be solved.  On the
# deep-cli shape (L = 3, m = 3, n = 2, ranks 3, 2, 2) at S = 700 they peak
# at 302.1 KB and 296.4 KB with every system of 200 slices or more built in
# panels; at 471.2 KB and 468.3 KB while a system whose rows fit one panel
# was solved whole, the middle W system tracing 412 KB against 242 KB.
@pytest.mark.parametrize("start, strategy, bound", [
    (start, strategy, bound) for start in ("init", "zero_column")
    for strategy, bound in (("constr", 310_000), ("proj", 304_500))
] + [("deep_cli_shape", strategy, 310_000) for strategy in ("constr", "proj")])
def test_large_s_fit_peak_memory(strategy, bound, start):
    if start == "deep_cli_shape":
        pts, J, F, _ = TestPanelSolves.case("L3")
        shape = dict(ranks=(3, 2, 2), degrees=(2, 3, 2))
    else:
        J, F, pts = f2_s1000()
        shape = dict(ranks=(2, 2), degrees=(3, 3))
    cfg = SolverConfig(**shape, lam=1e-6, strategy=strategy, min_iters=2, max_iters=2,
                       rng_seed=1)
    st = None
    if start == "zero_column":
        # W_L's second column is zero: every slice's last-layer G-row system
        # and the constr last-layer system are rank deficient, and both are
        # solved from their triangles within the plain start's bound
        st = init_state(cfg, J.shape)
        st.weights[-1][:, 1] = 0.0
    assert traced_peak(lambda: fit(cfg, J, F, pts, st)) < bound


# Below 200 slices every system is solved whole; from 100 slices on the
# constr update solves the slices' QR-reduced rows, 2 a slice on f2, not
# the planes' 6.  A 2-sweep constr fit at the points and seed of the test
# above peaks at 100.1, 129.5 and 202.3 KB at S = 150, 199 and 249; at
# 321.9, 389.9 and 382.5 KB, above that test's S = 1000 bound, while the
# full rows were solved below 1000 removed rows.
@pytest.mark.parametrize("S", [150, 199, 249])
def test_constr_fit_below_the_panels_peak_memory(S):
    J, F, pts = f2_s1000(S)
    cfg = SolverConfig(ranks=(2, 2), degrees=(3, 3), lam=1e-6, strategy="constr", min_iters=2,
                       max_iters=2, rng_seed=1)
    assert traced_peak(lambda: fit(cfg, J, F, pts)) < 310_000


def test_last_layer_proj_update_peak_memory():
    # 227.1 KB: from this unbalanced state a coefficient system truncates,
    # and the stack is solved from the triangles of its panels; 230.7 KB
    # when a truncating stack was solved again one neuron at a time from
    # rows built whole, written from the layer inputs; 342.7 KB with X and
    # Y held beside them; 387.9 KB
    # with one SVD of the stack, which holds U beside the rows, and with X a
    # view of its entries in the stacked matrix; 0.452 MB, set by that solve,
    # while X was held beside it
    J, F, pts = f2_s1000()
    st = init_state(SolverConfig(ranks=(2, 2), degrees=(3, 3), rng_seed=1), J.shape)
    assert traced_peak(lambda: update_c_proj(st, 2, J, F, pts, 1e-6)) < 236_000


def test_last_layer_constr_update_peak_memory():
    # 231.0 KB (229.6 KB from seeds 2 and 3), set by the G-row planes'
    # reduction, before the slice means are taken; the means, summed one
    # power plane at a time, hold one 16 KB plane beside the update's 83 KB
    # there, where the whole power rows held 64 KB
    J, F, pts = f2_s1000()
    st = init_state(SolverConfig(ranks=(2, 2), degrees=(3, 3), rng_seed=1), J.shape)
    assert traced_peak(lambda: update_c_constr(st, 2, J, F, pts, 1e-6)) < 240_000


def test_middle_w_update_peak_memory():
    # 245.5 KB with the Kronecker stack built and reduced three panels of
    # slices at a time; 0.40 MB built whole, with build_MW's columns written
    # by one einsum each, 0.52 MB with one einsum into a C-ordered matrix and
    # 0.67 MB when its reshape copied
    J, F, pts = f2_s1000()
    st = init_state(SolverConfig(ranks=(2, 2), degrees=(3, 3), rng_seed=1), J.shape)
    assert traced_peak(lambda: update_W(st, 1, J, F, 1e-6)) < 250_000


def test_last_w_update_peak_memory():
    # 242.3 KB with M.T's columns written one input at a time; 259.0 KB with
    # a broadcast product per column, which numpy buffers
    J, F, pts = f2_s1000()
    st = init_state(SolverConfig(ranks=(2, 2), degrees=(3, 3), rng_seed=1), J.shape)
    assert traced_peak(lambda: update_W(st, 2, J, F, 1e-6)) < 247_000


def test_objective_peak_memory():
    # 169.0 KB with the residual written over the last chain and squared in
    # place; 211.0 KB with J - chain and its square as new arrays, set while
    # the chains, the residual and, after them, its square were held
    J, F, pts = f2_s1000()
    st = init_state(SolverConfig(ranks=(2, 2), degrees=(3, 3), rng_seed=1), J.shape)
    assert traced_peak(lambda: objective(st, J, F, 1e-6)) < 172_500


@pytest.mark.parametrize("name, S", [("f1", 30), ("f2", 1000)])
def test_objective_keeps_the_bytes_of_the_squared_residual(name, S):
    from ptdecouple.harness import builtin_system
    from ptdecouple.model import right_chains

    model = builtin_system(name)
    pts = np.random.Generator(np.random.Philox(7)).uniform(-1, 1, (S, model.n_inputs))
    J, F = build_jacobian_tensor(model, pts), build_f_matrix(model, pts)
    for st in (truth_state(model, pts, perturb=1e-2, seed=3),
               init_state(SolverConfig(ranks=(2, 2), degrees=model.degrees, rng_seed=1), J.shape)):
        diff = np.transpose(J, (2, 0, 1)) - right_chains(st.weights, st.G, 3)[-1]
        want = np.float64(np.sum(diff * diff))
        assert np.float64(objective(st, J, F, 1e-6)[0]).tobytes() == want.tobytes()


def test_last_rows_keep_the_broadcast_products():
    # np.multiply's products, -0.0 included, as a product broadcast per column
    from ptdecouple.model import right_chains
    from ptdecouple.solver import _last_rows

    model, pts, J, F = problem(24, m=3, n=2, S=40)
    st = truth_state(model, pts, perturb=0.1, seed=6)
    st.G[1][:5] = -0.0
    st.G[1][5:9, 0] = 0.0
    got = np.empty((40 * 3, 2))
    _last_rows(st.weights, st.G, got)
    V = right_chains(st.weights, st.G, 2)[-1]
    want = np.stack([np.multiply(st.G[1][:, i, None], V[:, i]).ravel() for i in range(2)], axis=1)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got).sum() == np.signbit(want).sum() > 0


def test_start_search_peak_memory(monkeypatch):
    # 71.3 KB above the inputs for this f1 S = 30 search in process (69.5-
    # 72.1 KB at seeds 0-2), after a first search has made numpy's one-time
    # allocations; a descent's linearization sets it, with one 16-point
    # chunk's rows of M from the adjoint kernel (21.5 KB) and the kernel's
    # temporaries (about 17 KB) live.  73.3 KB (71.4-74.3 KB) while every
    # outcome carried its evaluated G and R, and 76.5-77.5 KB with the
    # normal matrix and the gradient summed from zeros, which sat beside
    # the first chunk's rows.
    # The forward-mode derivatives it replaced read
    # 77.2-78.3 KB; kernels that broadcast ufuncs or einsums across the
    # seeds read 84-105 KB, and a stored LM Jacobian 110-125 KB.
    cfg, J, F, pts = _search_case("f1")
    monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [])
    start_search(cfg, J, F, pts)
    assert traced_peak(lambda: start_search(cfg, J, F, pts)) < 74_500


def test_deep_start_search_peak_memory(monkeypatch):
    # 125.5 KB for this L = 3 search, whose 8 descents all stall (124.1-
    # 125.5 KB at seeds 0-2), measured as the f1 search above; 128.2 KB
    # (126.9-128.3 KB) while every outcome carried its evaluated G and R,
    # 136.4-138.7 KB with the normal matrix summed from zeros, 138.2-139.5
    # KB with the forward-mode derivatives.
    # The bound leaves a margin of about 2 %, as the f1 test's.
    cfg, J, F, pts = _search_case("L3")
    monkeypatch.setattr(search_mod, "_helper_cpus", lambda: [])
    start_search(cfg, J, F, pts)
    assert traced_peak(lambda: start_search(cfg, J, F, pts)) < 129_700
