import json

import numpy as np
import pytest

from ptdecouple.model import (
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
from ptdecouple.harness import SyntheticSpec, builtin_system, generate_system


def worked_example():
    """Two-layer system with known hand-computed behaviour."""
    return DecoupledModel(
        weights=(
            np.array([[0.5, 1.0], [2.0, 2.0]]),
            np.array([[2.0, 1.0], [0.0, 1.0]]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        ),
        coeffs=(
            np.array([[1.0, 3.0, 1.0], [2.0, 4.0, -1.0]]),  # 1+3u+u^2, 2+4u-u^2
            np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0]]),  # v, -v+v^2
        ),
    )


def random_model(seed, m=2, n=2, ranks=(2, 2), degrees=(3, 2)):
    return generate_system(
        SyntheticSpec(n_inputs=m, n_outputs=n, ranks=ranks, degrees=degrees, seed=seed)
    )


def fd_jacobian(model, x, h=1e-6):
    cols = []
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((eval_model(model, x + e) - eval_model(model, x - e)) / (2 * h))
    return np.stack(cols, axis=1)


class TestEval:
    def test_worked_example_at_origin(self):
        assert np.allclose(eval_model(worked_example(), np.zeros(2)), [8.0, 20.0])

    def test_identity_chain(self):
        model = DecoupledModel(
            weights=(np.eye(1), np.eye(1)), coeffs=(np.array([[0.0, 1.0]]),)
        )
        for x in (0.3, -2.0, 5.5):
            assert eval_model(model, np.array([x]))[0] == pytest.approx(x)

    def test_f1_constant_composition_at_origin(self):
        # at the origin the first layer vanishes, leaving W2 applied to the
        # second layer's constant terms (-0.19, -1.93)
        f1 = builtin_system("f1")
        W2 = np.array([[1.61, -1.9], [-0.03, 0.11]])
        assert np.allclose(eval_model(f1, np.zeros(2)), W2 @ np.array([-0.19, -1.93]))

    def test_batch_matches_single(self):
        model = random_model(3)
        pts = np.random.default_rng(0).uniform(-1, 1, (7, 2))
        batch = eval_batch(model, pts)
        for s in range(7):
            assert np.allclose(batch[:, s], eval_model(model, pts[s]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            eval_model(worked_example(), np.zeros(3))


class TestInternalInputs:
    def test_worked_example(self):
        us = internal_inputs(worked_example(), np.zeros(2))
        assert np.allclose(us[0], [0.0, 0.0])
        assert np.allclose(us[1], [4.0, 2.0])

    def test_single_layer(self):
        model = DecoupledModel(
            weights=(np.array([[2.0, 0.5]]), np.array([[1.0]])),
            coeffs=(np.array([[0.0, 1.0, 1.0]]),),
        )
        us = internal_inputs(model, np.array([1.0, 2.0]))
        assert len(us) == 1
        assert np.allclose(us[0], [3.0])

    def test_eval_consistency(self):
        # f(x) equals the last weight applied to the last layer's outputs
        model = worked_example()
        x = np.array([0.4, -0.7])
        us = internal_inputs(model, x)
        g_last = np.array(
            [
                np.polyval(model.coeffs[1][j][::-1], us[-1][j])
                for j in range(2)
            ]
        )
        assert np.allclose(eval_model(model, x), model.weights[-1] @ g_last)


class TestJacobian:
    def test_linear_model_constant_jacobian(self):
        lin = np.array([[0.0, 1.0]])
        model = DecoupledModel(
            weights=(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 1.0], [0.5, -0.5]])),
            coeffs=(np.vstack([lin, lin]),),
        )
        expect = model.weights[1] @ model.weights[0]
        for x in np.random.default_rng(1).uniform(-2, 2, (5, 2)):
            assert np.allclose(jacobian(model, x), expect)

    def test_worked_example_hand_chain(self):
        # at the origin: D1 = diag(3, 4) and, since u2 = (4, 2),
        # D2 = diag(1, -1 + 2*2) = diag(1, 3); FD oracle agrees
        model = worked_example()
        J = jacobian(model, np.zeros(2))
        W0, W1, W2 = (np.asarray(w) for w in model.weights)
        expect = W2 @ np.diag([1.0, 3.0]) @ W1 @ np.diag([3.0, 4.0]) @ W0
        assert np.allclose(J, expect, rtol=1e-13)
        fd = fd_jacobian(model, np.zeros(2))
        assert np.linalg.norm(J - fd) / np.linalg.norm(J) < 1e-6

    def test_finite_difference_random(self):
        model = random_model(7)
        rng = np.random.default_rng(2)
        for x in rng.uniform(-1, 1, (10, 2)):
            J = jacobian(model, x)
            fd = fd_jacobian(model, x)
            assert np.linalg.norm(J - fd) / max(1.0, np.linalg.norm(J)) < 1e-6


class TestTensorBuilders:
    def test_single_point(self):
        model = random_model(9)
        x = np.array([[0.2, -0.4]])
        t = build_jacobian_tensor(model, x)
        assert t.shape == (2, 2, 1)
        assert np.array_equal(t[:, :, 0], jacobian(model, x[0]))

    def test_oracle_matches_model(self):
        model = random_model(11)
        pts = np.random.default_rng(3).uniform(-1, 1, (6, 2))
        via_model = build_jacobian_tensor(model, pts)
        via_oracle = build_jacobian_tensor(lambda x: jacobian(model, x), pts)
        assert np.array_equal(via_model, via_oracle)

    def test_exact_factor_reconstruction(self):
        model = random_model(13)
        pts = np.random.default_rng(4).uniform(-1, 1, (8, 2))
        t = build_jacobian_tensor(model, pts)
        rec = pt_reconstruct(true_pt_factors(model, pts))
        assert np.linalg.norm((t - rec).ravel()) < 1e-12 * np.linalg.norm(t.ravel())

    def test_f_matrix_zero_function(self):
        model = DecoupledModel(
            weights=(np.ones((1, 2)), np.zeros((2, 1))),
            coeffs=(np.array([[0.0, 1.0]]),),
        )
        pts = np.random.default_rng(5).uniform(-1, 1, (4, 2))
        assert np.all(build_f_matrix(model, pts) == 0.0)

    def test_f_matrix_worked_example(self):
        F = build_f_matrix(worked_example(), np.zeros((1, 2)))
        assert np.allclose(F[:, 0], [8.0, 20.0])

    def test_inconsistent_oracle_dims(self):
        calls = [np.zeros((2, 2)), np.zeros((3, 2))]
        with pytest.raises(ValueError):
            build_jacobian_tensor(lambda x: calls.pop(0), np.zeros((2, 2)))


class TestTrueFactors:
    def test_linear_internal_functions(self):
        lin = np.array([[0.0, 1.0]])
        model = DecoupledModel(
            weights=(np.ones((2, 2)), np.eye(2), np.ones((1, 2))),
            coeffs=(np.vstack([lin, lin]), np.vstack([lin, lin])),
        )
        pts = np.random.default_rng(6).uniform(-1, 1, (5, 2))
        factors = true_pt_factors(model, pts)
        for G in factors.G:
            assert np.array_equal(G, np.ones((5, 2)))

    def test_single_layer_cpd_relation(self):
        model = random_model(15, ranks=(2,), degrees=(3,))
        pts = np.random.default_rng(7).uniform(-1, 1, (6, 2))
        f = true_pt_factors(model, pts)
        t = build_jacobian_tensor(model, pts)
        A, B, C = f.weights[1], f.weights[0].T, f.G[0]
        for k in range(6):
            assert np.allclose(t[:, :, k], A @ np.diag(C[k]) @ B.T, rtol=1e-12, atol=1e-12)


class TestPTReconstruct:
    def test_all_ones_diagonals(self):
        rng = np.random.default_rng(8)
        W0, W1, W2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        f = PTFactors(weights=(W0, W1, W2), G=(np.ones((4, 2)), np.ones((4, 2))))
        rec = pt_reconstruct(f)
        for k in range(4):
            assert np.allclose(rec[:, :, k], W2 @ W1 @ W0, rtol=1e-13)

    def test_l1_cpd_bitwise(self):
        rng = np.random.default_rng(9)
        W0, W1, G = rng.normal(size=(3, 4)), rng.normal(size=(2, 3)), rng.normal(size=(5, 3))
        pt = pt_reconstruct(PTFactors(weights=(W0, W1), G=(G,)))
        cpd = cpd_reconstruct(W1, W0.T, G)
        assert pt.tobytes() == cpd.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            PTFactors(weights=(np.ones((2, 2)), np.ones((3, 2))), G=(np.ones((4, 3)),))


class TestAmbiguity:
    def test_identity_transform(self):
        model = random_model(17)
        pts = np.random.default_rng(10).uniform(-1, 1, (5, 2))
        f = true_pt_factors(model, pts)
        ident = AmbiguityTransform(
            perms=(np.eye(2), np.eye(2)),
            lam1=(np.ones(2), np.ones(2)),
            lam2=(np.ones(2), np.ones(2)),
            lam3=(np.ones(2), np.ones(2)),
            gammas=(np.ones(5),),
        )
        out = apply_ambiguity(f, ident)
        for a, b in zip(out.weights, f.weights):
            assert np.allclose(a, b)
        for a, b in zip(out.G, f.G):
            assert np.allclose(a, b)

    def test_l1_reduces_to_cpd_ambiguity(self):
        rng = np.random.default_rng(11)
        f = PTFactors(
            weights=(rng.normal(size=(2, 3)), rng.normal(size=(2, 2))),
            G=(rng.normal(size=(4, 2)),),
        )
        t = random_ambiguity((2,), 4, np.random.default_rng(12))
        assert t.gammas == ()  # no slice-wise freedom at one layer
        out = apply_ambiguity(f, t)
        rec0, rec1 = pt_reconstruct(f), pt_reconstruct(out)
        assert np.allclose(rec0, rec1, rtol=1e-12, atol=1e-12)

    def test_invariance_random_two_layer(self):
        rng = np.random.default_rng(13)
        model = random_model(19)
        pts = rng.uniform(-1, 1, (6, 2))
        f = true_pt_factors(model, pts)
        base = pt_reconstruct(f)
        for k in range(25):
            t = random_ambiguity((2, 2), 6, np.random.default_rng(100 + k))
            rec = pt_reconstruct(apply_ambiguity(f, t))
            assert np.allclose(rec, base, rtol=1e-12, atol=1e-12 * np.abs(base).max())

    def test_gamma_product_enforced(self):
        with pytest.raises(ValueError):
            AmbiguityTransform(
                perms=(np.eye(2), np.eye(2)),
                lam1=(np.ones(2), np.ones(2)),
                lam2=(np.ones(2), np.ones(2)),
                lam3=(np.ones(2), np.ones(2)),
                gammas=(np.full(5, 2.0),),
            )

    def test_scaling_triple_enforced(self):
        with pytest.raises(ValueError):
            AmbiguityTransform(
                perms=(np.eye(2),),
                lam1=(np.full(2, 2.0),),
                lam2=(np.ones(2),),
                lam3=(np.ones(2),),
            )


class TestRemoveBias:
    def test_worked_example_exact(self):
        out = remove_bias(worked_example())
        assert np.allclose(out.coeffs[0], [[0.0, 3.0, 1.0], [0.0, 4.0, -1.0]], atol=1e-12)
        assert np.allclose(out.coeffs[1], [[4.0, 1.0, 0.0], [2.0, 3.0, 1.0]], atol=1e-12)

    def test_worked_example_eval_agreement(self):
        model = worked_example()
        out = remove_bias(model)
        pts = np.random.default_rng(14).uniform(-1, 1, (100, 2))
        a, b = eval_batch(model, pts), eval_batch(out, pts)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.abs(a).max())

    def test_bias_free_model_unchanged(self):
        model = random_model(21)  # generated systems have zero inner constants
        out = remove_bias(model)
        for a, b in zip(out.coeffs, model.coeffs):
            assert np.array_equal(a, b)

    def test_random_degree3_eval_preserved(self):
        rng = np.random.default_rng(15)
        base = random_model(23, ranks=(2, 2), degrees=(3, 3))
        # inject nonzero inner constants
        coeffs = [c.copy() for c in base.coeffs]
        coeffs[0][:, 0] = rng.uniform(-2, 2, 2)
        model = DecoupledModel(weights=base.weights, coeffs=tuple(coeffs))
        out = remove_bias(model)
        assert np.all(out.coeffs[0][:, 0] == 0.0)
        # degrees preserved
        assert out.degrees == model.degrees
        assert np.allclose(out.coeffs[0][:, -1], model.coeffs[0][:, -1])
        pts = rng.uniform(-1, 1, (100, 2))
        a, b = eval_batch(model, pts), eval_batch(out, pts)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.abs(a).max())

    def test_three_layer(self):
        rng = np.random.default_rng(16)
        model = DecoupledModel(
            weights=(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                     rng.normal(size=(2, 2)), rng.normal(size=(2, 2))),
            coeffs=(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)), rng.normal(size=(2, 3))),
        )
        out = remove_bias(model)
        assert np.all(out.coeffs[0][:, 0] == 0.0)
        assert np.all(out.coeffs[1][:, 0] == 0.0)
        pts = rng.uniform(-1, 1, (50, 2))
        a, b = eval_batch(model, pts), eval_batch(out, pts)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.abs(a).max())


def test_monomial_scale_reparameterization():
    # scaling a neuron's input row while substituting u -> a*u in its
    # polynomial leaves the represented function unchanged
    model = worked_example()
    for alpha in (2.0, -0.5, 3.7):
        weights = [w.copy() for w in model.weights]
        coeffs = [c.copy() for c in model.coeffs]
        weights[0][0, :] /= alpha
        d = coeffs[0].shape[1] - 1
        coeffs[0][0, :] *= alpha ** np.arange(d + 1)
        scaled = DecoupledModel(weights=tuple(weights), coeffs=tuple(coeffs))
        pts = np.random.default_rng(17).uniform(-1, 1, (40, 2))
        a, b = eval_batch(model, pts), eval_batch(scaled, pts)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.abs(a).max())


class TestJson:
    def test_round_trip_bit_stable(self, tmp_path):
        model = builtin_system("f3")
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        for a, b in zip(model.weights, back.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(model.coeffs, back.coeffs):
            assert a.tobytes() == b.tobytes()

    def test_schema_fields(self):
        doc = model_to_json(builtin_system("f2"))
        assert doc["layers"] == 2
        assert doc["basis"] == "monomial"
        assert doc["degrees"] == [3, 3]
        assert doc["dims"] == {"inputs": 3, "outputs": 3, "ranks": [2, 2]}
        json.dumps(doc)  # serializable

    def test_awkward_doubles_round_trip(self, tmp_path):
        model = DecoupledModel(
            weights=(np.array([[1e-308, 3.141592653589793]]), np.array([[1.0 / 3.0]])),
            coeffs=(np.array([[0.1 + 0.2, 1e300]]),),
        )
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert back.weights[0].tobytes() == model.weights[0].tobytes()
        assert back.coeffs[0].tobytes() == model.coeffs[0].tobytes()

    def test_bad_basis_tag(self):
        doc = model_to_json(builtin_system("f1"))
        doc["basis"] = "fourier"
        with pytest.raises(ValueError):
            model_from_json(doc)

    def test_degrees_must_match_widths(self):
        doc = model_to_json(builtin_system("f1"))
        doc["degrees"] = [4, 2]  # the first layer's coefficients have width 6
        with pytest.raises(ValueError):
            model_from_json(doc)


def test_model_immutability():
    model = worked_example()
    with pytest.raises(ValueError):
        model.weights[0][0, 0] = 99.0
