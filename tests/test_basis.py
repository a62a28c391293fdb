import numpy as np
import pytest

from ptdecouple.basis import (
    build_per_slice_X,
    build_X,
    build_Y,
    coeff_block_matrix,
)
from ptdecouple.harness import builtin_system, generate_system, SyntheticSpec
from ptdecouple.model import (
    DecoupledModel,
    internal_inputs_batch,
    true_pt_factors,
    build_f_matrix,
)


def test_basis_spec_validation():
    # a one-column coefficient array is a degree-0 layer, which has no derivative
    with pytest.raises(ValueError):
        DecoupledModel(weights=(np.eye(2), np.eye(2)), coeffs=(np.ones((2, 1)),))


class TestBuildX:
    def test_row_at_zero(self):
        xb = build_X(np.zeros((1, 1)), 2)
        assert np.array_equal(xb[0], [[0.0, 1.0, 0.0]])

    def test_row_degree3_at_two(self):
        xb = build_X(np.full((1, 1), 2.0), 3)
        assert np.array_equal(xb[0], [[0.0, 1.0, 4.0, 12.0]])

    def test_first_column_zero(self):
        rng = np.random.default_rng(0)
        xb = build_X(rng.normal(size=(7, 3)), 4)
        for b in xb:
            assert np.all(b[:, 0] == 0.0)

    def test_reproduces_exact_factor_columns(self):
        model = builtin_system("f1")
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (12, 2))
        us = internal_inputs_batch(model.weights, model.coeffs, pts)
        factors = true_pt_factors(model, pts)
        for l in range(2):
            xb = build_X(us[l], model.degrees[l])
            for j in range(2):
                col = xb[j] @ model.coeffs[l][j]
                assert np.allclose(col, factors.G[l][:, j], rtol=1e-13, atol=1e-13)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            build_X(np.array([[np.inf]]), 2)


class TestBuildY:
    def test_row_at_zero(self):
        yb = build_Y(np.zeros((1, 1)), 2)
        assert np.array_equal(yb[0], [[1.0, 0.0, 0.0]])

    def test_row_degree3_at_two(self):
        yb = build_Y(np.full((1, 1), 2.0), 3)
        assert np.array_equal(yb[0], [[1.0, 2.0, 4.0, 8.0]])

    def test_f_factorization_from_columns(self):
        # R columns built from Y blocks make F = W_L R^T exact
        model = builtin_system("f2")
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (9, 3))
        us = internal_inputs_batch(model.weights, model.coeffs, pts)
        yb = build_Y(us[-1], model.degrees[-1])
        R = np.stack([yb[j] @ model.coeffs[-1][j] for j in range(2)], axis=1)
        F = build_f_matrix(model, pts)
        resid = np.linalg.norm(F - model.weights[-1] @ R.T)
        assert resid < 1e-12 * np.linalg.norm(F)


class TestPerSliceX:
    def test_single_neuron_reduces_to_row(self):
        u = np.array([1.7])
        one = build_per_slice_X(u, 3)
        row = build_X(u[None, :], 3)[0]
        assert np.array_equal(one, row)

    def test_rows_are_the_cumulative_products_times_i(self):
        # the former double loop, kept as the reference: equal bit for bit
        u = np.random.default_rng(5).normal(size=3) * 7.0
        want = np.zeros((3, 3 * 5))
        for j in range(3):
            p = 1.0
            for i in range(1, 5):
                want[j, j * 5 + i] = i * p
                p *= u[j]
        assert np.array_equal(build_per_slice_X(u, 4), want)

    def test_product_is_diagonal(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=3)
        C = coeff_block_matrix(rng.normal(size=(3, 4)))
        D = build_per_slice_X(u, 3) @ C
        assert np.allclose(D, np.diag(np.diag(D)))

    def test_matches_derivative_values(self):
        # layer-1 derivative matrix of the worked two-layer example at u = 0
        g1 = np.array([[1.0, 3.0, 1.0], [2.0, 4.0, -1.0]])
        D = build_per_slice_X(np.zeros(2), 2) @ coeff_block_matrix(g1)
        assert np.allclose(np.diag(D), [3.0, 4.0])
        assert np.allclose(D, np.diag([3.0, 4.0]))


def test_structure_tracks_fresh_inputs():
    # after a weight change the rebuilt X matrices reflect the new u values
    spec = SyntheticSpec(n_inputs=2, n_outputs=2, ranks=(2, 2), degrees=(3, 2), seed=5)
    model = generate_system(spec)
    pts = np.random.default_rng(6).uniform(-1, 1, (8, 2))
    us = internal_inputs_batch(model.weights, model.coeffs, pts)
    xb = build_X(us[1], 2)

    bumped = [w.copy() for w in model.weights]
    bumped[0] = bumped[0] * 1.3
    us2 = internal_inputs_batch(bumped, model.coeffs, pts)
    xb2 = build_X(us2[1], 2)
    assert not np.allclose(xb, xb2)
    # entrywise agreement with a direct recomputation from the new inputs
    expect = build_X(us2[1], 2)
    assert np.array_equal(xb2, expect)
