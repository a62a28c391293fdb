import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdecouple import tensor_ops as top

BIG_STACK = top._QR_MIN_STACK + 50


def brute_unfold(t, mode):
    """Index-enumeration oracle for the mode-n unfolding."""
    I, J, K = t.shape
    if mode == 1:
        out = np.zeros((I, J * K))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    out[i, j + J * k] = t[i, j, k]
    elif mode == 2:
        out = np.zeros((J, I * K))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    out[j, i + I * k] = t[i, j, k]
    else:
        out = np.zeros((K, I * J))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    out[k, i + I * j] = t[i, j, k]
    return out


def small_tensor():
    # x_{i,j,k} = i + 2j + 4k, 0-based
    t = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                t[i, j, k] = i + 2 * j + 4 * k
    return t


class TestFrontalSlice:
    def test_stack_round_trip(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 4, 5))
        back = top.stack_slices([t[:, :, k] for k in range(5)])
        assert np.array_equal(back, t)


class TestUnfold:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_against_enumeration(self, mode):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(3, 4, 5))
        assert np.array_equal(top.unfold(t, mode), brute_unfold(t, mode))

    def test_rank_one_cpd_identity(self):
        # unfold_1(a o b o c) == A (C kr B)^T for single-column factors
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=5)
        t = np.einsum("i,j,k->ijk", a, b, c)
        lhs = top.unfold(t, 1)
        rhs = a[:, None] @ np.kron(c, b)[None]
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_mode3_rows_are_vec_slices(self):
        t = small_tensor()
        u3 = top.unfold(t, 3)
        for k in range(2):
            assert np.array_equal(u3[k], top.vec(t[:, :, k]))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            top.unfold(small_tensor(), 4)


class TestVec:
    def test_column_major(self):
        assert np.array_equal(top.vec(np.array([[1.0, 3.0], [2.0, 4.0]])), [1, 2, 3, 4])

    def test_kron_identity(self):
        # vec(A X B) == kron(B.T, A) vec(X), brute force both sides
        rng = np.random.default_rng(4)
        A, X, B = rng.normal(size=(3, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2, 3))
        lhs = top.vec(A @ X @ B)
        rhs = np.kron(B.T, A) @ top.vec(X)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_vec3_matches_layout(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=(2, 3, 4))
        v = top.vec3(t)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert v[i + 2 * j + 6 * k] == t[i, j, k]
        # identical to vec of the mode-1 unfolding under this layout
        assert np.array_equal(v, top.vec(top.unfold(t, 1)))


class TestNorm:
    def test_zero(self):
        assert top.fro_norm(np.zeros((2, 2, 2))) == 0.0

    def test_3_4_5(self):
        assert top.fro_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_slice_additivity(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(3, 4, 6))
        total = sum(top.fro_norm(t[:, :, k]) ** 2 for k in range(6))
        assert total == pytest.approx(top.fro_norm(t) ** 2, rel=1e-14)


class TestLstsq:
    def test_identity_system(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.allclose(top.lstsq_info(np.eye(3), b)[0], b)

    def test_overdetermined_mean(self):
        x = top.lstsq_info(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))[0]
        assert np.allclose(x, [[1.0]])

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(20, 5))
        b = rng.normal(size=(20, 3))
        x = top.lstsq_info(a, b)[0]
        resid = a.T @ (a @ x - b)
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_consistent_full_rank_exact(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        x_true = rng.normal(size=6)
        x = top.lstsq_info(a, a @ x_true)[0]
        assert np.allclose(x, x_true, rtol=1e-10)

    def test_rank_deficient_min_norm(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        x, trunc = top.lstsq_info(a, np.array([2.0, 2.0]))
        assert trunc == 1
        assert np.allclose(x, [1.0, 1.0])  # the minimum-norm solution

    def test_errors(self):
        with pytest.raises(ValueError):
            top.lstsq_info(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            top.lstsq_info(np.array([[np.nan, 1.0]]), np.ones(1))

    @pytest.mark.parametrize("K", [4, BIG_STACK])
    def test_stack_matches_single_systems(self, K):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(K, 7, 3))
        a[2, :, 2] = a[2, :, 0]  # one rank-deficient system
        b = rng.normal(size=(K, 7))
        x, trunc = top.lstsq_info(a, b)
        assert x.shape == (K, 3)
        singles = [top.lstsq_info(a[k], b[k]) for k in range(K)]
        for xk, (want, _) in zip(x, singles):
            assert np.allclose(xk, want, rtol=1e-12, atol=1e-12)
        assert trunc == sum(t for _, t in singles) == 1

    @pytest.mark.parametrize("K", [30, BIG_STACK])
    @pytest.mark.parametrize("q", [1, 2])
    def test_stack_bits_do_not_depend_on_the_layout_of_b(self, K, q):
        # the solver passes b as a view of slices-last rows; einsum sums in
        # an order set by its operands' layout, and with q = 1 the SVD path
        # gave other bits for such a b than for a C-ordered copy
        rng = np.random.default_rng(16)
        a = rng.normal(size=(q, 9, K)).transpose(2, 1, 0)
        b = rng.normal(size=(9, K)).T
        x, trunc = top.lstsq_info(a, b)
        want, want_trunc = top.lstsq_info(a, np.ascontiguousarray(b))
        assert np.array_equal(x, want) and trunc == want_trunc

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((4, 7, 3), (4 * 7,)),
        ((4, 7, 3), (4, 6)),
        ((4, 7, 3), (4, 7, 1)),
        ((3, 7), (6,)),
        ((2, 4, 7, 3), (2, 4, 7)),
        ((0, 7, 3), (0, 7)),
    ])
    def test_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ValueError, match="lhs|rhs"):
            top.lstsq_info(np.ones(a_shape), np.ones(b_shape))

    @pytest.mark.parametrize("where", ["a", "b"])
    def test_non_finite_entry_in_one_stacked_system(self, where):
        a, b = np.ones((3, 5, 2)), np.ones((3, 5))
        (a if where == "a" else b)[1, 2, ...] = np.inf
        with pytest.raises(top.NonFiniteError):
            top.lstsq_info(a, b)


class TestStackedQR:
    """Stacks of tall systems reduced in place and solved from their triangles."""

    @staticmethod
    def svd_path(a, b):
        return top._lstsq_svd(a, b)

    @staticmethod
    def triangles(a, b):
        """R and Q^T b of slices-last copies of a and b, reduced in place."""
        return top.reduce_planes(np.ascontiguousarray(a.transpose(2, 1, 0)),
                                 np.ascontiguousarray(b.T))

    def qr_path(self, a, b):
        """``lstsq_reduced`` of the triangles of a and b."""
        return top.lstsq_reduced(*self.triangles(a, b))

    @staticmethod
    def assert_close(x, want):
        # each system's solution to 1e-12 of its norm (scaled, so no norm overflows)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        err = np.linalg.norm((x - want) / scale, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want / scale, axis=1))

    def test_mixed_stack_truncates_as_the_svd_path(self, monkeypatch):
        rng = np.random.default_rng(12)
        p, q = 9, 3
        a, b = rng.normal(size=(BIG_STACK, p, q)), rng.normal(size=(BIG_STACK, p))
        a[0, :, 1] = 0.0  # a zero column
        a[1, :, 2] = a[1, :, 0]  # a repeated column
        ratios = np.geomspace(0.5e-12, 1e-11, 10)  # sigma_min / sigma_max
        for k, ratio in enumerate(ratios, start=2):
            U = np.linalg.qr(rng.normal(size=(p, q)))[0]
            V = np.linalg.qr(rng.normal(size=(q, q)))[0]
            a[k] = U @ np.diag([1.0, 0.3, ratio]) @ V.T
        resolved, svd = [], top._lstsq_svd

        def counted(a, b):
            resolved.append(len(a))
            return svd(a, b)

        monkeypatch.setattr(top, "_lstsq_svd", counted)
        x, trunc = self.qr_path(a, b)
        monkeypatch.undo()
        want, want_trunc = self.svd_path(a, b)
        # the deficient systems and those within the margin of the threshold
        # are re-solved by the SVD of their own triangles, and only they
        assert resolved == [2 + len(ratios)]
        assert trunc == want_trunc == 2 + int(np.sum(ratios <= 1e-12))
        # the SVD of a triangle has the singular values of the system's rows
        # to round-off, and a near-threshold system's solution moves with
        # them by about 1e-16 / (sigma_min / sigma_max) of its norm, so the
        # systems whose bound is certified are compared with the rows' SVD
        R, y = self.triangles(a, b)
        redo = 2 + len(ratios)
        own, _ = self.svd_path(R.transpose(2, 1, 0)[:redo], y.T[:redo])
        assert np.array_equal(x[:redo], own)
        self.assert_close(x[redo:], want[redo:])

    def test_all_fallback_stack_has_the_svd_bits(self):
        # every system is deficient: the stack's solutions are the SVD's of
        # its triangles, bit for bit, and those of its rows to round-off
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(BIG_STACK, 6, 3)), rng.normal(size=(BIG_STACK, 6))
        a[:, :, 2] = a[:, :, 0] - a[:, :, 1]
        x, trunc = self.qr_path(a, b)
        want, want_trunc = self.svd_path(a, b)
        R, y = self.triangles(a, b)
        own, own_trunc = self.svd_path(R.transpose(2, 1, 0), y.T)
        assert trunc == own_trunc == want_trunc == BIG_STACK
        assert np.array_equal(x, own)
        self.assert_close(x, want)

    @pytest.mark.parametrize("a_scale, b_scale", [
        (1e200, 1.0), (1e-200, 1.0), (1.0, 1e200), (1.0, 1e-200), (1e200, 1e200), (1e-200, 1e-200),
    ])
    def test_extreme_magnitudes_solve_as_the_svd_path(self, a_scale, b_scale):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(BIG_STACK, 9, 2)), rng.normal(size=(BIG_STACK, 9))
        a[:, :, 1] *= np.where(np.arange(BIG_STACK) % 2, 1.0, 1e-13)[:, None]  # every other one deficient
        a, b = a_scale * a, b_scale * b
        x, trunc = self.qr_path(a, b)
        want, want_trunc = self.svd_path(a, b)
        assert np.all(np.isfinite(x))
        assert trunc == want_trunc == BIG_STACK // 2
        self.assert_close(x, want)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, value):
        a, b = np.ones((BIG_STACK, 5, 2)), np.ones((BIG_STACK, 5))
        a[BIG_STACK - 1, 4, 1] = value
        with pytest.raises(top.NonFiniteError):
            self.qr_path(a, b)


def test_the_triangle_solve_never_writes_its_triangles():
    # lstsq_reduced re-solves system 0, which has a zero column, by the SVD
    # of its own triangle, and writes neither R nor Q^T b
    rng = np.random.default_rng(17)
    planes, rows = rng.normal(size=(2, 9, BIG_STACK)), rng.normal(size=(9, BIG_STACK))
    planes[1, :, 0] = 0.0
    R, y = top.reduce_planes(planes, rows)
    kept = R.tobytes(), y.tobytes()
    x, trunc = top.lstsq_reduced(R, y)
    assert (R.tobytes(), y.tobytes()) == kept
    want, want_trunc = top._lstsq_svd(R.transpose(2, 1, 0)[:1], y.T[:1])
    assert trunc == want_trunc == 1
    assert np.array_equal(x[0], want[0])


def test_large_stack_takes_the_svd_and_keeps_its_inputs(monkeypatch):
    rng = np.random.default_rng(19)
    planes, rows = rng.normal(size=(2, 9, BIG_STACK)), rng.normal(size=(9, BIG_STACK))
    kept = planes.tobytes(), rows.tobytes()
    solved, svd = [], top._lstsq_svd
    monkeypatch.setattr(top, "_lstsq_svd", lambda a, b: solved.append(len(a)) or svd(a, b))
    x, trunc = top.lstsq_info(planes.transpose(2, 1, 0), rows.T)
    assert solved == [BIG_STACK] >= [top._QR_MIN_STACK]
    assert (planes.tobytes(), rows.tobytes()) == kept
    want, want_trunc = svd(planes.transpose(2, 1, 0), rows.T)
    assert np.array_equal(x, want) and trunc == want_trunc == 0


def test_reduce_planes_peak_memory():
    # the f2 G-row planes at S = 1000 (144 KB) and their right-hand side
    # (72 KB), reduced in place: the reduction holds a temporary of a third
    # of a p x K plane (24 KB) and a few rows of K entries, 67.1 KB; 83.0 KB
    # with half a plane's temporary, 115 KB with a whole plane's
    rng = np.random.default_rng(18)
    a, b = rng.normal(size=(2, 9, 1000)), rng.normal(size=(9, 1000))
    tracemalloc.start()
    try:
        top.reduce_planes(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 68_500


# every column of each system scaled: its sum of squares overflows, underflows
# to zero or to a subnormal; the last two gave the identity reflection or a
# non-finite Q^T b, unscaled
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
def test_reduce_planes_is_safe_at_extreme_scales(scale):
    rng = np.random.default_rng(27)
    K, p, q = 7, 9, 3
    planes, rows = rng.normal(size=(q, p, K)), rng.normal(size=(p, K))
    planes[:, :, ::2] *= scale  # every other system, beside unscaled ones
    Rc, y = top.reduce_planes(planes.copy(), rows.copy())
    assert np.all(np.isfinite(Rc)) and np.all(np.isfinite(y))
    # R^T R = a^T a and R^T Q^T b = a^T b, each system taken at unit scale
    unit = np.where(np.arange(K) % 2, 1.0, 1.0 / scale)
    a, R = planes.transpose(2, 1, 0) * unit[:, None, None], Rc.transpose(2, 1, 0) * unit[:, None, None]
    b, Qtb = rows.T, y.T
    assert np.all(np.tril(R, -1) == 0.0)
    assert np.allclose(R.transpose(0, 2, 1) @ R, a.transpose(0, 2, 1) @ a, rtol=0, atol=1e-12)
    assert np.allclose(
        np.einsum("kji,kj->ki", R, Qtb), np.einsum("kpi,kp->ki", a, b), rtol=0, atol=1e-12
    )


def test_reduce_planes_reduces_each_system():
    # a = Q R with Q orthonormal, so a^T a = R^T R and a^T b = R^T (Q^T b)[:q];
    # a zero column takes the identity reflection and leaves R finite; the
    # reduction writes the copies it is passed, as views of which R and
    # Q^T b come back
    rng = np.random.default_rng(15)
    K, p, q = 7, 9, 3
    planes, rows = rng.normal(size=(q, p, K)), rng.normal(size=(p, K))
    planes[0, :, 0] = 0.0
    planes[2, :, 1] = 0.0
    work, work_rows = planes.copy(), rows.copy()
    Rc, y = top.reduce_planes(work, work_rows)
    assert np.shares_memory(Rc, work) and np.shares_memory(y, work_rows)
    assert Rc.shape == (q, q, K) and y.shape == (q, K)
    assert np.all(np.isfinite(Rc)) and np.all(np.isfinite(y))
    # system k: a_k = planes[:, :, k].T (p x q), R_k = Rc[:, :, k].T
    a, R, b, Qtb = planes.transpose(2, 1, 0), Rc.transpose(2, 1, 0), rows.T, y.T
    assert np.all(np.tril(R, -1) == 0.0)
    assert np.all(R[0, :, 0] == 0.0) and np.all(R[1, :, 2] == 0.0)
    Rt = R.transpose(0, 2, 1)
    assert np.allclose(Rt @ R, a.transpose(0, 2, 1) @ a, rtol=0, atol=1e-12)
    assert np.allclose(
        np.einsum("kji,kj->ki", R, Qtb), np.einsum("kpi,kp->ki", a, b), rtol=0, atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]),
)
def test_unfold_fold_property(I, J, K, seed, mode):
    t = np.random.default_rng(seed).normal(size=(I, J, K))
    assert np.array_equal(top.unfold(t, mode), brute_unfold(t, mode))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_cpd_unfolding_identity_property(I, J, r, seed):
    # stacked CPD slices agree with the unfolding identity unfold1 = A (C kr B)^T
    rng = np.random.default_rng(seed)
    K = 3
    A, B, C = rng.normal(size=(I, r)), rng.normal(size=(J, r)), rng.normal(size=(K, r))
    t = top.stack_slices([(A * C[k][None, :]) @ B.T for k in range(K)])
    lhs = top.unfold(t, 1)
    # column j of the Khatri-Rao product C kr B is kron(C[:, j], B[:, j])
    rhs = A @ np.einsum("kj,lj->klj", C, B).reshape(-1, r).T
    scale = max(1.0, np.abs(lhs).max())
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13 * scale)


class TestPanelSolve:
    """A tall system built per slice is reduced one panel of slices at a time."""

    @staticmethod
    def system(rng, S, p, q, k):
        """Per-slice rows [a | b], p rows of q columns and k right-hand sides."""
        return rng.normal(size=(S * p, q + k)) * rng.uniform(0.1, 10.0, size=q + k)

    @staticmethod
    def rows(ab, p, built=None):
        """The rows of slice panels of ab, or of all of it for None, as new arrays."""
        def rows(sl):
            if built is not None:
                built.append(sl)
            return (ab if sl is None else ab[sl.start * p : sl.stop * p]).copy()

        return rows

    def solve(self, ab, panels, q, p):
        return top.lstsq_panels(self.rows(ab, p), panels, q)

    @pytest.mark.parametrize("n, slice_bytes", [
        (30, 10**6), (199, 10**6), (1000, 8), (1000, 600), (1000, 2000), (250, 2000),
    ])
    def test_slice_panels_split_near_evenly_within_the_budget(self, n, slice_bytes):
        panels = top.slice_panels(n, slice_bytes)
        lengths = [sl.stop - sl.start for sl in panels]
        assert panels[0].start == 0 and panels[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(panels, panels[1:]))
        assert max(lengths) - min(lengths) <= 1
        if n < 2 * top._QR_MIN_STACK:
            assert len(panels) == 1
        else:
            assert min(lengths) >= top._QR_MIN_STACK
            # as few panels as keep each within the budget, where that leaves
            # each as long as a stacked solve's QR path needs
            fits = -(-n * slice_bytes // top._PANEL_BYTES)
            assert len(panels) == min(max(1, fits), n // top._QR_MIN_STACK)

    @pytest.mark.parametrize("q, k", [(4, 1), (2, 3)])
    def test_panels_solve_as_the_whole_system(self, q, k):
        rng = np.random.default_rng(20)
        S, p = 1000, 4
        ab = self.system(rng, S, p, q, k)
        whole, trunc_whole = self.solve(ab, [None], q, p)
        x, trunc = self.solve(ab, top.slice_panels(S, 1000), q, p)
        assert len(top.slice_panels(S, 1000)) > 2
        assert trunc == trunc_whole == 0
        assert np.linalg.norm(x - whole) <= 1e-12 * np.linalg.norm(whole)

    def test_stack_panels_solve_as_the_whole_stack(self):
        rng = np.random.default_rng(21)
        S, K, q = 1000, 3, 4
        ab = rng.normal(size=(K, S, q + 1))

        def rows(sl):
            return (ab if sl is None else ab[:, sl]).copy()

        whole, trunc_whole = top.lstsq_panels(rows, [None], q)
        x, trunc = top.lstsq_panels(rows, top.slice_panels(S, 1000), q)
        assert trunc == trunc_whole == 0
        assert np.linalg.norm(x - whole) <= 1e-12 * np.linalg.norm(whole)

    def test_deficient_stack_truncates_as_the_whole_stack(self):
        # one system of the stack has a repeated column: the SVD of its
        # stacked triangles truncates as that of its whole rows
        rng = np.random.default_rng(24)
        S, K, q = 1000, 3, 4
        ab = rng.normal(size=(K, S, q + 1))
        ab[1, :, 2] = ab[1, :, 0]

        def rows(sl):
            return (ab if sl is None else ab[:, sl]).copy()

        x, trunc = top.lstsq_panels(rows, top.slice_panels(S, 1000), q)
        want, want_trunc = top.lstsq_panels(rows, [None], q)
        assert trunc == want_trunc == 1
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_deficient_system_truncates_as_the_whole_system(self):
        # a zero column and a repeated one: the SVD of the stacked triangles
        # truncates both, as that of the whole system does, and no row is
        # built twice
        rng = np.random.default_rng(22)
        S, p, q = 1000, 4, 5
        ab = self.system(rng, S, p, q, 1)
        ab[:, 1] = 0.0
        ab[:, 3] = ab[:, 2]
        built = []
        panels = top.slice_panels(S, 1000)
        x, trunc = top.lstsq_panels(self.rows(ab, p, built), panels, q)
        want, want_trunc = self.solve(ab, [None], q, p)
        assert built == panels
        assert trunc == want_trunc == 2
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, value):
        rng = np.random.default_rng(23)
        S, p, q = 1000, 4, 3
        ab = self.system(rng, S, p, q, 1)
        ab[-1, 0] = value
        with pytest.raises(top.NonFiniteError):
            self.solve(ab, top.slice_panels(S, 1000), q, p)

    @pytest.mark.parametrize("column", [0, -1])
    @pytest.mark.parametrize("stack, split", [
        (False, False), (False, True), (True, False), (True, True),
    ])
    def test_whole_system_checks_its_rows(self, column, stack, split):
        # a NaN in a or in b of the whole system, one system or a stack of
        # them, raises from the check of [a | b], of the whole system or of
        # the panel that holds it, before its QR
        rng = np.random.default_rng(25)
        S, p, q = 1000, 4, 3
        ab = self.system(rng, S, p, q, 1)
        ab = np.stack([ab, 2.0 * ab]) if stack else ab
        ab[..., S * p - 1, column] = np.nan

        def rows(sl):
            return (ab if sl is None else ab[..., sl.start * p : sl.stop * p, :]).copy()

        with pytest.raises(top.NonFiniteError):
            top.lstsq_panels(rows, top.slice_panels(S, 1000) if split else [None], q)

    def test_whole_system_check_peak_memory(self):
        # the whole system [a | b], 2000 x 5, built before the solve: its
        # finiteness is checked in the array itself, with min and max, and
        # nothing of the system's size is allocated, 2.7 KB; checking the
        # strided views a and b with np.isfinite made numpy buffer a, 73.3 KB
        ab = self.system(np.random.default_rng(26), 500, 4, 4, 1)
        top.lstsq_panels(lambda sl: ab, [None], 4)
        tracemalloc.start()
        try:
            top.lstsq_panels(lambda sl: ab, [None], 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000
