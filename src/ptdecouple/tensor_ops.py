"""Dense third-order tensor and matrix primitives.

Conventions used throughout the package:

* A third-order tensor of shape ``(I, J, K)`` is a ``numpy.ndarray`` whose
  logical linear layout is column-major over mode 1: element ``(i, j, k)``
  sits at flat position ``i + I*j + I*J*k``, and ``vec3`` follows this
  layout exactly.
* Mode-n unfoldings follow the Kolda-Bader convention: the remaining
  indices are ordered with earlier modes varying fastest, so
  ``unfold(X, 1)`` is ``I x (J*K)`` with column index ``j + J*k``,
  ``unfold(X, 2)`` is ``J x (I*K)`` with column index ``i + I*k`` and
  ``unfold(X, 3)`` is ``K x (I*J)`` with column index ``i + I*j``.
* ``vec`` stacks matrix columns (column-major), which is the ordering
  that satisfies ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.
* All public indices are 0-based.
* Least squares: ``lstsq_info`` is the one solver of every subproblem of a
  sweep.  It takes one system or a stack of independent ones (a leading
  axis on both sides), returns minimum-norm solutions with singular values
  at or below 1e-12 of their system's largest truncated, and counts the
  truncations, so a caller that wraps it sees every one of them.  A stack
  is solved by one batched SVD, or, when it holds at least
  ``_QR_MIN_STACK`` tall systems and its caller passes a way to build them
  again, by Householder QR run across the whole stack in the array the
  systems were built in (``reduce_planes``, column planes with the slice
  axis last and contiguous, q x p x K); a system that QR cannot certify as
  clear of the truncation threshold is re-solved by the SVD from rows built
  again, so both paths truncate the same singular values.

Apart from ``reduce_planes`` and a ``lstsq_info`` call given ``rows``,
every function here is pure and never mutates its inputs, so concurrent
use needs no synchronization.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteError",
    "stack_slices",
    "unfold",
    "vec",
    "vec3",
    "fro_norm",
    "lstsq_info",
    "reduce_planes",
]


class NonFiniteError(ValueError):
    """A least-squares system or a basis input holds a non-finite value."""


def stack_slices(mats):
    """Stack a sequence of equally-shaped matrices into an (I, J, K) tensor."""
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValueError("need at least one slice")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValueError(f"inconsistent slice shapes: {m.shape} != {shape}")
    return np.stack(mats, axis=2)


def unfold(t, mode):
    """Mode-n unfolding of a third-order tensor (Kolda-Bader ordering).

    Parameters
    ----------
    t : ndarray, shape (I, J, K)
    mode : int
        1, 2 or 3.

    Returns
    -------
    ndarray
        ``I x (J*K)``, ``J x (I*K)`` or ``K x (I*J)`` matrix.
    """
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise ValueError(f"invalid mode {mode}, must be 1, 2 or 3")
    return np.reshape(
        np.moveaxis(t, mode - 1, 0), (t.shape[mode - 1], -1), order="F"
    )


def vec(m):
    """Column-major vectorization of a matrix."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m.reshape(-1, order="F")


def vec3(t):
    """Vectorize a third-order tensor in its linear layout.

    Equal to the concatenation of ``vec(t[:, :, k])`` over k, and
    to ``vec(unfold(t, 1))``.
    """
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t.reshape(-1, order="F")


def fro_norm(x):
    """Frobenius norm: square root of the sum of squared entries."""
    x = np.asarray(x)
    return float(np.sqrt(np.sum(x * x)))


# singular values at or below this fraction of their system's largest are
# truncated by every least-squares solve
_RTOL = 1e-12


def lstsq_info(a, b, rows=None):
    """Minimum-norm least-squares solution of ``a @ x = b`` and its truncation count.

    Singular values at or below ``_RTOL`` times their system's largest are
    truncated, which gives the minimum-norm solution of a rank-deficient
    system; normal equations are never formed.  ``a`` is one system, p x q
    with ``b`` of length p or p x k, or a stack of K systems, K x p x q
    with ``b`` K x p, each solved on its own; a stack returns the K x q
    solutions and the truncations of all its systems summed, solved by
    :func:`_lstsq_svd`, which never writes a or b.

    A caller that can build systems again may pass ``rows``, where
    ``rows(idx)`` returns systems idx of the stack and their right-hand
    sides as they are now.  A stack of at least ``_QR_MIN_STACK`` systems
    with p >= q then goes through :func:`_lstsq_qr`, which reduces a and b
    in place and re-solves from those rows; a and b are best views of
    slices-last planes (``a.transpose(2, 1, 0)`` and ``b.T``
    C-contiguous), and hold scratch afterwards.  The two paths give the
    same truncations and agree to round-off.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim not in (2, 3) or 0 in a.shape:
        raise ValueError(f"lhs must be a non-empty matrix or stack of matrices, got {a.shape}")
    if a.ndim == 3:
        fits = b.shape == a.shape[:2]
    else:
        fits = b.ndim in (1, 2) and b.shape[0] == a.shape[0]
    if not fits:
        raise ValueError(f"rhs of shape {b.shape} does not fit lhs of shape {a.shape}")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise NonFiniteError("non-finite entries in least-squares system")
    if a.ndim == 2:
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=_RTOL)
        return x, min(a.shape) - int(rank)
    K, p, q = a.shape
    if rows is not None and K >= _QR_MIN_STACK and p >= q:
        return _lstsq_qr(a.transpose(2, 1, 0), b.T, rows)
    return _lstsq_svd(a, b)


# Stacks of at least this many tall systems, given rows, take the QR path.
# Median time of one stacked solve, QR / SVD, K x p x q on one BLAS thread,
# the stack a view of slices-last planes as the sweep passes it: 30x9x2
# 0.89, 30x4x2 0.96, 30x9x3 0.82, 50x9x2 0.72, 64x9x2 0.56, 100x9x2 0.37,
# 200x9x2 0.21, 1000x9x2 0.08, 1000x9x3 0.07, 1000x12x5 0.06; a few tall
# systems lose (2x2000x4 2.9, 3x1000x4 2.5), since every QR step then runs
# on rows of K entries.  The SVD makes one LAPACK call per system and QR a
# fixed number of numpy calls per column, so QR wins as K grows; at K = 30
# it gains little, and 100 keeps the S = 30 stacks on the SVD with room to
# spare.
_QR_MIN_STACK = 100
# QR keeps a system's solution only when its bound on sigma_min / sigma_max
# exceeds _RTOL by this factor.  The computed R is the exact factor of rows
# perturbed at round-off, and R^-1 of a kept system is accurate to about
# 1e-6, so the bound is off by far less than this factor: every kept
# system is one whose singular values the SVD would all keep.
_QR_MARGIN = 100.0


def _lstsq_svd(a, b):
    """Minimum-norm solutions of a K x p x q stack by one batched SVD.

    b is read as a C-contiguous K x p array: einsum's order of summation
    follows the layout of its operands, so this keeps a system's bits
    whatever the layout of the b it came in.
    """
    b = np.ascontiguousarray(b)
    U, sv, Vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > _RTOL * sv[:, :1]
    coef = np.einsum("kpi,kp->ki", U, b) / np.where(keep, sv, 1.0)
    return np.einsum("kiq,ki->kq", Vt, np.where(keep, coef, 0.0)), int(np.sum(~keep))


def reduce_planes(a, b):
    """R and Q^T b of K systems held as column planes with the slice axis last.

    ``a`` is q x p x K, a[j, :, k] column j of system k (p >= q), and ``b``
    is p x K, b[:, k] the right-hand side of system k; both are reduced in
    place.  Returns R (q x q x K), R[j, :, k] column j of system k's upper
    triangular factor (a_k = Q_k R_k), and the first q rows of Q^T b
    (q x K), as views of a and b, whose other entries are left as scratch.
    For every x, ||a_k x - b_k||^2 equals ||R_k x - (Q_k^T b_k)[:q]||^2
    plus a term that does not depend on x.  Reflection j zeroes column j of
    every system below row j at once, and the same reflections applied to
    b give Q^T b (Golub & Van Loan, *Matrix Computations*, 5.1-5.2).  A
    column that is zero below row j gets the identity reflection.  Every
    update reads and writes whole rows of K entries, so a and b are best
    C-contiguous.  Over- and underflow are not trapped: where alpha**2
    underflows, 2 / (v^T v) overflows and turns that system's entries of
    Q^T b non-finite, which a caller must check.
    """
    q = len(a)
    with np.errstate(all="ignore"):
        for j in range(q):
            v = a[j, j:]
            x0 = v[0]
            alpha = np.sqrt(np.einsum("pk,pk->k", v, v))
            s = np.copysign(alpha, -x0)
            tau = 1.0 / (alpha * (alpha + np.abs(x0)))  # 2 / (v^T v)
            tau[alpha == 0.0] = 0.0
            v[0] -= s
            t = np.einsum("cpk,pk->ck", a[j + 1 :, j:], v) * tau
            tb = np.einsum("pk,pk->k", b[j:], v) * tau
            # one column at a time: a single p x K temporary, and operands
            # of one shape, for which numpy allocates no iteration buffers
            for c, tc in enumerate(t, start=j + 1):
                a[c, j:] -= np.einsum("pk,k->pk", v, tc)
            b[j:] -= np.einsum("pk,k->pk", v, tb)
            # column j of R: s on the diagonal and zeros below it
            v[0] = s
            v[1 : q - j] = 0.0
    return a[:, :q], b[:q]


def _lstsq_qr(a, b, rows):
    """Solutions of the K systems held in planes a and b by Householder QR.

    a is q x p x K and b p x K, laid out as in :func:`reduce_planes`;
    :func:`reduce_planes` reduces them in place to R and Q^T b, with the
    slice axis last; R^-1 comes from back-substitution across the stack and
    x = R^-1 (Q^T b)[:q].  R has the singular values of its system, so
    1 / (||R||_F ||R^-1||_F) is a lower bound on sigma_min / sigma_max.  A
    system whose bound is not finite or not above ``_QR_MARGIN * _RTOL``,
    or whose solution is not finite, is re-solved by :func:`_lstsq_svd`
    from its original rows, ``rows(idx)``: rank-deficient and
    near-threshold systems, and those whose reflections over- or
    underflow.  Every kept system is one the SVD would not truncate, so
    the count is the SVD path's.
    """
    Rc, y = reduce_planes(a, b)
    q, _, K = Rc.shape
    R = Rc.transpose(1, 0, 2)  # R[i, j] is entry (i, j) of every system
    with np.errstate(all="ignore"):
        Rinv = np.zeros((q, q, K))
        for i in range(q - 1, -1, -1):
            Rinv[i, i] = 1.0 / R[i, i]
            Rinv[i, i + 1 :] = -np.einsum(
                "tk,tjk->jk", R[i, i + 1 :], Rinv[i + 1 :, i + 1 :]
            ) * Rinv[i, i]
        x = np.einsum("ijk,jk->ik", Rinv, y)
        kappa = np.sqrt(np.einsum("ijk,ijk->k", R, R) * np.einsum("ijk,ijk->k", Rinv, Rinv))
        ok = (kappa < 1.0 / (_QR_MARGIN * _RTOL)) & np.all(np.isfinite(x), axis=0)
    x = np.ascontiguousarray(x.T)
    redo = np.flatnonzero(~ok)
    if not redo.size:
        return x, 0
    x[redo], trunc = _lstsq_svd(*rows(redo))
    return x, trunc
