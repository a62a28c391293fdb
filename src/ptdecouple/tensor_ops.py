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
  is solved by one batched SVD.
* A tall system is solved from the triangle of its QR, which has its
  minimizer and, to round-off, its singular values, so a singular value
  within round-off of the threshold may truncate differently than an SVD
  of its full rows would.  A stack of per-slice systems held as column
  planes, slices last (q x p x K), is reduced in place by Householder QR
  across the stack (``reduce_planes``) and its triangles solved by
  ``lstsq_reduced``.  ``slice_panels`` splits slices into panels from a
  byte budget, and ``lstsq_panels`` builds and reduces one panel of rows
  at a time (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
  Comput. 2012), so that memory follows the panel, not the slice count;
  a single panel is reduced by its QR too, and only a system given as
  ``[None]`` is built and solved whole.

Apart from ``reduce_planes`` every function here is pure and never mutates
its inputs, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math

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
    "lstsq_reduced",
    "slice_panels",
    "lstsq_panels",
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


def lstsq_info(a, b, *, finite=False):
    """Minimum-norm least-squares solution of ``a @ x = b`` and its truncation count.

    Singular values at or below ``_RTOL`` times their system's largest are
    truncated, which gives the minimum-norm solution of a rank-deficient
    system; normal equations are never formed.  ``a`` is one system, p x q
    with ``b`` of length p or p x k, or a stack of K systems, K x p x q
    with ``b`` K x p, each solved on its own; a stack returns the K x q
    solutions and the truncations of all its systems summed, solved by
    :func:`_lstsq_svd`.  Neither a nor b is written.

    A non-finite entry raises :class:`NonFiniteError`.  ``finite`` says that
    the caller has checked a and b already, as :func:`lstsq_panels` does on
    the arrays they come from.
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
    if not finite:
        _check_finite(a, b)
    if a.ndim == 2:
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=_RTOL)
        return x, min(a.shape) - int(rank)
    return _lstsq_svd(a, b)


def _check_finite(*arrays):
    """Raise :class:`NonFiniteError` unless every entry of the arrays is finite.

    An array's min and max are both finite exactly when all its entries
    are (they propagate NaN), and unlike np.isfinite they allocate nothing
    of the array's size.  Over a view whose rows are strided numpy buffers
    either, 64 KB at a time, so a caller checks the array a system's views
    share where it can.
    """
    for x in arrays:
        if x.size and not (math.isfinite(x.min()) and math.isfinite(x.max())):
            raise NonFiniteError("non-finite entries in least-squares system")


# Stacks of at least this many tall per-slice systems are reduced by
# reduce_planes and solved by lstsq_reduced, fewer by one batched SVD.
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
# A triangle's back-substitution solution is kept only when its bound on
# sigma_min / sigma_max exceeds _RTOL by this factor.  The computed R is
# the exact factor of rows perturbed at round-off, and R^-1 of a kept
# system is accurate to about 1e-6, so the bound is off by far less than
# this factor: every kept system is one whose singular values the SVD
# would all keep.
_QR_MARGIN = 100.0
# The range of a column's sum of squares within which its reflection is
# formed unscaled: beyond it the sum, or the product that 2 / (v^T v) is
# formed from, over- or underflows.
_SS_MIN, _SS_MAX = 2.0 ** -1022, 2.0 ** 1022


def _lstsq_svd(a, b):
    """Minimum-norm solutions of a K x p x q stack by one batched SVD.

    b is read as a C-contiguous K x p array: einsum's order of summation
    follows the layout of its operands, so this keeps a system's bits
    whatever the layout of the b it came in.  U is dropped before the
    second product, and the coefficients are scaled and truncated in place.
    """
    b = np.ascontiguousarray(b)
    U, sv, Vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > _RTOL * sv[:, :1]
    coef = np.einsum("kpi,kp->ki", U, b)
    del U
    np.divide(coef, sv, out=coef, where=keep)
    coef[~keep] = 0.0
    return np.einsum("kiq,ki->kq", Vt, coef), int(np.sum(~keep))


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
    C-contiguous.

    A non-finite entry raises :class:`NonFiniteError`, and finite planes
    give finite R and Q^T b: as in LAPACK's dlarfg, a system whose column
    has a sum of squares outside [2^-1022, 2^1022] forms its reflection
    from the column scaled by a power of 2, taken from the column's max
    and min, which is exact and leaves the reflection as it is.
    """
    _check_finite(a, b)
    q = len(a)
    with np.errstate(all="ignore"):
        for j in range(q):
            v = a[j, j:]
            ss = np.einsum("pk,pk->k", v, v)
            odd = (ss < _SS_MIN) | (ss > _SS_MAX)
            e = 0
            if odd.any():
                # zero columns are odd too, and keep e = 0
                e = np.where(odd, np.frexp(np.maximum(v.max(axis=0), -v.min(axis=0)))[1], 0)
                # one row at a time, which numpy does not buffer
                for row in v:
                    np.ldexp(row, -e, out=row)
                ss = np.einsum("pk,pk->k", v, v)
            # freed before the reflection's temporaries, which set the peak
            del odd
            x0 = v[0]
            alpha = np.sqrt(ss, out=ss)
            s = np.copysign(alpha, -x0)
            tau = 1.0 / (alpha * (alpha + np.abs(x0)))  # 2 / (v^T v)
            tau[alpha == 0.0] = 0.0
            v[0] -= s
            t = np.einsum("cpk,pk->ck", a[j + 1 :, j:], v) * tau
            tb = np.einsum("pk,pk->k", b[j:], v) * tau
            # one column at a time and in three blocks of rows: a temporary of
            # a third of the column, and operands of one shape, for which
            # numpy allocates no iteration buffers
            h = -(-len(v) // 3)
            for i in range(0, len(v), h):
                vi = v[i : i + h]
                for c, tc in enumerate(t, start=j + 1):
                    a[c, j + i : j + i + h] -= np.einsum("pk,k->pk", vi, tc)
                b[j + i : j + i + h] -= np.einsum("pk,k->pk", vi, tb)
            # column j of R: s, unscaled, on the diagonal and zeros below it
            v[0] = np.ldexp(s, e)
            v[1 : q - j] = 0.0
    return a[:, :q], b[:q]


def lstsq_reduced(R, y):
    """Minimum-norm solutions of the K systems that :func:`reduce_planes` reduced, and their truncations.

    R (q x q x K) and y (q x K) are laid out as :func:`reduce_planes`
    returns them; R_k x = y_k has system k's minimizer and, to round-off,
    its singular values.  Returns x (K x q) and the truncation count.
    R^-1 comes from back-substitution across the stack and x = R^-1 y.
    1 / (||R||_F ||R^-1||_F) is a lower bound on sigma_min / sigma_max; a
    system whose bound is not finite or not above ``_QR_MARGIN * _RTOL``,
    or whose solution is not finite, is solved again by :func:`lstsq_info`
    from its own triangle: rank-deficient and near-threshold systems, and
    those whose entries square beyond the floating-point range.  Every kept
    system is one the SVD would not truncate.  R and y are not written.
    """
    q, _, K = R.shape
    Rt = R.transpose(1, 0, 2)  # Rt[i, j] is entry (i, j) of every system
    with np.errstate(all="ignore"):
        Rinv = np.zeros((q, q, K))
        for i in range(q - 1, -1, -1):
            Rinv[i, i] = 1.0 / Rt[i, i]
            Rinv[i, i + 1 :] = -np.einsum(
                "tk,tjk->jk", Rt[i, i + 1 :], Rinv[i + 1 :, i + 1 :]
            ) * Rinv[i, i]
        x = np.einsum("ijk,jk->ik", Rinv, y)
        kappa = np.sqrt(np.einsum("ijk,ijk->k", Rt, Rt) * np.einsum("ijk,ijk->k", Rinv, Rinv))
        redo = ~((kappa < 1.0 / (_QR_MARGIN * _RTOL)) & np.all(np.isfinite(x), axis=0))
    del Rinv, kappa
    x = np.ascontiguousarray(x.T)
    if not redo.any():
        return x, 0
    # y.T[redo] is a C-contiguous copy, which _lstsq_svd reads as it is
    x[redo], trunc = lstsq_info(R.transpose(2, 1, 0)[redo], y.T[redo], finite=True)
    return x, trunc


# What one panel of a system built per slice may take, in bytes.  Each
# panel costs a fixed number of numpy calls: at f2 S = 1000 a second panel
# of G-row planes cost 0.1-0.3 ms per coefficient update.  With 320 KiB an
# f2 S = 1000 sweep splits the middle W system in three, the last W and
# layer-1 constr systems in two, and the last layer's constr and proj
# systems in four and two.
_PANEL_BYTES = 5 << 16


def slice_panels(n, slice_bytes):
    """Consecutive slice ranges that split n slices into panels built one at a time.

    ``slice_bytes`` is what one slice takes while its panel is built and
    solved.  The panels are of near-equal length, as few as keep each
    within ``_PANEL_BYTES``, but never shorter than ``_QR_MIN_STACK``
    slices, so that a system of fewer than 2 * ``_QR_MIN_STACK`` = 200
    slices is never split and is built and solved whole: its fits keep
    the bits of whole solves.
    """
    size = max(_QR_MIN_STACK, _PANEL_BYTES // slice_bytes)
    k = max(1, min(-(-n // size), n // _QR_MIN_STACK))
    cuts = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def lstsq_panels(rows, panels, q, unit=False):
    """Least-squares solution of a tall system built one panel at a time, and its truncations.

    ``rows(panel)`` returns the rows of one panel as one matrix [a | b]: q
    columns of the system, then its right-hand sides; or as a stack of K
    such matrices, one per independent system, each with one right-hand
    side.  ``panels`` lists what ``rows`` takes; ``[None]`` asks it for
    the whole system.  Returns what :func:`lstsq_info` returns for the
    whole system or stack: x, q x k or K x q, and the truncation count.
    With ``unit`` set, the columns of a single system are first scaled to
    unit norm, and x is returned in the unscaled unknowns.

    ``[None]``: the whole system is solved as built.  One panel or more: each
    panel is replaced by the triangle of its QR as it is built, so that the
    triangles stacked, [a' | b'], have the Gram matrix of [a | b]: a' has
    the singular values and the column norms of a, and a' x = b' the
    minimizer of a x = b.  That small system goes to :func:`lstsq_info`,
    whose truncation rule so applies to the system's singular values as
    the QR carries them, to round-off.  A non-finite entry raises
    :class:`NonFiniteError`; it is found in the [a | b] of the whole system
    or of each panel before its QR, which is contiguous where the views a
    and b are not.
    """
    if panels == [None]:
        ab = rows(None)
        _check_finite(ab)
    else:
        # each panel's rows are freed once their triangle is taken
        ab = np.concatenate([_triangle(rows(p)) for p in panels], axis=-2)
    a, b = _split(ab, q)
    if unit:
        scale = _unit_scale(a)
        # one column at a time: a broadcast product would allocate
        # iteration buffers as large as the system
        for j, u in enumerate(scale.tolist()):
            a[:, j] *= u
    x, trunc = lstsq_info(a, b, finite=True)
    return (x * scale[:, None] if unit else x), trunc


def _triangle(ab):
    """The triangle R of the QR of one panel's rows [a | b], its entries checked first."""
    _check_finite(ab)
    return np.linalg.qr(ab, mode="r")


def _split(ab, q):
    """The views a and b of rows [a | b]: b one column per system of a stack."""
    return ab[..., :q], ab[..., q:] if ab.ndim == 2 else ab[..., q]


def _unit_scale(a):
    """1 / the norm of each column of a, 1 for a zero column.

    The norm of a column whose sum of squares leaves [2^-1022, 2^1022] is
    taken from the column scaled, exactly, by a power of 2 from its max.
    """
    ss = np.einsum("ij,ij->j", a, a)
    norms = np.sqrt(ss)
    for j in np.flatnonzero((ss < _SS_MIN) | (ss > _SS_MAX)).tolist():
        e = np.frexp(np.max(np.abs(a[:, j])))[1]
        norms[j] = np.ldexp(np.linalg.norm(np.ldexp(a[:, j], -e)), e)
    norms[norms == 0.0] = 1.0
    return 1.0 / norms
