"""Levenberg-Marquardt descent of the decoupling objective over the model parameters.

This module owns the descent that the start search (:mod:`.search`) runs
from each of its draws: the parameter vector (:func:`lm_pack`), the
residual and its derivatives (``_LMProblem``), and :func:`lm_descent`,
which takes weights and coefficients and whose :class:`LMResult` holds
those it ended at.  Neither holds an array that grows with S: the G and R
of the state the sweeps of :mod:`.solver` start from are written by
:mod:`.solver`, for the search's pick alone.

The objective is the sweeps' own, over the weights and coefficients, with
the analytic Jacobian through the layer inputs.  Every value comes from
the model's layer pass and chain kernel (``model.layer_pass``,
``model.right_chains``).  A descent evaluates each trial point once; the
pass of an accepted point is its tape, and one adjoint (reverse-mode)
kernel over the tape gives every derivative of the descent: seeded with
unit vectors, the rows of the residual's Jacobian chunk by chunk of
sampling points, from which the normal matrix is summed; seeded with a
residual, its product with the Jacobian's transpose.  Its cost is set by
the n(m+1) fitted values per point, not by the parameter count.

Each operand is built once over the span on which it is constant: the
order of the parameter blocks is written by one function (``_lm_blocks``),
which :func:`lm_pack` ravels and ``_lm_layout`` measures; the kernel's
unit seeds are built once per descent; and the tape holds each layer's
Z_l, the kernel's operand of W_l, built once per accepted point and
sliced by the kernel chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _der, derivative_rows, layer_pass, right_chains
from .solver import _FLOOR_RTOL, SolverDivergenceError

__all__ = ["LMResult", "lm_pack", "lm_descent"]

# iteration cap of one descent inside the start search
_LM_MAX_ITERS = 150
# a descent stops as stalled once its objective fell by less than this
# factor over the last window of iterations
_LM_STALL_WINDOW = 15
_LM_STALL_FACTOR = 0.9
# damping of the normal matrix scaled to unit diagonal
_LM_MU0 = 1e-3
_LM_MU_MIN = 1e-12
_LM_MU_MAX = 1e10
# geodesic acceleration: probe length and largest accepted |a| / |v|
_LM_GEO_H = 0.1
_LM_GEO_ALPHA = 0.75
# sampling points per chunk of the normal-matrix accumulation
_LM_CHUNK_ROWS = 16
# sampling points per pass of the adjoint kernel in _LMProblem.apply_t, a
# whole number of chunks: the kernel's fixed cost is paid once per pass, its
# temporaries grow with the pass.  The protocols' S = 30 runs one pass.  A
# serial f2 search peaks at 179 KB at S = 100 and 1.30 MB at S = 1000, as
# with a pass per chunk; passes of 128 points raised the first to 210 KB, one
# pass over all points the second to 1.81 MB.
_LM_PASS_ROWS = 4 * _LM_CHUNK_ROWS


@dataclass
class LMResult:
    """Outcome of one Levenberg-Marquardt descent.

    ``weights`` (W_0..W_L) and ``coeffs`` (c_1..c_L) are the parameters it
    ended at, ``objective`` is the j_term + lam * f_term of the state
    they give (G and R the structured factors of the coefficients) and
    ``stop_reason`` one of "converged" (fit to round-off), "stalled" or
    "max_iters".
    """

    weights: list
    coeffs: list
    objective: float
    iterations: int
    stop_reason: str


def _lm_blocks(weights, coeffs):
    """The free blocks of the model parameters, in the order W_0, c_1, W_1, ..., c_L, W_L.

    c_l drops its constant column for l < L (those constants are frozen),
    the last layer keeps all of its coefficients.  This is the order in
    which the blocks enter the model, and the one place that writes it:
    :func:`lm_pack` ravels the blocks and :func:`_lm_layout` measures them.
    """
    free = [c[:, 1:] for c in coeffs[:-1]] + [coeffs[-1]]
    return [weights[0]] + [b for c, W in zip(free, weights[1:]) for b in (c, W)]


def lm_pack(weights, coeffs):
    """Free model parameters as one vector: the blocks of :func:`_lm_blocks`,
    each flattened row-major, one after another."""
    return np.concatenate([np.ravel(b) for b in _lm_blocks(weights, coeffs)])


def _lm_layout(weights, coeffs):
    """(start, stop, shape) of every block of the :func:`lm_pack` vector, in order."""
    blocks = _lm_blocks(weights, coeffs)
    stops = np.cumsum([b.size for b in blocks]).tolist()
    return [(stop - b.size, stop, b.shape) for stop, b in zip(stops, blocks)]


def _lm_unpack(theta, layout, coeffs):
    """Inverse of :func:`lm_pack` along its :func:`_lm_layout`: (weights, coeffs) lists.

    The frozen constants of the layers below the last are copied from
    ``coeffs``.
    """
    blocks = [theta[a:b].reshape(shape) for a, b, shape in layout]
    inner = [np.concatenate([c[:, :1], b], axis=1) for c, b in zip(coeffs, blocks[1:-2:2])]
    return blocks[::2], inner + [blocks[-2]]


class _LMProblem:
    """Residual r = [vec(J - Jhat); sqrt(lam) vec(F - Fhat)] of the model
    with parameters theta (see :func:`lm_pack`), entries in slice-major order, and
    products with M = -dr/dθ, the derivative of the fitted values.

    One problem serves one descent: its layout of theta, its chunks and
    its unit seeds (``unit_seeds``, see ``_unit_seeds``) are built once.
    A point theta is evaluated once: ``residual(theta, keep=True)`` keeps
    its pass and ``tape`` turns that pass into the tape.  One adjoint
    kernel over the tape, ``_rows``, serves every derivative: seeded with
    unit vectors it gives the rows of M, which ``linearize`` sums into the
    normal matrix one chunk of ``_LM_CHUNK_ROWS`` points at a time and
    ``jacobian`` stacks; seeded with y it gives M.T y (``apply_t``, and so
    ``curvature``).  A 16-point chunk of f1's rows is 21.5 KB, and the
    kernel's temporaries stay under 18 KB beside it.
    """

    def __init__(self, weights, coeffs, data, lam):
        self.coeffs = coeffs
        self.layout = _lm_layout(weights, coeffs)
        # the slice-first J, F's rows and the points, of a ``solver.FitData``
        self.j_slices, self.f_rows, self.points = data.j_slices, data.f_matrix.T, data.points
        self.root_lam = np.sqrt(lam)
        # the normal matrix is accumulated over chunks of sampling points,
        # which bounds the memory of the derivative arrays whatever S is
        S = data.shape[2]
        self.chunks = [slice(i, i + _LM_CHUNK_ROWS) for i in range(0, S, _LM_CHUNK_ROWS)]
        self.passes = [slice(i, i + _LM_PASS_ROWS) for i in range(0, S, _LM_PASS_ROWS)]
        # the same for every point of the descent
        self.unit_seeds = self._unit_seeds()

    def model(self, theta):
        return _lm_unpack(theta, self.layout, self.coeffs)

    def residual(self, theta, keep=False):
        """r at theta; with ``keep=True`` also the pass it came from, for ``tape``."""
        weights, coeffs = self.model(theta)
        layers, f_hat = layer_pass(weights, coeffs, self.points)
        chain = right_chains(weights, [t.dg for t in layers], len(weights))
        r = np.concatenate([
            (self.j_slices - chain[-1]).ravel(), self.root_lam * (self.f_rows - f_hat).ravel()
        ])
        return (r, (weights, coeffs, layers, chain)) if keep else r

    @staticmethod
    def tape(kept):
        """The tape of a kept pass: per layer the power rows, Z_l^T, g_l',
        g_l'', V_l and the derivative rows at every point.

        Z_l = [g_l | g_l' V_l] (see ``_rows``) is held as the kernel's operand
        of W_l, its transpose, (1 + m) x r per point, built once per point of
        the descent; the tape keeps g_l and g_l' V_l in no other form.
        """
        weights, coeffs, layers, chain = kept
        return weights, [
            (t.powers, np.concatenate([t.g[:, None], np.swapaxes(t.dg[:, :, None] * V, 1, 2)], 1),
             t.dg, np.einsum("sji,ji->sj", t.powers[..., :-2], _der(_der(c))), V,
             derivative_rows(t.powers))
            for t, c, V in zip(layers, coeffs, chain)
        ]

    def _rows(self, tape, sl, seeds):
        """The kernel: rows of M at the points sl for K seeds per point, cs x K x P.

        Per point, X_1 = W_0 [x | I] and X_{l+1} = W_l Z_l with
        Z_l = [g_l | g_l' V_l], so that X_{L+1} = [Fhat | Jhat].  Seed k at
        point s is an adjoint of X_{L+1}[s] (``seeds``: cs x n x K x (1+m),
        or 1 x n x K x (1+m) for seeds common to all points), and row (s, k)
        is the gradient of <seed, X_{L+1}[s]> over theta, by one adjoint
        pass of the tape's rows.  Every step is a stacked matmul of one
        point's matrices, over all K seeds at once, which allocates no
        iteration buffers; no point's rows depend on another point.  The
        operand of W_l, Z_l^T, is read from the tape.
        """
        weights, steps = tape
        x = self.points[sl]
        cs, m = x.shape
        out = np.empty((cs, seeds.shape[2], self.layout[-1][1]))
        Y = seeds  # the adjoint of X_{l+1}, a K x (1+m) matrix per point and row
        L = len(steps)
        for l in range(L, 0, -1):
            # V_1 = W_0 is one matrix for all points; every other array has
            # a row per point
            powers, Zt, g1, ddg, V, dpw = (a if len(a) == 1 else a[sl] for a in steps[l - 1])
            W = weights[l]
            r = W.shape[1]
            i0 = 0 if l == L else 1
            w = powers.shape[2] - i0
            np.matmul(Y, Zt[:, None], out=self._block(out, 2 * l))
            # then the adjoint of Z_l.  Its row j, [g_j | g_j' V_j], is linear
            # in the power rows p_j and the derivative rows d_j of u_j, with
            # weights c_j, so T_j = [[g_j', 0, p_j], [g_j'' V_j^T, g_j' I, V_j^T d_j]]
            # maps the row's adjoint to [u_bar_j | V_bar_j] and c_bar_j
            Y = (W.T @ Y.reshape(len(Y), len(W), -1)).reshape(len(Y), r, -1, 1 + m)
            T = np.zeros((cs, r, 1 + m, 1 + m + w))
            np.einsum("...ii->...i", T[..., : 1 + m])[...] = g1[..., None]
            T[:, :, 0, 1 + m :] = powers[..., i0:]
            np.matmul(V[..., None], ddg[..., None, None], out=T[:, :, 1:, :1])
            np.matmul(V[..., None], dpw[:, :, None], out=T[:, :, 1:, 2 + m - i0 :])
            np.matmul(Y, T[..., 1 + m :], out=self._block(out, 2 * l - 1))
            Y = Y @ T[..., : 1 + m]
            del T  # before the next layer's arrays exist
        X_t = np.empty((cs, 1 + m, m))
        X_t[:, 0] = x
        X_t[:, 1:] = np.eye(m)
        np.matmul(Y, X_t[:, None], out=self._block(out, 0))
        return out

    def _block(self, out, block):
        """The columns of ``out`` that hold a block of theta, as a view cs x rows x K x cols."""
        a, b, shape = self.layout[block]
        return out[..., a:b].reshape(out.shape[:2] + shape).swapaxes(1, 2)

    def _unit_seeds(self):
        """The kernel's seeds for the rows of M: the unit vectors of a point's
        n*m Jacobian entries and then of its n values, the latter scaled by
        sqrt(lam), in the order of r's entries at each point."""
        n, m = self.j_slices.shape[1:]
        seeds = np.zeros((1, n, n * m + n, 1 + m))
        seeds[0, :, : n * m, 1:] = np.eye(n * m).reshape(-1, n, m).swapaxes(0, 1)
        seeds[0, :, n * m :, 0] = self.root_lam * np.eye(n)
        return seeds

    def linearize(self, tape, r):
        """(H, g): the normal matrix M.T M and the gradient M.T r at the tape's point,
        summed over chunks of the kernel's rows of M, seeded with the
        descent's ``unit_seeds``."""
        nj = self.j_slices.size
        # r's entries at each point, in the order of its rows of M
        r_pts = np.concatenate([r[:nj].reshape(len(self.points), -1),
                                r[nj:].reshape(self.f_rows.shape)], axis=1)
        P = self.layout[-1][1]
        H = g = None
        for sl in self.chunks:
            M = self._rows(tape, sl, self.unit_seeds).reshape(-1, P)
            if H is None:
                # the first chunk's products are the sums so far, so no
                # P x P zeros sit beside the first kernel pass
                H, g = M.T @ M, M.T @ r_pts[sl].ravel()
            else:
                # one P x P temporary at a time
                H += M.T @ M
                g += M.T @ r_pts[sl].ravel()
            del M  # before the next chunk's rows exist
        return H, g

    def jacobian(self, theta):
        """M = -dr/dθ as a dense (S*n*m + S*n) x P matrix: the kernel's rows, stacked."""
        tape = self.tape(self.residual(theta, keep=True)[1])
        rows = np.concatenate([self._rows(tape, sl, self.unit_seeds) for sl in self.chunks])
        nm = self.j_slices[0].size
        return np.concatenate([rows[:, :nm].reshape(-1, theta.size),
                               rows[:, nm:].reshape(-1, theta.size)])

    def curvature(self, theta, v, tape, g, Hv):
        """M.T f_vv, f_vv the second directional derivative of the fitted values along v.

        r(theta + h v) = r - h M v - (h^2/2) f_vv + O(h^3) with M.T r = g and
        M.T M v = H v, so M.T f_vv ~ (2/h) ((g - M.T r(theta + h v)) / h - H v).
        """
        r_probe = self.residual(theta + _LM_GEO_H * v)
        return (2.0 / _LM_GEO_H) * ((g - self.apply_t(tape, r_probe)) / _LM_GEO_H - Hv)

    def apply_t(self, tape, y):
        """M.T @ y: the kernel seeded with y, in one pass over up to
        ``_LM_PASS_ROWS`` points.

        Its rows, one per point, are summed chunk by chunk in the order of
        ``linearize``'s chunks, which keeps the bits of running the kernel
        chunk by chunk: a point's row does not depend on the other points.
        """
        nj = self.j_slices.size
        seeds = np.concatenate([self.root_lam * y[nj:].reshape(self.f_rows.shape)[..., None],
                                y[:nj].reshape(self.j_slices.shape)], axis=2)[:, :, None]
        total = np.zeros(self.layout[-1][1])
        for sl in self.passes:
            rows = self._rows(tape, sl, seeds[sl])
            for i in range(0, len(rows), _LM_CHUNK_ROWS):
                total += rows[i : i + _LM_CHUNK_ROWS].sum(axis=(0, 1))
        return total


def lm_descent(weights, coeffs, data, lam, poll=None):
    """Levenberg-Marquardt descent of the objective from the weights and coefficients.

    The parameters are W_0..W_L and every coefficient except the frozen
    constants of the layers below the last (see :func:`lm_pack`); the
    residual is r = [vec(J - Jhat); sqrt(lam) vec(F - Fhat)] with Jhat and
    Fhat evaluated from the weights and coefficients, so that r @ r equals
    ``objective(...)[2]`` of the state with the G and R they give; its
    Jacobian is analytic.  ``data`` is the run's ``solver.FitData``, whose
    slice-first J and sums of squares every descent of the run shares.

    Each step solves the damped Gauss-Newton system on the normal matrix
    scaled to unit diagonal, with Nielsen's damping update and geodesic
    acceleration (Transtrum & Sethna), which carries the descent through
    the narrow curved valleys that leave plain LM crawling near an exact
    fit.  The damping never drops below 1e-12, which keeps the steps off
    the directions of the model's scaling ambiguities.  A trial step that
    overflows counts as a failed step.

    An iteration runs two layer passes, the acceleration's probe and the
    trial point, and one adjoint pass (see ``_LMProblem.curvature``).  An
    accepted trial's pass becomes the tape of the next linearization, so
    an accepted point is never evaluated again; a rejected one builds no
    tape, and neither does the point at which the descent stops.

    Returns the :class:`LMResult` of the point it stops at (the last
    accepted one, or the start): its weights and coefficients, and no G or
    R.  Stops once the objective is at most 1e-20 of
    ||J||^2 + lam ||F||^2 ("converged"; ``solver._FLOOR_RTOL``, the floor
    at which a fit from a given start stops too), once it fell by less than
    10% over 15 iterations or the damping ran away ("stalled"), or after
    150 iterations ("max_iters").
    A non-finite objective or Jacobian at an accepted point raises
    SolverDivergenceError.  ``poll``, if given, is called after each
    iteration that does not stop the descent; once it returns true the
    descent is dropped and returns None.

    Invariant, which the start search's pick relies on: a descent ends
    "converged" exactly when the objective it returns is at most 1e-20 of
    a scale set by the data and lam alone, so below every start's that
    ends otherwise.
    """
    prob = _LMProblem(weights, coeffs, data, lam)
    theta = lm_pack(weights, coeffs)
    scale = data.jj + lam * data.ff
    with np.errstate(all="ignore"):
        r, trial = prob.residual(theta, keep=True)
    f = float(r @ r)
    history = [f]
    mu, nu = _LM_MU0, 2.0
    stop_reason = "max_iters"
    iterations = 0
    for it in range(1, _LM_MAX_ITERS + 1):
        iterations = it
        if trial is not None:
            # the descent goes on from a new point, the start or an accepted
            # trial: linearize it, after dropping the old system and tape,
            # which would add to the peak memory of the new linearization
            H = g = inv = tape = None
            with np.errstate(all="ignore"):
                tape, trial = prob.tape(trial), None
                H, g = prob.linearize(tape, r)
            if not (np.isfinite(f) and np.all(np.isfinite(H)) and np.all(np.isfinite(g))):
                raise SolverDivergenceError(
                    f"LM descent became non-finite at iteration {it}", []
                )
            d = np.sqrt(np.diag(H))
            d[d == 0.0] = 1.0
        damped = H / np.outer(d, d)
        damped.flat[:: theta.size + 1] += mu
        inv = np.linalg.inv(damped)
        del damped
        v = (inv @ (g / d)) / d
        Hv = H @ v
        pred = 2.0 * (v @ g) - v @ Hv
        step = v
        with np.errstate(all="ignore"):
            a = -(inv @ (prob.curvature(theta, v, tape, g, Hv) / d)) / d
            if np.all(np.isfinite(a)) and (
                2.0 * np.linalg.norm(a * d) <= _LM_GEO_ALPHA * np.linalg.norm(v * d)
            ):
                step = v + 0.5 * a
            r_new, trial = prob.residual(theta + step, keep=True)
            f_new = float(r_new @ r_new)
        rho = (f - f_new) / pred if pred > 0 else -1.0
        if np.isfinite(f_new) and rho > 0:
            theta = theta + step
            r, f = r_new, f_new
            mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3), _LM_MU_MIN)
            nu = 2.0
        else:
            trial = None  # a rejected trial point builds no tape
            mu *= nu
            nu *= 2.0
        history.append(f)
        if f <= _FLOOR_RTOL * scale:
            stop_reason = "converged"
            break
        if mu > _LM_MU_MAX or (
            it >= _LM_STALL_WINDOW and f > _LM_STALL_FACTOR * history[-1 - _LM_STALL_WINDOW]
        ):
            stop_reason = "stalled"
            break
        if poll is not None and poll():
            return None
    return LMResult(*prob.model(theta), f, iterations, stop_reason)
