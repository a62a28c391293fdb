"""Monomial basis and the structure matrices tying factor matrices to coefficients.

The internal function of each neuron is a polynomial

    g(u) = c_0 + c_1 * u + c_2 * u**2 + ... + c_d * u**d

stored as the ascending coefficient vector ``(c_0, ..., c_d)`` of length
``d + 1``.  The structure matrices built here express the derivative factor
columns and the function-value factor columns as linear maps of those
coefficient vectors:

* ``build_X``:  rows ``(0, 1, 2u, ..., d*u**(d-1))`` so that a factor column
  of derivative evaluations equals ``X_j @ c_j``.  The leading zero column
  carries the constant coefficient, which never influences derivatives.
* ``build_Y``:  rows ``(1, u, u**2, ..., u**d)`` so that a column of
  function evaluations equals ``Y_j @ c_j``.
* ``build_per_slice_X`` / ``coeff_block_matrix``:  the per-sample block-
  diagonal factorization ``D = X_s @ C`` of a diagonal derivative matrix.

Every builder takes the degree d as a plain int; ``build_X`` and ``build_Y``
return one r x S x (d+1) array whose entry j is neuron j's S x (d+1) block.
Their rows come from ``model.power_rows`` and ``model.derivative_rows``, so
they are bit for bit the rows of the model's layer pass.
"""

from __future__ import annotations

import numpy as np

from .model import derivative_rows, power_rows
from .tensor_ops import NonFiniteError

__all__ = [
    "build_X",
    "build_Y",
    "build_per_slice_X",
    "coeff_block_matrix",
]


def _check_inputs(u, ndim):
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("non-finite values in basis inputs")
    if u.ndim != ndim:
        raise ValueError(f"basis inputs must have ndim={ndim}, got ndim={u.ndim}")
    return u


def build_X(u_samples, degree):
    """Derivative structure blocks for one layer.

    Parameters
    ----------
    u_samples : ndarray, shape (S, r)
        Layer inputs per sampling point and neuron.
    degree : int

    Returns
    -------
    ndarray, shape (r, S, degree + 1)
        Block j has row s equal to ``(0, 1, 2u, ..., d*u**(d-1))`` at
        ``u = u_samples[s, j]``.
    """
    u = _check_inputs(u_samples, 2)
    rows = derivative_rows(power_rows(u.T, degree))
    return np.concatenate([np.zeros(rows.shape[:2] + (1,)), rows], axis=2)


def build_Y(u_samples, degree):
    """Function-value structure blocks for the last layer, r x S x (d+1).

    Block j has row s equal to ``(1, u, ..., u**d)`` at ``u = u_samples[s, j]``.
    """
    u = _check_inputs(u_samples, 2)
    return power_rows(u.T, degree)


def build_per_slice_X(u_sample, degree):
    """Block-diagonal row layout of derivative rows for one sampling point.

    Returns the ``r x r*(d+1)`` matrix ``X_s`` with
    ``X_s @ coeff_block_matrix(C) == diag(g'(u))`` exactly: row j holds
    neuron j's ``build_X`` row in block j.
    """
    u = _check_inputs(u_sample, 1)
    r = u.shape[0]
    out = np.zeros((r, r, degree + 1))
    out[np.arange(r), np.arange(r)] = build_X(u[None], degree)[:, 0]
    return out.reshape(r, -1)


def coeff_block_matrix(coeffs):
    """Stack per-neuron coefficient vectors into the block-diagonal column matrix.

    ``coeffs`` is ``r x (d+1)`` with ascending coefficients per row; the
    result is ``r*(d+1) x r`` with column j holding ``coeffs[j]`` in block j.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"coeffs must be r x (d+1), got ndim={c.ndim}")
    r, w = c.shape
    out = np.zeros((r * w, r))
    for j in range(r):
        out[j * w : (j + 1) * w, j] = c[j]
    return out
