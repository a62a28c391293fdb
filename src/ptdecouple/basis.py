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
* ``build_per_slice_X``:  the per-sample block-diagonal factorization
  ``D = X_s @ C`` of a diagonal derivative matrix, C the r*(d+1) x r
  matrix whose column j holds neuron j's coefficients in block j.

Every builder takes the degree d as a plain int; ``build_X`` and ``build_Y``
return one r x S x (d+1) array whose entry j is neuron j's S x (d+1) block,
held as d+1 planes of r x S.  Their rows are the cumulative products of
``model.power_rows`` and the single products of ``model.derivative_rows``,
so they are bit for bit the rows of the model's layer pass; ``write_X``
writes the same rows into an array the caller holds.
"""

from __future__ import annotations

import numpy as np

from .model import power_rows
from .tensor_ops import NonFiniteError

__all__ = [
    "build_X",
    "build_Y",
    "build_per_slice_X",
    "write_X",
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
    return write_X(u, degree, np.empty((degree + 1,) + u.T.shape).transpose(1, 2, 0))


def write_X(u, degree, out):
    """The rows of ``build_X(u, degree)`` written into out, which is returned.

    out is r x S x w with w = degree + 1, or w = degree for the rows
    without their leading zero column.  The power rows 1, u, ..., u**(d-1)
    go into the derivative columns, each of which is then scaled in place
    by its power's exponent: the products of ``model.derivative_rows``; at
    degree 0 there are none, and the rows are the zero column.  Each
    plane out[:, :, i] is best contiguous, as numpy buffers an update that
    iterates short strided rows.
    """
    planes = out.transpose(2, 0, 1)
    if len(planes) > degree:
        planes[0] = 0.0
        planes = planes[1:]
    if degree:
        power_rows(u.T, degree - 1, out=planes)
    for i in range(2, degree + 1):
        np.multiply(planes[i - 1], i, out=planes[i - 1])
    return out


def build_Y(u_samples, degree):
    """Function-value structure blocks for the last layer, r x S x (d+1).

    Block j has row s equal to ``(1, u, ..., u**d)`` at ``u = u_samples[s, j]``.
    """
    u = _check_inputs(u_samples, 2)
    return power_rows(u.T, degree)


def build_per_slice_X(u_sample, degree):
    """Block-diagonal row layout of derivative rows for one sampling point.

    Returns the ``r x r*(d+1)`` matrix ``X_s`` with ``X_s @ C == diag(g'(u))``
    for C the block-diagonal column matrix of the coefficients: row j holds
    neuron j's ``build_X`` row in block j.
    """
    u = _check_inputs(u_sample, 1)
    r = u.shape[0]
    out = np.zeros((r, r, degree + 1))
    out[np.arange(r), np.arange(r)] = build_X(u[None], degree)[:, 0]
    return out.reshape(r, -1)
