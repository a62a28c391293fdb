"""Layered decoupled models, their Jacobians and ParaTuck factor forms.

A decoupled model with L layers maps an input x through alternating linear
transforms and banks of univariate polynomials:

    f(x) = W_L g_L( W_{L-1} g_{L-1}( ... W_1 g_1( W_0 x ) ... ) )

with W_0 of shape (r_1, m), W_l of shape (r_{l+1}, r_l) for the middle
layers, W_L of shape (n, r_L), and g_l applying one polynomial per neuron.
A layer is fixed by its weight matrix and its r_l x (d_l + 1) array of
ascending monomial coefficients; the degree d_l is the array's width minus
one and is stored nowhere else.  The layer inputs are defined recursively as u_1 = W_0 x and
u_{l+1} = W_l g_l(u_l).

Stacking the Jacobians of such a model at S sampling points gives an
n x m x S tensor whose frontal slices factor as

    J[:, :, s] = W_L D_L(s) W_{L-1} ... D_1(s) W_0,

with D_l(s) the diagonal matrix of derivative evaluations g_l'(u_l(s)).
Collecting the diagonals row-wise yields the S x r_l factor matrices G_l of
a ParaTuck decomposition of the tensor, which is what the solver estimates.

All evaluation goes through two functions.  ``layer_pass`` evaluates every
layer at a batch of points: the inputs u_l, their monomial power rows and
g_l, g_l'.  ``right_chains`` (with ``left_chain``, its counterpart from the
output end) forms the chain products above for every slice at
once, so the Jacobians are ``right_chains(W, g'(u))``.  Model outputs,
Jacobians, ParaTuck factors and reconstructions, the structure matrices of
``basis`` and the solver's subproblems and residuals are all built from
these two.

Models and factor containers are immutable after construction and all
operations are pure, so evaluation over many points may run concurrently
without synchronization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor_ops import stack_slices

__all__ = [
    "DecoupledModel",
    "PTFactors",
    "AmbiguityTransform",
    "LayerTerms",
    "power_rows",
    "derivative_rows",
    "layer_pass",
    "left_chain",
    "right_chains",
    "eval_model",
    "eval_batch",
    "internal_inputs",
    "internal_inputs_batch",
    "jacobian",
    "build_jacobian_tensor",
    "build_f_matrix",
    "true_pt_factors",
    "pt_reconstruct",
    "pt_slices",
    "cpd_reconstruct",
    "apply_ambiguity",
    "random_ambiguity",
    "remove_bias",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]


def _freeze(a):
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _check_weight_chain(weights):
    if len(weights) < 2:
        raise ValueError("need at least W_0 and W_1")
    for w in weights:
        if w.ndim != 2:
            raise ValueError("weights must be matrices")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight entries")
    for i in range(1, len(weights)):
        if weights[i].shape[1] != weights[i - 1].shape[0]:
            raise ValueError(
                f"weight chain mismatch at layer {i}: "
                f"{weights[i].shape} after {weights[i - 1].shape}"
            )


@dataclass(frozen=True)
class DecoupledModel:
    """Immutable L-layer decoupled model.

    Attributes
    ----------
    weights : tuple of ndarray
        W_0 ... W_L.
    coeffs : tuple of ndarray
        One (r_l, d_l + 1) array per layer; row j holds the ascending
        monomial coefficients of neuron j, so the layer's degree d_l >= 1
        is the width minus one.
    """

    weights: tuple
    coeffs: tuple

    def __post_init__(self):
        weights = tuple(_freeze(w) for w in self.weights)
        coeffs = tuple(_freeze(c) for c in self.coeffs)
        _check_weight_chain(weights)
        if len(coeffs) != len(weights) - 1:
            raise ValueError(
                f"expected {len(weights) - 1} coefficient arrays, got {len(coeffs)}"
            )
        for i, c in enumerate(coeffs):
            if c.ndim != 2:
                raise ValueError(f"layer {i + 1} coefficients must be r x (d+1)")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"non-finite coefficients in layer {i + 1}")
            if c.shape[0] != weights[i].shape[0]:
                raise ValueError(
                    f"layer {i + 1} has {weights[i].shape[0]} neurons but "
                    f"{c.shape[0]} coefficient vectors"
                )
            if c.shape[1] < 2:
                raise ValueError(f"layer {i + 1} needs degree >= 1, got width {c.shape[1]}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_layers(self):
        return len(self.coeffs)

    @property
    def n_inputs(self):
        return self.weights[0].shape[1]

    @property
    def n_outputs(self):
        return self.weights[-1].shape[0]

    @property
    def ranks(self):
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def degrees(self):
        return tuple(c.shape[1] - 1 for c in self.coeffs)


@dataclass(frozen=True)
class PTFactors:
    """Factor matrices (W_0..W_L, G_1..G_L) of a ParaTuck decomposition."""

    weights: tuple
    G: tuple

    def __post_init__(self):
        weights = tuple(_freeze(w) for w in self.weights)
        G = tuple(_freeze(g) for g in self.G)
        _check_weight_chain(weights)
        if len(G) != len(weights) - 1:
            raise ValueError(f"expected {len(weights) - 1} G factors, got {len(G)}")
        S = G[0].shape[0]
        for i, g in enumerate(G):
            if g.ndim != 2 or g.shape[0] != S:
                raise ValueError("all G factors must share the slice count")
            if g.shape[1] != weights[i].shape[0]:
                raise ValueError(
                    f"G factor {i + 1} has {g.shape[1]} columns, expected "
                    f"{weights[i].shape[0]}"
                )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "G", G)

    @property
    def n_layers(self):
        return len(self.G)

    @property
    def n_slices(self):
        return self.G[0].shape[0]

    @property
    def ranks(self):
        return tuple(g.shape[1] for g in self.G)


def power_rows(u, degree, out=None):
    """Rows (1, u, u**2, ..., u**degree) along a new last axis.

    The powers are cumulative products, never ``u ** k``, so the layer pass
    and the structure matrices of ``basis`` see the same bits for the same u.
    Each power is built as one plane, of ``out`` ((degree+1) x u.shape) when
    given, else of a fresh contiguous array; the rows are a view across the
    planes.
    """
    planes = np.empty((degree + 1,) + u.shape) if out is None else out
    planes[0] = 1.0
    for i in range(1, degree + 1):
        np.multiply(planes[i - 1], u, out=planes[i])
    return planes.transpose(tuple(range(1, planes.ndim)) + (0,))


def derivative_rows(powers):
    """Rows (1, 2u, ..., d*u**(d-1)): the derivatives of u, ..., u**d from their power rows."""
    return powers[..., :-1] * np.arange(1, powers.shape[-1])


class LayerTerms(NamedTuple):
    """One layer of r neurons with degree-d polynomials, evaluated at S points."""

    u: np.ndarray  # S x r layer inputs
    powers: np.ndarray  # S x r x (d+1) power rows of u
    g: np.ndarray  # S x r values g(u)
    dg: np.ndarray  # S x r derivatives g'(u): the rows of the ParaTuck factor G


def _der(coeffs):
    """Ascending coefficients of every row's derivative polynomial."""
    return coeffs[:, 1:] * np.arange(1, coeffs.shape[1])


def _apply(W, x):
    """W @ x[s] for every row s of x (S x cols), reduced point by point."""
    return np.einsum("ij,sj->si", W, x)


def layer_pass(weights, coeffs, points):
    """Every layer's terms at the points, in one batched pass.

    Returns ``(layers, outputs)``: ``layers[l-1]`` holds u_l with its power
    rows and g_l, g_l' per neuron (:class:`LayerTerms`) and
    ``outputs`` (S x n) holds W_L g_L(u_L).  Every product is reduced
    per point over its own short axis (einsum, never a matrix product that
    folds the points into its rows), so the values at a point do not
    depend on the other points in the batch.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != weights[0].shape[1]:
        raise ValueError(
            f"points must be S x {weights[0].shape[1]}, got {x.shape}"
        )
    layers = []
    u = _apply(weights[0], x)
    for W, c in zip(weights[1:], coeffs):
        powers = power_rows(u, c.shape[1] - 1)
        g = np.einsum("sji,ji->sj", powers, c)
        dg = np.einsum("sji,ji->sj", powers[..., :-1], _der(c))
        layers.append(LayerTerms(u, powers, g, dg))
        u = _apply(W, g)
    return layers, u


def left_chain(weights, G, l):
    """W_L D_L ... D_{l+1} W_l for every slice: S x n x r_l (1 x n x r_L for l = L).

    Each step is ``(acc * G_k[s]) @ W_k``: the single products, then a
    stacked matmul (see :func:`_scaled_columns`).  The products replace the
    chain before the matmul, so that no step holds three arrays.
    """
    acc = weights[-1][None]
    for k in range(len(G) - 1, l - 1, -1):
        acc = _scaled_columns(acc, G[k])
        acc = acc @ weights[k]
    return acc


def right_chains(weights, G, l):
    """The chains V_1, ..., V_l with V_k = W_{k-1} D_{k-1} ... D_1 W_0 per slice.

    V_1 is W_0 as a 1 x r_1 x m stack and V_{k+1} = W_k D_k(s) V_k(s), an
    S x r_{k+1} x m stack.  Slice s of the tensor is
    ``left_chain(.., k)[s] @ D_k(s) @ V_k[s]`` for every k, and V_{L+1}
    itself; with G the derivatives g'(u) of the layer pass, V_{L+1} holds
    the model's Jacobians.  Each product is a stacked matmul of one slice's
    matrices, so a slice's bits do not depend on the slice count.
    """
    chain = [weights[0][None]]
    for k in range(1, l):
        chain.append(_scaled_columns(weights[k][None], G[k - 1]) @ chain[-1])
    return chain


def _scaled_columns(M, g):
    """M[s] * g[s] for every slice s: column j of each slice's matrix scaled by g[s, j].

    M is S x a x b (or 1 x a x b, one matrix for all slices) and g S x b.
    Each entry is the single product ``M[s, i, j] * g[s, j]``, written by
    einsum: numpy 2.4 buffers each broadcast operand of an np.multiply
    call, up to 8192 entries at a time, 145 KB for a 48 KB result at f2
    S = 1000.  einsum writes a -0.0 product as +0.0, which no chain shows:
    every product enters a stacked matmul, whose sums start from +0.0, so a
    chain keeps the bits it has with np.multiply's products.
    """
    return np.einsum("...ij,...j->...ij", M, g)


def _slices_last(stack):
    """An S x n x m stack as the n x m x S tensor, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, 2))


def internal_inputs_batch(weights, coeffs, points):
    """Layer inputs u_1..u_L at several points.

    Parameters
    ----------
    weights, coeffs : sequences as in DecoupledModel.
    points : ndarray, shape (S, m)

    Returns
    -------
    list of ndarray
        Entry l-1 has shape (S, r_l) holding u_l per point.

    The inputs depend only on the layers below the last, so the pass runs
    over those alone.
    """
    layers, u_last = layer_pass(weights[:-1], coeffs[:-1], points)
    return [t.u for t in layers] + [u_last]


def internal_inputs(model, x):
    """Layer inputs u_1..u_L for one point, each a 1-D vector."""
    us = internal_inputs_batch(model.weights, model.coeffs, np.atleast_2d(x))
    return [u[0] for u in us]


def eval_batch(model, points):
    """Evaluate the model at S points; returns an (n, S) matrix."""
    outputs = layer_pass(model.weights, model.coeffs, points)[1]
    return np.ascontiguousarray(outputs.T)


def eval_model(model, x):
    """Evaluate the model at one point; returns an n-vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a vector")
    return eval_batch(model, x[None, :])[:, 0]


def _jacobians(model, points):
    """Analytic Jacobians at S points, slice-leading: S x n x m."""
    layers = layer_pass(model.weights, model.coeffs, points)[0]
    return right_chains(model.weights, [t.dg for t in layers], model.n_layers + 1)[-1]


def jacobian(model, x):
    """Analytic Jacobian W_L D_L ... D_1 W_0 at one point.

    The derivatives come from the monomial basis symbolically, so the
    result is exact up to round-off, and bit for bit the slice that
    :func:`build_jacobian_tensor` gives for the same point.
    """
    return _jacobians(model, np.atleast_2d(x))[0]


def _check_points(points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty S x m array")
    return points


def _stack_oracle(fn, points, ndim, kind):
    """Oracle evaluations at every point, stacked along a new last axis."""
    if not callable(fn):
        raise TypeError(f"expected a DecoupledModel or a callable {kind} oracle")
    values = []
    for x in points:
        y = np.asarray(fn(x), dtype=float)
        if y.ndim != ndim:
            raise ValueError(f"{kind} oracle must return {ndim}-D arrays, got ndim={y.ndim}")
        if values and y.shape != values[0].shape:
            raise ValueError(f"inconsistent {kind} dims: {y.shape} != {values[0].shape}")
        values.append(y)
    return np.stack(values, axis=ndim)


def build_jacobian_tensor(model_or_fn, points):
    """Stack Jacobian evaluations at the given points into an n x m x S tensor.

    Accepts either a model (analytic Jacobians, all points at once) or any
    callable mapping a point to an n x m matrix, which supports decoupling
    black-box targets.
    """
    points = _check_points(points)
    if isinstance(model_or_fn, DecoupledModel):
        return _slices_last(_jacobians(model_or_fn, points))
    return _stack_oracle(model_or_fn, points, 2, "Jacobian")


def build_f_matrix(model_or_fn, points):
    """Stack function evaluations column-wise into an n x S matrix."""
    points = _check_points(points)
    if isinstance(model_or_fn, DecoupledModel):
        return eval_batch(model_or_fn, points)
    return _stack_oracle(model_or_fn, points, 1, "evaluation")


def true_pt_factors(model, points):
    """Exact ParaTuck factors of the model's Jacobian tensor at the points.

    G_l[s, j] is the derivative of neuron j's polynomial at its layer input
    for point s; weight matrices are shared with the model.
    """
    layers = layer_pass(model.weights, model.coeffs, points)[0]
    return PTFactors(weights=model.weights, G=tuple(t.dg for t in layers))


def pt_slices(weights, G, s):
    """One frontal slice W_L D_L(s) ... D_1(s) W_0 from raw factor lists."""
    return right_chains(weights, [g[s : s + 1] for g in G], len(G) + 1)[-1][0]


def pt_reconstruct(factors):
    """Dense tensor whose frontal slices are the ParaTuck chain products."""
    return _slices_last(right_chains(factors.weights, factors.G, factors.n_layers + 1)[-1])


def cpd_reconstruct(A, B, C):
    """Slice-wise CPD reconstruction: slice k is A diag(C[k, :]) B^T."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    return stack_slices([(A * C[k][None, :]) @ B.T for k in range(C.shape[0])])


@dataclass(frozen=True)
class AmbiguityTransform:
    """A trivial reparameterization of a ParaTuck decomposition.

    Fields are indexed per layer l = 1..L: ``perms[l-1]`` is the r_l x r_l
    permutation, ``lam1/lam2/lam3`` the diagonal scaling triples (stored as
    vectors) whose elementwise product must be 1, and ``gammas[l-1]`` for
    l = 1..L-1 the per-slice diagonals whose elementwise product over layers
    must be 1.  The last layer carries no slice-wise factor.
    """

    perms: tuple
    lam1: tuple
    lam2: tuple
    lam3: tuple
    gammas: tuple = field(default_factory=tuple)

    def __post_init__(self):
        perms = tuple(_freeze(p) for p in self.perms)
        lam1 = tuple(_freeze(v) for v in self.lam1)
        lam2 = tuple(_freeze(v) for v in self.lam2)
        lam3 = tuple(_freeze(v) for v in self.lam3)
        gammas = tuple(_freeze(v) for v in self.gammas)
        L = len(perms)
        if not (len(lam1) == len(lam2) == len(lam3) == L):
            raise ValueError("one scaling triple required per layer")
        if len(gammas) not in (0, max(L - 1, 0)):
            raise ValueError(f"expected {max(L - 1, 0)} slice-scaling factors")
        for p in perms:
            if p.ndim != 2 or p.shape[0] != p.shape[1]:
                raise ValueError("permutations must be square")
            if not (
                np.all(np.isin(p, (0.0, 1.0)))
                and np.all(p.sum(axis=0) == 1)
                and np.all(p.sum(axis=1) == 1)
            ):
                raise ValueError("not a permutation matrix")
        for a, b, c in zip(lam1, lam2, lam3):
            if np.max(np.abs(a * b * c - 1.0)) > 1e-14:
                raise ValueError("scaling triple product must be the identity")
        if gammas:
            prod = np.ones_like(gammas[0])
            for g in gammas:
                prod = prod * g
            if np.max(np.abs(prod - 1.0)) > 1e-14:
                raise ValueError("slice-scaling product must be the identity")
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "lam1", lam1)
        object.__setattr__(self, "lam2", lam2)
        object.__setattr__(self, "lam3", lam3)
        object.__setattr__(self, "gammas", gammas)


def apply_ambiguity(factors, transform):
    """Equivalent ParaTuck factors under a trivial ambiguity transform.

    With identity boundary factors at the input and output ends:

        W_l -> P_{l+1}^T diag(lam1_{l+1}) W_l diag(lam2_l) P_l
        G_l -> diag(gamma_l) G_l diag(lam3_l) P_l

    Reconstruction of the transformed factors equals the original tensor.
    """
    L = factors.n_layers
    if len(transform.perms) != L:
        raise ValueError(f"transform is for {len(transform.perms)} layers, factors have {L}")
    for l in range(L):
        if transform.perms[l].shape[0] != factors.ranks[l]:
            raise ValueError(f"transform rank mismatch at layer {l + 1}")
    # the transform itself checked that the slice scalings multiply to one
    for g in transform.gammas:
        if g.shape[0] != factors.n_slices:
            raise ValueError("slice-scaling length must equal the slice count")

    perms, l1, l2, l3 = transform.perms, transform.lam1, transform.lam2, transform.lam3
    new_w = []
    for i, W in enumerate(factors.weights):
        out = W
        if i < L:  # left factor of layer i+1: P^T diag(lam1) from that layer
            out = perms[i].T @ (l1[i][:, None] * out)
        if i > 0:  # right factor of layer i: diag(lam2) P from that layer
            out = (out * l2[i - 1][None, :]) @ perms[i - 1]
        new_w.append(out)
    new_g = []
    for i, G in enumerate(factors.G):
        out = (G * l3[i][None, :]) @ perms[i]
        if transform.gammas and i < L - 1:
            out = transform.gammas[i][:, None] * out
        new_g.append(out)
    return PTFactors(weights=tuple(new_w), G=tuple(new_g))


def random_ambiguity(ranks, n_slices, rng):
    """Draw a random ambiguity transform for the given ParaTuck ranks.

    Scaling magnitudes stay in [0.5, 2] with random signs to keep the
    transformed factors well conditioned.  Slice-wise factors are drawn for
    all but one layer with the last chosen as the compensating inverse, so
    they are nontrivial whenever there are at least three layers.
    """
    L = len(ranks)

    def draw(r):
        mag = rng.uniform(0.5, 2.0, size=r)
        return mag * rng.choice((-1.0, 1.0), size=r)

    perms, l1, l2, l3 = [], [], [], []
    for r in ranks:
        p = np.eye(r)[rng.permutation(r)]
        a, b = draw(r), draw(r)
        perms.append(p)
        l1.append(a)
        l2.append(b)
        l3.append(1.0 / (a * b))
    gammas = []
    if L >= 2:
        prod = np.ones(n_slices)
        for _ in range(L - 2):
            g = draw(n_slices)
            gammas.append(g)
            prod = prod * g
        gammas.append(1.0 / prod)
    return AmbiguityTransform(
        perms=tuple(perms), lam1=tuple(l1), lam2=tuple(l2), lam3=tuple(l3),
        gammas=tuple(gammas),
    )


def _shift_poly(coeffs, s):
    """Ascending coefficients of p(u + s) via exact binomial expansion."""
    c = np.asarray(coeffs, dtype=float)
    if s == 0.0:
        return c.copy()
    out = np.zeros_like(c)
    for i in range(c.shape[0]):
        if c[i] == 0.0:
            continue
        for k in range(i + 1):
            out[k] += c[i] * math.comb(i, k) * s ** (i - k)
    return out


def remove_bias(model):
    """Equivalent model whose layers below the last have zero constant terms.

    Constant terms are pushed forward layer by layer: the current layer's
    polynomials are re-expanded about the incoming shift (exact binomial
    recomposition, degree preserving), the new constants are split off and
    propagated through the next weight matrix, and the last layer keeps the
    accumulated constants.  Evaluation is unchanged.
    """
    L = model.n_layers
    new_coeffs = []
    shift = np.zeros(model.weights[0].shape[0])
    for i in range(L):
        C = model.coeffs[i]
        out = np.array([_shift_poly(C[j], shift[j]) for j in range(C.shape[0])])
        if i < L - 1:
            consts = out[:, 0].copy()
            out[:, 0] = 0.0
            shift = model.weights[i + 1] @ consts
        new_coeffs.append(out)
    return DecoupledModel(weights=model.weights, coeffs=tuple(new_coeffs))


def model_to_json(model):
    """JSON-serializable dict; float round-trip is exact for finite doubles."""
    return {
        "layers": model.n_layers,
        "dims": {
            "inputs": model.n_inputs,
            "outputs": model.n_outputs,
            "ranks": list(model.ranks),
        },
        "weights": [w.tolist() for w in model.weights],
        "coeffs": [c.tolist() for c in model.coeffs],
        "basis": "monomial",
        "degrees": list(model.degrees),
    }


def model_from_json(doc):
    """The model a model file holds; ValueError for a malformed document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds a JSON object, not {type(doc).__name__}")
    for key in ("layers", "weights", "coeffs", "degrees"):
        if key not in doc:
            raise ValueError(f"model file lacks the key {key!r}")
    for key in ("weights", "coeffs", "degrees"):
        if not isinstance(doc[key], list):
            raise ValueError(f"model file key {key!r} must be a list, got {doc[key]!r}")
    if doc.get("basis") != "monomial":
        raise ValueError(f"unsupported basis tag {doc.get('basis')!r}")
    weights = tuple(np.array(w, dtype=float) for w in doc["weights"])
    coeffs = tuple(np.array(c, dtype=float) for c in doc["coeffs"])
    model = DecoupledModel(weights=weights, coeffs=coeffs)
    if model.n_layers != doc["layers"]:
        raise ValueError("layer count does not match weights")
    if tuple(int(d) for d in doc["degrees"]) != model.degrees:
        raise ValueError(
            f"degrees {doc['degrees']} do not match the coefficient widths {model.degrees}"
        )
    return model


def save_model(path, model):
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_json(json.load(fh))
