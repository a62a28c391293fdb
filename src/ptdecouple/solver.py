"""Alternating minimizer for the coupled matrix-tensor decoupling objective.

Given a Jacobian tensor J (n x m x S), a function-evaluation matrix
F (n x S) and the sampling points, the solver minimizes

    || J - PT(W_0..W_L, G_1..G_L) ||^2  +  lam * || F - W_L @ R.T ||^2

subject to every G column being a derivative-structure combination of the
per-neuron polynomial coefficients and every R column the matching
function-value combination.  One sweep updates, in order,

    W_0, (c_1 / G_1, W_1), ..., (c_{L-1} / G_{L-1}, W_{L-1}),
    (c_L / G_L, R), W_L,

where each W update is an unconstrained linear least-squares subproblem and
the coefficient updates come in two flavours:

* ``proj``   - free least-squares update of the factor rows followed by a
  projection onto the coefficient constraint set;
* ``constr`` - direct least-squares update of the coefficients with the
  constraints satisfied by construction.

Both start from one build of the layer's per-slice structure,
``_coeff_problem``.

Constant coefficients of layers below the last multiply a structurally zero
column of the derivative structure, so they are unidentifiable from J; they
are frozen at their initial values and reported in the fit report.  The
last layer's constants are estimated through the coupled F term.

The sweeps descend from wherever they start and stop at stationary points
that need not be the global minimum.  ``start_search`` provides starts: a
Levenberg-Marquardt descent of the same objective over the model
parameters (weights and coefficients, with the analytic Jacobian through
the layer inputs), run from several seeded random draws; the tuner starts
every stage's sweeps from its best descent.

Everything the solver evaluates comes from the model's layer pass and chain
kernel (``model.layer_pass``, ``model.left_chain``, ``model.right_chains``):
the subproblem matrices of all slices at once, the objective, the states
that a descent hands to the sweeps, and the descent's residual.  A
descent evaluates each trial point once; the pass of an accepted point is
its forward tape, from which the normal matrix is summed chunk by chunk of
sampling points and the adjoint pass runs.

A fit is single-threaded and deterministic given its configuration;
separate fits share no mutable state and may run concurrently.  Every
generator the package makes comes from :func:`seeded_rng`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .basis import build_X, build_Y
from .model import (
    DecoupledModel,
    PTFactors,
    _der,
    derivative_rows,
    internal_inputs_batch,
    layer_pass,
    left_chain,
    right_chains,
)
from .tensor_ops import (
    NonFiniteError,
    fro_norm,
    lstsq_info,
    reduce_planes,
    unfold,
    vec3,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "FitReport",
    "SolverDivergenceError",
    "seeded_rng",
    "init_state",
    "build_MW",
    "build_MG",
    "rebalance",
    "update_W",
    "update_c_proj",
    "update_c_constr",
    "objective",
    "fit",
    "LMResult",
    "lm_pack",
    "lm_descent",
    "start_search",
    "state_to_model",
]

STRATEGIES = ("proj", "constr")

# relative decrease below which an iteration does not count as an improvement
_IMPROVE_RTOL = 1e-12


class SolverDivergenceError(RuntimeError):
    """Raised when the objective turns non-finite; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Settings for one alternating fit.

    ``ranks`` and ``degrees`` give the per-layer neuron counts and
    polynomial degrees (innermost layer first).  Without an initial state,
    :func:`init_state` draws the starting factor entries uniformly from
    [0.1, 10) with a seeded Philox generator; that is how a bare :func:`fit`
    starts.  Tuned stages (``tuner.tune``) start instead from
    :func:`start_search`, which draws from N(0, 1).
    """

    ranks: tuple
    degrees: tuple
    lam: float = 1e-6
    min_iters: int = 10
    max_iters: int = 500
    patience: int = 50
    rng_seed: int = 0
    strategy: str = "constr"

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        if len(self.ranks) != len(self.degrees) or not self.ranks:
            raise ValueError("ranks and degrees must be non-empty and equally long")
        if any(r < 1 for r in self.ranks) or any(d < 1 for d in self.degrees):
            raise ValueError("ranks and degrees must be positive")
        if not 0 < self.min_iters <= self.max_iters:
            raise ValueError("need 0 < min_iters <= max_iters")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @property
    def n_layers(self):
        return len(self.ranks)


@dataclass
class SolverState:
    """Mutable factor set: weights W_0..W_L, factors G_1..G_L, R and coefficients.

    ``trace`` records (iteration, j_term, f_term, total) per sweep with
    total = j_term + lam * f_term; ``n_truncated`` counts singular values
    truncated across all least-squares subproblems so far.
    """

    weights: list
    G: list
    R: np.ndarray
    coeffs: list
    trace: list = field(default_factory=list)
    n_truncated: int = 0

    @property
    def n_layers(self):
        return len(self.G)

    def factors(self):
        return PTFactors(weights=tuple(self.weights), G=tuple(self.G))

    def copy(self):
        return SolverState(
            weights=[w.copy() for w in self.weights],
            G=[g.copy() for g in self.G],
            R=self.R.copy(),
            coeffs=[c.copy() for c in self.coeffs],
            trace=list(self.trace),
            n_truncated=self.n_truncated,
        )


@dataclass
class FitReport:
    """Outcome of one fit: best state seen plus summary diagnostics."""

    state: SolverState
    error_j: float
    error_f: float
    iterations: int
    stop_reason: str
    config: SolverConfig
    n_truncated: int = 0

    @property
    def frozen_constants(self):
        """Constant coefficients of the layers below the last (frozen at init)."""
        return [c[:, 0].copy() for c in self.state.coeffs[:-1]]

    def to_dict(self):
        return {
            "config": asdict(self.config),
            "trace": [list(rec) for rec in self.state.trace],
            "error_j": self.error_j,
            "error_f": self.error_f,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "truncated_singular_values": self.n_truncated,
            "frozen_constants": [c.tolist() for c in self.frozen_constants],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def seeded_rng(seed, *spawn_key):
    """The package's one random generator: Philox seeded through a SeedSequence.

    ``seeded_rng(s)`` draws the numbers of ``Philox(s)``; each spawn key
    gives an independent stream of the same seed, alike on any platform.
    """
    seq = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


def init_state(cfg, dims):
    """Random starting state for problem dims (n, m, S).

    All entries of W_0..W_L, G_1..G_L, R and the coefficient vectors are
    drawn uniformly from [0.1, 10), in that order, from
    ``seeded_rng(rng_seed)``; identical configs produce identical states on
    any platform.
    """
    n, m, S = dims
    if n < 1 or m < 1 or S < 1:
        raise ValueError(f"invalid dims {dims}")
    rng = seeded_rng(cfg.rng_seed)
    lo, hi = 0.1, 10.0
    ranks = cfg.ranks
    L = cfg.n_layers
    shapes = [(ranks[0], m)]
    shapes += [(ranks[i + 1], ranks[i]) for i in range(L - 1)]
    shapes += [(n, ranks[-1])]
    weights = [rng.uniform(lo, hi, size=s) for s in shapes]
    G = [rng.uniform(lo, hi, size=(S, r)) for r in ranks]
    R = rng.uniform(lo, hi, size=(S, ranks[-1]))
    coeffs = [
        rng.uniform(lo, hi, size=(r, d + 1)) for r, d in zip(ranks, cfg.degrees)
    ]
    return SolverState(weights=weights, G=G, R=R, coeffs=coeffs)


def build_MW(state, layer):
    """Coefficient matrix of the linear subproblem for W_layer.

    layer 0: (n*S x r_1) vertical stack, target unfold(J, 2).T
    layer L: (r_L x m*S) horizontal stack, target unfold(J, 1) from the left
    middle:  (n*m*S x r_l*r_{l+1}) Kronecker stack, target vec3(J)
    """
    L = state.n_layers
    if not 0 <= layer <= L:
        raise ValueError(f"layer must be in 0..{L}, got {layer}")
    w, G = state.weights, state.G
    if layer == 0:
        M = left_chain(w, G, 1) * G[0][:, None, :]
        return M.reshape(-1, M.shape[2])
    if layer == L:
        M = G[L - 1][:, :, None] * right_chains(w, G, L)[-1]
        return M.transpose(1, 0, 2).reshape(M.shape[1], -1)
    A = left_chain(w, G, layer + 1) * G[layer][:, None, :]
    B = G[layer - 1][:, :, None] * right_chains(w, G, layer)[-1]
    S, K, a = B.shape
    _, b, Q = A.shape
    # per slice kron(B.T, A): row (s, a, b), column (k, q) holds
    # B[s, k, a] * A[s, b, q].  M is returned column-major, each column
    # written by its own einsum into a contiguous block: one einsum that
    # broadcasts over the columns allocates iteration buffers, 130 KB at
    # f2 S = 1000.  Each entry is a single product and the solve copies M
    # into LAPACK's layout either way, so the layout changes no bit.
    M = np.empty((K, Q, S, a, b))
    for k in range(K):
        for q in range(Q):
            np.einsum("sa,sb->sab", B[:, k], A[:, :, q], out=M[k, q])
    return M.reshape(K * Q, -1).T


def _g_rows(weights, G, layer, out=None):
    """Every slice's coefficient matrix of the G_layer row subproblem, S x m x n x r.

    Entry (s, a, b, j) is right[s, j, a] * left[s, b, j], the Khatri-Rao
    product of the chains around the layer, so that vec(J[:, :, s]) equals
    the slice's m*n x r matrix times G_layer[s, :] for exact factors.  The
    products are formed with S innermost, where a chain of one slice
    broadcasts over all S, into ``out`` (r x m x n x S, C-contiguous; a
    fresh array when None), and returned as a view of it; each entry is a
    single product, so the layout changes no bit, and a slice's entries do
    not depend on the other slices of G.
    """
    right = right_chains(weights, G, layer)[-1]
    left = left_chain(weights, G, layer)
    _, r, m = right.shape
    if out is None:
        out = np.empty((r, m, left.shape[1], G[0].shape[0]))
    # np.multiply writes a -0.0 product as -0.0, where einsum, which sums
    # its products into a zeroed output, writes +0.0; a solve can see the
    # sign, so each block keeps the call that writes it
    np.multiply(right.transpose(1, 2, 0)[:, :, None], left.transpose(2, 1, 0)[:, None], out=out)
    return out.transpose(3, 1, 2, 0)


def build_MG(state, layer, s):
    """Khatri-Rao coefficient matrix of the row subproblem for G_layer at slice s.

    Satisfies vec(J[:, :, s]) == build_MG(...) @ G_layer[s, :] for exact factors.
    """
    L = state.n_layers
    if not 1 <= layer <= L:
        raise ValueError(f"layer must be in 1..{L}, got {layer}")
    M = _g_rows(state.weights, [g[s : s + 1] for g in state.G], layer)[0]
    return M.reshape(-1, M.shape[-1])


def _lstsq(state, a, b, rows=None):
    """``lstsq_info`` of one system or a stack, its truncations counted in the state."""
    x, trunc = lstsq_info(a, b, rows)
    state.n_truncated += trunc
    return x


def update_W(state, layer, j_tensor, f_matrix, lam):
    """Replace W_layer with the least-squares minimizer of its subproblem.

    For the last layer the tensor block is stacked with the sqrt(lam)-scaled
    F factorization block so both terms are fit jointly in one system.
    """
    L = state.n_layers
    M = build_MW(state, layer)
    if layer == 0:
        state.weights[0] = _lstsq(state, M, unfold(j_tensor, 2).T)
    elif layer == L:
        a = np.concatenate([M.T, np.sqrt(lam) * state.R], axis=0)
        b = np.concatenate([unfold(j_tensor, 1).T, np.sqrt(lam) * f_matrix.T], axis=0)
        state.weights[L] = _lstsq(state, a, b).T
    else:
        w = _lstsq(state, M, vec3(j_tensor))
        r_next, r_this = state.weights[layer].shape
        state.weights[layer] = w.reshape((r_next, r_this), order="F")
    return state


def _coeff_problem(state, layer, j_tensor, points):
    """The per-slice structure that both coefficient updates of a layer start from.

    Returns ``(C, X, Y, i0)``: C ((r+1) x m*n x S) holds the slices'
    G-row matrices K_s (:func:`_g_rows`) as r column planes, then the
    vec(J_s) as one more, so that vec(J_s) = K_s G_layer[s] for exact
    factors; ``_planes_stack(C)`` gives the stack K (S x m*n x r) and jb
    (S x m*n) as views, and :func:`_slice_rows` rebuilds any slices of
    them bit for bit.  ``X = build_X(U, d)`` and, at the last layer only,
    ``Y = build_Y(U, d)`` (else None) of the fresh layer inputs U, so that
    column j of G_layer (R) is X[j] @ c_j (Y[j] @ c_j); and i0, the first
    fitted coefficient column (1 below the last layer, where the constants
    are frozen, else 0).  The rows of (M_C)_0 are K_s times the structure
    rows X[:, s, i0:].  U depends only on the layers below, so the pass
    stops there.
    """
    L = state.n_layers
    n, m, S = j_tensor.shape
    r = state.G[layer - 1].shape[1]
    C = np.empty((r + 1, m * n, S))
    _g_rows(state.weights, state.G, layer, out=C[:r].reshape(r, m, n, S))
    C[r].reshape(m, n, S)[...] = j_tensor.transpose(1, 0, 2)
    U = internal_inputs_batch(state.weights[: layer + 1], state.coeffs[:layer], points)[-1]
    d = state.coeffs[layer - 1].shape[1] - 1
    X = build_X(U, d)
    Y = build_Y(U, d) if layer == L else None
    return C, X, Y, 0 if layer == L else 1


def _planes_stack(C):
    """The stack K (S x m*n x r) and jb (S x m*n) held in C's planes, as views."""
    return C[:-1].transpose(2, 1, 0), C[-1].T


def _slice_rows(state, layer, j_tensor, idx):
    """Slices idx of ``_planes_stack`` of :func:`_coeff_problem`, rebuilt.

    Each entry is the same single product as in the planes, so the rows
    are bit for bit the ones the planes held before a reduction.
    """
    n, m, _ = j_tensor.shape
    K = _g_rows(state.weights, [g[idx] for g in state.G], layer)
    k = K.shape[0]
    return K.reshape(k, m * n, -1), j_tensor[:, :, idx].transpose(2, 1, 0).reshape(k, m * n)


def _write_factors(state, layer, X, Y):
    """Overwrite G_layer, and R when Y is given, with their structured versions.

    Column j becomes X[j] @ c_j (Y[j] @ c_j).  The stacked matmul gives the
    bits of those per-neuron products, and the results go into the existing
    arrays, which keeps their memory layout.
    """
    c = state.coeffs[layer - 1][:, :, None]
    state.G[layer - 1][...] = (X @ c)[:, :, 0].T
    if Y is not None:
        state.R[...] = (Y @ c)[:, :, 0].T


def update_c_proj(state, layer, j_tensor, f_matrix, points, lam):
    """Projection update: free factor rows first, then fit coefficients.

    All rows of G_layer are updated by unconstrained least squares in one
    stacked solve against the G-row matrices of :func:`_coeff_problem`,
    reduced in the planes they were built in; a system that the solve
    re-solves by the SVD comes from rows rebuilt for that slice alone.
    For the last layer R is fit as a whole too, from F.  Every neuron's
    coefficients are then fit to its updated factor column through the
    structure matrices of the fresh layer inputs, all neurons in one
    stacked solve; the last layer stacks the sqrt(lam)-scaled R column and
    function-value rows below.  The constants of the layers below the last
    stay frozen.  Finally the factors are overwritten by their structured
    versions.
    """
    C, X, Y, i0 = _coeff_problem(state, layer, j_tensor, points)
    state.G[layer - 1] = _lstsq(
        state, *_planes_stack(C), lambda idx: _slice_rows(state, layer, j_tensor, idx)
    )
    del C
    a, b = X[:, :, i0:], state.G[layer - 1].T
    if Y is not None:
        state.R = _lstsq(state, state.weights[-1], f_matrix).T
        a = np.concatenate([a, np.sqrt(lam) * Y], axis=1)
        b = np.concatenate([b, np.sqrt(lam) * state.R.T], axis=1)
    state.coeffs[layer - 1][:, i0:] = _lstsq(state, a, b)
    _write_factors(state, layer, X, Y)
    return state


def _structured_rows(K, X, out=None):
    """Rows (s, k), columns (j, i) holding K[s, k, j] * X[j, s, i], stacked over s.

    Written into ``out`` (S*p x r*w, C-contiguous; a fresh array when None).
    """
    S, p, r = K.shape
    if out is None:
        out = np.empty((S * p, r * X.shape[2]))
    np.einsum("skj,jsi->skji", K, X, out=out.reshape(S, p, r, -1))
    return out


# The constr update reduces each slice's rows by QR once that removes at
# least this many rows, S * (m*n - r).  Time of a 5-sweep constr fit,
# reduced / full rows (rows removed), median of 41 interleaved pairs, one
# BLAS thread: f1 shape S = 100 1.22 (200), S = 300 1.14 (600), S = 500
# 1.03 (1000), S = 700 1.00 (1400), S = 1000 0.76 (2000); f2 shape S = 100
# 1.20 (700), S = 200 1.01 (1400), S = 300 0.95 (2100), S = 500 0.71
# (3500), S = 1000 0.65 (7000); L = 3 (m = 3, n = 2, ranks 3, 2, 2) S = 100
# 1.21 (300-400), S = 300 1.07 (900-1200), S = 500 1.00 (1500-2000),
# S = 700 0.97 (2100-2800), S = 1000 0.95 (3000-4000).  The stacked QR
# costs a fixed number of numpy calls, which fewer removed rows do not
# repay: _QR_MIN_STACK's cut at S = 100 would slow the f1 and L = 3 fits
# at S = 100-300.  The S = 30 fits remove at most 210 rows and keep the
# full system.
_CONSTR_QR_MIN_ROWS = 2000


def update_c_constr(state, layer, j_tensor, f_matrix, points, lam):
    """Direct coefficient update with the constraints satisfied by construction.

    Solves for the coefficient vector against vec(J) through the pruned
    structure-incorporated system (M_C)_0, whose rows of slice s are K_s D_s
    with D_s the slice's structure rows (:func:`_coeff_problem`); the last
    layer stacks the sqrt(lam)-scaled F factorization block below.  G (and
    R) are then written from the coefficients, so they satisfy the
    constraints exactly.

    With K_s = Q_s R_s, the r rows R_s D_s against
    (Q_s^T vec(J_s))[:r] have the same minimizer and the same singular
    values: the system is block-diagonal(Q_s) times the reduced one.  Once
    that removes at least ``_CONSTR_QR_MIN_ROWS`` rows, every slice is
    reduced by one stacked QR in the planes :func:`_coeff_problem` built
    (:func:`reduce_planes`), the reduced rows are built from R's planes in
    the order (row of R, slice), and at the last layer the F block W_L E_s
    is reduced alike by one QR of W_L when n > r.  A reduction with a
    non-finite entry is dropped for the full system, built from rows
    rebuilt for every slice, where the solve reports it.  The system is
    written block by block into one array.
    """
    C, X, Y, i0 = _coeff_problem(state, layer, j_tensor, points)
    r, p, S = len(C) - 1, C.shape[1], C.shape[2]
    W, fb = state.weights[-1], f_matrix
    reduced = S * (p - r) >= _CONSTR_QR_MIN_ROWS
    if reduced:
        R, y = reduce_planes(C[:r], C[r])
        Wq, fq = W, fb
        # the QR of W_L cuts the coupling block from n*S to r*S rows; that
        # gains no time (without it a 5-sweep f2 fit reads x1.00 at S = 300
        # and x1.01 at S = 1000, medians of 25 pairs) and little memory
        # (without it a 2-sweep constr fit at f2 S = 1000 peaks at 0.64 MB
        # rather than 0.59 MB), but dropping it would change every large-S
        # constr fit's bits
        if Y is not None and len(W) > r:
            Q, Wq = np.linalg.qr(W)
            fq = Q.T @ fb
        reduced = all(np.all(np.isfinite(x)) for x in (R, y, Wq, fq))
        if reduced:
            W, fb = Wq, fq
            # R and Q^T b leave the planes, which go before the system is built
            R, y = R.copy(), y.copy()
        else:
            # the planes were reduced, so the full rows are built again
            K, jb = _slice_rows(state, layer, j_tensor, slice(None))
    else:
        K, jb = _planes_stack(C)
    del C
    w = X.shape[2] - i0
    rows = r * S if reduced else p * S
    a = np.empty((rows + (len(W) * S if Y is not None else 0), r * w))
    b = np.empty(len(a))
    # Blocks are written by einsum, whose single products land in a zeroed
    # output as +0.0 where np.multiply keeps -0.0: a solve can see the sign,
    # so compare bytes, not values.  A call that writes a strided block
    # allocates iteration buffers as large as the block, so the large
    # blocks are written one contiguous panel of S rows per call.
    if reduced:
        # row (k, s), column (j, i) holds R_s[k, j] * X[j, s, i]
        panels = a[:rows].reshape(r, S, r, w)
        for k in range(r):
            np.einsum("js,jsi->sji", R[:, k], X[:, :, i0:], out=panels[k])
        b[:rows] = y.ravel()
        del R, y
    else:
        _structured_rows(K, X[:, :, i0:], out=a[:rows])
        b[:rows].reshape(jb.shape)[...] = jb
        del K, jb
    if Y is not None:
        # kron(W_L, I_S) @ blockdiag(Y_j): row (i, s), column (j, k) holds
        # sqrt(lam) * W_L[i, j] * Y_j[s, k]
        panels = a[rows:].reshape(len(W), S, r, w)
        for i in range(len(W)):
            np.einsum("j,jsk->sjk", W[i], Y, out=panels[i])
        panels *= np.sqrt(lam)
        np.multiply(np.sqrt(lam), fb, out=b[rows:].reshape(fb.shape))
    state.coeffs[layer - 1][:, i0:] = _lstsq(state, a, b).reshape(len(X), -1)
    _write_factors(state, layer, X, Y)
    return state


def rebalance(state, points):
    """Normalize per-neuron input scales by an exact reparameterization.

    The monomial basis is scale invariant: scaling a row of W_{l-1} by 1/a
    while replacing g(u) by g(a*u) (coefficients c_i -> c_i * a**i, factor
    column G_l[:, j] -> a * G_l[:, j]) represents the same model and leaves
    the objective unchanged.  Choosing a as the RMS of the neuron's inputs
    keeps the polynomial structure matrices well conditioned, which the
    unnormalized iteration loses once layer inputs drift to extreme scales.
    Constant coefficients are untouched.
    """
    return _normalize_inputs(state, points)


def _normalize_inputs(state, points):
    # rebalance is the first step of every sweep, and per-sweep timers key
    # on it; the start search normalizes its draws through this helper
    us = internal_inputs_batch(state.weights, state.coeffs, points)
    for l, U in enumerate(us):
        # the RMS of each column; a contiguous copy sums each column in the
        # order a column slice would, which keeps the bits of per-neuron sums
        a = np.sqrt(np.mean(np.ascontiguousarray((U * U).T), axis=1))
        # a neuron without a finite, nonzero scale is left as it is
        a[~np.isfinite(a) | (a == 0.0)] = 1.0
        state.weights[l] /= a[:, None]
        state.coeffs[l] *= a[:, None] ** np.arange(state.coeffs[l].shape[1])
        state.G[l] *= a
    return state


def _j_term(state, j_tensor):
    """||J - PT(W, G)||^2, all slices at once."""
    diff = np.transpose(j_tensor, (2, 0, 1)) - right_chains(
        state.weights, state.G, state.n_layers + 1
    )[-1]
    return float(np.sum(diff * diff))


def objective(state, j_tensor, f_matrix, lam):
    """(j_term, f_term, total) with squared Frobenius residuals."""
    resid = _j_term(state, j_tensor)
    fdiff = f_matrix - state.weights[-1] @ state.R.T
    f_term = float(np.sum(fdiff * fdiff))
    return resid, f_term, resid + lam * f_term


def _check_fit_inputs(j_tensor, f_matrix, points):
    j = np.asarray(j_tensor, dtype=float)
    f = np.asarray(f_matrix, dtype=float)
    p = np.asarray(points, dtype=float)
    if j.ndim != 3:
        raise ValueError("j_tensor must be n x m x S")
    n, m, S = j.shape
    if f.shape != (n, S):
        raise ValueError(f"f_matrix must be {n} x {S}, got {f.shape}")
    if p.shape != (S, m):
        raise ValueError(f"points must be {S} x {m}, got {p.shape}")
    if not (np.all(np.isfinite(j)) and np.all(np.isfinite(f)) and np.all(np.isfinite(p))):
        raise ValueError("non-finite fit inputs")
    return j, f, p


def fit(cfg, j_tensor, f_matrix, points, initial_state=None):
    """Run the alternating minimization and return the best state seen.

    One iteration is a full sweep in the fixed update order; the run stops
    once the objective has not improved (relative decrease above 1e-12
    against the best value so far) for ``patience`` consecutive sweeps after
    ``min_iters``, or at ``max_iters``.  The report carries the state with
    the lowest recorded objective, which need not be the last one.
    """
    j_tensor, f_matrix, points = _check_fit_inputs(j_tensor, f_matrix, points)
    n, m, S = j_tensor.shape
    state = initial_state.copy() if initial_state is not None else init_state(
        cfg, (n, m, S)
    )
    update_c = update_c_proj if cfg.strategy == "proj" else update_c_constr
    L = cfg.n_layers
    lam = cfg.lam

    best = state.copy()
    best_total = np.inf
    best_terms = None
    stall = 0
    stop_reason = "max_iters"
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        try:
            rebalance(state, points)
            update_W(state, 0, j_tensor, f_matrix, lam)
            for l in range(1, L):
                update_c(state, l, j_tensor, f_matrix, points, lam)
                update_W(state, l, j_tensor, f_matrix, lam)
            update_c(state, L, j_tensor, f_matrix, points, lam)
            update_W(state, L, j_tensor, f_matrix, lam)
        except (NonFiniteError, np.linalg.LinAlgError) as exc:
            # inputs were validated upfront, so a non-finite subproblem means
            # the factors overflowed; any other ValueError is a bug
            raise SolverDivergenceError(
                f"factors became non-finite at iteration {it}: {exc}",
                list(state.trace),
            ) from exc

        j_term, f_term, total = objective(state, j_tensor, f_matrix, lam)
        state.trace.append((it, j_term, f_term, total))
        if not np.isfinite(total):
            raise SolverDivergenceError(
                f"objective became non-finite at iteration {it}", list(state.trace)
            )
        if total < best_total:
            improved = not np.isfinite(best_total) or (
                best_total - total > _IMPROVE_RTOL * abs(best_total)
            )
            best = state.copy()
            best_total = total
            best_terms = j_term, f_term
        else:
            improved = False
        stall = 0 if improved else stall + 1
        if it >= cfg.min_iters and stall >= cfg.patience:
            stop_reason = "patience"
            break

    best.trace = list(state.trace)
    return FitReport(
        state=best,
        error_j=best_terms[0] / fro_norm(j_tensor) ** 2,
        error_f=best_terms[1] / fro_norm(f_matrix) ** 2,
        iterations=iterations,
        stop_reason=stop_reason,
        config=cfg,
        n_truncated=state.n_truncated,
    )


# Levenberg-Marquardt descent over the model parameters ---------------------

# relative objective at which a descent has fit the data to round-off
_LM_TOL = 1e-20
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


@dataclass
class LMResult:
    """Outcome of one Levenberg-Marquardt descent.

    ``state`` is consistent (G and R evaluated from the coefficients),
    ``objective`` is its j_term + lam * f_term and ``stop_reason`` one of
    "converged" (fit to round-off), "stalled" or "max_iters".
    """

    state: SolverState
    objective: float
    iterations: int
    stop_reason: str


def lm_pack(weights, coeffs):
    """Free model parameters as one vector, in the order W_0, c_1, W_1, ..., c_L, W_L.

    Every block is flattened row-major; c_l drops its constant column for
    l < L (those constants are frozen), the last layer keeps all of its
    coefficients.  This is the order in which the blocks enter the model,
    which ``_lm_derivatives`` relies on.
    """
    L = len(coeffs)
    parts = [np.ravel(weights[0])]
    for l in range(1, L + 1):
        c = coeffs[l - 1]
        parts.append(np.ravel(c if l == L else c[:, 1:]))
        parts.append(np.ravel(weights[l]))
    return np.concatenate(parts)


def _lm_layout(weights, coeffs):
    """(start, stop, shape) of every block of the :func:`lm_pack` vector, in order."""
    shapes = [weights[0].shape]
    for l, (c, W) in enumerate(zip(coeffs, weights[1:]), 1):
        shapes += [(c.shape[0], c.shape[1] - (l < len(coeffs))), W.shape]
    stops = np.cumsum([a * b for a, b in shapes]).tolist()
    return [(stop - a * b, stop, (a, b)) for stop, (a, b) in zip(stops, shapes)]


def _lm_unpack(theta, layout, coeffs):
    """Inverse of :func:`lm_pack` along its :func:`_lm_layout`: (weights, coeffs) lists.

    The frozen constants of the layers below the last are copied from
    ``coeffs``.
    """
    blocks = [theta[a:b].reshape(shape) for a, b, shape in layout]
    inner = [np.concatenate([c[:, :1], b], axis=1) for c, b in zip(coeffs, blocks[1:-2:2])]
    return blocks[::2], inner + [blocks[-2]]


def _lm_derivatives(weights, steps, points):
    """Derivatives of the outputs (S x n x P) and Jacobians (S x n x m x P) at the points.

    The derivatives are taken with respect to the P entries of
    ``lm_pack(weights, coeffs)``; ``steps`` is the tape of
    ``_LMProblem.tape`` at the same points.  Since
    u_{l+1} = W_l g_l(u_l) and V_{l+1} = W_l diag(g_l'(u_l)) V_l, the chain
    rule carries T = du_l/dθ and Q = dV_l/dθ forward through the same
    recursion plus each layer's own coefficient and weight columns; since
    the parameters come in model order, T and Q only ever grow by columns
    on the right.

    Products go through einsum with preallocated outputs and arrays are
    dropped once used, which keeps the peak memory near twice the size of
    the final Q (broadcasting ufuncs allocate iteration buffers).
    """
    S = points.shape[0]
    r, m = weights[0].shape
    # the seeds du_1/dθ and dV_1/dθ are built here, not stored per chunk:
    # the recursion frees them after the first layer, before its peak
    T = np.einsum("ac,sb->sacb", np.eye(r), points).reshape(S, r, r * m)
    Q = np.eye(r * m).reshape(1, r, m, r * m)
    L = len(steps)
    for l, (powers, g, g1, ddg, V, dpw, Vd) in enumerate(steps, 1):
        W = weights[l]
        rn = W.shape[0]
        p0 = T.shape[2]
        i0 = 0 if l == L else 1
        w = powers.shape[2] - i0
        pc = p0 + r * w
        own = np.arange(r)
        # d g_l(u_l) and d g_l'(u_l): through u_l, then the layer's own
        # coefficient columns (neuron j owns columns p0 + j*w ...)
        dz = np.zeros((S, r, pc))
        np.einsum("sj,sjp->sjp", g1, T, out=dz[:, :, :p0])
        dz[:, :, p0:].reshape(S, r, r, w)[:, own, own, :] = powers[:, :, i0:]
        dg = np.zeros((S, r, pc))
        np.einsum("sj,sjp->sjp", ddg, T, out=dg[:, :, :p0])
        dg[:, :, p0:].reshape(S, r, r, w)[:, own, own, 1 - i0 :] = dpw
        T = np.zeros((S, rn, pc + rn * r))
        np.einsum("ab,sbp->sap", W, dz, out=T[:, :, :pc])
        del dz
        # dV_{l+1} = W_l (g_l' dV_l + dg_l' V_l)
        inner = np.einsum("sj,sjmp->sjmp", g1, Q)
        Q = None
        inner += np.einsum("sjp,sjm->sjmp", dg[:, :, :p0], V)
        Q = np.zeros((S, rn, m, pc + rn * r))
        np.einsum("ab,sbp,sbm->samp", W, dg[:, :, p0:], V, out=Q[..., p0:pc])
        del dg
        np.einsum("ab,sbmp->samp", W, inner, out=Q[..., :p0])
        del inner
        # W_l's own columns
        own = np.arange(rn)
        T[:, :, pc:].reshape(S, rn, rn, r)[:, own, own, :] = g[:, None, :]
        Q[..., pc:].reshape(S, rn, m, rn, r)[:, own, :, own, :] = np.swapaxes(Vd, 1, 2)
        r = rn
    return T, Q


def _lm_vjp(weights, steps, points, f_bar, j_bar):
    """Adjoint pass: (weight, coefficient) gradients of <f_bar, Fhat> + <j_bar, Jhat>."""
    L = len(steps)
    gw, gc = [None] * (L + 1), [None] * L
    u_bar, v_bar = f_bar, j_bar
    for l in range(L, 0, -1):
        powers, g, g1, ddg, V, dpw, Vd = steps[l - 1]
        W = weights[l]
        gw[l] = u_bar.T @ g + np.einsum("sam,sbm->ab", v_bar, Vd)
        z_bar = u_bar @ W
        vd_bar = np.einsum("ab,sam->sbm", W, v_bar)
        g1_bar = np.einsum("sjm,sjm->sj", vd_bar, np.broadcast_to(V, vd_bar.shape))
        gc[l - 1] = np.einsum("sj,sji->ji", z_bar, powers)
        gc[l - 1][:, 1:] += np.einsum("sj,sji->ji", g1_bar, dpw)
        u_bar = z_bar * g1 + g1_bar * ddg
        v_bar = g1[:, :, None] * vd_bar
    gw[0] = u_bar.T @ points + v_bar.sum(axis=0)
    return gw, gc


class _LMProblem:
    """Residual r = [vec(J - Jhat); sqrt(lam) vec(F - Fhat)] of the model
    with parameters theta (see :func:`lm_pack`), entries in slice-major order, and
    products with M = -dr/dθ, the derivative of the fitted values.

    A point theta is evaluated once: ``residual(theta, keep=True)`` keeps
    its pass, ``tape`` turns that pass into the forward tape, and the normal
    matrix (``linearize``) and the adjoint pass (``apply_t``) read the tape.
    """

    def __init__(self, weights, coeffs, j_tensor, f_matrix, points, lam):
        self.coeffs = coeffs
        self.layout = _lm_layout(weights, coeffs)
        self.j_slices = np.transpose(j_tensor, (2, 0, 1))
        self.f_rows = f_matrix.T
        self.points = points
        self.lam = lam
        self.root_lam = np.sqrt(lam)
        # the normal matrix is accumulated over chunks of sampling points,
        # which bounds the memory of the derivative arrays whatever S is
        self.chunks = [
            slice(i, i + _LM_CHUNK_ROWS) for i in range(0, points.shape[0], _LM_CHUNK_ROWS)
        ]

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
        """The forward tape of a kept pass: per layer the power rows, g_l,
        g_l', g_l'', V_l, the derivative rows and g_l' V_l at every point."""
        weights, coeffs, layers, chain = kept
        return weights, [
            (t.powers, t.g, t.dg, np.einsum("sji,ji->sj", t.powers[..., :-2], _der(_der(c))),
             V, derivative_rows(t.powers), t.dg[:, :, None] * V)
            for t, c, V in zip(layers, coeffs, chain)
        ]

    def _derivatives(self, tape):
        """(slice, T, Q) of ``_lm_derivatives`` chunk by chunk, from the tape's rows.

        V_1 = W_0 is one matrix for all points; every other array has a row
        per point.
        """
        weights, steps = tape
        for sl in self.chunks:
            rows = [[a if len(a) == 1 else a[sl] for a in step] for step in steps]
            yield (sl, *_lm_derivatives(weights, rows, self.points[sl]))

    def linearize(self, tape, r):
        """(H, g): the normal matrix M.T M and the gradient M.T r at the tape's point."""
        P = self.layout[-1][1]
        nj = self.j_slices.size
        rj = r[:nj].reshape(self.j_slices.shape)
        rf = r[nj:].reshape(self.f_rows.shape)
        H = np.zeros((P, P))
        g = np.zeros(P)
        for sl, T, Q in self._derivatives(tape):
            Mj, Mf = Q.reshape(-1, P), T.reshape(-1, P)
            # one P x P temporary at a time
            H += Mj.T @ Mj
            H += (self.lam * Mf).T @ Mf
            g += Mj.T @ rj[sl].ravel() + self.root_lam * (Mf.T @ rf[sl].ravel())
            del T, Q, Mj, Mf  # before the next chunk's arrays exist
        return H, g

    def jacobian(self, theta):
        """M = -dr/dθ as a dense (S*n*m + S*n) x P matrix."""
        P = theta.size
        parts = list(self._derivatives(self.tape(self.residual(theta, keep=True)[1])))
        Mj = np.concatenate([Q.reshape(-1, P) for _, _, Q in parts])
        Mf = np.concatenate([T.reshape(-1, P) for _, T, _ in parts])
        return np.concatenate([Mj, self.root_lam * Mf])

    def curvature(self, theta, v, tape, g, Hv):
        """M.T f_vv, f_vv the second directional derivative of the fitted values along v.

        r(theta + h v) = r - h M v - (h^2/2) f_vv + O(h^3) with M.T r = g and
        M.T M v = H v, so M.T f_vv ~ (2/h) ((g - M.T r(theta + h v)) / h - H v).
        """
        r_probe = self.residual(theta + _LM_GEO_H * v)
        return (2.0 / _LM_GEO_H) * ((g - self.apply_t(tape, r_probe)) / _LM_GEO_H - Hv)

    def apply_t(self, tape, y):
        """M.T @ y by an adjoint pass."""
        weights, steps = tape
        nj = self.j_slices.size
        gw, gc = _lm_vjp(
            weights, steps, self.points,
            self.root_lam * y[nj:].reshape(self.f_rows.shape),
            y[:nj].reshape(self.j_slices.shape),
        )
        return lm_pack(gw, gc)


def _consistent_state(weights, coeffs, points):
    """Solver state whose G and R are evaluated from the coefficients."""
    layers = layer_pass(weights, coeffs, points)[0]
    return SolverState(
        weights=[np.array(w, dtype=float) for w in weights],
        G=[t.dg for t in layers],
        R=layers[-1].g,
        coeffs=[np.array(c, dtype=float) for c in coeffs],
    )


def lm_descent(state, j_tensor, f_matrix, points, lam):
    """Levenberg-Marquardt descent of the objective over the model parameters.

    The parameters are W_0..W_L and every coefficient except the frozen
    constants of the layers below the last (see :func:`lm_pack`); the
    residual is r = [vec(J - Jhat); sqrt(lam) vec(F - Fhat)] with Jhat and
    Fhat evaluated from the weights and coefficients, so that on a
    consistent state r @ r equals ``objective(...)[2]``; its Jacobian is
    analytic.

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

    Stops once the objective is below 1e-20 of ||J||^2 + lam ||F||^2
    ("converged"), once it fell by less than 10% over 15 iterations or the
    damping ran away ("stalled"), or after 150 iterations ("max_iters").
    A non-finite objective or Jacobian at an accepted point raises
    SolverDivergenceError.
    """
    prob = _LMProblem(state.weights, state.coeffs, j_tensor, f_matrix, points, lam)
    theta = lm_pack(state.weights, state.coeffs)
    scale = float(np.sum(j_tensor * j_tensor) + lam * np.sum(f_matrix * f_matrix))
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
        if f <= _LM_TOL * scale:
            stop_reason = "converged"
            break
        if mu > _LM_MU_MAX or (
            it >= _LM_STALL_WINDOW and f > _LM_STALL_FACTOR * history[-1 - _LM_STALL_WINDOW]
        ):
            stop_reason = "stalled"
            break
    return LMResult(
        state=_consistent_state(*prob.model(theta), points),
        objective=f,
        iterations=iterations,
        stop_reason=stop_reason,
    )


# LM descents of one start search at most
_SEARCH_STARTS = 8


def start_search(cfg, j_tensor, f_matrix, points):
    """Best of ``_SEARCH_STARTS`` seeded LM descents by the training objective at cfg.lam.

    Start k draws W_0..W_L and the coefficients (in that order, start after
    start) from the standard normal distribution N(0, 1) with
    ``seeded_rng(cfg.rng_seed)``, sets the frozen constants of the
    layers below the last to 0 (a constant shift of a layer's output is
    absorbed by the next layer's polynomials), rebalances the neuron input
    scales (:func:`rebalance`) and runs :func:`lm_descent`.  The search
    stops early at a start that fits the data to round-off, since no other
    start can beat it by more than round-off.  Starts that diverge are
    dropped; returns None when no start gave a finite objective, and the
    consistent state of the best descent otherwise.
    """
    j_tensor, f_matrix, points = _check_fit_inputs(j_tensor, f_matrix, points)
    n, m, S = j_tensor.shape
    dims = [m, *cfg.ranks, n]
    L = cfg.n_layers
    rng = seeded_rng(cfg.rng_seed)
    best = None
    for _ in range(_SEARCH_STARTS):
        weights = [rng.standard_normal((dims[k + 1], dims[k])) for k in range(L + 1)]
        coeffs = [rng.standard_normal((r, d + 1)) for r, d in zip(cfg.ranks, cfg.degrees)]
        for c in coeffs[:-1]:
            c[:, 0] = 0.0
        try:
            with np.errstate(all="ignore"):
                state = _normalize_inputs(_consistent_state(weights, coeffs, points), points)
            result = lm_descent(state, j_tensor, f_matrix, points, cfg.lam)
        except (SolverDivergenceError, np.linalg.LinAlgError):
            continue
        if not np.isfinite(result.objective):
            continue
        if best is None or result.objective < best.objective:
            best = result
        if result.stop_reason == "converged":
            break
    return None if best is None else best.state


def state_to_model(state):
    """Decoupled model from the current factors; frozen constants included."""
    return DecoupledModel(
        weights=tuple(state.weights),
        coeffs=tuple(state.coeffs),
    )
