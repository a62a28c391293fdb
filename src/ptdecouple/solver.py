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

Both start from one build of the layer's per-slice G-row planes,
``_coeff_problem``, and read the structure rows of the layer inputs that
``_coeff_bases`` gives.

At large S the tall systems of a sweep (the middle and last W systems and
both coefficient systems) are built and reduced one panel of slices at a
time (``tensor_ops.slice_panels`` and ``tensor_ops.lstsq_panels``), so that
their memory follows a byte budget rather than S; a system of fewer than
200 slices, which ``slice_panels`` never splits, is built and solved whole,
so every S = 30 fit keeps its bits.  Every coefficient update holds its
subproblem at rank size: the G-row planes take the chains at the first and last layers through the QR of the weight matrix
that all slices share, W_0 or W_L, where it is the taller (9 rows per
slice become 6 on f2), and they are built whole, the chains around the
layer one chunk of slices at a time; a coefficient system writes its
structure rows from the layer inputs, one panel at a time or whole, so
that X and Y are built whole only once the system is gone.
A fit keeps its best sweep as weights and coefficients, not as a second
copy of the factors (:func:`fit`).  On f2 at S = 1000 the benchmark's
2-sweep fits peak at 297 traced bytes per sampling point, set by the
middle W update: 584 with every system whole, 454 with the panels while a
fit copied its best state at every improving sweep, and 398 with 9 plane
rows per slice and X and Y held beside the panels.

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
its tape, and one adjoint (reverse-mode) kernel over the tape gives every
derivative of the descent: seeded with unit vectors, the rows of the
residual's Jacobian chunk by chunk of sampling points, from which the
normal matrix is summed; seeded with a residual, its product with the
Jacobian's transpose.  Its cost is set by the n(m+1) fitted values per
point, not by the parameter count.  On f1 at S = 30 a search peaks at
76.5-77.5 KB above its inputs, against 77.2-78.3 KB with the forward-mode
derivatives it replaced, and takes 0.88-0.97 of their CPU time per LM
iteration (median ratios of two sets of 6 alternating runs).

A fit is single-threaded and deterministic given its configuration;
separate fits share no mutable state and may run concurrently.  A start
search runs its descents on every usable core, in the calling process and
forked helpers, and returns the same bits as on one core; the searches of
a tuned run's stages run as one :class:`StartSearch`, whose helpers
descend the next stage's starts while the caller sweeps.  Every
generator the package makes comes from :func:`seeded_rng`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .basis import build_X, build_Y, write_X
from .model import (
    DecoupledModel,
    _der,
    derivative_rows,
    internal_inputs_batch,
    layer_pass,
    left_chain,
    power_rows,
    right_chains,
)
from .tensor_ops import (
    _QR_MIN_STACK,
    NonFiniteError,
    fro_norm,
    lstsq_info,
    lstsq_panels,
    lstsq_reduced,
    reduce_planes,
    slice_panels,
    unfold,
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
    "StartSearch",
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
        M = np.empty((w[L].shape[1], G[0].shape[0] * w[0].shape[1]))
        _last_rows(w, G, M.T)
        return M
    # column-major, each column one contiguous block (see _kron_rows)
    M = np.empty((w[layer].size, G[0].shape[0] * w[0].shape[1] * w[-1].shape[0])).T
    _kron_rows(w, G, layer, M)
    return M


def _last_rows(weights, G, out):
    """The rows of ``build_MW(state, L).T`` for the slices of G, written into out.

    out is S*m x r_L, S the slices G holds and m the inputs; row (s, j),
    column i holds G_L[s, i] * V_L[s, i, j], V_L the right chain of the last
    layer (one slice for all at L = 1, where it is W_0).  Written one input
    j of one column at a time by np.multiply, which keeps its -0.0
    products: numpy buffers a broadcast product, and one written across
    rows of r_L entries.
    """
    V = right_chains(weights, G, len(weights) - 1)[-1]
    S, (r, m) = len(G[-1]), V.shape[1:]
    for i in range(r):
        col = out[:, i].reshape(S, m)
        for j in range(m):
            np.multiply(G[-1][:, i], V[:, i, j], out=col[:, j])


def _kron_rows(weights, G, layer, out):
    """The middle-layer rows of :func:`build_MW` for the slices of G, written into out.

    out is S*m*n x r_l*r_{l+1}, S the slices G holds; the chains are
    computed for those slices alone, and a slice's rows do not depend on
    the others.  Row (s, a, b), column (k, q) holds B[s, k, a] * A[s, b, q],
    per slice kron(B.T, A), each column written by its own einsum: one
    einsum that broadcasts over the columns allocates iteration buffers,
    130 KB at f2 S = 1000.  Each entry is a single product, and a solve
    copies the rows into LAPACK's layout, so the layout of out changes no
    bit.
    """
    A = left_chain(weights, G, layer + 1) * G[layer][:, None, :]
    B = G[layer - 1][:, :, None] * right_chains(weights, G, layer)[-1]
    S, K, a = B.shape
    Q = A.shape[2]
    for k in range(K):
        for q in range(Q):
            np.einsum("sa,sb->sab", B[:, k], A[:, :, q], out=out[:, k * Q + q].reshape(S, a, -1))


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
    # sign, so each block keeps the call that writes it.  One n x S block
    # per call: a single call broadcasting over all four axes buffers its
    # operands, 64 KB or more whatever S is.
    right, left = right.transpose(1, 2, 0), left.transpose(2, 1, 0)
    for j in range(r):
        for a in range(m):
            np.multiply(right[j, a], left[j], out=out[j, a])
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


def _lstsq(state, a, b):
    """``lstsq_info`` of one system or a stack, its truncations counted in the state."""
    return _counted(state, lstsq_info(a, b))


def _counted(state, solved):
    """The solution of a ``(x, truncations)`` pair, its truncations counted in the state."""
    x, trunc = solved
    state.n_truncated += trunc
    return x


def update_W(state, layer, j_tensor, f_matrix, lam):
    """Replace W_layer with the least-squares minimizer of its subproblem.

    For the last layer the tensor block is stacked with the sqrt(lam)-scaled
    F factorization block so both terms are fit jointly in one system.  The
    middle and last layers' systems are built per slice, one panel of
    slices at a time (:func:`lstsq_panels`): a middle panel holds the rows
    of :func:`build_MW` and vec3(J) for its slices, from chains computed
    for those slices alone, and a last-layer panel its slices' rows of M.T
    and unfold(J, 1).T, then their sqrt(lam) R and F.T rows, each written
    in place.  Below 200 slices it is built whole, in that order.
    """
    L = state.n_layers
    if not 0 <= layer <= L:
        raise ValueError(f"layer must be in 0..{L}, got {layer}")
    if layer == 0:
        state.weights[0] = _lstsq(state, build_MW(state, 0), unfold(j_tensor, 2).T)
        return state
    n, m, S = j_tensor.shape
    w = state.weights
    r_next, r_this = w[layer].shape

    def middle_rows(panel):
        sl = slice(None) if panel is None else panel[0]
        G = [g[sl] for g in state.G]
        k = len(G[0])
        # column-major, so that each column is one contiguous block
        ab = np.empty((r_next * r_this + 1, k * m * n)).T
        _kron_rows(w, G, layer, ab[:, :-1])
        # row (s, a, b) of vec3(J) holds J[b, a, s]
        ab[:, -1].reshape(k, m, n)[...] = j_tensor[:, :, sl].transpose(2, 1, 0)
        return ab

    def last_rows(panel):
        sl = slice(None) if panel is None else panel[0]
        G = [g[sl] for g in state.G]
        k = len(G[0])
        # column-major, written one column at a time: numpy buffers a
        # product written across rows of r + n entries
        ab = np.empty((r_this + n, (m + 1) * k)).T
        _last_rows(w, G, ab[: m * k, :r_this])
        for i in range(r_this):
            np.multiply(np.sqrt(lam), state.R[sl, i], out=ab[m * k :, i])
        for c in range(n):
            ab[: m * k, r_this + c].reshape(k, m)[...] = j_tensor[c, :, sl].T
            np.multiply(np.sqrt(lam), f_matrix[c, sl], out=ab[m * k :, r_this + c])
        return ab

    if layer < L:
        panels = _row_panels(S, 8 * m * n * (r_next * r_this + 1))
        x = _counted(state, lstsq_panels(middle_rows, panels, r_next * r_this))
        w[layer] = x.reshape((r_next, r_this), order="F")
    else:
        # beside the rows, the last layer's chain and its temporary
        panels = _row_panels(S, 8 * (m + 1) * (r_this + n), held=16 * m * r_this)
        w[L] = _counted(state, lstsq_panels(last_rows, panels, r_this)).T
    return state


def _rank_size(weights, layer):
    """The weights that give a layer's G-row planes at rank size, and the Q factors taken out.

    Every slice shares the right chain of the first layer, W_0, and the
    left chain of the last, W_L.  Where W_0 (r_1 x m) has more columns than
    rows, W_0^T = Q_in R and R^T takes W_0's place; where W_L (n x r_L) has
    more rows than columns, W_L = Q_out R and R takes W_L's place.  Returns
    ``(weights, q_in, q_out)``, a q None where its factor is kept.  A
    slice's G-row matrix is then (Q_in kron Q_out) times the one the new
    weights give, with orthonormal columns, so the smaller system has the
    same minimizer and singular values against (Q_in kron Q_out)^T vec(J_s)
    (Van Loan, "The ubiquitous Kronecker product", 2000).
    """
    weights = list(weights)
    q_in = q_out = None
    if layer == 1 and weights[0].shape[1] > weights[0].shape[0]:
        q_in, R = np.linalg.qr(weights[0].T)
        weights[0] = R.T
    if layer == len(weights) - 1 and weights[-1].shape[0] > weights[-1].shape[1]:
        q_out, weights[-1] = np.linalg.qr(weights[-1])
    return weights, q_in, q_out


def _plane_rows(weights, layer):
    """p = m'n', the rows per slice of a layer's G-row planes at rank size (:func:`_rank_size`)."""
    m, n = weights[0].shape[1], weights[-1].shape[0]
    if layer == 1:
        m = min(m, len(weights[0]))
    if layer == len(weights) - 1:
        n = min(n, weights[-1].shape[1])
    return m * n


def _coeff_problem(state, layer, j_tensor, sl=slice(None)):
    """The per-slice G-row planes that both coefficient updates of a layer start from.

    Returns ``(C, i0)`` for the slices sl (all by default): C
    ((r+1) x p x k, k slices) holds the slices' G-row matrices K_s
    (:func:`_g_rows`) as r column planes, then their targets b_s as one
    more, so that b_s = K_s G_layer[s] for exact factors.  They are at rank
    size (:func:`_rank_size`): p = m'n', with m' = r_1 in place of m at the
    first layer and n' = r_L in place of n at the last where the shared
    weight matrix is the taller, so that f2's planes hold 6 rows per slice,
    not 9, and b_s = (Q_in kron Q_out)^T vec(J_s); elsewhere K_s and b_s are
    the slice's Khatri-Rao rows and vec(J_s) themselves.  Each K_s keeps
    the minimizer, the singular values and so the truncations of the
    unreduced system.  ``_planes_stack(C)`` gives the stack K (k x p x r)
    and jb (k x p) as views.  A slice's planes do not depend on the others.
    i0 is the first fitted coefficient column (1 below the last layer, where
    the constants are frozen, else 0).  The rows of (M_C)_0 are K_s times
    the structure rows X[:, s, i0:] of the layer inputs of
    :func:`_coeff_bases`.
    """
    n, m, _ = j_tensor.shape
    weights, q_in, q_out = _rank_size(state.weights, layer)
    p = _plane_rows(state.weights, layer)
    G = [g[sl] for g in state.G]
    r, S = G[layer - 1].shape[1], len(G[0])
    C = np.empty((r + 1, p, S))
    planes = C[:r].reshape(r, weights[0].shape[1], -1, S)
    # the planes are written one chunk of slices at a time, so that the
    # chains around the layer and their temporaries, up to three arrays of a
    # chain's size, exist for one chunk only
    for ch in slice_panels(S, 8 * ((r + 1) * p + 3 * r * max(m, n))):
        _g_rows(weights, [g[ch] for g in G], layer, out=planes[..., ch])
    J, jb = j_tensor[:, :, sl], C[r].reshape(planes.shape[1:])
    if q_in is None and q_out is None:
        jb[...] = J.transpose(1, 0, 2)
    elif q_out is None:
        # row (t, b) holds sum_a Q_in[a, t] J[b, a, s]
        np.einsum("at,bas->tbs", q_in, J, out=jb)
    else:
        if q_in is not None:  # L = 1, where both chains are shared
            J = np.einsum("at,bas->bts", q_in, J)
        # row (a, u) holds sum_b Q_out[b, u] J[b, a, s], one column u per
        # einsum: one einsum over all of them buffers J, 97.5 KB at f2 S = 1000
        for u, q in enumerate(q_out.T):
            np.einsum("b,bas->as", q, J, out=jb[:, u])
    return C, 0 if layer == state.n_layers else 1


def _row_panels(S, first, second=None, held=0):
    """Panels ``(slices, first, second)`` for :func:`lstsq_panels` of a system built per slice.

    A system that :func:`slice_panels` never splits is built and solved
    whole, ``[None]``, both parts of every slice in that order.  Any other
    is built and reduced in panels: ``first`` and ``second`` are the bytes
    of one slice's rows in the system's two parts (None: one part),
    ``held`` what the update holds beside them per slice, and each part is
    split on its own, the first part's panels first, a panel's QR holding
    its rows twice.  A part that fits one panel is reduced by its QR too.
    """
    if S < 2 * _QR_MIN_STACK:
        return [None]
    panels = [(sl, True, False) for sl in slice_panels(S, 2 * first + held)]
    if second is not None:
        panels += [(sl, False, True) for sl in slice_panels(S, 2 * second + held)]
    return panels


def _coeff_bases(state, layer, points):
    """U (S x r): the layer's fresh inputs, from which its structure rows are built.

    Column j of G_layer (R) is X[j] @ c_j (Y[j] @ c_j), with X and Y the
    structure matrices of U (:func:`_structure`).  U depends only on the
    weights and coefficients of the layers below, which a G-row solve does
    not change, so the pass stops there.  A coefficient system writes its
    X and Y rows from U, one panel or the whole system at a time, and X
    and Y are built whole only once the system is gone, for
    :func:`_write_factors`.
    """
    return internal_inputs_batch(state.weights[: layer + 1], state.coeffs[:layer], points)[-1]


def _structure(state, layer, U):
    """``(X, Y)``: ``build_X(U, d)``, and ``build_Y(U, d)`` at the last layer, else None."""
    d = state.coeffs[layer - 1].shape[1] - 1
    return build_X(U, d), build_Y(U, d) if layer == state.n_layers else None


def _planes_stack(C):
    """The stack K (S x p x r) and jb (S x p) held in C's planes, as views."""
    return C[:-1].transpose(2, 1, 0), C[-1].T


def _reduced_planes(state, layer, j_tensor):
    """Every slice's R_s and (Q_s^T b_s)[:r] of the G-row planes of :func:`_coeff_problem`.

    The planes are reduced in place (:func:`reduce_planes`) and R and Q^T b
    copied out of them, so the planes are gone once this returns and no
    solve is held beside them.
    """
    C, _ = _coeff_problem(state, layer, j_tensor)
    R, y = reduce_planes(C[:-1], C[-1])
    return R.copy(), y.copy()


def _write_factors(state, layer, U):
    """Overwrite G_layer, and R at the last layer, with their structured versions.

    Column j becomes X[j] @ c_j (Y[j] @ c_j), the structure matrices of the
    layer inputs U, built whole here (:func:`_structure`) once the
    coefficient system is gone, in the layout of ``build_X``, which the
    matmul's bits follow.  The stacked matmul gives the bits of those
    per-neuron products, and the results go into the existing arrays,
    which keeps their memory layout.
    """
    X, Y = _structure(state, layer, U)
    c = state.coeffs[layer - 1][:, :, None]
    state.G[layer - 1][...] = (X @ c)[:, :, 0].T
    if Y is not None:
        state.R[...] = (Y @ c)[:, :, 0].T


def update_c_proj(state, layer, j_tensor, f_matrix, points, lam):
    """Projection update: free factor rows first, then fit coefficients.

    All rows of G_layer are updated by unconstrained least squares in one
    stacked solve against the G-row matrices of :func:`_coeff_problem`, at
    rank size; a stack of at least ``_QR_MIN_STACK`` tall systems is
    reduced in the planes it was built in and solved from its triangles
    (:func:`_reduced_planes`, :func:`lstsq_reduced`), a smaller one by the
    SVD.  For the last layer R is fit as a whole too, from F.
    Every neuron's coefficients are then fit to its updated factor column
    through the structure rows of the fresh layer inputs
    (:func:`_coeff_bases`, computed once the planes are gone), all neurons
    in one stacked solve; the last layer stacks the sqrt(lam)-scaled R
    column and function-value rows below.  That stack is built one panel
    of slices at a time (:func:`lstsq_panels`), its X rows and its Y rows
    as separate panels, each written from U into the panel's array, and
    whole, X rows then Y rows, below 200 slices.
    The constants of the layers below the last stay frozen.  Finally the
    factors are overwritten by their structured versions.
    """
    S, r = state.G[layer - 1].shape
    if S >= _QR_MIN_STACK and _plane_rows(state.weights, layer) >= r:
        solved = lstsq_reduced(*_reduced_planes(state, layer, j_tensor))
    else:
        solved = lstsq_info(*_planes_stack(_coeff_problem(state, layer, j_tensor)[0]))
    G = state.G[layer - 1] = _counted(state, solved)
    U = _coeff_bases(state, layer, points)
    last = layer == state.n_layers
    i0 = 0 if last else 1
    if last:
        state.R = _lstsq(state, state.weights[-1], f_matrix).T
    d = state.coeffs[layer - 1].shape[1] - 1
    w, R = d + 1 - i0, state.R
    part = 8 * r * (w + 1)
    panels = _row_panels(len(G), part, part if last else None)

    def rows(panel):
        # neuron j's rows: X_j against G[:, j], then sqrt(lam) Y_j against
        # sqrt(lam) R[:, j]
        sl, with_x, with_y = (slice(None), True, True) if panel is None else panel
        k = len(G[sl])
        n_x = k if with_x else 0
        # column-major per neuron: numpy buffers what it reads or writes
        # across rows of w + 1 entries, 64 KB a call
        ab = np.empty((r, w + 1, n_x + (k if with_y and last else 0)))
        ab = ab.transpose(0, 2, 1)
        if with_x:
            write_X(U[sl], d, ab[:, :k, :w])
            ab[:, :k, w] = G[sl].T
        if with_y and last:
            power_rows(U[sl].T, d, out=ab[:, n_x:, :w].transpose(2, 0, 1))
            # one column at a time, as ab's columns lie
            for t in range(w):
                np.multiply(np.sqrt(lam), ab[:, n_x:, t], out=ab[:, n_x:, t])
            np.multiply(np.sqrt(lam), R[sl].T, out=ab[:, n_x:, w])
        return ab

    state.coeffs[layer - 1][:, i0:] = _counted(state, lstsq_panels(rows, panels, w))
    _write_factors(state, layer, U)
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
# least this many rows, S * (p - r), counted on the G-row planes at rank
# size (_plane_rows).  Time of a 5-sweep constr fit, reduced / full rows
# (rows removed per layer), median of 41 interleaved pairs, one BLAS
# thread, 2 shared x86-64 vCPUs: f2 shape (p = 6, r = 2) S = 100 1.13
# (400), S = 200 1.02 (800), S = 300 0.94 (1200), S = 500 0.86 (2000),
# S = 1000 0.74 (4000); f1 shape (p = 4, r = 2) S = 300 1.01 (600), S = 500
# 0.94 (1000), S = 700 0.91 (1400), S = 1000 0.88 (2000); L = 3 (m = 3,
# n = 2, ranks 3, 2, 2) S = 300 1.01 (900-1200), S = 500 0.90 (1500-2000),
# S = 1000 0.84 (3000-4000).  The stacked QR costs a fixed number of numpy
# calls, which fewer removed rows do not repay: _QR_MIN_STACK's cut at
# S = 100 would slow the fits at S = 100-200.  The S = 30 fits remove at
# most 210 rows and keep the full system: reducing every slice, 20-sweep
# constr fits there take 1.28 (f1), 1.33 (L = 3) and 1.27 (f2) times the
# CPU time (median of 21 interleaved runs), 1.11-1.13 with one batched
# np.linalg.qr in place of reduce_planes.
_CONSTR_QR_MIN_ROWS = 1000


def update_c_constr(state, layer, j_tensor, f_matrix, points, lam):
    """Direct coefficient update with the constraints satisfied by construction.

    Solves for the coefficient vector against the targets b_s through the
    pruned structure-incorporated system (M_C)_0, whose rows of slice s are
    K_s D_s with K_s and b_s the slice's rank-size G-row matrix and target
    (:func:`_coeff_problem`) and D_s the slice's structure rows; the last
    layer stacks the sqrt(lam)-scaled F factorization block below.  G (and
    R) are then written from the coefficients, so they satisfy the
    constraints exactly.

    With K_s = Q_s R_s, the r rows R_s D_s against
    (Q_s^T b_s)[:r] have the same minimizer and the same singular
    values: the system is block-diagonal(Q_s) times the reduced one.  Once
    that would remove at least ``_CONSTR_QR_MIN_ROWS`` rows of the planes,
    every slice is reduced by one stacked QR in the planes
    (:func:`_reduced_planes`); the reduced rows are built from R and Q^T b
    in the order (row of R, slice), and at the last layer the F block
    W_L E_s is reduced alike by one QR of W_L when n > r.  A non-finite
    plane raises :class:`NonFiniteError`.  The system's J rows and F rows
    are built one panel of slices at a time (:func:`lstsq_panels`), each block
    written into the panel's one array from the panel's structure rows,
    computed from the layer inputs; below 200 slices it is built whole, J
    rows then F rows, the same way.  The solve scales the columns to unit
    norm.
    """
    n, _, S = j_tensor.shape
    r = state.G[layer - 1].shape[1]
    last = layer == state.n_layers
    # the F block's W_L E_s rows at the last layer, none below it
    W = state.weights[-1][: n if last else 0]
    fb = f_matrix[: len(W)]
    p = _plane_rows(state.weights, layer)
    reduced = S * (p - r) >= _CONSTR_QR_MIN_ROWS
    if reduced:
        if len(W) > r:
            # the QR of W_L cuts the coupling block from n*S to r*S rows
            Q, Wq = np.linalg.qr(W)
            W, fb = Wq, Q.T @ fb
        Rs, ys = _reduced_planes(state, layer, j_tensor)
        # the rows per slice of the system: R_s's, not the planes'
        p = r
    U = _coeff_bases(state, layer, points)
    d = state.coeffs[layer - 1].shape[1] - 1
    i0 = 0 if last else 1
    w = d + 1 - i0
    q = r * w
    # held beside a panel's rows, per slice: its structure rows X and Y,
    # and the reduced slices
    held = 8 * r * (d + 1) * (1 + last) + (8 * r * (r + 1) if reduced else 0)
    panels = _row_panels(S, 8 * p * (q + 1), 8 * len(W) * (q + 1) if last else None, held=held)

    def rows(panel):
        sl, with_j, with_f = (slice(None), True, True) if panel is None else panel
        k = len(U[sl])
        n_j = p * k if with_j else 0
        ab = np.empty((n_j + (len(W) * k if with_f else 0), q + 1))
        a, b = ab[:, :-1], ab[:, -1]
        # Blocks are written by einsum, whose single products land in a
        # zeroed output as +0.0 where np.multiply keeps -0.0: a solve can
        # see the sign, so compare bytes, not values.  A call that writes a
        # strided block allocates iteration buffers as large as the block,
        # so the large blocks are written one panel of k rows per call.
        if with_j:
            X = write_X(U[sl], d, np.empty((w, r, k)).transpose(1, 2, 0))
        if with_j and reduced:
            # row (t, s), column (j, i) holds R_s[t, j] * X[j, s, i]
            blocks = a[:n_j].reshape(r, k, r, w)
            for t in range(r):
                np.einsum("js,jsi->sji", Rs[:, t, sl], X, out=blocks[t])
            b[:n_j] = ys[:, sl].ravel()
        elif with_j:
            # the full rows, from the panel's planes
            C, _ = _coeff_problem(state, layer, j_tensor, sl)
            K, jb = _planes_stack(C)
            _structured_rows(K, X, out=a[:n_j])
            b[:n_j].reshape(jb.shape)[...] = jb
            del C, K, jb
        if with_f and last:
            Y = power_rows(U[sl].T, d)
            # kron(W_L, I_S) @ blockdiag(Y_j): row (i, s), column (j, t) holds
            # sqrt(lam) * W_L[i, j] * Y_j[s, t]
            blocks = a[n_j:].reshape(len(W), k, r, w)
            for i in range(len(W)):
                np.einsum("j,jst->sjt", W[i], Y, out=blocks[i])
            # one column at a time: numpy copies a strided block that it
            # scales in place
            for j in range(q):
                a[n_j:, j] *= np.sqrt(lam)
            np.multiply(np.sqrt(lam), fb[:, sl], out=b[n_j:].reshape(len(W), k))
        return ab

    # the truncation rule applies to the system with unit columns: at the
    # last layer the constants' columns sit in the sqrt(lam) F rows alone,
    # and at lam <= 1e-12 the unscaled system truncated them
    c = _counted(state, lstsq_panels(rows, panels, q, unit=True))
    state.coeffs[layer - 1][:, i0:] = c.reshape(r, -1)
    _write_factors(state, layer, U)
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
    """||J - PT(W, G)||^2, all slices at once.

    The residual is written over the last chain and squared in place, once
    the other chains are gone, so that it is the one stack held; the sum
    reads the same products in the same layout as that of J - chain and
    its square.
    """
    diff = right_chains(state.weights, state.G, state.n_layers + 1)[-1]
    np.subtract(np.transpose(j_tensor, (2, 0, 1)), diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(np.sum(diff))


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

    The best sweep is kept as parameters only: copies of W_0..W_L and the
    coefficients, and its ``n_truncated``.  Its G_1..G_L and R are the
    structured factors of those parameters, so when a later sweep ends the
    fit they are written once, into the live state's arrays, by the calls
    that wrote them in that sweep (:func:`_coeff_bases`,
    :func:`_write_factors`), and the returned state holds the best sweep's
    bytes.  The report's ``n_truncated`` counts every sweep's truncations.
    """
    j_tensor, f_matrix, points = _check_fit_inputs(j_tensor, f_matrix, points)
    n, m, S = j_tensor.shape
    state = initial_state.copy() if initial_state is not None else init_state(
        cfg, (n, m, S)
    )
    update_c = update_c_proj if cfg.strategy == "proj" else update_c_constr
    L = cfg.n_layers
    lam = cfg.lam

    # (sweep, weights, coefficients, n_truncated) of the best sweep so far
    best = None
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
            # in their own layouts, which the passes that rebuild G and R read
            best = (it, [w.copy(order="K") for w in state.weights],
                    [c.copy(order="K") for c in state.coeffs], state.n_truncated)
            best_total = total
            best_terms = j_term, f_term
        else:
            improved = False
        stall = 0 if improved else stall + 1
        if it >= cfg.min_iters and stall >= cfg.patience:
            stop_reason = "patience"
            break

    n_truncated = state.n_truncated
    it, weights, coeffs, best_truncated = best
    if it < iterations:
        # the live arrays take the best sweep's factors: each G_l (and R) is
        # a function of the weights below layer l and the coefficients
        state = SolverState(weights=weights, G=state.G, R=state.R, coeffs=coeffs,
                            trace=state.trace, n_truncated=best_truncated)
        for layer in range(1, L + 1):
            _write_factors(state, layer, _coeff_bases(state, layer, points))
    # C-ordered, as a copy of the state is: the solves leave W_1..W_L, and R
    # in proj, in Fortran order, and the model's passes read the layout
    for arrays in (state.weights, state.G, state.coeffs):
        arrays[:] = [np.ascontiguousarray(a) for a in arrays]
    state.R = np.ascontiguousarray(state.R)
    return FitReport(
        state=state,
        error_j=best_terms[0] / fro_norm(j_tensor) ** 2,
        error_f=best_terms[1] / fro_norm(f_matrix) ** 2,
        iterations=iterations,
        stop_reason=stop_reason,
        config=cfg,
        n_truncated=n_truncated,
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
    coefficients.  This is the order in which the blocks enter the model.
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


class _LMProblem:
    """Residual r = [vec(J - Jhat); sqrt(lam) vec(F - Fhat)] of the model
    with parameters theta (see :func:`lm_pack`), entries in slice-major order, and
    products with M = -dr/dθ, the derivative of the fitted values.

    A point theta is evaluated once: ``residual(theta, keep=True)`` keeps
    its pass and ``tape`` turns that pass into the tape.  One adjoint
    kernel over the tape, ``_rows``, serves every derivative: seeded with
    unit vectors it gives the rows of M, which ``linearize`` sums into the
    normal matrix one chunk of ``_LM_CHUNK_ROWS`` points at a time and
    ``jacobian`` stacks; seeded with y it gives M.T y (``apply_t``, and so
    ``curvature``).  A 16-point chunk of f1's rows is 21.5 KB, and the
    kernel's temporaries stay under 18 KB beside it.
    """

    def __init__(self, weights, coeffs, j_tensor, f_matrix, points, lam):
        self.coeffs = coeffs
        self.layout = _lm_layout(weights, coeffs)
        self.j_slices = np.transpose(j_tensor, (2, 0, 1))
        self.f_rows = f_matrix.T
        self.points = points
        self.root_lam = np.sqrt(lam)
        # the normal matrix is accumulated over chunks of sampling points,
        # which bounds the memory of the derivative arrays whatever S is
        self.chunks = [
            slice(i, i + _LM_CHUNK_ROWS) for i in range(0, points.shape[0], _LM_CHUNK_ROWS)
        ]
        self.passes = [
            slice(i, i + _LM_PASS_ROWS) for i in range(0, points.shape[0], _LM_PASS_ROWS)
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
        """The tape of a kept pass: per layer the power rows, g_l, g_l',
        g_l'', V_l, the derivative rows and g_l' V_l at every point."""
        weights, coeffs, layers, chain = kept
        return weights, [
            (t.powers, t.g, t.dg, np.einsum("sji,ji->sj", t.powers[..., :-2], _der(_der(c))),
             V, derivative_rows(t.powers), t.dg[:, :, None] * V)
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
        iteration buffers; no point's rows depend on another point.
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
            powers, g, g1, ddg, V, dpw, Vd = (a if len(a) == 1 else a[sl] for a in steps[l - 1])
            W = weights[l]
            r = W.shape[1]
            i0 = 0 if l == L else 1
            w = powers.shape[2] - i0
            Z_t = np.concatenate([g[:, None], np.swapaxes(Vd, 1, 2)], axis=1)
            np.matmul(Y, Z_t[:, None], out=self._block(out, 2 * l))
            del Z_t
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
        summed over chunks of the kernel's rows of M."""
        seeds = self._unit_seeds()
        nj = self.j_slices.size
        # r's entries at each point, in the order of its rows of M
        r_pts = np.concatenate([r[:nj].reshape(len(self.points), -1),
                                r[nj:].reshape(self.f_rows.shape)], axis=1)
        P = self.layout[-1][1]
        H = g = None
        for sl in self.chunks:
            M = self._rows(tape, sl, seeds).reshape(-1, P)
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
        tape, seeds = self.tape(self.residual(theta, keep=True)[1]), self._unit_seeds()
        rows = np.concatenate([self._rows(tape, sl, seeds) for sl in self.chunks])
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


def _consistent_state(weights, coeffs, points):
    """Solver state whose G and R are evaluated from the coefficients."""
    layers = layer_pass(weights, coeffs, points)[0]
    return SolverState(
        weights=[np.array(w, dtype=float) for w in weights],
        G=[t.dg for t in layers],
        R=layers[-1].g,
        coeffs=[np.array(c, dtype=float) for c in coeffs],
    )


def lm_descent(state, j_tensor, f_matrix, points, lam, poll=None):
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

    Stops once the objective is at most 1e-20 of ||J||^2 + lam ||F||^2
    ("converged"), once it fell by less than 10% over 15 iterations or the
    damping ran away ("stalled"), or after 150 iterations ("max_iters").
    A non-finite objective or Jacobian at an accepted point raises
    SolverDivergenceError.  ``poll``, if given, is called after each
    iteration that does not stop the descent; once it returns true the
    descent is dropped and returns None.

    Invariant, which the start search's pick relies on: a descent ends
    "converged" exactly when the objective it returns is at most 1e-20 of
    a scale set by the data and lam alone, so below every start's that
    ends otherwise.
    """
    prob = _LMProblem(state.weights, state.coeffs, j_tensor, f_matrix, points, lam)
    theta = lm_pack(state.weights, state.coeffs)
    del state  # its G and R are not read; a caller that drops the state frees them
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
        if poll is not None and poll():
            return None
    return LMResult(
        state=_consistent_state(*prob.model(theta), points),
        objective=f,
        iterations=iterations,
        stop_reason=stop_reason,
    )


# LM descents of one start search at most
_SEARCH_STARTS = 8


def _helper_cpus():
    """CPUs of the helpers a start search forks: each usable one but the caller's.

    At most ``_SEARCH_STARTS - 1``, and none inside a multiprocessing child
    (a harness run with jobs > 1 already uses the cores), in a process with
    other Python threads (a fork copies the locks they hold), and where
    fork, the CPU affinity or the caller's CPU is not to be had.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return []
    try:
        with open("/proc/self/stat") as fh:  # field 39: the CPU this process runs on
            own = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return []
    cpus = sorted(os.sched_getaffinity(0) - {own})[: _SEARCH_STARTS - 1]
    if not cpus:
        return []
    # imported here: it costs every import of the CLI about 10 ms
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return []
    return cpus if "fork" in multiprocessing.get_all_start_methods() else []


def _start_state(cfg, dims, points, k):
    """Rebalanced consistent state of start k, the k-th draw of the search's stream."""
    rng = seeded_rng(cfg.rng_seed)
    for _ in range(k + 1):
        weights = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(cfg.n_layers + 1)]
        coeffs = [rng.standard_normal((r, d + 1)) for r, d in zip(cfg.ranks, cfg.degrees)]
    for c in coeffs[:-1]:
        c[:, 0] = 0.0
    with np.errstate(all="ignore"):
        return _normalize_inputs(_consistent_state(weights, coeffs, points), points)


def _start_outcome(cfg, j_tensor, f_matrix, points, k, poll=None):
    """LMResult of start k's descent, None if it diverged or was dropped, or the exception it raised."""
    n, m, _ = j_tensor.shape
    try:
        # the descent holds the only reference to its start: the draws, G
        # and R are freed before it linearizes
        return lm_descent(_start_state(cfg, [m, *cfg.ranks, n], points, k),
                          j_tensor, f_matrix, points, cfg.lam, poll)
    except (SolverDivergenceError, np.linalg.LinAlgError):
        return None
    except Exception as exc:  # raised once the pick reaches start k
        return exc


def _rank(k, outcome):
    """Key of start k's outcome, the least being picked; None for a dropped one.

    A stop (a converged descent or an exception) keys as (0, k), any other
    finite descent as (1, objective, k).  By :func:`lm_descent`'s
    invariant a converged descent's objective is below every other's.
    """
    if isinstance(outcome, Exception):
        return (0, k)
    if not (isinstance(outcome, LMResult) and np.isfinite(outcome.objective)):
        return None
    return (0, k) if outcome.stop_reason == "converged" else (1, outcome.objective, k)


class _Pick:
    """A search's pick from descent outcomes that arrive in any order.

    It holds one outcome, the least under :func:`_rank` so far, and is
    final once that is a stop whose earlier starts have all come in, or
    once every start has.  So it picks what one descent after another
    does: the first strictly lowest finite objective, up to the first
    converged descent or the first exception, which the search raises.
    """

    def __init__(self):
        self._seen, self._key, self.best = set(), None, None

    @property
    def done(self):
        key = self._key
        return len(self._seen) == _SEARCH_STARTS or (
            key is not None and key[0] == 0 and self._seen.issuperset(range(key[1])))

    def add(self, k, outcome):
        """Take start k's outcome; returns whether the pick is final."""
        if not self.done:
            self._seen.add(k)
            key = _rank(k, outcome)
            if key is not None and (self._key is None or key < self._key):
                self._key, self.best = key, outcome
        return self.done


class _PipeLock:
    """A lock that forked processes share: a pipe that holds one byte while it is free.

    A multiprocessing lock would keep about 1.5 KB of Python objects alive
    through a search, at the peak memory of its descents.
    """

    __slots__ = ("fds",)

    def __init__(self):
        self.fds = os.pipe()
        os.write(self.fds[1], b"\0")

    def __enter__(self):
        os.read(self.fds[0], 1)

    def __exit__(self, *exc):
        os.write(self.fds[1], b"\0")


class StartSearch:
    """The start searches of a tuned run's stages, one :func:`start_search` per config.

    ``next()`` returns the next stage's start, the consistent state of its
    best descent or None, and raises the exception its pick reaches.  The
    descents run in the caller and in one forked helper on each further
    usable core (:func:`_helper_cpus`), forked once, when the search
    opens.  The caller descends starts of the stage it is on; the helpers
    do too, and once that stage has no start left to claim they claim
    starts of the next stage, which so descend while the caller sweeps,
    and never of a stage beyond it.  Outcomes feed one
    :class:`_Pick` per stage as they arrive, and a final pick is raised
    only by the ``next()`` of its stage, so a stage never reached raises
    nothing.  A descent is dropped between its LM iterations once an
    earlier start of its stage has stopped (converged or raised), since it
    cannot be picked then: the process whose descent stops marks that on a
    board of shared memory, which every process reads between iterations
    and before it claims a start.  So no descent of a stage goes on once
    the stage's pick is final.

    Close it (or use it as a context manager) to terminate and join the
    helpers; a helper whose caller has gone exits at its next send or
    wait.  A helper is bound to its CPU: a forked process starts on its
    parent's, and where the kernel does not balance the load it stays
    there.
    """

    # no instance dict: a search is live at the peak memory of its descents
    __slots__ = ("_cfgs", "_data", "_picks", "_board", "_t", "_procs", "_results",
                 "_wake", "_lock", "_held")

    def __init__(self, cfgs, j_tensor, f_matrix, points):
        import mmap

        self._cfgs = list(cfgs)
        self._data = _check_fit_inputs(j_tensor, f_matrix, points)
        n = len(self._cfgs)
        self._picks = [_Pick() for _ in range(n)]
        # the board, shared with the helpers: [0] the stage the caller is
        # on, then for stage s [1 + 2s] the starts claimed, which are
        # claimed in order, and [2 + 2s] the end of the starts that can
        # still be picked, which only falls
        self._board = memoryview(mmap.mmap(-1, 8 * (1 + 2 * n))).cast("q")
        for s in range(n):
            self._board[2 + 2 * s] = _SEARCH_STARTS
        self._t = -1  # the caller's stage
        self._procs, self._results, self._wake = [], [], None
        self._lock = threading.Lock()
        # the caller takes start 0 before any helper can
        self._held = self._claim([0])
        cpus = _helper_cpus()
        if cpus:
            self._fork(cpus)

    def _fork(self, cpus):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        # an idle helper waits for a byte, which the caller writes to each
        # helper as it enters a stage; EOF tells it the caller has gone
        woken, self._wake = os.pipe()
        try:
            self._lock = _PipeLock()
            for cpu in cpus:
                recv, send = ctx.Pipe(duplex=False)
                self._results.append(recv)
                proc = ctx.Process(target=self._serve, args=(send, woken, cpu), daemon=True)
                try:
                    proc.start()
                except OSError:  # no process to be had: go on with those started
                    self._results.pop().close()
                    break
                finally:
                    send.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            os.close(woken)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Terminate and join the helpers; idempotent."""
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
        for conn in self._results:
            conn.close()
        if self._wake is not None:
            os.close(self._wake)
        for fd in getattr(self._lock, "fds", ()):
            os.close(fd)
        self._procs, self._results, self._wake = [], [], None
        self._lock = threading.Lock()

    def _claim(self, stages):
        """(s, k): start k of the first of the stages with a start left to claim, or None."""
        board = self._board
        with self._lock:
            for s in stages:
                k = board[1 + 2 * s]
                if k < board[2 + 2 * s]:
                    board[1 + 2 * s] = k + 1
                    return s, k
        return None

    def _descend(self, s, k):
        """Outcome of start k of stage s, dropped once a stop of an earlier start is on the board."""
        board, end = self._board, 2 + 2 * s
        outcome = _start_outcome(self._cfgs[s], *self._data, k, lambda: k >= board[end])
        key = _rank(k, outcome)
        if key is not None and key[0] == 0:  # a stop: no later start can be picked
            with self._lock:
                board[end] = min(board[end], k + 1)
        return outcome

    def _collect(self, timeout):
        """Feed the picks every outcome the helpers have sent, waiting up to timeout for one."""
        import select

        for conn in select.select(self._results, [], [], timeout)[0]:
            while True:
                try:
                    s, k, outcome, trace = conn.recv()
                except EOFError:  # a helper exits early only when it fails
                    raise RuntimeError(
                        "a start-search helper exited without its outcome") from None
                if trace is not None:  # shown above the caller's traceback
                    outcome.__cause__ = RuntimeError("in a start-search helper:\n" + trace)
                self._picks[s].add(k, outcome)
                if not conn.poll():
                    break

    def _serve(self, conn, woken, cpu):
        import signal
        import traceback

        os.sched_setaffinity(0, {cpu})
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
        # the caller's ends: the pipes must break when the caller goes
        for c in self._results:
            c.close()
        os.close(self._wake)
        while True:
            t = self._board[0]
            claim = self._claim(range(t, min(t + 2, len(self._cfgs))))
            if claim is None:
                if not os.read(woken, 1):
                    return
                continue
            s, k = claim
            outcome = self._descend(s, k)
            failed = isinstance(outcome, Exception)
            trace = "".join(traceback.format_exception(
                type(outcome), outcome, outcome.__traceback__)) if failed else None
            try:
                conn.send((s, k, outcome, trace))
            except BrokenPipeError:
                return

    def __next__(self):
        t = self._t + 1
        if t == len(self._cfgs):
            raise StopIteration
        self._t = self._board[0] = t
        if self._wake is not None:
            os.write(self._wake, bytes(len(self._procs)))
        pick = self._picks[t]
        while not pick.done:
            claim, self._held = self._held or self._claim([t]), None
            if claim is not None:
                pick.add(claim[1], self._descend(*claim))
                self._collect(0)
            elif self._results:
                self._collect(None)
            else:  # every start is claimed, so the pick is final without helpers
                raise RuntimeError("a start search ran out of starts before its pick")
        if isinstance(pick.best, Exception):
            raise pick.best
        return None if pick.best is None else pick.best.state


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

    This is the one-stage case of :class:`StartSearch`: the descents run
    in the calling process and in one forked helper on each further
    usable core (:func:`_helper_cpus`), each process taking the next start
    as it becomes free, and a descent is dropped once it cannot be picked.
    The pick holds the least outcome so far by :func:`_rank`, which by
    :func:`lm_descent`'s invariant is the pick of one descent after
    another: the result, bit for bit, and any exception raised are those
    of the caller alone, on any core count.
    """
    with StartSearch([cfg], j_tensor, f_matrix, points) as starts:
        return next(starts)


def state_to_model(state):
    """Decoupled model from the current factors; frozen constants included."""
    return DecoupledModel(
        weights=tuple(state.weights),
        coeffs=tuple(state.coeffs),
    )
