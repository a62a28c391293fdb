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

Both take the layer's per-slice G-row systems from one helper,
``_slice_systems``, which builds their planes once and, by one rule,
reduces every slice's system to its QR triangle once the layer has at
least ``_QR_MIN_STACK`` = 100 slices and the planes are tall; both read
the structure rows of the layer inputs that ``_coeff_bases`` gives.

At large S the tall systems of a sweep (the middle and last W systems and
both coefficient systems) are built and reduced one panel of slices at a
time (``tensor_ops.slice_panels`` and ``tensor_ops.lstsq_panels``), so that
their memory follows a byte budget rather than S; a system of fewer than
200 slices, which ``slice_panels`` never splits, is built and solved whole,
so every S = 30 fit keeps its bits.  Every coefficient update holds its
subproblem at rank size: the G-row planes take the chains at the first and
last layers through the QR of the weight matrix that all slices share, W_0
or W_L, where it is the taller (9 rows per slice become 6 on f2), and they
are built whole, the chains around the layer one chunk of slices at a
time; a coefficient system writes its structure rows from the layer
inputs, one panel at a time or whole, so that X and Y are built whole only
once the system is gone.  A fit keeps its best sweep as weights and
coefficients, not as a second copy of the factors (:func:`fit`).  On f2 at
S = 1000 the benchmark's 2-sweep fits peak at 297 traced bytes per
sampling point, set by the middle W update.

Constant coefficients of layers below the last multiply a structurally zero
column of the derivative structure, so they are unidentifiable from J; they
are frozen at their initial values and reported in the fit report.  The
last layer's constants are estimated through the coupled F term; the
constr update takes them out of its F rows by centring those over the
slices, and fits them to the slice means once the rest is solved.

Everything a sweep evaluates comes from the model's layer pass and chain
kernel (``model.internal_inputs_batch``, ``model.left_chain``,
``model.right_chains``): the subproblem matrices of all slices at once and
the objective.

This module owns the sweeps, :func:`fit` and :func:`state_to_model`, and
the helpers that the other two parts of the method import from it:
:class:`SolverDivergenceError`, :func:`seeded_rng`, the run's validated
data value :class:`FitData`, the neuron-input normalization of parameters
and ``_structured_state``, the state of given parameters.  It is the one
writer of a state's structured factors (``_write_factors`` and
``_write_all_factors``).  The sweeps descend from wherever they start; the
Levenberg-Marquardt descent over the model parameters is :mod:`.descent`,
and the seeded start search that runs it from several draws, on
parameters alone, and from which the tuner starts every stage's sweeps,
is :mod:`.search`.

A fit is single-threaded and deterministic given its configuration;
separate fits share no mutable state and may run concurrently.  Every
generator the package makes comes from :func:`seeded_rng`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .basis import build_X, build_Y, write_X
from .model import (
    DecoupledModel,
    internal_inputs_batch,
    left_chain,
    power_rows,
    right_chains,
)
from .tensor_ops import (
    _QR_MIN_STACK,
    NonFiniteError,
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
    "FitData",
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
    "state_to_model",
]

STRATEGIES = ("proj", "constr")

# relative decrease below which an iteration does not count as an improvement
_IMPROVE_RTOL = 1e-12
# sweeps after which a fit from a given start stops where none has gone
# below the start, or where its best is at the round-off floor
_START_SWEEPS = 45
# objective, relative to ||J||^2 + lam ||F||^2, at or below which a fit or a
# Levenberg-Marquardt descent has fit the data to round-off
_FLOOR_RTOL = 1e-20


class SolverDivergenceError(RuntimeError):
    """Raised when the objective turns non-finite; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _as_int(name, value):
    """value as an int; ValueError for a float, a bool or any other non-integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_seed(name, value):
    """value as a non-negative int, as ``np.random.SeedSequence`` takes; else ValueError."""
    seed = _as_int(name, value)
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    return seed


def _layer_sizes(ranks, degrees):
    """Per-layer ranks and degrees as tuples of ints, once both are
    non-empty, equally long and positive."""
    ranks = tuple(_as_int("ranks", r) for r in ranks)
    degrees = tuple(_as_int("degrees", d) for d in degrees)
    if len(ranks) != len(degrees) or not ranks:
        raise ValueError("ranks and degrees must be non-empty and equally long")
    if any(r < 1 for r in ranks):
        raise ValueError(f"ranks must be positive, got {list(ranks)}")
    if any(d < 1 for d in degrees):
        raise ValueError(f"degrees must be positive, got {list(degrees)}")
    return ranks, degrees


@dataclass(frozen=True)
class SolverConfig:
    """Settings for one alternating fit.

    ``ranks`` and ``degrees`` give the per-layer neuron counts and
    polynomial degrees (innermost layer first).  Without an initial state,
    :func:`init_state` draws the starting factor entries uniformly from
    [0.1, 10) with a seeded Philox generator; that is how a bare :func:`fit`
    starts.  Tuned stages (``tuner.tune``) start instead from
    :func:`.search.start_search`, which draws from N(0, 1).
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
        ranks, degrees = _layer_sizes(self.ranks, self.degrees)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "degrees", degrees)
        for name in ("min_iters", "max_iters", "patience"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        object.__setattr__(self, "rng_seed", _as_seed("rng_seed", self.rng_seed))
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
    """Outcome of one fit: best state seen plus summary diagnostics.

    ``best_sweep`` is the index of the sweep whose state it holds, 0 for
    the start.
    """

    state: SolverState
    error_j: float
    error_f: float
    iterations: int
    stop_reason: str
    config: SolverConfig
    n_truncated: int = 0
    best_sweep: int = 0

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
            "best_sweep": self.best_sweep,
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


def _state_shapes(cfg, dims):
    """``(name, shape)`` of every array of a state for cfg and dims (n, m, S):
    W_0..W_L, G_1..G_L, R and c_1..c_L, in that order."""
    n, m, S = dims
    ranks, sizes = cfg.ranks, (m, *cfg.ranks, n)
    return ([(f"W_{l}", (sizes[l + 1], sizes[l])) for l in range(cfg.n_layers + 1)]
            + [(f"G_{l}", (S, r)) for l, r in enumerate(ranks, 1)] + [("R", (S, ranks[-1]))]
            + [(f"c_{l}", (r, d + 1)) for l, (r, d) in enumerate(zip(ranks, cfg.degrees), 1)])


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
    a = [rng.uniform(0.1, 10.0, size=shape) for _, shape in _state_shapes(cfg, dims)]
    L = cfg.n_layers
    return SolverState(weights=a[: L + 1], G=a[L + 1 : 2 * L + 1], R=a[2 * L + 1],
                       coeffs=a[2 * L + 2 :])


def _check_start(state, cfg, dims):
    """ValueError naming the first array of the state whose shape cfg and
    dims (n, m, S) do not give, or its layer count."""
    L, given = cfg.n_layers, f"ranks {cfg.ranks}, degrees {cfg.degrees} and (n, m, S) = {dims}"
    if (len(state.weights), len(state.G), len(state.coeffs)) != (L + 1, L, L):
        raise ValueError(f"initial_state has {len(state.G)} layers where {given} give {L}")
    arrays = [*state.weights, *state.G, state.R, *state.coeffs]
    for a, (name, shape) in zip(arrays, _state_shapes(cfg, dims)):
        if np.shape(a) != shape:
            raise ValueError(f"initial_state's {name} is {np.shape(a)} where {given} give {shape}")


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


def _coeff_problem(state, layer, j_tensor):
    """The per-slice G-row planes that both coefficient updates of a layer start from.

    Returns ``(C, i0)``: C ((r+1) x p x S) holds every slice's G-row matrix
    K_s (:func:`_g_rows`) as r column planes, then their targets b_s as one
    more, so that b_s = K_s G_layer[s] for exact factors.  They are at rank
    size (:func:`_rank_size`): p = m'n', with m' = r_1 in place of m at the
    first layer and n' = r_L in place of n at the last where the shared
    weight matrix is the taller, so that f2's planes hold 6 rows per slice,
    not 9, and b_s = (Q_in kron Q_out)^T vec(J_s); elsewhere K_s and b_s are
    the slice's Khatri-Rao rows and vec(J_s) themselves.  Each K_s keeps
    the minimizer, the singular values and so the truncations of the
    unreduced system.  A slice's planes do not depend on the others.
    i0 is the first fitted coefficient column (1 below the last layer, where
    the constants are frozen, else 0).  The rows of (M_C)_0 are K_s times
    the structure rows X[:, s, i0:] of the layer inputs of
    :func:`_coeff_bases`.
    """
    n, m, S = j_tensor.shape
    weights, q_in, q_out = _rank_size(state.weights, layer)
    r = state.G[layer - 1].shape[1]
    C = np.empty((r + 1, weights[0].shape[1] * weights[-1].shape[0], S))
    planes = C[:r].reshape(r, weights[0].shape[1], -1, S)
    # the planes are written one chunk of slices at a time, so that the
    # chains around the layer and their temporaries, up to three arrays of a
    # chain's size, exist for one chunk only
    for ch in slice_panels(S, 8 * ((r + 1) * C.shape[1] + 3 * r * max(m, n))):
        _g_rows(weights, [g[ch] for g in state.G], layer, out=planes[..., ch])
    J, jb = j_tensor, C[r].reshape(planes.shape[1:])
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


def _slice_systems(state, layer, j_tensor):
    """``(P, y, reduced)``: every slice's G-row system, QR-reduced from ``_QR_MIN_STACK`` slices.

    P[j, :, s] is column j of slice s's matrix and y[:, s] its right-hand
    side.  The planes of :func:`_coeff_problem` are built once; a layer of
    at least ``_QR_MIN_STACK`` slices whose planes are tall (p >= r) has
    them reduced in place (:func:`reduce_planes`), and R_s (P, r x r x S)
    and (Q_s^T b_s)[:r] (y, r x S) copied out of them, so the planes are
    gone once this returns.  Any other layer gets the planes themselves,
    K_s (P, r x p x S) and b_s (y, p x S).  Either way each slice's system
    has the minimizer and, to round-off, the singular values of K_s
    against b_s.
    """
    C, _ = _coeff_problem(state, layer, j_tensor)
    P, y = C[:-1], C[-1]
    r, p, S = P.shape
    if S < _QR_MIN_STACK or p < r:
        return P, y, False
    R, y = reduce_planes(P, y)
    return R.copy(), y.copy(), True


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
    stacked solve of the slices' G-row systems at rank size
    (:func:`_slice_systems`): from ``_QR_MIN_STACK`` slices on, when they
    are tall, from their QR triangles (:func:`lstsq_reduced`), else by the
    SVD of the stack.  For the last layer R is fit as a whole too, from F.
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
    r = state.G[layer - 1].shape[1]
    P, y, reduced = _slice_systems(state, layer, j_tensor)
    solved = lstsq_reduced(P, y) if reduced else lstsq_info(P.transpose(2, 1, 0), y.T)
    del P, y
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


def update_c_constr(state, layer, j_tensor, f_matrix, points, lam):
    """Direct coefficient update with the constraints satisfied by construction.

    Solves for the coefficients c_{j,1..d} against the targets b_s through
    the pruned structure-incorporated system (M_C)_0, whose rows of slice s
    are K_s D_s with K_s and b_s the slice's rank-size G-row matrix and
    target (:func:`_coeff_problem`) and D_s the slice's structure rows; the
    last layer stacks the sqrt(lam)-scaled F factorization block below.  G
    (and R) are then written from the coefficients, so they satisfy the
    constraints exactly.

    The last layer's constants c_{j,0} enter only the F block, as the same
    column in every slice, so they are taken out exactly (Golub & Pereyra,
    SIAM J. Numer. Anal. 1973): the F rows are centred over the slices,
    sqrt(lam) W_L[i, j] (Y_j[s, t] - Ybar[j, t]) against
    sqrt(lam) (f[i, s] - fbar[i]), with Ybar and fbar the slice means of
    the power rows and of the targets, and once c_{j,1..d} is solved the
    constants are the least-squares solution of
    W_L c_0 = fbar - W_L (sum_t Ybar[:, t] c[:, t]), its truncations counted.
    The centred rows carry the rest of the objective, so the minimizer is
    that of the system with the constants' columns.  When n > r the F block
    is reduced by one QR of W_L, to r rows per slice against Q^T F.

    The J rows come from the slices' systems of :func:`_slice_systems`,
    R_s and (Q_s^T b_s)[:r] from ``_QR_MIN_STACK`` slices on, when the
    planes are tall, else K_s and b_s; either way they are written in the
    order (row, slice), and have the minimizer and the singular values of
    the full rows, since the system is block-diagonal(Q_s) times the
    reduced one.  A non-finite plane raises :class:`NonFiniteError`.  The
    system's J rows and F rows are built one panel of slices at a time
    (:func:`lstsq_panels`), each block written into the panel's one array
    from the panel's structure rows, computed from the layer inputs; below
    200 slices it is built whole, J rows then F rows, the same way.
    """
    n, _, S = j_tensor.shape
    r = state.G[layer - 1].shape[1]
    last = layer == state.n_layers
    # the F block's W_L E_s rows at the last layer, none below it
    W = state.weights[-1][: n if last else 0]
    fb = f_matrix[: len(W)]
    P, y, _ = _slice_systems(state, layer, j_tensor)
    if len(W) > r:
        # the QR of W_L cuts the coupling block from n*S to r*S rows
        Q, W = np.linalg.qr(W)
        fb = Q.T @ fb
    # the rows per slice of the system: R_s's where reduced, else the planes'
    p = P.shape[1]
    U = _coeff_bases(state, layer, points)
    d = state.coeffs[layer - 1].shape[1] - 1
    q = r * d
    if last:
        # the slice means that the constants fit, taken out of the F rows:
        # those of power_rows(U.T, d)[:, :, 1:], one power plane at a time,
        # since the whole rows would be held only to be averaged.  Column-major,
        # as np.mean left them: the panels' power rows are centred by them
        # with no buffered copy
        Ybar, plane = np.empty((r, d), order="F"), U.T.copy()
        for t in range(d):
            if t:
                plane *= U.T
            Ybar[:, t] = np.mean(plane, axis=1)
        del plane
        fbar = np.mean(fb, axis=1)
        fb = fb - fbar[:, None]
    # held beside a panel's rows, per slice: its structure rows X and Y,
    # and its G-row system
    held = 8 * r * (d + 1) * (1 + last) + 8 * p * (r + 1)
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
            X = write_X(U[sl], d, np.empty((d, r, k)).transpose(1, 2, 0))
            # row t of slice s, column (j, i) holds P[j, t, s] * X[j, s, i]
            blocks = a[:n_j].reshape(p, k, r, d)
            for t in range(p):
                np.einsum("js,jsi->sji", P[:, t, sl], X, out=blocks[t])
            b[:n_j].reshape(p, k)[...] = y[:, sl]
        if with_f and last:
            Y = power_rows(U[sl].T, d)[:, :, 1:] - Ybar[:, None]
            # kron(W_L, I_S) @ blockdiag(Y_j), centred: row (i, s), column
            # (j, t) holds sqrt(lam) * W_L[i, j] * (Y_j[s, t] - Ybar[j, t])
            blocks = a[n_j:].reshape(len(W), k, r, d)
            for i in range(len(W)):
                np.einsum("j,jst->sjt", W[i], Y, out=blocks[i])
            # one column at a time: numpy copies a strided block that it
            # scales in place
            for j in range(q):
                a[n_j:, j] *= np.sqrt(lam)
            np.multiply(np.sqrt(lam), fb[:, sl], out=b[n_j:].reshape(len(W), k))
        return ab

    c = _counted(state, lstsq_panels(rows, panels, q)).reshape(r, d)
    state.coeffs[layer - 1][:, 1:] = c
    if last:
        state.coeffs[-1][:, 0] = _lstsq(state, W, fbar - W @ np.sum(Ybar * c, axis=1))
    _write_factors(state, layer, U)
    return state


def _write_all_factors(state, points):
    """The state, its G_1..G_L and R overwritten by the structured factors
    of its weights and coefficients (:func:`_write_factors`), every layer's
    from the inputs of one pass, which are the bits of :func:`_coeff_bases`.
    This and :func:`_write_factors` are the only writers of a state's G and R."""
    for layer, U in enumerate(internal_inputs_batch(state.weights, state.coeffs, points), 1):
        _write_factors(state, layer, U)
    return state


def _structured_state(weights, coeffs, points):
    """A new state of the parameters: C-ordered copies of them, as
    :meth:`SolverState.copy` makes, and new G_1..G_L and R, their structured
    factors (:func:`_write_all_factors`)."""
    S = len(points)
    return _write_all_factors(SolverState(
        weights=[w.copy() for w in weights], G=[np.empty((S, len(c))) for c in coeffs],
        R=np.empty((S, len(coeffs[-1]))), coeffs=[c.copy() for c in coeffs]), points)


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
    for G, a in zip(state.G, _normalize_inputs(state.weights, state.coeffs, points)):
        G *= a
    return state


def _normalize_inputs(weights, coeffs, points):
    """Rescale the parameters in place as :func:`rebalance` does; returns each layer's a.

    rebalance is the first step of every sweep, and per-sweep timers key
    on it; the start search normalizes its draws, which have no G, here.
    """
    scales = []
    for l, U in enumerate(internal_inputs_batch(weights, coeffs, points)):
        # the RMS of each column; a contiguous copy sums each column in the
        # order a column slice would, which keeps the bits of per-neuron sums
        a = np.sqrt(np.mean(np.ascontiguousarray((U * U).T), axis=1))
        # a neuron without a finite, nonzero scale is left as it is
        a[~np.isfinite(a) | (a == 0.0)] = 1.0
        weights[l] /= a[:, None]
        coeffs[l] *= a[:, None] ** np.arange(coeffs[l].shape[1])
        scales.append(a)
    return scales


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


@dataclass(frozen=True, eq=False)
class FitData:
    """One fit's data, validated once: J (n x m x S), F (n x S) and the points (S x m).

    The arrays are the caller's, as float arrays: converted where they are
    not, otherwise neither copied nor changed.  Beside them it holds their
    shape (n, m, S), the slice-first view of J (S x n x m) that every
    Levenberg-Marquardt descent reads, and the sums of squares of J and F,
    ``jj`` and ``ff``, each taken once.  ``tuner.tune`` builds one per run
    and hands it to the start search, to every descent and to every
    stage's :func:`fit`.  ValueError for a J that is not n x m x S, an F or
    points of another shape, or a non-finite entry.
    """

    j_tensor: np.ndarray
    f_matrix: np.ndarray
    points: np.ndarray
    shape: tuple = field(init=False)
    j_slices: np.ndarray = field(init=False)
    jj: float = field(init=False)
    ff: float = field(init=False)

    def __post_init__(self):
        j, f, p = (np.asarray(a, dtype=float) for a in (self.j_tensor, self.f_matrix, self.points))
        if j.ndim != 3:
            raise ValueError("j_tensor must be n x m x S")
        n, m, S = j.shape
        for name, a, (rows, cols) in (("f_matrix", f, (n, S)), ("points", p, (S, m))):
            if a.shape != (rows, cols):
                raise ValueError(f"{name} must be {rows} x {cols}, got {a.shape}")
        if not (np.all(np.isfinite(j)) and np.all(np.isfinite(f)) and np.all(np.isfinite(p))):
            raise ValueError("non-finite fit inputs")
        derived = j.shape, np.transpose(j, (2, 0, 1)), float(np.sum(j * j)), float(np.sum(f * f))
        for fld, value in zip(fields(self), (j, f, p, *derived)):
            object.__setattr__(self, fld.name, value)


def fit(cfg, j_tensor, f_matrix=None, points=None, initial_state=None):
    """Run the alternating minimization and return the best state seen.

    The data is J, F and the points, or one :class:`FitData` in place of
    all three (``fit(cfg, data, initial_state=...)``), which is then used
    as it is validated.  An ``initial_state`` must have the layers and the
    array shapes that cfg's ranks and degrees and the data's n, m and S
    give; ValueError, naming the first array that does not, before any
    sweep.

    One iteration is a full sweep in the fixed update order; the run stops
    once the objective has not improved (relative decrease above 1e-12
    against the best value so far) for ``patience`` consecutive sweeps after
    ``min_iters`` (``"patience"``), or at ``max_iters``.  The report carries
    the state with the lowest recorded objective, which need not be the
    last one, and its sweep index, ``best_sweep``.

    A fit given an ``initial_state``, which is every tuned stage's search
    pick, has two more stops, checked once ``max(min_iters, 45)`` sweeps
    have run (``_START_SWEEPS``), before patience: ``"floor"`` where its
    best total is at or below the round-off floor
    ``1e-20 * (||J||^2 + lam ||F||^2)`` (``_FLOOR_RTOL``, the scale at which
    a descent converges), a start already there included; otherwise
    ``"start"`` where no sweep has gone below the start, which it then
    returns.  A bare fit, from :func:`init_state`, stops on patience and
    ``max_iters`` alone.

    The start is sweep 0: its weights and coefficients, with the objective
    of the G_1..G_L and R that they give (:func:`_structured_state`), since
    those of a state from :func:`init_state` are random draws, not part of
    the model.  So a fit never returns a state whose objective is above
    its start's: where no sweep goes below the start, the report carries
    the start's parameters and structured factors, and a sweep that does
    not improve on the start counts towards ``patience``.  Only the sweeps
    are in the trace and in ``iterations``.

    The best sweep is kept as parameters only: copies of W_0..W_L and the
    coefficients, and its ``n_truncated``.  Its G_1..G_L and R are the
    structured factors of those parameters, so when a later sweep ends the
    fit they are written once, into the live state's arrays
    (:func:`_write_all_factors`, whose products are those of the sweep's
    own writes), and the returned state holds the best sweep's bytes.  The
    report's ``n_truncated`` counts every sweep's truncations.
    """
    data = j_tensor if isinstance(j_tensor, FitData) else FitData(j_tensor, f_matrix, points)
    j_tensor, f_matrix, points = data.j_tensor, data.f_matrix, data.points
    if initial_state is None:
        state = init_state(cfg, data.shape)
    else:
        _check_start(initial_state, cfg, data.shape)
        state = initial_state.copy()
    update_c = update_c_proj if cfg.strategy == "proj" else update_c_constr
    L, lam = cfg.n_layers, cfg.lam

    # (sweep, weights, coefficients, n_truncated) of the best sweep so far,
    # from sweep 0, the start, taken in a new state whose G and R its
    # parameters give, so that the sweeps go on from the state as it is; a
    # start whose factors or objective overflow is no candidate
    best, best_total, best_terms = None, np.inf, None
    try:
        with np.errstate(all="ignore"):
            start = _structured_state(state.weights, state.coeffs, points)
            j_term, f_term, total = objective(start, j_tensor, f_matrix, lam)
    except NonFiniteError:
        total = np.inf
    if np.isfinite(total):
        best = (0, start.weights, start.coeffs, state.n_truncated)
        best_total, best_terms = total, (j_term, f_term)
    start = None  # its G and R go before the sweeps
    # sweeps after which a fit from a given start may stop on the floor or
    # on its unbeaten start; a bare fit never does
    start_sweeps = math.inf if initial_state is None else max(cfg.min_iters, _START_SWEEPS)
    floor = _FLOOR_RTOL * (data.jj + lam * data.ff)
    stall = 0
    stop_reason = "max_iters"
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        try:
            rebalance(state, points)
            update_W(state, 0, j_tensor, f_matrix, lam)
            for l in range(1, L + 1):
                update_c(state, l, j_tensor, f_matrix, points, lam)
                update_W(state, l, j_tensor, f_matrix, lam)
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
        if it >= start_sweeps and (best_total <= floor or best[0] == 0):
            stop_reason = "floor" if best_total <= floor else "start"
            break
        if it >= cfg.min_iters and stall >= cfg.patience:
            stop_reason = "patience"
            break

    n_truncated = state.n_truncated
    it, weights, coeffs, best_truncated = best
    if it < iterations:
        # the live arrays take the best sweep's factors: each G_l (and R) is
        # a function of the weights below layer l and the coefficients
        state = _write_all_factors(SolverState(
            weights=weights, G=state.G, R=state.R, coeffs=coeffs, trace=state.trace,
            n_truncated=best_truncated), points)
    # C-ordered, as a copy of the state is: the solves leave W_1..W_L, and R
    # in proj, in Fortran order, and the model's passes read the layout
    for arrays in (state.weights, state.G, state.coeffs):
        arrays[:] = [np.ascontiguousarray(a) for a in arrays]
    state.R = np.ascontiguousarray(state.R)
    return FitReport(
        state=state,
        error_j=best_terms[0] / math.sqrt(data.jj) ** 2,
        error_f=best_terms[1] / math.sqrt(data.ff) ** 2,
        iterations=iterations,
        stop_reason=stop_reason,
        config=cfg,
        n_truncated=n_truncated,
        best_sweep=it,
    )


def state_to_model(state):
    """Decoupled model from the current factors; frozen constants included."""
    return DecoupledModel(
        weights=tuple(state.weights),
        coeffs=tuple(state.coeffs),
    )
