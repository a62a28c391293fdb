"""Seeded start search: the states a tuned stage's sweeps start from.

The sweeps (:mod:`.solver`) descend from wherever they start and stop at
stationary points that need not be the global minimum.  This module owns
the search that gives them starts: seeded random draws, each descended by
:func:`.descent.lm_descent`, the pick among their outcomes
(:func:`start_search`), and the processes the descents run in.  The tuner
starts every stage's sweeps from its best descent.

A search runs its descents on every usable core, in the calling process
and forked helpers, and returns the same bits as on one core; the searches
of a tuned run's stages run as one :class:`StartSearch`, whose helpers
descend the next stage's starts while the caller sweeps.  A start's draw
and a descent's outcome are parameters (weights and coefficients), which
is all a descent reads, a helper sends and a pick holds; the pick goes to
its stage as it is, a :class:`.descent.LMResult`, and the stage's
:func:`.solver.fit` builds from its parameters the one state of the stage.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .descent import LMResult, lm_descent
from .solver import FitData, SolverDivergenceError, _normalize_inputs, seeded_rng

__all__ = ["StartSearch", "start_search"]

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
    """Rebalanced ``(weights, coeffs)`` of start k, the k-th draw of the search's stream."""
    rng = seeded_rng(cfg.rng_seed)
    for _ in range(k + 1):
        weights = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(cfg.n_layers + 1)]
        coeffs = [rng.standard_normal((r, d + 1)) for r, d in zip(cfg.ranks, cfg.degrees)]
    for c in coeffs[:-1]:
        c[:, 0] = 0.0
    with np.errstate(all="ignore"):
        _normalize_inputs(weights, coeffs, points)
    return weights, coeffs


def _start_outcome(cfg, data, k, poll=None):
    """LMResult of start k's descent, None if it diverged or was dropped, or the exception it raised."""
    n, m, _ = data.shape
    try:
        return lm_descent(*_start_state(cfg, [m, *cfg.ranks, n], data.points, k),
                          data, cfg.lam, poll)
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

    Every stage searches the one ``solver.FitData`` it is given, as validated.

    ``next()`` returns the next stage's start, its best descent's
    :class:`.descent.LMResult`, whose parameters the stage's fit builds
    its state from, or None, and raises the exception its pick reaches.
    The descents run in the caller and in one forked helper on each
    further usable core (:func:`_helper_cpus`), forked once, when the
    search opens.  The caller descends starts of the stage it is on;
    the helpers do too, and once that stage has no start left to claim they
    claim starts of the next stage, which so descend while the caller
    sweeps, and never of a stage beyond it.  Outcomes feed one
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

    def __init__(self, cfgs, data):
        import mmap

        self._cfgs = list(cfgs)
        self._data = data
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
        outcome = _start_outcome(self._cfgs[s], self._data, k, lambda: k >= board[end])
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
        best = pick.best
        if isinstance(best, Exception):
            raise best
        return best


def start_search(cfg, j_tensor, f_matrix, points):
    """Best of ``_SEARCH_STARTS`` seeded LM descents by the training objective at cfg.lam.

    Start k draws W_0..W_L and the coefficients (in that order, start after
    start) from the standard normal distribution N(0, 1) with
    ``seeded_rng(cfg.rng_seed)``, sets the frozen constants of the
    layers below the last to 0 (a constant shift of a layer's output is
    absorbed by the next layer's polynomials), rebalances the neuron input
    scales (:func:`.solver.rebalance`) and runs :func:`lm_descent`.  The search
    stops early at a start that fits the data to round-off, since no other
    start can beat it by more than round-off.  Starts that diverge are
    dropped; returns None when no start gave a finite objective, and the
    best descent's :class:`.descent.LMResult` otherwise, whose weights and
    coefficients are all that :func:`.solver.fit` reads of a start.

    This is the one-stage case of :class:`StartSearch`: the descents run
    in the calling process and in one forked helper on each further
    usable core (:func:`_helper_cpus`), each process taking the next start
    as it becomes free, and a descent is dropped once it cannot be picked.
    The pick holds the least outcome so far by :func:`_rank`, which by
    :func:`lm_descent`'s invariant is the pick of one descent after
    another: the result, bit for bit, and any exception raised are those
    of the caller alone, on any core count.
    """
    with StartSearch([cfg], FitData(j_tensor, f_matrix, points)) as starts:
        return next(starts)
