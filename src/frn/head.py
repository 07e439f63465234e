"""Few-shot classification head based on closed-form feature-map reconstruction.

A query feature map Q (r x d) is scored against a class by reconstructing
it as a ridge-regression-optimal weighted sum of the rows of that class's
support pool S (kr x d):

    W = argmin_W ||Q - W S||^2 + lam ||W||^2
    Q_bar = rho * W S

The per-query squared reconstruction error, averaged over the r spatial
locations, is the class distance; logits are ``-gamma * distance``.

Two algebraically equivalent evaluations are provided:

* direct:   Q_bar = rho * Q S^T (S S^T + lam I)^-1 S      (kr x kr solve)
* woodbury: Q_bar = rho * Q X S^T S, X = (S^T S + lam I)^-1  (d x d inverse)

The direct form is cheaper when d > kr, the woodbury form otherwise.
The shapes alone decide: ``reconstruct``, and every scoring function
above it, takes the side ``choose_formulation`` picks (ties go to
woodbury). ``reconstruct_direct`` and ``reconstruct_woodbury`` each run
one side, for callers that compare or time the two.

Batching: every head, this one and those in ``baselines``, scores a whole
episode per call: its b queries come stacked into one (b*r x d) matrix
and it returns a (b, n) array over the n class pools. The support-side
factor is computed once per pool; the query stack is validated, and its
float64 ||Q_i||^2 taken, once per episode. Each query-side product is one
3-D ``np.matmul`` over the (b, r, d) stack (M^-1 is C-ordered): unlike one
2-D product over all b*r rows, it rounds as each query alone would, so
batched results are bit-identical to one-at-a-time ones. A pool's result
is one ``Reconstructions``: a (b,) float64 error array, and a sequence
of per-query ``Reconstruction``s whose Q_bar is formed on indexing, from
the query and the pool's factor: no per-query W outlives the pass.

Neither form builds Q_bar to score, and each shares its pool side with
the training node ``autodiff.ridge_recon_errors``. Direct: ``_direct_factor``
per pool, ``_query_products`` for A = Q S^T, then ``_direct_step`` over a
query stack, which takes each error from a kr-space identity within
256 eps ||Q||^2 / r of a float64 solve. Each query costs two products,
A and W = A M^-1: since M = G + lam I with G = S S^T, M^-1 G = I - lam M^-1,
so W G = A - lam W is formed elementwise in A's buffer. Woodbury: since
X S^T S = I - lam X, the residual Q - Q_bar is Q P, P = (1 - rho) I +
rho lam X, one product per query; ``_woodbury_factor`` gives (X, P).
``frn_distances`` scores every pool of an episode, of either side, in
one ``_pass``, which returns the (b, n) errors and each pool's factor
(``reconstruct_direct`` and ``reconstruct_woodbury`` are that pass over
one pool, each on its own side, and keep the factor). The pass has two
phases, each through ``_over_tasks``. In phase 1 worker threads take (pool, block
of ``_BLOCK`` queries) tasks for the direct pools from one shared queue
in turn and form that block's A, which needs only S^T, while the calling
thread factors every pool, of both sides, and squares the query stack if
some pool is direct; it then takes tasks too. Phase 2 splits the stack
into one contiguous chunk of queries per CPU available to the process
(``_chunks``), and each runs, pool by pool on its chunk, the rest of the
direct step or the product Q P and its squared rows. W and Q P go in the
chunk's rows of one scratch buffer that its pools reuse in turn, as the
ctx head's pass in ``baselines`` does over the same chunks; the caller
allocated it (one allocated in a worker would stay in that worker's own
heap). An episode thus dispatches to the workers twice, whatever its pool
count, and once if no pool is direct: phase 1 then has no block, so a
factor's error is raised before any worker starts (with a direct pool,
once phase 1's blocks are done). The pass holds A over every direct pool
at once while it fits in ``_PASS_BYTES``; past that it takes the stack in
slices, so its memory does not grow with the pool count. A phase 2 with
one chunk (one query, or one CPU) runs on the calling thread with no
dispatch. Since each query's products depend only on that query and its
pool, the results are bit-identical to a serial run, for any worker
count, block size and slicing.
At the paper's Conv-4 shape (five 5-shot pools, 75 queries, r 25, d 64,
f64, 1 BLAS thread) on a shared 2-vCPU host, a woodbury episode took
2.16-2.61 ms serially and 1.87-2.59 ms threaded with one product by P,
against 2.63-2.70 and 2.29-2.79 ms with a solved G M^-1 and two more
passes (medians of 16 rounds of 50 calls, 3 runs each); ctx took 3.72-3.74 ms
against 7.04-7.15 ms serially (medians of 300 calls, two runs each). The
README gives the figures at other thread settings; such gains need the
second CPU to be free. The frn training nodes in ``autodiff`` run the
direct step and their woodbury forward on the calling thread. The
woodbury node's backward forms dQ in blocks of ``_BLOCK`` queries
through ``_over_tasks`` while the caller forms the pool-side gradients;
its block size, not the CPU count, fixes each product's shape, so its
results too are the same for any worker count; ``autodiff`` times it.
All functions are pure; per-class calls may run concurrently.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, add_ridge, as_matrix, gram, spd_inverse
from .linalg import spd_solve  # not called here; perfbench's SPAN_TARGETS patches it

#: Smallest ridge weight ever used; keeps the regularized system
#: positive-definite even for absurdly negative alpha.
LAMBDA_FLOOR = 1e-8


@dataclass(frozen=True)
class FeatureMap:
    """An r x d grid of d-channel feature vectors for one image."""

    values: np.ndarray

    def __post_init__(self):
        vals = as_matrix(self.values, name="feature map")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ShapeError(f"feature map must be at least 1x1, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def r(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SupportPool:
    """All support features for one class, k maps stacked into (k*r, d)."""

    class_id: int
    k: int
    values: np.ndarray

    def __post_init__(self):
        vals = as_matrix(self.values, name="support pool")
        if self.k < 1 or vals.shape[0] % self.k != 0:
            raise ShapeError(
                f"support pool rows {vals.shape[0]} not divisible by shot {self.k}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_maps(cls, class_id: int, maps: Sequence[FeatureMap]) -> "SupportPool":
        if not maps:
            raise ValueError("support pool needs at least one feature map")
        r, d = maps[0].r, maps[0].d
        for m in maps:
            if (m.r, m.d) != (r, d):
                raise ShapeError(
                    f"support maps disagree in shape: ({m.r},{m.d}) vs ({r},{d})"
                )
        return cls(class_id=class_id, k=len(maps), values=np.vstack([m.values for m in maps]))

    @property
    def r(self) -> int:
        return self.values.shape[0] // self.k

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class HeadParams:
    """Learnable head scalars.

    ``alpha`` and ``beta`` parameterize the ridge weight and the
    reconstruction recalibration as lam = (kr/d) * exp(alpha) and
    rho = exp(beta), so both stay positive for any finite value; they
    start at zero. ``gamma`` is the softmax temperature and must stay
    positive. Which of the three training updates is set by
    ``TrainConfig.learn_*``.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")

    @property
    def rho(self) -> float:
        return math.exp(self.beta)


def effective_lambda(params: HeadParams, k: int, r: int, d: int) -> float:
    """Ridge weight rescaled by pool size: max((k*r/d) * exp(alpha), floor).

    The kr/d rescaling balances the regression objective across shot
    counts and feature widths, and makes reconstruction invariant to
    duplicating the support pool.
    """
    if min(k, r, d) < 1:
        raise ValueError(f"k, r, d must all be >= 1, got {(k, r, d)}")
    return max((k * r / d) * math.exp(params.alpha), LAMBDA_FLOOR)


@dataclass(frozen=True)
class Reconstruction:
    """Reconstruction of one query from one class pool."""

    q_bar: np.ndarray
    sq_error: float
    class_id: int


def choose_formulation(k: int, r: int, d: int) -> str:
    """Pick the cheaper evaluation: 'direct' iff d > k*r, else 'woodbury'."""
    return "direct" if d > k * r else "woodbury"


def _query_stack(q_batch, r: int, d: int) -> np.ndarray:
    """Queries as one validated (b, r, d) stack, from a FeatureMap or (b*r, d) rows."""
    if isinstance(q_batch, FeatureMap):
        if (q_batch.r, q_batch.d) != (r, d):
            raise ShapeError(f"query shape ({q_batch.r},{q_batch.d}) does not match pool ({r},{d})")
        return q_batch.values[None]
    stacked = as_matrix(q_batch, name="query batch")
    if stacked.shape[1] != d:
        raise ShapeError(f"query has {stacked.shape[1]} channels, pool has {d}")
    if stacked.shape[0] % r != 0:
        raise ShapeError(f"query rows {stacked.shape[0]} not a multiple of resolution {r}")
    return stacked.reshape(-1, r, d)


class Reconstructions(Sequence):
    """Reconstructions of b queries from one pool.

    ``sq_errors`` holds the b errors as a (b,) float64 array. Indexing
    gives the per-query ``Reconstruction``, whose Q_bar = rho Q_i B_1 ... B_m
    (rho in S's dtype) is formed only then from the (b, r, d) ``queries``
    and the pool's factor: ``bases`` is (C-ordered S^T, M^-1, S), the pass's
    product order, on the direct side and (X, S^T, S) on the woodbury one.
    """

    def __init__(self, sq_errors, class_id, queries, bases: tuple, rho: float):
        self.sq_errors = sq_errors
        self.class_id = class_id
        self.queries, self.bases, self._rho = queries, bases, np.asarray(rho, bases[-1].dtype)

    def __len__(self) -> int:
        return len(self.sq_errors)

    def __getitem__(self, i: int) -> Reconstruction:
        q_bar = functools.reduce(np.matmul, self.bases, self.queries[i]) * self._rho
        return Reconstruction(q_bar=q_bar, sq_error=float(self.sq_errors[i]), class_id=self.class_id)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> over the leading axis, accumulated in float64."""
    rows = (len(a), math.prod(a.shape[1:]))  # -1 is ambiguous for an empty stack
    return np.einsum("ij,ij->i", a.reshape(rows), b.reshape(rows), dtype=np.float64)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: threads the query passes (frn's and ctx's) run on: one per CPU
#: available to the process, the caller among them
_WORKERS = _available_cpus()
#: queries per phase-1 block of the pass, and per dQ block of the
#: woodbury training node's backward (``autodiff``). Measured at the
#: paper's 5-shot shape (5 pools, 75 queries, r 25, d 640, f32, 2 workers,
#: 1 BLAS thread): blocks of 8 to 24 queries scored an episode in
#: 24-25 ms, blocks of 2 and 4 in 25-26 ms (per-block overhead), and one
#: 38-query block per thread in 26-27 ms, each pool in a pass of its own.
#: With one pass per episode, blocks of 4, 8, 16 and 38 all scored it in
#: 16-20 ms, within the spread between runs. A block's product is about
#: 50-80 us per query there, so 8 keeps the tail the last block can leave
#: one thread waiting under 0.7 ms.
_BLOCK = 8
#: bytes of A = Q S^T the pass holds at once over all its direct pools,
#: beside one scratch for W, unless one pool's A over the whole query stack
#: is larger: past that the pass takes the stack in slices, so its memory
#: does not grow with the pool count. A 5-way 5-shot episode at r 25,
#: d 640 with 75 queries needs 4.7 MB of A in f32 and 9.4 MB in f64, and
#: takes one slice.
_PASS_BYTES = 16 << 20
_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def _drop_executor():
    """In a forked child: the parent's worker threads do not exist there."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_executor)


def _chunk_executor() -> ThreadPoolExecutor:
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="frn-query")
        return _executor


def _submit(fn, *args):
    """``fn(*args)`` on the shared executor, in a copy of the caller's context:
    its ``np.errstate`` holds there too."""
    return _chunk_executor().submit(contextvars.copy_context().run, fn, *args)


def _over_tasks(fn, tasks: Sequence[tuple], meanwhile=None):
    """Run ``fn(*task)`` for each of ``tasks`` and return ``meanwhile()``,
    which the caller runs, where given, while the workers start.

    Each worker is handed one task of its own, so it gets one however late
    its thread wakes; then the workers take the rest in turn, and so does
    the caller once ``meanwhile`` has returned, so the load balances
    itself. Without ``meanwhile`` the caller keeps one task for itself, so
    a lone task runs on the caller with no dispatch. An exception,
    ``meanwhile``'s included, is raised only after every task has finished.
    """
    n = max(min(_WORKERS - 1, len(tasks) - (meanwhile is None)), 0)
    taken, lock = iter(tasks[n:]), threading.Lock()

    def take():
        while True:
            with lock:
                task = next(taken, None)
            if task is None:
                return
            fn(*task)

    def start(task):
        fn(*task)
        take()

    futures = [_submit(start, task) for task in tasks[:n]]
    try:
        out = meanwhile() if meanwhile is not None else None
        take()
    finally:
        if futures:  # an empty wait costs about half of an empty ``_over_tasks``
            wait(futures)
        for future in futures:  # raises the first one's exception, if any
            future.result()
    return out


def _chunks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of one contiguous chunk of n queries per CPU, at most n chunks."""
    m = min(_WORKERS, n)
    return [(n * i // m, n * (i + 1) // m) for i in range(m)]


def _direct_factor(s: np.ndarray, lam: float):
    """Pool side of the direct step: M^-1 = (S S^T + lam I)^-1, C-ordered, and lam."""
    return spd_inverse(add_ridge(gram(s, "outer"), lam)), lam


def _query_products(q: np.ndarray, st: np.ndarray, a: np.ndarray):
    """A = Q S^T for the (b, r, d) stack ``q`` and the C-ordered S^T, into ``a``."""
    np.matmul(q, st, out=a)


def _direct_step(a: np.ndarray, sq_norms, factor, rho: float, w, err):
    """Query side of the direct step, from A = Q S^T in the (b, r, kr) ``a``
    and the queries' ||Q_i||^2.

    Fills ``w`` with W = A M^-1, overwrites ``a`` with W G = A - lam W (since
    M^-1 G = I - lam M^-1) and fills the (b,) ``err`` with the unclamped
    (||Q||^2 - 2 rho <A, W> + rho^2 <W G, W>) / r, row dots in float64:
    <W G, W> = ||W S||^2 for any W, so it is the residual of the W
    actually computed.
    """
    m_inv, lam = factor
    np.matmul(a, m_inv, out=w)
    aw = _row_dots(a, w)
    a -= lam * w
    err[...] = (sq_norms - 2 * rho * aw + rho * rho * _row_dots(a, w)) / a.shape[1]


def _woodbury_factor(g: np.ndarray, lam: float, rho: float):
    """Woodbury pool side from G = S^T S: X = (G + lam I)^-1 and P = (1 - rho) I + rho lam X."""
    x = spd_inverse(add_ridge(g, lam))
    return x, add_ridge(x * (rho * lam), 1.0 - rho)


def _pass(q: np.ndarray, pools: Sequence[SupportPool], direct: Sequence[bool],
          params: HeadParams) -> tuple[np.ndarray, list[tuple]]:
    """Score the (b, r, d) query stack ``q`` against every pool, pool c via
    its kr x kr system if ``direct[c]`` and its d x d one otherwise: the
    (b, n) errors, and each pool's factor, (M^-1, lam) for a direct pool and
    (X, P) for a woodbury one. Rounding can take a near-zero direct error
    below zero, so every error is clamped at 0 (a woodbury one is a sum of
    squares, which the clamp leaves as it is).

    The stack is taken in slices whose A, over every direct pool, fits in
    ``_PASS_BYTES`` or in one pool's A over the whole stack, whichever is
    larger; an empty stack is one slice, so every pool is factored. In each
    slice, phase 1 forms A for every direct pool in blocks of queries across
    the CPUs, while the caller factors every pool and, if any is direct,
    squares the stack (on the first slice); phase 2 runs the rest for every
    pool, in one query chunk per CPU: the direct step, or Q P and its
    squared rows, each pool in turn writing W or Q P to a prefix of the
    chunk's rows of one scratch, as wide as the widest. Every buffer is in
    one dtype, the queries' and pools' common one.
    """
    rho, b, r = params.rho, len(q), q.shape[1]
    on = [c for c, side in enumerate(direct) if side]
    dtype = np.result_type(q, *(p.values for p in pools))
    sts = {c: np.ascontiguousarray(pools[c].values.T) for c in on}
    per_query = [r * sts[c].shape[1] * dtype.itemsize for c in on]
    step = max(max(_PASS_BYTES, b * max(per_query)) // sum(per_query), 1) if on else max(b, 1)
    held = min(step, b)
    # allocated here, not in the workers, whose own heaps would keep them
    a = {c: np.empty((held, r, sts[c].shape[1]), dtype) for c in on}
    width = max(p.values.shape[0] if side else p.d for p, side in zip(pools, direct))
    scratch = np.empty((held, r * width), dtype)
    err, factors, sq_norms = np.empty((b, len(pools))), [], []

    def pool_side():
        if not factors:
            for p, side in zip(pools, direct):
                lam = effective_lambda(params, p.k, p.r, p.d)
                factors.append(_direct_factor(p.values, lam) if side
                               else _woodbury_factor(gram(p.values, "inner"), lam, rho))
            if on:
                sq_norms.append(_row_dots(q, q))

    def one_slice(rows: slice):
        q_s, err_s = q[rows], err[rows]
        n = len(q_s)
        a_s = {c: x[:n] for c, x in a.items()}

        def block(c, lo, hi):
            _query_products(q_s[lo:hi], sts[c], a_s[c][lo:hi])

        _over_tasks(block, [(c, lo, min(lo + _BLOCK, n)) for c in on for lo in range(0, n, _BLOCK)],
                    pool_side)
        sq_s = sq_norms[0][rows] if on else None

        def chunk(lo, hi):
            q_c = q_s[lo:hi]
            for c, (factor, side) in enumerate(zip(factors, direct)):
                like = a_s[c][lo:hi] if side else q_c  # W is A's shape, Q P is Q's
                out = scratch[lo:hi, : r * like.shape[2]].reshape(like.shape)  # a view
                if side:
                    _direct_step(like, sq_s[lo:hi], factor, rho, out, err_s[lo:hi, c])
                else:
                    err_s[lo:hi, c] = _sq_rows(np.matmul(q_c, factor[1], out=out)) / r

        _over_tasks(chunk, _chunks(n))

    for start in range(0, max(b, 1), step):
        one_slice(slice(start, start + step))
    return np.maximum(err, 0.0, out=err), factors


def _one_pool(q_batch, pool: SupportPool, params: HeadParams, direct: bool) -> Reconstructions:
    """The pass over one pool, on the given side, as ``Reconstructions``."""
    q, s = _query_stack(q_batch, pool.r, pool.d), pool.values
    err, [factor] = _pass(q, [pool], [direct], params)
    bases = (np.ascontiguousarray(s.T), factor[0], s) if direct else (factor[0], s.T, s)
    return Reconstructions(err[:, 0], pool.class_id, q, bases, params.rho)


def reconstruct_direct(q_batch, pool: SupportPool, params: HeadParams) -> Reconstructions:
    """Score each query via the kr x kr system; Q_bar = rho ((Q_i S^T) M^-1) S on indexing."""
    return _one_pool(q_batch, pool, params, True)


def reconstruct_woodbury(q_batch, pool: SupportPool, params: HeadParams) -> Reconstructions:
    """Score each query via the d x d system; Q_bar = rho ((Q_i X) S^T) S is 0 for S = 0."""
    return _one_pool(q_batch, pool, params, False)


def reconstruct(q_batch, pool: SupportPool, params: HeadParams) -> Reconstructions:
    """Reconstruct queries from a pool on the side ``choose_formulation`` picks."""
    # the kernels are looked up at call time, so a function swapped into
    # this module is the one that runs
    if choose_formulation(pool.k, pool.r, pool.d) == "direct":
        return reconstruct_direct(q_batch, pool, params)
    return reconstruct_woodbury(q_batch, pool, params)


def _shifted_exp(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(e - rowmax) over the last axis of a float64 array the caller owns, in place.

    Returns the (..., 1) row sums, written to ``out``: each is at least 1,
    since a row's largest entry becomes exp(0), so dividing by them is safe.
    """
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e.sum(axis=-1, keepdims=True, out=out)


def _sq_rows(resid: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-query float64 squared norms of a (b, ...) residual, squared into
    ``out`` (a buffer of its shape) where given, and in place otherwise."""
    resid = resid.astype(np.float64, copy=False).reshape(len(resid), math.prod(resid.shape[1:]))
    out = resid if out is None else out.reshape(resid.shape)
    return np.sum(np.square(resid, out=out), axis=1)


def _check_pools(pools: Sequence[SupportPool]) -> tuple[int, int]:
    """The (r, d) all pools must agree in: batched heads split queries by it."""
    if not pools:
        raise ValueError("at least one support pool is required")
    r, d = pools[0].r, pools[0].d
    for p in pools:
        if (p.r, p.d) != (r, d):
            raise ShapeError(f"pools disagree in (r, d): ({p.r},{p.d}) vs ({r},{d})")
    return r, d


def frn_distances(q_batch, pools: Sequence[SupportPool], params: HeadParams) -> np.ndarray:
    """(b, n) matrix of per-query, per-class reconstruction errors, every
    pool scored in one ``_pass`` on the side ``choose_formulation`` picks."""
    q = _query_stack(q_batch, *_check_pools(pools))  # one stack for every pool
    direct = [choose_formulation(p.k, p.r, p.d) == "direct" for p in pools]
    return _pass(q, pools, direct, params)[0]


def episode_logits(q_batch, pools: Sequence[SupportPool], params: HeadParams) -> np.ndarray:
    """(b, n) logits of a (b*r, d) query stack (or one FeatureMap) against all pools."""
    return -params.gamma * frn_distances(q_batch, pools, params)


def reconstruction_weights(q_batch, pool: SupportPool, params: HeadParams) -> list[np.ndarray]:
    """Per-query optimal weight matrices W_i = (Q_i S^T) (S S^T + lam I)^-1,
    formed from the pool's direct factor.

    Exposed so the ridge objective ||Q - W S||^2 + lam ||W||^2 can be
    evaluated against the unscaled (rho = 1) solution.
    """
    recs = reconstruct_direct(q_batch, pool, params)
    st, m_inv, _ = recs.bases
    return [q @ st @ m_inv for q in recs.queries]
