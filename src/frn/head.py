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
* woodbury: Q_bar = rho * Q (S^T S + lam I)^-1 S^T S      (d x d solve)

The direct form is cheaper when d > kr, the woodbury form otherwise;
``choose_formulation`` picks automatically (ties go to woodbury).

Batching: every head, this one and those in ``baselines``, scores a whole
episode per call: its b queries come stacked into one (b*r x d) matrix
and it returns a (b, n) array over the n class pools. The support-side
factor is computed once per pool; the query stack is validated, and its
float64 ||Q_i||^2 taken, once per episode. Each query-side product is one
3-D ``np.matmul`` over the (b, r, d) stack (M^-1 is C-ordered): unlike one
2-D product over all b*r rows, it rounds as each query alone would, so
batched results are bit-identical to one-at-a-time ones. A pool's result
is one ``Reconstructions``: a (b,) float64 error array, and a sequence
of per-query ``Reconstruction``s whose Q_bar is formed on indexing.

The direct form never forms Q_bar to score: it takes each error from
the kr-space identity in ``reconstruct_direct``, which stays within
256 eps ||Q||^2 / r of a float64 solve. Its query-side products split
the stack into one contiguous chunk of queries per CPU available to the
process and run the chunks on threads; since each query's products
depend only on that query, the results are bit-identical to a serial
run. The woodbury form runs serially. All functions are pure;
per-class calls may run concurrently.
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

from .linalg import ShapeError, add_ridge, as_matrix, gram, spd_inverse, spd_solve

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


@dataclass
class _Queries:
    """A validated (b, r, d) query stack and its float64 ||Q_i||^2, taken on first use."""

    maps: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.maps.reshape(-1, self.maps.shape[-1]), dtype=dtype, copy=copy)

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        return _row_dots(self.maps, self.maps)


def _query_stack(q_batch, r: int, d: int) -> _Queries:
    """Queries as one validated stack: a FeatureMap, (b*r, d) rows or a stack."""
    if isinstance(q_batch, _Queries) and q_batch.maps.shape[1:] == (r, d):
        return q_batch
    if isinstance(q_batch, FeatureMap):
        if (q_batch.r, q_batch.d) != (r, d):
            raise ShapeError(f"query shape ({q_batch.r},{q_batch.d}) does not match pool ({r},{d})")
        return _Queries(q_batch.values[None])
    stacked = as_matrix(q_batch, name="query batch")
    if stacked.shape[1] != d:
        raise ShapeError(f"query has {stacked.shape[1]} channels, pool has {d}")
    if stacked.shape[0] % r != 0:
        raise ShapeError(f"query rows {stacked.shape[0]} not a multiple of resolution {r}")
    return _Queries(stacked.reshape(-1, r, d))


class Reconstructions(Sequence):
    """Reconstructions of b queries from one pool.

    ``sq_errors`` holds the b errors as a (b,) float64 array. Indexing
    gives the per-query ``Reconstruction``; its Q_bar = rho * W_i B is
    formed only then, from the (b, r, m) coefficients W and the (m, d)
    basis B the errors were scored with.
    """

    def __init__(self, sq_errors, class_id, coef, basis, rho):
        self.sq_errors = sq_errors
        self.class_id = class_id
        self._coef, self._basis, self._rho = coef, basis, rho

    def __len__(self) -> int:
        return len(self.sq_errors)

    def __getitem__(self, i: int) -> Reconstruction:
        q_bar = (self._coef[i] @ self._basis) * self._rho
        return Reconstruction(q_bar=q_bar, sq_error=float(self.sq_errors[i]), class_id=self.class_id)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> over the leading axis, accumulated in float64."""
    n = a.shape[0]
    return np.einsum("ij,ij->i", a.reshape(n, -1), b.reshape(n, -1), dtype=np.float64)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: chunks the direct kernel splits a query stack into: one per CPU
#: available to the process, the first run by the caller
_WORKERS = _available_cpus()
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
            _executor = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="frn-direct")
        return _executor


def _over_chunks(fn, b: int):
    """Run ``fn(lo, hi)`` on one contiguous slice of range(b) per worker, concurrently.

    The caller runs the first slice itself; the others run on the shared
    executor, each in a copy of the caller's context, so its
    ``np.errstate`` holds there too. An exception is raised only after
    every slice has finished.
    """
    n = max(min(_WORKERS, b), 1)
    bounds = [b * i // n for i in range(n + 1)]
    if n == 1:
        fn(0, b)
        return
    executor = _chunk_executor()
    futures = [
        executor.submit(contextvars.copy_context().run, fn, lo, hi)
        for lo, hi in zip(bounds[1:-1], bounds[2:])
    ]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _direct_kernel(q: np.ndarray, pool: SupportPool, params: HeadParams):
    """W = A (G + lam I)^-1 for A = Q S^T and G = S S^T, and the float64 row dots
    <A_i, W_i> and <W_i G, W_i> of each query of the (b, r, d) stack ``q``.

    The pool-side factor is computed here; the query-side products run in
    contiguous chunks of queries across the CPUs (``_over_chunks``). Each
    is still one 3-D ``np.matmul`` per chunk, so every query's results are
    bit-identical to a serial run, whatever the number of workers.
    """
    s = pool.values
    g = gram(s, "outer")
    m_inv = spd_inverse(add_ridge(g, effective_lambda(params, pool.k, pool.r, pool.d)))
    st = np.ascontiguousarray(s.T)
    a = np.empty(q.shape[:2] + (len(s),), dtype=np.result_type(q, s))
    w = np.empty_like(a)
    dots = np.empty((2, len(q)))

    def chunk(lo, hi):
        ac, wc = a[lo:hi], w[lo:hi]
        np.matmul(q[lo:hi], st, out=ac)
        np.matmul(ac, m_inv, out=wc)
        dots[0, lo:hi] = _row_dots(ac, wc)
        np.matmul(wc, g, out=ac)  # W G, in A's place
        dots[1, lo:hi] = _row_dots(ac, wc)

    _over_chunks(chunk, len(q))
    return w, dots[0], dots[1]


def reconstruct_direct(q_batch, pool: SupportPool, params: HeadParams) -> Reconstructions:
    """Score each query via the kr x kr system without forming Q_bar.

    With A = Q S^T, W = A (G + lam I)^-1 and G = S S^T, the error
    ||Q - rho W S||^2 expands to ||Q||^2 - 2 rho <A, W> + rho^2 <W G, W>.
    ``<W G, W>`` equals ||W S||^2 for any W, so the result is the
    residual of the W actually computed; ``<A, W> - lam ||W||^2`` would
    instead need W (G + lam I) = A to hold exactly. Rounding can still
    take a near-zero error below zero, so it is clamped at 0.
    """
    queries = _query_stack(q_batch, pool.r, pool.d)
    sq_norms = queries.sq_norms  # before the chunks run: none of them reaches the cache
    w, aw, wgw = _direct_kernel(queries.maps, pool, params)
    rho, s = params.rho, pool.values
    err = sq_norms - 2 * rho * aw + rho * rho * wgw
    return Reconstructions(
        np.maximum(err / pool.r, 0.0), pool.class_id, w, s, np.asarray(rho, dtype=s.dtype)
    )


def reconstruct_woodbury(q_batch, pool: SupportPool, params: HeadParams) -> Reconstructions:
    """Reconstruct every query via the d x d system, right to left."""
    q = _query_stack(q_batch, pool.r, pool.d).maps
    s = pool.values
    rho = np.asarray(params.rho, dtype=s.dtype)
    g = gram(s, "inner")
    hat = spd_solve(add_ridge(g, effective_lambda(params, pool.k, pool.r, pool.d)), g)
    resid = q @ hat
    resid *= rho
    resid -= q  # rho Q hat - Q: the residual negated exactly, so its square is unchanged
    return Reconstructions(_sq_rows(resid) / pool.r, pool.class_id, q, hat, rho)


def reconstruct(
    q_batch, pool: SupportPool, params: HeadParams, formulation: str = "auto"
) -> Reconstructions:
    """Reconstruct queries from a pool, picking the formulation if 'auto'."""
    if formulation == "auto":
        formulation = choose_formulation(pool.k, pool.r, pool.d)
    if formulation == "direct":
        return reconstruct_direct(q_batch, pool, params)
    if formulation == "woodbury":
        return reconstruct_woodbury(q_batch, pool, params)
    raise ValueError(f"unknown formulation {formulation!r}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtracted)."""
    return _softmax_in_place(np.array(logits, dtype=np.float64))


def _softmax_in_place(e: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a fresh float64 array, overwriting it."""
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _sq_rows(resid: np.ndarray) -> np.ndarray:
    """Per-query float64 squared norms of a fresh (b, ...) residual, squared in place."""
    resid = resid.astype(np.float64, copy=False).reshape(len(resid), -1)
    return np.sum(np.square(resid, out=resid), axis=1)


def _check_pools(pools: Sequence[SupportPool]) -> tuple[int, int]:
    """The (r, d) all pools must agree in: batched heads split queries by it."""
    if not pools:
        raise ValueError("at least one support pool is required")
    r, d = pools[0].r, pools[0].d
    for p in pools:
        if (p.r, p.d) != (r, d):
            raise ShapeError(f"pools disagree in (r, d): ({p.r},{p.d}) vs ({r},{d})")
    return r, d


def frn_distances(
    q_batch, pools: Sequence[SupportPool], params: HeadParams, formulation: str = "auto"
) -> np.ndarray:
    """(b, n) matrix of per-query, per-class reconstruction errors."""
    queries = _query_stack(q_batch, *_check_pools(pools))  # one stack for every pool
    return np.column_stack(
        [reconstruct(queries, pool, params, formulation).sq_errors for pool in pools]
    )


def episode_logits(
    q_batch, pools: Sequence[SupportPool], params: HeadParams, formulation: str = "auto"
) -> np.ndarray:
    """(b, n) logits of a (b*r, d) query stack (or one FeatureMap) against all pools."""
    return -params.gamma * frn_distances(q_batch, pools, params, formulation)


def reconstruction_weights(q_batch, pool: SupportPool, params: HeadParams) -> list[np.ndarray]:
    """Per-query optimal weight matrices W = Q S^T (S S^T + lam I)^-1.

    Exposed so the ridge objective ||Q - W S||^2 + lam ||W||^2 can be
    evaluated against the unscaled (rho = 1) solution.
    """
    return list(_direct_kernel(_query_stack(q_batch, pool.r, pool.d).maps, pool, params)[0])
