"""Comparison heads: prototype distance, pooled subspace projection, and
attention-based feature-map reconstruction.

Three reference points around the reconstruction head, spanning the
feature-map / regression design space:

* proto: average-pool maps to single vectors, squared Euclidean distance
  to class means. No feature map, no regression.
* dsn: average-pool, then distance to the ridge projection of the pooled
  query onto the span of the pooled supports (origin included, fixed
  small regularizer). Regression without feature maps.
* ctx: keep the feature map, but reconstruct it with scaled-dot-product
  attention over the support pool instead of solving a regression.

Like the reconstruction head, each head scores a whole episode per call:
the b queries come as one (b*r, d) stack (or a single FeatureMap) and
every ``*_distances``/``*_scores`` function returns a (b, n) array over
the n class pools. Baseline logits are normalized by the channel count d
before temperature scaling, which keeps their scale comparable across
feature widths. ``dsn_scores`` projects at the default
``ProjectionConfig``; ``dsn_distances`` takes any.

The array-level forwards ``proto_sqdist`` and ``ctx_errors`` are shared
with training, whose ``autodiff`` nodes call them. ``ctx_distances``
projects the queries once per episode, not once per pool.

``ctx_errors`` scores every pool through one weight, row-sum and residual
buffer, allocated once per call on the calling thread and reused across
pools; fresh arrays per pool made an episode about an eighth slower. The
caller folds 1/sqrt(d_k) into a copy of each pool's keys (``_ctx_keys``);
then the queries split into one contiguous chunk per CPU, as in
``head``'s passes, and each chunk takes, for every pool, one attention
pass, ``_ctx_exp``: logits, max-subtract, ``exp`` and row sums. The
errors normalise the rows after the product by the values. Every product
is a 3-D matmul and every reduction runs per row, so the errors are
bit-identical for any worker count, batched or per query; training's
node gets the arrays its backward keeps from the same loop. At the
paper's Conv-4 shape (five 5-shot pools, 75 queries, r 25, d 64, f64,
1 BLAS thread) a ctx episode took a median 3.7 ms against 7.1 ms
serially on a shared 2-vCPU host (``head`` gives the caveats). proto and
dsn run serially: a whole episode takes 0.17 and 0.28 ms there, and an
empty dispatch to the workers 0.04 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .head import (
    SupportPool,
    _check_pools,
    _chunks,
    _over_tasks,
    _query_stack,
    _shifted_exp,
    _sq_rows,
)
from .linalg import add_ridge, as_matrix, gram, spd_solve


@dataclass(frozen=True)
class ProjectionConfig:
    """Subspace-projection settings for the dsn head.

    The subspace always includes the origin: projections are never
    recentred on the class centroid.
    """

    lambda_fixed: float = 0.01

    def __post_init__(self):
        if not (self.lambda_fixed > 0):
            raise ValueError(f"lambda_fixed must be positive, got {self.lambda_fixed!r}")


@dataclass(frozen=True)
class CtxParams:
    """Key/value projections for the attention head.

    ``CtxParams()``, with neither projection, is the identity: d_k = d_v = d.
    Otherwise ``key_proj`` (d x d_k) and ``value_proj`` (d x d_v) are both
    given and applied row-wise.
    """

    key_proj: np.ndarray | None = None
    value_proj: np.ndarray | None = None

    def __post_init__(self):
        if self.key_proj is None and self.value_proj is None:
            return
        if self.key_proj is None or self.value_proj is None:
            raise ValueError("key_proj and value_proj are given together or not at all")
        object.__setattr__(self, "key_proj", as_matrix(self.key_proj, name="key projection"))
        object.__setattr__(self, "value_proj", as_matrix(self.value_proj, name="value projection"))

    @classmethod
    def identity(cls) -> "CtxParams":
        return cls()


# ---------------------------------------------------------------------------
# prototype head


def proto_prototypes(supports, r: int) -> np.ndarray:
    """(n, d) prototypes of n pools of r-row maps, a list or a stack.

    A prototype is the mean of the pool's per-image average-pooled vectors.
    """
    return np.stack([s.reshape(-1, r, s.shape[-1]).mean(axis=1).mean(axis=0) for s in supports])


def proto_sqdist(maps: np.ndarray, supports) -> np.ndarray:
    """(b, n) squared Euclidean distances from the pooled (b, r, d) query maps to each prototype."""
    qp = maps.mean(axis=1).astype(np.float64)
    protos = proto_prototypes(supports, maps.shape[1]).astype(np.float64)
    return np.sum((qp[:, None, :] - protos[None, :, :]) ** 2, axis=2)


def proto_distances(q, pools: Sequence[SupportPool]) -> np.ndarray:
    """(b, n) squared Euclidean distances from the pooled queries to each prototype."""
    return proto_sqdist(_query_stack(q, *_check_pools(pools)), [p.values for p in pools])


def proto_scores(q, pools: Sequence[SupportPool], gamma: float) -> np.ndarray:
    return -gamma * proto_distances(q, pools) / pools[0].d


# ---------------------------------------------------------------------------
# pooled subspace-projection head


def dsn_residual(q: np.ndarray, pooled_supports: np.ndarray, lam: float) -> float | np.ndarray:
    """Squared residual of the ridge projection of q onto span(rows of P).

    Solves w = q P^T (P P^T + lam I)^-1 and returns ||q - w P||^2; for a
    vanishing regularizer this approaches the orthogonal projection
    residual onto the subspace spanned by the supports and the origin.
    A 1-D q gives a float; the rows of a 2-D q share one factorization
    and give one residual each.
    """
    p = np.asarray(pooled_supports)
    q = np.asarray(q)
    rows = np.atleast_2d(q)
    m = add_ridge(gram(p, "outer"), lam)
    w = spd_solve(m, (rows @ p.T).T).T
    resid = _sq_rows(w @ p - rows)  # the residual negated exactly
    return float(resid[0]) if q.ndim == 1 else resid


def dsn_distances(
    q, pools: Sequence[SupportPool], cfg: ProjectionConfig = ProjectionConfig()
) -> np.ndarray:
    """(b, n) projection residuals of the pooled queries against each class subspace."""
    qv = _query_stack(q, *_check_pools(pools)).mean(axis=1)
    return np.column_stack([
        dsn_residual(qv, pool.values.reshape(pool.k, pool.r, pool.d).mean(axis=1), cfg.lambda_fixed)
        for pool in pools
    ])


def dsn_scores(q, pools: Sequence[SupportPool], gamma: float = 1.0) -> np.ndarray:
    return -gamma * dsn_distances(q, pools) / pools[0].d


# ---------------------------------------------------------------------------
# attention head


def _ctx_keys(q1: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """The C-ordered keys S1^T / sqrt(d_k) that ``_ctx_exp`` takes, in Q1's and S1's dtype.

    Scaling the d_k*kr keys rather than the (..., kr) logits, which are
    rounded in the inputs' dtype, costs less. The stacked product by a
    C-ordered copy takes about 3/5 of the time of the transposed view's.
    """
    keys_t = np.empty(s1.shape[::-1], np.result_type(q1, s1))
    np.divide(s1.T, math.sqrt(q1.shape[-1]), out=keys_t)
    return keys_t


def _ctx_exp(q1: np.ndarray, keys_t: np.ndarray, out: np.ndarray, sums: np.ndarray):
    """One unnormalised attention pass: E = exp(L - rowmax L), L = Q1 S1^T / sqrt(d_k).

    Writes E to the float64 ``out`` and its (..., 1) row sums, each at
    least 1, to ``sums``, and returns both; callers normalise by the sums.
    ``keys_t`` is ``_ctx_keys(q1, s1)``.
    """
    np.matmul(q1, keys_t, out=out)
    return out, _shifted_exp(out, sums)


def _ctx_project(x: np.ndarray, params: CtxParams):
    """Rows of ``x`` (the last axis) as keys and values: (x W_k, x W_v)."""
    if params.key_proj is None:  # the identity
        return x, x
    return x @ params.key_proj, x @ params.value_proj


def ctx_errors(q1: np.ndarray, q2: np.ndarray, keys, values, keep: list | None = None) -> np.ndarray:
    """(b, n) mean squared attention-reconstruction errors of projected queries.

    ``q1`` (b, r, d_k) and ``q2`` (b, r, d_v) are the projected query maps,
    ``keys`` and ``values`` the n projected pools (lists or stacks). The
    caller scales every pool's keys; then one contiguous chunk of queries
    per CPU takes, for each pool, one ``_ctx_exp`` pass and normalises its
    rows after the product by the values, on (b, r, d_v) rather than
    (b, r, kr). Every buffer is float64 and allocated here, not in the
    workers: one weight, row-sum and residual buffer that every pool
    reuses, or, given a list ``keep``, fresh weights, row sums and residual
    A V - Q2 per pool, appended to ``keep`` for the training backward; the
    shared residual buffer then takes the squares. The errors are the same
    bits either way, and for any worker count.
    """
    b, r = q1.shape[:2]
    keys_t = [_ctx_keys(q1, s1) for s1 in keys]
    sq, err = np.empty(q2.shape), np.empty((b, len(keys)))
    if keep is None:
        e = np.empty((b, r, max(len(s1) for s1 in keys)))
        sums = np.empty((b, r, 1))
        bufs = [(e[:, :, : len(s1)], sums, sq) for s1 in keys]
    else:
        bufs = [(np.empty((b, r, len(s1))), np.empty((b, r, 1)), np.empty_like(sq))
                for s1 in keys]
        keep.extend(bufs)

    def chunk(lo, hi):
        rows = slice(lo, hi)
        for c, (k_t, s2, (e_c, sums_c, resid)) in enumerate(zip(keys_t, values, bufs)):
            e_r, sums_r = _ctx_exp(q1[rows], k_t, e_c[rows], sums_c[rows])
            res = resid[rows]
            np.matmul(e_r, s2, out=res)
            res /= sums_r
            res -= q2[rows]  # the residual negated exactly
            err[rows, c] = _sq_rows(res, sq[rows]) / r

    _over_tasks(chunk, _chunks(b))
    return err


def ctx_distances(q, pools: Sequence[SupportPool], params: CtxParams) -> np.ndarray:
    """(b, n) mean squared attention-reconstruction errors; queries are projected once."""
    q1, q2 = _ctx_project(_query_stack(q, *_check_pools(pools)), params)
    keys, values = zip(*(_ctx_project(pool.values, params) for pool in pools))
    return ctx_errors(q1, q2, keys, values)


def ctx_scores(
    q,
    pools: Sequence[SupportPool],
    params: CtxParams,
    gamma: float = 1.0,
) -> np.ndarray:
    return -gamma * ctx_distances(q, pools, params) / pools[0].d
