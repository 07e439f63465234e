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

``ctx_errors`` scores every pool through one weight buffer and one
residual buffer, allocated once per call and reused across pools; fresh
arrays per pool made an episode about an eighth slower. Each pool takes
one attention pass, ``_ctx_exp``: logits, max-subtract, ``exp`` and row
sums, with 1/sqrt(d_k) folded into the key copy. The errors normalise the
rows after the product by the values, so batched and per-query results
stay bit-identical. All three heads run serially (see ``head`` for why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .head import SupportPool, _check_pools, _query_stack, _shifted_exp, _sq_rows
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
    return proto_sqdist(_query_stack(q, *_check_pools(pools)).maps, [p.values for p in pools])


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
    qv = _query_stack(q, *_check_pools(pools)).maps.mean(axis=1)
    return np.column_stack([
        dsn_residual(qv, pool.values.reshape(pool.k, pool.r, pool.d).mean(axis=1), cfg.lambda_fixed)
        for pool in pools
    ])


def dsn_scores(q, pools: Sequence[SupportPool], gamma: float = 1.0) -> np.ndarray:
    return -gamma * dsn_distances(q, pools) / pools[0].d


# ---------------------------------------------------------------------------
# attention head


def _ctx_exp(q1: np.ndarray, s1: np.ndarray, out: np.ndarray | None = None):
    """One unnormalised attention pass: E = exp(L - rowmax L), L = Q1 S1^T / sqrt(d_k).

    Returns E in float64 (written to ``out``, a fresh array by default) and
    its (..., 1) row sums, each at least 1; callers normalise by them. The
    1/sqrt(d_k) scales the C-ordered copy of S1^T (d_k*kr entries) rather
    than the (..., kr) logits, which are rounded in the inputs' dtype. The
    stacked product by a C-ordered copy takes about 3/5 of the time of the
    transposed view's.
    """
    dtype = np.result_type(q1, s1)
    if out is None:
        out = np.empty(q1.shape[:-1] + (len(s1),), dtype=np.result_type(dtype, np.float64))
    keys_t = np.empty(s1.shape[::-1], dtype)
    np.divide(s1.T, math.sqrt(q1.shape[-1]), out=keys_t)
    np.matmul(q1, keys_t, out=out)
    return out, _shifted_exp(out)


def _ctx_project(x: np.ndarray, params: CtxParams):
    """Rows of ``x`` (the last axis) as keys and values: (x W_k, x W_v)."""
    if params.key_proj is None:  # the identity
        return x, x
    return x @ params.key_proj, x @ params.value_proj


def ctx_errors(q1: np.ndarray, q2: np.ndarray, keys, values, keep: list | None = None) -> np.ndarray:
    """(b, n) mean squared attention-reconstruction errors of projected queries.

    ``q1`` (b, r, d_k) and ``q2`` (b, r, d_v) are the projected query maps,
    ``keys`` and ``values`` the n projected pools (lists or stacks). Each
    pool takes one ``_ctx_exp`` pass, and its rows are normalised after the
    product by the values, on (b, r, d_v) rather than (b, r, kr). Every pool
    reuses one weight buffer and one residual buffer allocated here. Given a
    list ``keep``, each pool gets fresh ones instead, and its (E, row sums,
    residual A V - Q2) is appended for the training backward; the errors
    are the same bits either way.
    """
    b, r = q1.shape[:2]
    e = np.empty((b, r, max(len(s1) for s1 in keys)), np.result_type(q1, keys[0], np.float64))
    resid = np.empty(q2.shape, np.result_type(e, values[0]))
    err = np.empty((b, len(keys)))
    for c, (s1, s2) in enumerate(zip(keys, values)):
        if keep is not None:
            e, resid = np.empty_like(e), np.empty_like(resid)
        e_c, sums = _ctx_exp(q1, s1, out=e[:, :, : len(s1)])
        np.matmul(e_c, s2, out=resid)
        resid /= sums
        resid -= q2  # the residual negated exactly
        if keep is not None:
            keep.append((e_c, sums, resid.copy()))
        err[:, c] = _sq_rows(resid) / r
    return err


def ctx_distances(q, pools: Sequence[SupportPool], params: CtxParams) -> np.ndarray:
    """(b, n) mean squared attention-reconstruction errors; queries are projected once."""
    q1, q2 = _ctx_project(_query_stack(q, *_check_pools(pools)).maps, params)
    keys, values = zip(*(_ctx_project(pool.values, params) for pool in pools))
    return ctx_errors(q1, q2, keys, values)


def ctx_scores(
    q,
    pools: Sequence[SupportPool],
    params: CtxParams,
    gamma: float = 1.0,
) -> np.ndarray:
    return -gamma * ctx_distances(q, pools, params) / pools[0].d
