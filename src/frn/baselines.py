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
feature widths.

The array-level forwards ``proto_sqdist`` and ``ctx_errors`` are shared
with training, whose ``autodiff`` nodes call them. ``ctx_distances``
projects the queries once per episode, not once per pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .head import SupportPool, _check_pools, _query_stack, _softmax_in_place, _sq_rows
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

    With ``identity_mode`` both projections are the identity and
    d_k = d_v = d; otherwise ``key_proj`` (d x d_k) and ``value_proj``
    (d x d_v) are applied row-wise.
    """

    key_proj: np.ndarray | None = None
    value_proj: np.ndarray | None = None
    identity_mode: bool = False

    def __post_init__(self):
        if self.identity_mode:
            if self.key_proj is not None or self.value_proj is not None:
                raise ValueError("identity_mode takes no projection matrices")
            return
        if self.key_proj is None or self.value_proj is None:
            raise ValueError("key_proj and value_proj are required unless identity_mode")
        object.__setattr__(self, "key_proj", as_matrix(self.key_proj, name="key projection"))
        object.__setattr__(self, "value_proj", as_matrix(self.value_proj, name="value projection"))

    @classmethod
    def identity(cls) -> "CtxParams":
        return cls(identity_mode=True)

    @classmethod
    def random(cls, d: int, d_k: int | None = None, d_v: int | None = None, rng=None) -> "CtxParams":
        """Small random linear projections, default square (d_k = d_v = d)."""
        rng = np.random.default_rng(rng)
        d_k = d if d_k is None else d_k
        d_v = d if d_v is None else d_v
        return cls(
            key_proj=rng.standard_normal((d, d_k)) / math.sqrt(d),
            value_proj=rng.standard_normal((d, d_v)) / math.sqrt(d),
        )


# ---------------------------------------------------------------------------
# prototype head


def proto_prototypes(supports, r: int) -> np.ndarray:
    """(n, d) prototypes of n pools of r-row maps, a list or a stack.

    A prototype is the mean of the pool's per-image average-pooled vectors.
    """
    return np.stack([s.reshape(-1, r, s.shape[-1]).mean(axis=1).mean(axis=0) for s in supports])


def proto_prototype(pool: SupportPool) -> np.ndarray:
    """Class prototype of one pool (see ``proto_prototypes``)."""
    return proto_prototypes([pool.values], pool.r)[0]


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


def dsn_scores(
    q,
    pools: Sequence[SupportPool],
    cfg: ProjectionConfig = ProjectionConfig(),
    gamma: float = 1.0,
) -> np.ndarray:
    return -gamma * dsn_distances(q, pools, cfg) / pools[0].d


# ---------------------------------------------------------------------------
# attention head


def ctx_attention(q1: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Row-wise softmax attention weights softmax(Q1 S1^T / sqrt(d_k))."""
    logits = q1 @ s1.T
    logits /= math.sqrt(q1.shape[-1])
    return _softmax_in_place(logits.astype(np.float64, copy=False))


def _ctx_project(x: np.ndarray, params: CtxParams):
    """Rows of ``x`` (the last axis) as keys and values: (x W_k, x W_v)."""
    if params.identity_mode:
        return x, x
    return x @ params.key_proj, x @ params.value_proj


def ctx_reconstruct(q_vals: np.ndarray, pool_vals: np.ndarray, params: CtxParams):
    """Attention reconstruction; returns (projected query, reconstruction).

    ``q_vals`` is one (r, d) map or a (b, r, d) stack; each map attends
    over the pool on its own.
    """
    q1, q2 = _ctx_project(q_vals, params)
    s1, s2 = _ctx_project(pool_vals, params)
    return q2, ctx_attention(q1, s1) @ s2


def ctx_errors(q1: np.ndarray, q2: np.ndarray, keys, values) -> np.ndarray:
    """(b, n) mean squared attention-reconstruction errors of projected queries.

    ``q1`` (b, r, d_k) and ``q2`` (b, r, d_v) are the projected query maps,
    ``keys`` and ``values`` the n projected pools (lists or stacks).
    """
    r = q1.shape[1]
    out = []
    for s1, s2 in zip(keys, values):
        resid = ctx_attention(q1, s1) @ s2
        resid -= q2  # the residual negated exactly, on the fresh reconstruction
        out.append(_sq_rows(resid) / r)
    return np.column_stack(out)


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
