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

Baseline logits are normalized by the channel count d before temperature
scaling, which keeps their scale comparable across feature widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .head import ClassScores, FeatureMap, SupportPool, _check_pools, softmax
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


def average_pool(values: np.ndarray) -> np.ndarray:
    """Mean over the spatial rows of an (r, d) map, giving a d-vector."""
    return np.asarray(values).mean(axis=0)


def _pooled_query(q: FeatureMap | np.ndarray) -> np.ndarray:
    vals = q.values if isinstance(q, FeatureMap) else as_matrix(q, name="query")
    return average_pool(vals)


def _scores(dists: np.ndarray, gamma: float, d: int) -> ClassScores:
    logits = -gamma * dists / d
    return ClassScores(logits=logits, probs=softmax(logits))


# ---------------------------------------------------------------------------
# prototype head


def proto_prototype(pool: SupportPool) -> np.ndarray:
    """Class prototype: mean of the k per-image average-pooled vectors."""
    per_image = pool.values.reshape(pool.k, pool.r, pool.d).mean(axis=1)
    return per_image.mean(axis=0)


def proto_distances(q, pools: Sequence[SupportPool]) -> np.ndarray:
    """Squared Euclidean distances from the pooled query to each prototype."""
    _check_pools(pools)
    qv = _pooled_query(q).astype(np.float64)
    return np.array(
        [float(np.sum((qv - proto_prototype(p).astype(np.float64)) ** 2)) for p in pools]
    )


def proto_scores(q, pools: Sequence[SupportPool], gamma: float) -> ClassScores:
    dists = proto_distances(q, pools)
    return _scores(dists, gamma, pools[0].d)


# ---------------------------------------------------------------------------
# pooled subspace-projection head


def dsn_residual(q_vec: np.ndarray, pooled_supports: np.ndarray, lam: float) -> float:
    """Squared residual of the ridge projection of q onto span(rows of P).

    Solves w = q P^T (P P^T + lam I)^-1 and returns ||q - w P||^2; for a
    vanishing regularizer this approaches the orthogonal projection
    residual onto the subspace spanned by the supports and the origin.
    """
    p = np.asarray(pooled_supports)
    q_vec = np.asarray(q_vec)
    m = add_ridge(gram(p, "outer"), lam)
    w = spd_solve(m, (q_vec[None, :] @ p.T).T).T
    resid = q_vec - (w @ p)[0]
    return float(np.sum(resid.astype(np.float64) ** 2))


def dsn_distances(
    q, pools: Sequence[SupportPool], cfg: ProjectionConfig = ProjectionConfig()
) -> np.ndarray:
    """Projection residuals of the pooled query against each class subspace."""
    _check_pools(pools)
    qv = _pooled_query(q)
    out = []
    for pool in pools:
        pooled = pool.values.reshape(pool.k, pool.r, pool.d).mean(axis=1)
        out.append(dsn_residual(qv, pooled, cfg.lambda_fixed))
    return np.array(out)


def dsn_scores(
    q,
    pools: Sequence[SupportPool],
    cfg: ProjectionConfig = ProjectionConfig(),
    gamma: float = 1.0,
) -> ClassScores:
    dists = dsn_distances(q, pools, cfg)
    return _scores(dists, gamma, pools[0].d)


# ---------------------------------------------------------------------------
# attention head


def ctx_attention(q1: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Row-wise softmax attention weights softmax(Q1 S1^T / sqrt(d_k))."""
    d_k = q1.shape[1]
    return softmax(q1 @ s1.T / math.sqrt(d_k))


def ctx_reconstruct(q_vals: np.ndarray, pool_vals: np.ndarray, params: CtxParams):
    """Attention reconstruction; returns (projected query, reconstruction)."""
    if params.identity_mode:
        q1, q2 = q_vals, q_vals
        s1, s2 = pool_vals, pool_vals
    else:
        q1, q2 = q_vals @ params.key_proj, q_vals @ params.value_proj
        s1, s2 = pool_vals @ params.key_proj, pool_vals @ params.value_proj
    attn = ctx_attention(q1, s1)
    return q2, attn @ s2


def ctx_distances(q, pools: Sequence[SupportPool], params: CtxParams) -> np.ndarray:
    """Mean squared attention-reconstruction error per class."""
    _check_pools(pools)
    q_vals = q.values if isinstance(q, FeatureMap) else as_matrix(q, name="query")
    r = q_vals.shape[0]
    out = []
    for pool in pools:
        q2, q2_bar = ctx_reconstruct(q_vals, pool.values, params)
        diff = (q2 - q2_bar).astype(np.float64)
        out.append(float(np.sum(diff * diff) / r))
    return np.array(out)


def ctx_scores(
    q,
    pools: Sequence[SupportPool],
    params: CtxParams,
    gamma: float = 1.0,
) -> ClassScores:
    dists = ctx_distances(q, pools, params)
    return _scores(dists, gamma, pools[0].d)
