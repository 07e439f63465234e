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
factor is computed once per pool and the query-side product chain is
applied per r-row block, so the batched result is bit-identical to
reconstructing each query separately. All functions are pure; per-class
calls may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _query_stack(q_batch, r: int, d: int) -> np.ndarray:
    """Queries as one (b*r, d) array: a single FeatureMap or stacked rows."""
    if isinstance(q_batch, FeatureMap):
        if (q_batch.r, q_batch.d) != (r, d):
            raise ShapeError(f"query shape ({q_batch.r},{q_batch.d}) does not match pool ({r},{d})")
        return q_batch.values
    stacked = as_matrix(q_batch, name="query batch")
    if stacked.shape[1] != d:
        raise ShapeError(f"query has {stacked.shape[1]} channels, pool has {d}")
    if stacked.shape[0] % r != 0:
        raise ShapeError(f"query rows {stacked.shape[0]} not a multiple of resolution {r}")
    return stacked


def _blocks(q: np.ndarray, r: int) -> list[np.ndarray]:
    return [q[i : i + r] for i in range(0, q.shape[0], r)]


def _sq_error(q: np.ndarray, q_bar: np.ndarray, r: int) -> float:
    # accumulate in float64 even in float32 mode; the error feeds softmax
    diff = (q - q_bar).astype(np.float64, copy=False)
    return float(np.sum(diff * diff) / r)


def reconstruct_direct(q_batch, pool: SupportPool, params: HeadParams) -> list[Reconstruction]:
    """Reconstruct each query via the kr x kr system, left to right."""
    r, d = pool.r, pool.d
    blocks = _blocks(_query_stack(q_batch, r, d), r)
    s = pool.values
    lam = effective_lambda(params, pool.k, r, d)
    rho = np.asarray(params.rho, dtype=s.dtype)
    m_inv = spd_inverse(add_ridge(gram(s, "outer"), lam))
    st = np.ascontiguousarray(s.T)
    out = []
    for q in blocks:
        q_bar = (((q @ st) @ m_inv) @ s) * rho
        out.append(Reconstruction(q_bar=q_bar, sq_error=_sq_error(q, q_bar, r), class_id=pool.class_id))
    return out


def reconstruct_woodbury(q_batch, pool: SupportPool, params: HeadParams) -> list[Reconstruction]:
    """Reconstruct each query via the d x d system, right to left."""
    r, d = pool.r, pool.d
    blocks = _blocks(_query_stack(q_batch, r, d), r)
    s = pool.values
    lam = effective_lambda(params, pool.k, r, d)
    rho = np.asarray(params.rho, dtype=s.dtype)
    g = gram(s, "inner")
    hat = spd_solve(add_ridge(g, lam), g)
    out = []
    for q in blocks:
        q_bar = (q @ hat) * rho
        out.append(Reconstruction(q_bar=q_bar, sq_error=_sq_error(q, q_bar, r), class_id=pool.class_id))
    return out


def reconstruct(
    q_batch, pool: SupportPool, params: HeadParams, formulation: str = "auto"
) -> list[Reconstruction]:
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
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_pools(pools: Sequence[SupportPool]):
    """Pools must agree in (r, d): batched heads split queries by ``pools[0].r``."""
    if not pools:
        raise ValueError("at least one support pool is required")
    r, d = pools[0].r, pools[0].d
    for p in pools:
        if (p.r, p.d) != (r, d):
            raise ShapeError(f"pools disagree in (r, d): ({p.r},{p.d}) vs ({r},{d})")


def frn_distances(
    q_batch, pools: Sequence[SupportPool], params: HeadParams, formulation: str = "auto"
) -> np.ndarray:
    """(b, n) matrix of per-query, per-class reconstruction errors."""
    _check_pools(pools)
    per_class = [
        [rec.sq_error for rec in reconstruct(q_batch, pool, params, formulation)]
        for pool in pools
    ]
    return np.column_stack([np.asarray(c, dtype=np.float64) for c in per_class])


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
    r, d = pool.r, pool.d
    blocks = _blocks(_query_stack(q_batch, r, d), r)
    s = pool.values
    lam = effective_lambda(params, pool.k, r, d)
    m_inv = spd_inverse(add_ridge(gram(s, "outer"), lam))
    return [(q @ s.T) @ m_inv for q in blocks]
