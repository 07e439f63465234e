"""Small ops that only tests use.

Training scores every class in one fused node; the autodiff ops here
spell the same losses out step by step, as the per-class and per-pool
references that the fused nodes are compared against, and as the scalar
reductions that turn a node's output into a loss for gradient checks.

The solve node uses the closed-form sensitivity of X = A^-1 B:
grad_B = A^-T g and grad_A = -grad_B X^T, which follows from
d(A^-1) = -A^-1 dA A^-1.

The numpy helpers at the end form an SPD inverse straight from LAPACK,
score one pool or one query at a time, as the references that the
batched heads are compared against, and build the random ctx
projections and per-class item counts the tests check.
"""

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

from frn import linalg
from frn.autodiff import Var, _accumulate, _binary, value_of
from frn.baselines import CtxParams, _ctx_exp, _ctx_keys, _ctx_project, proto_prototypes
from frn.head import _shifted_exp


def sub(a, b):
    return _binary(a, b, value_of(a) - value_of(b), lambda g: g, lambda g: -g)


def vsum(a, axis=None, keepdims=False):
    av = value_of(a)
    out = Var(av.sum(axis=axis, keepdims=keepdims), parents=(a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, av.shape))

    out._vjp = vjp
    return out


def transpose(a):
    av = value_of(a)
    out = Var(av.T.copy(), parents=(a,))

    def vjp(g):
        _accumulate(a, g.T)

    out._vjp = vjp
    return out


def add_scaled_identity(a, s):
    """A + s * I for square A and scalar s."""
    av, sv = value_of(a), value_of(s)
    out = Var(av + sv * np.eye(av.shape[-1]), parents=(a, s))

    def vjp(g):
        _accumulate(a, g)
        _accumulate(s, np.asarray(np.trace(g)))

    out._vjp = vjp
    return out


def spd_solve(a, b):
    """X = A^-1 B with A symmetric positive-definite."""
    av, bv = value_of(a), value_of(b)
    x = linalg.spd_solve(av, bv)
    out = Var(x, parents=(a, b))

    def vjp(g):
        gb = linalg.spd_solve(av, g)
        _accumulate(b, gb)
        _accumulate(a, -gb @ x.T)

    out._vjp = vjp
    return out


def column_stack(cols):
    """Stack 1-D vectors of equal length into the columns of a matrix."""
    vals = [value_of(c) for c in cols]
    out = Var(np.column_stack(vals), parents=tuple(cols))

    def vjp(g):
        for j, c in enumerate(cols):
            _accumulate(c, g[:, j])

    out._vjp = vjp
    return out


def block_sqnorm(x, rows_per_block: int):
    """Per-block squared Frobenius norm of consecutive row blocks.

    An (m*rows_per_block, d) input yields an (m,) vector whose i-th entry
    is the sum of squares of block i.
    """
    xv = value_of(x)
    m = xv.shape[0] // rows_per_block
    blocks = xv.reshape(m, rows_per_block * xv.shape[1])
    out = Var((blocks * blocks).sum(axis=1), parents=(x,))

    def vjp(g):
        _accumulate(x, (2.0 * blocks * g[:, None]).reshape(xv.shape))

    out._vjp = vjp
    return out


def potri_inverse(a):
    """A^-1 of an SPD float matrix from LAPACK potrf then potri, its lower triangle mirrored."""
    potrf, potri = get_lapack_funcs(("potrf", "potri"), (a,))
    c, info = potrf(a, lower=1)
    assert info == 0, info
    x, info = potri(c, lower=1)
    assert info == 0, info
    lower = np.tril(x)
    return np.ascontiguousarray(lower + np.tril(lower, -1).T)


def proto_prototype(pool):
    """Class prototype of one pool (see ``baselines.proto_prototypes``)."""
    return proto_prototypes([pool.values], pool.r)[0]


def ctx_attention(q1, s1):
    """Row-wise softmax attention weights softmax(Q1 S1^T / sqrt(d_k)), in float64.

    The ``_ctx_exp`` pass the errors take, divided here by its row sums.
    """
    e, sums = _ctx_exp(q1, _ctx_keys(q1, s1), *ctx_buffers(q1, s1))
    e /= sums
    return e


def ctx_buffers(q1, s1):
    """The float64 weight and row-sum buffers ``_ctx_exp`` fills for queries ``q1``
    against keys ``s1``."""
    return np.empty(q1.shape[:-1] + (len(s1),)), np.empty(q1.shape[:-1] + (1,))


def ctx_reconstruct(q_vals, pool_vals, params):
    """Attention reconstruction; returns (projected query, reconstruction).

    ``q_vals`` is one (r, d) map or a (b, r, d) stack; each map attends
    over the pool on its own.
    """
    q1, q2 = _ctx_project(q_vals, params)
    s1, s2 = _ctx_project(pool_vals, params)
    e, sums = _ctx_exp(q1, _ctx_keys(q1, s1), *ctx_buffers(q1, s1))
    recon = e @ s2
    recon /= sums
    return q2, recon


def softmax(logits):
    """Numerically stable softmax (max-subtracted)."""
    e = np.array(logits, dtype=np.float64)
    e /= _shifted_exp(e, np.empty(e.shape[:-1] + (1,)))
    return e


def random_ctx_params(d, d_k=None, d_v=None, rng=None):
    """Small random ctx projections, square (d_k = d_v = d) by default."""
    rng = np.random.default_rng(rng)
    d_k = d if d_k is None else d_k
    d_v = d if d_v is None else d_v
    return CtxParams(
        key_proj=rng.standard_normal((d, d_k)) / math.sqrt(d),
        value_proj=rng.standard_normal((d, d_v)) / math.sqrt(d),
    )


def class_counts(ds):
    """Items per class of a ``Dataset``, keyed by class id."""
    return {cid: len(maps) for cid, maps in ds.classes.items()}
