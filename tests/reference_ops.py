"""Small autodiff ops that only tests build graphs from.

Training scores every class in one fused node; these ops spell the same
losses out step by step, as the per-class and per-pool references that the
fused nodes are compared against, and as the scalar reductions that turn a
node's output into a loss for gradient checks.

The solve node uses the closed-form sensitivity of X = A^-1 B:
grad_B = A^-T g and grad_A = -grad_B X^T, which follows from
d(A^-1) = -A^-1 dA A^-1.
"""

import numpy as np

from frn import linalg
from frn.autodiff import Var, _accumulate, _binary, value_of


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
