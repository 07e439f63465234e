"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery to differentiate episode losses through the
closed-form reconstruction: a ``Var`` wraps an ndarray and records a
backward closure; ``backward`` walks the graph in reverse topological
order. Non-Var operands are treated as constants: the two-operand ops
form no gradient product for them. Broadcasting in the elementwise ops,
and in ``matmul`` of an (n, m, d) stack by a (d, p) matrix, is undone
on the way back by summing over the broadcast axes.

The solve node uses the closed-form sensitivity of X = A^-1 B:
grad_B = A^-T g and grad_A = -grad_B X^T, which follows from
d(A^-1) = -A^-1 dA A^-1.

Training builds one node per loss term from fused closed-form nodes,
each with an analytic VJP (dX is the gradient of X; w = 2 dE / r, where
dE is the gradient of the errors). The frn and dsn heads score through
``ridge_recon_errors`` (dsn on average-pooled maps, at r = 1 and rho = 1),
proto through ``proto_distances`` and ctx through ``ctx_errors``; the
last two run the forward of the eval head in ``baselines``.

* ``ridge_recon_errors``: the (b, n) reconstruction errors of every query
  against every class pool.
  - woodbury: G_c = S_c^T S_c, M_c = G_c + lam I, H_c = M_c^-1 G_c and
    P_c = I - rho H_c. The errors come from two stacks of d x d Grams,
    C_i = Q_i^T Q_i and T_c = P_c P_c^T, as err_ic = <C_i, T_c> / r (one
    GEMM over the flattened stacks; no (b*r, n*d) residual is formed).
    Rounding can take an error below zero by about eps ||Q_i||^2 ||P_c||^2;
    it is not clamped, since a clamp would cut the gradient. Backward
    reuses both stacks: dQ_i = Q_i sum_c w_ic T_c and
    dP_c = (sum_i w_ic C_i) P_c (dR P^T and Q^T dR regrouped), then
    dH = -rho dP, drho = -<H, dP>, the solve sensitivity above for
    H = M^-1 G, dlam = tr dM and dS = S (dG + dG^T).
  - direct: K_c = S_c S_c^T + lam I, A_c = Q S_c^T, W_c = A_c K_c^-1 and
    R_c = Q - rho W_c S_c. Backward: dW = -rho dR S^T, dA = dW K^-1,
    dK = -W^T dA, dlam = tr dK, drho = -<dR, W S>,
    dS = -rho W^T dR + (dK + dK^T) S + dA^T Q and dQ = sum_c dR_c + dA_c S_c.
  The forward solves and the backward solves (one each per class) go
  through ``_spd_solve_np``, looked up when called.
* ``cross_class_orthogonality``: sum over ordered class pairs c != e of
  ||N_c N_e^T||^2, that is ||N N^T||^2 minus its diagonal blocks, taken
  on the d x d side: ||G||^2 - sum_c ||G_c||^2 with G_c = N_c^T N_c and
  G = sum_c G_c, and dN_c = 4 N_c (G - G_c).
* ``proto_distances``: D_ic = ||qp_i - P_c||^2 between pooled queries qp
  and prototypes P. dqp = 2 (diag(g 1) qp - g P) and
  dP = 2 (diag(g^T 1) P - g^T qp), with g = dD, spread as 1/r over each
  query's rows and 1/(kr) over each pool's rows.
* ``ctx_errors``: per class, A = softmax(Q1 K^T / sqrt(d_k)) and
  R = A V - Q2, err_ic = ||R_i||^2 / r. Backward, one class at a time and
  with A recomputed (no n attention tensors are kept): dR = w R,
  dQ2 -= dR, dV = A^T dR, dL = A * (dR V^T - rowsum(dR V^T * A)) / sqrt(d_k),
  dQ1 += dL K and dK = dL^T Q1, all as 2-D products over the b*r rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import baselines
from .linalg import spd_solve as _spd_solve_np


class Var:
    """A node in the computation graph: a value plus a backward rule."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes that were added or broadcast to reach its shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _accumulate(var, g):
    if not isinstance(var, Var):
        return
    if var.grad is None:
        # an owned copy: ``g`` may be a view of another array, and later
        # accumulations add into this one in place
        var.grad = np.array(g, dtype=np.float64)
    else:
        var.grad += g


def backward(loss: Var):
    """Populate ``grad`` on every Var reachable from ``loss``.

    ``loss`` must be scalar; its gradient seeds at 1.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    order: list[Var] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, Var) and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


# ---------------------------------------------------------------------------
# elementwise ops with broadcasting


def _binary(a, b, value, grad_a, grad_b):
    """A two-operand node whose gradient products are formed only for Vars.

    ``grad_a(g)`` and ``grad_b(g)`` give each operand's gradient before
    broadcasting is undone; neither runs for a constant operand.
    """
    out = Var(value, parents=(a, b))

    def vjp(g):
        for x, grad_x in ((a, grad_a), (b, grad_b)):
            if isinstance(x, Var):
                _accumulate(x, _unbroadcast(grad_x(g), x.value.shape))

    out._vjp = vjp
    return out


def add(a, b):
    return _binary(a, b, value_of(a) + value_of(b), lambda g: g, lambda g: g)


def sub(a, b):
    return _binary(a, b, value_of(a) - value_of(b), lambda g: g, lambda g: -g)


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    return _binary(a, b, av * bv, lambda g: g * bv, lambda g: g * av)


def exp(a):
    av = value_of(a)
    out = Var(np.exp(av), parents=(a,))

    def vjp(g):
        _accumulate(a, g * out.value)

    out._vjp = vjp
    return out


def vsum(a, axis=None, keepdims=False):
    av = value_of(a)
    out = Var(av.sum(axis=axis, keepdims=keepdims), parents=(a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, av.shape))

    out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# matrix ops


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    return _binary(a, b, av @ bv, lambda g: g @ bv.T, lambda g: np.swapaxes(av, -1, -2) @ g)


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
    x = _spd_solve_np(av, bv)
    out = Var(x, parents=(a, b))

    def vjp(g):
        gb = _spd_solve_np(av, g)
        _accumulate(b, gb)
        _accumulate(a, -gb @ x.T)

    out._vjp = vjp
    return out


def stack(parts):
    """Stack equal-shaped operands along a new leading axis."""
    out = Var(np.stack([value_of(p) for p in parts]), parents=tuple(parts))

    def vjp(g):
        for p, gp in zip(parts, g):
            _accumulate(p, gp)

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


# ---------------------------------------------------------------------------
# fused ops for episode losses


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


def block_mean_rows(x, rows_per_block: int):
    """Mean over consecutive row blocks: (m*rows, d) -> (m, d)."""
    xv = value_of(x)
    m = xv.shape[0] // rows_per_block
    out_val = xv.reshape(m, rows_per_block, xv.shape[1]).mean(axis=1)
    out = Var(out_val, parents=(x,))

    def vjp(g):
        expanded = np.repeat(g / rows_per_block, rows_per_block, axis=0)
        _accumulate(x, expanded)

    out._vjp = vjp
    return out


def row_normalize(x):
    """Rows (along the last axis) projected to the unit sphere; zero rows stay zero."""
    xv = value_of(x)
    norms = np.linalg.norm(xv, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    o = xv / safe
    out = Var(o, parents=(x,))

    def vjp(g):
        inner = (g * o).sum(axis=-1, keepdims=True)
        gx = (g - o * inner) / safe
        gx[norms[..., 0] == 0.0] = 0.0
        _accumulate(x, gx)

    out._vjp = vjp
    return out


def cross_entropy_logits(logits, labels):
    """Mean negative log-likelihood from logits; labels are constant ints."""
    lv = value_of(logits)
    labels = np.asarray(labels)
    n_q = lv.shape[0]
    m = lv.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(lv - m).sum(axis=1))
    value = np.mean(lse - lv[np.arange(n_q), labels])
    out = Var(value, parents=(logits,))
    probs = np.exp(lv - m)
    probs /= probs.sum(axis=1, keepdims=True)

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(n_q), labels] -= 1.0
        _accumulate(logits, gl * (g / n_q))

    out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# closed-form training nodes: one node per loss term


def _woodbury_errors(qv, sv, lam, rho, r):
    """d x d side: err_ic = <Q_i^T Q_i, P_c P_c^T> / r, not clamped at 0."""
    n, _, d = sv.shape
    b = qv.shape[0] // r
    eye = np.eye(d)
    g = np.swapaxes(sv, 1, 2) @ sv
    m = g + lam * eye
    hat = np.stack([_spd_solve_np(m[c], g[c]) for c in range(n)])
    p = eye - rho * hat
    qb = qv.reshape(b, r, d)
    qtq = (np.swapaxes(qb, 1, 2) @ qb).reshape(b, d * d)
    ppt = (p @ np.swapaxes(p, 1, 2)).reshape(n, d * d)
    err = qtq @ ppt.T / r

    def grads(ge):
        # dR_ic = w_ic R_ic with w = 2 ge / r, so dQ = dR P^T and dP = Q^T dR
        # reduce to the forward's Grams: dQ_i = Q_i sum_c w_ic P_c P_c^T and
        # dP_c = (sum_i w_ic Q_i^T Q_i) P_c
        w = 2.0 / r * ge
        dq = (qb @ (w @ ppt).reshape(b, d, d)).reshape(b * r, d)
        dp = (w.T @ qtq).reshape(n, d, d) @ p
        # H = M^-1 G through the solve sensitivity, with M = G + lam I
        gb = np.stack([_spd_solve_np(m[c], -rho * dp[c]) for c in range(n)])
        dm = -gb @ np.swapaxes(hat, 1, 2)
        dg = gb + dm
        ds = sv @ (dg + np.swapaxes(dg, 1, 2))
        return dq, ds, np.trace(dm, axis1=1, axis2=2).sum(), -np.vdot(hat, dp)

    return err, grads


def _direct_errors(qv, sv, lam, rho, r):
    """kr x kr side: W_c = A_c K_c^-1, A_c = Q S_c^T, K_c = S_c S_c^T + lam I, R_c = Q - rho W_c S_c."""
    n, kr, _ = sv.shape
    b = qv.shape[0] // r
    st = np.swapaxes(sv, 1, 2)
    k = sv @ st + lam * np.eye(kr)
    w = np.stack([_spd_solve_np(k[c], (qv @ st[c]).T).T for c in range(n)])
    ws = w @ sv
    res = qv - rho * ws
    flat = res.reshape(n, b, -1)
    err = np.einsum("cij,cij->ic", flat, flat) / r

    def grads(ge):
        dres = res * np.repeat(2.0 / r * ge.T, r, axis=1)[:, :, None]
        dw = -rho * (dres @ st)
        da = np.stack([_spd_solve_np(k[c], dw[c].T).T for c in range(n)])
        wt = np.swapaxes(w, 1, 2)
        dk = -wt @ da
        ds = -rho * (wt @ dres) + (dk + np.swapaxes(dk, 1, 2)) @ sv + np.swapaxes(da, 1, 2) @ qv
        dq = (dres + da @ sv).sum(axis=0)
        return dq, ds, np.trace(dk, axis1=1, axis2=2).sum(), -np.vdot(dres, ws)

    return err, grads


def ridge_recon_errors(q, supports, lam, rho, r: int, formulation: str):
    """(b, n) reconstruction errors of b queries against n class pools, as one node.

    ``q`` is the (b*r, d) query stack and ``supports`` the (n, kr, d) pool
    stack. Entry (i, c) is ||Q_i - rho Q_i S_c^T (S_c S_c^T + lam I)^-1 S_c||^2 / r,
    the error ``head`` scores with. ``rho=None`` means rho = 1 with no
    gradient; ``formulation`` is 'direct' or 'woodbury'.
    """
    qv, sv = value_of(q), value_of(supports)
    kernels = {"direct": _direct_errors, "woodbury": _woodbury_errors}
    if formulation not in kernels:
        raise ValueError(f"unknown formulation {formulation!r}")
    rho_v = 1.0 if rho is None else float(value_of(rho))
    err, grads = kernels[formulation](qv, sv, float(value_of(lam)), rho_v, r)
    out = Var(err, parents=(q, supports, lam, rho))

    def vjp(g):
        dq, ds, dlam, drho = grads(g)
        _accumulate(q, dq)
        _accumulate(supports, ds)
        _accumulate(lam, dlam)
        _accumulate(rho, drho)

    out._vjp = vjp
    return out


def proto_distances(q, supports, r: int, k: int):
    """(b, n) squared distances from b pooled queries to n class prototypes, as one node.

    ``q`` is the (b*r, d) query stack and ``supports`` the (n, k*r, d) pool
    stack; the forward is ``baselines.proto_sqdist``.
    """
    qv, sv = value_of(q), value_of(supports)
    maps = qv.reshape(qv.shape[0] // r, r, qv.shape[1])
    out = Var(baselines.proto_sqdist(maps, sv), parents=(q, supports))

    def vjp(g):
        qp = maps.mean(axis=1)
        protos = baselines.proto_prototypes(sv, r)
        dqp = 2.0 * (g.sum(axis=1)[:, None] * qp - g @ protos)
        dp = 2.0 * (g.sum(axis=0)[:, None] * protos - g.T @ qp)
        _accumulate(q, np.repeat(dqp / r, r, axis=0))
        _accumulate(supports, np.broadcast_to((dp / (k * r))[:, None, :], sv.shape))

    out._vjp = vjp
    return out


def ctx_errors(q1, q2, keys, values, r: int):
    """(b, n) mean squared attention-reconstruction errors, as one node.

    ``q1`` (b*r, d_k) and ``q2`` (b*r, d_v) are the projected query stacks,
    ``keys`` (n, kr, d_k) and ``values`` (n, kr, d_v) the projected pool
    stacks; the forward is ``baselines.ctx_errors``.
    """
    q1v, q2v, kv, vv = (value_of(x) for x in (q1, q2, keys, values))
    b = q1v.shape[0] // r
    err = baselines.ctx_errors(q1v.reshape(b, r, -1), q2v.reshape(b, r, -1), kv, vv)
    out = Var(err, parents=(q1, q2, keys, values))

    def vjp(g):
        w = np.repeat(2.0 / r * g, r, axis=0)  # (b*r, n): each residual row's weight
        scale = 1.0 / math.sqrt(q1v.shape[1])
        dq1, dq2 = np.zeros_like(q1v), np.zeros_like(q2v)
        dk, dv = np.empty_like(kv), np.empty_like(vv)
        for c in range(kv.shape[0]):
            a = baselines.ctx_attention(q1v, kv[c])
            dr = (a @ vv[c] - q2v) * w[:, c : c + 1]
            dq2 -= dr
            dv[c] = a.T @ dr
            da = dr @ vv[c].T
            dl = a * (da - (da * a).sum(axis=1, keepdims=True)) * scale
            dq1 += dl @ kv[c]
            dk[c] = dl.T @ q1v
        for x, gx in ((q1, dq1), (q2, dq2), (keys, dk), (values, dv)):
            _accumulate(x, gx)

    out._vjp = vjp
    return out


def cross_class_orthogonality(x):
    """Sum over ordered class pairs c != e of ||N_c N_e^T||^2, for an (n, kr, d) stack N.

    This is ||N N^T||^2 of the (n*kr, d) row stack minus its n diagonal
    blocks, computed as ||G||^2 - sum_c ||G_c||^2 with G_c = N_c^T N_c
    and G = sum_c G_c (so one class gives exactly 0).
    """
    xv = value_of(x)
    gc = np.swapaxes(xv, 1, 2) @ xv
    g = gc.sum(axis=0)
    out = Var(np.vdot(g, g) - np.vdot(gc, gc), parents=(x,))

    def vjp(g_out):
        # dN_c = 4 N_c sum_{e != c} G_e
        _accumulate(x, (4.0 * g_out) * (xv @ (g - gc)))

    out._vjp = vjp
    return out
