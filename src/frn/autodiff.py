"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery to differentiate episode losses through the
closed-form reconstruction: a ``Var`` wraps an ndarray and records a
backward closure; ``backward`` walks the graph in reverse topological
order. Non-Var operands are treated as constants: the two-operand ops
form no gradient product for them. Broadcasting in the elementwise ops,
and in ``matmul`` of an (n, m, d) stack by a (d, p) matrix, is undone
on the way back by summing over the broadcast axes. ``affine`` is the
embedding's x W + b as one node, over 2-D rows or a stack of pools:
dW = x^T g and db = sum g over every row.

Training builds one node per loss term from fused closed-form nodes,
each with an analytic VJP (dX is the gradient of X; w = 2 dE / r, where
dE is the gradient of the errors). The frn and dsn heads score through
``ridge_recon_errors`` (dsn on average-pooled maps, at r = 1 and rho = 1),
proto through ``proto_distances`` and ctx through ``ctx_errors``; the
last two run the forward of the eval head in ``baselines``.

* ``ridge_recon_errors``: the (b, n) reconstruction errors of every query
  against every class pool.
  - woodbury: G_c = S_c^T S_c, M_c = G_c + lam I and X_c = M_c^-1, one
    ``head.spd_inverse`` per class (looked up when called). Since
    M^-1 G = I - lam X, P_c = I - rho M_c^-1 G_c = (1 - rho) I + rho lam X_c
    and nothing is solved. The errors come from two stacks of d x d Grams,
    C_i = Q_i^T Q_i and T_c = P_c P_c^T, as err_ic = <C_i, T_c> / r (one
    GEMM over the flattened stacks; no (b*r, n*d) residual is formed).
    The C_i are products of one C-ordered copy of the stacked Q_i^T with
    the stack: at b 32, r 25 (1 BLAS thread) that took 0.09 against
    0.14 ms for the transposed view at d 64, and 13.6 against 26.4 ms at
    d 640. Rounding can take an error below zero by about
    eps ||Q_i||^2 ||P_c||^2; it is not clamped, since a clamp would cut
    the gradient. Backward reuses both stacks and X:
    dQ_i = Q_i sum_c w_ic T_c and dP_c = (sum_i w_ic C_i) P_c (dR P^T and
    Q^T dR regrouped), then dX = rho lam dP, dM = dG = -X^T dX X^T,
    dlam = rho <X, dP> + tr dM, drho = -<I - lam X, dP> and
    dS = S (dG + dG^T). dQ is formed in blocks of ``head._BLOCK`` queries
    through ``head._over_tasks``, each block's sum_c w_ic T_c and dQ_i in
    two buffers the caller allocated, while the caller forms dP, dM, dS,
    dlam and drho. The block size, not the CPU count, fixes every
    product's shape, so the results are identical in bits for any worker
    count. At ``train``'s shape (5 classes, 75 queries, r 25, d 64, 1 BLAS
    thread, a shared 2-vCPU host) the backward took 0.52-0.55 ms against
    0.75-0.78 ms when the caller formed all of it, and the forward, with
    the copied Q_i^T and ``spd_inverse`` on ``potri``, 0.97 against
    1.17 ms timed alone.
  - direct: per class, one factor M_c^-1 = (S_c S_c^T + lam I)^-1 and the
    eval head's direct step, on the calling thread, give A = Q S_c^T,
    W = A M_c^-1, W G_c = A - lam W (in A's buffer) and the unclamped
    errors. Backward keeps W, M^-1 and A - rho W G = (1 - rho) A + rho lam W,
    formed elementwise as (1 - rho) W G + lam W, and solves nothing:
    dW = -rho w (A - rho W G), dA = dW M^-1, dM = -W^T dA, dlam = tr dM,
    drho = -sum w <A - rho W G, W>,
    dS = (dA - rho w W)^T Q + (rho^2 sum_i w W^T W + dM + dM^T) S and
    dQ = (sum_c w) Q + sum_c (dA - rho w W) S_c.
* ``cross_class_orthogonality``: sum over ordered class pairs c != e of
  ||N_c N_e^T||^2, that is ||N N^T||^2 minus its diagonal blocks, taken
  on the d x d side: ||G||^2 - sum_c ||G_c||^2 with G_c = N_c^T N_c and
  G = sum_c G_c, and dN_c = 4 N_c (G - G_c).
* ``proto_distances``: D_ic = ||qp_i - P_c||^2 between pooled queries qp
  and prototypes P. dqp = 2 (diag(g 1) qp - g P) and
  dP = 2 (diag(g^T 1) P - g^T qp), with g = dD, spread as 1/r over each
  query's rows and 1/(kr) over each pool's rows.
* ``ctx_errors``: per class, E = exp(Q1 K^T / sqrt(d_k) - rowmax) with
  row sums s, A = E / s and R = A V - Q2, err_ic = ||R_i||^2 / r. The
  forward keeps each class's E, s and R (n (b*r, kr) weight arrays), so
  the backward forms no logits: one class at a time, dR = w R,
  dQ2 -= dR, u = dR / s, dV = A^T dR = E^T u and
  dL = A * (dR V^T - rowsum(dR V^T * A)) / sqrt(d_k)
     = E * (u V^T - rowsum(u * (R + Q2))) / sqrt(d_k),
  since rowsum(dR V^T * A) = rowsum(dR * A V); then dQ1 += dL K and
  dK = dL^T Q1, all as 2-D products over the b*r rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import baselines, head
from .linalg import spd_solve as _spd_solve_np  # not called here; perfbench's SPAN_TARGETS patches it


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


# ---------------------------------------------------------------------------
# matrix ops


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    return _binary(a, b, av @ bv, lambda g: g @ bv.T, lambda g: np.swapaxes(av, -1, -2) @ g)


def affine(x, w, b):
    """x @ W + b for 2-D rows or an (n, m, d_in) stack x; W and b reach every row."""
    xv, wv = value_of(x), value_of(w)
    h = xv @ wv
    h += value_of(b)
    out = Var(h, parents=(x, w, b))

    def vjp(g):
        rows, g_rows = xv.reshape(-1, xv.shape[-1]), g.reshape(-1, g.shape[-1])
        for v, grad_v in ((x, lambda: g @ wv.T), (w, lambda: rows.T @ g_rows),
                          (b, lambda: g_rows.sum(axis=0))):
            if isinstance(v, Var):
                _accumulate(v, grad_v())

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


# ---------------------------------------------------------------------------
# fused ops for episode losses


def block_mean_rows(x, rows_per_block: int):
    """Mean over consecutive row blocks: (..., m*rows, d) -> (..., m, d)."""
    xv = value_of(x)
    *lead, m_rows, d = xv.shape
    out_val = xv.reshape(*lead, m_rows // rows_per_block, rows_per_block, d).mean(axis=-2)
    out = Var(out_val, parents=(x,))

    def vjp(g):
        expanded = np.repeat(g / rows_per_block, rows_per_block, axis=-2)
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
    # X = M^-1 with M = G + lam I, once per class; M^-1 G = I - lam X
    x = np.stack([head.spd_inverse(g[c] + lam * eye) for c in range(n)])
    p = (1.0 - rho) * eye + (rho * lam) * x
    qb = qv.reshape(b, r, d)
    qtq = (np.ascontiguousarray(np.swapaxes(qb, 1, 2)) @ qb).reshape(b, d * d)
    ppt = (p @ np.swapaxes(p, 1, 2)).reshape(n, d * d)
    err = qtq @ ppt.T / r

    def grads(ge):
        # dR_ic = w_ic R_ic with w = 2 ge / r, so dQ = dR P^T and dP = Q^T dR
        # reduce to the forward's Grams: dQ_i = Q_i sum_c w_ic P_c P_c^T and
        # dP_c = (sum_i w_ic Q_i^T Q_i) P_c
        w = 2.0 / r * ge
        # allocated here, not in the workers, whose own heaps would keep them
        w_ppt, dq = np.empty((b, d * d)), np.empty((b, r, d))

        def block(lo, hi):
            np.matmul(w[lo:hi], ppt, out=w_ppt[lo:hi])
            np.matmul(qb[lo:hi], w_ppt[lo:hi].reshape(-1, d, d), out=dq[lo:hi])

        def pool_side():
            dp = (w.T @ qtq).reshape(n, d, d) @ p
            # dX = rho lam dP, and d(M^-1) = -X dM X gives dM = dG = -X^T dX X^T
            xt = np.swapaxes(x, 1, 2)
            dm = -(rho * lam) * (xt @ dp @ xt)
            ds = sv @ (dm + np.swapaxes(dm, 1, 2))
            x_dp = np.vdot(x, dp)
            # P = (1 - rho) I + rho lam X: drho = -<I - lam X, dP>
            dlam = rho * x_dp + np.trace(dm, axis1=1, axis2=2).sum()
            return ds, dlam, lam * x_dp - np.trace(dp, axis1=1, axis2=2).sum()

        blocks = [(lo, min(lo + head._BLOCK, b)) for lo in range(0, b, head._BLOCK)]
        ds, dlam, drho = head._over_tasks(block, blocks, pool_side)
        return dq.reshape(b * r, d), ds, dlam, drho

    return err, grads


def _direct_errors(qv, sv, lam, rho, r):
    """kr x kr side: head's direct step for each class on the calling thread, not clamped at 0."""
    n, kr, d = sv.shape
    qb = qv.reshape(-1, r, d)
    b, sq_norms = len(qb), head._row_dots(qb, qb)
    factors = [head._direct_factor(sv[c], lam) for c in range(n)]
    st = np.ascontiguousarray(np.swapaxes(sv, 1, 2))
    a, w = np.empty((2, n, b, r, kr))
    err = np.empty((b, n))
    for c in range(n):
        head._query_products(qb, st[c], a[c])
        head._direct_step(a[c], sq_norms, factors[c], rho, w[c], err[:, c])
        # A - rho W G, all the backward needs of A, from W G = A - lam W in A's place
        a[c] *= 1.0 - rho
        a[c] += lam * w[c]

    def grads(ge):
        wq = (2.0 / r * ge.T)[:, :, None, None]  # (n, b, 1, 1): w = 2 dE / r
        ws, wws = w.reshape(n, b * r, kr), (wq * w).reshape(n, b * r, kr)
        da = (-rho * wq * a).reshape(n, b * r, kr) @ np.stack([f[0] for f in factors])
        dm = -np.swapaxes(ws, 1, 2) @ da
        da -= rho * wws  # dA - rho w W: the whole gradient of A = Q S^T
        dg = rho * rho * (np.swapaxes(wws, 1, 2) @ ws) + dm + np.swapaxes(dm, 1, 2)
        ds = np.swapaxes(da, 1, 2) @ qv + dg @ sv
        dq = (wq.sum(axis=0) * qb).reshape(b * r, d)
        dq += np.swapaxes(da, 0, 1).reshape(b * r, n * kr) @ sv.reshape(n * kr, d)
        return dq, ds, np.trace(dm, axis1=1, axis2=2).sum(), -np.vdot(a, wws)

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
    kept = []
    err = baselines.ctx_errors(q1v.reshape(b, r, -1), q2v.reshape(b, r, -1), kv, vv, keep=kept)
    out = Var(err, parents=(q1, q2, keys, values))

    def vjp(g):
        w = np.repeat(2.0 / r * g, r, axis=0)  # (b*r, n): each residual row's weight
        scale = 1.0 / math.sqrt(q1v.shape[1])
        dq1, dq2 = np.zeros_like(q1v), np.zeros_like(q2v)
        dk, dv = np.empty_like(kv), np.empty_like(vv)
        for c, (e, sums, res) in enumerate(kept):
            e, res = e.reshape(b * r, -1), res.reshape(b * r, -1)
            dr = res * w[:, c : c + 1]
            dq2 -= dr
            u = dr / sums.reshape(-1, 1)
            dv[c] = e.T @ u
            dl = u @ vv[c].T
            dl -= np.sum(u * (res + q2v), axis=1, keepdims=True)
            dl *= e
            dl *= scale
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
