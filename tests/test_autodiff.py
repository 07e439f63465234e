"""Gradient checks for every autodiff op against central finite differences."""

import numpy as np
import pytest

from frn import autodiff as ad
from frn.baselines import CtxParams, ctx_distances, proto_distances
from frn.head import SupportPool


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, x, rtol=1e-6, atol=1e-8):
    """build(Var) -> scalar Var; compares backward() grad to finite diff."""
    v = ad.Var(np.array(x, dtype=np.float64))
    loss = build(v)
    ad.backward(loss)

    def f(arr):
        return float(ad.value_of(build(ad.Var(arr))))

    fd = finite_diff(f, np.array(x, dtype=np.float64))
    np.testing.assert_allclose(v.grad, fd, rtol=rtol, atol=atol)


class TestElementwise:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        bias = rng.standard_normal(4)
        check_op(lambda v: ad.vsum(ad.mul(ad.add(v, bias), ad.add(v, bias))), x)
        # gradient w.r.t. the broadcast operand
        vb = ad.Var(bias)
        vx = ad.Var(x)
        loss = ad.vsum(ad.mul(ad.add(vx, vb), ad.add(vx, vb)))
        ad.backward(loss)
        fd = finite_diff(
            lambda b: float(np.sum((x + b) ** 2)), bias.copy()
        )
        np.testing.assert_allclose(vb.grad, fd, rtol=1e-6, atol=1e-8)

    def test_mul_div(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, size=(2, 3))
        check_op(lambda v: ad.vsum(ad.mul(ad.mul(v, v), ad.add(v, 3.0))), x)

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_op(lambda v: ad.vsum(ad.exp(v)), x)

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        check_op(lambda v: ad.vsum(ad.mul(ad.vsum(v, axis=1, keepdims=True), v)), x)


class TestMatrixOps:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_op(lambda v: ad.vsum(ad.mul(ad.matmul(v, b), ad.matmul(v, b))), a)
        check_op(lambda v: ad.vsum(ad.mul(ad.matmul(a, v), ad.matmul(a, v))), b)
        # a stack of left operands: the right operand's gradient sums over it
        stack = rng.standard_normal((2, 3, 4))
        check_op(lambda v: ad.vsum(ad.mul(ad.matmul(stack, v), ad.matmul(stack, v))), b)
        check_op(lambda v: ad.vsum(ad.mul(ad.matmul(v, b), ad.matmul(v, b))), stack)

    def test_transpose(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        check_op(lambda v: ad.vsum(ad.mul(ad.transpose(v), ad.transpose(v))), a)

    def test_add_scaled_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        s = 0.7
        check_op(lambda v: ad.vsum(ad.mul(ad.add_scaled_identity(v, s), 2.0)), a)
        vs = ad.Var(np.array(s))
        loss = ad.vsum(ad.mul(ad.add_scaled_identity(ad.Var(a), vs), ad.add_scaled_identity(a, vs)))
        ad.backward(loss)
        fd = finite_diff(
            lambda sv: float(np.sum((a + sv * np.eye(3)) ** 2)), np.array(s)
        )
        np.testing.assert_allclose(vs.grad, fd, rtol=1e-6, atol=1e-8)

    def test_spd_solve_grads(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3))
        spd = g @ g.T + 3.0 * np.eye(3)
        b = rng.standard_normal((3, 2))
        # grad through the right-hand side
        check_op(lambda v: ad.vsum(ad.mul(ad.spd_solve(spd, v), ad.spd_solve(spd, v))), b)
        # grad through the (symmetrized) matrix: build A = M + M^T to keep the
        # perturbed matrix symmetric for the finite-difference probe
        m0 = g @ g.T / 2 + 1.5 * np.eye(3)

        def build(v):
            a_sym = ad.add(v, ad.transpose(v))
            return ad.vsum(ad.mul(ad.spd_solve(a_sym, b), ad.spd_solve(a_sym, b)))

        check_op(build, m0, rtol=1e-5, atol=1e-7)

    def test_concat_and_column_stack(self):
        rng = np.random.default_rng(8)
        c1 = rng.standard_normal(4)

        def build_cols(v):
            mat = ad.column_stack([v, ad.mul(v, 2.0)])
            return ad.vsum(ad.mul(mat, mat))

        check_op(build_cols, c1)


class TestFusedOps:
    def test_block_sqnorm(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))

        def build(v):
            e = ad.block_sqnorm(v, 2)
            return ad.vsum(ad.mul(e, e))

        check_op(build, x)

    def test_block_mean_rows(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 3))

        def build(v):
            m = ad.block_mean_rows(v, 3)
            return ad.vsum(ad.mul(m, m))

        check_op(build, x)
        v = ad.Var(x)
        out = ad.block_mean_rows(v, 3)
        np.testing.assert_allclose(out.value, x.reshape(2, 3, 3).mean(axis=1))

    def test_row_normalize(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3)) + 0.5
        check_op(lambda v: ad.vsum(ad.mul(ad.row_normalize(v), np.arange(12.0).reshape(4, 3))), x)

    def test_row_normalize_zero_row(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        v = ad.Var(x)
        out = ad.row_normalize(v)
        np.testing.assert_allclose(out.value, [[0.0, 0.0], [0.6, 0.8]])
        ad.backward(ad.vsum(ad.mul(out, np.ones((2, 2)))))
        np.testing.assert_array_equal(v.grad[0], [0.0, 0.0])

    def test_cross_entropy_logits(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        check_op(lambda v: ad.cross_entropy_logits(v, labels), logits)
        val = float(ad.value_of(ad.cross_entropy_logits(ad.Var(logits), labels)))
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        expected = np.mean(lse - logits[np.arange(4), labels])
        assert val == pytest.approx(expected, abs=1e-12)


class TestClosedFormTrainingNodes:
    @pytest.mark.parametrize("formulation", ["direct", "woodbury"])
    def test_ridge_recon_errors_grads(self, formulation):
        rng = np.random.default_rng(16)
        n, kr, r, d, b = 3, 4, 2, 5, 2
        q = rng.standard_normal((b * r, d))
        s = rng.standard_normal((n, kr, d))
        w = rng.standard_normal((b, n))

        def build(q_, s_, lam_, rho_):
            return ad.vsum(ad.mul(ad.ridge_recon_errors(q_, s_, lam_, rho_, r, formulation), w))

        check_op(lambda v: build(v, s, 0.6, 1.3), q)
        check_op(lambda v: build(q, v, 0.6, 1.3), s)
        check_op(lambda v: build(q, s, v, 1.3), np.array(0.6))
        check_op(lambda v: build(q, s, 0.6, v), np.array(1.3))

    def test_ridge_recon_errors_values(self):
        # each entry is ||Q_i - rho Q_i H_c||^2 / r with H_c = (S^T S + lam I)^-1 S^T S
        rng = np.random.default_rng(17)
        n, kr, r, d, b = 2, 3, 2, 4, 3
        q = rng.standard_normal((b * r, d))
        s = rng.standard_normal((n, kr, d))
        expected = np.empty((b, n))
        for c in range(n):
            hat = np.linalg.solve(s[c].T @ s[c] + 0.5 * np.eye(d), s[c].T @ s[c])
            diff = q - 0.9 * q @ hat
            expected[:, c] = (diff.reshape(b, -1) ** 2).sum(axis=1) / r
        for formulation in ("direct", "woodbury"):
            out = ad.ridge_recon_errors(q, s, 0.5, 0.9, r, formulation).value
            np.testing.assert_allclose(out, expected, rtol=1e-10)
        with pytest.raises(ValueError):
            ad.ridge_recon_errors(q, s, 0.5, 0.9, r, "cholesky")

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 1, 5), (1, 3, 2)])  # n*kr > d, n*kr <= d, one class
    def test_cross_class_orthogonality(self, shape):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(shape)
        check_op(lambda v: ad.cross_class_orthogonality(v), x)
        expected = sum(
            np.sum((x[i] @ x[j].T) ** 2)
            for i in range(shape[0]) for j in range(shape[0]) if i != j
        )
        value = float(ad.cross_class_orthogonality(x).value)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,k,r,d,b", [(3, 2, 2, 4, 3), (1, 1, 3, 2, 2), (4, 3, 1, 5, 2)])
    def test_proto_distances(self, n, k, r, d, b):
        rng = np.random.default_rng(20 + n)
        q = rng.standard_normal((b * r, d))
        s = rng.standard_normal((n, k * r, d))
        pools = [SupportPool(class_id=c, k=k, values=s[c]) for c in range(n)]
        assert np.array_equal(ad.proto_distances(q, s, r, k).value, proto_distances(q, pools))
        w = rng.standard_normal((b, n))
        check_op(lambda v: ad.vsum(ad.mul(ad.proto_distances(v, s, r, k), w)), q)
        check_op(lambda v: ad.vsum(ad.mul(ad.proto_distances(q, v, r, k), w)), s)

    @pytest.mark.parametrize("mode", ["identity", "square", "d_k != d_v"])
    def test_ctx_errors_forward_is_the_heads(self, mode):
        rng = np.random.default_rng(21)
        n, k, r, d, b = 3, 2, 3, 5, 4
        params = {"identity": CtxParams.identity(), "square": CtxParams.random(d, rng=rng),
                  "d_k != d_v": CtxParams.random(d, d_k=3, d_v=6, rng=rng)}[mode]
        maps = rng.standard_normal((b, r, d))
        pools = [SupportPool(class_id=c, k=k, values=rng.standard_normal((k * r, d))) for c in range(n)]

        def project(x):  # as the head projects: identity mode attends with x itself
            return (x, x) if params.identity_mode else (x @ params.key_proj, x @ params.value_proj)

        q1, q2 = project(maps)
        keys, values = (np.stack(t) for t in zip(*(project(p.values) for p in pools)))
        got = ad.ctx_errors(q1.reshape(b * r, -1), q2.reshape(b * r, -1), keys, values, r).value
        assert np.array_equal(got, ctx_distances(maps.reshape(b * r, d), pools, params))

    @pytest.mark.parametrize("n", [1, 3])
    def test_ctx_errors_grads(self, n):
        rng = np.random.default_rng(22 + n)
        kr, r, d_k, d_v, b = 4, 2, 3, 5, 3
        ops = {"q1": rng.standard_normal((b * r, d_k)), "q2": rng.standard_normal((b * r, d_v)),
               "keys": rng.standard_normal((n, kr, d_k)), "values": rng.standard_normal((n, kr, d_v))}
        w = rng.standard_normal((b, n))
        for name in ops:
            def build(v, _name=name):
                args = {**ops, _name: v}
                return ad.vsum(ad.mul(ad.ctx_errors(args["q1"], args["q2"], args["keys"], args["values"], r), w))

            check_op(build, ops[name])

    def test_stack(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        check_op(lambda v: ad.vsum(ad.mul(ad.stack([v, b, v]), ad.stack([b, v, a]))), a)


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        x = ad.Var(np.array(3.0))
        y = ad.mul(x, x)  # x^2
        z = ad.add(y, ad.mul(x, 2.0))  # x^2 + 2x
        ad.backward(z)
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_first_gradient_is_an_owned_copy(self):
        # stack hands each part a view of its own gradient
        x = ad.Var(np.ones((2, 2)))
        out = ad.stack([x, np.zeros((2, 2))])
        ad.backward(ad.vsum(ad.mul(out, 3.0)))
        assert x.grad.flags.owndata and x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            ad.backward(ad.Var(np.ones(3)))

    def test_composed_solve_chain(self):
        # d/d lam of sum( (G + lam I)^-1 G ) via the full graph
        rng = np.random.default_rng(15)
        g = rng.standard_normal((4, 3))
        gram = g.T @ g

        def build(lam_var):
            a = ad.add_scaled_identity(gram, lam_var)
            hat = ad.spd_solve(a, gram)
            return ad.vsum(hat)

        lam0 = np.array(0.8)
        v = ad.Var(lam0)
        ad.backward(build(v))
        fd = finite_diff(lambda lv: float(ad.value_of(build(ad.Var(lv)))), lam0, h=1e-6)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-6, atol=1e-9)
